"""S4 -- model validation: the analytic cost formulas against the
simulated disk's measured elapsed time for the same physical operations.

For sequential scans, random fetch batches and index descents, the model
and the measurement must agree in *ordering* (which operation is more
expensive) and within a bounded relative error for scans/fetches.
"""

from repro.bench.reporting import emit, table
from repro.cost.fileops import indcost, rndcost, seqcost
from repro.storage.btree import BPlusTree
from repro.storage.disk import DiskParams
from repro.storage.manager import StorageManager


def build_storage(num_records=3000, payload=120):
    sm = StorageManager(buffer_capacity=8)
    data = sm.create_file("data")
    oids = [sm.insert(data, bytes(payload)) for _ in range(num_records)]
    sm.buffer.flush_all()
    sm.buffer.drop_all()
    return sm, data, oids


def test_shape_cost_model_validation(benchmark):
    sm, data, oids = build_storage()
    params: DiskParams = sm.params

    def measured_scan() -> float:
        sm.buffer.drop_all()
        before = sm.io_snapshot()
        for _ in sm.scan([data]):
            pass
        return sm.io_stats.since(before).elapsed_ms

    scan_ms = benchmark(measured_scan)
    scan_model = seqcost(params, data.nbpages())

    # Random fetches: every 7th record, buffers dropped.
    sm.buffer.drop_all()
    targets = oids[:: 7]
    before = sm.io_snapshot()
    for oid in targets:
        data.read(oid)
        sm.buffer.drop_all()   # defeat locality: the model's worst case
    random_ms = sm.io_stats.since(before).elapsed_ms
    random_model = rndcost(params, len(targets))

    # Index descent: model INDCOST vs accounted node visits.
    tree = sm.create_btree_index("by_key", order=16)
    for index, oid in enumerate(oids):
        tree.insert(index, oid)
    before = sm.io_snapshot()
    for key in range(0, 3000, 100):
        tree.search(key)
    index_ms = sm.io_stats.since(before).elapsed_ms
    index_model = indcost(params, tree.params(), 30)

    rows = [
        ["sequential scan", round(scan_model, 1), round(scan_ms, 1)],
        [f"{len(targets)} random fetches", round(random_model, 1),
         round(random_ms, 1)],
        ["30 index probes", round(index_model, 1), round(index_ms, 1)],
    ]
    # Agreement in shape: the expensive operation is expensive both ways.
    assert random_model > scan_model
    assert random_ms > scan_ms
    # Bounded relative error for the scan and fetch models.
    assert abs(scan_ms - scan_model) / scan_model < 0.35
    assert abs(random_ms - random_model) / random_model < 0.35
    # INDCOST is an approximation; demand the right order of magnitude.
    assert index_model / 5 <= index_ms <= index_model * 5

    emit(
        "shape_cost_validation",
        f"storage: {data.nbpages()} data pages, B+-tree level "
        f"{tree.params().level}:\n"
        + table(["operation", "model (ms)", "measured (ms)"], rows)
        + "\n\nshape: the analytic Section 5 formulas track the simulated "
        "disk;\nsequential < random in both worlds.",
    )
