"""Self-tests of the benchmark.  Run explicitly (tier-1 does not collect
this directory)::

    python3 -m pytest moodbench/tests -q

The slow test runs ``python3 -m moodbench --quick`` once (about three
minutes) and checks the whole document against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from moodbench import gen, spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "moodbench", *args], cwd=ROOT,
        capture_output=True, text=True, timeout=900,
    )


def _git_status() -> str:
    return subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
        text=True, check=True,
    ).stdout


def test_manifest_matches_spec_and_contract():
    manifest = _manifest()
    assert manifest == spec.manifest()
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = ([w["name"] for w in manifest["workloads"]]
             + [m["name"] for m in manifest["end_to_end"]]
             + [m["name"] for m in manifest["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for workload in manifest["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    # What is counted, not timed, holds the issue's ceiling.
    assert bounds["rss_mb"] <= 0.10
    assert bounds["charged_io_ms_per_txn"] <= 0.10
    assert 1 <= manifest["run_seconds"] <= 60


def test_stream_is_a_function_of_the_seed_alone():
    for workload in spec.WORKLOADS:
        assert (gen.workload_digest(workload, 7)
                == gen.workload_digest(workload, 7))
        assert (gen.workload_digest(workload, 7)
                != gen.workload_digest(workload, 8))


def test_digest_is_the_same_in_another_process():
    """...whatever that process's hash seed is."""
    workload = spec.WORKLOADS[0]
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run(
        [sys.executable, "-c",
         "from moodbench import gen, spec;"
         "print(gen.workload_digest(spec.WORKLOADS[0], 7))"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    assert out == gen.workload_digest(workload, 7)


def test_every_deck_holds_the_stated_mix():
    for workload in spec.WORKLOADS:
        deck = sum(count for _, count in workload.mix)
        kinds = [txn.kind for txn in gen.first_txns(workload, 3, 5 * deck)]
        for start in range(0, len(kinds), deck):
            hand = kinds[start:start + deck]
            assert ({kind: hand.count(kind) for kind in set(hand)}
                    == dict(workload.mix))


def test_no_result_without_the_program(tmp_path):
    """A directory holding only the manifest and the benchmark must fail
    without printing a result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "moodbench"), tmp_path / "moodbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "-m", "moodbench", "--workload",
         "embedded-traverse", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


@pytest.mark.slow
def test_quick_run_emits_every_metric_and_leaves_the_tree_clean():
    before = _git_status()
    done = _bench("--quick", "--seed", "11")
    assert done.returncode == 0, done.stderr[-2000:]
    assert _git_status() == before
    document = json.loads(done.stdout.strip().splitlines()[-1])
    assert document["comparable"] is False
    manifest = _manifest()
    assert set(document["workloads"]) == {
        w["name"] for w in manifest["workloads"]}
    for name, result in document["workloads"].items():
        assert result["correct"] and result["ops_failed"] == 0, name
        assert result["ops_attempted"] > 0
        for group in ("end_to_end", "per_layer"):
            want = {m["name"]: m["unit"] for m in manifest[group]}
            got = {k: v["unit"] for k, v in result[group].items()}
            assert got == want, (name, group)
        e2e = {k: v["value"] for k, v in result["end_to_end"].items()}
        assert all(value > 0 for value in e2e.values()), (name, e2e)
        layer = {k: v["value"] for k, v in result["per_layer"].items()}
        whole = (layer["server.client.call_ms"]
                 or layer["core.database.execute_ms"])
        assert abs(layer["self.unattributed_ms"]) <= 0.05 * whole, name
        assert layer["bench.generator_busy_share"] < 0.5, name
        assert os.path.exists(os.path.join(
            ROOT, "moodbench", "out", f"trace-{name}.json"))
    # Hot fits the buffer pool, cold overflows it.  (Cold does not miss
    # the object cache: README, "server-scan-cold".)
    for name in ("embedded-traverse", "server-oltp", "sharded-oltp"):
        hot = document["workloads"][name]["per_layer"]
        assert hot["storage.buffer.hit_ratio"]["value"] >= 0.99, name
    cold = document["workloads"]["server-scan-cold"]["per_layer"]
    assert cold["storage.buffer.hit_ratio"]["value"] <= 0.9
    assert cold["storage.disk.page_reads_per_txn"]["value"] > 10
