"""Table 8 -- the cost model parameters, measured from a live database.

Collects every Table 8 parameter (|C|, nbpages, size, notnull, fan,
totref, dist, max, min; totlinks and hitprb derived) with ANALYZE and
verifies the derivation identities on the live numbers.
"""

import pytest

from repro.bench.reporting import emit, table
from repro.cost.statistics import collect_statistics


def test_table08_cost_parameters(live_db, benchmark):
    kernel = live_db.kernel
    stats = benchmark(
        lambda: collect_statistics(
            kernel.catalog,
            objects_of=lambda n: list(kernel.objects.iter_extent(n, deep=False)),
        )
    )
    class_rows = [
        [name, card.count, card.nbpages, card.size]
        for name, card in sorted(stats.classes.items())
    ]
    ref_rows = []
    for (class_name, attr), ref in sorted(stats.references.items()):
        if stats.card(class_name) == 0:
            continue
        totlinks = stats.totlinks(attr, class_name)
        hitprb = stats.hitprb(attr, class_name)
        # The paper's derivations hold on measured data:
        assert totlinks == pytest.approx(ref.fan * stats.card(class_name))
        assert hitprb == pytest.approx(ref.totref / stats.card(ref.target))
        assert 0 <= hitprb <= 1
        ref_rows.append([f"{class_name}.{attr}", ref.target,
                         round(ref.fan, 3), ref.totref,
                         round(totlinks, 1), round(hitprb, 4)])
    attr_rows = [
        [f"{class_name}.{attr}", a.dist, a.max, a.min, round(a.notnull, 3)]
        for (class_name, attr), a in sorted(stats.attributes.items())
    ]
    emit(
        "table08_cost_params",
        "classes (|C|, nbpages, size):\n"
        + table(["class", "|C|", "nbpages(C)", "size(C)"], class_rows)
        + "\n\nreferences (fan, totref; derived totlinks, hitprb):\n"
        + table(["A of C", "D", "fan", "totref", "totlinks", "hitprb"],
                ref_rows)
        + "\n\natomic attributes (dist, max, min, notnull):\n"
        + table(["A of C", "dist", "max", "min", "notnull"], attr_rows),
    )
    assert stats.card("Vehicle") > 0
    assert stats.fan("drivetrain", "Vehicle") > 0
