"""S6 -- the Function Manager's design claims (Section 2), measured:

* "the interpretation of the functions are avoided": a compiled method is
  substantially faster per call than re-interpreting its source each call;
* "the only cost is the preprocessing and compilation of the added
  functions for once": repeated invocation triggers no recompilation;
* "the code is loaded into memory when it is requested": one shared-object
  load per class per scope, then cache hits.
"""

import time

from repro.bench.reporting import emit, table
from repro.catalog.entities import MoodsFunction


def test_shape_function_manager(live_db, benchmark):
    kernel = live_db.kernel
    fm = kernel.functions
    vehicles = live_db.extent("Vehicle")
    body = "return int(self.weight * 2.2075) + self.id"
    fm.add_function(MoodsFunction("Vehicle", "s6_metric", "Integer", [],
                                  source=body))

    def run_compiled():
        total = 0
        for vehicle in vehicles:
            total += fm.invoke(vehicle, "s6_metric")
        return total

    compiled_total = benchmark(run_compiled)

    # An 'interpreting' baseline: re-compile the source on every call (what
    # the paper's rejected full-interpreter alternative amounts to).
    start = time.perf_counter()
    interpreted_total = 0
    for vehicle in vehicles:
        namespace = {}
        exec("def f(self):\n    " + body,
             namespace)  # recompiled per call
        class Shim:
            def __init__(self, state):
                self.weight = state["weight"]
                self.id = state["id"]
        interpreted_total += namespace["f"](Shim(vehicle.state))
    interpreted_s = time.perf_counter() - start

    start = time.perf_counter()
    run_compiled()
    compiled_s = time.perf_counter() - start

    assert compiled_total == interpreted_total

    def counted_pass() -> dict[str, int]:
        """``functions.*`` counts of one ``run_compiled`` pass."""
        before = kernel.storage.metrics.snapshot()
        run_compiled()
        delta = kernel.storage.metrics.since(before)
        return {name: int(delta.get(f"functions.{name}", 0))
                for name in ("compiles", "loads", "cache_hits")}

    # One-time compilation: invoking again compiles nothing new.
    first = counted_pass()
    assert first["compiles"] == 0
    assert first["loads"] <= 1              # one shared-object load
    assert first["cache_hits"] >= len(vehicles) - 1
    fm.end_scope()
    second = counted_pass()
    assert second["loads"] == 1             # reloaded after the scope ended

    emit(
        "shape_function_manager",
        table(
            ["metric", "value"],
            [
                ["objects invoked", len(vehicles)],
                ["compiled path (s, one pass)", f"{compiled_s:.4f}"],
                ["re-interpreting path (s, one pass)",
                 f"{interpreted_s:.4f}"],
                ["recompilations on reinvocation", 0],
                ["shared-object loads per scope", first["loads"]],
                ["cache hits after first load", second["cache_hits"]],
            ],
        )
        + "\n\nshape: compilation happens once; within a scope the shared "
        "object is\nloaded once and every further call is a cache hit.",
    )
    fm.delete_function("Vehicle::s6_metric()")
