#!/usr/bin/env python
"""Where a workload's charged I/O goes: the model-cost replay split by
statement template and by ANALYZE.

``moodbench`` reports one model-cost figure per workload,
``charged_io_ms_per_txn``: the simulated-disk time (Table 10 arithmetic)
of a fixed, cold, single-client replay, divided by its transaction count.
This script replays the very same stream -- same generator, same entry
point, same buffer-emptying in pairs -- and charges every statement's disk
time to its template.  Time spent collecting statistics inside a statement
goes to its own ``ANALYZE`` row: ``MoodKernel.analyze`` is the one
collection path, for whole-base collections and for the per-class
re-measures of a churned class alike.  Whatever moves the clock
outside a statement (BEGIN/COMMIT) goes to ``(outside statements)``.  The
rows add up to ``charged_io_ms_per_txn`` exactly.  ``moodbench`` is only
imported, never changed.

Usage (from the repository root)::

    python3 scripts/io_by_template.py --workload server-scan-cold --seed 1

Aim the next I/O change at the template that owns the I/O.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
for entry in (str(REPO / "src"), str(REPO)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from moodbench import gen, ladder, spec  # noqa: E402
from moodbench.target import EmbeddedConn  # noqa: E402

ANALYZE = "ANALYZE"
OUTSIDE = "(outside statements)"


def split_charged_io(workload: spec.Workload, seed: int) -> dict:
    """Replay ``workload``'s model-cost stream for ``seed``.

    Returns ``{"txns": n, "total_ms": ms, "rows": {name: [calls, ms]}}``
    where ``rows`` holds one entry per template, ``ANALYZE`` and
    ``OUTSIDE``; their ``ms`` sum to ``total_ms``."""
    system = ladder.LocalSystem(workload)
    rows: dict = defaultdict(lambda: [0, 0.0])

    def clock() -> float:
        return system.counters().get("disk.elapsed_ms", 0.0)

    def charge_analyze(kernel) -> None:
        inner = kernel.analyze

        def analyze(classes=None):
            start = clock()
            try:
                return inner(classes)
            finally:
                rows[ANALYZE][0] += 1
                rows[ANALYZE][1] += clock() - start

        kernel.analyze = analyze

    try:
        for db in system.dbs:
            charge_analyze(db.kernel)
        oracle = system.load_oracle()
        conn = (ladder.SessionConn(system) if system.servers
                else EmbeddedConn(system.dbs[0]))
        call = conn.call

        def charged_call(step):
            start, analyzed = clock(), rows[ANALYZE][1]
            try:
                return call(step)
            finally:
                row = rows[step.template]
                row[0] += 1
                row[1] += clock() - start - (rows[ANALYZE][1] - analyzed)

        conn.call = charged_call      # before Rung wraps it in turn
        txns = gen.first_txns(workload, seed, workload.replay_txns)
        rung = ladder.Rung("model", conn, oracle, None)
        total = 0.0
        for start in range(0, len(txns), 2):
            system.go_cold()
            total += ladder.replay(rung, txns[start:start + 2],
                                   system).get("disk.elapsed_ms", 0.0)
        conn.close()
    finally:
        system.close()
    inside = sum(ms for _, ms in rows.values())
    rows[OUTSIDE] = [0, total - inside]
    return {"txns": len(txns), "total_ms": total, "failed": rung.failed,
            "rows": dict(rows)}


def render(workload: spec.Workload, seed: int, split: dict) -> str:
    txns, total = split["txns"], split["total_ms"]
    lines = [
        f"{workload.name} seed {seed}: {txns} txns, charged I/O "
        f"{total / txns:.2f} ms/txn"
        + (f", {split['failed']} failed" if split["failed"] else ""),
        f"{'template':<22} {'calls':>6} {'ms/call':>10} {'ms/txn':>10} "
        f"{'share':>7}",
    ]
    ordered = sorted(split["rows"].items(), key=lambda item: -item[1][1])
    for name, (calls, ms) in ordered:
        per_call = f"{ms / calls:10.2f}" if calls else f"{'-':>10}"
        share = 100.0 * ms / total if total else 0.0
        lines.append(f"{name:<22} {calls:>6} {per_call} "
                     f"{ms / txns:10.2f} {share:6.1f}%")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="server-scan-cold",
                        choices=sorted(spec.WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workload = spec.WORKLOAD_BY_NAME[args.workload]
    print(render(workload, args.seed,
                 split_charged_io(workload, args.seed)))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The same pinned hash seed moodbench runs under, so the figure
        # matches its charged_io_ms_per_txn.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    raise SystemExit(main())
