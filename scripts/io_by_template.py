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
rows add up to ``charged_io_ms_per_txn`` exactly.  ``--pages`` adds each
row's page counts per transaction: seeks, transfers (every page read or
written) and read-through pages (gap pages a page-ordered frontier read
instead of seeking over; they are transfers too).  ``moodbench`` is only
imported, never changed.

Usage (from the repository root)::

    python3 scripts/io_by_template.py --workload server-scan-cold --seed 1
    python3 scripts/io_by_template.py --workload server-scan-cold --pages

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
#: The disk counters charged to each row: its time, then its page counts.
DISK = ("disk.elapsed_ms", "disk.seeks", "disk.transfers",
        "disk.read_through")
PAGE_COLUMNS = ("seeks", "xfers", "rthru")


def split_charged_io(workload: spec.Workload, seed: int) -> dict:
    """Replay ``workload``'s model-cost stream for ``seed``.

    Returns ``{"txns": n, "total_ms": ms, "rows": {name: [calls, ms]},
    "pages": {name: [seeks, transfers, read_through]}}`` with one entry
    per template, ``ANALYZE`` and ``OUTSIDE``; each column sums to the
    replay's total of that counter."""
    system = ladder.LocalSystem(workload)
    calls: dict = defaultdict(int)
    spent: dict = defaultdict(lambda: [0.0] * len(DISK))

    def reading() -> list:
        counters = system.counters()
        return [counters.get(name, 0.0) for name in DISK]

    def charge(name: str, start: list, nested=(0.0,) * len(DISK)) -> None:
        """Charge the disk counters moved since ``start``, less the
        ``nested`` part already charged to another row, to ``name``."""
        calls[name] += 1
        row = spent[name]
        for i, (now, then, inner) in enumerate(zip(reading(), start,
                                                    nested)):
            row[i] += now - then - inner

    def charge_analyze(kernel) -> None:
        inner = kernel.analyze

        def analyze(classes=None):
            start = reading()
            try:
                return inner(classes)
            finally:
                charge(ANALYZE, start)

        kernel.analyze = analyze

    try:
        for db in system.dbs:
            charge_analyze(db.kernel)
        oracle = system.load_oracle()
        conn = (ladder.SessionConn(system) if system.servers
                else EmbeddedConn(system.dbs[0]))
        call = conn.call

        def charged_call(step):
            start, analyzed = reading(), list(spent[ANALYZE])
            try:
                return call(step)
            finally:
                charge(step.template, start,
                       [now - then for now, then
                        in zip(spent[ANALYZE], analyzed)])

        conn.call = charged_call      # before Rung wraps it in turn
        txns = gen.first_txns(workload, seed, workload.replay_txns)
        rung = ladder.Rung("model", conn, oracle, None)
        totals = [0.0] * len(DISK)
        for start in range(0, len(txns), 2):
            system.go_cold()
            moved = ladder.replay(rung, txns[start:start + 2], system)
            for i, name in enumerate(DISK):
                totals[i] += moved.get(name, 0.0)
        conn.close()
    finally:
        system.close()
    spent[OUTSIDE] = [total - sum(row[i] for row in spent.values())
                      for i, total in enumerate(totals)]
    return {"txns": len(txns), "total_ms": totals[0], "failed": rung.failed,
            "rows": {name: [calls[name], row[0]]
                     for name, row in spent.items()},
            "pages": {name: row[1:] for name, row in spent.items()}}


def render(workload: spec.Workload, seed: int, split: dict,
           pages: bool = False) -> str:
    txns, total = split["txns"], split["total_ms"]
    header = (f"{'template':<22} {'calls':>6} {'ms/call':>10} {'ms/txn':>10} "
              f"{'share':>7}")
    if pages:
        header += "".join(f" {name + '/txn':>11}" for name in PAGE_COLUMNS)
    lines = [
        f"{workload.name} seed {seed}: {txns} txns, charged I/O "
        f"{total / txns:.2f} ms/txn"
        + (f", {split['failed']} failed" if split["failed"] else ""),
        header,
    ]
    ordered = sorted(split["rows"].items(), key=lambda item: -item[1][1])
    for name, (calls, ms) in ordered:
        per_call = f"{ms / calls:10.2f}" if calls else f"{'-':>10}"
        share = 100.0 * ms / total if total else 0.0
        line = (f"{name:<22} {calls:>6} {per_call} "
                f"{ms / txns:10.2f} {share:6.1f}%")
        if pages:
            line += "".join(f" {count / txns:11.2f}"
                            for count in split["pages"][name])
        lines.append(line)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="server-scan-cold",
                        choices=sorted(spec.WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pages", action="store_true",
                        help="add seeks, transfers and read-through pages "
                             "per transaction to every row")
    args = parser.parse_args(argv)
    workload = spec.WORKLOAD_BY_NAME[args.workload]
    print(render(workload, args.seed,
                 split_charged_io(workload, args.seed), pages=args.pages))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The same pinned hash seed moodbench runs under, so the figure
        # matches its charged_io_ms_per_txn.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    raise SystemExit(main())
