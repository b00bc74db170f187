"""moodbench: the repository's one seeded, layer-attributed benchmark.

Run from the repository root::

    python3 -m moodbench --workload server-oltp --seed 7 --seconds 12 --trace 0

The package lives outside ``src/`` and outside pytest's ``testpaths``; it
drives the public ``repro`` API from the outside (closed-loop clients,
servers in a child process) and never imports ``repro.bench.driver``.
``README.md`` in this directory is the metric glossary and the method.
"""

from __future__ import annotations

import os
import sys

#: The checkout root (the directory holding ``BENCHMARK.json`` and ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Git-ignored directory for traces and detailed reports.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def require_repro() -> None:
    """Put ``src/`` on ``sys.path`` and fail loudly when the program under
    test is absent (a checkout holding only the benchmark must not print a
    result)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(
            f"moodbench: no program to measure: {SRC}/repro is missing"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    """Environment for every process the benchmark starts: hash seed pinned
    (set/dict iteration order is then the same on every run) and ``src/``
    importable by spawned shard workers."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    paths = [ROOT, SRC] + [
        p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    return env
