#!/usr/bin/env python
"""Lint: every metric, SYS$ view and wire op in ``src/`` must be
documented.

Scans ``src/**/*.py`` for literal ``.counter("name")`` and
``.histogram("name")`` registrations, then checks that each name appears
in a code span (backticks) inside DESIGN.md's "Metrics" section; scans
the same tree for literal ``register("SYS$...")`` system-view
registrations and checks each view has a schema row (a table line
naming it in backticks) somewhere in DESIGN.md.  New telemetry without
documentation fails tier-1 (``tests/obs/test_metrics_doc.py`` wraps
this script), which keeps DESIGN.md the authoritative inventory.

It also checks DESIGN.md's wire op table (the markdown table whose
header row is ``| op | required fields | kind |``) against
``repro.server.protocol.VERBS``, in both directions: every op in one is
in the other, with the same required fields and the same kind
(``statement``, ``internal`` or neither).

Dynamically-named metrics (f-strings, e.g. the per-error-code
``server.errors.<CODE>`` counters) and dynamically-named view
registrations (the router's federated re-registrations loop over a name
list) are invisible to this scan; document those by their pattern.

Usage: ``python scripts/check_metrics_doc.py [--repo ROOT]``
Exit status 0 when everything is documented, 1 otherwise.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REGISTRATION = re.compile(r'\.(?:counter|histogram)\(\s*"([^"]+)"\s*\)')
CODE_SPAN = re.compile(r"`([^`]+)`")
# register( may break the line before its name argument.
VIEW_REGISTRATION = re.compile(r'register\(\s*"(SYS\$[A-Z0-9_$]+)"')


def registered_metrics(src: Path) -> dict[str, list[str]]:
    """``name -> [file:line, ...]`` of every literal registration."""
    found: dict[str, list[str]] = {}
    for path in sorted(src.rglob("*.py")):
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for match in REGISTRATION.finditer(line):
                where = f"{path.relative_to(src.parent)}:{lineno}"
                found.setdefault(match.group(1), []).append(where)
    return found


def metrics_section(design: Path) -> str:
    """DESIGN.md from its '### Metrics' heading to the next same-level
    heading (falls back to the whole file if the heading moves)."""
    text = design.read_text(encoding="utf-8")
    match = re.search(r"^### Metrics$(.*?)(?=^### )", text,
                      re.MULTILINE | re.DOTALL)
    return match.group(1) if match else text


def documented_names(section: str) -> set[str]:
    """Every identifier mentioned in a backtick span, split on the
    separators the table uses (commas, spaces, ``*`` wildcards, dots)."""
    names: set[str] = set()
    for span in CODE_SPAN.findall(section):
        for token in re.split(r"[,\s]+", span):
            token = token.strip("`*.")
            if token:
                names.add(token)
                # `server.admission.queue_wait_ms` documents both the
                # dotted name and its leaf.
                names.add(token.rsplit(".", 1)[-1])
    return names


def registered_views(src: Path) -> dict[str, list[str]]:
    """``SYS$NAME -> [file:line, ...]`` of every literal system-view
    registration (multi-line aware: ``register(`` often breaks the line
    before the name)."""
    found: dict[str, list[str]] = {}
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for match in VIEW_REGISTRATION.finditer(text):
            lineno = text.count("\n", 0, match.start()) + 1
            where = f"{path.relative_to(src.parent)}:{lineno}"
            found.setdefault(match.group(1), []).append(where)
    return found


def documented_views(design_text: str) -> set[str]:
    """Every SYS$ view named in backticks on a markdown table row."""
    names: set[str] = set()
    for line in design_text.splitlines():
        if not line.lstrip().startswith("|"):
            continue
        for span in CODE_SPAN.findall(line):
            for name in re.findall(r"SYS\$[A-Z0-9_$]+", span):
                names.add(name)
    return names


OP_TABLE_HEADER = re.compile(r"^\|\s*op\s*\|\s*required fields\s*\|\s*kind\s*\|$")


def documented_ops(design_text: str) -> dict[str, tuple]:
    """``op -> (required fields, kind)`` from DESIGN.md's op table."""
    ops: dict[str, tuple] = {}
    lines = iter(design_text.splitlines())
    for line in lines:
        if OP_TABLE_HEADER.match(line.strip()):
            break
    next(lines, None)  # the |---| separator row
    for line in lines:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        op = CODE_SPAN.findall(cells[0])
        if op:
            kind = cells[2] if cells[2] in ("statement", "internal") else ""
            ops[op[0]] = (tuple(sorted(CODE_SPAN.findall(cells[1]))), kind)
    return ops


def code_ops(verbs: dict) -> dict[str, tuple]:
    """``op -> (required fields, kind)`` from the ``VERBS`` table."""
    return {
        op: (tuple(sorted(verb.required)),
             "statement" if verb.statement
             else "internal" if verb.internal else "")
        for op, verb in verbs.items()
    }


def op_table_problems(design_text: str, verbs: dict) -> list[str]:
    """Every disagreement between DESIGN.md's op table and ``verbs``."""
    documented = documented_ops(design_text)
    coded = code_ops(verbs)
    problems = [f"{op}: in VERBS, not in DESIGN.md's op table"
                for op in sorted(coded.keys() - documented.keys())]
    problems += [f"{op}: in DESIGN.md's op table, not in VERBS"
                 for op in sorted(documented.keys() - coded.keys())]
    problems += [
        f"{op}: DESIGN.md says {documented[op]}, VERBS says {coded[op]}"
        for op in sorted(coded.keys() & documented.keys())
        if coded[op] != documented[op]
    ]
    return problems


def load_verbs(src: Path) -> dict:
    sys.path.insert(0, str(src))
    from repro.server.protocol import VERBS

    return VERBS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repo", type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (defaults to this script's grandparent)",
    )
    args = parser.parse_args(argv)
    src = args.repo / "src"
    design = args.repo / "DESIGN.md"
    if not src.is_dir() or not design.is_file():
        print(f"check_metrics_doc: missing {src} or {design}",
              file=sys.stderr)
        return 1
    registered = registered_metrics(src)
    documented = documented_names(metrics_section(design))
    missing = {
        name: sites for name, sites in registered.items()
        if name not in documented
    }
    if missing:
        print("metrics registered in src/ but absent from DESIGN.md's "
              "Metrics section:", file=sys.stderr)
        for name in sorted(missing):
            sites = ", ".join(missing[name][:3])
            print(f"  {name}  ({sites})", file=sys.stderr)
        return 1
    views = registered_views(src)
    view_docs = documented_views(design.read_text(encoding="utf-8"))
    undocumented_views = {
        name: sites for name, sites in views.items()
        if name not in view_docs
    }
    if undocumented_views:
        print("SYS$ views registered in src/ without a schema row in "
              "DESIGN.md:", file=sys.stderr)
        for name in sorted(undocumented_views):
            sites = ", ".join(undocumented_views[name][:3])
            print(f"  {name}  ({sites})", file=sys.stderr)
        return 1
    verbs = load_verbs(src)
    problems = op_table_problems(design.read_text(encoding="utf-8"), verbs)
    if problems:
        print("DESIGN.md's op table disagrees with protocol.VERBS:",
              file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(f"check_metrics_doc: {len(registered)} metric names, "
          f"{len(views)} SYS$ views and {len(verbs)} wire ops documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
