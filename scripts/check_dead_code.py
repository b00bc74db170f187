#!/usr/bin/env python
"""Lint: no dead definitions and no unused imports in ``src/``.

Two scans, standard library only:

* **Dead definitions.** Every function, method and class defined in
  ``src/**/*.py`` whose name, as a whole word, appears nowhere but at its
  own definition -- in ``src/``, ``tests/``, ``benchmarks/``,
  ``scripts/``, ``moodbench/`` or ``examples/``.  Any other mention
  (a call, an attribute access, a ``getattr`` string, a comment) keeps a
  name alive, so the scan can miss dead code but never flags live code
  that is reached by name.  Dunder methods are skipped: the language
  calls them.
* **Unused imports.** Every name an ``import`` binds in a ``src/``
  module other than an ``__init__.py`` (whose imports are re-exports)
  that the module never reads: not as a name, not in a string
  annotation, not in ``__all__``.

A definition reached only through a framework (a hook whose name the
library calls) belongs in ``ALLOWED`` with the reason.

Usage: ``python scripts/check_dead_code.py [--repo ROOT]``
Exit status 0 when both lists are empty, 1 otherwise.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from collections import Counter
from pathlib import Path

#: Trees whose files may keep a ``src/`` definition alive.
SEARCHED = ("src", "tests", "benchmarks", "scripts", "moodbench", "examples")

#: Definitions reached by name from outside the repository's code.
ALLOWED: dict[str, str] = {}

WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _python_files(root: Path) -> list[Path]:
    return sorted(
        path for path in root.rglob("*.py")
        if not any(part.startswith(".") or part == "__pycache__"
                   for part in path.relative_to(root).parts)
    )


def _definitions(tree: ast.Module):
    """``(name, lineno)`` of every module- and class-level def/class."""
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield child.name, child.lineno
                if isinstance(child, ast.ClassDef):
                    stack.append(child)


def dead_definitions(repo: Path) -> list[str]:
    """``file:line name`` of every ``src/`` definition named only once."""
    words: Counter[str] = Counter()
    for top in SEARCHED:
        if (repo / top).is_dir():
            for path in _python_files(repo / top):
                words.update(WORD.findall(path.read_text(encoding="utf-8")))
    found = []
    for path in _python_files(repo / "src"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, lineno in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if words[name] <= 1 and name not in ALLOWED:
                found.append(f"{path.relative_to(repo)}:{lineno} {name}")
    return found


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for arg in (*arguments.posonlyargs, *arguments.args,
                        *arguments.kwonlyargs, arguments.vararg,
                        arguments.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, string annotations and ``__all__``
    entries included."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name)}
    quoted: list[ast.AST] = list(_annotations(tree))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            quoted.append(node.value)
    for root in quoted:
        for node in ast.walk(root):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(WORD.findall(node.value))
    return names


def unused_imports(repo: Path) -> list[str]:
    """``file:line name`` of every import binding its module never reads."""
    found = []
    for path in _python_files(repo / "src"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = _read_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in read:
                    found.append(
                        f"{path.relative_to(repo)}:{node.lineno} {bound}"
                    )
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path,
                        default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    status = 0
    for title, entries in (
        ("definitions named nowhere else", dead_definitions(args.repo)),
        ("unused imports", unused_imports(args.repo)),
    ):
        if entries:
            status = 1
            print(f"{title}:", file=sys.stderr)
            for entry in entries:
                print(f"  {entry}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
