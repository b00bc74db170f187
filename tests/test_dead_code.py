"""Tier-1 wrapper for ``scripts/check_dead_code.py``: no ``src/``
definition is named only at its definition, and no ``src/`` module
imports a name it never reads."""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "scripts"))

import check_dead_code  # noqa: E402


def test_src_has_no_dead_definitions_or_unused_imports(capsys):
    status = check_dead_code.main(["--repo", str(REPO)])
    captured = capsys.readouterr()
    assert status == 0, f"dead code:\n{captured.err}"


def test_scanner_flags_a_planted_dead_def_and_import(tmp_path):
    # If the scans rot, this fails before the real check passes on
    # nothing.
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from os import sep\n")
    (package / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "from os import path, sep\n"
        "\n"
        "class Live:\n"
        "    def __repr__(self) -> 'Live':\n"
        "        return path.join(sep)\n"
        "\n"
        "    def orphan(self):\n"
        "        return Live()\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import Live\n"
    )
    assert check_dead_code.dead_definitions(tmp_path) == [
        "src/pkg/mod.py:9 orphan"
    ]
    assert check_dead_code.unused_imports(tmp_path) == [
        "src/pkg/mod.py:2 json"
    ]
