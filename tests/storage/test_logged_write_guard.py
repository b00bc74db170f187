"""Every logged write goes through one path: ``StorageManager._write``.

Opening a page-capture window, logging page images and appending the
logical ``MOVE`` record each happen at exactly one place in ``src/``, so
no subsystem (the reclusterer used to be one) can grow a second storage
protocol with its own capture windows, log records or failpoints.
"""

from __future__ import annotations

import pathlib
import re

import repro

SRC = pathlib.Path(repro.__file__).parent
CALL = re.compile(
    r"\.(start_capture|end_capture|log_page_update)\(|LogKind\.MOVE,"
)


def test_capture_and_page_logging_live_in_one_write_path():
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        for line in path.read_text().splitlines():
            for match in CALL.finditer(line):
                sites.append((path.relative_to(SRC).as_posix(),
                              match.group(0)))
    assert sorted(sites) == sorted([
        ("storage/manager.py", ".start_capture("),
        ("storage/manager.py", ".end_capture("),
        ("storage/manager.py", ".log_page_update("),
        ("storage/manager.py", "LogKind.MOVE,"),
    ]), sites
