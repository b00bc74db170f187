"""Tier-1 wrapper for ``scripts/check_metrics_doc.py``: every metric name
registered with a literal ``.counter(...)`` / ``.histogram(...)`` call in
``src/`` must appear in DESIGN.md's Metrics section, and DESIGN.md's op
table must match ``protocol.VERBS``."""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "scripts"))

import check_metrics_doc  # noqa: E402


def test_every_registered_metric_is_documented(capsys):
    status = check_metrics_doc.main(["--repo", str(REPO)])
    captured = capsys.readouterr()
    assert status == 0, f"undocumented metrics:\n{captured.err}"


def test_scanner_sees_known_registrations():
    registered = check_metrics_doc.registered_metrics(REPO / "src")
    # Spot-check names from three different layers; if the regex rots,
    # this fails before the doc check silently passes on an empty scan.
    # `acquisitions` and `cancels` are only ever registered as `locks.*`.
    for name in ("statement_ms", "queue_wait_ms", "wait_ms", "page_reads",
                 "acquisitions", "cancels"):
        assert name in registered


def test_op_table_drift_is_caught_in_both_directions():
    from repro.server.protocol import VERBS

    design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
    assert check_metrics_doc.op_table_problems(design, VERBS) == []
    assert set(check_metrics_doc.documented_ops(design)) == set(VERBS)
    missing_row = design.replace("| `IN_DOUBT` | — | internal |\n", "")
    assert check_metrics_doc.op_table_problems(missing_row, VERBS) == [
        "IN_DOUBT: in VERBS, not in DESIGN.md's op table"
    ]
    extra_row = design.replace("| `PING` | — | — |",
                               "| `PING` | — | — |\n| `FOO` | — | — |")
    assert check_metrics_doc.op_table_problems(extra_row, VERBS) == [
        "FOO: in DESIGN.md's op table, not in VERBS"
    ]
    wrong_fields = design.replace("| `DEALLOCATE` | `name` | statement |",
                                  "| `DEALLOCATE` | — | statement |")
    assert check_metrics_doc.op_table_problems(wrong_fields, VERBS) == [
        "DEALLOCATE: DESIGN.md says ((), 'statement'), "
        "VERBS says (('name',), 'statement')"
    ]
