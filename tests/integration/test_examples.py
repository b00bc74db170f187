"""Every shipped example runs to completion (subprocess smoke tests)."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "examples").glob("*.py")
)


def _run(script: pathlib.Path) -> str:
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed.stdout


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    assert _run(script).strip()  # every example narrates its run


def test_crash_recovery_balances_survive_a_second_crash():
    script = next(p for p in EXAMPLES if p.stem == "crash_recovery")
    out = _run(script)
    assert "alice = alice:100 (unchanged)" in out
    assert "bob   = bob:50 (unchanged)" in out


def test_examples_exist():
    names = {path.stem for path in EXAMPLES}
    assert {"quickstart", "vehicle_company", "dynamic_methods",
            "spatial_fleet", "moodview_tour", "crash_recovery"} <= names
