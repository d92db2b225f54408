"""``tools/diff_reports.py`` runs as a script from any directory: it finds
``src`` next to itself rather than relative to the working directory."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "diff_reports.py"


def _report(**row_overrides) -> dict:
    row = {
        "name": "quotient-bug", "backend": "core", "kind": "buggy",
        "status": "counterexample", "states_explored": 12,
        "wall_ms": 3.5, **row_overrides,
    }
    return {"programs": [row], "agreement": {"disagreements": []},
            "totals": {"store_hits": 0, "store_misses": 0}}


def _run(tmp_path: Path, a: dict, b: dict,
         *extra: str) -> subprocess.CompletedProcess:
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(SCRIPT), "a.json", "b.json", *extra],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("b, code", [
    (_report(), 0),
    (_report(wall_ms=99.0), 0),  # wall_ms is a volatile field
    (_report(states_explored=13), 1),
], ids=["identical", "volatile-only", "states-differ"])
def test_exit_code_from_another_directory(tmp_path, b, code):
    proc = _run(tmp_path, _report(), b)
    assert "ModuleNotFoundError" not in proc.stderr
    assert proc.returncode == code, proc.stderr
    if code:
        assert "states_explored" in proc.stderr


def _with_steps(row_steps: int, total_steps: int) -> dict:
    report = _report(dispatch_steps=row_steps)
    report["totals"]["dispatch_steps"] = total_steps
    return report


@pytest.mark.parametrize("b, exact, code", [
    (_with_steps(7, 7), "", 0),
    (_with_steps(8, 7), "", 0),  # dispatch_steps is volatile by default
    (_with_steps(7, 7), "dispatch_steps,states_explored", 0),
    (_with_steps(8, 7), "dispatch_steps", 1),
    (_with_steps(7, 8), "dispatch_steps", 1),
], ids=["same", "volatile", "exact-same", "exact-row", "exact-total"])
def test_exact_pins_volatile_counters(tmp_path, b, exact, code):
    extra = ("--exact", exact) if exact else ()
    proc = _run(tmp_path, _with_steps(7, 7), b, *extra)
    assert proc.returncode == code, proc.stderr
    if code:
        assert "dispatch_steps" in proc.stderr
