"""``tools/diff_reports.py``, the one report gate: row identity, exact
counters and the schema check.  It runs as a script
from any directory: it finds ``src`` next to itself rather than relative
to the working directory."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.driver.report import SCHEMA

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "tools" / "diff_reports.py"


def _report(**row_overrides) -> dict:
    row = {
        "name": "quotient-bug", "backend": "core", "kind": "buggy",
        "status": "counterexample", "states_explored": 12,
        "wall_ms": 3.5, **row_overrides,
    }
    return {"schema": SCHEMA, "programs": [row],
            "agreement": {"disagreements": []},
            "totals": {"store_hits": 0, "store_misses": 0}}


def _run(tmp_path: Path, a, b, *extra: str) -> subprocess.CompletedProcess:
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    return _run_paths(tmp_path, "a.json", "b.json", *extra)


def _run_paths(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(SCRIPT), *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
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


def _without_schema() -> dict:
    report = _report()
    del report["schema"]
    return report


def _with_schema(schema: str) -> dict:
    return {**_report(), "schema": schema}


@pytest.mark.parametrize("bad", [
    _with_schema("repro-bench/v9"),  # an older schema
    _with_schema("repro-bench/v999"),  # a newer one
    _with_schema("somebody-elses/v9"),
    _without_schema(),
    [_report()],  # a JSON list
    {**_report(), "totals": "not-a-dict"},
    {**_report(), "programs": None},
], ids=["older", "newer", "foreign", "no-schema", "list", "totals",
        "programs"])
@pytest.mark.parametrize("side", ["a", "b"])
def test_refuses_what_is_not_a_current_report(tmp_path, bad, side):
    a, b = (bad, _report()) if side == "a" else (_report(), bad)
    proc = _run(tmp_path, a, b)
    assert proc.returncode == 2, proc.stderr
    assert f"{side}.json" in proc.stderr  # the offender is named
    assert "Traceback" not in proc.stderr


def test_schema_refusal_names_the_schema(tmp_path):
    proc = _run(tmp_path, _with_schema("repro-bench/v9"), _report())
    assert f"'repro-bench/v9' is not {SCHEMA}" in proc.stderr


@pytest.mark.parametrize("text", ["", "{not json", "null"])
def test_refuses_garbage_files(tmp_path, text):
    (tmp_path / "a.json").write_text(text)
    (tmp_path / "b.json").write_text(json.dumps(_report()))
    proc = _run_paths(tmp_path, "a.json", "b.json")
    assert proc.returncode == 2, proc.stderr
    assert "a.json" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_refuses_a_missing_file(tmp_path):
    (tmp_path / "a.json").write_text(json.dumps(_report()))
    proc = _run_paths(tmp_path, "a.json", "missing.json")
    assert proc.returncode == 2
    assert "missing.json" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_committed_baseline_passes_every_ci_check_against_itself():
    # BENCH_driver.json is the baseline CI gates against, so it must be
    # a current-schema report, and every flag CI passes must accept it.
    proc = _run_paths(
        REPO, "BENCH_driver.json", "BENCH_driver.json",
        "--exact", "dispatch_steps,chained_steps,states_explored,"
        "solver_fresh_solves,solver_unknown",
    )
    assert proc.returncode == 0, proc.stderr
