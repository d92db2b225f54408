"""``tools/diff_reports.py``, the one report gate: row identity, exact
counters, the wall tripwire and the schema check.  It runs as a script
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
            "totals": {"store_hits": 0, "store_misses": 0,
                       "wall_ms": 1000.0, "max_wall_ms": 100.0}}


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


def _with_wall(wall_ms: float, max_wall_ms: float) -> dict:
    report = _report()
    report["totals"].update(wall_ms=wall_ms, max_wall_ms=max_wall_ms)
    return report


@pytest.mark.parametrize("b, budget, code", [
    (_with_wall(1000.0, 100.0), "0.20", 0),
    (_with_wall(1199.0, 119.0), "0.20", 0),  # within the budget
    (_with_wall(100.0, 10.0), "0.20", 0),  # improvements never fail
    (_with_wall(1400.0, 100.0), "0.20", 1),  # total wall
    (_with_wall(1000.0, 140.0), "0.20", 1),  # slowest row
    (_with_wall(1400.0, 140.0), "0.50", 0),  # a looser budget
    (_with_wall(1400.0, 140.0), None, 0),  # no tripwire without the flag
    (_with_wall("fast", 100.0), "0.20", 1),  # garbage fails, by name
], ids=["same", "within", "faster", "total", "slowest-row", "loose",
        "off", "garbage"])
def test_wall_tripwire(tmp_path, b, budget, code):
    extra = ("--max-regress-wall", budget) if budget else ()
    proc = _run(tmp_path, _report(), b, *extra)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code:
        assert "wall_ms" in proc.stderr


def test_wall_tripwire_leaves_the_row_diff_alone(tmp_path):
    # A loose wall budget does not loosen anything else.
    b = _with_wall(1000.0, 100.0)
    b["programs"][0]["states_explored"] = 13
    proc = _run(tmp_path, _report(), b, "--max-regress-wall", "5")
    assert proc.returncode == 1
    assert "states_explored" in proc.stderr


@pytest.mark.parametrize("budget", ["-0.1", "nan", "inf", "lots"])
def test_wall_budget_is_a_fraction(tmp_path, budget):
    proc = _run(tmp_path, _report(), _report(),
                f"--max-regress-wall={budget}")
    assert proc.returncode == 2
    assert "--max-regress-wall" in proc.stderr


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
        "--max-regress-wall", "0.20",
    )
    assert proc.returncode == 0, proc.stderr
