"""The CI perf-regression gate (``repro.driver.perfgate``)."""

import json

import pytest

from repro.driver.perfgate import compare, main
from repro.driver.report import SCHEMA


def _totals(**gated):
    """A totals section with every gated total, overridden by
    ``gated``."""
    return {
        "states_explored": 100, "wall_ms": 1000, "max_wall_ms": 100,
        "solver_fresh_solves": 100, "dispatch_steps": 1000,
        "validated_counterexamples": 40, **gated,
    }


def _report(tmp_path, name, states, wall):
    path = tmp_path / name
    path.write_text(json.dumps({
        "schema": SCHEMA,
        "totals": _totals(states_explored=states, wall_ms=wall),
    }))
    return str(path)


class TestCompare:
    def test_within_budget_passes(self):
        lines = compare(
            _totals(states_explored=100, wall_ms=1000),
            _totals(states_explored=110, wall_ms=1100),
            0.20,
        )
        assert not any(line.startswith("FAIL") for line in lines)

    def test_regression_beyond_budget_fails(self):
        lines = compare(
            _totals(states_explored=100, wall_ms=1000),
            _totals(states_explored=130, wall_ms=1000),
            0.20,
        )
        assert any(line.startswith("FAIL") for line in lines)

    def test_improvements_never_fail(self):
        lines = compare(
            _totals(states_explored=100, wall_ms=1000),
            _totals(states_explored=10, wall_ms=100),
            0.20,
        )
        assert not any(line.startswith("FAIL") for line in lines)

    def test_zero_baseline_is_skipped_not_divided_by(self):
        lines = compare({"states_explored": 0}, {"states_explored": 50}, 0.2)
        assert any(line.startswith("SKIP") for line in lines)


class TestValidatedRatchet:
    def test_drop_in_validated_counterexamples_fails(self):
        lines = compare(
            {"validated_counterexamples": 40},
            {"validated_counterexamples": 39},
            0.20,
        )
        assert any(
            line.startswith("FAIL") and "validated" in line for line in lines
        )

    def test_equal_or_higher_passes(self):
        for fresh in (40, 41):
            lines = compare(
                {"validated_counterexamples": 40},
                {"validated_counterexamples": fresh},
                0.20,
            )
            assert not any(line.startswith("FAIL") for line in lines)

    def test_zero_baseline_still_ratchets(self):
        # Unlike the relative gates, 0 is a usable ratchet floor.
        lines = compare(
            {"validated_counterexamples": 0},
            {"validated_counterexamples": 0},
            0.20,
        )
        assert not any(line.startswith("FAIL") for line in lines)


class TestIncrementalReuseRatchet:
    """The from-scratch solver-solve count is gated like the other
    grow-bad totals — contexts that stop being reused fail CI."""

    def test_fresh_solve_regression_fails(self):
        lines = compare(
            {"solver_fresh_solves": 100},
            {"solver_fresh_solves": 150},
            0.20,
        )
        assert any(
            line.startswith("FAIL") and "from-scratch" in line
            for line in lines
        )

    def test_fresh_solve_within_budget_passes(self):
        lines = compare(
            _totals(solver_fresh_solves=100),
            _totals(solver_fresh_solves=110),
            0.20,
        )
        assert not any(line.startswith("FAIL") for line in lines)

    def test_fewer_fresh_solves_is_an_improvement(self):
        lines = compare(
            _totals(solver_fresh_solves=100),
            _totals(solver_fresh_solves=40),
            0.20,
        )
        assert not any(line.startswith("FAIL") for line in lines)
        assert any("improvement" in line and "from-scratch" in line
                   for line in lines)


class TestMain:
    def test_exit_codes(self, tmp_path):
        base = _report(tmp_path, "base.json", 100, 1000)
        good = _report(tmp_path, "good.json", 105, 1010)
        bad = _report(tmp_path, "bad.json", 200, 1000)
        assert main([base, good]) == 0
        assert main([base, bad]) == 1
        assert main([base, bad, "--max-regress", "1.5"]) == 0
        assert main([str(tmp_path / "missing.json"), good]) == 2


class TestSchemaValidation:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_unknown_schema_is_a_clear_failure(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", {
            "schema": "somebody-elses/v9",
            "totals": {"states_explored": 100, "wall_ms": 1000},
        })
        fresh = _report(tmp_path, "fresh.json", 100, 1000)
        assert main([base, fresh]) == 2
        err = capsys.readouterr().err
        assert f"is not {SCHEMA}" in err
        assert "Traceback" not in err

    def test_future_schema_is_a_clear_failure(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", {
            "schema": "repro-bench/v999",
            "totals": {"states_explored": 100, "wall_ms": 1000},
        })
        fresh = _report(tmp_path, "fresh.json", 100, 1000)
        assert main([base, fresh]) == 2
        assert f"is not {SCHEMA}" in capsys.readouterr().err

    def test_missing_schema_is_a_clear_failure(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", {
            "totals": {"states_explored": 100, "wall_ms": 1000},
        })
        fresh = _report(tmp_path, "fresh.json", 100, 1000)
        assert main([base, fresh]) == 2
        assert f"is not {SCHEMA}" in capsys.readouterr().err

    @pytest.mark.parametrize("schema", [
        "repro-bench/v1", "repro-bench/v3", "repro-bench/v8",
    ])
    def test_older_schema_is_a_clear_failure(self, tmp_path, capsys,
                                             schema):
        # Only the current schema is read: an older baseline may lack
        # gated totals, so it is regenerated rather than half-gated.
        base = self._write(tmp_path, "base.json", {
            "schema": schema, "totals": _totals(),
        })
        fresh = _report(tmp_path, "fresh.json", 100, 1000)
        assert main([base, fresh]) == 2
        assert f"{schema!r} is not" in capsys.readouterr().err

    def test_non_numeric_totals_fail_without_traceback(self):
        lines = compare(
            {"states_explored": "lots", "wall_ms": 1000},
            {"states_explored": 100, "wall_ms": "fast"},
            0.20,
        )
        assert any(line.startswith("SKIP states explored") for line in lines)
        assert any(
            line.startswith("FAIL") and "non-numeric" in line
            for line in lines
        )


class TestDispatchStepsGate:
    """Executed micro-steps in the bytecode dispatch loop.
    Deterministic per (corpus, configuration), so it is gated like
    ``states_explored`` — more steps per macro state means chains got
    shorter or the executor started delegating transitions it used to
    run inline."""

    def test_dispatch_regression_fails(self):
        lines = compare(
            {"dispatch_steps": 1000},
            {"dispatch_steps": 1500},
            0.20,
        )
        assert any(
            line.startswith("FAIL") and "dispatch" in line for line in lines
        )

    def test_dispatch_within_budget_passes(self):
        lines = compare(
            _totals(dispatch_steps=1000),
            _totals(dispatch_steps=1100),
            0.20,
        )
        assert not any(line.startswith("FAIL") for line in lines)

    def test_interpreted_baseline_zero_is_skipped(self):
        # A --no-compile baseline records dispatch_steps: 0 — nothing
        # to ratio against, so the gate skips instead of dividing.
        lines = compare(
            _totals(dispatch_steps=0),
            _totals(dispatch_steps=5000),
            0.20,
        )
        assert any(
            line.startswith("SKIP") and "dispatch" in line for line in lines
        )
        assert not any(line.startswith("FAIL") for line in lines)

    def test_garbage_dispatch_value_fails_with_a_name(self):
        lines = compare(
            {"dispatch_steps": 1000},
            {"dispatch_steps": "many"},
            0.20,
        )
        assert any(
            line.startswith("FAIL") and "dispatch steps" in line
            and "non-numeric" in line
            for line in lines
        )

    def test_garbage_report_still_exits_2_with_offender(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text(json.dumps({
            "schema": SCHEMA, "totals": "not-a-dict",
        }))
        fresh = _report(tmp_path, "fresh.json", 100, 1000)
        assert main([str(base), str(fresh)]) == 2
        err = capsys.readouterr().err
        assert "base.json" in err  # the offender is named
        assert "Traceback" not in err


class TestWallThreshold:
    def test_separate_wall_budget(self):
        base = _totals(states_explored=100, wall_ms=1000)
        fresh = _totals(states_explored=100, wall_ms=1400)
        tight = compare(base, fresh, 0.20)
        assert any(
            line.startswith("FAIL") and "wall" in line for line in tight
        )
        loose = compare(base, fresh, 0.20, max_regress_wall=0.50)
        assert not any(line.startswith("FAIL") for line in loose)
        # ... without loosening the states budget.
        drift = compare(base, _totals(states_explored=130, wall_ms=1000),
                        0.20, max_regress_wall=0.50)
        assert any(
            line.startswith("FAIL") and "states" in line for line in drift
        )

    def test_wall_flag_via_main(self, tmp_path):
        base = _report(tmp_path, "base.json", 100, 1000)
        slow = _report(tmp_path, "slow.json", 100, 1400)
        assert main([base, slow]) == 1
        assert main([base, slow, "--max-regress-wall", "0.5"]) == 0
