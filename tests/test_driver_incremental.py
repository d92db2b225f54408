"""Driver-level guarantees of the incremental-solving revision (v5):

* **equivalence** — corpus verdicts and counterexamples are identical
  with the per-path incremental contexts on vs ``--no-incremental``
  (the full-corpus byte-identity run backs ``BENCH_driver.json``; here
  a representative subset keeps the suite fast);
* **economy** — incremental runs answer most queries on warm contexts
  (the ≥30% fresh-solve reduction the v5 report records);
* **stale alarms** — a fast verification followed by slow report
  assembly must not be killed by the per-program SIGALRM: the deadline
  context is exited (cancelling the alarm, restoring the previous
  handler) before assembly;
* **worker hygiene** — each row counts solver-tier hits over its own
  ``snapshot``/``hits_since`` window, so a reused pool worker cannot
  bleed one row's ``solver_cache_hits`` into the next row's stats.
"""

import signal
import time
from dataclasses import asdict

import pytest

from repro.driver import backends as backends_mod
from repro.driver.corpus import corpus_names, get_program
from repro.driver.report import (
    STATUS_COUNTEREXAMPLE,
    STATUS_SAFE,
    VOLATILE_ROW_FIELDS,
)
from repro.driver.runner import RunConfig, run_corpus, verify_program, verify_source


def _stable(result) -> dict:
    return {
        k: v for k, v in asdict(result).items()
        if k not in VOLATILE_ROW_FIELDS
    }


class TestIncrementalOffEquivalence:
    """Verdicts, counterexamples and search stats must be identical with
    incrementality on vs off, on both backends."""

    @pytest.mark.parametrize("backend", ["core", "scv"])
    def test_subset_identical(self, backend):
        names = corpus_names(tag="smoke")
        for name in names:
            prog = get_program(name)
            if backend not in prog.backends:
                continue
            rows = {
                inc: verify_program(
                    prog,
                    RunConfig(timeout_s=60.0, incremental=inc),
                    backend=backend,
                )
                for inc in (True, False)
            }
            assert _stable(rows[True]) == _stable(rows[False]), name

    def test_fresh_solve_reduction_on_solver_heavy_subset(self):
        # The acceptance metric in miniature: across programs that
        # actually reach the solver, incrementality must cut the
        # from-scratch solve count by well over 30%.
        names = [n for n in corpus_names() if "guarded" in n or "gap" in n]
        assert names
        fresh = {True: 0, False: 0}
        queries = 0
        for name in names:
            prog = get_program(name)
            for inc in (True, False):
                r = verify_program(
                    prog, RunConfig(timeout_s=60.0, incremental=inc),
                    backend=prog.backends[0],
                )
                fresh[inc] += r.solver_fresh_solves
                if inc:
                    queries += r.solver_queries
        assert queries > 0
        assert fresh[True] <= 0.7 * fresh[False]

    def test_incremental_counters_populated(self):
        r = verify_program(
            get_program("pred-chain-guarded"),
            RunConfig(timeout_s=60.0),
            backend="core",
        )
        assert r.solver_incremental > 0
        assert r.solver_scope_depth > 0
        # With incrementality off the counters stay zero.
        r_off = verify_program(
            get_program("pred-chain-guarded"),
            RunConfig(timeout_s=60.0, incremental=False),
            backend="core",
        )
        assert r_off.solver_incremental == 0
        assert r_off.solver_scope_depth == 0
        assert r_off.solver_fresh_solves >= r.solver_fresh_solves


class TestStaleAlarmCancelledOnSuccess:
    """driver satellite: a fast verification + slow report assembly must
    not be killed by the per-program SIGALRM."""

    @property
    def BUGGY(self) -> str:
        return get_program("div-unchecked").source  # ~10ms to verify

    def test_slow_assembly_survives_deadline(self, monkeypatch):
        real = backends_mod.closed_program_text

        def slow(*args, **kwargs):
            time.sleep(1.0)  # well past the remaining 0.8s budget
            return real(*args, **kwargs)

        monkeypatch.setattr(backends_mod, "closed_program_text", slow)
        r = verify_source(
            self.BUGGY, name="slow-assembly", kind="buggy",
            config=RunConfig(timeout_s=0.8), backend="core",
        )
        # Pre-fix this row came back STATUS_TIMEOUT: the alarm armed for
        # the verification fired inside client synthesis.
        assert r.status == STATUS_COUNTEREXAMPLE
        assert r.counterexample is not None and r.counterexample.client

    def test_no_alarm_left_armed_after_success(self):
        r = verify_source(
            self.BUGGY, name="armed", kind="buggy",
            config=RunConfig(timeout_s=30.0), backend="core",
        )
        assert r.status == STATUS_COUNTEREXAMPLE
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


class TestWorkerCounterHygiene:
    """The per-row solver_cache_hits of a program must not depend on
    what ran before it in the same (simulated) pool worker."""

    def test_row_counters_independent_of_predecessor(self):
        name = "sum-unknown-fn"
        prog = get_program(name)
        cfg = RunConfig(timeout_s=60.0)
        alone = verify_program(prog, cfg, backend="core")
        # Simulate a reused worker: another program ran first and left
        # tier counters behind.
        verify_program(get_program("pred-chain-guarded"), cfg, backend="core")
        after = verify_program(prog, cfg, backend="core")
        assert after.solver_cache_hits == alone.solver_cache_hits
        assert _stable(after) == _stable(alone)


class TestBothBackendsCrossCheckWithIncrementality:
    def test_smoke_corpus_agreement(self):
        names = corpus_names(tag="smoke")
        report = run_corpus(
            names, config=RunConfig(timeout_s=60.0), backend="both"
        )
        agreement = report.agreement()
        assert not agreement["disagreements"]
        for r in report.results:
            assert r.status in (STATUS_SAFE, STATUS_COUNTEREXAMPLE)
