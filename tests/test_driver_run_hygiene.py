"""Driver guarantees about one verification row's execution:

* **stale alarms** — a fast verification followed by slow report
  assembly must not be killed by the per-program SIGALRM: the deadline
  context is exited (cancelling the alarm, restoring the previous
  handler) before assembly;
* **worker hygiene** — each row counts solver-tier hits over its own
  ``snapshot``/``hits_since`` window, so a reused pool worker cannot
  bleed one row's ``solver_cache_hits`` into the next row's stats;
* **names** — labels and locations belong to the verification (each
  parse numbers its labels from 0, each state carries its next name
  numbers), so a row does not depend on what ran before it in the
  process, with no reset anywhere;
* **cross-check** — the two backends agree on the smoke corpus.
"""

import json
import signal
import time
from dataclasses import asdict

import pytest

from repro.driver import backends as backends_mod
from repro.driver.corpus import corpus_names, get_program
from repro.driver.report import (
    STATUS_COUNTEREXAMPLE,
    STATUS_SAFE,
    stable_row,
)
from repro.driver.runner import RunConfig, run_corpus, verify_program, verify_source


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
        assert stable_row(asdict(after)) == stable_row(asdict(alone))

    def test_solver_counters_are_metered_per_row(self):
        # The solve counters are process-wide and monotone; each row
        # reports its own window of them.
        prog = get_program("pred-chain-guarded")
        cfg = RunConfig(timeout_s=60.0)
        first = verify_program(prog, cfg, backend="core")
        second = verify_program(prog, cfg, backend="core")
        assert first.solver_fresh_solves > 0
        assert second.solver_fresh_solves == first.solver_fresh_solves
        assert first.solver_unknown == second.solver_unknown == 0
        # No store: every query is solved, none is answered by the tier.
        assert first.solver_cache_hits == 0



class TestNamesBelongToTheVerification:
    @pytest.mark.parametrize("backend, a, b", [
        ("core", "factorial-offset", "sum-unknown-fn-abs"),
        # A sliced module program, then a struct program.
        ("scv", "modules-triple-pipeline", "struct-posn-invx"),
    ])
    def test_a_then_b_then_a_gives_the_same_row(self, backend, a, b):
        cfg = RunConfig(timeout_s=60.0)
        first = verify_program(get_program(a), cfg, backend=backend)
        verify_program(get_program(b), cfg, backend=backend)
        again = verify_program(get_program(a), cfg, backend=backend)
        assert first.status == STATUS_COUNTEREXAMPLE
        assert json.dumps(stable_row(asdict(again))) == json.dumps(stable_row(asdict(first)))


class TestBothBackendsCrossCheck:
    def test_smoke_corpus_agreement(self):
        names = corpus_names(tag="smoke")
        report = run_corpus(
            names, config=RunConfig(timeout_s=60.0), backend="both"
        )
        agreement = report.agreement()
        assert not agreement["disagreements"]
        for r in report.results:
            assert r.status in (STATUS_SAFE, STATUS_COUNTEREXAMPLE)
