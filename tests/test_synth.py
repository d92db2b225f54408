"""Demonic-context synthesis: every module-program finding must come
with an executable client.

Three layers of checks:

* **unit** — ``synthesize_client`` reconstructs the expected client
  shapes (havoc closure → lambda over the provides, trivial client for
  pre-application blame) and ``check_client`` re-runs them to the same
  blame;
* **per scenario** — every buggy module program in the corpus reports a
  counterexample whose surface validation is a real ``True`` (never the
  old ``skipped``), whose client text is present, parseable, and — re-run
  standalone through ``conc.interp`` — blames the same source label;
* **driver** — timeout rows keep the partial per-backend stats observed
  before the SIGALRM deadline fired.
"""

import pytest

from repro.conc.interp import (
    ContractBlame,
    Interp,
    PrimBlame,
    RuntimeFault,
    UserAbort,
)
from repro.driver.backends import RunConfig
from repro.driver.corpus import corpus_names, get_program
from repro.driver.report import STATUS_COUNTEREXAMPLE, STATUS_TIMEOUT
from repro.driver.runner import run_corpus, verify_program, verify_source
from repro.lang.ast import ULam
from repro.lang.parser import parse_program
from repro.scv import (
    SMachine,
    collect_struct_types,
    construct_u,
    find_known_blames,
    inject_program,
)
from repro.synth import synthesize_client

CFG = RunConfig(max_states=20_000, timeout_s=60.0)

MODULE_BUGGY = [
    n for n in corpus_names(tag="contracts", kind="buggy")
]


def _first_cex(source):
    program = parse_program(source)
    machine = SMachine(struct_types=collect_struct_types(program))
    for state in find_known_blames(
        inject_program(program, machine), machine, max_states=20_000
    ):
        cex = construct_u(program, state)
        if cex is not None and cex.validated:
            return program, cex
    raise AssertionError("no validated counterexample found")


class TestClientSynthesis:
    def test_havoc_client_is_lambda_over_provides(self):
        program, cex = _first_cex(
            "(module m (define (shift x) (- x 10))"
            " (provide [shift (-> positive? positive?)]))"
        )
        sc = cex.client
        assert sc is not None and not sc.trivial
        assert isinstance(sc.client, ULam)
        assert sc.client.params == ("shift",)
        assert cex.validated is True

    def test_load_time_blame_gets_trivial_client(self):
        # The module faults while evaluating its own definitions; the
        # client is never applied, so any client reproduces the blame.
        program, cex = _first_cex(
            "(module m (define boom (quotient 1 0))"
            " (provide [boom integer?]))"
        )
        assert cex.client is not None and cex.client.trivial
        assert cex.validated is True

    def test_non_module_program_has_no_client(self):
        program = parse_program("(quotient 1 •)")
        machine = SMachine(assume_well_typed=True)
        state = next(
            iter(
                find_known_blames(
                    inject_program(program, machine), machine
                )
            )
        )
        recon = object()  # never consulted for module-free programs
        assert synthesize_client(program, state.heap, recon) is None


def _expect_blame(source, err_op):
    """Run a closed surface program from text alone and return whether
    it blames with the same canonical operation.  (Exact *label* match
    is the AST-level validation oracle, where labels are preserved; a
    re-parse of instantiated text necessarily renumbers them.)"""
    interp = Interp(fuel=200_000)
    try:
        interp.run_program(parse_program(source))
    except PrimBlame as b:
        return b.op == err_op
    except (ContractBlame, UserAbort):
        return True
    except RuntimeFault:
        return False
    return False


class TestScenarioClients:
    @pytest.mark.parametrize("name", MODULE_BUGGY)
    def test_finding_is_validated_with_client(self, name):
        r = verify_program(get_program(name), CFG, backend="scv")
        assert r.status == STATUS_COUNTEREXAMPLE, (name, r.status, r.detail)
        cex = r.counterexample
        assert cex.validated_conc is True, (name, cex)
        assert cex.client, name

    @pytest.mark.parametrize("name", MODULE_BUGGY)
    def test_client_text_reruns_to_same_blame(self, name):
        # The emitted artifact is *closed*: parsed from text alone it
        # must still reproduce the same fault concretely.
        r = verify_program(get_program(name), CFG, backend="scv")
        cex = r.counterexample
        assert _expect_blame(cex.client, cex.err_op), (name, cex.client)


class TestTimeoutRowsKeepPartialStats:
    SPIN = (
        "(define a •)\n"
        "(define (walk n) (if (< n a) (walk (add1 n)) 7))\n"
        "(walk 0)"
    )

    @pytest.mark.parametrize("backend", ["core", "scv"])
    def test_verify_timeout_reports_partial_work(self, backend):
        cfg = RunConfig(max_states=10_000_000, timeout_s=0.5)
        r = verify_source(
            self.SPIN, name="spin", kind="?", config=cfg, backend=backend
        )
        assert r.status == STATUS_TIMEOUT
        # The SIGALRM deadline must not zero the observed counters.
        assert r.states_explored > 0
        assert r.solver_queries > 0
        assert r.chained_steps > 0

    def test_runner_keeps_partial_stats_in_totals(self, monkeypatch):
        # A spinning program makes the timeout machine-speed-independent
        # (sum-unknown-fn-abs, used previously, got fast enough under
        # the incremental solver to finish inside any sane budget).
        from repro.driver import corpus as corpus_mod
        from repro.driver.corpus import CorpusProgram

        spin = CorpusProgram(
            name="spin-forever", kind="?", source=self.SPIN,
            description="unbounded walk for the timeout test",
            backends=("scv",),
        )
        monkeypatch.setitem(corpus_mod._BY_NAME, spin.name, spin)
        cfg = RunConfig(max_states=10_000_000, timeout_s=0.3)
        report = run_corpus([spin.name], config=cfg, backend="scv")
        [row] = report.results
        assert row.status == STATUS_TIMEOUT
        assert row.states_explored > 0
        totals = report.backend_totals()["scv"]
        assert totals["states_explored"] == row.states_explored
        assert totals["chained_steps"] == row.chained_steps
