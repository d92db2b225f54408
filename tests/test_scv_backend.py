"""The untyped scv backend end-to-end, and the core/scv cross-check."""

import pytest

from repro.driver import (
    RunConfig,
    corpus_names,
    expand_tasks,
    get_backend,
    get_program,
    run_corpus,
    verify_program,
    verify_source,
)
from repro.driver.report import STATUS_COUNTEREXAMPLE, STATUS_SAFE
from repro.lang.parser import parse_program
from repro.search import SearchStats
from repro.scv import (
    SMachine,
    collect_struct_types,
    construct_u,
    find_known_blames,
    inject_program,
    uses_contracts,
)

CFG = RunConfig(timeout_s=60.0)


class TestMachineConstruction:
    def test_smachine_constructs_without_arguments(self):
        # The historical "unconstructible" caveat: δ and proof now land.
        m = SMachine()
        assert m.proof is not None
        assert not m.assume_well_typed

    def test_struct_registration_widens_tags(self):
        p = parse_program(
            "(module g (struct posn (x y)) (define (f p) (posn-x p))"
            " (provide [f (-> (struct/c posn integer? integer?) integer?)]))"
        )
        m = SMachine(struct_types=collect_struct_types(p))
        assert "struct:posn" in m.all_tags
        assert "posn?" in m.struct_prims
        assert "posn-x" in m.struct_prims

    def test_contract_detection(self):
        assert uses_contracts(parse_program("(module m (define x 1) (provide x))"))
        assert not uses_contracts(parse_program("(quotient 1 •)"))


class TestScvEndToEnd:
    def test_finds_division_blame_with_validated_model(self):
        p = parse_program("(define (f g) (quotient 100 (- 100 (g 0))))\n(f •)")
        m = SMachine(assume_well_typed=True)
        stats = SearchStats()
        state = next(
            iter(find_known_blames(inject_program(p, m), m, stats=stats))
        )
        cex = construct_u(p, state)
        assert cex is not None
        assert cex.validated is True
        [label] = cex.bindings
        assert label.startswith("opq")

    def test_unknown_blame_is_not_a_finding(self):
        # The safe module's only blame states fault the demonic client.
        p = parse_program(
            "(module m (define (shift x) (+ x 10))"
            " (provide [shift (-> positive? positive?)]))"
        )
        m = SMachine(struct_types=collect_struct_types(p))
        stats = SearchStats()
        found = list(
            find_known_blames(inject_program(p, m), m, stats=stats)
        )
        assert found == []
        assert stats.errors > 0  # the client *was* blamed, and ignored
        assert stats.known_errors == 0


class TestScvBackendVerdicts:
    @pytest.mark.parametrize("name", corpus_names(tag="contracts", kind="buggy"))
    def test_contract_buggy_finds_blame(self, name):
        r = verify_program(get_program(name), CFG, backend="scv")
        assert r.status == STATUS_COUNTEREXAMPLE, (name, r.status, r.detail)
        assert r.as_expected is True

    @pytest.mark.parametrize("name", corpus_names(tag="contracts", kind="safe"))
    def test_contract_safe_verifies(self, name):
        r = verify_program(get_program(name), CFG, backend="scv")
        assert r.status == STATUS_SAFE, (name, r.status, r.detail)

    def test_tower_counterexample_is_nonreal(self):
        # The demonic client feeds `smaller` a number that is not real;
        # the witness tag surfaces in the blame description (the client
        # itself has no program-level binding to reconstruct).
        r = verify_program(get_program("tower-number-compare"), CFG, backend="scv")
        assert r.status == STATUS_COUNTEREXAMPLE
        assert r.counterexample.err_op == "<"  # canonical surface op
        assert "nonreal" in r.counterexample.err_detail

    def test_validated_counterexample_on_shared_program(self):
        r = verify_source(
            "(quotient 1 •)", name="adhoc", kind="buggy", backend="scv"
        )
        assert r.status == STATUS_COUNTEREXAMPLE
        assert r.counterexample.validated_conc is True


class TestBackendDispatch:
    def test_registry(self):
        assert get_backend("core").name == "core"
        assert get_backend("scv").name == "scv"
        with pytest.raises(KeyError):
            get_backend("z3")

    def test_task_expansion(self):
        shared = ["div-checked"]
        ctc = ["ctc-range-shift"]
        assert expand_tasks(shared, "core") == [("div-checked", "core")]
        assert expand_tasks(ctc, "core") == []  # scv-only: skipped
        assert expand_tasks(ctc, "scv") == [("ctc-range-shift", "scv")]
        assert set(expand_tasks(shared, "both")) == {
            ("div-checked", "core"), ("div-checked", "scv"),
        }

    def test_result_rows_carry_backend(self):
        r = verify_source("(quotient 1 •)", backend="scv")
        assert r.backend == "scv"


class TestCrossCheckAgreement:
    # A representative slice of the shared corpus (one per feature
    # family), both backends, verdicts must agree.  The full-corpus
    # cross-check runs in CI via `bench --backend both`.
    SHARED = [
        "div-checked", "div-unchecked", "intro-unknown-fn",
        "havoc-probes-lambda", "havoc-total-lambda", "curried-unknown",
        "strict-gap", "slack-gap",
    ]

    @pytest.fixture(scope="class")
    def report(self):
        return run_corpus(
            self.SHARED, config=RunConfig(jobs=2, timeout_s=60.0),
            backend="both",
        )

    def test_both_backends_ran_every_program(self, report):
        assert len(report.results) == 2 * len(self.SHARED)

    def test_no_disagreements(self, report):
        agreement = report.agreement()
        assert agreement["shared_programs"] == len(self.SHARED)
        assert agreement["disagreements"] == []
        assert agreement["agreed"] == len(self.SHARED)

    def test_verdicts_match_annotations_on_both(self, report):
        bad = [
            (r.name, r.backend, r.status)
            for r in report.results
            if r.as_expected is not True
        ]
        assert bad == []

    def test_backend_totals_split(self, report):
        totals = report.backend_totals()
        assert set(totals) == {"core", "scv"}
        for t in totals.values():
            assert t["programs"] == len(self.SHARED)


def _tag_chain_module(preds, prelude: str = "") -> str:
    """``f`` answers for every value a test in ``preds`` admits (a
    predicate's name, or a test of ``x``) and divides by zero for any
    other value."""
    body = "(quotient 1 0)"
    for i, pred in reversed(list(enumerate(preds))):
        test = pred if pred.startswith("(") else f"({pred} x)"
        body = f"(if {test} {i} {body})"
    return (f"(module m {prelude}(define (f x) {body})"
            f" (provide [f (-> any/c any/c)]))")


_SEVEN_TAGS = ("number?", "string?", "pair?", "procedure?", "boolean?",
               "null?", "symbol?")


class TestWholePrimitiveTable:
    """Every program sees every primitive and the whole tag universe: an
    opaque value is any value a client could pass, and every primitive
    checks its arity the same way."""

    @pytest.mark.parametrize("more, witness", [
        ((), "(f (vector 0))"),
        (("vector?",), "(f (box 0))"),
        (("vector?", "box?"), "(f (void))"),
    ], ids=["vector", "box", "void"])
    def test_an_argument_of_any_tag_has_a_witness(self, more, witness):
        r = verify_source(_tag_chain_module(_SEVEN_TAGS + more), name="m",
                          kind="buggy", backend="scv")
        assert r.status == STATUS_COUNTEREXAMPLE, (r.status, r.detail)
        assert r.counterexample.err_op == "quotient"
        assert r.counterexample.validated_conc is True
        assert witness in r.counterexample.client

    def test_every_primitive_checks_its_arity_alike(self):
        from repro.prims import REGISTRY

        r = verify_source(
            "(module m (define (f x) (car x 3))"
            " (provide [f (-> any/c any/c)]))",
            name="m", kind="buggy", backend="scv",
        )
        assert r.status == STATUS_COUNTEREXAMPLE, (r.status, r.detail)
        assert r.counterexample.err_op == "car"
        assert r.counterexample.err_detail == (
            f"Λ: car: {REGISTRY['car'].arity.blame(2)}"
        )
        assert REGISTRY["car"].arity.blame(2) == "expected 1 argument, got 2"
        assert r.counterexample.validated_conc is True
        # The concrete interpreter blames the same call in the same words.
        from repro.conc.interp import PrimBlame, run_source

        with pytest.raises(PrimBlame) as info:
            run_source("(car (cons 1 2) 3)")
        assert info.value.message == REGISTRY["car"].arity.blame(2)

    @pytest.mark.parametrize("call, op", [
        ("(substring \"ab\")", "substring"),
        ("(< 1)", "<"),
        ("(posn? (posn 1 2) 3)", "posn?"),
        ("(posn-x)", "posn-x"),
    ])
    def test_the_concrete_interpreter_phrases_arity_alike(self, call, op):
        from repro.conc.interp import PrimBlame, run_source
        from repro.prims import REGISTRY, exactly

        source = (f"(module m (struct posn (x y)) (provide posn posn? posn-x))"
                  f" {call}")
        with pytest.raises(PrimBlame) as info:
            run_source(source)
        n = len(parse_program(call).main.args)
        arity = REGISTRY[op].arity if op in REGISTRY else exactly(1)
        assert (info.value.op, info.value.message) == (op, arity.blame(n))

    def test_a_struct_witness_behind_a_negative_equal(self):
        source = _tag_chain_module(
            _SEVEN_TAGS + ("vector?", "box?", "(equal? x (void))"),
            prelude="(struct posn (x y)) ",
        )
        r = verify_source(source, name="m", kind="buggy", backend="scv")
        assert r.status == STATUS_COUNTEREXAMPLE, (r.status, r.detail)
        assert r.counterexample.err_op == "quotient"
        assert r.counterexample.validated_conc is True
        assert "(f (posn 0 0))" in r.counterexample.client
