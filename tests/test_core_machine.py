"""Tests for the heap, δ, the proof relation, and the SPCF machine rules."""

import pytest

from repro.core import (
    Fix,
    Heap,
    HConst,
    HLoc,
    HOp,
    If,
    Loc,
    Machine,
    NAT,
    Num,
    PEq,
    PNot,
    PZero,
    ProofSystem,
    Ref,
    SCase,
    SLam,
    SNum,
    SOpq,
    State,
    Verdict,
    app,
    delta,
    fun,
    inject,
    lam,
    opq,
    prim,
    run,
)
from repro.core.heap import NameCursor
from repro.core.machine import _opq_loc

#: Every allocation in this module draws a fresh name from one cursor.
_NAMES = NameCursor()


def run_to_answers(program, max_states=5000):
    """Collect all answer states reachable from a program."""
    from repro.core import explore

    return [r.state for r in explore(program, max_states=max_states)]


class TestHeap:
    def test_alloc_get(self):
        h = Heap.empty()
        l, h2 = h.alloc(SNum(5), _NAMES)
        assert h2.get(l) == SNum(5)
        assert l not in h  # original heap unchanged

    def test_set_overwrites(self):
        h = Heap.empty()
        l, h = h.alloc(SNum(1), _NAMES)
        h2 = h.set(l, SNum(2))
        assert h.get(l) == SNum(1)
        assert h2.get(l) == SNum(2)

    def test_refine_accumulates(self):
        h = Heap.empty()
        l, h = h.alloc(SOpq(NAT), _NAMES)
        h = h.refine(l, PZero())
        h = h.refine(l, PZero())  # idempotent
        assert h.get(l).refinements == (PZero(),)

    def test_refine_concrete_rejected(self):
        h = Heap.empty()
        l, h = h.alloc(SNum(1), _NAMES)
        with pytest.raises(TypeError):
            h.refine(l, PZero())

    def test_missing_location(self):
        with pytest.raises(KeyError):
            Heap.empty().get(Loc("nope"))

    def test_case_lookup_extend(self):
        c = SCase(NAT)
        k, v = Loc("k"), Loc("v")
        assert c.lookup(k) is None
        c2 = c.extended(k, v)
        assert c2.lookup(k) == v
        assert c.lookup(k) is None


class TestDelta:
    def setup_method(self):
        self.proof = ProofSystem()

    def test_concrete_arithmetic(self):
        h = Heap.empty()
        l1, h = h.alloc(SNum(7), _NAMES)
        l2, h = h.alloc(SNum(3), _NAMES)
        for op, expect in [("+", 10), ("-", 4), ("*", 21), ("div", 2), ("mod", 1)]:
            results = delta(self.proof, h, op, (l1, l2))
            assert len(results) == 1
            assert results[0].value == SNum(expect)

    def test_concrete_zero(self):
        h = Heap.empty()
        l, h = h.alloc(SNum(0), _NAMES)
        (res,) = delta(self.proof, h, "zero?", (l,))
        assert res.value == SNum(1)

    def test_div_by_zero_concrete(self):
        h = Heap.empty()
        l1, h = h.alloc(SNum(1), _NAMES)
        l2, h = h.alloc(SNum(0), _NAMES)
        (res,) = delta(self.proof, h, "div", (l1, l2))
        assert res.error

    def test_opaque_zero_branches(self):
        h = Heap.empty()
        l, h = h.alloc(SOpq(NAT), _NAMES)
        results = delta(self.proof, h, "zero?", (l,))
        assert len(results) == 2
        values = {r.value.value for r in results}
        assert values == {0, 1}
        # The true branch refined the subject with zero?.
        true_branch = next(r for r in results if r.value == SNum(1))
        assert PZero() in true_branch.heap.get(l).refinements

    def test_opaque_arith_records_equality(self):
        h = Heap.empty()
        l1, h = h.alloc(SNum(100), _NAMES)
        l2, h = h.alloc(SOpq(NAT), _NAMES)
        (res,) = delta(self.proof, h, "-", (l1, l2))
        assert isinstance(res.value, SOpq)
        (p,) = res.value.refinements
        assert p == PEq(HOp("-", (HLoc(l1), HLoc(l2))))

    def test_opaque_div_branches(self):
        h = Heap.empty()
        l1, h = h.alloc(SNum(1), _NAMES)
        l2, h = h.alloc(SOpq(NAT), _NAMES)
        results = delta(self.proof, h, "div", (l1, l2))
        assert len(results) == 2
        err = next(r for r in results if r.error)
        ok = next(r for r in results if not r.error)
        assert PZero() in err.heap.get(l2).refinements
        assert PNot(PZero()) in ok.heap.get(l2).refinements

    def test_div_nonzero_by_refinement(self):
        # Denominator already refined nonzero: no error branch.
        h = Heap.empty()
        l1, h = h.alloc(SNum(1), _NAMES)
        l2, h = h.alloc(SOpq(NAT, (PNot(PZero()),)), _NAMES)
        results = delta(self.proof, h, "div", (l1, l2))
        assert len(results) == 1 and not results[0].error

    def test_div_definitely_zero(self):
        h = Heap.empty()
        l1, h = h.alloc(SNum(1), _NAMES)
        l2, h = h.alloc(SOpq(NAT, (PZero(),)), _NAMES)
        (res,) = delta(self.proof, h, "div", (l1, l2))
        assert res.error

    def test_comparison_concrete(self):
        h = Heap.empty()
        l1, h = h.alloc(SNum(2), _NAMES)
        l2, h = h.alloc(SNum(3), _NAMES)
        (res,) = delta(self.proof, h, "<?", (l1, l2))
        assert res.value == SNum(1)

    def test_comparison_opaque_branches(self):
        h = Heap.empty()
        l1, h = h.alloc(SOpq(NAT), _NAMES)
        l2, h = h.alloc(SNum(5), _NAMES)
        results = delta(self.proof, h, "<?", (l1, l2))
        assert len(results) == 2

    def test_unknown_op_rejected(self):
        h = Heap.empty()
        l, h = h.alloc(SNum(1), _NAMES)
        with pytest.raises(ValueError):
            delta(self.proof, h, "launch-missiles", (l,))


class TestProofRelation:
    def setup_method(self):
        self.proof = ProofSystem()

    def test_concrete_proved(self):
        h = Heap.empty()
        l, h = h.alloc(SNum(0), _NAMES)
        assert self.proof.check(h, l, PZero()) is Verdict.PROVED

    def test_concrete_refuted(self):
        h = Heap.empty()
        l, h = h.alloc(SNum(5), _NAMES)
        assert self.proof.check(h, l, PZero()) is Verdict.REFUTED

    def test_opaque_ambiguous(self):
        h = Heap.empty()
        l, h = h.alloc(SOpq(NAT), _NAMES)
        assert self.proof.check(h, l, PZero()) is Verdict.AMBIG

    def test_refinement_gives_proved(self):
        h = Heap.empty()
        l, h = h.alloc(SOpq(NAT, (PZero(),)), _NAMES)
        assert self.proof.check(h, l, PZero()) is Verdict.PROVED

    def test_solver_chases_equalities(self):
        # L5 = 100 - L4, L4 = 100 entails zero? L5 (the §2 final heap).
        h = Heap.empty()
        l4, h = h.alloc(SNum(100), _NAMES)
        l5, h = h.alloc(SOpq(NAT, (PEq(HOp("-", (HConst(100), HLoc(l4)))),)), _NAMES)
        assert self.proof.check(h, l5, PZero()) is Verdict.PROVED

    def test_solver_refutes(self):
        h = Heap.empty()
        l4, h = h.alloc(SNum(1), _NAMES)
        l5, h = h.alloc(SOpq(NAT, (PEq(HOp("-", (HConst(100), HLoc(l4)))),)), _NAMES)
        assert self.proof.check(h, l5, PZero()) is Verdict.REFUTED

    def test_fast_path_skips_solver(self):
        h = Heap.empty()
        l, h = h.alloc(SNum(0), _NAMES)
        before = self.proof.solver_queries
        self.proof.check(h, l, PZero())
        assert self.proof.solver_queries == before


class TestMachineRules:
    def test_conc_allocates(self):
        m = Machine()
        (s,) = m.step(inject(Num(42)))
        assert isinstance(s.control, Loc)
        assert s.heap.get(s.control) == SNum(42)

    def test_opq_reuses_location(self):
        m = Machine()
        o = opq(NAT, "shared")
        # Two occurrences of the same opaque label use one location.
        (s1,) = m.step(inject(o))
        (s2,) = m.step(State(o, s1.heap))
        assert s1.control == s2.control
        assert s2.heap is s1.heap

    def test_beta_reduction(self):
        program = app(lam("x", NAT, prim("add1", Ref("x"), label="p0")), Num(1))
        answer = run(program)
        assert answer.number() == 2

    def test_fix_unfolds(self):
        # sum n = if zero?(n) then 0 else n + sum(n-1)
        summ = Fix(
            "s",
            fun(NAT, NAT),
            lam(
                "n",
                NAT,
                If(
                    prim("zero?", Ref("n"), label="p1"),
                    Num(0),
                    prim("+", Ref("n"), app(Ref("s"), prim("sub1", Ref("n"), label="p2")),
                         label="p3"),
                ),
            ),
        )
        assert run(app(summ, Num(5))).number() == 15

    def test_if_nonzero_takes_then(self):
        assert run(If(Num(7), Num(1), Num(2))).number() == 1
        assert run(If(Num(0), Num(1), Num(2))).number() == 2

    def test_error_discards_context(self):
        program = prim("add1", prim("div", Num(1), Num(0), label="boom"), label="p4")
        answer = run(program)
        assert answer.is_error
        assert answer.error.label == "boom"

    def test_app_opq1_creates_case(self):
        # (•(nat→nat) 5): the unknown becomes a one-entry case mapping.
        m = Machine()
        program = app(opq(fun(NAT, NAT), "g"), Num(5))
        state = inject(program)
        # Steps: alloc opq, alloc 5, apply.
        for _ in range(3):
            (state,) = m.step(state)
        fn_loc = _opq_loc("g")
        stored = state.heap.get(fn_loc)
        assert isinstance(stored, SCase)
        assert len(stored.mapping) == 1

    def test_app_case_memoizes(self):
        # Applying an unknown function twice to the same value must give
        # the *same* location (the completeness device).
        g = opq(fun(NAT, NAT), "g")
        program = prim("=?", app(g, Num(3)), app(g, Num(3)), label="p5")
        answers = run_to_answers(program)
        finals = [
            s.heap.get(s.control)
            for s in answers
            if isinstance(s.control, Loc)
        ]
        # Every execution yields 1 (equal): no path can make them differ.
        assert finals and all(v == SNum(1) for v in finals)

    def test_app_case_fresh_argument(self):
        # Different arguments get (potentially) different results.
        g = opq(fun(NAT, NAT), "g")
        program = prim("=?", app(g, Num(3)), app(g, Num(4)), label="p6")
        finals = {
            s.heap.get(s.control).value
            for s in run_to_answers(program)
            if isinstance(s.control, Loc)
        }
        assert finals == {0, 1}

    def test_higher_order_opq_branches(self):
        # Applying •((nat→nat)→nat) to a lambda explores Opq2 and Havoc.
        m = Machine()
        f = opq(fun(fun(NAT, NAT), NAT), "F")
        ident = lam("x", NAT, Ref("x"))
        state = inject(app(f, ident))
        (state,) = m.step(state)  # alloc opq
        (state,) = m.step(state)  # alloc lambda
        succs = m.step(state)  # apply: Opq2 + Havoc (no Opq3: rng is nat)
        assert len(succs) == 2

    def test_higher_order_opq3_when_range_is_function(self):
        m = Machine()
        f = opq(fun(fun(NAT, NAT), fun(NAT, NAT)), "F")
        ident = lam("x", NAT, Ref("x"))
        state = inject(app(f, ident))
        (state,) = m.step(state)
        (state,) = m.step(state)
        succs = m.step(state)
        assert len(succs) == 3  # Opq2, Opq3, Havoc

    def test_stuck_on_free_variable(self):
        from repro.core import StuckError

        m = Machine()
        with pytest.raises(StuckError):
            m.step(inject(Ref("x")))


class TestConcreteEvaluator:
    def test_arithmetic(self):
        assert run(prim("*", Num(6), Num(7), label="p7")).number() == 42

    def test_rejects_opaques(self):
        with pytest.raises(ValueError):
            run(opq(NAT, "o8"))

    def test_timeout(self):
        from repro.core import Timeout

        omega = Fix("x", NAT, Ref("x"))
        with pytest.raises(Timeout):
            run(omega, fuel=100)

    def test_function_answer(self):
        answer = run(lam("x", NAT, Ref("x")))
        assert isinstance(answer.value, SLam)
        assert answer.number() is None
