"""The untyped proof relation: tag judgements, concrete fast paths,
recorded refinements, and the solver path over the integer fragment —
plus the concrete fast path both proof systems share."""

import pytest

from repro.core.heap import (
    HConst, HLoc, HOp, Heap, NameCursor, PEq, PLe, PLt, PNot, PZero, SNum,
)
from repro.core.proof import ProofSystem, Verdict
from repro.lang.values import NIL
from repro.scv.heap import PEqDatum, UConc, UHeap, UOpq, UPair, UCase, UAlias
from repro.scv.tags import (
    NUMBER_TAGS,
    REAL_TAGS,
    TAG_BOOLEAN,
    TAG_INTEGER,
    TAG_PAIR,
    TAG_PROCEDURE,
    TAG_STRING,
)
from repro.scv.proof import UProofSystem, translate_uheap
from repro.smt import (
    Result, check_sat, mk_div, mk_eq, mk_mod, mk_not, mk_var,
)


@pytest.fixture
def proof():
    return UProofSystem()


#: Every allocation in this module draws a fresh name from one cursor.
_NAMES = NameCursor()


def _alloc(heap, s):
    return heap.alloc(s, _NAMES)


class TestTagJudgement:
    def test_concrete_scalar_tags(self, proof):
        heap = UHeap.empty()
        l, heap = _alloc(heap, UConc(7))
        assert proof.check_tags(heap, l, NUMBER_TAGS) is Verdict.PROVED
        assert proof.check_tags(heap, l, frozenset({TAG_STRING})) is Verdict.REFUTED

    def test_concrete_structured_tags(self, proof):
        heap = UHeap.empty()
        a, heap = _alloc(heap, UConc(1))
        d, heap = _alloc(heap, UConc(NIL))
        p, heap = _alloc(heap, UPair(a, d))
        assert proof.check_tags(heap, p, frozenset({TAG_PAIR})) is Verdict.PROVED
        assert proof.check_tags(heap, p, NUMBER_TAGS) is Verdict.REFUTED

    def test_opaque_three_way(self, proof):
        heap = UHeap.empty()
        l, heap = _alloc(heap, UOpq())
        assert proof.check_tags(heap, l, NUMBER_TAGS) is Verdict.AMBIG
        heap = heap.narrow(l, REAL_TAGS)
        assert proof.check_tags(heap, l, NUMBER_TAGS) is Verdict.PROVED
        assert proof.check_tags(heap, l, frozenset({TAG_PROCEDURE})) is Verdict.REFUTED


class TestConcreteFastPath:
    def test_int_predicates_without_solver(self, proof):
        heap = UHeap.empty()
        l, heap = _alloc(heap, UConc(5))
        assert proof.check(heap, l, PZero()) is Verdict.REFUTED
        assert proof.check(heap, l, PEq(HConst(5))) is Verdict.PROVED
        assert proof.check(heap, l, PLt(HConst(10))) is Verdict.PROVED
        assert proof.check(heap, l, PLe(HConst(4))) is Verdict.REFUTED
        assert proof.solver_queries == 0

    def test_scalar_equality_datum(self, proof):
        heap = UHeap.empty()
        l, heap = _alloc(heap, UConc("hello"))
        assert proof.check(heap, l, PEqDatum("hello")) is Verdict.PROVED
        assert proof.check(heap, l, PEqDatum("bye")) is Verdict.REFUTED

    def test_heap_term_evaluation(self, proof):
        heap = UHeap.empty()
        a, heap = _alloc(heap, UConc(3))
        b, heap = _alloc(heap, UConc(10))
        subj, heap = _alloc(heap, UConc(7))
        term = HOp("-", (HLoc(b), HLoc(a)))
        assert proof.check(heap, subj, PEq(term)) is Verdict.PROVED


def _int_heap(system: str, values):
    """A proof system of ``system`` ("core" or "scv") and a heap of
    concrete integers for it, with their locations."""
    if system == "core":
        proof, heap, wrap = ProofSystem(), Heap.empty(), SNum
    else:
        proof, heap, wrap = UProofSystem(), UHeap.empty(), UConc
    locs = []
    for v in values:
        l, heap = heap.alloc(wrap(v), _NAMES)
        locs.append(l)
    return proof, heap, locs


@pytest.mark.parametrize("system", ["core", "scv"])
class TestConcreteDivMod:
    """Both proof systems evaluate a concrete ``div``/``mod`` the way the
    solver axiomatises it (Euclidean), so the fast path and the solver
    path never disagree on one judgement — floor division does on a
    negative divisor."""

    def test_negative_divisor_is_euclidean(self, system):
        # 7 div -2 is -3 (7 = -2 * -3 + 1); floor division says -4.
        proof, heap, (l1, l2) = _int_heap(system, [7, -4])
        term = HOp("div", (HLoc(l1), HConst(-2)))
        assert proof.check(heap, l2, PEq(term)) is Verdict.REFUTED
        assert proof.solver_queries == 0

    @pytest.mark.parametrize("a, b", [(7, -2), (-7, -2), (-7, 2), (7, 3)])
    def test_fast_path_agrees_with_the_solver(self, system, a, b):
        x = mk_var("x")
        for op, mk in (("div", mk_div), ("mod", mk_mod)):
            for c in range(-4, 5):
                proof, heap, (la, lc) = _int_heap(system, [a, c])
                got = proof.check(
                    heap, lc, PEq(HOp(op, (HLoc(la), HConst(b)))))
                sat = check_sat(mk_eq(x, a), mk_eq(mk(x, b), c))
                want = Verdict.PROVED if sat is Result.SAT else Verdict.REFUTED
                assert got is want, (op, a, b, c)
                assert proof.solver_queries == 0  # decided concretely


class TestRecordedRefinements:
    def test_verbatim_and_negated(self, proof):
        heap = UHeap.empty()
        l, heap = _alloc(heap, UOpq(frozenset({TAG_INTEGER}), (PZero(),)))
        assert proof.check(heap, l, PZero()) is Verdict.PROVED
        l2, heap = _alloc(
            heap, UOpq(frozenset({TAG_INTEGER}), (PNot(PZero()),))
        )
        assert proof.check(heap, l2, PZero()) is Verdict.REFUTED
        assert proof.solver_queries == 0

    def test_tag_refutes_datum_equality(self, proof):
        heap = UHeap.empty()
        l, heap = _alloc(heap, UOpq(frozenset({TAG_INTEGER})))
        # An integer-narrowed opaque can never equal #f.
        assert proof.check(heap, l, PEqDatum(False)) is Verdict.REFUTED


class TestSolverPath:
    def test_arithmetic_chain(self, proof):
        # x: int, t = x + 1, refine ¬(x < 0): then t = 0 is refutable.
        heap = UHeap.empty()
        x, heap = _alloc(
            heap, UOpq(frozenset({TAG_INTEGER}), (PNot(PLt(HConst(0))),))
        )
        t, heap = _alloc(
            heap,
            UOpq(frozenset({TAG_INTEGER}),
                 (PEq(HOp("+", (HLoc(x), HConst(1)))),)),
        )
        assert proof.check(heap, t, PZero()) is Verdict.REFUTED
        assert proof.solver_queries >= 1

    def test_ambiguous_branches(self, proof):
        heap = UHeap.empty()
        x, heap = _alloc(heap, UOpq(frozenset({TAG_INTEGER})))
        assert proof.check(heap, x, PZero()) is Verdict.AMBIG

    def test_unnarrowed_subject_is_ambig_not_solved(self, proof):
        # Trusting the integer formula for a maybe-pair subject would be
        # unsound; the relation must answer AMBIG and let δ branch.
        heap = UHeap.empty()
        x, heap = _alloc(heap, UOpq())
        before = proof.solver_queries
        assert proof.check(heap, x, PZero()) is Verdict.AMBIG
        assert proof.solver_queries == before


class TestHeapTranslation:
    def test_concrete_ints_pin_variables(self):
        heap = UHeap.empty()
        x, heap = _alloc(heap, UConc(4))
        phi = translate_uheap(heap)
        from repro.smt import mk_eq, mk_var

        assert check_sat(phi, mk_eq(mk_var(x.name), 4)) is Result.SAT
        assert check_sat(phi, mk_not(mk_eq(mk_var(x.name), 4))) is Result.UNSAT

    def test_case_consistency_implications(self):
        # case [k1 ↦ v1] [k2 ↦ v2] with k1 = k2 forces v1 = v2.
        heap = UHeap.empty()
        k1, heap = _alloc(heap, UConc(3))
        k2, heap = _alloc(heap, UOpq(frozenset({TAG_INTEGER}),
                                     (PEq(HConst(3)),)))
        v1, heap = _alloc(heap, UOpq(frozenset({TAG_INTEGER})))
        v2, heap = _alloc(heap, UOpq(frozenset({TAG_INTEGER})))
        f, heap = _alloc(heap, UCase(1, (((k1,), v1), ((k2,), v2))))
        phi = translate_uheap(heap)
        from repro.smt import mk_eq, mk_var

        distinct = mk_not(mk_eq(mk_var(v1.name), mk_var(v2.name)))
        assert check_sat(phi, distinct) is Result.UNSAT

    def test_non_integer_facts_are_dropped(self):
        # Booleans, strings, pairs contribute no constraint: the formula
        # stays satisfiable whatever they hold.
        heap = UHeap.empty()
        b, heap = _alloc(heap, UConc(False))
        s, heap = _alloc(heap, UConc("x"))
        o, heap = _alloc(heap, UOpq(frozenset({TAG_BOOLEAN}),
                                    (PEqDatum(False),)))
        assert check_sat(translate_uheap(heap)) is Result.SAT

    def test_alias_links_integers(self):
        heap = UHeap.empty()
        x, heap = _alloc(heap, UConc(9))
        cell, heap = _alloc(heap, UAlias(x))
        phi = translate_uheap(heap)
        from repro.smt import mk_eq, mk_var

        assert check_sat(phi, mk_not(mk_eq(mk_var(cell.name), 9))) is Result.UNSAT
