"""The untyped proof relation ``Σ ⊢ L : P`` — paper Fig. 5 lifted to §4.

The typed proof system (``core.proof``) decides predicates over a heap
whose every location is an integer or a function.  The untyped heap is
richer: a location may hold *any* tag (integer, pair, procedure, ...),
and an opaque value carries a set of possible tags alongside its numeric
refinements.  This module therefore splits the judgement in two:

* ``check_tags`` — a purely lattice-level judgement: is the value at
  ``L`` definitely / definitely-not / possibly inside a set of type
  tags?  This is what the δ-rules for type tests (``pair?``,
  ``number?``, ...) consult, and it needs no solver.
* ``check`` — the numeric three-valued judgement (PROVED / REFUTED /
  AMBIG) over the refinement predicates, reusing the SMT layer
  (``repro.smt``) through :func:`translate_uheap`.

Translation boundary (the documented §5.3 confinement): only
*integer-sorted* facts are translated.  A location contributes a solver
constraint when it holds a concrete exact integer, an opaque narrowed
enough that its numeric refinements are meaningful, or a ``UCase``
mapping whose keys and outputs are integer-sorted (the functional-
consistency implications of Fig. 4).  Pairs, procedures, contracts and
non-integer scalars contribute nothing — their reasoning happens at the
tag level, before the solver is ever consulted.  Scalar equality with
non-numeric datums (``PEqDatum``) is decided syntactically.
"""

from __future__ import annotations

from typing import Optional

from ..core.heap import (
    HConst,
    PEq,
    PLe,
    PLt,
    PNot,
    Pred,
    PZero,
)
from ..core.proof import Verdict, eval_hterm, solve_judgement
from ..core.syntax import Loc
from ..lang.values import racket_equal
from ..smt import (
    Formula,
    PathContext,
    mk_and,
    mk_eq,
    mk_implies,
)
from ..core.translate import loc_var, translate_pred
from .heap import PEqDatum, UAlias, UCase, UConc, UHeap, UOpq, UStoreable
from .tags import TAG_INTEGER

__all__ = ["Verdict", "UProofSystem", "translate_uheap", "translate_uheap_parts"]


def _is_exact_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _int_value(heap: UHeap, l: Loc) -> Optional[int]:
    _, s = heap.deref(l)
    if isinstance(s, UConc) and _is_exact_int(s.value):
        return s.value
    return None


def _numeric_pred(p: Pred) -> bool:
    """Is ``p`` expressible in the integer fragment (Fig. 4 forms)?"""
    if isinstance(p, PNot):
        return _numeric_pred(p.arg)
    if isinstance(p, (PEq, PLt, PLe, PZero)):
        return True
    if isinstance(p, PEqDatum):
        return _is_exact_int(p.datum)
    return False


def _as_core_pred(p: Pred) -> Pred:
    """Rewrite ``PEqDatum`` over integers into the core ``PEq`` form so
    the shared ``core.translate`` machinery can handle it."""
    if isinstance(p, PNot):
        return PNot(_as_core_pred(p.arg))
    if isinstance(p, PEqDatum) and _is_exact_int(p.datum):
        return PEq(HConst(p.datum))
    return p


def _check_concrete(value: object, p: Pred, heap: UHeap) -> Optional[bool]:
    """Decide a predicate against a concrete scalar without the solver."""
    if isinstance(p, PNot):
        sub = _check_concrete(value, p.arg, heap)
        return None if sub is None else (not sub)
    if isinstance(p, PEqDatum):
        return racket_equal(value, p.datum)
    if not _is_exact_int(value):
        return None
    if isinstance(p, PZero):
        return value == 0
    if isinstance(p, (PEq, PLt, PLe)):
        rhs = eval_hterm(p.term, lambda l: _int_value(heap, l))
        if rhs is None:
            return None
        if isinstance(p, PEq):
            return value == rhs
        if isinstance(p, PLt):
            return value < rhs
        return value <= rhs
    return None


# ---------------------------------------------------------------------------
# Heap translation — ``{{Σ}}`` restricted to the integer sort
# ---------------------------------------------------------------------------


def translate_uheap(heap: UHeap) -> Formula:
    """The conjunction of integer-sorted facts recorded in ``heap``.

    Mirrors ``core.translate.translate_heap`` (Fig. 4's implication
    encoding): concrete exact integers pin their variable, opaque refinements become
    the Fig. 4 predicate formulas, and ``UCase`` memo tables become
    functional-consistency implications (restricted to entries whose keys
    and output are integer-sorted; mixed-sort entries are dropped, which
    only ever *weakens* the formula — spurious models are then caught by
    concrete validation, never the other way round).
    """
    return mk_and(*translate_uheap_parts(heap))


def translate_uheap_parts(heap: UHeap) -> tuple[Formula, ...]:
    """``{{Σ}}`` as its conjunct sequence in heap order — what a
    ``PathContext`` memoizes per heap and slices into independent
    groups (see ``core.translate.translate_heap_parts``).  When no base
    cell can state a fact (``UHeap.inert_base``, true of the shared
    primitive base) only the overlay is walked — the same sequence."""
    parts: list[Formula] = []
    cells = heap.overlay_items() if heap.inert_base else heap.items()
    for l, s in cells:
        if isinstance(s, UConc):
            if _is_exact_int(s.value):
                parts.append(mk_eq(loc_var(l), s.value))
        elif isinstance(s, UOpq):
            for p in s.preds:
                if _numeric_pred(p):
                    parts.append(
                        translate_pred(_as_core_pred(p), loc_var(l))
                    )
        elif isinstance(s, UAlias):
            target, ts = heap.deref(l)
            if _int_sorted(ts):
                parts.append(mk_eq(loc_var(l), loc_var(target)))
        elif isinstance(s, UCase):
            entries = [
                (k, v)
                for k, v in s.mapping
                if all(_int_sorted_at(heap, ki) for ki in k)
                and _int_sorted_at(heap, v)
            ]
            for i in range(len(entries)):
                for j in range(i + 1, len(entries)):
                    (k1, v1), (k2, v2) = entries[i], entries[j]
                    keys_eq = mk_and(
                        *[
                            mk_eq(loc_var(a), loc_var(b))
                            for a, b in zip(k1, k2)
                        ]
                    )
                    parts.append(
                        mk_implies(keys_eq, mk_eq(loc_var(v1), loc_var(v2)))
                    )
        # Pairs, procedures, structs, boxes, contracts: no integer fact.
    return tuple(parts)


def _int_sorted(s: UStoreable) -> bool:
    if isinstance(s, UConc):
        return _is_exact_int(s.value)
    if isinstance(s, UOpq):
        return TAG_INTEGER in s.possible
    return False


def _int_sorted_at(heap: UHeap, l: Loc) -> bool:
    _, s = heap.deref(l)
    return _int_sorted(s)


# ---------------------------------------------------------------------------
# The proof system
# ---------------------------------------------------------------------------


class UProofSystem:
    """Decides tag- and integer-level judgements over untyped heaps.

    Like the typed ``ProofSystem`` it is counters plus a
    :class:`~repro.smt.PathContext` — no *judgement* is cached across
    queries, and each solver query is one one-shot check.
    """

    def __init__(self) -> None:
        self.queries = 0
        self.solver_queries = 0
        self._ctx = PathContext()

    # -- tag lattice ----------------------------------------------------

    def check_tags(self, heap: UHeap, l: Loc, tags: frozenset[str]) -> Verdict:
        """Is the value at ``l`` inside the tag set?  Non-opaque
        storeables answer definitely via their primary tag."""
        self.queries += 1
        from .delta import storeable_tag  # local import: delta ↔ proof

        _, s = heap.deref(l)
        if isinstance(s, UOpq):
            if not (s.possible & tags):
                return Verdict.REFUTED
            if s.possible <= tags:
                return Verdict.PROVED
            return Verdict.AMBIG
        tag = storeable_tag(s)
        return Verdict.PROVED if tag in tags else Verdict.REFUTED

    # -- numeric judgement ----------------------------------------------

    def check(self, heap: UHeap, l: Loc, p: Pred) -> Verdict:
        """``Σ ⊢ L : P`` over the integer fragment (plus syntactic
        scalar-equality facts)."""
        self.queries += 1
        target, s = heap.deref(l)
        if isinstance(s, UConc):
            v = _check_concrete(s.value, p, heap)
            if v is True:
                return Verdict.PROVED
            if v is False:
                return Verdict.REFUTED
            return Verdict.AMBIG
        if not isinstance(s, UOpq):
            # Structured values never satisfy numeric predicates; scalar
            # equality against them is decided by δ, not here.
            return Verdict.AMBIG
        # Fast path: the refinement (or its negation) is recorded.
        if p in s.preds:
            return Verdict.PROVED
        if PNot(p) in s.preds:
            return Verdict.REFUTED
        if isinstance(p, PNot) and p.arg in s.preds:
            return Verdict.REFUTED
        # Tag-level refutation: equality with a datum whose tag the
        # opaque can no longer be.
        if isinstance(p, PEqDatum) and not _numeric_pred(p):
            from .delta import datum_tag

            t = datum_tag(p.datum)
            if t is not None and t not in s.possible:
                return Verdict.REFUTED
            return Verdict.AMBIG
        if not _numeric_pred(p):
            return Verdict.AMBIG
        if TAG_INTEGER not in s.possible:
            # The subject cannot be an integer; integer predicates are
            # vacuously refuted (equality) or undecided (orderings on a
            # non-integer are δ's business, it never asks).
            return Verdict.REFUTED
        if s.possible != frozenset({TAG_INTEGER}):
            # Not yet narrowed to the solver's sort; branch rather than
            # trust a formula that assumes integerness.
            return Verdict.AMBIG
        # Solver path (Fig. 5).
        self.solver_queries += 1
        return solve_judgement(self._ctx, heap, translate_uheap_parts,
                               translate_pred(_as_core_pred(p), loc_var(target)))
