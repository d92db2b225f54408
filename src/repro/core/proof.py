"""The proof relation ``Σ ⊢ L : P`` — paper Fig. 5.

Three-valued judgement deciding whether the value at location ``L``
satisfies predicate ``P`` under the assumptions recorded in the heap:

* ``PROVED``  — ``{{Σ}} ⇒ {{L : P}}`` is valid: every instantiation
  satisfies ``P``;
* ``REFUTED`` — ``{{Σ}} ∧ {{L : P}}`` is unsatisfiable: every
  instantiation fails ``P``;
* ``AMBIG``   — neither; execution must branch.

Precision (not soundness) depends on this relation: answering AMBIG for
everything would still be sound but would explore spurious paths.  Fast
syntactic checks on concrete numbers avoid most solver calls.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from ..smt import PathContext, Result, mk_not
from .heap import (
    HConst,
    Heap,
    HLoc,
    HOp,
    HTerm,
    PEq,
    PLe,
    PLt,
    PNot,
    Pred,
    PZero,
    SNum,
    SOpq,
)
from .syntax import Loc
from .translate import (
    loc_var,
    translate_heap_parts,
    translate_pred,
)


class Verdict(enum.Enum):
    PROVED = "!"
    REFUTED = "x"
    AMBIG = "?"


def eval_hterm(
    t: HTerm, int_at: Callable[[Loc], Optional[int]]
) -> Optional[int]:
    """Evaluate a heap term when ``int_at`` maps every location it
    mentions to a concrete integer (Euclidean div/mod, matching the
    solver's axioms); None otherwise.  Shared by both proof systems, so
    their concrete fast paths agree with each other and with the
    solver."""
    if isinstance(t, HConst):
        return t.value
    if isinstance(t, HLoc):
        return int_at(t.loc)
    if isinstance(t, HOp):
        args = [eval_hterm(a, int_at) for a in t.args]
        if any(a is None for a in args):
            return None
        a, b = (args + [None])[0], (args + [None, None])[1]
        if t.op == "+":
            return sum(args)  # type: ignore[arg-type]
        if t.op == "-":
            return a - b  # type: ignore[operator]
        if t.op == "*":
            out = 1
            for v in args:
                out *= v  # type: ignore[assignment]
            return out
        if t.op in ("div", "mod") and b:
            q = a // b if b > 0 else -(a // -b)  # type: ignore[operator]
            return q if t.op == "div" else a - b * q  # type: ignore[operator]
    return None


def _num_at(heap: Heap, l: Loc) -> Optional[int]:
    s = heap.get(l)
    return s.value if isinstance(s, SNum) else None


def _check_concrete(value: int, p: Pred, heap: Heap) -> Optional[bool]:
    """Decide a predicate on a concrete number without the solver, when
    the predicate's heap terms are themselves concrete."""
    if isinstance(p, PZero):
        return value == 0
    if isinstance(p, (PEq, PLt, PLe)):
        rhs = eval_hterm(p.term, lambda l: _num_at(heap, l))
        if rhs is None:
            return None
        if isinstance(p, PEq):
            return value == rhs
        if isinstance(p, PLt):
            return value < rhs
        return value <= rhs
    if isinstance(p, PNot):
        sub = _check_concrete(value, p.arg, heap)
        return None if sub is None else (not sub)
    return None


class ProofSystem:
    """Decides ``Σ ⊢ L : P`` using syntactic fast paths and the solver.

    Heaps are immutable values, so no *judgement* is cached across
    queries; the instance's :class:`~repro.smt.PathContext` only
    memoizes the last heap's translation, and each solver query is one
    one-shot check.
    """

    def __init__(self) -> None:
        self.queries = 0
        self.solver_queries = 0
        self._ctx = PathContext()

    def check(self, heap: Heap, l: Loc, p: Pred) -> Verdict:
        self.queries += 1
        s = heap.get(l)
        # Fast path: concrete subject.
        if isinstance(s, SNum):
            v = _check_concrete(s.value, p, heap)
            if v is True:
                return Verdict.PROVED
            if v is False:
                return Verdict.REFUTED
        # Fast path: the refinement is already recorded verbatim.
        if isinstance(s, SOpq):
            if p in s.refinements:
                return Verdict.PROVED
            if PNot(p) in s.refinements:
                return Verdict.REFUTED
            if isinstance(p, PNot) and p.arg in s.refinements:
                return Verdict.REFUTED
        # Solver path (Fig. 5).
        self.solver_queries += 1
        return solve_judgement(self._ctx, heap, translate_heap_parts,
                               translate_pred(p, loc_var(l)))


def solve_judgement(ctx: PathContext, heap, translate_parts,
                    psi) -> Verdict:
    """The solver half of ``Σ ⊢ L : P``, shared by both proof systems:
    ``{Σ} ∧ ¬ψ`` unsat proves the judgement, ``{Σ} ∧ ψ`` unsat refutes
    it.  ``translate_parts`` turns the heap into its conjunct sequence;
    each of the two checks is one one-shot solve."""
    parts = ctx.parts_for(heap, translate_parts)
    if ctx.check(parts, mk_not(psi)) is Result.UNSAT:
        return Verdict.PROVED
    if ctx.check(parts, psi) is Result.UNSAT:
        return Verdict.REFUTED
    return Verdict.AMBIG
