"""Heap translation — paper Fig. 4.

Translates a heap ``Σ`` into a first-order formula over one integer
variable per location.  Only base values are encoded; lambdas contribute
no constraints, and ``case`` mappings contribute functional-consistency
facts: a mapping ``case [L1 ↦ L2] [L3 ↦ L4]`` becomes
``(L1 = L3) ⇒ (L2 = L4)`` for all pairs, with function-sorted outputs
compared structurally per Fig. 4.
"""

from __future__ import annotations


from ..smt import (
    Formula,
    Term,
    TRUE,
    mk_and,
    mk_div,
    mk_eq,
    mk_implies,
    mk_int,
    mk_le,
    mk_lt,
    mk_mod,
    mk_mul,
    mk_not,
    mk_sub,
    mk_add,
    mk_var,
)
from .heap import (
    Heap,
    HConst,
    HLoc,
    HOp,
    HTerm,
    PEq,
    PLe,
    PLt,
    PNot,
    Pred,
    PZero,
    SCase,
    SLam,
    SNum,
    SOpq,
    Storeable,
)
from .syntax import Lam, Loc, NatType


def loc_var(l: Loc):
    """The solver variable standing for location ``l``."""
    return mk_var(l.name)


def translate_hterm(t: HTerm) -> Term:
    if isinstance(t, HConst):
        return mk_int(t.value)
    if isinstance(t, HLoc):
        return loc_var(t.loc)
    if isinstance(t, HOp):
        args = [translate_hterm(a) for a in t.args]
        if t.op == "+":
            return mk_add(*args)
        if t.op == "-":
            return mk_sub(*args)
        if t.op == "*":
            return mk_mul(*args)
        if t.op == "div":
            return mk_div(*args)
        if t.op == "mod":
            return mk_mod(*args)
        raise ValueError(f"unknown heap-term op {t.op}")
    raise TypeError(f"cannot translate {t!r}")


def translate_pred(p: Pred, subject: Term) -> Formula:
    """``{{L : P}}`` — the subject satisfies the predicate (Fig. 4)."""
    if isinstance(p, PZero):
        return mk_eq(subject, 0)
    if isinstance(p, PEq):
        return mk_eq(subject, translate_hterm(p.term))
    if isinstance(p, PLt):
        return mk_lt(subject, translate_hterm(p.term))
    if isinstance(p, PLe):
        return mk_le(subject, translate_hterm(p.term))
    if isinstance(p, PNot):
        return mk_not(translate_pred(p.arg, subject))
    raise TypeError(f"cannot translate predicate {p!r}")


def _storeable_eq(heap: Heap, a: Storeable, b: Storeable) -> Formula:
    """Specialised equality between storeables (Fig. 4, lower block).

    Needed when a ``case`` mapping's outputs are function-typed: "equal
    inputs imply equal outputs" then compares the output *values*.
    Equality on similar shapes proceeds structurally; different shapes are
    trivially unequal.
    """
    if isinstance(a, SNum) and isinstance(b, SNum):
        from ..smt import FALSE

        return TRUE if a.value == b.value else FALSE
    if isinstance(a, SCase) and isinstance(b, SCase):
        parts = []
        for k1, v1 in a.mapping:
            for k2, v2 in b.mapping:
                parts.append(
                    mk_implies(
                        mk_eq(loc_var(k1), loc_var(k2)),
                        _loc_eq(heap, v1, v2),
                    )
                )
        return mk_and(*parts)
    if isinstance(a, SLam) and isinstance(b, SLam):
        return _lam_eq(heap, a.lam, b.lam)
    if isinstance(a, SOpq) or isinstance(b, SOpq):
        # An unconstrained opaque can equal anything of its type.
        return TRUE
    from ..smt import FALSE

    return FALSE


def _lam_eq(heap: Heap, a: Lam, b: Lam) -> Formula:
    """Equality between the specific lambda shapes generated by the
    opaque-application rules (Fig. 4): constant functions ``λx.L``,
    delayed-exploration wrappers, and havoc wrappers.  Anything else is
    conservatively unequal (sound for UNSAT-based proofs because these
    equalities only occur positively under implications)."""
    from .syntax import Loc as ELoc

    # λx. L  =  λx. L'   (AppOpq2 shapes)
    if isinstance(a.body, ELoc) and isinstance(b.body, ELoc):
        return _loc_eq(heap, a.body, b.body)
    from ..smt import FALSE

    return FALSE


def _loc_eq(heap: Heap, a: Loc, b: Loc) -> Formula:
    """``{{L1 = L2}}`` at the appropriate sort (Fig. 4)."""
    if a == b:
        return TRUE
    sa, sb = heap.get(a), heap.get(b)
    base_a = isinstance(sa, (SNum,)) or (
        isinstance(sa, SOpq) and isinstance(sa.type, NatType)
    )
    base_b = isinstance(sb, (SNum,)) or (
        isinstance(sb, SOpq) and isinstance(sb.type, NatType)
    )
    if base_a and base_b:
        return mk_eq(loc_var(a), loc_var(b))
    return _storeable_eq(heap, sa, sb)


def translate_heap(heap: Heap) -> Formula:
    """``{{Σ}}`` — the conjunction of per-location facts (Fig. 4)."""
    return mk_and(*translate_heap_parts(heap))


def translate_heap_parts(heap: Heap) -> tuple[Formula, ...]:
    """``{{Σ}}`` as its conjunct sequence, in heap (allocation) order.

    A ``PathContext`` (``smt.incremental``) memoizes the sequence per
    heap and, with a solver tier attached, slices it into independent
    groups to key each query on its goal's cone of influence.
    """
    parts: list[Formula] = []
    for l, s in heap.items():
        if isinstance(s, SNum):
            parts.append(mk_eq(loc_var(l), s.value))
        elif isinstance(s, SOpq):
            for p in s.refinements:
                parts.append(translate_pred(p, loc_var(l)))
        elif isinstance(s, SCase):
            entries = list(s.mapping)
            for i in range(len(entries)):
                for j in range(i + 1, len(entries)):
                    (k1, v1), (k2, v2) = entries[i], entries[j]
                    parts.append(
                        mk_implies(
                            mk_eq(loc_var(k1), loc_var(k2)),
                            _loc_eq(heap, v1, v2),
                        )
                    )
        elif isinstance(s, SLam):
            pass  # lambdas contribute no first-order constraint
        else:  # pragma: no cover - exhaustiveness guard
            raise TypeError(f"cannot translate storeable {s!r}")
    return tuple(parts)
