"""The proof systems' query front: heap-translation memo and sliced keys.

The proof relation asks the solver about a heap's path condition ``φ``
plus one literal ``ψ`` — the paired ``φ ⊢ ψ`` / ``φ ⊢ ¬ψ`` queries of
Fig. 5.  ``φ`` is a first-order formula, so each query is one
satisfiability check: :meth:`PathContext.check` answers it with the
one-shot ``check_sat``, which solves the query's canonical formula from
scratch (through the solver-result tier when a store is attached).
There are no assertion scopes and no solver state that outlives a
check.

What a context does keep between queries:

* the heap-translation memo (:meth:`PathContext.parts_for`): the proof
  system asks several queries against the same immutable heap object,
  so its conjunct sequence is translated once;
* with a solver tier attached, the heap's :class:`_Slice`, which keys
  each query on the goal's cone of influence:

  - the heap conjuncts split into independent groups — two conjuncts
    are linked when they share a variable, transitively.  The groups
    ``ψ`` touches are its *cone*; the rest share no variable with
    ``cone ∧ ψ``;
  - each rest group is decided once per heap by ``check_sat`` (so
    through the tier, under its own canonical key).  An UNSAT group
    answers UNSAT outright; an UNKNOWN one makes the query fall back to
    the whole heap;
  - otherwise every rest group is SAT, so ``sat(Σ ∧ ψ) = sat(cone ∧ ψ)``
    and the query solves the canonical ``cone ∧ ψ`` alone.  A conjunct
    added elsewhere in the program — an unused define — leaves the key
    unchanged, so the entry survives the edit.  A slice that *assumed*
    the rest satisfiable would not be exact: on an infeasible heap it
    would turn PROVED into AMBIG.

With no store attached the query solves the whole heap, with no
slicing: nothing would read its key.

The module keeps its name and ``PathContext.check`` its name because
the benchmark's tracer patches ``repro.smt.incremental.PathContext.
check`` as an ``smt.check`` entry point.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .cache import GLOBAL_CACHE
from .errors import Result
from .solver import check_sat
from .terms import Formula, Var, free_vars

__all__ = ["PathContext"]


class PathContext:
    """The proof system's front to the solver: memoizes the current
    heap's translation and, with a solver tier attached, its
    :class:`_Slice` (dropped with the memo: nothing it keeps outlives a
    heap)."""

    def __init__(self) -> None:
        # Heap-translation memo: within one macro state the proof system
        # issues several queries against the *same* (immutable) heap
        # object; keying on identity (with a strong reference, so the id
        # cannot be recycled) skips re-translation entirely.
        self._last_heap: Optional[object] = None
        self._last_parts: Optional[tuple[Formula, ...]] = None
        # The independence structure of ``_last_parts`` (tier only).
        self._slice: Optional[_Slice] = None

    def parts_for(
        self, heap: object, translate: Callable[[object], Sequence[Formula]]
    ) -> tuple[Formula, ...]:
        """Memoized heap translation (identity-keyed; heaps are
        immutable values)."""
        if heap is self._last_heap:
            assert self._last_parts is not None
            return self._last_parts
        parts = tuple(translate(heap))
        self._last_heap = heap
        self._last_parts = parts
        self._slice = None
        return parts

    def check(self, parts: Sequence[Formula], psi: Formula) -> Result:
        """Satisfiability of ``AND(parts) ∧ psi``: one ``check_sat`` of
        ``psi``'s cone once every other group of ``parts`` is known SAT
        (see the module docstring), else of the whole conjunction."""
        if GLOBAL_CACHE.backing is None:
            return check_sat(*parts, psi)
        sl = self._slice
        if sl is None or sl.parts is not parts:
            sl = self._slice = _Slice(parts)
        cone, rest = sl.cone(psi)
        if rest is Result.UNSAT:
            return Result.UNSAT
        if rest is Result.UNKNOWN:
            return check_sat(*parts, psi)  # an undecided group
        return check_sat(*cone, psi)


class _Slice:
    """The independence structure of one heap's conjuncts: their groups
    of transitively variable-sharing parts, and each group's one-shot
    verdict once asked for.  Built at most once per heap, so the paired
    ``ψ``/``¬ψ`` queries (and every other query on the heap) share it."""

    __slots__ = ("parts", "_part_group", "_var_group", "_groups", "_verdicts")

    def __init__(self, parts: Sequence[Formula]) -> None:
        self.parts = parts
        parent = list(range(len(parts)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        first: dict[Var, int] = {}  # variable -> first part using it
        for i, c in enumerate(parts):
            for v in free_vars(c):
                a, b = find(i), find(first.setdefault(v, i))
                if a != b:
                    parent[max(a, b)] = min(a, b)
        # A group is named by its first part, so ``_groups`` iterates
        # in heap order.
        self._part_group = [find(i) for i in range(len(parts))]
        self._var_group = {v: self._part_group[i] for v, i in first.items()}
        groups: dict[int, list[Formula]] = {}
        for c, g in zip(parts, self._part_group):
            groups.setdefault(g, []).append(c)
        self._groups = groups
        self._verdicts: dict[int, Result] = {}

    def cone(self, psi: Formula) -> tuple[tuple[Formula, ...], Result]:
        """The parts in ``psi``'s cone of influence, in heap order, and
        the combined verdict of every other group: UNSAT if one is
        UNSAT, else UNKNOWN if one is UNKNOWN, else SAT."""
        var_group = self._var_group
        roots = {var_group[v] for v in free_vars(psi) if v in var_group}
        cone = tuple(
            c for c, g in zip(self.parts, self._part_group) if g in roots
        )
        rest = Result.SAT
        for g, members in self._groups.items():
            if g in roots:
                continue
            verdict = self._verdicts.get(g)
            if verdict is None:
                verdict = self._verdicts[g] = check_sat(*members)
            if verdict is Result.UNSAT:
                return cone, verdict
            if verdict is Result.UNKNOWN:
                rest = verdict
        return cone, rest
