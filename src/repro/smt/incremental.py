"""Per-path incremental solver contexts.

The proof relation asks the solver about a path condition ``φ`` that
grows monotonically along a symbolic path — each ``⊢`` query adds one
literal ``ψ`` on top of the heap's conjuncts.  Re-solving ``φ ∧ ψ``
from scratch per query (the pre-incremental behaviour) costs
O(path-length) per query; a :class:`PathContext` makes it O(delta):

* the context owns one scoped :class:`~repro.smt.solver.Solver` and a
  *trail* — the heap conjuncts currently asserted, one scope per
  conjunct;
* ``sync`` diffs the target conjunct sequence against the trail: the
  longest common prefix is kept (its clauses, preprocessing state and
  learned lemmas are reused verbatim), everything past it is popped,
  and the new suffix is pushed.  Sibling branches share their prefix up
  to the branch point, so jumping between them — which a breadth-first
  search does constantly — is exactly a scope *fork*: pop to the shared
  ancestor, push the other branch's facts;
* the paired ``φ ⊢ ψ`` / ``φ ⊢ ¬ψ`` queries run as two assumption
  checks (``Solver.check(ψ)``) on the synced context, sharing one
  context and every lemma the first check learned;
* retiring scopes by selector leaves dead clauses and variables behind
  (see ``smt.solver``); once the accumulated garbage crosses
  ``rebuild_after`` the context is discarded and rebuilt from the
  current trail.  Rebuilds are counted in ``SOLVE_STATS.
  context_rebuilds`` and show up as fresh solves — they are the only
  from-scratch work left on the hot path.

Composition with the persistent solver-result tier (``smt.cache``, when
a store is attached) is by *result-only entries* under *sliced keys*:

* the heap conjuncts split into independent groups — two conjuncts are
  linked when they share a variable, transitively.  The groups ``ψ``
  touches are its *cone*; the rest share no variable with ``cone ∧ ψ``;
* each rest group is decided once per heap by the one-shot ``check_sat``
  (so through the tier, under its own canonical key).  An UNSAT group
  answers UNSAT outright; an UNKNOWN one makes the query fall back to
  the whole-heap key;
* otherwise every rest group is SAT, so ``sat(Σ ∧ ψ) = sat(cone ∧ ψ)``
  and the query is keyed on the canonical ``cone ∧ ψ`` alone.  A
  conjunct added elsewhere in the program — an unused define — leaves
  the key unchanged, so the entry survives the edit.  A slice that
  *assumed* the rest satisfiable would not be exact: on an infeasible
  heap it would turn PROVED into AMBIG;
* a miss still solves the *whole* heap on the context, and the answer
  is stored without a model, so ``get_model`` later re-solves
  canonically rather than exposing a context-history-dependent model.

With no store attached the query goes straight to the context, with no
slicing: nothing would read its key.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .cache import GLOBAL_CACHE, canonicalize
from .errors import Result
from .simplify import simplify
from .solver import SOLVE_STATS, Solver, check_sat
from .terms import (
    FALSE,
    TRUE,
    Formula,
    Var,
    free_vars,
    mk_and,
)

__all__ = ["PathContext"]


class PathContext:
    """An incremental solver context that follows the search through the
    execution graph, forking its assertion scope at branch points.

    With a solver tier attached it also holds the current heap's
    :class:`_Slice` (the independence groups of its conjuncts and their
    verdicts), dropped with the heap-translation memo: nothing it keeps
    outlives a heap."""

    def __init__(self, *, rebuild_after: int = 256) -> None:
        self.rebuild_after = rebuild_after
        self._solver = Solver()
        self._trail: list[Formula] = []
        # Heap-translation memo: within one macro state the proof system
        # issues several queries against the *same* (immutable) heap
        # object; keying on identity (with a strong reference, so the id
        # cannot be recycled) skips re-translation entirely.
        self._last_heap: Optional[object] = None
        self._last_parts: Optional[tuple[Formula, ...]] = None
        # The independence structure of ``_last_parts`` (tier only).
        self._slice: Optional[_Slice] = None

    # -- search-kernel hook ---------------------------------------------

    def note_switch(self) -> None:
        """The search kernel popped a (possibly different) path's state:
        drop the heap-translation memo so the dead heap is not pinned,
        and count the switch.  Scope forking itself happens lazily at the
        next query's ``sync``."""
        SOLVE_STATS.path_switches += 1
        self._last_heap = None
        self._last_parts = None
        self._slice = None

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

    # -- scope management -------------------------------------------------

    def sync(self, parts: Sequence[Formula]) -> None:
        """Make the solver's assertion stack equal ``parts``, reusing the
        longest common prefix of the current trail."""
        trail = self._trail
        n = 0
        lim = min(len(trail), len(parts))
        while n < lim and trail[n] == parts[n]:
            n += 1
        if self._solver.retired + (len(trail) - n) > self.rebuild_after:
            self._rebuild(parts)
            return
        for _ in range(len(trail) - n):
            self._solver.pop()
            trail.pop()
        for c in parts[n:]:
            self._solver.push()
            self._solver.add(c)
            trail.append(c)

    def _rebuild(self, parts: Sequence[Formula]) -> None:
        """Discard the garbage-laden context and re-assert the target
        trail into a fresh solver (the bounded from-scratch fallback)."""
        SOLVE_STATS.context_rebuilds += 1
        self._solver = Solver()
        self._trail = []
        for c in parts:
            self._solver.push()
            self._solver.add(c)
            self._trail.append(c)

    @property
    def scope_depth(self) -> int:
        return len(self._trail)

    # -- queries ----------------------------------------------------------

    def check(self, parts: Sequence[Formula], *assumption: Formula) -> Result:
        """Satisfiability of ``AND(parts) ∧ AND(assumption)`` on the
        incremental context (uncached)."""
        self.sync(parts)
        return self._solver.check(*assumption)

    def check_under(self, parts: Sequence[Formula], psi: Formula) -> Result:
        """Satisfiability of ``AND(parts) ∧ psi`` through the
        solver-result tier, solved incrementally on a miss.

        The key is the canonical ``cone ∧ psi`` once every other group
        of ``parts`` is known SAT (see the module docstring), else the
        whole conjunction; either way it is the key the one-shot
        ``check_sat`` would use for that formula, so entries are shared
        across the two paths.  Incremental answers are stored
        result-only (UNKNOWNs not at all — they can be budget artefacts
        of context history)."""
        cone: Sequence[Formula] = parts
        if GLOBAL_CACHE.backing is not None:
            sl = self._slice
            if sl is None or sl.parts is not parts:
                sl = self._slice = _Slice(parts)
            cone, rest = sl.cone(psi)
            if rest is Result.UNSAT:
                return Result.UNSAT
            if rest is Result.UNKNOWN:
                cone = parts  # an undecided group: key on the whole heap
        key = simplify(mk_and(*cone, psi))
        if key == TRUE:
            return Result.SAT  # every group outside the cone is SAT
        if key == FALSE:
            return Result.UNSAT
        if GLOBAL_CACHE.backing is None:
            return self.check(parts, psi)
        canon, _ = canonicalize(key)
        entry = GLOBAL_CACHE.get(canon)
        if entry is not None:
            return entry[0]
        res = self.check(parts, psi)
        if res is not Result.UNKNOWN:
            GLOBAL_CACHE.put(canon, res, None, model_known=False)
        return res


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
