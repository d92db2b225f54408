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
a store is attached) is by *result-only entries*: ``check_under``
consults the tier first (a hit answers without touching the context),
and decisive incremental answers are stored without a model, so
``get_model`` later re-solves canonically rather than exposing a
context-history-dependent model.  With no store attached the query goes
straight to the context: nothing would read its canonical key.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .cache import GLOBAL_CACHE, canonicalize
from .errors import Result
from .simplify import simplify
from .solver import SOLVE_STATS, Solver
from .terms import FALSE, Formula, TRUE, mk_and

__all__ = ["PathContext"]


class PathContext:
    """An incremental solver context that follows the search through the
    execution graph, forking its assertion scope at branch points."""

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

    # -- search-kernel hook ---------------------------------------------

    def note_switch(self) -> None:
        """The search kernel popped a (possibly different) path's state:
        drop the heap-translation memo so the dead heap is not pinned,
        and count the switch.  Scope forking itself happens lazily at the
        next query's ``sync``."""
        SOLVE_STATS.path_switches += 1
        self._last_heap = None
        self._last_parts = None

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

        The key is the same canonical conjunction the one-shot
        ``check_sat`` would use, so entries are shared across the two
        paths; incremental answers are stored result-only (UNKNOWNs not
        at all — they can be budget artefacts of context history)."""
        full = simplify(mk_and(*parts, psi))
        if full == TRUE:
            return Result.SAT
        if full == FALSE:
            return Result.UNSAT
        if GLOBAL_CACHE.backing is None:
            return self.check(parts, psi)
        canon, _, _ = canonicalize(full)
        entry = GLOBAL_CACHE.get(canon)
        if entry is not None:
            return entry[0]
        res = self.check(parts, psi)
        if res is not Result.UNKNOWN:
            GLOBAL_CACHE.put(canon, res, None, model_known=False)
        return res
