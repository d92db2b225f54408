"""The shared search kernel.

Both machines — the typed SPCF reduction machine (``core.machine``) and
the untyped CESK machine (``scv.machine``) — present the same shape to a
search: a ``step`` function from a state to successor states (``None``
for answers) over an immutable state space.  This kernel owns everything
above that interface:

* **strategy** — the frontier discipline: ``bfs`` (the paper's §5.3
  default, and the only one the batch driver uses for reports), ``dfs``
  (LIFO), or ``depth`` (deepest-first priority queue — a greedy dive
  with global backtracking, useful for reaching deep errors under tight
  budgets);
* **memoisation** — a seen-set over canonical state fingerprints
  (``search.fingerprint``): a state whose fingerprint was already
  enqueued is pruned at enqueue time, so diamond-shaped regions of the
  execution graph are explored once instead of once per path, and
  cyclic regions (unproductive loops) terminate instead of consuming
  the whole state budget;
* **chain compression** — the dominant cost in both machines is
  *administrative*: context decomposition, allocation and
  value-plugging steps with exactly one successor (87–93% of all
  transitions on the benchmark corpus).  The memoised kernel runs such
  deterministic chains to their next choice point in place; only branch
  points, answers and chain-cap boundaries become frontier states.
  ``states_explored`` then counts *macro* states — the tree the search
  actually deliberates over — which is also what the frontier, the
  seen-set and the fingerprint bill are proportional to.  An infinite
  deterministic chain cannot evade the budget: chains are capped at
  ``chain_limit`` micro-steps, and cap-boundary states are fingerprinted
  like any other, so unproductive loops are recognised within one loop
  length;
* **subsumption** — an optional strengthening of the seen-set: a state
  is also pruned when an already-enqueued state has the *same shape*
  (fingerprint with opaque refinements erased) and pointwise *weaker*
  refinements.  The weaker state branches everywhere the stronger one
  would, so every answer control reachable from the pruned state is
  reachable from its subsumer; counterexample models are re-validated
  concretely downstream, which keeps verdicts identical (the
  memo-on/off property test in ``tests/test_search_kernel.py`` pins
  this).

The kernel counts exactly like the loops it replaces: every state popped
and stepped increments ``states_explored``; pruned states are counted in
``pruned`` and never stepped.  The ``max_states`` budget applies to
stepped states, and ``truncated`` is set when the budget expires with
work remaining.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, Optional

STRATEGIES = ("bfs", "dfs", "depth")


@dataclass(frozen=True)
class Fingerprint:
    """A canonical state identity.

    ``shape`` is the hash-consed structure of the state with opaque
    refinement sets erased; ``refs`` holds one frozenset of refinement
    tokens per opaque value, in shape-traversal order.  Exact identity is
    ``(shape, refs)``; subsumption compares ``refs`` pointwise under a
    shared ``shape``.

    ``shape`` is a canonical node of the fingerprinter's
    :class:`~repro.search.intern.Interner` and compares by identity, so
    hashing a fingerprint costs O(``len(refs)``) whatever the size of the
    state — and fingerprints compare only within the fingerprinter (one
    per search) that made them.
    """

    shape: Hashable
    refs: tuple[frozenset, ...]

    def subsumed_by(self, other: "Fingerprint") -> bool:
        """Is this state covered by ``other`` (same shape, weaker
        refinements)?  ``other.refs[i] ⊆ self.refs[i]`` pointwise means
        every branch this state can take, ``other`` could take too."""
        if len(self.refs) != len(other.refs):
            return False
        return all(o <= s for o, s in zip(other.refs, self.refs))


@dataclass
class KernelStats:
    """Default stats sink; any object with these attributes works."""

    states_explored: int = 0
    answers: int = 0
    pruned: int = 0
    chained: int = 0  # micro-steps folded into macro states
    truncated: bool = False


class SearchKernel:
    """Strategy-pluggable exploration of a nondeterministic transition
    system with optional fingerprint memoisation.

    Parameters:

    * ``step`` — successor function; ``None`` marks an answer state;
    * ``strategy`` — ``bfs`` | ``dfs`` | ``depth``;
    * ``fingerprint`` — canonicaliser ``state -> Fingerprint`` (or
      ``None`` for a state the caller wants exempted); pass ``None`` to
      disable memoisation entirely (every state is explored, exactly the
      pre-kernel behaviour);
    * ``subsume`` — also prune refinement-subsumed states (ignored
      without a fingerprinter);
    * ``expander`` — optional fused expansion function
      ``(state, chain_limit) -> (final_state, successors, chained)``
      replacing the step-at-a-time ``_expand`` loop.  This is how the
      bytecode executors (``repro.compile``) plug in: they run the
      deterministic chain in a dispatch loop over compiled instructions,
      materialising a full machine state only at the observable points —
      the returned ``final_state`` and ``successors`` — with exactly the
      step machine's semantics (the contract the differential oracle in
      ``tests/test_differential.py`` enforces).  ``chained`` is the
      number of single-successor micro-steps folded in, counted exactly
      like the default loop; a ``chain_limit`` of 0 means "no chaining"
      (one step), which is what a memo-less kernel passes;
    * ``enter`` — optional callback invoked with every state the kernel
      pops for expansion, before it is stepped.  This is how a path-
      aware layer below the step function — the proof systems' per-path
      incremental solver contexts (``smt.incremental``) — observes the
      search jumping between paths: the callback marks the context's
      path-local memo stale, and the solver scope forks to the new
      path's assertion trail at the next query.  The kernel itself
      carries no solver state; it only announces path switches;
    * ``stats`` — mutated in place so callers that abandon the iterator
      mid-run (the driver stops at the first validated counterexample)
      still observe exact counts.
    """

    def __init__(
        self,
        step: Callable,
        *,
        strategy: str = "bfs",
        fingerprint: Optional[Callable] = None,
        subsume: bool = True,
        compress: Optional[bool] = None,
        chain_limit: int = 128,
        max_states: int = 50_000,
        expander: Optional[Callable] = None,
        enter: Optional[Callable] = None,
        stats=None,
    ) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r} (have: {', '.join(STRATEGIES)})"
            )
        self.step = step
        self.strategy = strategy
        self.fingerprint = fingerprint
        self.subsume = subsume and fingerprint is not None
        # Chain compression needs the seen-set for loop detection, so it
        # defaults to (and requires) memoisation being on; without a
        # fingerprinter the kernel is the paper-faithful micro-step loop.
        self.compress = (fingerprint is not None) if compress is None \
            else (compress and fingerprint is not None)
        self.chain_limit = chain_limit
        self.max_states = max_states
        self.expander = expander
        self.enter = enter
        self.stats = stats if stats is not None else KernelStats()
        self._seen: set[Fingerprint] = set()
        self._by_shape: dict[Hashable, list[Fingerprint]] = {}

    # -- memoisation -----------------------------------------------------

    def _admit(self, state) -> bool:
        """Record ``state``'s fingerprint; False when it is redundant."""
        if self.fingerprint is None:
            return True
        fp = self.fingerprint(state)
        if fp is None:  # the fingerprinter exempted the state
            return True
        if fp in self._seen:
            self.stats.pruned += 1
            return False
        if self.subsume:
            shelf = self._by_shape.setdefault(fp.shape, [])
            if any(fp.subsumed_by(old) for old in shelf):
                self.stats.pruned += 1
                return False
            shelf.append(fp)
        self._seen.add(fp)
        return True

    # -- the loop --------------------------------------------------------

    def _expand(self, state):
        """Step ``state``, running any deterministic chain to its next
        choice point.  Returns ``(final_state, successors)`` where
        ``successors`` is ``None`` when ``final_state`` is an answer."""
        if self.expander is not None:
            limit = self.chain_limit if self.compress else 0
            state, succs, chained = self.expander(state, limit)
            if chained and hasattr(self.stats, "chained"):
                self.stats.chained += chained
            return state, succs
        succs = self.step(state)
        if not self.compress:
            return state, succs
        chained = 0
        while succs is not None and len(succs) == 1 and chained < self.chain_limit:
            state = succs[0]
            chained += 1
            succs = self.step(state)
        if chained and hasattr(self.stats, "chained"):
            self.stats.chained += chained
        return state, succs

    def run(self, init) -> Iterator:
        """Explore from ``init``, yielding answer states."""
        st = self.stats
        strategy = self.strategy
        if strategy == "depth":
            seq = 0
            heap: list[tuple[int, int, object]] = []
            if self._admit(init):
                heapq.heappush(heap, (0, seq, init))
            while heap:
                if st.states_explored >= self.max_states:
                    st.truncated = True
                    return
                negdepth, _, state = heapq.heappop(heap)
                st.states_explored += 1
                if self.enter is not None:
                    self.enter(state)
                state, succs = self._expand(state)
                if succs is None:
                    st.answers += 1
                    yield state
                    continue
                for s in succs:
                    if self._admit(s):
                        seq += 1
                        heapq.heappush(heap, (negdepth - 1, seq, s))
            return

        frontier: deque = deque()
        if self._admit(init):
            frontier.append(init)
        pop = frontier.popleft if strategy == "bfs" else frontier.pop
        while frontier:
            if st.states_explored >= self.max_states:
                st.truncated = True
                return
            state = pop()
            st.states_explored += 1
            if self.enter is not None:
                self.enter(state)
            state, succs = self._expand(state)
            if succs is None:
                st.answers += 1
                yield state
                continue
            frontier.extend(s for s in succs if self._admit(s))
