"""The shared search kernel.

Both machines — the typed SPCF reduction machine (``core.machine``) and
the untyped CESK machine (``scv.machine``) — present the same shape to a
search: a ``step`` function from a state to successor states (``None``
for answers) over an immutable state space.  This kernel owns everything
above that interface, and runs one policy:

* **breadth-first order** — the paper's tool "finds bugs by performing
  a simple breadth-first search on the execution graph" (§5.3); the
  frontier is a FIFO queue;
* **memoisation** — a seen-set over canonical state fingerprints
  (``search.fingerprint``): a state whose fingerprint was already
  enqueued is pruned at enqueue time, so diamond-shaped regions of the
  execution graph are explored once instead of once per path, and
  cyclic regions (unproductive loops) terminate instead of consuming
  the whole state budget.  Pruning is exact: a state is dropped only
  when an equal state (up to location renaming and heap garbage,
  refinements included) was admitted before;
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
  length.

Without a fingerprinter the kernel is the paper-faithful micro-step
loop: no seen-set and no chain compression (compression relies on the
seen-set to detect loops).

The kernel counts exactly like the loops it replaces: every state popped
and stepped increments ``states_explored``; pruned states are counted in
``pruned`` and never stepped.  The ``max_states`` budget applies to
stepped states, and ``truncated`` is set when the budget expires with
work remaining.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Optional


@dataclass
class SearchStats:
    """The one search-stats record, shared by both backends.  The kernel
    and the bytecode executors mutate it in place; the backends' search
    entries count the error answers."""

    states_explored: int = 0
    answers: int = 0
    errors: int = 0  # error answers: core ``Err`` / scv blame states
    known_errors: int = 0  # errors that are findings (scv: blame on known code)
    pruned: int = 0  # states dropped by fingerprint memoisation
    chained: int = 0  # micro-steps folded into macro states
    truncated: bool = False
    # Bytecode-compilation extras (see repro.compile); all zero on
    # interpreted runs.  ``dispatch_steps`` counts executed micro-steps
    # in the dispatch loop — deterministic for a given configuration.
    compiled_units: int = 0
    compile_ms: float = 0.0
    dispatch_steps: int = 0


class SearchKernel:
    """Breadth-first exploration of a nondeterministic transition system
    with optional fingerprint memoisation.

    Parameters:

    * ``step`` — successor function; ``None`` marks an answer state;
    * ``fingerprint`` — canonicaliser from a state to a hashable
      identity (``search.fingerprint``); pass ``None`` to disable
      memoisation and chain compression (every state is explored once
      per path reaching it, exactly the pre-kernel behaviour);
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
    * ``stats`` — mutated in place so callers that abandon the iterator
      mid-run (the driver stops at the first validated counterexample)
      still observe exact counts.
    """

    def __init__(
        self,
        step: Callable,
        *,
        fingerprint: Optional[Callable] = None,
        chain_limit: int = 128,
        max_states: int = 50_000,
        expander: Optional[Callable] = None,
        stats=None,
    ) -> None:
        self.step = step
        self.fingerprint = fingerprint
        # Chain compression needs the seen-set for loop detection.
        self.chain_limit = chain_limit if fingerprint is not None else 0
        self.max_states = max_states
        self.expander = expander
        self.stats = stats if stats is not None else SearchStats()
        self._seen: set = set()

    def _admit(self, state) -> bool:
        """Record ``state``'s fingerprint; False when it is redundant."""
        if self.fingerprint is None:
            return True
        fp = self.fingerprint(state)
        if fp in self._seen:
            self.stats.pruned += 1
            return False
        self._seen.add(fp)
        return True

    def _expand(self, state):
        """Step ``state``, running any deterministic chain to its next
        choice point.  Returns ``(final_state, successors)`` where
        ``successors`` is ``None`` when ``final_state`` is an answer."""
        if self.expander is not None:
            state, succs, chained = self.expander(state, self.chain_limit)
        else:
            succs = self.step(state)
            chained = 0
            while (succs is not None and len(succs) == 1
                   and chained < self.chain_limit):
                state = succs[0]
                chained += 1
                succs = self.step(state)
        self.stats.chained += chained
        return state, succs

    def run(self, init) -> Iterator:
        """Explore from ``init`` breadth-first, yielding answer states."""
        st = self.stats
        frontier: deque = deque()
        if self._admit(init):
            frontier.append(init)
        while frontier:
            if st.states_explored >= self.max_states:
                st.truncated = True
                return
            state = frontier.popleft()
            st.states_explored += 1
            state, succs = self._expand(state)
            if succs is None:
                st.answers += 1
                yield state
                continue
            frontier.extend(s for s in succs if self._admit(s))


def search(
    machine,
    init,
    code,
    *,
    fingerprinter: Callable,
    executor: Callable,
    memo: bool = True,
    compiled: bool = False,
    max_states: int = 50_000,
    stats: Optional[SearchStats] = None,
) -> Iterator:
    """Answer states of ``machine`` reachable from ``init``, in
    breadth-first order — the one search entry both backends use.

    ``memo`` fingerprints states with a fresh ``fingerprinter()``;
    ``compiled`` expands them with ``executor(machine, code, stats=...)``
    (``repro.compile``) instead of ``machine.step``."""
    st = stats if stats is not None else SearchStats()
    kernel = SearchKernel(
        machine.step,
        fingerprint=fingerprinter() if memo else None,
        max_states=max_states,
        expander=executor(machine, code, stats=st).expand if compiled else None,
        stats=st,
    )
    return kernel.run(init)
