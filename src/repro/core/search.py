"""Exploration of the nondeterministic transition system.

The tool "finds bugs by performing a simple breadth-first search on the
execution graph, then stops and reports on the first error encountered"
(§5.3).  We expose the whole frontier as a generator so callers can
enumerate *all* errors (the completeness experiments need every seeded
bug) or stop at the first.

The loop itself is the shared :mod:`repro.search` kernel, entered
through ``repro.search.search`` exactly as the scv engine enters it: one
breadth-first order, one ``SearchStats`` record, and exact pruning of
every state whose canonical fingerprint (``memo`` — see
``search.fingerprint``) was already seen; that is what keeps the search
affordable as programs grow.  ``memo=False`` restores the exact
pre-kernel behaviour (every state explored once per path reaching it).

No abstraction/widening is performed (§4.5): for counterexample
generation on erroneous programs the concrete-ish search terminates at
the error, and correct programs in the corpus terminate on their own.
A step budget bounds runaway executions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from .machine import Machine, State, inject
from .syntax import Err, Expr

if TYPE_CHECKING:
    from ..search import SearchStats


@dataclass
class SearchResult:
    """A final state reached by the search."""

    state: State

    @property
    def is_error(self) -> bool:
        return isinstance(self.state.control, Err)

    @property
    def error(self) -> Optional[Err]:
        c = self.state.control
        return c if isinstance(c, Err) else None


def explore(
    program: Expr,
    *,
    machine: Optional[Machine] = None,
    max_states: int = 50_000,
    stats: Optional[SearchStats] = None,
    memo: bool = True,
    compiled: bool = False,
) -> Iterator[SearchResult]:
    """Search over ⟨E, Σ⟩ states, yielding answers (locations and
    errors) in breadth-first order.  ``compiled`` lowers the program once
    (``repro.compile``) and expands states with the fused dispatch loop
    instead of the step-at-a-time machine — byte-identical results,
    fewer interpreter overheads."""
    # Imported lazily: repro.search.fingerprint imports repro.core at
    # module level, so a module-level import here would be circular.
    from ..compile import CoreExecutor
    from ..search import CoreFingerprinter, SearchStats, search

    m = machine or Machine()
    st = stats if stats is not None else SearchStats()
    for state in search(
        m, inject(program), program,
        fingerprinter=CoreFingerprinter, executor=CoreExecutor,
        memo=memo, compiled=compiled, max_states=max_states, stats=st,
    ):
        if state.is_error:  # every core error is a finding
            st.errors += 1
            st.known_errors += 1
        yield SearchResult(state)


def find_errors(
    program: Expr,
    *,
    machine: Optional[Machine] = None,
    max_states: int = 50_000,
    stats: Optional[SearchStats] = None,
    memo: bool = True,
    compiled: bool = False,
) -> Iterator[SearchResult]:
    """Yield only the error answers reachable from ``program``."""
    for r in explore(
        program, machine=machine, max_states=max_states, stats=stats,
        memo=memo, compiled=compiled,
    ):
        if r.is_error:
            yield r


def first_error(
    program: Expr,
    *,
    machine: Optional[Machine] = None,
    max_states: int = 50_000,
) -> Optional[SearchResult]:
    """The first error found in BFS order, or None."""
    return next(iter(find_errors(program, machine=machine, max_states=max_states)), None)
