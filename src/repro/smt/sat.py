"""CDCL SAT solver.

A conflict-driven clause-learning solver with the standard modern kernel:

* two-watched-literal propagation,
* first-UIP conflict analysis with clause minimisation,
* VSIDS-style exponential variable activities; a decision takes the
  unassigned variable of highest activity, the lowest index on a tie,
  popped from an activity-ordered heap (MiniSat's order heap; Eén &
  Sörensson, "An Extensible SAT-solver", SAT 2003),
* Luby-sequence restarts with phase saving.

The DPLL(T) loop of one check drives it in rounds: ``solve``, then
``block_and_continue`` with a theory lemma or a blocking clause, then
``solve`` again.  There are no assumptions: every decision is a free
one, and a solver lives for one check, so its clause database, learned
clauses included, is only ever the formula of that check plus the
clauses added to it.

Literals are nonzero ints (+v / -v), variables are 1-based.  The solver
state lives in flat lists, read inline by the propagation loop: the
per-variable tables (level, reason, activity, saved phase) are indexed
by the variable, and the per-literal ones (the value and the watch
lists) by the literal itself — a negative literal indexes from the end
of its list, Python's negative indexing.  Clause storage is plain
Python lists, which is plenty for the formula sizes the paper's heap
translation produces (tens to hundreds of atoms).

The order heap is lazy: it holds ``(-activity, var)`` entries, a bump
pushes a new entry rather than moving the old one, and a decision pops
until it finds an entry that is current (its key is the variable's
activity) and unassigned.  Every unassigned variable keeps a current
entry — backtracking re-queues the variables it unassigns — so the pop
order is exactly "highest activity, lowest index on a tie".  The heap
is rebuilt from the activities when they are rescaled (every activity
times 1e-100).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Optional

Lit = int


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence
    1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


@dataclass(slots=True)
class _ClauseRef:
    lits: list[Lit]
    learned: bool = False


class SatSolver:
    """CDCL solver over integer literals.

    Typical use::

        s = SatSolver()
        s.ensure_vars(n)
        s.add_clause([1, -2])
        if s.solve():
            model = s.model_assignment()   # dict var -> bool
    """

    def __init__(self) -> None:
        self.num_vars = 0
        self._cap = 0  # variables the tables have room for
        self.clauses: list[_ClauseRef] = []
        # Per literal (entry -l is the list's l-th from the end): the
        # value (1 true, -1 false, 0 unassigned) and the watch list.
        self.value: list[int] = [0]
        self.watches: list[list[_ClauseRef]] = [[]]
        # Per variable (entry 0 unused); level and reason are meaningful
        # only while the variable is assigned.
        self.level: list[int] = [0]
        self.reason: list[Optional[_ClauseRef]] = [None]
        self.activity: list[float] = [0.0]
        self.saved_phase: list[bool] = [False]
        self._order: list[tuple[float, int]] = []  # the lazy order heap
        self._queued: list[bool] = [False]  # has a current heap entry
        self.trail: list[Lit] = []
        self.trail_lim: list[int] = []
        self.prop_head = 0
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.ok = True  # False once an empty clause is added
        self.conflicts = 0

    # -- construction ------------------------------------------------------

    def ensure_vars(self, n: int) -> None:
        """Make variables 1..n available."""
        if n <= self.num_vars:
            return
        if n > self._cap:
            self._grow(max(n, 2 * self._cap))
        for v in range(self.num_vars + 1, n + 1):
            heappush(self._order, (-0.0, v))
            self._queued[v] = True
        self.num_vars = n

    def _grow(self, cap: int) -> None:
        """Room for variables 1..cap; the negative-literal halves of the
        per-literal tables stay at the end."""
        old, pad = self._cap, cap - self._cap
        self.value = self.value[: old + 1] + [0] * (2 * pad) + self.value[old + 1 :]
        self.watches = (
            self.watches[: old + 1]
            + [[] for _ in range(2 * pad)]
            + self.watches[old + 1 :]
        )
        self.level += [0] * pad
        self.reason += [None] * pad
        self.activity += [0.0] * pad
        self.saved_phase += [False] * pad
        self._queued += [False] * pad
        self._cap = cap

    def add_clause(self, lits: Iterable[Lit]) -> bool:
        """Add a clause at decision level 0.  Returns False if the solver
        becomes trivially UNSAT."""
        assert not self.trail_lim, "add_clause only at decision level 0"
        seen: set[Lit] = set()
        out: list[Lit] = []
        for l in lits:
            self.ensure_vars(abs(l))
            if -l in seen:
                return True  # tautology
            if l in seen:
                continue
            val = self.value[l]
            if val == 1:
                return True  # satisfied at level 0
            if val == -1:
                continue  # falsified at level 0: drop literal
            seen.add(l)
            out.append(l)
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            self._enqueue(out[0], None)  # unassigned: filtered above
            if self._propagate() is not None:
                self.ok = False
                return False
            return True
        ref = _ClauseRef(out)
        self.clauses.append(ref)
        self._watch(ref)
        return True

    def _watch(self, ref: _ClauseRef) -> None:
        self.watches[ref.lits[0]].append(ref)
        self.watches[ref.lits[1]].append(ref)

    # -- assignment --------------------------------------------------------

    def _enqueue(self, lit: Lit, reason: Optional[_ClauseRef]) -> bool:
        val = self.value[lit]
        if val:
            return val == 1
        var = lit if lit > 0 else -lit
        self.value[lit] = 1
        self.value[-lit] = -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> Optional[_ClauseRef]:
        """Unit propagation; returns a conflicting clause or None."""
        trail, value, watches = self.trail, self.value, self.watches
        level, reason = self.level, self.reason
        lvl = len(self.trail_lim)
        head = self.prop_head
        while head < len(trail):
            falsified = -trail[head]
            head += 1
            watchers = watches[falsified]
            i = 0
            while i < len(watchers):
                ref = watchers[i]
                lits = ref.lits
                # Normalise: watched literals are lits[0] and lits[1].
                if lits[0] == falsified:
                    lits[0], lits[1] = lits[1], lits[0]
                # lits[1] == falsified now.
                first = lits[0]
                first_val = value[first]
                if first_val == 1:
                    i += 1
                    continue
                # Look for a new literal to watch.
                for j in range(2, len(lits)):
                    if value[lits[j]] != -1:
                        lits[1], lits[j] = lits[j], lits[1]
                        watches[lits[1]].append(ref)
                        watchers[i] = watchers[-1]
                        watchers.pop()
                        break
                else:
                    # Clause is unit or conflicting.
                    if first_val == -1:
                        self.prop_head = head
                        return ref  # conflict
                    value[first] = 1
                    value[-first] = -1
                    var = first if first > 0 else -first
                    level[var] = lvl
                    reason[var] = ref
                    trail.append(first)
                    i += 1
        self.prop_head = head
        return None

    # -- conflict analysis -------------------------------------------------

    def _bump_var(self, v: int) -> None:
        a = self.activity[v] + self.var_inc
        self.activity[v] = a
        if a > 1e100:
            activity = self.activity
            for u in range(1, self.num_vars + 1):
                activity[u] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_order()
        else:
            heappush(self._order, (-a, v))
            self._queued[v] = True

    def _rebuild_order(self) -> None:
        """A fresh order heap: one current entry per variable."""
        activity = self.activity
        self._order = [(-activity[v], v) for v in range(1, self.num_vars + 1)]
        heapify(self._order)
        self._queued = [True] * (self._cap + 1)

    def _analyze(self, conflict: _ClauseRef) -> tuple[list[Lit], int]:
        """First-UIP analysis.  Returns (learned clause, backjump level).
        The asserting literal is placed first in the learned clause."""
        level = self.level
        cur_level = len(self.trail_lim)
        seen: set[int] = set()
        learned: list[Lit] = []
        counter = 0
        p: Optional[Lit] = None
        reason_lits = list(conflict.lits)
        idx = len(self.trail) - 1

        while True:
            for q in reason_lits:
                if p is not None and q == p:
                    continue
                v = q if q > 0 else -q
                if v in seen or level[v] == 0:
                    continue
                seen.add(v)
                self._bump_var(v)
                if level[v] == cur_level:
                    counter += 1
                else:
                    learned.append(q)
            # Find next literal to resolve on (most recent seen on trail).
            while True:
                p = self.trail[idx]
                idx -= 1
                if abs(p) in seen:
                    break
            counter -= 1
            seen.discard(abs(p))
            if counter == 0:
                break
            ref = self.reason[abs(p)]
            assert ref is not None, "UIP literal must have a reason"
            reason_lits = [l for l in ref.lits if l != p]

        learned = [-p] + self._minimize(learned)
        if len(learned) == 1:
            return learned, 0
        # Backjump level: max level among the non-asserting literals.
        bj = max(level[abs(l)] for l in learned[1:])
        # Put a literal of the backjump level second (watch invariant).
        for k in range(1, len(learned)):
            if level[abs(learned[k])] == bj:
                learned[1], learned[k] = learned[k], learned[1]
                break
        return learned, bj

    def _minimize(self, learned: list[Lit]) -> list[Lit]:
        """Cheap recursive clause minimisation: drop literals whose reason
        is entirely within the learned clause's variables."""
        level, reason = self.level, self.reason
        marked = {abs(l) for l in learned}
        out = []
        for l in learned:
            ref = reason[abs(l)]
            if ref is None:
                out.append(l)
                continue
            if all(
                abs(q) in marked or level[abs(q)] == 0
                for q in ref.lits
                if q != -l
            ):
                continue  # redundant
            out.append(l)
        return out

    def _backtrack(self, level: int) -> None:
        if len(self.trail_lim) <= level:
            return
        limit = self.trail_lim[level]
        value, phase = self.value, self.saved_phase
        order, queued, activity = self._order, self._queued, self.activity
        for lit in reversed(self.trail[limit:]):
            v = lit if lit > 0 else -lit
            phase[v] = lit > 0
            value[lit] = 0
            value[-lit] = 0
            if not queued[v]:
                heappush(order, (-activity[v], v))
                queued[v] = True
        del self.trail[limit:]
        del self.trail_lim[level:]
        self.prop_head = min(self.prop_head, len(self.trail))

    # -- decisions ---------------------------------------------------------

    def _decide(self) -> Optional[Lit]:
        """The unassigned variable of highest activity (lowest index on a
        tie), in its saved phase; None once every variable is assigned."""
        order, activity, value = self._order, self.activity, self.value
        while order:
            key, v = heappop(order)
            if key != -activity[v]:
                continue  # stale: a bump pushed a current entry
            self._queued[v] = False
            if value[v]:
                continue  # assigned: backtracking re-queues it
            return v if self.saved_phase[v] else -v
        return None

    # -- main loop ---------------------------------------------------------

    def solve(self) -> bool:
        """Run the CDCL loop: True (SAT) or False (UNSAT)."""
        if not self.ok:
            return False
        restart_count = 1
        restart_limit = 32 * _luby(restart_count)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                if not self.trail_lim:
                    self.ok = False
                    return False
                learned, bj = self._analyze(conflict)
                # The backjump unassigns the asserting literal: its
                # variable sits on the conflict level, above bj.
                self._backtrack(bj)
                ref = None
                if len(learned) > 1:
                    ref = _ClauseRef(learned, learned=True)
                    self.clauses.append(ref)
                    self._watch(ref)
                self._enqueue(learned[0], ref)
                self.var_inc /= self.var_decay
                restart_limit -= 1
                if restart_limit <= 0:
                    restart_count += 1
                    restart_limit = 32 * _luby(restart_count)
                    self._backtrack(0)
                continue
            lit = self._decide()
            if lit is None:
                return True  # full assignment, no conflict
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)

    # -- results -----------------------------------------------------------

    def model_assignment(self) -> dict[int, bool]:
        """The satisfying assignment after a True ``solve()``."""
        return {(l if l > 0 else -l): l > 0 for l in self.trail}

    def block_and_continue(self, lits: list[Lit]) -> bool:
        """Backtrack to level 0 and add a blocking/lemma clause.

        Used by the DPLL(T) driver to reject theory-inconsistent boolean
        models.  Returns False if the formula became UNSAT.
        """
        self._backtrack(0)
        return self.add_clause(lits)
