"""CDCL SAT solver.

A conflict-driven clause-learning solver with the standard modern kernel:

* two-watched-literal propagation,
* first-UIP conflict analysis with clause minimisation,
* VSIDS-style exponential variable activities; a decision takes the
  unassigned variable of highest activity, the lowest index on a tie,
* Luby-sequence restarts with phase saving,
* incremental solving under assumptions (used by the DPLL(T) loop to add
  theory lemmas between calls, and by the scoped :class:`~repro.smt.solver.
  Solver` to activate assertion levels through selector literals).

Assumptions are decided first, each at its own decision level, before any
free decision — the MiniSat discipline.  A ``solve(assumptions)`` call
that returns False therefore means *unsat under these assumptions*; the
solver state (clauses, learned clauses, phase saving, activities) stays
intact and the next call may assume a different set.  Learned clauses
are always implied by the clause database alone — assumption literals
enter conflict analysis as decisions and end up negated *inside* the
learned clause — so clauses learned under one assumption set remain
sound under every other, which is what makes scope-popping by
selector-retirement (see ``smt.solver``) keep its lemmas for free.

Literals are nonzero ints (+v / -v), variables are 1-based; clause
storage is plain Python lists, which is plenty for the formula sizes the
paper's heap translation produces (tens to hundreds of atoms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

Lit = int


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence
    1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


@dataclass
class _ClauseRef:
    lits: list[Lit]
    learned: bool = False
    activity: float = 0.0


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
        self.clauses: list[_ClauseRef] = []
        self.watches: dict[Lit, list[_ClauseRef]] = {}
        self.assign: dict[int, bool] = {}
        self.level: dict[int, int] = {}
        self.reason: dict[int, Optional[_ClauseRef]] = {}
        self.trail: list[Lit] = []
        self.trail_lim: list[int] = []
        self.prop_head = 0
        self.activity: dict[int, float] = {}
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.saved_phase: dict[int, bool] = {}
        self.ok = True  # False once an empty clause is added
        self.conflicts = 0
        self.learned_count = 0  # non-unit learned clauses currently stored

    # -- construction ------------------------------------------------------

    def ensure_vars(self, n: int) -> None:
        """Make variables 1..n available."""
        for v in range(self.num_vars + 1, n + 1):
            self.activity[v] = 0.0
            self.watches.setdefault(v, [])
            self.watches.setdefault(-v, [])
        self.num_vars = max(self.num_vars, n)

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
            val = self._value(l)
            if val is True:
                return True  # satisfied at level 0
            if val is False:
                continue  # falsified at level 0: drop literal
            seen.add(l)
            out.append(l)
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            if not self._enqueue(out[0], None):
                self.ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self.ok = False
                return False
            return True
        ref = _ClauseRef(out)
        self.clauses.append(ref)
        self._watch(ref)
        return True

    def _watch(self, ref: _ClauseRef) -> None:
        self.watches.setdefault(ref.lits[0], []).append(ref)
        self.watches.setdefault(ref.lits[1], []).append(ref)

    # -- assignment --------------------------------------------------------

    def _value(self, lit: Lit) -> Optional[bool]:
        v = self.assign.get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else not v

    def _enqueue(self, lit: Lit, reason: Optional[_ClauseRef]) -> bool:
        val = self._value(lit)
        if val is not None:
            return val
        var = abs(lit)
        self.assign[var] = lit > 0
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> Optional[_ClauseRef]:
        """Unit propagation; returns a conflicting clause or None."""
        while self.prop_head < len(self.trail):
            lit = self.trail[self.prop_head]
            self.prop_head += 1
            falsified = -lit
            watchers = self.watches.get(falsified, [])
            i = 0
            while i < len(watchers):
                ref = watchers[i]
                lits = ref.lits
                # Normalise: watched literals are lits[0] and lits[1].
                if lits[0] == falsified:
                    lits[0], lits[1] = lits[1], lits[0]
                # lits[1] == falsified now.
                if self._value(lits[0]) is True:
                    i += 1
                    continue
                # Look for a new literal to watch.
                moved = False
                for j in range(2, len(lits)):
                    if self._value(lits[j]) is not False:
                        lits[1], lits[j] = lits[j], lits[1]
                        self.watches.setdefault(lits[1], []).append(ref)
                        watchers[i] = watchers[-1]
                        watchers.pop()
                        moved = True
                        break
                if moved:
                    continue
                # Clause is unit or conflicting.
                if self._value(lits[0]) is False:
                    return ref  # conflict
                self._enqueue(lits[0], ref)
                i += 1
        return None

    # -- conflict analysis -------------------------------------------------

    def _bump_var(self, v: int) -> None:
        self.activity[v] = self.activity.get(v, 0.0) + self.var_inc
        if self.activity[v] > 1e100:
            for u in self.activity:
                self.activity[u] *= 1e-100
            self.var_inc *= 1e-100

    def _analyze(self, conflict: _ClauseRef) -> tuple[list[Lit], int]:
        """First-UIP analysis.  Returns (learned clause, backjump level).
        The asserting literal is placed first in the learned clause."""
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
                v = abs(q)
                if v in seen or self.level.get(v, 0) == 0:
                    continue
                seen.add(v)
                self._bump_var(v)
                if self.level[v] == cur_level:
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

        learned = [-p] + self._minimize(learned, seen)
        if len(learned) == 1:
            return learned, 0
        # Backjump level: max level among the non-asserting literals.
        bj = max(self.level[abs(l)] for l in learned[1:])
        # Put a literal of the backjump level second (watch invariant).
        for k in range(1, len(learned)):
            if self.level[abs(learned[k])] == bj:
                learned[1], learned[k] = learned[k], learned[1]
                break
        return learned, bj

    def _minimize(self, learned: list[Lit], seen: set[int]) -> list[Lit]:
        """Cheap recursive clause minimisation: drop literals whose reason
        is entirely within the learned clause's variables."""
        marked = {abs(l) for l in learned}
        out = []
        for l in learned:
            ref = self.reason.get(abs(l))
            if ref is None:
                out.append(l)
                continue
            if all(
                abs(q) in marked or self.level.get(abs(q), 0) == 0
                for q in ref.lits
                if q != -l
            ):
                continue  # redundant
            out.append(l)
        return out

    def reset_trail(self) -> None:
        """Backtrack to decision level 0 (e.g. before ``add_clause`` on a
        solver that has already run a check).  Level-0 propagations —
        learned units included — survive."""
        self._backtrack(0)

    def reset_heuristics(self) -> None:
        """Zero the VSIDS activities and drop saved phases.

        A long-lived solver answering a *sequence* of scoped queries
        calls this between queries: phases and activities saved from the
        previous query steer the search toward its last model, which for
        a different assumption set tends to walk a longer chain of
        theory-blocked assignments than a cold start — and makes the
        boolean enumeration order (hence DPLL(T) round counts and
        UNKNOWN edge cases) drift from a from-scratch solver's.  Clauses
        and learned lemmas are the context's value; the heuristic state
        is not, so it is reset to keep warm checks behaving like cold
        ones, just with more lemmas."""
        self.saved_phase.clear()
        for v in self.activity:
            self.activity[v] = 0.0
        self.var_inc = 1.0

    def _backtrack(self, level: int) -> None:
        if len(self.trail_lim) <= level:
            return
        limit = self.trail_lim[level]
        for lit in reversed(self.trail[limit:]):
            v = abs(lit)
            self.saved_phase[v] = self.assign[v]
            del self.assign[v]
            del self.level[v]
            self.reason.pop(v, None)
        del self.trail[limit:]
        del self.trail_lim[level:]
        self.prop_head = min(self.prop_head, len(self.trail))

    # -- decisions ---------------------------------------------------------

    def _decide(self) -> Optional[Lit]:
        best_v, best_a = 0, -1.0
        for v in range(1, self.num_vars + 1):
            if v not in self.assign:
                a = self.activity.get(v, 0.0)
                if a > best_a:
                    best_v, best_a = v, a
        if best_v == 0:
            return None
        phase = self.saved_phase.get(best_v, False)
        return best_v if phase else -best_v

    # -- main loop ---------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[Lit] = (),
        *,
        conflict_budget: int | None = None,
    ) -> Optional[bool]:
        """Run the CDCL loop, optionally under assumption literals.

        Returns True (SAT), False (UNSAT — globally if ``assumptions`` is
        empty, otherwise possibly only under the assumptions) or None if
        ``conflict_budget`` was exhausted.  A False under assumptions
        leaves the solver reusable: only ``self.ok`` going False marks
        the clause database itself contradictory.
        """
        if not self.ok:
            return False
        self._backtrack(0)  # discard stale decisions from a previous call
        restart_count = 1
        restart_limit = 32 * _luby(restart_count)
        conflicts_here = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if conflict_budget is not None and conflicts_here > conflict_budget:
                    return None
                if not self.trail_lim:
                    self.ok = False
                    return False
                learned, bj = self._analyze(conflict)
                self._backtrack(bj)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        self.ok = False
                        return False
                else:
                    ref = _ClauseRef(learned, learned=True)
                    self.clauses.append(ref)
                    self.learned_count += 1
                    self._watch(ref)
                    self._enqueue(learned[0], ref)
                self.var_inc /= self.var_decay
                restart_limit -= 1
                if restart_limit <= 0:
                    restart_count += 1
                    restart_limit = 32 * _luby(restart_count)
                    self._backtrack(0)
                continue
            lit = None
            for a in assumptions:
                val = self._value(a)
                if val is False:
                    # An assumption is falsified by the database (plus the
                    # assumptions already decided): unsat under assumptions.
                    return False
                if val is None:
                    lit = a
                    break
            if lit is None:
                lit = self._decide()
                if lit is None:
                    return True  # full assignment, no conflict
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)

    # -- results -----------------------------------------------------------

    def model_assignment(self) -> dict[int, bool]:
        """The satisfying assignment after a True ``solve()``."""
        return dict(self.assign)

    def block_and_continue(self, lits: list[Lit]) -> bool:
        """Backtrack to level 0 and add a blocking/lemma clause.

        Used by the DPLL(T) driver to reject theory-inconsistent boolean
        models.  Returns False if the formula became UNSAT.
        """
        self._backtrack(0)
        return self.add_clause(lits)
