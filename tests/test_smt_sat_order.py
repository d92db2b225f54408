"""The CDCL core's order heap against the linear scan it replaced.

``SatSolver._decide`` pops the unassigned variable of highest activity
(lowest index on a tie) from a lazy heap.  The reference here is the
decision rule as it was before the heap — a scan over every variable —
kept only in this file.  On seeded random CNFs, solved in the rounds of
one DPLL(T) check — ``solve``, then ``block_and_continue`` with a
theory-style blocking clause, then ``solve`` again, until UNSAT — with
forced activity rescales in between, both solvers must make the same
decisions in the same order and return the same verdicts, models and
learned clauses.
"""

import random

import pytest

from repro.smt.sat import SatSolver


class _HeapSolver(SatSolver):
    """The solver as shipped, recording its decisions and rescales."""

    def __init__(self) -> None:
        super().__init__()
        self.decisions: list = []
        self.rebuilds = 0
        self.rescales = 0

    def _decide(self):
        lit = super()._decide()
        self.decisions.append(lit)
        return lit

    def _rebuild_order(self) -> None:
        self.rebuilds += 1
        super()._rebuild_order()

    def _bump_var(self, v: int) -> None:
        before = self.rebuilds
        super()._bump_var(v)
        self.rescales += self.rebuilds > before


class _ScanSolver(SatSolver):
    """The reference: the linear-scan decision rule."""

    def __init__(self) -> None:
        super().__init__()
        self.decisions: list = []

    def _decide(self):
        best_v, best_a = 0, -1.0
        for v in range(1, self.num_vars + 1):
            if not self.value[v]:
                a = self.activity[v]
                if a > best_a:
                    best_v, best_a = v, a
        if best_v == 0:
            lit = None
        else:
            lit = best_v if self.saved_phase[best_v] else -best_v
        self.decisions.append(lit)
        return lit


def _random_clause(rng: random.Random, n_vars: int, width: int) -> list:
    picked = rng.sample(range(1, n_vars + 1), width)
    return [v if rng.random() < 0.5 else -v for v in picked]


def _learned(s: SatSolver) -> list:
    return [list(c.lits) for c in s.clauses if c.learned]


def _run_session(seed: int, *, force_rescale: bool) -> tuple:
    """Drive both solvers through the rounds of one seeded check;
    returns the heap solver and the number of solves made."""
    rng = random.Random(seed)
    n_vars = rng.randint(8, 40)
    heap, scan = _HeapSolver(), _ScanSolver()
    both = (heap, scan)

    def apply(op, *args):
        results = [getattr(s, op)(*args) for s in both]
        assert results[0] == results[1], (seed, op, args)
        return results[0]

    apply("ensure_vars", n_vars)
    for _ in range(int(n_vars * rng.uniform(3.0, 4.6))):
        apply("add_clause", _random_clause(rng, n_vars, 3))

    solves = 0
    for _ in range(rng.randint(3, 7)):
        if force_rescale:
            for s in both:  # the next bump crosses 1e100
                s.var_inc = 1e99
        verdict = apply("solve")
        solves += 1
        assert heap.decisions == scan.decisions, seed
        assert heap.conflicts == scan.conflicts, seed
        assert _learned(heap) == _learned(scan), seed
        if not verdict:
            break
        # Block part of the model, as the DPLL(T) loop blocks a theory
        # conflict's literals.
        model = apply("model_assignment")
        block = [
            -v if model[v] else v
            for v in rng.sample(range(1, n_vars + 1), rng.randint(1, 4))
        ]
        if not apply("block_and_continue", block):
            break
    return heap, solves


@pytest.mark.parametrize("chunk", range(4))
def test_heap_decides_like_the_linear_scan(chunk):
    decisions = solves = 0
    for seed in range(chunk, 160, 4):
        heap, n = _run_session(seed, force_rescale=False)
        decisions += len(heap.decisions)
        solves += n
    assert decisions > 500 and solves > 100  # the rule is exercised


def test_heap_survives_activity_rescales():
    rescaled = 0
    for seed in range(1000, 1040):
        heap, _ = _run_session(seed, force_rescale=True)
        rescaled += heap.rescales > 0
    assert rescaled >= 10


def test_decide_orders_by_activity_then_index():
    s = _HeapSolver()
    s.ensure_vars(5)
    for v in (4, 2, 5, 4):
        s._bump_var(v)
    # The highest activity first, then the lowest index of a tie.
    assert [s._decide() for _ in range(5)] == [-4, -2, -5, -1, -3]
