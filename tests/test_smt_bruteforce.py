"""The DPLL(T) loop against exhaustive evaluation.

A theory explanation that is too small blocks assignments that are
feasible, and the solver then answers UNSAT for a satisfiable formula —
which the proof relation turns into a wrong "safe".  The other tests in
``tests/test_smt_*.py`` compare the solver with itself (incremental vs
one-shot, explanations vs the pre-explanation conjunction solver); this
one compares ``check_sat`` / ``get_model`` with ``eval_formula`` on
every point of a small box:

* a satisfying point inside ``[-4, 4]^n`` means the answer must be SAT;
* every SAT answer's model must satisfy the formula.

Formulas are seeded, over 2–3 variables, built with ``and``/``or``/
``not`` over ``=``, ``<=``, ``<``, with ``div``/``mod`` by constants and
by variables that a top-level conjunct keeps non-zero, and the affine
image ``2t - 1`` of a subterm.
"""

import itertools
import random
from fractions import Fraction

import pytest

from repro.smt import (
    Result,
    check_sat,
    get_model,
    mk_add,
    mk_and,
    mk_div,
    mk_eq,
    mk_le,
    mk_lt,
    mk_mod,
    mk_mul,
    mk_not,
    mk_or,
    mk_var,
)
from repro.smt.linearize import LinExpr
from repro.smt.terms import eval_formula

BOX = range(-4, 5)
VARS = [mk_var("x"), mk_var("y"), mk_var("z")]


class _Gen:
    """Small random formulas.  Sizes are capped — two affine images and
    one division per formula, shallow terms — because the bundled
    solver's Fourier–Motzkin elimination is exponential in the number of
    theory atoms (the div/mod axioms add atoms), and a division by a
    variable goes to the nonlinear enumeration."""

    def __init__(self, rng: random.Random, n_vars: int) -> None:
        self.rng = rng
        self.vars = VARS[:n_vars]
        self.divisors: set = set()  # variables used as divisors
        self.affines, self.divs = 2, 1  # remaining budgets

    def term(self, depth: int = 0):
        rng = self.rng
        pick = rng.random()
        if depth >= 1 or pick < 0.35:
            return rng.choice(self.vars)
        if pick < 0.45:
            return rng.randint(-4, 4)
        if pick < 0.6:
            return mk_add(self.term(depth + 1), self.term(depth + 1))
        if pick < 0.68:
            return mk_mul(rng.choice([-2, -1, 2, 3]), self.term(depth + 1))
        if pick < 0.86 and self.divs:
            self.divs -= 1
            op = rng.choice([mk_div, mk_mod])
            num = self.term(depth + 1)
            if rng.random() < 0.6:
                return op(num, rng.choice([-3, -2, 2, 3]))
            den = rng.choice(self.vars)
            self.divisors.add(den)
            return op(num, den)
        if self.affines:
            self.affines -= 1
            return mk_add(mk_mul(2, self.term(depth + 1)), -1)
        return rng.choice(self.vars)

    def atom(self):
        op = self.rng.choice([mk_eq, mk_le, mk_lt])
        return op(self.term(), self.term())

    def formula(self):
        rng = self.rng
        pick = rng.random()
        if pick < 0.4:
            return self.atom()
        if pick < 0.55:
            return mk_not(self.atom())
        op = mk_and if pick < 0.75 else mk_or
        return op(*(self.atom() for _ in range(rng.randint(2, 3))))


def _random_formula(seed: int):
    rng = random.Random(seed)
    gen = _Gen(rng, rng.choice([2, 3]))
    body = mk_and(*(gen.formula() for _ in range(rng.randint(1, 2))))
    guards = [mk_not(mk_eq(v, 0)) for v in sorted(gen.divisors, key=str)]
    return mk_and(*guards, body), gen.vars


def _holds(phi, env) -> bool:
    try:
        return eval_formula(phi, env)
    except ZeroDivisionError:  # only off the guards: a false point
        return False


def _witness(phi, variables):
    """A satisfying point in the box, or None."""
    for values in itertools.product(BOX, repeat=len(variables)):
        env = dict(zip(variables, values))
        if _holds(phi, env):
            return env
    return None


SEEDS = range(128)


@pytest.mark.parametrize("chunk", range(4))
def test_solver_agrees_with_exhaustive_evaluation(chunk):
    sat = unsat = 0
    for seed in SEEDS[chunk::4]:
        phi, variables = _random_formula(seed)
        res = check_sat(phi)
        witness = _witness(phi, variables)
        if witness is not None:
            assert res is Result.SAT, (seed, phi, witness)
        if res is Result.SAT:
            m = get_model(phi)
            assert m is not None, (seed, phi)
            env = {v: m[v] for v in variables}
            assert eval_formula(phi, env), (seed, phi, m)
            sat += 1
        elif res is Result.UNSAT:
            unsat += 1
    # Both answers are exercised.
    assert sat >= 20 and unsat >= 1, (sat, unsat)


def test_linear_forms_hold_exact_numbers(monkeypatch):
    """Every number in every linear form built while solving the
    population is exact: an ``int`` when integral, a ``Fraction`` only
    when not, never a ``float``; every model value is an ``int``."""
    built = []
    init = LinExpr.__init__

    def recording(self, coeffs, const):
        init(self, coeffs, const)
        built.append(self)

    monkeypatch.setattr(LinExpr, "__init__", recording)
    fractional = 0
    for seed in SEEDS[::2]:
        phi, variables = _random_formula(seed)
        m = get_model(phi)
        if m is not None:
            assert all(type(v) is int for v in m.env.values()), (seed, m)
        for e in built:
            for q in [c for _, c in e.coeffs] + [e.const]:
                assert isinstance(q, (int, Fraction)), (seed, e)
                assert not isinstance(q, bool), (seed, e)
                if q.denominator == 1:
                    assert type(q) is int, (seed, e)
                else:
                    fractional += 1
        built.clear()
    assert fractional > 0  # the relaxation's fractions are exercised
