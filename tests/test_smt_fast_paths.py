"""The solver's fast paths against the reference code they replaced.

Two shortcuts in ``repro.smt`` skip work that cannot change an answer;
each is pinned here to a straightforward reference implementation that
stays in this file:

* ``LiaSolver.refutes`` (the unsat-core trial question) never runs the
  nonlinear enumeration, and always agrees with
  ``solve(...).status is UNSAT``;
* ``_propagate_constants`` / ``_substitute_all`` substitute only the
  atoms an expression contains, and return exactly what the per-atom
  ``LinExpr.substitute`` loop returned.
"""

import random

import pytest

from repro.smt import lia
from repro.smt.errors import Result
from repro.smt.lia import EQ, LE, NE, Constraint, LiaSolver, normalize
from repro.smt.linearize import LinExpr, linearize
from repro.smt.solver import _atom_constraints
from repro.smt.terms import (
    Mul,
    Var,
    mk_add,
    mk_eq,
    mk_ge,
    mk_gt,
    mk_int,
    mk_le,
    mk_lt,
    mk_mul,
    mk_not,
    mk_sub,
    mk_var,
)

x, y, z, w = mk_var("x"), mk_var("y"), mk_var("z"), mk_var("w")


def _cons(*literals):
    """Theory literals (atom, or ``mk_not(atom)``) -> LIA constraints."""
    out = []
    for f in literals:
        positive = f.__class__.__name__ != "Not"
        out.append(_atom_constraints(f if positive else f.arg, positive))
    return out


# ---------------------------------------------------------------------------
# (a) LiaSolver.refutes
# ---------------------------------------------------------------------------

#: Linear conjunctions from tests/test_smt_solver.py (TestBasicSat and
#: friends), as the theory literals the DPLL(T) loop would hand over.
LINEAR_CASES = [
    (mk_eq(mk_add(x, y), 10), mk_lt(x, y)),
    (mk_eq(mk_add(x, y), 10), mk_eq(mk_sub(x, y), 2)),
    (mk_lt(x, y), mk_lt(y, z), mk_lt(z, x)),
    (mk_lt(x, y), mk_lt(y, mk_add(x, 1))),
    (mk_le(x, y), mk_le(y, x), mk_not(mk_eq(x, y))),
    (mk_gt(mk_mul(2, x), 4), mk_lt(mk_mul(2, x), 6)),
    (mk_eq(mk_mul(2, x), 7),),
    (mk_eq(mk_mul(3, x), mk_add(mk_mul(3, y), 1)),),
    (mk_ge(x, 0), mk_le(x, 2), mk_not(mk_eq(x, 0)), mk_not(mk_eq(x, 1))),
    (
        mk_ge(x, 0),
        mk_le(x, 2),
        mk_not(mk_eq(x, 0)),
        mk_not(mk_eq(x, 1)),
        mk_not(mk_eq(x, 2)),
    ),
    (mk_eq(x, 3), mk_eq(y, mk_add(x, 4)), mk_lt(y, 7)),
    (mk_eq(x, 3), mk_eq(y, mk_add(x, 4)), mk_le(y, 7)),
]


def _no_enumeration(monkeypatch):
    def boom(*_args, **_kw):  # pragma: no cover - failing path
        raise AssertionError("refutes ran the nonlinear enumeration")

    monkeypatch.setattr(lia, "_seed_values", boom)
    monkeypatch.setattr(lia, "_substitute_all", boom)


class TestRefutes:
    def test_still_nonlinear_is_not_refuted_without_enumerating(self, monkeypatch):
        _no_enumeration(monkeypatch)
        s = LiaSolver()
        # x*y = 7 with x, y free: propagation leaves the product atom.
        cs = _cons(mk_eq(mk_mul(x, y), 7), mk_ge(x, 2))
        assert s.refutes(cs) is False
        assert not s._memo  # nothing to remember: no answer was computed

    def test_nonlinear_unsat_beyond_propagation_is_not_refuted(self, monkeypatch):
        # x*y = 7 and x*y = 8 is UNSAT, but only the (never-UNSAT)
        # enumeration could see it, so the trial keeps its literal.
        cs = _cons(mk_eq(mk_mul(x, y), 7), mk_eq(mk_mul(x, y), 8))
        assert LiaSolver(enum_budget=300).solve(cs).status is Result.UNKNOWN
        _no_enumeration(monkeypatch)
        assert LiaSolver(enum_budget=300).refutes(cs) is False

    def test_refuted_by_propagation(self, monkeypatch):
        _no_enumeration(monkeypatch)
        s = LiaSolver()
        # x = 3 folds x*y into 3y, and 3y = 7 has no integer solution.
        cs = _cons(mk_eq(x, 3), mk_eq(mk_mul(x, y), 7))
        assert s.refutes(cs) is True
        assert s.solve(cs).status is Result.UNSAT

    def test_linearised_by_propagation_goes_to_the_linear_solver(self):
        cs = _cons(mk_eq(x, 3), mk_eq(mk_mul(x, y), z), mk_lt(z, 3), mk_gt(y, 0))
        assert LiaSolver().refutes(cs) is True
        assert LiaSolver().solve(cs).status is Result.UNSAT
        cs = _cons(mk_eq(x, 3), mk_eq(mk_mul(x, y), z), mk_lt(z, 4), mk_gt(y, 0))
        assert LiaSolver().refutes(cs) is False

    @pytest.mark.parametrize("case", range(len(LINEAR_CASES)))
    def test_agrees_with_solve_on_linear_cases(self, case):
        lits = LINEAR_CASES[case]
        # The whole conjunction and every deletion trial of it.
        for drop in range(-1, len(lits)):
            trial = [l for i, l in enumerate(lits) if i != drop]
            cs = _cons(*trial)
            expected = LiaSolver().solve(cs).status is Result.UNSAT
            assert LiaSolver().refutes(cs) is expected, trial

    def test_answer_and_memo_match_solve_on_the_linear_path(self):
        cs = _cons(*LINEAR_CASES[0])
        a, b = LiaSolver(), LiaSolver()
        assert a.refutes(cs) is False
        solved = b.solve(cs)
        assert a._memo == b._memo
        # A memoized refutation is answered from the memo.
        assert a.refutes(list(reversed(cs))) is False
        assert solved.status is Result.SAT

    def test_agrees_with_solve_on_random_nonlinear_systems(self):
        rng = random.Random(1301)
        for _ in range(120):
            cs = _random_system(rng, n_cons=rng.randint(1, 5))
            expected = (
                LiaSolver(enum_budget=200).solve(cs).status is Result.UNSAT
            )
            assert LiaSolver(enum_budget=200).refutes(cs) is expected, cs


# ---------------------------------------------------------------------------
# (b) constant propagation
# ---------------------------------------------------------------------------

_VARS = [Var(f"v{i}") for i in range(5)]


def _random_system(rng: random.Random, n_cons: int) -> list[Constraint]:
    """Constraints over a few variables and their pairwise products,
    with enough unary equalities that propagation has work to do."""
    atoms = list(_VARS) + [
        mk_mul(_VARS[i], _VARS[j]) for i in range(4) for j in range(i, 4)
    ]
    assert all(isinstance(a, (Var, Mul)) for a in atoms)
    out = []
    for _ in range(n_cons):
        if rng.random() < 0.4:
            expr = linearize(rng.choice(_VARS)).add(
                LinExpr.constant(rng.randint(-3, 3))
            )
            out.append(normalize(expr, EQ))
            continue
        picked = rng.sample(atoms, rng.randint(1, 4))
        expr = LinExpr.constant(rng.randint(-6, 6))
        for a in picked:
            expr = expr.add(linearize(a).scale(rng.choice([-3, -2, -1, 1, 2, 5])))
        kind = rng.choice([EQ, LE, LE, NE])
        out.append(normalize(expr, kind))
    return out


def _reference_propagate_constants(constraints):
    """The per-pinned-atom ``substitute`` loop ``_propagate_constants``
    replaced, kept verbatim as the oracle."""
    pinned = {}
    cons = list(constraints)
    for _round in range(len(constraints) + 8):
        progress = False
        out = []
        for c in cons:
            e = c.expr
            if e.is_constant:
                v = e.const
                ok = (
                    (c.kind == EQ and v == 0)
                    or (c.kind == LE and v <= 0)
                    or (c.kind == NE and v != 0)
                )
                if not ok:
                    return None, pinned
                progress = True
                continue
            if c.kind == EQ and len(e.coeffs) == 1:
                atom, coeff = e.coeffs[0]
                value = -e.const / coeff
                if value.denominator != 1:
                    return None, pinned
                if isinstance(atom, Var):
                    prev = pinned.get(atom)
                    if prev is not None and prev != int(value):
                        return None, pinned
                    pinned[atom] = int(value)
                    progress = True
                    continue
            out.append(c)
        if not progress:
            return out, pinned
        cons = []
        for c in out:
            e = c.expr
            for atom, val in pinned.items():
                e = e.substitute(atom, LinExpr.constant(val))
            e = lia._fold_products(e, pinned)
            cons.append(Constraint(e, c.kind))
    return cons, pinned


def _reference_substitute_all(constraints, subst):
    out = []
    for c in constraints:
        e = c.expr
        for v, val in subst.items():
            e = e.substitute(v, LinExpr.constant(val))
        e = lia._fold_products(e, dict(subst))
        out.append(Constraint(e, c.kind))
    return out


def _shape(cons):
    """Structural identity: atom order, exact coefficients and kinds."""
    if cons is None:
        return None
    return [(c.kind, c.expr.coeffs, c.expr.const) for c in cons]


class TestPropagation:
    def test_matches_per_atom_substitution_on_random_systems(self):
        rng = random.Random(1302)
        refuted = survived = 0
        for _ in range(400):
            system = _random_system(rng, n_cons=rng.randint(1, 8))
            got_cons, got_pins = lia._propagate_constants(system)
            ref_cons, ref_pins = _reference_propagate_constants(system)
            assert _shape(got_cons) == _shape(ref_cons), system
            assert list(got_pins.items()) == list(ref_pins.items()), system
            if got_cons is None:
                refuted += 1
            else:
                survived += 1
        # Both outcomes are exercised.
        assert refuted > 20 and survived > 20

    def test_substitute_all_matches_per_atom_substitution(self):
        rng = random.Random(1303)
        for _ in range(200):
            system = _random_system(rng, n_cons=rng.randint(1, 6))
            subst = {
                v: rng.randint(-4, 4)
                for v in rng.sample(_VARS, rng.randint(1, len(_VARS)))
            }
            assert _shape(lia._substitute_all(system, subst)) == _shape(
                _reference_substitute_all(system, subst)
            )

    def test_pin_values_leaves_unrelated_expressions_alone(self):
        e = linearize(mk_add(x, mk_mul(2, y), mk_int(1)))
        assert lia._pin_values(e, {z: 3}) is e
        pinned = lia._pin_values(e, {y: 3, z: 4})
        assert pinned == e.substitute(y, LinExpr.constant(3))
