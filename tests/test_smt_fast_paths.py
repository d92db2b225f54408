"""The solver's derivations against the reference code they replaced.

The conjunction solver's answers are pinned here to straightforward
reference implementations that stay in this file:

* every UNSAT answer of ``LiaSolver.solve`` carries an *explanation*
  (``LiaResult.core``): the inputs its own derivation used.  Against
  the solver as it was before explanations (``_reference_solve``, with
  deletion-based core shrinking in ``_reference_shrink_core``), the
  status and every SAT model are unchanged, and every core is a
  non-empty subset of the input that a fresh solve refutes on its own;
* ``_propagate_constants`` / ``_substitute_all`` substitute only the
  atoms an expression contains, and return exactly what the per-atom
  ``LinExpr.substitute`` loop returned;
* numbers stay exact ``int``s where they are integral: a pin, a gcd
  tightening and an UNSAT-by-divisibility case each divide two ``int``s.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from repro.smt import lia
from repro.smt.errors import BudgetExhausted, Result
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
# Reference: the conjunction solver before explanations
# ---------------------------------------------------------------------------


def _reference_solve_rational(constraints):
    """Gaussian elimination + Fourier–Motzkin without provenance, kept
    verbatim as the oracle: an assignment, or None if infeasible."""
    eqs = [c.expr for c in constraints if c.kind == EQ]
    les = [c.expr for c in constraints if c.kind == LE]
    all_atoms = set()
    for c in constraints:
        all_atoms |= c.expr.atoms()
    substitutions = []
    while eqs:
        e = eqs.pop()
        if e.is_constant:
            if e.const != 0:
                return None
            continue
        atom, coeff = e.coeffs[0]
        rest = e.substitute(atom, LinExpr.constant(0))
        repl = rest.scale(Fraction(-1, 1) / coeff)
        substitutions.append((atom, repl))
        eqs = [x.substitute(atom, repl) for x in eqs]
        les = [x.substitute(atom, repl) for x in les]
    les = [e for e in les if not (e.is_constant and e.const <= 0)]
    for e in les:
        if e.is_constant and e.const > 0:
            return None
    stages = []
    remaining = [e for e in les if not e.is_constant]

    def pick_var(exprs):
        counts = {}
        for e in exprs:
            for a, c in e.coeffs:
                lo, hi = counts.get(a, (0, 0))
                counts[a] = (lo + 1, hi) if c < 0 else (lo, hi + 1)
        return min(counts, key=lambda a: counts[a][0] * counts[a][1])

    while remaining:
        v = pick_var(remaining)
        lowers, uppers, others = [], [], []
        for e in remaining:
            c = e.coeff_of(v)
            if c == 0:
                others.append(e)
                continue
            rest = e.substitute(v, LinExpr.constant(0)).scale(Fraction(-1) / c)
            (uppers if c > 0 else lowers).append(rest)
        stages.append((v, lowers, uppers))
        for lo in lowers:
            for up in uppers:
                combo = lo.sub(up)
                if combo.is_constant:
                    if combo.const > 0:
                        return None
                else:
                    others.append(combo)
        remaining = others
    assignment = {}
    for v, lowers, uppers in reversed(stages):
        lb = max((lia._eval_lin(e, assignment) for e in lowers), default=None)
        ub = min((lia._eval_lin(e, assignment) for e in uppers), default=None)
        assignment[v] = lia._pick_value(lb, ub)
    for a in all_atoms:
        if a not in assignment and not any(a == s for s, _ in substitutions):
            assignment[a] = Fraction(0)
    for atom, repl in reversed(substitutions):
        assignment[atom] = lia._eval_lin(repl, assignment)
    return assignment


def _reference_solve_linear(constraints, budget):
    """Branch-and-bound around the reference relaxation (None: UNSAT)."""
    stack = [constraints]
    spent = 0
    while stack:
        cons = stack.pop()
        spent += 1
        if spent > budget:
            raise BudgetExhausted("branch-and-bound budget")
        rat = _reference_solve_rational(cons)
        if rat is None:
            continue
        frac = next((a for a, v in rat.items() if v.denominator != 1), None)
        if frac is not None:
            v = rat[frac]
            below = LinExpr.atom(frac).add(LinExpr.constant(-math.floor(v)))
            above = LinExpr.atom(frac, -1).add(LinExpr.constant(math.ceil(v)))
            stack.append(cons + [normalize(below, LE)])
            stack.append(cons + [normalize(above, LE)])
            continue
        int_model = {a: int(v) for a, v in rat.items()}
        bad = next(
            (
                c
                for c in cons
                if c.kind == NE and lia._eval_lin(c.expr, int_model) == 0
            ),
            None,
        )
        if bad is not None:
            lo = bad.expr.add(LinExpr.constant(1))
            hi = bad.expr.scale(-1).add(LinExpr.constant(1))
            stack.append(cons + [normalize(lo, LE)])
            stack.append(cons + [normalize(hi, LE)])
            continue
        return int_model
    return None


def _reference_solve(constraints, *, branch_budget=2000, enum_budget=20000):
    """``(status, model)`` as ``LiaSolver.solve`` answered before
    explanations (same budgets, same enumeration order)."""
    try:
        model = _reference_solve_propagated(
            *_reference_propagate_constants(list(constraints)),
            branch_budget=branch_budget,
            enum_budget=enum_budget,
        )
    except BudgetExhausted:
        return Result.UNKNOWN, None
    if model is None:
        return Result.UNSAT, None
    return Result.SAT, model


def _reference_solve_propagated(cons, pinned, *, branch_budget, enum_budget):
    if cons is None:
        return None
    nonlin = lia._nonlinear_vars(cons)
    if not nonlin:
        model = _reference_solve_linear(cons, branch_budget)
        if model is None:
            return None
        model.update(pinned)
        return lia._complete_products(model)
    ordered = sorted(nonlin, key=lambda v: v.name)
    seeds = lia._seed_values(cons, 12)
    for tried, values in enumerate(itertools.product(seeds, repeat=len(ordered)), 1):
        if tried > enum_budget:
            raise BudgetExhausted("nonlinear enumeration budget")
        subst = dict(zip(ordered, values))
        reduced, more_pinned = _reference_propagate_constants(
            _reference_substitute_all(cons, subst)
        )
        if reduced is None or lia._nonlinear_vars(reduced):
            continue
        model = _reference_solve_linear(reduced, max(branch_budget // 10, 50))
        if model is not None:
            model.update(pinned)
            model.update(more_pinned)
            model.update(subst)
            return lia._complete_products(model)
    raise BudgetExhausted("nonlinear enumeration exhausted")


def _reference_shrink_core(constraints):
    """Deletion-based unsat-core shrinking, as the DPLL(T) loop did it
    before explanations: drop each constraint whose removal still
    refutes."""
    core = list(constraints)
    i = 0
    while i < len(core):
        trial = core[:i] + core[i + 1 :]
        if _reference_solve(trial)[0] is Result.UNSAT:
            core = trial
        else:
            i += 1
    return core


def _assert_matches_reference(cs, **budgets):
    """(a) status and SAT model equal the reference's; (b) an UNSAT core
    is a non-empty subset of the input that refutes on its own."""
    res = LiaSolver(**budgets).solve(cs)
    status, model = _reference_solve(cs, **budgets)
    assert res.status is status, cs
    if status is Result.SAT:
        assert res.model == model, cs
    if status is not Result.UNSAT:
        assert res.core == frozenset(), cs
        return res
    assert res.core and res.core <= set(cs), (cs, res.core)
    alone = [c for c in cs if c in res.core]
    assert LiaSolver(**budgets).solve(alone).status is Result.UNSAT, (
        cs,
        res.core,
    )
    return res


# ---------------------------------------------------------------------------
# (a) explanations
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


class TestExplanation:
    @pytest.mark.parametrize("case", range(len(LINEAR_CASES)))
    def test_linear_cases_and_their_deletion_trials(self, case):
        lits = LINEAR_CASES[case]
        # The whole conjunction and every deletion trial of it.
        for drop in range(-1, len(lits)):
            cs = _cons(*(l for i, l in enumerate(lits) if i != drop))
            res = _assert_matches_reference(cs)
            if res.status is Result.UNSAT:
                # (c) the explanation is no smaller than a minimal core.
                assert len(_reference_shrink_core(cs)) <= len(res.core), cs

    @pytest.mark.parametrize("population", ["linear", "pinned-product", "nonlinear"])
    def test_random_systems_match_the_reference(self, population):
        rng = random.Random(f"explain-{population}")
        unsat = 0
        for _ in range(80):
            cs = _random_system(
                rng,
                n_cons=rng.randint(1, 6),
                products=population != "linear",
                pins=3 if population == "pinned-product" else 0,
            )
            res = _assert_matches_reference(cs, branch_budget=100, enum_budget=200)
            unsat += res.status is Result.UNSAT
        assert unsat >= 10  # the explanation path is exercised

    def test_core_is_a_set_of_constraints_not_positions(self):
        # Only x < y, y < z, z < x refute; the core names constraints,
        # so a reordered solve answers with the same ones.
        cs = _cons(mk_ge(w, 5), *LINEAR_CASES[2], mk_le(w, 9))
        s = LiaSolver()
        first = s.solve(cs)
        assert first.core == frozenset(_cons(*LINEAR_CASES[2]))
        again = s.solve(list(reversed(cs)))
        assert again.status is Result.UNSAT and again.core == first.core

    def test_refuted_by_propagation_explains_with_the_pin(self):
        # x = 3 folds x*y into 3y, and 3y = 7 has no integer solution;
        # z >= 0 plays no part.
        cs = _cons(mk_ge(z, 0), mk_eq(x, 3), mk_eq(mk_mul(x, y), 7))
        res = LiaSolver().solve(cs)
        assert res.status is Result.UNSAT
        assert res.core == frozenset(cs[1:])

    def test_linearised_by_propagation_goes_to_the_linear_solver(self):
        cs = _cons(
            mk_eq(x, 3), mk_eq(mk_mul(x, y), z), mk_lt(z, 3), mk_gt(y, 0),
            mk_le(w, 0),
        )
        res = LiaSolver().solve(cs)
        assert res.status is Result.UNSAT
        assert res.core == frozenset(cs[:4])
        cs = _cons(mk_eq(x, 3), mk_eq(mk_mul(x, y), z), mk_lt(z, 4), mk_gt(y, 0))
        assert LiaSolver().solve(cs).status is Result.SAT

    def test_nonlinear_unsat_beyond_propagation_is_unknown(self):
        # x*y = 7 and x*y = 8 is UNSAT, but only the (never-UNSAT)
        # enumeration could see it: no explanation, no core.
        cs = _cons(mk_eq(mk_mul(x, y), 7), mk_eq(mk_mul(x, y), 8))
        res = LiaSolver(enum_budget=300).solve(cs)
        assert res.status is Result.UNKNOWN and res.core == frozenset()

    def test_fractional_cuts_are_not_in_the_core(self):
        # 2x = 2y + 1 is rationally feasible; branch-and-bound refutes it
        # through cuts on x, which cover the integers.
        cs = _cons(mk_ge(z, 1), mk_eq(mk_mul(2, x), mk_add(mk_mul(2, y), 1)))
        res = LiaSolver().solve(cs)
        assert res.status is Result.UNSAT and res.core == frozenset(cs[1:])

    def test_disequality_split_keeps_the_disequality(self):
        cs = _cons(mk_le(x, y), mk_le(y, x), mk_ge(z, 2), mk_not(mk_eq(x, y)))
        res = LiaSolver().solve(cs)
        assert res.core == frozenset([cs[0], cs[1], cs[3]])


# ---------------------------------------------------------------------------
# (b) constant propagation
# ---------------------------------------------------------------------------

_VARS = [Var(f"v{i}") for i in range(5)]


def _random_system(
    rng: random.Random, n_cons: int, *, products: bool = True, pins: int = 0
) -> list[Constraint]:
    """Constraints over a few variables and (with ``products``) their
    pairwise products, with enough unary equalities that propagation has
    work to do; ``pins`` more pin distinct variables outright."""
    atoms = list(_VARS)
    if products:
        atoms += [mk_mul(_VARS[i], _VARS[j]) for i in range(4) for j in range(i, 4)]
    assert all(isinstance(a, (Var, Mul)) for a in atoms)
    out = [
        normalize(linearize(v).add(LinExpr.constant(rng.randint(-3, 3))), EQ)
        for v in rng.sample(_VARS[:4], pins)
    ]
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
                value = Fraction(-e.const, coeff)
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
            ref_cons, ref_pins = _reference_propagate_constants(system)
            masks = [1 << i for i in range(len(system))]
            try:
                got_cons, got_masks, got_pins = lia._propagate_constants(
                    system, masks
                )
            except lia._Refuted:
                assert ref_cons is None, system
                refuted += 1
                continue
            assert _shape(got_cons) == _shape(ref_cons), system
            assert list(got_pins.items()) == list(ref_pins.items()), system
            assert len(got_masks) == len(got_cons)
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


# ---------------------------------------------------------------------------
# (c) integer arithmetic stays exact
# ---------------------------------------------------------------------------


class TestIntegerForms:
    def test_odd_constant_over_even_coefficient_is_unsat(self):
        # 2x + 3 = 0: normalised, and raw into the pin.
        two_x_plus_3 = LinExpr(((x, 2),), 3)
        assert LiaSolver().solve([normalize(two_x_plus_3, EQ)]).status is (
            Result.UNSAT
        )
        with pytest.raises(lia._Refuted):
            lia._propagate_constants([Constraint(two_x_plus_3, EQ)], [1])

    def test_pin_divides_exactly(self):
        # -2x + 4 = 0 pins x = 2, an int, normalised or not.
        e = LinExpr(((x, -2),), 4)
        for c in (normalize(e, EQ), Constraint(e, EQ)):
            rest, _, pinned = lia._propagate_constants([c], [1])
            assert rest == [] and pinned == {x: 2}
            assert type(pinned[x]) is int
        res = LiaSolver().solve([normalize(e, EQ)])
        assert res.status is Result.SAT and res.model == {x: 2}
        # Past a float's 53 bits the quotient is still exact.
        big = 2**60 + 3
        _, _, pinned = lia._propagate_constants(
            [Constraint(LinExpr(((x, -2),), 2 * big), EQ)], [1]
        )
        assert pinned == {x: big}

    def test_le_tightens_by_the_gcd(self):
        # 2x + 2y - 3 <= 0 tightens to x + y - 1 <= 0.
        c = normalize(LinExpr(((x, 2), (y, 2)), -3), LE)
        assert c == Constraint(LinExpr(((x, 1), (y, 1)), -1), LE)
        assert all(type(q) is int for _, q in c.expr.coeffs)
        assert type(c.expr.const) is int
        # 2x - (3*2^60 + 5) <= 0 tightens to x - (3*2^59 + 2) <= 0, exactly.
        c = normalize(LinExpr(((x, 2),), -(3 * 2**60 + 5)), LE)
        assert c == Constraint(LinExpr(((x, 1),), -(3 * 2**59 + 2)), LE)

    def test_fractions_only_where_the_quotient_is_fractional(self):
        e = linearize(mk_add(mk_mul(3, x), mk_mul(-6, y), 2))
        assert e.scale(Fraction(1, 3)).coeffs == ((x, 1), (y, -2))
        assert all(type(q) is int for _, q in e.scale(Fraction(1, 3)).coeffs)
        assert e.scale(Fraction(1, 3)).const == Fraction(2, 3)
        assert lia._neg_recip(-1) == 1 and type(lia._neg_recip(-1)) is int
        assert lia._neg_recip(Fraction(1, 4)) == -4
        assert type(lia._neg_recip(Fraction(1, 4))) is int
        assert lia._pick_value(Fraction(1, 3), Fraction(2, 3)) == Fraction(1, 2)
        assert type(lia._pick_value(Fraction(1, 3), Fraction(7, 3))) is int
