"""Conjunction-level linear integer arithmetic.

Decides conjunctions of literals of the forms ``e = 0``, ``e <= 0`` and
``e != 0`` where ``e`` is a :class:`~repro.smt.linearize.LinExpr` over
integer-valued atoms, and produces integer models.

Algorithm
---------
1. *Constant propagation* pins atoms forced to a single value and folds
   nonlinear product atoms whose factors become known.
2. Remaining *nonlinear* atoms (products of two or more variables) are
   handled by a fair bounded enumeration of their variables, seeded with
   the constants appearing in the problem; each assignment reduces the
   system to the linear case.  Exhausting the enumeration budget yields
   UNKNOWN — this is the solver's documented incompleteness boundary
   (mirroring the paper's reliance on Z3's nonlinear heuristics, §5.3).
   The enumeration therefore answers SAT or UNKNOWN, never UNSAT:
   assignments that fail are skipped, not refuted.
3. The *linear* core is solved by Gaussian elimination of equalities,
   Fourier–Motzkin elimination of inequalities over the rationals with
   back-substitution model construction, then branch-and-bound to repair
   fractional values, and splitting to repair violated disequalities.

Everything is exact and nothing is a ``float``: coefficients and
constants are ``int`` whenever they are integral (every normalised
constraint, pin and model value), and a ``fractions.Fraction`` appears
only where a quotient really is fractional — the ``-1/c`` scalings of
Gaussian and Fourier–Motzkin elimination and ``_pick_value``'s midpoint
(see :class:`~repro.smt.linearize.LinExpr`).

Explanations
------------
An UNSAT answer carries its *core*: the inputs its own derivation used.
Input ``i`` has the bit mask ``1 << i``; a derived row carries the OR of
its sources' masks.  A pin keeps its equation's mask, and rows it is
substituted into OR it in; a Gaussian step ORs the pivot's mask into the
rows containing the eliminated atom; a Fourier–Motzkin combination ORs
both sides.  Each row is thus a non-negative combination (or a
substitution instance) of the inputs in its mask, which are infeasible
on their own.  Branch-and-bound cuts carry mask 0, as the two cuts cover
the integers; a ``!=`` split carries the ``!=`` constraint's mask; UNSAT
is the OR over all leaves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import BudgetExhausted, Result
from .linearize import LinAtom, LinExpr, Rational, exact
from .terms import Div, IntConst, Mod, Mul, Term, Var

# Constraint kinds after normalisation.
EQ = "eq"  # expr  = 0
LE = "le"  # expr <= 0
NE = "ne"  # expr != 0


@dataclass(frozen=True)
class Constraint:
    """A normalised arithmetic literal ``expr (kind) 0``."""

    expr: LinExpr
    kind: str

    def __repr__(self) -> str:
        sym = {EQ: "=", LE: "<=", NE: "!="}[self.kind]
        return f"{self.expr!r} {sym} 0"


def normalize(expr: LinExpr, kind: str, *, strict: bool = False) -> Constraint:
    """Normalise to integer coefficients; fold strictness into the constant.

    For integer-valued atoms, ``e < 0`` is ``e + 1 <= 0`` once ``e`` has
    integer coefficients, and ``a_i x_i <= b`` tightens to
    ``(a_i/g) x_i <= floor(b/g)`` for ``g = gcd(a_i)``.
    """
    e = expr.scale(
        math.lcm(*(c.denominator for _, c in expr.coeffs), expr.const.denominator)
    )
    if strict:
        if kind != LE:
            raise ValueError("strictness only applies to inequalities")
        e = LinExpr(e.coeffs, e.const + 1)
    if not e.coeffs:
        return Constraint(e, kind)
    g = math.gcd(*(c for _, c in e.coeffs))
    if g > 1:
        if kind == LE:
            # e.const = -b, so the new constant is -floor(b/g) = ceil(-b/g).
            const = -(-e.const // g)
        elif e.const % g != 0:
            # gcd does not divide the constant: eq is UNSAT, ne is valid.
            # ``1 = 0`` / ``1 != 0`` encode exactly that.
            return Constraint(LinExpr.constant(1), kind)
        else:
            const = e.const // g
        e = LinExpr(tuple((a, c // g) for a, c in e.coeffs), const)
    return Constraint(e, kind)


@dataclass
class LiaResult:
    """Outcome of a conjunction solve; UNSAT carries its explanation."""

    status: Result
    model: Optional[dict[LinAtom, int]] = None
    core: frozenset[Constraint] = frozenset()


class _Refuted(Exception):
    """A derived contradiction; bit ``i`` of ``mask``: input ``i`` was used."""

    def __init__(self, mask: int) -> None:
        self.mask = mask


class LiaSolver:
    """Decision procedure for conjunctions of integer linear literals.

    Parameters
    ----------
    branch_budget:
        Maximum number of branch-and-bound / disequality splits explored.
    enum_budget:
        Maximum number of assignments tried for nonlinear variables.
    enum_range:
        Half-width of the base enumeration window for nonlinear variables.

    Every call is decided from scratch, so every UNSAT answer carries a
    derivation of its own.  A solver serves one check, and each DPLL(T)
    round of that check poses an assignment the earlier rounds' blocking
    clauses left open, so there is no repeat worth remembering.
    """

    def __init__(
        self,
        branch_budget: int = 2000,
        enum_budget: int = 20000,
        enum_range: int = 12,
    ) -> None:
        self.branch_budget = branch_budget
        self.enum_budget = enum_budget
        self.enum_range = enum_range

    # -- public entry --------------------------------------------------

    def solve(self, constraints: Sequence[Constraint]) -> LiaResult:
        """Decide a conjunction; model covers every atom mentioned."""
        cons = list(constraints)
        try:
            model = self._solve_propagated(
                *_propagate_constants(cons, [1 << i for i in range(len(cons))])
            )
        except BudgetExhausted:
            return LiaResult(Result.UNKNOWN)
        except _Refuted as refuted:
            core = frozenset(c for i, c in enumerate(cons) if refuted.mask >> i & 1)
            return LiaResult(Result.UNSAT, core=core)
        return LiaResult(Result.SAT, model)

    # -- nonlinear layer -------------------------------------------------

    def _solve_propagated(
        self,
        constraints: list[Constraint],
        masks: list[int],
        pinned: dict[LinAtom, int],
    ) -> dict[LinAtom, int]:
        """Solve a conjunction already through ``_propagate_constants``."""
        nonlin_vars = _nonlinear_vars(constraints)
        if not nonlin_vars:
            model = self._solve_linear(constraints, masks, self.branch_budget)
            model.update(pinned)
            return _complete_products(model)

        # Bounded fair enumeration over the nonlinear variables.
        ordered = sorted(nonlin_vars, key=lambda v: v.name)
        seeds = _seed_values(constraints, self.enum_range)
        tried = 0
        for values in itertools.product(seeds, repeat=len(ordered)):
            tried += 1
            if tried > self.enum_budget:
                raise BudgetExhausted("nonlinear enumeration budget")
            subst = dict(zip(ordered, values))
            try:  # a failed assignment is skipped: its masks go unreported
                reduced, reduced_masks, more_pinned = _propagate_constants(
                    _substitute_all(constraints, subst), masks
                )
                if _nonlinear_vars(reduced):
                    continue  # substitution did not fully linearise; try next
                model = self._solve_linear(
                    reduced, reduced_masks, max(self.branch_budget // 10, 50)
                )
            except _Refuted:
                continue
            model.update(pinned)
            model.update(more_pinned)
            for v, val in subst.items():
                model[v] = val
            return _complete_products(model)
        raise BudgetExhausted("nonlinear enumeration exhausted")

    # -- linear layer ------------------------------------------------------

    def _solve_linear(
        self, constraints: list[Constraint], masks: list[int], budget: int
    ) -> dict[LinAtom, int]:
        """Branch-and-bound around the rational relaxation; UNSAT raises
        ``_Refuted`` with the OR of every leaf's mask."""
        stack = [(constraints, masks)]
        spent = 0
        support = 0
        while stack:
            cons, ms = stack.pop()
            spent += 1
            if spent > budget:
                raise BudgetExhausted("branch-and-bound budget")
            try:
                rat = _solve_rational(cons, ms)
            except _Refuted as refuted:
                support |= refuted.mask
                continue
            # Repair a fractional assignment first.
            frac = next(
                (a for a, v in rat.items() if v.denominator != 1), None
            )
            if frac is not None:
                v = rat[frac]
                below = LinExpr.atom(frac).add(
                    LinExpr.constant(-math.floor(v))
                )
                above = LinExpr.atom(frac, -1).add(
                    LinExpr.constant(math.ceil(v))
                )
                stack.append((cons + [normalize(below, LE)], ms + [0]))
                stack.append((cons + [normalize(above, LE)], ms + [0]))
                continue
            int_model = rat  # integral values are ints (see LinExpr)
            # Repair a violated disequality.
            bad = next(
                (
                    i
                    for i, c in enumerate(cons)
                    if c.kind == NE and _eval_lin(c.expr, int_model) == 0
                ),
                None,
            )
            if bad is not None:
                expr, why = cons[bad].expr, [ms[bad]]
                lo = expr.add(LinExpr.constant(1))  # expr <= -1
                hi = expr.scale(-1).add(LinExpr.constant(1))  # expr >= 1
                stack.append((cons + [normalize(lo, LE)], ms + why))
                stack.append((cons + [normalize(hi, LE)], ms + why))
                continue
            return int_model
        raise _Refuted(support)


# ---------------------------------------------------------------------------
# Rational relaxation: Gaussian elimination + Fourier–Motzkin
# ---------------------------------------------------------------------------


#: An elimination row: an expression and the mask of the inputs it came from.
_Row = tuple[LinExpr, int]


def _solve_rational(
    constraints: list[Constraint], masks: list[int]
) -> dict[LinAtom, Rational]:
    """Satisfy the eq/le constraints over the rationals, ignoring ne
    (handled by splitting in the caller).  Returns an assignment for every
    atom mentioned; raises ``_Refuted`` with the support of the derived
    contradiction if infeasible (``masks[i]`` is ``constraints[i]``'s)."""
    eqs = [(c.expr, m) for c, m in zip(constraints, masks) if c.kind == EQ]
    les = [(c.expr, m) for c, m in zip(constraints, masks) if c.kind == LE]
    all_atoms: set[LinAtom] = set()
    for c in constraints:
        all_atoms |= c.expr.atoms()

    # Gaussian elimination of equalities.
    substitutions: list[tuple[LinAtom, LinExpr]] = []
    while eqs:
        e, m = eqs.pop()
        if e.is_constant:
            if e.const != 0:
                raise _Refuted(m)
            continue
        atom, coeff = e.coeffs[0]
        # atom = -(e - coeff*atom)/coeff
        repl = e.drop(atom).scale(_neg_recip(coeff))
        substitutions.append((atom, repl))
        eqs = [_substitute_row(row, atom, repl, m) for row in eqs]
        les = [_substitute_row(row, atom, repl, m) for row in les]

    # Fourier–Motzkin elimination with recorded stages.
    les = [(e, m) for e, m in les if not (e.is_constant and e.const <= 0)]
    for e, m in les:
        if e.is_constant and e.const > 0:
            raise _Refuted(m)
    stages: list[tuple[LinAtom, list[_Row], list[_Row]]] = []
    remaining = [(e, m) for e, m in les if not e.is_constant]

    def pick_var(rows: list[_Row]) -> LinAtom:
        counts: dict[LinAtom, tuple[int, int]] = {}
        for e, _ in rows:
            for a, c in e.coeffs:
                lo, hi = counts.get(a, (0, 0))
                if c < 0:
                    counts[a] = (lo + 1, hi)
                else:
                    counts[a] = (lo, hi + 1)
        # Minimise the number of generated combinations (lo*hi).
        return min(counts, key=lambda a: counts[a][0] * counts[a][1])

    while remaining:
        x = pick_var(remaining)
        lowers: list[_Row] = []  # x >= expr
        uppers: list[_Row] = []  # x <= expr
        others: list[_Row] = []
        for e, m in remaining:
            c = e.coeff_of(x)
            if c == 0:
                others.append((e, m))
                continue
            rest = e.drop(x).scale(_neg_recip(c))
            if c > 0:
                uppers.append((rest, m))  # c*x + rest' <= 0  =>  x <= rest
            else:
                lowers.append((rest, m))
        stages.append((x, lowers, uppers))
        for lo, lo_mask in lowers:
            for up, up_mask in uppers:
                combo = lo.sub(up)  # lo <= x <= up  =>  lo - up <= 0
                if combo.is_constant:
                    if combo.const > 0:
                        raise _Refuted(lo_mask | up_mask)
                else:
                    others.append((combo, lo_mask | up_mask))
        remaining = others

    # Back-substitution: assign eliminated variables innermost-first.
    assignment: dict[LinAtom, Rational] = {}
    for x, lowers, uppers in reversed(stages):
        lb = max((_eval_lin(e, assignment) for e, _ in lowers), default=None)
        ub = min((_eval_lin(e, assignment) for e, _ in uppers), default=None)
        assignment[x] = _pick_value(lb, ub)

    # Any atom not touched by inequalities is free: pick 0.
    for a in all_atoms:
        if a not in assignment and not any(a == s for s, _ in substitutions):
            assignment[a] = 0

    # Unwind equality substitutions.
    for atom, repl in reversed(substitutions):
        assignment[atom] = _eval_lin(repl, assignment)

    return assignment


def _substitute_row(row: _Row, atom: LinAtom, repl: LinExpr, mask: int) -> _Row:
    """A Gaussian step on one row; ORs in ``mask`` iff it contains ``atom``."""
    e, m = row
    out = e.substitute(atom, repl)
    return row if out is e else (out, m | mask)


def _neg_recip(c: Rational) -> Rational:
    """``-1/c``, exactly: an ``int`` when integral, else a ``Fraction``."""
    if c == 1:
        return -1
    if c == -1:
        return 1
    return exact(Fraction(-1, c))


def _pick_value(lb: Optional[Rational], ub: Optional[Rational]) -> Rational:
    """A value in [lb, ub], preferring integers, preferring small ones."""
    if lb is None and ub is None:
        return 0
    if lb is None:
        assert ub is not None
        return min(0, math.floor(ub))
    if ub is None:
        return max(0, math.ceil(lb))
    if lb > ub:  # pragma: no cover - FM guarantees feasibility
        raise AssertionError("FM produced an empty interval")
    if lb <= 0 <= ub:
        return 0
    candidate = math.ceil(lb)
    if candidate <= ub:
        return candidate
    # No integer inside: fractional, B&B will repair.
    return Fraction(lb + ub, 2)


# ---------------------------------------------------------------------------
# Helpers: evaluation, constant propagation, nonlinear support
# ---------------------------------------------------------------------------


def _eval_lin(e: LinExpr, env: dict[LinAtom, Rational]) -> Rational:
    """``e`` under ``env`` (absent atoms are 0), exactly."""
    total = e.const
    for a, c in e.coeffs:
        total += c * env.get(a, 0)
    return exact(total)


def _propagate_constants(
    constraints: list[Constraint], masks: list[int]
) -> tuple[list[Constraint], list[int], dict[LinAtom, int]]:
    """Repeatedly pin *variables* forced to a constant by a unary equality
    and fold nonlinear product atoms whose factors become known.

    Only plain variables are ever pinned: pinning a product atom would
    silently decouple it from its factors and make SAT answers unsound.

    Returns (constraints', masks', pinned); raises ``_Refuted`` on a
    direct contradiction.
    """
    pinned: dict[LinAtom, int] = {}
    why: dict[LinAtom, int] = {}  # the mask behind each pin
    cons, ms = list(constraints), list(masks)
    for _round in range(len(constraints) + 8):
        progress = False
        out: list[Constraint] = []
        out_masks: list[int] = []
        for c, m in zip(cons, ms):
            e = c.expr
            if e.is_constant:
                v = e.const
                ok = (
                    (c.kind == EQ and v == 0)
                    or (c.kind == LE and v <= 0)
                    or (c.kind == NE and v != 0)
                )
                if not ok:
                    raise _Refuted(m)
                progress = True
                continue
            if c.kind == EQ and len(e.coeffs) == 1:
                atom, coeff = e.coeffs[0]
                value, rem = divmod(-e.const, coeff)
                if rem:
                    raise _Refuted(m)
                if isinstance(atom, Var):
                    prev = pinned.get(atom)
                    if prev is not None and prev != value:
                        raise _Refuted(m | why[atom])
                    pinned[atom] = value
                    why.setdefault(atom, m)
                    progress = True
                    continue
            out.append(c)
            out_masks.append(m)
        if not progress:
            return out, out_masks, pinned
        cons = [
            Constraint(_fold_products(_pin_values(c.expr, pinned), pinned), c.kind)
            for c in out
        ]
        ms = [m | _pin_support(c.expr, why) for c, m in zip(out, out_masks)]
    return cons, ms, pinned


def _pin_support(e: LinExpr, why: dict[LinAtom, int]) -> int:
    """The OR of the pin masks of ``e``'s atoms and product factors."""
    mask = 0
    for a, _ in e.coeffs:
        m = why.get(a)
        if m is not None:
            mask |= m
        elif isinstance(a, Mul):
            for f in a.args:
                mask |= why.get(f, 0)
    return mask


def _pin_values(e: LinExpr, values: dict) -> LinExpr:
    """``e`` with every atom in ``values`` replaced by its value.

    Equal to substituting each pinned atom in turn, but it looks only at
    the atoms ``e`` contains and builds one expression."""
    if not any(a in values for a, _ in e.coeffs):
        return e
    rest = []
    const = e.const
    for a, c in e.coeffs:
        val = values.get(a)
        if val is None:
            rest.append((a, c))
        else:
            const += c * val
    return LinExpr(tuple(rest), exact(const))


def _fold_products(e: LinExpr, pinned: dict[LinAtom, int]) -> LinExpr:
    """Linearise product atoms whose factors are (now) known."""
    result = e
    for atom in list(e.atoms()):
        if not isinstance(atom, Mul):
            continue
        const = 1
        unknown: list[Term] = []
        for factor in atom.args:
            if isinstance(factor, IntConst):
                const *= factor.value
            elif factor in pinned:
                const *= pinned[factor]
            else:
                unknown.append(factor)
        if len(unknown) == 0:
            result = result.substitute(atom, LinExpr.constant(const))
        elif len(unknown) == 1:
            result = result.substitute(
                atom, LinExpr.atom(unknown[0], const)
            )
    return result


def _nonlinear_vars(constraints: list[Constraint]) -> set[Var]:
    """Variables occurring inside product atoms."""
    out: set[Var] = set()
    for c in constraints:
        for a in c.expr.atoms():
            if isinstance(a, Mul):
                for f in a.args:
                    if isinstance(f, Var):
                        out.add(f)
                    elif isinstance(f, (Div, Mod)):  # pragma: no cover
                        raise AssertionError(
                            "div/mod must be axiomatised before LIA"
                        )
    return out


def _substitute_all(
    constraints: list[Constraint], subst: dict[Var, int]
) -> list[Constraint]:
    return [
        Constraint(_fold_products(_pin_values(c.expr, subst), subst), c.kind)
        for c in constraints
    ]


def _seed_values(constraints: list[Constraint], half_width: int) -> list[int]:
    """Fair enumeration order for nonlinear variables: small magnitudes
    first, then constants (and neighbours) appearing in the problem."""
    base: list[int] = [0]
    for k in range(1, half_width + 1):
        base.extend((k, -k))
    extra: set[int] = set()
    for c in constraints:
        k = c.expr.const
        if k.denominator == 1:
            for delta in (-1, 0, 1):
                extra.add(int(k) + delta)
                extra.add(-int(k) + delta)
    ordered = base + sorted(v for v in extra if abs(v) > half_width)
    seen: set[int] = set()
    out: list[int] = []
    for v in ordered:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def _complete_products(model: dict[LinAtom, int]) -> dict[LinAtom, int]:
    """Strip non-variable atoms from the model, keeping the pure variable
    assignment.  Product atoms are fully determined by their factors at
    this point (they were either folded away or their variables enumerated),
    so dropping them loses no information."""
    return {a: v for a, v in model.items() if isinstance(a, Var)}
