"""Linear-form extraction.

Converts integer terms into :class:`LinExpr` — a sparse linear combination
of *atoms* (variables and irreducible opaque subterms such as uninterpreted
applications, divisions, and nonlinear products) plus a rational constant.
The LIA theory solver works over LinExprs; whatever cannot be expressed
linearly is kept as an opaque atom and resolved by constant propagation or
bounded search (see ``smt.lia``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .terms import Add, Div, IntConst, Mod, Mul, Term, Var

# Atoms of a linear expression: variables, or opaque irreducible terms.
LinAtom = Term

#: An exact rational: an ``int`` whenever it is integral, a ``Fraction``
#: only when it is not.
Rational = Union[int, Fraction]


def exact(q: Rational) -> Rational:
    """``q``, with an integral ``Fraction`` narrowed to its ``int``."""
    if type(q) is Fraction and q.denominator == 1:
        return q.numerator
    return q


def _atom_order(item: tuple[LinAtom, Rational]) -> str:
    return item[0].sort_key()


@dataclass(frozen=True)
class LinExpr:
    """``const + sum(coeffs[a] * a)`` with exact rational coefficients.

    Immutable; arithmetic helpers return new instances.  Coefficient maps
    never contain zero entries, and are ordered by the atoms' printed
    form.  Every coefficient and the constant is an ``int`` when it is
    integral and a ``Fraction`` only when it is not (see :func:`exact`):
    the forms ``linearize`` builds and the normalised constraints of
    ``smt.lia`` are all-``int``, and only the rational relaxation's
    ``-1/c`` scalings make fractions.  No value is ever a ``float``.
    """

    coeffs: tuple[tuple[LinAtom, Rational], ...]
    const: Rational

    # -- construction ------------------------------------------------------

    @staticmethod
    def constant(value: Rational) -> "LinExpr":
        return LinExpr((), exact(value))

    @staticmethod
    def atom(a: LinAtom, coeff: Rational = 1) -> "LinExpr":
        c = exact(coeff)
        if c == 0:
            return LinExpr((), 0)
        return LinExpr(((a, c),), 0)

    @staticmethod
    def from_dict(coeffs: dict[LinAtom, Rational], const: Rational) -> "LinExpr":
        items = []
        for a, c in coeffs.items():
            if c != 0:
                items.append((a, exact(c)))
        if len(items) > 1:
            items.sort(key=_atom_order)
        return LinExpr(tuple(items), exact(const))

    # -- queries -----------------------------------------------------------

    def as_dict(self) -> dict[LinAtom, Rational]:
        return dict(self.coeffs)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def atoms(self) -> set[LinAtom]:
        return {a for a, _ in self.coeffs}

    def coeff_of(self, a: LinAtom) -> Rational:
        for atom, c in self.coeffs:
            if atom == a:
                return c
        return 0

    # -- arithmetic --------------------------------------------------------

    def add(self, other: "LinExpr") -> "LinExpr":
        d = dict(self.coeffs)
        for a, c in other.coeffs:
            d[a] = d.get(a, 0) + c
        return LinExpr.from_dict(d, self.const + other.const)

    def scale(self, k: Rational) -> "LinExpr":
        k = exact(k)
        if k == 0:
            return LinExpr((), 0)
        if k == 1:
            return self
        # A nonzero factor keeps every atom and the order.
        return LinExpr(
            tuple((a, exact(c * k)) for a, c in self.coeffs),
            exact(self.const * k),
        )

    def sub(self, other: "LinExpr") -> "LinExpr":
        d = dict(self.coeffs)
        for a, c in other.coeffs:
            d[a] = d.get(a, 0) - c
        return LinExpr.from_dict(d, self.const - other.const)

    def drop(self, a: LinAtom) -> "LinExpr":
        """``self`` without its ``a`` term (``a`` replaced by 0)."""
        return LinExpr(
            tuple(item for item in self.coeffs if item[0] != a), self.const
        )

    def substitute(self, a: LinAtom, repl: "LinExpr") -> "LinExpr":
        """Replace atom ``a`` with expression ``repl``."""
        c = self.coeff_of(a)
        if c == 0:
            return self
        return self.drop(a).add(repl.scale(c))

    def __repr__(self) -> str:
        parts = [f"{c}*{a!r}" for a, c in self.coeffs]
        parts.append(str(self.const))
        return " + ".join(parts)


def linearize(t: Term) -> LinExpr:
    """Extract the linear form of ``t``.

    Products with at most one non-constant factor distribute; products of
    two or more non-constant factors, and div/mod terms, become opaque
    atoms (the nonlinear residue handled downstream).
    """
    if isinstance(t, IntConst):
        return LinExpr.constant(t.value)
    if isinstance(t, Var):
        return LinExpr.atom(t)
    if isinstance(t, Add):
        acc = LinExpr.constant(0)
        for a in t.args:
            acc = acc.add(linearize(a))
        return acc
    if isinstance(t, Mul):
        linear_parts = [linearize(a) for a in t.args]
        const_factor = 1
        non_const: list[LinExpr] = []
        for le in linear_parts:
            if le.is_constant:
                const_factor *= le.const
            else:
                non_const.append(le)
        if const_factor == 0:
            return LinExpr.constant(0)
        if not non_const:
            return LinExpr.constant(const_factor)
        if len(non_const) == 1:
            return non_const[0].scale(const_factor)
        # Genuinely nonlinear: keep the original product as an opaque atom.
        return LinExpr.atom(t, const_factor)
    if isinstance(t, (Div, Mod)):
        return LinExpr.atom(t)
    raise TypeError(f"cannot linearize {t!r}")
