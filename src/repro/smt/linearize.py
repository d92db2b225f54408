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


@dataclass(frozen=True)
class LinExpr:
    """``const + sum(coeffs[a] * a)`` with rational coefficients.

    Immutable; arithmetic helpers return new instances.  Coefficient maps
    never contain zero entries.
    """

    coeffs: tuple[tuple[LinAtom, Fraction], ...]
    const: Fraction

    # -- construction ------------------------------------------------------

    @staticmethod
    def constant(value: Union[int, Fraction]) -> "LinExpr":
        return LinExpr((), Fraction(value))

    @staticmethod
    def atom(a: LinAtom, coeff: Union[int, Fraction] = 1) -> "LinExpr":
        c = Fraction(coeff)
        if c == 0:
            return LinExpr.constant(0)
        return LinExpr(((a, c),), Fraction(0))

    @staticmethod
    def from_dict(coeffs: dict[LinAtom, Fraction], const: Fraction) -> "LinExpr":
        items = tuple(
            sorted(
                ((a, c) for a, c in coeffs.items() if c != 0),
                key=lambda ac: repr(ac[0]),
            )
        )
        return LinExpr(items, const)

    # -- queries -----------------------------------------------------------

    def as_dict(self) -> dict[LinAtom, Fraction]:
        return dict(self.coeffs)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def atoms(self) -> set[LinAtom]:
        return {a for a, _ in self.coeffs}

    def coeff_of(self, a: LinAtom) -> Fraction:
        for atom, c in self.coeffs:
            if atom == a:
                return c
        return Fraction(0)

    # -- arithmetic --------------------------------------------------------

    def add(self, other: "LinExpr") -> "LinExpr":
        d = self.as_dict()
        for a, c in other.coeffs:
            d[a] = d.get(a, Fraction(0)) + c
        return LinExpr.from_dict(d, self.const + other.const)

    def scale(self, k: Union[int, Fraction]) -> "LinExpr":
        k = Fraction(k)
        if k == 0:
            return LinExpr.constant(0)
        return LinExpr.from_dict(
            {a: c * k for a, c in self.coeffs}, self.const * k
        )

    def sub(self, other: "LinExpr") -> "LinExpr":
        return self.add(other.scale(-1))

    def substitute(self, a: LinAtom, repl: "LinExpr") -> "LinExpr":
        """Replace atom ``a`` with expression ``repl``."""
        c = self.coeff_of(a)
        if c == 0:
            return self
        d = self.as_dict()
        del d[a]
        return LinExpr.from_dict(d, self.const).add(repl.scale(c))

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
        const_factor = Fraction(1)
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
        return LinExpr.atom(t, const_factor) if const_factor != 1 else LinExpr.atom(t)
    if isinstance(t, (Div, Mod)):
        return LinExpr.atom(t)
    raise TypeError(f"cannot linearize {t!r}")
