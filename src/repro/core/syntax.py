"""Syntax of Symbolic PCF (SPCF) — paper Fig. 1.

SPCF is simply-typed PCF extended with *opaque* values ``•T`` standing for
unknown-but-fixed closed values of type ``T``.  Expressions carry labels:

* every opaque value has a unique label identifying its source position;
* every primitive application has a unique label used for blame in error
  answers ``errLO`` (the label is semantically load-bearing: soundness and
  completeness are stated per known-code label, §3.6).

The machine works over *heap locations*; ``Loc`` and ``Err`` are the
internal answer forms unavailable to source programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Type:
    def __post_init__(self) -> None:  # pragma: no cover - abstract guard
        if type(self) is Type:
            raise TypeError("Type is abstract")


@dataclass(frozen=True)
class NatType(Type):
    """The base type of numbers.

    The paper calls it ``nat``; following its own SMT encoding (§2 emits
    ``declare-const ... Int``) the semantic domain here is ℤ.
    """

    def __repr__(self) -> str:
        return "nat"


@dataclass(frozen=True)
class FunType(Type):
    dom: Type
    rng: Type

    def __repr__(self) -> str:
        return f"({self.dom!r} -> {self.rng!r})"


NAT = NatType()


def fun(*types: Type) -> Type:
    """Right-associated function type: fun(a, b, c) = a -> (b -> c)."""
    if not types:
        raise ValueError("fun() needs at least one type")
    result = types[-1]
    for t in reversed(types[:-1]):
        result = FunType(t, result)
    return result


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    def __post_init__(self) -> None:  # pragma: no cover - abstract guard
        if type(self) is Expr:
            raise TypeError("Expr is abstract")


@dataclass(frozen=True)
class Num(Expr):
    value: int

    def __repr__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Ref(Expr):
    """Variable reference."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Lam(Expr):
    var: str
    var_type: Type
    body: Expr

    def __repr__(self) -> str:
        return f"(λ ({self.var} : {self.var_type!r}) {self.body!r})"


@dataclass(frozen=True)
class App(Expr):
    fn: Expr
    arg: Expr

    def __repr__(self) -> str:
        return f"({self.fn!r} {self.arg!r})"


@dataclass(frozen=True)
class If(Expr):
    """PCF conditional: the then-branch is taken when the test is nonzero."""

    test: Expr
    then: Expr
    orelse: Expr

    def __repr__(self) -> str:
        return f"(if {self.test!r} {self.then!r} {self.orelse!r})"


@dataclass(frozen=True)
class PrimApp(Expr):
    """Application of a primitive operation, labelled for blame."""

    op: str
    args: tuple[Expr, ...]
    label: str

    def __repr__(self) -> str:
        return f"({self.op} " + " ".join(map(repr, self.args)) + f")^{self.label}"


@dataclass(frozen=True)
class Fix(Expr):
    """Recursion: ``Fix(x, T, e)`` unfolds to ``e[Fix(x,T,e)/x]``."""

    var: str
    var_type: Type
    body: Expr

    def __repr__(self) -> str:
        return f"(μ ({self.var} : {self.var_type!r}) {self.body!r})"


@dataclass(frozen=True)
class Opq(Expr):
    """An opaque value ``•T`` with its source label."""

    type: Type
    label: str

    def __repr__(self) -> str:
        return f"•{self.type!r}^{self.label}"


@dataclass(frozen=True)
class Loc(Expr):
    """A heap location — an internal answer form."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Err(Expr):
    """Error answer blaming label ``label`` for violating ``op``'s
    precondition."""

    label: str
    op: str

    def __repr__(self) -> str:
        return f"err^{self.label}_{self.op}"


Answer = Union[Loc, Err]


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def opq(t: Type, label: str) -> Opq:
    return Opq(t, label)


def prim(op: str, *args: Expr, label: str) -> PrimApp:
    return PrimApp(op, tuple(args), label)


def num(n: int) -> Num:
    return Num(n)


def lam(var: str, var_type: Type, body: Expr) -> Lam:
    return Lam(var, var_type, body)


def app(fn: Expr, *args: Expr) -> Expr:
    out = fn
    for a in args:
        out = App(out, a)
    return out


# ---------------------------------------------------------------------------
# Substitution and traversal
# ---------------------------------------------------------------------------


def subst(e: Expr, name: str, replacement: Expr) -> Expr:
    """Capture-avoiding substitution ``e[replacement/name]``.

    Replacements are locations or closed expressions throughout the
    machine, so capture can only occur through shadowing, which the
    binder checks handle.
    """
    if isinstance(e, Ref):
        return replacement if e.name == name else e
    if isinstance(e, (Num, Opq, Loc, Err)):
        return e
    if isinstance(e, Lam):
        if e.var == name:
            return e
        return Lam(e.var, e.var_type, subst(e.body, name, replacement))
    if isinstance(e, Fix):
        if e.var == name:
            return e
        return Fix(e.var, e.var_type, subst(e.body, name, replacement))
    if isinstance(e, App):
        return App(subst(e.fn, name, replacement), subst(e.arg, name, replacement))
    if isinstance(e, If):
        return If(
            subst(e.test, name, replacement),
            subst(e.then, name, replacement),
            subst(e.orelse, name, replacement),
        )
    if isinstance(e, PrimApp):
        return PrimApp(
            e.op, tuple(subst(a, name, replacement) for a in e.args), e.label
        )
    raise TypeError(f"cannot substitute into {e!r}")


#: The empty environment.  Environments are plain dicts that are never
#: mutated once built, so closures may share them.
EMPTY_ENV: dict = {}


def subst_env(e: Expr, env: dict) -> Expr:
    """Simultaneous substitution ``e[env]``: the term that the closure
    ``(e, env)`` of an environment machine denotes.

    ``env`` maps a variable to a location or to a ``(Fix, env')`` pair,
    the recursive closure a ``Fix`` unfolding binds, which denotes
    ``subst_env(Fix, env')``.  Every replacement is closed, so binders
    can only shadow, and the result equals one ``subst`` per binding in
    any order.
    """
    if not env:
        return e
    cls = e.__class__
    if cls is Ref:
        v = env.get(e.name)
        if v is None:
            return e
        if v.__class__ is Loc:
            return v
        return subst_env(v[0], v[1])
    if cls is App:
        return App(subst_env(e.fn, env), subst_env(e.arg, env))
    if cls is PrimApp:
        return PrimApp(e.op, tuple([subst_env(a, env) for a in e.args]),
                       e.label)
    if cls is If:
        return If(subst_env(e.test, env), subst_env(e.then, env),
                  subst_env(e.orelse, env))
    if cls is Lam or cls is Fix:
        if e.var in env:
            env = {k: v for k, v in env.items() if k != e.var}
            if not env:
                return e
        return cls(e.var, e.var_type, subst_env(e.body, env))
    if cls is Num or cls is Loc or cls is Opq or cls is Err:
        return e
    raise TypeError(f"cannot substitute into {e!r}")


def subexprs(e: Expr) -> Iterator[Expr]:
    """All subexpressions, pre-order."""
    yield e
    if isinstance(e, (Lam, Fix)):
        yield from subexprs(e.body)
    elif isinstance(e, App):
        yield from subexprs(e.fn)
        yield from subexprs(e.arg)
    elif isinstance(e, If):
        yield from subexprs(e.test)
        yield from subexprs(e.then)
        yield from subexprs(e.orelse)
    elif isinstance(e, PrimApp):
        for a in e.args:
            yield from subexprs(a)


def free_refs(e: Expr) -> set[str]:
    """Free variable names of ``e``."""
    if isinstance(e, Ref):
        return {e.name}
    if isinstance(e, (Num, Opq, Loc, Err)):
        return set()
    if isinstance(e, (Lam, Fix)):
        return free_refs(e.body) - {e.var}
    if isinstance(e, App):
        return free_refs(e.fn) | free_refs(e.arg)
    if isinstance(e, If):
        return free_refs(e.test) | free_refs(e.then) | free_refs(e.orelse)
    if isinstance(e, PrimApp):
        out: set[str] = set()
        for a in e.args:
            out |= free_refs(a)
        return out
    raise TypeError(f"no free_refs for {e!r}")


def known_labels(e: Expr) -> set[str]:
    """The labels of the *known program portion* — every primitive
    application site in ``e`` (metafunction ``lab`` of Fig. 6, restricted
    to source expressions)."""
    return {s.label for s in subexprs(e) if isinstance(s, PrimApp)}


def opaque_labels(e: Expr) -> set[str]:
    """Labels of the opaque values in ``e`` (the unknowns to solve for)."""
    return {s.label for s in subexprs(e) if isinstance(s, Opq)}
