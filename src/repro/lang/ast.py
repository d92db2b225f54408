"""Core AST of the untyped Racket subset.

The parser (``lang.parser``) desugars surface forms (``define``,
``cond``, ``let``, ``and``/``or``...) into this small core:

* literals (``Quote``), variables, lambdas, applications;
* ``If``, ``Begin``, ``Letrec`` (for mutual recursion), ``SetBang``;
* ``OpaqueExpr`` — the untyped ``•`` of §4, labelled;
* primitive applications are ordinary ``App`` of primitive *variables*
  (resolved by the interpreters' global environment), but partial
  primitives get blame labels through the surrounding ``App``'s label.

Every application and opaque carries a label for blame, mirroring SPCF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


def reset_labels() -> None:
    """A no-op, kept only because the benchmark harness imports it.

    Labels are minted per parse (every ``lang.parser`` call numbers from
    0), so there is no process-wide counter left to restart."""


@dataclass(frozen=True)
class UExpr:
    def __post_init__(self) -> None:  # pragma: no cover - abstract guard
        if type(self) is UExpr:
            raise TypeError("UExpr is abstract")


@dataclass(frozen=True)
class Quote(UExpr):
    """A self-evaluating or quoted datum (numbers, booleans, strings,
    symbols, and quoted lists)."""

    datum: object

    def __repr__(self) -> str:
        return f"'{self.datum!r}"


@dataclass(frozen=True)
class UVar(UExpr):
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ULam(UExpr):
    params: tuple[str, ...]
    body: "UExpr"
    name: Optional[str] = None  # for error messages / recursion display

    def __repr__(self) -> str:
        return f"(λ ({' '.join(self.params)}) {self.body!r})"


@dataclass(frozen=True)
class UApp(UExpr):
    fn: "UExpr"
    args: tuple["UExpr", ...]
    label: str = ""

    def __repr__(self) -> str:
        return f"({self.fn!r} " + " ".join(map(repr, self.args)) + ")"


@dataclass(frozen=True)
class UIf(UExpr):
    test: "UExpr"
    then: "UExpr"
    orelse: "UExpr"

    def __repr__(self) -> str:
        return f"(if {self.test!r} {self.then!r} {self.orelse!r})"


@dataclass(frozen=True)
class UBegin(UExpr):
    exprs: tuple["UExpr", ...]

    def __repr__(self) -> str:
        return "(begin " + " ".join(map(repr, self.exprs)) + ")"


@dataclass(frozen=True)
class ULetrec(UExpr):
    bindings: tuple[tuple[str, "UExpr"], ...]
    body: "UExpr"

    def __repr__(self) -> str:
        bs = " ".join(f"[{n} {e!r}]" for n, e in self.bindings)
        return f"(letrec ({bs}) {self.body!r})"


@dataclass(frozen=True)
class USet(UExpr):
    name: str
    value: "UExpr"

    def __repr__(self) -> str:
        return f"(set! {self.name} {self.value!r})"


@dataclass(frozen=True)
class UOpaque(UExpr):
    """The untyped unknown ``•`` — optionally constrained by a contract
    expression (evaluated at monitor time)."""

    label: str

    def __repr__(self) -> str:
        return f"•^{self.label}"


# ---------------------------------------------------------------------------
# Module-level forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructDef:
    """``(struct name (field ...))`` — generates constructor, predicate
    and accessors in the module environment."""

    name: str
    fields: tuple[str, ...]


@dataclass(frozen=True)
class Provide:
    """One ``(provide [name contract-expr])`` entry; the contract
    expression is unevaluated core AST (contracts are first-class)."""

    name: str
    contract: Optional[UExpr]  # None = provide without contract


@dataclass(frozen=True)
class Module:
    """A module: struct definitions, value definitions (letrec* scope),
    opaque definitions (unknown imports), and provides."""

    name: str
    structs: tuple[StructDef, ...]
    definitions: tuple[tuple[str, UExpr], ...]
    opaques: tuple[tuple[str, Optional[UExpr]], ...]  # (name, contract)
    provides: tuple[Provide, ...]


@dataclass(frozen=True)
class Program:
    """Modules plus an optional top-level expression to run.

    ``label_end`` is where the parse's label counter stopped: a label
    minted later for this program (lowering, raised counterexample
    values) numbers from there, so it never collides with a parsed one.
    It is parse metadata, like the labels (``pretty.strip_program``
    erases it)."""

    modules: tuple[Module, ...]
    main: Optional[UExpr]
    label_end: int = 0


def subexprs_u(e: UExpr):
    """All subexpressions, pre-order."""
    yield e
    if isinstance(e, ULam):
        yield from subexprs_u(e.body)
    elif isinstance(e, UApp):
        yield from subexprs_u(e.fn)
        for a in e.args:
            yield from subexprs_u(a)
    elif isinstance(e, UIf):
        yield from subexprs_u(e.test)
        yield from subexprs_u(e.then)
        yield from subexprs_u(e.orelse)
    elif isinstance(e, UBegin):
        for a in e.exprs:
            yield from subexprs_u(a)
    elif isinstance(e, ULetrec):
        for _, b in e.bindings:
            yield from subexprs_u(b)
        yield from subexprs_u(e.body)
    elif isinstance(e, USet):
        yield from subexprs_u(e.value)


def free_vars(e: UExpr, bound: frozenset[str] = frozenset()) -> set[str]:
    """Variable names ``e`` references without binding them locally."""
    if isinstance(e, UVar):
        return set() if e.name in bound else {e.name}
    if isinstance(e, (Quote, UOpaque)):
        return set()
    if isinstance(e, ULam):
        return free_vars(e.body, bound | frozenset(e.params))
    if isinstance(e, ULetrec):
        inner = bound | frozenset(n for n, _ in e.bindings)
        out: set[str] = set()
        for _, x in e.bindings:
            out |= free_vars(x, inner)
        return out | free_vars(e.body, inner)
    if isinstance(e, UApp):
        out = free_vars(e.fn, bound)
        for a in e.args:
            out |= free_vars(a, bound)
        return out
    if isinstance(e, UIf):
        return (free_vars(e.test, bound) | free_vars(e.then, bound)
                | free_vars(e.orelse, bound))
    if isinstance(e, UBegin):
        out = set()
        for x in e.exprs:
            out |= free_vars(x, bound)
        return out
    if isinstance(e, USet):
        target = set() if e.name in bound else {e.name}
        return target | free_vars(e.value, bound)
    raise TypeError(f"cannot take free variables of {e!r}")
