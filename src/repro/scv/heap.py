"""Symbolic heap for the untyped language (§4).

Extends the SPCF heap model to dynamic typing: an opaque value carries a
set of *possible type tags* which execution narrows through run-time
type tests (§4.1), plus the same numeric refinement predicates as SPCF
(reused from ``repro.core.heap``).  Data structures are refined
incrementally into shapes (§4.2): once an opaque is known to be a pair
it *becomes* ``UPair(•, •)`` with fresh opaque fields.

The tag lattice lives in the leaf module ``scv.tags``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from fractions import Fraction

from ..core.heap import NameCursor, Pred
from ..core.syntax import Loc
from ..lang.ast import ULam
from ..lang.sexp import Symbol
from ..lang.values import Nil, StructType, Void
from .tags import (
    BASE_TAGS,
    TAG_BOOLEAN,
    TAG_BOX,
    TAG_INTEGER,
    TAG_NONREAL,
    TAG_NULL,
    TAG_PAIR,
    TAG_PROCEDURE,
    TAG_RATREAL,
    TAG_STRING,
    TAG_SYMBOL,
    TAG_VECTOR,
    TAG_VOID,
    struct_tag,
)

# ---------------------------------------------------------------------------
# Extra refinement predicates for non-numeric scalars
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PEqDatum(Pred):
    """``λx. (equal? x datum)`` for scalar datums (symbols, strings,
    booleans) — lets ``case``/``equal?`` branches constrain opaque
    scalars without involving the arithmetic solver."""

    datum: object

    def __repr__(self) -> str:
        return f"(≡' {self.datum!r})"


# ---------------------------------------------------------------------------
# Storeables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UStoreable:
    def __post_init__(self) -> None:  # pragma: no cover - abstract guard
        if type(self) is UStoreable:
            raise TypeError("UStoreable is abstract")


@dataclass(frozen=True)
class UConc(UStoreable):
    """A concrete immediate: number, boolean, string, symbol, NIL, VOID."""

    value: object

    def __repr__(self) -> str:
        return repr(self.value)


#: The value of a ``letrec`` cell until its initialiser has run
#: (``UConc(UNDEFINED)``); not a Racket value, so never reified.
UNDEFINED = object()


@dataclass(frozen=True)
class UPair(UStoreable):
    car: Loc
    cdr: Loc

    def __repr__(self) -> str:
        return f"(cons {self.car.name} {self.cdr.name})"


@dataclass(frozen=True)
class UStruct(UStoreable):
    type: StructType
    fields: tuple[Loc, ...]

    def __repr__(self) -> str:
        inner = " ".join(f.name for f in self.fields)
        return f"({self.type.name} {inner})"


@dataclass(frozen=True)
class UBoxS(UStoreable):
    """A box; its content is a location (mutation = heap update)."""

    content: Loc

    def __repr__(self) -> str:
        return f"(box {self.content.name})"


@dataclass(frozen=True)
class UVectorS(UStoreable):
    """A vector; each field is a location (``vector-set!`` = heap
    update of a rebuilt field tuple)."""

    fields: tuple[Loc, ...]

    def __repr__(self) -> str:
        inner = " ".join(f.name for f in self.fields)
        return f"(vector{' ' if inner else ''}{inner})"


# Symbolic environments map variable names to locations; immutable.
SEnv = tuple[tuple[str, Loc], ...]


@dataclass(frozen=True)
class UClos(UStoreable):
    """A closure over a symbolic environment."""

    lam: ULam
    env: SEnv

    def __repr__(self) -> str:
        return f"#<procedure:{self.lam.name or 'λ'}>"


@dataclass(frozen=True)
class UPrim(UStoreable):
    name: str

    def __repr__(self) -> str:
        return f"#<prim:{self.name}>"


@dataclass(frozen=True)
class UStructCtor(UStoreable):
    type: StructType

    def __repr__(self) -> str:
        return f"#<ctor:{self.type.name}>"


@dataclass(frozen=True)
class UGuard(UStoreable):
    """A function value wrapped by a higher-order contract (Findler–
    Felleisen proxy); ``contract`` points at a contract storeable."""

    contract: Loc
    inner: Loc
    pos: str
    neg: str

    def __repr__(self) -> str:
        return f"#<guarded {self.inner.name}>"


@dataclass(frozen=True)
class UAlias(UStoreable):
    """Transparent indirection created by ``set!`` so that refinements
    of the target stay shared."""

    target: Loc

    def __repr__(self) -> str:
        return f"@{self.target.name}"


# -- contracts as storeables -------------------------------------------------


@dataclass(frozen=True)
class UCtc(UStoreable):
    """A contract value.  ``kind`` selects the combinator; ``parts`` are
    locations of sub-contracts or auxiliary values:

    ========  =======================================================
    kind      parts
    ========  =======================================================
    any       ()
    flat      (pred,)
    oneof     (datum-locs...)
    and/or    sub-contracts
    not       (sub,)
    cons      (car/c, cdr/c)
    listof    (elem/c,)
    list      elem contracts
    fun       (dom..., rng)
    dep       (dom..., rng-maker)
    struct    field contracts   (struct type in ``stype``)
    rec       (thunk,)
    ========  =======================================================
    """

    kind: str
    parts: tuple[Loc, ...] = ()
    stype: Optional[StructType] = None

    def __repr__(self) -> str:
        inner = " ".join(p.name for p in self.parts)
        return f"#<ctc:{self.kind} {inner}>"


# -- the unknowns -------------------------------------------------------------


@dataclass(frozen=True)
class UOpq(UStoreable):
    """An opaque value: possible tags plus refinement predicates."""

    possible: frozenset[str] = BASE_TAGS
    preds: tuple[Pred, ...] = ()

    def narrowed(self, tags: frozenset[str]) -> "UOpq":
        return UOpq(self.possible & tags, self.preds)

    def refined(self, p: Pred) -> "UOpq":
        if p in self.preds:
            return self
        return UOpq(self.possible, self.preds + (p,))

    @property
    def definitely(self) -> Optional[str]:
        """The single possible tag, if narrowed that far."""
        if len(self.possible) == 1:
            return next(iter(self.possible))
        return None

    def __repr__(self) -> str:
        tags = "|".join(sorted(self.possible)) if self.possible != BASE_TAGS else "any"
        preds = ", ".join(map(repr, self.preds))
        return f"•{{{tags}{'; ' + preds if preds else ''}}}"


@dataclass(frozen=True)
class UCase(UStoreable):
    """Memoising mapping for an opaque *function*: argument tuples to
    result locations (the untyped generalisation of SPCF's ``caseT``).
    ``arity`` fixes the accepted argument count once observed."""

    arity: int
    mapping: tuple[tuple[tuple[Loc, ...], Loc], ...] = ()

    def lookup(self, args: tuple[Loc, ...]) -> Optional[Loc]:
        for k, v in self.mapping:
            if k == args:
                return v
        return None

    def extended(self, args: tuple[Loc, ...], out: Loc) -> "UCase":
        return UCase(self.arity, self.mapping + ((args, out),))

    def __repr__(self) -> str:
        rows = " ".join(
            "[(" + " ".join(a.name for a in k) + f") ↦ {v.name}]"
            for k, v in self.mapping
        )
        return f"ucase/{self.arity} {rows}"


# ---------------------------------------------------------------------------
# Primary tags of concrete values and storeables
# ---------------------------------------------------------------------------


def datum_tag(v: object) -> Optional[str]:
    """Primary tag of a concrete immediate."""
    if isinstance(v, bool):
        return TAG_BOOLEAN
    if isinstance(v, int):
        return TAG_INTEGER
    if isinstance(v, Fraction):
        return TAG_INTEGER if v.denominator == 1 else TAG_RATREAL
    if isinstance(v, float):
        return TAG_RATREAL
    if isinstance(v, complex):
        return TAG_NONREAL
    if isinstance(v, str):
        return TAG_STRING
    if isinstance(v, Symbol):
        return TAG_SYMBOL
    if isinstance(v, Nil):
        return TAG_NULL
    if isinstance(v, Void):
        return TAG_VOID
    return None


def storeable_tag(s: UStoreable) -> Optional[str]:
    """Primary tag of a non-opaque storeable (None: no tag, e.g. a
    contract value — every type predicate answers ``#f`` on it)."""
    if isinstance(s, UConc):
        return datum_tag(s.value)
    if isinstance(s, UPair):
        return TAG_PAIR
    if isinstance(s, UStruct):
        return struct_tag(s.type.name)
    if isinstance(s, UBoxS):
        return TAG_BOX
    if isinstance(s, UVectorS):
        return TAG_VECTOR
    if isinstance(s, (UClos, UPrim, UGuard, UStructCtor, UCase)):
        return TAG_PROCEDURE
    return None


# ---------------------------------------------------------------------------
# The heap (same copy-on-write discipline as the SPCF heap)
# ---------------------------------------------------------------------------


def _inert(s: UStoreable) -> bool:
    """Can ``s`` state no integer fact, whatever the rest of the heap
    holds?  (See ``scv.proof.translate_uheap_parts``: aliases and memo
    tables may, through their targets; opaques through refinements.)"""
    if isinstance(s, UConc):
        return isinstance(s.value, bool) or not isinstance(s.value, int)
    if isinstance(s, UOpq):
        return not s.preds
    return not isinstance(s, (UAlias, UCase))


class UHeap:
    """Immutable symbolic heap for the untyped machine.

    Two layers: a shared *base* (frozen once, holding the ~90 primitive
    bindings and other pre-state) and a copy-on-write *overlay*.
    Functional updates copy only the overlay, so the cost of a ``set``
    is proportional to the state the program has actually touched, not
    to the size of the primitive environment — the update discipline
    that makes BFS over thousands of states affordable.  A base dict is
    never mutated once frozen: the primitive base is shared by every
    verification in the process (``scv.engine``).
    """

    __slots__ = ("_d", "_base", "_gdirty", "_inert_base")

    def __init__(
        self,
        entries: Optional[dict[Loc, UStoreable]] = None,
        base: Optional[dict[Loc, UStoreable]] = None,
        gdirty: bool = False,
        inert_base: Optional[bool] = None,
    ) -> None:
        self._d: dict[Loc, UStoreable] = entries if entries is not None else {}
        self._base: dict[Loc, UStoreable] = base if base is not None else {}
        # Has any post-freeze update shadowed a global ("g…") location?
        # Globals are treated as per-program constants by fingerprinting
        # (serialized by name alone); this flag is what revokes that
        # treatment when a path e.g. `set!`s a primitive name.
        self._gdirty = gdirty
        # Does no base cell state an integer fact?  Computed once per
        # base and handed on by every update.
        self._inert_base = (
            all(map(_inert, self._base.values()))
            if inert_base is None else inert_base
        )

    @staticmethod
    def empty() -> "UHeap":
        return UHeap()

    def frozen(self) -> "UHeap":
        """Push the overlay into the shared base layer.  Call once after
        building a program's initial heap; subsequent updates then copy
        an (initially empty) overlay.  An empty overlay keeps the base
        dict itself."""
        if not self._d:
            return UHeap({}, self._base, False, self._inert_base)
        return UHeap(
            {}, {**self._base, **self._d}, False,
            self._inert_base and all(map(_inert, self._d.values())),
        )

    @property
    def inert_base(self) -> bool:
        """True when no base cell states an integer fact, so a heap's
        integer facts all sit in its overlay."""
        return self._inert_base

    def overlay_items(self) -> Iterator[tuple[Loc, UStoreable]]:
        """The entries written since the base layer was frozen."""
        return iter(self._d.items())

    def get(self, l: Loc) -> UStoreable:
        s = self._d.get(l)
        if s is not None:
            return s
        s = self._base.get(l)
        if s is not None:
            return s
        raise KeyError(f"unallocated location {l.name}")

    def deref(self, l: Loc) -> tuple[Loc, UStoreable]:
        """Follow UAlias chains; returns (final loc, storeable)."""
        s = self.get(l)
        if not isinstance(s, UAlias):
            return l, s
        seen = {l}
        while True:
            l = s.target
            s = self.get(l)
            if not isinstance(s, UAlias):
                return l, s
            if l in seen:  # pragma: no cover - aliasing is acyclic by construction
                raise RuntimeError("alias cycle")
            seen.add(l)

    def __contains__(self, l: Loc) -> bool:
        return l in self._d or l in self._base

    def in_overlay(self, l: Loc) -> bool:
        """Has ``l`` been written since the base layer was frozen?
        Fingerprinting relies on this: frozen-base globals serialize by
        name alone, but only while no path has shadowed them."""
        return l in self._d

    @property
    def has_global_writes(self) -> bool:
        """True when any overlay entry shadows a global ("g…") location
        — the O(1) guard fingerprinting consults before trusting its
        cached names-only globals-frame token."""
        return self._gdirty

    def set(self, l: Loc, s: UStoreable) -> "UHeap":
        d = dict(self._d)
        d[l] = s
        return UHeap(d, self._base,
                     self._gdirty or l.name.startswith("g"),
                     self._inert_base)

    def alloc(self, s: UStoreable, names: NameCursor,
              prefix: str = "u") -> tuple[Loc, "UHeap"]:
        l = names.fresh_loc(prefix)
        return l, self.set(l, s)

    def narrow(self, l: Loc, tags: frozenset[str]) -> "UHeap":
        l, s = self.deref(l)
        assert isinstance(s, UOpq), f"narrowing non-opaque {s!r}"
        return self.set(l, s.narrowed(tags))

    def refine(self, l: Loc, p: Pred) -> "UHeap":
        l, s = self.deref(l)
        if not isinstance(s, UOpq):
            return self  # concrete: refinement already decided
        return self.set(l, s.refined(p))

    def items(self) -> Iterator[tuple[Loc, UStoreable]]:
        """All live entries, overlay entries shadowing base ones."""
        for k, v in self._base.items():
            if k not in self._d:
                yield k, v
        yield from self._d.items()

    def __len__(self) -> int:
        return len(self._d) + sum(1 for k in self._base if k not in self._d)

    def __repr__(self) -> str:
        rows = ", ".join(f"{k.name} ↦ {v!r}" for k, v in self.items())
        return f"[{rows}]"
