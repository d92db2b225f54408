"""Heaps and storeables — paper Fig. 1 (bottom half).

A heap ``Σ`` maps locations to storeables ``S``:

* ``SNum`` — a concrete number;
* ``SLam`` — a closed lambda: the step machine substitutes locations
  for its free variables, like the paper's; the compiled executor keeps
  the variables bound in an environment instead and reads the closed
  term back on demand;
* ``SOpq`` — an opaque value of some type carrying a conjunction of
  *refinements*, the incrementally accumulated upper bound on its
  behaviour (``•{T, P...}``);
* ``SCase`` — a memoising mapping ``caseT [Lx ↦ La]...`` approximating an
  unknown function with base-type input.  This construct is the paper's
  key device for completeness: it forces unknown functions to return
  equal outputs on equal inputs.

Refinement predicates are a small structured language (rather than raw
program lambdas) because the proof system "only needs to handle
predicates of simple forms and not their arbitrary compositions" (§3.4);
execution itself decomposes complex predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .syntax import EMPTY_ENV, Lam, Loc, Type, subst_env


# ---------------------------------------------------------------------------
# Heap terms: arithmetic over locations, used inside refinements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HTerm:
    def __post_init__(self) -> None:  # pragma: no cover - abstract guard
        if type(self) is HTerm:
            raise TypeError("HTerm is abstract")


@dataclass(frozen=True)
class HConst(HTerm):
    value: int

    def __repr__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class HLoc(HTerm):
    loc: Loc

    def __repr__(self) -> str:
        return self.loc.name


@dataclass(frozen=True)
class HOp(HTerm):
    """Arithmetic over heap terms: op in {+, -, *, div, mod}."""

    op: str
    args: tuple[HTerm, ...]

    def __repr__(self) -> str:
        return f"({self.op} " + " ".join(map(repr, self.args)) + ")"


def hterm_locs(t: HTerm) -> Iterator[Loc]:
    if isinstance(t, HLoc):
        yield t.loc
    elif isinstance(t, HOp):
        for a in t.args:
            yield from hterm_locs(a)


# ---------------------------------------------------------------------------
# Refinement predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pred:
    """A predicate over a single (implicit) subject value ``x``."""

    def __post_init__(self) -> None:  # pragma: no cover - abstract guard
        if type(self) is Pred:
            raise TypeError("Pred is abstract")


@dataclass(frozen=True)
class PZero(Pred):
    """``λx. zero? x``"""

    def __repr__(self) -> str:
        return "zero?"


@dataclass(frozen=True)
class PEq(Pred):
    """``λx. x = t``"""

    term: HTerm

    def __repr__(self) -> str:
        return f"(≡ {self.term!r})"


@dataclass(frozen=True)
class PLt(Pred):
    """``λx. x < t``"""

    term: HTerm

    def __repr__(self) -> str:
        return f"(< {self.term!r})"


@dataclass(frozen=True)
class PLe(Pred):
    """``λx. x <= t``"""

    term: HTerm

    def __repr__(self) -> str:
        return f"(<= {self.term!r})"


@dataclass(frozen=True)
class PNot(Pred):
    """Negation of a simple predicate."""

    arg: Pred

    def __repr__(self) -> str:
        return f"¬{self.arg!r}"


def pred_locs(p: Pred) -> Iterator[Loc]:
    if isinstance(p, (PEq, PLt, PLe)):
        yield from hterm_locs(p.term)
    elif isinstance(p, PNot):
        yield from pred_locs(p.arg)


# ---------------------------------------------------------------------------
# Storeables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Storeable:
    def __post_init__(self) -> None:  # pragma: no cover - abstract guard
        if type(self) is Storeable:
            raise TypeError("Storeable is abstract")


@dataclass(frozen=True)
class SNum(Storeable):
    value: int

    def __repr__(self) -> str:
        return str(self.value)


class SLam(Storeable):
    """A lambda value, as the closure ``(node, env)``.

    The step machine stores closed lambdas (an empty ``env``).  The
    compiled executor (``repro.compile.executor``) never substitutes: it
    stores the source lambda node with the environment that binds its
    free variables (see ``syntax.subst_env``), and applies it by
    extending ``env``.  ``lam`` is the closed term the closure denotes,
    read back on first use and cached; the cache then replaces the
    closure, so a read-back value holds one term, as a machine-made one
    does.  Equality, hashing and fingerprints are those of ``lam``, so
    the two representations are interchangeable.
    """

    __slots__ = ("node", "env")

    def __init__(self, lam: Lam, env: dict = EMPTY_ENV) -> None:
        self.node = lam
        self.env = env

    @property
    def lam(self) -> Lam:
        if self.env:
            self.node = subst_env(self.node, self.env)
            self.env = EMPTY_ENV
        return self.node

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not SLam:
            return NotImplemented
        return self.lam == other.lam

    def __hash__(self) -> int:
        return hash(self.lam)

    def __repr__(self) -> str:
        return repr(self.lam)


@dataclass(frozen=True)
class SOpq(Storeable):
    """``•{T, P...}`` — opaque value with refinements."""

    type: Type
    refinements: tuple[Pred, ...] = ()

    def refined(self, p: Pred) -> "SOpq":
        if p in self.refinements:
            return self
        return SOpq(self.type, self.refinements + (p,))

    def __repr__(self) -> str:
        if not self.refinements:
            return f"•{self.type!r}"
        preds = ", ".join(map(repr, self.refinements))
        return f"•{{{self.type!r}, {preds}}}"


@dataclass(frozen=True)
class SCase(Storeable):
    """``caseT [Lx ↦ La] ...`` — memoising approximation of an unknown
    function of type nat → out_type."""

    out_type: Type
    mapping: tuple[tuple[Loc, Loc], ...] = ()

    def lookup(self, arg: Loc) -> Optional[Loc]:
        for k, v in self.mapping:
            if k == arg:
                return v
        return None

    def extended(self, arg: Loc, out: Loc) -> "SCase":
        return SCase(self.out_type, self.mapping + ((arg, out),))

    def __repr__(self) -> str:
        entries = " ".join(f"[{k.name} ↦ {v.name}]" for k, v in self.mapping)
        return f"case{self.out_type!r} {entries}"


# ---------------------------------------------------------------------------
# The heap
# ---------------------------------------------------------------------------

class NameCursor:
    """The names a machine mints while it steps one state: the next
    location number and the next synthetic-label number.

    A machine owns one cursor.  Each step seeds it from the state's
    stamps (``loc_base``, and ``syn_base`` on scv) and stamps the
    successors with where it stopped, so a name is a function of the
    path from the initial state, never of the search order or of what
    else ran in the process.  Sibling successors of one step share
    their stamps; the cursor is the machine's, not the heap's, so
    stepping one sibling never renumbers another.
    """

    __slots__ = ("loc", "syn")

    def __init__(self, loc: int = 0, syn: int = 0) -> None:
        self.loc = loc
        self.syn = syn

    def fresh_loc(self, prefix: str = "L") -> Loc:
        n = self.loc
        self.loc = n + 1
        return Loc(f"{prefix}{n}")

    def syn_label(self, prefix: str = "syn") -> str:
        """A synthetic label — blame carrying it is *unknown-code*
        blame (the ``:`` marks it, see ``scv.machine.is_known_label``)."""
        n = self.syn
        self.syn = n + 1
        return f"{prefix}:{n}"


class Heap:
    """An immutable heap; updates return new heaps.

    Copy-on-write over a plain dict: reads are O(1), updates copy the
    mapping.  Heaps in the benchmark programs stay small (tens to a few
    hundred locations), and immutability is what makes the
    nondeterministic search trivially correct — sibling branches can
    never see each other's refinements.
    """

    __slots__ = ("_d",)

    def __init__(self, entries: Optional[dict[Loc, Storeable]] = None) -> None:
        self._d: dict[Loc, Storeable] = entries if entries is not None else {}

    @staticmethod
    def empty() -> "Heap":
        return Heap()

    def get(self, l: Loc) -> Storeable:
        try:
            return self._d[l]
        except KeyError:
            raise KeyError(f"unallocated location {l.name}") from None

    def __contains__(self, l: Loc) -> bool:
        return l in self._d

    def set(self, l: Loc, s: Storeable) -> "Heap":
        """Functional update (allocates if absent)."""
        d = dict(self._d)
        d[l] = s
        return Heap(d)

    def alloc(self, s: Storeable, names: NameCursor,
              prefix: str = "L") -> tuple[Loc, "Heap"]:
        l = names.fresh_loc(prefix)
        return l, self.set(l, s)

    def refine(self, l: Loc, p: Pred) -> "Heap":
        """Add refinement ``p`` to the opaque value at ``l``."""
        s = self.get(l)
        if not isinstance(s, SOpq):
            raise TypeError(f"cannot refine non-opaque {s!r} at {l.name}")
        return self.set(l, s.refined(p))

    def items(self) -> Iterator[tuple[Loc, Storeable]]:
        return iter(self._d.items())

    def locations(self) -> Iterator[Loc]:
        return iter(self._d.keys())

    def __len__(self) -> int:
        return len(self._d)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Heap) and self._d == other._d

    def __repr__(self) -> str:
        rows = ", ".join(f"{k.name} ↦ {v!r}" for k, v in self._d.items())
        return f"[{rows}]"
