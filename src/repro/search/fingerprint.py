"""Canonical state fingerprints for both machines.

Two states are behaviourally interchangeable when they differ only in
the *names* of path-allocated heap locations (the global ``fresh_loc``
counter names every branch's allocations differently) and in unreachable
heap garbage.  A fingerprint erases exactly those differences:

* serialization is reachability-driven — it starts from the control
  expression (plus environment, continuation stack for the CESK
  machine) and only visits heap cells a location reference leads to;
* path-allocated locations (``L…``, ``u…``, ``cell…``) are renamed to
  their first-visit index; sharing and cycles serialize as back
  references;
* *identity-bearing* locations keep their names: ``o:<label>`` locations
  are derived from source labels and re-used by the Opq/UOpaque rules
  (two states holding the same structure at an ``o:`` loc vs. a fresh
  loc are **not** interchangeable — a later evaluation of the same
  ``•^label`` occurrence rejoins the former but not the latter), and the
  scv machine's frozen-base globals (``g…``) are per-program constants
  that serialize by name alone — unless a path has shadowed them in the
  overlay, in which case their content is serialized like any other
  cell.

The result is one canonical :class:`~repro.search.intern.Node` of the
fingerprinter's hash-consing table: the state's structure paired with
one frozenset of refinement tokens per opaque value (in traversal
order).  Nodes compare by identity, so the seen-set lookup costs O(1)
whatever the size of the state, and two states get the same node iff
they are equal up to location renaming and heap garbage — refinements
included.  Pruning is therefore exact: a state with a stronger
refinement set than one already admitted is a different state and is
explored.  That matters beyond pruning soundness: an answer heap's
refinements (and its ``UCase`` argument-pattern tables) are precisely
what counterexample construction *and* the demonic-client synthesis of
:mod:`repro.synth` read back, so a weaker state is never a substitute
for a stronger one.

Refinement predicates may mention locations nothing else reaches; those
serialize *inside* the refinement token and are processed after the
main traversal, so the canonical indices of the control, environment
and heap structure never depend on refinements.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Optional

from ..core import heap as core_heap
from ..core import machine as core_machine
from ..core import syntax as core_syntax
from ..core.heap import (
    HConst,
    HLoc,
    HOp,
    HTerm,
    PEq,
    PLe,
    PLt,
    PNot,
    Pred,
    PZero,
)
from ..core.syntax import Loc
from ..lang import ast as uast
from ..lang.sexp import Symbol
from .intern import Interner, Node


def _datum_token(datum: object) -> Hashable:
    """A hashable, type-disambiguated token for a quoted datum / concrete
    immediate (bool before int: bool is an int subclass)."""
    if isinstance(datum, bool):
        return ("bool", datum)
    if isinstance(datum, (int, float, complex, Fraction, str)):
        return (type(datum).__name__, datum)
    if isinstance(datum, Symbol):
        return ("sym", datum.name)
    if isinstance(datum, (list, tuple)):
        return ("list", tuple(_datum_token(d) for d in datum))
    # NIL, VOID, the letrec undefined sentinel, ... — singletons with
    # stable reprs.
    return ("datum", repr(datum))


class _Base:
    """Shared traversal state for one fingerprint computation."""

    def __init__(self, interner: Interner) -> None:
        self._intern = interner
        self.canon: dict[Loc, int] = {}
        self.refs: list[Optional[frozenset]] = []
        # (refs slot, predicate tuple) — serialized after the shape
        # traversal so shape indices never depend on refinements.
        self.pending: list[tuple[int, tuple[Pred, ...]]] = []

    # -- refinement bookkeeping -----------------------------------------

    def opq_slot(self, preds: tuple[Pred, ...]) -> int:
        slot = len(self.refs)
        self.refs.append(None)
        self.pending.append((slot, preds))
        return slot

    def finish(self, shape: Hashable) -> Node:
        """The state's fingerprint: ``shape`` with every refinement set
        folded in, interned to one canonical node."""
        # Serializing a predicate can reach an opaque nothing else
        # reached, appending to ``pending`` mid-loop; list iteration
        # picks the new entries up.
        for slot, preds in self.pending:
            self.refs[slot] = frozenset(self._pred(p) for p in preds)
        return self._intern.intern((shape, tuple(self.refs)))

    # -- predicates and heap terms --------------------------------------

    def _pred(self, p: Pred) -> Hashable:
        if isinstance(p, PZero):
            return ("zero?",)
        if isinstance(p, PEq):
            return ("=", self._hterm(p.term))
        if isinstance(p, PLt):
            return ("<", self._hterm(p.term))
        if isinstance(p, PLe):
            return ("<=", self._hterm(p.term))
        if isinstance(p, PNot):
            return ("not", self._pred(p.arg))
        # PEqDatum (scv) and any future predicate with a datum payload.
        datum = getattr(p, "datum", None)
        if datum is not None or hasattr(p, "datum"):
            return ("='", _datum_token(datum))
        raise TypeError(f"cannot fingerprint predicate {p!r}")

    def _hterm(self, t: HTerm) -> Hashable:
        if isinstance(t, HConst):
            return ("c", t.value)
        if isinstance(t, HLoc):
            return self.loc(t.loc)
        if isinstance(t, HOp):
            return (t.op, tuple(self._hterm(a) for a in t.args))
        raise TypeError(f"cannot fingerprint heap term {t!r}")

    def loc(self, l: Loc) -> Hashable:  # pragma: no cover - overridden
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Typed core machine (``core.State``)
# ---------------------------------------------------------------------------


class _CoreRun(_Base):
    def __init__(self, interner: Interner, heap: core_heap.Heap) -> None:
        super().__init__(interner)
        self.heap = heap

    def loc(self, l: Loc) -> Hashable:
        idx = self.canon.get(l)
        if idx is not None:
            return ("@", idx)
        idx = len(self.canon)
        self.canon[l] = idx
        name = l.name if l.name.startswith("o:") else ""
        return ("#", idx, name, self._store(self.heap.get(l)))

    def _store(self, s: core_heap.Storeable) -> Hashable:
        if isinstance(s, core_heap.SNum):
            return ("n", s.value)
        if isinstance(s, core_heap.SLam):
            return ("sl", self.expr(s.lam))
        if isinstance(s, core_heap.SOpq):
            return ("opq", self.opq_slot(s.refinements), s.type)
        if isinstance(s, core_heap.SCase):
            return (
                "case",
                s.out_type,
                tuple((self.loc(k), self.loc(v)) for k, v in s.mapping),
            )
        raise TypeError(f"cannot fingerprint storeable {s!r}")

    def expr(self, e: core_syntax.Expr) -> Hashable:
        if isinstance(e, Loc):
            return self.loc(e)
        if isinstance(e, (core_syntax.Num, core_syntax.Ref,
                          core_syntax.Opq, core_syntax.Err)):
            return e  # frozen, loc-free: the node is its own token
        if isinstance(e, core_syntax.Lam):
            return ("lam", e.var, e.var_type, self.expr(e.body))
        if isinstance(e, core_syntax.Fix):
            return ("fix", e.var, e.var_type, self.expr(e.body))
        if isinstance(e, core_syntax.App):
            return ("app", self.expr(e.fn), self.expr(e.arg))
        if isinstance(e, core_syntax.If):
            return ("if", self.expr(e.test), self.expr(e.then),
                    self.expr(e.orelse))
        if isinstance(e, core_syntax.PrimApp):
            return ("prim", e.op, e.label,
                    tuple(self.expr(a) for a in e.args))
        raise TypeError(f"cannot fingerprint expression {e!r}")


class CoreFingerprinter:
    """``core.State -> Node`` with a per-search interning table."""

    def __init__(self) -> None:
        self._interner = Interner()

    def __call__(self, state: core_machine.State) -> Node:
        run = _CoreRun(self._interner, state.heap)
        shape = ("core", run.expr(state.control))
        return run.finish(shape)


# ---------------------------------------------------------------------------
# Untyped CESK machine (``scv.SState``)
# ---------------------------------------------------------------------------


class _ScvRun(_Base):
    def __init__(self, fingerprinter: "ScvFingerprinter", heap) -> None:
        super().__init__(fingerprinter._interner)
        self.heap = heap
        self._genv_cache = fingerprinter._genv_cache
        self._sheap = fingerprinter._sheap
        self._smach = fingerprinter._smach

    def loc(self, l: Loc) -> Hashable:
        name = l.name
        if name.startswith("g") and not self.heap.in_overlay(l):
            return ("g", name)  # frozen-base global: a per-program constant
        idx = self.canon.get(l)
        if idx is not None:
            return ("@", idx)
        idx = len(self.canon)
        self.canon[l] = idx
        ident = name if name.startswith("o:") else ""
        return ("#", idx, ident, self._store(self.heap.get(l)))

    def _store(self, s) -> Hashable:
        sheap = self._sheap
        if isinstance(s, sheap.UConc):
            return ("c", _datum_token(s.value))
        if isinstance(s, sheap.UPair):
            return ("pair", self.loc(s.car), self.loc(s.cdr))
        if isinstance(s, sheap.UStruct):
            return ("struct", s.type.name,
                    tuple(self.loc(f) for f in s.fields))
        if isinstance(s, sheap.UBoxS):
            return ("box", self.loc(s.content))
        if isinstance(s, sheap.UVectorS):
            return ("vec", tuple(self.loc(f) for f in s.fields))
        if isinstance(s, sheap.UAlias):
            return ("alias", self.loc(s.target))
        if isinstance(s, sheap.UClos):
            # UClos declares an SEnv (name/loc tuple) but the machine
            # stores MEnv chains; accept either.
            env_tok = (
                self.menv(s.env)
                if hasattr(s.env, "frame")
                else tuple((n, self.loc(l)) for n, l in s.env)
            )
            return ("clos", self.uexpr(s.lam), env_tok)
        if isinstance(s, sheap.UPrim):
            return ("uprim", s.name)
        if isinstance(s, sheap.UStructCtor):
            return ("ctor", s.type.name)
        if isinstance(s, sheap.UGuard):
            return ("guard", self.loc(s.contract), self.loc(s.inner),
                    s.pos, s.neg)
        if isinstance(s, sheap.UCtc):
            return ("ctc", s.kind,
                    s.stype.name if s.stype is not None else "",
                    tuple(self.loc(p) for p in s.parts))
        if isinstance(s, sheap.UOpq):
            return ("opq", self.opq_slot(s.preds),
                    tuple(sorted(s.possible)))
        if isinstance(s, sheap.UCase):
            return ("ucase", s.arity,
                    tuple((tuple(self.loc(k) for k in key), self.loc(v))
                          for key, v in s.mapping))
        raise TypeError(f"cannot fingerprint storeable {s!r}")

    def menv(self, env) -> Hashable:
        """A machine environment chain, innermost frame first.

        The globals-only base frame is per-program constant, so its
        names-only token is cached across states — but only while no
        path has shadowed a global in the heap overlay
        (``has_global_writes``); a ``set!`` on a primitive name revokes
        the shortcut and the frame serializes through ``loc`` like any
        other, picking up the overlaid value.  Cache entries pin the
        environment object so an ``id`` can never be recycled onto a
        different frame."""
        globals_clean = not self.heap.has_global_writes
        frames = []
        while env is not None:
            if globals_clean:
                cached = self._genv_cache.get(id(env))
                if cached is not None and cached[0] is env:
                    frames.append(cached[1])
                    break  # globals-only frames never chain further
            items = tuple(sorted(env.frame.items()))
            if (
                globals_clean
                and env.parent is None
                and items
                and all(l.name.startswith("g") for _, l in items)
            ):
                token = self._intern.intern(
                    ("genv", tuple((n, l.name) for n, l in items)))
                self._genv_cache[id(env)] = (env, token)
                frames.append(token)
                break
            frames.append(tuple((n, self.loc(l)) for n, l in items))
            env = env.parent
        return tuple(frames)

    def uexpr(self, e: uast.UExpr) -> Hashable:
        smach = self._smach
        if isinstance(e, smach.ULocE):
            return self.loc(e.loc)
        if isinstance(e, uast.Quote):
            return ("q", _datum_token(e.datum))
        if isinstance(e, (uast.UVar, uast.UOpaque)):
            return e
        if isinstance(e, smach.UBlameE):
            return e
        if isinstance(e, uast.ULam):
            return ("ulam", e.params, self.uexpr(e.body))
        if isinstance(e, uast.UApp):
            return ("uapp", self.uexpr(e.fn),
                    tuple(self.uexpr(a) for a in e.args), e.label)
        if isinstance(e, uast.UIf):
            return ("uif", self.uexpr(e.test), self.uexpr(e.then),
                    self.uexpr(e.orelse))
        if isinstance(e, uast.UBegin):
            return ("ubegin", tuple(self.uexpr(x) for x in e.exprs))
        if isinstance(e, uast.ULetrec):
            return ("ulr",
                    tuple((n, self.uexpr(x)) for n, x in e.bindings),
                    self.uexpr(e.body))
        if isinstance(e, uast.USet):
            return ("uset", e.name, self.uexpr(e.value))
        if isinstance(e, smach.UMon):
            return ("umon", self.uexpr(e.contract), self.uexpr(e.value),
                    e.pos, e.neg, e.label)
        raise TypeError(f"cannot fingerprint expression {e!r}")

    def kont(self, stack) -> Hashable:
        smach = self._smach
        out = []
        for k in stack:
            if isinstance(k, smach.KIf):
                out.append(("kif", self.uexpr(k.then), self.uexpr(k.orelse),
                            self.menv(k.env)))
            elif isinstance(k, smach.KApp):
                out.append(("kapp", tuple(self.loc(l) for l in k.done),
                            tuple(self.uexpr(a) for a in k.pending),
                            self.menv(k.env), k.label))
            elif isinstance(k, smach.KBegin):
                out.append(("kbegin",
                            tuple(self.uexpr(x) for x in k.rest),
                            self.menv(k.env)))
            elif isinstance(k, smach.KLetrec):
                out.append(("klr", tuple(self.loc(c) for c in k.cells),
                            k.index,
                            tuple((n, self.uexpr(x)) for n, x in k.bindings),
                            self.uexpr(k.body), self.menv(k.env)))
            elif isinstance(k, smach.KSet):
                out.append(("kset", self.loc(k.cell)))
            elif isinstance(k, smach.KMonC):
                out.append(("kmonc", self.uexpr(k.value), self.menv(k.env),
                            k.pos, k.neg, k.label))
            elif isinstance(k, smach.KMonV):
                out.append(("kmonv", self.loc(k.ctc), k.pos, k.neg, k.label))
            else:
                raise TypeError(f"cannot fingerprint continuation {k!r}")
        return tuple(out)


class ScvFingerprinter:
    """``scv.SState -> Node``; caches the interned globals-only
    base environment frame across states (it is per-program constant)."""

    def __init__(self) -> None:
        # Resolved once per fingerprinter rather than per node; a
        # module-level import would close an import cycle through
        # repro.prims.
        from ..scv import heap as sheap
        from ..scv import machine as smach

        self._sheap = sheap
        self._smach = smach
        self._interner = Interner()
        self._genv_cache: dict[int, tuple] = {}

    def __call__(self, state) -> Node:
        run = _ScvRun(self, state.heap)
        c = state.control
        # The control kind is part of the state's identity: a ULocE
        # *expression* steps to the bare Loc control (value-plugging
        # mode), and both would otherwise serialize to the same token —
        # colliding a state with its own parent.
        if isinstance(c, self._smach.Blame):
            kind, ctrl = "b", (c.party, c.label, c.description)
        elif isinstance(c, Loc):
            kind, ctrl = "v", run.loc(c)
        else:
            kind, ctrl = "e", run.uexpr(c)
        # gen_effort is deliberately excluded: it is search-heuristic
        # metadata, not machine state.
        shape = ("scv", kind, ctrl, run.menv(state.env), run.kont(state.kont))
        return run.finish(shape)
