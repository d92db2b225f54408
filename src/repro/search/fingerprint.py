"""Canonical state fingerprints for both machines.

Two states are behaviourally interchangeable when they differ only in
the *names* of path-allocated heap locations (each state's name cursor
— ``core.heap.NameCursor``, seeded from its ``loc_base`` — numbers a
path's allocations, so different paths name them differently) and in
unreachable heap garbage.  A fingerprint erases exactly those differences:

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

Tokens are hash-consed *as they are built*: every method interns the
token it returns — a location's first-visit ``#`` token, a heap cell,
an expression node, each environment frame and the chain, each
continuation frame and the stack, a predicate and its refinement set —
so each state is walked once, and :meth:`Interner.intern
<repro.search.intern.Interner.intern>` does one lookup per token.  That
is exact because every value is represented the same way wherever it
occurs: the tokens above always by their node, and the small tuples
left raw always raw, over canonical leaves — operand lists, ``(name,
loc)`` pairs, datum tokens, the top-level shape, and the scalar-only
``@`` back references and frozen-global ``g`` tokens, which hash
cheaper than a lookup costs.

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
        self.intern = interner.intern
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
        intern = self.intern
        for slot, preds in self.pending:
            self.refs[slot] = intern(frozenset(map(self._pred, preds)))
        return intern((shape, tuple(self.refs)))

    # -- predicates and heap terms --------------------------------------

    def _pred(self, p: Pred) -> Hashable:
        if isinstance(p, PZero):
            return self.intern(("zero?",))
        if isinstance(p, PEq):
            return self.intern(("=", self._hterm(p.term)))
        if isinstance(p, PLt):
            return self.intern(("<", self._hterm(p.term)))
        if isinstance(p, PLe):
            return self.intern(("<=", self._hterm(p.term)))
        if isinstance(p, PNot):
            return self.intern(("not", self._pred(p.arg)))
        # PEqDatum (scv) and any future predicate with a datum payload.
        datum = getattr(p, "datum", None)
        if datum is not None or hasattr(p, "datum"):
            return self.intern(("='", _datum_token(datum)))
        raise TypeError(f"cannot fingerprint predicate {p!r}")

    def _hterm(self, t: HTerm) -> Hashable:
        if isinstance(t, HConst):
            return self.intern(("c", t.value))
        if isinstance(t, HLoc):
            return self.loc(t.loc)
        if isinstance(t, HOp):
            return self.intern(
                (t.op, tuple(map(self._hterm, t.args))))
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
        return self.intern(("#", idx, name, self._store(self.heap.get(l))))

    def _store(self, s: core_heap.Storeable) -> Hashable:
        if isinstance(s, core_heap.SNum):
            return self.intern(("n", s.value))
        if isinstance(s, core_heap.SLam):
            return self.intern(("sl", self.expr(s.lam)))
        if isinstance(s, core_heap.SOpq):
            return self.intern(("opq", self.opq_slot(s.refinements), s.type))
        if isinstance(s, core_heap.SCase):
            loc = self.loc
            return self.intern((
                "case",
                s.out_type,
                tuple([(loc(k), loc(v)) for k, v in s.mapping]),
            ))
        raise TypeError(f"cannot fingerprint storeable {s!r}")

    def expr(self, e: core_syntax.Expr) -> Hashable:
        if isinstance(e, Loc):
            return self.loc(e)
        if isinstance(e, (core_syntax.Num, core_syntax.Ref,
                          core_syntax.Opq, core_syntax.Err)):
            return e  # frozen, loc-free: the node is its own token
        expr, intern = self.expr, self.intern
        if isinstance(e, core_syntax.Lam):
            return intern(("lam", e.var, e.var_type, expr(e.body)))
        if isinstance(e, core_syntax.Fix):
            return intern(("fix", e.var, e.var_type, expr(e.body)))
        if isinstance(e, core_syntax.App):
            return intern(("app", expr(e.fn), expr(e.arg)))
        if isinstance(e, core_syntax.If):
            return intern(("if", expr(e.test), expr(e.then),
                           expr(e.orelse)))
        if isinstance(e, core_syntax.PrimApp):
            return intern(("prim", e.op, e.label,
                           tuple(map(expr, e.args))))
        raise TypeError(f"cannot fingerprint expression {e!r}")


#: How many entries of the control's preorder walk a core key holds.
_CORE_KEY_LEN = 24


class CoreFingerprinter:
    """``core.State -> Node`` with a per-search interning table."""

    def __init__(self) -> None:
        self._interner = Interner()

    def key(self, state: core_machine.State) -> tuple:
        """The search kernel's admission key: the first entries of a
        preorder walk of the control — node classes, prim ops and
        numerals, and for a location its ``SNum`` value or storeable
        class.  Equal fingerprints give equal keys."""
        heap, out = state.heap, []
        todo = [state.control]
        while todo and len(out) < _CORE_KEY_LEN:
            e = todo.pop()
            if isinstance(e, Loc):
                s = heap.get(e)
                out.append(s.value if isinstance(s, core_heap.SNum)
                           else type(s))
            elif isinstance(e, core_syntax.Num):
                out.append(e.value)
            elif isinstance(e, core_syntax.App):
                out.append(core_syntax.App)
                todo += (e.arg, e.fn)
            elif isinstance(e, core_syntax.PrimApp):
                out.append(e.op)
                todo += reversed(e.args)
            elif isinstance(e, core_syntax.If):
                out.append(core_syntax.If)
                todo += (e.orelse, e.then, e.test)
            elif isinstance(e, (core_syntax.Lam, core_syntax.Fix)):
                out.append(type(e))
                todo.append(e.body)
            else:
                out.append(type(e))
        return tuple(out)

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
        self._global_names = fingerprinter._global_names
        self._code_memo = fingerprinter._code_memo
        self._env_memo: dict[int, Hashable] = {}
        self._sheap = fingerprinter._sheap
        self._smach = fingerprinter._smach
        # Location references serialized from code so far (see uexpr).
        self._code_locs = 0

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
        return self.intern(("#", idx, ident, self._store(self.heap.get(l))))

    def _store(self, s) -> Hashable:
        sheap, loc = self._sheap, self.loc
        if isinstance(s, sheap.UConc):
            tok = ("c", _datum_token(s.value))
        elif isinstance(s, sheap.UPair):
            tok = ("pair", loc(s.car), loc(s.cdr))
        elif isinstance(s, sheap.UStruct):
            tok = ("struct", s.type.name, tuple(map(loc, s.fields)))
        elif isinstance(s, sheap.UBoxS):
            tok = ("box", loc(s.content))
        elif isinstance(s, sheap.UVectorS):
            tok = ("vec", tuple(map(loc, s.fields)))
        elif isinstance(s, sheap.UAlias):
            tok = ("alias", loc(s.target))
        elif isinstance(s, sheap.UClos):
            # UClos declares an SEnv (name/loc tuple) but the machine
            # stores MEnv chains; accept either.
            env_tok = (
                self.menv(s.env)
                if hasattr(s.env, "frame")
                else self.intern(tuple([(n, loc(l)) for n, l in s.env]))
            )
            tok = ("clos", self.uexpr(s.lam), env_tok)
        elif isinstance(s, sheap.UPrim):
            tok = ("uprim", s.name)
        elif isinstance(s, sheap.UStructCtor):
            tok = ("ctor", s.type.name)
        elif isinstance(s, sheap.UGuard):
            tok = ("guard", loc(s.contract), loc(s.inner), s.pos, s.neg)
        elif isinstance(s, sheap.UCtc):
            tok = ("ctc", s.kind,
                   s.stype.name if s.stype is not None else "",
                   tuple(map(loc, s.parts)))
        elif isinstance(s, sheap.UOpq):
            tok = ("opq", self.opq_slot(s.preds), tuple(sorted(s.possible)))
        elif isinstance(s, sheap.UCase):
            tok = ("ucase", s.arity,
                   tuple([(tuple(map(loc, key)), loc(v))
                          for key, v in s.mapping]))
        else:
            raise TypeError(f"cannot fingerprint storeable {s!r}")
        return self.intern(tok)

    def menv(self, env) -> Hashable:
        """A machine environment chain, innermost frame first.

        The globals-only base frame is per-program constant, so its
        names-only token is cached across states — but only while no
        path has shadowed a global in the heap overlay
        (``has_global_writes``); a ``set!`` on a primitive name revokes
        the shortcut and the frame serializes through ``loc`` like any
        other, picking up the overlaid value.  Cache entries pin the
        environment object so an ``id`` can never be recycled onto a
        different frame.  The shared primitive frame's names come
        ready-made with the frame (``scv.engine.global_names``).

        Within one state, a chain whose locations had all been visited
        before it serializes to back references only, and would again:
        its token is memoised by ``id`` for the rest of the run (the
        state keeps every environment it holds alive)."""
        key = id(env)
        memo = self._env_memo.get(key)
        if memo is not None:
            return memo
        visited = len(self.canon)
        intern, loc = self.intern, self.loc
        globals_clean = not self.heap.has_global_writes
        frames = []
        while env is not None:
            if globals_clean and env.parent is None:
                cached = self._genv_cache.get(id(env))
                if cached is None or cached[0] is not env:
                    cached = self._names_token(env)
                if cached is not None:
                    frames.append(cached[1])
                    break  # globals-only frames never chain further
            frames.append(intern(tuple([(n, loc(l))
                                        for n, l in sorted(env.frame.items())])))
            env = env.parent
        token = intern(tuple(frames))
        if len(self.canon) == visited:
            self._env_memo[key] = token
        return token

    def _names_token(self, env) -> Optional[tuple]:
        """Cache and return ``(env, token)`` for a root frame that binds
        only globals; ``None`` for any other frame."""
        names = self._global_names(env)
        if names is None:
            items = sorted(env.frame.items())
            if not items or not all(l.name.startswith("g") for _, l in items):
                return None
            names = tuple([(n, l.name) for n, l in items])
        cached = self._genv_cache[id(env)] = (env, self.intern(("genv", names)))
        return cached

    def uexpr(self, e: uast.UExpr) -> Hashable:
        """An expression's token.  Code that serializes no location
        (no ``ULocE`` below it) has the same token in every state, so it
        is memoised by node identity for the rest of the search; the
        entry pins the node so its ``id`` cannot be recycled."""
        smach = self._smach
        if isinstance(e, smach.ULocE):
            self._code_locs += 1
            return self.loc(e.loc)
        if isinstance(e, (uast.UVar, uast.UOpaque, smach.UBlameE)):
            return e  # frozen, loc-free: the node is its own token
        memo = self._code_memo.get(id(e))
        if memo is not None and memo[0] is e:
            return memo[1]
        locs = self._code_locs
        uexpr = self.uexpr
        if isinstance(e, uast.Quote):
            tok = ("q", _datum_token(e.datum))
        elif isinstance(e, uast.ULam):
            tok = ("ulam", e.params, uexpr(e.body))
        elif isinstance(e, uast.UApp):
            tok = ("uapp", uexpr(e.fn), tuple(map(uexpr, e.args)),
                   e.label)
        elif isinstance(e, uast.UIf):
            tok = ("uif", uexpr(e.test), uexpr(e.then), uexpr(e.orelse))
        elif isinstance(e, uast.UBegin):
            tok = ("ubegin", tuple(map(uexpr, e.exprs)))
        elif isinstance(e, uast.ULetrec):
            tok = ("ulr", tuple([(n, uexpr(x)) for n, x in e.bindings]),
                   uexpr(e.body))
        elif isinstance(e, uast.USet):
            tok = ("uset", e.name, uexpr(e.value))
        elif isinstance(e, smach.UMon):
            tok = ("umon", uexpr(e.contract), uexpr(e.value),
                   e.pos, e.neg, e.label)
        else:
            raise TypeError(f"cannot fingerprint expression {e!r}")
        tok = self.intern(tok)
        if self._code_locs == locs:
            self._code_memo[id(e)] = (e, tok)
        return tok

    def kont(self, stack) -> Hashable:
        smach, intern = self._smach, self.intern
        loc, uexpr, menv = self.loc, self.uexpr, self.menv
        out = []
        for k in stack:
            if isinstance(k, smach.KIf):
                tok = ("kif", uexpr(k.then), uexpr(k.orelse), menv(k.env))
            elif isinstance(k, smach.KApp):
                tok = ("kapp", tuple(map(loc, k.done)),
                       tuple(map(uexpr, k.pending)),
                       menv(k.env), k.label)
            elif isinstance(k, smach.KBegin):
                tok = ("kbegin", tuple(map(uexpr, k.rest)),
                       menv(k.env))
            elif isinstance(k, smach.KLetrec):
                tok = ("klr", tuple(map(loc, k.cells)), k.index,
                       tuple([(n, uexpr(x)) for n, x in k.bindings]),
                       uexpr(k.body), menv(k.env))
            elif isinstance(k, smach.KSet):
                tok = ("kset", loc(k.cell))
            elif isinstance(k, smach.KMonC):
                tok = ("kmonc", uexpr(k.value), menv(k.env),
                       k.pos, k.neg, k.label)
            elif isinstance(k, smach.KMonV):
                tok = ("kmonv", loc(k.ctc), k.pos, k.neg, k.label)
            else:
                raise TypeError(f"cannot fingerprint continuation {k!r}")
            out.append(intern(tok))
        return intern(tuple(out))


class ScvFingerprinter:
    """``scv.SState -> Node``; caches the interned globals-only
    base environment frame and the tokens of loc-free code across
    states (both are per-program constants)."""

    def __init__(self) -> None:
        # Resolved once per fingerprinter rather than per node; a
        # module-level import would close an import cycle through
        # repro.prims.
        from ..scv import heap as sheap
        from ..scv import machine as smach
        from ..scv.engine import global_names

        self._sheap = sheap
        self._smach = smach
        self._global_names = global_names
        self._interner = Interner()
        self._genv_cache: dict[int, tuple] = {}
        self._code_memo: dict[int, tuple] = {}

    def key(self, state) -> tuple:
        """The search kernel's admission key: the control's kind with
        its node class and label (code), its cell (a value) or its
        party, label and description (blame); the continuation's depth
        and top frame class; and the innermost non-root environment
        frame's names with their cells.  A cell contributes its class,
        or its datum token for a ``UConc`` — nothing that location
        renaming or heap garbage changes, so equal fingerprints give
        equal keys."""
        heap, c = state.heap, state.control
        cell = self._cell_key
        if isinstance(c, self._smach.Blame):
            ctrl = ("b", c.party, c.label, c.description)
        elif isinstance(c, Loc):
            ctrl = ("v", cell(heap.get(c)))
        else:
            ctrl = ("e", type(c), getattr(c, "label", None))
        kont, env = state.kont, state.env
        # A root frame (the globals frame, as a rule) is left out: its
        # cells cost more to walk than a fingerprint.
        frame = (
            None if env.parent is None
            else tuple([(n, cell(heap.get(l)))
                        for n, l in sorted(env.frame.items())])
        )
        return (ctrl, len(kont), type(kont[-1]) if kont else None, frame)

    def _cell_key(self, s) -> Hashable:
        if isinstance(s, self._sheap.UConc):
            return _datum_token(s.value)
        return type(s)

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
