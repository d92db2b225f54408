"""Symbolic CESK machine for the untyped language (§4).

A small-step machine with explicit continuations so the nondeterministic
transition system can be searched breadth-first.  All values live in the
symbolic heap (``scv.heap``); environments map names to locations.

Design notes mirroring the paper:

* **Contract monitoring is program synthesis** (§4.3): ``UMon`` on a
  compound contract expands into ordinary code — ``cons/c`` becomes a
  ``pair?`` test plus monitored ``car``/``cdr``, ``listof`` becomes a
  recursive loop — so "the semantics of contract checking itself breaks
  down complex and higher-order contracts into simple predicates".
* **Unknown application** generalises SPCF's AppOpq rules dynamically
  (§4.1): one branch memoises the application in a ``UCase`` mapping
  (covering constant and delayed-exploration behaviour, since the opaque
  result can itself be applied later), plus one *havoc* branch per
  function-like argument, in which the unknown context probes that
  argument with fresh opaques.
* **Errors from unknown code are ignored** (the approximation relation's
  Err-Opq rule): blame that faults an *opaque party* — a ``•``-prefixed
  unknown import or the synthesised demonic client — is the unknown
  context's business and does not count as a finding; the driver
  filters on ``Blame.known``.  Known parties are ``Λ`` (the program's
  own primitive applications) and module names (contract violations by
  known code).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from ..core.heap import NameCursor, PNot
from ..core.syntax import Loc
from ..lang.ast import (
    Quote,
    UApp,
    UBegin,
    UExpr,
    UIf,
    ULam,
    ULetrec,
    UOpaque,
    USet,
    UVar,
)
from ..lang.sexp import Symbol
from ..lang.values import NIL, StructType, VOID
from .heap import (
    PEqDatum,
    UAlias,
    UCase,
    UClos,
    UConc,
    UCtc,
    UGuard,
    UHeap,
    UNDEFINED as _UNDEFINED,
    UOpq,
    UPair,
    UPrim,
    UStoreable,
    UStruct,
    UStructCtor,
)
from .tags import BASE_TAGS, TAG_BOOLEAN, TAG_PROCEDURE, struct_tag

def is_known_label(label: str) -> bool:
    """Labels minted by the parser ('aN') are known-code sites; labels
    minted by the machine ('hv:', 'mon:', 'syn:') are not."""
    return bool(label) and ":" not in label


# ---------------------------------------------------------------------------
# Internal AST nodes (never produced by the parser)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ULocE(UExpr):
    """A heap location used as an expression."""

    loc: Loc

    def __repr__(self) -> str:
        return f"${self.loc.name}"


@dataclass(frozen=True)
class UBlameE(UExpr):
    party: str
    description: str
    label: str

    def __repr__(self) -> str:
        return f"(blame {self.party})"


@dataclass(frozen=True)
class UMon(UExpr):
    """Monitor ``value`` with (the value of) ``contract``."""

    contract: UExpr
    value: UExpr
    pos: str
    neg: str
    label: str

    def __repr__(self) -> str:
        return f"(mon {self.contract!r} {self.value!r} +{self.pos} -{self.neg})"


# ---------------------------------------------------------------------------
# Environments (persistent chain of frames)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MEnv:
    """Immutable environment node: a frame dict (never mutated after
    construction) and a parent."""

    frame: dict
    parent: Optional["MEnv"] = None

    def lookup(self, name: str) -> Optional[Loc]:
        env: Optional[MEnv] = self
        while env is not None:
            l = env.frame.get(name)
            if l is not None:
                return l
            env = env.parent
        return None

    def extend(self, bindings: dict) -> "MEnv":
        return MEnv(bindings, self)


# ---------------------------------------------------------------------------
# Continuations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kont:
    pass


@dataclass(frozen=True)
class KIf(Kont):
    then: UExpr
    orelse: UExpr
    env: MEnv


@dataclass(frozen=True)
class KApp(Kont):
    done: tuple[Loc, ...]
    pending: tuple[UExpr, ...]
    env: MEnv
    label: str


@dataclass(frozen=True)
class KBegin(Kont):
    rest: tuple[UExpr, ...]
    env: MEnv


@dataclass(frozen=True)
class KLetrec(Kont):
    cells: tuple[Loc, ...]
    index: int
    bindings: tuple[tuple[str, UExpr], ...]
    body: UExpr
    env: MEnv


@dataclass(frozen=True)
class KSet(Kont):
    cell: Loc


@dataclass(frozen=True)
class KMonC(Kont):
    """Contract evaluated next; then the value."""

    value: UExpr
    env: MEnv
    pos: str
    neg: str
    label: str


@dataclass(frozen=True)
class KMonV(Kont):
    ctc: Loc
    pos: str
    neg: str
    label: str


KontStack = tuple[Kont, ...]  # innermost frame last


# ---------------------------------------------------------------------------
# States and answers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Blame:
    """An error answer: a party is blamed at a label."""

    party: str
    label: str
    description: str

    @property
    def known(self) -> bool:
        """Does this blame implicate *known* code?  Blame on an opaque
        party (``•``-prefixed: unknown imports, the demonic client) is
        the unknown context's business and never a finding, whatever
        label it lands on — the approximation relation's Err-Opq rule."""
        return not self.party.startswith("•")

    def __repr__(self) -> str:
        return f"blame({self.party} @ {self.label}: {self.description})"


Control = Union[UExpr, Loc, Blame]


@dataclass(frozen=True)
class SState:
    control: Control
    env: MEnv
    heap: UHeap
    kont: KontStack
    # Search-heuristic metadata (§5.3): how many opaque-expansion steps
    # this path has taken — "input generation effort".
    gen_effort: int = 0
    # The next synthetic-label and location numbers on this state's
    # path: the machine seeds its name cursor with these before stepping,
    # so minted names depend only on the path from the initial state —
    # never on search order.  Both are excluded from fingerprints, like
    # ``gen_effort``.
    syn_base: int = 0
    loc_base: int = 0

    @property
    def is_answer(self) -> bool:
        if isinstance(self.control, Blame):
            return True
        return isinstance(self.control, Loc) and not self.kont


class SMachine:
    """The step function.  Stateless apart from configuration and the
    name cursor each step seeds from its state; all execution state
    lives in :class:`SState`.

    Configuration:

    * ``proof`` — the untyped proof system (``scv.proof.UProofSystem``);
    * ``struct_types`` — the program's struct definitions; registering
      them widens the opaque tag universe (``all_tags``) so unknowns can
      *be* those structs, and populates ``struct_prims`` so δ can answer
      their predicates/accessors;
    * ``assume_well_typed`` — the cross-check discipline: when True, tag
      *uncertainty* on opaque values narrows silently instead of
      spawning blame branches (matching what the §3 typed backend rules
      out by typing), while definite tag violations and value-level
      errors (division by zero, contract blame) still branch.  Used by
      the driver when running the contract-free shared corpus so the
      two backends answer the same question.
    """

    def __init__(self, *, proof=None, struct_types=None,
                 assume_well_typed: bool = False) -> None:
        from .proof import UProofSystem

        self.proof = proof or UProofSystem()
        self.names = NameCursor()  # seeded per step from the state
        self.struct_types: dict[str, StructType] = dict(struct_types or {})
        self.assume_well_typed = assume_well_typed
        self.all_tags = BASE_TAGS | {
            struct_tag(n) for n in self.struct_types
        }
        # prim name -> ("pred" | "accessor", StructType, field index)
        self.struct_prims: dict[str, tuple[str, StructType, int]] = {}
        for st in self.struct_types.values():
            self.struct_prims[f"{st.name}?"] = ("pred", st, 0)
            for i, f in enumerate(st.fields):
                self.struct_prims[f"{st.name}-{f}"] = ("accessor", st, i)

    def fresh_opq(self) -> UOpq:
        """An unconstrained unknown over this program's tag universe."""
        return UOpq(self.all_tags)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def step(self, st: SState) -> Optional[list[SState]]:
        if st.is_answer:
            return None
        c = st.control
        if isinstance(c, Blame):  # pragma: no cover - answers caught above
            return None
        # Seed the name cursor from this state so every name minted while
        # stepping depends only on the path, then stamp the successors
        # with where it stopped.
        names = self.names
        names.syn, names.loc = st.syn_base, st.loc_base
        if isinstance(c, Loc):
            succs = self._plug(c, st)
        else:
            succs = self._eval(c, st)
        syn, loc = names.syn, names.loc
        return [replace(s, syn_base=syn, loc_base=loc) for s in succs]

    # -- evaluation ------------------------------------------------------

    def _eval(self, e: UExpr, st: SState) -> list[SState]:
        env, heap, kont = st.env, st.heap, st.kont
        if isinstance(e, Quote):
            l, h = _alloc_datum(heap, e.datum, self.names)
            return [SState(l, env, h, kont, st.gen_effort)]
        if isinstance(e, ULocE):
            return [SState(e.loc, env, heap, kont, st.gen_effort)]
        if isinstance(e, UBlameE):
            return [
                SState(
                    Blame(e.party, e.label, e.description), env, heap, (),
                    st.gen_effort,
                )
            ]
        if isinstance(e, UVar):
            l = env.lookup(e.name)
            if l is None:
                return [
                    SState(
                        Blame("top", "", f"unbound variable {e.name}"),
                        env, heap, (), st.gen_effort,
                    )
                ]
            target, _ = heap.deref(l)
            return [SState(target, env, heap, kont, st.gen_effort)]
        if isinstance(e, ULam):
            l, h = heap.alloc(UClos(e, env), self.names)
            return [SState(l, env, h, kont, st.gen_effort)]
        if isinstance(e, UOpaque):
            l = Loc(f"o:{e.label}")
            h = heap if l in heap else heap.set(l, self.fresh_opq())
            return [SState(l, env, h, kont, st.gen_effort)]
        if isinstance(e, UIf):
            return [
                SState(e.test, env, heap, kont + (KIf(e.then, e.orelse, env),),
                       st.gen_effort)
            ]
        if isinstance(e, UBegin):
            first, rest = e.exprs[0], e.exprs[1:]
            k = kont + (KBegin(rest, env),) if rest else kont
            return [SState(first, env, heap, k, st.gen_effort)]
        if isinstance(e, ULetrec):
            h = heap
            frame = {}
            cells = []
            for name, _ in e.bindings:
                l, h = h.alloc(UConc(_UNDEFINED), self.names, prefix="cell")
                frame[name] = l
                cells.append(l)
            child = env.extend(frame)
            if not e.bindings:
                return [SState(e.body, child, h, kont, st.gen_effort)]
            k = kont + (
                KLetrec(tuple(cells), 0, e.bindings, e.body, child),
            )
            return [SState(e.bindings[0][1], child, h, k, st.gen_effort)]
        if isinstance(e, USet):
            l = env.lookup(e.name)
            if l is None:
                return [
                    SState(
                        Blame("top", "", f"set!: unbound {e.name}"),
                        env, heap, (), st.gen_effort,
                    )
                ]
            return [
                SState(e.value, env, heap, kont + (KSet(l),), st.gen_effort)
            ]
        if isinstance(e, UApp):
            return [
                SState(
                    e.fn, env, heap,
                    kont + (KApp((), e.args, env, e.label),),
                    st.gen_effort,
                )
            ]
        if isinstance(e, UMon):
            return [
                SState(
                    e.contract, env, heap,
                    kont + (KMonC(e.value, env, e.pos, e.neg, e.label),),
                    st.gen_effort,
                )
            ]
        raise TypeError(f"cannot evaluate {e!r}")

    # -- plugging a value into the continuation -----------------------------

    def _plug(self, l: Loc, st: SState) -> list[SState]:
        kont = st.kont
        assert kont, "answers are filtered before plugging"
        frame, rest = kont[-1], kont[:-1]
        if isinstance(frame, KIf):
            return self._branch_if(l, frame, rest, st)
        if isinstance(frame, KApp):
            done = frame.done + (l,)
            if frame.pending:
                nxt, remaining = frame.pending[0], frame.pending[1:]
                k = rest + (KApp(done, remaining, frame.env, frame.label),)
                return [SState(nxt, frame.env, st.heap, k, st.gen_effort)]
            return self.apply(
                done[0], done[1:], frame.label, st.heap, rest, st
            )
        if isinstance(frame, KBegin):
            first, remaining = frame.rest[0], frame.rest[1:]
            k = rest + (KBegin(remaining, frame.env),) if remaining else rest
            return [SState(first, frame.env, st.heap, k, st.gen_effort)]
        if isinstance(frame, KLetrec):
            h = st.heap.set(frame.cells[frame.index], UAlias(l))
            nxt = frame.index + 1
            if nxt < len(frame.bindings):
                k = rest + (
                    KLetrec(frame.cells, nxt, frame.bindings, frame.body, frame.env),
                )
                return [
                    SState(frame.bindings[nxt][1], frame.env, h, k, st.gen_effort)
                ]
            return [SState(frame.body, frame.env, h, rest, st.gen_effort)]
        if isinstance(frame, KSet):
            h = st.heap.set(frame.cell, UAlias(l))
            lv, h = h.alloc(UConc(VOID), self.names)
            return [SState(lv, st.env, h, rest, st.gen_effort)]
        if isinstance(frame, KMonC):
            k = rest + (KMonV(l, frame.pos, frame.neg, frame.label),)
            return [SState(frame.value, frame.env, st.heap, k, st.gen_effort)]
        if isinstance(frame, KMonV):
            return self._monitor(frame, l, st.heap, rest, st)
        raise TypeError(f"unknown frame {frame!r}")

    # -- conditionals ------------------------------------------------------

    def _branch_if(
        self, l: Loc, frame: KIf, rest: KontStack, st: SState
    ) -> list[SState]:
        target, s = st.heap.deref(l)
        if isinstance(s, UConc):
            taken = frame.orelse if s.value is False else frame.then
            return [SState(taken, frame.env, st.heap, rest, st.gen_effort)]
        if not isinstance(s, UOpq):
            return [SState(frame.then, frame.env, st.heap, rest, st.gen_effort)]
        if TAG_BOOLEAN not in s.possible:
            return [SState(frame.then, frame.env, st.heap, rest, st.gen_effort)]
        out = []
        # False branch: the opaque *is* #f (strong update).
        h_false = st.heap.set(target, UConc(False))
        out.append(
            SState(frame.orelse, frame.env, h_false, rest, st.gen_effort + 1)
        )
        # True branch: not #f.
        h_true = st.heap.refine(target, PNot(PEqDatum(False)))
        out.append(
            SState(frame.then, frame.env, h_true, rest, st.gen_effort + 1)
        )
        return out

    # -- application ---------------------------------------------------------

    def apply(
        self,
        fn: Loc,
        args: tuple[Loc, ...],
        label: str,
        heap: UHeap,
        kont: KontStack,
        st: SState,
    ) -> list[SState]:
        fn_t, s = heap.deref(fn)
        if isinstance(s, UClos):
            if len(args) != len(s.lam.params):
                return [
                    SState(
                        Blame(
                            "Λ", label,
                            f"arity: {s.lam.name or 'λ'} expects "
                            f"{len(s.lam.params)}, got {len(args)}",
                        ),
                        st.env, heap, (), st.gen_effort,
                    )
                ]
            frame = dict(zip(s.lam.params, args))
            return [
                SState(s.lam.body, s.env.extend(frame), heap, kont, st.gen_effort)
            ]
        if isinstance(s, UPrim):
            from .delta import delta_u

            outcomes = delta_u(self, heap, s.name, args, label)
            return self._run_outcomes(outcomes, st, kont)
        if isinstance(s, UStructCtor):
            if len(args) != len(s.type.fields):
                return [
                    SState(
                        Blame("Λ", label, f"{s.type.name}: wrong field count"),
                        st.env, heap, (), st.gen_effort,
                    )
                ]
            l, h = heap.alloc(UStruct(s.type, args), self.names)
            return [SState(l, st.env, h, kont, st.gen_effort)]
        if isinstance(s, UGuard):
            return self._apply_guarded(fn_t, s, args, label, heap, kont, st)
        if isinstance(s, (UOpq, UCase)):
            return self._apply_opaque(fn_t, s, args, label, heap, kont, st)
        return [
            SState(
                Blame("Λ", label, f"application of non-procedure {s!r}"),
                st.env, heap, (), st.gen_effort,
            )
        ]

    def _run_outcomes(self, outcomes, st: SState, kont: KontStack) -> list[SState]:
        from .delta import OBlame, OEval, OLoc, OValue

        out = []
        for o in outcomes:
            if isinstance(o, OValue):
                l, h = o.heap.alloc(o.storeable, self.names)
                out.append(SState(l, st.env, h, kont, st.gen_effort + o.effort))
            elif isinstance(o, OLoc):
                out.append(SState(o.loc, st.env, o.heap, kont, st.gen_effort + o.effort))
            elif isinstance(o, OBlame):
                out.append(
                    SState(
                        Blame(o.party, o.label, o.description),
                        st.env, o.heap, (), st.gen_effort,
                    )
                )
            elif isinstance(o, OEval):
                out.append(SState(o.expr, o.env, o.heap, kont, st.gen_effort + o.effort))
            else:  # pragma: no cover
                raise TypeError(f"bad outcome {o!r}")
        return out

    # -- guarded application (contract checking at the boundary) -------------

    def _apply_guarded(
        self, fn: Loc, g: UGuard, args, label, heap, kont, st
    ) -> list[SState]:
        _, ctc = heap.deref(g.contract)
        assert isinstance(ctc, UCtc) and ctc.kind in ("fun", "dep")
        doms, last = ctc.parts[:-1], ctc.parts[-1]
        if len(args) != len(doms):
            return [
                SState(
                    Blame(g.neg, label, f"arity: contract expects {len(doms)}"),
                    st.env, heap, (), st.gen_effort,
                )
            ]
        mon_args = tuple(
            UMon(ULocE(d), ULocE(a), g.neg, g.pos, self.names.syn_label("mon"))
            for d, a in zip(doms, args)
        )
        if ctc.kind == "fun":
            expr: UExpr = UMon(
                ULocE(last),
                UApp(ULocE(g.inner), mon_args, label=self.names.syn_label("mon")),
                g.pos, g.neg, label,
            )
        else:
            # Dependent range: bind checked args, apply the range maker.
            names = tuple(f".d{i}" for i in range(len(doms)))
            vars_ = tuple(UVar(n) for n in names)
            body = UMon(
                UApp(ULocE(last), vars_, label=self.names.syn_label("mon")),
                UApp(ULocE(g.inner), vars_, label=self.names.syn_label("mon")),
                g.pos, g.neg, label,
            )
            expr = UApp(ULam(names, body), mon_args, label=self.names.syn_label("mon"))
        return [SState(expr, st.env, heap, kont, st.gen_effort)]

    # -- opaque application (the demonic context, §4.1) -----------------------

    def _apply_opaque(
        self, fn: Loc, s: UStoreable, args, label, heap, kont, st
    ) -> list[SState]:
        out: list[SState] = []
        if isinstance(s, UOpq):
            if TAG_PROCEDURE not in s.possible:
                return [
                    SState(
                        Blame("Λ", label, "application of non-procedure opaque"),
                        st.env, heap, (), st.gen_effort,
                    )
                ]
            if s.possible != frozenset({TAG_PROCEDURE}):
                # Error branch: the opaque might not be a procedure at
                # all — suppressed under the typed discipline, where the
                # §3 type system rules this shape of error out.
                if not self.assume_well_typed:
                    h_bad = heap.set(
                        fn, UOpq(s.possible - {TAG_PROCEDURE}, s.preds)
                    )
                    out.append(
                        SState(
                            Blame("Λ", label, "application of non-procedure opaque"),
                            st.env, h_bad, (), st.gen_effort + 1,
                        )
                    )
                heap = heap.set(fn, UOpq(frozenset({TAG_PROCEDURE}), s.preds))
            # Branch A: memoise (covers constant and delayed behaviour —
            # the opaque result can itself be applied later).
            la, h = heap.alloc(self.fresh_opq(), self.names)
            h = h.set(fn, UCase(len(args), ((tuple(args), la),)))
            out.append(SState(la, st.env, h, kont, st.gen_effort + 1))
            # Havoc branches: probe each function-like argument.
            out.extend(
                self._havoc_branches(fn, args, heap, kont, st)
            )
            return out
        assert isinstance(s, UCase)
        if len(args) != s.arity:
            # Unknown functions are applied at one arity per shape guess;
            # a mismatched arity yields an unmemoised fresh unknown.
            la, h = heap.alloc(self.fresh_opq(), self.names)
            return [SState(la, st.env, h, kont, st.gen_effort + 1)]
        hit = s.lookup(tuple(args))
        if hit is not None:
            return [SState(hit, st.env, heap, kont, st.gen_effort)]
        la, h = heap.alloc(self.fresh_opq(), self.names)
        h = h.set(fn, s.extended(tuple(args), la))
        return [SState(la, st.env, h, kont, st.gen_effort + 1)]

    def _havoc_branches(self, fn, args, heap, kont, st) -> list[SState]:
        """For each applicable argument, one branch in which the unknown
        context applies it to fresh opaques and feeds the result onward
        (the untyped AppHavoc)."""
        out = []
        for i, a in enumerate(args):
            _, sa = heap.deref(a)
            arity = _applicable_arity(heap, sa)
            if arity is None:
                continue
            h = heap
            probes = []
            for _ in range(arity):
                pl, h = h.alloc(self.fresh_opq(), self.names)
                probes.append(pl)
            k_loc, h = h.alloc(UOpq(frozenset({TAG_PROCEDURE})), self.names)
            # Remember the shape guess on the unknown function itself so a
            # counterexample can be reconstructed (cf. AppHavoc's Σ[L↦V]).
            names = tuple(f".h{j}" for j in range(len(args)))
            body = UApp(
                ULocE(k_loc),
                (
                    UApp(
                        UVar(names[i]),
                        tuple(ULocE(p) for p in probes),
                        label=self.names.syn_label("hv"),
                    ),
                ),
                label=self.names.syn_label("hv"),
            )
            h = h.set(fn, UClos(ULam(names, body, name="havoc"), MEnv({})))
            expr = UApp(
                ULocE(k_loc),
                (
                    UApp(
                        ULocE(a),
                        tuple(ULocE(p) for p in probes),
                        label=self.names.syn_label("hv"),
                    ),
                ),
                label=self.names.syn_label("hv"),
            )
            out.append(SState(expr, st.env, h, kont, st.gen_effort + 2))
        return out

    # -- contract monitoring dispatch -----------------------------------------

    def _monitor(
        self, frame: KMonV, value: Loc, heap: UHeap, kont: KontStack, st: SState
    ) -> list[SState]:
        """Dispatch ``mon(ctc, value)`` by synthesising checking code."""
        pos, neg, label = frame.pos, frame.neg, frame.label
        _, ctc = heap.deref(frame.ctc)
        if not isinstance(ctc, UCtc):
            # A bare predicate value used as a contract.
            test = UApp(ULocE(frame.ctc), (ULocE(value),), label=self.names.syn_label("mon"))
            expr = UIf(test, ULocE(value), UBlameE(pos, "flat contract", label))
            return [SState(expr, st.env, heap, kont, st.gen_effort)]
        mk = _MonitorSynth(self, pos, neg, label)
        expr = mk.synth(ctc, frame.ctc, value, heap)
        if isinstance(expr, _Wrapped):
            l, h = expr.heap.alloc(expr.storeable, self.names)
            return [SState(l, st.env, h, kont, st.gen_effort)]
        return [SState(expr, st.env, heap, kont, st.gen_effort)]


class _Wrapped:
    """Signal from the synthesiser: allocate this storeable directly."""

    def __init__(self, storeable: UStoreable, heap: UHeap) -> None:
        self.storeable = storeable
        self.heap = heap


class _MonitorSynth:
    """Builds the checking expression for each contract combinator."""

    def __init__(self, machine: SMachine, pos: str, neg: str, label: str) -> None:
        self.m = machine
        self.pos = pos
        self.neg = neg
        self.label = label

    def _mon(self, ctc_loc: Loc, value_expr: UExpr) -> UMon:
        return UMon(ULocE(ctc_loc), value_expr, self.pos, self.neg, self.label)

    def _blame(self, desc: str) -> UBlameE:
        return UBlameE(self.pos, desc, self.label)

    def _app(self, fn: UExpr, *args: UExpr) -> UApp:
        return UApp(fn, tuple(args), label=self.m.names.syn_label("mon"))

    def synth(self, ctc: UCtc, ctc_loc: Loc, v: Loc, heap: UHeap):
        vE = ULocE(v)
        if ctc.kind == "any":
            return vE
        if ctc.kind == "flat":
            test = self._app(ULocE(ctc.parts[0]), vE)
            return UIf(test, vE, self._blame("flat contract"))
        if ctc.kind == "oneof":
            expr: UExpr = self._blame("one-of/c")
            for choice in reversed(ctc.parts):
                expr = UIf(
                    self._app(UVar("equal?"), vE, ULocE(choice)), vE, expr
                )
            return expr
        if ctc.kind == "and":
            expr = vE
            for part in ctc.parts:
                expr = self._mon(part, expr)
            return expr
        if ctc.kind == "or":
            return self._synth_or(ctc, v, heap)
        if ctc.kind == "not":
            # not/c of a flat contract: blame when the inner test passes.
            _, inner = heap.deref(ctc.parts[0])
            if isinstance(inner, UCtc) and inner.kind == "flat":
                test = self._app(ULocE(inner.parts[0]), vE)
            elif isinstance(inner, UCtc) and inner.kind == "oneof":
                test = Quote(False)
                for choice in inner.parts:
                    test = UIf(
                        self._app(UVar("equal?"), vE, ULocE(choice)),
                        Quote(True), test,
                    )
            else:
                test = self._app(ULocE(ctc.parts[0]), vE)
            return UIf(test, self._blame("not/c"), vE)
        if ctc.kind == "cons":
            car_c, cdr_c = ctc.parts
            return UIf(
                self._app(UVar("pair?"), vE),
                self._app(
                    UVar("cons"),
                    self._mon(car_c, self._app(UVar("car"), vE)),
                    self._mon(cdr_c, self._app(UVar("cdr"), vE)),
                ),
                self._blame("cons/c on non-pair"),
            )
        if ctc.kind == "listof":
            # (letrec ([go (λ (xs) (if (null? xs) xs
            #                (if (pair? xs)
            #                    (cons (mon elem (car xs)) (go (cdr xs)))
            #                    blame)))]) (go v))
            elem = ctc.parts[0]
            xs = UVar(".xs")
            go_body = ULam(
                (".xs",),
                UIf(
                    self._app(UVar("null?"), xs),
                    xs,
                    UIf(
                        self._app(UVar("pair?"), xs),
                        self._app(
                            UVar("cons"),
                            self._mon(elem, self._app(UVar("car"), xs)),
                            self._app(UVar(".go"), self._app(UVar("cdr"), xs)),
                        ),
                        self._blame("listof on non-list"),
                    ),
                ),
                name="listof-mon",
            )
            return ULetrec(
                ((".go", go_body),), self._app(UVar(".go"), ULocE(v))
            )
        if ctc.kind == "list":
            expr: UExpr = UIf(
                self._app(UVar("null?"), UVar(".v")),
                UVar(".nil-done"), self._blame("list/c: wrong length"),
            )
            # Build from the right: check pair, monitor car, recurse cdr.
            def build(parts: tuple[Loc, ...], value_expr: UExpr) -> UExpr:
                if not parts:
                    return UIf(
                        self._app(UVar("null?"), value_expr),
                        Quote([]),
                        self._blame("list/c: too long"),
                    )
                head, tail = parts[0], parts[1:]
                return UIf(
                    self._app(UVar("pair?"), value_expr),
                    self._app(
                        UVar("cons"),
                        self._mon(head, self._app(UVar("car"), value_expr)),
                        build(tail, self._app(UVar("cdr"), value_expr)),
                    ),
                    self._blame("list/c: too short"),
                )

            return build(ctc.parts, ULocE(v))
        if ctc.kind == "struct":
            assert ctc.stype is not None
            pred = UVar(f"{ctc.stype.name}?")
            ctor = UVar(ctc.stype.name)
            accessors = [
                UVar(f"{ctc.stype.name}-{f}") for f in ctc.stype.fields
            ]
            fields = tuple(
                self._mon(c, self._app(acc, ULocE(v)))
                for c, acc in zip(ctc.parts, accessors)
            )
            return UIf(
                self._app(pred, ULocE(v)),
                UApp(ctor, fields, label=self.m.names.syn_label("mon")),
                self._blame(f"struct/c: not a {ctc.stype.name}"),
            )
        if ctc.kind == "rec":
            thunk = ctc.parts[0]
            return UMon(
                self._app(ULocE(thunk)), ULocE(v), self.pos, self.neg, self.label
            )
        if ctc.kind in ("fun", "dep"):
            return self._synth_fun(ctc, ctc_loc, v, heap)
        raise TypeError(f"unknown contract kind {ctc.kind}")

    def _synth_or(self, ctc: UCtc, v: Loc, heap: UHeap) -> UExpr:
        """or/c: try flat disjuncts first (their predicate tests refine
        the value), fall through to a single higher-order disjunct."""
        vE = ULocE(v)
        higher: list[Loc] = []
        flats: list[tuple[str, Loc]] = []
        for part in ctc.parts:
            _, p = heap.deref(part)
            if isinstance(p, UCtc) and p.kind in ("fun", "dep"):
                higher.append(part)
            else:
                flats.append(("mon", part))
        if higher:
            tail: UExpr = self._mon(higher[0], vE)
        else:
            tail = self._blame("or/c: no disjunct applies")
        expr = tail
        for _, part in reversed(flats):
            _, p = heap.deref(part)
            if isinstance(p, UCtc) and p.kind == "flat":
                test = self._app(ULocE(p.parts[0]), vE)
                expr = UIf(test, vE, expr)
            elif isinstance(p, UCtc) and p.kind == "oneof":
                inner: UExpr = expr
                for choice in reversed(p.parts):
                    inner = UIf(
                        self._app(UVar("equal?"), vE, ULocE(choice)), vE, inner
                    )
                expr = inner
            elif isinstance(p, UCtc) and p.kind == "any":
                expr = vE
            else:
                # Structural disjunct (cons/c etc.): no cheap test; rely
                # on monitoring it directly in a dedicated branch.
                expr = self._mon(part, vE)
        return expr

    def _synth_fun(self, ctc: UCtc, ctc_loc: Loc, v: Loc, heap: UHeap):
        _, sv = heap.deref(v)
        vE = ULocE(v)
        wrap = _Wrapped(UGuard(ctc_loc, v, self.pos, self.neg), heap)
        if isinstance(sv, (UClos, UPrim, UGuard, UStructCtor, UCase)):
            return wrap
        if isinstance(sv, UOpq):
            if TAG_PROCEDURE not in sv.possible:
                return self._blame("->: not a procedure")
            if sv.possible == frozenset({TAG_PROCEDURE}):
                return wrap
            # Branch through procedure?: the test narrows the opaque.
            return UIf(
                self._app(UVar("procedure?"), vE),
                UMon(ULocE(ctc_loc), vE, self.pos, self.neg, self.label),
                self._blame("->: not a procedure"),
            )
        return self._blame("->: not a procedure")


def _applicable_arity(heap: UHeap, s: UStoreable) -> Optional[int]:
    """Arity of a function-like storeable, for havoc probing."""
    if isinstance(s, UClos):
        return len(s.lam.params)
    if isinstance(s, UGuard):
        _, ctc = heap.deref(s.contract)
        if isinstance(ctc, UCtc) and ctc.kind in ("fun", "dep"):
            return len(ctc.parts) - 1
        return None
    if isinstance(s, UCase):
        return s.arity
    if isinstance(s, UPrim):
        return 1
    return None


def _alloc_datum(heap: UHeap, d: object, names: NameCursor) -> tuple[Loc, UHeap]:
    """Allocate a quoted datum (lists become pair chains)."""
    if isinstance(d, list):
        locs = []
        h = heap
        for item in d:
            l, h = _alloc_datum(h, item, names)
            locs.append(l)
        tail, h = h.alloc(UConc(NIL), names)
        for l in reversed(locs):
            tail, h = h.alloc(UPair(l, tail), names)
        return tail, h
    if isinstance(d, Symbol) and d.name == "void":
        return heap.alloc(UConc(VOID), names)
    return heap.alloc(UConc(d), names)
