"""The untyped primitive relation δ — paper Fig. 3 lifted to §4.

Where the typed δ (``core.delta``) only needs integers, the untyped δ
relates heaps and *tagged* values.  Every rule follows the same recipe:

1. **Concrete fast path** — when every argument reifies to a concrete
   Racket value, the rule *delegates to the very primitives the concrete
   interpreter runs* (the registry's concrete callables): one
   implementation, two engines.  A ``PrimError`` raised there becomes
   blame at the application label.
2. **Tag split** — opaque arguments branch on their possible tags: one
   blame branch per way the precondition can fail (the untyped machine's
   new error source), one ok branch with the argument narrowed.  Under
   ``assume_well_typed`` (used when cross-checking against the typed §3
   backend on the contract-free corpus) the blame branches are
   suppressed and only the narrowing is kept.
3. **Integer refinement** — narrowed numeric arguments take the integer
   instantiation and results carry ``PEq`` refinements over heap terms,
   confining solver reasoning to LIA exactly as §5.3 prescribes.

Higher-order and inductive primitives (``map``, ``listof`` walks,
``even?``...) are not implemented directly: they *synthesise* checking
code out of simpler primitives (``OEval``), the same move the monitor
makes for compound contracts (§4.3) — "the semantics of contract
checking itself breaks down complex and higher-order contracts into
simple predicates".

The dispatch table is not written by hand.  It is generated from the
primitive registry (``repro.prims``): a declaration's custom ``rule``
or per-primitive ``synth`` (see ``repro.prims.rules``) is used
directly, its ``pred_tags`` become the generic run-time type test, its
``refine`` template selects one of the interpreters below (arith /
offset / divlike / slash / compare / swap / sign) parameterised by the
declaration's tag signature, and a bare ``sig.result`` falls to the
generic tag-split handler.  This module owns only the *generic*
machinery; everything per-primitive lives in the registry.

Known divergence (shared with ``core.delta`` and documented in the
corpus discipline): symbolic ``quotient``/``modulo`` constraints use the
solver's Euclidean ``div``/``mod``, which differs from Racket's
truncating/floor semantics on negative operands; concrete validation
filters any spurious model this admits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..core.heap import (
    HConst, HLoc, HOp, HTerm, NameCursor, PEq, PLe, PLt, PNot, Pred, PZero,
)
from ..core.proof import Verdict
from ..core.syntax import Loc
from ..lang.ast import Quote, UApp, UExpr, UIf, ULam, ULetrec, UVar
from ..lang.values import Pair, StructVal
from ..prims import REGISTRY, PrimError, UserError, exactly
from .heap import (
    UConc,
    UHeap,
    UNDEFINED,
    UOpq,
    UPair,
    UPrim,
    UStoreable,
    UStruct,
    datum_tag,
    storeable_tag,
)
from .tags import NUMBER_TAGS, REAL_TAGS, TAG_BOOLEAN, TAG_INTEGER, struct_tag

__all__ = [
    "Outcome", "OValue", "OLoc", "OBlame", "OEval", "Rule", "delta_u",
    "datum_tag", "storeable_tag", "reify_concrete", "alloc_value",
]


# ---------------------------------------------------------------------------
# Outcomes — the codomain of δ
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    pass


@dataclass(frozen=True)
class OValue(Outcome):
    """Allocate ``storeable`` and continue with its location."""

    heap: UHeap
    storeable: UStoreable
    effort: int = 0


@dataclass(frozen=True)
class OLoc(Outcome):
    """Continue with an existing location (e.g. ``car`` of a pair)."""

    heap: UHeap
    loc: Loc
    effort: int = 0


@dataclass(frozen=True)
class OBlame(Outcome):
    """The primitive's precondition failed on this branch."""

    heap: UHeap
    party: str
    label: str
    description: str


@dataclass(frozen=True)
class OEval(Outcome):
    """Continue by evaluating synthesised code (§4.3-style expansion)."""

    heap: UHeap
    expr: UExpr
    env: object  # MEnv; untyped to avoid the machine ↔ delta import cycle
    effort: int = 0


def _is_exact_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# ---------------------------------------------------------------------------
# Reification of concrete arguments (for delegation to the registry)
# ---------------------------------------------------------------------------

_UNREIFIABLE = object()


def reify_concrete(heap: UHeap, l: Loc, depth: int = 0) -> object:
    """The concrete Racket value at ``l``, or ``_UNREIFIABLE`` if any
    reachable part is symbolic or behaviourful."""
    if depth > 64:
        return _UNREIFIABLE
    _, s = heap.deref(l)
    if isinstance(s, UConc):
        if s.value is UNDEFINED:
            return _UNREIFIABLE
        return s.value
    if isinstance(s, UPair):
        car = reify_concrete(heap, s.car, depth + 1)
        cdr = reify_concrete(heap, s.cdr, depth + 1)
        if car is _UNREIFIABLE or cdr is _UNREIFIABLE:
            return _UNREIFIABLE
        return Pair(car, cdr)
    if isinstance(s, UStruct):
        fields = [reify_concrete(heap, f, depth + 1) for f in s.fields]
        if any(f is _UNREIFIABLE for f in fields):
            return _UNREIFIABLE
        return StructVal(s.type, tuple(fields))
    return _UNREIFIABLE


def alloc_value(heap: UHeap, v: object,
                names: NameCursor) -> tuple[Loc, UHeap]:
    """Allocate a concrete Racket value back into the symbolic heap."""
    if isinstance(v, Pair):
        car, heap = alloc_value(heap, v.car, names)
        cdr, heap = alloc_value(heap, v.cdr, names)
        return heap.alloc(UPair(car, cdr), names)
    if isinstance(v, StructVal):
        locs = []
        for f in v.values:
            l, heap = alloc_value(heap, f, names)
            locs.append(l)
        return heap.alloc(UStruct(v.type, tuple(locs)), names)
    return heap.alloc(UConc(v), names)


class _NoApplyCtx:
    """Delegation context: concrete fast paths never call back into an
    interpreter — a primitive that tries has been mis-routed."""

    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        self.label = label

    def apply(self, fn, args):  # pragma: no cover - routing invariant
        raise RuntimeError("higher-order primitive reached the concrete "
                           "delegation path of scv.delta")


# ---------------------------------------------------------------------------
# The rule context
# ---------------------------------------------------------------------------


class Rule:
    """One δ-rule application: primitive + argument locations + label,
    with the branch-building helpers every handler shares.  This is the
    interface the registry's per-primitive rules program against
    (``repro.prims.rules``)."""

    #: Sentinel for values that cannot be reified (see :meth:`reify`).
    UNREIFIABLE = _UNREIFIABLE

    def __init__(self, machine, heap: UHeap, name: str,
                 args: tuple[Loc, ...], label: str) -> None:
        self.m = machine
        self.heap = heap
        self.name = name
        self.args = args
        self.label = label

    # -- basic lookups --------------------------------------------------

    def deref(self, l: Loc, heap: Optional[UHeap] = None):
        return (self.heap if heap is None else heap).deref(l)

    def conc(self, l: Loc, heap: Optional[UHeap] = None) -> object:
        _, s = self.deref(l, heap)
        return s.value if isinstance(s, UConc) else _UNREIFIABLE

    def reify(self, l: Loc) -> object:
        return reify_concrete(self.heap, l)

    @property
    def typed(self) -> bool:
        return self.m.assume_well_typed

    # -- outcome constructors -------------------------------------------

    def blame(self, desc: str, heap: Optional[UHeap] = None) -> OBlame:
        return OBlame(self.heap if heap is None else heap, "Λ", self.label,
                      f"{self.name}: {desc}")

    def value(self, s: UStoreable, heap: Optional[UHeap] = None,
              effort: int = 0) -> OValue:
        return OValue(self.heap if heap is None else heap, s, effort)

    def at(self, l: Loc, heap: Optional[UHeap] = None,
           effort: int = 0) -> OLoc:
        return OLoc(self.heap if heap is None else heap, l, effort)

    def boolean(self, b: bool, heap: Optional[UHeap] = None,
                effort: int = 0) -> OValue:
        return self.value(UConc(bool(b)), heap, effort)

    def run(self, expr: UExpr, heap: Optional[UHeap] = None,
            effort: int = 0) -> OEval:
        from .machine import MEnv

        return OEval(self.heap if heap is None else heap, expr, MEnv({}), effort)

    # -- synthesis helpers ----------------------------------------------

    def prim(self, name: str) -> UExpr:
        """An expression denoting primitive ``name`` (allocated into the
        rule's heap; synthesised code refers to it by location, never by
        name, so user bindings cannot shadow it)."""
        from .machine import ULocE

        l, self.heap = self.heap.alloc(UPrim(name), self.m.names)
        return ULocE(l)

    def loc_expr(self, l: Loc) -> UExpr:
        from .machine import ULocE

        return ULocE(l)

    def app(self, fn: UExpr, *args: UExpr) -> UApp:
        return UApp(fn, tuple(args), label=self.m.names.syn_label("dl"))

    def improper(self, what: str) -> UExpr:
        from .machine import UBlameE

        return UBlameE("Λ", f"{self.name}: expected proper list ({what})",
                       self.label)

    def spine(self, params: tuple[str, ...], body: UExpr,
              *call_args: UExpr) -> list[Outcome]:
        """``(letrec ([.go (λ params body)]) (.go call_args...))`` — the
        inductive list-walk skeleton every spine synthesis shares."""
        go = ULam(params, body, name=f"{self.name}-loop")
        return [self.run(ULetrec(((".go", go),),
                                 self.app(UVar(".go"), *call_args)))]

    # -- concrete delegation --------------------------------------------

    def all_concrete(self) -> Optional[list]:
        vals = [reify_concrete(self.heap, a) for a in self.args]
        if any(v is _UNREIFIABLE for v in vals):
            return None
        return vals

    def delegate(self, vals: list) -> list[Outcome]:
        try:
            out = REGISTRY[self.name].concrete(vals, _NoApplyCtx(self.label))
        except PrimError as pe:
            return [OBlame(self.heap, "Λ", self.label,
                           f"{pe.op}: {pe.message}")]
        except UserError as ue:
            return [OBlame(self.heap, "Λ", self.label, f"error: {ue.message}")]
        l, h = alloc_value(self.heap, out, self.m.names)
        return [OLoc(h, l)]

    # -- tag splitting ---------------------------------------------------

    def narrow_args(
        self, locs: tuple[Loc, ...], want: frozenset[str], desc: str
    ) -> tuple[list[tuple[UHeap, int]], list[Outcome]]:
        """Branch each opaque argument on ``want``.  Returns the ok
        branches (heaps with every argument narrowed into ``want``, plus
        accumulated effort) and the blame branches.  Under the typed
        discipline only narrowing happens — no blame branches unless an
        argument is *definitely* outside ``want``."""
        oks: list[tuple[UHeap, int]] = [(self.heap, 0)]
        blames: list[Outcome] = []
        for l in locs:
            next_oks: list[tuple[UHeap, int]] = []
            for heap, effort in oks:
                target, s = heap.deref(l)
                if not isinstance(s, UOpq):
                    tag = storeable_tag(s)
                    if tag in want:
                        next_oks.append((heap, effort))
                    else:
                        blames.append(self.blame(f"{desc}, got {s!r}", heap))
                    continue
                inter = s.possible & want
                if not inter:
                    blames.append(self.blame(f"{desc}, got {s!r}", heap))
                    continue
                if s.possible <= want:
                    next_oks.append((heap, effort))
                    continue
                next_oks.append((heap.narrow(target, want), effort + 1))
                if not self.typed:
                    bad = heap.narrow(target, s.possible - want)
                    blames.append(
                        self.blame(f"{desc}, got {self.deref(l, bad)[1]!r}",
                                   bad)
                    )
            oks = next_oks
        return oks, blames

    def int_narrow(self, heap: UHeap, l: Loc) -> tuple[UHeap, Optional[Loc]]:
        """Take the integer instantiation of a numeric argument: returns
        the (possibly narrowed) heap and the location to mention in heap
        terms, or None when the argument cannot be integer-sorted."""
        target, s = heap.deref(l)
        if isinstance(s, UConc):
            return heap, target if _is_exact_int(s.value) else None
        assert isinstance(s, UOpq)
        if TAG_INTEGER not in s.possible:
            return heap, None
        if s.possible != frozenset({TAG_INTEGER}):
            heap = heap.narrow(target, frozenset({TAG_INTEGER}))
        return heap, target


# ---------------------------------------------------------------------------
# Refinement-template interpreters: arithmetic
# ---------------------------------------------------------------------------


def _fold_term(op: str, terms: list[HTerm]) -> HTerm:
    out = terms[0]
    for t in terms[1:]:
        out = HOp(op, (out, t))
    return out


def _num_term(heap: UHeap, l: Loc) -> HTerm:
    _, s = heap.deref(l)
    if isinstance(s, UConc) and _is_exact_int(s.value):
        return HConst(s.value)
    target, _ = heap.deref(l)
    return HLoc(target)


def _h_arith(op: str) -> Callable[[Rule], list[Outcome]]:
    """n-ary +, -, * — fold into one heap term."""

    def handler(r: Rule) -> list[Outcome]:
        vals = r.all_concrete()
        if vals is not None:
            return r.delegate(vals)
        oks, out = r.narrow_args(r.args, NUMBER_TAGS, "expected number")
        for heap, effort in oks:
            locs = []
            all_int = True
            for a in r.args:
                heap, il = r.int_narrow(heap, a)
                if il is None:
                    all_int = False
                locs.append(il)
            if not all_int:
                out.append(OValue(heap, UOpq(NUMBER_TAGS), effort))
                continue
            terms = [_num_term(heap, a) for a in r.args]
            if op == "-" and len(terms) == 1:
                terms = [HConst(0), terms[0]]
            term = _fold_term(op, terms)
            out.append(
                OValue(heap, UOpq(frozenset({TAG_INTEGER}), (PEq(term),)),
                       effort)
            )
        return out

    return handler


def _h_offset(op: str) -> Callable[[Rule], list[Outcome]]:
    """add1 / sub1 — the ``±1`` special case of ``_h_arith``."""

    def handler(r: Rule) -> list[Outcome]:
        vals = r.all_concrete()
        if vals is not None:
            return r.delegate(vals)
        oks, out = r.narrow_args(r.args, NUMBER_TAGS, "expected number")
        for heap, effort in oks:
            heap, il = r.int_narrow(heap, r.args[0])
            if il is None:
                out.append(OValue(heap, UOpq(NUMBER_TAGS), effort))
                continue
            term = HOp(op, (_num_term(heap, r.args[0]), HConst(1)))
            out.append(
                OValue(heap, UOpq(frozenset({TAG_INTEGER}), (PEq(term),)),
                       effort)
            )
        return out

    return handler


def _h_divlike(op: str, constrain: bool) -> Callable[[Rule], list[Outcome]]:
    """quotient / modulo / remainder: exact-integer preconditions plus
    the canonical zero-divisor branch.  ``constrain`` attaches the
    Euclidean ``div``/``mod`` refinement; ``remainder`` (whose truncating
    semantics the solver cannot express) leaves the result opaque."""

    def handler(r: Rule) -> list[Outcome]:
        vals = r.all_concrete()
        if vals is not None:
            return r.delegate(vals)
        oks, out = r.narrow_args(
            r.args, frozenset({TAG_INTEGER}), "expected exact integer"
        )
        for heap, effort in oks:
            num, den = r.args
            dv = r.conc(den, heap)
            if dv is not _UNREIFIABLE:
                if dv == 0:
                    out.append(r.blame("division by zero", heap))
                    continue
                out.append(_div_ok(r, heap, effort, op, constrain))
                continue
            dt, _ = heap.deref(den)
            verdict = r.m.proof.check(heap, dt, PZero())
            if verdict is Verdict.PROVED:
                out.append(r.blame("division by zero", heap))
                continue
            if verdict is Verdict.REFUTED:
                out.append(_div_ok(r, heap, effort, op, constrain))
                continue
            out.append(
                r.blame("division by zero", heap.refine(dt, PZero()))
            )
            out.append(
                _div_ok(r, heap.refine(dt, PNot(PZero())), effort + 1, op,
                        constrain)
            )
        return out

    return handler


def _div_ok(r: Rule, heap: UHeap, effort: int, op: str,
            constrain: bool) -> OValue:
    preds: tuple[Pred, ...] = ()
    if constrain:
        term = HOp(op, (_num_term(heap, r.args[0]), _num_term(heap, r.args[1])))
        preds = (PEq(term),)
    return OValue(heap, UOpq(frozenset({TAG_INTEGER}), preds), effort)


def _h_slash(r: Rule) -> list[Outcome]:
    """``/`` — zero check, but results leave the integer fragment."""
    vals = r.all_concrete()
    if vals is not None:
        return r.delegate(vals)
    oks, out = r.narrow_args(r.args, NUMBER_TAGS, "expected number")
    for heap, effort in oks:
        den = r.args[-1]
        dv = r.conc(den, heap)
        if dv is not _UNREIFIABLE and dv == 0:
            out.append(r.blame("division by zero", heap))
            continue
        dt, ds = heap.deref(den)
        if isinstance(ds, UOpq):
            heap2, il = r.int_narrow(heap, den)
            if il is not None:
                out.append(r.blame("division by zero",
                                   heap2.refine(il, PZero())))
                heap = heap2.refine(il, PNot(PZero()))
                effort += 1
        out.append(OValue(heap, UOpq(NUMBER_TAGS), effort))
    return out


# ---------------------------------------------------------------------------
# Refinement-template interpreters: comparisons and sign predicates
# ---------------------------------------------------------------------------


def _flip_for_rhs(op: str, v1: int) -> Pred:
    if op == "=":
        return PEq(HConst(v1))
    if op == "<":
        return PNot(PLe(HConst(v1)))
    if op == "<=":
        return PNot(PLt(HConst(v1)))
    raise ValueError(op)


def _pred_for_lhs(op: str, heap: UHeap, l2: Loc) -> Pred:
    t = _num_term(heap, l2)
    if op == "=":
        return PEq(t)
    if op == "<":
        return PLt(t)
    if op == "<=":
        return PLe(t)
    raise ValueError(op)


def _h_compare(op: str) -> Callable[[Rule], list[Outcome]]:
    """Binary-normalised <, <=, = (>, >= arrive pre-swapped); n-ary uses
    chained synthesis."""

    def handler(r: Rule) -> list[Outcome]:
        vals = r.all_concrete()
        if vals is not None:
            return r.delegate(vals)
        if len(r.args) > 2:
            parts = [
                r.app(r.prim(r.name), r.loc_expr(a), r.loc_expr(b))
                for a, b in zip(r.args, r.args[1:])
            ]
            chain: UExpr = Quote(True)
            for p in reversed(parts):
                chain = UIf(p, chain, Quote(False))
            return [r.run(chain)]
        want = NUMBER_TAGS if op == "=" else REAL_TAGS
        oks, out = r.narrow_args(
            r.args, want,
            "expected number" if op == "=" else "expected real",
        )
        norm_op = op
        l1, l2 = r.args
        for heap, effort in oks:
            heap, i1 = r.int_narrow(heap, l1)
            heap, i2 = r.int_narrow(heap, l2)
            if i1 is None or i2 is None:
                out.append(OValue(heap, UOpq(frozenset({TAG_BOOLEAN})),
                                  effort))
                continue
            v1, v2 = r.conc(l1, heap), r.conc(l2, heap)
            if v1 is not _UNREIFIABLE and v2 is not _UNREIFIABLE:
                out.append(r.boolean(_COMPARE_PY[norm_op](v1, v2), heap,
                                     effort))
                continue
            if v1 is _UNREIFIABLE:
                subject, pred = i1, _pred_for_lhs(norm_op, heap, l2)
            else:
                subject, pred = i2, _flip_for_rhs(norm_op, v1)
            verdict = r.m.proof.check(heap, subject, pred)
            if verdict is Verdict.PROVED:
                out.append(r.boolean(True, heap, effort))
            elif verdict is Verdict.REFUTED:
                out.append(r.boolean(False, heap, effort))
            else:
                out.append(
                    r.boolean(True, heap.refine(subject, pred), effort + 1)
                )
                out.append(
                    r.boolean(False, heap.refine(subject, PNot(pred)),
                              effort + 1)
                )
        return out

    return handler


_COMPARE_PY = {
    "=": lambda a, b: a == b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


def _h_swapped(swap_name: str) -> Callable[[Rule], list[Outcome]]:
    """>, >= — binary calls are normalised by swapping operands into the
    ``swap_name`` comparison; n-ary uses chained synthesis."""
    inner = _h_compare(swap_name)

    def handler(r: Rule) -> list[Outcome]:
        if len(r.args) == 2:
            rr = Rule(r.m, r.heap, swap_name, tuple(reversed(r.args)),
                      r.label)
            return inner(rr)
        vals = r.all_concrete()
        if vals is not None:
            return r.delegate(vals)
        parts = [
            r.app(r.prim(r.name), r.loc_expr(a), r.loc_expr(b))
            for a, b in zip(r.args, r.args[1:])
        ]
        chain: UExpr = Quote(True)
        for p in reversed(parts):
            chain = UIf(p, chain, Quote(False))
        return [r.run(chain)]

    return handler


def _h_sign_pred(pred_of: Callable[[], Pred]) -> Callable[[Rule], list[Outcome]]:
    """zero? / positive? / negative? — *total* predicates: non-numbers
    answer #f, numbers branch three ways through the proof system."""

    def handler(r: Rule) -> list[Outcome]:
        vals = r.all_concrete()
        if vals is not None:
            return r.delegate(vals)
        (l,) = r.args
        target, s = r.deref(l)
        if not isinstance(s, UOpq):
            return [r.boolean(False)]  # a symbolic pair/struct is not a number
        out: list[Outcome] = []
        if not (s.possible & NUMBER_TAGS):
            return [r.boolean(False)]
        if not (s.possible <= NUMBER_TAGS):
            out.append(
                r.boolean(False, r.heap.narrow(target,
                                               s.possible - NUMBER_TAGS), 1)
            )
            r = Rule(r.m, r.heap.narrow(target, NUMBER_TAGS), r.name, r.args,
                     r.label)
        heap, il = r.int_narrow(r.heap, l)
        if il is None:
            out.append(OValue(heap, UOpq(frozenset({TAG_BOOLEAN})), 1))
            return out
        p = pred_of()
        verdict = r.m.proof.check(heap, il, p)
        if verdict is Verdict.PROVED:
            out.append(r.boolean(True, heap))
        elif verdict is Verdict.REFUTED:
            out.append(r.boolean(False, heap))
        else:
            out.append(r.boolean(True, heap.refine(il, p), 1))
            out.append(r.boolean(False, heap.refine(il, PNot(p)), 1))
        return out

    return handler


# ---------------------------------------------------------------------------
# Generic handlers driven by the tag signature
# ---------------------------------------------------------------------------


def _h_tag_pred(
    tags: frozenset[str],
    materialize=None,
) -> Callable[[Rule], list[Outcome]]:
    """The generic run-time type test (§4.1): concrete subjects answer
    immediately, opaque subjects branch and *narrow*; ``materialize``
    turns a tag-narrowed opaque into its shape (§4.2) on the yes branch
    — once known to be a pair it *becomes* ``(cons • •)``."""

    def handler(r: Rule) -> list[Outcome]:
        (l,) = r.args
        target, s = r.deref(l)
        if not isinstance(s, UOpq):
            return [r.boolean((storeable_tag(s) or "") in tags)]
        inter = s.possible & tags
        if not inter:
            return [r.boolean(False)]
        if s.possible <= tags:
            return [r.boolean(True)]
        yes_heap = r.heap.narrow(target, inter)
        if materialize is not None:
            shape, yes_heap = materialize(r, yes_heap)
            yes_heap = yes_heap.set(target, shape)
        return [
            r.boolean(True, yes_heap, 1),
            r.boolean(False, r.heap.narrow(target, s.possible - tags), 1),
        ]

    return handler


def _h_generic(
    want: frozenset[str], result: frozenset[str], desc: str
) -> Callable[[Rule], list[Outcome]]:
    """Fallback for scalar primitives with a uniform precondition
    (strings, transcendental-ish numerics): delegate when concrete,
    tag-split and return an unconstrained result otherwise."""

    def handler(r: Rule) -> list[Outcome]:
        vals = r.all_concrete()
        if vals is not None:
            return r.delegate(vals)
        oks, out = r.narrow_args(r.args, want, desc)
        for heap, effort in oks:
            out.append(OValue(heap, UOpq(result), effort))
        return out

    return handler


# ---------------------------------------------------------------------------
# Struct predicates and accessors (registered per program)
# ---------------------------------------------------------------------------


def _struct_rule(r: Rule, role: str, stype, index: int) -> list[Outcome]:
    if role == "pred":
        tags = frozenset({struct_tag(stype.name)})

        def mat(rule: Rule, heap: UHeap) -> tuple[UStoreable, UHeap]:
            fields = []
            for _ in stype.fields:
                fl, heap = heap.alloc(rule.m.fresh_opq(), rule.m.names)
                fields.append(fl)
            return UStruct(stype, tuple(fields)), heap

        return _h_tag_pred(tags, mat)(r)
    (l,) = r.args
    target, s = r.deref(l)
    if isinstance(s, UStruct) and s.type == stype:
        return [OLoc(r.heap, s.fields[index])]
    tag = struct_tag(stype.name)
    if isinstance(s, UOpq) and tag in s.possible:
        out: list[Outcome] = []
        if s.possible != frozenset({tag}) and not r.typed:
            bad = r.heap.narrow(target, s.possible - frozenset({tag}))
            out.append(r.blame(f"expected {stype.name}", bad))
        fields = []
        heap = r.heap
        for _ in stype.fields:
            fl, heap = heap.alloc(r.m.fresh_opq(), r.m.names)
            fields.append(fl)
        heap = heap.set(target, UStruct(stype, tuple(fields)))
        out.append(OLoc(heap, fields[index], 1))
        return out
    return [r.blame(f"expected {stype.name}, got {s!r}")]


# ---------------------------------------------------------------------------
# Dispatch — generated from the registry
# ---------------------------------------------------------------------------


def _refine_handler(ref) -> Callable[[Rule], list[Outcome]]:
    """Instantiate the refinement-template interpreter a declaration
    names."""
    if ref.kind == "arith":
        return _h_arith(ref.op)
    if ref.kind == "offset":
        return _h_offset(ref.op)
    if ref.kind == "divlike":
        return _h_divlike(ref.op, constrain=ref.constrain)
    if ref.kind == "slash":
        return _h_slash
    if ref.kind == "compare":
        return _h_compare(ref.op)
    if ref.kind == "swap":
        return _h_swapped(ref.op)
    if ref.kind == "sign":
        return _h_sign_pred(ref.pred)
    raise ValueError(f"unknown refinement template {ref.kind!r}")


def _synth_handler(spec) -> Callable[[Rule], list[Outcome]]:
    """Wrap a synthesis rule with the concrete fast path (unless the
    declaration opted out — higher-order synthesis rules must not
    delegate: the δ context has no apply callback)."""
    if not spec.delegate_concrete:
        return spec.synth
    synth = spec.synth

    def handler(r: Rule) -> list[Outcome]:
        vals = r.all_concrete()
        if vals is not None:
            return r.delegate(vals)
        return synth(r)

    return handler


_DISPATCH: Optional[dict[str, Callable[[Rule], list[Outcome]]]] = None


def _dispatch() -> dict[str, Callable[[Rule], list[Outcome]]]:
    """name → handler, derived from every registry declaration.  Built
    lazily (and memoised): the registry package itself imports ``scv``
    siblings while initialising, so the table cannot be built at import
    time."""
    global _DISPATCH
    if _DISPATCH is None:
        from ..prims.rules import MATERIALIZERS

        table: dict[str, Callable[[Rule], list[Outcome]]] = {}
        for spec in REGISTRY.values():
            if spec.rule is not None:
                h = spec.rule  # custom rules manage their own delegation
            elif spec.pred_tags is not None:
                h = _h_tag_pred(spec.pred_tags,
                                MATERIALIZERS.get(spec.materialize))
            elif spec.synth is not None:
                h = _synth_handler(spec)
            elif spec.refine is not None:
                h = _refine_handler(spec.refine)
            elif spec.sig.result is not None:
                h = _h_generic(spec.sig.want, spec.sig.result, spec.sig.desc)
            else:
                continue  # pragma: no cover - lint enforces coverage
            table[spec.name] = h
        _DISPATCH = table
    return _DISPATCH


def delta_u(machine, heap: UHeap, name: str, args: tuple[Loc, ...],
            label: str) -> list[Outcome]:
    """All δ-branches for primitive ``name`` on ``args`` under ``heap``.
    A registry primitive's arity is checked here, before its rule runs."""
    r = Rule(machine, heap, name, args, label)
    struct_entry = machine.struct_prims.get(name)
    if struct_entry is not None:
        role, stype, index = struct_entry
        msg = exactly(1).blame(len(args))
        if msg is not None:
            return [r.blame(msg)]
        return _struct_rule(r, role, stype, index)
    spec = REGISTRY.get(name)
    if spec is None:
        return [r.blame("unknown primitive")]
    msg = spec.arity.blame(len(args))
    if msg is not None:
        return [r.blame(msg)]
    return _dispatch()[name](r)
