"""Synthesis rules and custom untyped δ-rules for registered primitives.

Everything here is *per-primitive* behaviour referenced by the
declarations in ``repro.prims.declarations``; the *generic* machinery
that interprets tag signatures and refinement templates lives in
``scv.delta``.  Each function takes the rule context ``r`` (a
``scv.delta.Rule``) and returns δ-outcomes via its helpers, so this
module never imports ``scv.delta`` — the dependency points the other
way (``scv.delta`` → declarations → here).

Two shapes appear:

* **synthesis rules** (§4.3): the primitive expands into checking code
  over simpler primitives via ``r.run``/``r.spine`` — inductive list
  walks, parity tests, ``min``/``max`` as comparison towers;
* **custom rules**: shape-touching primitives (pairs, boxes, vectors,
  structs-as-contracts) that read or update the heap directly,
  including their ``assume_well_typed`` blame suppression.
"""

from __future__ import annotations

from ..core.heap import HConst, HLoc, PEq, PLe, PLt, PNot
from ..core.proof import Verdict
from ..core.syntax import Loc
from ..lang.ast import Quote, UExpr, UIf, ULam, UVar
from ..lang.values import NIL, VOID, racket_equal
from ..scv.heap import (
    PEqDatum,
    UBoxS,
    UCase,
    UClos,
    UConc,
    UCtc,
    UGuard,
    UHeap,
    UOpq,
    UPair,
    UPrim,
    UStoreable,
    UStruct,
    UStructCtor,
    UVectorS,
    datum_tag,
    storeable_tag,
)
from ..scv.tags import TAG_BOX, TAG_INTEGER, TAG_PAIR, TAG_STRING, TAG_VECTOR

_INT = frozenset({TAG_INTEGER})


def _is_exact_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# ---------------------------------------------------------------------------
# Numeric synthesis rules
# ---------------------------------------------------------------------------


def syn_abs(r) -> list:
    x = r.loc_expr(r.args[0])
    return [r.run(UIf(r.app(r.prim("<"), x, Quote(0)),
                      r.app(r.prim("-"), Quote(0), x), x))]


def syn_minmax(op: str):
    """min/max as an ordinary comparison tower: unary forces the
    realness check, binary picks through ``<``, n-ary folds right."""

    def synth(r) -> list:
        a = r.loc_expr(r.args[0])
        if len(r.args) == 1:
            # (< a a) is always #f but forces the realness check.
            return [r.run(UIf(r.app(r.prim("<"), a, a), a, a))]
        b = (r.loc_expr(r.args[1]) if len(r.args) == 2
             else r.app(r.prim(r.name), *[r.loc_expr(x) for x in r.args[1:]]))
        pick = ULam(
            (".a", ".b"),
            UIf(r.app(r.prim("<"), UVar(".a"), UVar(".b")),
                UVar(".a") if op == "min" else UVar(".b"),
                UVar(".b") if op == "min" else UVar(".a")),
        )
        return [r.run(r.app(pick, a, b))]

    return synth


def syn_parity(test_zero: bool):
    """even? / odd? via synthesis: ``(if (integer? x) ⟨mod test⟩ #f)``."""

    def synth(r) -> list:
        (l,) = r.args
        x = r.loc_expr(l)
        mod2 = r.app(r.prim("modulo"), x, Quote(2))
        test = r.app(r.prim("zero?"), mod2)
        inner = test if test_zero else r.app(r.prim("not"), test)
        return [r.run(UIf(r.app(r.prim("integer?"), x), inner, Quote(False)))]

    return synth


def rule_nonneg_int(r) -> list:
    """exact-nonnegative-integer? — a tag test plus a sign refinement."""
    vals = r.all_concrete()
    if vals is not None:
        return r.delegate(vals)
    (l,) = r.args
    target, s = r.deref(l)
    if not isinstance(s, UOpq):
        return [r.boolean(False)]
    out: list = []
    if TAG_INTEGER not in s.possible:
        return [r.boolean(False)]
    if s.possible != _INT:
        out.append(
            r.boolean(False, r.heap.narrow(target, s.possible - _INT), 1)
        )
    heap = r.heap.narrow(target, _INT)
    p = PLt(HConst(0))
    verdict = r.m.proof.check(heap, target, p)
    if verdict is Verdict.PROVED:
        out.append(r.boolean(False, heap))
    elif verdict is Verdict.REFUTED:
        out.append(r.boolean(True, heap))
    else:
        out.append(r.boolean(False, heap.refine(target, p), 1))
        out.append(r.boolean(True, heap.refine(target, PNot(p)), 1))
    return out


# ---------------------------------------------------------------------------
# Booleans and equality
# ---------------------------------------------------------------------------


def rule_not(r) -> list:
    (l,) = r.args
    target, s = r.deref(l)
    if isinstance(s, UConc):
        return [r.boolean(s.value is False)]
    if not isinstance(s, UOpq):
        return [r.boolean(False)]
    if "boolean" not in s.possible:
        return [r.boolean(False)]
    if PEqDatum(False) in s.preds:
        return [r.boolean(True)]
    if PNot(PEqDatum(False)) in s.preds:
        return [r.boolean(False)]
    return [
        r.boolean(True, r.heap.set(target, UConc(False)), 1),
        r.boolean(False, r.heap.refine(target, PNot(PEqDatum(False))), 1),
    ]


def equal_rule(identity_structured: bool):
    """equal? (structural) and eqv?/eq? (identity on structured data)."""

    def handler(r) -> list:
        a, b = r.args
        ta, sa = r.deref(a)
        tb, sb = r.deref(b)
        if ta == tb:
            return [r.boolean(True)]
        if isinstance(sa, UConc) and isinstance(sb, UConc):
            return [r.boolean(racket_equal(sa.value, sb.value))]
        for structured, other_loc, other in ((sa, tb, sb), (sb, ta, sa)):
            if isinstance(structured, (UPair, UStruct)):
                if identity_structured:
                    if isinstance(other, UOpq):
                        break  # fall through to the generic branch
                    return [r.boolean(False)]
                return _equal_structural(r, structured,
                                         a if structured is sa else b,
                                         b if structured is sa else a)
        # Opaque vs concrete scalar: three-way on the recorded equality.
        for opq_loc, opq, conc_loc, conc in ((ta, sa, tb, sb), (tb, sb, ta, sa)):
            if isinstance(opq, UOpq) and isinstance(conc, UConc):
                return _equal_datum(r, opq_loc, conc.value)
        if isinstance(sa, UOpq) and isinstance(sb, UOpq):
            return _equal_opq(r, ta, sa, tb, sb)
        # Procedures / contracts vs anything else: identity already
        # failed above.
        if isinstance(sa, UOpq) or isinstance(sb, UOpq):
            return [r.boolean(True, effort=1), r.boolean(False, effort=1)]
        return [r.boolean(False)]

    return handler


def _equal_structural(r, s, al: Loc, bl: Loc) -> list:
    bE = r.loc_expr(bl)
    if isinstance(s, UPair):
        test = r.app(r.prim("pair?"), bE)
        same = UIf(
            r.app(r.prim("equal?"), r.loc_expr(s.car),
                  r.app(r.prim("car"), bE)),
            r.app(r.prim("equal?"), r.loc_expr(s.cdr),
                  r.app(r.prim("cdr"), bE)),
            Quote(False),
        )
        return [r.run(UIf(test, same, Quote(False)))]
    assert isinstance(s, UStruct)
    pred = f"{s.type.name}?"
    if pred not in r.m.struct_prims:
        return [r.boolean(False)]
    same: UExpr = Quote(True)
    for i, f in reversed(list(enumerate(s.fields))):
        acc = r.app(r.prim(f"{s.type.name}-{s.type.fields[i]}"), bE)
        same = UIf(r.app(r.prim("equal?"), r.loc_expr(f), acc), same,
                   Quote(False))
    return [r.run(UIf(r.app(r.prim(pred), bE), same, Quote(False)))]


def _equal_datum(r, l: Loc, d: object) -> list:
    verdict = r.m.proof.check(r.heap, l, PEqDatum(d))
    if verdict is Verdict.PROVED:
        return [r.boolean(True)]
    if verdict is Verdict.REFUTED:
        return [r.boolean(False)]
    dt = datum_tag(d)
    if dt is None:
        return [r.boolean(False)]
    return [
        r.boolean(True, r.heap.set(l, UConc(d)), 1),
        r.boolean(False, r.heap.refine(l, PNot(PEqDatum(d))), 1),
    ]


def _equal_opq(r, ta: Loc, sa: UOpq, tb: Loc, sb: UOpq) -> list:
    if not (sa.possible & sb.possible):
        return [r.boolean(False)]
    both_int = (sa.possible == _INT and sb.possible == _INT)
    if both_int:
        p = PEq(HLoc(tb))
        verdict = r.m.proof.check(r.heap, ta, p)
        if verdict is Verdict.PROVED:
            return [r.boolean(True)]
        if verdict is Verdict.REFUTED:
            return [r.boolean(False)]
        return [
            r.boolean(True, r.heap.refine(ta, p), 1),
            r.boolean(False, r.heap.refine(ta, PNot(p)), 1),
        ]
    return [r.boolean(True, effort=1), r.boolean(False, effort=1)]


# ---------------------------------------------------------------------------
# Shape materializers (§4.2: a tag-narrowed opaque *becomes* its shape)
# ---------------------------------------------------------------------------


def mat_pair(r, heap: UHeap) -> tuple[UStoreable, UHeap]:
    car, heap = heap.alloc(r.m.fresh_opq(), r.m.names)
    cdr, heap = heap.alloc(r.m.fresh_opq(), r.m.names)
    return UPair(car, cdr), heap


def mat_null(r, heap: UHeap) -> tuple[UStoreable, UHeap]:
    return UConc(NIL), heap


def mat_box(r, heap: UHeap) -> tuple[UStoreable, UHeap]:
    content, heap = heap.alloc(r.m.fresh_opq(), r.m.names)
    return UBoxS(content), heap


#: sig/pred declarations name their materializer; vectors have none —
#: an opaque vector's *length* is unknown, so it never becomes a shape.
MATERIALIZERS = {"pair": mat_pair, "null": mat_null, "box": mat_box}


# ---------------------------------------------------------------------------
# Pairs and lists
# ---------------------------------------------------------------------------


def rule_cons(r) -> list:
    return [r.value(UPair(r.args[0], r.args[1]))]


def pair_sel_rule(field: str):
    def handler(r) -> list:
        (l,) = r.args
        target, s = r.deref(l)
        if isinstance(s, UPair):
            return [r.at(s.car if field == "car" else s.cdr)]
        if isinstance(s, UOpq) and TAG_PAIR in s.possible:
            out: list = []
            if s.possible != frozenset({TAG_PAIR}) and not r.typed:
                bad = r.heap.narrow(target, s.possible - frozenset({TAG_PAIR}))
                out.append(r.blame("expected pair", bad))
            shape, heap = mat_pair(r, r.heap)
            heap = heap.set(target, shape)
            assert isinstance(shape, UPair)
            out.append(
                r.at(shape.car if field == "car" else shape.cdr, heap, 1)
            )
            return out
        return [r.blame(f"expected pair, got {s!r}")]

    return handler


def rule_list(r) -> list:
    heap = r.heap
    tail, heap = heap.alloc(UConc(NIL), r.m.names)
    for l in reversed(r.args):
        tail, heap = heap.alloc(UPair(l, tail), r.m.names)
    return [r.at(tail, heap)]


def syn_length(r) -> list:
    xs = UVar(".xs")
    body = UIf(
        r.app(r.prim("null?"), xs),
        UVar(".n"),
        UIf(
            r.app(r.prim("pair?"), xs),
            r.app(UVar(".go"), r.app(r.prim("cdr"), xs),
                  r.app(r.prim("add1"), UVar(".n"))),
            r.improper("length"),
        ),
    )
    return r.spine((".xs", ".n"), body, r.loc_expr(r.args[0]), Quote(0))


def syn_reverse(r) -> list:
    xs = UVar(".xs")
    body = UIf(
        r.app(r.prim("null?"), xs),
        UVar(".acc"),
        UIf(
            r.app(r.prim("pair?"), xs),
            r.app(UVar(".go"), r.app(r.prim("cdr"), xs),
                  r.app(r.prim("cons"), r.app(r.prim("car"), xs),
                        UVar(".acc"))),
            r.improper("reverse"),
        ),
    )
    return r.spine((".xs", ".acc"), body, r.loc_expr(r.args[0]), Quote([]))


def syn_append(r) -> list:
    if not r.args:
        return [r.value(UConc(NIL))]
    if len(r.args) == 1:
        return [r.at(r.args[0])]
    if len(r.args) > 2:
        rest = r.app(r.prim("append"),
                     *[r.loc_expr(a) for a in r.args[1:]])
        return [r.run(r.app(r.prim("append"), r.loc_expr(r.args[0]), rest))]
    xs = UVar(".xs")
    body = UIf(
        r.app(r.prim("null?"), xs),
        r.loc_expr(r.args[1]),
        UIf(
            r.app(r.prim("pair?"), xs),
            r.app(r.prim("cons"), r.app(r.prim("car"), xs),
                  r.app(UVar(".go"), r.app(r.prim("cdr"), xs))),
            r.improper("append"),
        ),
    )
    return r.spine((".xs",), body, r.loc_expr(r.args[0]))


def syn_list_p(r) -> list:
    xs = UVar(".xs")
    body = UIf(
        r.app(r.prim("null?"), xs),
        Quote(True),
        UIf(r.app(r.prim("pair?"), xs),
            r.app(UVar(".go"), r.app(r.prim("cdr"), xs)),
            Quote(False)),
    )
    return r.spine((".xs",), body, r.loc_expr(r.args[0]))


def syn_member(r) -> list:
    xs = UVar(".xs")
    body = UIf(
        r.app(r.prim("pair?"), xs),
        UIf(
            r.app(r.prim("equal?"), r.loc_expr(r.args[0]),
                  r.app(r.prim("car"), xs)),
            xs,
            r.app(UVar(".go"), r.app(r.prim("cdr"), xs)),
        ),
        Quote(False),
    )
    return r.spine((".xs",), body, r.loc_expr(r.args[1]))


def syn_map(r) -> list:
    if len(r.args) != 2:
        return [r.blame("multi-list map is outside the symbolic subset")]
    f, xs_loc = r.args
    xs = UVar(".xs")
    body = UIf(
        r.app(r.prim("null?"), xs),
        Quote([]),
        UIf(
            r.app(r.prim("pair?"), xs),
            r.app(r.prim("cons"),
                  r.app(r.loc_expr(f), r.app(r.prim("car"), xs)),
                  r.app(UVar(".go"), r.app(r.prim("cdr"), xs))),
            r.improper("map"),
        ),
    )
    return r.spine((".xs",), body, r.loc_expr(xs_loc))


def syn_filter(r) -> list:
    f, xs_loc = r.args
    xs = UVar(".xs")
    keep = r.app(r.prim("cons"), r.app(r.prim("car"), xs),
                 r.app(UVar(".go"), r.app(r.prim("cdr"), xs)))
    body = UIf(
        r.app(r.prim("null?"), xs),
        Quote([]),
        UIf(
            r.app(r.prim("pair?"), xs),
            UIf(r.app(r.loc_expr(f), r.app(r.prim("car"), xs)), keep,
                r.app(UVar(".go"), r.app(r.prim("cdr"), xs))),
            r.improper("filter"),
        ),
    )
    return r.spine((".xs",), body, r.loc_expr(xs_loc))


def syn_foldl(r) -> list:
    f, init, xs_loc = r.args
    xs = UVar(".xs")
    body = UIf(
        r.app(r.prim("null?"), xs),
        UVar(".acc"),
        UIf(
            r.app(r.prim("pair?"), xs),
            r.app(UVar(".go"), r.app(r.prim("cdr"), xs),
                  r.app(r.loc_expr(f), r.app(r.prim("car"), xs),
                        UVar(".acc"))),
            r.improper("foldl"),
        ),
    )
    return r.spine((".xs", ".acc"), body, r.loc_expr(xs_loc),
                   r.loc_expr(init))


def syn_foldr(r) -> list:
    f, init, xs_loc = r.args
    xs = UVar(".xs")
    body = UIf(
        r.app(r.prim("null?"), xs),
        r.loc_expr(init),
        UIf(
            r.app(r.prim("pair?"), xs),
            r.app(r.loc_expr(f), r.app(r.prim("car"), xs),
                  r.app(UVar(".go"), r.app(r.prim("cdr"), xs))),
            r.improper("foldr"),
        ),
    )
    return r.spine((".xs",), body, r.loc_expr(xs_loc))


def syn_andmap(r) -> list:
    f, xs_loc = r.args
    xs = UVar(".xs")
    body = UIf(
        r.app(r.prim("null?"), xs),
        Quote(True),
        UIf(
            r.app(r.prim("pair?"), xs),
            UIf(r.app(r.loc_expr(f), r.app(r.prim("car"), xs)),
                r.app(UVar(".go"), r.app(r.prim("cdr"), xs)),
                Quote(False)),
            r.improper("andmap"),
        ),
    )
    return r.spine((".xs",), body, r.loc_expr(xs_loc))


def syn_ormap(r) -> list:
    f, xs_loc = r.args
    xs = UVar(".xs")
    hit = ULam(
        (".t",),
        UIf(UVar(".t"), UVar(".t"),
            r.app(UVar(".go"), r.app(r.prim("cdr"), xs))),
    )
    body = UIf(
        r.app(r.prim("null?"), xs),
        Quote(False),
        UIf(
            r.app(r.prim("pair?"), xs),
            r.app(hit, r.app(r.loc_expr(f), r.app(r.prim("car"), xs))),
            r.improper("ormap"),
        ),
    )
    return r.spine((".xs",), body, r.loc_expr(xs_loc))


# ---------------------------------------------------------------------------
# Boxes
# ---------------------------------------------------------------------------


def rule_box(r) -> list:
    return [r.value(UBoxS(r.args[0]))]


def rule_unbox(r) -> list:
    (l,) = r.args
    target, s = r.deref(l)
    if isinstance(s, UBoxS):
        return [r.at(s.content)]
    if isinstance(s, UOpq) and TAG_BOX in s.possible:
        out: list = []
        if s.possible != frozenset({TAG_BOX}) and not r.typed:
            bad = r.heap.narrow(target, s.possible - frozenset({TAG_BOX}))
            out.append(r.blame("expected box", bad))
        shape, heap = mat_box(r, r.heap)
        heap = heap.set(target, shape)
        assert isinstance(shape, UBoxS)
        out.append(r.at(shape.content, heap, 1))
        return out
    return [r.blame(f"expected box, got {s!r}")]


def rule_set_box(r) -> list:
    l, v = r.args
    target, s = r.deref(l)
    if isinstance(s, UBoxS) or (
        isinstance(s, UOpq) and s.possible == frozenset({TAG_BOX})
    ):
        return [r.value(UConc(VOID), r.heap.set(target, UBoxS(v)))]
    if isinstance(s, UOpq) and TAG_BOX in s.possible:
        out: list = []
        if not r.typed:
            bad = r.heap.narrow(target, s.possible - frozenset({TAG_BOX}))
            out.append(r.blame("expected box", bad))
        out.append(r.value(UConc(VOID), r.heap.set(target, UBoxS(v)), 1))
        return out
    return [r.blame(f"expected box, got {s!r}")]


# ---------------------------------------------------------------------------
# Vectors (fixed-length mutable sequences)
# ---------------------------------------------------------------------------

_VEC = frozenset({TAG_VECTOR})


def _narrow_one(r, heap: UHeap, l: Loc, want: frozenset, desc: str, out: list,
                effort: int):
    """Narrow a single argument into ``want`` with the standard blame /
    suppression discipline.  Returns (heap, effort, alive)."""
    target, s = heap.deref(l)
    if not isinstance(s, UOpq):
        if (storeable_tag(s) or "") in want:
            return heap, effort, True
        out.append(r.blame(f"{desc}, got {s!r}", heap))
        return heap, effort, False
    inter = s.possible & want
    if not inter:
        out.append(r.blame(f"{desc}, got {s!r}", heap))
        return heap, effort, False
    if s.possible <= want:
        return heap, effort, True
    if not r.typed:
        bad = heap.narrow(target, s.possible - want)
        out.append(r.blame(f"{desc}, got {bad.deref(l)[1]!r}", bad))
    return heap.narrow(target, want), effort + 1, True


def _index_branches(r, heap: UHeap, il: Loc, upper: int, out: list,
                    effort: int):
    """Bounds-check an integer-narrowed index against ``[0, upper]``
    with the canonical three-way proof branches.  Returns
    ``(heap, effort, alive, concrete_value)``."""
    it, s = heap.deref(il)
    if isinstance(s, UConc):
        v = s.value
        if 0 <= v <= upper:
            return heap, effort, True, v
        out.append(r.blame("index out of range", heap))
        return heap, effort, False, None
    lo = PLt(HConst(0))
    v_lo = r.m.proof.check(heap, it, lo)
    if v_lo is Verdict.PROVED:
        out.append(r.blame("index out of range", heap))
        return heap, effort, False, None
    if v_lo is not Verdict.REFUTED:
        out.append(r.blame("index out of range", heap.refine(it, lo)))
        heap = heap.refine(it, PNot(lo))
        effort += 1
    hi = PNot(PLe(HConst(upper)))
    v_hi = r.m.proof.check(heap, it, hi)
    if v_hi is Verdict.PROVED:
        out.append(r.blame("index out of range", heap))
        return heap, effort, False, None
    if v_hi is not Verdict.REFUTED:
        out.append(r.blame("index out of range", heap.refine(it, hi)))
        heap = heap.refine(it, PNot(hi))
        effort += 1
    return heap, effort, True, None


def rule_vector(r) -> list:
    return [r.value(UVectorS(tuple(r.args)))]


def rule_vector_length(r) -> list:
    (l,) = r.args
    target, s = r.deref(l)
    if isinstance(s, UVectorS):
        return [r.value(UConc(len(s.fields)))]
    if isinstance(s, UOpq) and TAG_VECTOR in s.possible:
        out: list = []
        heap, effort, alive = _narrow_one(
            r, r.heap, l, _VEC, "expected vector", out, 0)
        if alive:
            # Length of an unmaterialised vector: unknown but ≥ 0.
            out.append(r.value(
                UOpq(_INT, (PNot(PLt(HConst(0))),)), heap, effort + 1))
        return out
    return [r.blame(f"expected vector, got {s!r}")]


def rule_vector_ref(r) -> list:
    vl, il = r.args
    out: list = []
    heap, effort, alive = _narrow_one(
        r, r.heap, vl, _VEC, "expected vector", out, 0)
    if not alive:
        return out
    heap, effort, alive = _narrow_one(
        r, heap, il, _INT, "expected exact integer", out, effort)
    if not alive:
        return out
    vt, vs = heap.deref(vl)
    if not isinstance(vs, UVectorS):
        # Opaque vector: the element is a fresh unknown (the vector's
        # shape — and hence its extent — is never materialised).
        el, heap = heap.alloc(r.m.fresh_opq(), r.m.names)
        out.append(r.at(el, heap, effort + 1))
        return out
    n = len(vs.fields)
    if n == 0:
        out.append(r.blame("index out of range", heap))
        return out
    heap, effort, alive, iv = _index_branches(r, heap, il, n - 1, out, effort)
    if not alive:
        return out
    if iv is not None:
        out.append(r.at(vs.fields[iv], heap, effort))
        return out
    if n == 1:
        out.append(r.at(vs.fields[0], heap, effort))
        return out
    it, _ = heap.deref(il)
    for i, fl in enumerate(vs.fields):
        p = PEq(HConst(i))
        verdict = r.m.proof.check(heap, it, p)
        if verdict is Verdict.PROVED:
            out.append(r.at(fl, heap, effort))
            return out
        if verdict is Verdict.REFUTED:
            continue
        out.append(r.at(fl, heap.refine(it, p), effort + 1))
    return out


def rule_vector_set(r) -> list:
    vl, il, xl = r.args
    out: list = []
    heap, effort, alive = _narrow_one(
        r, r.heap, vl, _VEC, "expected vector", out, 0)
    if not alive:
        return out
    heap, effort, alive = _narrow_one(
        r, heap, il, _INT, "expected exact integer", out, effort)
    if not alive:
        return out
    vt, vs = heap.deref(vl)
    if not isinstance(vs, UVectorS):
        # Opaque vector: accept the write but drop it (the unknown's
        # fields are unknowable anyway — documented over-approximation).
        out.append(r.value(UConc(VOID), heap, effort + 1))
        return out
    n = len(vs.fields)
    if n == 0:
        out.append(r.blame("index out of range", heap))
        return out
    heap, effort, alive, iv = _index_branches(r, heap, il, n - 1, out, effort)
    if not alive:
        return out

    def updated(i: int) -> UVectorS:
        return UVectorS(vs.fields[:i] + (xl,) + vs.fields[i + 1:])

    if iv is not None:
        out.append(r.value(UConc(VOID), heap.set(vt, updated(iv)), effort))
        return out
    if n == 1:
        out.append(r.value(UConc(VOID), heap.set(vt, updated(0)), effort))
        return out
    it, _ = heap.deref(il)
    for i in range(n):
        p = PEq(HConst(i))
        verdict = r.m.proof.check(heap, it, p)
        if verdict is Verdict.PROVED:
            out.append(r.value(UConc(VOID), heap.set(vt, updated(i)), effort))
            return out
        if verdict is Verdict.REFUTED:
            continue
        out.append(r.value(UConc(VOID),
                           heap.refine(it, p).set(vt, updated(i)),
                           effort + 1))
    return out


def rule_substring(r) -> list:
    vals = r.all_concrete()
    if vals is not None:
        return r.delegate(vals)
    sl = r.args[0]
    idxs = r.args[1:]
    out: list = []
    heap, effort, alive = _narrow_one(
        r, r.heap, sl, frozenset({TAG_STRING}), "expected string", out, 0)
    if not alive:
        return out
    for il in idxs:
        heap, effort, alive = _narrow_one(
            r, heap, il, _INT, "expected exact integer", out, effort)
        if not alive:
            return out
    sv = r.conc(sl, heap)
    if isinstance(sv, str):
        # Known string: indices are bounds-checked against its length.
        # (start ≤ end with *both* symbolic is not cross-checked — an
        # under-approximated error source, like the module docstring's
        # other unmodelled preconditions.)
        for il in idxs:
            heap, effort, alive, _ = _index_branches(
                r, heap, il, len(sv), out, effort)
            if not alive:
                return out
    out.append(r.value(UOpq(frozenset({TAG_STRING})), heap, effort))
    return out


# ---------------------------------------------------------------------------
# Misc
# ---------------------------------------------------------------------------


def rule_void(r) -> list:
    return [r.value(UConc(VOID))]


def rule_error(r) -> list:
    parts = []
    for a in r.args:
        v = r.reify(a)
        parts.append("..." if v is r.UNREIFIABLE else str(v))
    msg = " ".join(parts) if parts else "error"
    return [r.blame(msg)]


# ---------------------------------------------------------------------------
# Contract constructors (values of kind UCtc, §4.3)
# ---------------------------------------------------------------------------


def _empty_env():
    from ..scv.machine import MEnv

    return MEnv({})


def _as_ctc_loc(r, heap: UHeap, l: Loc) -> tuple[Loc, UHeap]:
    """Coerce a value location to a contract location, mirroring the
    concrete ``_as_contract``: contracts pass through, applicable values
    become flat contracts, literals become equality contracts."""
    target, s = heap.deref(l)
    if isinstance(s, UCtc):
        return target, heap
    if isinstance(s, (UClos, UPrim, UGuard, UStructCtor, UCase, UOpq)):
        return heap.alloc(UCtc("flat", (target,)), r.m.names)
    return heap.alloc(UCtc("oneof", (target,)), r.m.names)


def _ctc_parts(r, locs: tuple[Loc, ...]) -> tuple[tuple[Loc, ...], UHeap]:
    heap = r.heap
    parts = []
    for l in locs:
        p, heap = _as_ctc_loc(r, heap, l)
        parts.append(p)
    return tuple(parts), heap


def rule_arrow(r) -> list:
    parts, heap = _ctc_parts(r, r.args)
    return [r.value(UCtc("fun", parts), heap)]


def rule_arrow_d(r) -> list:
    doms, heap = _ctc_parts(r, r.args[:-1])
    target, _ = heap.deref(r.args[-1])
    return [r.value(UCtc("dep", doms + (target,)), heap)]


def ctc_nary_rule(kind: str):
    def handler(r) -> list:
        parts, heap = _ctc_parts(r, r.args)
        return [r.value(UCtc(kind, parts), heap)]

    return handler


def rule_one_of(r) -> list:
    return [r.value(UCtc("oneof", r.args))]


def rule_rec_ctc(r) -> list:
    target, _ = r.deref(r.args[0])
    return [r.value(UCtc("rec", (target,)))]


def cmp_ctc_rule(op: str):
    """``(=/c n)`` etc. — a flat contract whose predicate is synthesised
    as ``(λ (x) (if (real? x) (op x n) #f))`` over primitive locations,
    so the untyped machine can branch through it like any predicate."""

    def handler(r) -> list:
        bound, _ = r.deref(r.args[0])
        body = UIf(
            r.app(r.prim("real?"), UVar(".x")),
            r.app(r.prim(op), UVar(".x"), r.loc_expr(bound)),
            Quote(False),
        )
        heap = r.heap
        pred, heap = heap.alloc(
            UClos(ULam((".x",), body, name=f"{op}/c"), _empty_env()),
            r.m.names,
        )
        return [r.value(UCtc("flat", (pred,)), heap)]

    return handler


def rule_struct_ctc(r) -> list:
    _, ctor = r.deref(r.args[0])
    if not isinstance(ctor, UStructCtor):
        return [r.blame(f"expected struct constructor, got {ctor!r}")]
    if len(r.args) - 1 != len(ctor.type.fields):
        return [r.blame(f"{ctor.type.name} has {len(ctor.type.fields)} fields")]
    parts, heap = _ctc_parts(r, r.args[1:])
    return [r.value(UCtc("struct", parts, stype=ctor.type), heap)]


def rule_flat_ctc_p(r) -> list:
    _, s = r.deref(r.args[0])
    return [r.boolean(isinstance(s, UCtc) and s.kind in ("flat", "oneof"))]
