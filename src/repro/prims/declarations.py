"""Every primitive of the language, declared once.

The first half of this module is the concrete implementations — Python
callables ``fn(args, ctx) -> value`` where ``ctx`` provides
``apply(fn, args)`` (to call back into the interpreter, e.g. for
higher-order list primitives) and ``label`` (the application's blame
label).  Precondition violations raise :class:`PrimError`, which every
engine converts into blame at the application site — exactly the
"partial primitive" error sources of the paper (§3.1).

The second half is *the table*: one ``prim(...)`` registration per
primitive, in the order the global frame allocates them
(``scv.engine.build_base_heap`` iterates the registry; every program
sees every primitive).  Each registration attaches the
metadata the symbolic layers consume: arity, tag signature, refinement
template (``core.delta`` + ``scv.delta``), synthesis rule or custom
untyped rule (``scv.delta``), and the ``core_op`` name under which the
typed machine knows the primitive.

Adding a primitive family is a handful of declarations here (plus
concrete impls, plus — only if it introduces a new heap shape — a tag
and storeable in ``scv.heap``); see the string/vector block at the end
and ARCHITECTURE.md "Primitive registry".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from ..core.heap import HConst, PLe, PLt, PNot, PZero
from ..lang.sexp import Symbol
from ..lang.values import (
    AndContract,
    Box,
    ConsContract,
    Contract,
    DepFuncContract,
    FlatContract,
    FuncContract,
    ListContract,
    ListofContract,
    NIL,
    Nil,
    NotContract,
    OneOfContract,
    OrContract,
    Pair,
    RecContract,
    StructContract,
    StructType,
    VOID,
    Vector,
    from_pylist,
    is_exact,
    is_integer,
    is_number,
    is_real,
    is_truthy,
    racket_equal,
    to_pylist,
)
from ..scv.tags import (
    NUMBER_TAGS,
    REAL_TAGS,
    TAG_BOOLEAN,
    TAG_BOX,
    TAG_INTEGER,
    TAG_NULL,
    TAG_PAIR,
    TAG_PROCEDURE,
    TAG_RATREAL,
    TAG_STRING,
    TAG_SYMBOL,
    TAG_VECTOR,
)
from .errors import PrimError, UserError
from .registry import Refinement, TagSig, alias, at_least, between, exactly, prim
from .rules import (
    ctc_nary_rule,
    cmp_ctc_rule,
    equal_rule,
    pair_sel_rule,
    rule_arrow,
    rule_arrow_d,
    rule_box,
    rule_cons,
    rule_error,
    rule_flat_ctc_p,
    rule_list,
    rule_nonneg_int,
    rule_not,
    rule_one_of,
    rule_rec_ctc,
    rule_set_box,
    rule_struct_ctc,
    rule_substring,
    rule_unbox,
    rule_vector,
    rule_vector_length,
    rule_vector_ref,
    rule_vector_set,
    rule_void,
    syn_abs,
    syn_andmap,
    syn_append,
    syn_filter,
    syn_foldl,
    syn_foldr,
    syn_length,
    syn_list_p,
    syn_map,
    syn_member,
    syn_minmax,
    syn_ormap,
    syn_parity,
    syn_reverse,
)

_INT = frozenset({TAG_INTEGER})
_STR = frozenset({TAG_STRING})
_VEC = frozenset({TAG_VECTOR})


def _want_numbers(op: str, args: list) -> None:
    for a in args:
        if not is_number(a):
            raise PrimError(op, f"expected number, got {a!r}")


def _want_reals(op: str, args: list) -> None:
    for a in args:
        if not is_real(a):
            raise PrimError(op, f"expected real, got {a!r}")


def _want_integers(op: str, args: list) -> None:
    for a in args:
        if not (is_integer(a) and is_exact(a)):
            raise PrimError(op, f"expected exact integer, got {a!r}")


def _norm(v):
    """Normalise exact rationals with denominator 1 to ints."""
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


def _arity(op: str, args: list, n) -> None:
    """Raise ``op``'s arity blame unless ``args`` fits ``n``: an exact
    count or an :class:`~repro.prims.registry.Arity`."""
    msg = (exactly(n) if isinstance(n, int) else n).blame(len(args))
    if msg is not None:
        raise PrimError(op, msg)


# ---------------------------------------------------------------------------
# Numbers
# ---------------------------------------------------------------------------


def _prim_add(args, ctx):
    _want_numbers("+", args)
    out = 0
    for a in args:
        out = out + a
    return _norm(out)


def _prim_sub(args, ctx):
    _want_numbers("-", args)
    _arity("-", args, at_least(1))
    if len(args) == 1:
        return _norm(-args[0])
    out = args[0]
    for a in args[1:]:
        out = out - a
    return _norm(out)


def _prim_mul(args, ctx):
    _want_numbers("*", args)
    out = 1
    for a in args:
        out = out * a
    return _norm(out)


def _prim_div(args, ctx):
    _want_numbers("/", args)
    _arity("/", args, at_least(1))
    vals = args if len(args) > 1 else [1] + list(args)
    out = vals[0]
    for a in vals[1:]:
        if a == 0:
            raise PrimError("/", "division by zero")
        if is_exact(out) and is_exact(a):
            out = Fraction(out) / Fraction(a)
        else:
            out = out / a
    return _norm(out)


def _prim_quotient(args, ctx):
    _arity("quotient", args, 2)
    _want_integers("quotient", args)
    if args[1] == 0:
        raise PrimError("quotient", "division by zero")
    a, b = int(args[0]), int(args[1])
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q  # truncating, like Racket


def _prim_remainder(args, ctx):
    _arity("remainder", args, 2)
    _want_integers("remainder", args)
    if args[1] == 0:
        raise PrimError("remainder", "division by zero")
    a, b = int(args[0]), int(args[1])
    return a - b * (abs(a) // abs(b)) * (1 if (a >= 0) == (b >= 0) else -1)


def _prim_modulo(args, ctx):
    _arity("modulo", args, 2)
    _want_integers("modulo", args)
    if args[1] == 0:
        raise PrimError("modulo", "division by zero")
    return int(args[0]) % int(args[1])


def _prim_add1(args, ctx):
    _arity("add1", args, 1)
    _want_numbers("add1", args)
    return _norm(args[0] + 1)


def _prim_sub1(args, ctx):
    _arity("sub1", args, 1)
    _want_numbers("sub1", args)
    return _norm(args[0] - 1)


def _prim_abs(args, ctx):
    _arity("abs", args, 1)
    _want_reals("abs", args)
    return _norm(abs(args[0]))


def _prim_min(args, ctx):
    _want_reals("min", args)
    _arity("min", args, at_least(1))
    return _norm(min(args))


def _prim_max(args, ctx):
    _want_reals("max", args)
    _arity("max", args, at_least(1))
    return _norm(max(args))


def _compare(op: str, py) -> Callable:
    def fn(args, ctx):
        # Comparisons are partial: they require *real* arguments.  This
        # is the precondition the paper's argmin counterexample violates
        # with 0+1i (§5.2).
        _arity(op, args, at_least(2))
        _want_reals(op, args)
        return all(py(args[i], args[i + 1]) for i in range(len(args) - 1))

    return fn


def _prim_num_eq(args, ctx):
    _arity("=", args, at_least(2))
    _want_numbers("=", args)
    return all(args[i] == args[i + 1] for i in range(len(args) - 1))


def _pred(name: str, test) -> Callable:
    def fn(args, ctx):
        _arity(name, args, 1)
        return bool(test(args[0]))

    return fn


def _prim_exact_to_inexact(args, ctx):
    _arity("exact->inexact", args, 1)
    _want_numbers("exact->inexact", args)
    v = args[0]
    if isinstance(v, complex):
        return v
    return float(v)


def _prim_expt(args, ctx):
    _arity("expt", args, 2)
    _want_numbers("expt", args)
    base, power = args
    if is_exact(base) and is_integer(power) and is_exact(power):
        p = int(power)
        if p >= 0:
            return _norm(Fraction(base) ** p)
        if base == 0:
            raise PrimError("expt", "0 to a negative power")
        return _norm(Fraction(base) ** p)
    return base**power


def _prim_sqrt(args, ctx):
    _arity("sqrt", args, 1)
    _want_numbers("sqrt", args)
    v = args[0]
    if is_real(v) and v >= 0:
        if is_exact(v):
            r = int(v) if is_integer(v) else None
            if r is not None:
                s = int(r**0.5)
                for cand in (s - 1, s, s + 1):
                    if cand >= 0 and cand * cand == r:
                        return cand
        return float(v) ** 0.5
    # Negative or complex input: complex result (the numeric tower!).
    return complex(v) ** 0.5


# ---------------------------------------------------------------------------
# Pairs and lists
# ---------------------------------------------------------------------------


def _prim_cons(args, ctx):
    _arity("cons", args, 2)
    return Pair(args[0], args[1])


def _prim_car(args, ctx):
    _arity("car", args, 1)
    if not isinstance(args[0], Pair):
        raise PrimError("car", f"expected pair, got {args[0]!r}")
    return args[0].car


def _prim_cdr(args, ctx):
    _arity("cdr", args, 1)
    if not isinstance(args[0], Pair):
        raise PrimError("cdr", f"expected pair, got {args[0]!r}")
    return args[0].cdr


def _prim_list(args, ctx):
    return from_pylist(list(args))


def _prim_length(args, ctx):
    _arity("length", args, 1)
    items = to_pylist(args[0])
    if items is None:
        raise PrimError("length", f"expected proper list, got {args[0]!r}")
    return len(items)


def _prim_append(args, ctx):
    lists = []
    for a in args:
        items = to_pylist(a)
        if items is None:
            raise PrimError("append", f"expected proper list, got {a!r}")
        lists.append(items)
    flat = [x for lst in lists for x in lst]
    return from_pylist(flat)


def _prim_reverse(args, ctx):
    _arity("reverse", args, 1)
    items = to_pylist(args[0])
    if items is None:
        raise PrimError("reverse", f"expected proper list, got {args[0]!r}")
    return from_pylist(list(reversed(items)))


def _prim_list_p(args, ctx):
    _arity("list?", args, 1)
    return to_pylist(args[0]) is not None


def _prim_member(args, ctx):
    _arity("member", args, 2)
    v, lst = args
    while isinstance(lst, Pair):
        if racket_equal(v, lst.car):
            return lst
        lst = lst.cdr
    return False


# ---------------------------------------------------------------------------
# Higher-order list primitives (call back into the interpreter)
# ---------------------------------------------------------------------------


def _prim_map(args, ctx):
    if len(args) < 2:
        raise PrimError("map", "needs a function and at least one list")
    f = args[0]
    lists = []
    for a in args[1:]:
        items = to_pylist(a)
        if items is None:
            raise PrimError("map", f"expected proper list, got {a!r}")
        lists.append(items)
    if len({len(l) for l in lists}) > 1:
        raise PrimError("map", "lists differ in length")
    out = [ctx.apply(f, list(row)) for row in zip(*lists)]
    return from_pylist(out)


def _prim_filter(args, ctx):
    _arity("filter", args, 2)
    f, lst = args
    items = to_pylist(lst)
    if items is None:
        raise PrimError("filter", f"expected proper list, got {lst!r}")
    return from_pylist([x for x in items if is_truthy(ctx.apply(f, [x]))])


def _prim_foldl(args, ctx):
    _arity("foldl", args, 3)
    f, init, lst = args
    items = to_pylist(lst)
    if items is None:
        raise PrimError("foldl", f"expected proper list, got {lst!r}")
    acc = init
    for x in items:
        acc = ctx.apply(f, [x, acc])
    return acc


def _prim_foldr(args, ctx):
    _arity("foldr", args, 3)
    f, init, lst = args
    items = to_pylist(lst)
    if items is None:
        raise PrimError("foldr", f"expected proper list, got {lst!r}")
    acc = init
    for x in reversed(items):
        acc = ctx.apply(f, [x, acc])
    return acc


def _prim_andmap(args, ctx):
    _arity("andmap", args, 2)
    f, lst = args
    items = to_pylist(lst)
    if items is None:
        raise PrimError("andmap", f"expected proper list, got {lst!r}")
    out = True
    for x in items:
        out = ctx.apply(f, [x])
        if not is_truthy(out):
            return False
    return out


def _prim_ormap(args, ctx):
    _arity("ormap", args, 2)
    f, lst = args
    items = to_pylist(lst)
    if items is None:
        raise PrimError("ormap", f"expected proper list, got {lst!r}")
    for x in items:
        out = ctx.apply(f, [x])
        if is_truthy(out):
            return out
    return False


# ---------------------------------------------------------------------------
# Equality, booleans, misc
# ---------------------------------------------------------------------------


def _prim_not(args, ctx):
    _arity("not", args, 1)
    return args[0] is False


def _prim_equal(args, ctx):
    _arity("equal?", args, 2)
    return racket_equal(args[0], args[1])


def _prim_eqv(args, ctx):
    _arity("eqv?", args, 2)
    a, b = args
    if is_number(a) and is_number(b):
        return is_exact(a) == is_exact(b) and a == b
    return a is b or a == b if isinstance(a, (Symbol, str, Nil)) else a is b


def _prim_void(args, ctx):
    return VOID


def _prim_error(args, ctx):
    msg = " ".join(str(a) for a in args) if args else "error"
    raise UserError(msg)


# ---------------------------------------------------------------------------
# Strings
# ---------------------------------------------------------------------------


def _prim_string_length(args, ctx):
    _arity("string-length", args, 1)
    if not isinstance(args[0], str):
        raise PrimError("string-length", f"expected string, got {args[0]!r}")
    return len(args[0])


def _prim_string_append(args, ctx):
    for a in args:
        if not isinstance(a, str):
            raise PrimError("string-append", f"expected string, got {a!r}")
    return "".join(args)


def _prim_string_eq(args, ctx):
    _arity("string=?", args, at_least(2))
    for a in args:
        if not isinstance(a, str):
            raise PrimError("string=?", f"expected string, got {a!r}")
    return all(args[i] == args[i + 1] for i in range(len(args) - 1))


def _prim_substring(args, ctx):
    _arity("substring", args, between(2, 3))
    s = args[0]
    if not isinstance(s, str):
        raise PrimError("substring", f"expected string, got {s!r}")
    _want_integers("substring", list(args[1:]))
    start = int(args[1])
    end = int(args[2]) if len(args) == 3 else len(s)
    if not (0 <= start <= len(s) and 0 <= end <= len(s) and start <= end):
        raise PrimError("substring", "index out of range")
    return s[start:end]


# ---------------------------------------------------------------------------
# Boxes
# ---------------------------------------------------------------------------


def _prim_box(args, ctx):
    _arity("box", args, 1)
    return Box(args[0])


def _prim_unbox(args, ctx):
    _arity("unbox", args, 1)
    if not isinstance(args[0], Box):
        raise PrimError("unbox", f"expected box, got {args[0]!r}")
    return args[0].content


def _prim_set_box(args, ctx):
    _arity("set-box!", args, 2)
    if not isinstance(args[0], Box):
        raise PrimError("set-box!", f"expected box, got {args[0]!r}")
    args[0].content = args[1]
    return VOID


# ---------------------------------------------------------------------------
# Vectors
# ---------------------------------------------------------------------------


def _prim_vector(args, ctx):
    return Vector(list(args))


def _prim_vector_ref(args, ctx):
    _arity("vector-ref", args, 2)
    v, i = args
    if not isinstance(v, Vector):
        raise PrimError("vector-ref", f"expected vector, got {v!r}")
    _want_integers("vector-ref", [i])
    i = int(i)
    if not 0 <= i < len(v.items):
        raise PrimError("vector-ref", "index out of range")
    return v.items[i]


def _prim_vector_set(args, ctx):
    _arity("vector-set!", args, 3)
    v, i, x = args
    if not isinstance(v, Vector):
        raise PrimError("vector-set!", f"expected vector, got {v!r}")
    _want_integers("vector-set!", [i])
    i = int(i)
    if not 0 <= i < len(v.items):
        raise PrimError("vector-set!", "index out of range")
    v.items[i] = x
    return VOID


def _prim_vector_length(args, ctx):
    _arity("vector-length", args, 1)
    if not isinstance(args[0], Vector):
        raise PrimError("vector-length", f"expected vector, got {args[0]!r}")
    return len(args[0].items)


# ---------------------------------------------------------------------------
# Contract constructors
# ---------------------------------------------------------------------------


def _as_contract(v: object) -> Contract:
    """Coerce a value to a contract: contracts pass through, applicable
    values become flat contracts, literals become equality contracts."""
    if isinstance(v, Contract):
        return v
    if callable(getattr(v, "__call__", None)) or _looks_applicable(v):
        return FlatContract(v, name=getattr(v, "name", "flat"))
    # Literal datum: equality contract (Racket coerces these too).
    return OneOfContract((v,))


def _looks_applicable(v: object) -> bool:
    return (
        type(v).__name__ in ("Closure", "Prim", "Guarded", "StructCtor")
        or isinstance(v, StructType)
    )


def _prim_arrow(args, ctx):
    if not args:
        raise PrimError("->", "needs at least a range contract")
    parts = [_as_contract(a) for a in args]
    return FuncContract(tuple(parts[:-1]), parts[-1])


def _prim_make_arrow_d(args, ctx):
    if len(args) < 1:
        raise PrimError("->d", "needs domains and a range maker")
    doms = tuple(_as_contract(a) for a in args[:-1])
    return DepFuncContract(doms, args[-1])


def _prim_and_c(args, ctx):
    return AndContract(tuple(_as_contract(a) for a in args))


def _prim_or_c(args, ctx):
    return OrContract(tuple(_as_contract(a) for a in args))


def _prim_not_c(args, ctx):
    _arity("not/c", args, 1)
    return NotContract(_as_contract(args[0]))


def _prim_cons_c(args, ctx):
    _arity("cons/c", args, 2)
    return ConsContract(_as_contract(args[0]), _as_contract(args[1]))


def _prim_listof(args, ctx):
    _arity("listof", args, 1)
    return ListofContract(_as_contract(args[0]))


def _prim_list_c(args, ctx):
    return ListContract(tuple(_as_contract(a) for a in args))


def _prim_one_of_c(args, ctx):
    return OneOfContract(tuple(args))


def _prim_comparison_c(name: str, op: str) -> Callable:
    def fn(args, ctx):
        _arity(name, args, 1)
        bound = args[0]
        _want_reals(name, [bound])

        def check(vals, inner_ctx):
            v = vals[0]
            if not is_real(v):
                return False
            if op == "=":
                return v == bound
            if op == "<":
                return v < bound
            if op == ">":
                return v > bound
            if op == "<=":
                return v <= bound
            return v >= bound

        from ..lang.runtime import Prim

        return FlatContract(Prim(f"{name}:{bound}", check), name=f"({name} {bound})")

    return fn


def _prim_make_rec_contract(args, ctx):
    _arity("make-rec-contract", args, 1)
    return RecContract(args[0])


def _prim_struct_c(args, ctx):
    if not args:
        raise PrimError("struct/c", "needs a struct constructor")
    ctor = args[0]
    stype = getattr(ctor, "struct_type", None)
    if stype is None:
        raise PrimError("struct/c", f"expected struct constructor, got {ctor!r}")
    fields = tuple(_as_contract(a) for a in args[1:])
    if len(fields) != len(stype.fields):
        raise PrimError(
            "struct/c", f"{stype.name} has {len(stype.fields)} fields"
        )
    return StructContract(stype, fields)


def _prim_flat_contract_p(args, ctx):
    _arity("flat-contract?", args, 1)
    return isinstance(args[0], (FlatContract, OneOfContract))


# ===========================================================================
# The table.  Declaration order is the global-frame allocation order —
# append, never reorder.
# ===========================================================================

_NUM = TagSig(NUMBER_TAGS, "expected number")
_REAL = TagSig(REAL_TAGS, "expected real")
_ANY = TagSig()

prim("+", arity=at_least(0), sig=_NUM, family="arith", core_op="+",
     refine=Refinement("arith", op="+", py=lambda a, b: a + b))(_prim_add)
prim("-", arity=at_least(1), sig=_NUM, family="arith", core_op="-",
     refine=Refinement("arith", op="-", py=lambda a, b: a - b))(_prim_sub)
prim("*", arity=at_least(0), sig=_NUM, family="arith", core_op="*",
     refine=Refinement("arith", op="*", py=lambda a, b: a * b))(_prim_mul)
prim("/", arity=at_least(1), sig=_NUM, family="arith",
     refine=Refinement("slash"))(_prim_div)
prim("quotient", arity=exactly(2),
     sig=TagSig(_INT, "expected exact integer"), family="arith",
     core_op="div",
     refine=Refinement("divlike", op="div", py=lambda a, b: a // b))(
         _prim_quotient)
prim("remainder", arity=exactly(2),
     sig=TagSig(_INT, "expected exact integer"), family="arith",
     refine=Refinement("divlike", op="mod", constrain=False))(_prim_remainder)
prim("modulo", arity=exactly(2),
     sig=TagSig(_INT, "expected exact integer"), family="arith",
     core_op="mod",
     refine=Refinement("divlike", op="mod", py=lambda a, b: a % abs(b)))(
         _prim_modulo)
prim("add1", arity=exactly(1), sig=_NUM, family="arith", core_op="add1",
     refine=Refinement("offset", op="+"))(_prim_add1)
prim("sub1", arity=exactly(1), sig=_NUM, family="arith", core_op="sub1",
     refine=Refinement("offset", op="-"))(_prim_sub1)
prim("abs", arity=exactly(1), sig=_REAL, family="arith",
     synth=syn_abs)(_prim_abs)
prim("min", arity=at_least(1), sig=_REAL, family="arith",
     synth=syn_minmax("min"))(_prim_min)
prim("max", arity=at_least(1), sig=_REAL, family="arith",
     synth=syn_minmax("max"))(_prim_max)
prim("expt", arity=exactly(2),
     sig=TagSig(NUMBER_TAGS, "expected number", result=NUMBER_TAGS),
     family="arith")(_prim_expt)
prim("sqrt", arity=exactly(1),
     sig=TagSig(NUMBER_TAGS, "expected number", result=NUMBER_TAGS),
     family="arith")(_prim_sqrt)
prim("exact->inexact", arity=exactly(1),
     sig=TagSig(NUMBER_TAGS, "expected number", result=NUMBER_TAGS),
     family="arith")(_prim_exact_to_inexact)
prim("=", arity=at_least(2), sig=_NUM, family="compare", core_op="=?",
     refine=Refinement("compare", op="=", py=lambda a, b: a == b))(
         _prim_num_eq)
prim("<", arity=at_least(2), sig=_REAL, family="compare", core_op="<?",
     refine=Refinement("compare", op="<", py=lambda a, b: a < b))(
         _compare("<", lambda a, b: a < b))
prim(">", arity=at_least(2), sig=_REAL, family="compare",
     refine=Refinement("swap", op="<"))(_compare(">", lambda a, b: a > b))
prim("<=", arity=at_least(2), sig=_REAL, family="compare", core_op="<=?",
     refine=Refinement("compare", op="<=", py=lambda a, b: a <= b))(
         _compare("<=", lambda a, b: a <= b))
prim(">=", arity=at_least(2), sig=_REAL, family="compare",
     refine=Refinement("swap", op="<="))(_compare(">=", lambda a, b: a >= b))
prim("zero?", arity=exactly(1), sig=_ANY, family="pred", core_op="zero?",
     refine=Refinement("sign", pred=lambda: PZero()))(
         _pred("zero?", lambda v: is_number(v) and v == 0))
prim("positive?", arity=exactly(1), sig=_ANY, family="pred",
     refine=Refinement("sign", pred=lambda: PNot(PLe(HConst(0)))))(
         _pred("positive?", lambda v: is_real(v) and v > 0))
prim("negative?", arity=exactly(1), sig=_ANY, family="pred",
     refine=Refinement("sign", pred=lambda: PLt(HConst(0))))(
         _pred("negative?", lambda v: is_real(v) and v < 0))
prim("even?", arity=exactly(1), sig=_ANY, family="pred",
     synth=syn_parity(True))(
         _pred("even?", lambda v: is_integer(v) and int(v) % 2 == 0))
prim("odd?", arity=exactly(1), sig=_ANY, family="pred",
     synth=syn_parity(False))(
         _pred("odd?", lambda v: is_integer(v) and int(v) % 2 == 1))
prim("number?", arity=exactly(1), sig=_ANY, family="pred",
     pred_tags=NUMBER_TAGS)(_pred("number?", is_number))
prim("real?", arity=exactly(1), sig=_ANY, family="pred",
     pred_tags=REAL_TAGS)(_pred("real?", is_real))
prim("integer?", arity=exactly(1), sig=_ANY, family="pred",
     pred_tags=_INT)(_pred("integer?", is_integer))
prim("exact-integer?", arity=exactly(1), sig=_ANY, family="pred",
     pred_tags=_INT)(
         _pred("exact-integer?", lambda v: is_integer(v) and is_exact(v)))
prim("exact-nonnegative-integer?", arity=exactly(1), sig=_ANY,
     family="pred", rule=rule_nonneg_int)(
         _pred("exact-nonnegative-integer?",
               lambda v: is_integer(v) and is_exact(v) and v >= 0))
prim("rational?", arity=exactly(1), sig=_ANY, family="pred",
     pred_tags=REAL_TAGS)(_pred("rational?", is_real))
prim("exact?", arity=exactly(1), sig=_ANY, family="pred",
     pred_tags=frozenset({TAG_INTEGER, TAG_RATREAL}))(
         _pred("exact?", is_exact))
prim("boolean?", arity=exactly(1), sig=_ANY, family="pred",
     pred_tags=frozenset({TAG_BOOLEAN}))(
         _pred("boolean?", lambda v: isinstance(v, bool)))
prim("symbol?", arity=exactly(1), sig=_ANY, family="pred",
     pred_tags=frozenset({TAG_SYMBOL}))(
         _pred("symbol?", lambda v: isinstance(v, Symbol)))
prim("string?", arity=exactly(1), sig=_ANY, family="pred",
     pred_tags=_STR)(_pred("string?", lambda v: isinstance(v, str)))
prim("pair?", arity=exactly(1), sig=_ANY, family="pred",
     pred_tags=frozenset({TAG_PAIR}), materialize="pair")(
         _pred("pair?", lambda v: isinstance(v, Pair)))
prim("null?", arity=exactly(1), sig=_ANY, family="pred",
     pred_tags=frozenset({TAG_NULL}), materialize="null")(
         _pred("null?", lambda v: v is NIL))
prim("empty?", arity=exactly(1), sig=_ANY, family="pred",
     pred_tags=frozenset({TAG_NULL}), materialize="null")(
         _pred("empty?", lambda v: v is NIL))
prim("box?", arity=exactly(1), sig=_ANY, family="pred",
     pred_tags=frozenset({TAG_BOX}), materialize="box")(
         _pred("box?", lambda v: isinstance(v, Box)))
prim("not", arity=exactly(1), sig=_ANY, family="logic",
     rule=rule_not)(_prim_not)
prim("equal?", arity=exactly(2), sig=_ANY, family="equality",
     rule=equal_rule(identity_structured=False))(_prim_equal)
prim("eqv?", arity=exactly(2), sig=_ANY, family="equality",
     rule=equal_rule(identity_structured=True))(_prim_eqv)
alias("eq?", of="eqv?")
prim("void", arity=at_least(0), sig=_ANY, family="misc",
     rule=rule_void)(_prim_void)
prim("error", arity=at_least(0), sig=_ANY, family="misc",
     rule=rule_error)(_prim_error)
prim("cons", arity=exactly(2), sig=_ANY, family="list",
     rule=rule_cons)(_prim_cons)
prim("car", arity=exactly(1),
     sig=TagSig(frozenset({TAG_PAIR}), "expected pair"), family="list",
     rule=pair_sel_rule("car"))(_prim_car)
prim("cdr", arity=exactly(1),
     sig=TagSig(frozenset({TAG_PAIR}), "expected pair"), family="list",
     rule=pair_sel_rule("cdr"))(_prim_cdr)
alias("first", of="car")
alias("rest", of="cdr")
prim("list", arity=at_least(0), sig=_ANY, family="list",
     rule=rule_list)(_prim_list)
prim("length", arity=exactly(1), sig=_ANY, family="list",
     synth=syn_length)(_prim_length)
prim("append", arity=at_least(0), sig=_ANY, family="list",
     synth=syn_append)(_prim_append)
prim("reverse", arity=exactly(1), sig=_ANY, family="list",
     synth=syn_reverse)(_prim_reverse)
prim("list?", arity=exactly(1), sig=_ANY, family="list",
     synth=syn_list_p)(_prim_list_p)
prim("member", arity=exactly(2), sig=_ANY, family="list",
     synth=syn_member)(_prim_member)
prim("map", arity=at_least(2), sig=_ANY, family="higher-order",
     synth=syn_map, delegate_concrete=False)(_prim_map)
prim("filter", arity=exactly(2), sig=_ANY, family="higher-order",
     synth=syn_filter, delegate_concrete=False)(_prim_filter)
prim("foldl", arity=exactly(3), sig=_ANY, family="higher-order",
     synth=syn_foldl, delegate_concrete=False)(_prim_foldl)
prim("foldr", arity=exactly(3), sig=_ANY, family="higher-order",
     synth=syn_foldr, delegate_concrete=False)(_prim_foldr)
prim("andmap", arity=exactly(2), sig=_ANY, family="higher-order",
     synth=syn_andmap, delegate_concrete=False)(_prim_andmap)
prim("ormap", arity=exactly(2), sig=_ANY, family="higher-order",
     synth=syn_ormap, delegate_concrete=False)(_prim_ormap)
prim("string-length", arity=exactly(1),
     sig=TagSig(_STR, "expected string", result=_INT),
     family="string")(_prim_string_length)
prim("string-append", arity=at_least(0),
     sig=TagSig(_STR, "expected string", result=_STR),
     family="string")(_prim_string_append)
prim("string=?", arity=at_least(2),
     sig=TagSig(_STR, "expected string", result=frozenset({TAG_BOOLEAN})),
     family="string")(_prim_string_eq)
prim("box", arity=exactly(1), sig=_ANY, family="box",
     rule=rule_box)(_prim_box)
prim("unbox", arity=exactly(1),
     sig=TagSig(frozenset({TAG_BOX}), "expected box"), family="box",
     rule=rule_unbox)(_prim_unbox)
prim("set-box!", arity=exactly(2),
     sig=TagSig((frozenset({TAG_BOX}), None), ("expected box", "")),
     family="box", rule=rule_set_box)(_prim_set_box)
prim("->", arity=at_least(1), sig=_ANY, family="contract",
     rule=rule_arrow)(_prim_arrow)
prim("make->d", arity=at_least(1), sig=_ANY, family="contract",
     rule=rule_arrow_d)(_prim_make_arrow_d)
prim("and/c", arity=at_least(0), sig=_ANY, family="contract",
     rule=ctc_nary_rule("and"))(_prim_and_c)
prim("or/c", arity=at_least(0), sig=_ANY, family="contract",
     rule=ctc_nary_rule("or"))(_prim_or_c)
prim("not/c", arity=exactly(1), sig=_ANY, family="contract",
     rule=ctc_nary_rule("not"))(_prim_not_c)
prim("cons/c", arity=exactly(2), sig=_ANY, family="contract",
     rule=ctc_nary_rule("cons"))(_prim_cons_c)
prim("listof", arity=exactly(1), sig=_ANY, family="contract",
     rule=ctc_nary_rule("listof"))(_prim_listof)
prim("list/c", arity=at_least(0), sig=_ANY, family="contract",
     rule=ctc_nary_rule("list"))(_prim_list_c)
prim("one-of/c", arity=at_least(0), sig=_ANY, family="contract",
     rule=rule_one_of)(_prim_one_of_c)
prim("=/c", arity=exactly(1), sig=_ANY, family="contract",
     rule=cmp_ctc_rule("="))(_prim_comparison_c("=/c", "="))
prim("</c", arity=exactly(1), sig=_ANY, family="contract",
     rule=cmp_ctc_rule("<"))(_prim_comparison_c("</c", "<"))
prim(">/c", arity=exactly(1), sig=_ANY, family="contract",
     rule=cmp_ctc_rule(">"))(_prim_comparison_c(">/c", ">"))
prim("<=/c", arity=exactly(1), sig=_ANY, family="contract",
     rule=cmp_ctc_rule("<="))(_prim_comparison_c("<=/c", "<="))
prim(">=/c", arity=exactly(1), sig=_ANY, family="contract",
     rule=cmp_ctc_rule(">="))(_prim_comparison_c(">=/c", ">="))
prim("make-rec-contract", arity=exactly(1), sig=_ANY, family="contract",
     rule=rule_rec_ctc)(_prim_make_rec_contract)
prim("struct/c", arity=at_least(1), sig=_ANY, family="contract",
     rule=rule_struct_ctc)(_prim_struct_c)
prim("flat-contract?", arity=exactly(1), sig=_ANY, family="contract",
     rule=rule_flat_ctc_p)(_prim_flat_contract_p)
prim("procedure?", arity=exactly(1), sig=_ANY, family="pred",
     pred_tags=frozenset({TAG_PROCEDURE}))(
         _pred("procedure?",
               lambda v: type(v).__name__
               in ("Closure", "Prim", "Guarded", "StructCtor")))

# --- strings and vectors ---------------------------------------------------

prim("substring", arity=between(2, 3),
     sig=TagSig((_STR, _INT), ("expected string", "expected exact integer"),
                result=_STR),
     family="string", rule=rule_substring)(_prim_substring)
prim("vector", arity=at_least(0), sig=_ANY, family="vector",
     rule=rule_vector, delegate_concrete=False)(_prim_vector)
prim("vector-ref", arity=exactly(2),
     sig=TagSig((_VEC, _INT), ("expected vector", "expected exact integer")),
     family="vector", rule=rule_vector_ref,
     delegate_concrete=False)(_prim_vector_ref)
prim("vector-set!", arity=exactly(3),
     sig=TagSig((_VEC, _INT, None),
                ("expected vector", "expected exact integer", "")),
     family="vector", rule=rule_vector_set,
     delegate_concrete=False)(_prim_vector_set)
prim("vector-length", arity=exactly(1),
     sig=TagSig(_VEC, "expected vector"), family="vector",
     rule=rule_vector_length, delegate_concrete=False)(_prim_vector_length)
prim("vector?", arity=exactly(1), sig=_ANY, family="pred",
     pred_tags=_VEC)(_pred("vector?", lambda v: isinstance(v, Vector)))
