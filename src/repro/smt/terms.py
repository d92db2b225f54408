"""Terms, atoms and formulas of the solver's first-order language.

The language is quantifier-free integer arithmetic (QF_LIA, plus
nonlinear multiplication and Euclidean div/mod handled best-effort).
This is exactly the fragment the heap translation of the paper (Fig. 4)
targets: the path condition of symbolic execution is always a
first-order formula over base values, even when the program inputs are
higher-order.

All node classes are immutable, compare by structure and hash in O(1)
(each node caches its structural hash; see :class:`_Node`); construct
them through the builder functions at the bottom of the module
(``mk_add``, ``mk_eq``, ...) which perform light normalisation (constant
folding, flattening) so that structurally equal constraints compare
equal.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union


# ---------------------------------------------------------------------------
# Sorts
# ---------------------------------------------------------------------------


class Sort:
    """A first-order sort.  Only INT and BOOL exist."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


INT = Sort("Int")
BOOL = Sort("Bool")


# ---------------------------------------------------------------------------
# Nodes: immutable, structurally compared, hashed once
# ---------------------------------------------------------------------------


class _Node:
    """Shared behaviour of terms and formulas.

    A node is equal to another node of its class with equal fields
    (``_key``).  Its structural hash is computed once, in the
    constructor, from its class and its fields: the children's hashes
    are already cached, so building a node costs O(arity) and hashing it
    O(1) — the atom map and ``Solver``'s constraint memo hash the same
    atoms over and over.
    Unequal hashes settle ``==`` without a walk.

    Nodes are immutable by contract: the constructor sets the fields
    once and nothing reassigns them, as the cached hash depends on them.
    ``__slots__`` rules out new attributes; a ``__setattr__`` guard
    would put every construction on the interpreter's slow path.

    The cached hash is process-local (``str`` hashes depend on
    ``PYTHONHASHSEED``), so a node pickles as its constructor call and
    the hash is recomputed where it is loaded.
    """

    __slots__ = ("_hash",)

    def __init__(self) -> None:
        raise TypeError(f"{type(self).__name__} is abstract")

    def _key(self) -> tuple:
        raise NotImplementedError

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self._hash == other._hash and self._key() == other._key()
        return False if isinstance(other, _Node) else NotImplemented

    def __reduce__(self):
        return (self.__class__, self._key())


# ---------------------------------------------------------------------------
# Terms (integer-sorted)
# ---------------------------------------------------------------------------


class Term(_Node):
    """Base class of integer-sorted terms."""

    __slots__ = ("_sort_key",)

    def sort_key(self) -> str:
        """``repr(self)``, computed once: the order of the atoms of a
        linear form (``smt.linearize``)."""
        try:
            return self._sort_key
        except AttributeError:
            key = repr(self)
            self._sort_key = key
            return key


class Var(Term):
    """An integer variable, identified by name."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name
        self._hash = hash((Var, name))

    def _key(self) -> tuple:
        return (self.name,)

    def __repr__(self) -> str:
        return self.name


class IntConst(Term):
    """An integer literal."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value
        self._hash = hash((IntConst, value))

    def _key(self) -> tuple:
        return (self.value,)

    def __repr__(self) -> str:
        return str(self.value)


class Add(Term):
    __slots__ = ("args",)

    def __init__(self, args: tuple[Term, ...]) -> None:
        self.args = args
        self._hash = hash((Add, args))

    def _key(self) -> tuple:
        return (self.args,)

    def __repr__(self) -> str:
        return "(+ " + " ".join(map(repr, self.args)) + ")"


class Mul(Term):
    __slots__ = ("args",)

    def __init__(self, args: tuple[Term, ...]) -> None:
        self.args = args
        self._hash = hash((Mul, args))

    def _key(self) -> tuple:
        return (self.args,)

    def __repr__(self) -> str:
        return "(* " + " ".join(map(repr, self.args)) + ")"


class Div(Term):
    """Euclidean division (result rounds toward -inf for positive divisors,
    matching Racket's ``quotient`` on naturals; see ``smt.lia`` for the
    axiomatisation used)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Term, den: Term) -> None:
        self.num = num
        self.den = den
        self._hash = hash((Div, num, den))

    def _key(self) -> tuple:
        return (self.num, self.den)

    def __repr__(self) -> str:
        return f"(div {self.num!r} {self.den!r})"


class Mod(Term):
    __slots__ = ("num", "den")

    def __init__(self, num: Term, den: Term) -> None:
        self.num = num
        self.den = den
        self._hash = hash((Mod, num, den))

    def _key(self) -> tuple:
        return (self.num, self.den)

    def __repr__(self) -> str:
        return f"(mod {self.num!r} {self.den!r})"


# ---------------------------------------------------------------------------
# Formulas (boolean-sorted)
# ---------------------------------------------------------------------------


class Formula(_Node):
    """Base class of boolean-sorted formulas."""

    __slots__ = ()


class BoolConst(Formula):
    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        self.value = value
        self._hash = hash((BoolConst, value))

    def _key(self) -> tuple:
        return (self.value,)

    def __repr__(self) -> str:
        return "true" if self.value else "false"


TRUE = BoolConst(True)
FALSE = BoolConst(False)


class _Binary(Formula):
    """A formula node with two children, ``lhs`` and ``rhs``."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs) -> None:
        self.lhs = lhs
        self.rhs = rhs
        self._hash = hash((self.__class__, lhs, rhs))

    def _key(self) -> tuple:
        return (self.lhs, self.rhs)


class Eq(_Binary):
    __slots__ = ()
    lhs: Term
    rhs: Term

    def __repr__(self) -> str:
        return f"(= {self.lhs!r} {self.rhs!r})"


class Le(_Binary):
    __slots__ = ()
    lhs: Term
    rhs: Term

    def __repr__(self) -> str:
        return f"(<= {self.lhs!r} {self.rhs!r})"


class Lt(_Binary):
    __slots__ = ()
    lhs: Term
    rhs: Term

    def __repr__(self) -> str:
        return f"(< {self.lhs!r} {self.rhs!r})"


class Not(Formula):
    __slots__ = ("arg",)

    def __init__(self, arg: Formula) -> None:
        self.arg = arg
        self._hash = hash((Not, arg))

    def _key(self) -> tuple:
        return (self.arg,)

    def __repr__(self) -> str:
        return f"(not {self.arg!r})"


class And(Formula):
    __slots__ = ("args",)

    def __init__(self, args: tuple[Formula, ...]) -> None:
        self.args = args
        self._hash = hash((And, args))

    def _key(self) -> tuple:
        return (self.args,)

    def __repr__(self) -> str:
        return "(and " + " ".join(map(repr, self.args)) + ")"


class Or(Formula):
    __slots__ = ("args",)

    def __init__(self, args: tuple[Formula, ...]) -> None:
        self.args = args
        self._hash = hash((Or, args))

    def _key(self) -> tuple:
        return (self.args,)

    def __repr__(self) -> str:
        return "(or " + " ".join(map(repr, self.args)) + ")"


class Implies(_Binary):
    __slots__ = ()
    lhs: Formula
    rhs: Formula

    def __repr__(self) -> str:
        return f"(=> {self.lhs!r} {self.rhs!r})"


class Iff(_Binary):
    __slots__ = ()
    lhs: Formula
    rhs: Formula

    def __repr__(self) -> str:
        return f"(iff {self.lhs!r} {self.rhs!r})"


Atom = Union[Eq, Le, Lt]
ATOM_TYPES = (Eq, Le, Lt)


# ---------------------------------------------------------------------------
# Builders with light normalisation
# ---------------------------------------------------------------------------


def mk_int(value: int) -> IntConst:
    """Build an integer literal."""
    return IntConst(int(value))


def mk_var(name: str) -> Var:
    """Build an integer variable."""
    return Var(name)


def _coerce(t: Union[Term, int]) -> Term:
    if isinstance(t, int):
        return IntConst(t)
    if not isinstance(t, Term):
        raise TypeError(f"expected Term or int, got {t!r}")
    return t


def mk_add(*args: Union[Term, int]) -> Term:
    """n-ary sum; flattens nested sums and folds constants."""
    flat: list[Term] = []
    const = 0
    for a in map(_coerce, args):
        if isinstance(a, Add):
            items: Iterable[Term] = a.args
        else:
            items = (a,)
        for item in items:
            if isinstance(item, IntConst):
                const += item.value
            else:
                flat.append(item)
    if const != 0 or not flat:
        flat.append(IntConst(const))
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def mk_neg(t: Union[Term, int]) -> Term:
    """Unary negation, as multiplication by -1."""
    return mk_mul(-1, t)


def mk_sub(a: Union[Term, int], b: Union[Term, int]) -> Term:
    """Binary subtraction ``a - b``."""
    return mk_add(a, mk_neg(b))


def mk_mul(*args: Union[Term, int]) -> Term:
    """n-ary product; flattens, folds constants, and short-circuits zero."""
    flat: list[Term] = []
    const = 1
    for a in map(_coerce, args):
        if isinstance(a, Mul):
            items: Iterable[Term] = a.args
        else:
            items = (a,)
        for item in items:
            if isinstance(item, IntConst):
                const *= item.value
            else:
                flat.append(item)
    if const == 0:
        return IntConst(0)
    if not flat:
        return IntConst(const)
    if const != 1:
        flat.insert(0, IntConst(const))
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


def mk_div(num: Union[Term, int], den: Union[Term, int]) -> Term:
    """Euclidean quotient; folds when both sides are constant and the
    divisor is nonzero."""
    num, den = _coerce(num), _coerce(den)
    if isinstance(num, IntConst) and isinstance(den, IntConst) and den.value != 0:
        # Euclidean: remainder is always nonnegative.
        q, r = divmod(num.value, den.value)
        if r < 0:  # pragma: no cover - Python divmod already floors
            q += 1 if den.value < 0 else -1
        return IntConst(q)
    return Div(num, den)


def mk_mod(num: Union[Term, int], den: Union[Term, int]) -> Term:
    """Euclidean remainder; folds constants."""
    num, den = _coerce(num), _coerce(den)
    if isinstance(num, IntConst) and isinstance(den, IntConst) and den.value != 0:
        return IntConst(num.value % abs(den.value))
    return Mod(num, den)


def mk_eq(a: Union[Term, int], b: Union[Term, int]) -> Formula:
    a, b = _coerce(a), _coerce(b)
    if a == b:
        return TRUE
    if isinstance(a, IntConst) and isinstance(b, IntConst):
        return BoolConst(a.value == b.value)
    return Eq(a, b)


def mk_distinct(a: Union[Term, int], b: Union[Term, int]) -> Formula:
    return mk_not(mk_eq(a, b))


def mk_le(a: Union[Term, int], b: Union[Term, int]) -> Formula:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, IntConst) and isinstance(b, IntConst):
        return BoolConst(a.value <= b.value)
    return Le(a, b)


def mk_lt(a: Union[Term, int], b: Union[Term, int]) -> Formula:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, IntConst) and isinstance(b, IntConst):
        return BoolConst(a.value < b.value)
    return Lt(a, b)


def mk_ge(a: Union[Term, int], b: Union[Term, int]) -> Formula:
    return mk_le(b, a)


def mk_gt(a: Union[Term, int], b: Union[Term, int]) -> Formula:
    return mk_lt(b, a)


def mk_not(f: Formula) -> Formula:
    if isinstance(f, BoolConst):
        return BoolConst(not f.value)
    if isinstance(f, Not):
        return f.arg
    return Not(f)


def mk_and(*args: Formula) -> Formula:
    flat: list[Formula] = []
    for a in args:
        if isinstance(a, And):
            items: Iterable[Formula] = a.args
        else:
            items = (a,)
        for item in items:
            if item == FALSE:
                return FALSE
            if item != TRUE:
                flat.append(item)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def mk_or(*args: Formula) -> Formula:
    flat: list[Formula] = []
    for a in args:
        if isinstance(a, Or):
            items: Iterable[Formula] = a.args
        else:
            items = (a,)
        for item in items:
            if item == TRUE:
                return TRUE
            if item != FALSE:
                flat.append(item)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def mk_implies(a: Formula, b: Formula) -> Formula:
    if a == FALSE or b == TRUE:
        return TRUE
    if a == TRUE:
        return b
    if b == FALSE:
        return mk_not(a)
    return Implies(a, b)


def mk_iff(a: Formula, b: Formula) -> Formula:
    if a == b:
        return TRUE
    if a == TRUE:
        return b
    if b == TRUE:
        return a
    if a == FALSE:
        return mk_not(b)
    if b == FALSE:
        return mk_not(a)
    return Iff(a, b)


# ---------------------------------------------------------------------------
# Traversals
# ---------------------------------------------------------------------------


def subterms(t: Term) -> Iterator[Term]:
    """Yield every subterm of ``t`` (including ``t`` itself), pre-order."""
    yield t
    if isinstance(t, (Add, Mul)):
        for a in t.args:
            yield from subterms(a)
    elif isinstance(t, (Div, Mod)):
        yield from subterms(t.num)
        yield from subterms(t.den)


def formula_terms(f: Formula) -> Iterator[Term]:
    """Yield every term occurring in ``f``, pre-order."""
    if isinstance(f, (Eq, Le, Lt)):
        yield from subterms(f.lhs)
        yield from subterms(f.rhs)
    elif isinstance(f, Not):
        yield from formula_terms(f.arg)
    elif isinstance(f, (And, Or)):
        for a in f.args:
            yield from formula_terms(a)
    elif isinstance(f, (Implies, Iff)):
        yield from formula_terms(f.lhs)
        yield from formula_terms(f.rhs)


def free_vars(f: Formula) -> set[Var]:
    """The set of integer variables occurring in ``f``."""
    return {t for t in formula_terms(f) if isinstance(t, Var)}


def eval_term(t: Term, env: dict[Var, int]) -> int:
    """Evaluate a term under an integer assignment."""
    if isinstance(t, IntConst):
        return t.value
    if isinstance(t, Var):
        if t not in env:
            raise KeyError(f"variable {t.name} not assigned")
        return env[t]
    if isinstance(t, Add):
        return sum(eval_term(a, env) for a in t.args)
    if isinstance(t, Mul):
        prod = 1
        for a in t.args:
            prod *= eval_term(a, env)
        return prod
    if isinstance(t, Div):
        num = eval_term(t.num, env)
        den = eval_term(t.den, env)
        if den == 0:
            raise ZeroDivisionError("div by zero in model evaluation")
        return (num - num % abs(den)) // den  # Euclidean, as axiomatised
    if isinstance(t, Mod):
        num = eval_term(t.num, env)
        den = eval_term(t.den, env)
        if den == 0:
            raise ZeroDivisionError("mod by zero in model evaluation")
        return num % abs(den)
    raise TypeError(f"cannot evaluate {t!r}")


def eval_formula(f: Formula, env: dict[Var, int]) -> bool:
    """Evaluate a formula under an integer assignment."""
    if isinstance(f, BoolConst):
        return f.value
    if isinstance(f, Eq):
        return eval_term(f.lhs, env) == eval_term(f.rhs, env)
    if isinstance(f, Le):
        return eval_term(f.lhs, env) <= eval_term(f.rhs, env)
    if isinstance(f, Lt):
        return eval_term(f.lhs, env) < eval_term(f.rhs, env)
    if isinstance(f, Not):
        return not eval_formula(f.arg, env)
    if isinstance(f, And):
        return all(eval_formula(a, env) for a in f.args)
    if isinstance(f, Or):
        return any(eval_formula(a, env) for a in f.args)
    if isinstance(f, Implies):
        return (not eval_formula(f.lhs, env)) or eval_formula(f.rhs, env)
    if isinstance(f, Iff):
        return eval_formula(f.lhs, env) == eval_formula(f.rhs, env)
    raise TypeError(f"cannot evaluate {f!r}")
