"""Lowering the contract-free surface subset into SPCF core.

The symbolic engine (``core.machine``/``core.search``) works over the
typed core of §3, while the corpus is written in the Racket-subset
surface syntax of ``lang.parser``.  This module bridges the two:

* a monomorphic unification-based type inference assigns a ``nat`` or
  arrow type to every binder and every opaque ``•``;
* the inferred program is lowered to curried core terms — multi-argument
  lambdas and applications become chains, ``letrec`` becomes sequential
  ``Fix``/application, ``begin`` becomes application of a discarding
  lambda;
* surface primitives map onto core δ-operations (``quotient`` → ``div``
  etc.), **preserving the surface application's blame label** so an
  ``Err`` raised by the core machine names the same source site as a
  ``PrimBlame`` raised by the concrete surface interpreter;
* ``raise_expr`` maps counterexample values (built from core ``Num``,
  ``Lam``, ``If`` and ``=?`` tests) back into surface syntax so they can
  be fed to ``conc.interp`` for independent validation.

Booleans follow the PCF convention: comparisons produce 1/0 and ``if``
tests non-zero-ness.  Surface ``#t``/``#f`` lower to 1/0, which agrees
with the surface interpreter as long as test positions hold the results
of comparisons and predicates — which the corpus maintains — rather
than arbitrary numbers (where 0 is truthy in Racket but false in PCF).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Union

from ..core.syntax import (
    App,
    Expr,
    Fix,
    FunType,
    If,
    Lam,
    NAT,
    Num,
    Opq,
    PrimApp,
    Ref,
    Type,
)
from ..lang.ast import (
    Program,
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


class LowerError(Exception):
    """The surface program falls outside the SPCF-expressible subset."""


# ---------------------------------------------------------------------------
# Inference-time types (union-find over nat / arrows)
# ---------------------------------------------------------------------------


class _TyVar:
    """A unification variable; ``link`` points along the union-find chain
    to either another variable or a resolved structure."""

    __slots__ = ("link",)

    def __init__(self) -> None:
        self.link: Optional[_Ty] = None


class _TyFun:
    __slots__ = ("dom", "rng")

    def __init__(self, dom: "_Ty", rng: "_Ty") -> None:
        self.dom = dom
        self.rng = rng


_NAT = object()  # the unique base type token
_Ty = Union[_TyVar, _TyFun, object]


def _find(t: _Ty) -> _Ty:
    while isinstance(t, _TyVar) and t.link is not None:
        t = t.link
    return t


def _occurs(v: _TyVar, t: _Ty) -> bool:
    t = _find(t)
    if t is v:
        return True
    if isinstance(t, _TyFun):
        return _occurs(v, t.dom) or _occurs(v, t.rng)
    return False


def _unify(a: _Ty, b: _Ty, where: str) -> None:
    a, b = _find(a), _find(b)
    if a is b:
        return
    if isinstance(a, _TyVar):
        if _occurs(a, b):
            raise LowerError(f"infinite type in {where}")
        a.link = b
        return
    if isinstance(b, _TyVar):
        _unify(b, a, where)
        return
    if isinstance(a, _TyFun) and isinstance(b, _TyFun):
        _unify(a.dom, b.dom, where)
        _unify(a.rng, b.rng, where)
        return
    raise LowerError(f"cannot unify number with function in {where}")


def _resolve(t: _Ty) -> Type:
    """Ground an inference type; unconstrained variables default to nat."""
    t = _find(t)
    if isinstance(t, _TyVar) or t is _NAT:
        return NAT
    assert isinstance(t, _TyFun)
    return FunType(_resolve(t.dom), _resolve(t.rng))


# ---------------------------------------------------------------------------
# Surface primitives expressible as core δ-operations
# ---------------------------------------------------------------------------

# surface name -> (core op, arity); n-ary +/-/* are folded to nested binary
_BINOPS = {
    "+": "+",
    "-": "-",
    "*": "*",
    "quotient": "div",
    "modulo": "mod",
    "=": "=?",
    "<": "<?",
    "<=": "<=?",
}
# Surface primitives whose semantics cannot be matched by a core
# δ-operation over all of ℤ.  Core ``mod`` computes ``a % abs(b)``
# (nonnegative); Racket's ``remainder`` takes the dividend's sign and
# ``modulo`` the divisor's, so they only all agree when the divisor is a
# known positive constant — which ``modulo`` therefore requires below.
_REJECTED = {
    "remainder": "remainder truncates toward zero, which does not match "
    "the core's Euclidean mod on negative dividends; use "
    "(modulo _ k) with a positive constant k",
}
_SWAPPED = {">": "<?", ">=": "<=?"}  # (> a b) ≡ (< b a)
_UNOPS = {"add1": "add1", "sub1": "sub1", "zero?": "zero?"}
_VARIADIC = {"+", "-", "*"}

#: every surface identifier the lowerer treats as a primitive operator
PRIM_NAMES = (
    frozenset(_BINOPS)
    | frozenset(_SWAPPED)
    | frozenset(_UNOPS)
    | frozenset(_REJECTED)
    | frozenset({"not", "positive?", "negative?", "even?", "odd?"})
)


def _free_uvars(e: UExpr) -> set[str]:
    """Free variable names of a surface expression."""
    if isinstance(e, UVar):
        return {e.name}
    if isinstance(e, (Quote, UOpaque)):
        return set()
    if isinstance(e, ULam):
        return _free_uvars(e.body) - set(e.params)
    if isinstance(e, UApp):
        out = _free_uvars(e.fn)
        for a in e.args:
            out |= _free_uvars(a)
        return out
    if isinstance(e, UIf):
        return _free_uvars(e.test) | _free_uvars(e.then) | _free_uvars(e.orelse)
    if isinstance(e, UBegin):
        out = set()
        for sub in e.exprs:
            out |= _free_uvars(sub)
        return out
    if isinstance(e, ULetrec):
        bound = {n for n, _ in e.bindings}
        out = _free_uvars(e.body)
        for _, rhs in e.bindings:
            out |= _free_uvars(rhs)
        return out - bound
    if isinstance(e, USet):
        return {e.name} | _free_uvars(e.value)
    raise LowerError(f"unsupported surface form {e!r}")


class _Lowerer:
    """Two passes over one surface expression: infer, then build."""

    def __init__(self, label_base: int = 0) -> None:
        # Labels for unlabelled applications continue the parse's count.
        self.labels = itertools.count(label_base)
        self.lam_params: dict[int, list[_TyVar]] = {}
        self.letrec_vars: dict[int, list[_TyVar]] = {}
        self.begin_types: dict[int, list[_Ty]] = {}
        self.opaque_types: dict[str, _Ty] = {}

    # -- pass 1: inference -------------------------------------------------

    def infer(self, e: UExpr, env: dict[str, _Ty]) -> _Ty:
        if isinstance(e, Quote):
            if isinstance(e.datum, bool) or isinstance(e.datum, int):
                return _NAT
            raise LowerError(f"only integer literals lower to SPCF: {e!r}")
        if isinstance(e, UVar):
            if e.name in env:
                return env[e.name]
            if e.name in PRIM_NAMES:
                raise LowerError(
                    f"primitive {e.name} used as a value (call it instead)"
                )
            raise LowerError(f"unbound variable {e.name}")
        if isinstance(e, UOpaque):
            t = self.opaque_types.get(e.label)
            if t is None:
                t = self.opaque_types[e.label] = _TyVar()
            return t
        if isinstance(e, ULam):
            params = [_TyVar() for _ in e.params]
            self.lam_params[id(e)] = params
            body_env = {**env, **dict(zip(e.params, params))}
            body = self.infer(e.body, body_env)
            out: _Ty = body
            for p in reversed(params):
                out = _TyFun(p, out)
            return out
        if isinstance(e, UIf):
            _unify(self.infer(e.test, env), _NAT, "if test")
            then = self.infer(e.then, env)
            _unify(then, self.infer(e.orelse, env), "if branches")
            return then
        if isinstance(e, UBegin):
            tys = [self.infer(sub, env) for sub in e.exprs]
            self.begin_types[id(e)] = tys
            return tys[-1] if tys else _NAT
        if isinstance(e, ULetrec):
            cells = [_TyVar() for _ in e.bindings]
            self.letrec_vars[id(e)] = cells
            scope = dict(env)
            for (name, rhs), cell in zip(e.bindings, cells):
                rhs_ty = self.infer(rhs, {**scope, name: cell})
                _unify(rhs_ty, cell, f"letrec binding {name}")
                scope[name] = cell
            return self.infer(e.body, scope)
        if isinstance(e, UApp):
            prim = self._prim_name(e, env)
            if prim is not None:
                if prim in _REJECTED:
                    raise LowerError(f"{prim}: {_REJECTED[prim]}")
                for a in e.args:
                    _unify(self.infer(a, env), _NAT, f"argument of {prim}")
                self._check_prim_arity(prim, len(e.args))
                return _NAT
            fn = self.infer(e.fn, env)
            for a in e.args:
                arg = self.infer(a, env)
                rng = _TyVar()
                _unify(fn, _TyFun(arg, rng), f"application at {e.label}")
                fn = rng
            return fn
        if isinstance(e, USet):
            raise LowerError("set! is not in the SPCF-expressible subset")
        raise LowerError(f"unsupported surface form {e!r}")

    @staticmethod
    def _prim_name(e: UApp, env: dict[str, _Ty]) -> Optional[str]:
        if isinstance(e.fn, UVar) and e.fn.name not in env:
            if e.fn.name in PRIM_NAMES:
                return e.fn.name
        return None

    @staticmethod
    def _check_prim_arity(name: str, n: int) -> None:
        if name in _VARIADIC:
            if n < 1:
                raise LowerError(f"{name} needs at least 1 argument")
        elif name in _BINOPS or name in _SWAPPED:
            if n != 2:
                raise LowerError(f"{name} lowers at exactly 2 arguments, got {n}")
        elif n != 1:
            raise LowerError(f"{name} expects 1 argument, got {n}")

    # -- pass 2: construction ----------------------------------------------

    def build(self, e: UExpr, scope: set[str]) -> Expr:
        if isinstance(e, Quote):
            if isinstance(e.datum, bool):
                return Num(1 if e.datum else 0)
            assert isinstance(e.datum, int)
            return Num(e.datum)
        if isinstance(e, UVar):
            return Ref(e.name)
        if isinstance(e, UOpaque):
            return Opq(_resolve(self.opaque_types[e.label]), e.label)
        if isinstance(e, ULam):
            params = self.lam_params[id(e)]
            body = self.build(e.body, scope | set(e.params))
            out: Expr = body
            for name, ty in zip(reversed(e.params), reversed(params)):
                out = Lam(name, _resolve(ty), out)
            return out
        if isinstance(e, UIf):
            return If(
                self.build(e.test, scope),
                self.build(e.then, scope),
                self.build(e.orelse, scope),
            )
        if isinstance(e, UBegin):
            tys = self.begin_types[id(e)]
            out = self.build(e.exprs[-1], scope)
            for sub, ty in zip(reversed(e.exprs[:-1]), reversed(tys[:-1])):
                # Core SPCF is effect-free, so earlier begin forms only
                # matter if they diverge or error: run them, drop the value.
                out = App(Lam("_", _resolve(ty), out), self.build(sub, scope))
            return out
        if isinstance(e, ULetrec):
            return self._build_letrec(e, scope)
        if isinstance(e, UApp):
            prim = self._prim_name_scoped(e, scope)
            if prim is not None:
                return self._build_prim(prim, e, scope)
            out = self.build(e.fn, scope)
            for a in e.args:
                out = App(out, self.build(a, scope))
            return out
        raise LowerError(f"unsupported surface form {e!r}")

    def _prim_name_scoped(self, e: UApp, scope: set[str]) -> Optional[str]:
        if isinstance(e.fn, UVar) and e.fn.name not in scope:
            if e.fn.name in PRIM_NAMES:
                return e.fn.name
        return None

    def _build_prim(self, name: str, e: UApp, scope: set[str]) -> Expr:
        args = [self.build(a, scope) for a in e.args]
        label = e.label or f"a{next(self.labels)}"
        if name in _VARIADIC:
            if name == "-" and len(args) == 1:
                return PrimApp("-", (Num(0), args[0]), label)
            if len(args) == 1:
                return args[0]
            out = args[0]
            for a in args[1:]:
                out = PrimApp(_BINOPS[name], (out, a), label)
            return out
        if name == "modulo":
            divisor = args[1]
            if not (isinstance(divisor, Num) and divisor.value > 0):
                raise LowerError(
                    "modulo lowers only with a positive constant divisor "
                    "(Racket takes the divisor's sign; the core's Euclidean "
                    "mod is nonnegative — they agree only for constant k > 0)"
                )
            return PrimApp("mod", tuple(args), label)
        if name in _BINOPS:
            return PrimApp(_BINOPS[name], tuple(args), label)
        if name in _SWAPPED:
            return PrimApp(_SWAPPED[name], (args[1], args[0]), label)
        if name in _UNOPS:
            return PrimApp(_UNOPS[name], tuple(args), label)
        # Predicate sugar over the core δ-operations.
        (x,) = args
        if name == "not":
            return If(x, Num(0), Num(1))
        if name == "positive?":
            return PrimApp("<?", (Num(0), x), label)
        if name == "negative?":
            return PrimApp("<?", (x, Num(0)), label)
        if name == "even?":
            return PrimApp("=?", (PrimApp("mod", (x, Num(2)), label), Num(0)), label)
        assert name == "odd?"
        return PrimApp("=?", (PrimApp("mod", (x, Num(2)), label), Num(1)), label)

    def _build_letrec(self, e: ULetrec, scope: set[str]) -> Expr:
        """Sequential letrec*: each binding may reference itself (→ Fix)
        and earlier bindings; mutual recursion is out of the subset."""
        cells = self.letrec_vars[id(e)]
        names = {n for n, _ in e.bindings}
        out = self.build(e.body, scope | names)
        later: set[str] = set()  # bindings strictly after the current one
        for (name, rhs), cell in zip(reversed(e.bindings), reversed(cells)):
            free = _free_uvars(rhs)
            forward = free & later
            if forward:
                raise LowerError(
                    f"letrec binding {name} references later binding(s) "
                    f"{sorted(forward)}: mutual recursion is not lowerable"
                )
            ty = _resolve(cell)
            rhs_core = self.build(rhs, scope | names)
            if name in free:
                rhs_core = Fix(name, ty, rhs_core)
            out = App(Lam(name, ty, out), rhs_core)
            later.add(name)
        return out


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def lower_expr(e: UExpr, label_base: int = 0) -> Expr:
    """Lower one closed surface expression to a core term.  An
    unlabelled primitive application gets a label numbered from
    ``label_base`` (a parse's ``Program.label_end``)."""
    lw = _Lowerer(label_base)
    lw.infer(e, {})
    return lw.build(e, set())


def lower_program(program: Program) -> Expr:
    """Lower a parsed surface program (top-level defines + expression).

    Modules (with their contracts and structs) belong to the §4 untyped
    pipeline and are out of this bridge's scope.
    """
    if program.modules:
        raise LowerError("modules/contracts are not in the lowerable subset")
    if program.main is None:
        raise LowerError("program has no top-level expression to verify")
    return lower_expr(program.main, program.label_end)


# ---------------------------------------------------------------------------
# Raising counterexample values back to surface syntax
# ---------------------------------------------------------------------------

# The canonical core-op → surface-name table lives with the
# counterexample renderer (both backends normalize against it).
from ..core.counterexample import CANONICAL_OPS as _CORE_TO_SURFACE_OP  # noqa: E402


def raise_expr(e: Expr, labels: Iterator[int]) -> UExpr:
    """Render a *counterexample value* (core ``Num``/``Lam``/``If`` with
    ``=?`` tests, as built by ``core.counterexample``) as surface syntax
    suitable for ``conc.interp`` opaque bindings.  Its applications are
    labelled ``cex<n>`` with ``n`` drawn from ``labels``; pass
    ``itertools.count(program.label_end)`` to keep them apart from the
    program's own labels."""
    if isinstance(e, Num):
        return Quote(e.value)
    if isinstance(e, Ref):
        return UVar(e.name)
    if isinstance(e, Lam):
        return ULam((e.var,), raise_expr(e.body, labels))
    if isinstance(e, If):
        return UIf(raise_expr(e.test, labels), raise_expr(e.then, labels),
                   raise_expr(e.orelse, labels))
    if isinstance(e, App):
        fn, arg = raise_expr(e.fn, labels), raise_expr(e.arg, labels)
        return UApp(fn, (arg,), label=f"cex{next(labels)}")
    if isinstance(e, PrimApp):
        op = _CORE_TO_SURFACE_OP.get(e.op)
        if op is None:
            raise LowerError(f"cannot raise primitive {e.op} to surface syntax")
        args = tuple(raise_expr(a, labels) for a in e.args)
        return UApp(UVar(op), args, label=f"cex{next(labels)}")
    raise LowerError(f"cannot raise {e!r} to surface syntax")
