"""Concrete interpreter for the untyped Racket subset.

An environment-based evaluator with full contract monitoring and blame
(Findler–Felleisen).  It is the ground truth the symbolic engine is
measured against: every counterexample the tool reports is re-run here
(§4.5), and the soundness property tests compare symbolic and concrete
outcomes.

Faults are Python exceptions carrying blame:

* :class:`PrimBlame` — a partial primitive's precondition was violated
  at a labelled application site;
* :class:`ContractBlame` — a contract boundary was crossed wrongly,
  blaming a *party* (module name, "client", or an opaque import);
* :class:`UserAbort` — the program called ``(error ...)``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

from ..lang.ast import (
    Module,
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
from ..lang.parser import parse_program
from ..lang.runtime import (
    Cell,
    Closure,
    Env,
    Guarded,
    Prim,
    StructCtor,
    is_applicable,
)
from ..lang.values import (
    ANY_C,
    AndContract,
    AnyContract,
    ConsContract,
    Contract,
    DepFuncContract,
    FlatContract,
    FuncContract,
    ListContract,
    ListofContract,
    NIL,
    NotContract,
    OneOfContract,
    OrContract,
    Pair,
    RecContract,
    StructContract,
    StructType,
    StructVal,
    VOID,
    from_pylist,
    is_truthy,
    racket_equal,
    to_pylist,
)
from ..prims import PrimError, UserError, base_primitives
from ..prims.declarations import _arity, _as_contract


class RuntimeFault(Exception):
    """Base of all run-time faults."""


@dataclass
class PrimBlame(RuntimeFault):
    op: str
    label: str
    message: str

    def __str__(self) -> str:
        return f"{self.op} @ {self.label}: {self.message}"


@dataclass
class ContractBlame(RuntimeFault):
    party: str
    description: str
    label: str = ""

    def __str__(self) -> str:
        return f"contract violation: blaming {self.party} ({self.description})"


@dataclass
class UserAbort(RuntimeFault):
    message: str
    label: str = ""

    def __str__(self) -> str:
        return f"error: {self.message}"


class InterpTimeout(RuntimeFault):
    """Fuel exhausted."""


class _Ctx:
    """Callback context handed to primitives."""

    __slots__ = ("interp", "label")

    def __init__(self, interp: "Interp", label: str) -> None:
        self.interp = interp
        self.label = label

    def apply(self, fn, args):
        return self.interp.apply(fn, list(args), self.label)


class Interp:
    """The evaluator.  One instance per program run (holds fuel and the
    global namespace)."""

    def __init__(self, *, fuel: int = 2_000_000) -> None:
        self.fuel = fuel
        self.globals = Env()
        for name, fn in base_primitives().items():
            self.globals.define(name, Prim(name, fn))
        self.globals.define("any/c", ANY_C)
        self.globals.define("empty", NIL)
        self.globals.define("null", NIL)
        self.opaque_exprs: dict[str, UExpr] = {}

    # -- evaluation ----------------------------------------------------

    def eval(self, e: UExpr, env: Env):
        self.fuel -= 1
        if self.fuel <= 0:
            raise InterpTimeout("out of fuel")
        if isinstance(e, Quote):
            return self._datum(e.datum)
        if isinstance(e, UVar):
            cell = self._lookup(e.name, env)
            if not cell.is_defined:
                raise RuntimeFault(f"{e.name}: used before definition")
            return cell.value
        if isinstance(e, ULam):
            return Closure(e, env)
        if isinstance(e, UIf):
            test = self.eval(e.test, env)
            return self.eval(e.then if is_truthy(test) else e.orelse, env)
        if isinstance(e, UBegin):
            out = VOID
            for sub in e.exprs:
                out = self.eval(sub, env)
            return out
        if isinstance(e, ULetrec):
            child = env.child()
            cells = [child.define(n, Cell.UNDEFINED) for n, _ in e.bindings]
            for cell, (_, rhs) in zip(cells, e.bindings):
                cell.value = self.eval(rhs, child)
            return self.eval(e.body, child)
        if isinstance(e, USet):
            cell = self._lookup(e.name, env)
            cell.value = self.eval(e.value, env)
            return VOID
        if isinstance(e, UApp):
            fn = self.eval(e.fn, env)
            args = [self.eval(a, env) for a in e.args]
            return self.apply(fn, args, e.label)
        if isinstance(e, UOpaque):
            expr = self.opaque_exprs.get(e.label)
            if expr is None:
                raise RuntimeFault(
                    f"opaque •^{e.label} has no concrete binding"
                )
            return self.eval(expr, self.globals)
        raise RuntimeFault(f"cannot evaluate {e!r}")

    def _lookup(self, name: str, env: Env) -> Cell:
        try:
            return env.lookup(name)
        except KeyError:
            return self.globals.lookup(name)

    def _datum(self, d):
        """Quoted data: lists become Racket lists, the rest are values."""
        if isinstance(d, list):
            return from_pylist([self._datum(x) for x in d])
        return d

    # -- application ---------------------------------------------------

    def apply(self, fn, args: list, label: str):
        self.fuel -= 1
        if self.fuel <= 0:
            raise InterpTimeout("out of fuel")
        if isinstance(fn, Closure):
            if len(args) != len(fn.lam.params):
                raise PrimBlame(
                    fn.name, label,
                    f"arity mismatch: expected {len(fn.lam.params)}, got {len(args)}",
                )
            child = fn.env.child()
            for p, a in zip(fn.lam.params, args):
                child.define(p, a)
            return self.eval(fn.lam.body, child)
        if isinstance(fn, Prim):
            try:
                return fn.fn(args, _Ctx(self, label))
            except PrimError as pe:
                raise PrimBlame(pe.op, label, pe.message) from None
            except UserError as ue:
                raise UserAbort(ue.message, label) from None
        if isinstance(fn, StructCtor):
            if len(args) != len(fn.struct_type.fields):
                raise PrimBlame(
                    fn.name, label,
                    f"expected {len(fn.struct_type.fields)} fields",
                )
            return StructVal(fn.struct_type, tuple(args))
        if isinstance(fn, Guarded):
            return self._apply_guarded(fn, args, label)
        raise PrimBlame("apply", label, f"not a procedure: {fn!r}")

    def _apply_guarded(self, g: Guarded, args: list, label: str):
        ctc = g.contract
        if isinstance(ctc, FuncContract):
            doms, rng = ctc.doms, ctc.rng
        else:
            assert isinstance(ctc, DepFuncContract)
            doms, rng = ctc.doms, None
        if len(args) != len(doms):
            raise ContractBlame(
                g.neg, f"arity: expected {len(doms)} args", label
            )
        checked = [
            self.monitor(d, a, pos=g.neg, neg=g.pos, label=label)
            for d, a in zip(doms, args)
        ]
        result = self.apply(g.inner, checked, label)
        if rng is None:
            rng_val = self.apply(ctc.rng_maker, checked, label)
            rng = _as_contract(rng_val)
        return self.monitor(rng, result, pos=g.pos, neg=g.neg, label=label)

    # -- contract monitoring (§4.3) --------------------------------------

    def monitor(self, ctc: Contract, value, *, pos: str, neg: str, label: str):
        """``mon(ctc, value)`` with blame parties; returns the (possibly
        wrapped) value or raises :class:`ContractBlame`."""
        if isinstance(ctc, AnyContract):
            return value
        if isinstance(ctc, FlatContract):
            if is_truthy(self.apply(ctc.pred, [value], label)):
                return value
            raise ContractBlame(pos, f"{ctc!r} on {value!r}", label)
        if isinstance(ctc, OneOfContract):
            if any(racket_equal(value, c) for c in ctc.choices):
                return value
            raise ContractBlame(pos, f"{ctc!r} on {value!r}", label)
        if isinstance(ctc, NotContract):
            failed = False
            try:
                self.monitor(ctc.part, value, pos=pos, neg=neg, label=label)
            except ContractBlame:
                failed = True
            if failed:
                return value
            raise ContractBlame(pos, f"{ctc!r} on {value!r}", label)
        if isinstance(ctc, AndContract):
            for part in ctc.parts:
                value = self.monitor(part, value, pos=pos, neg=neg, label=label)
            return value
        if isinstance(ctc, OrContract):
            higher: list[Contract] = []
            for part in ctc.parts:
                if isinstance(part, (FuncContract, DepFuncContract)):
                    higher.append(part)
                    continue
                try:
                    return self.monitor(part, value, pos=pos, neg=neg, label=label)
                except ContractBlame:
                    continue
            if higher and is_applicable(value):
                return self.monitor(higher[0], value, pos=pos, neg=neg, label=label)
            raise ContractBlame(pos, f"{ctc!r} on {value!r}", label)
        if isinstance(ctc, ConsContract):
            if not isinstance(value, Pair):
                raise ContractBlame(pos, f"cons/c on non-pair {value!r}", label)
            return Pair(
                self.monitor(ctc.car, value.car, pos=pos, neg=neg, label=label),
                self.monitor(ctc.cdr, value.cdr, pos=pos, neg=neg, label=label),
            )
        if isinstance(ctc, ListofContract):
            items = to_pylist(value)
            if items is None:
                raise ContractBlame(pos, f"listof on non-list {value!r}", label)
            return from_pylist(
                [
                    self.monitor(ctc.elem, x, pos=pos, neg=neg, label=label)
                    for x in items
                ]
            )
        if isinstance(ctc, ListContract):
            items = to_pylist(value)
            if items is None or len(items) != len(ctc.elems):
                raise ContractBlame(pos, f"list/c on {value!r}", label)
            return from_pylist(
                [
                    self.monitor(c, x, pos=pos, neg=neg, label=label)
                    for c, x in zip(ctc.elems, items)
                ]
            )
        if isinstance(ctc, StructContract):
            if not (isinstance(value, StructVal) and value.type == ctc.type):
                raise ContractBlame(pos, f"struct/c on {value!r}", label)
            return StructVal(
                value.type,
                tuple(
                    self.monitor(c, v, pos=pos, neg=neg, label=label)
                    for c, v in zip(ctc.fields, value.values)
                ),
            )
        if isinstance(ctc, RecContract):
            forced = self.apply(ctc.thunk, [], label)
            return self.monitor(
                _as_contract(forced), value, pos=pos, neg=neg, label=label
            )
        if isinstance(ctc, (FuncContract, DepFuncContract)):
            if not is_applicable(value):
                raise ContractBlame(pos, f"-> on non-procedure {value!r}", label)
            return Guarded(ctc, value, pos, neg)
        raise RuntimeFault(f"unknown contract {ctc!r}")

    # -- modules and programs ----------------------------------------------

    def load_module(
        self, module: Module, opaque_values: Optional[dict[str, object]] = None
    ) -> Env:
        """Evaluate a module; exports land (monitored) in the globals."""
        opaque_values = opaque_values or {}
        menv = self.globals.child()

        for sdef in module.structs:
            stype = StructType(sdef.name, sdef.fields)
            predicate = f"{sdef.name}?"

            def pred(args, ctx, st=stype, name=predicate):
                _arity(name, args, 1)
                return isinstance(args[0], StructVal) and args[0].type == st

            bindings: list[tuple[str, object]] = [
                (sdef.name, StructCtor(stype)),
                (predicate, Prim(predicate, pred)),
            ]
            for i, fieldname in enumerate(sdef.fields):
                accessor = f"{sdef.name}-{fieldname}"

                def acc(args, ctx, st=stype, idx=i, name=accessor):
                    _arity(name, args, 1)
                    v = args[0]
                    if not (isinstance(v, StructVal) and v.type == st):
                        raise PrimError(name, f"expected {st.name}, got {v!r}")
                    return v.values[idx]

                bindings.append((accessor, Prim(accessor, acc)))
            for bname, bval in bindings:
                menv.define(bname, bval)
                # Struct bindings are global in the symbolic engine's base
                # heap; mirroring that lets synthesized clients (which run
                # outside the module) build and inspect its structs.
                self.globals.define(bname, bval)

        for oname, ctc_expr in module.opaques:
            if oname in opaque_values:
                value = opaque_values[oname]
            elif oname in self.opaque_exprs:
                # Counterexample instantiation: an unknown import closed
                # over by a synthesized expression (scalar or lambda).
                value = self.eval(self.opaque_exprs[oname], self.globals)
            else:
                raise RuntimeFault(
                    f"module {module.name}: opaque {oname} has no concrete value"
                )
            if ctc_expr is not None:
                ctc = self._eval_contract(ctc_expr, menv)
                value = self.monitor(
                    ctc, value, pos=oname, neg=module.name, label=oname
                )
            menv.define(oname, value)

        cells = [menv.define(n, Cell.UNDEFINED) for n, _ in module.definitions]
        for cell, (_, rhs) in zip(cells, module.definitions):
            cell.value = self.eval(rhs, menv)

        for p in module.provides:
            value = menv.lookup(p.name).value
            if p.contract is not None:
                ctc = self._eval_contract(p.contract, menv)
                value = self.monitor(
                    ctc, value, pos=module.name, neg=f"client-of-{module.name}",
                    label=p.name,
                )
            self.globals.define(p.name, value)
        return menv

    def _eval_contract(self, e: UExpr, env: Env) -> Contract:
        return _as_contract(self.eval(e, env))

    def run_program(
        self,
        program: Program,
        *,
        opaque_values: Optional[dict[str, object]] = None,
        opaque_exprs: Optional[dict[str, UExpr]] = None,
    ):
        """Load all modules and evaluate the main expression."""
        self.opaque_exprs = dict(opaque_exprs or {})
        for m in program.modules:
            self.load_module(m, opaque_values)
        if program.main is None:
            return VOID
        return self.eval(program.main, self.globals)


def run_source(
    source: str,
    *,
    fuel: int = 2_000_000,
    opaque_values: Optional[dict[str, object]] = None,
    opaque_exprs: Optional[dict[str, UExpr]] = None,
):
    """Parse and run a program from text; returns the main value."""
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 100_000))
    try:
        program = parse_program(source)
        interp = Interp(fuel=fuel)
        return interp.run_program(
            program, opaque_values=opaque_values, opaque_exprs=opaque_exprs
        )
    finally:
        sys.setrecursionlimit(old_limit)
