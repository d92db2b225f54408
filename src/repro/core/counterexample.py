"""Counterexample construction — paper §3.5.

At an error state the heap's refinements describe the condition under
which the program goes wrong, and — because unknown functions were
partially solved into ``case`` mappings and wrapper lambdas as they were
applied — only *first-order* unknowns remain.  A model of the heap
formula therefore determines a complete, concrete, potentially
higher-order input:

* opaque base values are read off the model;
* ``case`` mappings become nested-``if`` lambdas over their (modelled)
  entries;
* wrapper/constant lambdas are concretised recursively;
* opaque functions that were never applied are irrelevant to the error
  and become default constant functions.

Every counterexample is then *validated* by re-running the instantiated
program concretely (§4.5) — Theorem 1 says this always reproduces the
error, and the soundness test suite checks exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..smt import Model, get_model, mk_var
from .concrete import Timeout, run
from .heap import Heap, SCase, SLam, SNum, SOpq
from .machine import State, _opq_loc
from .syntax import (
    App,
    Err,
    Expr,
    Fix,
    FunType,
    If,
    Lam,
    Loc,
    NAT,
    NatType,
    Num,
    Opq,
    PrimApp,
    Ref,
    Type,
    prim,
    subexprs,
)
from .translate import translate_heap


class ReconstructionError(Exception):
    """The heap could not be concretised (cyclic reference chain)."""


#: Canonical (surface-syntax) names for core δ operations.  Both
#: backends render counterexamples against surface names — the core
#: machine errors with ``div`` where the scv machine blames ``quotient``
#: — so the report's cross-backend agreement section can compare them
#: field by field.  ``driver.lower`` reuses this table when raising
#: counterexample values back to surface syntax.
CANONICAL_OPS = {
    "+": "+",
    "-": "-",
    "*": "*",
    "div": "quotient",
    "mod": "modulo",
    "=?": "=",
    "<?": "<",
    "<=?": "<=",
    "add1": "add1",
    "sub1": "sub1",
    "zero?": "zero?",
}


def canonical_op(op: str) -> str:
    """The canonical (surface) name of a core δ operation."""
    return CANONICAL_OPS.get(op, op)


def render_bindings(cex: "Counterexample") -> dict[str, str]:
    """Counterexample bindings as canonical surface-syntax strings
    (``pp``): scalars render bare (``0``), functions as ``(fun x → …)``."""
    from .pretty import pp

    return {label: pp(v) for label, v in cex.bindings.items()}


def default_value(t: Type) -> Expr:
    """An arbitrary closed value of type ``t`` (used for unknowns the
    error does not depend on)."""
    if isinstance(t, NatType):
        return Num(0)
    assert isinstance(t, FunType)
    return Lam("_", t.dom, default_value(t.rng))


@dataclass
class Counterexample:
    """A concrete instantiation of a program's opaque values."""

    bindings: dict[str, Expr]  # opaque label -> closed expression
    model: Model
    err: Err
    validated: Optional[bool] = None  # None = not checked

    def binding(self, label: str) -> Expr:
        return self.bindings[label]

    def __repr__(self) -> str:
        rows = ", ".join(f"•^{k} = {v!r}" for k, v in self.bindings.items())
        return f"Counterexample({rows}; {self.err!r})"


class Reconstructor:
    """Concretises heap locations under a first-order model."""

    def __init__(self, heap: Heap, model: Model) -> None:
        self.heap = heap
        self.model = model
        self._memo: dict[Loc, Expr] = {}
        self._in_progress: set[Loc] = set()

    def loc_value(self, l: Loc) -> Expr:
        if l in self._memo:
            return self._memo[l]
        if l in self._in_progress:
            raise ReconstructionError(f"cyclic heap reference at {l.name}")
        self._in_progress.add(l)
        try:
            out = self._build(l)
        finally:
            self._in_progress.discard(l)
        self._memo[l] = out
        return out

    def _model_int(self, l: Loc) -> int:
        return self.model[mk_var(l.name)]

    def _build(self, l: Loc) -> Expr:
        s = self.heap.get(l)
        if isinstance(s, SNum):
            return Num(s.value)
        if isinstance(s, SOpq):
            if isinstance(s.type, NatType):
                return Num(self._model_int(l))
            return default_value(s.type)
        if isinstance(s, SLam):
            return self._concretize_expr(s.lam)
        if isinstance(s, SCase):
            return self._build_case(s)
        raise TypeError(f"cannot reconstruct {s!r}")

    def _build_case(self, s: SCase) -> Expr:
        """``case [L1 ↦ La] ...`` as ``λx. if x = n1 then v1 ... else d``.

        Entry keys are base values; evaluating them under the model and
        deduplicating is sound because the heap translation asserts equal
        keys map to equal outputs.
        """
        entries: list[tuple[int, Expr]] = []
        seen: set[int] = set()
        for k, v in s.mapping:
            key = self._key_int(k)
            if key in seen:
                continue
            seen.add(key)
            entries.append((key, self.loc_value(v)))
        default = entries[0][1] if entries else default_value(s.out_type)
        body: Expr = default
        for key, out in reversed(entries):
            # ``=?`` is total, so the label can never be blamed.
            body = If(prim("=?", Ref("x"), Num(key), label="case"), out, body)
        return Lam("x", NAT, body)

    def _key_int(self, l: Loc) -> int:
        st = self.heap.get(l)
        if isinstance(st, SNum):
            return st.value
        return self._model_int(l)

    def _concretize_expr(self, e: Expr) -> Expr:
        """Replace every location occurring in an expression with its
        concrete value."""
        if isinstance(e, Loc):
            return self.loc_value(e)
        if isinstance(e, (Num, Ref, Opq)):
            return e
        if isinstance(e, Lam):
            return Lam(e.var, e.var_type, self._concretize_expr(e.body))
        if isinstance(e, Fix):
            return Fix(e.var, e.var_type, self._concretize_expr(e.body))
        if isinstance(e, App):
            return App(self._concretize_expr(e.fn), self._concretize_expr(e.arg))
        if isinstance(e, If):
            return If(
                self._concretize_expr(e.test),
                self._concretize_expr(e.then),
                self._concretize_expr(e.orelse),
            )
        if isinstance(e, PrimApp):
            return PrimApp(
                e.op,
                tuple(self._concretize_expr(a) for a in e.args),
                e.label,
            )
        raise TypeError(f"cannot concretise {e!r}")


def instantiate(program: Expr, bindings: dict[str, Expr]) -> Expr:
    """Replace each opaque value in ``program`` by its binding."""
    if isinstance(program, Opq):
        if program.label not in bindings:
            return default_value(program.type)
        return bindings[program.label]
    if isinstance(program, (Num, Ref, Loc, Err)):
        return program
    if isinstance(program, Lam):
        return Lam(program.var, program.var_type, instantiate(program.body, bindings))
    if isinstance(program, Fix):
        return Fix(program.var, program.var_type, instantiate(program.body, bindings))
    if isinstance(program, App):
        return App(instantiate(program.fn, bindings), instantiate(program.arg, bindings))
    if isinstance(program, If):
        return If(
            instantiate(program.test, bindings),
            instantiate(program.then, bindings),
            instantiate(program.orelse, bindings),
        )
    if isinstance(program, PrimApp):
        return PrimApp(
            program.op,
            tuple(instantiate(a, bindings) for a in program.args),
            program.label,
        )
    raise TypeError(f"cannot instantiate {program!r}")


def construct(
    program: Expr,
    error_state: State,
    *,
    validate: bool = True,
    fuel: int = 200_000,
) -> Optional[Counterexample]:
    """Build (and optionally validate) a counterexample from an error
    state reached by symbolic execution of ``program``.

    Returns None when the heap formula has no model the solver can find —
    either the path is spurious (impossible without abstraction, Thm 1)
    or the solver answered UNKNOWN (the relative-completeness boundary).
    """
    err = error_state.control
    assert isinstance(err, Err)
    heap = error_state.heap

    phi = translate_heap(heap)
    model = get_model(phi)  # cached: the proof relation often already
    if model is None:       # solved this very heap formula
        return None

    recon = Reconstructor(heap, model)
    bindings: dict[str, Expr] = {}
    for node in subexprs(program):
        if not isinstance(node, Opq):
            continue
        l = _opq_loc(node.label)
        if l in heap:
            try:
                bindings[node.label] = recon.loc_value(l)
            except ReconstructionError:
                bindings[node.label] = default_value(node.type)
        else:
            bindings[node.label] = default_value(node.type)

    cex = Counterexample(bindings, model, err)
    if validate:
        cex.validated = check_counterexample(program, cex, fuel=fuel)
    return cex


def check_counterexample(
    program: Expr, cex: Counterexample, *, fuel: int = 200_000
) -> bool:
    """Re-run the instantiated program concretely and confirm it raises
    the same error (same blame label) — the Theorem 1 check."""
    closed = instantiate(program, cex.bindings)
    try:
        answer = run(closed, fuel=fuel)
    except Timeout:
        return False
    return answer.is_error and answer.error.label == cex.err.label
