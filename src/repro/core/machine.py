"""The reduction semantics of SPCF — paper Fig. 2.

States are ⟨expression, heap⟩ pairs.  The step relation is
nondeterministic: δ-branches and the opaque-application rules each yield
several successor states.  The machine is substitution-based, exactly
like the paper's: β-reduction substitutes the argument *location* into
the body, so every value a computation touches lives in the heap where it
can be refined.

The opaque-application rules are the heart of the technique (§3.2):

* ``AppOpq1`` — unknown function, *base-type* argument: the unknown
  becomes a memoising ``case`` mapping, and the result is a fresh opaque.
  Equal future arguments get equal results (completeness!).
* ``AppOpq2`` — unknown function, function argument, *ignores* it:
  becomes a constant function.
* ``AppOpq3`` — unknown function returning a function: *delays* the
  exploration of its argument inside a returned closure.
* ``AppHavoc`` — unknown function *explores* its argument: applies it to
  a fresh opaque and feeds the result to another unknown function.

Together these unroll the "demonic context" of earlier higher-order
symbolic execution incrementally, while remembering enough shape to
reconstruct a counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .delta import delta
from .heap import (
    Heap,
    NameCursor,
    SCase,
    SLam,
    SNum,
    SOpq,
)
from .proof import ProofSystem
from .syntax import (
    App,
    Err,
    Expr,
    Fix,
    FunType,
    If,
    Lam,
    Loc,
    NatType,
    Num,
    Opq,
    PrimApp,
    Ref,
    subst,
)


@dataclass(frozen=True)
class State:
    """⟨E, Σ⟩."""

    control: Expr
    heap: Heap
    # The next location number on this state's path.  ``step`` seeds the
    # machine's name cursor with it before reducing, making location
    # names a pure function of the path from the initial state,
    # independent of search order; the compiled executor's stamps rely
    # on this (see repro.compile.executor).  Excluded from fingerprints
    # (which rename locations anyway).
    loc_base: int = 0

    @property
    def is_answer(self) -> bool:
        return isinstance(self.control, (Loc, Err))

    @property
    def is_error(self) -> bool:
        return isinstance(self.control, Err)

    def __repr__(self) -> str:
        return f"⟨{self.control!r}, {self.heap!r}⟩"


class StuckError(Exception):
    """The machine reached a non-answer state with no applicable rule —
    impossible for well-typed programs."""


def inject(program: Expr) -> State:
    """The initial state for a closed program: locations number from 0."""
    return State(program, Heap.empty())


def _opq_loc(label: str) -> Loc:
    """The canonical location of the opaque value labelled ``label``.

    Opaque values denote *fixed* unknowns, so re-evaluating the same
    source occurrence must reuse its location (rule Opq's side condition).
    Deriving the location from the label achieves this without threading
    a separate table through the state.
    """
    return Loc(f"o:{label}")


class Machine:
    """The nondeterministic step function, parameterised by a proof system
    (which in turn wraps the first-order solver)."""

    def __init__(self, proof: Optional[ProofSystem] = None) -> None:
        self.proof = proof or ProofSystem()
        self.names = NameCursor()  # seeded per step from ``loc_base``

    # -- public ------------------------------------------------------------

    def step(self, state: State) -> Optional[list[State]]:
        """Successor states, or None when ``state`` is an answer."""
        if state.is_answer:
            return None
        names = self.names
        names.loc = state.loc_base
        succs = self._reduce(state.control, state.heap)
        base = names.loc
        return [State(e, h, base) for e, h in succs]

    # -- redex search (contextual closure, rule Close) ----------------------

    def _reduce(self, e: Expr, heap: Heap) -> list[tuple[Expr, Heap]]:
        # Value forms allocate (rules Opq and Conc).
        if isinstance(e, Num):
            l, h = heap.alloc(SNum(e.value), self.names)
            return [(l, h)]
        if isinstance(e, Lam):
            l, h = heap.alloc(SLam(e), self.names)
            return [(l, h)]
        if isinstance(e, Opq):
            l = _opq_loc(e.label)
            if l in heap:
                return [(l, heap)]
            return [(l, heap.set(l, SOpq(e.type)))]
        if isinstance(e, Fix):
            return [(subst(e.body, e.var, e), heap)]
        if isinstance(e, If):
            return self._reduce_in_context(
                e.test,
                heap,
                plug=lambda t: If(t, e.then, e.orelse),
                apply=lambda l, h: self._apply_if(l, e.then, e.orelse, h),
            )
        if isinstance(e, App):
            if not isinstance(e.fn, Loc):
                return self._reduce_in_context(
                    e.fn, heap, plug=lambda f: App(f, e.arg), apply=None
                )
            if not isinstance(e.arg, Loc):
                return self._reduce_in_context(
                    e.arg, heap, plug=lambda a: App(e.fn, a), apply=None
                )
            return self._apply(e.fn, e.arg, heap)
        if isinstance(e, PrimApp):
            for i, a in enumerate(e.args):
                if isinstance(a, Loc):
                    continue
                before, after = e.args[:i], e.args[i + 1 :]
                return self._reduce_in_context(
                    a,
                    heap,
                    plug=lambda x: PrimApp(e.op, before + (x,) + after, e.label),
                    apply=None,
                )
            return self._apply_prim(e, heap)
        if isinstance(e, Ref):
            raise StuckError(f"free variable {e.name} reached the machine")
        raise StuckError(f"no rule for {e!r}")

    def _reduce_in_context(self, sub: Expr, heap: Heap, *, plug, apply):
        """Reduce inside an evaluation context (rules Close and Error)."""
        if isinstance(sub, Err):
            return [(sub, heap)]  # Error: discard the context
        if isinstance(sub, Loc):
            assert apply is not None, "caller must handle finished operands"
            return apply(sub, heap)
        return [(plug(e2), h2) for e2, h2 in self._reduce(sub, heap)]

    # -- rule implementations ------------------------------------------------

    def _apply_if(self, test: Loc, then: Expr, orelse: Expr, heap: Heap):
        """Rules IfTrue / IfFalse: the then-branch runs when the test is
        nonzero (δ's zero? answering 0)."""
        out = []
        for res in delta(self.proof, heap, "zero?", (test,)):
            assert not res.error and isinstance(res.value, SNum)
            if res.value.value == 0:  # zero? is false: test nonzero: then
                out.append((then, res.heap))
            else:
                out.append((orelse, res.heap))
        return out

    def _apply_prim(self, e: PrimApp, heap: Heap):
        """Rule Prim: allocate each δ-result; errors blame ``e.label``."""
        locs = tuple(a for a in e.args if isinstance(a, Loc))
        out: list[tuple[Expr, Heap]] = []
        for res in delta(self.proof, heap, e.op, locs):
            if res.error:
                out.append((Err(e.label, e.op), res.heap))
            else:
                assert res.value is not None
                l, h = res.heap.alloc(res.value, self.names)
                out.append((l, h))
        return out

    def _apply(self, fn: Loc, arg: Loc, heap: Heap):
        s = heap.get(fn)
        if isinstance(s, SLam):
            # Rule AppLam: β by substituting the argument location.
            return [(subst(s.lam.body, s.lam.var, arg), heap)]
        if isinstance(s, SCase):
            return self._apply_case(fn, s, arg, heap)
        if isinstance(s, SOpq):
            if not isinstance(s.type, FunType):
                raise StuckError(f"applying opaque non-function {s!r}")
            if isinstance(s.type.dom, NatType):
                return self._app_opq1(fn, s.type, arg, heap)
            return self._app_opq_higher(fn, s.type, arg, heap)
        raise StuckError(f"applying non-function {s!r}")

    def _apply_case(self, fn: Loc, s: SCase, arg: Loc, heap: Heap):
        hit = s.lookup(arg)
        if hit is not None:
            return [(hit, heap)]  # AppCase1: memoised result
        # AppCase2: fresh opaque output, extend the mapping.
        la, h = heap.alloc(SOpq(s.out_type), self.names)
        h = h.set(fn, s.extended(arg, la))
        return [(la, h)]

    def _app_opq1(self, fn: Loc, t: FunType, arg: Loc, heap: Heap):
        """AppOpq1: •(nat→T) becomes a one-entry case mapping."""
        la, h = heap.alloc(SOpq(t.rng), self.names)
        h = h.set(fn, SCase(t.rng, ((arg, la),)))
        return [(la, h)]

    def _app_opq_higher(self, fn: Loc, t: FunType, arg: Loc, heap: Heap):
        """AppOpq2 / AppOpq3 / AppHavoc for •(T'→T) with T' = T1→T2."""
        dom = t.dom
        assert isinstance(dom, FunType)
        out: list[tuple[Expr, Heap]] = []

        # AppOpq2: constant function λx:T'. La.
        la, h2 = heap.alloc(SOpq(t.rng), self.names)
        h2 = h2.set(fn, SLam(Lam("x", dom, la)))
        out.append((la, h2))

        # AppOpq3: delay exploration — only when the range is a function.
        if isinstance(t.rng, FunType):
            t3 = t.rng.dom
            l1, h3 = heap.alloc(SOpq(t), self.names)
            wrapper_body = Lam("y", t3, App(App(l1, Ref("x")), Ref("y")))
            h3 = h3.set(fn, SLam(Lam("x", dom, wrapper_body)))
            result = Lam("y", t3, App(App(l1, arg), Ref("y")))
            out.append((result, h3))

        # AppHavoc: explore the argument with a fresh opaque input, feed
        # the output to a fresh unknown continuation.
        l1, hh = heap.alloc(SOpq(dom.dom), self.names)
        l2, hh = hh.alloc(SOpq(FunType(dom.rng, t.rng)), self.names)
        havoc_body = App(l2, App(Ref("x"), l1))
        hh = hh.set(fn, SLam(Lam("x", dom, havoc_body)))
        out.append((App(l2, App(arg, l1)), hh))

        return out
