"""Dispatch-loop executors over the lowered bytecode.

Both executors implement the kernel's ``expander`` contract:

    expand(state, chain_limit) -> (final_state, successors, chained)

with **exactly** the semantics of ``SearchKernel._expand`` over the
step machine: run the deterministic single-successor chain (up to
``chain_limit`` adoptions) in a tight loop, and return the same
``(final_state, successors)`` pair — ``None`` successors for answers —
with every returned state stamped with the same post-step counter bases
the step machine would stamp.  A full machine state is only
materialised at the *observable* points: the states handed back to the
kernel (fingerprinted, pruned, admitted to the frontier) and the states
handed to the step machine's own rule methods at choice points.  In
between, the machine registers live in Python locals.

The byte-identity argument, which the differential oracle
(``tests/test_differential.py``) and the corpus identity suite
(``tests/test_compile.py``) enforce:

* **Counters.**  ``step`` rewinds the global location/label counters to
  the state's bases and stamps successors with the post-step values.
  Inside a deterministic chain the rewind is a no-op — each state's
  bases equal the counters its predecessor's step left behind — so the
  fused loop sets the counters once on entry and reads them only when
  materialising.
* **Inline transitions** replicate the machine's single-successor rules
  field for field (same ``Blame`` strings, same frame construction,
  same allocation order).  Only transitions that are certainly
  single-successor are inlined.
* **Choice points delegate.**  Anything that may branch or synthesise
  code — δ on primitives, opaque application/havoc, contract monitor
  expansion, branching ``if`` — is delegated to the step machine itself
  on a materialised state, so prover interaction and synthesised-node
  minting go through literally the same code.

``dispatch_steps`` counts executed micro-steps (inline + delegated);
it is deterministic for a given search.
"""

from __future__ import annotations

import time

from ..core.heap import (
    SLam,
    SNum,
    SOpq,
    current_loc_counter,
    set_loc_counter,
)
from ..core.machine import State, _opq_loc
from ..core.syntax import (
    App,
    Err,
    Fix,
    If,
    Lam,
    Loc,
    Num,
    Opq,
    PrimApp,
    subst,
)
from ..lang.values import VOID
from ..prims import REGISTRY as _PRIM_REGISTRY
from ..scv.delta import OBlame, OEval, OLoc, OValue, delta_u
from ..scv.heap import TAG_BOOLEAN, UAlias, UClos, UConc, UOpq, UPrim
from ..scv.machine import (
    Blame,
    KApp,
    KBegin,
    KIf,
    KLetrec,
    KMonC,
    KMonV,
    KSet,
    SState,
    _UNDEFINED,
    _alloc_datum,
    current_syn_counter,
    set_syn_counter,
)
from .lower import (
    OP_APP,
    OP_BEGIN,
    OP_BLAME,
    OP_CLOSURE,
    OP_IF,
    OP_LETREC,
    OP_LOC,
    OP_MON,
    OP_OPAQUE,
    OP_QUOTE,
    OP_SET,
    OP_VAR,
    lower_core,
    lower_scv,
    lower_scv_unit,
)

#: Names the inline δ fast path may handle directly.  Sourced from the
#: primitive registry (layer four of its consumers) so the executor's
#: dispatch set cannot drift from the declarations; per-program struct
#: predicates/accessors are checked against ``m.struct_prims`` at the
#: call site.  Anything else (a shadowed or unknown name) delegates to
#: the machine's general step for the canonical treatment.
_INLINE_UPRIM_NAMES = frozenset(_PRIM_REGISTRY)


class _ExecutorBase:
    """Shared unit bookkeeping: the program is lowered up front (all
    reachable units), machine-synthesised expressions are compiled on
    miss, and the per-run counters land in the stats object the search
    reports from."""

    def __init__(self, machine, program=None, stats=None):
        self.m = machine
        self.stats = stats
        self.units = []
        self.code = {}  # id(node) -> instruction tuple
        self._pins = []  # keep compiled roots alive (id() stability)
        self.compile_ms = 0.0
        if program is not None:
            self.load_program(program)

    def _lower_program(self, root):  # pragma: no cover - overridden
        raise NotImplementedError

    def _lower_miss_unit(self, root):  # pragma: no cover - overridden
        raise NotImplementedError

    def load_program(self, root) -> None:
        t0 = time.perf_counter()
        units = self._lower_program(root)
        self.units = units
        self._pins.append(root)
        code = self.code
        for unit in units:
            for node, ins in zip(unit.nodes, unit.instructions):
                code[id(node)] = ins
        self.compile_ms = (time.perf_counter() - t0) * 1000.0
        if self.stats is not None:
            if hasattr(self.stats, "compiled_units"):
                self.stats.compiled_units = len(units)
            if hasattr(self.stats, "compile_ms"):
                self.stats.compile_ms = round(self.compile_ms, 3)

    def _compile_miss(self, node):
        """Compile a machine-synthesised expression (monitor expansion,
        havoc/guard wrappers) the first time the loop enters it."""
        unit = self._lower_miss_unit(node)
        self._pins.append(node)
        code = self.code
        for n, ins in zip(unit.nodes, unit.instructions):
            code[id(n)] = ins
        return code[id(node)]


# ---------------------------------------------------------------------------
# scv: instruction-driven CESK dispatch
# ---------------------------------------------------------------------------


class ScvExecutor(_ExecutorBase):
    def _lower_program(self, root):
        return lower_scv(root)

    def _lower_miss_unit(self, root):
        pending: list = []
        units = [lower_scv_unit(root, None, pending, kind="lambda")]
        while pending:
            units.append(lower_scv_unit(pending.pop(0), None, pending,
                                        kind="lambda"))
        # Register the nested lambda bodies too, so re-entry is a hit.
        for extra in units[1:]:
            self._pins.append(extra.root)
            for n, ins in zip(extra.nodes, extra.instructions):
                self.code[id(n)] = ins
        return units[0]

    def expand(self, st, limit):
        m = self.m
        code = self.code
        control, env, heap, kont = st.control, st.env, st.heap, st.kont
        ge = st.gen_effort
        set_syn_counter(st.syn_base)
        set_loc_counter(st.loc_base)
        cur = st  # materialised SState for the current point, when fresh
        chained = 0
        steps = 0
        try:
            while True:
                ccls = control.__class__
                if ccls is Blame or (ccls is Loc and not kont):
                    if cur is None:
                        cur = SState(control, env, heap, kont, ge,
                                     current_syn_counter(),
                                     current_loc_counter())
                    return cur, None, chained

                at_cap = chained >= limit
                if ccls is Loc:
                    # ---- plug phase: dispatch on the continuation frame
                    frame = kont[-1]
                    fcls = frame.__class__
                    if fcls is KApp:
                        if frame.pending:
                            steps += 1
                            if at_cap:
                                if cur is None:
                                    cur = SState(control, env, heap, kont, ge,
                                                 current_syn_counter(),
                                                 current_loc_counter())
                                succ = SState(
                                    frame.pending[0], frame.env, heap,
                                    kont[:-1] + (KApp(
                                        frame.done + (control,),
                                        frame.pending[1:], frame.env,
                                        frame.label),),
                                    ge, current_syn_counter(),
                                    current_loc_counter(),
                                )
                                return cur, [succ], chained
                            kont = kont[:-1] + (KApp(
                                frame.done + (control,), frame.pending[1:],
                                frame.env, frame.label),)
                            env = frame.env
                            control = frame.pending[0]
                            chained += 1
                            cur = None
                            continue
                        done = frame.done + (control,)
                        fn, args = done[0], done[1:]
                        _, s = heap.deref(fn)
                        if s.__class__ is UClos:
                            steps += 1
                            if len(args) != len(s.lam.params):
                                blame = Blame(
                                    "Λ", frame.label,
                                    f"arity: {s.lam.name or 'λ'} expects "
                                    f"{len(s.lam.params)}, got {len(args)}",
                                )
                                if at_cap:
                                    if cur is None:
                                        cur = SState(
                                            control, env, heap, kont, ge,
                                            current_syn_counter(),
                                            current_loc_counter(),
                                        )
                                    succ = SState(blame, env, heap, (), ge,
                                                  current_syn_counter(),
                                                  current_loc_counter())
                                    return cur, [succ], chained
                                control = blame
                                kont = ()
                                chained += 1
                                cur = None
                                continue
                            bindings = dict(zip(s.lam.params, args))
                            if at_cap:
                                if cur is None:
                                    cur = SState(control, env, heap, kont, ge,
                                                 current_syn_counter(),
                                                 current_loc_counter())
                                succ = SState(
                                    s.lam.body, s.env.extend(bindings), heap,
                                    kont[:-1], ge, current_syn_counter(),
                                    current_loc_counter(),
                                )
                                return cur, [succ], chained
                            control = s.lam.body
                            env = s.env.extend(bindings)
                            kont = kont[:-1]
                            chained += 1
                            cur = None
                            continue
                        if s.__class__ is UPrim and (
                            s.name in _INLINE_UPRIM_NAMES
                            or s.name in m.struct_prims
                        ):
                            # δ on a primitive: run it in place and
                            # adopt the (very common) single outcome —
                            # the transition δ produces is exactly what
                            # ``apply``/``_run_outcomes`` would build.
                            steps += 1
                            # δ may allocate: snapshot the pre-step
                            # counter stamps now, materialise lazily.
                            syn0 = current_syn_counter()
                            loc0 = current_loc_counter()
                            outcomes = delta_u(m, heap, s.name, args,
                                               frame.label)
                            rest = kont[:-1]
                            if len(outcomes) == 1 and not at_cap:
                                o = outcomes[0]
                                ocls = o.__class__
                                if ocls is OValue:
                                    control, heap = o.heap.alloc(o.storeable)
                                    ge += o.effort
                                    kont = rest
                                elif ocls is OLoc:
                                    control, heap = o.loc, o.heap
                                    ge += o.effort
                                    kont = rest
                                elif ocls is OBlame:
                                    control = Blame(o.party, o.label,
                                                    o.description)
                                    heap = o.heap
                                    kont = ()
                                else:  # OEval
                                    control, env, heap = o.expr, o.env, o.heap
                                    ge += o.effort
                                    kont = rest
                                chained += 1
                                cur = None
                                continue
                            if cur is None:
                                cur = SState(control, env, heap, kont, ge,
                                             syn0, loc0)
                            succs = m._run_outcomes(outcomes, cur, rest)
                            base_syn = current_syn_counter()
                            base_loc = current_loc_counter()
                            succs = [
                                SState(x.control, x.env, x.heap, x.kont,
                                       x.gen_effort, base_syn, base_loc)
                                for x in succs
                            ]
                            return cur, succs, chained
                        # opaques / guards / struct ctors: the demonic
                        # context and contracts may branch — delegate.
                    elif fcls is KIf:
                        target, s = heap.deref(control)
                        scls = s.__class__
                        if scls is UConc:
                            taken = frame.orelse if s.value is False \
                                else frame.then
                        elif scls is not UOpq or \
                                TAG_BOOLEAN not in s.possible:
                            taken = frame.then
                        else:
                            taken = None  # genuinely branches: delegate
                        if taken is not None:
                            steps += 1
                            if at_cap:
                                if cur is None:
                                    cur = SState(control, env, heap, kont, ge,
                                                 current_syn_counter(),
                                                 current_loc_counter())
                                succ = SState(taken, frame.env, heap,
                                              kont[:-1], ge,
                                              current_syn_counter(),
                                              current_loc_counter())
                                return cur, [succ], chained
                            control = taken
                            env = frame.env
                            kont = kont[:-1]
                            chained += 1
                            cur = None
                            continue
                    elif fcls is KBegin:
                        steps += 1
                        first, remaining = frame.rest[0], frame.rest[1:]
                        k = kont[:-1] + (KBegin(remaining, frame.env),) \
                            if remaining else kont[:-1]
                        if at_cap:
                            if cur is None:
                                cur = SState(control, env, heap, kont, ge,
                                             current_syn_counter(),
                                             current_loc_counter())
                            succ = SState(first, frame.env, heap, k, ge,
                                          current_syn_counter(),
                                          current_loc_counter())
                            return cur, [succ], chained
                        control = first
                        env = frame.env
                        kont = k
                        chained += 1
                        cur = None
                        continue
                    elif fcls is KLetrec:
                        steps += 1
                        h = heap.set(frame.cells[frame.index], UAlias(control))
                        nxt = frame.index + 1
                        if nxt < len(frame.bindings):
                            k = kont[:-1] + (KLetrec(
                                frame.cells, nxt, frame.bindings, frame.body,
                                frame.env),)
                            c2 = frame.bindings[nxt][1]
                        else:
                            k = kont[:-1]
                            c2 = frame.body
                        if at_cap:
                            if cur is None:
                                cur = SState(control, env, heap, kont, ge,
                                             current_syn_counter(),
                                             current_loc_counter())
                            succ = SState(c2, frame.env, h, k, ge,
                                          current_syn_counter(),
                                          current_loc_counter())
                            return cur, [succ], chained
                        control = c2
                        env = frame.env
                        heap = h
                        kont = k
                        chained += 1
                        cur = None
                        continue
                    elif fcls is KSet:
                        steps += 1
                        if at_cap and cur is None:
                            cur = SState(control, env, heap, kont, ge,
                                         current_syn_counter(),
                                         current_loc_counter())
                        h = heap.set(frame.cell, UAlias(control))
                        lv, h = h.alloc(UConc(VOID))
                        if at_cap:
                            succ = SState(lv, env, h, kont[:-1], ge,
                                          current_syn_counter(),
                                          current_loc_counter())
                            return cur, [succ], chained
                        control = lv
                        heap = h
                        kont = kont[:-1]
                        chained += 1
                        cur = None
                        continue
                    elif fcls is KMonC:
                        steps += 1
                        k = kont[:-1] + (KMonV(control, frame.pos, frame.neg,
                                               frame.label),)
                        if at_cap:
                            if cur is None:
                                cur = SState(control, env, heap, kont, ge,
                                             current_syn_counter(),
                                             current_loc_counter())
                            succ = SState(frame.value, frame.env, heap, k, ge,
                                          current_syn_counter(),
                                          current_loc_counter())
                            return cur, [succ], chained
                        control = frame.value
                        env = frame.env
                        kont = k
                        chained += 1
                        cur = None
                        continue
                else:
                    # ---- eval phase: instruction dispatch
                    ins = code.get(id(control))
                    if ins is None:
                        ins = self._compile_miss(control)
                    op = ins[0]
                    # Materialise the chain-end state *before* executing
                    # the capped instruction: allocating ops bump the
                    # location counter, and the returned state must carry
                    # the counter values from when it was produced.
                    if at_cap and cur is None:
                        cur = SState(control, env, heap, kont, ge,
                                     current_syn_counter(),
                                     current_loc_counter())
                    c2 = env2 = None
                    h2 = heap
                    k2 = kont
                    kont2_clear = False
                    if op == OP_APP:
                        k2 = kont + (KApp((), ins[2], env, ins[3]),)
                        c2 = ins[1]
                    elif op == OP_VAR:
                        l = env.lookup(ins[1])
                        if l is None:
                            c2 = Blame("top", "",
                                       f"unbound variable {ins[1]}")
                            kont2_clear = True
                        else:
                            c2, _ = heap.deref(l)
                    elif op == OP_LOC:
                        c2 = ins[1]
                    elif op == OP_IF:
                        k2 = kont + (KIf(ins[2], ins[3], env),)
                        c2 = ins[1]
                    elif op == OP_QUOTE:
                        c2, h2 = _alloc_datum(heap, ins[1])
                    elif op == OP_CLOSURE:
                        c2, h2 = heap.alloc(UClos(control, env))
                    elif op == OP_OPAQUE:
                        l = ins[1]
                        h2 = heap if l in heap else heap.set(l, m.fresh_opq())
                        c2 = l
                    elif op == OP_BEGIN:
                        rest = ins[2]
                        k2 = kont + (KBegin(rest, env),) if rest else kont
                        c2 = ins[1]
                    elif op == OP_MON:
                        k2 = kont + (KMonC(ins[2], env, ins[3], ins[4],
                                           ins[5]),)
                        c2 = ins[1]
                    elif op == OP_LETREC:
                        bindings, bodye = ins[1], ins[2]
                        h2 = heap
                        frame_d = {}
                        cells = []
                        for name, _b in bindings:
                            l, h2 = h2.alloc(UConc(_UNDEFINED), prefix="cell")
                            frame_d[name] = l
                            cells.append(l)
                        env2 = env.extend(frame_d)
                        if not bindings:
                            c2 = bodye
                        else:
                            k2 = kont + (KLetrec(tuple(cells), 0, bindings,
                                                 bodye, env2),)
                            c2 = bindings[0][1]
                    elif op == OP_SET:
                        l = env.lookup(ins[1])
                        if l is None:
                            c2 = Blame("top", "", f"set!: unbound {ins[1]}")
                            kont2_clear = True
                        else:
                            k2 = kont + (KSet(l),)
                            c2 = ins[2]
                    elif op == OP_BLAME:
                        c2 = Blame(ins[1], ins[2], ins[3])
                        kont2_clear = True
                    if c2 is not None:
                        steps += 1
                        if env2 is None:
                            env2 = env
                        if kont2_clear:
                            k2 = ()
                        if at_cap:
                            succ = SState(c2, env2, h2, k2, ge,
                                          current_syn_counter(),
                                          current_loc_counter())
                            return cur, [succ], chained
                        control, env, heap, kont = c2, env2, h2, k2
                        chained += 1
                        cur = None
                        continue
                    # OP_DELEGATE and anything unrecognised: fall through.

                # ---- delegation: one full machine step on a
                # materialised state (choice points, monitor synthesis,
                # δ, opaque application, unknown forms)
                if cur is None:
                    cur = SState(control, env, heap, kont, ge,
                                 current_syn_counter(), current_loc_counter())
                succs = m.step(cur)
                steps += 1
                if succs is not None and len(succs) == 1 and not at_cap:
                    nxt = succs[0]
                    control, env, heap, kont = (nxt.control, nxt.env,
                                                nxt.heap, nxt.kont)
                    ge = nxt.gen_effort
                    chained += 1
                    cur = nxt
                    continue
                return cur, succs, chained
        finally:
            if steps and self.stats is not None and \
                    hasattr(self.stats, "dispatch_steps"):
                self.stats.dispatch_steps += steps


# ---------------------------------------------------------------------------
# core: zipper-driven reduction
# ---------------------------------------------------------------------------


def _plug_core(stack, focus):
    """Rebuild the whole-term control expression from the focus and its
    context stack (innermost frame last) — value-equal to the machine's
    ``plug`` closures, so materialised states fingerprint identically."""
    e = focus
    for frame in reversed(stack):
        tag = frame[0]
        if tag == "appfn":
            e = App(e, frame[1])
        elif tag == "apparg":
            e = App(frame[1], e)
        elif tag == "if":
            e = If(e, frame[1], frame[2])
        else:  # ("prim", op, before, after, label)
            e = PrimApp(frame[1], frame[2] + (e,) + frame[3], frame[4])
    return e


class CoreExecutor(_ExecutorBase):
    """Fused reduction for the substitution-based SPCF machine.

    The machine re-walks the term from the root on every step to find
    the redex (``_reduce``'s contextual closure).  The executor instead
    keeps a **zipper**: the focused sub-expression plus a stack of
    context frames.  Redex *navigation* (pushing into an application's
    operator, an ``if``'s test, the first unevaluated primitive operand)
    is free — it is part of finding the redex within one machine step —
    while each *contraction* is one micro-step, in exactly the machine's
    order.  Because β-reduction substitutes fresh ``App``/``Lam`` nodes,
    core instruction streams are not directly executable (node identity
    does not survive substitution); the compiled units drive accounting
    and the golden tests, and the executor dispatches on node
    classes like the machine — its win is eliminating the per-step root
    re-walk, which is quadratic in redex depth for the interpreted loop.

    Contractions that are certainly single-successor run inline (value
    allocation, ``Fix`` unfolding, β on a known lambda, ``Err`` peeling
    one context frame); δ-applications, conditionals and opaque
    application delegate to the machine's own rule methods on the
    current heap, and their results are plugged back through the zipper.
    """

    def _lower_program(self, root):
        return lower_core(root)

    def _lower_miss_unit(self, root):
        from .lower import lower_core_unit

        pending: list = []
        unit = lower_core_unit(root, None, pending, kind="lambda")
        for extra_root in pending:
            self._pins.append(extra_root)
        return unit

    def expand(self, st, limit):
        m = self.m
        heap = st.heap
        focus = st.control
        stack: list = []
        set_loc_counter(st.loc_base)
        cur = st
        chained = 0
        steps = 0

        def materialise():
            return State(_plug_core(stack, focus), heap,
                         current_loc_counter())

        try:
            while True:
                cls = focus.__class__
                # ---- answers -------------------------------------------
                if (cls is Loc or cls is Err) and not stack:
                    if cur is None:
                        cur = State(focus, heap, current_loc_counter())
                    return cur, None, chained
                at_cap = chained >= limit

                # ---- navigation (free) / inline contractions ----------
                if cls is Loc:
                    frame = stack[-1]
                    tag = frame[0]
                    if tag == "appfn":
                        arg = frame[1]
                        acls = arg.__class__
                        if acls is Loc:
                            results = None  # contraction: β / opaque app
                            fn_loc = focus
                            s = heap.get(fn_loc)
                            if s.__class__ is SLam:
                                steps += 1
                                if at_cap:
                                    if cur is None:
                                        cur = materialise()
                                    stack.pop()
                                    focus = subst(s.lam.body, s.lam.var, arg)
                                    succ = materialise()
                                    return cur, [succ], chained
                                stack.pop()
                                focus = subst(s.lam.body, s.lam.var, arg)
                                chained += 1
                                cur = None
                                continue
                            # SCase / SOpq: may branch or allocate in
                            # rule-specific ways — delegate below.
                            delegate = lambda: m._apply(fn_loc, arg, heap)
                        elif acls is Err:
                            # Error: App(l, Err) contracts to Err.
                            steps += 1
                            if at_cap:
                                if cur is None:
                                    cur = materialise()
                                stack.pop()
                                focus = arg
                                succ = materialise()
                                return cur, [succ], chained
                            stack.pop()
                            focus = arg
                            chained += 1
                            cur = None
                            continue
                        else:
                            stack.pop()
                            stack.append(("apparg", focus))
                            focus = arg
                            continue
                    elif tag == "apparg":
                        fn_loc = frame[1]
                        arg = focus
                        s = heap.get(fn_loc)
                        if s.__class__ is SLam:
                            steps += 1
                            if at_cap:
                                if cur is None:
                                    cur = materialise()
                                stack.pop()
                                focus = subst(s.lam.body, s.lam.var, arg)
                                succ = materialise()
                                return cur, [succ], chained
                            stack.pop()
                            focus = subst(s.lam.body, s.lam.var, arg)
                            chained += 1
                            cur = None
                            continue
                        delegate = lambda: m._apply(fn_loc, arg, heap)
                    elif tag == "if":
                        test = focus
                        delegate = lambda: m._apply_if(
                            test, frame[1], frame[2], heap)
                    else:  # ("prim", op, before, after, label)
                        op, before, after, label = (frame[1], frame[2],
                                                    frame[3], frame[4])
                        done = before + (focus,)
                        nxt_i = None
                        for j, a in enumerate(after):
                            if a.__class__ is not Loc:
                                nxt_i = j
                                break
                        if nxt_i is not None:
                            nxt = after[nxt_i]
                            if nxt.__class__ is Err:
                                # Error inside an operand: the whole
                                # PrimApp contracts to it.
                                steps += 1
                                if at_cap:
                                    if cur is None:
                                        cur = materialise()
                                    stack.pop()
                                    focus = nxt
                                    succ = materialise()
                                    return cur, [succ], chained
                                stack.pop()
                                focus = nxt
                                chained += 1
                                cur = None
                                continue
                            stack.pop()
                            stack.append(("prim", op,
                                          done + after[:nxt_i],
                                          after[nxt_i + 1:], label))
                            focus = nxt
                            continue
                        node = PrimApp(op, done + after, label)
                        delegate = lambda: m._apply_prim(node, heap)
                    # Contraction consumes the top frame; materialise the
                    # pre-step state before popping it.
                    steps += 1
                    if cur is None:
                        cur = materialise()
                    stack.pop()
                    results = delegate()
                    base = current_loc_counter()
                    if len(results) == 1 and not at_cap:
                        focus, heap = results[0]
                        chained += 1
                        cur = None
                        continue
                    succs = [State(_plug_core(stack, e2), h2, base)
                             for e2, h2 in results]
                    return cur, succs, chained

                if cls is Err:
                    # Error: peel exactly one context frame per step.
                    steps += 1
                    if at_cap:
                        if cur is None:
                            cur = materialise()
                        stack.pop()
                        succ = materialise()
                        return cur, [succ], chained
                    stack.pop()
                    chained += 1
                    cur = None
                    continue

                # ---- eval-position forms -------------------------------
                if cls is Num:
                    steps += 1
                    if at_cap and cur is None:
                        cur = materialise()
                    l, h = heap.alloc(SNum(focus.value))
                    if at_cap:
                        focus, heap = l, h
                        succ = materialise()
                        return cur, [succ], chained
                    focus, heap = l, h
                    chained += 1
                    cur = None
                    continue
                if cls is Lam:
                    steps += 1
                    if at_cap and cur is None:
                        cur = materialise()
                    l, h = heap.alloc(SLam(focus))
                    if at_cap:
                        focus, heap = l, h
                        succ = materialise()
                        return cur, [succ], chained
                    focus, heap = l, h
                    chained += 1
                    cur = None
                    continue
                if cls is Opq:
                    steps += 1
                    if at_cap and cur is None:
                        cur = materialise()
                    l = _opq_loc(focus.label)
                    h = heap if l in heap else heap.set(l, SOpq(focus.type))
                    if at_cap:
                        focus, heap = l, h
                        succ = materialise()
                        return cur, [succ], chained
                    focus, heap = l, h
                    chained += 1
                    cur = None
                    continue
                if cls is Fix:
                    steps += 1
                    if at_cap and cur is None:
                        cur = materialise()
                    unfolded = subst(focus.body, focus.var, focus)
                    if at_cap:
                        focus = unfolded
                        succ = materialise()
                        return cur, [succ], chained
                    focus = unfolded
                    chained += 1
                    cur = None
                    continue
                if cls is If:
                    t = focus.test
                    tcls = t.__class__
                    if tcls is Err:
                        steps += 1
                        if at_cap and cur is None:
                            cur = materialise()
                        if at_cap:
                            focus = t
                            succ = materialise()
                            return cur, [succ], chained
                        focus = t
                        chained += 1
                        cur = None
                        continue
                    stack.append(("if", focus.then, focus.orelse))
                    focus = t
                    continue
                if cls is App:
                    fn, arg = focus.fn, focus.arg
                    if fn.__class__ is not Loc:
                        if fn.__class__ is Err:
                            steps += 1
                            if at_cap and cur is None:
                                cur = materialise()
                            if at_cap:
                                focus = fn
                                succ = materialise()
                                return cur, [succ], chained
                            focus = fn
                            chained += 1
                            cur = None
                            continue
                        stack.append(("appfn", arg))
                        focus = fn
                        continue
                    if arg.__class__ is not Loc:
                        if arg.__class__ is Err:
                            steps += 1
                            if at_cap and cur is None:
                                cur = materialise()
                            if at_cap:
                                focus = arg
                                succ = materialise()
                                return cur, [succ], chained
                            focus = arg
                            chained += 1
                            cur = None
                            continue
                        stack.append(("apparg", fn))
                        focus = arg
                        continue
                    # Both operands finished: redex in place.
                    stack.append(("appfn", arg))
                    focus = fn
                    continue
                if cls is PrimApp:
                    args = focus.args
                    nxt_i = None
                    for j, a in enumerate(args):
                        if a.__class__ is not Loc:
                            nxt_i = j
                            break
                    if nxt_i is not None:
                        nxt = args[nxt_i]
                        if nxt.__class__ is Err:
                            steps += 1
                            if at_cap and cur is None:
                                cur = materialise()
                            if at_cap:
                                focus = nxt
                                succ = materialise()
                                return cur, [succ], chained
                            focus = nxt
                            chained += 1
                            cur = None
                            continue
                        stack.append(("prim", focus.op, args[:nxt_i],
                                      args[nxt_i + 1:], focus.label))
                        focus = nxt
                        continue
                    # All operands are locations: δ in place.
                    steps += 1
                    if cur is None:
                        cur = materialise()
                    node = focus
                    results = m._apply_prim(node, heap)
                    base = current_loc_counter()
                    if len(results) == 1 and not at_cap:
                        focus, heap = results[0]
                        chained += 1
                        cur = None
                        continue
                    succs = [State(_plug_core(stack, e2), h2, base)
                             for e2, h2 in results]
                    return cur, succs, chained

                # Ref / unknown node: let the machine raise its own
                # StuckError on the materialised state.
                if cur is None:
                    cur = materialise()
                succs = m.step(cur)
                steps += 1
                return cur, succs, chained
        finally:
            if steps and self.stats is not None and \
                    hasattr(self.stats, "dispatch_steps"):
                self.stats.dispatch_steps += steps
