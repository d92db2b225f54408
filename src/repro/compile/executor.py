"""Fused executors: an opcode dispatch loop over the lowered scv
bytecode, and an environment machine for core.

Both executors implement the kernel's ``expander`` contract:

    expand(state, chain_limit) -> (final_state, successors, chained)

with **exactly** the semantics of ``SearchKernel._expand`` over the
step machine: run the deterministic single-successor chain (up to
``chain_limit`` adoptions) in a tight loop, and return the same
``(final_state, successors)`` pair — ``None`` successors for answers —
with every returned state stamped with the same post-step name-cursor
values the step machine would stamp.  A full machine state is only
materialised at the *observable* points: the states handed back to the
kernel (fingerprinted, pruned, admitted to the frontier) and, for scv,
the states handed to the step machine at choice points (core's choice
points take only the heap and location operands).  In between, the
machine registers live in Python locals.

The byte-identity argument, which the differential oracle
(``tests/test_differential.py``) and the corpus identity suite
(``tests/test_compile.py``) enforce:

* **Names.**  ``step`` seeds the machine's name cursor
  (``core.heap.NameCursor``) from the state's bases and stamps
  successors with where it stopped.  Inside a deterministic chain the
  seeding is a no-op — each state's bases equal where its predecessor's
  step left the cursor — so the fused loop seeds the cursor once on
  entry and reads it only when materialising.
* **Inline transitions** replicate the machine's single-successor rules
  field for field (same ``Blame`` strings, same frame construction,
  same allocation order).  Only transitions that are certainly
  single-successor are inlined.
* **Choice points delegate.**  Anything that may branch or synthesise
  code — δ on primitives, opaque application/havoc, contract monitor
  expansion, branching ``if`` — is delegated to the step machine itself
  (scv: its ``step`` on a materialised state; core: its rule methods),
  so prover interaction and synthesised-node minting go through
  literally the same code.

``dispatch_steps`` counts executed micro-steps (inline + delegated);
it is deterministic for a given search.
"""

from __future__ import annotations

import time

from ..core.heap import SLam, SNum, SOpq
from ..core.machine import State, _opq_loc
from ..core.syntax import (
    EMPTY_ENV,
    App,
    Err,
    Fix,
    If,
    Lam,
    Loc,
    Num,
    Opq,
    PrimApp,
    Ref,
    subst_env,
)
from ..lang.values import VOID
from ..prims import REGISTRY as _PRIM_REGISTRY
from ..scv.delta import OBlame, OLoc, OValue, delta_u
from ..scv.heap import UAlias, UClos, UConc, UOpq, UPrim
from ..scv.tags import TAG_BOOLEAN
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
    reachable units), and the per-run counters land in the stats object
    the search reports from."""

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
            self.stats.compiled_units = len(units)
            self.stats.compile_ms = round(self.compile_ms, 3)


# ---------------------------------------------------------------------------
# scv: instruction-driven CESK dispatch
# ---------------------------------------------------------------------------


class ScvExecutor(_ExecutorBase):
    def _lower_program(self, root):
        return lower_scv(root)

    def _compile_miss(self, node):
        """Compile a machine-synthesised expression (monitor expansion,
        havoc/guard wrappers) the first time the loop enters it, with
        the lambda bodies nested in it, so re-entry is a hit."""
        pending: list = []
        units = [lower_scv_unit(node, None, pending, kind="lambda")]
        while pending:
            units.append(lower_scv_unit(pending.pop(0), None, pending,
                                        kind="lambda"))
        code = self.code
        for unit in units:
            self._pins.append(unit.root)
            for n, ins in zip(unit.nodes, unit.instructions):
                code[id(n)] = ins
        return code[id(node)]

    def expand(self, st, limit):
        m = self.m
        code = self.code
        control, env, heap, kont = st.control, st.env, st.heap, st.kont
        ge = st.gen_effort
        names = m.names
        names.syn, names.loc = st.syn_base, st.loc_base
        cur = st  # materialised SState for the current point, when fresh
        chained = 0
        steps = 0
        try:
            while True:
                ccls = control.__class__
                if ccls is Blame or (ccls is Loc and not kont):
                    if cur is None:
                        cur = SState(control, env, heap, kont, ge,
                                     names.syn, names.loc)
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
                                                 names.syn, names.loc)
                                succ = SState(
                                    frame.pending[0], frame.env, heap,
                                    kont[:-1] + (KApp(
                                        frame.done + (control,),
                                        frame.pending[1:], frame.env,
                                        frame.label),),
                                    ge, names.syn,
                                    names.loc,
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
                                            names.syn,
                                            names.loc,
                                        )
                                    succ = SState(blame, env, heap, (), ge,
                                                  names.syn, names.loc)
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
                                                 names.syn, names.loc)
                                succ = SState(
                                    s.lam.body, s.env.extend(bindings), heap,
                                    kont[:-1], ge, names.syn,
                                    names.loc,
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
                            # cursor stamps now, materialise lazily.
                            syn0 = names.syn
                            loc0 = names.loc
                            outcomes = delta_u(m, heap, s.name, args,
                                               frame.label)
                            rest = kont[:-1]
                            if len(outcomes) == 1 and not at_cap:
                                o = outcomes[0]
                                ocls = o.__class__
                                if ocls is OValue:
                                    control, heap = o.heap.alloc(o.storeable, names)
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
                            base_syn = names.syn
                            base_loc = names.loc
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
                                                 names.syn, names.loc)
                                succ = SState(taken, frame.env, heap,
                                              kont[:-1], ge,
                                              names.syn, names.loc)
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
                                             names.syn, names.loc)
                            succ = SState(first, frame.env, heap, k, ge,
                                          names.syn, names.loc)
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
                                             names.syn, names.loc)
                            succ = SState(c2, frame.env, h, k, ge,
                                          names.syn, names.loc)
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
                                         names.syn, names.loc)
                        h = heap.set(frame.cell, UAlias(control))
                        lv, h = h.alloc(UConc(VOID), names)
                        if at_cap:
                            succ = SState(lv, env, h, kont[:-1], ge,
                                          names.syn, names.loc)
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
                                             names.syn, names.loc)
                            succ = SState(frame.value, frame.env, heap, k, ge,
                                          names.syn, names.loc)
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
                    # the capped instruction: allocating ops advance the
                    # name cursor, and the returned state must carry the
                    # cursor values from when it was produced.
                    if at_cap and cur is None:
                        cur = SState(control, env, heap, kont, ge,
                                     names.syn, names.loc)
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
                        c2, h2 = _alloc_datum(heap, ins[1], names)
                    elif op == OP_CLOSURE:
                        c2, h2 = heap.alloc(UClos(control, env), names)
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
                            l, h2 = h2.alloc(UConc(_UNDEFINED), names, prefix="cell")
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
                                          names.syn, names.loc)
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
                                 names.syn, names.loc)
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
            if steps and self.stats is not None:
                self.stats.dispatch_steps += steps


# ---------------------------------------------------------------------------
# core: an environment machine over a zipper
# ---------------------------------------------------------------------------


def _plug_core(stack, node, env):
    """Read the whole control expression back from the focus closure
    ``(node, env)`` and its context stack (innermost frame last).  The
    result is value-equal to the step machine's term, so materialised
    states fingerprint identically.  This is the executor's one
    whole-term rebuild, and it runs only for states handed back to the
    kernel."""
    e = subst_env(node, env)
    for frame in reversed(stack):
        tag = frame[0]
        if tag == "appfn":  # ("appfn", arg, env)
            e = App(e, subst_env(frame[1], frame[2]))
        elif tag == "apparg":  # ("apparg", fn_loc)
            e = App(frame[1], e)
        elif tag == "if":  # ("if", then, orelse, env)
            fenv = frame[3]
            e = If(e, subst_env(frame[1], fenv), subst_env(frame[2], fenv))
        else:  # ("prim", op, before_locs, after, label, env)
            fenv = frame[5]
            e = PrimApp(frame[1], frame[2] + (e,) + tuple(
                [subst_env(a, fenv) for a in frame[3]]), frame[4])
    return e


def _loc_prefix(args, env):
    """The leading operands of ``args`` that are locations under ``env``,
    up to the first that is not.  A ``Ref`` bound to a location counts,
    as the substituted term would show it."""
    out = []
    for a in args:
        if a.__class__ is Ref:
            a = env.get(a.name, a)
        if a.__class__ is not Loc:
            break
        out.append(a)
    return tuple(out)


class CoreExecutor(_ExecutorBase):
    """Fused reduction for the SPCF machine, as an environment machine.

    The step machine substitutes on β and ``Fix`` unfolding and re-walks
    the term from the root on every step to find the redex (``_reduce``'s
    contextual closure).  The executor does neither.  Its focus is a
    closure ``(node, env)``: a source node plus an environment mapping
    each variable to a location, or to the ``(Fix, env)`` closure an
    unfolding binds (see ``syntax.subst_env``).  β and unfolding extend
    the environment; zipper frames carry the environment of the
    sub-terms they hold; a lambda value is an ``SLam`` closure.  This is
    the frame discipline of the Three Instruction Machine (Peyton Jones
    & Lester, 1992, ch. 4).

    Redex *navigation* — pushing into an application's operator, an
    ``if``'s test, the first unevaluated primitive operand, and looking
    a variable up — is free: it is part of finding the redex within one
    machine step.  Each *contraction* is one micro-step, in exactly the
    machine's order, so ``dispatch_steps`` and ``chained`` match it.

    Contractions that are certainly single-successor run inline (value
    allocation, ``Fix`` unfolding, β on a lambda, ``Err`` peeling one
    context frame).  δ-applications, conditionals and applications of
    ``SCase``/``SOpq`` values delegate to the machine's own rule methods
    on the current heap, with location operands; a one-result step just
    continues.  Terms are read back only where a caller can observe
    them: the states handed back to the kernel (``_plug_core``) — the
    chain-end state, read lazily from the pre-step focus and cursor,
    and the successors — and a lambda value whose ``SLam.lam`` is asked
    for (fingerprints, counterexamples).

    The executor dispatches on node classes.  The core instruction
    streams (``lower_core``) back the unit counters and the golden
    tests only: the chain-end states the kernel hands back are read-back
    terms whose nodes the streams never saw.
    """

    def _lower_program(self, root):
        return lower_core(root)

    def expand(self, st, limit):
        m = self.m
        heap = st.heap
        node = st.control
        env = EMPTY_ENV
        stack: list = []
        names = m.names
        names.loc = st.loc_base
        cur = st  # the materialised current state, while there is one
        chained = 0
        steps = 0
        try:
            while True:
                cls = node.__class__
                if cls is Ref:
                    # A lookup is free: the substituted term would
                    # already hold the value.
                    v = env.get(node.name)
                    if v is None:
                        break  # free variable: the machine raises
                    if v.__class__ is Loc:
                        node = v
                    else:
                        node, env = v
                    continue
                if not stack and (cls is Loc or cls is Err):
                    if cur is None:
                        cur = State(node, heap, names.loc)
                    return cur, None, chained
                at_cap = chained >= limit
                if at_cap and cur is None:
                    # Navigation does not change the denoted state, so
                    # the chain-end state is read back before the capped
                    # step allocates.
                    cur = State(_plug_core(stack, node, env), heap, names.loc)
                results = None  # set by a delegated contraction

                if cls is Loc:
                    frame = stack[-1]
                    tag = frame[0]
                    if tag == "appfn":
                        arg = frame[1]
                        if arg.__class__ is Err:
                            # Error: App(l, Err) contracts to Err.
                            stack.pop()
                            node = arg
                        else:
                            stack[-1] = ("apparg", node)
                            node, env = arg, frame[2]
                            continue
                    elif tag == "apparg":
                        fn_loc = frame[1]
                        s = heap.get(fn_loc)
                        if s.__class__ is SLam:
                            # β: bind the parameter, do not substitute.
                            stack.pop()
                            lam = s.node
                            env = s.env.copy()
                            env[lam.var] = node
                            node = lam.body
                        else:
                            # SCase / SOpq: may branch or allocate in
                            # rule-specific ways.
                            loc0 = names.loc
                            results = m._apply(fn_loc, node, heap)
                            renv = EMPTY_ENV
                    elif tag == "if":
                        loc0 = names.loc
                        results = m._apply_if(node, frame[1], frame[2], heap)
                        renv = frame[3]
                    else:  # ("prim", op, before, after, label, env)
                        after, fenv = frame[3], frame[5]
                        done = frame[2] + (node,)
                        locs = _loc_prefix(after, fenv)
                        i = len(locs)
                        if i < len(after):
                            nxt = after[i]
                            if nxt.__class__ is Err:
                                # Error inside an operand: the whole
                                # PrimApp contracts to it.
                                stack.pop()
                                node = nxt
                            else:
                                stack[-1] = ("prim", frame[1], done + locs,
                                             after[i + 1:], frame[4], fenv)
                                node, env = nxt, fenv
                                continue
                        else:
                            loc0 = names.loc
                            results = m._apply_prim(
                                PrimApp(frame[1], done + locs, frame[4]),
                                heap)
                            renv = EMPTY_ENV
                # ---- eval-position forms (most frequent first) --------
                elif cls is PrimApp:
                    args = node.args
                    locs = _loc_prefix(args, env)
                    i = len(locs)
                    if i < len(args):
                        nxt = args[i]
                        if nxt.__class__ is Err:
                            node = nxt
                        else:
                            stack.append(("prim", node.op, locs,
                                          args[i + 1:], node.label, env))
                            node = nxt
                            continue
                    else:
                        # All operands are locations: δ in place.
                        loc0 = names.loc
                        results = m._apply_prim(
                            PrimApp(node.op, locs, node.label), heap)
                        renv = EMPTY_ENV
                elif cls is Num:
                    node, heap = heap.alloc(SNum(node.value), names)
                elif cls is App:
                    fn = node.fn
                    if fn.__class__ is Ref:
                        fn = env.get(fn.name, fn)
                    if fn.__class__ is Loc:
                        arg = node.arg
                        if arg.__class__ is Err:
                            node = arg
                        else:
                            stack.append(("apparg", fn))
                            node = arg
                            continue
                    elif fn.__class__ is Err:
                        node = fn
                    else:
                        stack.append(("appfn", node.arg, env))
                        node = node.fn
                        continue
                elif cls is Lam:
                    node, heap = heap.alloc(SLam(node, env), names)
                elif cls is If:
                    t = node.test
                    if t.__class__ is Err:
                        node = t
                    else:
                        stack.append(("if", node.then, node.orelse, env))
                        node = t
                        continue
                elif cls is Fix:
                    env2 = env.copy()
                    env2[node.var] = (node, env)
                    node, env = node.body, env2
                elif cls is Opq:
                    l = _opq_loc(node.label)
                    if l not in heap:
                        heap = heap.set(l, SOpq(node.type))
                    node = l
                elif cls is Err:
                    # Error: peel exactly one context frame per step.
                    stack.pop()
                else:
                    break  # no rule: the machine raises

                steps += 1
                if results is None:  # an inline contraction
                    if at_cap:
                        succ = State(_plug_core(stack, node, env), heap,
                                     names.loc)
                        return cur, [succ], chained
                    chained += 1
                    cur = None
                    continue
                pop = cls is Loc  # a delegated frame rule consumes its frame
                if len(results) == 1 and not at_cap:
                    if pop:
                        stack.pop()
                    node, heap = results[0]
                    env = renv
                    chained += 1
                    cur = None
                    continue
                if cur is None:
                    cur = State(_plug_core(stack, node, env), heap, loc0)
                if pop:
                    stack.pop()
                base = names.loc
                succs = [State(_plug_core(stack, e2, renv), h2, base)
                         for e2, h2 in results]
                return cur, succs, chained

            # Free variable / unknown node: let the machine raise its own
            # StuckError on the materialised state.
            if cur is None:
                cur = State(_plug_core(stack, node, env), heap, names.loc)
            succs = m.step(cur)
            steps += 1
            return cur, succs, chained
        finally:
            if steps and self.stats is not None:
                self.stats.dispatch_steps += steps
