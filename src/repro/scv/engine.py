"""Whole-program symbolic execution for the untyped language (§4–5).

``inject_program`` assembles a surface :class:`~repro.lang.ast.Program`
into one initial machine state:

* a *base frame* binds every primitive (as a ``UPrim`` heap cell — the
  same names ``conc.interp`` resolves), ``any/c``, ``empty``/``null``,
  and each struct's constructor/predicate/accessors — the part before
  the structs is built once per process and shared, never mutated
  (``build_base_heap``);
* each module becomes a ``letrec`` over its opaque imports (monitored
  by their contracts, blaming the ``•name`` party so violations by the
  unknown import are ignored per Err-Opq) and its definitions, with the
  contracted provides rebound to *monitored* aliases for everything
  downstream — the Findler–Felleisen boundary;
* the **demonic client**: when the program provides values, they are
  passed to a fresh unknown ``(•ctx prov ...)``.  The machine's own
  opaque-application rule then memoises and havocs them — the unknown
  context is not special-cased, it is literally an unknown function.
  The context location is pre-narrowed to ``procedure`` so the machine
  never blames our synthetic client for not being callable.

``explore_u``/``find_known_blames`` run the search of §5.3 over the
resulting nondeterministic transition system through
``repro.search.search``, the entry ``core.search`` uses too — one
kernel, one breadth-first order, one ``SearchStats`` record.  A blame
answer counts as an error; it is a finding (``known_errors``) unless it
blames the unknown context.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from ..core.syntax import Loc
from ..lang.ast import (
    Module,
    Program,
    Quote,
    UApp,
    UBegin,
    UExpr,
    ULam,
    ULetrec,
    UOpaque,
    UVar,
    free_vars,
    subexprs_u,
)
from ..lang.values import NIL, StructType
from ..prims import base_primitives
from .heap import UConc, UCtc, UHeap, UOpq, UPrim, UStoreable, UStructCtor
from .tags import TAG_PROCEDURE
from ..core.heap import NameCursor
from .machine import Blame, MEnv, SMachine, SState, UMon

if TYPE_CHECKING:
    from ..search import SearchStats


#: The blame party of the synthesised demonic client.  Starts with "•"
#: so that contract violations *by the client* are the unknown context's
#: business (ignored), per the approximation relation's Err-Opq rule.
CLIENT = "•client"

#: The opaque label of the demonic client context.
CLIENT_LABEL = "demonic-ctx"

_CONTRACT_PRIMS = frozenset({
    "->", "make->d", "and/c", "or/c", "not/c", "cons/c", "listof",
    "list/c", "one-of/c", "=/c", "</c", ">/c", "<=/c", ">=/c",
    "make-rec-contract", "struct/c", "any/c",
})


def uses_contracts(program: Program) -> bool:
    """Does the program leave the contract-free (SPCF-expressible)
    subset?  Modules always do — they introduce boundaries; top-level
    programs do when they mention a contract combinator."""
    if program.modules:
        return True
    if program.main is None:
        return False
    for e in subexprs_u(program.main):
        if isinstance(e, UVar) and e.name in _CONTRACT_PRIMS:
            return True
    return False


def collect_struct_types(program: Program) -> dict[str, StructType]:
    return {
        sd.name: StructType(sd.name, sd.fields)
        for m in program.modules
        for sd in m.structs
    }


class _SharedBase:
    """The primitive part of the global frame: its ``MEnv``, a heap whose
    frozen base holds its cells, the next location number after it, and
    the frame's names-only token (``global_names``).  Shared by every
    verification; never mutated."""

    __slots__ = ("env", "heap", "loc_end", "names")

    def __init__(self, env: MEnv, heap: UHeap, loc_end: int) -> None:
        self.env = env
        self.heap = heap
        self.loc_end = loc_end
        self.names = tuple(sorted((n, l.name) for n, l in env.frame.items()))


#: The one primitive base: δ over the primitives is fixed, and every
#: verification numbers its locations from 0, so a build's location
#: names depend on nothing else.  Built on first use.
_SHARED_BASE: Optional[_SharedBase] = None


def _shared_base() -> _SharedBase:
    """Every primitive, ``any/c`` and ``empty``/``null``, built once per
    process, with locations numbered from 0."""
    global _SHARED_BASE
    if _SHARED_BASE is not None:
        return _SHARED_BASE
    names = NameCursor()
    frame: dict[str, Loc] = {}
    cells: dict[Loc, UStoreable] = {}

    def bind(name: str, storeable: UStoreable) -> Loc:
        l = frame[name] = names.fresh_loc("g")
        cells[l] = storeable
        return l

    for name in base_primitives():
        bind(name, UPrim(name))
    bind("any/c", UCtc("any"))
    frame["null"] = bind("empty", UConc(NIL))
    _SHARED_BASE = _SharedBase(MEnv(frame), UHeap({}, cells), names.loc)
    return _SHARED_BASE


def global_names(env: MEnv) -> Optional[tuple[tuple[str, str], ...]]:
    """The sorted ``(name, location name)`` pairs of ``env`` when it is
    the shared primitive frame (``None`` otherwise) — fingerprinting's
    names-only token for that frame, built once with the frame."""
    shared = _SHARED_BASE
    return shared.names if shared is not None and shared.env is env else None


def build_base_heap(machine: SMachine) -> tuple[MEnv, UHeap, NameCursor]:
    """The global frame: primitives, contract constants, struct bindings,
    and the name cursor positioned after its locations.

    The primitive part is shared (``_shared_base``); a program's struct
    bindings are layered on in a fresh frame and the heap's overlay."""
    shared = _shared_base()
    names = NameCursor(shared.loc_end)
    if not machine.struct_types:
        return shared.env, shared.heap, names
    frame = dict(shared.env.frame)
    heap = shared.heap
    for st in machine.struct_types.values():
        frame[st.name], heap = heap.alloc(UStructCtor(st), names, prefix="g")
        for pname in (f"{st.name}?", *(f"{st.name}-{f}" for f in st.fields)):
            frame[pname], heap = heap.alloc(UPrim(pname), names, prefix="g")
    return MEnv(frame), heap, names


def _wrap_module(m: Module, body: UExpr, names: NameCursor) -> UExpr:
    """``letrec`` the module's opaques and definitions around ``body``,
    rebinding contracted provides to monitored aliases."""
    bindings: list[tuple[str, UExpr]] = []
    for oname, ctc in m.opaques:
        raw: UExpr = UOpaque(oname)
        if ctc is not None:
            raw = UMon(ctc, raw, pos=f"•{oname}", neg=m.name,
                       label=names.syn_label("mon"))
        bindings.append((oname, raw))
    bindings.extend(m.definitions)
    monitored = [p for p in m.provides if p.contract is not None]
    if monitored:
        body = UApp(
            ULam(tuple(p.name for p in monitored), body),
            tuple(
                UMon(p.contract, UVar(p.name), pos=m.name, neg=CLIENT,
                     label=p.name)
                for p in monitored
            ),
            label=names.syn_label("mon"),
        )
    if bindings:
        body = ULetrec(tuple(bindings), body)
    return body


def client_provides(
    program: Program, client_of: Optional[str] = None
) -> list[str]:
    """The provide names fed to the demonic client.

    ``None`` (the default) feeds every module's provides — the
    whole-program question.  A module name narrows the client to that
    module's provides, which is how the driver's module units
    (``repro.driver.units``) ask "what can a client of *this* module
    cause?" — the other modules in the unit's slice are still loaded and
    their monitored rebindings still apply.  The empty string drops the
    client entirely (the main-expression unit)."""
    if client_of is None:
        return [p.name for m in program.modules for p in m.provides]
    if client_of == "":
        return []
    for m in program.modules:
        if m.name == client_of:
            return [p.name for p in m.provides]
    raise KeyError(f"no module named {client_of!r} to build a client for")


def assemble(program: Program, client_of: Optional[str],
             names: NameCursor) -> UExpr:
    """The verification goal as a single expression: modules wrapped
    around the top-level (if any) and the demonic client (if anything is
    provided — narrowed by ``client_of``, see ``client_provides``).  Its
    synthetic labels come from ``names``."""
    provided = client_provides(program, client_of)
    parts: list[UExpr] = []
    if provided:
        parts.append(
            UApp(
                UOpaque(CLIENT_LABEL),
                tuple(UVar(n) for n in provided),
                label=names.syn_label("hv"),
            )
        )
    if program.main is not None:
        parts.append(program.main)
    if not parts:
        body: UExpr = Quote(False)
    elif len(parts) == 1:
        body = parts[0]
    else:
        body = UBegin(tuple(parts))
    for m in reversed(program.modules):
        body = _wrap_module(m, body, names)
    return body


def inject_program(
    program: Program,
    machine: SMachine,
    client_of: Optional[str] = None,
) -> SState:
    env, heap, names = build_base_heap(machine)
    if client_provides(program, client_of):
        # Pre-narrow the demonic client: our synthetic context is a
        # procedure by construction, never a blameworthy non-procedure.
        heap = heap.set(
            Loc(f"o:{CLIENT_LABEL}"), UOpq(frozenset({TAG_PROCEDURE}))
        )
    # Stamp the cursor so machine-minted labels/locations are a pure
    # function of the path from here (see SState.syn_base).
    control = assemble(program, client_of, names)
    return SState(control, env, heap.frozen(), (), 0, names.syn, names.loc)


class ScopeError(Exception):
    """The program references a variable that nothing binds."""


def check_scope(program: Program, base: Iterable[str]) -> None:
    """Raise :class:`ScopeError` naming an unbound variable (the least
    by name), in the scope ``assemble`` builds over the ``base`` frame
    of the injected state: each module
    sees its own opaques and definitions and every earlier module's, and
    the top-level expression sees them all.  The machine would blame
    ``top`` for such a reference, which no concrete run can reproduce —
    the core backend rejects the same programs in lowering."""
    scope = set(base)
    unbound: set[str] = set()
    for m in program.modules:
        scope.update(n for n, _ in (*m.opaques, *m.definitions))
        exprs = [e for _, e in (*m.opaques, *m.definitions) if e is not None]
        exprs += [p.contract for p in m.provides if p.contract is not None]
        exprs += [UVar(p.name) for p in m.provides]
        for e in exprs:
            unbound |= free_vars(e) - scope
    if program.main is not None:
        unbound |= free_vars(program.main) - scope
    if unbound:
        raise ScopeError(f"unbound variable {min(unbound)}")


# ---------------------------------------------------------------------------
# Search (§5.3: breadth-first over the execution graph)
# ---------------------------------------------------------------------------


def explore_u(
    init: SState,
    machine: SMachine,
    *,
    max_states: int = 50_000,
    stats: Optional[SearchStats] = None,
    memo: bool = True,
    compiled: bool = False,
) -> Iterator[SState]:
    """Search over machine states, yielding answer states (values and
    blame) in breadth-first order; ``memo=False`` disables fingerprint
    pruning (the exact pre-kernel behaviour).  ``compiled`` lowers the
    assembled program once (``repro.compile``) and expands states with
    the fused dispatch loop instead of the step-at-a-time machine —
    byte-identical results."""
    # Imported lazily: repro.search.fingerprint imports this package at
    # module level, so a module-level import here would be circular.
    from ..compile import ScvExecutor
    from ..search import ScvFingerprinter, SearchStats, search

    st = stats if stats is not None else SearchStats()
    for state in search(
        machine, init, init.control,
        fingerprinter=ScvFingerprinter, executor=ScvExecutor,
        memo=memo, compiled=compiled, max_states=max_states, stats=st,
    ):
        if isinstance(state.control, Blame):
            st.errors += 1
            if state.control.known:
                st.known_errors += 1
        yield state


def find_known_blames(
    init: SState,
    machine: SMachine,
    *,
    max_states: int = 50_000,
    stats: Optional[SearchStats] = None,
    memo: bool = True,
    compiled: bool = False,
) -> Iterator[SState]:
    """Answer states blaming *known* code — errors from the unknown
    context (synthetic labels, ``•`` parties) are not findings."""
    for state in explore_u(
        init, machine, max_states=max_states, stats=stats,
        memo=memo, compiled=compiled,
    ):
        c = state.control
        if isinstance(c, Blame) and c.known:
            yield state
