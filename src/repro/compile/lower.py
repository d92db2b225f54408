"""Lowering core and scv terms to a flat bytecode.

Both machines interpret an AST by re-dispatching on node *types* at
every step — an ``isinstance`` ladder plus per-step attribute
extraction.  The lowering pass walks each **unit** (the program/module
root, plus every lambda body) once, in pre-order, and emits one compact
instruction per node: a plain tuple ``(opcode, operand, ...)`` whose
operands are pre-extracted — child nodes for control transfers,
canonical opaque locations, blame parties, labels.  The dispatch-loop
executors (``repro.compile.executor``) then switch on a small integer
and read positional operands instead of re-walking the AST, in the
push/enter/return style of the G-machine and TIM compilers this pass is
modelled on.

Instructions whose operands are all constants (variable references,
blame sites, location and datum literals) are interned in one
type-exact table (:class:`InstrInterner`), so the thousands of
structurally equal references a monitored module expands into share
one tuple.

The stream is *per unit* and pre-order, which makes it deterministic
for a given AST: the golden tests in ``tests/test_compile.py`` pin the
opcode sequences for the representative forms.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    Ref,
)
from ..lang.ast import (
    Quote,
    UApp,
    UBegin,
    UIf,
    ULam,
    ULetrec,
    UOpaque,
    USet,
    UVar,
)

# ---------------------------------------------------------------------------
# Opcodes (shared namespace; not every opcode occurs in both engines)
# ---------------------------------------------------------------------------

OP_CONST = 1  # allocate a concrete value (core Num)
OP_CLOSURE = 2  # allocate a closure (core Lam / scv ULam)
OP_OPAQUE = 3  # enter the canonical location of a labelled unknown
OP_FIX = 4  # unfold a fixpoint (core Fix)
OP_IF = 5  # push the branch continuation, evaluate the test
OP_APP = 6  # push the application frame, evaluate the operator
OP_PRIM = 7  # primitive application (core PrimApp)
OP_VAR = 8  # variable reference (scv UVar / core Ref)
OP_LOC = 9  # a heap location in expression position
OP_ERR = 10  # an error literal (core Err)
OP_QUOTE = 11  # allocate a quoted datum (scv Quote)
OP_BLAME = 12  # blame answer (scv UBlameE)
OP_BEGIN = 13  # sequencing (scv UBegin)
OP_LETREC = 14  # allocate recursion cells, evaluate bindings (scv ULetrec)
OP_SET = 15  # push the assignment frame (scv USet)
OP_MON = 16  # push the contract monitor (scv UMon)
OP_DELEGATE = 17  # no compact form: fall back to the step machine

OPCODE_NAMES = {
    OP_CONST: "const",
    OP_CLOSURE: "closure",
    OP_OPAQUE: "opaque",
    OP_FIX: "fix",
    OP_IF: "if",
    OP_APP: "app",
    OP_PRIM: "prim",
    OP_VAR: "var",
    OP_LOC: "loc",
    OP_ERR: "err",
    OP_QUOTE: "quote",
    OP_BLAME: "blame",
    OP_BEGIN: "begin",
    OP_LETREC: "letrec",
    OP_SET: "set",
    OP_MON: "mon",
    OP_DELEGATE: "delegate",
}


@dataclass(frozen=True)
class CompiledUnit:
    """One flat instruction array: a module/program root or one lambda
    body, with its nodes in the same pre-order as ``instructions``."""

    kind: str  # "module" | "lambda"
    root: object
    instructions: tuple
    nodes: tuple

    def opcode_names(self) -> tuple[str, ...]:
        """The human-readable opcode sequence (golden-test surface)."""
        return tuple(OPCODE_NAMES[ins[0]] for ins in self.instructions)


def _typed_key(x):
    """A type-tagged shadow of an instruction tuple.  Python's ``==``
    conflates ``False == 0 == 0.0`` (and ``1 == 1.0``), so interning
    keyed on the raw tuple would collapse ``(quote #f)`` with
    ``(quote 0)`` into one instruction — tag every scalar with its
    concrete class to keep distinct constants distinct."""
    cls = x.__class__
    if cls is tuple:
        return tuple(_typed_key(v) for v in x)
    return (cls, x)


class InstrInterner:
    """Type-exact hash-consing for instruction tuples: one table from
    the type-tagged key to the first instruction seen with it."""

    __slots__ = ("_by_key",)

    def __init__(self) -> None:
        self._by_key: dict = {}

    def intern(self, ins: tuple) -> tuple:
        return self._by_key.setdefault(_typed_key(ins), ins)


def _intern_instr(interner, ins: tuple) -> tuple:
    """Canonicalise a constant-only instruction; node-carrying or
    unhashable instructions pass through untouched."""
    if interner is None:
        return ins
    try:
        return interner.intern(ins)
    except TypeError:
        return ins


# ---------------------------------------------------------------------------
# scv lowering
# ---------------------------------------------------------------------------


def _scv_instr(e, interner):
    """The instruction for one scv node; imports of the machine-internal
    nodes are local to keep this module import-light."""
    from ..scv.machine import UBlameE, ULocE, UMon

    cls = e.__class__
    if cls is Quote:
        return _intern_instr(interner, (OP_QUOTE, e.datum)), ()
    if cls is ULocE:
        return _intern_instr(interner, (OP_LOC, e.loc)), ()
    if cls is UBlameE:
        # Operands in Blame-constructor order: (party, label, description).
        return (
            _intern_instr(interner, (OP_BLAME, e.party, e.label, e.description)),
            (),
        )
    if cls is UVar:
        return _intern_instr(interner, (OP_VAR, e.name)), ()
    if cls is ULam:
        return (OP_CLOSURE,), ()  # body is its own unit
    if cls is UOpaque:
        return _intern_instr(interner, (OP_OPAQUE, Loc(f"o:{e.label}"))), ()
    if cls is UIf:
        return (OP_IF, e.test, e.then, e.orelse), (e.test, e.then, e.orelse)
    if cls is UBegin:
        first, rest = e.exprs[0], e.exprs[1:]
        return (OP_BEGIN, first, rest), e.exprs
    if cls is ULetrec:
        children = tuple(b[1] for b in e.bindings) + (e.body,)
        return (OP_LETREC, e.bindings, e.body), children
    if cls is USet:
        return (OP_SET, e.name, e.value), (e.value,)
    if cls is UApp:
        return (OP_APP, e.fn, e.args, e.label), (e.fn,) + e.args
    if cls is UMon:
        return (
            (OP_MON, e.contract, e.value, e.pos, e.neg, e.label),
            (e.contract, e.value),
        )
    return (OP_DELEGATE,), ()


def lower_scv_unit(root, interner=None, pending=None,
                   kind: str = "module") -> CompiledUnit:
    """Lower one scv unit.  Lambda bodies are not descended into; their
    roots are appended to ``pending`` (the unit work-list)."""
    instructions = []
    order = []
    stack = [root]
    while stack:
        e = stack.pop()
        order.append(e)
        ins, children = _scv_instr(e, interner)
        instructions.append(ins)
        if e.__class__ is ULam and pending is not None:
            pending.append(e.body)
        stack.extend(reversed(children))
    return CompiledUnit(kind, root, tuple(instructions), tuple(order))


def lower_scv(root, interner=None) -> list[CompiledUnit]:
    """All units reachable from an assembled scv program: the root unit
    first, then every lambda body in discovery order."""
    interner = interner if interner is not None else InstrInterner()
    pending: list = [root]
    units: list[CompiledUnit] = []
    while pending:
        unit_root = pending.pop(0)
        kind = "module" if not units else "lambda"
        units.append(lower_scv_unit(unit_root, interner, pending, kind))
    return units


# ---------------------------------------------------------------------------
# core lowering
# ---------------------------------------------------------------------------


def _core_instr(e, interner):
    cls = e.__class__
    if cls is Num:
        return _intern_instr(interner, (OP_CONST, e.value)), ()
    if cls is Lam:
        return (OP_CLOSURE,), ()  # body is its own unit
    if cls is Opq:
        return _intern_instr(interner, (OP_OPAQUE, Loc(f"o:{e.label}"))), ()
    if cls is Fix:
        return (OP_FIX,), (e.body,)
    if cls is If:
        return (OP_IF, e.test, e.then, e.orelse), (e.test, e.then, e.orelse)
    if cls is App:
        return (OP_APP, e.fn, e.arg), (e.fn, e.arg)
    if cls is PrimApp:
        return (OP_PRIM, e.op, e.args, e.label), e.args
    if cls is Ref:
        return _intern_instr(interner, (OP_VAR, e.name)), ()
    if cls is Loc:
        return _intern_instr(interner, (OP_LOC, e)), ()
    if cls is Err:
        return _intern_instr(interner, (OP_ERR, e.label, e.op)), ()
    return (OP_DELEGATE,), ()


def lower_core_unit(root, interner=None, pending=None,
                    kind: str = "module") -> CompiledUnit:
    instructions = []
    order = []
    stack = [root]
    while stack:
        e = stack.pop()
        order.append(e)
        ins, children = _core_instr(e, interner)
        instructions.append(ins)
        if e.__class__ is Lam and pending is not None:
            pending.append(e.body)
        stack.extend(reversed(children))
    return CompiledUnit(kind, root, tuple(instructions), tuple(order))


def lower_core(root, interner=None) -> list[CompiledUnit]:
    interner = interner if interner is not None else InstrInterner()
    pending: list = [root]
    units: list[CompiledUnit] = []
    while pending:
        unit_root = pending.pop(0)
        kind = "module" if not units else "lambda"
        units.append(lower_core_unit(unit_root, interner, pending, kind))
    return units
