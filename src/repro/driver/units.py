"""Verification units: how one program is split, and how the parts combine.

Every run of :func:`repro.driver.runner.verify_source` plans its
program into units, runs each on the engine and folds the unit rows
into the program's row.  A multi-module scv program without mutable
state becomes one unit per module — its dependency slice, with the
demonic client narrowed to that module's provides — plus one for the
top-level expression; any other program is one unit.  The verdict
store (:mod:`repro.store`) only caches units, so a store-less, cold or
warm run gives one row.

Planning is the only parse of a verification: each unit carries its
program (or the exception its parse raised), and the engine runs that.
A slice unit's program is the parse of its printed source, so a unit's
program is always ``parse_program(unit.source)``, labels included —
which is what lets ``repro store verify`` re-run a stored slice from
its text alone.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from ..lang.ast import Module, Program, UExpr, USet, UVar, free_vars, subexprs_u
from ..lang.parser import parse_program
from ..lang.pretty import pp_program
from .report import (
    STATUS_COUNTEREXAMPLE,
    STATUS_ERROR,
    STATUS_NO_MODEL,
    STATUS_TIMEOUT,
    STATUS_TRUNCATED,
    STATUS_UNSUPPORTED,
    ProgramResult,
)

#: Unit client markers (the ``client`` component of a store key).
CLIENT_ALL = "all"  # whole program, demonic client over every provide
CLIENT_MAIN = "main"  # top-level expression only, no demonic client
CLIENT_MODULE = "mod:"  # + module name: client over that module's provides


# ---------------------------------------------------------------------------
# Module slices
# ---------------------------------------------------------------------------


def _module_exports(m: Module) -> set[str]:
    """Names module ``m`` makes visible downstream: its provides (the
    monitored rebindings of ``scv.engine._wrap_module``), its definitions
    and opaque imports (plain ``letrec`` scope reaches later modules
    too), and its struct bindings (bound in the global base heap)."""
    names = {p.name for p in m.provides}
    names |= {n for n, _ in m.definitions}
    names |= {n for n, _ in m.opaques}
    for sd in m.structs:
        names.add(sd.name)
        names.add(f"{sd.name}?")
        names |= {f"{sd.name}-{f}" for f in sd.fields}
    return names


def _module_exprs(m: Module) -> list[UExpr]:
    """Everything module ``m`` evaluates: opaque and provide contracts
    and definitions."""
    return [
        *(ctc for _, ctc in m.opaques if ctc is not None),
        *(e for _, e in m.definitions),
        *(p.contract for p in m.provides if p.contract is not None),
    ]


def _module_refs(m: Module) -> set[str]:
    """Free variables of everything module ``m`` evaluates."""
    out: set[str] = set()
    for e in _module_exprs(m):
        out |= free_vars(e)
    return out - _module_exports(m)


#: Primitives that mutate a heap cell.
_MUTATORS = frozenset({"vector-set!", "set-box!"})


def _has_state(program: Program) -> bool:
    """Whether the program can mutate state: it contains a ``set!`` or
    names a mutating primitive.  Any reference counts, bound or not
    (over-approximating is safe: such a program is one unit)."""
    exprs = [e for m in program.modules for e in _module_exprs(m)]
    if program.main is not None:
        exprs.append(program.main)
    return any(
        isinstance(x, USet) or (isinstance(x, UVar) and x.name in _MUTATORS)
        for e in exprs for x in subexprs_u(e)
    )


def _module_dependencies(program: Program) -> list[set[int]]:
    """For each module index, the indices of *earlier* modules it
    (transitively) references.  Later modules are out of scope by the
    ``letrec`` nesting of ``scv.engine.assemble``, so only backward
    edges exist, and each module's set closes over earlier, already
    closed sets."""
    exports = [_module_exports(m) for m in program.modules]
    closed: list[set[int]] = []
    for i, m in enumerate(program.modules):
        refs = _module_refs(m)
        direct = {j for j in range(i) if refs & exports[j]}
        closed.append(direct.union(*(closed[j] for j in direct)))
    return closed


#: What the engine verifies: a parsed program, or the exception its
#: parse raised.
Parsed = Union[Program, Exception]


def parse_unit(source: str) -> Parsed:
    """``parse_program(source)``, or the exception it raised: the engine
    reports that as the unit's row (``unsupported`` for a
    ``ParseError``/``ReadError``, ``error`` for anything else)."""
    try:
        return parse_program(source)
    except Exception as exc:
        return exc


class Unit(NamedTuple):
    """One verification unit of a program."""

    marker: str  # CLIENT_ALL | CLIENT_MAIN | CLIENT_MODULE + name
    client_of: Optional[str]  # the engine's client narrowing
    source: str  # the unit's text (what the store records)
    program: Parsed  # ``parse_unit(source)``

    def row_name(self, name: str) -> str:
        return name if self.marker == CLIENT_ALL else f"{name}::{self.marker}"


def module_slices(program: Program) -> Optional[list[Unit]]:
    """Decompose a program into independently verifiable units, or
    ``None`` when it is a single unit: ≤1 module and no separable main,
    or a program with mutable state (``_has_state``).

    Each unit's source holds exactly the modules the unit's code can
    reach, and its ``client_of`` is the engine's client narrowing: a
    module name (demonic client over that module's provides only), or
    ``""`` for the main unit (no demonic client).  Without mutable
    state the units' findings cover the whole program's: every module
    is loaded and havocked in its own unit, a client's calls cannot
    change what a later call or the main expression computes, and
    inter-module misuse is already blamed on the (ignored) client party
    by the monitored rebinding in ``scv.engine._wrap_module``.  With
    state they need not: a setter the client calls, or a later module
    that mutates an earlier one's variable while loading, can break
    code in another unit, so such a program is verified whole."""
    mods = program.modules
    n_units = len(mods) + (1 if program.main is not None else 0)
    if n_units <= 1 or _has_state(program):
        return None
    deps = _module_dependencies(program)

    def unit(marker: str, client_of: str, cut: Program) -> Unit:
        # The slice is printed and parsed again, so its labels number
        # from 0 like any parse of its text (the store re-runs slices
        # from their text).
        source = pp_program(cut)
        return Unit(marker, client_of, source, parse_unit(source))

    units = []
    for i, m in enumerate(mods):
        keep = sorted(deps[i] | {i})
        units.append(unit(CLIENT_MODULE + m.name, m.name,
                          Program(tuple(mods[j] for j in keep), None)))
    if program.main is not None:
        refs = free_vars(program.main)
        direct = {j for j, m in enumerate(mods) if refs & _module_exports(m)}
        keep = sorted(direct.union(*(deps[j] for j in direct)))
        units.append(unit(CLIENT_MAIN, "", Program(
            tuple(mods[j] for j in keep), program.main)))
    return units


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def plan_units(source: str, backend: str) -> list[Unit]:
    """The verification units of a program, each carrying its parse.
    Only scv splits, and only by module; any other program, or one that
    does not parse, is a single unit."""
    program = parse_unit(source)
    slices = (module_slices(program)
              if backend == "scv" and isinstance(program, Program) else None)
    return slices or [Unit(CLIENT_ALL, None, source, program)]


# ---------------------------------------------------------------------------
# Combining
# ---------------------------------------------------------------------------

#: Deterministic status precedence for combining unit rows: a
#: counterexample decides, then a driver error, then the inconclusive
#: statuses, then safe.  Within a status the first unit wins.
_COMBINE_ORDER = (
    STATUS_COUNTEREXAMPLE,
    STATUS_ERROR,
    STATUS_UNSUPPORTED,
    STATUS_TIMEOUT,
    STATUS_TRUNCATED,
    STATUS_NO_MODEL,
)

_SUMMED_FIELDS = (
    "states_explored", "proof_queries", "solver_queries", "pruned_states",
    "solver_cache_hits", "chained_steps", "solver_fresh_solves",
    "solver_unknown", "errors_found",
    "cex_attempts", "compiled_units", "compile_ms", "dispatch_steps",
)


def combine_units(
    name: str, kind: str, backend: str,
    units: list[Unit], rows: list[ProgramResult],
    *, wall_ms: float, store_hits: int = 0, store_misses: int = 0,
) -> ProgramResult:
    """Fold unit rows into one per-program row, deterministically: the
    unit whose status comes first in ``_COMBINE_ORDER`` decides the
    verdict, the counterexample and the detail; work counters are
    summed.  The wall time and the store
    counters are the caller's: a replayed unit's stored ``wall_ms`` is
    the cold run's."""
    pairs = list(zip(units, rows))
    unit, row = next(
        (p for status in _COMBINE_ORDER for p in pairs
         if p[1].status == status),
        pairs[0],  # every unit is safe: the first decides
    )
    detail = row.detail
    if detail and unit.marker != CLIENT_ALL:
        detail = f"[{unit.marker}] {detail}"
    return ProgramResult(
        name=name,
        kind=kind,
        status=row.status,
        wall_ms=wall_ms,
        backend=backend,
        deadline_enforced=all(r.deadline_enforced for r in rows),
        store_hits=store_hits,
        store_misses=store_misses,
        modules_reverified=store_misses,
        counterexample=row.counterexample,
        detail=detail,
        **{f: sum(getattr(r, f) for r in rows) for f in _SUMMED_FIELDS},
    )
