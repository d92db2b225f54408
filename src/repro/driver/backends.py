"""Backend dispatch: one verification question, two symbolic engines.

A :class:`Backend` turns a parsed surface program (one unit of
:mod:`repro.driver.units`' plan) into a
:class:`~repro.driver.report.ProgramResult`.  Two are registered:

* ``core`` — the typed §3 pipeline: ``driver.lower`` type-infers the
  contract-free subset into SPCF, ``core.search`` explores it, and
  counterexamples are double-validated (``core.concrete`` Theorem-1
  re-run + independent ``conc.interp`` surface re-run);
* ``scv`` — the untyped §4 pipeline: ``scv.engine`` assembles the
  program (modules, contracts, demonic client) for the untyped machine,
  ``scv.delta``/``scv.proof`` drive its branching, and
  ``scv.counterexample`` models blame states.  Module findings are
  re-run through the demonic client ``repro.synth`` reconstructs from
  the blame heap, so they validate concretely like everything else.

Counterexample rows from either backend carry the closed, runnable
surface program (``CexReport.client``) that reproduces the blame —
printed by ``repro verify --emit-cex-client``.

Both backends run one verify loop (:class:`_Pipeline`) and differ only
in its three hooks — front end, counterexample construction and report
rendering — so they enforce the same wall-clock deadline and status
cascade and report the same result schema, which is what makes
``--backend both`` cross-checking (``report.BenchReport.agreement``)
meaningful.  On the contract-free
shared corpus the scv machine runs under ``assume_well_typed`` so both
engines answer the identical question (see ``scv.machine``).
"""

from __future__ import annotations

import itertools
import signal
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Protocol

from ..conc.interp import Interp, InterpTimeout, PrimBlame, RuntimeFault
from ..core import (
    Machine,
    ProofSystem,
    TypeError_,
    check_program,
    construct,
    find_errors,
)
from ..core.counterexample import canonical_op
from ..core.counterexample import render_bindings as render_core_bindings
from ..lang.ast import Program
from ..lang.parser import ParseError
from ..lang.sexp import ReadError
from ..smt import SOLVE_STATS, solver_cache
from ..scv import (
    ScopeError,
    SMachine,
    UProofSystem,
    check_scope,
    collect_struct_types,
    construct_u,
    find_known_blames,
    inject_program,
    uses_contracts,
)
from ..scv.counterexample import canonical_blame_op
from ..scv.counterexample import render_bindings as render_scv_bindings
from ..search import SearchStats
from ..synth import closed_program_text
from .lower import LowerError, lower_program, raise_expr
from .report import (
    STATUS_COUNTEREXAMPLE,
    STATUS_ERROR,
    STATUS_NO_MODEL,
    STATUS_SAFE,
    STATUS_TIMEOUT,
    STATUS_TRUNCATED,
    STATUS_UNSUPPORTED,
    CexReport,
    ProgramResult,
)
from .units import Parsed


@dataclass(frozen=True)
class RunConfig:
    """Budgets and knobs shared by every program in a batch."""

    max_states: int = 50_000  # symbolic search budget
    fuel: int = 200_000  # concrete validation step budget
    timeout_s: float = 30.0  # per-program wall clock
    max_cex_attempts: int = 20  # error states to try to model before giving up
    jobs: int = 1  # worker processes
    memo: bool = True  # fingerprint memoisation + chain compression
    store_dir: Optional[str] = None  # persistent store root (None: no store)
    # Bytecode compilation (repro.compile).  ``compile`` swaps the
    # step-at-a-time machines for the fused dispatch-loop executors —
    # byte-identical results (the differential oracle pins this), so it
    # is *not* part of the semantic config digest and compiled/
    # interpreted runs share store entries.
    compile: bool = True


#: The largest wall-clock budget in seconds (about 31 years) that the
#: CLI flags and a ``repro serve`` request accept: ``setitimer``
#: overflows a little past 9.2e9 seconds, which would turn every row
#: into an ``error``.
MAX_SECONDS = 1e9


class _Deadline(Exception):
    """Raised inside a worker when the per-program wall clock expires."""


class DeadlineStatus:
    """Whether a configured wall-clock budget was actually armed.

    ``enforced`` stays True when no budget was requested (nothing to
    enforce) and flips to False only when a *positive* budget could not
    be installed — no ``SIGALRM`` on this platform, or the caller is not
    the main thread.  The row's ``deadline_enforced`` field reports it,
    so an unenforced budget is visible instead of silently dropped."""

    __slots__ = ("enforced",)

    def __init__(self) -> None:
        self.enforced = True


#: One warning per process: every row still carries the flag, but the
#: stderr noise is emitted only for the first unenforceable deadline.
_deadline_warned = False


def _warn_deadline_unenforced(reason: str) -> None:
    global _deadline_warned
    if _deadline_warned:
        return
    _deadline_warned = True
    warnings.warn(
        f"wall-clock deadline not enforced ({reason}); verification "
        "runs unbounded and result rows carry deadline_enforced=false",
        RuntimeWarning,
        stacklevel=3,
    )


@contextmanager
def _deadline(seconds: float, status: Optional[DeadlineStatus] = None):
    """Arm a wall-clock alarm around a block (POSIX main thread only).

    Where the alarm cannot be installed the block runs unbounded, but
    never silently: ``status.enforced`` is cleared and a one-time
    warning names the reason, so a threaded caller (e.g. an HTTP
    handler thread) cannot mistake an unbounded run for a budgeted
    one."""
    status = status if status is not None else DeadlineStatus()
    if seconds <= 0:  # explicitly unbounded: nothing to enforce
        yield status
        return
    if not hasattr(signal, "SIGALRM"):
        status.enforced = False
        _warn_deadline_unenforced("SIGALRM unavailable on this platform")
        yield status
        return

    def _on_alarm(signum, frame):
        raise _Deadline()

    try:
        old = signal.signal(signal.SIGALRM, _on_alarm)
    except ValueError:  # not in the main thread
        status.enforced = False
        _warn_deadline_unenforced(
            "SIGALRM can only be installed from the main thread"
        )
        yield status
        return
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield status
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class Backend(Protocol):
    """A verification engine, selectable via ``--backend``."""

    name: str

    def verify(
        self,
        program: Parsed,
        *,
        name: str = "<input>",
        kind: str = "?",
        config: Optional[RunConfig] = None,
        client_of: Optional[str] = None,
    ) -> ProgramResult:
        """Verify one unit's parse.  ``client_of`` narrows scv's
        demonic client to one module's provides (``""``: no client), for
        one module unit of the driver's plan
        (:mod:`repro.driver.units`).  Every name the engines mint
        (labels, locations) is a function of ``program``, so the row
        does not depend on what else ran in the process."""
        ...


#: Front-end failures that make a program unsupported rather than a
#: driver error.
_UNSUPPORTED = (ParseError, ReadError, LowerError, TypeError_, ScopeError)


@dataclass
class _Run:
    """What a backend's front end hands the shared verify loop."""

    program: Program  # the parsed surface program
    code: object  # what the engine runs: the SPCF term (core) / ``program`` (scv)
    proof: object  # the proof system, whose query counters the row reports
    errors: Iterator  # error states in search order (lazy: runs under the deadline)
    client_of: Optional[str] = None  # scv's client narrowing for this unit


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class _Pipeline:
    """The verify loop both backends share.

    A backend supplies three hooks and nothing else: ``_front_end``
    (a parsed program to a :class:`_Run`, raising one of ``_UNSUPPORTED``
    for programs outside its fragment), ``_counterexample`` (one error
    state to an accepted counterexample, or ``None``) and ``_report``
    (an accepted counterexample to its :class:`CexReport`).  The loop
    owns everything else: the wall-clock deadline, the bounded
    counterexample attempts, the exception-to-status mapping and the
    status cascade (counterexample → no-model → truncated → safe)."""

    name: str
    error_noun: str  # what the no-model detail calls an error state

    def verify(
        self,
        program: Parsed,
        *,
        name: str = "<input>",
        kind: str = "?",
        config: Optional[RunConfig] = None,
        client_of: Optional[str] = None,
    ) -> ProgramResult:
        cfg = config or RunConfig()
        stats = SearchStats()
        dl = DeadlineStatus()
        run: Optional[_Run] = None
        errors_found = attempts = 0
        # Snapshot the process-wide solver counters, so the row carries
        # what *this* verification scored (verifications never
        # interleave within a worker process).
        cache_snap = solver_cache.snapshot()
        solve_snap = SOLVE_STATS.begin_window()
        t0 = time.perf_counter()

        def done(status: str, **kw) -> ProgramResult:
            # Reads every counter at call time, so rows cut short by the
            # SIGALRM deadline still report the partial work observed.
            queries, solver_queries = (
                (run.proof.queries, run.proof.solver_queries)
                if run is not None else (0, 0)
            )
            return ProgramResult(
                name=name,
                kind=kind,
                status=status,
                wall_ms=(time.perf_counter() - t0) * 1000,
                backend=self.name,
                states_explored=stats.states_explored,
                proof_queries=queries,
                solver_queries=solver_queries,
                pruned_states=stats.pruned,
                solver_cache_hits=solver_cache.hits_since(cache_snap),
                chained_steps=stats.chained,
                errors_found=errors_found,
                cex_attempts=attempts,
                deadline_enforced=dl.enforced,
                compiled_units=stats.compiled_units,
                compile_ms=stats.compile_ms,
                dispatch_steps=stats.dispatch_steps,
                **SOLVE_STATS.window(solve_snap),
                **kw,
            )

        try:
            if isinstance(program, Exception):
                raise program  # the parse failed: report it as the row
            run = self._front_end(program, cfg, stats, client_of)
        except _UNSUPPORTED as exc:
            return done(STATUS_UNSUPPORTED, detail=_describe(exc))
        except Exception as exc:  # driver bug
            return done(STATUS_ERROR, detail=_describe(exc))

        found = None  # the first accepted counterexample, if any
        try:
            with _deadline(cfg.timeout_s, dl):
                for state in run.errors:
                    errors_found += 1
                    if attempts >= cfg.max_cex_attempts:
                        break  # enough unmodelable errors: give up
                    attempts += 1
                    found = self._counterexample(run, state, cfg)
                    if found is not None:
                        break
        except _Deadline:
            # The alarm can fire in the window between `found = ...` and
            # the deadline context cancelling the timer; an accepted
            # counterexample in hand still gets its report assembled.
            if found is None:
                return done(
                    STATUS_TIMEOUT,
                    detail=f"wall clock exceeded {cfg.timeout_s:g}s",
                )
        except Exception as exc:  # driver bug or engine stuck-state
            return done(STATUS_ERROR, detail=_describe(exc))

        if found is not None:
            # The deadline context has exited — the alarm is cancelled
            # and the previous SIGALRM handler restored — so report
            # assembly (surface re-validation, client synthesis,
            # serialization) cannot be killed by a stale alarm.
            try:
                return done(
                    STATUS_COUNTEREXAMPLE,
                    counterexample=self._report(run, found, cfg),
                )
            except Exception as exc:  # assembly bug: still a driver error
                return done(STATUS_ERROR, detail=_describe(exc))
        if errors_found:
            return done(
                STATUS_NO_MODEL,
                detail=f"{self.error_noun} states found but none had a "
                "validated model",
            )
        if stats.truncated:
            return done(
                STATUS_TRUNCATED,
                detail=f"state budget {cfg.max_states} exhausted without an answer",
            )
        return done(STATUS_SAFE)


class TypedCoreBackend(_Pipeline):
    """The typed §3 SPCF pipeline (the seed driver's only path)."""

    name = "core"
    error_noun = "error"
    # Bound in the class itself: perfbench's tracer patches
    # ``vars(cls)["verify"]`` on each backend.
    verify = _Pipeline.verify

    def _front_end(self, program: Program, cfg: RunConfig,
                   stats: SearchStats, client_of: Optional[str]) -> _Run:
        core = lower_program(program)
        check_program(core)
        proof = ProofSystem()
        errors = find_errors(
            core, machine=Machine(proof), max_states=cfg.max_states,
            stats=stats, memo=cfg.memo, compiled=cfg.compile,
        )
        return _Run(program, core, proof, (r.state for r in errors))

    def _counterexample(self, run: _Run, state, cfg: RunConfig):
        cex = construct(run.code, state, validate=True, fuel=cfg.fuel)
        return cex if cex is not None and cex.validated else None

    def _report(self, run: _Run, cex, cfg: RunConfig) -> CexReport:
        # Raised values' labels continue the parse's, so they never
        # collide with a source label.
        labels = itertools.count(run.program.label_end)
        surface_bindings = {
            label: raise_expr(v, labels) for label, v in cex.bindings.items()
        }
        conc_ok = _surface_revalidate(
            run.program, surface_bindings, cex.err.label, cfg.fuel
        )
        return CexReport(
            bindings=render_core_bindings(cex),
            err_label=cex.err.label,
            err_op=canonical_op(cex.err.op),
            validated_core=bool(cex.validated),
            validated_conc=conc_ok,
            err_detail=cex.err.op,
            client=closed_program_text(run.program, surface_bindings),
        )


def _surface_revalidate(
    program: Program, opaque_exprs: dict, err_label: str, fuel: int
) -> bool:
    """Independent oracle for the core backend: instantiate the
    *surface* program with the counterexample and confirm the surface
    interpreter blames the same source label."""
    interp = Interp(fuel=fuel)
    try:
        interp.run_program(program, opaque_exprs=opaque_exprs)
    except PrimBlame as blame:
        return blame.label == err_label
    except (RuntimeFault, InterpTimeout):
        return False
    return False


class UntypedScvBackend(_Pipeline):
    """The untyped §4 pipeline — contracts, modules, blame and all."""

    name = "scv"
    error_noun = "blame"
    verify = _Pipeline.verify  # see TypedCoreBackend.verify

    def _front_end(self, program: Program, cfg: RunConfig,
                   stats: SearchStats, client_of: Optional[str]) -> _Run:
        machine = SMachine(
            struct_types=collect_struct_types(program),
            assume_well_typed=not uses_contracts(program),
            proof=UProofSystem(),
        )
        init = inject_program(program, machine, client_of=client_of)
        check_scope(program, init.env.frame)
        errors = find_known_blames(
            init, machine, max_states=cfg.max_states, stats=stats,
            memo=cfg.memo, compiled=cfg.compile,
        )
        return _Run(program, program, machine.proof, errors, client_of)

    def _counterexample(self, run: _Run, state, cfg: RunConfig):
        cex = construct_u(
            run.program, state, validate=True, fuel=cfg.fuel,
            client_of=run.client_of,
        )
        # scv rejects only a failed validation (``None``: not checked).
        return None if cex is None or cex.validated is False else cex

    def _report(self, run: _Run, cex, cfg: RunConfig) -> CexReport:
        blame = cex.blame
        return CexReport(
            bindings=render_scv_bindings(cex),
            err_label=blame.label,
            err_op=canonical_blame_op(blame),
            validated_core=None,  # scv has one oracle
            validated_conc=cex.validated,
            err_detail=f"{blame.party}: {blame.description}",
            client=cex.closed_program(run.program),
        )


BACKENDS: dict[str, Backend] = {
    "core": TypedCoreBackend(),
    "scv": UntypedScvBackend(),
}

#: Accepted values for the CLI ``--backend`` flag.
BACKEND_CHOICES = (*BACKENDS, "both")


def get_backend(name: str) -> Backend:
    try:
        return BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r} (have: {', '.join(BACKENDS)})"
        ) from None
