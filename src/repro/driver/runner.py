"""End-to-end verification of one program, and the parallel batch runner.

``verify_source`` dispatches one surface program to a verification
:mod:`backend <repro.driver.backends>` (``core`` — the typed §3 SPCF
pipeline — or ``scv`` — the untyped §4 contract pipeline).  The batch
runner (``run_corpus``) expands the requested backend selection into
(program, backend) tasks — ``both`` runs every program on every backend
it is annotated for and the report cross-checks the verdicts — and fans
the tasks out over a ``multiprocessing`` pool; each worker enforces a
wall-clock budget per verification unit with ``SIGALRM`` so a
pathological program degrades to a ``timeout`` row instead of wedging
the run.

Timeout rows are *partial results*, not blanks: the backends read every
counter (states explored, chained micro-steps, proof/solver queries,
cache hits) at result-assembly time, so a row cut short by the alarm
still reports the work observed and the per-backend totals stay
meaningful (pinned by ``tests/test_synth.py``'s timeout tests).

The alarm guards *verification only*: on the success path the backends
exit the deadline context — cancelling the SIGALRM and restoring the
previous handler — before result assembly (surface re-validation,
client synthesis, serialization), so a fast verification followed by
slow report assembly cannot be killed by a stale alarm (pinned by
``tests/test_driver_run_hygiene.py``).
"""

from __future__ import annotations

import atexit
import time
from contextlib import nullcontext
from dataclasses import asdict
from typing import Callable, Iterable, Optional

from .backends import BACKENDS, RunConfig, get_backend
from .corpus import CORPUS, CorpusProgram, get_program
from .report import BenchReport, ProgramResult
from .units import combine_units, plan_units

__all__ = [
    "RunConfig",
    "expand_backends",
    "expand_tasks",
    "init_worker",
    "run_corpus",
    "run_job",
    "verify_program",
    "verify_source",
]


def verify_source(
    source: str,
    *,
    name: str = "<input>",
    kind: str = "?",
    config: Optional[RunConfig] = None,
    backend: str = "core",
) -> ProgramResult:
    """Run the selected backend's whole pipeline on one surface program.

    The program is planned into verification units
    (:func:`~repro.driver.units.plan_units`); each runs on the engine
    under its own wall-clock budget, and the unit rows combine into the
    program's row.  With ``config.store_dir`` set, the verdict store
    caches units: a stored unit replays instead of running, and a
    computed one is written back (:mod:`repro.store.verdicts`).  The
    plan and the combination are the same with or without a store."""
    cfg = config or RunConfig()
    engine = get_backend(backend)
    t0 = time.perf_counter()
    units = plan_units(source, backend)
    cache = None
    if cfg.store_dir:
        # Imported lazily: the store builds on the driver, and a run
        # without one does not pay for loading it.
        from ..store.verdicts import UnitCache

        cache = UnitCache(cfg, backend, units)
    rows = []
    with cache or nullcontext():
        for i, unit in enumerate(units):
            row = cache.replay(i) if cache else None
            if row is None:
                row = engine.verify(
                    unit.program, name=unit.row_name(name), kind=kind,
                    config=cfg, client_of=unit.client_of,
                )
                if cache:
                    cache.put(i, row)
            rows.append(row)
    return combine_units(
        name, kind, backend, units, rows,
        wall_ms=(time.perf_counter() - t0) * 1000,
        store_hits=cache.hits if cache else 0,
        store_misses=cache.misses if cache else 0,
    )


def verify_program(
    prog: CorpusProgram,
    config: Optional[RunConfig] = None,
    *,
    backend: str = "core",
) -> ProgramResult:
    return verify_source(
        prog.source, name=prog.name, kind=prog.kind, config=config,
        backend=backend,
    )


def expand_backends(backend: str) -> tuple[str, ...]:
    """A backend selection as the concrete engines to run: ``both``
    expands to every registered backend, anything else passes through
    (``get_backend`` validates it)."""
    if backend == "both":
        return tuple(BACKENDS)
    get_backend(backend)  # raises with the helpful message
    return (backend,)


def run_job(
    source: str,
    *,
    name: str = "<input>",
    kind: str = "?",
    config: Optional[RunConfig] = None,
    backend: str = "core",
) -> list[ProgramResult]:
    """One *job*: a source text against a backend selection, through
    the same store-aware path as the batch runner — one row per engine.

    This is the unit of work a ``repro serve`` worker process executes;
    it is also exactly what ``repro verify --backend both`` does for a
    file.  Rows come back in ``expand_backends`` order, so a job's
    report is deterministic for a given request."""
    return [
        verify_source(source, name=name, kind=kind, config=config, backend=b)
        for b in expand_backends(backend)
    ]


def expand_tasks(
    names: Iterable[str], backend: str
) -> list[tuple[str, str]]:
    """(program, backend) pairs for a backend selection.

    ``both`` runs each program on every backend its corpus annotation
    supports; a single backend name runs the programs annotated for it
    and silently skips the rest (e.g. contract-bearing scv-only
    benchmarks under ``--backend core``)."""
    tasks: list[tuple[str, str]] = []
    for n in names:
        prog = get_program(n)
        if backend == "both":
            tasks.extend((n, b) for b in prog.backends)
        elif backend in prog.backends:
            tasks.append((n, backend))
    return tasks


# ---------------------------------------------------------------------------
# Parallel batch runner
# ---------------------------------------------------------------------------

# Worker-side configuration, installed once per worker by the initializer
# (cheaper than pickling the config into every task).
_WORKER_CFG: Optional[RunConfig] = None


def init_worker(cfg_fields: dict) -> None:
    """Worker-process bootstrap, shared by the batch pool and ``repro
    serve``: install the run configuration and, with a store, make sure
    any solver entries still buffered at process exit reach their shard
    directory (the normal end-of-verification flush covers the happy
    path; the ``atexit`` hook covers teardown after an exception or a
    drain).  A worker without a store does not load it."""
    global _WORKER_CFG
    _WORKER_CFG = RunConfig(**cfg_fields)
    if cfg_fields.get("store_dir"):
        from ..store.solver import flush_all_stores

        atexit.register(flush_all_stores)


def _run_one(
    task: tuple[str, str], cfg: Optional[RunConfig] = None
) -> ProgramResult:
    """Verify one (program, backend) task under ``cfg`` — by default the
    worker's installed configuration."""
    cfg = cfg if cfg is not None else _WORKER_CFG
    assert cfg is not None
    name, backend = task
    return verify_program(get_program(name), cfg, backend=backend)


def run_corpus(
    names: Optional[Iterable[str]] = None,
    *,
    config: Optional[RunConfig] = None,
    progress: Optional[Callable[[ProgramResult], None]] = None,
    backend: str = "core",
) -> BenchReport:
    """Verify a set of corpus programs on the selected backend(s),
    fanning out over ``config.jobs`` worker processes (sequentially when
    ``jobs`` is 1)."""
    cfg = config or RunConfig()
    if backend != "both" and backend not in BACKENDS:
        get_backend(backend)  # raises with the helpful message
    todo = list(names) if names is not None else [p.name for p in CORPUS]
    for n in todo:
        get_program(n)  # fail fast on unknown names
    tasks = expand_tasks(todo, backend)

    report = BenchReport(
        config={**asdict(cfg), "backend": backend, "programs": len(todo),
                "runs": len(tasks)},
    )

    if cfg.jobs <= 1 or len(tasks) <= 1:
        for task in tasks:
            r = _run_one(task, cfg)
            report.results.append(r)
            if progress is not None:
                progress(r)
        return report

    import multiprocessing as mp

    ctx = mp.get_context()
    with ctx.Pool(
        processes=min(cfg.jobs, len(tasks)),
        initializer=init_worker,
        initargs=(asdict(cfg),),
    ) as pool:
        for r in pool.imap_unordered(_run_one, tasks, chunksize=1):
            report.results.append(r)
            if progress is not None:
                progress(r)
    return report
