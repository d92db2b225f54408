"""Batch verification driver.

Glues the front end to the symbolic engines end-to-end through a
backend-dispatch architecture (``driver.backends``):

* the ``core`` backend: ``lang.parser`` → ``driver.lower`` →
  ``core.search`` (→ ``smt``) → ``core.counterexample`` → validation by
  ``core.concrete`` *and* the surface interpreter ``conc.interp``;
* the ``scv`` backend: ``lang.parser`` → ``scv.engine`` (modules,
  contracts, demonic client) → ``scv`` machine search →
  ``scv.counterexample`` → surface validation where a concrete client
  exists;
* ``both`` runs each corpus program on every backend it supports and
  cross-checks the verdicts.

Modules:

* ``backends`` — the :class:`Backend` protocol, both engines, registry;
* ``lower``  — type-inferring translation of the contract-free surface
  subset into SPCF core terms (and back, for counterexample values);
* ``corpus`` — the seeded benchmark suite (safe + buggy variants,
  annotated with supporting backends);
* ``runner`` — per-program verification plus the parallel batch runner;
* ``report`` — the machine-readable ``BENCH_driver.json`` schema
  (``SCHEMA``: per-backend sections + agreement cross-check).
"""

from .backends import (
    BACKEND_CHOICES,
    BACKENDS,
    Backend,
    RunConfig,
    TypedCoreBackend,
    UntypedScvBackend,
    get_backend,
)
from .corpus import CORPUS, CorpusProgram, corpus_names, get_program
from .lower import LowerError, lower_expr, lower_program, raise_expr
from .report import (
    SCHEMA,
    BenchReport,
    CexReport,
    ProgramResult,
    render_report,
    render_result,
)
from .runner import expand_tasks, run_corpus, verify_program, verify_source

__all__ = [
    "BACKEND_CHOICES",
    "BACKENDS",
    "Backend",
    "CORPUS",
    "CorpusProgram",
    "corpus_names",
    "get_program",
    "get_backend",
    "LowerError",
    "lower_expr",
    "lower_program",
    "raise_expr",
    "SCHEMA",
    "BenchReport",
    "CexReport",
    "ProgramResult",
    "render_report",
    "render_result",
    "RunConfig",
    "TypedCoreBackend",
    "UntypedScvBackend",
    "expand_tasks",
    "run_corpus",
    "verify_program",
    "verify_source",
]
