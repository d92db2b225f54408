"""Content-addressed persistent verification store.

Two tiers under one ``--store`` directory:

* :mod:`repro.store.verdicts` — per-unit verification results, keyed by
  canonical program fingerprint × backend × semantic-config digest ×
  client marker, with per-module granularity for multi-module scv
  programs (:func:`repro.store.fingerprint.module_slices`);
* :mod:`repro.store.solver` — the solver-result tier behind
  :class:`~repro.smt.cache.SolverCache`, keyed by canonical formula:
  append-only JSONL shards published by atomic rename.

Warm runs replay stored rows byte-for-byte (timing and the store
counters aside), which the warm/cold differential in CI enforces.
"""

from .fingerprint import (
    CLIENT_ALL,
    CLIENT_MAIN,
    CLIENT_MODULE,
    STORE_VERSION,
    DigestError,
    config_digest,
    module_dependencies,
    module_slices,
    program_digest,
    serialize_program,
)
from .solver import SolverStore, flush_all_stores, formula_key
from .verdicts import (
    DEFAULT_STORE_DIR,
    StoreKey,
    VerdictStore,
    get_store,
    try_replay,
    verify_with_store,
)

__all__ = [
    "CLIENT_ALL",
    "CLIENT_MAIN",
    "CLIENT_MODULE",
    "DEFAULT_STORE_DIR",
    "DigestError",
    "STORE_VERSION",
    "SolverStore",
    "StoreKey",
    "VerdictStore",
    "config_digest",
    "flush_all_stores",
    "formula_key",
    "get_store",
    "module_dependencies",
    "module_slices",
    "program_digest",
    "serialize_program",
    "try_replay",
    "verify_with_store",
]
