"""Content-addressed persistent verification store.

A cache, never a second verification path: the driver plans every run
into units (:mod:`repro.driver.units`) whether or not a store is
attached, and the store only answers and records them.  Two tiers
under one ``--store`` directory:

* :mod:`repro.store.verdicts` — per-unit verification rows, keyed by
  canonical unit fingerprint × backend × semantic-config digest ×
  client marker; only rows whose status is a function of that key are
  stored (timeouts and driver errors always recompute);
* :mod:`repro.store.solver` — the solver-result tier behind
  :class:`~repro.smt.cache.SolverCache`, keyed by canonical formula:
  append-only JSONL shards published by atomic rename.

Warm runs replay stored rows byte-for-byte (timing and the store
counters aside), which the warm/cold differential in CI enforces, and
store-less runs produce the same rows.
"""

from .fingerprint import (
    STORE_VERSION,
    DigestError,
    config_digest,
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
)

__all__ = [
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
    "program_digest",
    "serialize_program",
    "try_replay",
]
