"""The disk-backed verdict store: a cache of the driver's units.

One verification *unit* of the driver's plan (:mod:`repro.driver.units`
— a program, or a module slice of a multi-module scv program) on one
backend under one semantic configuration maps to one JSON file,
``<store>/verdicts/<d[:2]>/<d>-<h>.json``, where ``d`` is the unit's
program digest and ``h`` the SHA-256 of its :class:`StoreKey`: the
layout is the by-digest index.  The entry holds the full
:class:`~repro.driver.report.ProgramResult` row (verdict,
counterexample, synthesized client, every counter) plus the unit's
source text and configuration, so a warm run replays the row byte-for-
byte (only wall clock and the store counters are re-measured) and
``repro store verify`` can re-run any entry from the entry alone.

Units are keyed by their *slice* digest, so editing one module
invalidates exactly the units whose slices contain it; untouched
modules replay.  The store plans and combines nothing itself: the
driver runs the same plan with or without it (:class:`UnitCache` only
answers and records units), which is what makes the store-less, cold
and warm rows of one program identical.  Only rows whose status is a
function of the key are stored; timeouts and driver errors recompute.

Crash-safety mirrors the solver shards: entries are written to a temp
file and published with ``os.replace``; concurrent writers racing on
the same key write identical bytes (results are deterministic per
key), so last-rename-wins is harmless.  An unreadable or corrupt entry
is a miss — the unit re-verifies and the entry is rewritten.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, replace
from typing import Optional

from ..driver.report import (
    STATUS_COUNTEREXAMPLE,
    STATUS_NO_MODEL,
    STATUS_SAFE,
    STATUS_TIMEOUT,
    STATUS_TRUNCATED,
    STATUS_UNSUPPORTED,
    ProgramResult,
    result_from_row,
    stable_row,
)
from ..driver.units import Unit, combine_units, parse_unit, plan_units
from ..lang.ast import Program
from ..smt import solver_cache
from .fingerprint import (
    STORE_VERSION,
    _SEMANTIC_CONFIG_FIELDS,
    DigestError,
    config_digest,
    program_digest,
)
from .solver import SolverStore, _size, _unlink

#: Default store directory (CLI ``--store`` with no value, and the
#: ``REPRO_STORE`` environment variable's fallback).
DEFAULT_STORE_DIR = ".repro-store"


@dataclass(frozen=True)
class StoreKey:
    """What a stored verdict is a verdict *of*."""

    program: str  # canonical digest of the unit's (slice) program
    backend: str
    config: str  # semantic-config digest (repro.store.fingerprint)
    client: str  # "all" | "main" | "mod:<name>"

    def path_name(self) -> str:
        """``<program digest>-<key hash>``: the entry's file name, so a
        by-digest search reads names, not files."""
        h = hashlib.sha256(
            "|".join((self.program, self.backend, self.config, self.client))
            .encode("utf-8")
        ).hexdigest()
        return f"{self.program}-{h}"

    def as_dict(self) -> dict:
        return asdict(self)


class VerdictStore:
    """One store directory: ``verdicts/`` entry files + ``solver/``
    shards."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.verdict_dir = os.path.join(root, "verdicts")
        self.solver = SolverStore(os.path.join(root, "solver"))

    # -- entries ---------------------------------------------------------

    def _entry_path(self, key: StoreKey) -> str:
        name = key.path_name()
        return os.path.join(self.verdict_dir, name[:2], name + ".json")

    def lookup(self, key: StoreKey) -> Optional[dict]:
        """The stored entry for ``key``, or None (missing, unreadable,
        corrupt, or written by an incompatible store version — all of
        which degrade to recomputation)."""
        path = self._entry_path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("version") != STORE_VERSION
            or entry.get("key") != key.as_dict()
            or not isinstance(entry.get("result"), dict)
        ):
            return None
        return entry

    def put(
        self,
        key: StoreKey,
        *,
        name: str,
        kind: str,
        source: str,
        config: dict,
        row: ProgramResult,
    ) -> None:
        entry = {
            "version": STORE_VERSION,
            "key": key.as_dict(),
            "name": name,
            "kind": kind,
            "source": source,
            "config": config,
            "result": asdict(row),
            "created": time.time(),
        }
        path = self._entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp-{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)

    def paths_for_digest(self, prefix: str) -> list[str]:
        """Entry files whose program digest or key hash starts with
        ``prefix``.  Both are in the file name, so this filters names
        and opens nothing."""
        return [
            path for path in self.entry_paths()
            if any(part.startswith(prefix)
                   for part in split_entry_name(path))
        ]

    def entry_paths(self) -> list[str]:
        out = []
        for dirpath, _dirnames, filenames in os.walk(self.verdict_dir):
            for fn in sorted(filenames):
                if fn.endswith(".json"):
                    out.append(os.path.join(dirpath, fn))
        return sorted(out)

    # -- maintenance -----------------------------------------------------

    def stats(self) -> dict:
        paths = self.entry_paths()
        backends: dict[str, int] = {}
        statuses: dict[str, int] = {}
        unreadable = 0
        for p in paths:
            try:
                with open(p, encoding="utf-8") as fh:
                    e = json.load(fh)
                backend = e["key"]["backend"]
                status = e["result"]["status"]
            except (OSError, json.JSONDecodeError, KeyError, TypeError):
                unreadable += 1
                continue
            backends[backend] = backends.get(backend, 0) + 1
            statuses[status] = statuses.get(status, 0) + 1
        verdict_bytes = sum(_size(p) for p in paths)
        solver = self.solver.stats()
        return {
            "root": self.root,
            "verdicts": len(paths),
            "verdicts_by_backend": dict(sorted(backends.items())),
            "verdicts_by_status": dict(sorted(statuses.items())),
            "verdict_bytes": verdict_bytes,
            "unreadable_entries": unreadable,
            "solver_entries": solver["entries"],
            "solver_shards": solver["shards"],
            "solver_bytes": solver["bytes"],
            "total_bytes": verdict_bytes + solver["bytes"],
        }

    def gc(self, max_bytes: Optional[int] = None) -> dict:
        """Compact the solver shards, then (with a bound) evict oldest
        verdict entries — and, as a last resort, the compacted solver
        shard — until the store fits in ``max_bytes``."""
        compacted = self.solver.compact()
        evicted = 0
        if max_bytes is not None:
            by_age = sorted(
                self.entry_paths(), key=lambda p: (_mtime(p), p)
            )
            total = sum(_size(p) for p in by_age) + self.solver.stats()["bytes"]
            while by_age and total > max_bytes:
                victim = by_age.pop(0)
                total -= _size(victim)
                evicted += _unlink(victim)
            if total > max_bytes:
                for p in self.solver._shard_paths():
                    total -= _size(p)
                    evicted += _unlink(p)
                    self.solver._index = None
                    if total <= max_bytes:
                        break
        return {
            "solver_entries": compacted["entries"],
            "solver_shards_removed": compacted["shards_removed"],
            "entries_evicted": evicted,
            "bytes": self.stats()["total_bytes"],
        }


def split_entry_name(path: str) -> tuple[str, str]:
    """``(program digest, key hash)`` of an entry file's name."""
    program, _, entry = os.path.basename(path)[: -len(".json")].partition("-")
    return program, entry


def _mtime(path: str) -> float:
    try:
        return os.path.getmtime(path)
    except OSError:
        return 0.0


#: Per-process store handles (workers reuse one index per directory).
_STORES: dict[str, VerdictStore] = {}


def get_store(root: str) -> VerdictStore:
    store = _STORES.get(root)
    if store is None:
        store = _STORES[root] = VerdictStore(root)
    return store


# ---------------------------------------------------------------------------
# Caching the driver's units
# ---------------------------------------------------------------------------

#: Statuses that are a function of the unit's key, and so may be stored.
#: A timeout depends on the wall clock (a contended worker, say) and a
#: driver error is a bug: replaying either would let the cache change an
#: answer, so both always recompute.
_KEYED_STATUSES = frozenset({
    STATUS_SAFE, STATUS_COUNTEREXAMPLE, STATUS_NO_MODEL, STATUS_TRUNCATED,
    STATUS_UNSUPPORTED,
})


class UnitCache:
    """The verdict store as one verification sees it: replay and
    write-back for the units of the driver's plan, by unit index, with
    the hit and miss counts the row reports.  As a context manager it
    puts the store's solver tier behind the process's solver cache for
    the units that run."""

    def __init__(self, config, backend: str, units: list[Unit]) -> None:
        self.store = get_store(config.store_dir)
        self.units = units
        self.config = {k: getattr(config, k)
                       for k in sorted(_SEMANTIC_CONFIG_FIELDS)}
        self.hits = self.misses = 0
        # Uncached: text that does not parse, or a program outside the
        # canonicalizable subset.
        self.keys: Optional[list[StoreKey]] = None
        if all(isinstance(u.program, Program) for u in units):
            digest = config_digest(asdict(config))
            try:
                self.keys = [
                    StoreKey(program_digest(u.program), backend, digest,
                             u.marker)
                    for u in units
                ]
            except DigestError:
                pass

    def replay(self, i: int) -> Optional[ProgramResult]:
        """Unit ``i``'s stored row as a replay reports it, or ``None``
        (missing, corrupt, of a retired row schema, or of a status that
        must recompute).  The replay compiled nothing, so its compile
        cost reads zero; ``dispatch_steps`` is kept, a work counter like
        ``states_explored``."""
        if self.keys is None:
            return None
        entry = self.store.lookup(self.keys[i])
        try:
            row = result_from_row(entry["result"]) if entry else None
        except TypeError:  # fields ProgramResult no longer has
            row = None
        if row is None or row.status not in _KEYED_STATUSES:
            self.misses += 1
            return None
        self.hits += 1
        return replace(row, compiled_units=0, compile_ms=0.0)

    def put(self, i: int, row: ProgramResult) -> None:
        """Store unit ``i``'s computed row, if its status is keyed."""
        if self.keys is None or row.status not in _KEYED_STATUSES:
            return
        unit = self.units[i]
        self.store.put(
            self.keys[i], name=row.name, kind=row.kind, source=unit.source,
            config={**self.config, "client_of": unit.client_of}, row=row,
        )

    def __enter__(self) -> "UnitCache":
        self._prev_backing = solver_cache.backing
        solver_cache.backing = self.store.solver
        return self

    def __exit__(self, *exc) -> None:
        self.store.solver.flush()
        solver_cache.backing = self._prev_backing


def try_replay(
    source: str,
    *,
    name: str = "<input>",
    kind: str = "?",
    config=None,
    backend: str = "core",
) -> Optional[ProgramResult]:
    """Answer a verification request purely from the store, or ``None``.

    The warm synchronous path of ``repro serve``: the driver's plan,
    with lookups only.  When *every* unit is stored, the combined row —
    the one ``runner.verify_source`` would return, with
    ``store_misses == 0`` — is assembled without running an engine or
    touching a solver.  Any miss returns ``None`` and the caller
    schedules real work instead."""
    t0 = time.perf_counter()
    units = plan_units(source, backend)
    cache = UnitCache(config, backend, units)
    rows = []
    for i in range(len(units)):
        row = cache.replay(i)
        if row is None:
            return None
        rows.append(row)
    return combine_units(
        name, kind, backend, units, rows,
        wall_ms=(time.perf_counter() - t0) * 1000, store_hits=cache.hits,
    )


# ---------------------------------------------------------------------------
# ``repro store verify`` — spot-check stored verdicts against fresh runs
# (the verdict entries only; the solver tier is not re-checked)
# ---------------------------------------------------------------------------


def check_entries(store: VerdictStore, *, sample: Optional[int] = None
                  ) -> dict:
    """Re-verify a deterministic sample of stored verdict entries from
    their own recorded source + config and compare the stable row
    fields.  Solver-tier entries (``store.solver``) are not checked.

    Returns ``{"checked", "matched", "skipped", "mismatches"}`` where
    each mismatch names the entry and the differing fields.  Entries
    whose config digest no longer matches the current store/schema
    version are *stale* (skipped: a fresh run would use different code),
    as are timeout rows (budget-relative by definition).  A recorded
    config field ``RunConfig`` no longer has is dropped before the
    digest check, which then finds such an entry stale."""
    from ..driver.backends import RunConfig, get_backend

    known = RunConfig.__dataclass_fields__.keys()

    paths = store.entry_paths()
    if sample is not None and 0 < sample < len(paths):
        # Evenly spaced over the sorted (hash-ordered, i.e. unbiased)
        # entry list — deterministic, so CI runs are reproducible.
        step = len(paths) / sample
        paths = [paths[int(i * step)] for i in range(sample)]
    checked = matched = skipped = 0
    mismatches = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
            key = StoreKey(**entry["key"])
            stored = entry["result"]
            recorded = dict(entry["config"])
            client_of = recorded.get("client_of")
            cfg = RunConfig(**{k: v for k, v in recorded.items()
                               if k in known})
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            skipped += 1
            mismatches.append({
                "entry": os.path.basename(path),
                "error": f"unreadable: {type(exc).__name__}: {exc}",
            })
            continue
        if (
            entry.get("version") != STORE_VERSION
            or key.config != config_digest(asdict(cfg))
            or stored.get("status") == STATUS_TIMEOUT
        ):
            skipped += 1
            continue
        fresh = get_backend(key.backend).verify(
            parse_unit(entry["source"]), name=entry["name"], kind=entry["kind"],
            config=cfg, client_of=client_of,
        )
        checked += 1
        want = stable_row(stored)
        got = stable_row(asdict(fresh))
        if want == got:
            matched += 1
        else:
            diff = sorted(
                k for k in set(want) | set(got) if want.get(k) != got.get(k)
            )
            mismatches.append({
                "entry": os.path.basename(path),
                "name": entry["name"],
                "backend": key.backend,
                "fields": diff,
                "stored": {k: want.get(k) for k in diff},
                "fresh": {k: got.get(k) for k in diff},
            })
    return {
        "checked": checked,
        "matched": matched,
        "skipped": skipped,
        "mismatches": mismatches,
    }
