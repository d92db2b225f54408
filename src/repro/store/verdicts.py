"""The disk-backed verdict store and the store-aware verification path.

One verification *unit* — a program (or module slice) on one backend
under one semantic configuration — maps to one JSON file under
``<store>/verdicts/``, named by the SHA-256 of its
:class:`StoreKey`.  The entry holds the full
:class:`~repro.driver.report.ProgramResult` row (verdict,
counterexample, synthesized client, every counter) plus the unit's
source text and configuration, so a warm run replays the row byte-for-
byte (only wall clock and the store counters are re-measured) and
``repro store verify`` can re-run any entry from the entry alone.

Module granularity: ``verify_with_store`` decomposes a multi-module scv
program into units via :func:`repro.store.fingerprint.module_slices` —
one unit per module (its dependency slice, demonic client narrowed to
its provides) plus one for the top-level expression.  Units are keyed
by their *slice* digest, so editing one module invalidates exactly the
units whose slices contain it; untouched modules replay from the store.
The per-program row is the deterministic combination of the unit rows
(first counterexample in module order wins; counters are summed), and
it is the same combination cold and warm — which is what makes the
warm/cold differential in CI a byte-identity check.

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
import shutil
import time
from dataclasses import asdict, dataclass, replace
from typing import Optional

from ..driver.report import (
    STATUS_COUNTEREXAMPLE,
    STATUS_ERROR,
    STATUS_NO_MODEL,
    STATUS_TIMEOUT,
    STATUS_TRUNCATED,
    STATUS_UNSUPPORTED,
    ProgramResult,
    result_from_row,
)
from ..lang.parser import ParseError, parse_program
from ..lang.pretty import pp_program
from ..lang.sexp import ReadError
from ..smt import solver_cache
from .fingerprint import (
    CLIENT_ALL,
    STORE_VERSION,
    _SEMANTIC_CONFIG_FIELDS,
    DigestError,
    config_digest,
    module_slices,
    program_digest,
)
from .solver import SolverStore

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
        h = hashlib.sha256(
            "|".join((self.program, self.backend, self.config, self.client))
            .encode("utf-8")
        ).hexdigest()
        return h

    def as_dict(self) -> dict:
        return asdict(self)


def _row_to_json(row: ProgramResult) -> dict:
    return asdict(row)


def _row_from_json(d: dict) -> ProgramResult:
    return result_from_row(d)


def _replayed_row(entry: dict) -> ProgramResult:
    """A stored unit row as a replay reports it.  The replay compiled
    nothing, so its compile cost reads zero; ``dispatch_steps`` is kept,
    a work counter like ``states_explored``.  Raises ``TypeError`` when
    the stored row has fields ``ProgramResult`` no longer has."""
    return replace(
        _row_from_json(entry["result"]), compiled_units=0, compile_ms=0.0
    )


class VerdictStore:
    """One store directory: ``verdicts/`` entry files + ``solver/``
    shards."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.verdict_dir = os.path.join(root, "verdicts")
        self.index_path = os.path.join(root, "verdicts.index.jsonl")
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
            "result": _row_to_json(row),
            "created": time.time(),
        }
        path = self._entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp-{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        self._index_append(key)

    # -- digest index ----------------------------------------------------
    #
    # ``verdicts.index.jsonl`` maps program digests to entry files so a
    # by-digest lookup (``repro serve``'s GET /v1/results/<digest>)
    # opens only the matching entries instead of every file in the
    # store.  It is a *sidecar*: append-only, best-effort, and rebuilt
    # from the entry files — which stay the source of truth — whenever
    # it is missing, unreadable, or stale (a referenced entry vanished,
    # e.g. after gc).

    def _index_append(self, key: StoreKey) -> None:
        line = json.dumps(
            {"program": key.program, "entry": key.path_name()},
            sort_keys=True,
        )
        try:
            with open(self.index_path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        except OSError:
            pass  # the index is advisory; lookups rebuild it

    def _index_read(self) -> Optional[dict[str, str]]:
        """entry-hash -> program digest, or None when the sidecar is
        missing or corrupt (any unparsable or mis-shaped line)."""
        try:
            with open(self.index_path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            return None
        out: dict[str, str] = {}
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                program, entry = rec["program"], rec["entry"]
            except (json.JSONDecodeError, KeyError, TypeError):
                return None
            if not isinstance(program, str) or not isinstance(entry, str):
                return None
            out[entry] = program
        return out

    def rebuild_index(self) -> dict[str, str]:
        """Regenerate the sidecar from the entry files."""
        out: dict[str, str] = {}
        for path in self.entry_paths():
            try:
                with open(path, encoding="utf-8") as fh:
                    program = json.load(fh)["key"]["program"]
            except (OSError, json.JSONDecodeError, KeyError, TypeError):
                continue
            if isinstance(program, str):
                out[os.path.basename(path)[: -len(".json")]] = program
        tmp = f"{self.index_path}.tmp-{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                for entry in sorted(out):
                    fh.write(json.dumps(
                        {"program": out[entry], "entry": entry},
                        sort_keys=True,
                    ) + "\n")
            os.replace(tmp, self.index_path)
        except OSError:
            pass
        return out

    def paths_for_digest(self, digest: str) -> list[str]:
        """Entry files whose program digest — or entry-hash file name —
        starts with ``digest``, via the sidecar index.  Stale mappings
        (entry gc'd since the line was written) trigger one rebuild."""
        index = self._index_read()
        if index is None:
            index = self.rebuild_index()
        for _attempt in range(2):
            matches = [
                entry for entry, program in sorted(index.items())
                if entry.startswith(digest) or program.startswith(digest)
            ]
            paths = [
                os.path.join(self.verdict_dir, entry[:2], entry + ".json")
                for entry in matches
            ]
            missing = [p for p in paths if not os.path.exists(p)]
            if not missing:
                return paths
            index = self.rebuild_index()
        return [p for p in paths if os.path.exists(p)]

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
        shard — until the store fits in ``max_bytes``.

        A ``compiled/`` directory left by older versions, which kept
        compiled units there outside the byte count, is removed."""
        shutil.rmtree(os.path.join(self.root, "compiled"), ignore_errors=True)
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


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _mtime(path: str) -> float:
    try:
        return os.path.getmtime(path)
    except OSError:
        return 0.0


def _unlink(path: str) -> int:
    try:
        os.unlink(path)
        return 1
    except OSError:
        return 0


#: Per-process store handles (workers reuse one index per directory).
_STORES: dict[str, VerdictStore] = {}


def get_store(root: str) -> VerdictStore:
    store = _STORES.get(root)
    if store is None:
        store = _STORES[root] = VerdictStore(root)
    return store


# ---------------------------------------------------------------------------
# The store-aware verification path
# ---------------------------------------------------------------------------

#: Deterministic status precedence for combining unit rows (after the
#: first-counterexample rule): a driver error outranks everything, then
#: the inconclusive statuses, then safe.
_COMBINE_ORDER = (
    STATUS_ERROR,
    STATUS_UNSUPPORTED,
    STATUS_TIMEOUT,
    STATUS_TRUNCATED,
    STATUS_NO_MODEL,
)

_SUMMED_FIELDS = (
    "states_explored", "proof_queries", "solver_queries", "pruned_states",
    "solver_cache_hits", "chained_steps", "solver_fresh_solves",
    "solver_incremental", "solver_clauses_reused", "errors_found",
    "cex_attempts", "compiled_units", "compile_ms", "dispatch_steps",
)


def _combine_units(
    name: str, kind: str, backend: str,
    units: list[tuple[str, ProgramResult]],
) -> ProgramResult:
    """Fold unit rows into one per-program row, deterministically: the
    first unit (in module order) with a validated counterexample decides
    the verdict; otherwise the worst status by ``_COMBINE_ORDER``; all
    work counters are summed (scope depth takes the max)."""
    chosen_marker, chosen = None, None
    for marker, row in units:
        if row.status == STATUS_COUNTEREXAMPLE:
            chosen_marker, chosen = marker, row
            break
    if chosen is None:
        for status in _COMBINE_ORDER:
            for marker, row in units:
                if row.status == status:
                    chosen_marker, chosen = marker, row
                    break
            if chosen is not None:
                break
    if chosen is None:  # every unit is safe
        chosen_marker, chosen = units[0]
    detail = chosen.detail
    if detail and chosen_marker != CLIENT_ALL:
        detail = f"[{chosen_marker}] {detail}"
    sums = {
        f: sum(getattr(r, f) for _, r in units) for f in _SUMMED_FIELDS
    }
    return ProgramResult(
        name=name,
        kind=kind,
        status=chosen.status,
        wall_ms=sum(r.wall_ms for _, r in units),
        backend=backend,
        solver_scope_depth=max(r.solver_scope_depth for _, r in units),
        deadline_enforced=all(r.deadline_enforced for _, r in units),
        counterexample=chosen.counterexample,
        detail=detail,
        **sums,
    )


def _semantic_config(config) -> dict:
    fields = asdict(config)
    return {k: fields[k] for k in sorted(_SEMANTIC_CONFIG_FIELDS)}


def _plan_units(program, source: str, backend: str):
    """The verification units of a program: ``(client_marker,
    slice_program, client_of, unit_source)`` tuples, one per unit."""
    units = module_slices(program) if backend == "scv" else None
    if units is None:
        return [(CLIENT_ALL, program, None, source)]
    return [
        (marker, slice_prog, client_of, pp_program(slice_prog))
        for marker, slice_prog, client_of in units
    ]


def _store_verify(
    source: str,
    *,
    name: str,
    kind: str,
    config,
    backend: str,
    replay_only: bool,
) -> Optional[ProgramResult]:
    from ..driver.backends import get_backend

    cfg = config
    assert cfg is not None and cfg.store_dir, "store path requires store_dir"
    engine = get_backend(backend)
    store = get_store(cfg.store_dir)
    t0 = time.perf_counter()
    try:
        program = parse_program(source)
        cfg_digest = config_digest(asdict(cfg))
        work = _plan_units(program, source, backend)
    except (ParseError, ReadError, DigestError):
        # Outside the canonicalizable subset: verify directly, uncached
        # (a replay-only caller cannot answer it from the store at all).
        if replay_only:
            return None
        return engine.verify(source, name=name, kind=kind, config=cfg)

    keyed = [
        (
            StoreKey(
                program=program_digest(slice_prog),
                backend=backend,
                config=cfg_digest,
                client=marker,
            ),
            marker,
            client_of,
            unit_source,
        )
        for marker, slice_prog, client_of, unit_source in work
    ]

    hits = misses = 0
    rows: list[tuple[str, ProgramResult]] = []

    if replay_only:
        # The warm synchronous path: every unit must replay, or the
        # caller falls back to a queued job.  No engine, no solver
        # backing — a pure read of the store.
        for key, marker, _client_of, _unit_source in keyed:
            entry = store.lookup(key)
            if entry is None:
                return None
            try:
                row = _replayed_row(entry)
            except TypeError:
                return None  # schema drift inside the row: recompute
            hits += 1
            rows.append((marker, row))
    else:
        prev_backing = solver_cache.backing
        solver_cache.backing = store.solver
        try:
            for key, marker, client_of, unit_source in keyed:
                entry = store.lookup(key)
                if entry is not None:
                    try:
                        row = _replayed_row(entry)
                    except TypeError:
                        entry = None  # schema drift in the row: recompute
                    else:
                        hits += 1
                        rows.append((marker, row))
                        continue
                unit_name = (
                    name if marker == CLIENT_ALL else f"{name}::{marker}"
                )
                row = engine.verify(
                    unit_source,
                    name=unit_name,
                    kind=kind,
                    # Unit runs drop store_dir: no nested store lookups.
                    config=replace(cfg, client_of=client_of, store_dir=None),
                )
                misses += 1
                if row.status != STATUS_ERROR:
                    # Driver errors are bugs: never immortalize them.
                    store.put(
                        key,
                        name=unit_name,
                        kind=kind,
                        source=unit_source,
                        config={
                            **_semantic_config(cfg), "client_of": client_of,
                        },
                        row=row,
                    )
                rows.append((marker, row))
        finally:
            store.solver.flush()
            solver_cache.backing = prev_backing

    if len(rows) == 1:
        combined = replace(rows[0][1], name=name, kind=kind)
    else:
        combined = _combine_units(name, kind, backend, rows)
    return replace(
        combined,
        # Measured, never summed: a replayed unit's stored wall_ms is the
        # cold run's.
        wall_ms=(time.perf_counter() - t0) * 1000,
        store_hits=hits,
        store_misses=misses,
        modules_reverified=misses,
    )


def verify_with_store(
    source: str,
    *,
    name: str = "<input>",
    kind: str = "?",
    config=None,
    backend: str = "core",
) -> ProgramResult:
    """``runner.verify_source`` with the persistent store in the loop.

    Parses the program, decomposes it into units (multi-module scv
    programs only), replays stored unit rows and re-verifies the rest,
    then combines.  The returned row carries the store economy counters:
    ``store_hits``/``store_misses`` (unit lookups) and
    ``modules_reverified`` (units actually recomputed)."""
    row = _store_verify(
        source, name=name, kind=kind, config=config, backend=backend,
        replay_only=False,
    )
    assert row is not None  # replay_only=False always produces a row
    return row


def try_replay(
    source: str,
    *,
    name: str = "<input>",
    kind: str = "?",
    config=None,
    backend: str = "core",
) -> Optional[ProgramResult]:
    """Answer a verification request purely from the store, or ``None``.

    The warm synchronous path of ``repro serve``: when *every* unit of
    the program is already stored, the combined row — identical to what
    ``verify_with_store`` would return, with ``store_misses == 0`` — is
    assembled without running an engine or touching a solver.  Any unit
    miss (or an unparseable/undigestable program) returns ``None`` and
    the caller schedules real work instead."""
    return _store_verify(
        source, name=name, kind=kind, config=config, backend=backend,
        replay_only=True,
    )


# ---------------------------------------------------------------------------
# ``repro store verify`` — spot-check stored verdicts against fresh runs
# (the verdict entries only; the solver tier is not re-checked)
# ---------------------------------------------------------------------------


def _stable_row(d: dict) -> dict:
    from ..driver.report import VOLATILE_ROW_FIELDS

    return {k: v for k, v in d.items() if k not in VOLATILE_ROW_FIELDS}


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
            cfg_fields = {k: v for k, v in dict(entry["config"]).items()
                          if k in known}
            client_of = cfg_fields.pop("client_of", None)
            cfg = replace(
                RunConfig(**cfg_fields), client_of=client_of
            )
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
            entry["source"], name=entry["name"], kind=entry["kind"],
            config=cfg,
        )
        checked += 1
        want = _stable_row(stored)
        got = _stable_row(_row_to_json(fresh))
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
