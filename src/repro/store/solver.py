"""Persistent, cross-process shard store for solver results.

:class:`~repro.smt.cache.SolverCache` collapses isomorphic queries to
one canonical formula but holds no results itself.  This module is the
tier that does: ``(result, model)`` per canonical key, kept on disk so
it outlives the process.

* **serialization** — canonical formulas contain only canonical ``$i``
  variable names, so the terms' own s-expression printer (``repr``) is
  a faithful key; models are already stored canonically as
  ``(id, value)`` pairs and round-trip through JSON.  A stored model of
  any other shape is a corrupt line.
* **shards** — new entries accumulate in an in-process buffer and are
  published as immutable ``shard-*.jsonl`` files via write-to-temp +
  :func:`os.replace` (atomic on POSIX), so any number of batch-runner
  workers can publish concurrently without locks and readers never see
  a half-written shard under its final name.
* **index** — readers build the key→entry index by scanning every
  shard once, newest last (later entries win).  Corrupt or truncated
  lines — a crash mid-``write`` before the rename, bit rot, a torn
  final line, a line of an older entry shape — are skipped
  individually: the store degrades to recomputation, never to a wrong
  answer.
* **compaction** — ``repro store gc`` folds all shards into one (the
  on-disk index), dropping duplicates.

The cache consults the store through the ``backing`` protocol
(:meth:`lookup`/:meth:`store`): every query probes it, and a fresh
decisive solve is buffered for the next flush.  The buffer answers
repeats within a run — proof queries are keyed on the goal's cone of
influence (``smt.incremental``), and sibling states share cones, so
such repeats are common — and the shards answer them across runs.
Results are pure functions of the canonical formula, so sharing entries
across programs, processes and runs can never change a verdict — only
how fast it is reached.
"""

from __future__ import annotations

import json
import os
import uuid
import weakref
from typing import Optional

from ..smt.cache import _CachedModel  # noqa: F401  (documented entry shape)
from ..smt.errors import Result
from ..smt.terms import Formula

#: Entry shape stored per line: [key, result, model-or-null].  Lines of
#: any other length — among them the four-element lines of stores that
#: also kept result-only entries, whose SAT lines may lack the model a
#: ``get_model`` needs — are corrupt and recomputed.
_SHARD_PREFIX = "shard-"
_RESULTS = {r.value: r for r in Result}

#: Every live SolverStore in this process, for teardown flushing: a
#: worker that buffered entries but dies before its normal end-of-run
#: flush (SIGTERM mid-verify, an atexit path, a drained serve worker)
#: publishes them via :func:`flush_all_stores` instead of losing them.
_LIVE_STORES: "weakref.WeakSet[SolverStore]" = weakref.WeakSet()


def flush_all_stores() -> int:
    """Publish the buffered entries of every live store (no-op for
    empty buffers).  Returns the number of shards written.  Safe to call
    from ``atexit`` hooks and signal handlers: flushing is a plain
    write-to-temp + atomic rename, and an already-flushed store simply
    has nothing to do."""
    written = 0
    for store in list(_LIVE_STORES):
        try:
            if store.flush() is not None:
                written += 1
        except OSError:
            continue  # a dead tempdir at interpreter exit: nothing to save
    return written


def _freeze_model(m) -> Optional[tuple]:
    """JSON lists back to the ``_CachedModel`` shape: ``(id, value)``
    integer pairs.  Anything else raises ``ValueError``."""
    if m is None:
        return None
    if not all(
        isinstance(pair, list) and len(pair) == 2
        and all(type(x) is int for x in pair)
        for pair in m
    ):
        raise ValueError(f"not a stored model: {m!r}")
    return tuple((i, v) for i, v in m)


def _valid_entry(row) -> bool:
    return (
        isinstance(row, list)
        and len(row) == 3
        and isinstance(row[0], str)
        and row[1] in _RESULTS
    )


class SolverStore:
    """One directory of append-only solver-result shards."""

    def __init__(self, root: str) -> None:
        self.root = root
        self._index: Optional[dict[str, tuple[Result, Optional[tuple]]]]
        self._index = None
        self._buffer: dict[str, tuple[Result, Optional[tuple]]] = {}
        self.loaded_shards = 0
        self.skipped_lines = 0
        _LIVE_STORES.add(self)

    # -- loading ---------------------------------------------------------

    def _shard_paths(self) -> list[str]:
        try:
            names = sorted(
                n for n in os.listdir(self.root)
                if n.startswith(_SHARD_PREFIX) and n.endswith(".jsonl")
            )
        except OSError:
            return []
        return [os.path.join(self.root, n) for n in names]

    def index(self) -> dict[str, tuple[Result, Optional[tuple]]]:
        """The key→entry map, built lazily from every shard on disk."""
        if self._index is not None:
            return self._index
        idx: dict[str, tuple[Result, Optional[tuple]]] = {}
        for path in self._shard_paths():
            try:
                with open(path, encoding="utf-8") as fh:
                    for line in fh:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            row = json.loads(line)
                        except json.JSONDecodeError:
                            self.skipped_lines += 1
                            continue  # torn or corrupt line: recompute
                        if not _valid_entry(row):
                            self.skipped_lines += 1
                            continue
                        key, res, model = row
                        try:
                            idx[key] = (_RESULTS[res], _freeze_model(model))
                        except (TypeError, ValueError):
                            self.skipped_lines += 1
                self.loaded_shards += 1
            except OSError:
                continue  # unreadable shard: behave as if absent
        self._index = idx
        return idx

    # -- the SolverCache ``backing`` protocol ----------------------------

    def lookup(self, canon: Formula):
        """Entry for a canonical formula, or None."""
        key = repr(canon)
        entry = self._buffer.get(key)
        if entry is None:
            entry = self.index().get(key)
        return entry

    def store(self, canon: Formula, result: Result, model) -> None:
        """Buffer a freshly solved entry for the next flush (no-op when
        the store already holds it)."""
        key = repr(canon)
        if key not in self._buffer and key not in self.index():
            self._buffer[key] = (result, model)

    # -- publishing ------------------------------------------------------

    def flush(self) -> Optional[str]:
        """Publish buffered entries as one new immutable shard
        (write-to-temp + atomic rename); returns the shard path."""
        if not self._buffer:
            return None
        os.makedirs(self.root, exist_ok=True)
        rows = [
            json.dumps([k, r.value, m], sort_keys=True)
            for k, (r, m) in sorted(self._buffer.items())
        ]
        name = f"{_SHARD_PREFIX}{uuid.uuid4().hex}-{os.getpid()}.jsonl"
        tmp = os.path.join(self.root, f".tmp-{name}")
        final = os.path.join(self.root, name)
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        os.replace(tmp, final)
        if self._index is not None:
            self._index.update(self._buffer)
        self._buffer.clear()
        return final

    # -- maintenance -----------------------------------------------------

    def stats(self) -> dict:
        paths = self._shard_paths()
        return {
            "entries": len(self.index()),
            "shards": len(paths),
            "bytes": sum(_size(p) for p in paths),
            "skipped_lines": self.skipped_lines,
        }

    def compact(self) -> dict:
        """Fold every shard into a single deduplicated one (the on-disk
        index).  Safe against concurrent writers: only the shards that
        existed when compaction started are removed.  Buffered entries
        are published first, so they are folded in rather than lost."""
        self.flush()
        before = self._shard_paths()
        self._index = None  # re-read everything, including new shards
        idx = self.index()
        if not idx:
            for p in before:
                _unlink(p)
            return {"entries": 0, "shards_removed": len(before)}
        self._buffer = dict(idx)
        self._index = {}
        merged = self.flush()
        removed = 0
        for p in before:
            if merged is not None and os.path.basename(p) == \
                    os.path.basename(merged):
                continue
            removed += _unlink(p)
        self._index = idx
        return {"entries": len(idx), "shards_removed": removed}


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _unlink(path: str) -> int:
    try:
        os.unlink(path)
        return 1
    except OSError:
        return 0
