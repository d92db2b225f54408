"""The persistent verification store (repro.store):

* **fingerprints** — program digests are format- and rename-invariant
  but distinguish genuinely different programs; config digests track
  exactly the semantic fields;
* **module slices** — dependency-closed, order-preserving, and the
  whole granularity story: editing one module leaves independent
  modules' unit keys untouched;
* **round trip** — a warm run replays a cold run byte-for-byte modulo
  the volatile fields (the same differential CI enforces corpus-wide);
* **invalidation** — editing one module of a multi-module program
  re-verifies only the units that can reach it;
* **edit survival** — appending an unused define keeps the solver
  tier's keys, because proof queries are keyed on the goal's cone;
* **concurrency** — two writer processes sharing a store directory
  publish entries without losing or corrupting either's work;
* **corruption** — truncated or garbage shard lines, stored models of
  a retired shape, and corrupt verdict files degrade to recomputation,
  never to a wrong or missing answer;
* **gc** — compaction preserves every entry; a size bound evicts until
  the store fits;
* **store verify** — re-running stored entries detects tampering;
* **CLI** — ``--store``/``--no-store``/``REPRO_STORE`` resolution and
  the ``repro store`` subcommands.
"""

import json
import multiprocessing
import os
import time
from dataclasses import asdict

from repro.driver.__main__ import main as cli_main
from repro.driver.corpus import CORPUS, corpus_names, get_program
from repro.driver.report import (
    STATUS_COUNTEREXAMPLE,
    STATUS_SAFE,
    STATUS_TIMEOUT,
    VOLATILE_ROW_FIELDS,
)
from repro.driver.runner import RunConfig, run_corpus, verify_source
from repro.driver.units import CLIENT_MAIN, CLIENT_MODULE, module_slices
from repro.lang.parser import parse_program
from repro.smt import get_model, solver_cache
from repro.smt.cache import SolverCache
from repro.smt.errors import Result
from repro.smt.terms import And, Eq, IntConst, Le, Lt, Var
from repro.store import SolverStore, config_digest, program_digest
from repro.store.verdicts import check_entries, get_store, try_replay

CHAIN = get_program("modules-chain-div").source
TRIPLE = get_program("modules-triple-pipeline").source


def _stable(result) -> dict:
    return {
        k: v for k, v in asdict(result).items()
        if k not in VOLATILE_ROW_FIELDS
    }


def _cfg(store_dir=None, **kw) -> RunConfig:
    kw.setdefault("timeout_s", 60.0)
    return RunConfig(store_dir=store_dir, **kw)


class TestFingerprints:
    def test_format_invariance(self):
        a = parse_program("(define (f x) (+ x 1))\n(f 2)")
        b = parse_program(
            ";; a comment\n( define ( f x ) (+ x 1) )\n\n(f 2)"
        )
        assert program_digest(a) == program_digest(b)

    def test_rename_invariance_of_locals(self):
        a = parse_program("(define (f x) (+ x 1))\n(f 2)")
        b = parse_program("(define (f y) (+ y 1))\n(f 2)")
        assert program_digest(a) == program_digest(b)

    def test_distinct_programs_distinct_digests(self):
        a = parse_program("(f 2)")
        b = parse_program("(f 3)")
        assert program_digest(a) != program_digest(b)

    def test_module_interface_names_matter(self):
        # Provide names are observable (blame parties, client API):
        # renaming one must change the digest.
        a = parse_program(
            "(module m (define (f x) x) (provide [f (-> integer? integer?)]))"
        )
        b = parse_program(
            "(module m (define (g x) x) (provide [g (-> integer? integer?)]))"
        )
        assert program_digest(a) != program_digest(b)

    def test_config_digest_tracks_semantic_fields_only(self):
        base = asdict(RunConfig())
        assert config_digest(base) == config_digest(
            {**base, "jobs": 8, "store_dir": "/x"}
        )
        assert config_digest(base) != config_digest(
            {**base, "max_states": 7}
        )
        assert config_digest(base) != config_digest(
            {**base, "memo": False}
        )


def _slices_by_marker(units) -> dict:
    return {u.marker: u.program for u in units}


class TestModuleSlices:
    def test_single_module_is_one_unit(self):
        program = parse_program(
            "(module m (define (f x) x) (provide [f (-> integer? integer?)]))"
        )
        assert module_slices(program) is None

    def test_chain_slices(self):
        units = module_slices(parse_program(CHAIN))
        markers = [u.marker for u in units]
        assert markers == [CLIENT_MODULE + "lib", CLIENT_MODULE + "app"]
        by = _slices_by_marker(units)
        assert [m.name for m in by[CLIENT_MODULE + "lib"].modules] == ["lib"]
        assert [m.name for m in by[CLIENT_MODULE + "app"].modules] == [
            "lib", "app",
        ]

    def test_transitive_closure(self):
        by = _slices_by_marker(module_slices(parse_program(TRIPLE)))
        assert [m.name for m in by[CLIENT_MODULE + "m3"].modules] == [
            "m1", "m2", "m3",
        ]

    def test_main_unit_keeps_only_reachable_modules(self):
        program = parse_program(
            "(module a (define (f x) x) (provide [f (-> integer? integer?)]))\n"
            "(module b (define (g x) x) (provide [g (-> integer? integer?)]))\n"
            "(g 1)"
        )
        main = _slices_by_marker(module_slices(program))[CLIENT_MAIN]
        assert [m.name for m in main.modules] == ["b"]

    def test_independent_module_edit_preserves_unit_key(self):
        # Editing b must not change a's unit digest (they are unrelated).
        v1 = parse_program(
            "(module a (define (f x) x) (provide [f (-> integer? integer?)]))\n"
            "(module b (define (g x) x) (provide [g (-> integer? integer?)]))"
        )
        v2 = parse_program(
            "(module a (define (f x) x) (provide [f (-> integer? integer?)]))\n"
            "(module b (define (g x) (+ x 1)) "
            "(provide [g (-> integer? integer?)]))"
        )
        key = CLIENT_MODULE + "a"
        s1 = _slices_by_marker(module_slices(v1))[key]
        s2 = _slices_by_marker(module_slices(v2))[key]
        assert program_digest(s1) == program_digest(s2)


class TestRoundTrip:
    def test_warm_replay_is_byte_identical(self, tmp_path):
        cfg = _cfg(str(tmp_path / "store"))
        cold = verify_source(CHAIN, name="p", kind="buggy",
                             config=cfg, backend="scv")
        warm = verify_source(CHAIN, name="p", kind="buggy",
                             config=cfg, backend="scv")
        assert cold.status == STATUS_COUNTEREXAMPLE
        assert _stable(cold) == _stable(warm)
        assert cold.store_misses == 2 and cold.store_hits == 0
        assert warm.store_hits == 2 and warm.store_misses == 0
        assert warm.modules_reverified == 0

    def test_store_agrees_with_plain_run(self):
        # Decomposition must not change the verdict or the witness.
        for name in corpus_names(tag="modules"):
            prog = get_program(name)
            plain = verify_source(prog.source, name=name, kind=prog.kind,
                                  config=_cfg(), backend="scv")
            assert plain.as_expected, (name, plain.status, plain.detail)

    def test_name_and_kind_come_from_the_request(self, tmp_path):
        cfg = _cfg(str(tmp_path / "store"))
        verify_source(CHAIN, name="first", kind="?", config=cfg,
                      backend="scv")
        r = verify_source(CHAIN, name="second", kind="buggy", config=cfg,
                          backend="scv")
        assert r.name == "second" and r.kind == "buggy"
        assert r.store_hits == 2

    def test_different_config_is_a_different_key(self, tmp_path):
        store = str(tmp_path / "store")
        verify_source(CHAIN, config=_cfg(store), backend="scv")
        r = verify_source(
            CHAIN, config=_cfg(store, max_states=9_999), backend="scv"
        )
        assert r.store_hits == 0 and r.store_misses == 2


class TestInvalidation:
    def test_editing_one_module_reverifies_only_its_cone(self, tmp_path):
        cfg = _cfg(str(tmp_path / "store"))
        verify_source(TRIPLE, config=cfg, backend="scv")
        # Editing m2 invalidates m2's and m3's units; m1 replays.
        edited = TRIPLE.replace("(dec (dec n))", "(dec (dec (dec n)))")
        r = verify_source(edited, config=cfg, backend="scv")
        assert r.store_hits == 1  # m1
        assert r.store_misses == 2  # m2, m3
        assert r.modules_reverified == 2

    def test_editing_a_leaf_module_reverifies_everything_downstream(
        self, tmp_path
    ):
        cfg = _cfg(str(tmp_path / "store"))
        verify_source(TRIPLE, config=cfg, backend="scv")
        edited = TRIPLE.replace("(- x 1)", "(- x 2)")
        r = verify_source(edited, config=cfg, backend="scv")
        assert r.store_hits == 0 and r.store_misses == 3

    def test_partly_warm_row_reports_measured_wall_time(self, tmp_path):
        store_dir = str(tmp_path / "store")
        cfg = _cfg(store_dir)
        verify_source(TRIPLE, config=cfg, backend="scv")
        for path in get_store(store_dir).entry_paths():
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
            entry["result"]["wall_ms"] = 1e6
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(entry, fh)
        edited = TRIPLE.replace("(dec (dec n))", "(dec (dec (dec n)))")
        t0 = time.perf_counter()
        r = verify_source(edited, config=cfg, backend="scv")
        elapsed_ms = (time.perf_counter() - t0) * 1000
        assert r.store_hits == 1 and r.store_misses == 2
        assert r.wall_ms < elapsed_ms

    def test_whitespace_edit_is_a_full_hit(self, tmp_path):
        cfg = _cfg(str(tmp_path / "store"))
        verify_source(TRIPLE, config=cfg, backend="scv")
        r = verify_source(
            TRIPLE.replace("(define (prep n)", "(define  (prep  n)"),
            config=cfg, backend="scv",
        )
        assert r.store_hits == 3 and r.store_misses == 0


class TestEditSurvival:
    """An unrelated edit must not cost the solver tier its entries:
    proof queries are keyed on the goal's cone of influence, so the
    conjunct an unused define adds to every heap stays out of the keys."""

    @staticmethod
    def _append_define(source: str, value: int) -> str:
        return f"{source}\n(define pad-edit {value})\n"

    def test_appended_define_hits_the_solver_tier(self, tmp_path):
        cfg = _cfg(str(tmp_path / "store"))
        tasks = [(p, b) for p in CORPUS[:40] for b in p.backends]
        for prog, backend in tasks:
            verify_source(prog.source, name=prog.name, kind=prog.kind,
                          config=cfg, backend=backend)
        snap = solver_cache.snapshot()
        for i, (prog, backend) in enumerate(tasks):
            r = verify_source(
                self._append_define(prog.source, 1_000_001 + i),
                name=prog.name, kind=prog.kind, config=cfg, backend=backend,
            )
            assert r.store_misses >= 1  # the edit did reach the engine
        hits = solver_cache.hits - snap[0]
        lookups = hits + solver_cache.misses - snap[1]
        assert lookups > 0
        assert hits / lookups >= 0.9, f"{hits}/{lookups} solver-tier hits"


def _worker(store_dir: str, source: str, out):
    from repro.driver.runner import RunConfig, verify_source

    r = verify_source(
        source, config=RunConfig(timeout_s=60.0, store_dir=store_dir),
        backend="scv",
    )
    out.put((r.status, r.store_misses))


class TestConcurrentWriters:
    def test_two_processes_share_one_store(self, tmp_path):
        store = str(tmp_path / "store")
        ctx = multiprocessing.get_context("spawn")
        out = ctx.Queue()
        ps = [
            ctx.Process(target=_worker, args=(store, src, out))
            for src in (CHAIN, TRIPLE)
        ]
        for p in ps:
            p.start()
        results = [out.get(timeout=120) for _ in ps]
        for p in ps:
            p.join(timeout=120)
            assert p.exitcode == 0
        assert all(status == STATUS_COUNTEREXAMPLE for status, _ in results)
        # A fresh process replays both programs entirely from the store.
        for src in (CHAIN, TRIPLE):
            r = verify_source(src, config=_cfg(store), backend="scv")
            assert r.store_misses == 0, src

    def test_sibling_solver_handles_publish_to_one_directory(self, tmp_path):
        # Two handles on one directory model two batch workers: each
        # flush is its own shard, and a fresh reader sees both.
        root = str(tmp_path / "solver")
        phi = Eq(Var("$0"), IntConst(3))
        psi = Le(Var("$0"), IntConst(9))
        a, b = SolverStore(root), SolverStore(root)
        a.store(phi, Result.SAT, ((0, 3),))
        b.store(psi, Result.UNSAT, None)
        a.flush()
        b.flush()
        reader = SolverStore(root)
        assert reader.lookup(phi) == (Result.SAT, ((0, 3),))
        assert reader.lookup(psi) == (Result.UNSAT, None)
        assert reader.stats()["shards"] == 2
        assert reader.compact() == {"entries": 2, "shards_removed": 2}
        assert SolverStore(root).stats()["shards"] == 1

    def test_solver_handle_reads_the_directory_once(self, tmp_path):
        # A handle indexes the shards on first use and keeps that view
        # for the rest of its run; its own buffered entries are always
        # visible.  Later writers reach the next handle opened.
        root = str(tmp_path / "solver")
        phi = Eq(Var("$0"), IntConst(3))
        psi = Eq(Var("$0"), IntConst(9))
        writer, reader = SolverStore(root), SolverStore(root)
        assert reader.lookup(phi) is None
        writer.store(phi, Result.SAT, ((0, 3),))
        writer.flush()
        assert reader.lookup(phi) is None
        reader.store(psi, Result.UNSAT, None)
        assert reader.lookup(psi) == (Result.UNSAT, None)
        assert SolverStore(root).lookup(phi) is not None

    def test_parallel_bench_jobs_share_the_store(self, tmp_path):
        store = str(tmp_path / "store")
        names = corpus_names(tag="modules")
        cold = run_corpus(names, config=_cfg(store, jobs=2), backend="scv")
        warm = run_corpus(names, config=_cfg(store, jobs=2), backend="scv")
        t = warm.totals()
        assert t["store_misses"] == 0
        assert t["store_hits"] == cold.totals()["store_hits"] + \
            cold.totals()["store_misses"]


class TestCorruptionRecovery:
    def test_truncated_and_garbage_shard_lines_are_skipped(self, tmp_path):
        root = str(tmp_path / "solver")
        s = SolverStore(root)
        phi = And((Eq(Var("$0"), IntConst(1)), Le(IntConst(0), Var("$1"))))
        s.store(phi, Result.SAT, ((0, 1),))
        s.flush()
        # Corrupt the shard: garbage line, then a torn (truncated) line.
        shard = s._shard_paths()[0]
        with open(shard, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
            fh.write('["(= $0 7)", "sat", [[[0, 7]], []], tru')
        fresh = SolverStore(root)
        assert fresh.lookup(phi) == (Result.SAT, ((0, 1),))
        assert fresh.skipped_lines == 2

    def test_model_with_function_tables_is_skipped(self, tmp_path,
                                                  monkeypatch):
        # Older stores kept a SAT model as ``[env, funcs]``, with a
        # function-table half.  Such a line is skipped and the query
        # solved again; an UNSAT line carries no model, so it keeps
        # hitting under its unchanged key.
        root = tmp_path / "solver"
        root.mkdir()
        sat = Eq(Var("$0"), IntConst(4))
        unsat = And((Lt(Var("$0"), IntConst(0)), Lt(IntConst(0), Var("$0"))))
        rows = [
            [repr(sat), "sat", [[[0, 4]], []]],
            [repr(unsat), "unsat", None],
        ]
        (root / "shard-0-old.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        store = SolverStore(str(root))
        assert store.lookup(sat) is None
        assert store.skipped_lines == 1
        assert store.lookup(unsat) == (Result.UNSAT, None)
        # Through the one-shot helper the skipped query is solved again
        # and its entry rewritten in the current shape.
        monkeypatch.setattr(solver_cache, "backing", store)
        l7 = Var("L7")
        assert get_model(Eq(l7, IntConst(4)))[l7] == 4
        assert store.lookup(sat) == (Result.SAT, ((0, 4),))

    def test_four_element_lines_of_older_stores_are_skipped(
            self, tmp_path, monkeypatch):
        # Stores that also kept result-only entries wrote
        # ``[key, result, model, model_known]``.  A result-only SAT line
        # has no model: answering ``get_model`` from it would lose the
        # counterexample, so every such line is corrupt and recomputed.
        root = tmp_path / "solver"
        root.mkdir()
        sat = Eq(Var("$0"), IntConst(4))
        unsat = And((Lt(Var("$0"), IntConst(0)), Lt(IntConst(0), Var("$0"))))
        rows = [
            [repr(sat), "sat", None, False],
            [repr(unsat), "unsat", None, True],
        ]
        (root / "shard-0-old.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        store = SolverStore(str(root))
        assert store.lookup(sat) is None
        assert store.lookup(unsat) is None
        assert store.skipped_lines == 2
        monkeypatch.setattr(solver_cache, "backing", store)
        l7 = Var("L7")
        m = get_model(Eq(l7, IntConst(4)))
        assert m is not None and m[l7] == 4
        assert store.lookup(sat) == (Result.SAT, ((0, 4),))

    def test_corrupt_verdict_entry_recomputes(self, tmp_path):
        store_dir = str(tmp_path / "store")
        cfg = _cfg(store_dir)
        verify_source(CHAIN, config=cfg, backend="scv")
        vs = get_store(store_dir)
        for path in vs.entry_paths():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("{ truncated")
        r = verify_source(CHAIN, config=cfg, backend="scv")
        assert r.store_hits == 0 and r.store_misses == 2
        # ... and the rewrite healed the store.
        r2 = verify_source(CHAIN, config=cfg, backend="scv")
        assert r2.store_hits == 2

    def test_row_with_retired_fields_recomputes(self, tmp_path):
        # Entries written by an older schema carry row fields that
        # ProgramResult no longer has (the sharding counters): they are
        # recomputed by the store path and refused by the replay path.
        store_dir = str(tmp_path / "store")
        cfg = _cfg(store_dir)
        cold = verify_source(CHAIN, config=cfg, backend="scv")
        vs = get_store(store_dir)
        for path in vs.entry_paths():
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
            entry["result"].update(shards=1, stolen_tasks=0)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(entry, fh)
        assert try_replay(CHAIN, config=cfg, backend="scv") is None
        r = verify_source(CHAIN, config=cfg, backend="scv")
        assert r.store_hits == 0 and r.store_misses == 2
        assert _stable(r) == _stable(cold)
        # The recompute rewrote the entries in the current schema.
        assert try_replay(CHAIN, config=cfg, backend="scv") is not None

    def test_timeout_unit_is_not_stored(self, tmp_path):
        # A wall-clock timeout is not a function of the key (a contended
        # worker times out where an idle one answers): it must recompute,
        # never replay.
        spin = (
            "(define a •)\n"
            "(define (walk n) (if (< n a) (walk (add1 n)) 7))\n"
            "(walk 0)"
        )
        store_dir = str(tmp_path / "store")
        cfg = _cfg(store_dir, max_states=10_000_000, timeout_s=0.3)
        r = verify_source(spin, config=cfg, backend="scv")
        assert r.status == STATUS_TIMEOUT and r.store_misses == 1
        assert get_store(store_dir).entry_paths() == []
        r = verify_source(spin, config=cfg, backend="scv")
        assert r.store_misses == 1 and r.store_hits == 0
        assert try_replay(spin, config=cfg, backend="scv") is None

    def test_stored_timeout_row_is_a_miss(self, tmp_path):
        # Older versions stored timeout rows: they recompute too.
        store_dir = str(tmp_path / "store")
        cfg = _cfg(store_dir)
        verify_source(CHAIN, config=cfg, backend="scv")
        [path, *_] = get_store(store_dir).entry_paths()
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        entry["result"].update(status=STATUS_TIMEOUT, counterexample=None)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        assert try_replay(CHAIN, config=cfg, backend="scv") is None
        r = verify_source(CHAIN, config=cfg, backend="scv")
        assert r.store_hits == 1 and r.store_misses == 1
        assert r.status == STATUS_COUNTEREXAMPLE

    def test_solver_cache_backing_round_trip(self, tmp_path):
        root = str(tmp_path / "solver")
        writer = SolverStore(root)
        cache = SolverCache()
        cache.backing = writer
        phi = And((Eq(Var("$0"), IntConst(3)), Le(Var("$0"), Var("$1"))))
        cache.put(phi, Result.SAT, ((0, 3), (1, 3)))
        writer.flush()
        # A different process (fresh cache, fresh store handle) hits.
        cache2 = SolverCache()
        cache2.backing = SolverStore(root)
        assert cache2.get(phi) == (Result.SAT, ((0, 3), (1, 3)))
        assert cache2.hits == 1
        # UNKNOWN results are never persisted.
        psi = Eq(Var("$0"), IntConst(9))
        cache.put(psi, Result.UNKNOWN, None)
        assert writer._buffer == {} or all(
            r is not Result.UNKNOWN for r, _ in writer._buffer.values()
        )


class TestGc:
    def test_compaction_preserves_entries(self, tmp_path):
        store_dir = str(tmp_path / "store")
        cfg = _cfg(store_dir)
        verify_source(CHAIN, config=cfg, backend="scv")
        verify_source(TRIPLE, config=cfg, backend="scv")
        vs = get_store(store_dir)
        before = vs.stats()
        summary = vs.gc()
        assert summary["entries_evicted"] == 0
        after = vs.stats()
        assert after["verdicts"] == before["verdicts"]
        assert after["solver_entries"] == before["solver_entries"]
        assert after["solver_shards"] <= 1
        # Everything still replays.
        r = verify_source(CHAIN, config=cfg, backend="scv")
        assert r.store_misses == 0

    def test_compaction_keeps_buffered_solver_entries(self, tmp_path):
        root = str(tmp_path / "solver")
        store = SolverStore(root)
        one = Eq(Var("$0"), IntConst(1))
        two = Eq(Var("$0"), IntConst(2))
        store.store(one, Result.SAT, ((0, 1),))
        store.flush()
        store.store(two, Result.SAT, ((0, 2),))  # unflushed
        assert store.compact()["entries"] == 2
        fresh = SolverStore(root)
        assert fresh.stats()["entries"] == 2
        assert fresh.lookup(two) == (Result.SAT, ((0, 2),))

    def test_size_bound_evicts_until_it_fits(self, tmp_path):
        store_dir = str(tmp_path / "store")
        cfg = _cfg(store_dir)
        verify_source(CHAIN, config=cfg, backend="scv")
        verify_source(TRIPLE, config=cfg, backend="scv")
        vs = get_store(store_dir)
        bound = 2000
        summary = vs.gc(max_bytes=bound)
        assert summary["entries_evicted"] > 0
        assert summary["bytes"] <= bound

    def test_byte_count_covers_the_disk(self, tmp_path):
        # The entry files and the solver shards are the whole store:
        # nothing on disk escapes the count that --max-bytes bounds.
        store_dir = tmp_path / "store"
        verify_source(CHAIN, config=_cfg(str(store_dir)), backend="scv")
        vs = get_store(str(store_dir))
        vs.gc()
        files = [p for p in store_dir.rglob("*") if p.is_file()]
        for p in files:
            top = p.relative_to(store_dir).parts[0]
            assert (top, p.suffix) in {("verdicts", ".json"),
                                       ("solver", ".jsonl")}, p
        assert vs.stats()["verdicts"] and vs.stats()["solver_shards"]
        assert vs.stats()["total_bytes"] == \
            sum(p.stat().st_size for p in files)


class TestStoreVerify:
    def test_clean_store_checks_out(self, tmp_path):
        store_dir = str(tmp_path / "store")
        verify_source(CHAIN, config=_cfg(store_dir), backend="scv")
        outcome = check_entries(get_store(store_dir))
        assert outcome["checked"] == 2
        assert outcome["matched"] == 2
        assert outcome["mismatches"] == []

    def test_tampered_verdict_is_detected(self, tmp_path):
        store_dir = str(tmp_path / "store")
        verify_source(CHAIN, config=_cfg(store_dir), backend="scv")
        vs = get_store(store_dir)
        tampered = 0
        for path in vs.entry_paths():
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
            if entry["result"]["status"] == STATUS_COUNTEREXAMPLE:
                entry["result"]["status"] = STATUS_SAFE
                entry["result"]["counterexample"] = None
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(entry, fh)
                tampered += 1
        assert tampered
        outcome = check_entries(vs)
        assert len(outcome["mismatches"]) == tampered
        assert "status" in outcome["mismatches"][0]["fields"]

    def test_entry_with_a_removed_config_field_is_stale(self, tmp_path):
        # An entry written while RunConfig still had a field (here the
        # removed search ``strategy`` and ``shards``) carries it in its
        # recorded config and a digest over it: it is skipped as stale,
        # not reported unreadable.
        store_dir = str(tmp_path / "store")
        verify_source(CHAIN, config=_cfg(store_dir), backend="scv")
        vs = get_store(store_dir)
        for path in vs.entry_paths():
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
            entry["config"].update(strategy="bfs", shards=1)
            entry["key"]["config"] = "0" * 64
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(entry, fh)
        outcome = check_entries(vs)
        assert outcome["mismatches"] == []
        assert outcome["skipped"] == 2 and outcome["checked"] == 0


class TestCli:
    def test_store_flag_round_trip(self, tmp_path, capsys):
        f = tmp_path / "p.sexp"
        f.write_text(CHAIN)
        store = str(tmp_path / "store")
        args = ["verify", str(f), "--backend", "scv", "--store", store,
                "--json"]
        assert cli_main(args) == 1  # counterexample
        cold = json.loads(capsys.readouterr().out)
        assert cli_main(args) == 1
        warm = json.loads(capsys.readouterr().out)
        assert warm["store_hits"] == 2
        for k in set(cold) - VOLATILE_ROW_FIELDS:
            assert cold[k] == warm[k], k

    def test_no_store_by_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        f = tmp_path / "p.sexp"
        f.write_text(CHAIN)
        cli_main(["verify", str(f), "--backend", "scv", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert out["store_hits"] == out["store_misses"] == 0
        assert not (tmp_path / ".repro-store").exists()

    def test_env_var_enables_and_no_store_overrides(
        self, tmp_path, capsys, monkeypatch
    ):
        f = tmp_path / "p.sexp"
        f.write_text(CHAIN)
        store = str(tmp_path / "envstore")
        monkeypatch.setenv("REPRO_STORE", store)
        cli_main(["verify", str(f), "--backend", "scv", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert out["store_misses"] == 2
        assert os.path.isdir(store)
        cli_main(["verify", str(f), "--backend", "scv", "--json",
                  "--no-store"])
        out = json.loads(capsys.readouterr().out)
        assert out["store_hits"] == out["store_misses"] == 0

    def test_store_subcommands(self, tmp_path, capsys):
        f = tmp_path / "p.sexp"
        f.write_text(CHAIN)
        store = str(tmp_path / "store")
        cli_main(["verify", str(f), "--backend", "scv", "--store", store])
        capsys.readouterr()
        assert cli_main(["store", "--dir", store, "stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["verdicts"] == 2
        assert cli_main(["store", "--dir", store, "gc"]) == 0
        capsys.readouterr()
        assert cli_main(["store", "--dir", store, "verify",
                         "--sample", "0"]) == 0
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["matched"] == outcome["checked"] == 2

    def test_store_subcommand_missing_dir(self, tmp_path, capsys):
        rc = cli_main(["store", "--dir", str(tmp_path / "nope"), "stats"])
        assert rc == 2
        assert "no store at" in capsys.readouterr().err


class TestSmokeCorpusWarm:
    """The CI warm-start invariant, in miniature: a warm smoke-corpus
    run must be ≥90% verdict-store hits and byte-identical to the cold
    run outside the volatile fields."""

    def test_smoke_corpus_cold_then_warm(self, tmp_path):
        store = str(tmp_path / "store")
        names = corpus_names(tag="smoke")
        cold = run_corpus(names, config=_cfg(store), backend="scv")
        warm = run_corpus(names, config=_cfg(store), backend="scv")
        t = warm.totals()
        assert t["store_hits"] / (t["store_hits"] + t["store_misses"]) >= 0.9
        cold_rows = {r.name: _stable(r) for r in cold.results}
        warm_rows = {r.name: _stable(r) for r in warm.results}
        assert cold_rows == warm_rows
