"""The verification service (repro.serve) and this PR's bugfixes:

* **protocol** — request validation rejects malformed bodies with
  clear messages instead of crashing a worker, and rejects config
  values outside their domain (a non-positive or non-finite
  ``timeout_s`` would disarm every deadline on the job);
* **queue** — the disk-backed job queue survives restarts, requeues a
  crashed job exactly once, and terminates it with clean ``error``
  rows when the retry budget is spent;
* **HTTP end-to-end** — a submitted program round-trips through a
  worker process and its rows match a batch run byte-for-byte outside
  the volatile fields; a re-submitted program is answered
  synchronously from the store; an edited module re-verifies only its
  cone;
* **crash/retry** — a worker SIGKILLed mid-job is replaced and the job
  retried; a second kill yields well-formed error rows either way;
* **deadline flag** — a caller that cannot arm SIGALRM gets
  ``deadline_enforced: false`` on the row plus a one-time warning,
  instead of a silently unbounded run;
* **env/flag numerics** — garbage in ``REPRO_SERVE_WORKERS`` /
  ``REPRO_SERVE_PORT`` / ``--port`` exits 2 with a clear message;
* **solver flush** — buffered solver entries survive worker teardown,
  SIGTERM, and concurrent compaction.
"""

import json
import multiprocessing
import os
import signal
import threading
import time
import urllib.error
import urllib.request
import warnings
from dataclasses import asdict
from types import SimpleNamespace

import pytest

from repro.driver import backends
from repro.driver.__main__ import main as cli_main
from repro.driver.corpus import get_program
from repro.driver.report import (
    STATUS_COUNTEREXAMPLE,
    STATUS_ERROR,
    VOLATILE_ROW_FIELDS,
)
from repro.driver.runner import RunConfig, verify_source
from repro.serve import MAX_ATTEMPTS, JobQueue, ProtocolError, ServeApp
from repro.serve.app import make_server
from repro.serve.protocol import parse_verify_request
from repro.serve.workers import (
    WorkerPool,
    _Worker,
    job_run_config,
    worker_main,
)
from repro.smt.errors import Result
from repro.smt.terms import Eq, IntConst, Var
from repro.store import SolverStore
from repro.store.solver import flush_all_stores
from repro.store.verdicts import StoreKey, check_entries, get_store

CHAIN = get_program("modules-chain-div").source
TRIPLE = get_program("modules-triple-pipeline").source


def _stable(row: dict) -> dict:
    return {k: v for k, v in row.items() if k not in VOLATILE_ROW_FIELDS}


def _base_config(store_root: str) -> dict:
    base = asdict(RunConfig(timeout_s=60.0))
    base["store_dir"] = store_root
    return base


class _Server:
    """An in-process server on an ephemeral port, plus HTTP helpers."""

    def __init__(self, tmp_path, workers=2):
        self.root = str(tmp_path / "store")
        self.app = ServeApp(
            store_root=self.root,
            base_config=_base_config(self.root),
            workers=workers,
        )
        self.httpd = make_server(self.app)
        threading.Thread(
            target=self.httpd.serve_forever, daemon=True
        ).start()
        self.app.start()
        host, port = self.httpd.server_address[:2]
        self.url = f"http://{host}:{port}"

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.app.pool.drain(15)

    def request(self, path, body=None):
        if body is None:
            req = urllib.request.Request(self.url + path)
        else:
            req = urllib.request.Request(
                self.url + path,
                data=json.dumps(body).encode(),
                headers={"Content-Type": "application/json"},
            )
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.load(resp)
        except urllib.error.HTTPError as exc:
            return exc.code, json.load(exc)

    def wait_done(self, job_id, timeout=120.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            code, payload = self.request(f"/v1/jobs/{job_id}")
            assert code == 200
            if payload["job"]["state"] == "done":
                return payload["job"]
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} never finished")


@pytest.fixture
def server(tmp_path):
    srv = _Server(tmp_path)
    try:
        yield srv
    finally:
        srv.close()


class TestProtocol:
    def test_minimal_request_gets_defaults(self):
        req = parse_verify_request({"source": "(+ 1 2)"})
        assert req["name"] == "<request>"
        assert req["kind"] == "?"
        assert req["backend"] == "core"
        assert req["config"] == {}

    def test_missing_source_rejected(self):
        with pytest.raises(ProtocolError, match="source"):
            parse_verify_request({"name": "x"})

    def test_unknown_body_key_rejected(self):
        with pytest.raises(ProtocolError, match="sauce"):
            parse_verify_request({"source": "1", "sauce": "2"})

    def test_bad_backend_and_kind_rejected(self):
        with pytest.raises(ProtocolError, match="backend"):
            parse_verify_request({"source": "1", "backend": "gpu"})
        with pytest.raises(ProtocolError, match="kind"):
            parse_verify_request({"source": "1", "kind": "mystery"})

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ProtocolError, match="jobs"):
            # Orchestration knobs are forced server-side, not settable.
            parse_verify_request({"source": "1", "config": {"jobs": 4}})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ProtocolError, match="max_states"):
            parse_verify_request(
                {"source": "1", "config": {"max_states": True}}
            )

    @pytest.mark.parametrize("config, key", [
        ({"timeout_s": 0}, "timeout_s"),
        ({"timeout_s": -1.5}, "timeout_s"),
        ({"timeout_s": float("nan")}, "timeout_s"),
        ({"timeout_s": float("inf")}, "timeout_s"),
        ({"timeout_s": 10 ** 400}, "timeout_s"),
        ({"max_states": 0}, "max_states"),
        ({"fuel": -3}, "fuel"),
        ({"max_cex_attempts": -1}, "max_cex_attempts"),
    ])
    def test_out_of_domain_config_values_rejected(self, config, key):
        with pytest.raises(ProtocolError, match=key):
            parse_verify_request({"source": "1", "config": config})

    def test_in_domain_config_values_accepted(self):
        config = {"timeout_s": 0.5, "max_states": 1, "fuel": 1,
                  "max_cex_attempts": 0, "memo": False}
        req = parse_verify_request({"source": "1", "config": config})
        assert req["config"] == config

    def test_strategy_is_no_longer_a_config_key(self):
        with pytest.raises(ProtocolError, match="strategy"):
            parse_verify_request(
                {"source": "1", "config": {"strategy": "bfs"}}
            )

    def test_incremental_is_no_longer_a_config_key(self):
        with pytest.raises(ProtocolError, match="incremental"):
            parse_verify_request(
                {"source": "1", "config": {"incremental": False}}
            )

    def test_oversized_source_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            parse_verify_request({"source": "x" * ((1 << 20) + 1)})


class TestJobQueue:
    def test_lifecycle_and_persistence(self, tmp_path):
        q = JobQueue(str(tmp_path / "jobs"))
        job = q.submit({"source": "(+ 1 2)", "name": "p", "kind": "?",
                        "backend": "core", "config": {}})
        assert job.state == "queued"
        assert os.path.exists(os.path.join(q.root, f"{job.id}.json"))
        claimed = q.claim()
        assert claimed.id == job.id and claimed.attempts == 1
        q.complete(job.id, [{"status": "safe"}])
        got = q.get(job.id)
        assert got.state == "done" and got.rows == [{"status": "safe"}]
        with open(os.path.join(q.root, f"{job.id}.json")) as fh:
            assert json.load(fh)["state"] == "done"

    def test_crash_requeues_once_then_errors(self, tmp_path):
        q = JobQueue(str(tmp_path / "jobs"))
        job = q.submit({"source": "(+ 1 2)", "name": "p", "kind": "?",
                        "backend": "both", "config": {}})
        q.claim()
        assert q.crash(job.id, detail="kill 1") == "requeued"
        assert q.get(job.id).state == "queued"
        q.claim()
        assert q.get(job.id).attempts == MAX_ATTEMPTS
        assert q.crash(job.id, detail="kill 2") == "errored"
        done = q.get(job.id)
        assert done.state == "done"
        # One clean error row per engine of the "both" selection.
        assert [r["backend"] for r in done.rows] == ["core", "scv"]
        assert all(r["status"] == STATUS_ERROR for r in done.rows)
        # Crashing a finished job is ignored, not double-counted.
        assert q.crash(job.id, detail="late") == "ignored"

    def test_recover_requeues_running_and_keeps_order(self, tmp_path):
        root = str(tmp_path / "jobs")
        q = JobQueue(root)
        first = q.submit({"source": "1", "name": "a", "kind": "?",
                          "backend": "core", "config": {}})
        second = q.submit({"source": "2", "name": "b", "kind": "?",
                           "backend": "core", "config": {}})
        q.claim()  # first goes running; pretend the server dies here
        q2 = JobQueue(root)
        summary = q2.recover()
        assert summary == {"recovered": 2, "requeued": 1, "errored": 0}
        # The interrupted job already spent attempt 1; it retries first.
        assert q2.claim().id == first.id
        assert q2.claim().id == second.id

    def test_recover_errors_job_out_of_retries(self, tmp_path):
        root = str(tmp_path / "jobs")
        q = JobQueue(root)
        job = q.submit({"source": "1", "name": "a", "kind": "?",
                        "backend": "scv", "config": {}})
        q.claim()
        q.crash(job.id, detail="kill 1")
        q.claim()  # attempts == MAX_ATTEMPTS, running again
        q2 = JobQueue(root)
        summary = q2.recover()
        assert summary["errored"] == 1
        done = q2.get(job.id)
        assert done.state == "done"
        assert done.rows[0]["status"] == STATUS_ERROR


class TestServeHTTP:
    def test_cold_job_matches_batch_run(self, server, tmp_path):
        code, resp = server.request(
            "/v1/verify",
            {"source": CHAIN, "name": "chain", "kind": "buggy",
             "backend": "scv"},
        )
        assert code == 202 and resp["job"]["state"] == "queued"
        job = server.wait_done(resp["job"]["id"])
        assert not job["warm"]
        (row,) = job["rows"]
        assert row["status"] == STATUS_COUNTEREXAMPLE
        batch = verify_source(
            CHAIN, name="chain", kind="buggy",
            config=RunConfig(timeout_s=60.0,
                             store_dir=str(tmp_path / "batch-store")),
            backend="scv",
        )
        assert _stable(row) == _stable(asdict(batch))

    def test_resubmission_is_warm_and_synchronous(self, server):
        body = {"source": CHAIN, "name": "chain", "backend": "scv"}
        cold = server.wait_done(
            server.request("/v1/verify", body)[1]["job"]["id"]
        )
        code, resp = server.request("/v1/verify", body)
        assert code == 200  # answered in the POST, no queueing
        warm = resp["job"]
        assert warm["state"] == "done" and warm["warm"]
        (row,) = warm["rows"]
        assert row["store_hits"] == 2 and row["store_misses"] == 0
        assert row["modules_reverified"] == 0
        assert _stable(row) == _stable(cold["rows"][0])

    def test_edited_module_reverifies_only_its_cone(self, server):
        server.wait_done(server.request(
            "/v1/verify", {"source": TRIPLE, "backend": "scv"}
        )[1]["job"]["id"])
        edited = TRIPLE.replace("(dec (dec n))", "(dec (dec (dec n)))")
        job = server.wait_done(server.request(
            "/v1/verify", {"source": edited, "backend": "scv"}
        )[1]["job"]["id"])
        (row,) = job["rows"]
        # m1 replays from the store; only m2 and m3 recompute.
        assert row["store_hits"] == 1
        assert row["modules_reverified"] == 2

    def test_concurrent_jobs_share_the_store_cleanly(self, server):
        ids = [
            server.request("/v1/verify", body)[1]["job"]["id"]
            for body in (
                {"source": CHAIN, "backend": "both"},
                {"source": TRIPLE, "backend": "scv"},
            )
        ]
        jobs = [server.wait_done(jid) for jid in ids]
        assert [len(j["rows"]) for j in jobs] == [2, 1]
        # Two workers published shards concurrently: nothing corrupted.
        outcome = check_entries(get_store(server.root))
        assert outcome["checked"] > 0
        assert outcome["matched"] == outcome["checked"]

    def test_bad_requests_get_clean_errors(self, server):
        code, resp = server.request("/v1/verify", {"nope": 1})
        assert code == 400 and "source" in resp["error"]
        code, resp = server.request(
            "/v1/verify", {"source": "1", "config": {"timeout_s": 0}})
        assert code == 400 and "timeout_s" in resp["error"]
        assert server.request("/v1/jobs/deadbeef")[0] == 404
        assert server.request("/v1/nonsense")[0] == 404
        code, resp = server.request("/v1/results/abc")
        assert code == 400  # digest prefix too short

    def test_mode_config_key_gets_400(self, server):
        # The heap translation has one form (Fig. 4's implications), so
        # there is no translation-mode key to override.
        code, resp = server.request(
            "/v1/verify", {"source": "1", "config": {"mode": "euf"}})
        assert code == 400 and "'mode'" in resp["error"]

    def test_healthz_stats_and_results(self, server):
        code, health = server.request("/v1/healthz")
        assert code == 200 and health["ok"]
        assert health["workers_alive"] == 2
        server.wait_done(server.request(
            "/v1/verify", {"source": CHAIN, "backend": "scv"}
        )[1]["job"]["id"])
        entry = os.path.basename(get_store(server.root).entry_paths()[0])
        prefix = entry[:12]
        code, resp = server.request(f"/v1/results/{prefix}")
        assert code == 200 and len(resp["matches"]) >= 1
        assert resp["matches"][0]["result"]["status"]
        stats = server.request("/v1/stats")[1]
        assert stats["queue"]["done"] == 1
        assert stats["workers"]["alive"] == 2


class TestDigestIndex:
    """``GET /v1/results/<digest>`` filters entry file names, which are
    ``<program digest>-<key hash>.json``; the answers must be identical
    to a scan that opens every entry and reads its key."""

    @staticmethod
    def _populate(store_dir: str) -> None:
        cfg = RunConfig(timeout_s=60.0, store_dir=store_dir)
        verify_source(CHAIN, name="chain", kind="buggy",
                      config=cfg, backend="scv")
        verify_source(TRIPLE, name="triple", kind="?",
                      config=cfg, backend="scv")

    @staticmethod
    def _key_of(path: str) -> StoreKey:
        with open(path, encoding="utf-8") as fh:
            return StoreKey(**json.load(fh)["key"])

    @classmethod
    def _linear_scan(cls, store, prefix: str) -> list:
        paths = []
        for path in store.entry_paths():
            key = cls._key_of(path)
            entry = key.path_name().partition("-")[2]
            if key.program.startswith(prefix) or entry.startswith(prefix):
                paths.append(path)
        return paths

    def test_index_answers_match_a_linear_scan(self, tmp_path,
                                               monkeypatch):
        store_dir = str(tmp_path / "store")
        self._populate(store_dir)
        store = get_store(store_dir)
        key = self._key_of(store.entry_paths()[0])
        # A program-digest prefix, and a key-hash prefix.
        prefixes = (key.program[:12], key.path_name().partition("-")[2][:12])
        wants = [self._linear_scan(store, p) for p in prefixes]
        assert all(wants)  # each prefix matches something

        def no_open(*args, **kwargs):
            raise AssertionError("an entry file was opened")

        monkeypatch.setattr("builtins.open", no_open)
        assert [store.paths_for_digest(p) for p in prefixes] == wants

    def test_deleted_entry_is_not_found(self, tmp_path):
        store_dir = str(tmp_path / "store")
        self._populate(store_dir)
        store = get_store(store_dir)
        victim = store.entry_paths()[0]
        digest = self._key_of(victim).program[:12]
        assert victim in store.paths_for_digest(digest)
        os.unlink(victim)
        got = store.paths_for_digest(digest)
        assert victim not in got
        assert got == self._linear_scan(store, digest)

    def test_results_endpoint_reports_the_key_hash(self, server):
        server.wait_done(server.request(
            "/v1/verify", {"source": CHAIN, "backend": "scv"}
        )[1]["job"]["id"])
        store = get_store(server.root)
        key = self._key_of(store.entry_paths()[0])
        entry = key.path_name().partition("-")[2]
        code, by_digest = server.request(f"/v1/results/{key.program[:12]}")
        assert code == 200
        assert entry in [m["entry"] for m in by_digest["matches"]]
        code, by_entry = server.request(f"/v1/results/{entry[:12]}")
        assert code == 200
        assert [m["entry"] for m in by_entry["matches"]] == [entry]
        assert by_entry["matches"][0]["key"] == key.as_dict()


class TestCrashRetry:
    @staticmethod
    def _patched_server(tmp_path, monkeypatch, run_job_fn):
        # Workers are forked, so patching the parent's module before
        # the pool starts patches every worker (and every respawn).
        from repro.serve import workers as workers_mod

        monkeypatch.setattr(workers_mod, "run_job", run_job_fn)
        return _Server(tmp_path, workers=1)

    @staticmethod
    def _wait_busy(srv, timeout=30.0):
        # A just-killed worker lingers in the pool map until the manager
        # reaps it, so insist on busy AND alive to find the new one.
        deadline = time.time() + timeout
        while time.time() < deadline:
            for w in srv.app.pool.stats()["workers"]:
                if w["busy"] and w["alive"]:
                    return w["pid"]
            time.sleep(0.02)
        raise AssertionError("no worker ever went busy")

    @staticmethod
    def _wait_file(path, timeout=30.0):
        deadline = time.time() + timeout
        while not os.path.exists(path):
            if time.time() > deadline:
                raise AssertionError(f"{path} never appeared")
            time.sleep(0.02)

    def test_killed_worker_retries_once_and_succeeds(
        self, tmp_path, monkeypatch
    ):
        from repro.driver.runner import run_job as real_run_job

        flag = str(tmp_path / "first-attempt-done")

        def flaky(source, **kw):
            if not os.path.exists(flag):
                open(flag, "w").close()
                time.sleep(300)  # hold the job until the test kills us
            return real_run_job(source, **kw)

        srv = self._patched_server(tmp_path, monkeypatch, flaky)
        try:
            code, resp = srv.request(
                "/v1/verify", {"source": CHAIN, "backend": "scv"}
            )
            assert code == 202
            pid = self._wait_busy(srv)
            # A worker is marked busy when the job is dispatched, before
            # it dequeues the task: kill it only once the first attempt
            # is inside ``flaky``, or the retry would find no flag and
            # hold the job itself.
            self._wait_file(flag)
            os.kill(pid, signal.SIGKILL)
            job = srv.wait_done(resp["job"]["id"])
            assert job["attempts"] == 2
            assert "retrying" in job["detail"]
            # The retry produced a real verdict, not an error row.
            assert job["rows"][0]["status"] == STATUS_COUNTEREXAMPLE
            assert srv.app.pool.stats()["jobs_requeued"] == 1
            assert srv.app.pool.stats()["workers_replaced"] >= 1
        finally:
            srv.close()

    def test_killed_twice_terminates_with_error_rows(
        self, tmp_path, monkeypatch
    ):
        def hang(source, **kw):
            time.sleep(300)

        srv = self._patched_server(tmp_path, monkeypatch, hang)
        try:
            code, resp = srv.request(
                "/v1/verify", {"source": CHAIN, "backend": "both"}
            )
            assert code == 202
            for _ in range(MAX_ATTEMPTS):
                os.kill(self._wait_busy(srv), signal.SIGKILL)
                time.sleep(0.2)
            job = srv.wait_done(resp["job"]["id"])
            assert job["attempts"] == MAX_ATTEMPTS
            assert [r["backend"] for r in job["rows"]] == ["core", "scv"]
            assert all(r["status"] == STATUS_ERROR for r in job["rows"])
            assert "retry budget" in job["rows"][0]["detail"]
        finally:
            srv.close()

    def test_drain_persists_queued_jobs(self, tmp_path, monkeypatch):
        def hang(source, **kw):
            time.sleep(300)

        srv = self._patched_server(tmp_path, monkeypatch, hang)
        running = srv.request(
            "/v1/verify", {"source": CHAIN, "backend": "scv"}
        )[1]["job"]["id"]
        queued = srv.request(
            "/v1/verify", {"source": TRIPLE, "backend": "scv"}
        )[1]["job"]["id"]
        self._wait_busy(srv)
        srv.httpd.shutdown()
        srv.httpd.server_close()
        srv.app.pool.drain(1.0)  # too short: escalates to SIGTERM
        # A fresh queue on the same directory sees both jobs: the
        # queued one untouched, the interrupted one requeued.
        q2 = JobQueue(os.path.join(srv.root, "jobs"))
        q2.recover()
        states = {jid: q2.get(jid).state for jid in (running, queued)}
        assert states[queued] == "queued"
        assert states[running] in ("queued", "done")


class TestDeadlineBackstop:
    @pytest.mark.parametrize("program, backend, units", [
        ("modules-triple-pipeline", "scv", 3),   # one unit per module
        ("modules-triple-pipeline", "both", 4),  # core runs it whole
        ("modules-chain-div", "core", 1),
    ])
    def test_job_gets_one_budget_per_unit(self, tmp_path, program,
                                          backend, units):
        # ``timeout_s`` bounds each unit, so the parent-side SIGKILL
        # must wait for every unit of every engine the job runs.
        jobs = JobQueue(str(tmp_path / "jobs"))
        jobs.submit(parse_verify_request({
            "source": get_program(program).source, "backend": backend,
            "config": {"timeout_s": 10.0},
        }))
        pool = WorkerPool(jobs, size=1, base_config=asdict(RunConfig()),
                          store_root=str(tmp_path / "store"), grace_s=0.0)
        idle = _Worker(
            proc=SimpleNamespace(is_alive=lambda: True, pid=None),
            task_q=SimpleNamespace(put=lambda task: None),
        )
        pool._workers[0] = idle
        before = time.time()
        pool._dispatch()
        assert idle.job_id is not None
        budget = units * 10.0
        assert before + budget <= idle.deadline <= time.time() + budget


class TestDeadlineFlag:
    SRC = "(define (f x) (+ x 1))\n(f 2)"

    def test_threaded_caller_is_flagged_and_warned_once(self, monkeypatch):
        monkeypatch.setattr(backends, "_deadline_warned", False)
        rows = []

        def run():
            rows.append(verify_source(
                self.SRC, config=RunConfig(timeout_s=30.0), backend="core"
            ))

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):
                t = threading.Thread(target=run)
                t.start()
                t.join()
        assert all(r.deadline_enforced is False for r in rows)
        assert all(r.status for r in rows)  # the run itself still works
        deadline_warnings = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "deadline" in str(w.message)
        ]
        assert len(deadline_warnings) == 1  # one-time, not per-program

    def test_main_thread_is_enforced(self):
        r = verify_source(
            self.SRC, config=RunConfig(timeout_s=30.0), backend="core"
        )
        assert r.deadline_enforced is True

    def test_flag_is_volatile_for_differentials(self):
        # Warm/cold and threaded/process runs may disagree on this
        # field; differential comparisons must not.
        assert "deadline_enforced" in VOLATILE_ROW_FIELDS


class TestEnvNumerics:
    def test_garbage_serve_workers_env_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "abc")
        with pytest.raises(SystemExit) as exc:
            cli_main(["serve"])
        assert exc.value.code == 2
        assert "REPRO_SERVE_WORKERS" in capsys.readouterr().err

    def test_garbage_port_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["serve", "--port", "abc"])
        assert exc.value.code == 2
        assert "--port" in capsys.readouterr().err

    def test_garbage_serve_port_env_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SERVE_PORT", "xyz")
        with pytest.raises(SystemExit) as exc:
            cli_main(["serve"])
        assert exc.value.code == 2
        assert "REPRO_SERVE_PORT" in capsys.readouterr().err


def _phi(i: int):
    return Eq(Var("$0"), IntConst(i))


def _buffer_then_sleep(root: str, ready: str) -> None:
    # Child for the SIGTERM test: solve (well, buffer) and never flush.
    from repro.serve.workers import _flush_and_exit

    signal.signal(signal.SIGTERM, _flush_and_exit)
    store = SolverStore(root)
    store.store(_phi(7), Result.SAT, ((0, 7),))
    open(ready, "w").close()
    time.sleep(300)


def _write_entries(root: str, n: int) -> None:
    store = SolverStore(root)
    for i in range(n):
        store.store(_phi(i), Result.SAT, ((0, i),))
        store.flush()


class TestSolverFlush:
    def test_flush_all_stores_publishes_every_buffer(self, tmp_path):
        a = SolverStore(str(tmp_path / "a"))
        b = SolverStore(str(tmp_path / "b"))
        a.store(_phi(1), Result.SAT, ((0, 1),))
        b.store(_phi(2), Result.UNSAT, None)
        assert flush_all_stores() >= 2
        assert SolverStore(str(tmp_path / "a")).lookup(_phi(1)) is not None
        assert SolverStore(str(tmp_path / "b")).lookup(_phi(2)) is not None

    def test_sigterm_after_solve_still_publishes(self, tmp_path):
        # The killed-after-solve regression: a worker terminated between
        # solving and flushing must not lose its entries.
        root = str(tmp_path / "solver")
        ready = str(tmp_path / "ready")
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_buffer_then_sleep, args=(root, ready))
        proc.start()
        deadline = time.time() + 30
        while not os.path.exists(ready) and time.time() < deadline:
            time.sleep(0.02)
        assert os.path.exists(ready)
        proc.terminate()  # SIGTERM — the flush handler must run
        proc.join(10)
        assert proc.exitcode == 0
        assert SolverStore(root).lookup(_phi(7)) is not None

    def test_worker_main_flushes_after_each_job(self, tmp_path):
        root = str(tmp_path / "store")
        ctx = multiprocessing.get_context("fork")
        task_q, result_q = ctx.SimpleQueue(), ctx.Queue()
        cfg = job_run_config(_base_config(root), {}, root)
        task_q.put({"job": "j1", "source": CHAIN, "name": "c",
                    "kind": "buggy", "backend": "scv", "config": cfg})
        task_q.put(None)
        proc = ctx.Process(target=worker_main, args=(0, task_q, result_q))
        proc.start()
        _wid, jid, rows = result_q.get(timeout=180)
        proc.join(30)
        assert jid == "j1"
        assert rows[0]["status"] == STATUS_COUNTEREXAMPLE
        # The job's solver entries hit the shard directory before the
        # result was even reported.
        assert get_store(root).solver.stats()["entries"] > 0

    def test_compaction_races_a_live_writer(self, tmp_path):
        root = str(tmp_path / "solver")
        n = 40
        ctx = multiprocessing.get_context("fork")
        writer = ctx.Process(target=_write_entries, args=(root, n))
        compactor = SolverStore(root)
        writer.start()
        while writer.is_alive():
            compactor.compact()
            time.sleep(0.01)
        writer.join(10)
        compactor.compact()
        final = SolverStore(root)
        for i in range(n):
            assert final.lookup(_phi(i)) is not None, i

    def test_gc_races_a_live_verifier(self, tmp_path):
        store_dir = str(tmp_path / "store")
        ctx = multiprocessing.get_context("fork")

        def _verify():
            verify_source(
                TRIPLE,
                config=RunConfig(timeout_s=60.0, store_dir=store_dir),
                backend="scv",
            )

        writer = ctx.Process(target=_verify)
        writer.start()
        vs = get_store(store_dir)
        while writer.is_alive():
            vs.gc()
            time.sleep(0.01)
        writer.join(10)
        assert writer.exitcode == 0
        # Whatever landed is intact, and a warm replay works end to end.
        outcome = check_entries(get_store(store_dir))
        assert outcome["matched"] == outcome["checked"]
        r = verify_source(
            TRIPLE,
            config=RunConfig(timeout_s=60.0, store_dir=store_dir),
            backend="scv",
        )
        assert r.status and r.store_misses == 0
