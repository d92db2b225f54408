"""The HTTP/JSON face of ``repro serve``.

A stdlib-only server (``http.server.ThreadingHTTPServer`` — handler
threads do I/O and store reads; verification always happens in worker
*processes*, see :mod:`repro.serve.workers`) over a shared persistent
store directory.  Endpoints (full reference: docs/SERVER.md):

* ``POST /v1/verify`` — submit a program.  When every verification
  unit of the request is already in the verdict store, the job is
  answered *synchronously* from the store (``warm: true`` — a pure
  replay, no worker round-trip, byte-identical rows to a batch run);
  otherwise the job is queued and the response carries its id;
* ``GET /v1/jobs/<id>`` — job status + (once done) its
  ``repro-bench/v9`` result rows; ``GET /v1/jobs`` lists summaries;
* ``GET /v1/results/<digest>`` — stored verdict entries by program
  digest (or entry-hash prefix), straight from the store;
* ``GET /v1/healthz`` — liveness (503 once every worker is gone);
* ``GET /v1/stats`` — queue depth, worker liveness, store economy.

Graceful drain: SIGTERM (or SIGINT) stops accepting requests, lets
in-flight jobs finish, flushes solver buffers, and leaves still-queued
jobs persisted for the next server instance to recover.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from ..driver.backends import RunConfig
from ..driver.runner import expand_backends
from ..store import get_store, try_replay
from ..store.solver import flush_all_stores
from ..store.verdicts import split_entry_name
from .protocol import (
    API_VERSION,
    MAX_SOURCE_BYTES,
    ProtocolError,
    job_summary,
    job_view,
    parse_verify_request,
)
from .queue import JobQueue
from .workers import WorkerPool, job_run_config

#: Smallest accepted ``/v1/results/<digest>`` prefix (hex chars).
MIN_DIGEST_PREFIX = 8


class ServeApp:
    """Everything behind the HTTP handler: queue, pool, store, stats."""

    def __init__(
        self,
        *,
        store_root: str,
        base_config: dict,
        workers: int = 2,
    ) -> None:
        self.store_root = store_root
        os.makedirs(store_root, exist_ok=True)
        self.base_config = dict(base_config)
        self.store = get_store(store_root)
        self.queue = JobQueue(os.path.join(store_root, "jobs"))
        self.recovered = self.queue.recover()
        self.pool = WorkerPool(
            self.queue,
            size=workers,
            base_config=self.base_config,
            store_root=store_root,
        )
        self.started = time.time()
        self.warm_answers = 0
        self._warm_lock = threading.Lock()

    def start(self) -> None:
        self.pool.start()

    # -- request handling ------------------------------------------------

    def submit(self, body) -> tuple[dict, bool]:
        """Validate and submit a verify request.  Returns ``(job_view,
        warm)`` — warm requests are answered synchronously."""
        request = parse_verify_request(body)
        warm_rows = self._replay_all(request)
        job = self.queue.submit(request, warm_rows=warm_rows)
        if warm_rows is not None:
            with self._warm_lock:
                self.warm_answers += 1
        return job_view(job), warm_rows is not None

    def _replay_all(self, request: dict) -> Optional[list]:
        """Rows for the whole request purely from the store, or None.

        The config is resolved exactly as a worker would resolve it
        (``job_run_config``), so the store keys probed here are the
        keys a recompute would write — warm means *actually* warm."""
        cfg = RunConfig(**job_run_config(
            self.base_config, request["config"], self.store_root
        ))
        rows = []
        for engine in expand_backends(request["backend"]):
            row = try_replay(
                request["source"],
                name=request["name"],
                kind=request["kind"],
                config=cfg,
                backend=engine,
            )
            if row is None:
                return None
            rows.append(asdict(row))
        return rows

    def job(self, job_id: str) -> Optional[dict]:
        job = self.queue.get(job_id)
        return None if job is None else job_view(job)

    def job_list(self) -> dict:
        return {
            "api": API_VERSION,
            "jobs": [job_summary(j) for j in self.queue.jobs()],
        }

    def results_for(self, digest: str) -> dict:
        """Stored verdict entries whose program digest — or key hash —
        starts with ``digest``.  An entry's file name is
        ``<program digest>-<key hash>.json``, so only the matching entry
        files are opened; a match's ``entry`` is its key hash."""
        if len(digest) < MIN_DIGEST_PREFIX or not all(
            c in "0123456789abcdef" for c in digest
        ):
            raise ProtocolError(
                f"digest must be >= {MIN_DIGEST_PREFIX} hex characters"
            )
        matches = []
        for path in self.store.paths_for_digest(digest):
            try:
                with open(path, encoding="utf-8") as fh:
                    entry = json.load(fh)
                key = entry["key"]
                result = entry["result"]
            except (OSError, json.JSONDecodeError, KeyError, TypeError):
                continue
            matches.append({
                "entry": split_entry_name(path)[1],
                "key": key,
                "name": entry.get("name"),
                "kind": entry.get("kind"),
                "created": entry.get("created"),
                "result": result,
            })
        return {"api": API_VERSION, "digest": digest, "matches": matches}

    # -- health ----------------------------------------------------------

    def healthz(self) -> tuple[int, dict]:
        pool = self.pool.stats()
        ok = pool["alive"] > 0
        return (200 if ok else 503), {
            "api": API_VERSION,
            "ok": ok,
            "workers_alive": pool["alive"],
            "queue_depth": self.queue.depth(),
        }

    def stats(self) -> dict:
        store_hits = store_misses = 0
        for j in self.queue.jobs():
            for row in j.rows or []:
                store_hits += row.get("store_hits", 0)
                store_misses += row.get("store_misses", 0)
        lookups = store_hits + store_misses
        return {
            "api": API_VERSION,
            "uptime_s": round(time.time() - self.started, 3),
            "store_root": self.store_root,
            "queue": self.queue.counts(),
            "queue_depth": self.queue.depth(),
            "workers": self.pool.stats(),
            "warm_answers": self.warm_answers,
            "recovered_jobs": self.recovered,
            "store": {
                "unit_hits": store_hits,
                "unit_misses": store_misses,
                "hit_rate": (
                    round(store_hits / lookups, 4) if lookups else None
                ),
            },
        }


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON routing over one :class:`ServeApp` (set per server)."""

    app: ServeApp  # installed by make_server
    quiet = True
    protocol_version = "HTTP/1.1"

    # -- plumbing --------------------------------------------------------

    def log_message(self, fmt, *args):  # noqa: A003 — stdlib signature
        if not self.quiet:
            super().log_message(fmt, *args)

    def _json(self, code: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._json(code, {"api": API_VERSION, "error": message})

    def _read_body(self):
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise ProtocolError("invalid Content-Length") from None
        if length <= 0:
            raise ProtocolError("request body required")
        if length > 2 * MAX_SOURCE_BYTES:
            raise ProtocolError("request body too large")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"invalid JSON body: {exc}") from None

    # -- routes ----------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        if self.path.rstrip("/") != "/v1/verify":
            self._error(404, f"no such endpoint: POST {self.path}")
            return
        try:
            view, warm = self.app.submit(self._read_body())
        except ProtocolError as exc:
            self._error(400, str(exc))
            return
        except Exception as exc:  # noqa: BLE001 — a 500 beats a hang
            self._error(500, f"{type(exc).__name__}: {exc}")
            return
        self._json(200 if warm else 202, {"api": API_VERSION, "job": view})

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/v1/healthz":
                code, payload = self.app.healthz()
                self._json(code, payload)
            elif path == "/v1/stats":
                self._json(200, self.app.stats())
            elif path == "/v1/jobs":
                self._json(200, self.app.job_list())
            elif path.startswith("/v1/jobs/"):
                view = self.app.job(path[len("/v1/jobs/"):])
                if view is None:
                    self._error(404, "no such job")
                else:
                    self._json(200, {"api": API_VERSION, "job": view})
            elif path.startswith("/v1/results/"):
                try:
                    self._json(
                        200, self.app.results_for(path[len("/v1/results/"):])
                    )
                except ProtocolError as exc:
                    self._error(400, str(exc))
            else:
                self._error(404, f"no such endpoint: GET {path}")
        except Exception as exc:  # noqa: BLE001 — a 500 beats a hang
            self._error(500, f"{type(exc).__name__}: {exc}")


def make_server(
    app: ServeApp, host: str = "127.0.0.1", port: int = 0,
    *, quiet: bool = True,
) -> ThreadingHTTPServer:
    """A ready-to-serve HTTP server bound to ``host:port`` (port 0 for
    an ephemeral port — ``server.server_address`` has the real one)."""
    handler = type("_BoundHandler", (_Handler,), {"app": app, "quiet": quiet})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def run_serve(
    *,
    host: str,
    port: int,
    workers: int,
    store_root: str,
    base_config: dict,
    drain_timeout_s: float = 60.0,
    quiet: bool = False,
) -> int:
    """The ``repro serve`` entry point: start the pool, serve until
    SIGTERM/SIGINT, drain gracefully, exit 0."""
    app = ServeApp(
        store_root=store_root, base_config=base_config, workers=workers
    )
    server = make_server(app, host, port, quiet=quiet)
    app.start()

    def _shutdown(signum, frame):
        # serve_forever() must be stopped from another thread (it joins
        # its own poll loop); the handler only kicks that off.
        threading.Thread(target=server.shutdown, daemon=True).start()

    old_term = signal.signal(signal.SIGTERM, _shutdown)
    old_int = signal.signal(signal.SIGINT, _shutdown)
    bound_host, bound_port = server.server_address[:2]
    print(
        f"repro serve: listening on http://{bound_host}:{bound_port} "
        f"({workers} workers, store {store_root!r}, "
        f"{app.recovered['recovered']} jobs recovered)",
        flush=True,
    )
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        signal.signal(signal.SIGTERM, old_term)
        signal.signal(signal.SIGINT, old_int)
        server.server_close()
        print("repro serve: draining workers…", flush=True)
        clean = app.pool.drain(drain_timeout_s)
        flush_all_stores()
        depth = app.queue.depth()
        print(
            f"repro serve: drained ({'clean' if clean else 'escalated'}); "
            f"{depth} queued job(s) left persisted", flush=True,
        )
    return 0
