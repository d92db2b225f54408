"""The process-based worker pool of ``repro serve``.

Jobs run in worker *processes*, not threads, for one load-bearing
reason: the per-program wall-clock budget is enforced with ``SIGALRM``
(:mod:`repro.driver.backends`), which only arms in a process's main
thread.  A thread pool would silently run every job unbounded (the
exact failure mode the ``deadline_enforced`` row flag was added to
expose); a process pool keeps the batch runner's deadline semantics
bit-for-bit.

Each worker owns a private task queue (so the parent always knows which
job a dead worker was holding — crash attribution needs no guessing)
and reports on one shared result queue.  A single manager thread runs
the whole control loop: collect results, detect dead workers (requeue
the job once, then let the queue emit clean ``error`` rows), enforce a
parent-side deadline backstop (``SIGKILL`` a worker stuck past its
job's budget, one ``timeout_s`` per unit of each engine's plan plus a
grace — the in-worker ``SIGALRM`` is the primary mechanism, the
backstop catches a wedged worker that lost its alarm), replace dead
workers, and dispatch pending jobs to idle ones.

Solver-store flushing (the crash-loss fix this PR ships): a worker
flushes every live :class:`~repro.store.solver.SolverStore` buffer
*after each job* and again in its ``finally`` teardown, and installs a
``SIGTERM`` handler that flushes before exiting — so entries solved by
a worker that is drained, terminated, or killed between jobs always
reach the shard directory.  Only a hard ``SIGKILL`` mid-verification
can drop (that verification's) buffered entries, and those re-solve on
retry.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as stdlib_queue
import signal
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

from ..driver.backends import RunConfig
from ..driver.runner import expand_backends, run_job
from ..driver.units import plan_units
from ..store.solver import flush_all_stores
from .queue import JobQueue, error_rows

#: Seconds of slack on top of a job's own wall-clock budget before the
#: parent-side backstop kills the worker (result assembly, synthesis
#: and store writes run outside the SIGALRM window and need headroom).
DEADLINE_GRACE_S = 15.0

#: Manager poll interval (result-queue wait doubles as the tick).
_POLL_S = 0.1


def job_run_config(
    base_fields: dict, overrides: dict, store_root: str
) -> dict:
    """The effective ``RunConfig`` fields for one job: the server's
    defaults, the request's whitelisted overrides, and the forced
    orchestration knobs.  Used identically by the warm-path probe and
    the worker, so a warm replay and a recompute share one config
    digest — the warm-path guarantee depends on this."""
    return {
        **base_fields,
        **overrides,
        # The serve pool is already one process per job.
        "jobs": 1,
        "store_dir": store_root,
    }


def _flush_and_exit(signum, frame):
    # SIGTERM (drain escalation, parent teardown): publish buffered
    # solver entries, then die immediately.  ``os._exit`` on purpose —
    # the process may be mid-job and its Python state unreliable; the
    # parent treats the exit as a crash and handles the job.
    flush_all_stores()
    os._exit(0)


def worker_main(worker_id: int, task_q, result_q) -> None:
    """One worker process: loop over tasks until the ``None`` sentinel.

    Every task runs in this process's *main thread*, so the SIGALRM
    deadline machinery works exactly as in the batch runner.  A task
    that raises anything still produces well-formed ``error`` rows —
    workers only die by signal (or interpreter catastrophe), which the
    parent's crash handling covers."""
    signal.signal(signal.SIGTERM, _flush_and_exit)
    try:
        while True:
            task = task_q.get()
            if task is None:
                break
            job_id = task["job"]
            try:
                rows = [
                    asdict(r) for r in run_job(
                        task["source"],
                        name=task["name"],
                        kind=task["kind"],
                        config=RunConfig(**task["config"]),
                        backend=task["backend"],
                    )
                ]
            except BaseException as exc:  # noqa: BLE001 — must answer
                rows = error_rows(
                    task["name"], task["kind"], task["backend"],
                    f"worker exception: {type(exc).__name__}: {exc}",
                )
            # Server-job-completion flush: the job's solver entries are
            # on disk before the result is even reported, so a worker
            # killed *between* jobs loses nothing.
            flush_all_stores()
            result_q.put((worker_id, job_id, rows))
    finally:
        flush_all_stores()


@dataclass
class _Worker:
    proc: mp.process.BaseProcess
    task_q: object
    job_id: Optional[str] = None
    deadline: Optional[float] = None
    sentineled: bool = False
    jobs_done: int = 0
    started: float = field(default_factory=time.time)


class WorkerPool:
    """A fixed-size pool of worker processes fed from a
    :class:`~repro.serve.queue.JobQueue` (see the module docstring)."""

    def __init__(
        self,
        job_queue: JobQueue,
        *,
        size: int,
        base_config: dict,
        store_root: str,
        grace_s: float = DEADLINE_GRACE_S,
    ) -> None:
        self.jobs = job_queue
        self.size = max(1, size)
        self.base_config = dict(base_config)
        self.store_root = store_root
        self.grace_s = grace_s
        self._ctx = mp.get_context()
        self._result_q = self._ctx.Queue()
        self._workers: dict[int, _Worker] = {}
        self._next_id = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._manager: Optional[threading.Thread] = None
        self.jobs_completed = 0
        self.jobs_requeued = 0
        self.jobs_errored = 0
        self.workers_replaced = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        with self._lock:
            for _ in range(self.size):
                self._spawn_locked()
        self._manager = threading.Thread(
            target=self._manage, name="repro-serve-manager", daemon=True
        )
        self._manager.start()

    def _spawn_locked(self) -> None:
        wid = self._next_id
        self._next_id += 1
        task_q = self._ctx.SimpleQueue()
        proc = self._ctx.Process(
            target=worker_main,
            args=(wid, task_q, self._result_q),
            name=f"repro-serve-worker-{wid}",
            daemon=True,
        )
        proc.start()
        self._workers[wid] = _Worker(proc=proc, task_q=task_q)

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Graceful shutdown: finish in-flight jobs (queued ones stay
        persisted for the next server), then stop every worker.  After
        ``timeout_s`` stragglers are escalated SIGTERM → SIGKILL; the
        SIGTERM flush handler still publishes their solver buffers.
        Returns True when everything exited within the budget."""
        self._stop.set()
        deadline = time.time() + timeout_s
        if self._manager is not None:
            self._manager.join(max(0.0, deadline - time.time()))
        clean = True
        with self._lock:
            workers = list(self._workers.values())
        for w in workers:
            w.proc.join(max(0.1, deadline - time.time()))
            if w.proc.is_alive():
                clean = False
                w.proc.terminate()  # SIGTERM: flush handler runs
                w.proc.join(2.0)
                if w.proc.is_alive():
                    w.proc.kill()
                    w.proc.join(1.0)
            if w.job_id is not None:
                self.jobs.crash(
                    w.job_id, detail="server shut down while running"
                )
        return clean

    # -- the manager loop ------------------------------------------------

    def _manage(self) -> None:
        while True:
            try:
                msg = self._result_q.get(timeout=_POLL_S)
            except stdlib_queue.Empty:
                msg = None
            if msg is not None:
                self._on_result(*msg)
                # Opportunistically drain the rest without waiting.
                while True:
                    try:
                        self._on_result(*self._result_q.get_nowait())
                    except stdlib_queue.Empty:
                        break
            self._reap_and_replace()
            self._enforce_deadlines()
            if self._stop.is_set():
                if self._shutdown_tick():
                    return
            else:
                self._dispatch()

    def _on_result(self, wid: int, job_id: str, rows: list) -> None:
        self.jobs.complete(job_id, rows)
        self.jobs_completed += 1
        with self._lock:
            w = self._workers.get(wid)
            if w is not None and w.job_id == job_id:
                w.job_id = None
                w.deadline = None
                w.jobs_done += 1

    def _reap_and_replace(self) -> None:
        with self._lock:
            dead = [
                (wid, w) for wid, w in self._workers.items()
                if not w.proc.is_alive()
            ]
            for wid, w in dead:
                del self._workers[wid]
            respawn = 0 if self._stop.is_set() else len(dead)
        for _wid, w in dead:
            if w.job_id is not None:
                outcome = self.jobs.crash(
                    w.job_id,
                    detail=f"worker pid {w.proc.pid} exited "
                           f"with code {w.proc.exitcode}",
                )
                if outcome == "requeued":
                    self.jobs_requeued += 1
                elif outcome == "errored":
                    self.jobs_errored += 1
        if respawn:
            with self._lock:
                for _ in range(respawn):
                    self._spawn_locked()
                    self.workers_replaced += 1

    def _enforce_deadlines(self) -> None:
        now = time.time()
        with self._lock:
            stuck = [
                w for w in self._workers.values()
                if w.job_id is not None and w.deadline is not None
                and now > w.deadline
            ]
        for w in stuck:
            # The worker's own SIGALRM should have fired long ago; a
            # wedged worker is indistinguishable from a hung one, so
            # treat it as a crash (SIGKILL → reap → requeue-or-error).
            w.proc.kill()

    def _dispatch(self) -> None:
        while True:
            with self._lock:
                idle = next(
                    (w for w in self._workers.values()
                     if w.job_id is None and w.proc.is_alive()),
                    None,
                )
            if idle is None:
                return
            job = self.jobs.claim()
            if job is None:
                return
            cfg = job_run_config(self.base_config, job.config,
                                 self.store_root)
            # ``timeout_s`` bounds each unit of each engine's plan.
            timeout_s = float(cfg.get("timeout_s") or 0.0)
            n_units = sum(
                len(plan_units(job.source, engine))
                for engine in expand_backends(job.backend)
            )
            idle.job_id = job.id
            idle.deadline = (
                time.time() + timeout_s * n_units + self.grace_s
                if timeout_s > 0 else None
            )
            self.jobs.assign(job.id, idle.proc.pid or -1)
            idle.task_q.put({
                "job": job.id,
                "source": job.source,
                "name": job.name,
                "kind": job.kind,
                "backend": job.backend,
                "config": cfg,
            })

    def _shutdown_tick(self) -> bool:
        """One drain step: sentinel idle workers, and report whether
        every worker has exited."""
        with self._lock:
            for w in self._workers.values():
                if w.job_id is None and not w.sentineled:
                    w.task_q.put(None)
                    w.sentineled = True
            return all(not w.proc.is_alive()
                       for w in self._workers.values())

    # -- inspection ------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            workers = [
                {
                    "pid": w.proc.pid,
                    "alive": w.proc.is_alive(),
                    "busy": w.job_id is not None,
                    "job": w.job_id,
                    "jobs_done": w.jobs_done,
                }
                for w in self._workers.values()
            ]
        return {
            "size": self.size,
            "alive": sum(1 for w in workers if w["alive"]),
            "busy": sum(1 for w in workers if w["busy"]),
            "workers": workers,
            "jobs_completed": self.jobs_completed,
            "jobs_requeued": self.jobs_requeued,
            "jobs_errored": self.jobs_errored,
            "workers_replaced": self.workers_replaced,
        }
