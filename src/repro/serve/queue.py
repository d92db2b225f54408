"""The persistent job queue behind ``repro serve``.

Every job lives twice: in memory (the dispatch deque and the id → job
map the HTTP threads read) and on disk under ``<store>/jobs/`` — one
JSON file per job, rewritten via write-to-temp + ``os.replace`` on
every state transition, mirroring the crash-safety discipline of the
verdict store.  A restarted server :meth:`recovers <JobQueue.recover>`
the directory: ``queued`` jobs re-enter the deque in creation order,
and jobs that were ``running`` when the server died are treated exactly
like a worker crash — requeued if they have a retry left, otherwise
terminated with a clean ``error`` row.  No job is ever silently lost.

Retry policy (the serving contract of docs/SERVER.md): ``attempts`` is
incremented when a worker *claims* the job.  A worker crash with
``attempts < MAX_ATTEMPTS`` requeues; at ``MAX_ATTEMPTS`` the job is
finished with one well-formed ``status: "error"`` row per requested
engine, so a crashing job terminates deterministically instead of
cycling through the worker pool forever.

Thread-safety: one lock around every mutation; the HTTP layer's handler
threads, the worker pool's manager thread and the recovery path all go
through it.  Disk writes happen inside the lock — job files are small
and the queue is not the hot path (verification is).
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from collections import deque
from dataclasses import asdict, dataclass
from typing import Optional

from ..driver.report import STATUS_ERROR, ProgramResult
from ..driver.runner import expand_backends
from .protocol import JOB_DONE, JOB_QUEUED, JOB_RUNNING

#: First claim + one requeue after a crash; the second crash errors out.
MAX_ATTEMPTS = 2


@dataclass
class Job:
    """One submitted verification request and its progress."""

    id: str
    source: str
    name: str
    kind: str
    backend: str  # the requested selection ("core" | "scv" | "both")
    config: dict  # whitelisted RunConfig overrides (protocol.py)
    state: str = JOB_QUEUED
    created: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    attempts: int = 0
    worker: Optional[int] = None  # pid of the claiming worker
    warm: bool = False  # answered synchronously from the store
    rows: Optional[list] = None  # report.SCHEMA rows, once done
    detail: str = ""  # human-readable note (crash/retry history)


def error_rows(name: str, kind: str, backend: str, detail: str) -> list[dict]:
    """Clean terminal rows for a job that could not run — its workers
    kept dying, or its verification raised: one well-formed ``error``
    row per engine the selection expands to."""
    return [
        asdict(ProgramResult(
            name=name, kind=kind, status=STATUS_ERROR, wall_ms=0.0,
            backend=engine, detail=detail,
        ))
        for engine in expand_backends(backend)
    ]


class JobQueue:
    """Disk-backed FIFO of verification jobs (see the module docstring)."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._pending: deque[str] = deque()

    # -- persistence -----------------------------------------------------

    def _path(self, job_id: str) -> str:
        return os.path.join(self.root, f"{job_id}.json")

    def _save(self, job: Job) -> None:
        path = self._path(job.id)
        tmp = f"{path}.tmp-{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(asdict(job), fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)

    def recover(self) -> dict:
        """Rehydrate the jobs directory after a restart.  Returns a
        summary ``{"recovered", "requeued", "errored"}``."""
        entries = []
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            names = []
        for fn in names:
            if not fn.endswith(".json"):
                continue
            try:
                with open(os.path.join(self.root, fn),
                          encoding="utf-8") as fh:
                    entries.append(Job(**json.load(fh)))
            except (OSError, json.JSONDecodeError, TypeError):
                continue  # a torn job file: dropped, not wedged
        requeued = errored = 0
        with self._lock:
            for job in sorted(entries, key=lambda j: (j.created, j.id)):
                self._jobs[job.id] = job
                if job.state == JOB_QUEUED:
                    self._pending.append(job.id)
                elif job.state == JOB_RUNNING:
                    # The server died mid-job: same policy as a worker
                    # crash (the attempt was already counted at claim).
                    if job.attempts < MAX_ATTEMPTS:
                        job.state = JOB_QUEUED
                        job.worker = None
                        job.detail = (job.detail + " " if job.detail else
                                      "") + "[requeued after server restart]"
                        self._pending.append(job.id)
                        requeued += 1
                    else:
                        self._finish(job, error_rows(
                            job.name, job.kind, job.backend,
                            "worker crashed and the retry budget is "
                            "spent (server restarted mid-job)",
                        ), detail="errored after server restart")
                        errored += 1
                    self._save(job)
        return {
            "recovered": len(entries),
            "requeued": requeued,
            "errored": errored,
        }

    # -- submission and dispatch -----------------------------------------

    def submit(
        self,
        request: dict,
        *,
        warm_rows: Optional[list] = None,
    ) -> Job:
        """Create a job from a validated request.  With ``warm_rows``
        the job is recorded already ``done`` (the synchronous store-warm
        path); otherwise it enters the pending deque."""
        now = time.time()
        job = Job(
            id=uuid.uuid4().hex[:16],
            source=request["source"],
            name=request["name"],
            kind=request["kind"],
            backend=request["backend"],
            config=dict(request["config"]),
            created=now,
        )
        with self._lock:
            if warm_rows is not None:
                job.state = JOB_DONE
                job.warm = True
                job.started = job.finished = now
                job.rows = warm_rows
            else:
                self._pending.append(job.id)
            self._jobs[job.id] = job
            self._save(job)
        return job

    def claim(self) -> Optional[Job]:
        """Pop the oldest pending job and mark it running (the worker
        pool's dispatch step)."""
        with self._lock:
            while self._pending:
                job = self._jobs.get(self._pending.popleft())
                if job is None or job.state != JOB_QUEUED:
                    continue
                job.state = JOB_RUNNING
                job.started = time.time()
                job.attempts += 1
                self._save(job)
                return job
        return None

    def assign(self, job_id: str, worker_pid: int) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None and job.state == JOB_RUNNING:
                job.worker = worker_pid
                self._save(job)

    # -- completion ------------------------------------------------------

    def _finish(self, job: Job, rows: list, *, detail: str = "") -> None:
        job.state = JOB_DONE
        job.finished = time.time()
        job.rows = rows
        job.worker = None
        if detail:
            job.detail = (job.detail + " " if job.detail else "") + detail

    def complete(self, job_id: str, rows: list) -> None:
        """A worker delivered the job's rows: terminal success."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state == JOB_DONE:
                return  # a late duplicate (worker raced its own kill)
            self._finish(job, rows)
            self._save(job)

    def crash(self, job_id: str, *, detail: str) -> str:
        """The worker holding this job died.  Returns ``"requeued"``
        (one retry available) or ``"errored"`` (terminal error rows) —
        or ``"ignored"`` when the job already completed (the worker was
        killed after delivering its result)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state != JOB_RUNNING:
                return "ignored"
            if job.attempts < MAX_ATTEMPTS:
                job.state = JOB_QUEUED
                job.worker = None
                job.detail = (job.detail + " " if job.detail else "") + \
                    f"[retrying: {detail}]"
                self._pending.append(job.id)
                self._save(job)
                return "requeued"
            self._finish(
                job,
                error_rows(
                    job.name, job.kind, job.backend,
                    f"worker crashed twice ({detail}); retry budget spent",
                ),
                detail=f"[errored: {detail}]",
            )
            self._save(job)
            return "errored"

    # -- inspection ------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return sorted(self._jobs.values(),
                          key=lambda j: (j.created, j.id))

    def depth(self) -> int:
        with self._lock:
            return sum(
                1 for j in self._jobs.values() if j.state == JOB_QUEUED
            )

    def counts(self) -> dict:
        with self._lock:
            out = {state: 0 for state in (JOB_QUEUED, JOB_RUNNING, JOB_DONE)}
            warm = 0
            for j in self._jobs.values():
                out[j.state] = out.get(j.state, 0) + 1
                warm += bool(j.warm)
            out["warm"] = warm
            return out
