"""The wire protocol of ``repro serve``: request validation, job views.

One JSON dialect, versioned as ``repro-serve/v1``, shared by the HTTP
layer (:mod:`repro.serve.app`), the client tooling
(``tools/serve_smoke.py``) and the tests.  Result rows inside job views
are the batch runner's ``repro-bench/v9`` rows verbatim
(:class:`repro.driver.report.ProgramResult` as a dict), so a report
assembled from served jobs diffs cleanly against a batch report with
``tools/diff_reports.py``.

A *job* is one submitted program against one backend selection.  Its
lifecycle (see docs/SERVER.md):

``queued`` → ``running`` → ``done``

with one detour: a job whose worker process dies mid-run is requeued
exactly once (``queued`` again, ``attempts`` already counted); a second
crash terminates the job as ``done`` with a well-formed ``error`` row
per requested engine — a job never hangs and never vanishes.
"""

from __future__ import annotations

import math

#: Protocol version, echoed by ``/v1/healthz`` and every job view.
API_VERSION = "repro-serve/v1"

# Job lifecycle states.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"

JOB_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_DONE)

#: Request ``config`` keys a client may override, with their expected
#: types — exactly the semantic knobs of ``driver.backends.RunConfig``
#: (the store key's config digest is computed over these, so a request
#: that overrides none of them shares warm entries with the batch
#: runner's defaults).  Orchestration knobs (``jobs``, ``store_dir``)
#: are the server's business, not the client's, and are rejected.
REQUEST_CONFIG_FIELDS: dict[str, type] = {
    "max_states": int,
    "fuel": int,
    "timeout_s": (int, float),
    "max_cex_attempts": int,
    "memo": bool,
    "compile": bool,
}

_BACKEND_CHOICES = ("core", "scv", "both")

#: Submitted source text above this size is rejected outright (a
#: denial-of-service guard, not a semantic limit).
MAX_SOURCE_BYTES = 1 << 20


class ProtocolError(Exception):
    """A malformed request; the message is safe to return to the
    client (HTTP 400)."""


def parse_verify_request(body) -> dict:
    """Validate a ``POST /v1/verify`` body into a normalized request.

    Returns ``{"source", "name", "kind", "backend", "config"}`` where
    ``config`` holds only whitelisted ``RunConfig`` overrides.  Raises
    :class:`ProtocolError` on anything malformed."""
    if not isinstance(body, dict):
        raise ProtocolError("request body must be a JSON object")
    source = body.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ProtocolError("'source' must be a non-empty string")
    if len(source.encode("utf-8")) > MAX_SOURCE_BYTES:
        raise ProtocolError(
            f"'source' exceeds {MAX_SOURCE_BYTES} bytes"
        )
    name = body.get("name", "<request>")
    if not isinstance(name, str) or not name:
        raise ProtocolError("'name' must be a non-empty string")
    kind = body.get("kind", "?")
    if kind not in ("safe", "buggy", "?"):
        raise ProtocolError("'kind' must be one of: safe, buggy, ?")
    backend = body.get("backend", "core")
    if backend not in _BACKEND_CHOICES:
        raise ProtocolError(
            f"'backend' must be one of: {', '.join(_BACKEND_CHOICES)}"
        )
    config = body.get("config", {})
    if not isinstance(config, dict):
        raise ProtocolError("'config' must be a JSON object")
    overrides = {}
    for key, value in config.items():
        want = REQUEST_CONFIG_FIELDS.get(key)
        if want is None:
            raise ProtocolError(
                f"unknown config key {key!r} (allowed: "
                f"{', '.join(sorted(REQUEST_CONFIG_FIELDS))})"
            )
        # bool is an int subclass: reject True where an int is expected.
        if isinstance(value, bool) and want is not bool:
            raise ProtocolError(f"config key {key!r} must be {want.__name__}")
        if not isinstance(value, want):
            wanted = (
                want.__name__ if isinstance(want, type)
                else "/".join(t.__name__ for t in want)
            )
            raise ProtocolError(f"config key {key!r} must be {wanted}")
        overrides[key] = value
    _check_config_values(overrides)
    unknown = sorted(
        k for k in body
        if k not in ("source", "name", "kind", "backend", "config")
    )
    if unknown:
        raise ProtocolError(f"unknown request key(s): {', '.join(unknown)}")
    return {
        "source": source,
        "name": name,
        "kind": kind,
        "backend": backend,
        "config": overrides,
    }


def _check_config_values(config: dict) -> None:
    """Reject override values outside their domain.  A ``timeout_s``
    that is not a positive finite number would disarm both the worker's
    own deadline and the parent's SIGKILL backstop, letting one request
    hold a worker forever."""
    if "timeout_s" in config and not _positive_finite(config["timeout_s"]):
        raise ProtocolError(
            "config key 'timeout_s' must be a finite number > 0"
        )
    for key in ("max_states", "fuel"):
        if config.get(key, 1) < 1:
            raise ProtocolError(f"config key {key!r} must be >= 1")
    if config.get("max_cex_attempts", 0) < 0:
        raise ProtocolError("config key 'max_cex_attempts' must be >= 0")


def _positive_finite(x) -> bool:
    try:
        return math.isfinite(x) and x > 0
    except OverflowError:  # an int too large for a float
        return False


def job_view(job, *, include_rows: bool = True) -> dict:
    """The public JSON shape of a job (``GET /v1/jobs/<id>``).

    ``rows`` — present once the job is done — are ``repro-bench/v9``
    result rows, one per engine the backend selection expanded to."""
    view = {
        "api": API_VERSION,
        "id": job.id,
        "state": job.state,
        "name": job.name,
        "kind": job.kind,
        "backend": job.backend,
        "config": dict(job.config),
        "created": job.created,
        "started": job.started,
        "finished": job.finished,
        "attempts": job.attempts,
        "warm": job.warm,
        "source_bytes": len(job.source.encode("utf-8")),
        "detail": job.detail,
    }
    if include_rows:
        view["rows"] = job.rows if job.state == JOB_DONE else None
    return view


def job_summary(job) -> dict:
    """The abbreviated shape used by the job listing."""
    view = job_view(job, include_rows=False)
    del view["api"], view["config"]
    return view
