#!/usr/bin/env python3
"""Drive a running ``repro serve`` instance over HTTP and write a
bench-report-compatible JSON from the collected job rows.

``python tools/serve_smoke.py --url http://127.0.0.1:8321 --smoke
--backend scv --out BENCH_serve.json``

Submits each selected corpus program to ``POST /v1/verify`` (with its
corpus name and expected kind, so rows line up with a batch report),
polls ``GET /v1/jobs/<id>`` until every job is done, and assembles the
rows into the same report shape (``repro.driver.report.SCHEMA``)
``repro bench`` writes — so ``tools/diff_reports.py`` can compare a served run against
a batch run directly.  The serve-smoke CI leg runs exactly that
differential against a store-warmed server, which also exercises the
synchronous warm path (``--expect-warm`` asserts every job was answered
without touching a worker).

Exit codes: 0 all jobs done and (with ``--expect-warm``) warm; 1 a job
errored out or the warm expectation failed; 2 usage / server
unreachable.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.driver.corpus import corpus_names, get_program  # noqa: E402
from repro.driver.report import (  # noqa: E402
    STATUS_ERROR,
    BenchReport,
    result_from_row,
)


def _request(url: str, body: dict | None = None, timeout: float = 30.0):
    if body is None:
        req = urllib.request.Request(url)
    else:
        req = urllib.request.Request(
            url,
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.load(resp)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", required=True,
                        help="server base URL, e.g. http://127.0.0.1:8321")
    parser.add_argument("--smoke", action="store_true",
                        help="submit the smoke-tagged corpus subset")
    parser.add_argument("--programs", nargs="*", default=None,
                        help="explicit corpus program names")
    parser.add_argument("--backend", default="core",
                        choices=["core", "scv", "both"])
    parser.add_argument("--out", required=True,
                        help="where to write the assembled report")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="overall deadline for all jobs (seconds)")
    parser.add_argument("--expect-warm", action="store_true",
                        help="fail unless every job was answered "
                        "synchronously from the store")
    args = parser.parse_args(argv)

    if args.programs:
        names = list(args.programs)
    elif args.smoke:
        names = corpus_names(tag="smoke", backend=args.backend)
    else:
        names = corpus_names(backend=args.backend)

    try:
        health = _request(f"{args.url}/v1/healthz")
    except (urllib.error.URLError, OSError) as exc:
        print(f"serve_smoke: server unreachable at {args.url}: {exc}",
              file=sys.stderr)
        return 2
    if not health.get("ok"):
        print(f"serve_smoke: server unhealthy: {health}", file=sys.stderr)
        return 2

    pending: dict[str, str] = {}  # job id -> program name
    jobs: dict[str, dict] = {}  # program name -> finished job view
    for name in names:
        prog = get_program(name)
        resp = _request(f"{args.url}/v1/verify", {
            "source": prog.source,
            "name": name,
            "kind": prog.kind,
            "backend": args.backend,
        })
        job = resp["job"]
        if job["state"] == "done":
            jobs[name] = job
        else:
            pending[job["id"]] = name

    deadline = time.time() + args.timeout
    while pending and time.time() < deadline:
        for job_id, name in list(pending.items()):
            view = _request(f"{args.url}/v1/jobs/{job_id}")["job"]
            if view["state"] == "done":
                jobs[name] = view
                del pending[job_id]
        if pending:
            time.sleep(0.2)
    if pending:
        print(f"serve_smoke: {len(pending)} job(s) still running at the "
              f"deadline: {sorted(pending.values())}", file=sys.stderr)
        return 1

    results = [
        result_from_row(row)
        for name in names
        for row in jobs[name]["rows"]
    ]
    report = BenchReport(
        config={"source": "repro serve", "url": args.url,
                "backend": args.backend, "programs": len(names),
                "runs": len(results)},
        results=results,
    )
    report.write(args.out)

    warm = sum(1 for j in jobs.values() if j["warm"])
    errored = [r.name for r in results if r.status == STATUS_ERROR]
    print(f"serve_smoke: {len(names)} programs, {len(results)} rows, "
          f"{warm} warm answers -> {args.out}")
    if errored:
        print(f"serve_smoke: error rows for {sorted(set(errored))}",
              file=sys.stderr)
        return 1
    if args.expect_warm and warm != len(names):
        print(f"serve_smoke: expected every job warm, got {warm}/"
              f"{len(names)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
