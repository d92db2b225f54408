#!/usr/bin/env python3
"""Benchmark of the verifier: three closed-loop workloads, one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

A run sets the workload up (imports, lazy tables and, for
``store-edit``, the store), then sends its requests one at a time to
``repro.driver.runner.verify_source`` in passes until ``--seconds`` have
passed, checking every verdict (see ``workloads.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  Every time is
reported at a fixed reference speed of the machine (see ``calibrate``):
a request's time is its median over the run's passes (see ``typical``),
and ``wall_s`` is their sum.  ``setup_s`` is the median over this
process and further fresh processes that only run the set-up.  With
``--trace 1`` passes alternate between untraced and traced
(``tracing.py``); the metrics are the per-layer ones, medians over the
traced passes, and the spans are written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-out")

#: Set-ups measured per untraced run (this process included).
SETUP_SAMPLES = {"corpus": 7, "concrete-loops": 7, "store-edit": 3}

#: Kernel runs per calibration sample during set-up.
SETUP_CALIBRATIONS = 3

#: Per-layer counters that must repeat exactly from pass to pass.
DETERMINISTIC = (
    "search.states", "compile.dispatch_steps", "smt.check_calls",
    "smt.lia_calls", "store.hits", "store.misses",
)


#: The calibration kernel's seconds at the reference speed.  Every
#: reported time is scaled to it.
REFERENCE_CALIBRATION_S = 0.0005

#: Calibration samples on each side of a request's own sample (taken just
#: before it) that also scale its time.  With 1, the next sample, taken
#: just after the request, is one of them.
CALIBRATION_WINDOW = 1

#: Percentile points on each side of ``p`` that ``percentile`` averages.
PERCENTILE_BAND = 5


def percentile(values: list[float], p: float) -> float:
    """Percentile ``p``, as the mean of the values ranked within
    ``PERCENTILE_BAND`` points of it.  A single rank jumps whenever two
    requests of different cost swap places around it; the band mean
    does not."""
    ordered = sorted(values)
    n = len(ordered)
    lo = max(0, math.floor((p - PERCENTILE_BAND) * n / 100))
    hi = min(n, math.ceil((p + PERCENTILE_BAND) * n / 100))
    return statistics.fmean(ordered[lo:hi])


#: A small linear system over the rationals, the solver's arithmetic.
_SYSTEM = [[Fraction((i * 7 + j * 3) % 11 + 5 * (i == j), 1 + (i + j) % 4)
            for j in range(5)] for i in range(4)]


def _eliminate(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    rows = [r[:] for r in rows]
    for c in range(len(rows)):
        for r in range(len(rows)):
            if r != c:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return rows


class _Node:
    __slots__ = ("left", "right", "value")

    def __init__(self, left, right, value) -> None:
        self.left, self.right, self.value = left, right, value


def _build(depth: int, value: int):
    if depth == 0:
        return None
    return _Node(_build(depth - 1, value * 2),
                 None if depth < 3 else _build(depth - 3, value + 1), value)


def _walk(node) -> int:
    return 0 if node is None else node.value + _walk(node.left) + _walk(node.right)


def calibrate() -> float:
    """Seconds one run of a fixed pure-Python kernel takes now.

    The machine is shared with other tenants, and its speed swings by
    more than a third over seconds to minutes, in wall and CPU time alike.
    The kernel (allocation, attribute access, recursion and rational
    arithmetic: the verifier's own mix) slows with it, so a time measured
    next to it and scaled by ``REFERENCE_CALIBRATION_S / calibrate()`` is
    the time at a fixed speed.  The kernel runs no repository code, so a
    change to the verifier cannot move it; the collector is off while it
    runs, so the verifier's collector settings cannot either."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _walk(_build(15, 1))
        _eliminate(_SYSTEM)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: list[float], calibrations: list[float]) -> list[float]:
    """Each of ``seconds`` at the reference speed, scaled by the median
    of the calibration samples within ``CALIBRATION_WINDOW`` of it."""
    out = []
    for i, s in enumerate(seconds):
        near = calibrations[max(0, i - CALIBRATION_WINDOW):i + CALIBRATION_WINDOW + 1]
        out.append(s * REFERENCE_CALIBRATION_S / statistics.median(near))
    return out


class SetupWatch:
    """Set-up time at the reference speed.  The set-up is timed in
    segments, and ``lap`` ends one; every segment is then scaled like a
    request, by the calibration samples taken between segments, outside
    the timed region.  A sample there is the median of
    ``SETUP_CALIBRATIONS`` runs of the kernel, since a set-up has few
    segments to take a median over."""

    def __init__(self) -> None:
        self.segments: list[float] = []
        self.calibrations: list[float] = []
        self._sample()
        self.resume()

    def _sample(self) -> None:
        self.calibrations.append(statistics.median(
            calibrate() for _ in range(SETUP_CALIBRATIONS)))

    def resume(self) -> None:
        """Start the next segment."""
        self._start = time.perf_counter()

    def lap(self) -> None:
        """End the current segment and start the next one."""
        self.segments.append(time.perf_counter() - self._start)
        self._sample()
        self.resume()

    def seconds(self) -> float:
        # calibrations[i] precedes segment i and calibrations[i + 1]
        # follows it, so ``scaled`` sees both.
        return sum(scaled(self.segments, self.calibrations))


class Outcome:
    """Verdict bookkeeping over a run's passes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check_pass(self, workloads, requests, rows) -> None:
        bad = dict(workloads.check_agreement(requests, rows))
        for i, (r, row) in enumerate(zip(requests, rows)):
            problems = workloads.check_row(r, row)
            if problems:
                bad[i] = "; ".join(problems)
        self.attempted += len(rows)
        self.failed += len(bad)
        for i, why in sorted(bad.items()):
            if len(self.problems) < 20:
                self.problems.append(
                    f"{requests[i].name} [{requests[i].backend}]: {why}")


def run_pass(wl, index: int, tracer=None):
    """One pass over the workload's requests: per-request milliseconds as
    measured and at the reference speed, the requests and their rows.
    Before each request, outside the timed region, come a full
    collection, so that what the collector does inside a request depends
    on that request alone and not on the seeded order of the pass, and
    a calibration sample."""
    requests = wl.pass_requests(index)
    rows, lat, cal = [], [], []
    for i, r in enumerate(requests):
        gc.collect()
        cal.append(calibrate())
        a = time.perf_counter()
        if tracer is None:
            row = wl.verify(r)
        else:
            tracer.verdict_id = i
            span = tracer.open(0)
            try:
                row = wl.verify(r)
            finally:
                tracer.close(span)
        lat.append((time.perf_counter() - a) * 1000)
        rows.append(row)
    return lat, scaled(lat, cal), requests, rows


def typical(passes: list[list[float]]) -> list[float]:
    """Each request's median time over the passes.  The work of a
    request repeats exactly from pass to pass; the median drops the
    passes that an interrupt or a sudden change of speed disturbed."""
    return [statistics.median(col) for col in zip(*passes)]


def setup_probes(args, n: int) -> list[float]:
    """Set-up seconds measured in ``n`` fresh processes, one at a time."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def end_to_end(workloads, wl, args, setup_s: float):
    """Passes until ``--seconds`` have elapsed (at least two)."""
    outcome = Outcome()
    measured: list[list[float]] = []
    passes: list[list[float]] = []
    deadline = time.perf_counter() + args.seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        lat, lat_ref, requests, rows = run_pass(wl, len(passes))
        outcome.check_pass(workloads, requests, rows)
        measured.append(lat)
        passes.append(lat_ref)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ms = typical(passes)
    cex_ms = [
        t for t, row in zip(ms, rows)
        if row.counterexample is not None and row.counterexample.validated_conc
    ]
    setups = [setup_s, *setup_probes(args, SETUP_SAMPLES[args.workload] - 1)]
    print(f"perfbench: {args.workload}: {len(passes)} passes of "
          f"{len(ms)} verdicts; pass walls as measured "
          f"{[round(sum(p) / 1000, 3) for p in measured]}, at the reference "
          f"speed {[round(sum(p) / 1000, 3) for p in passes]}; set-ups "
          f"{[round(x, 3) for x in setups]}", file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(ms) / 1000, "s"),
        "verdict_ms_p50": (percentile(ms, 50), "ms"),
        "verdict_ms_p90": (percentile(ms, 90), "ms"),
        "cex_ms_p50": (percentile(cex_ms, 50), "ms"),
        "pass_rate": (1 - outcome.failed / outcome.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return outcome, metrics


def per_layer(workloads, wl, args):
    """Untraced and traced passes, alternating, so ``trace.overhead``
    compares passes of the same stage of the run."""
    import tracing

    outcome = Outcome()
    tracer = tracing.Tracer()
    per_pass: list[dict] = []
    passes: dict[bool, list[list[float]]] = {False: [], True: []}
    deadline = time.perf_counter() + args.seconds
    index = 0
    while len(passes[True]) < 2 or time.perf_counter() < deadline:
        traced = index % 2 == 1
        if traced:
            tracer.install()
        try:
            before = tracer.snapshot()
            lat, lat_ref, requests, rows = run_pass(
                wl, index, tracer if traced else None)
        finally:
            tracer.uninstall()
        outcome.check_pass(workloads, requests, rows)
        passes[traced].append(lat_ref)
        if traced:
            per_pass.append(
                tracing.pass_metrics(tracer, before, sum(lat) / 1000, rows))
        index += 1
    path = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.tsv")
    count = tracer.write(path)
    print(f"perfbench: {args.workload}: {len(passes[False])} untraced + "
          f"{len(passes[True])} traced passes, {count} spans -> {path}",
          file=sys.stderr)
    for key in DETERMINISTIC:
        values = {m[key][0] for m in per_pass}
        if len(values) > 1:
            print(f"perfbench: counter {key} varies between passes: "
                  f"{sorted(values)}", file=sys.stderr)
    metrics = {
        key: (statistics.median(m[key][0] for m in per_pass), unit)
        for key, (_, unit) in per_pass[0].items()
    }
    metrics["trace.overhead"] = (
        sum(typical(passes[True])) / sum(typical(passes[False])), "ratio")
    return outcome, metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("corpus", "concrete-loops", "store-edit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="run the set-up alone and print its seconds")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    os.makedirs(WORK, exist_ok=True)

    # Set-up time is the imports plus ``prepare``; making the inputs and
    # their known answers is the benchmark's own work.
    watch = SetupWatch()
    import workloads

    watch.lap()
    wl = workloads.make(args.workload, args.seed, WORK)
    try:
        watch.resume()
        wl.prepare(watch.lap)
        watch.lap()
        setup_s = watch.seconds()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        # What the set-up built lives as long as the process.  Frozen out
        # of the collector's view, it no longer makes the collection
        # before each request cost ~10 ms.
        gc.collect()
        gc.freeze()
        if args.trace:
            outcome, metrics = per_layer(workloads, wl, args)
        else:
            outcome, metrics = end_to_end(workloads, wl, args, setup_s)
    finally:
        wl.close()

    for line in outcome.problems:
        print(f"perfbench: FAIL {line}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{key:28s} {value:14.6f} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
