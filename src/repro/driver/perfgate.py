"""Perf-regression gate: diff a fresh benchmark report against the
committed baseline.

``python -m repro.driver.perfgate BASELINE FRESH [--max-regress 0.20]``

Fails (exit 1) when the fresh run regresses more than the threshold on
either gated total:

* ``states_explored`` — the search kernel's macro-state count.  This is
  deterministic per (corpus, schema) and the primary guard: a pruning
  or compression bug shows up here immediately.
* ``wall_ms`` — total wall time.  Noisy on shared CI runners, so the
  threshold is interpreted against the baseline with the same generous
  margin; states are the signal, wall is the tripwire for gross
  slowdowns (an accidentally quadratic fingerprint, a cache that stopped
  hitting).
* ``solver_fresh_solves`` — the solver's solve count.  Every proof
  query is one one-shot solve, so a regression here means more queries
  reached the solver (a fast path or the heap-translation memo stopped
  applying, or the search explored more states).
* ``max_wall_ms`` — the slowest single program row.  The gate watches
  the corpus's worst-case row alongside the sum: speeding up the
  average while regressing the tail fails.  As a timing it shares the
  wall-clock budget (``--max-regress-wall`` when given).

One total is gated in the *other* direction, with no tolerance:

* ``validated_counterexamples`` — counterexample rows whose synthesized
  client / instantiated program re-ran concretely to the same blame.
  Any drop against the baseline means a synthesis or validation
  regression (a finding went back to "skipped" or stopped reproducing)
  and fails the build outright.

``--max-regress-wall`` sets a separate (typically looser) threshold
for the wall-clock total — warm-store runs gate wall time against a
committed warm baseline, where scheduler noise dominates the tiny
absolute times.

Both reports must carry the current schema (``report.SCHEMA``): any
other — garbage, a different tool's report, an older or a newer
``repro-bench/vN`` — fails fast with exit 2 and a clear message instead
of gating against numbers it may not carry.  A zero baseline (an
interpreted run records ``dispatch_steps: 0``) has no ratio and is
skipped.  Improvements are reported but never fail the gate — commit
the fresh report as the new baseline to ratchet.
"""

from __future__ import annotations

import argparse
import json
import sys

from .report import SCHEMA

#: (key, pretty name) of the gated totals (regressions grow the value).
GATED = (
    ("states_explored", "states explored"),
    ("wall_ms", "wall time (ms)"),
    ("solver_fresh_solves", "from-scratch solver solves"),
    # The slowest single program row, gated alongside the sum — a
    # change that speeds the corpus up on average while making the
    # worst program slower still fails.  Shares the wall-clock budget
    # (``--max-regress-wall``): it is a timing, and on shared CI runners
    # single-row noise is even larger than total-noise.
    ("max_wall_ms", "slowest program wall (ms)"),
    # Executed micro-steps in the bytecode dispatch loop.  Deterministic
    # per (corpus, configuration), like states_explored: a regression
    # means chains got shorter (less work fused per macro state) or the
    # executor started delegating transitions it used to run inline.
    # Interpreted runs record 0, which the zero guard below SKIPs.
    ("dispatch_steps", "dispatch steps"),
)

#: (key, pretty name) of ratchet totals: any decrease fails the gate.
GATED_MIN = (
    ("validated_counterexamples", "validated counterexamples"),
)


def _check_schema(path: str, report: dict) -> None:
    schema = report.get("schema")
    if schema != SCHEMA:
        raise ValueError(
            f"{path}: report schema {schema!r} is not {SCHEMA} — "
            "regenerate the report with this checkout"
        )


def load_totals(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if not isinstance(report, dict):
        raise ValueError(f"{path}: not a report object")
    _check_schema(path, report)
    totals = report.get("totals")
    if not isinstance(totals, dict):
        raise ValueError(f"{path}: no totals section (schema {report.get('schema')!r})")
    return totals


def _numeric(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(
    baseline: dict, fresh: dict, max_regress: float,
    *, max_regress_wall: float | None = None,
) -> list[str]:
    """Human-readable comparison lines; lines starting with FAIL gate."""
    lines = []
    for key, pretty in GATED:
        old = baseline.get(key)
        new = fresh.get(key)
        if not _numeric(old) or not old:  # zero/garbage baseline
            lines.append(f"SKIP {pretty}: no usable baseline value ({old!r})")
            continue
        if not _numeric(new):
            lines.append(
                f"FAIL {pretty}: non-numeric fresh value ({new!r})"
            )
            continue
        budget = (
            max_regress_wall
            if key in ("wall_ms", "max_wall_ms") and max_regress_wall is not None
            else max_regress
        )
        ratio = (new - old) / old
        word = "regression" if ratio > 0 else "improvement"
        line = f"{pretty}: {old:g} -> {new:g} ({ratio:+.1%} {word})"
        if ratio > budget:
            lines.append(f"FAIL {line} exceeds the {budget:.0%} budget")
        else:
            lines.append(f"ok   {line}")
    for key, pretty in GATED_MIN:
        old = baseline.get(key)
        new = fresh.get(key)
        if not _numeric(old) or not _numeric(new):
            lines.append(
                f"FAIL {pretty}: non-numeric value "
                f"(baseline {old!r}, fresh {new!r})"
            )
            continue
        line = f"{pretty}: {old:g} -> {new:g}"
        if new < old:
            lines.append(f"FAIL {line} dropped below the baseline")
        else:
            lines.append(f"ok   {line}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.driver.perfgate",
        description="Fail on benchmark perf regressions vs a baseline report",
    )
    parser.add_argument("baseline", help="committed BENCH_driver.json")
    parser.add_argument("fresh", help="freshly generated report")
    parser.add_argument(
        "--max-regress", type=float, default=0.20, metavar="FRACTION",
        help="allowed relative regression per gated total (default 0.20)",
    )
    parser.add_argument(
        "--max-regress-wall", type=float, default=None, metavar="FRACTION",
        help="separate threshold for the wall-clock total (default: the "
        "--max-regress value); warm-store gates use a looser wall budget "
        "because their absolute times are scheduler-noise-sized",
    )
    args = parser.parse_args(argv)
    try:
        baseline = load_totals(args.baseline)
        fresh = load_totals(args.fresh)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"perfgate: {exc}", file=sys.stderr)
        return 2
    lines = compare(baseline, fresh, args.max_regress,
                    max_regress_wall=args.max_regress_wall)
    for line in lines:
        print(line)
    return 1 if any(line.startswith("FAIL") for line in lines) else 0


if __name__ == "__main__":
    raise SystemExit(main())
