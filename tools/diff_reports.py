#!/usr/bin/env python3
"""Differential comparison of two bench reports — the one report gate.

``python tools/diff_reports.py A.json B.json [--exact FIELD,...]
[--min-hit-rate 0.9]``

Exit 1 unless the two reports are identical on everything that is
deterministically reproducible:

* every ``(name, backend)`` program row, minus the volatile fields
  (``repro.driver.report.VOLATILE_ROW_FIELDS`` — timing, solver and
  store counters — the single source of truth CI and the tests share);
* the ``agreement`` section (cross-backend verdicts and counterexample
  comparisons) verbatim.

With ``--min-hit-rate`` the *second* report must additionally have
answered at least that fraction of its verdict-store lookups from the
store — the warm-start CI leg's economy assertion.

With ``--exact FIELD[,FIELD...]`` the named fields must also match
exactly, per row and in the totals, volatile or not: a deterministic
work counter such as ``dispatch_steps`` is pinned this way, and so
are the solver counters ``solver_fresh_solves`` and ``solver_unknown``
of a store-less run.

Both reports must carry the current schema (``report.SCHEMA``): an older
or newer ``repro-bench/vN``, another tool's JSON or a missing file exits
2 with a message naming the file, instead of comparing numbers it may
not carry.

Used by the CI differential legs, among them the compile differential
(same corpus with ``--no-compile``), the warm-start differential (same corpus against a populated ``--store``) and the
store-backed identity check (a cold ``--store`` run against the
committed store-less ``BENCH_driver.json``: the store only caches the
verification units every run plans, so it must not change a row).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.driver.report import SCHEMA, stable_row  # noqa: E402


def load(path: str) -> dict:
    """The report at ``path``; ``ValueError`` naming the file unless it
    is a current-schema report."""
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from None
    if not isinstance(report, dict):
        raise ValueError(f"{path}: not a report object")
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: report schema {report.get('schema')!r} is not "
            f"{SCHEMA}; regenerate the report with this checkout"
        )
    if not isinstance(report.get("programs"), list) or not isinstance(
        report.get("totals"), dict
    ):
        raise ValueError(f"{path}: no programs list or totals object")
    return report


def stable_rows(report: dict) -> dict:
    return {(r["name"], r["backend"]): stable_row(r)
            for r in report["programs"]}


def exact_mismatches(a: dict, b: dict, fields: list[str]) -> list[str]:
    """Where reports ``a`` and ``b`` differ on ``fields``, per row (rows
    present in both) and in the totals."""
    out = []
    rows_b = {(r["name"], r["backend"]): r for r in b["programs"]}
    for ra in a["programs"]:
        key = (ra["name"], ra["backend"])
        rb = rows_b.get(key)
        if rb is None:
            continue  # reported by the row comparison
        out += [f"{key}: {f}: {ra.get(f)!r} != {rb.get(f)!r}"
                for f in fields if ra.get(f) != rb.get(f)]
    ta, tb = a.get("totals", {}), b.get("totals", {})
    out += [f"totals: {f}: {ta.get(f)!r} != {tb.get(f)!r}"
            for f in fields if ta.get(f) != tb.get(f)]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="reference report (e.g. the cold run)")
    parser.add_argument("b", help="report under test (e.g. the warm run)")
    parser.add_argument(
        "--min-hit-rate", type=float, default=None, metavar="FRACTION",
        help="require report B's verdict-store hit rate to be at least "
        "this fraction of its lookups",
    )
    parser.add_argument(
        "--exact", default="", metavar="FIELD[,FIELD...]",
        help="fields that must match exactly, per row and in the totals, "
        "even when volatile",
    )
    args = parser.parse_args(argv)
    try:
        a, b = load(args.a), load(args.b)
    except ValueError as exc:
        print(f"diff_reports: {exc}", file=sys.stderr)
        return 2

    failed = False
    rows_a, rows_b = stable_rows(a), stable_rows(b)
    for key in sorted(set(rows_a) | set(rows_b)):
        if rows_a.get(key) != rows_b.get(key):
            failed = True
            ra, rb = rows_a.get(key), rows_b.get(key)
            if ra is None or rb is None:
                print(f"DIFF {key}: only in "
                      f"{args.a if rb is None else args.b}", file=sys.stderr)
                continue
            fields = sorted(
                k for k in set(ra) | set(rb) if ra.get(k) != rb.get(k)
            )
            print(f"DIFF {key}: {', '.join(fields)}", file=sys.stderr)
            for f in fields:
                print(f"  {f}: {ra.get(f)!r} != {rb.get(f)!r}",
                      file=sys.stderr)
    if a.get("agreement") != b.get("agreement"):
        failed = True
        print("DIFF agreement sections differ", file=sys.stderr)
    if not failed:
        print(f"{len(rows_a)} rows identical (volatile fields aside); "
              "agreement sections identical")

    exact = [f for f in args.exact.split(",") if f]
    if exact:
        mismatches = exact_mismatches(a, b, exact)
        for line in mismatches:
            print(f"DIFF {line}", file=sys.stderr)
        if mismatches:
            failed = True
        else:
            print(f"{', '.join(exact)} identical per row and in the totals")

    if args.min_hit_rate is not None:
        t = b["totals"]
        hits, misses = t.get("store_hits", 0), t.get("store_misses", 0)
        lookups = hits + misses
        rate = hits / lookups if lookups else 0.0
        if rate < args.min_hit_rate:
            failed = True
            print(
                f"FAIL store hit rate {rate:.1%} ({hits}/{lookups}) below "
                f"the {args.min_hit_rate:.0%} floor", file=sys.stderr,
            )
        else:
            print(f"store hit rate {rate:.1%} ({hits}/{lookups})")

    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
