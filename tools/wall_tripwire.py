#!/usr/bin/env python3
"""Wall tripwire: a tree under test against a reference tree, timed on
the same machine in the same job.

``python tools/wall_tripwire.py BASE_DIR HEAD_DIR``

Runs ``python -m repro bench --backend both --jobs 1 --no-store`` from
each tree's ``src``, alternating, three times each.  Exit 1 if the
head's fastest ``totals.wall_ms`` exceeds the base's fastest by more
than 20%, 2 if a run fails.  Contention on a shared machine only ever
adds time, so the fastest of three runs is the least disturbed reading
of each tree.  ``totals.max_wall_ms`` (the slowest single row, some
tens of milliseconds) is printed but decides nothing: one preempted
row moves it by half.  Only those totals are read, so the trees may
write different report schemas.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = ("-m", "repro", "bench", "--backend", "both", "--jobs", "1",
         "--no-store")
RUNS = 3
BUDGET = 0.20
GATED = "wall_ms"
PRINTED = ("wall_ms", "max_wall_ms")


def bench_totals(tree: Path, out: Path) -> dict:
    """The report totals of one store-less run from ``tree``'s source."""
    proc = subprocess.run(
        [sys.executable, *BENCH, "--out", str(out)], cwd=tree,
        env={**os.environ, "PYTHONPATH": str(tree / "src")},
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise ValueError(f"{tree}: bench exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))["totals"]


def fastest(runs: list[dict], field: str) -> float:
    """The smallest ``field`` of ``runs``; ``ValueError`` unless every
    run carries a finite number there."""
    values = [t.get(field) for t in runs]
    for v in values:
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or not math.isfinite(v):
            raise ValueError(f"totals: {field}: not a number ({v!r})")
    return min(values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="reference source tree")
    parser.add_argument("head", type=Path, help="source tree under test")
    args = parser.parse_args(argv)

    runs: dict[str, list[dict]] = {"base": [], "head": []}
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for i in range(RUNS):
                for side, tree in (("base", args.base), ("head", args.head)):
                    out = Path(tmp) / f"{side}-{i}.json"
                    runs[side].append(bench_totals(tree.resolve(), out))
        best = {side: {f: fastest(ts, f) for f in PRINTED}
                for side, ts in runs.items()}
    except (ValueError, KeyError) as exc:
        print(f"wall_tripwire: {exc}", file=sys.stderr)
        return 2
    for f in PRINTED:
        pairs = ", ".join(f"{b[f]:g}/{h[f]:g}"
                          for b, h in zip(runs["base"], runs["head"]))
        print(f"{f}: fastest {best['base'][f]:g} -> {best['head'][f]:g} "
              f"(base/head: {pairs})")
    old, new = best["base"][GATED], best["head"][GATED]
    if new > old * (1 + BUDGET):
        print(f"FAIL totals: {GATED}: fastest {old:g} -> {new:g} exceeds "
              f"the {BUDGET:.0%} budget", file=sys.stderr)
        return 1
    print(f"fastest {GATED} within the {BUDGET:.0%} budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
