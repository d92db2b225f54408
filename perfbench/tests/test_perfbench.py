"""Tests of the benchmark itself: generators, tracing and the oracle.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for p in (os.path.join(ROOT, "src"), BENCH):
    if p not in sys.path:
        sys.path.insert(0, p)

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from repro.driver.runner import verify_source  # noqa: E402
from repro.lang.parser import parse_program  # noqa: E402
from repro.store.fingerprint import program_digest  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- generators ---------------------------------------------------------------


def test_loop_generator_is_deterministic_per_seed():
    assert W.generate_loops(7) == W.generate_loops(7)
    assert W.generate_loops(7) != W.generate_loops(8)


def test_loop_workload_has_the_same_depth_mix_for_every_seed():
    def depths(seed):  # safe programs only; the name ends in the depth
        return sorted(int(name.rsplit("-", 1)[1])
                      for name, src in W.generate_loops(seed) if "pre" not in src)

    assert len(depths(1)) == len(W.LOOP_TEMPLATES) * W.LOOP_SAFE_PER_FAMILY
    assert depths(1) == depths(2)


def test_edit_stream_is_deterministic_per_seed():
    a = W.Workload("store-edit", 5, None, W.edit_requests(5))
    b = W.Workload("store-edit", 5, None, W.edit_requests(5))
    assert a.pass_requests(3) == b.pass_requests(3)
    assert a.pass_requests(3) != a.pass_requests(4)
    assert W.edit_requests(5) != W.edit_requests(6)


def test_every_edit_kind_covers_every_corpus_request():
    reqs = W.edit_requests(1)
    for kind in W.EDIT_KINDS:
        assert len([r for r in reqs if r.edit == kind]) == len(W.corpus_requests(1))


def test_edits_are_unique_to_their_pass_and_program():
    wl = W.Workload("store-edit", 1, None, W.edit_requests(1))
    seen = set()
    for p in range(3):
        for r in wl.pass_requests(p):
            if r.edit == W.APPENDED:
                key = (r.source, r.backend)
                assert key not in seen
                seen.add(key)


def test_renaming_keeps_the_digest_and_changes_the_text():
    for prog in W.CORPUS:
        renamed = W.rename_program(prog.source, "t1")
        assert renamed != prog.source
        assert (program_digest(parse_program(renamed))
                == program_digest(parse_program(prog.source))), prog.name


def test_loop_oracle_answers():
    safe = W.LOOP_TEMPLATES["acc"].format(n=5, k=2, pre="")
    assert W.concrete_answer(safe) == (W.SAFE, None)
    buggy = W.LOOP_TEMPLATES["acc"].format(n=5, k=2, pre=W._FAULT.format(m=2))
    kind, label = W.concrete_answer(buggy)
    assert kind == W.BUGGY and label


# -- timing -------------------------------------------------------------------


def test_scaling_cancels_a_change_of_machine_speed():
    seconds = [0.010, 0.002, 0.030, 0.004, 0.001]
    at_ref = [run.REFERENCE_CALIBRATION_S] * len(seconds)
    assert run.scaled(seconds, at_ref) == pytest.approx(seconds)
    slow = run.scaled([1.5 * s for s in seconds], [1.5 * c for c in at_ref])
    assert slow == pytest.approx(seconds)
    # A slower verifier on an unchanged machine reads slower.
    assert run.scaled([2 * s for s in seconds], at_ref) == pytest.approx(
        [2 * s for s in seconds])


def test_scaling_uses_the_median_of_nearby_calibrations():
    ref = run.REFERENCE_CALIBRATION_S
    cal = [ref, ref, ref, 9 * ref, ref, ref, ref, 2 * ref, 2 * ref, 2 * ref,
           2 * ref, 2 * ref, 2 * ref, 2 * ref]
    got = run.scaled([1.0] * len(cal), cal)
    assert got[3] == pytest.approx(1.0)  # one disturbed sample is outvoted
    assert got[-1] == pytest.approx(0.5)  # a lasting change of speed is not
    assert run.calibrate() > 0


def test_typical_time_is_the_median_over_passes():
    assert run.typical([[1, 5], [3, 4], [2, 100]]) == [2, 5]


def test_percentile_averages_a_band_of_ranks():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert run.percentile(values, 50) == pytest.approx(50.5)  # ranks 46..55
    assert run.percentile(values, 90) == pytest.approx(90.5)  # ranks 86..95
    assert run.percentile([7.0, 7.0], 90) == 7.0


# -- tracing ------------------------------------------------------------------


def test_self_time_arithmetic_on_a_synthetic_tree():
    # verdict [0, 10) > proof [1, 7) > smt [2, 5) > lia [3, 4);
    # verdict > proof [8, 9); verdict > cex [9, 9.5)
    layers = ["verdict", "proof", "smt", "lia", "cex"]
    layer = [0, 1, 2, 3, 1, 4]
    start = [0.0, 1.0, 2.0, 3.0, 8.0, 9.0]
    end = [10.0, 7.0, 5.0, 4.0, 9.0, 9.5]
    parent = [-1, 0, 1, 2, 0, 0]
    got = tracing.self_times(layers, layer, start, end, parent)
    assert got == pytest.approx({
        "verdict": 10 - 6 - 1 - 0.5,
        "proof": (6 - 3) + 1,
        "smt": 3 - 1,
        "lia": 1,
        "cex": 0.5,
    })
    assert sum(got.values()) == pytest.approx(10)


def test_tracer_slices_self_times_by_pass():
    t = tracing.Tracer()
    t.layer, t.parent = array("h", [0, 1, 0, 1]), array("l", [-1, 0, -1, 2])
    t.start, t.end = array("d", [0, 1, 5, 6]), array("d", [4, 2, 9, 8])
    assert t.self_times(2, 4)["verdict"] == pytest.approx(2)
    assert t.self_times(2, 4)[t.layers[1]] == pytest.approx(2)
    assert t.covered(0, 4) == pytest.approx(3)


def test_metric_names_are_well_formed():
    spec = _spec()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for n in names:
        assert NAME_RE.fullmatch(n), n


def test_per_layer_metrics_match_the_spec():
    t = tracing.Tracer()
    got = set(tracing.pass_metrics(t, t.snapshot(), 1.0, [])) | {"trace.overhead"}
    assert got == {m["name"] for m in _spec()["per_layer"]}


def test_traced_run_restores_every_patched_attribute():
    t = tracing.Tracer()
    t.install()
    patched = t.patched
    assert len(patched) > len(tracing.LAYERS)
    try:
        for backend in ("core", "scv"):
            verify_source(W._WARMUP, kind=W.SAFE, backend=backend)
    finally:
        t.uninstall()
    assert t.calls()["smt.lia"] > 0 and t.calls()["search"] > 0
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
    for mod in tracing.repro_modules():
        for value in list(vars(mod).values()):
            assert not getattr(value, tracing.WRAPPED_MARK, False)
            if isinstance(value, type):
                for member in vars(value).values():
                    assert not getattr(member, tracing.WRAPPED_MARK, False)


def test_work_counters_repeat_between_runs():
    reqs = W.corpus_requests(1)[:12]

    def counters():
        t = tracing.Tracer()
        t.install()
        try:
            before = t.snapshot()
            rows = [verify_source(r.source, name=r.name, kind=r.kind,
                                  backend=r.backend) for r in reqs]
        finally:
            t.uninstall()
        m = tracing.pass_metrics(t, before, 1.0, rows)
        return {k: m[k] for k in ("search.states", "compile.dispatch_steps",
                                  "smt.check_calls", "smt.lia_calls")}

    assert counters() == counters()


# -- the oracle ---------------------------------------------------------------


def test_each_edit_kind_gets_its_store_outcome(tmp_path):
    names = {"div-checked", "modules-triple-pipeline-guarded",
             "modules-chain-div", "listof-head-div-guarded"}
    reqs = [r for r in W.edit_requests(1) if r.name in names]
    wl = W.Workload("store-edit", 1, W.RunConfig(store_dir=str(tmp_path)), reqs,
                    str(tmp_path))
    for r in [r for r in W.corpus_requests(1) if r.name in names] + \
            wl.pass_requests(-1):  # the cold fill and priming sweep, cut down
        wl.verify(r)
    rows = {}
    for r in wl.pass_requests(0):
        row = wl.verify(r)
        assert W.check_row(r, row) == [], (r.name, r.edit, r.backend)
        rows[(r.name, r.edit, r.backend)] = row
    kinds = {k[1] for k in rows}
    assert kinds == set(W.EDIT_KINDS)
    for (name, edit, _), row in rows.items():
        if edit == W.APPENDED:
            assert row.store_misses >= 1
        else:
            assert row.store_misses == 0 and row.store_hits >= 1
    wl.close()


def test_oracle_flags_a_wrong_verdict():
    r = W.Request("x", "core", "(quotient 1 0)", W.SAFE)
    row = verify_source(r.source, backend="core")
    assert W.check_row(r, row)


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
