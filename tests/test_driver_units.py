"""Verification units (repro.driver.units): one plan for every run.

* **one plan** — a multi-module scv program gives the same row with no
  store, a cold store and a warm store (volatile fields aside);
* **state** — a program with mutable state is one unit, so a bug that
  module state carries from one module's client into another module or
  the main expression is found with and without a store;
* **no store on the store-less path** — verifying without a store, or
  starting a pool worker without one, imports neither ``repro.store``
  nor ``hashlib``;
* **combining** — every ``ProgramResult`` field is summed, max'd, taken
  from the deciding unit or set after combining, so a new counter
  cannot silently read 0 on a multi-unit row.
"""

import os
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest

from repro.driver.corpus import get_program
from repro.driver.report import (
    STATUS_COUNTEREXAMPLE,
    STATUS_SAFE,
    STATUS_TIMEOUT,
    VOLATILE_ROW_FIELDS,
    CexReport,
    ProgramResult,
)
from repro.driver.runner import RunConfig, verify_source
from repro.driver.units import (
    _SUMMED_FIELDS,
    CLIENT_ALL,
    CLIENT_MODULE,
    combine_units,
    plan_units,
)
from repro.lang.parser import parse_program
from repro.lang.pretty import pp_program

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

MULTI_MODULE = (
    "modules-chain-div",
    "modules-chain-div-guarded",
    "modules-main-prim-div",
    "modules-main-prim-div-guarded",
    "modules-triple-pipeline",
    "modules-triple-pipeline-guarded",
)


#: Multi-module programs whose bug needs module state to cross units: a
#: module's units would each report safe.
STATEFUL = {
    # The client sets x through a provide; then the main expression
    # divides by it.
    "setter-then-main": (
        "(module m\n"
        "  (define x 1)\n"
        "  (define (set-x v) (set! x v))\n"
        "  (define (get-x) x)\n"
        "  (provide [set-x (-> integer? any/c)] [get-x (-> integer?)]))\n"
        "(quotient 100 (get-x))"
    ),
    # A later module zeroes an earlier module's variable while loading.
    "load-time-set": (
        "(module a\n"
        "  (define x 1)\n"
        "  (define (f) (quotient 100 x))\n"
        "  (define (set-x v) (set! x v))\n"
        "  (provide [f (-> integer?)] [set-x (-> integer? any/c)]))\n"
        "(module b\n"
        "  (define y (set-x 0))\n"
        "  (provide [y any/c]))"
    ),
    # The same through a vector cell.
    "vector-setter-then-main": (
        "(module m\n"
        "  (define cell (vector 1))\n"
        "  (define (zero!) (vector-set! cell 0 0))\n"
        "  (define (get) (vector-ref cell 0))\n"
        "  (provide [zero! (-> any/c)] [get (-> integer?)]))\n"
        "(quotient 100 (get))"
    ),
}


def _stable(row: ProgramResult) -> dict:
    return {k: v for k, v in asdict(row).items()
            if k not in VOLATILE_ROW_FIELDS}


class TestPlan:
    def test_multi_module_scv_programs_split(self):
        for name in MULTI_MODULE:
            units = plan_units(get_program(name).source, "scv")
            assert len(units) > 1, name
            assert all(u.marker != CLIENT_ALL for u in units), name

    def test_core_and_unparseable_programs_are_one_unit(self):
        source = get_program("modules-chain-div").source
        [unit] = plan_units(source, "core")
        assert unit.marker == CLIENT_ALL and unit.source == source
        [unit] = plan_units("(((", "scv")
        assert unit.marker == CLIENT_ALL and unit.source == "((("

    def test_keyed_plans_carry_every_units_program(self):
        # A store keys units on their programs; a store-less run does
        # not parse text it need not split.
        source = get_program("modules-chain-div").source
        assert plan_units(source, "core").pop().program is None
        [unit] = plan_units(source, "core", keyed=True)
        assert pp_program(unit.program) == pp_program(parse_program(source))
        assert plan_units("(((", "scv", keyed=True).pop().program is None
        for keyed in (False, True):
            for unit in plan_units(source, "scv", keyed=keyed):
                assert pp_program(unit.program) == unit.source

    @pytest.mark.parametrize("source", STATEFUL.values(), ids=list(STATEFUL))
    def test_programs_with_state_are_one_unit(self, source):
        [unit] = plan_units(source, "scv")
        assert unit.marker == CLIENT_ALL and unit.client_of is None


class TestOnePlan:
    @pytest.mark.parametrize("name", MULTI_MODULE)
    def test_store_does_not_change_the_row(self, name, tmp_path):
        prog = get_program(name)
        plain_cfg = RunConfig(timeout_s=60.0)
        store_cfg = replace(plain_cfg, store_dir=str(tmp_path / "store"))
        rows = [
            verify_source(prog.source, name=name, kind=prog.kind,
                          config=cfg, backend="scv")
            for cfg in (plain_cfg, store_cfg, store_cfg)
        ]
        plain, cold, warm = rows
        assert plain.as_expected, (name, plain.status, plain.detail)
        assert _stable(plain) == _stable(cold) == _stable(warm)
        assert plain.store_hits == plain.store_misses == 0
        assert cold.store_hits == 0 and cold.store_misses > 1
        assert warm.store_hits == cold.store_misses and warm.store_misses == 0

    @pytest.mark.parametrize("source", STATEFUL.values(), ids=list(STATEFUL))
    def test_module_state_bug_is_found_with_and_without_store(
        self, source, tmp_path,
    ):
        plain_cfg = RunConfig(timeout_s=60.0)
        store_cfg = replace(plain_cfg, store_dir=str(tmp_path / "store"))
        for cfg in (plain_cfg, store_cfg, store_cfg):
            row = verify_source(source, name="p", kind="buggy", config=cfg,
                                backend="scv")
            assert row.status == STATUS_COUNTEREXAMPLE, (row.status,
                                                         row.detail)
            assert row.counterexample.validated_conc

    def test_store_less_run_imports_no_store(self):
        script = (
            "import sys\n"
            "from repro.driver.corpus import get_program\n"
            "from repro.driver.runner import verify_source\n"
            "r = verify_source(get_program('modules-triple-pipeline').source,"
            " backend='scv')\n"
            "assert r.status == 'counterexample', r.status\n"
            "print(sorted(m for m in sys.modules"
            " if m == 'hashlib' or m.startswith('repro.store')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_SRC)}, timeout=120,
            check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_store_less_worker_imports_no_store(self):
        # A ``--jobs N`` worker without a store registers no store flush.
        script = (
            "import sys\n"
            "from dataclasses import asdict\n"
            "from repro.driver.runner import RunConfig, init_worker\n"
            "init_worker(asdict(RunConfig()))\n"
            "print(sorted(m for m in sys.modules"
            " if m == 'hashlib' or m.startswith('repro.store')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_SRC)}, timeout=120,
            check=True,
        )
        assert out.stdout.strip() == "[]"


#: How ``combine_units`` folds each field, beyond ``_SUMMED_FIELDS``.
_FROM_DECIDING_UNIT = {"status", "counterexample", "detail"}
_SET_AFTER = {
    "name", "kind", "backend", "wall_ms", "store_hits", "store_misses",
    "modules_reverified", "deadline_enforced",
}


class TestCombine:
    def test_every_field_has_a_fold(self):
        summed = set(_SUMMED_FIELDS)
        groups = (summed, _FROM_DECIDING_UNIT, _SET_AFTER)
        assert sum(len(g) for g in groups) == len(set().union(*groups))
        assert set().union(*groups) == {f.name for f in fields(ProgramResult)}

    def test_folds_read_every_unit(self):
        numeric = [f.name for f in fields(ProgramResult)
                   if f.type in ("int", "float") and f.name != "wall_ms"]
        cex = CexReport({}, "a1", "quotient", None, True)

        def unit_row(i: int, status: str, **kw) -> ProgramResult:
            return ProgramResult(
                name=f"p::{i}", kind="buggy", status=status, wall_ms=1.0,
                backend="scv", deadline_enforced=i != 1, detail=f"d{i}",
                **{f: i + 1 for f in numeric}, **kw,
            )

        units = plan_units(get_program("modules-triple-pipeline").source,
                           "scv")
        rows = [unit_row(0, STATUS_SAFE), unit_row(1, STATUS_TIMEOUT),
                unit_row(2, STATUS_COUNTEREXAMPLE, counterexample=cex)]
        row = combine_units("p", "buggy", "scv", units, rows, wall_ms=9.0,
                            store_hits=1, store_misses=2)
        for f in _SUMMED_FIELDS:
            assert getattr(row, f) == 1 + 2 + 3, f
        assert row.status == STATUS_COUNTEREXAMPLE
        assert row.counterexample is cex
        assert row.detail == f"[{CLIENT_MODULE}m3] d2"
        assert (row.name, row.kind, row.backend, row.wall_ms) == (
            "p", "buggy", "scv", 9.0)
        assert (row.store_hits, row.store_misses, row.modules_reverified) \
            == (1, 2, 2)
        assert row.deadline_enforced is False
