"""The shared primitive base of the scv engine (``scv.engine``).

The primitive frame and its frozen heap are built once per process,
bind every registry primitive, and are reused by every later
verification (every verification numbers its locations from 0).  Reuse
must be invisible: rows equal those of a fresh process and the shared
dicts and frames never change.  Heap→formula translation walks only a
heap's overlay when its base can state no integer fact; the walk must
give the same conjuncts as the full one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core.heap import PLt, HConst
from repro.core.syntax import Loc
from repro.driver.corpus import CORPUS, get_program
from repro.driver.report import stable_row
from repro.driver.runner import verify_source
from repro.prims import REGISTRY
from repro.scv import engine, proof
from repro.scv.heap import UAlias, UConc, UHeap, UOpq
from repro.scv.machine import SMachine
from repro.scv.tags import TAG_INTEGER

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

#: A module program with a demonic client, a struct program and a
#: vector program, then the first one again.
SEQUENCE = ("modules-triple-pipeline", "struct-posn-invx",
            "vector-ref-unchecked", "modules-triple-pipeline")


def _row(name: str) -> dict:
    return stable_row(asdict(verify_source(get_program(name).source,
                                           name=name, backend="scv")))


def _fresh_process_row(name: str) -> dict:
    script = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[2])\n"
        "from tests.test_scv_shared_base import _row\n"
        "print(json.dumps(_row(sys.argv[1])))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, name, str(REPO_SRC.parent)],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": str(REPO_SRC)},
    )
    return json.loads(out.stdout)


def _fresh_build(monkeypatch) -> engine._SharedBase:
    """The shared base a build from scratch gives."""
    with monkeypatch.context() as m:
        m.setattr(engine, "_SHARED_BASE", None)
        return engine._shared_base()


class TestSharedBase:
    def test_reuse_is_invisible(self, monkeypatch):
        monkeypatch.setattr(engine, "_SHARED_BASE", None)
        rows = [_row(name) for name in SEQUENCE]
        # JSON round trip: the fresh rows arrive as JSON.
        rows = json.loads(json.dumps(rows))
        fresh = {name: _fresh_process_row(name) for name in set(SEQUENCE)}
        for name, row in zip(SEQUENCE, rows):
            assert row == fresh[name], name

        # One base served every program, and it binds the whole registry.
        shared = engine._SHARED_BASE
        assert set(REGISTRY) <= set(shared.env.frame)
        assert set(shared.env.frame) - set(REGISTRY) == {
            "any/c", "empty", "null"}
        rebuilt = _fresh_build(monkeypatch)
        assert shared.env.frame == rebuilt.env.frame
        assert list(shared.env.frame) == list(rebuilt.env.frame)
        assert shared.env.parent is None
        assert dict(shared.heap.items()) == dict(rebuilt.heap.items())
        assert list(shared.heap.items()) == list(rebuilt.heap.items())
        assert shared.loc_end == rebuilt.loc_end
        assert shared.names == rebuilt.names
        assert shared.heap.inert_base

    def test_a_build_names_its_globals_from_zero(self, monkeypatch):
        monkeypatch.setattr(engine, "_SHARED_BASE", None)
        built = engine._shared_base()
        assert engine._shared_base() is built
        assert {l.name for l in built.env.frame.values()} == {
            f"g{i}" for i in range(built.loc_end)
        }
        # The cursor a verification starts from is positioned after it.
        _, _, names = engine.build_base_heap(SMachine())
        assert (names.loc, names.syn) == (built.loc_end, 0)

    def test_struct_bindings_are_layered_per_program(self, monkeypatch):
        from repro.lang.parser import parse_program

        monkeypatch.setattr(engine, "_SHARED_BASE", None)
        program = parse_program(get_program("struct-posn-invx").source)
        machine = SMachine(struct_types=engine.collect_struct_types(program))
        env, heap, names = engine.build_base_heap(machine)
        shared = engine._SHARED_BASE
        # Struct bindings number on from the shared globals.
        assert env.frame["posn"] == Loc(f"g{shared.loc_end}")
        assert names.loc == shared.loc_end + 4  # ctor, predicate, 2 fields
        assert env is not shared.env
        assert set(env.frame) > set(shared.env.frame)
        assert "posn" in env.frame and "posn" not in shared.env.frame
        assert engine.global_names(env) is None
        assert engine.global_names(shared.env) is shared.names
        # The shared heap itself stays overlay-free.
        assert list(shared.heap.overlay_items()) == []


def _heaps_translated(monkeypatch) -> list[UHeap]:
    """Every heap the scv proof system and counterexample construction
    translate while verifying the scv corpus."""
    seen: list[UHeap] = []
    translate = proof.translate_uheap_parts

    def recording(heap):
        seen.append(heap)
        return translate(heap)

    monkeypatch.setattr(proof, "translate_uheap_parts", recording)
    for prog in CORPUS:
        if "scv" in prog.backends:
            verify_source(prog.source, backend="scv")
    monkeypatch.undo()
    return seen


def _full_walk(heap: UHeap):
    """The translation with the overlay-only shortcut turned off."""
    whole = UHeap(dict(heap.overlay_items()), heap._base,
                  heap.has_global_writes, inert_base=False)
    return proof.translate_uheap_parts(whole)


class TestOverlayOnlyTranslation:
    def test_matches_the_full_walk_on_search_heaps(self, monkeypatch):
        heaps = _heaps_translated(monkeypatch)
        assert len(heaps) > 100
        assert all(h.inert_base for h in heaps)
        nonempty = 0
        for heap in heaps:
            parts = proof.translate_uheap_parts(heap)
            assert parts == _full_walk(heap)
            nonempty += bool(parts)
        assert nonempty > 50

    def test_a_base_integer_forces_the_full_walk(self):
        g0, u1, u2 = Loc("g0"), Loc("u1"), Loc("u2")
        base = UHeap().set(g0, UConc(5)).frozen()
        assert not base.inert_base
        heap = base.set(u1, UOpq(frozenset({TAG_INTEGER}), (PLt(HConst(3)),)))
        heap = heap.set(u2, UAlias(g0))
        parts = proof.translate_uheap_parts(heap)
        assert parts == _full_walk(heap)
        assert len(parts) == 3  # g0 = 5, u1 < 3, u2 = g0

    @pytest.mark.parametrize("cell", [
        UConc(5),
        UOpq(frozenset({TAG_INTEGER}), (PLt(HConst(3)),)),
        UAlias(Loc("u9")),
    ])
    def test_a_base_that_can_state_a_fact_is_not_inert(self, cell):
        heap = UHeap().set(Loc("g0"), cell).frozen()
        assert not heap.inert_base
        assert heap.set(Loc("u3"), UConc(True)).inert_base is False

    def test_a_base_of_non_integer_cells_is_inert(self):
        heap = UHeap().set(Loc("g0"), UConc(True)).set(
            Loc("g1"), UOpq()).frozen()
        assert heap.inert_base
        assert proof.translate_uheap_parts(heap) == ()
