"""``tools/wall_tripwire.py``: the same-machine wall comparison of two
source trees.  The bench runs are faked here except in the one test
that needs a run to fail."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "tools" / "wall_tripwire.py"


@pytest.fixture
def tripwire():
    spec = importlib.util.spec_from_file_location("wall_tripwire", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fake_runs(monkeypatch, tripwire, walls: dict) -> list:
    """Make ``bench_totals`` answer ``walls[tree name]`` in turn, and
    record the order the trees ran in."""
    order = []

    def bench_totals(tree, out):
        order.append(tree.name)
        wall, slowest = walls[tree.name].pop(0)
        return {"wall_ms": wall, "max_wall_ms": slowest}

    monkeypatch.setattr(tripwire, "bench_totals", bench_totals)
    return order


def _trees(tmp_path) -> list[str]:
    for name in ("base", "head"):
        (tmp_path / name).mkdir()
    return [str(tmp_path / "base"), str(tmp_path / "head")]


@pytest.mark.parametrize("head, code", [
    ([(100, 10), (130, 13), (119, 11)], 0),  # fastest 100 <= 90 * 1.2
    ([(125, 10), (121, 11), (130, 10)], 1),  # fastest 121 > 90 * 1.2
    ([(95, 30), (100, 40), (96, 50)], 0),    # the slowest row decides nothing
    ([(80, 8), (85, 9), (500, 90)], 0),      # one disturbed run is ignored
], ids=["within", "slower", "slowest-row", "one-outlier"])
def test_fastest_total_decides(monkeypatch, tmp_path, tripwire, head, code):
    base = [(100, 10), (90, 9), (110, 11)]  # fastest 90 and 9
    order = _fake_runs(monkeypatch, tripwire, {"base": base, "head": head})
    assert tripwire.main(_trees(tmp_path)) == code
    assert order == ["base", "head"] * 3  # alternating


@pytest.mark.parametrize("bad", ["fast", None, float("nan"), True])
def test_a_total_that_is_not_a_number_exits_2(monkeypatch, tmp_path,
                                               tripwire, capsys, bad):
    walls = {"base": [(100, 10)] * 3, "head": [(100, 10), (bad, 10),
                                               (100, 10)]}
    _fake_runs(monkeypatch, tripwire, walls)
    assert tripwire.main(_trees(tmp_path)) == 2
    assert "wall_ms: not a number" in capsys.readouterr().err


def test_a_tree_that_cannot_bench_exits_2(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "bench exited" in proc.stderr
