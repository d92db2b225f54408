"""A seeded population of programs whose searches prune: what the
seen-set is for, and what two-level admission must not change.

The search kernel (``search.kernel``) admits a state unfingerprinted
while its cheap admission key (``CoreFingerprinter.key``,
``ScvFingerprinter.key``) is new, and fingerprints only when a key
repeats.  That is exact only if a key is a function of the canonical
fingerprint.  Two properties pin it, on both backends, compiled and
``--no-compile``:

* **the differential** — every program's row (verdict, counterexample,
  ``states_explored``, ``pruned_states``, ``chained_steps``) and its
  ``dispatch_steps`` are identical under the real keys and under the
  reference: fingerprinters without ``key``, which the kernel gives one
  constant key, so it fingerprints every state of a search that admits
  more than one;
* **key soundness** — over every state the reference kernel
  fingerprints, on this population and the whole corpus, states with
  the same fingerprint have the same key.

The population has three families, all of whose searches close cycles
or rejoin paths (the benchmark's own programs prune nothing):

* loops on an unknown bound, ``(letrec ([f (λ (x) (if (< x •) (f x)
  0))]) (f 1))`` and variants: the second trip round the loop is the
  first one's state again;
* self-application, ``((λ (x) (x x)) (λ (x) (x x)))`` and variants
  (scv only: the typed core rejects it): a deterministic loop caught at
  the chain cap;
* diamonds: both arms of a test on an unknown rejoin in one call, and
  the tested unknown is garbage by then.

``REPRO_FUZZ_N`` scales the population as it does the differential fuzz
(``tests/test_differential.py``); the seed is fixed.
"""

import os
import random
from dataclasses import asdict, replace

import pytest

import repro.search
from repro.driver.corpus import CORPUS
from repro.driver.report import stable_row
from repro.driver.runner import RunConfig, verify_source
from repro.search import CoreFingerprinter, ScvFingerprinter

SEED = 20261020


def _env_int(var: str, default: int) -> int:
    try:
        return max(1, int(os.environ.get(var, "") or default))
    except ValueError:
        return default


#: One cyclic program per five fuzzed closed programs, and at least two
#: of each family.
N_CYCLIC = max(6, _env_int("REPRO_FUZZ_N", 140) // 5)

#: Every search here closes its cycles within 30 states; the budget only
#: bounds a run whose pruning is broken.
CFG = RunConfig(timeout_s=0, max_states=200)


def _loop(rng: random.Random) -> str:
    test = rng.choice(("(< x •)", "(<= x •)", "(> • x)", "(= x •)",
                       "(< (+ x 1) •)"))
    again = rng.choice(("(f x)", "(f (+ x 0))", "(f (- (+ x 1) 1))"))
    done = rng.choice(("0", "x", "(+ x 1)"))
    start = rng.randint(0, 9)
    if rng.random() < 0.5:
        return (f"(letrec ([f (lambda (x) (if {test} {again} {done}))])"
                f" (f {start}))")
    return f"(define (f x) (if {test} {again} {done}))\n(f {start})"


def _self_application(rng: random.Random) -> str:
    k = rng.randint(0, 9)
    return rng.choice((
        "((lambda (x) (x x)) (lambda (x) (x x)))",
        f"((lambda (x y) (x x y)) (lambda (x y) (x x y)) {k})",
        f"((lambda (x y) (x x (+ y 0))) (lambda (x y) (x x (+ y 0))) {k})",
        "(define (w x) (x x))\n(w w)",
        "(let ([d (lambda (x) (x x))]) (d d))",
    ))


def _diamond(rng: random.Random) -> str:
    depth = rng.randint(1, 3)
    lines = ["(define (g0 x) x)"]
    for i in range(1, depth + 1):
        test = rng.choice(("(zero? •)", "(< x •)", "(= • 2)"))
        step = rng.randint(0, 3)
        lines.append(f"(define (g{i} x) (if {test} (g{i - 1} (+ x {step}))"
                     f" (g{i - 1} (+ x {step}))))")
    lines.append(f"(quotient 100 (add1 (g{depth} {rng.randint(0, 9)})))")
    return "\n".join(lines)


_FAMILIES = (
    ("loop", ("core", "scv"), _loop),
    ("self-application", ("scv",), _self_application),
    ("diamond", ("core", "scv"), _diamond),
)


def population() -> list[tuple[str, str, tuple[str, ...]]]:
    """``(family, source, backends)``, the families in turn."""
    rng = random.Random(SEED)
    out = []
    for i in range(N_CYCLIC):
        family, backends, gen = _FAMILIES[i % len(_FAMILIES)]
        out.append((family, gen(rng), backends))
    return out


POPULATION = population()
RUNS = [(family, source, backend, compiled)
        for family, source, backends in POPULATION
        for backend in backends
        for compiled in (True, False)]


def _keyless(kind):
    """A fingerprinter factory whose fingerprinters have no ``key``: the
    kernel's constant-key reference."""
    def make():
        return kind().__call__
    return make


@pytest.fixture
def reference(monkeypatch):
    """Run the body's searches on the constant-key reference kernel."""
    monkeypatch.setattr(repro.search, "CoreFingerprinter",
                        _keyless(CoreFingerprinter))
    monkeypatch.setattr(repro.search, "ScvFingerprinter",
                        _keyless(ScvFingerprinter))


def _run(source: str, backend: str, compiled: bool):
    return verify_source(source, name="cyclic", backend=backend,
                         config=replace(CFG, compile=compiled))


def _signature(row) -> tuple:
    """What the two kernels must agree on: the stable row (answers and
    the search counters) and the dispatch count."""
    return stable_row(asdict(row)), row.dispatch_steps


@pytest.fixture(scope="module")
def keyed_rows():
    return {run: _run(*run[1:]) for run in RUNS}


class TestPopulation:
    def test_every_family_is_present(self):
        families = {family for family, _, _ in POPULATION}
        assert families == {name for name, _, _ in _FAMILIES}

    def test_every_search_ends_in_a_verdict(self, keyed_rows):
        bad = [(run, row.status) for run, row in keyed_rows.items()
               if row.status not in ("safe", "counterexample")]
        assert bad == []

    def test_the_population_prunes(self, keyed_rows):
        pruned = {family: 0 for family, _, _ in _FAMILIES}
        for (family, *_), row in keyed_rows.items():
            pruned[family] += row.pruned_states
        assert all(n > 0 for n in pruned.values()), pruned

    def test_real_keys_match_the_constant_key_reference(
            self, keyed_rows, reference):
        diverged = [
            run for run in RUNS
            if _signature(_run(*run[1:])) != _signature(keyed_rows[run])
        ]
        assert diverged == []


class _Recorder:
    """Reference fingerprinters that record, per search, each state they
    fingerprint with its fingerprint."""

    def __init__(self) -> None:
        self.searches: list[list] = []

    def factory(self, kind):
        def make():
            fingerprint, seen = kind(), []
            self.searches.append(seen)

            def record(state):
                fp = fingerprint(state)
                seen.append((state, fp))
                return fp
            return record
        return make


class TestKeySoundness:
    """Equal fingerprints give equal keys, on every state the reference
    kernel fingerprints."""

    @pytest.fixture(scope="class")
    def searches(self):
        recorder = _Recorder()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(repro.search, "CoreFingerprinter",
                       recorder.factory(CoreFingerprinter))
            mp.setattr(repro.search, "ScvFingerprinter",
                       recorder.factory(ScvFingerprinter))
            for _, source, backend, compiled in RUNS:
                _run(source, backend, compiled)
            for program in CORPUS:
                for backend in program.backends:
                    _run(program.source, backend, True)
        return recorder.searches

    def test_equal_fingerprints_have_equal_keys(self, searches):
        keys = {"core": CoreFingerprinter().key,
                "scv": ScvFingerprinter().key}
        states = pairs = 0
        for seen in searches:
            first: dict = {}
            for state, fp in seen:
                key = keys["scv" if hasattr(state, "kont") else "core"]
                states += 1
                if fp in first:
                    pairs += 1
                    assert key(state) == key(first[fp]), state
                else:
                    first[fp] = state
        assert states > 500
        assert pairs > N_CYCLIC
