"""The bytecode compiler (``repro.compile``): lowering and the dispatch
executors.

Two layers of pinning:

* **golden opcode streams** — the pre-order instruction sequence for
  the representative forms (application, conditional, letrec, contract
  monitor) is part of the compiler's contract, and lowering is a pure
  function of the program: fresh parses lower to the same streams;
* **byte-identity over the smoke corpus** — compiled runs must produce
  the same rows as the step machines outside the volatile fields,
  without a store and with a cold and a warm one; the step machines
  are the semantics of record (the fuzz oracle in
  ``tests/test_differential.py`` extends this to random programs);
* **state-level identity** — every ``(final_state, successors)`` pair the
  search kernel's expansion returns is the same with and without an
  executor, at several chain limits, and the core executor rebuilds a
  whole term only for the states it hands back.
"""

from dataclasses import asdict, replace

import pytest

from repro.compile import CoreExecutor, ScvExecutor, lower_core, lower_scv
from repro.compile import executor as executor_module
from repro.core.heap import NameCursor
from repro.core.machine import Machine, inject
from repro.core.proof import ProofSystem
from repro.core.syntax import NAT, App, If, Lam, Num, PrimApp, Ref
from repro.core.typecheck import check_program
from repro.driver.corpus import corpus_names, get_program
from repro.driver.lower import lower_program
from repro.driver.report import stable_row
from repro.driver.runner import RunConfig, verify_source
from repro.lang.ast import Quote, UApp, UIf, ULam, ULetrec, UVar
from repro.lang.parser import parse_program
from repro.scv.engine import (
    assemble,
    collect_struct_types,
    inject_program,
    uses_contracts,
)
from repro.scv.machine import SMachine, UMon
from repro.scv.proof import UProofSystem
from repro.search import CoreFingerprinter, ScvFingerprinter, SearchKernel
from repro.search import SearchStats

SMOKE = corpus_names(tag="smoke")


# ---------------------------------------------------------------------------
# Golden opcode streams
# ---------------------------------------------------------------------------


class TestScvLowering:
    def test_application_of_a_lambda(self):
        root = UApp(ULam(("x",), UVar("x")), (Quote(1),), "ℓ")
        units = lower_scv(root)
        # The lambda body is its own unit, discovered from the root.
        assert [u.kind for u in units] == ["module", "lambda"]
        assert units[0].opcode_names() == ("app", "closure", "quote")
        assert units[1].opcode_names() == ("var",)

    def test_conditional(self):
        root = UIf(UVar("t"), Quote(1), Quote(2))
        (unit,) = lower_scv(root)
        assert unit.opcode_names() == ("if", "var", "quote", "quote")

    def test_letrec(self):
        loop = ULam(("x",), UApp(UVar("f"), (UVar("x"),), "r"), name="f")
        root = ULetrec((("f", loop),), UApp(UVar("f"), (Quote(0),), "c"))
        units = lower_scv(root)
        assert units[0].opcode_names() == (
            "letrec", "closure", "app", "var", "quote",
        )
        # The recursive body compiles as a separate lambda unit.
        assert units[1].opcode_names() == ("app", "var", "var")

    def test_contract_monitor(self):
        root = UMon(UVar("pos?"), ULam(("x",), UVar("x")),
                    "m", "client", "ℓ")
        units = lower_scv(root)
        assert units[0].opcode_names() == ("mon", "var", "closure")
        assert units[1].opcode_names() == ("var",)

    def test_interning_shares_equal_constants(self):
        root = UIf(Quote(0), Quote(0), Quote(1))
        (unit,) = lower_scv(root)
        _, test_q, then_q, else_q = unit.instructions
        assert test_q is then_q  # hash-consed: one tuple for (quote 0)
        assert else_q is not test_q

    def test_interning_keeps_false_and_zero_distinct(self):
        # Python's == conflates False == 0 == 0.0: a raw-tuple interner
        # would rewrite (quote #f) into (quote 0) and flip branches.
        root = UIf(Quote(False), Quote(0), Quote(0.0))
        (unit,) = lower_scv(root)
        _, test_q, then_q, else_q = unit.instructions
        assert test_q[1] is False
        assert then_q[1] == 0 and then_q[1].__class__ is int
        assert else_q[1].__class__ is float
        assert len({id(test_q), id(then_q), id(else_q)}) == 3


class TestCoreLowering:
    def test_application_of_a_lambda(self):
        root = App(Lam("x", NAT, Ref("x")), Num(1))
        units = lower_core(root)
        assert [u.kind for u in units] == ["module", "lambda"]
        assert units[0].opcode_names() == ("app", "closure", "const")
        assert units[1].opcode_names() == ("var",)

    def test_conditional(self):
        (unit,) = lower_core(If(Num(0), Num(1), Num(2)))
        assert unit.opcode_names() == ("if", "const", "const", "const")

    def test_primitive_application(self):
        (unit,) = lower_core(PrimApp("div", (Num(1), Num(2)), "ℓ"))
        assert unit.opcode_names() == ("prim", "const", "const")


MODULE_SRC = (
    "(module m\n"
    "  (define (shift x) (+ x 10))\n"
    "  (provide [shift (-> positive? positive?)]))"
)


def _assembled(source: str):
    return assemble(parse_program(source), None, NameCursor())


class TestLoweringIsAPureFunctionOfTheProgram:
    """Units are compiled afresh on every run, so two parses of one
    program must lower to the same streams, each bound to its own AST."""

    def test_scv_fresh_parses_lower_alike(self):
        first, again = _assembled(MODULE_SRC), _assembled(MODULE_SRC)
        units, fresh = lower_scv(first), lower_scv(again)
        assert [u.kind for u in fresh] == [u.kind for u in units]
        assert [u.opcode_names() for u in fresh] == \
            [u.opcode_names() for u in units]
        assert fresh[0].root is again and units[0].root is first

    def test_core_fresh_lowerings_agree(self):
        src = get_program("sum-unknown-fn-abs").source
        streams = []
        for _ in range(2):
            root = lower_program(parse_program(src))
            units = lower_core(root)
            assert units[0].root is root
            streams.append([u.opcode_names() for u in units])
        assert streams[0] == streams[1]


# ---------------------------------------------------------------------------
# Byte-identity over the smoke corpus
# ---------------------------------------------------------------------------


class TestSmokeCorpusByteIdentity:
    """Every smoke program, on every engine it supports: the compiled
    rows equal the interpreted rows (volatile fields aside) without a
    store and with a cold and a warm persistent store."""

    @staticmethod
    def _rows(cfg: RunConfig):
        out = {}
        for name in SMOKE:
            prog = get_program(name)
            for engine in prog.backends:
                row = verify_source(
                    prog.source, name=name, kind=prog.kind,
                    config=cfg, backend=engine,
                )
                out[(name, engine)] = row
        return out

    def test_compiled_matches_interpreted_across_store_temperatures(
        self, tmp_path
    ):
        # Store runs verify scv programs module-by-module (and combine
        # the unit rows), so they legitimately differ from whole-program
        # rows: the oracle compares compile on vs off *within* each
        # configuration, never across configurations.
        base = RunConfig(timeout_s=60.0)
        store_i = str(tmp_path / "store-interp")
        store_c = str(tmp_path / "store-compiled")
        matrix = {
            "no-store": (replace(base, compile=False),
                         replace(base, compile=True)),
            # The same config twice: the first pass is the cold store,
            # the second replays warm (separate stores per engine mode,
            # so the compiled run cannot just replay interpreted rows).
            "store-cold": (replace(base, compile=False, store_dir=store_i),
                           replace(base, compile=True, store_dir=store_c)),
            "store-warm": (replace(base, compile=False, store_dir=store_i),
                           replace(base, compile=True, store_dir=store_c)),
        }
        dispatch = {}
        for label, (interp_cfg, compiled_cfg) in matrix.items():
            want = {k: stable_row(asdict(r)) for k, r in self._rows(interp_cfg).items()}
            assert want  # the smoke tag is non-empty
            rows = self._rows(compiled_cfg)
            got = {k: stable_row(asdict(r)) for k, r in rows.items()}
            assert got == want, f"[{label}] compiled diverges from interpreted"
            dispatch[label] = {k: r.dispatch_steps for k, r in rows.items()}
        assert any(dispatch["no-store"].values())

    def test_warm_store_replays_without_recompiling(self, tmp_path):
        store = str(tmp_path / "store")
        cfg = RunConfig(timeout_s=60.0, store_dir=store)
        prog = get_program("modules-chain-div")
        cold = verify_source(prog.source, name=prog.name, kind=prog.kind,
                             config=cfg, backend="scv")
        assert cold.compiled_units > 0 and cold.compile_ms > 0
        warm = verify_source(prog.source, name=prog.name, kind=prog.kind,
                             config=cfg, backend="scv")
        assert stable_row(asdict(warm)) == stable_row(asdict(cold))
        # A pure store replay never reaches the compiler, so it reports
        # no compile cost; the work counter replays as stored.
        assert warm.store_misses == 0
        assert warm.compiled_units == 0 and warm.compile_ms == 0
        assert warm.dispatch_steps == cold.dispatch_steps > 0


class TestCompileFlagPlumbing:
    def test_compile_off_reports_no_units(self):
        cfg = RunConfig(timeout_s=60.0, compile=False)
        row = verify_source("(+ 1 2)", config=cfg, backend="scv")
        assert row.compiled_units == 0
        assert row.dispatch_steps == 0

    def test_compile_on_reports_units_and_steps(self):
        cfg = RunConfig(timeout_s=60.0, compile=True)
        row = verify_source("(+ 1 2)", config=cfg, backend="scv")
        assert row.compiled_units >= 1
        assert row.dispatch_steps > 0

    def test_compiled_counters_repeat_across_runs(self):
        cfg = RunConfig(timeout_s=60.0, compile=True)
        prog = get_program("modules-chain-div")
        rows = [
            verify_source(prog.source, name=prog.name, kind=prog.kind,
                          config=cfg, backend="scv")
            for _ in range(2)
        ]
        assert stable_row(asdict(rows[0])) == stable_row(asdict(rows[1]))
        assert rows[0].compiled_units == rows[1].compiled_units > 0
        assert rows[0].dispatch_steps == rows[1].dispatch_steps > 0

    def test_compile_is_not_part_of_the_semantic_digest(self):
        # Compiled and interpreted runs must share store entries.
        from repro.store.fingerprint import config_digest

        on = config_digest(asdict(RunConfig(compile=True)))
        off = config_digest(asdict(RunConfig(compile=False)))
        assert on == off


# ---------------------------------------------------------------------------
# State-level identity of the expanders
# ---------------------------------------------------------------------------

#: Closed recursive loops over a concrete bound, one per loop shape.
LOOPS = {
    "acc": "(define (loop n acc) (if (<= n 0) acc (loop (- n 1) (+ acc 3))))\n"
           "{pre}(quotient 100 (add1 (loop {n} 0)))",
    "fold": "(define (fold f n acc) (if (<= n 0) acc (fold f (- n 1) (f acc n))))\n"
            "{pre}(quotient 100 (add1 (fold (lambda (a i) (+ a (* 2 i))) {n} 0)))",
    "sum": "(define (sum n) (if (<= n 0) 0 (+ 4 (sum (- n 1)))))\n"
           "{pre}(quotient 100 (add1 (sum {n})))",
    "iter": "(define (iter f n x) (if (<= n 0) x (iter f (- n 1) (f x))))\n"
            "{pre}(quotient 100 (add1 (iter (lambda (v) (+ v 5)) {n} 0)))",
    "walk": "(define (walk n acc)"
            " (if (<= n 0) acc (walk (- n 1) (if (< acc 10) (+ acc 6) (- acc 6)))))\n"
            "{pre}(quotient 100 (add1 (walk {n} 0)))",
}

#: A prelude that divides by zero after a short loop.
DIV_ZERO_PRELUDE = (
    "(define (steps m) (if (<= m 0) 0 (+ 1 (steps (- m 1)))))\n"
    "(define pre (quotient 7 (- (steps 2) 2)))\n"
)

CURRIED = (
    "(define (mix a b c) (quotient (* a b) (- c (+ a b))))\n"
    "(mix 1 2 3)"
)

#: Unknown functions on the core backend: ``c`` becomes a case mapping
#: (AppOpq1, then AppCase1), and ``u`` takes and returns functions
#: (AppOpq2, AppOpq3, AppHavoc); its second application is β on the
#: lambda the first one stored.
OPEN = (
    "(define u •)\n"
    "(define c •)\n"
    "(define (f x) (add1 x))\n"
    "(define (g h) (+ ((u h) 1) ((u h) 2)))\n"
    "(quotient 100 (- 7 (+ (g f) (+ (c 1) (c 1)))))"
)

CLOSED_PROGRAMS = [
    *(pytest.param(LOOPS[shape].format(n=n, pre=""), id=f"{shape}-{n}")
      for shape in sorted(LOOPS) for n in (3, 7, 12)),
    *(pytest.param(LOOPS[shape].format(n=5, pre=DIV_ZERO_PRELUDE),
                   id=f"{shape}-div-zero")
      for shape in ("acc", "sum")),
    pytest.param(CURRIED, id="curried"),
]

CHAIN_LIMITS = (1, 2, 3, 5, 128)


def _core_search(source):
    code = lower_program(parse_program(source))
    check_program(code)
    machine = Machine(ProofSystem())
    return machine, inject(code), code, CoreFingerprinter, CoreExecutor


def _scv_search(source):
    program = parse_program(source)
    machine = SMachine(
        struct_types=collect_struct_types(program),
        assume_well_typed=not uses_contracts(program),
        proof=UProofSystem(),
    )
    init = inject_program(program, machine)
    return machine, init, init.control, ScvFingerprinter, ScvExecutor


def _expansions(front_end, source, limit, compiled, max_states):
    """Every ``(final_state, successors)`` pair ``SearchKernel._expand``
    returns over a whole search, with or without the executor."""
    machine, init, code, fingerprinter, executor = front_end(source)
    stats = SearchStats()
    kernel = SearchKernel(
        machine.step,
        fingerprint=fingerprinter(),
        chain_limit=limit,
        max_states=max_states,
        expander=executor(machine, code, stats=stats).expand
        if compiled else None,
        stats=stats,
    )
    seen = []
    expand = kernel._expand

    def recording(state):
        final, succs = expand(state)
        seen.append((final, succs))
        return final, succs

    kernel._expand = recording
    for _ in kernel.run(init):
        pass
    return seen


def _state_key(state):
    return (state.control, dict(state.heap.items()), state.loc_base)


def _assert_same_expansions(front_end, source, limit, max_states=400):
    want = _expansions(front_end, source, limit, False, max_states)
    got = _expansions(front_end, source, limit, True, max_states)
    assert len(got) == len(want)
    for i, ((final, succs), (final_w, succs_w)) in enumerate(zip(got, want)):
        assert _state_key(final) == _state_key(final_w), f"expansion {i}"
        assert (succs is None) == (succs_w is None), f"expansion {i}"
        if succs is not None:
            assert [_state_key(s) for s in succs] == \
                [_state_key(s) for s in succs_w], f"expansion {i}"
    return got


class TestExpanderStateIdentity:
    """The executors' contract at the level it is stated: the pairs the
    kernel's expansion returns (control, heap and counter stamp of the
    final state and of every successor) equal the step machine's,
    pair by pair, whatever the chain limit — so a cap can fall on any
    micro-step, a delegated δ and a conditional among them."""

    @pytest.mark.parametrize("limit", CHAIN_LIMITS)
    @pytest.mark.parametrize("source", CLOSED_PROGRAMS)
    def test_core(self, source, limit):
        assert _assert_same_expansions(_core_search, source, limit)

    @pytest.mark.parametrize("limit", CHAIN_LIMITS)
    @pytest.mark.parametrize("source", CLOSED_PROGRAMS)
    def test_scv(self, source, limit):
        assert _assert_same_expansions(_scv_search, source, limit)

    @pytest.mark.parametrize("limit", CHAIN_LIMITS)
    def test_core_open_program(self, limit, monkeypatch):
        rules = {}
        for name in ("_apply_case", "_app_opq1", "_app_opq_higher"):
            original = getattr(Machine, name)

            def counting(self, *args, _original=original, _name=name):
                rules[_name] = rules.get(_name, 0) + 1
                return _original(self, *args)

            monkeypatch.setattr(Machine, name, counting)
        # Havoc explores without end: a small budget still reaches
        # every rule.
        got = _assert_same_expansions(_core_search, OPEN, limit,
                                      max_states=60)
        assert len(got) > 1
        assert set(rules) == {"_apply_case", "_app_opq1", "_app_opq_higher"}


class TestCoreRebuilds:
    """The core executor reads a whole term back only for the states it
    returns: at most one rebuild per returned state and one per
    successor, however long the chain between them."""

    def test_deep_loop_rebuilds_only_returned_states(self, monkeypatch):
        calls = []
        plug = executor_module._plug_core

        def counting(*args):
            calls.append(1)
            return plug(*args)

        monkeypatch.setattr(executor_module, "_plug_core", counting)
        machine, init, code, fingerprinter, executor = _core_search(
            LOOPS["acc"].format(n=64, pre=""))
        stats = SearchStats()
        expand = executor(machine, code, stats=stats).expand
        returned = []

        def expander(state, limit):
            final, succs, chained = expand(state, limit)
            returned.append(1 + len(succs or ()))
            return final, succs, chained

        kernel = SearchKernel(machine.step, fingerprint=fingerprinter(),
                              expander=expander, stats=stats)
        answers = list(kernel.run(init))
        assert len(answers) == 1 and stats.dispatch_steps > 500
        assert 0 < len(calls) <= sum(returned)
