"""The shared search kernel: fingerprint canonicality, pruning
soundness, strategy behaviour, determinism of the sequential search on
real programs, and the memo-on/off corpus property.

The load-bearing guarantee is the last one: fingerprint memoisation,
subsumption and chain compression may only change how *fast* the search
converges, never what it concludes — the full corpus must produce
byte-identical verdicts with memoisation enabled and disabled, on both
backends.
"""

import os

import pytest

from repro.core import NAT, PrimApp, SNum, SOpq, PLt, HConst
from repro.core.heap import Heap, reset_locs, set_loc_counter
from repro.core.machine import Machine, State, inject
from repro.core.search import SearchStats
from repro.core.syntax import Loc
from repro.core.syntax import reset_labels as reset_core_labels
from repro.driver.corpus import get_program
from repro.driver.lower import lower_program
from repro.driver.runner import RunConfig, run_corpus
from repro.lang.ast import reset_labels as reset_surface_labels
from repro.lang.parser import parse_program
from repro.search import (
    CoreFingerprinter,
    Fingerprint,
    ScvFingerprinter,
    SearchKernel,
)
from repro.search.intern import Interner
from repro.search.kernel import KernelStats
from repro.scv.engine import inject_program
from repro.scv.heap import UConc, UHeap, UOpq
from repro.scv.machine import (
    MEnv,
    SMachine,
    SState,
    reset_syn_labels,
    set_syn_counter,
)
from repro.smt import solver_cache


def _core_state(loc_name: str, store, extra=None) -> State:
    entries = {Loc(loc_name): store}
    if extra:
        entries.update(extra)
    # A non-answer control so refinements stay subsumption-comparable.
    return State(PrimApp("zero?", (Loc(loc_name),), "t"), Heap(entries))


class TestCoreFingerprints:
    def test_stable_across_location_renaming(self):
        fp = CoreFingerprinter()
        a = fp(_core_state("L5", SNum(1)))
        b = fp(_core_state("L9", SNum(1)))
        assert a == b

    def test_distinguishes_different_values(self):
        fp = CoreFingerprinter()
        assert fp(_core_state("L5", SNum(1))) != fp(_core_state("L5", SNum(2)))

    def test_ignores_unreachable_garbage(self):
        fp = CoreFingerprinter()
        a = fp(_core_state("L5", SNum(1)))
        b = fp(_core_state("L5", SNum(1), extra={Loc("L77"): SNum(99)}))
        assert a == b

    def test_opaque_locations_keep_their_label_identity(self):
        # o:-locations are label-derived and re-used by the Opq rule; a
        # structurally identical heap at a plain location is *not* the
        # same state.
        fp = CoreFingerprinter()
        a = fp(_core_state("o:n", SOpq(NAT)))
        b = fp(_core_state("L5", SOpq(NAT)))
        assert a != b

    def test_refinements_are_erased_from_the_shape(self):
        fp = CoreFingerprinter()
        plain = fp(_core_state("L5", SOpq(NAT)))
        refined = fp(_core_state("L5", SOpq(NAT, (PLt(HConst(3)),))))
        assert plain.shape == refined.shape
        assert plain != refined

    def test_subsumption_is_pointwise_subset(self):
        fp = CoreFingerprinter()
        plain = fp(_core_state("L5", SOpq(NAT)))
        refined = fp(_core_state("L5", SOpq(NAT, (PLt(HConst(3)),))))
        assert refined.subsumed_by(plain)  # weaker covers stronger
        assert not plain.subsumed_by(refined)


class TestScvFingerprints:
    def _state(self, loc_name: str, store) -> SState:
        heap = UHeap({Loc(loc_name): store}).frozen()
        # Non-empty continuation so the state is not an answer.
        from repro.scv.machine import KSet

        return SState(Loc(loc_name), MEnv({}), heap, (KSet(Loc(loc_name)),))

    def test_stable_across_location_renaming(self):
        fp = ScvFingerprinter()
        assert fp(self._state("u3", UConc(5))) == fp(self._state("u8", UConc(5)))

    def test_distinguishes_tag_narrowings(self):
        fp = ScvFingerprinter()
        wide = fp(self._state("u3", UOpq()))
        narrow = fp(self._state("u3", UOpq(frozenset({"integer"}))))
        assert wide != narrow

    def test_answers_fold_refinements_into_the_shape(self):
        # Answer states are deduplicated exactly, never subsumed: their
        # refinement sets are what counterexample models are read from.
        fp = ScvFingerprinter()
        heap = UHeap({Loc("u3"): UConc(5)}).frozen()
        answer = SState(Loc("u3"), MEnv({}), heap, ())
        assert answer.is_answer
        assert fp(answer).refs == ()


class TestInterner:
    def test_structurally_equal_tuples_share_identity(self):
        it = Interner()
        a = it.intern((1, ("x", 2), frozenset({3})))
        b = it.intern((1, ("x", 2), frozenset({3})))
        assert a is b
        assert it.hits > 0


def _toy_kernel(step, **kw):
    ident = lambda s: Fingerprint(s, ())  # noqa: E731
    kw.setdefault("fingerprint", ident)
    return SearchKernel(step, **kw)


class TestKernelBehaviour:
    def test_dedup_collapses_the_diamond(self):
        # step(n) branches to two copies of n+1: an exponential tree
        # with only `depth` distinct states.
        def step(n):
            return None if n >= 10 else [n + 1, n + 1]

        stats = KernelStats()
        k = _toy_kernel(step, compress=False, stats=stats)
        answers = list(k.run(0))
        assert answers == [10]
        assert stats.states_explored == 11
        assert stats.pruned == 10

    def test_without_fingerprint_the_tree_is_exponential(self):
        def step(n):
            return None if n >= 6 else [n + 1, n + 1]

        stats = KernelStats()
        k = SearchKernel(step, fingerprint=None, stats=stats)
        answers = list(k.run(0))
        assert len(answers) == 2 ** 6
        assert stats.pruned == 0

    def test_chain_compression_folds_deterministic_runs(self):
        def step(n):
            return None if n >= 50 else [n + 1]

        stats = KernelStats()
        k = _toy_kernel(step, stats=stats)
        assert list(k.run(0)) == [50]
        assert stats.states_explored == 1
        assert stats.chained == 50

    def test_chain_limit_bounds_unproductive_loops(self):
        # A deterministic cycle: without the cap (or fingerprints at cap
        # boundaries) this would never terminate.
        def step(n):
            return [(n + 1) % 7]

        stats = KernelStats()
        k = _toy_kernel(step, chain_limit=3, stats=stats)
        assert list(k.run(0)) == []
        assert stats.pruned >= 1

    def test_strategies_find_the_same_answers(self):
        def step(state):
            n, path = state
            if n >= 3:
                return None
            return [(n + 1, path + "L"), (n + 1, path + "R")]

        found = {}
        for strategy in ("bfs", "dfs", "depth"):
            k = SearchKernel(step, strategy=strategy, fingerprint=None)
            found[strategy] = sorted(p for _, p in k.run((0, "")))
        assert found["bfs"] == found["dfs"] == found["depth"]
        assert len(found["bfs"]) == 8

    def test_unknown_strategy_is_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            SearchKernel(lambda s: None, strategy="astar")

    def test_budget_truncates(self):
        def step(n):
            return [n + 1, -n]  # never an answer, never repeats

        stats = KernelStats()
        k = SearchKernel(step, fingerprint=None, max_states=40, stats=stats)
        assert list(k.run(1)) == []
        assert stats.truncated is True
        assert stats.states_explored == 40


class TestGlobalShadowing:
    """A ``set!`` on a *primitive* name writes a frozen-base ``g…``
    location into the heap overlay.  Fingerprinting treats globals as
    per-program constants (names-only cached frame token); that
    shortcut must be revoked on such paths or states differing only in
    the rebound primitive collide and reachable counterexamples are
    pruned (regression: the memoised run used to report ``safe`` here
    while ``--no-memo`` found the division by zero)."""

    SOURCE = (
        "(define (go y) (if (zero? y) (void)"
        " (set! quotient (lambda (a b) 0))))\n"
        "(define (use z) (if (zero? z) (quotient 1 0) 0))\n"
        "(begin (go •) (use •))"
    )

    def test_set_bang_on_a_primitive_is_not_fingerprint_invisible(self):
        from repro.driver.runner import verify_source

        results = {
            memo: verify_source(
                self.SOURCE, backend="scv",
                config=RunConfig(timeout_s=30.0, memo=memo),
            ).status
            for memo in (True, False)
        }
        assert results[True] == results[False] == "counterexample"

    def test_set_on_a_global_marks_the_heap(self):
        from repro.core.syntax import Loc
        from repro.scv.heap import UConc, UHeap

        base = UHeap().set(Loc("g0"), UConc(1)).frozen()
        assert not base.has_global_writes  # freezing resets the flag
        assert base.set(Loc("u1"), UConc(2)).has_global_writes is False
        assert base.set(Loc("g0"), UConc(3)).has_global_writes is True


def _core_program(name: str):
    reset_surface_labels()
    reset_core_labels()
    reset_locs()
    return lower_program(parse_program(get_program(name).source))


def _scv_init(source: str):
    reset_surface_labels()
    reset_syn_labels()
    reset_locs()
    machine = SMachine()
    return machine, inject_program(parse_program(source), machine)


def _run_core(core, *, memo: bool = True, **kernel_kw):
    """Answer states + deterministic counters for one sequential run."""
    reset_locs()
    solver_cache.clear()
    machine = Machine()
    st = SearchStats()
    kernel = SearchKernel(
        machine.step, fingerprint=CoreFingerprinter() if memo else None,
        enter=machine.proof.note_path, stats=st, **kernel_kw,
    )
    answers = list(kernel.run(inject(core)))
    return answers, (
        st.states_explored, st.chained, st.pruned, st.answers,
        st.truncated, machine.proof.queries, machine.proof.solver_queries,
    )


def _walk(step, init, limit: int):
    """The first ``limit`` states of a plain bfs walk (no memo)."""
    frontier, seen = [init], []
    while frontier and len(seen) < limit:
        state = frontier.pop(0)
        seen.append(state)
        frontier.extend(step(state) or ())
    return seen


class TestSequentialSearchOnRealPrograms:
    """The one search path over real programs.  The machines thread the
    location and synthetic-label counters through states (``loc_base``,
    ``syn_base``), so every state is a pure function of its path: runs
    repeat exactly, a state budget cuts the bfs order at a prefix, and
    the frontier discipline cannot rename what a path allocates."""

    def test_repeated_runs_are_identical(self):
        core = _core_program("sum-unknown-fn-abs")
        first = _run_core(core)
        assert first[0], "the program must reach at least one answer"
        for rep in range(2):
            assert _run_core(core) == first, f"run {rep + 2} diverged"

    @pytest.mark.parametrize("budget", [1, 3, 7])
    def test_truncation_cuts_the_bfs_order_at_a_prefix(self, budget):
        core = _core_program("sum-unknown-fn-abs")
        full, full_counts = _run_core(core)
        assert full_counts[0] > budget
        cut, counts = _run_core(core, max_states=budget)
        assert cut == full[: len(cut)]
        states_explored, truncated = counts[0], counts[4]
        assert states_explored == budget and truncated

    def test_core_step_ignores_the_global_location_counter(self):
        machine = Machine()
        init = inject(_core_program("sum-unknown-fn-abs"))
        states = _walk(machine.step, init, 40)
        assert any(s.loc_base > init.loc_base for s in states)
        for state in states:
            set_loc_counter(state.loc_base + 1000)
            scrambled = machine.step(state)
            set_loc_counter(0)
            assert machine.step(state) == scrambled

    def test_scv_step_ignores_the_global_counters(self):
        machine, init = _scv_init(get_program("sum-unknown-fn-abs").source)
        states = _walk(machine.step, init, 40)
        assert any(s.loc_base > init.loc_base for s in states)
        for state in states:
            set_syn_counter(state.syn_base + 1000)
            set_loc_counter(state.loc_base + 1000)
            scrambled = repr(machine.step(state))
            set_syn_counter(0)
            set_loc_counter(0)
            # UHeap compares by identity, so compare printed states.
            assert repr(machine.step(state)) == scrambled

    def test_core_frontier_order_does_not_rename_answers(self):
        # Without memoisation both disciplines visit the same tree, so
        # they must reach the same answer states, location names and all.
        core = _core_program("sum-unknown-fn-abs")
        found = {
            strategy: sorted(repr(a) for a in _run_core(
                core, memo=False, strategy=strategy)[0])
            for strategy in ("bfs", "dfs")
        }
        assert found["bfs"] and found["bfs"] == found["dfs"]

    def test_scv_frontier_order_does_not_rename_answers(self):
        found = {}
        for strategy in ("bfs", "dfs"):
            machine, init = _scv_init(get_program("sum-unknown-fn-abs").source)
            kernel = SearchKernel(machine.step, strategy=strategy,
                                  fingerprint=None)
            found[strategy] = sorted(repr(a) for a in kernel.run(init))
        assert found["bfs"] and found["bfs"] == found["dfs"]


class TestMemoOnOffProperty:
    """Full-corpus verdicts must be byte-identical with memoisation
    enabled vs disabled (the pruning-is-invisible property)."""

    def _verdicts(self, memo: bool):
        jobs = min(4, os.cpu_count() or 1)
        cfg = RunConfig(timeout_s=60.0, jobs=jobs, memo=memo)
        report = run_corpus(config=cfg, backend="both")
        return {
            (r.name, r.backend): r.status for r in report.results
        }, report

    def test_full_corpus_verdicts_identical(self):
        with_memo, report_on = self._verdicts(memo=True)
        without_memo, report_off = self._verdicts(memo=False)
        assert with_memo == without_memo
        # And the memoised run must actually be doing its job.
        t_on = report_on.totals()
        t_off = report_off.totals()
        assert t_on["states_explored"] < t_off["states_explored"]
        # Since the incremental contexts (schema v5), repeated proof
        # queries are answered on warm solver scopes rather than through
        # cached one-shot solves, so the cache-hit count is no longer a
        # memo-on signal — incremental reuse is.
        assert t_on["solver_incremental"] > t_on["solver_fresh_solves"]
        assert t_off["solver_cache_hits"] == 0
