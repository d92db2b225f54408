"""The incremental solving layer: scoped assertion levels, assumption
checks, per-path contexts, and incremental-vs-one-shot equivalence.

The randomized differential test is the correctness anchor: an
interleaving of ``add``/``push``/``pop``/``check`` on one long-lived
incremental solver must give, at every check, the same :class:`Result`
as a fresh one-shot solver handed the same assertion prefix — and every
SAT model must actually satisfy the assertions.  The formulas stay in
the decisive (linear + div-by-constant) fragment so every answer
is SAT or UNSAT and the equality is exact.
"""

import random

import pytest

from repro.smt import (
    PathContext,
    Result,
    SOLVE_STATS,
    Solver,
    check_sat,
    get_model,
    mk_add,
    mk_and,
    mk_distinct,
    mk_div,
    mk_eq,
    mk_ge,
    mk_le,
    mk_lt,
    mk_mod,
    mk_mul,
    mk_neg,
    mk_not,
    mk_or,
    mk_sub,
    mk_var,
    solver_cache,
)
from repro.smt.cache import canonicalize
from repro.smt.incremental import _Slice
from repro.store import SolverStore

x, y, z, w = mk_var("x"), mk_var("y"), mk_var("z"), mk_var("w")


class TestScopeDiscipline:
    """Popped scopes must retire their preprocessing state: auxiliary
    variables from div/mod axiomatization and Ackermann consistency
    clauses cannot leak constraints into later scopes."""

    def test_popped_div_axioms_do_not_leak(self):
        s = Solver()
        s.push()
        # Introduces q/r auxiliaries with the nonzero-divisor axiom on y.
        s.add(mk_eq(mk_div(x, y), 3))
        assert s.check() is Result.SAT
        s.pop()
        # If the popped axiom leaked, y = 0 would now be inconsistent.
        s.add(mk_eq(y, 0))
        assert s.check() is Result.SAT

    def test_div_axioms_reemitted_after_pop(self):
        s = Solver()
        s.push()
        s.add(mk_eq(mk_div(mk_var("n"), mk_var("d")), 3))
        s.pop()
        # The same Div term in a fresh scope must get fresh auxiliaries
        # *with* axioms — a stale cache entry would leave it unconstrained.
        s.push()
        s.add(mk_eq(mk_div(mk_var("n"), mk_var("d")), 3), mk_eq(mk_var("d"), 0))
        assert s.check() is Result.UNSAT
        s.pop()

    def test_pop_restores_sat(self):
        s = Solver()
        s.add(mk_ge(x, 0))
        for _ in range(3):
            s.push()
            s.add(mk_lt(x, 0))
            assert s.check() is Result.UNSAT
            s.pop()
            assert s.check() is Result.SAT

    def test_lemmas_survive_pop(self):
        # A theory lemma learned over base-scope atoms stays after inner
        # scopes are popped: the second identical check reuses clauses.
        s = Solver()
        s.add(mk_or(mk_eq(x, 1), mk_eq(x, 2)), mk_ge(x, 2))
        assert s.check() is Result.SAT
        s.push()
        s.add(mk_le(y, 5))
        assert s.check() is Result.SAT
        s.pop()
        snap = SOLVE_STATS.clauses_reused
        assert s.check() is Result.SAT
        assert SOLVE_STATS.clauses_reused >= snap

    def test_deep_push_pop_stack(self):
        s = Solver()
        for k in range(12):
            s.push()
            s.add(mk_ge(x, k))
        assert s.check() is Result.SAT
        assert s.model()[x] >= 11
        for _ in range(12):
            s.pop()
        assert s.scope_depth() == 0
        assert s.check() is Result.SAT


class TestAssumptionChecks:
    """``check(*extra)`` runs the extras as transient assumptions: the
    persistent context is identical before and after, which is what lets
    the paired ``ψ`` / ``¬ψ`` proof queries share one context."""

    def test_paired_queries_share_context(self):
        s = Solver()
        s.add(mk_ge(x, 1), mk_le(x, 1))
        psi = mk_eq(x, 1)
        assert s.check(mk_not(psi)) is Result.UNSAT
        assert s.check(psi) is Result.SAT
        assert s.check() is Result.SAT  # context unpolluted

    def test_alternating_extras_do_not_accumulate(self):
        s = Solver()
        s.add(mk_ge(x, 0))
        for k in range(6):
            assert s.check(mk_eq(x, k)) is Result.SAT
            assert s.check(mk_lt(x, 0)) is Result.UNSAT
        assert s.check() is Result.SAT

    def test_extra_with_div_is_transient(self):
        s = Solver()
        s.add(mk_ge(y, 5))
        assert s.check(mk_eq(mk_div(x, y), 2)) is Result.SAT
        # The div auxiliaries from the extra were retired with it.
        assert s.check(mk_eq(y, 7)) is Result.SAT
        assert s.check() is Result.SAT

    def test_incremental_counters_tick(self):
        snap = (SOLVE_STATS.fresh_solves, SOLVE_STATS.incremental_queries)
        s = Solver()
        s.add(mk_ge(x, 0))
        s.check()
        s.check(mk_eq(x, 3))
        s.check()
        assert SOLVE_STATS.fresh_solves == snap[0] + 1
        assert SOLVE_STATS.incremental_queries == snap[1] + 2


def _random_formula(rng, depth=0):
    """A decisive-fragment formula: linear atoms, shallow disjunctions,
    negations, division by a nonzero constant."""
    vs = (x, y, z, w)
    def term():
        pick = rng.random()
        a = rng.choice(vs)
        if pick < 0.45:
            return a
        if pick < 0.7:
            return mk_add(a, rng.randint(-4, 4))
        if pick < 0.8:
            return mk_sub(mk_mul(rng.randint(1, 3), a), rng.choice(vs))
        if pick < 0.9:
            return mk_neg(a)
        return mk_div(a, rng.choice((2, 3, -2)))

    def atom():
        kind = rng.random()
        lhs, rhs = term(), term()
        if kind < 0.4:
            return mk_eq(lhs, rng.randint(-5, 5))
        if kind < 0.6:
            return mk_le(lhs, rhs)
        if kind < 0.8:
            return mk_lt(lhs, rng.randint(-5, 5))
        return mk_distinct(lhs, rhs)

    if depth == 0 and rng.random() < 0.35:
        return mk_or(_random_formula(rng, 1), _random_formula(rng, 1))
    if depth == 0 and rng.random() < 0.2:
        return mk_and(atom(), atom())
    return atom()


def _eval_defaulted(m, g):
    """Evaluate ``g`` under model ``m``, defaulting unconstrained
    variables to 0 (``simplify`` folds vacuous atoms like ``w <= w``
    away before the solver sees them, so such variables legitimately
    have no model entry — any value satisfies)."""
    from repro.smt import eval_formula, free_vars

    env = {v: m[v] for v in free_vars(g)}
    return eval_formula(g, env)


class TestRandomizedDifferential:
    """Interleaved add/push/pop/check vs a fresh one-shot solver per
    prefix: identical Results, and SAT models satisfy the assertions."""

    @pytest.mark.parametrize("seed", range(12))
    def test_differential(self, seed):
        rng = random.Random(0xC0FFEE + seed)
        inc = Solver()
        depth = 0
        for _step in range(30):
            op = rng.random()
            if op < 0.35:
                inc.add(_random_formula(rng))
            elif op < 0.5:
                inc.push()
                depth += 1
            elif op < 0.62 and depth:
                inc.pop()
                depth -= 1
            else:
                extra = (_random_formula(rng),) if rng.random() < 0.5 else ()
                got = inc.check(*extra)
                ref = Solver()
                for g in inc.assertions():
                    ref.add(g)
                want = ref.check(*extra)
                if Result.UNKNOWN not in (got, want):
                    assert got is want, (
                        f"seed {seed}: incremental {got} vs one-shot {want} "
                        f"on {inc.assertions()} + {list(extra)}"
                    )
                else:
                    # Budget asymmetry (the warm context's lemmas can
                    # decide a query the cold solver gives up on, and
                    # vice versa) may produce one UNKNOWN — but never a
                    # SAT/UNSAT contradiction.
                    assert {got, want} <= {
                        Result.UNKNOWN, Result.SAT
                    } or {got, want} <= {Result.UNKNOWN, Result.UNSAT}, (
                        f"seed {seed}: contradictory {got} vs {want}"
                    )
                if got is Result.SAT:
                    m = inc.model()
                    for g in inc.assertions() + list(extra):
                        assert _eval_defaulted(m, g), (
                            f"seed {seed}: model {m} violates {g}"
                        )


class TestPathContext:
    def _parts(self, *formulas):
        return tuple(formulas)

    def test_fork_between_sibling_trails(self):
        ctx = PathContext()
        shared = (mk_ge(x, 0), mk_le(x, 10))
        left = shared + (mk_eq(x, 3),)
        right = shared + (mk_eq(x, 11),)
        assert ctx.check(left) is Result.SAT
        pushes = SOLVE_STATS.scope_pushes
        assert ctx.check(right) is Result.UNSAT  # forked at the shared prefix
        # Only the divergent suffix was re-pushed, not the shared prefix.
        assert SOLVE_STATS.scope_pushes - pushes == 1
        assert ctx.check(left) is Result.SAT

    def test_growing_trail_reuses_prefix(self):
        ctx = PathContext()
        trail = []
        for k in range(8):
            trail.append(mk_ge(x, k))
            assert ctx.check(tuple(trail)) is Result.SAT
        assert ctx.scope_depth == 8
        assert ctx.check(tuple(trail), mk_lt(x, 7)) is Result.UNSAT

    def test_rebuild_threshold_keeps_answers(self):
        ctx = PathContext(rebuild_after=3)
        rebuilds = SOLVE_STATS.context_rebuilds
        for k in range(10):
            parts = (mk_ge(x, 0), mk_eq(y, k))
            assert ctx.check(parts, mk_lt(x, 0)) is Result.UNSAT
            assert ctx.check(parts, mk_eq(x, k)) is Result.SAT
        assert SOLVE_STATS.context_rebuilds > rebuilds

    def test_note_switch_drops_translation_memo(self):
        ctx = PathContext()
        heap = object()
        calls = []

        def translate(h):
            calls.append(h)
            return (mk_ge(x, 0),)

        assert ctx.parts_for(heap, translate) == (mk_ge(x, 0),)
        assert ctx.parts_for(heap, translate) == (mk_ge(x, 0),)
        assert len(calls) == 1  # identity-memoized
        ctx.note_switch()
        ctx.parts_for(heap, translate)
        assert len(calls) == 2


class TestCacheComposition:
    """Incremental answers and the solver-result tier must compose:
    result-only entries serve verdicts, and a later ``get_model`` solves
    canonically and upgrades the entry instead of reporting a context-
    history-dependent model."""

    @pytest.fixture(autouse=True)
    def store(self, tmp_path, monkeypatch):
        store = SolverStore(str(tmp_path / "solver"))
        monkeypatch.setattr(solver_cache, "backing", store)
        return store

    def test_check_under_stores_result_only(self, store):
        ctx = PathContext()
        parts = (mk_ge(x, 2), mk_le(x, 2))
        psi = mk_eq(x, 2)
        assert ctx.check_under(parts, psi) is Result.SAT
        canon, _ = canonicalize(mk_and(*parts, psi))
        entry = store.lookup(canon)
        assert entry is not None and entry[0] is Result.SAT
        assert entry[2] is False  # result-only: no model captured

    def test_get_model_upgrades_result_only_entry(self, store):
        ctx = PathContext()
        parts = (mk_ge(x, 2), mk_le(x, 2))
        psi = mk_eq(x, 2)
        ctx.check_under(parts, psi)
        m = get_model(mk_and(*parts, psi))
        assert m is not None and m[x] == 2
        canon, _ = canonicalize(mk_and(*parts, psi))
        entry = store.lookup(canon)
        assert entry is not None and entry[2] is True  # upgraded

    def test_cached_verdict_answers_without_context(self):
        ctx = PathContext()
        parts = (mk_ge(x, 0),)
        psi = mk_lt(x, 0)
        assert ctx.check_under(parts, psi) is Result.UNSAT
        hits = solver_cache.hits
        assert ctx.check_under(parts, psi) is Result.UNSAT
        assert solver_cache.hits == hits + 1

    def test_one_shot_and_incremental_agree_through_cache(self):
        ctx = PathContext()
        parts = (mk_ge(x, 1), mk_le(x, 3))
        for psi in (mk_eq(x, 2), mk_eq(x, 5), mk_lt(x, 1)):
            assert ctx.check_under(parts, psi) is check_sat(
                mk_and(*parts), psi
            )


class TestSlicedKeys:
    """With a tier attached, ``check_under`` keys a query on the goal's
    cone of influence.  The answer must stay exactly the whole-heap
    answer: the rest of the heap is decided, not assumed satisfiable."""

    @pytest.fixture(autouse=True)
    def store(self, tmp_path, monkeypatch):
        store = SolverStore(str(tmp_path / "solver"))
        monkeypatch.setattr(solver_cache, "backing", store)
        return store

    def test_unsat_rest_group_answers_unsat(self):
        # The cone of y > 3 is {y = 5}, which is SAT — and already in the
        # tier as such — but the heap is not.
        psi = mk_lt(3, y)
        assert _paired_check((mk_eq(y, 5),), psi) is Result.SAT
        parts = (mk_lt(x, 0), mk_lt(0, x), mk_eq(y, 5))
        assert _paired_check(parts, psi) is Result.UNSAT
        assert check_sat(*parts, psi) is Result.UNSAT

    def test_unrelated_conjunct_keeps_the_key(self):
        first = PathContext()
        assert first.check_under(
            (mk_ge(x, 0), mk_eq(z, 5)), mk_lt(x, 0)
        ) is Result.UNSAT
        assert first.scope_depth == 2  # a miss: solved on the context
        second = PathContext()
        hits = solver_cache.hits
        assert second.check_under(
            (mk_ge(x, 0), mk_eq(z, 7)), mk_lt(x, 0)
        ) is Result.UNSAT
        assert solver_cache.hits > hits
        assert second.scope_depth == 0  # answered by the tier alone

    def test_undecided_rest_keys_the_whole_heap(self, store, monkeypatch):
        import repro.smt.incremental as incremental

        monkeypatch.setattr(
            incremental, "check_sat", lambda *fs: Result.UNKNOWN
        )
        parts = (mk_ge(x, 0), mk_eq(z, 5))
        psi = mk_lt(x, 0)
        assert PathContext().check_under(parts, psi) is Result.UNSAT
        whole, _ = canonicalize(mk_and(*parts, psi))
        cone, _ = canonicalize(mk_and(parts[0], psi))
        assert store.lookup(whole) is not None
        assert store.lookup(cone) is None

    @pytest.mark.parametrize("seed", range(6))
    def test_differential_against_whole_heap(self, seed):
        rng = random.Random(0x511CE + seed)
        pool = (x, y, z, w, mk_var("u"), mk_var("v"))

        def term():
            a = rng.choice(pool)
            pick = rng.random()
            if pick < 0.4:
                return a
            if pick < 0.6:
                return mk_add(a, rng.randint(-3, 3))
            if pick < 0.75:
                return mk_mul(rng.choice((2, -1)), a)
            if pick < 0.9:
                return mk_div(a, rng.choice((2, 3, -2)))
            return mk_mod(a, rng.choice((2, 3)))

        def atom():
            k = rng.random()
            if k < 0.4:
                return mk_eq(term(), rng.randint(-4, 4))
            if k < 0.7:
                return mk_le(term(), term())
            if k < 0.85:
                return mk_lt(term(), rng.randint(-4, 4))
            return mk_distinct(term(), term())

        ctx = PathContext()
        sliced = 0
        for _case in range(15):
            parts = tuple(atom() for _ in range(rng.randint(1, 5)))
            for psi in (atom(), mk_not(atom())):
                for goal in (psi, mk_not(psi)):  # the ψ/¬ψ pair
                    got = ctx.check_under(parts, goal)
                    ref = Solver()
                    ref.add(*parts, goal)
                    want = ref.check()
                    if Result.UNKNOWN not in (got, want):
                        assert got is want, (
                            f"seed {seed}: sliced {got} vs whole {want} "
                            f"on {parts} + {goal}"
                        )
                    sliced += len(_Slice(parts).cone(goal)[0]) < len(parts)
        assert sliced > 0  # the population exercises real slices


def _paired_check(parts, psi):
    """``check_under`` on a fresh context, asked as the proof system
    asks: ¬ψ first, then ψ, on one heap."""
    ctx = PathContext()
    ctx.check_under(parts, mk_not(psi))
    return ctx.check_under(parts, psi)


class TestNoTierAttached:
    def test_repeats_are_solved_again(self):
        assert solver_cache.backing is None
        snap = solver_cache.snapshot()
        check_sat(mk_eq(x, 1))
        check_sat(mk_eq(x, 1))
        assert solver_cache.hits_since(snap) == 0

    def test_check_under_skips_the_tier(self):
        snap = solver_cache.snapshot()
        ctx = PathContext()
        assert ctx.check_under((mk_ge(x, 0),), mk_lt(x, 0)) is Result.UNSAT
        assert solver_cache.snapshot() == snap  # not even probed
