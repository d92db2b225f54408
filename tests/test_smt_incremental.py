"""The proof-query front (``smt.incremental``): the heap-translation
memo, paired goal queries, full solver-tier entries, and
cone-of-influence keys.

Every ``PathContext.check`` is one one-shot ``check_sat``.  With a
solver tier attached it solves the goal's cone once every other group
of the heap is known SAT; the seeded differential pins that answer to a
whole-heap solve.

The randomized differential is the correctness anchor of the solver
itself: one long-lived :class:`Solver`, fed a growing assertion list
and re-checked after each addition (so lemmas learned by one check
serve the next), must give at every check the same :class:`Result` as
a fresh solver handed the same conjunction — and every SAT model must
satisfy it.
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


class TestPathContext:
    def test_translation_is_memoized_per_heap(self):
        calls = []

        def translate(heap):
            calls.append(heap)
            return [mk_ge(x, 0)]

        ctx = PathContext()
        heap, other = object(), object()
        assert ctx.parts_for(heap, translate) == (mk_ge(x, 0),)
        assert ctx.parts_for(heap, translate) == (mk_ge(x, 0),)
        assert len(calls) == 1  # identity-memoized
        ctx.parts_for(other, translate)
        assert len(calls) == 2

    def test_every_check_is_one_solve(self):
        ctx = PathContext()
        parts = (mk_ge(x, 0), mk_le(x, 5))
        before = SOLVE_STATS.fresh_solves
        assert ctx.check(parts, mk_lt(x, 0)) is Result.UNSAT
        assert ctx.check(parts, mk_eq(x, 3)) is Result.SAT
        assert SOLVE_STATS.fresh_solves == before + 2


    def test_sibling_heaps_answer_independently(self):
        ctx = PathContext()
        shared = (mk_ge(x, 0), mk_le(x, 10))
        left = shared + (mk_eq(x, 3),)
        right = shared + (mk_eq(x, 11),)
        assert ctx.check(left, mk_ge(y, 0)) is Result.SAT
        assert ctx.check(right, mk_ge(y, 0)) is Result.UNSAT
        assert ctx.check(left, mk_ge(y, 0)) is Result.SAT

    def test_growing_trail(self):
        ctx = PathContext()
        trail = []
        for k in range(8):
            trail.append(mk_ge(x, k))
            assert ctx.check(tuple(trail), mk_le(x, 7)) is Result.SAT
        assert ctx.check(tuple(trail), mk_lt(x, 7)) is Result.UNSAT
        m = get_model(*trail, mk_le(x, 7))
        assert m is not None and m[x] == 7


class TestPairedQueries:
    """The proof system asks ``ψ`` and ``¬ψ`` against one heap.  Each is
    its own solve, so nothing one goal brings in — its atoms, its div
    auxiliaries and their axioms — reaches the other."""

    def test_paired_queries_on_one_heap(self):
        ctx = PathContext()
        parts = (mk_ge(x, 1), mk_le(x, 1))
        psi = mk_eq(x, 1)
        assert ctx.check(parts, mk_not(psi)) is Result.UNSAT
        assert ctx.check(parts, psi) is Result.SAT
        assert check_sat(*parts) is Result.SAT  # the heap alone

    def test_alternating_goals_do_not_accumulate(self):
        ctx = PathContext()
        parts = (mk_ge(x, 0),)
        for k in range(6):
            assert ctx.check(parts, mk_eq(x, k)) is Result.SAT
            assert ctx.check(parts, mk_lt(x, 0)) is Result.UNSAT
        assert ctx.check(parts, mk_eq(x, 6)) is Result.SAT

    def test_goal_div_axioms_stay_with_their_query(self):
        ctx = PathContext()
        parts = (mk_ge(x, -5),)
        # The goal's div auxiliaries carry the axiom y != 0 ...
        assert ctx.check(parts, mk_eq(mk_div(x, y), 2)) is Result.SAT
        # ... which must not constrain the sibling query.
        assert ctx.check(parts, mk_eq(y, 0)) is Result.SAT

    def test_div_axioms_hold_in_every_query(self):
        ctx = PathContext()
        n, d = mk_var("n"), mk_var("d")
        goal = mk_eq(mk_div(n, d), 3)
        assert ctx.check((mk_ge(n, 0),), goal) is Result.SAT
        # The same Div term in a later query gets its axioms again: an
        # unconstrained auxiliary would make d = 0 satisfiable.
        assert ctx.check((mk_ge(n, 0), mk_eq(d, 0)), goal) is Result.UNSAT


class TestSolverReuse:
    """A :class:`Solver` re-checked after more assertions keeps the
    lemmas of its earlier checks; they must stay sound for the grown
    conjunction."""

    def test_add_after_check_narrows(self):
        s = Solver()
        s.add(mk_ge(x, 0))
        assert s.check() is Result.SAT
        s.add(mk_lt(x, 0))
        assert s.check() is Result.UNSAT

    def test_lemmas_survive_a_recheck(self):
        s = Solver()
        s.add(mk_or(mk_eq(x, 1), mk_eq(x, 2)), mk_ge(x, 2))
        assert s.check() is Result.SAT
        s.add(mk_le(y, 5))
        assert s.check() is Result.SAT
        assert s.model()[x] == 2 and s.model()[y] <= 5

    def test_many_lower_bounds(self):
        s = Solver()
        for k in range(12):
            s.add(mk_ge(x, k))
            assert s.check() is Result.SAT
        assert s.model()[x] >= 11
        s.add(mk_le(x, 10))
        assert s.check() is Result.UNSAT


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

    env = {v: (m[v] if v in m else 0) for v in free_vars(g)}
    return eval_formula(g, env)


def _agree(got, want):
    """Equal answers, or one UNKNOWN beside a decided one: solves on
    different clause databases may exhaust their budgets differently,
    but never contradict."""
    return got is want or Result.UNKNOWN in (got, want)


class TestRandomizedDifferential:
    """A growing assertion list checked on one reused solver vs a fresh
    solver per prefix: identical Results, and SAT models satisfy the
    assertions."""

    @pytest.mark.parametrize("seed", range(12))
    def test_differential(self, seed):
        rng = random.Random(0xC0FFEE + seed)
        reused = Solver()
        assertions = []
        for _step in range(30):
            if rng.random() < 0.4:
                g = _random_formula(rng)
                reused.add(g)
                assertions.append(g)
                continue
            got = reused.check()
            ref = Solver()
            ref.add(*assertions)
            want = ref.check()
            assert _agree(got, want), (
                f"seed {seed}: reused {got} vs fresh {want} on {assertions}"
            )
            if got is Result.SAT:
                m = reused.model()
                for g in assertions:
                    assert _eval_defaulted(m, g), (
                        f"seed {seed}: model {m} violates {g}"
                    )


class TestCanonicalSolves:
    """``check_sat``/``get_model`` solve the query's canonical renaming:
    the verdict must match a solve of the formula as written, and the
    decoded model must satisfy the formula as written."""

    @pytest.mark.parametrize("seed", range(6))
    def test_decoded_models_satisfy_the_query(self, seed):
        rng = random.Random(0xCA70 + seed)
        for _case in range(12):
            parts = tuple(
                _random_formula(rng) for _ in range(rng.randint(1, 4))
            )
            got = check_sat(*parts)
            ref = Solver()
            ref.add(*parts)
            assert _agree(got, ref.check()), (
                f"seed {seed}: canonical {got} on {parts}"
            )
            if got is Result.SAT:
                m = get_model(*parts)
                assert m is not None
                for g in parts:
                    assert _eval_defaulted(m, g), (
                        f"seed {seed}: model {m} violates {g}"
                    )


class TestCacheComposition:
    """With a tier attached, a miss stores the canonical solve as a full
    entry — with its model when SAT — so a later ``get_model`` on the
    same key reads the model the canonical solve chose."""

    @pytest.fixture(autouse=True)
    def store(self, tmp_path, monkeypatch):
        store = SolverStore(str(tmp_path / "solver"))
        monkeypatch.setattr(solver_cache, "backing", store)
        return store

    def test_miss_stores_a_full_entry_with_its_model(self, store):
        ctx = PathContext()
        parts = (mk_ge(x, 2), mk_le(x, 2))
        psi = mk_eq(x, 2)
        assert ctx.check(parts, psi) is Result.SAT
        canon, _ = canonicalize(mk_and(*parts, psi))
        assert store.lookup(canon) == (Result.SAT, ((0, 2),))

    def test_get_model_reads_the_stored_model(self, store):
        ctx = PathContext()
        parts = (mk_ge(x, 2), mk_le(x, 2))
        psi = mk_eq(x, 2)
        ctx.check(parts, psi)
        before = SOLVE_STATS.fresh_solves
        m = get_model(mk_and(*parts, psi))
        assert m is not None and m[x] == 2
        assert SOLVE_STATS.fresh_solves == before  # answered by the tier

    def test_cached_verdict_answers_without_a_solve(self):
        ctx = PathContext()
        parts = (mk_ge(x, 0),)
        psi = mk_lt(x, 0)
        assert ctx.check(parts, psi) is Result.UNSAT
        hits = solver_cache.hits
        assert ctx.check(parts, psi) is Result.UNSAT
        assert solver_cache.hits == hits + 1

    def test_context_and_check_sat_agree_through_cache(self):
        ctx = PathContext()
        parts = (mk_ge(x, 1), mk_le(x, 3))
        for psi in (mk_eq(x, 2), mk_eq(x, 5), mk_lt(x, 1)):
            assert ctx.check(parts, psi) is check_sat(
                mk_and(*parts), psi
            )


class TestSlicedKeys:
    """With a tier attached, ``check`` keys a query on the goal's
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
        assert first.check(
            (mk_ge(x, 0), mk_eq(z, 5)), mk_lt(x, 0)
        ) is Result.UNSAT
        second = PathContext()
        hits = solver_cache.hits
        solves = SOLVE_STATS.fresh_solves
        assert second.check(
            (mk_ge(x, 0), mk_eq(z, 7)), mk_lt(x, 0)
        ) is Result.UNSAT
        assert solver_cache.hits > hits
        # Only the new rest group {z = 7} is solved; the cone's key hit.
        assert SOLVE_STATS.fresh_solves == solves + 1

    def test_undecided_rest_keys_the_whole_heap(self, store, monkeypatch):
        import repro.smt.incremental as incremental

        parts = (mk_ge(x, 0), mk_eq(z, 5))
        # The rest group {z = 5} comes back undecided; queries solve.
        monkeypatch.setattr(
            incremental, "check_sat",
            lambda *fs: Result.UNKNOWN if fs == parts[1:] else check_sat(*fs),
        )
        psi = mk_lt(x, 0)
        assert PathContext().check(parts, psi) is Result.UNSAT
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
                    got = ctx.check(parts, goal)
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
    """``check`` on a fresh context, asked as the proof system asks: ¬ψ
    first, then ψ, on one heap."""
    ctx = PathContext()
    ctx.check(parts, mk_not(psi))
    return ctx.check(parts, psi)


class TestNoTierAttached:
    def test_repeats_are_solved_again(self):
        assert solver_cache.backing is None
        snap = solver_cache.snapshot()
        check_sat(mk_eq(x, 1))
        check_sat(mk_eq(x, 1))
        assert solver_cache.hits_since(snap) == 0

    def test_check_solves_the_whole_heap(self):
        snap = solver_cache.snapshot()
        solves = SOLVE_STATS.fresh_solves
        ctx = PathContext()
        assert ctx.check((mk_ge(x, 0), mk_eq(z, 5)), mk_lt(x, 0)) \
            is Result.UNSAT
        assert solver_cache.hits_since(snap) == 0  # nothing to answer from
        assert SOLVE_STATS.fresh_solves == solves + 1  # one solve, no slicing
