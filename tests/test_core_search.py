"""Coverage for ``core.search``: statistics, truncation, and the
first-error vs. enumerate-all-errors generator contract (§5.3)."""

from repro.core import (
    If,
    NAT,
    Num,
    explore,
    find_errors,
    first_error,
    fun,
    opq,
    prim,
)
from repro.core.search import SearchResult
from repro.search import SearchStats


def _branchy_program():
    """zero? on an unknown: two answers, one of which errors."""
    return If(prim("zero?", opq(NAT, "n"), label="p0"),
              prim("div", Num(1), Num(0), label="boom"), Num(42))


def _two_error_program():
    """Both branches of an unknown test error, at different labels."""
    return If(
        prim("zero?", opq(NAT, "n"), label="p1"),
        prim("div", Num(1), Num(0), label="then-site"),
        prim("div", Num(2), Num(0), label="else-site"),
    )


class TestStats:
    def test_counts_answers_and_errors(self):
        stats = SearchStats()
        results = list(explore(_branchy_program(), stats=stats))
        assert stats.answers == 2
        assert stats.errors == 1
        assert stats.known_errors == 1  # every core error is a finding
        assert stats.truncated is False
        assert stats.states_explored >= stats.answers
        assert sum(1 for r in results if r.is_error) == 1

    def test_states_accumulate_into_caller_stats(self):
        stats = SearchStats()
        list(explore(Num(1), stats=stats))
        first = stats.states_explored
        assert first > 0
        # The same stats object keeps accumulating across searches.
        list(explore(Num(2), stats=stats))
        assert stats.states_explored > first

    def test_default_stats_are_private(self):
        # No stats argument: explore still works.
        results = list(explore(_branchy_program()))
        assert len(results) == 2


class TestTruncation:
    def _loop_program(self):
        # An unbounded loop: (μ f. λx. f x) 0 never reaches an answer.
        from repro.core import App, Fix, Lam, Ref

        loop = Fix(
            "f",
            fun(NAT, NAT),
            Lam("x", NAT, App(Ref("f"), Ref("x"))),
        )
        return App(loop, Num(0))

    def test_budget_sets_truncated_flag(self):
        # Without memoisation the loop unrolls forever and the state
        # budget is what stops it (the pre-kernel behaviour).
        stats = SearchStats()
        results = list(
            explore(self._loop_program(), max_states=25, stats=stats, memo=False)
        )
        assert results == []
        assert stats.truncated is True
        assert stats.states_explored == 25

    def test_memoisation_detects_the_cycle(self):
        # With memoisation the loop's states repeat canonically (the
        # unrolled lambdas are unreachable garbage), so the search
        # terminates on its own: no answers, no truncation.
        stats = SearchStats()
        results = list(explore(self._loop_program(), max_states=25, stats=stats))
        assert results == []
        assert stats.truncated is False
        assert stats.pruned > 0
        assert stats.states_explored < 25

    def test_no_truncation_on_terminating_program(self):
        stats = SearchStats()
        list(explore(Num(7), stats=stats))
        assert stats.truncated is False


class TestErrorEnumeration:
    def test_find_errors_yields_only_errors(self):
        results = list(find_errors(_two_error_program()))
        assert len(results) == 2
        assert all(r.is_error for r in results)
        assert {r.error.label for r in results} == {"then-site", "else-site"}

    def test_find_errors_is_lazy(self):
        # Taking one error must not force the rest of the frontier.
        stats = SearchStats()
        gen = find_errors(_two_error_program(), stats=stats)
        first = next(gen)
        assert first.is_error
        explored_after_one = stats.states_explored
        list(gen)
        assert stats.states_explored > explored_after_one

    def test_first_error_stops_at_first(self):
        r = first_error(_two_error_program())
        assert r is not None and r.is_error
        # BFS order is deterministic: the zero? true-branch comes first.
        assert r.error.label == "then-site"

    def test_first_error_none_for_safe_program(self):
        assert first_error(Num(3)) is None

    def test_search_result_error_accessor(self):
        safe = [r for r in explore(_branchy_program()) if not r.is_error]
        assert safe and all(r.error is None for r in safe)


class TestSearchResultShape:
    def test_results_wrap_answer_states(self):
        for r in explore(_branchy_program()):
            assert isinstance(r, SearchResult)
            assert r.state.is_answer
