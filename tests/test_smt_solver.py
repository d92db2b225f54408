"""Integration tests for the DPLL(T) solver — the Z3 substitute.

These exercise exactly the query shapes the paper's heap translation
produces: conjunctions of equalities with linear combinations, zero/nonzero
refinements, case-mapping implications, and validity queries for the proof
relation (Fig. 5), posed as unsatisfiability of ``axioms ∧ ¬φ``.
"""

import pytest

from repro.smt import (
    Result,
    Solver,
    check_sat,
    get_model,
    mk_add,
    mk_and,
    mk_distinct,
    mk_div,
    mk_eq,
    mk_ge,
    mk_gt,
    mk_implies,
    mk_int,
    mk_le,
    mk_lt,
    mk_mod,
    mk_mul,
    mk_not,
    mk_or,
    mk_sub,
    mk_var,
)
from repro.smt.errors import SolverError
from repro.smt.lia import LiaResult, LiaSolver
from repro.smt.solver import SOLVE_STATS

x, y, z, w = mk_var("x"), mk_var("y"), mk_var("z"), mk_var("w")


def model_satisfies(formulas):
    m = get_model(*formulas)
    assert m is not None
    for f in formulas:
        assert m.eval(f), f"model {m} violates {f}"
    return m


class TestBasicSat:
    def test_trivial_true(self):
        assert check_sat(mk_eq(x, x)) is Result.SAT

    def test_trivial_false(self):
        assert check_sat(mk_and(mk_eq(x, 1), mk_eq(x, 2))) is Result.UNSAT

    def test_paper_worked_example(self):
        # §2: L5 = 100 - L4 and L5 = 0 must give L4 = 100.
        l4, l5 = mk_var("L4"), mk_var("L5")
        m = model_satisfies([mk_eq(l5, mk_sub(100, l4)), mk_eq(0, l5)])
        assert m[l4] == 100
        assert m[l5] == 0

    def test_linear_system(self):
        m = model_satisfies([mk_eq(mk_add(x, y), 10), mk_eq(mk_sub(x, y), 4)])
        assert m[x] == 7 and m[y] == 3

    def test_inequality_chain(self):
        m = model_satisfies([mk_lt(x, y), mk_lt(y, z), mk_eq(z, 2)])
        assert m[x] < m[y] < 2

    def test_strict_vs_nonstrict(self):
        assert check_sat(mk_and(mk_le(x, 5), mk_gt(x, 5))) is Result.UNSAT
        assert check_sat(mk_and(mk_le(x, 5), mk_ge(x, 5))) is Result.SAT

    def test_no_integer_between(self):
        # 2x = 1 has no integer solution.
        assert check_sat(mk_eq(mk_mul(2, x), 1)) is Result.UNSAT

    def test_integer_gap(self):
        # 0 < x < 1 has no integer solution.
        assert check_sat(mk_and(mk_lt(0, x), mk_lt(x, 1))) is Result.UNSAT

    def test_disequality_split(self):
        m = model_satisfies([mk_distinct(x, 0), mk_ge(x, 0), mk_le(x, 1)])
        assert m[x] == 1

    def test_multiple_disequalities(self):
        fs = [mk_ge(x, 0), mk_le(x, 3)] + [
            mk_distinct(x, k) for k in (0, 1, 3)
        ]
        m = model_satisfies(fs)
        assert m[x] == 2

    def test_all_values_excluded(self):
        fs = [mk_ge(x, 0), mk_le(x, 2)] + [
            mk_distinct(x, k) for k in (0, 1, 2)
        ]
        assert check_sat(*fs) is Result.UNSAT

    def test_gcd_tightening_rounds_towards_the_constraint(self):
        # y < 3y is 1 - 2y <= 0, i.e. y >= 1 (not y >= 0).
        m = model_satisfies([mk_lt(y, mk_mul(3, y))])
        assert m[y] >= 1

    def test_disequality_the_gcd_makes_valid(self):
        # 2x = -3 has no integer solution, so its negation always holds.
        assert check_sat(mk_not(mk_eq(mk_mul(2, x), -3))) is Result.SAT
        assert check_sat(mk_or(mk_lt(x, y), mk_eq(mk_mul(2, x), -3))) is Result.SAT


class TestBooleanStructure:
    def test_disjunction(self):
        m = model_satisfies([mk_or(mk_eq(x, 1), mk_eq(x, 2)), mk_distinct(x, 1)])
        assert m[x] == 2

    def test_implication_chain(self):
        fs = [
            mk_implies(mk_eq(x, 1), mk_eq(y, 2)),
            mk_implies(mk_eq(y, 2), mk_eq(z, 3)),
            mk_eq(x, 1),
        ]
        m = model_satisfies(fs)
        assert m[y] == 2 and m[z] == 3

    def test_case_split_boolean(self):
        # (x=0 or x=1) and (x=0 => y=5) and (x=1 => y=7) and y=7
        fs = [
            mk_or(mk_eq(x, 0), mk_eq(x, 1)),
            mk_implies(mk_eq(x, 0), mk_eq(y, 5)),
            mk_implies(mk_eq(x, 1), mk_eq(y, 7)),
            mk_eq(y, 7),
        ]
        m = model_satisfies(fs)
        assert m[x] == 1

    def test_unsat_via_boolean(self):
        fs = [
            mk_or(mk_eq(x, 0), mk_eq(x, 1)),
            mk_distinct(x, 0),
            mk_distinct(x, 1),
        ]
        assert check_sat(*fs) is Result.UNSAT

    def test_deep_nesting(self):
        f = mk_and(
            mk_or(
                mk_and(mk_eq(x, 1), mk_eq(y, 1)),
                mk_and(mk_eq(x, 2), mk_eq(y, 4)),
                mk_and(mk_eq(x, 3), mk_eq(y, 9)),
            ),
            mk_gt(y, 5),
        )
        m = model_satisfies([f])
        assert (m[x], m[y]) == (3, 9)


class TestDivMod:
    def test_div_exact(self):
        m = model_satisfies([mk_eq(x, mk_div(mk_int(10), mk_int(2)))])
        assert m[x] == 5

    def test_div_symbolic_denominator(self):
        # x div y = 3 and x = 7 forces y in {2} (Euclidean, y > 0 branch).
        fs = [
            mk_eq(mk_div(x, y), 3),
            mk_eq(x, 7),
            mk_ge(y, 1),
        ]
        m = model_satisfies(fs)
        assert m[x] // m[y] == 3

    def test_mod_range(self):
        fs = [mk_eq(z, mk_mod(x, mk_int(3))), mk_eq(x, 17)]
        m = model_satisfies(fs)
        assert m[z] == 2

    def test_model_evaluates_negative_divisors_euclidean(self):
        # 7 = -2 * -3 + 1: the Euclidean quotient is -3 (floor would be -4).
        fs = [mk_eq(x, 7), mk_eq(mk_div(x, -2), -3), mk_eq(mk_mod(x, -2), 1)]
        model_satisfies(fs)

    def test_div_by_zero_unsat(self):
        # Divisor forced to zero makes the axiomatisation unsatisfiable.
        fs = [mk_eq(z, mk_div(x, y)), mk_eq(y, 0)]
        assert check_sat(*fs) is Result.UNSAT


class TestNonlinear:
    def test_product_with_constant_propagation(self):
        fs = [mk_eq(x, 4), mk_eq(z, mk_mul(x, y)), mk_eq(z, 12)]
        m = model_satisfies(fs)
        assert m[y] == 3

    def test_small_product_search(self):
        fs = [mk_eq(mk_mul(x, y), 6), mk_ge(x, 2), mk_ge(y, 2)]
        m = model_satisfies(fs)
        assert m[x] * m[y] == 6

    def test_square(self):
        fs = [mk_eq(mk_mul(x, x), 49), mk_ge(x, 0)]
        m = model_satisfies(fs)
        assert m[x] == 7

    def test_product_unsat(self):
        fs = [mk_eq(mk_mul(x, x), 2)]
        res = check_sat(*fs)
        # No integer square root of 2; bounded search cannot *prove* unsat,
        # so UNKNOWN is also acceptable — but never SAT.
        assert res in (Result.UNSAT, Result.UNKNOWN)


class TestValidity:
    def test_valid_implication(self):
        assert check_sat(mk_ge(x, 5), mk_not(mk_ge(x, 0))) is Result.UNSAT

    def test_invalid_implication(self):
        assert check_sat(mk_ge(x, 0), mk_not(mk_ge(x, 5))) is Result.SAT

    def test_proof_relation_shapes(self):
        # Fig 5: Σ ⊢ L : zero? !  when heap implies L = 0.
        l4, l5 = mk_var("L4"), mk_var("L5")
        heap = mk_and(mk_eq(l5, mk_sub(100, l4)), mk_eq(l4, 100))
        assert check_sat(heap, mk_not(mk_eq(l5, 0))) is Result.UNSAT
        # Refuted: heap and L5 = 0 unsat.
        heap2 = mk_and(mk_eq(l5, mk_sub(100, l4)), mk_eq(l4, 0))
        assert check_sat(heap2, mk_eq(l5, 0)) is Result.UNSAT
        # Ambiguous: both satisfiable.
        heap3 = mk_eq(l5, mk_sub(100, l4))
        assert check_sat(heap3, mk_not(mk_eq(l5, 0))) is Result.SAT
        assert check_sat(heap3, mk_eq(l5, 0)) is Result.SAT


class _UnknownFirst(LiaSolver):
    """A theory solver that answers UNKNOWN to its first ``n`` calls."""

    def __init__(self, n):
        super().__init__()
        self.left = n

    def solve(self, constraints):
        if self.left:
            self.left -= 1
            return LiaResult(Result.UNKNOWN)
        return super().solve(constraints)


class TestSolverInterface:
    def test_model_without_sat_raises(self):
        s = Solver()
        s.add(mk_and(mk_eq(x, 0), mk_eq(x, 1)))
        assert s.check() is Result.UNSAT
        with pytest.raises(SolverError):
            s.model()

    def test_incremental_lemma_reuse(self):
        s = Solver()
        s.add(mk_or(*(mk_eq(x, k) for k in range(8))))
        s.add(mk_ge(x, 6))
        assert s.check() is Result.SAT
        assert s.model()[x] >= 6

    def test_unknown_theory_answer_is_not_a_lemma(self):
        # The blocking clause of an UNKNOWN theory answer lives only
        # for its check: the next check asks the theory again.
        s = Solver(lia=_UnknownFirst(1))
        s.add(mk_eq(mk_add(x, y), 3), mk_lt(x, y))
        assert s.check() is Result.UNKNOWN
        assert s.check() is Result.SAT
        m = s.model()
        assert m[x] + m[y] == 3 and m[x] < m[y]

    def test_unknown_is_counted_and_has_no_model(self, monkeypatch):
        import repro.smt.solver as solver_mod

        real = solver_mod.Solver
        monkeypatch.setattr(
            solver_mod, "Solver", lambda: real(lia=_UnknownFirst(10**6))
        )
        snap = SOLVE_STATS.begin_window()
        phi = mk_eq(mk_add(x, y), 3)
        assert check_sat(phi) is Result.UNKNOWN
        assert get_model(phi) is None
        assert SOLVE_STATS.window(snap) == {
            "solver_fresh_solves": 2, "solver_unknown": 2,
        }

    def test_solve_stats_window_counts_every_check(self):
        snap = SOLVE_STATS.begin_window()
        s = Solver()
        s.add(mk_ge(x, 0))
        s.check()
        s.check()
        check_sat(mk_eq(x, 4))
        assert SOLVE_STATS.window(snap) == {
            "solver_fresh_solves": 3, "solver_unknown": 0,
        }

    def test_empty_solver_sat(self):
        s = Solver()
        assert s.check() is Result.SAT
        assert s.model().env == {}

    def test_model_repr(self):
        s = Solver()
        s.add(mk_eq(x, 3))
        assert s.check() is Result.SAT
        assert "x = 3" in repr(s.model())


class TestExplanationRounds:
    def test_hot_corpus_row_needs_few_dpll_rounds(self, monkeypatch):
        """``sum-unknown-fn-abs`` on core: blocking each LIA conflict on
        its explanation keeps the DPLL(T) loop short.  Blocking whole
        assignments (conflicts too big to shrink) took 142 SAT solves."""
        from repro.driver import get_program, verify_program
        from repro.smt.sat import SatSolver

        calls = 0
        solve = SatSolver.solve

        def counting(self, *args, **kwargs):
            nonlocal calls
            calls += 1
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(SatSolver, "solve", counting)
        prog = get_program("sum-unknown-fn-abs")
        row = verify_program(prog, backend="core")
        assert row.status == prog.kind == "safe"
        assert calls <= 50, calls
