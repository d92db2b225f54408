"""Unit tests for the term/formula AST and builders."""


import os
import pickle
import subprocess
import sys

import pytest

from repro.smt.linearize import LinExpr, linearize
from repro.smt.simplify import simplify, to_nnf
from repro.smt.terms import (
    Add,
    Eq,
    FALSE,
    IntConst,
    Le,
    Lt,
    Not,
    Or,
    TRUE,
    eval_formula,
    eval_term,
    free_vars,
    mk_add,
    mk_and,
    mk_div,
    mk_eq,
    mk_ge,
    mk_gt,
    mk_iff,
    mk_implies,
    mk_int,
    mk_le,
    mk_lt,
    mk_mod,
    mk_mul,
    mk_neg,
    mk_not,
    mk_or,
    mk_sub,
    mk_var,
)

x, y, z = mk_var("x"), mk_var("y"), mk_var("z")


class TestBuilders:
    def test_add_folds_constants(self):
        assert mk_add(1, 2, 3) == IntConst(6)

    def test_add_flattens(self):
        t = mk_add(x, mk_add(y, 1), 2)
        assert isinstance(t, Add)
        assert IntConst(3) in t.args
        assert x in t.args and y in t.args

    def test_add_identity(self):
        assert mk_add(x, 0) == x
        assert mk_add() == IntConst(0)

    def test_mul_zero_annihilates(self):
        assert mk_mul(x, 0, y) == IntConst(0)

    def test_mul_identity(self):
        assert mk_mul(x, 1) == x
        assert mk_mul(3, 4) == IntConst(12)

    def test_neg_and_sub(self):
        assert mk_sub(x, x) != IntConst(0)  # no deep simplification
        assert eval_term(mk_sub(x, x), {x: 7}) == 0
        assert eval_term(mk_neg(x), {x: 5}) == -5

    def test_div_constant_fold(self):
        assert mk_div(7, 2) == IntConst(3)
        assert mk_div(-7, 2) == IntConst(-4)  # Euclidean / floor
        assert mk_mod(7, 2) == IntConst(1)
        assert mk_mod(-7, 2) == IntConst(1)

    def test_div_by_zero_not_folded(self):
        t = mk_div(7, 0)
        assert not isinstance(t, IntConst)

    def test_eq_reflexive(self):
        assert mk_eq(x, x) == TRUE
        assert mk_eq(3, 3) == TRUE
        assert mk_eq(3, 4) == FALSE

    def test_comparisons_fold(self):
        assert mk_le(2, 3) == TRUE
        assert mk_lt(3, 3) == FALSE
        assert mk_ge(3, 3) == TRUE
        assert mk_gt(2, 3) == FALSE

    def test_not_involution(self):
        f = mk_lt(x, y)
        assert mk_not(mk_not(f)) == f

    def test_and_or_simplify(self):
        f = mk_lt(x, y)
        assert mk_and(f, TRUE) == f
        assert mk_and(f, FALSE) == FALSE
        assert mk_or(f, FALSE) == f
        assert mk_or(f, TRUE) == TRUE
        assert mk_and() == TRUE
        assert mk_or() == FALSE

    def test_implies_simplify(self):
        f = mk_lt(x, y)
        assert mk_implies(FALSE, f) == TRUE
        assert mk_implies(TRUE, f) == f
        assert mk_implies(f, FALSE) == mk_not(f)

    def test_iff_simplify(self):
        f = mk_lt(x, y)
        assert mk_iff(f, f) == TRUE
        assert mk_iff(f, TRUE) == f
        assert mk_iff(f, FALSE) == mk_not(f)

    def test_coercion_rejects_junk(self):
        with pytest.raises(TypeError):
            mk_add(x, "nope")  # type: ignore[arg-type]


class TestTraversals:
    def test_free_vars(self):
        f = mk_and(mk_eq(x, mk_add(y, 1)), mk_lt(z, 2))
        assert free_vars(f) == {x, y, z}

    def test_eval_term_arith(self):
        env = {x: 10, y: 3}
        assert eval_term(mk_add(x, mk_mul(2, y)), env) == 16
        assert eval_term(mk_div(x, y), env) == 3
        assert eval_term(mk_mod(x, y), env) == 1

    def test_eval_formula(self):
        env = {x: 1, y: 2}
        assert eval_formula(mk_lt(x, y), env)
        assert not eval_formula(mk_eq(x, y), env)
        assert eval_formula(mk_implies(mk_eq(x, y), FALSE), env)

class TestNNF:
    def test_negated_le_becomes_lt(self):
        f = to_nnf(mk_not(Le(x, y)))
        assert f == Lt(y, x)

    def test_negated_lt_becomes_le(self):
        f = to_nnf(mk_not(Lt(x, y)))
        assert f == Le(y, x)

    def test_negated_eq_keeps_not(self):
        f = to_nnf(mk_not(Eq(x, y)))
        assert isinstance(f, Not) and isinstance(f.arg, Eq)

    def test_de_morgan(self):
        f = to_nnf(mk_not(mk_and(Le(x, y), Le(y, z))))
        assert isinstance(f, Or)
        assert all(isinstance(a, Lt) for a in f.args)

    def test_implies_eliminated(self):
        f = to_nnf(mk_implies(Le(x, y), Le(y, z)))
        assert isinstance(f, Or)

    def test_iff_expanded_preserves_semantics(self):
        f = mk_iff(Le(x, y), Lt(y, z))
        g = to_nnf(f)
        for env in [{x: 0, y: 1, z: 2}, {x: 5, y: 1, z: 0}, {x: 1, y: 1, z: 1}]:
            assert eval_formula(f, env) == eval_formula(g, env)

    def test_nnf_negate_preserves_semantics(self):
        f = mk_implies(mk_and(Le(x, y), mk_not(Eq(y, z))), Lt(x, z))
        g = to_nnf(f, negate=True)
        for env in [{x: 0, y: 1, z: 2}, {x: 2, y: 3, z: 1}, {x: 0, y: 0, z: 0}]:
            assert eval_formula(g, env) == (not eval_formula(f, env))


class TestLinearize:
    def test_constant(self):
        le = linearize(mk_int(5))
        assert le.is_constant and le.const == 5

    def test_linear_combo(self):
        le = linearize(mk_add(mk_mul(3, x), mk_mul(-2, y), 7))
        assert le.coeff_of(x) == 3
        assert le.coeff_of(y) == -2
        assert le.const == 7

    def test_nested_products_distribute(self):
        le = linearize(mk_mul(2, mk_add(x, 3)))
        # 2*(x+3) cannot be distributed by mk_mul alone, but linearize
        # scales the single non-constant factor.
        assert le.coeff_of(x) == 2
        assert le.const == 6

    def test_nonlinear_kept_opaque(self):
        t = mk_mul(x, y)
        le = linearize(t)
        assert le.coeff_of(t) == 1
        assert not le.atoms() == {x, y}

    def test_linexpr_arith(self):
        a = LinExpr.atom(x, 2).add(LinExpr.constant(1))
        b = a.scale(3)
        assert b.coeff_of(x) == 6 and b.const == 3
        c = b.sub(a)
        assert c.coeff_of(x) == 4 and c.const == 2

    def test_substitute(self):
        a = LinExpr.atom(x, 2).add(LinExpr.atom(y)).add(LinExpr.constant(5))
        b = a.substitute(x, LinExpr.atom(z).add(LinExpr.constant(1)))
        assert b.coeff_of(z) == 2
        assert b.coeff_of(y) == 1
        assert b.const == 7


class TestSimplify:
    def test_folds_ground_atoms(self):
        assert simplify(Eq(IntConst(2), IntConst(2))) == TRUE
        assert simplify(mk_and(Le(IntConst(1), IntConst(0)))) == FALSE

    def test_result_not_boolean(self):
        from repro.smt.errors import Result

        with pytest.raises(TypeError):
            bool(Result.SAT)


# ---------------------------------------------------------------------------
# Hash-once nodes
# ---------------------------------------------------------------------------


def _sample_formula():
    return mk_and(
        mk_le(mk_add(x, mk_mul(2, y)), 3),
        mk_not(mk_eq(mk_div(x, 2), mk_mod(z, 3))),
        mk_or(
            mk_lt(mk_mul(x, y), z),
            mk_implies(mk_eq(x, 1), mk_iff(mk_lt(y, 0), mk_le(z, 0))),
        ),
    )


#: Run with ``PYTHONHASHSEED`` set: dump the sample formula, or load it
#: and check it against a fresh build by hash, equality and dict lookup.
_SEED_SCRIPT = """
import pickle, sys
sys.path[:0] = sys.argv[3:]
from test_smt_terms import _sample_formula
fresh = _sample_formula()
if sys.argv[1] == "dump":
    with open(sys.argv[2], "wb") as fh:
        pickle.dump(fresh, fh)
    print(hash(fresh))
else:
    with open(sys.argv[2], "rb") as fh:
        loaded = pickle.load(fh)
    assert hash(loaded) == hash(fresh), "a stale hash survived the pickle"
    assert loaded == fresh and {fresh: 1}[loaded] == 1
    assert {loaded.args[0].lhs: 1}[fresh.args[0].lhs] == 1
    print(hash(fresh))
"""


class TestHashOnce:
    def test_structural_equality_and_hash(self):
        a, b = _sample_formula(), _sample_formula()
        assert a is not b and a == b and hash(a) == hash(b)
        assert Le(x, y) != Lt(x, y) and hash(Le(x, y)) != hash(Lt(x, y))
        assert mk_le(x, y) != mk_le(y, x)
        assert (x == "x") is False

    def test_pickle_rebuilds_the_node(self):
        f = _sample_formula()
        g = pickle.loads(pickle.dumps(f))
        assert g is not f and g == f and hash(g) == hash(f)
        # A node pickles as its constructor call: no cached state rides along.
        assert f.__reduce__() == (type(f), (f.args,))

    def test_pickle_across_hash_seeds(self, tmp_path):
        path = str(tmp_path / "formula.pickle")
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(here), "src")

        def run(mode: str, seed: str) -> int:
            env = dict(os.environ, PYTHONHASHSEED=seed)
            out = subprocess.run(
                [sys.executable, "-c", _SEED_SCRIPT, mode, path, here, src],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert out.returncode == 0, out.stderr
            return int(out.stdout)

        dumped = run("dump", "1")
        loaded = run("load", "2")
        # The seeds really give different hashes, so a cached hash that
        # survived the pickle would have been caught.
        assert dumped != loaded
