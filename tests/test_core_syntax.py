"""Unit tests for SPCF syntax, substitution and the type checker."""

import pytest

from repro.core import (
    App,
    Err,
    Fix,
    FunType,
    If,
    Lam,
    Loc,
    NAT,
    Num,
    Ref,
    TypeError_,
    app,
    check_program,
    fun,
    known_labels,
    lam,
    opaque_labels,
    opq,
    prim,
    subst,
)
from repro.core.syntax import free_refs, subexprs


class TestTypes:
    def test_fun_right_associates(self):
        t = fun(NAT, NAT, NAT)
        assert t == FunType(NAT, FunType(NAT, NAT))

    def test_fun_single(self):
        assert fun(NAT) == NAT

    def test_fun_empty_rejected(self):
        with pytest.raises(ValueError):
            fun()


class TestSubstitution:
    def test_substitutes_free(self):
        e = subst(Ref("x"), "x", Num(1))
        assert e == Num(1)

    def test_leaves_bound(self):
        e = Lam("x", NAT, Ref("x"))
        assert subst(e, "x", Num(1)) == e

    def test_shadowing_in_fix(self):
        e = Fix("x", NAT, Ref("x"))
        assert subst(e, "x", Num(1)) == e

    def test_descends_structure(self):
        e = If(Ref("x"), prim("add1", Ref("x"), label="a"), Num(0))
        out = subst(e, "x", Num(5))
        assert out.test == Num(5)
        assert out.then.args == (Num(5),)

    def test_substitutes_under_other_binder(self):
        e = Lam("y", NAT, Ref("x"))
        out = subst(e, "x", Num(3))
        assert out.body == Num(3)

    def test_app_both_sides(self):
        e = App(Ref("x"), Ref("x"))
        out = subst(e, "x", Num(2))
        assert out == App(Num(2), Num(2))


class TestTraversals:
    def test_free_refs(self):
        e = Lam("x", NAT, App(Ref("f"), Ref("x")))
        assert free_refs(e) == {"f"}

    def test_known_labels_are_prim_sites(self):
        e = prim("div", Num(1), prim("add1", Num(0), label="inner"), label="outer")
        assert known_labels(e) == {"inner", "outer"}

    def test_opaque_labels(self):
        o = opq(NAT, "u1")
        e = App(Lam("x", NAT, Ref("x")), o)
        assert opaque_labels(e) == {"u1"}

    def test_constructors_take_explicit_labels(self):
        # No process-wide counter mints labels: the caller names them.
        assert prim("add1", Num(0), label="x").label == "x"
        assert opq(NAT, "y").label == "y"
        with pytest.raises(TypeError):
            prim("add1", Num(0))
        with pytest.raises(TypeError):
            opq(NAT)

    def test_subexprs_preorder(self):
        e = If(Num(1), Num(2), Num(3))
        subs = list(subexprs(e))
        assert subs[0] is e and len(subs) == 4


class TestTypeChecker:
    def test_num(self):
        assert check_program(Num(3)) == NAT

    def test_lambda(self):
        e = lam("x", NAT, Ref("x"))
        assert check_program(e) == FunType(NAT, NAT)

    def test_application(self):
        e = app(lam("x", NAT, Ref("x")), Num(1))
        assert check_program(e) == NAT

    def test_higher_order(self):
        e = lam("g", fun(NAT, NAT), app(Ref("g"), Num(0)))
        assert check_program(e) == FunType(fun(NAT, NAT), NAT)

    def test_opaque_types(self):
        e = app(opq(fun(NAT, NAT), "o0"), Num(1))
        assert check_program(e) == NAT

    def test_fix(self):
        # μf:nat→nat. λn. if n = 0 then 0 else f (n-1)
        e = Fix(
            "f",
            fun(NAT, NAT),
            lam(
                "n",
                NAT,
                If(
                    prim("zero?", Ref("n"), label="p1"),
                    Num(0),
                    app(Ref("f"), prim("sub1", Ref("n"), label="p2")),
                ),
            ),
        )
        assert check_program(e) == fun(NAT, NAT)

    def test_unbound_variable(self):
        with pytest.raises(TypeError_):
            check_program(Ref("nope"))

    def test_bad_application(self):
        with pytest.raises(TypeError_):
            check_program(app(Num(1), Num(2)))

    def test_argument_mismatch(self):
        f = lam("g", fun(NAT, NAT), Num(0))
        with pytest.raises(TypeError_):
            check_program(app(f, Num(3)))

    def test_if_branches_must_agree(self):
        e = If(Num(1), Num(2), lam("x", NAT, Ref("x")))
        with pytest.raises(TypeError_):
            check_program(e)

    def test_prim_arity(self):
        with pytest.raises(TypeError_):
            check_program(prim("div", Num(1), label="p3"))

    def test_unknown_prim(self):
        with pytest.raises(TypeError_):
            check_program(prim("frobnicate", Num(1), label="p4"))

    def test_fix_annotation_mismatch(self):
        e = Fix("f", NAT, lam("x", NAT, Ref("x")))
        with pytest.raises(TypeError_):
            check_program(e)

    def test_internal_forms_rejected(self):
        with pytest.raises(TypeError_):
            check_program(Loc("L0"))
        with pytest.raises(TypeError_):
            check_program(Err("l", "div"))
