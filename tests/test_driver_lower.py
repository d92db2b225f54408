"""The surface→SPCF bridge: inference, lowering, label preservation,
and raising counterexample values back to surface syntax."""

import itertools

import pytest

from repro.core import (
    App,
    Fix,
    FunType,
    If,
    Lam,
    NAT,
    Num,
    Opq,
    PrimApp,
    check_program,
    fun,
)
from repro.core.syntax import subexprs
from repro.driver.lower import LowerError, lower_expr, lower_program, raise_expr
from repro.lang.ast import Quote, UApp, UIf, ULam, UVar
from repro.lang.parser import parse_expr_string, parse_program


def lower_source(src: str):
    return lower_program(parse_program(src))


def prim_apps(e):
    return [s for s in subexprs(e) if isinstance(s, PrimApp)]


class TestBasics:
    def test_literals_and_arith(self):
        e = lower_expr(parse_expr_string("(+ 1 2)"))
        assert isinstance(e, PrimApp) and e.op == "+"
        assert e.args == (Num(1), Num(2))

    def test_booleans_become_pcf_numbers(self):
        assert lower_expr(parse_expr_string("#t")) == Num(1)
        assert lower_expr(parse_expr_string("#f")) == Num(0)

    def test_prim_renames(self):
        cases = {
            "(quotient 7 2)": "div",
            "(modulo 7 2)": "mod",
            "(= 1 2)": "=?",
            "(< 1 2)": "<?",
            "(<= 1 2)": "<=?",
        }
        for src, op in cases.items():
            e = lower_expr(parse_expr_string(src))
            assert isinstance(e, PrimApp) and e.op == op, src

    def test_swapped_comparisons(self):
        e = lower_expr(parse_expr_string("(> 1 2)"))
        assert e.op == "<?" and e.args == (Num(2), Num(1))
        e = lower_expr(parse_expr_string("(>= 1 2)"))
        assert e.op == "<=?" and e.args == (Num(2), Num(1))

    def test_nary_arith_folds(self):
        e = lower_expr(parse_expr_string("(+ 1 2 3)"))
        assert e.op == "+" and isinstance(e.args[0], PrimApp)

    def test_unary_minus(self):
        e = lower_expr(parse_expr_string("(- 5)"))
        assert e.op == "-" and e.args == (Num(0), Num(5))

    def test_begin_discards_any_type(self):
        # The discarded binder takes the sub-expression's inferred type,
        # not a hardcoded nat.
        e = lower_expr(parse_expr_string("(begin (lambda (x) x) 5)"))
        assert check_program(e) == NAT

    def test_multi_param_lambda_curries(self):
        e = lower_expr(parse_expr_string("((lambda (a b) (+ a b)) 1 2)"))
        assert isinstance(e, App) and isinstance(e.fn, App)
        assert isinstance(e.fn.fn, Lam) and isinstance(e.fn.fn.body, Lam)
        assert check_program(e) == NAT


class TestInference:
    def test_opaque_defaults_to_nat(self):
        e = lower_expr(parse_expr_string("(+ • 1)"))
        opq = next(s for s in subexprs(e) if isinstance(s, Opq))
        assert opq.type == NAT

    def test_opaque_in_function_position(self):
        e = lower_source("(define g •)\n(g 3)")
        opq = next(s for s in subexprs(e) if isinstance(s, Opq))
        assert opq.type == FunType(NAT, NAT)

    def test_curried_opaque(self):
        e = lower_source("(define h •)\n((h 3) 4)")
        opq = next(s for s in subexprs(e) if isinstance(s, Opq))
        assert opq.type == fun(NAT, NAT, NAT)

    def test_higher_order_parameter(self):
        e = lower_source("(define (apply-at-zero g) (g 0))\n(apply-at-zero •)")
        opq = next(s for s in subexprs(e) if isinstance(s, Opq))
        assert opq.type == FunType(NAT, NAT)
        assert check_program(e) == NAT

    def test_type_clash_rejected(self):
        with pytest.raises(LowerError):
            lower_source("(define x •)\n(+ (x 1) x)")


class TestLetrec:
    def test_recursive_define_becomes_fix(self):
        e = lower_source(
            "(define (count n) (if (<= n 0) 0 (count (- n 1))))\n(count 3)"
        )
        assert any(isinstance(s, Fix) for s in subexprs(e))
        assert check_program(e) == NAT

    def test_non_recursive_define_has_no_fix(self):
        e = lower_source("(define (inc n) (+ n 1))\n(inc 3)")
        assert not any(isinstance(s, Fix) for s in subexprs(e))

    def test_earlier_bindings_visible_to_later(self):
        e = lower_source(
            "(define (inc n) (+ n 1))\n(define (twice n) (inc (inc n)))\n(twice 1)"
        )
        assert check_program(e) == NAT

    def test_mutual_recursion_rejected(self):
        # Rejected at inference time: letrec scope is sequential, so the
        # forward reference is simply unbound.
        with pytest.raises(LowerError):
            lower_source(
                "(define (even0? n) (if (= n 0) 1 (odd0? (- n 1))))\n"
                "(define (odd0? n) (if (= n 0) 0 (even0? (- n 1))))\n"
                "(even0? 4)"
            )


class TestLabels:
    def test_blame_labels_survive_lowering(self):
        prog = parse_program("(quotient 1 •)")
        surface_app = prog.main
        assert isinstance(surface_app, UApp)
        core = lower_program(prog)
        (papp,) = prim_apps(core)
        assert papp.label == surface_app.label

    def test_shadowed_prim_is_a_variable(self):
        e = lower_expr(parse_expr_string("((lambda (quotient) (quotient 5)) (lambda (x) x))"))
        # No PrimApp: the binder shadows the primitive name.
        assert prim_apps(e) == []
        assert check_program(e) == NAT


class TestUnsupported:
    def test_set_bang(self):
        with pytest.raises(LowerError):
            lower_source("(define x 1)\n(begin (set! x 2) x)")

    def test_first_class_prim(self):
        with pytest.raises(LowerError):
            lower_source("(define f +)\n(f 1 2)")

    def test_modules(self):
        with pytest.raises(LowerError, match="modules"):
            lower_source("(module m (define x 1) (provide x))\nx")

    def test_non_integer_literal(self):
        with pytest.raises(LowerError):
            lower_expr(parse_expr_string('(+ 1 "two")'))

    def test_remainder_rejected(self):
        # Racket remainder truncates toward zero; core mod is Euclidean.
        # Mapping one onto the other produced false "safe" verdicts, e.g.
        # (quotient 100 (add1 (remainder • 3))) at • = -1.
        with pytest.raises(LowerError, match="remainder"):
            lower_expr(parse_expr_string("(remainder 7 2)"))

    def test_modulo_requires_positive_constant_divisor(self):
        for src in ("(modulo 5 •)", "(modulo 5 (- 0 3))", "(modulo 5 0)"):
            with pytest.raises(LowerError, match="modulo"):
                lower_expr(parse_expr_string(src))


class TestRaise:
    def test_round_trips_numbers(self):
        assert raise_expr(Num(7), itertools.count()) == Quote(7)
        assert raise_expr(Num(-3), itertools.count()) == Quote(-3)

    def test_case_lambda_shape(self):
        # λx. if x = 3 then 10 else 0, as built by counterexample
        # reconstruction, becomes a surface lambda over `=`.
        body = If(
            PrimApp("=?", (Num(3), Num(3)), "p"), Num(10), Num(0)
        )
        raised = raise_expr(Lam("x", NAT, body), itertools.count(5))
        assert isinstance(raised, ULam) and raised.params == ("x",)
        assert isinstance(raised.body, UIf)
        test = raised.body.test
        assert isinstance(test, UApp) and test.fn == UVar("=")
        # Labels continue from the given number (a parse's label_end).
        assert test.label == "cex5"

    def test_rejects_fix(self):
        with pytest.raises(LowerError):
            raise_expr(Fix("f", fun(NAT, NAT), Lam("x", NAT, Num(0))),
                       itertools.count())
