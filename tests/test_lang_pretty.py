"""Round-trip property of the surface pretty-printer.

The printer's contract (``lang.pretty``): printed text re-parses to the
same core AST modulo parse-generated metadata (blame labels, lambda
display names, opaque labels), and printing is idempotent — parsing the
printed text and printing again reproduces it byte for byte.  Checked
over the entire benchmark corpus plus targeted datum edge cases.
"""

from fractions import Fraction

import pytest

from repro.lang.ast import Quote, ULam, UVar
from repro.lang.parser import parse_expr_string, parse_program
from repro.lang.pretty import (
    pp,
    pp_datum,
    pp_program,
    strip_metadata,
    strip_program,
    substitute_opaques,
)
from repro.lang.sexp import Symbol
from repro.driver.corpus import CORPUS


def _parse(src):
    return parse_program(src)


class TestRoundTripCorpus:
    @pytest.mark.parametrize("prog", CORPUS, ids=lambda p: p.name)
    def test_parse_print_parse(self, prog):
        p1 = _parse(prog.source)
        text = pp_program(p1)
        p2 = _parse(text)
        assert strip_program(p2) == strip_program(p1), text

    @pytest.mark.parametrize("prog", CORPUS, ids=lambda p: p.name)
    def test_print_is_idempotent(self, prog):
        text = pp_program(_parse(prog.source))
        assert pp_program(_parse(text)) == text


class TestDatums:
    @pytest.mark.parametrize(
        "src",
        [
            "0", "-7", "#t", "#f", "1/2", "-3/4", "0.5", "0+1i", "2-3i",
            '"hi"', '"a\\"b\\\\c"', "'sym", "'()", "'(1 2 3)",
            "'(a (b c) 4)", "(quote (quote x))",
        ],
    )
    def test_datum_round_trip(self, src):
        e1 = parse_expr_string(src)
        e2 = parse_expr_string(pp(e1))
        assert strip_metadata(e1) == strip_metadata(e2)

    def test_fraction_renders_exactly(self):
        assert pp_datum(Fraction(3, 4)) == "3/4"

    def test_symbol_takes_reader_prefix(self):
        assert pp_datum(Symbol("x")) == "'x"
        assert pp_datum([Symbol("a"), 1]) == "'(a 1)"


class TestSugarDesugars:
    @pytest.mark.parametrize(
        "src",
        [
            "(let ([x 1] [y 2]) (+ x y))",
            "(let* ([x 1] [y (add1 x)]) y)",
            "(let loop ([n 3]) (if (zero? n) 0 (loop (sub1 n))))",
            "(cond [(zero? 0) 1] [else 2])",
            "(case 2 [(1 2) 'lo] [else 'hi])",
            "(and 1 2 3)", "(or #f 2)", "(when 1 2)", "(unless #f 3)",
            "(begin (define x 1) (add1 x))",
            "(λ (f) (set! f (λ (x) x)))",
            "(->d ([x integer?]) (>/c x))",
            "(recursive-contract integer?)",
            "•",
        ],
    )
    def test_expr_round_trip(self, src):
        e1 = parse_expr_string(src)
        e2 = parse_expr_string(pp(e1))
        assert strip_metadata(e1) == strip_metadata(e2)


class TestSubstitution:
    def test_substitute_opaques_closes_program(self):
        e = parse_expr_string("(quotient 100 •)")
        opq = e.args[1]
        closed = substitute_opaques(e, {opq.label: Quote(0)})
        assert pp(closed) == "(quotient 100 0)"

    def test_missing_bindings_stay_opaque(self):
        e = parse_expr_string("•")
        assert substitute_opaques(e, {}) is e


class TestDefineStyle:
    def test_named_lambda_prints_as_function_define(self):
        p = _parse("(module m (define (f x) x) (provide f))")
        text = pp_program(p)
        assert "(define (f x) x)" in text
        # and the style restores the lambda's display name on re-parse
        p2 = _parse(text)
        (name, lam), = p2.modules[0].definitions
        assert isinstance(lam, ULam) and lam.name == "f"

    def test_value_define_stays_value_style(self):
        p = _parse("(module m (define k 7) (provide k))")
        assert "(define k 7)" in pp_program(p)

    def test_opaque_instantiation_drops_contract(self):
        p = _parse(
            "(module m (define-opaque g (-> integer? integer?))"
            " (define (use n) (g n)) (provide [use (-> integer? integer?)]))"
        )
        text = pp_program(
            p, opaque_exprs={"g": ULam(("x",), UVar("x"))}
        )
        assert "define-opaque" not in text
        assert "(define g (λ (x) x))" in text
