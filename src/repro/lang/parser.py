"""Surface syntax → core AST.

Desugars the Racket-subset surface language into the small core of
``lang.ast``:

========================  =========================================
surface                   core
========================  =========================================
``(define (f x) e)``      ``letrec*`` binding with a named lambda
``cond`` / ``case``       nested ``if``
``and`` / ``or``          nested ``if``
``let`` / ``let*``        immediate lambda application
named ``let``             ``letrec`` + application
``when`` / ``unless``     ``if`` with a void branch
``(->d ([x c]...) r)``    ``(make->d c ... (λ (x ...) r))``
``(recursive-contract e)`` ``(make-rec-contract (λ () e))``
``•``                     ``UOpaque`` (a labelled unknown)
========================  =========================================

Contracts are *expressions* (first-class, §4.3): ``->``, ``and/c`` etc.
are ordinary primitives applied at runtime.

Every entry point (:func:`parse_program`, :func:`parse_module`,
:func:`parse_expr`, :func:`parse_expr_string`) is one parse with its
own label counter, starting at 0: the same text always gets the same
blame labels, whatever else ran in the process.  Text outside the
subset, malformed special forms included, raises :class:`ParseError`.
"""

from __future__ import annotations

from typing import Optional

from .ast import (
    Module,
    Program,
    Provide,
    Quote,
    StructDef,
    UApp,
    UBegin,
    UExpr,
    UIf,
    ULam,
    ULetrec,
    UOpaque,
    USet,
    UVar,
)
from .sexp import Datum, Symbol, read_all


class ParseError(Exception):
    """The surface form is not in the supported subset."""


def _sym(d: Datum) -> str:
    if not isinstance(d, Symbol):
        raise ParseError(f"expected identifier, got {d!r}")
    return d.name


def _is(d: Datum, name: str) -> bool:
    return isinstance(d, list) and len(d) > 0 and d[0] == Symbol(name)


def _arity(d: list, lo: int, hi: Optional[int] = None) -> None:
    """``d`` is a special form with between ``lo`` and ``hi`` parts
    (head included; ``hi`` None: no upper bound)."""
    if len(d) < lo or (hi is not None and len(d) > hi):
        raise ParseError(f"malformed {d[0]!r} form: {d!r}")


def _pairs(d: Datum, form: str) -> list:
    """A ``([name e] ...)`` binding list, each entry exactly two parts."""
    if not isinstance(d, list) or not all(
        isinstance(b, list) and len(b) == 2 for b in d
    ):
        raise ParseError(f"malformed {form} bindings: {d!r}")
    return d


class _Parser:
    """One parse.  Labels come from this parse's own counter, so they
    are a function of the text alone."""

    def __init__(self) -> None:
        self.next_label = 0

    def label(self, prefix: str) -> str:
        n = self.next_label
        self.next_label = n + 1
        return f"{prefix}{n}"

    def expr(self, d: Datum) -> UExpr:
        """Parse one expression datum."""
        if isinstance(d, Symbol):
            if d.name == "•":
                return UOpaque(self.label("opq"))
            return UVar(d.name)
        if isinstance(d, (int, float, complex, str, bool)) or type(d).__name__ == "Fraction":
            return Quote(d)
        if not isinstance(d, list):
            raise ParseError(f"unparseable datum {d!r}")
        if not d:
            raise ParseError("empty application")

        head = d[0]
        if isinstance(head, Symbol):
            name = head.name
            if name == "quote":
                _arity(d, 2, 2)
                return Quote(d[1])
            if name in ("lambda", "λ"):
                return self._lambda(d)
            if name == "if":
                if len(d) != 4:
                    raise ParseError(f"if needs 3 parts: {d!r}")
                return UIf(self.expr(d[1]), self.expr(d[2]), self.expr(d[3]))
            if name == "cond":
                return self._cond(d[1:])
            if name == "case":
                _arity(d, 2)
                return self._case(d)
            if name == "and":
                return self._and(d[1:])
            if name == "or":
                return self._or(d[1:])
            if name == "when":
                _arity(d, 3)
                test, body = self.expr(d[1]), self.body(d[2:])
                return UIf(test, body, self._void())
            if name == "unless":
                _arity(d, 3)
                test, void = self.expr(d[1]), self._void()
                return UIf(test, void, self.body(d[2:]))
            if name == "begin":
                return self.body(d[1:])
            if name == "let":
                return self._let(d)
            if name == "let*":
                return self._let_star(d)
            if name in ("letrec", "letrec*"):
                return self._letrec(d)
            if name == "set!":
                _arity(d, 3, 3)
                return USet(_sym(d[1]), self.expr(d[2]))
            if name == "->d":
                return self._arrow_d(d)
            if name == "recursive-contract":
                _arity(d, 2, 2)
                return UApp(
                    UVar("make-rec-contract"),
                    (ULam((), self.expr(d[1])),),
                    label=self.label("a"),
                )
            if name == "•":
                return UOpaque(self.label("opq"))
        fn = self.expr(head)
        args = tuple(self.expr(a) for a in d[1:])
        return UApp(fn, args, label=self.label("a"))

    def _void(self) -> UApp:
        return UApp(UVar("void"), (), label=self.label("a"))

    def _lambda(self, d: list) -> ULam:
        if len(d) < 3:
            raise ParseError(f"lambda needs params and body: {d!r}")
        params_d = d[1]
        if not isinstance(params_d, list):
            raise ParseError("variadic lambdas are not in the subset")
        params = tuple(_sym(p) for p in params_d)
        return ULam(params, self.body(d[2:]))

    def body(self, forms: list) -> UExpr:
        """A body: internal defines become a letrec*, the rest a begin."""
        defines: list[tuple[str, UExpr]] = []
        exprs: list[UExpr] = []
        for f in forms:
            if _is(f, "define"):
                name, expr = self.define(f)
                if exprs:
                    raise ParseError("define after expression in body")
                defines.append((name, expr))
            elif _is(f, "struct"):
                raise ParseError("struct definitions are module-level only")
            else:
                exprs.append(self.expr(f))
        if not exprs:
            raise ParseError("empty body")
        body = exprs[0] if len(exprs) == 1 else UBegin(tuple(exprs))
        if defines:
            return ULetrec(tuple(defines), body)
        return body

    def define(self, d: list) -> tuple[str, UExpr]:
        """``(define x e)`` or ``(define (f x ...) body...)``."""
        if len(d) < 3:
            raise ParseError(f"malformed define: {d!r}")
        target = d[1]
        if isinstance(target, Symbol):
            return target.name, self.expr(d[2])
        if isinstance(target, list) and target and isinstance(target[0], Symbol):
            fn_name = target[0].name
            params = tuple(_sym(p) for p in target[1:])
            return fn_name, ULam(params, self.body(d[2:]), name=fn_name)
        raise ParseError(f"malformed define target: {target!r}")

    def _cond(self, clauses: list) -> UExpr:
        if not clauses:
            # Falling off a cond is a runtime error in Racket; encode as an
            # application of the error primitive.
            return UApp(
                UVar("error"), (Quote("cond: all clauses failed"),), label=self.label("a")
            )
        first = clauses[0]
        if not isinstance(first, list) or not first:
            raise ParseError(f"malformed cond clause {first!r}")
        if first[0] == Symbol("else"):
            return self.body(first[1:])
        test = self.expr(first[0])
        if len(first) == 1:
            # (cond [e] ...) — value of the test when truthy.
            tmp = self.label("t")
            return UApp(
                ULam((tmp,), UIf(UVar(tmp), UVar(tmp), self._cond(clauses[1:]))),
                (test,),
                label=self.label("a"),
            )
        return UIf(test, self.body(first[1:]), self._cond(clauses[1:]))

    def _case(self, d: list) -> UExpr:
        """``(case e [(d ...) body] ... [else body])`` via equal? chains."""
        subject = self.expr(d[1])
        tmp = self.label("case")

        def clause_chain(clauses: list) -> UExpr:
            if not clauses:
                return UApp(
                    UVar("error"), (Quote("case: no matching clause"),), label=self.label("a")
                )
            c = clauses[0]
            if not isinstance(c, list) or not c:
                raise ParseError(f"malformed case clause {c!r}")
            if c[0] == Symbol("else"):
                return self.body(c[1:])
            if not isinstance(c[0], list) or not c[0]:
                raise ParseError(f"case datum list expected, got {c[0]!r}")
            tests = [
                UApp(UVar("equal?"), (UVar(tmp), Quote(datum)), label=self.label("a"))
                for datum in c[0]
            ]
            test = tests[0] if len(tests) == 1 else _or_chain(tests)
            return UIf(test, self.body(c[1:]), clause_chain(clauses[1:]))

        return UApp(
            ULam((tmp,), clause_chain(d[2:])), (subject,), label=self.label("a")
        )

    def _and(self, parts: list) -> UExpr:
        if not parts:
            return Quote(True)
        if len(parts) == 1:
            return self.expr(parts[0])
        return UIf(self.expr(parts[0]), self._and(parts[1:]), Quote(False))

    def _or(self, parts: list) -> UExpr:
        if not parts:
            return Quote(False)
        if len(parts) == 1:
            return self.expr(parts[0])
        tmp = self.label("or")
        return UApp(
            ULam((tmp,), UIf(UVar(tmp), UVar(tmp), self._or(parts[1:]))),
            (self.expr(parts[0]),),
            label=self.label("a"),
        )

    def _let(self, d: list) -> UExpr:
        _arity(d, 3)
        if isinstance(d[1], Symbol):
            # Named let: (let loop ([x e] ...) body).
            _arity(d, 4)
            loop = d[1].name
            bindings = _pairs(d[2], "let")
            names = tuple(_sym(b[0]) for b in bindings)
            inits = tuple(self.expr(b[1]) for b in bindings)
            fn = ULam(names, self.body(d[3:]), name=loop)
            return ULetrec(
                ((loop, fn),),
                UApp(UVar(loop), inits, label=self.label("a")),
            )
        bindings = _pairs(d[1], "let")
        names = tuple(_sym(b[0]) for b in bindings)
        inits = tuple(self.expr(b[1]) for b in bindings)
        return UApp(ULam(names, self.body(d[2:])), inits, label=self.label("a"))

    def _let_star(self, d: list) -> UExpr:
        _arity(d, 3)
        bindings = _pairs(d[1], "let*")
        body_forms = d[2:]
        if not bindings:
            return self.body(body_forms)
        first, rest = bindings[0], bindings[1:]
        inner = self._let_star([Symbol("let*"), rest] + body_forms)
        return UApp(
            ULam((_sym(first[0]),), inner),
            (self.expr(first[1]),),
            label=self.label("a"),
        )

    def _letrec(self, d: list) -> UExpr:
        _arity(d, 3)
        bindings = tuple((_sym(b[0]), self.expr(b[1]))
                         for b in _pairs(d[1], "letrec"))
        return ULetrec(bindings, self.body(d[2:]))

    def _arrow_d(self, d: list) -> UExpr:
        """``(->d ([x dom] ...) rng)`` — the range may mention the args."""
        _arity(d, 3, 3)
        binders = _pairs(d[1], "->d")
        names = tuple(_sym(b[0]) for b in binders)
        doms = tuple(self.expr(b[1]) for b in binders)
        rng_maker = ULam(names, self.expr(d[2]))
        return UApp(
            UVar("make->d"), doms + (rng_maker,), label=self.label("a")
        )

    # -- modules and programs ------------------------------------------

    def module(self, d: Datum) -> Module:
        """``(module name form ...)``."""
        if not _is(d, "module"):
            raise ParseError(f"expected (module ...), got {d!r}")
        assert isinstance(d, list)
        _arity(d, 2)
        name = _sym(d[1])
        structs: list[StructDef] = []
        definitions: list[tuple[str, UExpr]] = []
        opaques: list[tuple[str, Optional[UExpr]]] = []
        provides: list[Provide] = []
        for form in d[2:]:
            if _is(form, "struct"):
                _arity(form, 3, 3)
                if not isinstance(form[2], list):
                    raise ParseError(f"malformed struct fields {form[2]!r}")
                sname = _sym(form[1])
                fields = tuple(_sym(f) for f in form[2])
                structs.append(StructDef(sname, fields))
            elif _is(form, "define"):
                definitions.append(self.define(form))
            elif _is(form, "define-opaque"):
                _arity(form, 2, 3)
                oname = _sym(form[1])
                ctc = self.expr(form[2]) if len(form) > 2 else None
                opaques.append((oname, ctc))
            elif _is(form, "provide"):
                for p in form[1:]:
                    if isinstance(p, Symbol):
                        provides.append(Provide(p.name, None))
                    elif isinstance(p, list) and len(p) == 2:
                        provides.append(Provide(_sym(p[0]), self.expr(p[1])))
                    else:
                        raise ParseError(f"malformed provide entry {p!r}")
            else:
                raise ParseError(f"unknown module form {form!r}")
        return Module(
            name,
            tuple(structs),
            tuple(definitions),
            tuple(opaques),
            tuple(provides),
        )

    def program(self, data: list) -> Program:
        modules: list[Module] = []
        top: list[UExpr] = []
        top_defines: list[tuple[str, UExpr]] = []
        for d in data:
            if _is(d, "module"):
                modules.append(self.module(d))
            elif _is(d, "define"):
                top_defines.append(self.define(d))
            else:
                top.append(self.expr(d))
        main: Optional[UExpr] = None
        if top or top_defines:
            body = top[0] if len(top) == 1 else UBegin(tuple(top)) if top else Quote(False)
            main = ULetrec(tuple(top_defines), body) if top_defines else body
        return Program(tuple(modules), main, self.next_label)


def _or_chain(tests: list[UExpr]) -> UExpr:
    out = tests[-1]
    for t in reversed(tests[:-1]):
        out = UIf(t, Quote(True), out)
    return out


def parse_expr(d: Datum) -> UExpr:
    """Parse one expression datum."""
    return _Parser().expr(d)


def parse_module(d: Datum) -> Module:
    """``(module name form ...)``."""
    return _Parser().module(d)


def parse_program(source: str) -> Program:
    """Parse a whole program: modules followed by top-level expressions."""
    return _Parser().program(read_all(source))


def parse_expr_string(source: str) -> UExpr:
    """Convenience: parse a single expression from text."""
    data = read_all(source)
    if len(data) != 1:
        raise ParseError("expected exactly one expression")
    return parse_expr(data[0])
