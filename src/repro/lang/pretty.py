"""Surface pretty-printer — core AST back to parseable source text.

The inverse of :mod:`lang.parser` up to desugaring: the printer emits
the *core* forms (``λ``, ``if``, ``begin``, ``letrec``, ``set!``,
``quote``, applications, ``•``), never the surface sugar they came
from, so printed text re-parses to the same core AST.  The contract is
**parse ∘ print = id** modulo generated metadata:

* blame labels are numbered by each parse from 0 in visiting order, so
  a re-parse of printed text numbers them by the printed core forms,
  not by the sugar they came from (and ``Program.label_end`` with
  them);
* ``ULam.name`` / ``UOpaque.label`` are debug identities the printed
  text cannot carry (``define`` sugar restores lambda names, but a
  ``letrec``-bound named lambda prints as a bare ``λ``).

:func:`strip_metadata` erases exactly those fields; the round-trip
property test (``tests/test_lang_pretty.py``) checks
``strip(parse(pp(parse(src)))) == strip(parse(src))`` over the whole
benchmark corpus, plus exact idempotence of ``pp ∘ parse``.

This is what makes counterexamples *executable artifacts*: the
synthesized demonic clients of :mod:`repro.synth` are rendered through
this printer into closed programs you can feed straight back to
``python -m repro verify`` or the concrete interpreter.
"""

from __future__ import annotations

from fractions import Fraction

from .ast import (
    Module,
    Program,
    Provide,
    Quote,
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
from .sexp import Symbol, write_datum


class PrettyError(Exception):
    """The expression has no faithful surface rendering."""


def pp_datum(d: object) -> str:
    """A quoted datum with its reader prefix where one is needed."""
    if isinstance(d, (Symbol, list)):
        return "'" + write_datum(d)
    if isinstance(d, Fraction):
        return f"{d.numerator}/{d.denominator}"
    return write_datum(d)


def pp(e: UExpr) -> str:
    """One expression as (single-line) surface text."""
    if isinstance(e, Quote):
        return pp_datum(e.datum)
    if isinstance(e, UVar):
        return e.name
    if isinstance(e, ULam):
        return f"(λ ({' '.join(e.params)}) {pp(e.body)})"
    if isinstance(e, UIf):
        return f"(if {pp(e.test)} {pp(e.then)} {pp(e.orelse)})"
    if isinstance(e, UBegin):
        return "(begin " + " ".join(pp(x) for x in e.exprs) + ")"
    if isinstance(e, ULetrec):
        if not e.bindings:
            return pp(e.body)
        rows = " ".join(f"[{n} {pp(x)}]" for n, x in e.bindings)
        return f"(letrec ({rows}) {pp(e.body)})"
    if isinstance(e, USet):
        return f"(set! {e.name} {pp(e.value)})"
    if isinstance(e, UOpaque):
        return "•"
    if isinstance(e, UApp):
        return "(" + " ".join([pp(e.fn), *(pp(a) for a in e.args)]) + ")"
    raise PrettyError(f"no surface form for {e!r}")


def _pp_define(name: str, e: UExpr) -> str:
    """``(define …)`` — function-style when the value is a lambda named
    after its binding (that is how the sugar parses, and the style
    restores ``ULam.name`` on re-parse)."""
    if isinstance(e, ULam) and e.name == name:
        return f"(define ({name}{''.join(' ' + p for p in e.params)}) {pp(e.body)})"
    return f"(define {name} {pp(e)})"


def pp_module(
    m: Module, *, opaque_exprs: dict[str, UExpr] | None = None
) -> str:
    """One module as multi-line surface text.

    With ``opaque_exprs``, each ``define-opaque`` import named there is
    *instantiated*: printed as a plain ``define`` of the concrete
    expression (dropping its contract), which is how a synthesized
    counterexample closes a module over its unknown imports."""
    lines = [f"(module {m.name}"]
    for sd in m.structs:
        lines.append(f"  (struct {sd.name} ({' '.join(sd.fields)}))")
    for oname, ctc in m.opaques:
        if opaque_exprs is not None and oname in opaque_exprs:
            lines.append(f"  {_pp_define(oname, opaque_exprs[oname])}")
        elif ctc is None:
            lines.append(f"  (define-opaque {oname})")
        else:
            lines.append(f"  (define-opaque {oname} {pp(ctc)})")
    for name, e in m.definitions:
        lines.append(f"  {_pp_define(name, e)}")
    if m.provides:
        entries = " ".join(_pp_provide(p) for p in m.provides)
        lines.append(f"  (provide {entries})")
    lines[-1] += ")"
    return "\n".join(lines)


def _pp_provide(p: Provide) -> str:
    if p.contract is None:
        return p.name
    return f"[{p.name} {pp(p.contract)}]"


def pp_program(
    program: Program, *, opaque_exprs: dict[str, UExpr] | None = None
) -> str:
    """A whole program as surface text (modules, then the top level)."""
    parts = [
        pp_module(m, opaque_exprs=opaque_exprs) for m in program.modules
    ]
    if program.main is not None:
        main = program.main
        if opaque_exprs is not None:
            main = substitute_opaques(main, opaque_exprs)
        parts.append(pp(main))
    return "\n".join(parts) + "\n"


def substitute_opaques(e: UExpr, bindings: dict[str, UExpr]) -> UExpr:
    """Replace each ``•^label`` in ``e`` by its binding (labels missing
    from ``bindings`` are left opaque)."""
    if isinstance(e, UOpaque):
        return bindings.get(e.label, e)
    if isinstance(e, (Quote, UVar)):
        return e
    if isinstance(e, ULam):
        return ULam(e.params, substitute_opaques(e.body, bindings), e.name)
    if isinstance(e, UIf):
        return UIf(
            substitute_opaques(e.test, bindings),
            substitute_opaques(e.then, bindings),
            substitute_opaques(e.orelse, bindings),
        )
    if isinstance(e, UBegin):
        return UBegin(tuple(substitute_opaques(x, bindings) for x in e.exprs))
    if isinstance(e, ULetrec):
        return ULetrec(
            tuple((n, substitute_opaques(x, bindings)) for n, x in e.bindings),
            substitute_opaques(e.body, bindings),
        )
    if isinstance(e, USet):
        return USet(e.name, substitute_opaques(e.value, bindings))
    if isinstance(e, UApp):
        return UApp(
            substitute_opaques(e.fn, bindings),
            tuple(substitute_opaques(a, bindings) for a in e.args),
            e.label,
        )
    raise PrettyError(f"cannot substitute into {e!r}")


# ---------------------------------------------------------------------------
# Metadata-erased equality (the round-trip normal form)
# ---------------------------------------------------------------------------


def strip_metadata(e: UExpr) -> UExpr:
    """Erase parse-generated metadata — blame labels, lambda display
    names, opaque labels — leaving the structural core two parses of
    equivalent text agree on."""
    if isinstance(e, (Quote, UVar)):
        return e
    if isinstance(e, ULam):
        return ULam(e.params, strip_metadata(e.body))
    if isinstance(e, UIf):
        return UIf(
            strip_metadata(e.test),
            strip_metadata(e.then),
            strip_metadata(e.orelse),
        )
    if isinstance(e, UBegin):
        return UBegin(tuple(strip_metadata(x) for x in e.exprs))
    if isinstance(e, ULetrec):
        return ULetrec(
            tuple((n, strip_metadata(x)) for n, x in e.bindings),
            strip_metadata(e.body),
        )
    if isinstance(e, USet):
        return USet(e.name, strip_metadata(e.value))
    if isinstance(e, UOpaque):
        return UOpaque("")
    if isinstance(e, UApp):
        return UApp(
            strip_metadata(e.fn),
            tuple(strip_metadata(a) for a in e.args),
        )
    raise PrettyError(f"cannot strip {e!r}")


def strip_program(program: Program) -> Program:
    """``strip_metadata`` over a whole program (``label_end`` too)."""
    def strip_module(m: Module) -> Module:
        return Module(
            m.name,
            m.structs,
            tuple((n, strip_metadata(e)) for n, e in m.definitions),
            tuple(
                (n, None if c is None else strip_metadata(c))
                for n, c in m.opaques
            ),
            tuple(
                Provide(p.name,
                        None if p.contract is None else strip_metadata(p.contract))
                for p in m.provides
            ),
        )

    return Program(
        tuple(strip_module(m) for m in program.modules),
        None if program.main is None else strip_metadata(program.main),
    )
