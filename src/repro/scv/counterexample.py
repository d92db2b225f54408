"""Counterexample construction for the untyped machine — §3.5 for §4.

At a blame state the heap records everything the path assumed about the
program's unknowns: tag narrowings, numeric refinements, materialised
shapes, and ``UCase`` memo tables for unknown functions.  A model of the
integer fragment (``scv.proof.translate_uheap``) pins the base values;
the rest is read off the heap structurally:

* opaque scalars take their model value (or a representative of their
  narrowed tag — ``0+1i`` for a provably-nonreal number, the paper's
  favourite witness);
* ``UCase`` tables become nested-``if`` lambdas over ``equal?`` tests;
* materialised pairs/boxes/structs are rebuilt with constructors;
* havoc wrapper closures are concretised by substituting their heap
  locations.

Validation re-runs the *surface* program under ``conc.interp`` with the
reconstructed bindings and demands blame at the same source label.  For
module programs the erring context is the synthesised demonic client;
``repro.synth`` reconstructs it from the same heap and model (the
``UCase`` argument-pattern tables and havoc closures at the client
location), and validation re-runs modules + synthesized client call,
so module findings are concretely confirmed too — no more
``validated=None`` for ordinary module counterexamples.  The closed
program text is kept on the counterexample (``client``/
``closed_program``) for the report and ``--emit-cex-client``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..conc.interp import (
    ContractBlame,
    Interp,
    InterpTimeout,
    PrimBlame,
    RuntimeFault,
    UserAbort,
)
from ..core.heap import PNot
from ..core.syntax import Loc
from ..lang.ast import (
    Program,
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
    subexprs_u,
)
from ..lang.sexp import Symbol, write_datum
from ..lang.values import NIL, VOID, StructType
from ..prims import base_primitives
from ..smt import get_model, mk_var
from .engine import CLIENT_LABEL, collect_struct_types
from .heap import (
    PEqDatum,
    UBoxS,
    UCase,
    UClos,
    UConc,
    UCtc,
    UGuard,
    UHeap,
    UOpq,
    UPair,
    UPrim,
    UStruct,
    UVectorS,
)
from .tags import (
    TAG_BOOLEAN,
    TAG_BOX,
    TAG_INTEGER,
    TAG_NONREAL,
    TAG_NULL,
    TAG_PAIR,
    TAG_PROCEDURE,
    TAG_RATREAL,
    TAG_STRING,
    TAG_SYMBOL,
    TAG_VECTOR,
    TAG_VOID,
)
from .machine import Blame, SState, ULocE
from .proof import translate_uheap


class UReconstructionError(Exception):
    """The heap value cannot be concretised (cycle, or a behaviourful
    value with no surface counterpart)."""


# ---------------------------------------------------------------------------
# Canonical rendering — the cross-backend normal form
# ---------------------------------------------------------------------------
#
# The typed backend renders counterexamples through ``core.pretty.pp``
# and canonicalises error operations through
# ``core.counterexample.canonical_op`` (``div`` → ``quotient``).  The
# renderers below put this backend's counterexamples in the same normal
# form — scalars render bare (``0``, ``#t``, ``0+1i``), not as quoted
# data (``'0``), and blame is reduced to its operation name — so the
# report's agreement section can compare the two backends' findings
# field by field.


#: Names δ blames under — the only description heads that denote an
#: operation rather than the start of free-form prose.
_PRIM_OP_NAMES = frozenset(base_primitives())


def canonical_blame_op(blame: Blame) -> str:
    """The canonical operation behind a blame: primitive blame carries
    ``"<op>: <message>"`` descriptions and reduces to the (surface) op
    name — matching ``core.counterexample.canonical_op`` output for the
    same fault.  Contract blame (and any description whose head is not
    actually a primitive) has no single operation and keeps its full
    description."""
    head, sep, _ = blame.description.partition(":")
    if sep and head in _PRIM_OP_NAMES:
        return head
    return blame.description


def render_datum(datum: object) -> str:
    """A scalar datum in canonical surface form.  Quoted forms (symbols,
    lists) take their reader prefix; everything else — including string
    escaping and the paper's ``0+1i`` complex layout — is
    ``lang.sexp.write_datum``'s source rendering."""
    if isinstance(datum, Symbol):
        return f"'{datum.name}"
    if isinstance(datum, list):
        return "'" + write_datum(datum)
    return write_datum(datum)


def render_value(e: UExpr) -> str:
    """A reconstructed counterexample value in canonical surface form."""
    if isinstance(e, Quote):
        return render_datum(e.datum)
    if isinstance(e, UVar):
        return e.name
    if isinstance(e, ULam):
        return f"(λ ({' '.join(e.params)}) {render_value(e.body)})"
    if isinstance(e, UApp):
        parts = [render_value(e.fn), *(render_value(a) for a in e.args)]
        return "(" + " ".join(parts) + ")"
    if isinstance(e, UIf):
        return (
            f"(if {render_value(e.test)} {render_value(e.then)} "
            f"{render_value(e.orelse)})"
        )
    return repr(e)


def render_bindings(cex: "UCounterexample") -> dict[str, str]:
    """Counterexample bindings in the canonical normal form."""
    return {label: render_value(v) for label, v in cex.bindings.items()}


@dataclass
class UCounterexample:
    """Concrete bindings for every program unknown, plus the blame they
    provoke — and, for module programs, the synthesized demonic client
    that provokes it."""

    bindings: dict[str, UExpr]  # opaque label / import name -> surface expr
    blame: Blame
    validated: Optional[bool] = None  # None = surface re-run skipped
    client: Optional["SynthesizedClient"] = None  # module programs only

    def closed_program(self, program: Program) -> str:
        """The counterexample as one closed, runnable surface program."""
        from ..synth import closed_program_text

        return closed_program_text(program, self.bindings, self.client)

    def __repr__(self) -> str:
        rows = ", ".join(f"•^{k} = {v!r}" for k, v in self.bindings.items())
        return f"UCounterexample({rows}; {self.blame!r})"


def opaque_labels(program: Program) -> list[str]:
    """Every unknown the program binds: top-level/definition ``•``
    labels plus module opaque-import names."""
    labels: list[str] = []
    exprs: list[UExpr] = []
    if program.main is not None:
        exprs.append(program.main)
    for m in program.modules:
        exprs.extend(e for _, e in m.definitions)
        labels.extend(name for name, _ in m.opaques)
    for e in exprs:
        for sub in subexprs_u(e):
            if isinstance(sub, UOpaque):
                labels.append(sub.label)
    return labels


class UReconstructor:
    """Concretises heap locations under a first-order model."""

    def __init__(self, heap: UHeap, model,
                 struct_types: Optional[dict[str, StructType]] = None) -> None:
        self.heap = heap
        self.model = model
        self.struct_types = struct_types or {}
        self._memo: dict[Loc, UExpr] = {}
        self._in_progress: set[Loc] = set()

    def loc_value(self, l: Loc) -> UExpr:
        target, _ = self.heap.deref(l)
        if target in self._memo:
            return self._memo[target]
        if target in self._in_progress:
            raise UReconstructionError(f"cyclic heap reference at {target.name}")
        self._in_progress.add(target)
        try:
            out = self._build(target)
        finally:
            self._in_progress.discard(target)
        self._memo[target] = out
        return out

    def _build(self, l: Loc) -> UExpr:
        s = self.heap.get(l)
        if isinstance(s, UConc):
            return Quote(s.value)
        if isinstance(s, UPair):
            return _capp("cons", self.loc_value(s.car), self.loc_value(s.cdr))
        if isinstance(s, UStruct):
            return _capp(s.type.name, *(self.loc_value(f) for f in s.fields))
        if isinstance(s, UBoxS):
            return _capp("box", self.loc_value(s.content))
        if isinstance(s, UVectorS):
            return _capp("vector", *(self.loc_value(f) for f in s.fields))
        if isinstance(s, UOpq):
            return self._build_opq(l, s)
        if isinstance(s, UCase):
            return self._build_case(s)
        if isinstance(s, UClos):
            if s.env.frame:  # pragma: no cover - roots never close over state
                raise UReconstructionError("closure over non-empty environment")
            return self._concretize(s.lam)
        if isinstance(s, (UGuard, UPrim, UCtc)):
            raise UReconstructionError(f"no surface form for {s!r}")
        raise UReconstructionError(f"cannot reconstruct {s!r}")

    def _build_opq(self, l: Loc, s: UOpq) -> UExpr:
        for p in s.preds:
            if isinstance(p, PEqDatum):
                return Quote(p.datum)
        if TAG_INTEGER in s.possible:
            return Quote(self.model[mk_var(l.name)])
        # The first representative of a possible tag that no negative
        # ``equal?`` fact on the opaque excludes.
        for tag, datum, expr in _REPRESENTATIVES:
            if tag in s.possible and (
                    datum is None or PNot(PEqDatum(datum)) not in s.preds):
                return expr
        for tag in sorted(s.possible):
            if tag.startswith("struct:"):
                stype = self.struct_types.get(tag[len("struct:"):])
                if stype is not None:
                    return _capp(stype.name, *[Quote(0)] * len(stype.fields))
        raise UReconstructionError(f"no representative for {s!r}")

    def _build_case(self, s: UCase) -> UExpr:
        params = tuple(f".x{i}" for i in range(s.arity))
        entries: list[tuple[tuple[UExpr, ...], UExpr]] = []
        for key, out in s.mapping:
            try:
                keys = tuple(self.loc_value(k) for k in key)
                entries.append((keys, self.loc_value(out)))
            except UReconstructionError:
                continue  # unmodelable entry: subsumed by the default
        default: UExpr = entries[0][1] if entries else Quote(0)
        body = default
        for keys, out in reversed(entries):
            test: UExpr = Quote(True)
            for p, k in reversed(list(zip(params, keys))):
                test = UIf(_capp("equal?", UVar(p), k), test, Quote(False))
            body = UIf(test, out, body)
        return ULam(params, body)

    def _concretize(self, e: UExpr) -> UExpr:
        """Substitute heap locations inside a (havoc-synthesised)
        expression by their concrete values."""
        if isinstance(e, ULocE):
            return self.loc_value(e.loc)
        if isinstance(e, (Quote, UVar, UOpaque)):
            return e
        if isinstance(e, ULam):
            return ULam(e.params, self._concretize(e.body), e.name)
        if isinstance(e, UApp):
            return UApp(
                self._concretize(e.fn),
                tuple(self._concretize(a) for a in e.args),
                e.label,
            )
        if isinstance(e, UIf):
            return UIf(
                self._concretize(e.test),
                self._concretize(e.then),
                self._concretize(e.orelse),
            )
        if isinstance(e, UBegin):
            return UBegin(tuple(self._concretize(x) for x in e.exprs))
        if isinstance(e, ULetrec):
            return ULetrec(
                tuple((n, self._concretize(x)) for n, x in e.bindings),
                self._concretize(e.body),
            )
        if isinstance(e, USet):
            return USet(e.name, self._concretize(e.value))
        raise UReconstructionError(f"cannot concretise {e!r}")


def _capp(prim: str, *args: UExpr) -> UApp:
    return UApp(UVar(prim), tuple(args), label="cex")


#: An opaque's representative per tag, in the order tried, with the datum
#: a negative ``equal?`` fact excludes it by (``None``: never excluded).
#: Integers take their model value instead, and structs come last.
_REPRESENTATIVES: tuple[tuple[str, object, UExpr], ...] = (
    (TAG_BOOLEAN, False, Quote(False)),
    (TAG_BOOLEAN, True, Quote(True)),
    (TAG_NULL, NIL, Quote([])),
    (TAG_RATREAL, 0.5, Quote(0.5)),
    # The paper's 0+1i: passes number?, fails every comparison.
    (TAG_NONREAL, complex(0, 1), Quote(complex(0, 1))),
    (TAG_STRING, "", Quote("")),
    (TAG_SYMBOL, Symbol("sym"), Quote(Symbol("sym"))),
    (TAG_PROCEDURE, None, ULam((".z",), Quote(0))),
    (TAG_PAIR, None, _capp("cons", Quote(0), Quote([]))),
    (TAG_VECTOR, None, _capp("vector", Quote(0))),
    (TAG_BOX, None, _capp("box", Quote(0))),
    (TAG_VOID, VOID, _capp("void")),
)


def construct_u(
    program: Program,
    state: SState,
    *,
    validate: bool = True,
    fuel: int = 200_000,
    client_of: Optional[str] = None,
) -> Optional[UCounterexample]:
    """Build (and, for module-free programs, validate) a counterexample
    from a known-blame state.  Returns None when the heap's integer
    fragment has no model (a spurious path)."""
    blame = state.control
    assert isinstance(blame, Blame)
    model = get_model(translate_uheap(state.heap))
    if model is None:
        return None
    recon = UReconstructor(state.heap, model, collect_struct_types(program))
    bindings: dict[str, UExpr] = {}
    for label in opaque_labels(program):
        if label == CLIENT_LABEL:
            continue
        root = Loc(f"o:{label}")
        if root in state.heap:
            try:
                bindings[label] = recon.loc_value(root)
            except UReconstructionError:
                bindings[label] = Quote(0)
        else:
            bindings[label] = Quote(0)  # irrelevant to this error
    cex = UCounterexample(bindings, blame)
    if validate:
        if program.modules:
            # Imported lazily: repro.synth imports this module.
            from ..synth import check_client, synthesize_client

            cex.client = synthesize_client(
                program, state.heap, recon, client_of=client_of
            )
            if cex.client is not None:
                cex.validated = check_client(
                    cex.client, blame, bindings, fuel=fuel
                )
        else:
            cex.validated = check_u(program, cex, fuel=fuel)
    return cex


def check_u(program: Program, cex: UCounterexample, *, fuel: int = 200_000) -> bool:
    """Re-run the instantiated surface program concretely and confirm
    blame lands at the same source site."""
    interp = Interp(fuel=fuel)
    try:
        interp.run_program(program, opaque_exprs=cex.bindings)
    except PrimBlame as b:
        return b.label == cex.blame.label
    except UserAbort as b:
        return b.label == cex.blame.label
    except ContractBlame as b:
        return b.party == cex.blame.party or b.label == cex.blame.label
    except (RuntimeFault, InterpTimeout, RecursionError):
        return False
    return False
