"""Demonic-context reconstruction — closing the paper's Theorem-1 loop
for module programs.

A module-program finding means: *some* well-behaved client can drive
this module (or one of its unknown imports) into blame.  The symbolic
run already contains that client, just not as a program: the machine's
opaque-application rule left its behaviour in the heap —

* the client location (``o:demonic-ctx``) holds either a ``UCase``
  argument-pattern table (the client returned without observing its
  arguments) or a *havoc wrapper closure* recording which provide it
  probed, with which fresh-opaque arguments, and the continuation the
  result was fed to;
* every probe location carries the tag narrowings and refinements the
  surviving path imposed, and the SMT model assigns each a concrete
  scalar;
* continuations are themselves unknowns, so the structure nests: a
  client that applies a *returned* function shows up as a havoc closure
  inside a havoc closure.

Reconstruction therefore reuses the ordinary heap reconstructor
(``scv.counterexample.UReconstructor``): concretising the client
location yields a lambda whose ``UCase`` tables render as nested
``if``/``equal?`` dispatch with a model-chosen default, whose probes
are concrete scalars (or synthesized lambdas, recursively), and whose
parameters we α-rename to the provide names for readability.  Blame
that strikes before the client is ever applied (a module initialiser
faulting at load) gets the trivial client — any client reproduces it.

Validation (:func:`check_client`) then re-runs modules + client call
under ``conc.interp`` and demands blame at the same source label (or
on the same party, for contract blame) — flipping the report's
``validated`` flag from ``skipped`` to a real verdict.  The model may
still be filtered here: the solver only sees the integer fragment, so
a path whose feasibility hinges on non-integer structure can yield a
client that takes a different concrete branch (see
docs/COUNTEREXAMPLES.md for the soundness argument).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
)
from ..lang.pretty import pp, pp_program
from ..scv.engine import CLIENT_LABEL
from ..scv.heap import UOpq

#: Label of the synthesized client's application site.  A known-shaped
#: label (no colon) so the call site itself could be blamed in a
#: concrete re-run without being mistaken for machine-internal blame.
CEX_CLIENT_LABEL = "cex-client"


@dataclass
class SynthesizedClient:
    """A concrete counterexample client, ready to run.

    ``client`` is ``None`` for programs whose blame does not go through
    a client application (no provides, or blame at module load) — the
    re-run then simply loads the modules and evaluates ``main``."""

    program: Program  # modules + client-call main, labels preserved
    provides: tuple[str, ...]
    client: Optional[ULam]  # the demonic context, concretised
    trivial: bool  # True when any client would do

    def client_text(self) -> Optional[str]:
        return None if self.client is None else pp(self.client)


def provide_names(
    program: Program, client_of: Optional[str] = None
) -> tuple[str, ...]:
    """The names the demonic client received, in boundary order — its
    argument list.  ``client_of`` mirrors
    ``scv.engine.client_provides``: ``None`` for every module's
    provides, a module name for that module's, ``""`` for none (the
    driver's narrowed module units, ``repro.driver.units``)."""
    from ..scv.engine import client_provides

    return tuple(client_provides(program, client_of))


def trivial_client(provides: tuple[str, ...]) -> ULam:
    """The client that ignores its arguments — sufficient whenever the
    blame fires before (or without) any client application."""
    return ULam(provides, Quote(0), name="client")


def synthesize_client(
    program: Program, heap, recon, *, client_of: Optional[str] = None
) -> Optional[SynthesizedClient]:
    """Reconstruct the demonic context from a blame-state ``heap`` under
    ``recon`` (an ``scv.counterexample.UReconstructor`` for that heap).

    Returns ``None`` for non-module programs (nothing to synthesize: the
    instantiated main *is* the executable counterexample), otherwise a
    :class:`SynthesizedClient` — falling back to the trivial client when
    the client location was never specialised or cannot be concretised.
    ``client_of`` must match the narrowing the machine ran under
    (``scv.engine.inject_program``): the client lambda's arity is the
    narrowed provide count.
    """
    if not program.modules:
        return None
    provides = provide_names(program, client_of)
    if not provides:
        return SynthesizedClient(program, provides, None, True)
    client: Optional[ULam] = None
    trivial = True
    loc = Loc(f"o:{CLIENT_LABEL}")
    if loc in heap:
        _, s = heap.deref(loc)
        if not isinstance(s, UOpq):  # the client was applied on this path
            # Imported lazily: scv.counterexample imports this module.
            from ..scv.counterexample import UReconstructionError

            try:
                expr = recon.loc_value(loc)
            except UReconstructionError:
                expr = None  # unmodelable client: fall back to trivial
            if (
                isinstance(expr, ULam)
                and len(expr.params) == len(provides)
            ):
                client = _rename_params(expr, provides)
                trivial = False
    if client is None:
        client = trivial_client(provides)
    call = UApp(client, tuple(UVar(n) for n in provides),
                label=CEX_CLIENT_LABEL)
    main: UExpr = call if program.main is None else UBegin(
        (call, program.main)
    )
    return SynthesizedClient(
        Program(program.modules, main), provides, client, trivial
    )


def closed_program_text(
    program: Program,
    bindings: dict[str, UExpr],
    client: Optional[SynthesizedClient] = None,
) -> str:
    """The counterexample as one closed, runnable surface program:
    modules with opaque imports instantiated from ``bindings``, then the
    client call (module programs) or the instantiated main (top-level
    programs)."""
    target = client.program if client is not None else program
    return pp_program(target, opaque_exprs=bindings)


def check_client(
    sc: SynthesizedClient, blame, bindings: dict[str, UExpr], *,
    fuel: int = 200_000,
) -> bool:
    """Re-run the synthesized client program concretely and confirm
    blame lands at the same source label (primitive faults) or on the
    same party (contract blame, whose labels may be machine-synthetic).
    """
    from ..conc.interp import (
        ContractBlame,
        Interp,
        InterpTimeout,
        PrimBlame,
        RuntimeFault,
        UserAbort,
    )

    interp = Interp(fuel=fuel)
    try:
        interp.run_program(sc.program, opaque_exprs=bindings)
    except PrimBlame as b:
        return b.label == blame.label
    except UserAbort as b:
        return b.label == blame.label
    except ContractBlame as b:
        return b.party == blame.party or b.label == blame.label
    except (RuntimeFault, InterpTimeout, RecursionError):
        return False
    return False


# ---------------------------------------------------------------------------
# Capture-respecting parameter renaming
# ---------------------------------------------------------------------------


def _rename_params(lam: ULam, names: tuple[str, ...]) -> ULam:
    """α-rename the client lambda's machine-minted parameters (``.h0``
    …) to the provide names, so the emitted client reads as code about
    the module's API.  Free occurrences only: nested havoc lambdas
    rebind the same machine names."""
    mapping = dict(zip(lam.params, names))
    return ULam(names, _rename_free(lam.body, mapping), name="client")


def _rename_free(e: UExpr, mapping: dict[str, str]) -> UExpr:
    if not mapping:
        return e
    if isinstance(e, UVar):
        return UVar(mapping.get(e.name, e.name))
    if isinstance(e, (Quote, UOpaque)):
        return e
    if isinstance(e, ULam):
        inner = {k: v for k, v in mapping.items() if k not in e.params}
        return ULam(e.params, _rename_free(e.body, inner), e.name)
    if isinstance(e, UIf):
        return UIf(
            _rename_free(e.test, mapping),
            _rename_free(e.then, mapping),
            _rename_free(e.orelse, mapping),
        )
    if isinstance(e, UBegin):
        return UBegin(tuple(_rename_free(x, mapping) for x in e.exprs))
    if isinstance(e, ULetrec):
        inner = {
            k: v for k, v in mapping.items()
            if k not in {n for n, _ in e.bindings}
        }
        return ULetrec(
            tuple((n, _rename_free(x, inner)) for n, x in e.bindings),
            _rename_free(e.body, inner),
        )
    if isinstance(e, USet):
        return USet(mapping.get(e.name, e.name), _rename_free(e.value, mapping))
    if isinstance(e, UApp):
        return UApp(
            _rename_free(e.fn, mapping),
            tuple(_rename_free(a, mapping) for a in e.args),
            e.label,
        )
    # Fail loudly on unknown node kinds (like the pretty/substitution
    # walks do): silently skipping one would leave machine names free in
    # the client and make validation fail with no pointer at the cause.
    raise TypeError(f"cannot rename inside {e!r}")
