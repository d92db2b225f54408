"""Content-addressed identities for programs, module slices and configs.

The persistent verdict store (:mod:`repro.store.verdicts`) keys results
by *what was verified*, not by file name or source bytes.  Three layers
of canonicalization make the keys stable:

* **format invariance** — digests are computed over the parsed AST, so
  whitespace, comments and surface sugar (``let``/``cond``/``define``)
  never perturb the key;
* **rename invariance** — every locally bound variable (lambda
  parameters, ``letrec``/``define`` bindings *inside* expressions) is
  serialized as a positional ``(b i)`` token, the expression-level twin
  of the state fingerprints in :mod:`repro.search.fingerprint`.
  Module-level names (definitions, opaque imports, provides, struct
  fields) are part of the observable interface — they appear in blame
  messages and monitored rebinding — and keep their names;
* **metadata erasure** — parse-minted blame labels and display names
  (``lang.pretty.strip_metadata``) are excluded, so re-parsing the same
  text in a different label-counter state yields the same digest.

The units themselves — whole programs, or the module slices of a
multi-module scv program — are the driver's plan
(:mod:`repro.driver.units`); ``module_slices`` is re-exported here,
where the store's keys are made.  A module's unit is keyed by the
digest of its slice, so editing one module re-verifies only the units
whose slices contain it.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from ..driver.units import module_slices  # noqa: F401  (re-exported)
from ..lang.ast import (
    Module,
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
from ..lang.sexp import Symbol

#: Bumped whenever the serialization below (or the stored entry format)
#: changes incompatibly; part of every config digest, so an old store
#: directory degrades to a cold cache instead of replaying stale shapes.
STORE_VERSION = 2


class DigestError(Exception):
    """The program contains a node the canonical serializer cannot walk
    (store keys must never silently collapse distinct programs)."""


# ---------------------------------------------------------------------------
# Canonical serialization of surface programs
# ---------------------------------------------------------------------------


def _datum(d: object) -> str:
    """A type-disambiguated token for a quoted datum (bool before int:
    bool is an int subclass)."""
    if isinstance(d, bool):
        return f"#bool:{d}"
    if isinstance(d, (int, float, complex, str)):
        return f"#{type(d).__name__}:{d!r}"
    if isinstance(d, Fraction):
        return f"#frac:{d.numerator}/{d.denominator}"
    if isinstance(d, Symbol):
        return f"#sym:{d.name}"
    if isinstance(d, (list, tuple)):
        return "#list(" + " ".join(_datum(x) for x in d) + ")"
    return f"#datum:{d!r}"


class _Serializer:
    """Alpha-invariant serialization: bound variables become positional
    ``(b i)`` tokens, free variables keep their names under a distinct
    ``(f name)`` tag — the two can never collide however a program names
    its locals."""

    def __init__(self) -> None:
        self._depth = 0

    def expr(self, e: UExpr, env: dict[str, int]) -> str:
        if isinstance(e, Quote):
            return f"(q {_datum(e.datum)})"
        if isinstance(e, UVar):
            idx = env.get(e.name)
            return f"(b {idx})" if idx is not None else f"(f {e.name})"
        if isinstance(e, UOpaque):
            return "(opq)"
        if isinstance(e, ULam):
            inner = dict(env)
            for p in e.params:
                inner[p] = self._depth
                self._depth += 1
            return f"(lam {len(e.params)} {self.expr(e.body, inner)})"
        if isinstance(e, ULetrec):
            inner = dict(env)
            for n, _ in e.bindings:
                inner[n] = self._depth
                self._depth += 1
            bs = " ".join(self.expr(x, inner) for _, x in e.bindings)
            return f"(lr ({bs}) {self.expr(e.body, inner)})"
        if isinstance(e, UApp):
            args = " ".join(self.expr(a, env) for a in e.args)
            return f"(app {self.expr(e.fn, env)} {args})"
        if isinstance(e, UIf):
            return (f"(if {self.expr(e.test, env)} {self.expr(e.then, env)} "
                    f"{self.expr(e.orelse, env)})")
        if isinstance(e, UBegin):
            return "(beg " + " ".join(self.expr(x, env) for x in e.exprs) + ")"
        if isinstance(e, USet):
            idx = env.get(e.name)
            tgt = f"(b {idx})" if idx is not None else f"(f {e.name})"
            return f"(set {tgt} {self.expr(e.value, env)})"
        raise DigestError(f"cannot serialize expression {e!r}")

    def module(self, m: Module) -> str:
        # Module-level names are interface, not alpha-renameable: they
        # name blame parties, monitored rebindings and struct bindings.
        parts = [f"(mod {m.name}"]
        for sd in m.structs:
            parts.append(f"(st {sd.name} ({' '.join(sd.fields)}))")
        for oname, ctc in m.opaques:
            c = "-" if ctc is None else self.expr(ctc, {})
            parts.append(f"(imp {oname} {c})")
        for name, e in m.definitions:
            parts.append(f"(def {name} {self.expr(e, {})})")
        for p in m.provides:
            c = "-" if p.contract is None else self.expr(p.contract, {})
            parts.append(f"(prov {p.name} {c})")
        return " ".join(parts) + ")"


def serialize_program(program: Program) -> str:
    """The canonical, rename-invariant serialization the digests hash."""
    s = _Serializer()
    parts = [s.module(m) for m in program.modules]
    if program.main is not None:
        parts.append(f"(main {s.expr(program.main, {})})")
    return "\n".join(parts)


def program_digest(program: Program) -> str:
    """A stable hex identity for a parsed program."""
    return hashlib.sha256(
        serialize_program(program).encode("utf-8")
    ).hexdigest()


def config_digest(fields: dict) -> str:
    """A stable hex identity for everything about a run configuration
    that can change a verification *result* (budgets, memoisation)
    plus the store and report
    schema versions — so format changes invalidate instead of corrupt.
    Worker count and store location are deliberately excluded: they
    change how a result is computed, never what it is."""
    from ..driver.report import SCHEMA

    payload = {
        "store": STORE_VERSION,
        "schema": SCHEMA,
        **{k: fields[k] for k in sorted(_SEMANTIC_CONFIG_FIELDS)},
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


#: RunConfig fields that participate in the config digest.
_SEMANTIC_CONFIG_FIELDS = frozenset({
    "max_states", "fuel", "timeout_s", "max_cex_attempts",
    "memo",
})
