"""Canonical keys for solver results.

Symbolic execution asks the solver about whole heaps, and location
*names* — the only thing that varies between isomorphic heaps — are an
artefact of the path that allocated them.  This module makes the
answer a function of the query's structure alone:

* :func:`canonicalize` alpha-renames a formula's variables to their
  first-occurrence index in a deterministic structural traversal.  Two
  queries differing only in location naming collapse to one key — the
  query-level mirror of the state fingerprints in ``search.fingerprint``.
* :class:`SolverCache` is the front of a persistent result tier keyed
  by canonical formulas.  Models are stored in canonical names and
  rehydrated through the inverse renaming of whichever query hits, so a
  stored model is exactly as usable as a fresh one.

Satisfiability is a pure function of the formula, so the tier is safe
to share across programs, processes and runs; hit/miss counters can be
snapshotted per program run (``snapshot``/``hits_since``) for
reporting.  One-shot queries always solve the *canonical* formula
rather than the original, so model choice is identical however a query
is named and whether or not a tier is attached.

Model determinism is a correctness property downstream, not just a
reporting nicety: ``get_model`` feeds counterexample construction and
the client synthesis of :mod:`repro.synth`, so a tier that returned
differently-named (or differently-chosen) models on hits would make
reported witnesses — and the emitted client programs — depend on what
else had been solved before.
"""

from __future__ import annotations

from typing import Optional

from .errors import Result, SolverError
from .terms import (
    Add,
    BoolConst,
    And,
    Div,
    Eq,
    Formula,
    Iff,
    Implies,
    IntConst,
    Le,
    Lt,
    Mod,
    Mul,
    Not,
    Or,
    Term,
    Var,
)


class _Canonicalizer:
    """First-occurrence alpha-renaming of variables."""

    def __init__(self) -> None:
        self.vars: list[Var] = []  # canonical index -> original
        self._vmap: dict[Var, Var] = {}

    def var(self, v: Var) -> Var:
        c = self._vmap.get(v)
        if c is None:
            c = Var(f"${len(self.vars)}")
            self._vmap[v] = c
            self.vars.append(v)
        return c

    def term(self, t: Term) -> Term:
        if isinstance(t, Var):
            return self.var(t)
        if isinstance(t, IntConst):
            return t
        if isinstance(t, Add):
            return Add(tuple(self.term(a) for a in t.args))
        if isinstance(t, Mul):
            return Mul(tuple(self.term(a) for a in t.args))
        if isinstance(t, Div):
            return Div(self.term(t.num), self.term(t.den))
        if isinstance(t, Mod):
            return Mod(self.term(t.num), self.term(t.den))
        raise SolverError(f"cannot canonicalize term {t!r}")

    def formula(self, f: Formula) -> Formula:
        if isinstance(f, BoolConst):
            return f
        if isinstance(f, Eq):
            return Eq(self.term(f.lhs), self.term(f.rhs))
        if isinstance(f, Le):
            return Le(self.term(f.lhs), self.term(f.rhs))
        if isinstance(f, Lt):
            return Lt(self.term(f.lhs), self.term(f.rhs))
        if isinstance(f, Not):
            return Not(self.formula(f.arg))
        if isinstance(f, And):
            return And(tuple(self.formula(a) for a in f.args))
        if isinstance(f, Or):
            return Or(tuple(self.formula(a) for a in f.args))
        if isinstance(f, Implies):
            return Implies(self.formula(f.lhs), self.formula(f.rhs))
        if isinstance(f, Iff):
            return Iff(self.formula(f.lhs), self.formula(f.rhs))
        raise SolverError(f"cannot canonicalize formula {f!r}")


def canonicalize(phi: Formula) -> tuple[Formula, list[Var]]:
    """Rename ``phi`` canonically.  Returns the renamed formula plus the
    original variables indexed by canonical id (the inverse renaming,
    used to rehydrate cached models)."""
    c = _Canonicalizer()
    renamed = c.formula(phi)
    return renamed, c.vars


#: Stored model form: (canonical id, value) pairs, sorted by id.
_CachedModel = tuple[tuple[int, int], ...]


class SolverCache:
    """The canonical-key front of a persistent solver-result tier.

    The cache itself holds no results: entries live in ``backing``
    (``repro.store.solver.SolverStore``, or anything with its
    ``lookup``/``store`` methods), attached by the driver's store layer
    and never constructed here — the smt package stays
    storage-agnostic.  With no backing every lookup misses: the
    store-less path keys proof queries on the whole heap, and those keys
    do not repeat within one program, so an in-memory table would only
    add a tier to trust.  With a backing, proof queries are keyed on the
    goal's cone of influence (``smt.incremental``), and those keys do
    repeat within a run — the store's own buffer answers them, and the
    shards answer repeats across runs.

    Every entry is a full one: a miss solves the canonical formula and
    stores its result with, when SAT, its model.  So whichever query
    populates a key first, a later ``get_model`` on it reads the model
    the canonical solve chose.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.backing = None

    def snapshot(self) -> tuple[int, int]:
        return self.hits, self.misses

    def hits_since(self, snap: tuple[int, int]) -> int:
        return self.hits - snap[0]

    def get(
        self, key: Formula
    ) -> Optional[tuple[Result, Optional[_CachedModel]]]:
        """The backing's ``(result, model)`` entry for a canonical
        formula, or None."""
        entry = None if self.backing is None else self.backing.lookup(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(
        self,
        key: Formula,
        result: Result,
        model: Optional[_CachedModel] = None,
    ) -> None:
        """Persist a decisive result.  UNKNOWN is budget-relative and
        another run (or machine) may well do better."""
        if self.backing is not None and result is not Result.UNKNOWN:
            self.backing.store(key, result, model)


#: The process-wide cache used by ``solver.check_sat``/``get_model``.
GLOBAL_CACHE = SolverCache()
