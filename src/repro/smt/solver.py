"""The solver facade: a lazy DPLL(T) loop over the CDCL core and the LIA
conjunction solver.

This module is the reproduction's stand-in for Z3.  The public surface
mimics the slice of the z3py API the paper's tool needs:

* :class:`Solver` with ``add``, ``check`` and ``model`` — one
  satisfiability check of the conjunction of everything added, with no
  assertion scopes and no second check: every proof query is its own
  one-shot solve, and ``SOLVE_STATS`` counts the solves;
* :class:`Model` mapping variables to integers;
* module-level helpers :func:`check_sat`, :func:`get_model`.

Preprocessing eliminates the one term form the LIA core does not handle
natively: ``div``/``mod`` terms are axiomatised with fresh
quotient/remainder variables (Euclidean semantics; a zero divisor makes
the axiom unsatisfiable, which matches the tool's usage where every
division is guarded by a nonzero refinement).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .cache import GLOBAL_CACHE, canonicalize
from .cnf import AtomMap, to_cnf
from .errors import Result, SolverError
from .lia import EQ, LE, NE, Constraint, LiaSolver, normalize
from .linearize import linearize
from .sat import SatSolver
from .simplify import simplify, to_nnf
from .terms import (
    Add,
    BoolConst,
    Div,
    Eq,
    FALSE,
    Formula,
    IntConst,
    Le,
    Lt,
    Mod,
    Mul,
    Not,
    Term,
    TRUE,
    Var,
    eval_formula,
    free_vars,
    mk_and,
    mk_eq,
    mk_ge,
    mk_le,
    mk_mul,
    mk_or,
    mk_sub,
)

__all__ = [
    "Solver",
    "Model",
    "SolveStats",
    "SOLVE_STATS",
    "check_sat",
    "get_model",
    "solver_cache",
]

#: DPLL(T) rounds one check may run before it answers UNKNOWN.
MAX_THEORY_ROUNDS = 4000

#: The process-wide front of the solver-result tier behind the one-shot
#: helpers below (a miss unless a ``backing`` store is attached);
#: ``snapshot``/``hits_since`` meter a region of work.
solver_cache = GLOBAL_CACHE


@dataclass
class Model:
    """A first-order model: integers for variables."""

    env: dict[Var, int] = field(default_factory=dict)

    def __getitem__(self, v: Var | str) -> int:
        if isinstance(v, str):
            v = Var(v)
        return self.env.get(v, 0)

    def __contains__(self, v: Var | str) -> bool:
        if isinstance(v, str):
            v = Var(v)
        return v in self.env

    def eval_term(self, t: Term) -> int:
        from .terms import eval_term

        return eval_term(t, self.env)

    def eval(self, f: Formula) -> bool:
        return eval_formula(f, self.env)

    def __repr__(self) -> str:
        parts = [f"{v.name} = {val}" for v, val in sorted(
            self.env.items(), key=lambda kv: kv[0].name)]
        return "[" + ", ".join(parts) + "]"


class _Preprocessed:
    """Term-level preprocessing state of one solver: rewrites formulas
    free of Div/Mod, sharing one quotient/remainder pair per distinct
    ``div``/``mod`` term."""

    def __init__(self) -> None:
        self.defs: list[Formula] = []
        self.div_cache: dict[Term, Var] = {}
        self._fresh = itertools.count()

    def fresh(self, prefix: str) -> Var:
        return Var(f".{prefix}{next(self._fresh)}")

    # -- term rewriting --------------------------------------------------

    def rewrite_term(self, t: Term) -> Term:
        if isinstance(t, (Var, IntConst)):
            return t
        if isinstance(t, Add):
            return Add(tuple(self.rewrite_term(a) for a in t.args))
        if isinstance(t, Mul):
            return Mul(tuple(self.rewrite_term(a) for a in t.args))
        if isinstance(t, Div):
            return self._rewrite_divmod(t, want_mod=False)
        if isinstance(t, Mod):
            return self._rewrite_divmod(t, want_mod=True)
        raise SolverError(f"unsupported term {t!r}")

    def _rewrite_divmod(self, t: Div | Mod, *, want_mod: bool) -> Term:
        key_div = Div(t.num, t.den)
        if key_div not in self.div_cache:
            num = self.rewrite_term(t.num)
            den = self.rewrite_term(t.den)
            q = self.fresh("q")
            r = self.fresh("r")
            key_mod = Mod(t.num, t.den)
            self.div_cache[key_div] = q
            self.div_cache[key_mod] = r
            # num = den*q + r, 0 <= r < |den|  (Euclidean).  den = 0 makes
            # both guarded disjuncts false, i.e. the axiom is unsat.
            self.defs.append(mk_eq(num, Add((mk_mul(den, q), r))))
            self.defs.append(mk_ge(r, 0))
            self.defs.append(
                mk_or(
                    mk_and(mk_ge(den, 1), mk_le(r, mk_sub(den, 1))),
                    mk_and(
                        mk_le(den, -1),
                        mk_le(r, mk_sub(mk_mul(-1, den), 1)),
                    ),
                )
            )
        key = Mod(t.num, t.den) if want_mod else key_div
        return self.div_cache[key]

    # -- formula rewriting ------------------------------------------------

    def rewrite(self, f: Formula) -> Formula:
        if isinstance(f, BoolConst):
            return f
        if isinstance(f, Eq):
            return Eq(self.rewrite_term(f.lhs), self.rewrite_term(f.rhs))
        if isinstance(f, Le):
            return Le(self.rewrite_term(f.lhs), self.rewrite_term(f.rhs))
        if isinstance(f, Lt):
            return Lt(self.rewrite_term(f.lhs), self.rewrite_term(f.rhs))
        if isinstance(f, Not):
            return Not(self.rewrite(f.arg))
        from .terms import And, Iff, Implies, Or

        if isinstance(f, And):
            return And(tuple(self.rewrite(a) for a in f.args))
        if isinstance(f, Or):
            return Or(tuple(self.rewrite(a) for a in f.args))
        if isinstance(f, Implies):
            return Implies(self.rewrite(f.lhs), self.rewrite(f.rhs))
        if isinstance(f, Iff):
            return Iff(self.rewrite(f.lhs), self.rewrite(f.rhs))
        raise SolverError(f"unsupported formula {f!r}")


def _atom_constraints(atom: Formula, positive: bool) -> Constraint:
    """Translate a theory atom (with polarity) to a LIA constraint."""
    if isinstance(atom, Eq):
        diff = linearize(atom.lhs).sub(linearize(atom.rhs))
        return normalize(diff, EQ if positive else NE)
    if isinstance(atom, Le):
        if positive:
            diff = linearize(atom.lhs).sub(linearize(atom.rhs))
            return normalize(diff, LE)
        diff = linearize(atom.rhs).sub(linearize(atom.lhs))
        return normalize(diff, LE, strict=True)
    if isinstance(atom, Lt):
        if positive:
            diff = linearize(atom.lhs).sub(linearize(atom.rhs))
            return normalize(diff, LE, strict=True)
        diff = linearize(atom.rhs).sub(linearize(atom.lhs))
        return normalize(diff, LE)
    raise SolverError(f"not a theory atom: {atom!r}")


@dataclass
class SolveStats:
    """Process-wide solver counters, reported per bench row.

    ``fresh_solves`` counts :meth:`Solver.check` calls — every solve is
    one from scratch; ``unknown_results`` counts one-shot queries the
    solver left undecided (a budget-relative answer the proof relation
    turns into AMBIG, so it is made visible rather than passed
    silently).  Like the solver tier's hit counters they are monotone;
    ``begin_window``/``window`` meter one verification (verifications
    never interleave within a worker process).
    """

    fresh_solves: int = 0
    unknown_results: int = 0

    def begin_window(self) -> tuple[int, int]:
        return (self.fresh_solves, self.unknown_results)

    def window(self, snap: tuple[int, int]) -> dict:
        return {
            "solver_fresh_solves": self.fresh_solves - snap[0],
            "solver_unknown": self.unknown_results - snap[1],
        }


#: The process-wide solver counters (reported per bench row).
SOLVE_STATS = SolveStats()


class Solver:
    """First-order solver with a z3py-like surface.

    Example::

        s = Solver()
        x, y = mk_var("x"), mk_var("y")
        s.add(mk_eq(mk_add(x, y), 10), mk_lt(x, y))
        assert s.check() is Result.SAT
        m = s.model()
        assert m[x] + m[y] == 10 and m[x] < m[y]

    ``check`` decides the conjunction of every formula added before it,
    once: a second ``check`` or an ``add`` after it raises
    :class:`SolverError`.  There are no assertion scopes: a query that
    differs from another is a new :class:`Solver`, solved from scratch
    (``check_sat`` does this on the query's canonical form).
    """

    def __init__(self, *, lia: Optional[LiaSolver] = None) -> None:
        self._model: Optional[Model] = None
        self._checked = False
        self._lia = lia or LiaSolver()
        self._atoms = AtomMap()
        self._sat = SatSolver()
        self._pre = _Preprocessed()
        self._defs_done = 0  # prefix of _pre.defs already asserted
        self._constraint_memo: dict[tuple[Formula, bool], Constraint] = {}
        self._free_vars: set[Var] = set()  # of everything asserted

    # -- assertion management ----------------------------------------------

    def add(self, *formulas: Formula) -> None:
        if self._checked:
            raise SolverError("add() after check(): a Solver decides once")
        for f in formulas:
            self._assert_formula(f)

    # -- assertion translation ---------------------------------------------

    def _assert_formula(self, f: Formula) -> None:
        """Simplify, preprocess, CNF and load one formula into the CDCL
        core."""
        g = simplify(f)
        if g == TRUE:
            return
        g = self._pre.rewrite(g)
        new_defs = self._pre.defs[self._defs_done:]
        self._defs_done = len(self._pre.defs)
        for h in (g, *new_defs):
            h = simplify(h)
            if h == TRUE:
                continue
            nnf = to_nnf(h)
            self._free_vars |= free_vars(nnf)
            clauses = to_cnf(nnf, self._atoms)
            self._sat.ensure_vars(self._atoms.num_vars)
            for cl in clauses:
                self._sat.add_clause(cl)

    def _constraint(self, atom: Formula, positive: bool) -> Constraint:
        """Atom-to-LIA translation, memoized per solver: the DPLL(T)
        rounds of one check re-ask mostly the same atoms."""
        key = (atom, positive)
        c = self._constraint_memo.get(key)
        if c is None:
            c = _atom_constraints(atom, positive)
            self._constraint_memo[key] = c
        return c

    # -- solving -----------------------------------------------------------

    def check(self) -> Result:
        """Decide the conjunction of all assertions by the DPLL(T) loop
        over the CDCL core.

        An UNSAT theory answer blocks the literals in its explanation
        (``LiaResult.core``); an UNKNOWN one (not a valid lemma — the
        conjunction may be SAT) blocks every literal, which is sound
        only because the clause dies with this solver, as do the learned
        clauses that may rest on it."""
        if self._checked:
            raise SolverError("check() called twice: a Solver decides once")
        self._checked = True
        SOLVE_STATS.fresh_solves += 1
        unknown_seen = False
        for _ in range(MAX_THEORY_ROUNDS):
            if not self._sat.solve():
                return Result.UNKNOWN if unknown_seen else Result.UNSAT
            lits = self._atoms.theory_lits(self._sat.model_assignment())
            constraints = [self._constraint(a, pol) for a, pol in lits]
            res = self._lia.solve(constraints)
            if res.status is Result.SAT:
                assert res.model is not None
                self._model = self._build_model(res.model)
                return Result.SAT
            if res.status is Result.UNKNOWN:
                unknown_seen = True
                core = lits
            else:
                core = [lit for lit, c in zip(lits, constraints) if c in res.core]
                assert core, "an UNSAT explanation is never empty"
            blocking = [
                (-self._atoms.var_for(a)) if pol else self._atoms.var_for(a)
                for a, pol in core
            ]
            if not self._sat.block_and_continue(blocking):
                return Result.UNKNOWN if unknown_seen else Result.UNSAT
        return Result.UNKNOWN

    def _build_model(self, env: dict) -> Model:
        full_env: dict[Var, int] = {v: env.get(v, 0) for v in self._free_vars}
        for v, val in env.items():
            if isinstance(v, Var):
                full_env[v] = val
        # Drop internal auxiliary variables from the reported model.
        public_env = {
            v: val for v, val in full_env.items() if not v.name.startswith(".")
        }
        return Model(public_env)

    def model(self) -> Model:
        if self._model is None:
            raise SolverError("model() called without a preceding SAT check")
        return self._model


# ---------------------------------------------------------------------------
# Convenience helpers — one-shot queries solved in canonical form
# ---------------------------------------------------------------------------


def _encode_model(m: Model):
    """Canonical-name model -> compact hashless storage form.  The
    canonical renaming maps variables to ``$<i>``; only those survive
    into the stored entry."""
    return tuple(
        sorted(
            (int(v.name[1:]), val)
            for v, val in m.env.items()
            if v.name.startswith("$")
        )
    )


def _decode_model(cached, orig_vars) -> Model:
    return Model({orig_vars[i]: val for i, val in cached if i < len(orig_vars)})


def _cached_check(phi: Formula) -> tuple[Result, Optional[Model]]:
    """Decide ``phi`` by solving its canonical form, through the
    solver-result tier.

    The *canonical* formula is what gets solved, so the verdict and the
    model are functions of the query's structure alone — however its
    locations happened to be numbered, and whether or not a stored
    entry answered.  Every miss stores the canonical solve with its
    model; an UNKNOWN answer is counted in ``SOLVE_STATS``.
    """
    canon, orig_vars = canonicalize(phi)
    entry = GLOBAL_CACHE.get(canon)
    if entry is None:
        s = Solver()
        s.add(canon)
        res = s.check()
        if res is Result.UNKNOWN:
            SOLVE_STATS.unknown_results += 1
        stored = _encode_model(s.model()) if res is Result.SAT else None
        GLOBAL_CACHE.put(canon, res, stored)
    else:
        res, stored = entry
    if stored is None:
        return res, None
    return res, _decode_model(stored, orig_vars)


def check_sat(*formulas: Formula) -> Result:
    """One-shot satisfiability check of a conjunction, on its canonical
    form."""
    phi = simplify(mk_and(*formulas))
    if phi == TRUE:
        return Result.SAT
    if phi == FALSE:
        return Result.UNSAT
    return _cached_check(phi)[0]


def get_model(*formulas: Formula) -> Optional[Model]:
    """One-shot model extraction; None unless definitely SAT."""
    phi = simplify(mk_and(*formulas))
    if phi == FALSE:
        return None
    if phi == TRUE:
        return Model()
    res, model = _cached_check(phi)
    return model if res is Result.SAT else None
