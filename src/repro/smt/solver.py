"""The solver facade: a lazy DPLL(T) loop over the CDCL core and the LIA
conjunction solver.

This module is the reproduction's stand-in for Z3.  The public surface
mimics the slice of the z3py API the paper's tool needs:

* :class:`Solver` with ``add``, ``push``/``pop``, ``check`` and ``model``
  — *really* incremental since schema v5: scopes are selector-guarded
  assertion levels over one persistent CDCL core, ``check(*extra)``
  treats the extras as transient assumptions, learned lemmas survive
  ``pop`` (see the class docstring), and ``SOLVE_STATS`` meters the
  reuse economy;
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
    """Persistent term-level preprocessing state: rewrites formulas free
    of Div/Mod.

    Incremental use adds a *journal*: every fresh quotient/remainder pair
    records its creation, and ``undo_to`` retires pairs created after a
    mark.  This is the scope discipline that keeps popped auxiliary
    variables from leaking into later scopes: a Div/Mod term
    re-encountered after its scope was popped gets *fresh* auxiliaries
    with freshly re-emitted axioms, instead of silently reusing a
    variable whose defining clauses are retired.
    """

    def __init__(self) -> None:
        self.defs: list[Formula] = []
        self.div_cache: dict[Term, Var] = {}
        self.journal: list[tuple[Div, Mod]] = []
        self._fresh = itertools.count()

    def fresh(self, prefix: str) -> Var:
        return Var(f".{prefix}{next(self._fresh)}")

    # -- scope discipline --------------------------------------------------

    def mark(self) -> int:
        return len(self.journal)

    def undo_to(self, mark: int) -> None:
        """Retire every cache entry created after ``mark`` (LIFO)."""
        while len(self.journal) > mark:
            div_key, mod_key = self.journal.pop()
            self.div_cache.pop(div_key, None)
            self.div_cache.pop(mod_key, None)

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
            self.journal.append((key_div, key_mod))
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
    """Process-wide incremental-solving economy counters.

    ``fresh_solves`` counts the *first* check of each :class:`Solver`
    instance — a from-scratch context build (one-shot queries,
    path-context rebuilds).  Every later check on the same instance is an
    ``incremental_queries`` tick: it reuses the asserted scopes, the
    preprocessor caches, the atom map and every retained lemma.
    ``clauses_reused`` sums, over incremental checks, the lemma and
    CDCL-learned clauses already present when the check started.  Like
    the solver tier's hit counters, these are monotone; ``begin_window``
    / ``window`` meter one verification (verifications never interleave
    within a worker process).
    """

    fresh_solves: int = 0
    incremental_queries: int = 0
    clauses_reused: int = 0
    scope_pushes: int = 0
    scope_pops: int = 0
    context_rebuilds: int = 0  # path contexts discarded and rebuilt
    path_switches: int = 0  # search-kernel notifications (see search.kernel)
    window_max_depth: int = 0  # deepest scope stack since begin_window

    def begin_window(self) -> tuple[int, int, int]:
        self.window_max_depth = 0
        return (self.fresh_solves, self.incremental_queries, self.clauses_reused)

    def window(self, snap: tuple[int, int, int]) -> dict:
        return {
            "solver_fresh_solves": self.fresh_solves - snap[0],
            "solver_incremental": self.incremental_queries - snap[1],
            "solver_clauses_reused": self.clauses_reused - snap[2],
            "solver_scope_depth": self.window_max_depth,
        }


#: The process-wide incremental-solving counters (reported per bench row).
SOLVE_STATS = SolveStats()


@dataclass
class _Scope:
    """One assertion level: its activation selector (None for the base
    level), the formulas asserted into it, and what they mention."""

    selector: Optional[int]
    pre_mark: int = 0
    formulas: list[Formula] = field(default_factory=list)
    free_vars: set[Var] = field(default_factory=set)
    theory_vars: set[int] = field(default_factory=set)


class Solver:
    """Incremental first-order solver with a z3py-like surface.

    Example::

        s = Solver()
        x, y = mk_var("x"), mk_var("y")
        s.add(mk_eq(mk_add(x, y), 10), mk_lt(x, y))
        assert s.check() is Result.SAT
        m = s.model()
        assert m[x] + m[y] == 10 and m[x] < m[y]

    Incrementality is real, not replay: the CDCL core, the atom map and
    the preprocessing caches persist across ``check`` calls.  Each
    ``push`` opens a scope guarded by a fresh *selector* literal; the
    scope's clauses carry ``¬selector`` and a check assumes every live
    selector (plus a per-check selector for ``extra`` formulas, which is
    how the paired ``φ ⊢ ψ`` / ``φ ⊢ ¬ψ`` proof queries share one
    context).  ``pop`` retires the selector with a permanent unit clause
    instead of deleting clauses, so CDCL lemmas over surviving atoms are
    kept — a learned clause that depended on the popped scope contains
    its negated selector and is satisfied, hence harmless.  Theory
    lemmas (LIA explanations) are unconditionally valid and persist
    unguarded.  Preprocessing state is journaled per scope (see
    :class:`_Preprocessed`): popped quotient/remainder auxiliaries are
    retired so they cannot leak constraints into later scopes.
    """

    def __init__(
        self,
        *,
        max_theory_rounds: int = 4000,
        lia: Optional[LiaSolver] = None,
    ) -> None:
        self._scopes: list[_Scope] = [_Scope(selector=None)]
        self._model: Optional[Model] = None
        self._max_rounds = max_theory_rounds
        self._lia = lia or LiaSolver()
        self._atoms = AtomMap()
        self._sat = SatSolver()
        self._pre = _Preprocessed()
        self._defs_done = 0  # prefix of _pre.defs already asserted
        self._constraint_memo: dict[tuple[Formula, bool], Constraint] = {}
        self._lemmas = 0  # permanent theory lemmas added so far
        self._checks = 0
        #: Retired selectors (pops + per-check assumption selectors): the
        #: dead weight a long-lived context accumulates; path contexts
        #: rebuild when it crosses their threshold.
        self.retired = 0

    # -- assertion management ----------------------------------------------

    def add(self, *formulas: Formula) -> None:
        self._model = None
        scope = self._scopes[-1]
        self._sat.reset_trail()
        for f in formulas:
            scope.formulas.append(f)
            self._assert_formula(f, scope)

    def push(self) -> None:
        sel = self._atoms.fresh_var()
        self._sat.ensure_vars(sel)
        self._scopes.append(_Scope(selector=sel, pre_mark=self._pre.mark()))
        SOLVE_STATS.scope_pushes += 1
        depth = len(self._scopes) - 1
        if depth > SOLVE_STATS.window_max_depth:
            SOLVE_STATS.window_max_depth = depth

    def pop(self) -> None:
        if len(self._scopes) == 1:
            raise SolverError("pop without matching push")
        scope = self._scopes.pop()
        self._model = None
        self._sat.reset_trail()
        self._sat.add_clause([-scope.selector])  # retire the scope for good
        self._pre.undo_to(scope.pre_mark)
        self.retired += 1
        SOLVE_STATS.scope_pops += 1

    def assertions(self) -> list[Formula]:
        return [f for scope in self._scopes for f in scope.formulas]

    def scope_depth(self) -> int:
        return len(self._scopes) - 1

    # -- assertion translation ---------------------------------------------

    def _assert_formula(self, f: Formula, scope: _Scope) -> None:
        """Simplify, preprocess, CNF and load one formula into the CDCL
        core, guarded by the scope's selector."""
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
            scope.free_vars |= free_vars(nnf)
            clauses = to_cnf(nnf, self._atoms)
            self._collect_theory_vars(nnf, scope.theory_vars)
            self._sat.ensure_vars(self._atoms.num_vars)
            for cl in clauses:
                if scope.selector is not None:
                    cl = cl + [-scope.selector]
                self._sat.add_clause(cl)

    def _collect_theory_vars(self, nnf: Formula, out: set[int]) -> None:
        if isinstance(nnf, (Eq, Le, Lt)):
            out.add(self._atoms.var_for(nnf))
        elif isinstance(nnf, Not):
            self._collect_theory_vars(nnf.arg, out)
        else:
            from .terms import And, Or

            if isinstance(nnf, (And, Or)):
                for a in nnf.args:
                    self._collect_theory_vars(a, out)

    def _constraint(self, atom: Formula, positive: bool) -> Constraint:
        """Atom-to-LIA translation, memoized per solver: across checks
        only the *delta* — atoms never seen before — is re-normalized."""
        key = (atom, positive)
        c = self._constraint_memo.get(key)
        if c is None:
            c = _atom_constraints(atom, positive)
            self._constraint_memo[key] = c
        return c

    # -- solving -----------------------------------------------------------

    def check(self, *extra: Formula) -> Result:
        """Decide the conjunction of all assertions (plus ``extra``).

        ``extra`` formulas are transient assumptions: they are asserted
        under a per-check selector that is retired afterwards, so the
        persistent context is untouched and a paired follow-up check
        (e.g. with the negated formula) reuses everything."""
        self._model = None
        if self._checks == 0:
            SOLVE_STATS.fresh_solves += 1
        else:
            SOLVE_STATS.incremental_queries += 1
            SOLVE_STATS.clauses_reused += self._lemmas + self._sat.learned_count
            # Warm check: keep the clauses, drop the heuristic state (see
            # SatSolver.reset_heuristics for why).
            self._sat.reset_heuristics()
        self._checks += 1
        depth = len(self._scopes) - 1
        if depth > SOLVE_STATS.window_max_depth:
            SOLVE_STATS.window_max_depth = depth

        assumptions = [s.selector for s in self._scopes[1:]]
        temp = _Scope(selector=None, pre_mark=self._pre.mark())
        if extra:
            temp.selector = self._atoms.fresh_var()
            self._sat.ensure_vars(temp.selector)
            self._sat.reset_trail()
            for f in extra:
                self._assert_formula(f, temp)
            assumptions.append(temp.selector)
        guards: list[int] = []
        try:
            return self._run(assumptions, temp, guards)
        finally:
            self._sat.reset_trail()
            for sel in ([temp.selector] if temp.selector is not None else []) + guards:
                self._sat.add_clause([-sel])
                self.retired += 1
            self._pre.undo_to(temp.pre_mark)

    def _run(
        self, assumptions: list[int], temp: _Scope, guards: list[int]
    ) -> Result:
        """The DPLL(T) loop over the persistent CDCL core.

        An UNSAT theory answer blocks the literals in its explanation
        (``LiaResult.core``) as a permanent lemma; an UNKNOWN one (not a
        valid lemma — the conjunction may be SAT) blocks every literal,
        guarded by a per-check selector collected in ``guards`` and
        retired by the caller."""
        active_theory: set[int] = set(temp.theory_vars)
        for s in self._scopes:
            active_theory |= s.theory_vars
        unknown_seen = False
        for _ in range(self._max_rounds):
            verdict = self._sat.solve(assumptions)
            if verdict is None:
                return Result.UNKNOWN
            if verdict is False:
                return Result.UNKNOWN if unknown_seen else Result.UNSAT
            assignment = self._sat.model_assignment()
            lits = [
                (a, pol)
                for a, pol in self._atoms.theory_lits(assignment)
                if self._atoms.atom_to_var[a] in active_theory
            ]
            constraints = [self._constraint(a, pol) for a, pol in lits]
            res = self._lia.solve(constraints)
            if res.status is Result.SAT:
                assert res.model is not None
                self._model = self._build_model(res.model, temp)
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
            if res.status is Result.UNKNOWN:
                # Not a valid lemma: guard it so it dies with this check.
                if not guards:
                    g = self._atoms.fresh_var()
                    self._sat.ensure_vars(g)
                    guards.append(g)
                    assumptions = assumptions + [g]
                blocking = blocking + [-guards[0]]
            else:
                self._lemmas += 1
            if not self._sat.block_and_continue(blocking):
                return Result.UNKNOWN if unknown_seen else Result.UNSAT
        return Result.UNKNOWN

    def _build_model(self, env: dict, temp: _Scope) -> Model:
        full_env: dict[Var, int] = {}
        for scope in self._scopes:
            for v in scope.free_vars:
                full_env[v] = env.get(v, 0)
        for v in temp.free_vars:
            full_env[v] = env.get(v, 0)
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


def _cached_check(
    phi: Formula, *, need_model: bool = False
) -> tuple[Result, Optional[Model]]:
    """Decide ``phi`` by solving its canonical form, through the
    solver-result tier.

    The *canonical* formula is what gets solved, so the verdict and the
    model are functions of the query's structure alone — however its
    locations happened to be numbered, and whether or not a stored
    entry answered.  Entries written by the incremental path are
    *result-only* (see ``smt.cache``); when a model is needed for one,
    the canonical formula is solved here and the entry upgraded, so
    model choice stays a deterministic function of the canonical formula
    no matter which path populated the tier first.
    """
    canon, orig_vars = canonicalize(phi)
    entry = GLOBAL_CACHE.get(canon, need_model=need_model)
    if entry is None:
        s = Solver()
        s.add(canon)
        res = s.check()
        stored = _encode_model(s.model()) if res is Result.SAT else None
        GLOBAL_CACHE.put(canon, res, stored)
    else:
        res, stored, _ = entry
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
    res, model = _cached_check(phi, need_model=True)
    return model if res is Result.SAT else None
