"""Benchmark report schema and rendering.

The batch runner emits one :class:`ProgramResult` per (program,
backend) pair and aggregates them into a :class:`BenchReport`,
serialised as ``BENCH_driver.json``.  The JSON shape is versioned
(``schema``) and kept deliberately flat and sorted so that per-PR diffs
of the benchmark file are meaningful and the perf trajectory can be
tracked across commits.

Schema ``repro-bench/v10`` (``v9`` without the scoped-solver fields):

* every program row carries a ``backend`` field (``core`` or ``scv``);
* rows and totals carry the search kernel's economy counters:
  ``pruned_states`` (frontier states dropped by fingerprint
  memoisation), ``solver_cache_hits`` (queries answered by
  the ``--store`` solver-result tier), and ``chained_steps``
  (deterministic micro-steps folded into macro states), so partial work
  stays visible even on rows whose budget expired inside a compressed
  chain;
* ``solver_fresh_solves`` — the solves the row ran (every solver
  query that no store entry answered is one from-scratch solve);
* counterexample rows carry ``client``: the closed, runnable surface
  program synthesized by ``repro.synth`` (modules with opaque imports
  instantiated plus the demonic-client call, or the instantiated main
  for top-level programs), and module findings now report a real
  ``validated_conc`` verdict instead of ``null``/skipped;
* totals gain ``validated_counterexamples`` — the count of
  counterexample rows whose surface re-run confirmed the blame — which
  the CI perf gate treats as ratchet-only (a drop fails the build);
* ``backends`` holds per-backend totals (counts, states, solver
  queries, cache hits, wall time) so the two engines' cost profiles
  diff cleanly;
* new in v6 — the persistent-store economy counters from
  :mod:`repro.store`: per row, ``store_hits``/``store_misses`` (verdict
  -store lookups for the row's verification units) and
  ``modules_reverified`` (units actually recomputed — for a multi-
  module scv program under the store, one unit per module plus one for
  the top-level expression).  All three are zero when no store is
  configured.  Totals sum them.  Store counters are *volatile* for
  differential purposes: a warm run differs from a cold run in exactly
  these fields plus timing;
* ``agreement`` records the cross-check: for every program both
  backends ran, their verdicts must not *conflict* (one proving safe
  while the other exhibits a counterexample).  Inconclusive statuses
  (timeout, truncation, no-model) neither agree nor disagree.  For
  programs where both backends exhibit counterexamples, the normalized
  counterexamples (canonical ``err_op``, canonical scalar bindings —
  see the two ``counterexample`` modules) are compared field by field
  under ``agreement.counterexamples``;
* new in v7 — totals gain ``max_wall_ms``, the slowest single program
  row, gated by ``perfgate`` alongside the totals;
* v7 addendum (the serving revision): rows carry
  ``deadline_enforced`` — False when a positive wall-clock budget could
  not be armed (no ``SIGALRM``, or the caller was not the main thread),
  instead of the budget being silently dropped.  Volatile: it describes
  the execution environment, not the program;
* new in v8 — the bytecode-compilation counters from
  :mod:`repro.compile`: per row, ``compiled_units`` (instruction
  streams lowered for the program — the module/main unit plus one per
  lambda), ``compile_ms`` (lowering time) and ``dispatch_steps``
  (micro-steps executed by the fused dispatch loop).  All three are
  zero on ``--no-compile`` runs, and hence *volatile* for differential
  purposes: compiled and interpreted rows must be byte-identical
  outside the volatile set — that identity is the compile oracle.  A
  unit replayed from the store compiled nothing, so it reports zero
  ``compiled_units`` and ``compile_ms`` but keeps its ``dispatch_steps``
  (a work counter, like ``states_explored``).  Totals sum all three,
  and ``dispatch_steps`` joins the perf-gate ratchets (skipped cleanly
  on pre-v8 or interpreted baselines where the total is missing or
  zero);
* v9 — v8 minus the four sharded-search row fields and their totals,
  and minus the sharding and compile-cache keys of the config block;
* v10 — v9 minus the scoped-solver counters ``solver_incremental``,
  ``solver_clauses_reused`` and ``solver_scope_depth`` (every proof
  query is now one one-shot solve) and minus the ``incremental`` config
  key, plus ``solver_unknown``: the one-shot queries the solver left
  undecided (UNKNOWN — turned into AMBIG by the proof relation, so
  counted rather than passed silently).  Rows and totals carry it; it
  is 0 on every corpus row.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

SCHEMA = "repro-bench/v10"

# Terminal statuses a verification attempt can end in.
STATUS_SAFE = "safe"  # search exhausted, no (modelable) error
STATUS_COUNTEREXAMPLE = "counterexample"  # confirmed concrete input found
STATUS_NO_MODEL = "no-counterexample"  # errors seen, none modelable/validated
STATUS_TRUNCATED = "truncated"  # state budget hit before an answer
STATUS_TIMEOUT = "timeout"  # wall-clock budget hit
STATUS_UNSUPPORTED = "unsupported"  # outside the backend's subset
STATUS_ERROR = "error"  # driver-level failure (bug!)

#: Statuses that constitute a definite verdict for cross-checking.
_CONCLUSIVE = (STATUS_SAFE, STATUS_COUNTEREXAMPLE)

#: Row fields that legitimately differ between otherwise-identical runs
#: (timing, and the solver counters a store or --no-memo moves).  The
#: single source of truth for every differential comparison — the
#: equivalence tests and the CI leg both read it.
VOLATILE_ROW_FIELDS = frozenset({
    "wall_ms",
    "solver_cache_hits",
    "solver_fresh_solves",
    "solver_unknown",
    # The persistent-store economy (repro.store): warm and cold runs
    # must agree on everything *except* how much came from the store.
    "store_hits",
    "store_misses",
    "modules_reverified",
    # Whether the per-program wall-clock budget could actually be armed
    # (SIGALRM, main thread only — see driver.backends._deadline).  An
    # execution-environment fact, not a property of the program: a
    # threaded caller's row must still compare equal to a process row.
    "deadline_enforced",
    # The bytecode-compilation counters (repro.compile): a compiled run
    # must agree with the interpreted run on everything *except* that it
    # compiled — these three are zero with --no-compile.
    "compiled_units",
    "compile_ms",
    "dispatch_steps",
})


@dataclass
class CexReport:
    """A confirmed (or attempted) counterexample, rendered for humans.

    ``bindings`` and ``err_op`` are in the *canonical* cross-backend
    normal form (scalars bare, operations under their surface names —
    see ``core.counterexample``/``scv.counterexample``), so reports from
    the two backends compare field by field; ``err_detail`` keeps the
    backend's original colourful description.

    Validation flags are three-valued: True/False record a re-run's
    outcome, None records that the oracle was skipped (rare since the
    demonic-context synthesis of ``repro.synth``: only module programs
    whose client cannot be reconstructed at all).

    ``client`` is the executable artifact: a closed surface program —
    modules with their opaque imports instantiated, plus the
    synthesized client call (or the instantiated main, for top-level
    programs) — that reproduces the blame under ``conc.interp``."""

    bindings: dict[str, str]  # opaque label -> canonical value
    err_label: str
    err_op: str  # canonical operation / description
    validated_core: Optional[bool]  # re-run under the symbolic backend's oracle
    validated_conc: Optional[bool]  # re-run under conc.interp (None: skipped)
    err_detail: str = ""  # backend-specific original rendering
    client: Optional[str] = None  # closed runnable surface program


@dataclass
class ProgramResult:
    name: str
    kind: str  # expected verdict: "safe" | "buggy" (or "?" for ad-hoc files)
    status: str
    wall_ms: float
    backend: str = "core"
    states_explored: int = 0
    proof_queries: int = 0
    solver_queries: int = 0
    pruned_states: int = 0  # dropped by fingerprint memoisation
    solver_cache_hits: int = 0  # queries answered by the --store solver tier
    chained_steps: int = 0  # micro-steps folded into macro states
    solver_fresh_solves: int = 0  # from-scratch solves
    solver_unknown: int = 0  # one-shot queries left UNKNOWN
    errors_found: int = 0
    cex_attempts: int = 0
    store_hits: int = 0  # verification units replayed from the store
    store_misses: int = 0  # units the store did not hold
    modules_reverified: int = 0  # units actually recomputed this run
    deadline_enforced: bool = True  # was the wall-clock budget actually armed
    compiled_units: int = 0  # instruction streams lowered (0: interpreted)
    compile_ms: float = 0.0  # lowering time
    dispatch_steps: int = 0  # micro-steps run by the fused dispatch loop
    counterexample: Optional[CexReport] = None
    detail: str = ""
    # Not a field (never serialised): the benchmark's tracer still reads
    # it as its ``smt.incremental_checks`` metric.
    solver_incremental = 0

    @property
    def as_expected(self) -> Optional[bool]:
        """Did the verdict match the corpus annotation?"""
        if self.kind == "safe":
            return self.status == STATUS_SAFE
        if self.kind == "buggy":
            return (
                self.status == STATUS_COUNTEREXAMPLE
                and self.counterexample is not None
                and self.counterexample.validated_core is not False
                and self.counterexample.validated_conc is not False
            )
        return None


def result_from_row(row: dict) -> ProgramResult:
    """The inverse of ``asdict``: rebuild a :class:`ProgramResult` from
    one JSON row (a report's ``programs`` entry, a stored verdict's
    ``result``, or a serve job's row)."""
    d = dict(row)
    cex = d.get("counterexample")
    if cex is not None:
        d["counterexample"] = CexReport(**cex)
    return ProgramResult(**d)


def _totals(results: list[ProgramResult]) -> dict:
    expected = [r.as_expected for r in results]
    return {
        "programs": len(results),
        "as_expected": sum(1 for e in expected if e),
        "unexpected": sum(1 for e in expected if e is False),
        "safe": sum(1 for r in results if r.status == STATUS_SAFE),
        "counterexamples": sum(
            1 for r in results if r.status == STATUS_COUNTEREXAMPLE
        ),
        "validated_counterexamples": sum(
            1
            for r in results
            if r.status == STATUS_COUNTEREXAMPLE
            and r.counterexample is not None
            and r.counterexample.validated_conc is True
        ),
        "timeouts": sum(1 for r in results if r.status == STATUS_TIMEOUT),
        "states_explored": sum(r.states_explored for r in results),
        "chained_steps": sum(r.chained_steps for r in results),
        "pruned_states": sum(r.pruned_states for r in results),
        "solver_queries": sum(r.solver_queries for r in results),
        "solver_cache_hits": sum(r.solver_cache_hits for r in results),
        "solver_fresh_solves": sum(r.solver_fresh_solves for r in results),
        "solver_unknown": sum(r.solver_unknown for r in results),
        "store_hits": sum(r.store_hits for r in results),
        "store_misses": sum(r.store_misses for r in results),
        "modules_reverified": sum(r.modules_reverified for r in results),
        "compiled_units": sum(r.compiled_units for r in results),
        "compile_ms": round(sum(r.compile_ms for r in results), 1),
        "dispatch_steps": sum(r.dispatch_steps for r in results),
        "wall_ms": round(sum(r.wall_ms for r in results), 1),
        # The slowest single program row: a regression in the tail can
        # hide inside a flat sum.
        "max_wall_ms": round(max((r.wall_ms for r in results), default=0.0), 1),
    }


def _is_scalar_rendering(v: str) -> bool:
    """Function values render as ``(fun …)``/``(λ …)`` and are engine-
    specific shapes; only scalar renderings are comparable verbatim."""
    return bool(v) and not v.startswith("(")


def _compare_counterexamples(shared: dict) -> dict:
    """Field-by-field comparison of normalized counterexamples on
    programs where *both* backends exhibit one.

    Both backends normalize to the same form (canonical ``err_op``,
    scalar bindings rendered bare), and blame labels are deterministic
    per source (counters reset per run), so label and op must match
    outright.  Bindings are compared on the labels both models bound to
    scalars — two engines may legitimately pick *different* witnesses
    for the same fault, so binding differences are reported for
    inspection but do not count as mismatches.
    """
    compared = 0
    matched = 0
    mismatches = []
    binding_diffs = []
    for n, rows in sorted(shared.items()):
        cexes = {
            b: r.counterexample
            for b, r in rows.items()
            if r.status == STATUS_COUNTEREXAMPLE and r.counterexample is not None
        }
        if len(cexes) < 2:
            continue
        compared += 1
        (b1, c1), (b2, c2) = sorted(cexes.items())[:2]
        ok = True
        for fld in ("err_label", "err_op"):
            v1, v2 = getattr(c1, fld), getattr(c2, fld)
            if v1 != v2:
                ok = False
                mismatches.append(
                    {"name": n, "field": fld, b1: v1, b2: v2}
                )
        for label in sorted(set(c1.bindings) & set(c2.bindings)):
            v1, v2 = c1.bindings[label], c2.bindings[label]
            if (
                v1 != v2
                and _is_scalar_rendering(v1)
                and _is_scalar_rendering(v2)
            ):
                binding_diffs.append(
                    {"name": n, "label": label, b1: v1, b2: v2}
                )
        if ok:
            matched += 1
    return {
        "compared": compared,
        "matched": matched,
        "mismatches": mismatches,
        "binding_differences": binding_diffs,
    }


@dataclass
class BenchReport:
    config: dict
    results: list[ProgramResult] = field(default_factory=list)

    def totals(self) -> dict:
        return _totals(self.results)

    def backend_names(self) -> list[str]:
        return sorted({r.backend for r in self.results})

    def backend_totals(self) -> dict[str, dict]:
        return {
            b: _totals([r for r in self.results if r.backend == b])
            for b in self.backend_names()
        }

    def agreement(self) -> dict:
        """Cross-check verdicts between backends on shared programs, and
        compare normalized counterexamples where both backends found
        one."""
        by_name: dict[str, dict[str, ProgramResult]] = {}
        for r in self.results:
            by_name.setdefault(r.name, {})[r.backend] = r
        shared = {n: v for n, v in by_name.items() if len(v) > 1}
        disagreements = []
        agreed = 0
        inconclusive = 0
        for n, rows in sorted(shared.items()):
            verdicts = {b: r.status for b, r in rows.items()}
            conclusive = {s for s in verdicts.values() if s in _CONCLUSIVE}
            if len(conclusive) > 1:
                disagreements.append({"name": n, "verdicts": verdicts})
            elif any(s not in _CONCLUSIVE for s in verdicts.values()):
                inconclusive += 1
            else:
                agreed += 1
        return {
            "shared_programs": len(shared),
            "agreed": agreed,
            "inconclusive": inconclusive,
            "disagreements": disagreements,
            "counterexamples": _compare_counterexamples(shared),
        }

    @property
    def all_as_expected(self) -> bool:
        return all(r.as_expected is not False for r in self.results)

    @property
    def backends_agree(self) -> bool:
        return not self.agreement()["disagreements"]

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "config": self.config,
            "totals": self.totals(),
            "backends": self.backend_totals(),
            "agreement": self.agreement(),
            "programs": [
                asdict(r)
                for r in sorted(self.results, key=lambda r: (r.name, r.backend))
            ],
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# Human-readable rendering
# ---------------------------------------------------------------------------

_STATUS_MARK = {
    STATUS_SAFE: "✓",
    STATUS_COUNTEREXAMPLE: "✗",
    STATUS_NO_MODEL: "?",
    STATUS_TRUNCATED: "…",
    STATUS_TIMEOUT: "⏱",
    STATUS_UNSUPPORTED: "-",
    STATUS_ERROR: "!",
}

_VALIDATION_WORD = {True: "ok", False: "FAILED", None: "skipped"}


def render_result(
    r: ProgramResult, *, verbose: bool = False, show_client: bool = True
) -> str:
    mark = _STATUS_MARK.get(r.status, "?")
    flag = ""
    if r.as_expected is False:
        flag = "  << UNEXPECTED"
    line = (
        f"{mark} {r.name:28s} {r.backend:4s} {r.status:16s} "
        f"{r.states_explored:6d} states {r.solver_queries:4d} solver "
        f"{r.solver_cache_hits:3d} cached {r.wall_ms:8.1f} ms{flag}"
    )
    if r.counterexample is not None and (verbose or r.as_expected is False):
        cex = r.counterexample
        parts = [f"    • [{k}] = {v}" for k, v in sorted(cex.bindings.items())]
        parts.append(
            f"    breaks with {cex.err_op} at {cex.err_label} "
            f"(core: {_VALIDATION_WORD[cex.validated_core]}, "
            f"surface: {_VALIDATION_WORD[cex.validated_conc]})"
        )
        if verbose and show_client and cex.client:
            parts.append("    client program:")
            parts.extend(f"      {ln}" for ln in cex.client.rstrip().splitlines())
        line += "\n" + "\n".join(parts)
    if r.detail and (verbose or r.status in (STATUS_ERROR, STATUS_UNSUPPORTED)):
        line += f"\n    {r.detail}"
    return line


def render_report(report: BenchReport, *, verbose: bool = False) -> str:
    lines = [
        render_result(r, verbose=verbose)
        for r in sorted(report.results, key=lambda r: (r.name, r.backend))
    ]
    t = report.totals()
    lines.append(
        f"-- {t['programs']} runs: {t['safe']} safe, "
        f"{t['counterexamples']} counterexamples "
        f"({t['validated_counterexamples']} surface-validated), "
        f"{t['timeouts']} timeouts; "
        f"{t['unexpected']} unexpected verdicts; "
        f"{t['states_explored']} states ({t['pruned_states']} pruned), "
        f"{t['solver_queries']} solver calls "
        f"({t['solver_cache_hits']} cache hits, "
        f"{t['solver_fresh_solves']} solves), "
        f"{t['wall_ms']:.0f} ms total"
    )
    if t["store_hits"] or t["store_misses"]:
        lines.append(
            f"-- store: {t['store_hits']} unit hits, "
            f"{t['store_misses']} misses "
            f"({t['modules_reverified']} units re-verified)"
        )
    agreement = report.agreement()
    if agreement["shared_programs"]:
        dis = agreement["disagreements"]
        lines.append(
            f"-- cross-check: {agreement['agreed']}/{agreement['shared_programs']} "
            f"shared programs agree, {agreement['inconclusive']} inconclusive, "
            f"{len(dis)} disagreements"
            + ("" if not dis else ": " + ", ".join(d["name"] for d in dis))
        )
        cex = agreement["counterexamples"]
        if cex["compared"]:
            mism = cex["mismatches"]
            lines.append(
                f"-- counterexamples: {cex['matched']}/{cex['compared']} "
                f"shared findings at identical sites, "
                f"{len(cex['binding_differences'])} witness differences"
                + ("" if not mism
                   else "; MISMATCHES: "
                   + ", ".join(f"{m['name']}.{m['field']}" for m in mism))
            )
    return "\n".join(lines)
