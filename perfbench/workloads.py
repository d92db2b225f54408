"""The benchmark's three workloads: inputs, set-up and the verdict oracle.

Every workload is a fixed list of (program, backend) verification
requests per pass, drawn from ``--seed``, sent one at a time to
``repro.driver.runner.verify_source`` by a single sequential client
(``jobs=1``, ``shards=1``).  Each returned row is checked against an
answer the verifier did not produce:

* ``corpus`` -- the corpus annotation (safe/buggy);
* ``concrete-loops`` -- a run of the program under ``repro.conc.interp``
  (safe, or a primitive fault at a given blame label);
* ``store-edit`` -- the corpus annotation, plus the store hit or miss
  each edit kind must produce.

Every workload also requires a validated counterexample for a buggy
program, a conclusive status, and agreement between the two backends on
programs that run on both.
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.conc.interp import Interp, PrimBlame
from repro.driver.backends import RunConfig
from repro.driver.corpus import BUGGY, CORPUS, SAFE
from repro.driver.report import STATUS_COUNTEREXAMPLE, STATUS_SAFE
from repro.driver.runner import expand_tasks, verify_source
from repro.lang.ast import (
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
from repro.lang.ast import reset_labels as reset_surface_labels
from repro.lang.parser import parse_program
from repro.lang.pretty import pp_program

WORKLOADS = ("corpus", "concrete-loops", "store-edit")

#: Store-edit kinds and the store outcome each must produce.
UNCHANGED = "unchanged"
RENAMED = "renamed"
APPENDED = "appended"
EDIT_KINDS = (UNCHANGED, RENAMED, APPENDED)


@dataclass(frozen=True)
class Request:
    """One verification request and the answer it must get."""

    name: str  # program name; the two backends' rows share it
    backend: str
    source: str
    kind: str  # SAFE or BUGGY, passed to the verifier as the annotation
    expect_label: Optional[str] = None  # blame label, where the oracle knows it
    edit: Optional[str] = None  # store-edit kind
    ordinal: int = 0  # the program's position in the pass


@dataclass
class Workload:
    """A workload's per-pass inputs and the configuration it runs under."""

    name: str
    seed: int
    config: RunConfig
    requests: list[Request]
    store_dir: Optional[str] = None

    def pass_requests(self, index: int) -> list[Request]:
        """The requests of pass ``index``.  Only ``store-edit`` varies
        them: its edits are renamed per pass so no pass can hit the
        entries an earlier pass wrote."""
        if self.name != "store-edit":
            return self.requests
        return [_materialise_edit(r, self.seed, index)
                for r in self.requests]

    def verify(self, r: Request):
        return verify_source(r.source, name=r.name, kind=r.kind,
                             config=self.config, backend=r.backend)

    def prepare(self, lap: Callable[[], None] = lambda: None) -> None:
        """The set-up a user pays before the first verdict: one small
        verification per backend builds the lazy primitive tables, and
        ``store-edit`` fills its store.  ``lap`` is called after each
        verification, for the caller's timing."""
        for backend in ("core", "scv"):
            verify_source(_WARMUP, name="warm-up", kind=SAFE, backend=backend)
            lap()
        if self.store_dir is None:
            return
        # The cold fill, then one edit sweep: appending a define splits
        # a one-module program into module + main units, and the module
        # unit is stored by the first sweep that makes it.  Priming it
        # here gives every timed pass the same hits and misses.
        for r in corpus_requests(self.seed) + self.pass_requests(-1):
            self.verify(r)
            lap()

    def close(self) -> None:
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)


_WARMUP = (
    "(define (my-abs x) (if (< x 0) (- 0 x) x))\n"
    "(quotient 10 (add1 (my-abs •)))"
)


def make(name: str, seed: int, work_dir: str) -> Workload:
    """Workload ``name``'s inputs for ``seed``, with their known answers.
    ``work_dir`` holds the store of ``store-edit``, which
    :meth:`Workload.close` removes."""
    if name == "corpus":
        return Workload(name, seed, RunConfig(), corpus_requests(seed))
    if name == "concrete-loops":
        return Workload(name, seed, RunConfig(), loop_requests(seed))
    if name == "store-edit":
        store_dir = os.path.join(work_dir, f"store-{os.getpid()}")
        shutil.rmtree(store_dir, ignore_errors=True)
        return Workload(name, seed, RunConfig(store_dir=store_dir),
                        edit_requests(seed), store_dir)
    raise ValueError(f"unknown workload {name!r} (have: {', '.join(WORKLOADS)})")


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def corpus_requests(seed: int) -> list[Request]:
    """Every corpus program on every backend it is annotated for, in a
    seeded program order (a program's backends stay adjacent)."""
    names = [p.name for p in CORPUS]
    random.Random(seed).shuffle(names)
    by_name = {p.name: p for p in CORPUS}
    return [
        Request(n, b, by_name[n].source, by_name[n].kind)
        for n, b in expand_tasks(names, "both")
    ]


# ---------------------------------------------------------------------------
# concrete-loops
# ---------------------------------------------------------------------------

#: Closed, opaque-free recursive programs over a concrete bound ``{n}``.
#: Each result is non-negative, so the final division is safe.
LOOP_TEMPLATES = {
    "acc": "(define (loop n acc) (if (<= n 0) acc (loop (- n 1) (+ acc {k}))))\n"
           "{pre}(quotient 100 (add1 (loop {n} 0)))",
    "fold": "(define (fold f n acc) (if (<= n 0) acc (fold f (- n 1) (f acc n))))\n"
            "{pre}(quotient 100 (add1 (fold (lambda (a i) (+ a (* {k} i))) {n} 0)))",
    "sum": "(define (sum n) (if (<= n 0) 0 (+ {k} (sum (- n 1)))))\n"
           "{pre}(quotient 100 (add1 (sum {n})))",
    "iter": "(define (iter f n x) (if (<= n 0) x (iter f (- n 1) (f x))))\n"
            "{pre}(quotient 100 (add1 (iter (lambda (v) (+ v {k})) {n} 0)))",
    "walk": "(define (walk n acc)"
            " (if (<= n 0) acc (walk (- n 1) (if (< acc 50) (+ acc {k}) (- acc {k})))))\n"
            "{pre}(quotient 100 (add1 (walk {n} 0)))",
}

#: A fault placed before the deep loop: a short loop computes exactly
#: the constant it is subtracted from, so the division is by zero.
_FAULT = (
    "(define (steps m) (if (<= m 0) 0 (+ 1 (steps (- m 1)))))\n"
    "(define pre (quotient 7 (- (steps {m}) {m})))\n"
)

#: Safe programs per family, with depths spread evenly over
#: ``LOOP_DEPTHS``, and ``LOOP_BUGGY`` faulting programs whose short
#: loops run 1 to 4 steps.  The seed draws the constants, which program
#: gets which fault and the order; every seed gets the same families,
#: depths and faults, so runs with different seeds do the same amount of
#: work.
LOOP_SAFE_PER_FAMILY = 10
LOOP_DEPTHS = (12, 64)
LOOP_BUGGY = 12


def _spread(j: int, n: int) -> int:
    lo, hi = LOOP_DEPTHS
    return lo + round(j * (hi - lo) / (n - 1))


def generate_loops(seed: int) -> list[tuple[str, str]]:
    """``(name, source)`` pairs of the concrete-loops workload."""
    rng = random.Random(seed)
    families = sorted(LOOP_TEMPLATES)
    specs = [
        (family, _spread(j, LOOP_SAFE_PER_FAMILY), "")
        for family in families
        for j in range(LOOP_SAFE_PER_FAMILY)
    ]
    steps = [1 + j % 4 for j in range(LOOP_BUGGY)]
    rng.shuffle(steps)
    specs += [
        (families[j % len(families)], _spread(j, LOOP_BUGGY),
         _FAULT.format(m=steps[j]))
        for j in range(LOOP_BUGGY)
    ]
    rng.shuffle(specs)
    return [
        (f"loop-{i:02d}-{family}-{n}",
         LOOP_TEMPLATES[family].format(n=n, k=rng.randint(1, 9), pre=pre))
        for i, (family, n, pre) in enumerate(specs)
    ]


def concrete_answer(source: str) -> tuple[str, Optional[str]]:
    """The concrete interpreter's answer: ``(SAFE, None)`` or
    ``(BUGGY, blame label)``.  Labels are minted from a fresh counter,
    as each verification does, so they name the same source sites."""
    reset_surface_labels()
    program = parse_program(source)
    try:
        Interp().run_program(program)
    except PrimBlame as blame:
        return BUGGY, blame.label
    return SAFE, None


def loop_requests(seed: int) -> list[Request]:
    out = []
    for name, src in generate_loops(seed):
        kind, label = concrete_answer(src)
        out.extend(Request(name, b, src, kind, label) for b in ("core", "scv"))
    return out


# ---------------------------------------------------------------------------
# store-edit
# ---------------------------------------------------------------------------


def edit_requests(seed: int) -> list[Request]:
    """Every corpus request once per edit kind, in a seeded order of
    (program, kind) pairs; a program's backends stay adjacent and get
    the same edit.  The edited text is made per pass by
    :func:`_materialise_edit`."""
    requests = corpus_requests(seed)
    names = list(dict.fromkeys(r.name for r in requests))
    ordinal = {n: i for i, n in enumerate(names)}
    units = [(n, kind) for n in names for kind in EDIT_KINDS]
    random.Random(seed).shuffle(units)
    by_name: dict[str, list[Request]] = {}
    for r in requests:
        by_name.setdefault(r.name, []).append(r)
    return [
        replace(r, edit=kind, ordinal=ordinal[n])
        for n, kind in units for r in by_name[n]
    ]


def _materialise_edit(r: Request, seed: int, pass_index: int) -> Request:
    tag = f"s{seed}-p{pass_index}-n{r.ordinal}"
    if r.edit == RENAMED:
        return replace(r, source=rename_program(r.source, tag))
    if r.edit == APPENDED:
        value = 1_000_000 + 1000 * pass_index + r.ordinal
        return replace(r, source=append_define(r.source, tag, value))
    return r


def append_define(source: str, tag: str, value: int) -> str:
    """``source`` with a fresh, unused top-level define appended.  Name
    and value are unique to the pass and program: digests are
    rename-invariant, so it is the value that keeps the edits of two
    passes apart."""
    return f"{source}\n(define pad-{tag} {value})\n"


def rename_program(source: str, tag: str) -> str:
    """``source`` with every locally bound variable renamed, printed back
    in the pretty-printer's layout.  Module-level names are interface
    and keep their names, exactly the split the store digest makes.
    Names the parser mints for sugar come from a fresh counter, as in
    :func:`concrete_answer`, so the text depends only on its inputs."""
    reset_surface_labels()
    program = parse_program(source)
    renamed = Program(
        tuple(_rename_module(m, tag) for m in program.modules),
        None if program.main is None else _rename(program.main, {}, tag),
    )
    return f"; renamed {tag}\n" + pp_program(renamed)


def _rename_module(m: Module, tag: str) -> Module:
    return Module(
        m.name,
        m.structs,
        tuple((n, _rename(e, {}, tag)) for n, e in m.definitions),
        tuple((n, None if c is None else _rename(c, {}, tag))
              for n, c in m.opaques),
        tuple(Provide(p.name, None if p.contract is None
                      else _rename(p.contract, {}, tag))
              for p in m.provides),
    )


def _rename(e: UExpr, env: dict[str, str], tag: str) -> UExpr:
    if isinstance(e, (Quote, UOpaque)):
        return e
    if isinstance(e, UVar):
        return UVar(env.get(e.name, e.name))
    if isinstance(e, ULam):
        inner = {**env, **{p: f"{p}-{tag}" for p in e.params}}
        return ULam(tuple(inner[p] for p in e.params),
                    _rename(e.body, inner, tag), e.name)
    if isinstance(e, ULetrec):
        inner = {**env, **{n: f"{n}-{tag}" for n, _ in e.bindings}}
        return ULetrec(
            tuple((inner[n], _rename(x, inner, tag)) for n, x in e.bindings),
            _rename(e.body, inner, tag),
        )
    if isinstance(e, UApp):
        return UApp(_rename(e.fn, env, tag),
                    tuple(_rename(a, env, tag) for a in e.args), e.label)
    if isinstance(e, UIf):
        return UIf(_rename(e.test, env, tag), _rename(e.then, env, tag),
                   _rename(e.orelse, env, tag))
    if isinstance(e, UBegin):
        return UBegin(tuple(_rename(x, env, tag) for x in e.exprs))
    if isinstance(e, USet):
        return USet(env.get(e.name, e.name), _rename(e.value, env, tag))
    raise TypeError(f"cannot rename {e!r}")


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


def check_row(r: Request, row) -> list[str]:
    """Why ``row`` is not the answer ``r`` must get (empty when it is)."""
    problems = []
    want = STATUS_COUNTEREXAMPLE if r.kind == BUGGY else STATUS_SAFE
    if row.status != want:
        problems.append(f"status {row.status}, expected {want}")
    cex = row.counterexample
    if row.status == STATUS_COUNTEREXAMPLE:
        if cex is None or cex.validated_conc is not True:
            problems.append("counterexample not validated on the surface")
        elif r.backend == "core" and cex.validated_core is not True:
            problems.append("counterexample not validated by the core re-run")
        elif r.expect_label is not None and cex.err_label != r.expect_label:
            problems.append(
                f"blames {cex.err_label}, interpreter blames {r.expect_label}"
            )
    if r.edit in (UNCHANGED, RENAMED) and (row.store_misses or not row.store_hits):
        problems.append(
            f"{r.edit} edit: {row.store_hits} hits / {row.store_misses} "
            "misses, expected replay from the store"
        )
    if r.edit == APPENDED and not row.store_misses:
        problems.append("appended edit replayed from the store, expected a miss")
    return problems


def check_agreement(requests: list[Request], rows: list) -> dict[int, str]:
    """Cross-backend agreement: index -> problem for every row of a
    program whose backends disagree on status, blame label or operation."""
    by_name: dict[str, list[int]] = {}
    for i, r in enumerate(requests):
        by_name.setdefault(r.name, []).append(i)
    out = {}
    for name, idx in by_name.items():
        if len(idx) < 2:
            continue
        views = set()
        for i in idx:
            row = rows[i]
            cex = row.counterexample
            views.add((row.status, cex and cex.err_label, cex and cex.err_op))
        if len(views) > 1:
            for i in idx:
                out[i] = f"backends disagree on {name}: {sorted(map(str, views))}"
    return out
