"""Differential fuzzing: the concrete surface interpreter vs. the core
symbolic backend, over ~200 seeded random SPCF programs.

Two properties, one per program population:

* **closed programs** (no unknowns) — symbolic execution degenerates to
  a concrete run, so the verdict must agree with ``conc.interp``
  exactly: an interpreter fault means ``counterexample`` *at the same
  blame label*, a clean value means ``safe``;
* **open programs** (with ``•`` unknowns) — a ``counterexample`` must
  carry both validation flags (the concrete oracles reproduced the
  blame), and a ``safe`` verdict is spot-checked by instantiating every
  unknown with sample values and demanding the interpreter cannot be
  made to fault.

Both populations additionally serve as the **compile oracle**: every
fuzzed program is re-verified with the bytecode executor
(``compile=True``) against the step machine (``compile=False``) and the
result rows must match byte-for-byte outside the volatile fields — the
step machines are the semantics of record and the compiler must never
drift from them.  ``REPRO_FUZZ_N`` scales both populations (nightly
runs crank it up; the seed is fixed so any size is reproducible).

Any disagreement is *shrunk*: subterms are repeatedly replaced with
smaller ones while the disagreement persists, and the minimal program
is what the assertion message reports.

Generator discipline (mirrors the corpus notes in ``driver.corpus``):
all arithmetic stays nonnegative — subtraction generates as a guarded
"monus" and ``sub1`` is guarded by ``zero?`` — because Racket's
truncating ``quotient`` and the core's flooring ``div`` only agree on
nonnegative operands; ``if`` tests are always predicate results, keeping
PCF and Racket truthiness aligned.  Division *denominators* are left
free: reachable zero denominators are exactly the fault class the tool
exists to find.  In the *open* population multiplication only scales by
a constant — products of unknowns produce nonlinear queries outside the
bundled solver's fragment (the documented §5.3 boundary) — and open
programs run under a wall timeout.  At the default population size the
open population's budget for inconclusive verdicts (``timeout``,
``no-counterexample``, ``truncated`` — anything else) is zero: every
program must end in a validated counterexample or a spot-checked
``safe``.
"""

import os
import random
from dataclasses import asdict, replace

import pytest

from repro.conc.interp import Interp, InterpTimeout, PrimBlame, RuntimeFault
from repro.driver.report import STATUS_TIMEOUT, stable_row
from repro.driver.runner import RunConfig, verify_source
from repro.lang.parser import parse_program
from repro.scv.counterexample import opaque_labels

SEED = 20260726


def _env_int(var: str, default: int) -> int:
    try:
        return max(1, int(os.environ.get(var, "") or default))
    except ValueError:
        return default


#: ``REPRO_FUZZ_N`` scales the whole fuzz (a nightly knob: the default
#: is the PR-sized population, nightly runs crank it up; the seed stays
#: fixed so any population size is reproducible).
N_CLOSED = _env_int("REPRO_FUZZ_N", 140)
N_OPEN = max(10, (N_CLOSED * 3) // 7)
#: The open population's size without ``REPRO_FUZZ_N``, where its
#: budget for inconclusive verdicts is zero.
DEFAULT_N_OPEN = 60
FUEL = 200_000

CFG = RunConfig(timeout_s=0, fuel=FUEL)


def compile_divergence(source: str, cfg: RunConfig = CFG):
    """None when the bytecode executor and the step machine produce
    identical rows (volatile fields aside); otherwise a description.
    Timeout rows are skipped — which row a wall-clock budget truncates
    is scheduling, not semantics."""
    ri = verify_source(
        source, backend="core", config=replace(cfg, compile=False)
    )
    rc = verify_source(
        source, backend="core", config=replace(cfg, compile=True)
    )
    if STATUS_TIMEOUT in (ri.status, rc.status):
        return None
    si, sc = stable_row(asdict(ri)), stable_row(asdict(rc))
    if si == sc:
        return None
    keys = sorted(k for k in si if si[k] != sc[k])
    return (
        "compiled row diverges from interpreted on "
        + ", ".join(f"{k}: {si[k]!r} != {sc[k]!r}" for k in keys)
    )

# ---------------------------------------------------------------------------
# Program generator — a tiny nat-sorted tree grammar
# ---------------------------------------------------------------------------

_LEAVES = ("num", "var", "opq")
_UNARY = ("add1", "sub1z")
_BINARY = ("+", "*", "monus", "quotient", "modk")
_STRUCTURED = ("ifz", "iflt", "let", "app")


def gen(rng: random.Random, depth: int, env: tuple, allow_opq: bool):
    """A random nonnegative-integer-sorted expression tree."""
    leaves = ["num"] * 3 + (["var"] * 3 if env else []) + (
        ["opq"] * 2 if allow_opq else []
    )
    if depth <= 0:
        kind = rng.choice(leaves)
    else:
        kind = rng.choice(
            leaves + list(_UNARY) + 3 * list(_BINARY) + 2 * list(_STRUCTURED)
        )
    if kind == "num":
        return ("num", rng.randint(0, 3))
    if kind == "var":
        return ("var", rng.choice(env))
    if kind == "opq":
        return ("opq",)
    if kind in _UNARY:
        return (kind, gen(rng, depth - 1, env, allow_opq))
    if kind == "modk":
        return ("modk", gen(rng, depth - 1, env, allow_opq), rng.randint(1, 3))
    if kind == "*" and allow_opq:
        # Keep symbolic queries linear: scale by a constant.
        return ("*", ("num", rng.randint(0, 3)),
                gen(rng, depth - 1, env, allow_opq))
    if kind in _BINARY:
        return (
            kind,
            gen(rng, depth - 1, env, allow_opq),
            gen(rng, depth - 1, env, allow_opq),
        )
    if kind in ("ifz", "iflt"):
        return (
            kind,
            gen(rng, depth - 1, env, allow_opq),
            *(() if kind == "ifz" else (gen(rng, depth - 1, env, allow_opq),)),
            gen(rng, depth - 1, env, allow_opq),
            gen(rng, depth - 1, env, allow_opq),
        )
    x = f"x{len(env)}"
    bound = gen(rng, depth - 1, env, allow_opq)
    body = gen(rng, depth - 1, env + (x,), allow_opq)
    return (kind, x, bound, body)  # "let" | "app"


def render(t) -> str:
    kind = t[0]
    if kind == "num":
        return str(t[1])
    if kind == "var":
        return t[1]
    if kind == "opq":
        return "•"
    if kind == "add1":
        return f"(add1 {render(t[1])})"
    if kind == "sub1z":
        # Guarded decrement: stays nonnegative.
        return f"(let ([s {render(t[1])}]) (if (zero? s) 0 (sub1 s)))"
    if kind == "monus":
        # Guarded subtraction: stays nonnegative.
        return (
            f"(let ([a {render(t[1])}]) (let ([b {render(t[2])}])"
            f" (if (< a b) 0 (- a b))))"
        )
    if kind == "modk":
        return f"(modulo {render(t[1])} {t[2]})"
    if kind in ("+", "*", "quotient"):
        return f"({kind} {render(t[1])} {render(t[2])})"
    if kind == "ifz":
        return f"(if (zero? {render(t[1])}) {render(t[2])} {render(t[3])})"
    if kind == "iflt":
        return (
            f"(if (< {render(t[1])} {render(t[2])}) "
            f"{render(t[3])} {render(t[4])})"
        )
    if kind == "let":
        return f"(let ([{t[1]} {render(t[2])}]) {render(t[3])})"
    if kind == "app":
        return f"((lambda ({t[1]}) {render(t[3])}) {render(t[2])})"
    raise ValueError(f"unrenderable {t!r}")


def size(t) -> int:
    return 1 + sum(size(c) for c in t if isinstance(c, tuple))


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def conc_verdict(source: str):
    """Run the surface program concretely: ('error', label) | ('value',)
    | ('skip',) when the oracle itself cannot run it."""
    try:
        program = parse_program(source)
    except Exception:
        return ("skip",)
    try:
        Interp(fuel=FUEL).run_program(program)
    except PrimBlame as b:
        return ("error", b.label)
    except (RuntimeFault, InterpTimeout, RecursionError):
        return ("skip",)
    return ("value",)


def disagreement(source: str):
    """None when backends agree; otherwise a description string."""
    conc = conc_verdict(source)
    if conc[0] == "skip":
        return None
    r = verify_source(source, backend="core", config=CFG)
    if conc[0] == "error":
        if r.status != "counterexample":
            return f"conc blames {conc[1]} but core says {r.status}"
        cex = r.counterexample
        if cex.err_label != conc[1]:
            return (
                f"conc blames {conc[1]} but core blames {cex.err_label}"
            )
        if cex.validated_conc is not True or cex.validated_core is not True:
            return (
                f"core counterexample failed validation "
                f"(core={cex.validated_core}, conc={cex.validated_conc})"
            )
        return None
    if r.status != "safe":
        return f"conc produces a value but core says {r.status}: {r.detail}"
    return None


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def _subst(t, name: str, repl):
    if t[0] == "var":
        return repl if t[1] == name else t
    if t[0] in ("let", "app"):
        bound = _subst(t[2], name, repl)
        body = t[3] if t[1] == name else _subst(t[3], name, repl)
        return (t[0], t[1], bound, body)
    return tuple(
        _subst(c, name, repl) if isinstance(c, tuple) else c for c in t
    )


def candidates(t):
    """One-step-smaller variants of ``t`` (child hoisting, constant
    collapse, recursive rewriting)."""
    yield ("num", 0)
    yield ("num", 1)
    kind = t[0]
    if kind in ("add1", "sub1z", "modk"):
        yield t[1]
    elif kind in ("+", "*", "monus", "quotient"):
        yield t[1]
        yield t[2]
    elif kind == "ifz":
        yield t[2]
        yield t[3]
        yield t[1]
    elif kind == "iflt":
        yield from (t[1], t[2], t[3], t[4])
    elif kind in ("let", "app"):
        yield t[2]
        yield _subst(t[3], t[1], ("num", 0))
        yield _subst(t[3], t[1], t[2])
    for i, c in enumerate(t):
        if not isinstance(c, tuple):
            continue
        for sub in candidates(c):
            yield t[:i] + (sub,) + t[i + 1:]


def shrink(t, still_fails) -> tuple:
    improved = True
    while improved:
        improved = False
        for cand in candidates(t):
            if size(cand) < size(t) and still_fails(cand):
                t = cand
                improved = True
                break
    return t


# ---------------------------------------------------------------------------
# The tests
# ---------------------------------------------------------------------------


def _report_failure(tree, why: str, population: str):
    minimal = shrink(tree, lambda c: disagreement(render(c)) is not None)
    pytest.fail(
        f"[{population}] backends disagree on\n  {render(minimal)}\n"
        f"original ({size(tree)} nodes): {render(tree)}\n"
        f"disagreement: {disagreement(render(minimal)) or why}"
    )


def _report_compile_failure(tree, why: str, population: str, cfg: RunConfig):
    minimal = shrink(
        tree, lambda c: compile_divergence(render(c), cfg) is not None
    )
    pytest.fail(
        f"[{population}] compiled executor diverges on\n  {render(minimal)}\n"
        f"original ({size(tree)} nodes): {render(tree)}\n"
        f"divergence: {compile_divergence(render(minimal), cfg) or why}"
    )


class TestClosedPrograms:
    def test_conc_and_core_agree_on_140_random_closed_programs(self):
        rng = random.Random(SEED)
        checked = 0
        for _ in range(N_CLOSED):
            tree = gen(rng, depth=4, env=(), allow_opq=False)
            why = disagreement(render(tree))
            if why is not None:
                _report_failure(tree, why, "closed")
            why = compile_divergence(render(tree))
            if why is not None:
                _report_compile_failure(tree, why, "closed", CFG)
            checked += 1
        assert checked == N_CLOSED


class TestOpenPrograms:
    def _sample_instantiations(self, source: str):
        program = parse_program(source)
        labels = sorted(set(opaque_labels(program)))
        for v in (0, 1, 2, 7):
            exprs = {}
            for label in labels:
                exprs[label] = parse_program(str(v)).main
            program = parse_program(source)
            try:
                Interp(fuel=FUEL).run_program(program, opaque_exprs=exprs)
            except PrimBlame as b:
                return v, b.label
            except (RuntimeFault, InterpTimeout, RecursionError):
                continue
        return None

    def test_core_verdicts_hold_up_on_60_random_open_programs(self):
        rng = random.Random(SEED + 1)
        # The wall timeout keeps a solver-hard program from wedging the
        # suite; at the default size any inconclusive row fails the test
        # (a scaled-up nightly population may meet harder programs).
        cfg = RunConfig(timeout_s=5.0, fuel=FUEL)
        cexs = safes = 0
        inconclusive: list[str] = []
        for _ in range(N_OPEN):
            tree = gen(rng, depth=4, env=(), allow_opq=True)
            source = render(tree)
            r = verify_source(source, backend="core", config=cfg)
            why = compile_divergence(source, cfg)
            if why is not None:
                _report_compile_failure(tree, why, "open", cfg)
            if r.status == "counterexample":
                cexs += 1
                cex = r.counterexample
                if cex.validated_core is not True or cex.validated_conc is not True:
                    _report_failure(
                        tree,
                        f"unvalidated counterexample (core={cex.validated_core}, "
                        f"conc={cex.validated_conc})",
                        "open",
                    )
            elif r.status == "safe":
                safes += 1
                witness = self._sample_instantiations(source)
                if witness is not None:
                    v, label = witness
                    pytest.fail(
                        f"[open] core proved safe but • = {v} blames {label}"
                        f" in\n  {source}"
                    )
            else:
                inconclusive.append(f"{r.status}: {source}")
        if N_OPEN == DEFAULT_N_OPEN:
            assert not inconclusive, (
                "[open] inconclusive verdicts (budget 0):\n  "
                + "\n  ".join(inconclusive)
            )
        # The populations must both be non-trivially exercised.
        assert cexs > 5
        assert safes > 5


# ---------------------------------------------------------------------------
# Extended-family population — sort-directed strings/vectors grammar
# ---------------------------------------------------------------------------

_EXT_STRINGS = ('""', '"ab"', '"hello"')


def gen_ext(rng: random.Random, depth: int, sort: str = "int"):
    """A random *closed* expression of the requested sort over the
    registry's extended string/vector family (plus enough integer
    arithmetic to build indices).  The population's job is to pin the
    registry's concrete delegation and the symbolic rules to the same
    partial-primitive behaviour: out-of-range ``substring``/
    ``vector-ref`` indices and wrong-tag arguments are generated
    freely, because reachable preconditions are the fault class."""
    if sort == "int":
        if depth <= 0:
            return ("num", rng.randint(0, 3))
        kind = rng.choice(
            ("num", "num", "add1", "+", "strlen", "veclen", "vecref")
        )
        if kind == "num":
            return ("num", rng.randint(0, 3))
        if kind == "add1":
            return ("add1", gen_ext(rng, depth - 1, "int"))
        if kind == "+":
            return ("+", gen_ext(rng, depth - 1, "int"),
                    gen_ext(rng, depth - 1, "int"))
        if kind == "strlen":
            return ("strlen", gen_ext(rng, depth - 1, "str"))
        if kind == "veclen":
            return ("veclen", gen_ext(rng, depth - 1, "vec"))
        return ("vecref", gen_ext(rng, depth - 1, "vec"),
                gen_ext(rng, depth - 1, "int"))
    if sort == "str":
        if depth <= 0:
            return ("str", rng.choice(_EXT_STRINGS))
        kind = rng.choice(("str", "sappend", "substr"))
        if kind == "str":
            return ("str", rng.choice(_EXT_STRINGS))
        if kind == "sappend":
            return ("sappend", gen_ext(rng, depth - 1, "str"),
                    gen_ext(rng, depth - 1, "str"))
        return ("substr", gen_ext(rng, depth - 1, "str"),
                gen_ext(rng, depth - 1, "int"),
                gen_ext(rng, depth - 1, "int"))
    assert sort == "vec"
    n = rng.randint(0, 3)
    return ("vec", tuple(gen_ext(rng, depth - 1, "int") for _ in range(n)))


def render_ext(t) -> str:
    kind = t[0]
    if kind == "num":
        return str(t[1])
    if kind == "str":
        return t[1]
    if kind == "add1":
        return f"(add1 {render_ext(t[1])})"
    if kind == "+":
        return f"(+ {render_ext(t[1])} {render_ext(t[2])})"
    if kind == "strlen":
        return f"(string-length {render_ext(t[1])})"
    if kind == "veclen":
        return f"(vector-length {render_ext(t[1])})"
    if kind == "vecref":
        return f"(vector-ref {render_ext(t[1])} {render_ext(t[2])})"
    if kind == "sappend":
        return f"(string-append {render_ext(t[1])} {render_ext(t[2])})"
    if kind == "substr":
        return (
            f"(substring {render_ext(t[1])} {render_ext(t[2])}"
            f" {render_ext(t[3])})"
        )
    if kind == "vec":
        inner = " ".join(render_ext(c) for c in t[1])
        return f"(vector{' ' if inner else ''}{inner})"
    raise ValueError(f"unrenderable {t!r}")


def disagreement_ext(source: str):
    """``disagreement`` against the scv backend (the only engine with
    string/vector sorts); closed programs, so symbolic execution must
    degenerate to the concrete run."""
    conc = conc_verdict(source)
    if conc[0] == "skip":
        return None
    r = verify_source(source, backend="scv", config=CFG)
    if conc[0] == "error":
        if r.status != "counterexample":
            return f"conc blames {conc[1]} but scv says {r.status}"
        cex = r.counterexample
        if cex.err_label != conc[1]:
            return f"conc blames {conc[1]} but scv blames {cex.err_label}"
        if cex.validated_conc is not True:
            return (
                f"scv counterexample failed the surface oracle "
                f"(conc={cex.validated_conc})"
            )
        return None
    if r.status != "safe":
        return f"conc produces a value but scv says {r.status}: {r.detail}"
    return None


def compile_divergence_ext(source: str):
    """The compile oracle for the extended family: the bytecode
    executor's inline-dispatch set comes from the registry, so compiled
    rows over the new primitives must match the step machine's."""
    ri = verify_source(
        source, backend="scv", config=replace(CFG, compile=False)
    )
    rc = verify_source(
        source, backend="scv", config=replace(CFG, compile=True)
    )
    if STATUS_TIMEOUT in (ri.status, rc.status):
        return None
    si, sc = stable_row(asdict(ri)), stable_row(asdict(rc))
    if si == sc:
        return None
    keys = sorted(k for k in si if si[k] != sc[k])
    return (
        "compiled row diverges from interpreted on "
        + ", ".join(f"{k}: {si[k]!r} != {sc[k]!r}" for k in keys)
    )


N_EXT = max(10, N_CLOSED // 2)


class TestExtendedFamilyPrograms:
    def test_conc_and_scv_agree_on_random_string_vector_programs(self):
        rng = random.Random(SEED + 2)
        faults = values = 0
        for _ in range(N_EXT):
            sort = rng.choice(("int", "str"))
            source = render_ext(gen_ext(rng, depth=4, sort=sort))
            if conc_verdict(source)[0] == "error":
                faults += 1
            else:
                values += 1
            why = disagreement_ext(source)
            if why is not None:
                pytest.fail(f"[extended] backends disagree on\n  {source}\n"
                            f"disagreement: {why}")
            why = compile_divergence_ext(source)
            if why is not None:
                pytest.fail(f"[extended] compiled executor diverges on\n"
                            f"  {source}\ndivergence: {why}")
        # Both verdicts must be non-trivially exercised.
        assert faults > 5
        assert values > 5
