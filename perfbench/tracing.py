"""Outside-in layer tracing: spans recorded around each layer's entry points.

The benchmark adds no code to the verifier.  For the traced run,
:class:`Tracer` replaces the public entry points of each layer (named in
:data:`LAYERS`) with wrappers that record a span -- layer, start, end,
parent span, verdict id -- and restores the original attributes when the
run ends.  A function imported by name is patched in every module that
binds it, not only where it is defined, and every ``repro`` module is
imported first, so a later lazy import cannot bind a wrapper that the
restore would miss.

Spans live in flat arrays in memory and are written out once, at the
end.  A layer's self time is its spans' duration minus the time their
direct child spans cover (children nest strictly, since the verifier
runs on one thread).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from typing import Callable, Optional

#: Layer -> entry points, as ``(module, "function")`` or
#: ``(module, "Class.method")``.  Layers are named after modules.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "lang.parse": (("repro.lang.parser", "parse_program"),),
    "driver.lower": (
        ("repro.driver.lower", "lower_program"),
        ("repro.core.typecheck", "check_program"),
    ),
    "compile.lower": (
        ("repro.compile.lower", "lower_scv"),
        ("repro.compile.lower", "lower_core"),
        ("repro.compile.lower", "lower_scv_unit"),
        ("repro.compile.lower", "lower_core_unit"),
    ),
    "search": (("repro.search.kernel", "SearchKernel.run"),),
    "search.fingerprint": (
        ("repro.search.fingerprint", "CoreFingerprinter.__call__"),
        ("repro.search.fingerprint", "ScvFingerprinter.__call__"),
    ),
    "proof": (
        ("repro.core.proof", "ProofSystem.check"),
        ("repro.scv.proof", "UProofSystem.check"),
    ),
    "proof.translate": (
        ("repro.core.translate", "translate_heap_parts"),
        ("repro.scv.proof", "translate_uheap_parts"),
    ),
    "smt.check": (
        ("repro.smt.solver", "Solver.check"),
        ("repro.smt.incremental", "PathContext.check"),
    ),
    "smt.lia": (("repro.smt.lia", "LiaSolver.solve"),),
    "smt.sat": (("repro.smt.sat", "SatSolver.solve"),),
    "cex.construct": (
        ("repro.core.counterexample", "construct"),
        ("repro.scv.counterexample", "construct_u"),
    ),
    "conc.validate": (("repro.conc.interp", "Interp.run_program"),),
    "synth.client": (
        ("repro.synth.client", "closed_program_text"),
        ("repro.synth.client", "synthesize_client"),
    ),
    "store.digest": (
        ("repro.store.fingerprint", "program_digest"),
        ("repro.store.fingerprint", "module_slices"),
    ),
    "store.lookup": (("repro.store.verdicts", "VerdictStore.lookup"),),
    "store.write": (("repro.store.verdicts", "VerdictStore.put"),),
}

#: The harness's own span around one ``verify_source`` call.
VERDICT = "verdict"

#: Marks every wrapper, so a test can prove none is left behind.
WRAPPED_MARK = "__perfbench_wrapped__"


def import_all_repro_modules() -> None:
    """Import every ``repro`` module, so each name binding exists before
    patching (command-line entry modules excepted)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def repro_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))]


class Tracer:
    """Span recorder plus the patching that feeds it."""

    def __init__(self) -> None:
        self.layers: list[str] = [VERDICT, *LAYERS]
        self._ids = {name: i for i, name in enumerate(self.layers)}
        self.layer = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.verdict = array("l")
        self._stack: list[int] = []
        self.verdict_id = -1
        #: Outcome counters for hooks that record no span.
        self.counts: dict[str, int] = {}
        #: Rows the engines computed (a store replay computes none).
        self.engine_rows: list = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def open(self, layer_id: int) -> int:
        idx = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.verdict.append(self.verdict_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def bump(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def snapshot(self) -> tuple[int, dict[str, int], int]:
        """Where a pass starts: span index, counters, engine rows."""
        return len(self.start), dict(self.counts), len(self.engine_rows)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        layer_id = self._ids[layer]
        open_, close = self.open, self.close
        if inspect.isgeneratorfunction(fn):
            # One span per resumption: the time a consumer holds the
            # generator suspended belongs to the consumer.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        idx = open_(layer_id)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            close(idx)
                        yield item
                finally:
                    gen.close()

            setattr(gen_wrapper, WRAPPED_MARK, True)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(layer_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def _count_cache_gets(self, fn: Callable) -> Callable:
        bump = self.bump

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = fn(*args, **kwargs)
            bump("smt.cache_misses" if entry is None else "smt.cache_hits")
            return entry

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def _collect_rows(self, fn: Callable) -> Callable:
        rows = self.engine_rows

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = fn(*args, **kwargs)
            rows.append(row)
            return row

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Patch every entry point in :data:`LAYERS`, plus the solver
        cache lookup (counted, not timed)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import_all_repro_modules()
        modules = repro_modules()
        for layer, targets in LAYERS.items():
            for mod_name, qual in targets:
                mod = importlib.import_module(mod_name)
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    self._patch(cls, meth, self._wrap(vars(cls)[meth], layer))
                    continue
                fn = getattr(mod, qual)
                wrapper = self._wrap(fn, layer)
                for m in modules:  # every module that bound it by name
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, name, wrapper)
        from repro.driver.backends import TypedCoreBackend, UntypedScvBackend
        from repro.smt.cache import SolverCache

        self._patch(SolverCache, "get",
                    self._count_cache_gets(vars(SolverCache)["get"]))
        for cls in (TypedCoreBackend, UntypedScvBackend):
            self._patch(cls, "verify", self._collect_rows(vars(cls)["verify"]))

    def uninstall(self) -> None:
        """Restore every patched attribute, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    def check_calls_in(self, verdicts: set[int], lo: int, hi: int) -> int:
        """``smt.check`` spans over ``[lo, hi)`` inside the given verdicts."""
        lid = self._ids["smt.check"]
        return sum(1 for i in range(lo, hi)
                   if self.layer[i] == lid and self.verdict[i] in verdicts)

    # -- analysis --------------------------------------------------------

    def self_times(self, lo: int = 0, hi: Optional[int] = None) -> dict[str, float]:
        """Seconds of self time per layer over spans ``[lo, hi)``."""
        hi = len(self.start) if hi is None else hi
        return self_times(self.layers, self.layer[lo:hi], self.start[lo:hi],
                          self.end[lo:hi], [p - lo if p >= lo else -1
                                            for p in self.parent[lo:hi]])

    def calls(self, lo: int = 0, hi: Optional[int] = None) -> dict[str, int]:
        hi = len(self.start) if hi is None else hi
        out = {name: 0 for name in self.layers}
        for lid in self.layer[lo:hi]:
            out[self.layers[lid]] += 1
        return out

    def covered(self, lo: int = 0, hi: Optional[int] = None) -> float:
        """Seconds covered by layer spans directly under a verdict span."""
        hi = len(self.start) if hi is None else hi
        total = 0.0
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= 0 and self.layer[p] == 0:
                total += self.end[i] - self.start[i]
        return total

    def write(self, path: str) -> int:
        """Write every span as a tab-separated line; returns the count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tlayer\tstart_us\tend_us\tparent\tverdict\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.layers[self.layer[i]]}\t"
                    f"{(self.start[i] - t0) * 1e6:.1f}\t"
                    f"{(self.end[i] - t0) * 1e6:.1f}\t"
                    f"{self.parent[i]}\t{self.verdict[i]}\n"
                )
        return len(self.start)


def self_times(layers, layer, start, end, parent) -> dict[str, float]:
    """Self time per layer: each span's duration minus the durations of
    its direct children, summed by layer."""
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    out = {name: 0.0 for name in layers}
    for i, lid in enumerate(layer):
        out[layers[lid]] += (end[i] - start[i]) - child[i]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(tracer: Tracer, before, wall: float, rows: list) -> dict:
    """The per-layer metrics of one traced pass, as ``name -> (value,
    unit)``.  ``rows`` are the pass's verdicts in request order (the
    verdict ids of its spans); ``before`` is the tracer's snapshot from
    the start of the pass."""
    lo, counts0, rows0 = before
    hi = len(tracer.start)
    ms = {k: v * 1000 for k, v in tracer.self_times(lo, hi).items()}
    calls = tracer.calls(lo, hi)
    counts = {k: tracer.counts.get(k, 0) - counts0.get(k, 0)
              for k in ("smt.cache_hits", "smt.cache_misses")}
    engine = tracer.engine_rows[rows0:]

    def total(fld: str) -> int:
        return sum(getattr(r, fld) for r in engine)

    safe = {i for i, r in enumerate(rows) if r.status == "safe"}
    hits = sum(r.store_hits for r in rows)
    misses = sum(r.store_misses for r in rows)
    cache = counts["smt.cache_hits"] + counts["smt.cache_misses"]
    return {
        "lang.parse_ms": (ms["lang.parse"], "ms"),
        "driver.lower_ms": (ms["driver.lower"], "ms"),
        "compile.lower_ms": (ms["compile.lower"], "ms"),
        "compile.units": (total("compiled_units"), "count"),
        "compile.dispatch_steps": (total("dispatch_steps"), "count"),
        "search.self_ms": (ms["search"], "ms"),
        "search.states": (total("states_explored"), "count"),
        "search.chained_steps": (total("chained_steps"), "count"),
        "search.fingerprint_ms": (ms["search.fingerprint"], "ms"),
        "search.fingerprint_calls": (calls["search.fingerprint"], "count"),
        "proof.self_ms": (ms["proof"], "ms"),
        "proof.queries": (calls["proof"], "count"),
        "proof.translate_ms": (ms["proof.translate"], "ms"),
        "smt.check_ms": (ms["smt.check"], "ms"),
        "smt.check_calls": (calls["smt.check"], "count"),
        "smt.check_calls_safe": (tracer.check_calls_in(safe, lo, hi), "count"),
        "smt.fresh_solves": (total("solver_fresh_solves"), "count"),
        "smt.incremental_checks": (total("solver_incremental"), "count"),
        "smt.lia_ms": (ms["smt.lia"], "ms"),
        "smt.lia_calls": (calls["smt.lia"], "count"),
        "smt.sat_ms": (ms["smt.sat"], "ms"),
        "smt.sat_calls": (calls["smt.sat"], "count"),
        "smt.cache_hit_rate": (_ratio(counts["smt.cache_hits"], cache), "ratio"),
        "cex.construct_ms": (ms["cex.construct"], "ms"),
        "cex.attempts": (calls["cex.construct"], "count"),
        # An engine stops at its first validated counterexample, so each
        # counterexample row is exactly one useful attempt.
        "cex.useful_ratio": (_ratio(
            sum(r.status == "counterexample" for r in engine),
            calls["cex.construct"]), "ratio"),
        "conc.validate_ms": (ms["conc.validate"], "ms"),
        "conc.validate_calls": (calls["conc.validate"], "count"),
        "synth.client_ms": (ms["synth.client"], "ms"),
        "store.digest_ms": (ms["store.digest"], "ms"),
        "store.lookup_ms": (ms["store.lookup"], "ms"),
        "store.write_ms": (ms["store.write"], "ms"),
        "store.hits": (hits, "count"),
        "store.misses": (misses, "count"),
        "store.hit_rate": (_ratio(hits, hits + misses), "ratio"),
        "trace.coverage": (_ratio(tracer.covered(lo, hi), wall), "ratio"),
    }
