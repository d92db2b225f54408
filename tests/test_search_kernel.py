"""The shared search kernel: fingerprint canonicality, identity
interning against the reference recursive-tuple interner, fingerprint
cost, exact pruning, determinism of the breadth-first search on real
programs, and the memo-on/off corpus property.

The load-bearing guarantee is the last one: fingerprint memoisation and
chain compression may only change how *fast* the search converges,
never what it concludes — the full corpus must produce byte-identical
verdicts with memoisation enabled and disabled, on both backends.
"""

import os
import random
from functools import partial

import pytest

from repro.core import NAT, PrimApp, SNum, SOpq, PLt, HConst
from repro.core.heap import Heap, reset_locs, set_loc_counter
from repro.core.machine import Machine, State, inject
from repro.core.syntax import Loc
from repro.core.syntax import reset_labels as reset_core_labels
from repro.driver.corpus import get_program
from repro.driver.lower import lower_program
from repro.driver.runner import RunConfig, run_corpus
from repro.lang.ast import reset_labels as reset_surface_labels
from repro.lang.parser import parse_program
from repro.search import (
    CoreFingerprinter,
    ScvFingerprinter,
    SearchKernel,
    SearchStats,
)
from repro.search.intern import Interner, Node
from repro.scv.engine import collect_struct_types, inject_program
from repro.lang.ast import Quote, UApp, ULam, UVar
from repro.scv.heap import UClos, UConc, UHeap, UOpq, UPair
from repro.scv.machine import (
    MEnv,
    SMachine,
    SState,
    ULocE,
    reset_syn_labels,
    set_syn_counter,
)


def _core_state(loc_name: str, store, extra=None) -> State:
    entries = {Loc(loc_name): store}
    if extra:
        entries.update(extra)
    return State(PrimApp("zero?", (Loc(loc_name),), "t"), Heap(entries))


class TestCoreFingerprints:
    def test_stable_across_location_renaming(self):
        fp = CoreFingerprinter()
        a = fp(_core_state("L5", SNum(1)))
        b = fp(_core_state("L9", SNum(1)))
        assert a == b

    def test_distinguishes_different_values(self):
        fp = CoreFingerprinter()
        assert fp(_core_state("L5", SNum(1))) != fp(_core_state("L5", SNum(2)))

    def test_ignores_unreachable_garbage(self):
        fp = CoreFingerprinter()
        a = fp(_core_state("L5", SNum(1)))
        b = fp(_core_state("L5", SNum(1), extra={Loc("L77"): SNum(99)}))
        assert a == b

    def test_opaque_locations_keep_their_label_identity(self):
        # o:-locations are label-derived and re-used by the Opq rule; a
        # structurally identical heap at a plain location is *not* the
        # same state.
        fp = CoreFingerprinter()
        a = fp(_core_state("o:n", SOpq(NAT)))
        b = fp(_core_state("L5", SOpq(NAT)))
        assert a != b

    def test_refinements_are_part_of_the_identity(self):
        fp = CoreFingerprinter()
        plain = fp(_core_state("L5", SOpq(NAT)))
        refined = fp(_core_state("L5", SOpq(NAT, (PLt(HConst(3)),))))
        assert plain is not refined
        assert fp(_core_state("L9", SOpq(NAT, (PLt(HConst(3)),)))) is refined


class TestScvFingerprints:
    def _state(self, loc_name: str, store) -> SState:
        heap = UHeap({Loc(loc_name): store}).frozen()
        # Non-empty continuation so the state is not an answer.
        from repro.scv.machine import KSet

        return SState(Loc(loc_name), MEnv({}), heap, (KSet(Loc(loc_name)),))

    def test_stable_across_location_renaming(self):
        fp = ScvFingerprinter()
        assert fp(self._state("u3", UConc(5))) == fp(self._state("u8", UConc(5)))

    def test_distinguishes_tag_narrowings(self):
        fp = ScvFingerprinter()
        wide = fp(self._state("u3", UOpq()))
        narrow = fp(self._state("u3", UOpq(frozenset({"integer"}))))
        assert wide != narrow

    def test_answers_fold_refinements_into_the_shape(self):
        # An answer's refinement sets are what counterexample models are
        # read from: they are part of its one interned node, so answers
        # differing only in refinements stay apart.
        fp = ScvFingerprinter()

        def answer(loc_name: str, preds) -> SState:
            heap = UHeap({Loc(loc_name): UOpq(preds=preds)}).frozen()
            return SState(Loc(loc_name), MEnv({}), heap, ())

        plain = answer("u3", ())
        assert plain.is_answer
        assert isinstance(fp(plain), Node)
        assert fp(answer("u8", ())) is fp(plain)
        assert fp(answer("u3", (PLt(HConst(3)),))) is not fp(plain)


class _ReferenceInterner:
    """The recursive-tuple interner the identity hash-consing replaced:
    every tuple is rebuilt from its interned children and looked up by
    structural hash.  Kept as the equivalence oracle for
    :class:`Interner` (same equalities)."""

    def __init__(self) -> None:
        self._table: dict = {}
        self.hits = 0
        self.misses = 0

    def intern(self, value):
        if isinstance(value, tuple):
            value = tuple(self.intern(v) for v in value)
        elif isinstance(value, frozenset):
            value = frozenset(self.intern(v) for v in value)
        else:
            return value
        hit = self._table.get(value)
        if hit is not None:
            self.hits += 1
            return hit
        self.misses += 1
        self._table[value] = value
        return value


class _Reference:
    """A fingerprinter of ``kind`` serializing through the reference
    interner: its fingerprint is the folded ``(shape, refs)`` pair as a
    structurally compared tuple."""

    def __init__(self, kind) -> None:
        self._fingerprinter = kind()
        self._interner = self._fingerprinter._interner = _ReferenceInterner()

    def __call__(self, state):
        return self._fingerprinter(state)


def _random_value(rng, depth: int, *, leaf: bool = True):
    """A small nested tuple/frozenset over a tiny leaf alphabet, so
    equal pairs are common; ``False``/``0`` and ``True``/``1`` are in
    the alphabet to pin Python's ``==`` conflation.  ``leaf=False``
    forces a container at the top."""
    roll = rng.random()
    if leaf and (depth == 0 or roll < 0.3):
        return rng.choice((0, 1, 2, False, True, "a", "b", None))
    items = [_random_value(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    return frozenset(items) if roll < 0.5 else tuple(items)


def _rebuilt(value):
    """An equal copy of ``value`` sharing no container with it."""
    if isinstance(value, tuple):
        return tuple([_rebuilt(v) for v in value])
    if isinstance(value, frozenset):
        return frozenset([_rebuilt(v) for v in value])
    return value


class TestInterner:
    def test_structurally_equal_tuples_share_identity(self):
        it = Interner()
        a = it.intern((1, ("x", 2), frozenset({3})))
        b = it.intern((1, ("x", 2), frozenset({3})))
        assert a is b
        assert it.hits > 0

    def test_canonical_nodes_pass_through_without_a_walk(self):
        it = Interner()
        node = it.intern(("genv", tuple((f"p{i}", f"g{i}") for i in range(50))))
        lookups = it.hits + it.misses
        assert it.intern(node) is node
        assert it.intern(("frame", node)) is it.intern(("frame", node))
        # Two lookups for the two ("frame", node) tuples; none inside node.
        assert it.hits + it.misses == lookups + 2

    def test_frozensets_stay_frozensets_of_canonical_elements(self):
        # One-level contract: the caller interns the elements first.
        it = Interner()
        lt, eq = it.intern(("<", 3)), it.intern(("=", 0))
        small = it.intern(frozenset({lt}))
        big = it.intern(frozenset({lt, eq}))
        assert isinstance(small, frozenset) and small <= big
        assert it.intern(("<", 3)) in small
        assert it.intern(frozenset({it.intern(("<", 3))})) is small

    def test_intern_does_not_recurse(self):
        it = Interner()
        lookups = it.hits + it.misses
        it.intern((1, ("x", (2, 3)), frozenset({4})))
        assert it.hits + it.misses == lookups + 1

    def test_identity_iff_equal_on_random_values(self):
        rng = random.Random(20061)
        pool = [_random_value(rng, 4, leaf=False) for _ in range(150)]
        pool += [_rebuilt(v) for v in pool[:75]]
        it = Interner()
        canon = [it.intern(v) for v in pool]
        equal_pairs = 0
        for i, a in enumerate(pool):
            for j in range(i, len(pool)):
                b = pool[j]
                assert (canon[i] is canon[j]) == (a == b), (a, b)
                equal_pairs += a == b
                if isinstance(a, frozenset) and isinstance(b, frozenset):
                    assert (canon[i] <= canon[j]) == (a <= b), (a, b)
        assert equal_pairs > len(pool)  # not just the diagonal


class _Recording:
    """Records every state a search fingerprints, with the fingerprint
    it got and the reference interner's fingerprint of the same state;
    one list per fingerprinter, i.e. per search."""

    searches: list = []
    kind: type

    def __init__(self) -> None:
        super().__init__()
        self.reference = _Reference(self.kind)
        self.seen: list = []
        self.searches.append(self.seen)

    def __call__(self, state):
        fp = super().__call__(state)
        self.seen.append((state, fp, self.reference(state)))
        return fp


class _RecordingCore(_Recording, CoreFingerprinter):
    kind = CoreFingerprinter


class _RecordingScv(_Recording, ScvFingerprinter):
    kind = ScvFingerprinter


#: Closed recursive programs over concrete bounds, one per family of the
#: benchmark's concrete-loops workload (small bounds, one seeded fault).
_LOOP_SOURCES = (
    "(define (loop n acc) (if (<= n 0) acc (loop (- n 1) (+ acc 3))))\n"
    "(quotient 100 (add1 (loop 4 0)))",
    "(define (fold f n acc) (if (<= n 0) acc (fold f (- n 1) (f acc n))))\n"
    "(quotient 100 (add1 (fold (lambda (a i) (+ a (* 2 i))) 4 0)))",
    "(define (sum n) (if (<= n 0) 0 (+ 5 (sum (- n 1)))))\n"
    "(quotient 100 (add1 (sum 4)))",
    "(define (iter f n x) (if (<= n 0) x (iter f (- n 1) (f x))))\n"
    "(quotient 100 (add1 (iter (lambda (v) (+ v 7)) 4 0)))",
    "(define (steps m) (if (<= m 0) 0 (+ 1 (steps (- m 1)))))\n"
    "(define pre (quotient 7 (- (steps 2) 2)))\n"
    "(define (walk n acc)"
    " (if (<= n 0) acc (walk (- n 1) (if (< acc 50) (+ acc 4) (- acc 4)))))\n"
    "(quotient 100 (add1 (walk 4 0)))",
)

#: Deep loops whose chains run into the 128-step cap, so cap-boundary
#: states are fingerprinted: ``sum`` is not tail-recursive (long
#: continuation stacks, each frame with its own environment chain) and
#: ``fold`` threads a closure through a tail loop.
_DEEP_LOOP_SOURCES = (
    "(define (sum n) (if (<= n 0) 0 (+ 5 (sum (- n 1)))))\n"
    "(quotient 100 (add1 (sum 40)))",
    "(define (fold f n acc) (if (<= n 0) acc (fold f (- n 1) (f acc n))))\n"
    "(quotient 100 (add1 (fold (lambda (a i) (+ a (* 2 i))) 48 0)))",
)


class TestIdentityInterningMatchesTheReference:
    """Identity hash-consing must not change which states are equal:
    two fingerprints are the same node iff the reference interner's
    folded ``(shape, refs)`` pairs are equal.  Every state fingerprinted
    by real memoised searches is compared pairwise under the interner
    and under the reference recursive-tuple interner: within each
    search, with the
    fingerprints the search itself used, and across all searches of a
    test, re-fingerprinted by one fingerprinter of each kind.  Each
    program is verified twice, so every state has an equal twin built
    from distinct objects."""

    CORPUS = ("havoc-probes-lambda", "window-inside", "letstar-and-window",
              "factorial-offset-abs", "clamp-positive", "twice-guarded")

    @pytest.fixture
    def searches(self, monkeypatch):
        import repro.search

        monkeypatch.setattr(repro.search, "CoreFingerprinter", _RecordingCore)
        monkeypatch.setattr(repro.search, "ScvFingerprinter", _RecordingScv)
        _Recording.searches.clear()
        yield _Recording.searches
        _Recording.searches.clear()

    @staticmethod
    def _assert_pairs_agree(pairs) -> int:
        """Pairwise agreement of ``(fingerprint, reference)`` pairs;
        returns the number of equal pairs."""
        equal = 0
        for i, (a, ra) in enumerate(pairs):
            for b, rb in pairs[i + 1:]:
                assert (a is b) == (ra == rb)
                equal += ra == rb
        return equal

    def _check(self, searches) -> int:
        """Assert agreement within and across searches; returns the
        number of equal pairs across searches."""
        for seen in searches:
            self._assert_pairs_agree([(fp, ref) for _, fp, ref in seen])
        equal = 0
        for kind in (CoreFingerprinter, ScvFingerprinter):
            fresh, reference = kind(), _Reference(kind)
            equal += self._assert_pairs_agree([
                (fresh(state), reference(state))
                for seen in searches for state, _, _ in seen
                if isinstance(state, SState) == (kind is ScvFingerprinter)
            ])
        return equal

    def _verify_twice(self, source: str, backend: str) -> None:
        from repro.driver.runner import verify_source

        for _ in range(2):
            verify_source(source, backend=backend,
                          config=RunConfig(timeout_s=60.0))

    def test_corpus_programs_on_both_backends(self, searches):
        for name in self.CORPUS:
            for backend in ("core", "scv"):
                self._verify_twice(get_program(name).source, backend)
        self._verify_twice(get_program("struct-posn-invx").source, "scv")
        assert sum(map(len, searches)) > 100
        assert self._check(searches) > 50

    def test_concrete_loop_programs(self, searches):
        for source in _LOOP_SOURCES:
            for backend in ("core", "scv"):
                self._verify_twice(source, backend)
        assert len(searches) >= 4 * len(_LOOP_SOURCES)
        assert self._check(searches) > 0

    def test_deep_loop_programs_reach_the_chain_cap(self, searches,
                                                    monkeypatch):
        capped = []
        expand = SearchKernel._expand

        def counting_expand(kernel, state):
            before = kernel.stats.chained
            out = expand(kernel, state)
            capped.append(kernel.stats.chained - before == kernel.chain_limit)
            return out

        monkeypatch.setattr(SearchKernel, "_expand", counting_expand)
        for source in _DEEP_LOOP_SOURCES:
            for backend in ("core", "scv"):
                self._verify_twice(source, backend)
        assert sum(capped) >= 20
        assert len(searches) >= 4 * len(_DEEP_LOOP_SOURCES)
        assert max(len(state.kont) for seen in searches
                   for state, _, _ in seen if isinstance(state, SState)) >= 30
        assert self._check(searches) > 0

    def test_pruned_cycle_and_shadowed_global(self, searches):
        from repro.core import App, Fix, Lam, Num, Ref, fun
        from repro.core.search import explore

        loop = Fix("f", fun(NAT, NAT), Lam("x", NAT, App(Ref("f"), Ref("x"))))
        stats = SearchStats()
        list(explore(App(loop, Num(0)), max_states=25, stats=stats))
        assert stats.pruned > 0
        # The pruned repeat is an equal pair within the cycle's search.
        cycle = [(fp, ref) for _, fp, ref in searches[0]]
        assert self._assert_pairs_agree(cycle) > 0
        self._verify_twice(TestGlobalShadowing.SOURCE, "scv")
        assert self._check(searches) > 0

    def test_loc_bearing_code_is_never_memoised(self):
        # One closure body, shared by every state, reads a path location
        # and a global through ``ULocE``: its token depends on the heap,
        # so only the loc-free lambda beside it may be memoised.
        u5, g0 = Loc("u5"), Loc("g0")
        reads = ULam(("x",), UApp(ULocE(u5), (UVar("x"), ULocE(g0)),
                                  label="r"))
        plain = ULam(("y",), UApp(UVar("y"), (Quote(1),), label="p"))
        base = UHeap().set(g0, UConc(0)).frozen()

        def state(at_u5: int, at_g0=None) -> SState:
            heap = base.set(u5, UConc(at_u5))
            if at_g0 is not None:
                heap = heap.set(g0, UConc(at_g0))  # shadow the global
            heap = heap.set(Loc("u1"), UClos(reads, MEnv({})))
            heap = heap.set(Loc("u2"), UClos(plain, MEnv({})))
            heap = heap.set(Loc("u3"), UPair(Loc("u1"), Loc("u2")))
            return SState(Loc("u3"), MEnv({}), heap, ())

        states = [state(1), state(2), state(1), state(1, at_g0=9),
                  state(2)]
        fp, reference = ScvFingerprinter(), _Reference(ScvFingerprinter)
        pairs = [(fp(s), reference(s)) for s in states]
        assert self._assert_pairs_agree(pairs) == 2
        tokens = [token for token, _ in pairs]
        assert tokens[0] is tokens[2] and tokens[1] is tokens[4]
        assert len({id(t) for t in tokens}) == 3
        assert fp._code_memo[id(plain)][0] is plain
        assert id(reads) not in fp._code_memo
        assert id(reads.body) not in fp._code_memo


def _tags(token) -> set:
    """Every string at the head of a tuple in a reference token."""
    out: set = set()
    stack = [token]
    while stack:
        t = stack.pop()
        if isinstance(t, (tuple, frozenset)):
            items = tuple(t)
            if isinstance(t, tuple) and items and isinstance(items[0], str):
                out.add(items[0])
            stack.extend(items)
    return out


class TestFingerprintCost:
    """The globals-only base frame is interned once per fingerprinter:
    re-fingerprinting a state costs the same number of interner lookups
    however many bindings that frame has."""

    @staticmethod
    def _second_call_lookups(n_structs: int, make) -> tuple[int, int]:
        # Each struct adds a constructor, a predicate and two accessors
        # to the globals-only frame; nothing else differs.
        structs = "".join(f"  (struct s{i} (a b))\n" for i in range(n_structs))
        source = (
            "(module m\n" + structs
            + "  (define (adder k) (lambda (x) (+ x k)))\n"
            "  (provide [adder (-> integer? (-> integer? integer?))]))\n"
        )
        reset_surface_labels()
        reset_syn_labels()
        reset_locs()
        program = parse_program(source)
        machine = SMachine(struct_types=collect_struct_types(program))
        init = inject_program(program, machine)
        # The first state of the walk whose heap holds a closure whose
        # environment reaches the base frame.
        state = next(
            s for s in _walk(machine.step, init, 200)
            if "clos" in _tags(_Reference(ScvFingerprinter)(s))
        )
        fp = make()
        fp(state)
        before = fp._interner.hits + fp._interner.misses
        fp(state)
        return fp._interner.hits + fp._interner.misses - before, \
            len(init.env.frame)

    def test_second_call_does_not_grow_with_the_globals_frame(self):
        small, small_frame = self._second_call_lookups(0, ScvFingerprinter)
        large, large_frame = self._second_call_lookups(8, ScvFingerprinter)
        assert large_frame == small_frame + 8 * 4
        assert large == small

    def test_the_reference_interner_re_walks_the_frame(self):
        # The regression this guards against: re-interning the frame
        # token on every call makes the count linear in its size.
        reference = partial(_Reference, ScvFingerprinter)
        small, _ = self._second_call_lookups(0, reference)
        large, _ = self._second_call_lookups(8, reference)
        assert large >= small + 8 * 4


def _toy_kernel(step, **kw):
    kw.setdefault("fingerprint", lambda s: s)
    return SearchKernel(step, **kw)


class TestKernelBehaviour:
    def test_dedup_collapses_the_diamond(self):
        # step(n) branches to two copies of n+1: an exponential tree
        # with only `depth` distinct states.
        def step(n):
            return None if n >= 10 else [n + 1, n + 1]

        stats = SearchStats()
        k = _toy_kernel(step, stats=stats)
        answers = list(k.run(0))
        assert answers == [10]
        assert stats.states_explored == 11
        assert stats.pruned == 10

    def test_without_fingerprint_the_tree_is_exponential(self):
        def step(n):
            return None if n >= 6 else [n + 1, n + 1]

        stats = SearchStats()
        k = SearchKernel(step, fingerprint=None, stats=stats)
        answers = list(k.run(0))
        assert len(answers) == 2 ** 6
        assert stats.pruned == 0

    def test_chain_compression_folds_deterministic_runs(self):
        def step(n):
            return None if n >= 50 else [n + 1]

        stats = SearchStats()
        k = _toy_kernel(step, stats=stats)
        assert list(k.run(0)) == [50]
        assert stats.states_explored == 1
        assert stats.chained == 50

    def test_chain_limit_bounds_unproductive_loops(self):
        # A deterministic cycle: without the cap (or fingerprints at cap
        # boundaries) this would never terminate.
        def step(n):
            return [(n + 1) % 7]

        stats = SearchStats()
        k = _toy_kernel(step, chain_limit=3, stats=stats)
        assert list(k.run(0)) == []
        assert stats.pruned >= 1

    def test_stronger_refinements_are_explored_not_pruned(self):
        # Three successors of one root: an opaque, the same opaque with
        # a strictly stronger refinement set, and a renamed twin of the
        # first.  Only the exact duplicate is pruned.
        root = _core_state("L1", SNum(0))
        plain = _core_state("L5", SOpq(NAT))
        stronger = _core_state("L6", SOpq(NAT, (PLt(HConst(3)),)))
        twin = _core_state("L7", SOpq(NAT))

        def step(s):
            return [plain, stronger, twin] if s is root else None

        stats = SearchStats()
        k = SearchKernel(step, fingerprint=CoreFingerprinter(), stats=stats)
        assert list(k.run(root)) == [plain, stronger]
        assert stats.pruned == 1
        assert stats.states_explored == 3

    def test_budget_truncates(self):
        def step(n):
            return [n + 1, -n]  # never an answer, never repeats

        stats = SearchStats()
        k = SearchKernel(step, fingerprint=None, max_states=40, stats=stats)
        assert list(k.run(1)) == []
        assert stats.truncated is True
        assert stats.states_explored == 40


class TestGlobalShadowing:
    """A ``set!`` on a *primitive* name writes a frozen-base ``g…``
    location into the heap overlay.  Fingerprinting treats globals as
    per-program constants (names-only cached frame token); that
    shortcut must be revoked on such paths or states differing only in
    the rebound primitive collide and reachable counterexamples are
    pruned (regression: the memoised run used to report ``safe`` here
    while ``--no-memo`` found the division by zero)."""

    SOURCE = (
        "(define (go y) (if (zero? y) (void)"
        " (set! quotient (lambda (a b) 0))))\n"
        "(define (use z) (if (zero? z) (quotient 1 0) 0))\n"
        "(begin (go •) (use •))"
    )

    def test_set_bang_on_a_primitive_is_not_fingerprint_invisible(self):
        from repro.driver.runner import verify_source

        results = {
            memo: verify_source(
                self.SOURCE, backend="scv",
                config=RunConfig(timeout_s=30.0, memo=memo),
            ).status
            for memo in (True, False)
        }
        assert results[True] == results[False] == "counterexample"

    def test_set_on_a_global_marks_the_heap(self):
        from repro.core.syntax import Loc
        from repro.scv.heap import UConc, UHeap

        base = UHeap().set(Loc("g0"), UConc(1)).frozen()
        assert not base.has_global_writes  # freezing resets the flag
        assert base.set(Loc("u1"), UConc(2)).has_global_writes is False
        assert base.set(Loc("g0"), UConc(3)).has_global_writes is True


def _core_program(name: str):
    reset_surface_labels()
    reset_core_labels()
    reset_locs()
    return lower_program(parse_program(get_program(name).source))


def _scv_init(source: str):
    reset_surface_labels()
    reset_syn_labels()
    reset_locs()
    machine = SMachine()
    return machine, inject_program(parse_program(source), machine)


def _run_core(core, *, memo: bool = True, **kernel_kw):
    """Answer states + deterministic counters for one sequential run."""
    reset_locs()
    machine = Machine()
    st = SearchStats()
    kernel = SearchKernel(
        machine.step, fingerprint=CoreFingerprinter() if memo else None,
        stats=st, **kernel_kw,
    )
    answers = list(kernel.run(inject(core)))
    return answers, (
        st.states_explored, st.chained, st.pruned, st.answers,
        st.truncated, machine.proof.queries, machine.proof.solver_queries,
    )


def _witness(cex):
    """The witness a counterexample row reports, or None."""
    if cex is None:
        return None
    return cex.bindings, cex.err_label, cex.err_op, cex.client


def _walk(step, init, limit: int):
    """The first ``limit`` states of a plain bfs walk (no memo)."""
    frontier, seen = [init], []
    while frontier and len(seen) < limit:
        state = frontier.pop(0)
        seen.append(state)
        frontier.extend(step(state) or ())
    return seen


class TestSequentialSearchOnRealPrograms:
    """The one search path over real programs.  The machines thread the
    location and synthetic-label counters through states (``loc_base``,
    ``syn_base``), so every state is a pure function of its path: runs
    repeat exactly, and a state budget cuts the bfs order at a prefix."""

    def test_repeated_runs_are_identical(self):
        core = _core_program("sum-unknown-fn-abs")
        first = _run_core(core)
        assert first[0], "the program must reach at least one answer"
        for rep in range(2):
            assert _run_core(core) == first, f"run {rep + 2} diverged"

    @pytest.mark.parametrize("budget", [1, 3, 7])
    def test_truncation_cuts_the_bfs_order_at_a_prefix(self, budget):
        core = _core_program("sum-unknown-fn-abs")
        full, full_counts = _run_core(core)
        assert full_counts[0] > budget
        cut, counts = _run_core(core, max_states=budget)
        assert cut == full[: len(cut)]
        states_explored, truncated = counts[0], counts[4]
        assert states_explored == budget and truncated

    def test_core_step_ignores_the_global_location_counter(self):
        machine = Machine()
        init = inject(_core_program("sum-unknown-fn-abs"))
        states = _walk(machine.step, init, 40)
        assert any(s.loc_base > init.loc_base for s in states)
        for state in states:
            set_loc_counter(state.loc_base + 1000)
            scrambled = machine.step(state)
            set_loc_counter(0)
            assert machine.step(state) == scrambled

    def test_scv_step_ignores_the_global_counters(self):
        machine, init = _scv_init(get_program("sum-unknown-fn-abs").source)
        states = _walk(machine.step, init, 40)
        assert any(s.loc_base > init.loc_base for s in states)
        for state in states:
            set_syn_counter(state.syn_base + 1000)
            set_loc_counter(state.loc_base + 1000)
            scrambled = repr(machine.step(state))
            set_syn_counter(0)
            set_loc_counter(0)
            # UHeap compares by identity, so compare printed states.
            assert repr(machine.step(state)) == scrambled


class TestMemoOnOffProperty:
    """Full-corpus verdicts and witnesses must be byte-identical with
    memoisation enabled vs disabled (the pruning-is-invisible property):
    memoisation changes which states are explored, never which model the
    solver reports for the error state it reaches."""

    def _verdicts(self, memo: bool):
        jobs = min(4, os.cpu_count() or 1)
        cfg = RunConfig(timeout_s=60.0, jobs=jobs, memo=memo)
        report = run_corpus(config=cfg, backend="both")
        return {
            (r.name, r.backend): (r.status, _witness(r.counterexample))
            for r in report.results
        }, report

    def test_full_corpus_verdicts_identical(self):
        with_memo, report_on = self._verdicts(memo=True)
        without_memo, report_off = self._verdicts(memo=False)
        assert with_memo.keys() == without_memo.keys()
        differ = sorted(k for k in with_memo
                        if with_memo[k] != without_memo[k])
        assert not differ
        # And the memoised run must actually be doing its job.
        t_on = report_on.totals()
        t_off = report_off.totals()
        assert t_on["states_explored"] < t_off["states_explored"]
        # Chain compression runs on the memo's seen-set, so only the
        # memoised run folds micro-steps into macro states.
        assert t_on["chained_steps"] > 0 == t_off["chained_steps"]
        assert t_off["solver_cache_hits"] == 0
