"""The primitive registry is the single source of truth: all four
consuming layers (concrete view, typed core δ, untyped scv δ, compiled
executor) must agree with it — and with each other — by construction.

The suppression tests are *generated from the registry*: every
declaration whose untyped handler tag-splits its arguments is run on
fully-unconstrained opaques under both cross-check disciplines, and the
``assume_well_typed`` contract (tag-uncertainty blame suppressed,
narrowing kept) is asserted uniformly.  A new family added to the
declarations is covered here with zero test edits.
"""

import pytest

from repro.core.delta import _tables as core_tables
from repro.prims import REGISTRY, all_specs, base_primitives
from repro.scv.delta import OBlame, OEval, delta_u
from repro.scv.delta import _dispatch as scv_dispatch
from repro.scv.heap import UHeap, UOpq
from repro.scv.machine import SMachine


class TestLayerParity:
    def test_concrete_view_matches_registry_in_order(self):
        # base_primitives() is the symbolic global frame's allocation
        # order, so key *order* (not just key set) is load-bearing.
        assert list(base_primitives()) == list(REGISTRY)

    def test_scv_dispatch_covers_every_declaration(self):
        assert set(scv_dispatch()) == set(REGISTRY)

    def test_core_tables_match_core_op_declarations(self):
        unary, binary = core_tables()
        declared = {
            s.core_op
            for s in REGISTRY.values()
            if s.core_op is not None and s.refine is not None
        }
        assert set(unary) | set(binary) == declared
        assert not set(unary) & set(binary)

    def test_executor_inline_set_is_the_registry(self):
        from repro.compile.executor import _INLINE_UPRIM_NAMES

        assert _INLINE_UPRIM_NAMES == frozenset(REGISTRY)

    def test_aliases_resolve_and_share_behaviour(self):
        for s in all_specs():
            if s.alias_of is not None:
                target = REGISTRY[s.alias_of]
                assert s.concrete is target.concrete
                assert s.name in target.aliases

    def test_min_max_are_ordinary_synthesis_rules(self):
        # Historically special-cased in the untyped δ; now they are
        # plain registry declarations whose synthesis expands to a
        # comparison chain (OEval) on symbolic input.
        for name in ("min", "max"):
            assert REGISTRY[name].synth is not None
            m = SMachine()
            heap = UHeap.empty()
            l1, heap = heap.alloc(m.fresh_opq(), m.names)
            l2, heap = heap.alloc(m.fresh_opq(), m.names)
            outs = delta_u(m, heap, name, (l1, l2), "t")
            assert any(isinstance(o, OEval) for o in outs)


def _narrowing_specs():
    """Declarations whose untyped handler tag-splits opaque arguments
    (the refinement templates and the generic signature handler); the
    custom rules with the same discipline are listed explicitly."""
    out = []
    for s in all_specs():
        if s.alias_of is not None:
            continue
        if s.refine is not None:
            out.append(s)
        elif (s.rule is None and s.synth is None and s.pred_tags is None
              and s.sig.result is not None and s.sig.want is not None):
            out.append(s)
    out.extend(REGISTRY[n] for n in
               ("substring", "vector-ref", "vector-set!", "vector-length"))
    return out


def _n_args(spec) -> int:
    n = max(spec.arity.min, 1)
    if spec.arity.max is not None:
        n = min(n, spec.arity.max)
    return n


def _tag_blames(outcomes):
    return [
        o for o in outcomes
        if isinstance(o, OBlame)
        and "expected" in o.description
        and "argument" not in o.description  # not an arity violation
    ]


@pytest.mark.parametrize(
    "spec", _narrowing_specs(), ids=lambda s: s.name,
)
class TestWellTypedSuppression:
    """On fully-unconstrained opaques, every tag-splitting primitive
    must blame under the untyped discipline and stay silent under
    ``assume_well_typed`` — while still narrowing the ok branches."""

    def _run(self, spec, typed: bool):
        m = SMachine(assume_well_typed=typed)
        heap = UHeap.empty()
        locs = []
        for _ in range(_n_args(spec)):
            l, heap = heap.alloc(m.fresh_opq(), m.names)
            locs.append(l)
        return m, locs, delta_u(m, heap, spec.name, tuple(locs), "t")

    def test_untyped_blames_tag_uncertainty(self, spec):
        if spec.refine is not None and spec.refine.kind == "sign":
            # Sign predicates are *total*: a non-number answers #f, so
            # there is no tag blame to suppress in either discipline.
            pytest.skip("total predicate: never blames")
        _, _, outs = self._run(spec, typed=False)
        assert _tag_blames(outs), outs

    def test_typed_suppresses_blame_but_keeps_narrowing(self, spec):
        m, locs, outs = self._run(spec, typed=True)
        assert not _tag_blames(outs), outs
        # Sign predicates answer #f on the non-number branch instead of
        # narrowing in place; everything else must keep at least one ok
        # branch whose first argument has a strictly narrowed tag set.
        if spec.refine is not None and spec.refine.kind == "sign":
            return
        narrowed = False
        for o in outs:
            if isinstance(o, OBlame):
                continue
            _, s = o.heap.deref(locs[0])
            if not isinstance(s, UOpq) or s.possible < m.all_tags:
                narrowed = True
        assert narrowed, outs
