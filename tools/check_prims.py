#!/usr/bin/env python
"""Lint the primitive registry (CI: runs next to ruff).

The registry (``repro.prims``) is the single source of truth for four
engine layers, so a malformed declaration fails late and far from its
cause — an entry without any handler source would have no untyped δ
rule and would fail on first use.  This lint front-loads those checks:

* every entry declares a tag signature, and either an integer-refinement
  template or a handler source (synthesis rule, custom rule, predicate
  tags, or a result signature for the generic handler);
* arities are sane (``0 <= min``, ``max`` absent or ``>= min``) and
  refinement templates ride on known kinds;
* aliases resolve, share their target's concrete implementation, and are
  recorded on the target;
* ``core_op`` names are unique (the typed δ's dispatch keys).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

_REFINE_KINDS = {
    "arith", "offset", "divlike", "slash", "compare", "swap", "sign",
}


def main() -> int:
    from repro.prims import REGISTRY, all_specs

    problems: list[str] = []

    def bad(name: str, why: str) -> None:
        problems.append(f"  {name}: {why}")

    core_ops: dict[str, str] = {}
    for s in all_specs():
        if not callable(s.concrete):
            bad(s.name, "concrete implementation is not callable")
        if s.sig is None:
            bad(s.name, "missing tag signature")
        elif s.sig.want is not None and not s.sig.desc:
            bad(s.name, "tag signature narrows but carries no blame text")
        if s.arity.min < 0:
            bad(s.name, f"negative minimum arity {s.arity.min}")
        if s.arity.max is not None and s.arity.max < s.arity.min:
            bad(s.name, f"arity max {s.arity.max} < min {s.arity.min}")
        if s.refine is not None and s.refine.kind not in _REFINE_KINDS:
            bad(s.name, f"unknown refinement kind {s.refine.kind!r}")
        if not any((s.refine, s.synth, s.rule,
                    s.pred_tags is not None,
                    s.sig is not None and s.sig.result is not None)):
            bad(s.name, "no refinement template and no handler source "
                        "(rule / synth / pred_tags / sig.result)")
        if s.alias_of is not None:
            target = REGISTRY.get(s.alias_of)
            if target is None:
                bad(s.name, f"alias of unknown primitive {s.alias_of!r}")
            else:
                if s.concrete is not target.concrete:
                    bad(s.name, "alias does not share its target's "
                                "concrete implementation")
                if s.name not in target.aliases:
                    bad(s.name, f"not recorded in {s.alias_of!r}.aliases")
        if s.core_op is not None:
            if s.core_op in core_ops:
                bad(s.name, f"core_op {s.core_op!r} already claimed by "
                            f"{core_ops[s.core_op]!r}")
            core_ops[s.core_op] = s.name
            if s.refine is None:
                bad(s.name, "names a core_op but has no refinement "
                            "template for the typed δ to interpret")

    if problems:
        print(f"check_prims: {len(problems)} problem(s) in the registry:")
        print("\n".join(problems))
        return 1
    print(f"check_prims: {len(REGISTRY)} declarations OK "
          f"({len(core_ops)} typed-core ops)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
