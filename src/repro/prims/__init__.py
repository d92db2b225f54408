"""The primitive registry package: δ declared once, consumed everywhere.

``repro.prims`` is the single source of truth for the language's
primitives.  Each primitive is declared exactly once (in
``declarations``) with its concrete implementation, arity, tag
signature, integer-refinement template, synthesis rule or custom
untyped rule, and typed-core operator name.  Every program sees the
whole table.  Its consumers:

* ``conc.interp`` and ``scv`` — ``base_primitives()`` maps surface
  names to the registry's concrete callables, in declaration order;
* ``core.delta`` — derives the typed machine's handlers from the
  refinement templates;
* ``scv.delta`` — checks each application's arity, then generates the
  untyped tag-split/blame/narrowing recipe from the signatures,
  templates and rules;
* ``compile.executor`` — sources its inline-dispatch name set from the
  registry.

Import-order note: the declarations pull in ``scv.tags`` and, through
``rules``, ``scv.heap``, whose value types come from ``lang`` — so the
``repro.lang`` package must not import this one, or importing
``scv.heap`` first would meet itself half-initialised
(``tests/test_imports.py``).
"""

from .errors import PrimError, UserError
from .registry import (
    ANY_TAGS,
    Arity,
    PrimSpec,
    REGISTRY,
    Refinement,
    TagSig,
    all_specs,
    at_least,
    base_primitives,
    between,
    exactly,
)
from . import declarations as _declarations  # noqa: E402  (fills REGISTRY)

__all__ = [
    "ANY_TAGS",
    "Arity",
    "PrimError",
    "PrimSpec",
    "REGISTRY",
    "Refinement",
    "TagSig",
    "UserError",
    "all_specs",
    "at_least",
    "base_primitives",
    "between",
    "exactly",
]

del _declarations
