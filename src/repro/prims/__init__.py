"""The primitive registry package: δ declared once, consumed four times.

``repro.prims`` is the single source of truth for the language's
primitives.  Each primitive is declared exactly once (in
``declarations``) with its concrete implementation, arity, tag
signature, integer-refinement template, synthesis rule or custom
untyped rule, and typed-core operator name.  Four layers consume the
table:

* ``lang.prims`` — a thin view: ``base_primitives()`` maps surface
  names to the registry's concrete callables;
* ``core.delta`` — derives the typed machine's handlers from the
  refinement templates;
* ``scv.delta`` — generates the untyped tag-split/blame/narrowing
  recipe from the signatures, templates and rules;
* ``compile.executor`` — sources its inline-dispatch name set and
  arity metadata from the registry.

Import-order note: the declarations pull in ``scv.tags`` and, through
``rules``, ``scv.heap``, whose value types come from ``lang`` — so the
``repro.lang`` package must not import this one (it does not re-export
``lang.prims``), or importing ``scv.heap`` first would meet itself
half-initialised (``tests/test_imports.py``).
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
    between,
    exactly,
    names,
    spec,
)
from . import declarations as _declarations  # noqa: E402  (fills REGISTRY)
from .declarations import EXTENDED_PRIMS

__all__ = [
    "ANY_TAGS",
    "Arity",
    "EXTENDED_PRIMS",
    "PrimError",
    "PrimSpec",
    "REGISTRY",
    "Refinement",
    "TagSig",
    "UserError",
    "all_specs",
    "at_least",
    "between",
    "exactly",
    "names",
    "spec",
]

del _declarations
