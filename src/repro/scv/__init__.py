"""Symbolic execution for the untyped contract language (§4–5).

The subsystem is complete end-to-end: :class:`SMachine` steps the
untyped CESK machine, ``scv.delta`` supplies its primitive relation,
``scv.proof`` its tag/integer proof system, ``scv.engine`` assembles
whole programs (modules, contract boundaries, the demonic client) and
searches them, and ``scv.counterexample`` turns blame states into
concrete, surface-validated inputs.  The batch driver exposes all of
this as the ``scv`` backend (``python -m repro --backend scv``).

Re-exports resolve lazily (PEP 562): the primitive registry's rules
(``repro.prims.rules``) import ``scv.heap`` at module load, and an
eager package ``__init__`` would drag ``scv.counterexample`` —
and through it the still-initialising ``repro.prims`` — into that
import, closing a cycle.  Lazy attribute access keeps
``from repro.scv import SMachine`` working without eagerly importing
every sibling module.
"""

from importlib import import_module

_EXPORTS = {
    "UCounterexample": "counterexample",
    "check_u": "counterexample",
    "construct_u": "counterexample",
    "opaque_labels": "counterexample",
    "ScopeError": "engine",
    "assemble": "engine",
    "check_scope": "engine",
    "collect_struct_types": "engine",
    "explore_u": "engine",
    "find_known_blames": "engine",
    "inject_program": "engine",
    "uses_contracts": "engine",
    "UHeap": "heap",
    "Blame": "machine",
    "SMachine": "machine",
    "SState": "machine",
    "is_known_label": "machine",
    "UProofSystem": "proof",
    "translate_uheap": "proof",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        mod = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
