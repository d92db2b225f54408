"""Symbolic PCF — the paper's §3 core model.

High-level API:

>>> from repro.core import *
>>> # f = λg:nat→nat. λn:nat. 1 / (100 - (g n)), applied to an unknown
>>> f = lam("g", fun(NAT, NAT), lam("n", NAT,
...         prim("div", Num(1), prim("-", Num(100), app(Ref("g"), Ref("n")),
...                                  label="p1"), label="p0")))
>>> program = app(opq(fun(fun(fun(NAT, NAT), NAT, NAT), NAT), "ctx"), f)  # (• f)
>>> cex = find_counterexample(program)
>>> cex.validated
True
"""

from __future__ import annotations

from typing import Optional

from .concrete import ConcreteAnswer, Timeout, has_opaques, run
from .counterexample import (
    Counterexample,
    check_counterexample,
    construct,
    default_value,
    instantiate,
)
from .delta import DeltaResult, delta
from .heap import (
    Heap,
    HConst,
    HLoc,
    HOp,
    PEq,
    PLe,
    PLt,
    PNot,
    Pred,
    PZero,
    SCase,
    SLam,
    SNum,
    SOpq,
    NameCursor,
)
from .machine import Machine, State, StuckError, inject
from .pretty import pp, pp_counterexample, pp_heap, pp_type
from .proof import ProofSystem, Verdict
from .search import SearchResult, explore, find_errors, first_error
from .syntax import (
    App,
    Err,
    Expr,
    Fix,
    FunType,
    If,
    Lam,
    Loc,
    NAT,
    NatType,
    Num,
    Opq,
    PrimApp,
    Ref,
    Type,
    app,
    fun,
    known_labels,
    lam,
    num,
    opaque_labels,
    opq,
    prim,
    subst,
)
from .translate import translate_heap
from .typecheck import PRIM_SIGS, TypeError_, check_program

__all__ = [
    # syntax
    "App", "Err", "Expr", "Fix", "FunType", "If", "Lam", "Loc", "NAT",
    "NatType", "Num", "Opq", "PrimApp", "Ref", "Type", "app", "fun",
    "known_labels", "lam", "num", "opaque_labels", "opq", "prim",
    "subst",
    # typing
    "PRIM_SIGS", "TypeError_", "check_program",
    # heap
    "Heap", "HConst", "HLoc", "HOp", "PEq", "PLe", "PLt", "PNot", "Pred",
    "PZero", "SCase", "SLam", "SNum", "SOpq", "NameCursor",
    # semantics
    "DeltaResult", "delta", "Machine", "State", "StuckError", "inject",
    "ProofSystem", "Verdict", "translate_heap",
    # search & counterexamples
    "SearchResult", "explore", "find_errors", "first_error",
    "Counterexample", "check_counterexample", "construct", "default_value",
    "instantiate",
    # concrete evaluation
    "ConcreteAnswer", "Timeout", "has_opaques", "run",
    # pretty printing
    "pp", "pp_counterexample", "pp_heap", "pp_type",
    # driver
    "find_counterexample",
]


def find_counterexample(
    program: Expr,
    *,
    max_states: int = 50_000,
    validate: bool = True,
) -> Optional[Counterexample]:
    """End-to-end driver: symbolically execute ``program``, stop at the
    first error (BFS order), and reconstruct a concrete counterexample.

    Returns None when no error is reachable within the state budget or
    the solver cannot model the error path.
    """
    machine = Machine()
    for result in find_errors(program, machine=machine, max_states=max_states):
        cex = construct(program, result.state, validate=validate)
        if cex is not None:
            return cex
    return None
