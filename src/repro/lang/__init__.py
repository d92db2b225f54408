"""Untyped Racket-subset front end: reader, AST, parser, values.

The primitives live in ``repro.prims``, which this package must not
import: the registry's declarations import ``scv.heap``, which imports
this package, so ``import repro.scv.heap`` in a fresh interpreter would
run into its own half-initialised module.
"""

from .ast import (
    Module,
    Program,
    Provide,
    Quote,
    StructDef,
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
from .parser import ParseError, parse_expr_string, parse_module, parse_program
from .runtime import Cell, Closure, Env, Guarded, Prim, StructCtor, is_applicable
from .sexp import ReadError, Symbol, read_all, read_one, write_datum
from .values import (
    ANY_C,
    Box,
    Contract,
    NIL,
    Pair,
    StructType,
    StructVal,
    VOID,
    from_pylist,
    is_integer,
    is_number,
    is_real,
    is_truthy,
    racket_equal,
    to_pylist,
)
