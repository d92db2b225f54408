"""Bytecode compilation of the core and scv machines.

``lower`` turns each program unit (module root + every lambda body)
into a flat instruction stream; ``executor`` runs the streams in a
tight dispatch loop behind the ``SearchKernel`` expander interface,
materialising full machine states only at observable points.  The step
machines remain the source of truth — every compiled run is checked
byte-identical against them by the differential oracle.
"""

from .executor import CoreExecutor, ScvExecutor
from .lower import (
    OPCODE_NAMES,
    CompiledUnit,
    lower_core,
    lower_scv,
)

__all__ = [
    "CompiledUnit",
    "CoreExecutor",
    "OPCODE_NAMES",
    "ScvExecutor",
    "lower_core",
    "lower_scv",
]
