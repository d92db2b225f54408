"""Shared search infrastructure for both symbolic engines.

* :mod:`repro.search.kernel` — the breadth-first search loop with
  exact seen-set memoisation and chain compression, its stats record,
  and ``search``, the entry both backends build their kernel through;
* :mod:`repro.search.fingerprint` — canonical state fingerprints for
  ``core.State`` and ``scv.SState``, hash-consed as they are built;
* :mod:`repro.search.intern` — the one-level hash-consing table each
  fingerprint token is interned in.
"""

from .fingerprint import CoreFingerprinter, ScvFingerprinter
from .intern import Interner
from .kernel import SearchKernel, SearchStats, search

__all__ = [
    "CoreFingerprinter",
    "Interner",
    "ScvFingerprinter",
    "SearchKernel",
    "SearchStats",
    "search",
]
