"""Shared search infrastructure for both symbolic engines.

* :mod:`repro.search.kernel` — the breadth-first search loop with
  exact seen-set memoisation and chain compression;
* :mod:`repro.search.fingerprint` — canonical state fingerprints for
  ``core.State`` and ``scv.SState``;
* :mod:`repro.search.intern` — the hash-consing table fingerprints are
  built over.
"""

from .fingerprint import CoreFingerprinter, ScvFingerprinter
from .intern import Interner
from .kernel import KernelStats, SearchKernel

__all__ = [
    "CoreFingerprinter",
    "Interner",
    "KernelStats",
    "ScvFingerprinter",
    "SearchKernel",
]
