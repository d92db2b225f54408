"""Shared search infrastructure for both symbolic engines.

* :mod:`repro.search.kernel` — the strategy-pluggable search loop with
  seen-set memoisation and subsumption pruning;
* :mod:`repro.search.fingerprint` — canonical state fingerprints for
  ``core.State`` and ``scv.SState``;
* :mod:`repro.search.intern` — the hash-consing table fingerprints are
  built over.
"""

from .fingerprint import CoreFingerprinter, ScvFingerprinter
from .intern import Interner
from .kernel import Fingerprint, KernelStats, STRATEGIES, SearchKernel

__all__ = [
    "CoreFingerprinter",
    "Fingerprint",
    "Interner",
    "KernelStats",
    "STRATEGIES",
    "ScvFingerprinter",
    "SearchKernel",
]
