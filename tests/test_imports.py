"""Every entry module imports first, in a fresh interpreter.

The packages import each other in layers (the primitive registry's
declarations read ``scv`` tags and storeables, ``scv.heap`` reads
``lang`` values), and a cycle between them only shows when a module on
it is the *first* one a program imports.  Each module below is imported
on its own by a fresh ``python -S`` process, one after another — a
handful of interpreter start-ups, a few seconds in all.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

#: Every package, plus the modules on the layer boundaries where a cycle
#: has closed before (``scv.heap`` → ``lang`` → ``prims.declarations``
#: → ``scv.heap``).
ENTRY_MODULES = (
    "repro",
    "repro.compile",
    "repro.conc",
    "repro.conc.interp",
    "repro.core",
    "repro.driver",
    "repro.lang",
    "repro.prims",
    "repro.prims.declarations",
    "repro.prims.rules",
    "repro.scv",
    "repro.scv.heap",
    "repro.scv.tags",
    "repro.scv.machine",
    "repro.scv.engine",
    "repro.scv.counterexample",
    "repro.search",
    "repro.serve",
    "repro.smt",
    "repro.store",
    "repro.synth",
)


@pytest.mark.parametrize("module", ENTRY_MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    out = subprocess.run(
        [sys.executable, "-S", "-c", f"import {module}"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(REPO_SRC)},
    )
    assert out.returncode == 0, out.stderr
