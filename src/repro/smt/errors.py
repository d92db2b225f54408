"""Exception hierarchy and result kinds for the first-order solver.

The solver is the substitute for Z3 in this reproduction:
the paper's method is *relatively* complete with respect to a first-order
solver, so the solver's ``UNKNOWN`` outcome is the precise boundary of the
reproduction's completeness, exactly as Z3's incompleteness was for the
original tool (paper §5.3).
"""

from __future__ import annotations

import enum


class SolverError(Exception):
    """Base class for all solver-raised errors."""


class SortError(SolverError):
    """A term was built or used at the wrong sort."""


class BudgetExhausted(SolverError):
    """An internal search (branch-and-bound, nonlinear enumeration) hit
    its configured budget.  Callers normally convert this to UNKNOWN."""


class Result(enum.Enum):
    """Three-valued satisfiability verdict."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError(
            "Result is three-valued; compare against Result.SAT/UNSAT/UNKNOWN "
            "explicitly instead of using truthiness"
        )
