"""Error types raised by concrete primitive implementations.

These live in the registry package (the single source of truth for
primitives); every engine converts them into blame at the application
label.
"""

from __future__ import annotations


class PrimError(Exception):
    """A primitive's precondition was violated."""

    def __init__(self, op: str, message: str) -> None:
        super().__init__(f"{op}: {message}")
        self.op = op
        self.message = message


class UserError(Exception):
    """The program called ``(error ...)`` deliberately."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message
