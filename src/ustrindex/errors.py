"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["CapacityError", "ContainerError", "ParseError", "ThresholdError"]


class ParseError(Exception):
    """Malformed input text; carries the source location when known."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        super().__init__(message)

    def __str__(self) -> str:
        msg = super().__str__()
        where = self.path or ""
        if self.line is not None:
            where = f"{where or '<input>'}:{self.line}"
        return f"{where}: {msg}" if where else msg


class ThresholdError(ValueError):
    """Query threshold below the construction floor; such results are not conserved."""

    def __init__(self, tau: float, tau_min: float):
        self.tau = tau
        self.tau_min = tau_min
        super().__init__(f"tau {tau!r} is below the index floor tau_min {tau_min!r}")


class CapacityError(RuntimeError):
    """A configured size guard was exceeded."""

    def __init__(self, message: str, cap: int | None = None):
        self.cap = cap
        super().__init__(message)


class ContainerError(ValueError):
    """An index file that is not a readable container, or lacks one of its parts."""
