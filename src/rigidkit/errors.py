"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: InputError -> 1, InconsistencyError
and AlgorithmError -> 2.  Everything else propagates as a plain crash.
"""

__all__ = [
    "RigidkitError",
    "InputError",
    "UnsupportedCountError",
    "NestingError",
    "MoveError",
    "PlacementError",
    "ContinuationError",
    "InconsistencyError",
    "AlgorithmError",
]


class RigidkitError(Exception):
    """Base class for all package errors."""


class InputError(RigidkitError):
    """Malformed input, violated precondition, or unusable parameters."""


class UnsupportedCountError(InputError):
    """Sparsity count outside the supported l < 2k family."""


class NestingError(InputError):
    """Tower stages are not nested; carries the first offending index."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index


class MoveError(InputError):
    """Construction move cannot be applied to the given graph."""


class PlacementError(InputError):
    """Placement is inconsistent with the graph or the norm."""


class ContinuationError(RigidkitError):
    """Path tracking stalled; carries the failing step index."""

    def __init__(self, step: int, message: str) -> None:
        super().__init__(message)
        self.step = step


class InconsistencyError(RigidkitError):
    """Two supposedly-equivalent computations disagreed."""


class AlgorithmError(RigidkitError):
    """Internal invariant broke; indicates a bug, not bad input."""
