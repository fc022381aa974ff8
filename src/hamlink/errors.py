"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "HamlinkError",
    "ValidationError",
    "AlgebraicLoopError",
    "InfeasibleChannelCountError",
    "SingularParameterError",
    "DivergenceError",
]


class HamlinkError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(HamlinkError, ValueError):
    """Malformed, inconsistent, or non-finite input data."""


class AlgebraicLoopError(HamlinkError):
    """The feedback loop cannot be eliminated.

    Raised when the loop gain has an eigenvalue at (or numerically near) one,
    so the interconnection equations have no well-conditioned solution.
    """


class InfeasibleChannelCountError(HamlinkError):
    """Requested channel count is below the minimum set by the coupling rank."""

    def __init__(self, requested: int, minimum: int):
        self.requested = requested
        self.minimum = minimum
        super().__init__(
            f"channel count m={requested} is infeasible; "
            f"this coupling needs at least m={minimum}"
        )


class SingularParameterError(HamlinkError):
    """A free-parameter choice makes a synthesis equation unsolvable."""


class DivergenceError(HamlinkError):
    """Moment integration produced a non-finite value."""

    def __init__(self, time: float):
        self.time = time
        super().__init__(f"moment integration diverged at t={time:.6g}")
