"""Exception hierarchy for the simulator.

Every error raised by the library derives from :class:`GiaSimError` so that
callers (in particular the CLI) can map failures to exit codes without
string matching.
"""


class GiaSimError(Exception):
    """Base class for all simulator errors."""


class NumericalFailure(GiaSimError):
    """A matrix factorization did not converge."""

    def __init__(self, operation: str, rows: int, cols: int):
        super().__init__(f"{operation} failed to converge on a {rows}x{cols} matrix")
        self.operation = operation
        self.rows = rows
        self.cols = cols


class ContractViolation(GiaSimError):
    """An argument violates a documented precondition."""


class RankDeficient(GiaSimError):
    """Input matrix does not have full column rank."""


class InfeasibleConfig(GiaSimError):
    """System dimensions cannot support the requested alignment."""


class DegenerateChannel(GiaSimError):
    """A channel draw produced a rank-deficient construction; resample."""


class AlignmentFailure(DegenerateChannel):
    """Interference images that must share a span do not (numerical breakdown
    on one draw); resampled like any degenerate draw."""


class CapacityExceeded(GiaSimError):
    """Requested enumeration or codebook exceeds the configured guard."""
