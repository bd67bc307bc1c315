"""Exception types shared across the package."""


class L1RecError(Exception):
    """Base class for all package errors."""


class NoConvergence(L1RecError):
    """Adaptive fitting used up its piece budget without resolving."""


class SubdivisionLimit(L1RecError):
    """Rootfinding exceeded its subdivision budget."""


class TooLarge(L1RecError):
    """A size guard was violated: a brute-force enumeration or a dense
    matrix too large to allocate."""


class NotFound(L1RecError):
    """An enumeration finished without a feasible answer."""


class DomainError(L1RecError):
    """An input is outside the mathematical domain of an operation."""


class ParseError(L1RecError):
    """Expression text failed to parse.

    Attributes:
        position: 0-based index into the source text where parsing failed.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class StepFailure(L1RecError):
    """Newton step halving was exhausted without an acceptable step."""


class ExchangeStalled(L1RecError):
    """The minimax exchange iteration failed to make progress."""


class SolverFailure(L1RecError, RuntimeError):
    """The LP solver stopped without an optimal answer."""
