"""Exception types shared across the package."""


class QFracError(Exception):
    """Base class for every error this package raises deliberately."""


class DomainError(QFracError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class TruncationError(QFracError, ArithmeticError):
    """An infinite sum or product failed to converge within its term budget."""


class RangeError(QFracError, OverflowError):
    """A double-precision evaluation left the finite range (overflow to inf or NaN)."""


class PoleError(QFracError, ZeroDivisionError):
    """Evaluation hit a vanishing denominator.

    ``level`` records the continued-fraction level (or series index) at which
    the denominator vanished, when known.  Poles are meaningful data here:
    real poles of a Stieltjes transform outside the continuous support mark
    candidate discrete mass points.
    """

    def __init__(self, message: str, level: int | None = None):
        super().__init__(message)
        self.level = level
