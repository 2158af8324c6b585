"""Exception types shared across the package."""


class QRacahError(Exception):
    """Base class for all errors raised by this package."""


class OutOfRange(QRacahError):
    """An index or argument lies outside its admissible range."""


class DenominatorPole(QRacahError):
    """A denominator Pochhammer symbol vanishes at a reached summation index."""


class NonConvergent(QRacahError):
    """A truncated infinite sum or product cannot meet its error certificate."""


class DimensionMismatch(QRacahError):
    """Matrix or tensor dimensions are incompatible."""


class ExactnessError(QRacahError):
    """A value cannot be represented exactly in the exact backend."""


class InternalError(QRacahError):
    """An internal consistency assertion failed (likely a formula bug)."""
