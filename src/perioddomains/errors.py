"""Exception types shared across the package."""


class PeriodDomainError(Exception):
    """Base class for all errors raised by this package."""


class IllegalType(PeriodDomainError):
    """Root-system kind/rank pair outside the supported range."""


class DimensionMismatch(PeriodDomainError):
    """Vectors or matrices of incompatible ambient dimension."""


class IndexOutOfRange(PeriodDomainError):
    """Simple-root or vertex index outside 1..rank."""


class NotDominant(PeriodDomainError):
    """A cocharacter with a negative simple-coroot pairing."""


class BudgetExceeded(PeriodDomainError):
    """An enumeration would exceed the caller-supplied budget."""


class ZeroDimensional(PeriodDomainError):
    """Slope of a zero-dimensional subspace requested."""


class SingularTransform(PeriodDomainError):
    """Basis change matrix is not invertible."""


class NotCodimOne(PeriodDomainError):
    """Semistable-locus description requested for a trivial classification."""


class MalformedNu(PeriodDomainError):
    """Cocharacter tuple violating its normal form."""


class ParseError(PeriodDomainError):
    """Config text could not be parsed; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class ValidationError(PeriodDomainError):
    """Config or argument parsed but semantically invalid."""


class InvariantViolation(PeriodDomainError):
    """A structural invariant failed: malformed input or an internal inconsistency."""
