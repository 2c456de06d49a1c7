"""Exception types shared across the package, how a message quotes a token, the budget rule."""

# a message quotes at most this many characters of one token or count
SHOWN = 40


def shown(token: str | int) -> str:
    """A token as a message quotes it, a string by repr and an int in decimal:
    whole up to SHOWN characters, else its first SHOWN and its length. An int
    too long for str() to print is cut before it is printed."""
    if isinstance(token, str):
        return repr(token) if len(token) <= SHOWN else \
            f"{token[:SHOWN]!r}... ({len(token)} characters)"
    size = abs(token)
    digits = size.bit_length() * 3 // 10  # at most its digits, since log10(2) > 0.3
    while 10 ** digits <= size:
        digits += 1
    return str(token) if digits <= SHOWN else \
        f"{'-' * (token < 0)}{size // 10 ** (digits - SHOWN)}... ({digits} digits)"


class PeriodDomainError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PeriodDomainError):
    """Config or argument parsed but semantically invalid."""


class IllegalType(ValidationError):
    """Root-system kind/rank pair outside the supported range."""


class DimensionMismatch(ValidationError):
    """Vectors or matrices of incompatible ambient dimension."""


class IndexOutOfRange(PeriodDomainError):
    """Simple-root or vertex index outside 1..rank."""


class BudgetExceeded(PeriodDomainError):
    """An enumeration would exceed the caller-supplied budget."""


class MalformedNu(ValidationError):
    """Cocharacter tuple violating its normal form."""


class NotDominant(MalformedNu):
    """A cocharacter with a negative simple-coroot pairing."""


class ParseError(PeriodDomainError):
    """Config text could not be parsed; its message names the offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")


class InvariantViolation(PeriodDomainError):
    """A structural invariant failed: malformed input or an internal inconsistency."""


def check_budget(budget: int | None) -> None:
    """Refuse a negative budget: the CLI's, `strata_report`'s and `survey`'s."""
    if budget is not None and budget < 0:
        raise ValidationError(f"budget must be nonnegative, got {shown(budget)}")
