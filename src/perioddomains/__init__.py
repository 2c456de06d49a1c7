"""Fundamental groups of period domains over finite fields.

Exact-rational root-system data, a closed-form classifier of pi_1 of the
semistable locus, and two independent oracles: the unstable Schubert
strata, read one double coset at a time on Dynkin labels, and finite-field
flag-point semistability enumeration.
"""

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    IllegalType,
    IndexOutOfRange,
    MalformedNu,
    NotDominant,
    ParseError,
    PeriodDomainError,
    ValidationError,
)
from .rootdata import (
    FORM_SPLIT,
    FORM_UNITARY,
    GroupDatum,
    Realization,
    RootSystemData,
    build_group,
    build_root_system,
    relative_coweights,
    vector,
)

__version__ = "0.1.0"
