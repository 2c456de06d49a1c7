"""Closed-form classification of pi_1 of the semistable locus.

No group enumeration happens here. The verdict is non-trivial exactly when
the base group is split of type A and some factor j of the cocharacter tuple
satisfies the margin inequality against the other factors:

    sum_{i != j} x_1^[i] < -x_2^[j]          (first jump step has multiplicity 1)
or  sum_{i != j} x_{l+1}^[i] > -x_l^[j]      (last jump step has multiplicity 1)

with x^[j] the sorted entries of factor j. At most one factor can satisfy
either inequality; in that case pi_1 is that of the Drinfeld space
Omega^(l+1) over the degree-t extension, and the unstable locus has
codimension one.

nu is read by `rootdata._read_nu`, as every route reads it: as integers, nu
scaled by one lcm L. Every sum and inequality is homogeneous in L, so only
printed values are divided by it, the `details` only when read. Each
type-A factor must sum to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolation, MalformedNu
from .rootdata import FORM_SPLIT, GroupDatum, _read_nu, format_vector

VERDICT_TRIVIAL = "trivial"
VERDICT_DRINFELD = "drinfeld"

SIDE_FIRST = "first_step"
SIDE_LAST = "last_step"


@dataclass(frozen=True)
class Classification:
    """Verdict plus the exact inequality values behind it, `details`, built
    when read from nu's `factors` (split type A only) and `scale`."""

    verdict: str
    ell: int | None
    factor_index: int | None
    side: str | None
    near_miss_factors: tuple[int, ...]
    factors: tuple[tuple[int, ...], ...] = ()
    scale: int = 1

    @property
    def details(self) -> dict[str, Fraction]:
        """Per factor j: x2, xl and the other factors' first and last sums."""
        factors, scale, details = self.factors, self.scale, {}
        first, last = sum(x[0] for x in factors), sum(x[-1] for x in factors)
        for j, x in enumerate(factors, start=1):
            for key, v in (("x2", x[1]), ("xl", x[-2]), ("sum_first_others", first - x[0]),
                           ("sum_last_others", last - x[-1])):
                details[f"{key}[{j}]"] = Fraction(v, scale)
        return details

    @property
    def codim_one(self) -> bool:
        """Whether the unstable locus has codimension one: a Drinfeld verdict."""
        return self.verdict == VERDICT_DRINFELD

    def pi1_label(self, res_degree: int = 1) -> str:
        if self.verdict == VERDICT_TRIVIAL:
            return "trivial"
        field = "k'" if res_degree > 1 else "k"
        return f"pi1(Omega^({self.ell + 1})/{field})"


def _fired_sides(x: tuple[int, ...], sum_first: int, sum_last: int) -> list[str]:
    """Sides on which factor x satisfies both step and margin conditions, given
    the sums of the other factors' first and last entries."""
    sides = []
    if x[1] < 0 and sum_first < -x[1]:
        sides.append(SIDE_FIRST)
    if x[-2] > 0 and sum_last > -x[-2]:
        sides.append(SIDE_LAST)
    return sides


def classify(g: GroupDatum, nu) -> Classification:
    """Decide pi_1 of the semistable locus for (g, nu)."""
    entries, scale, _ = _read_nu(g.base, g.res_degree, nu)
    for j, x in enumerate(entries, start=1):
        if g.base.kind == "A" and sum(x) != 0:
            shown_x = format_vector(Fraction(v, scale) for v in x)
            raise MalformedNu(f"factor {j} has nonzero coordinate sum: {shown_x}")
    ell = g.base.rank

    if g.base.kind != "A" or g.form != FORM_SPLIT:
        return Classification(VERDICT_TRIVIAL, None, None, None, ())

    fired: list[tuple[int, str]] = []
    near_miss: list[int] = []
    total_first = sum(e[0] for e in entries)
    total_last = sum(e[-1] for e in entries)
    for j, x in enumerate(entries, start=1):
        sides = _fired_sides(x, total_first - x[0], total_last - x[-1])
        if sides:
            fired.append((j, sides[0]))
        elif x[1] < 0 or x[-2] > 0:
            near_miss.append(j)

    if not fired:
        return Classification(VERDICT_TRIVIAL, ell, None, None, tuple(near_miss), entries, scale)
    if len({j for j, _ in fired}) != 1:
        raise InvariantViolation("margin inequality fired for two factors")
    j, side = fired[0]
    return Classification(VERDICT_DRINFELD, ell, j, side, tuple(near_miss), entries, scale)
