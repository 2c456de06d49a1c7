"""flag_agree and flag_count: flag points through the finflag semistability tests."""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from fractions import Fraction as F
from functools import partial

from perioddomains import finflag as ffl


GRID_FIELDS = {"full": ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)),
               "tiny": ((2, 1), (2, 2))}
GRID_NUS = ((1, -1), (2, -1, -1), (1, 1, -2), (1, 0, -1))
# Semistable points of the grid cells (q, m, nu) that a unit runs in full,
# including criterion 5's 2/6/6 on P^1 and 0/24 on P^2.
PINNED_SEMISTABLE = {
    (2, 1, (1, -1)): 0, (2, 1, (2, -1, -1)): 0, (2, 1, (1, 1, -2)): 0, (2, 1, (1, 0, -1)): 0,
    (2, 2, (1, -1)): 2, (2, 2, (2, -1, -1)): 0, (2, 2, (1, 1, -2)): 0,
    (2, 3, (1, -1)): 6, (2, 3, (2, -1, -1)): 24, (2, 3, (1, 1, -2)): 24,
    (3, 1, (1, -1)): 0, (3, 1, (2, -1, -1)): 0, (3, 1, (1, 1, -2)): 0, (3, 1, (1, 0, -1)): 0,
    (3, 2, (1, -1)): 6, (3, 2, (2, -1, -1)): 0, (3, 2, (1, 1, -2)): 0,
    (3, 3, (1, -1)): 24,
}
# The whole grid has 24,924 points and takes about 45 s, 90% of it in the
# 21,196 full flags over F_27. A unit runs every cell of at most
# COMPLETE_CELL points in full, which pins their counts, and a seeded sample
# of SAMPLE_SHARE of each larger cell, so time splits across cells much as
# in the whole grid.
COMPLETE_CELL = 100
SAMPLE_SHARE = F(1, 16)


def _cell_label(q, m, nu):
    return f"F_{q}^{m} nu={','.join(str(x) for x in nu)}"


class FlagAgree:
    """Both semistability tests on one flag point per op, over a stratified
    sample of the criterion-6 grid in seeded order."""

    def __init__(self, seed: int, size: str, tr):
        rng = random.Random(seed)
        self.points = []
        self.pinned = {}
        for q, m in GRID_FIELDS[size]:
            with tr.span("finflag.finite_field"):
                ff = ffl.finite_field(q, 1, m)
            for nu in GRID_NUS:
                cell = (q, m, nu)
                with tr.span("finflag.enumerate_flags"):
                    pts = list(ffl.enumerate_flags(ff, len(nu) - 1, ffl.flag_dims(nu)))
                if len(pts) <= COMPLETE_CELL:
                    self.pinned[cell] = PINNED_SEMISTABLE[cell]
                else:
                    keep = sorted(rng.sample(range(len(pts)), round(len(pts) * SAMPLE_SHARE)))
                    pts = [pts[k] for k in keep]
                self.points += [(cell, ff, x) for x in pts]
        rng.shuffle(self.points)
        self.counts = Counter()

    def ops(self, tr):
        for cell, ff, x in self.points:
            yield (_cell_label(*cell), partial(self._call, tr, x, cell[2], ff),
                   partial(self._check, cell))

    @staticmethod
    def _call(tr, x, nu, ff):
        with tr.span("finflag.is_semistable_subspace_test") as attrs:
            a = attrs["ss"] = ffl.is_semistable_subspace_test(x, nu, ff)
        with tr.span("finflag.is_semistable_strata_test") as attrs:
            b = attrs["ss"] = ffl.is_semistable_strata_test(x, nu, ff)
        return a, b

    def _check(self, cell, value):
        a, b = value
        self.counts[cell] += a
        return int(a != b), f"{int(a)}{int(b)}"

    def finish(self) -> int:
        wrong = [cell for cell, want in self.pinned.items() if self.counts[cell] != want]
        for cell in wrong:
            print(f"flag_agree: {_cell_label(*cell)} has {self.counts[cell]} semistable "
                  f"points, pinned {self.pinned[cell]}", file=sys.stderr)
        return len(wrong)


# ---------------------------------------------------------------------------
# flag_count


# Drinfeld cells (p, e, m, ell): P^ell over F_{q^m} with q = p^e and
# nu = (ell, -1, ..., -1). Orders 27 and 32 use the dense add/mul tables;
# 4096, 6561 and 16384 lie past the dense limit of 256 and use Zech logs.
DRINFELD_CELLS = {
    "full": ((2, 1, 5, 2), (3, 1, 3, 2), (2, 1, 12, 1), (3, 1, 8, 1), (2, 1, 14, 1)),
    "tiny": ((2, 1, 3, 2), (2, 1, 9, 1)),
}


class FlagCount:
    """One enumerated point through the subspace test per op, over every
    point of every cell, interleaved in a seeded order; the unit ends by
    comparing each count with the closed form prod_{i=1}^{ell} (q^m - q^i)."""

    def __init__(self, seed: int, size: str, tr):
        self.cells = []
        for p, e, m, ell in DRINFELD_CELLS[size]:
            with tr.span("finflag.finite_field"):
                ff = ffl.finite_field(p, e, m)
            q = p ** e
            order = q ** m
            self.cells.append({
                "label": f"P^{ell} F_{q}^{m}", "ff": ff, "ell": ell,
                "nu": (ell,) + (-1,) * ell,
                "points": sum(order ** i for i in range(ell + 1)),
                "semistable": math.prod(order - q ** i for i in range(1, ell + 1)),
            })
        self.order = [k for k, cell in enumerate(self.cells) for _ in range(cell["points"])]
        random.Random(seed).shuffle(self.order)
        self.counts = [0] * len(self.cells)
        self.enumerators = []

    def ops(self, tr):
        self.enumerators = [ffl.enumerate_flags(c["ff"], c["ell"], ffl.flag_dims(c["nu"]))
                            for c in self.cells]
        for k in self.order:
            cell = self.cells[k]
            yield (cell["label"],
                   partial(self._call, tr, self.enumerators[k], cell["nu"], cell["ff"]),
                   partial(self._check, k))

    @staticmethod
    def _call(tr, points, nu, ff):
        with tr.span("finflag.enumerate_flags"):
            x = next(points)
        with tr.span("finflag.is_semistable_subspace_test") as attrs:
            ss = attrs["ss"] = ffl.is_semistable_subspace_test(x, nu, ff)
        return ss

    def _check(self, k, value):
        self.counts[k] += value
        return 0, str(int(value))

    def finish(self) -> int:
        failures = 0
        for cell, count, rest in zip(self.cells, self.counts, self.enumerators):
            extra = sum(1 for _ in rest)
            if count != cell["semistable"] or extra:
                print(f"flag_count: {cell['label']} has {count} semistable points "
                      f"(closed form {cell['semistable']}) and {extra} points too many",
                      file=sys.stderr)
                failures += 1
        return failures
