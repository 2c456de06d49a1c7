"""coset_sweep: classify plus strata_report over the criterion-3 configurations."""

from __future__ import annotations

import random
from fractions import Fraction as F
from functools import partial

from perioddomains import classify as cf
from perioddomains import rootdata as rd
from perioddomains import strata, weyl


# SWEEP_CONFIGS and COEFF_POOL mirror the criterion-3 sweep of the acceptance
# suite. They are copied rather than imported so that the benchmark keeps
# measuring the same inputs when the tests are reorganised.
SWEEP_CONFIGS = (
    [(kind, rank, "split", 1) for kind, rank in
     [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
      ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("G2", 2), ("F4", 4)]]
    + [("A", rank, "unitary", 1) for rank in (2, 3, 4, 5)]
    + [(kind, rank, "split", t) for t in (2, 3)
       for kind, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2)]]
)
COEFF_POOL = [F(0), F(0), F(0), F(1), F(1), F(2), F(3), F(1, 2), F(5, 2)]
_NONZERO_POOL = [c for c in COEFF_POOL if c]

# Which coefficients vanish decides the parabolic, so it decides whether a
# report builds a coset table or reuses one, and how large the table is.
# With i.i.d. draws that alone moved ops_per_s by 25% between seeds. So the
# zero pattern follows this fixed stream, with COEFF_POOL's zero share, and
# the seed draws the nonzero values: every seed does the same table work.
PATTERN_SEED = 20240811
SWEEP_ROUNDS = {"full": 40, "tiny": 10}


def dominant_from_coeffs(rs, coeffs):
    nu = (F(0),) * rs.ambient_dim
    for c, w in zip(coeffs, rs.fundamental_coweights):
        nu = tuple(a + c * b for a, b in zip(nu, w))
    return nu


class CosetSweep:
    """classify plus strata_report on one sampled cocharacter tuple per op,
    round-robin over the criterion-3 configurations."""

    def __init__(self, seed: int, size: str, tr):
        configs = SWEEP_CONFIGS if size == "full" else SWEEP_CONFIGS[:4]
        self.groups = []
        for kind, rank, form, t in configs:
            with tr.span("rootdata.build_group"):
                g = rd.build_group(kind, rank, form, t)
            self.groups.append((f"{kind}{rank} {form} t={t}", g))
        self.seed = seed
        self.rounds = SWEEP_ROUNDS[size]

    def _coeff(self, patterns, values):
        if patterns.randrange(len(COEFF_POOL)) < COEFF_POOL.count(0):
            return F(0)
        return values.choice(_NONZERO_POOL)

    def ops(self, tr):
        patterns, values = random.Random(PATTERN_SEED), random.Random(self.seed)
        orders = {label: weyl.weyl_order(g.absolute) for label, g in self.groups}
        seen = set()
        for _ in range(self.rounds):
            for label, g in self.groups:
                entries = tuple(
                    dominant_from_coeffs(g.base, [self._coeff(patterns, values)
                                                  for _ in range(g.base.rank)])
                    for _ in range(g.res_degree))
                pd = weyl.parabolic_of(rd.assemble_nu(g, entries), g.absolute)
                cold = (label, pd.delta_p) not in seen
                seen.add((label, pd.delta_p))
                cosets = orders[label] // pd.w_p_order if cold else 0
                yield label, partial(self._call, tr, g, entries, cold, cosets), self._check

    @staticmethod
    def _call(tr, g, entries, cold, cosets):
        with tr.span("classify.classify"):
            c = cf.classify(g, entries)
        with tr.span("strata.strata_report", cold=cold, cosets=cosets):
            r = strata.strata_report(g, entries)
        return c, r

    @staticmethod
    def _check(value):
        c, r = value
        vertices = ";".join(f"{s.dim},{s.cell_count}" for s in r.per_vertex)
        record = f"{c.verdict} {c.factor_index} {r.dim_f} {r.dim_y} {r.codim_y} {vertices}"
        return int((c.verdict == cf.VERDICT_DRINFELD) != (r.codim_y == 1)), record

    def finish(self) -> int:
        return 0
