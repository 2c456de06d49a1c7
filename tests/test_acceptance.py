"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Every assertion is exact (rational sign tests or integer counts);
the stated runtime bounds are asserted as well.
"""

import itertools
import random
import time
from fractions import Fraction as F

from perioddomains import classify as cf
from perioddomains import finflag as ffl
from perioddomains import rootdata as rd
from perioddomains import strata, weyl
from test_finflag import frobenius_point
from test_rootdata import coroot, inner_product, reference_apply
from test_weyl import min_coset_rep

SEED = 20240811
SAMPLES_PER_CONFIG = 200

RANK_LE_8 = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(2, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]
)

SWEEP_CONFIGS = (
    [(kind, rank, "split", 1) for kind, rank in
     [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
      ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("G2", 2), ("F4", 4)]]
    + [("A", rank, "unitary", 1) for rank in (2, 3, 4, 5)]
    + [(kind, rank, "split", t) for t in (2, 3)
       for kind, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2)]]
)

COEFF_POOL = [F(0), F(0), F(0), F(1), F(1), F(2), F(3), F(1, 2), F(5, 2)]


def _report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def dominant_from_coeffs(rs, coeffs):
    nu = (F(0),) * rs.ambient_dim
    for c, w in zip(coeffs, rs.fundamental_coweights):
        nu = tuple(a + c * b for a, b in zip(nu, w))
    return nu


def sample_entries(g, rng):
    return tuple(
        dominant_from_coeffs(
            g.base, [rng.choice(COEFF_POOL) for _ in range(g.base.rank)])
        for _ in range(g.res_degree)
    )


def certifying_factors(g, entries):
    """Factors certified codim-one by a vertex/simple-reflection pair."""
    rs = g.absolute
    flat = rd.assemble_nu(g, entries)
    w0 = weyl.longest_element(rs)
    w0nu = reference_apply(w0, flat)
    out = {}
    for i, omega in enumerate(rd.relative_coweights(g), start=1):
        for b in range(1, rs.rank + 1):
            sb = weyl.simple_reflection(rs, b)
            if inner_product(omega, reference_apply(sb, w0nu)) > 0:
                copy = (b - 1) // g.base.rank + 1
                out.setdefault(copy, []).append((i, b))
    return out


class _Sweep:
    """Shared classifier-vs-oracle sweep; computed once, reused by criteria 3/4/8."""

    results = None
    elapsed = None

    @classmethod
    def run(cls):
        if cls.results is not None:
            return cls.results
        start = time.monotonic()
        results = {}
        for idx, (kind, rank, form, t) in enumerate(SWEEP_CONFIGS):
            g = rd.build_group(kind, rank, form, t)
            rng = random.Random(SEED + 1000 * idx)
            rows = []
            for _ in range(SAMPLES_PER_CONFIG):
                entries = sample_entries(g, rng)
                classification = cf.classify(g, entries)
                report = strata.strata_report(g, entries)
                rows.append((entries, classification, report))
            results[(kind, rank, form, t)] = (g, rows)
        cls.results = results
        cls.elapsed = time.monotonic() - start
        return results


def test_criterion_1_bourbaki_property_suite():
    start = time.monotonic()
    for kind, rank in RANK_LE_8:
        rs = rd.build_root_system(kind, rank)
        ws = rs.fundamental_coweights
        for i in range(rank):
            for j in range(rank):
                assert inner_product(ws[i], coroot(rs.simple_roots[j])) == int(i == j)
                assert inner_product(ws[i], ws[j]) >= 0
        # the norm lower bound (w_i,w_i) >= (a_i,a_i)/2 holds for every type
        # except A, where it fails exactly at the end nodes; that failure is
        # the source of the nontrivial classification cases.
        for i, (w, a) in enumerate(zip(ws, rs.simple_roots), start=1):
            holds = inner_product(w, w) >= inner_product(a, a) / 2
            if kind == "A":
                assert holds == (i not in (1, rank))
            else:
                assert holds
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    _report(1, f"duality/positivity/norm-bound exact for {len(RANK_LE_8)} systems "
               f"({elapsed:.2f}s)")


def test_criterion_2_g2_constants():
    rs = rd.build_root_system("G2", 2)
    w1, w2 = rs.fundamental_coweights
    a1, a2 = rs.simple_roots
    assert inner_product(w1, w1) == 2
    assert inner_product(w1, w2) == 3
    assert inner_product(w2, w2) == 6
    assert inner_product(a1, a1) == 2
    assert inner_product(a2, a2) == 6
    _report(2, "G2 Gram constants (2, 3, 6; 2, 6) exact")


def test_criterion_3_classifier_oracle_equivalence():
    results = _Sweep.run()
    checked = drinfeld = 0
    for (kind, rank, form, t), (g, rows) in results.items():
        for entries, classification, report in rows:
            checked += 1
            is_drinfeld = classification.verdict == cf.VERDICT_DRINFELD
            assert is_drinfeld == (report.codim_y == 1), (
                kind, rank, form, t, entries)
            if is_drinfeld:
                drinfeld += 1
                certified = certifying_factors(g, entries)
                assert set(certified) == {classification.factor_index}, (
                    kind, rank, form, t, entries)
    assert _Sweep.elapsed < 300.0, f"sweep took {_Sweep.elapsed:.1f}s"
    _report(3, f"{checked} samples over {len(results)} configurations, "
               f"{drinfeld} codim-one cases, zero mismatches "
               f"({_Sweep.elapsed:.1f}s)")


def test_criterion_4_codim_one_witness_lengths():
    results = _Sweep.run()
    cases = 0
    for (kind, rank, form, t), (g, rows) in results.items():
        rs = g.absolute
        w0 = weyl.longest_element(rs)
        for entries, classification, report in rows:
            if report.codim_y != 1:
                continue
            cases += 1
            flat = rd.assemble_nu(g, entries)
            pd = weyl.parabolic_of(flat, rs)
            w0p = min_coset_rep(w0, pd.delta_p)
            assert reference_apply(w0, flat) == reference_apply(w0p, flat)
            assert pd.w0p_length == report.dim_f
            top_witnesses = {s.witness.root_perm for s in report.per_vertex
                             if s.dim == report.dim_y}
            for s in report.per_vertex:
                if s.dim == report.dim_y:
                    assert s.witness.length == pd.w0p_length - 1
            # the witness cell is the coset of s_beta w0 for a certifying beta
            matched = False
            for pairs in certifying_factors(g, entries).values():
                for _, b in pairs:
                    sb = weyl.simple_reflection(rs, b)
                    rep = min_coset_rep(sb * w0, pd.delta_p)
                    if rep.root_perm in top_witnesses:
                        matched = True
            assert matched, (kind, rank, form, t, entries)
    assert cases > 0
    _report(4, f"{cases} codim-one witnesses at length l(w0^P)-1 with "
               f"w0 nu = w0^P nu exact")


def test_criterion_5_finite_field_counts():
    expectations = [
        (2, 2, 1, (1, -1), 2),
        (2, 3, 1, (1, -1), 6),
        (3, 2, 1, (1, -1), 6),
        (2, 2, 2, (2, -1, -1), 0),
        (2, 3, 2, (2, -1, -1), 24),
    ]
    for q, m, ell, nu, expected in expectations:
        start = time.monotonic()
        _, verdicts = ffl.survey(q, 1, m, ell, nu, 2 ** 16)
        assert sum(a for _, a, _ in verdicts) == expected
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"count q={q} m={m} took {elapsed:.2f}s"
    _report(5, "semistable counts 2/6/6 (P1) and 0/24 (P2) exact")


def test_criterion_6_two_test_agreement():
    start = time.monotonic()
    grid = [(1, (1, -1))] + [(2, nu) for nu in ((2, -1, -1), (1, 1, -2), (1, 0, -1))]
    points = 0
    for q in (2, 3):
        for m in (1, 2, 3):
            ff = ffl.finite_field(q, 1, m)
            for ell, nu in grid:
                for x in ffl.enumerate_flags(ff, ell, ffl.flag_dims(nu)):
                    points += 1
                    assert ffl.is_semistable_subspace_test(x, nu, ff) == \
                        ffl.is_semistable_strata_test(x, nu, ff), (q, m, nu, x)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"criterion 6 took {elapsed:.1f}s"
    _report(6, f"subspace and strata tests agree on {points} points "
               f"({elapsed:.1f}s)")


def test_criterion_7_scalar_restriction_example():
    g = rd.build_group("A", 1, res_degree=2)
    c = cf.classify(g, ((1, -1), (0, 0)))
    assert c.verdict == cf.VERDICT_DRINFELD and c.ell == 1 and c.factor_index == 1
    c = cf.classify(g, ((1, -1), (1, -1)))
    assert c.verdict == cf.VERDICT_TRIVIAL

    # finite check at q=2: the working field is the quadratic extension F4;
    # the semistable locus of the equal-weights case is P1 x P1 minus a
    # twisted-diagonal copy of P1(F4): 25 - 5 = 20 points. A point is a pair
    # of flag points, one per copy, read by the general restriction route.
    ff = ffl.finite_field(2, 1, 2)
    nus = ((1, -1), (1, -1))
    lines = list(ffl.enumerate_flags(ff, 1, (1,)))
    pairs = list(itertools.product(lines, repeat=2))
    unstable = {x for x in pairs if not ffl.is_semistable_subspace_test(x, nus, ff)}
    assert unstable == {x for x in pairs if not ffl.is_semistable_strata_test(x, nus, ff)}
    assert unstable == {(x, frobenius_point(x, ff)) for x in lines}
    assert len(pairs) == 25 and len(unstable) == 5 == len(lines)
    _report(7, "degree-2 restriction example: verdicts and the 25-5=20 "
               "diagonal-complement count exact")


def test_criterion_8_scale_and_duality_invariance():
    results = _Sweep.run()
    rng = random.Random(SEED + 999)
    scaled_checked = flipped_checked = 0
    for (kind, rank, form, t), (g, rows) in results.items():
        for entries, classification, _ in rows[::10]:
            c = F(rng.randint(1, 12), rng.randint(1, 12))
            scaled = tuple(tuple(c * x for x in e) for e in entries)
            again = cf.classify(g, scaled)
            assert again.verdict == classification.verdict
            assert again.factor_index == classification.factor_index
            scaled_checked += 1
            if kind == "A" and form == "split":
                flipped = tuple(tuple(-x for x in reversed(e)) for e in entries)
                dual = cf.classify(g, flipped)
                assert dual.verdict == classification.verdict
                flipped_checked += 1
    # strata reports are scale invariant too; spot-check a few exactly
    g = rd.build_group("A", 2)
    for nu in ((2, -1, -1), (1, 1, -2), (1, 0, -1)):
        r1 = strata.strata_report(g, nu)
        r2 = strata.strata_report(g, tuple(F(7, 3) * F(x) for x in nu))
        assert (r1.dim_f, r1.dim_y, r1.codim_y) == (r2.dim_f, r2.dim_y, r2.codim_y)
    _report(8, f"verdicts invariant under {scaled_checked} rescalings and "
               f"{flipped_checked} duality flips")
