import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perioddomains import classify as cf
from perioddomains import rootdata as rd
from perioddomains import strata, weyl
from perioddomains.errors import (
    BudgetExceeded,
    IndexOutOfRange,
    NotDominant,
    PeriodDomainError,
)


def dominant_from_coeffs(rs, coeffs):
    nu = (F(0),) * rs.ambient_dim
    for c, w in zip(coeffs, rs.fundamental_coweights):
        nu = tuple(a + F(c) * b for a, b in zip(nu, w))
    return nu


def brute_report(g, nu_entries):
    """Independent slow route: explicit W^P enumeration with Fraction slopes.

    Each vertex gives (dim, cell count, reduced word of the first
    longest qualifying cell in enumeration order).
    """
    flat = rd.assemble_nu(g, nu_entries)
    pd = weyl.parabolic_of(flat, g.absolute)
    reps = list(weyl.enumerate_min_coset_reps(pd, g.absolute))
    images = [w.apply(flat) for w in reps]
    per_vertex = []
    for rc in rd.relative_coweights(g):
        # the GIT slope -(omega_i, w nu) of the cell is negative
        qualifying = [w for w, img in zip(reps, images)
                      if rd.inner_product(rc.vector, img) > 0]
        if not qualifying:
            per_vertex.append((None, 0, None))
            continue
        best = max(w.length for w in qualifying)
        witness = next(w for w in qualifying if w.length == best)
        per_vertex.append((best, len(qualifying), witness.word))
    seen = [d for d, _, _ in per_vertex if d is not None]
    dim_y = max(seen) if seen else None
    codim = pd.w0p_length - dim_y if dim_y is not None else math.inf
    return pd.w0p_length, tuple(per_vertex), dim_y, codim


def assert_matches_brute(g, entries):
    fast = strata.strata_report(g, entries)
    dim_f, per_vertex, dim_y, codim = brute_report(g, entries)
    assert fast.dim_f == dim_f
    assert tuple((s.dim, s.cell_count, s.witness.word if s.witness else None)
                 for s in fast.per_vertex) == per_vertex
    assert fast.dim_y == dim_y
    assert fast.codim_y == codim


def test_slope_on_cell_examples():
    gA1 = rd.build_group("A", 1)
    omega = rd.relative_coweights(gA1)[0]
    e = weyl.identity_element(gA1.absolute)
    assert strata.slope_on_cell(e, omega, (1, -1)) == -1
    assert strata.slope_on_cell(e, omega, (0, 0)) == 0
    s = weyl.simple_reflection(gA1.absolute, 1)
    assert strata.slope_on_cell(s, omega, (1, -1)) == 1


def test_top_cell_slope_positive_for_regular_nu():
    gA2 = rd.build_group("A", 2)
    rs = gA2.absolute
    nu = (2, 0, -2)
    pd = weyl.parabolic_of(rd.vector(nu), rs)
    w0p = weyl.min_coset_rep(weyl.longest_element(rs), pd.delta_p)
    for rc in rd.relative_coweights(gA2):
        assert strata.slope_on_cell(w0p, rc, nu) > 0


def test_dim_y_i_a1():
    g = rd.build_group("A", 1)
    s = strata.dim_y_i(g, (1, -1), 1)
    assert s.dim == 0 and s.cell_count == 1
    assert s.witness.length == 0


def test_dim_y_i_a2():
    g = rd.build_group("A", 2)
    s1 = strata.dim_y_i(g, (2, -1, -1), 1)
    s2 = strata.dim_y_i(g, (2, -1, -1), 2)
    assert (s1.dim, s1.cell_count) == (0, 1)
    assert (s2.dim, s2.cell_count) == (1, 2)
    assert s2.witness.word == (1,)


def test_dim_y_g2_regular_below_codim_one():
    g = rd.build_group("G2", 2)
    rs = g.base
    nu = dominant_from_coeffs(rs, (1, 1))
    report = strata.strata_report(g, nu)
    w0_len = len(rs.positive_roots)
    for s in report.per_vertex:
        assert s.dim is not None and s.dim <= w0_len - 2


def test_strata_report_a1():
    g = rd.build_group("A", 1)
    r = strata.strata_report(g, (1, -1))
    assert (r.dim_f, r.dim_y, r.codim_y) == (1, 0, 1)


def test_strata_report_a2_subregular():
    g = rd.build_group("A", 2)
    r = strata.strata_report(g, (2, -1, -1))
    assert (r.dim_f, r.dim_y, r.codim_y) == (2, 1, 1)


def test_strata_report_a2_middle_zero():
    g = rd.build_group("A", 2)
    r = strata.strata_report(g, (1, 0, -1))
    assert r.codim_y >= 2
    assert r.codim_y == 2  # exact value from the enumeration oracle


def test_strata_report_res_example():
    g = rd.build_group("A", 1, res_degree=2)
    r = strata.strata_report(g, ((1, -1), (0, 0)))
    assert (r.dim_f, r.dim_y, r.codim_y) == (1, 0, 1)
    r = strata.strata_report(g, ((1, -1), (1, -1)))
    assert (r.dim_f, r.dim_y, r.codim_y) == (2, 0, 2)


def test_strata_report_zero_nu():
    g = rd.build_group("A", 2)
    r = strata.strata_report(g, (0, 0, 0))
    assert r.dim_f == 0
    assert r.dim_y is None
    assert r.codim_y == math.inf


def test_strata_reject_non_dominant():
    g = rd.build_group("A", 2)
    with pytest.raises(NotDominant):
        strata.strata_report(g, (-1, 0, 1))


def test_dim_y_i_vertex_range():
    g = rd.build_group("A", 2)
    with pytest.raises(IndexOutOfRange):
        strata.dim_y_i(g, (1, 0, -1), 3)


def test_budget_propagates():
    g = rd.build_group("A", 3)
    with pytest.raises(BudgetExceeded):
        strata.strata_report(g, (3, 1, -1, -3), max_cells=5)


def test_negative_budget_rejected():
    g = rd.build_group("A", 3)
    for call in (lambda: strata.strata_report(g, (3, 1, -1, -3), max_cells=-1),
                 lambda: strata.dim_y_i(g, (3, 1, -1, -3), 1, max_cells=-1)):
        with pytest.raises(PeriodDomainError) as exc:
            call()
        assert not isinstance(exc.value, BudgetExceeded)


# Every base group here but E6 lies below strata.FULL_TABLE_MAX_ORDER and
# reads one table over all of W_base per copy; E6 reads per-parabolic W^P
# tables.
@pytest.mark.parametrize("kind,rank,form,t", [
    ("A", 2, "split", 1), ("A", 3, "split", 1), ("B", 2, "split", 1),
    ("G2", 2, "split", 1), ("A", 2, "unitary", 1), ("A", 1, "split", 2),
    ("A", 2, "split", 2), ("B", 2, "split", 2), ("A", 3, "split", 2),
    ("B", 2, "split", 3), ("F4", 4, "split", 1), ("A", 2, "unitary", 2),
    ("A", 3, "split", 3),
])
def test_fast_table_matches_fraction_route(kind, rank, form, t):
    g = rd.build_group(kind, rank, form, t)
    assert weyl.weyl_order(g.base) <= strata.FULL_TABLE_MAX_ORDER
    rng = random.Random(f"{kind}{rank} {form} t={t}")
    pool = [0, 0, 1, 2, F(1, 2), 3]
    # the Fraction route applies every element of W^P; on A3 t=3 (13,824
    # elements) a few samples take seconds
    samples = 3 if weyl.weyl_order(g.absolute) > 2 ** 12 else 25
    for _ in range(samples):
        entries = tuple(
            dominant_from_coeffs(g.base, [rng.choice(pool) for _ in range(g.base.rank)])
            for _ in range(t)
        )
        assert_matches_brute(g, entries)


@pytest.mark.parametrize("i", range(1, 7))
def test_fallback_table_matches_fraction_route(i):
    g = rd.build_group("E6", 6)
    assert weyl.weyl_order(g.absolute) > strata.FULL_TABLE_MAX_ORDER
    omega = g.base.fundamental_coweights[i - 1]
    assert_matches_brute(g, (omega,))


def test_product_of_parabolic_tables_matches_fraction_route():
    # E6 lies above strata.FULL_TABLE_MAX_ORDER, so each copy reads the W^P
    # table of its own Delta_P (27 cells each here)
    g = rd.build_group("E6", 6, res_degree=2)
    omegas = g.base.fundamental_coweights
    assert_matches_brute(g, (omegas[0], omegas[5]))


# An integerized entry of 2^62 trips the int64 bound whatever the table.
@pytest.mark.parametrize("kind,rank,t,coeffs", [
    ("A", 2, 1, [[2 ** 64, 1]]),
    ("A", 2, 1, [[3, 2 ** 64 + 1]]),
    ("B", 2, 2, [[2 ** 62, 1], [F(1, 2), 2 ** 61 + 3]]),
    ("E6", 6, 1, [[2 ** 64, 0, 0, 0, 0, 1]]),
], ids=["A2-first", "A2-second", "B2-t2", "E6"])
def test_exact_route_matches_fraction_route(kind, rank, t, coeffs):
    g = rd.build_group(kind, rank, res_degree=t)
    entries = tuple(dominant_from_coeffs(g.base, c) for c in coeffs)
    ints, _ = strata._copy_parabolics(g, entries)
    assert max(abs(x) for v in ints for x in v) >= 2 ** 62
    assert_matches_brute(g, entries)


@pytest.mark.parametrize("kind,rank", [("A", 3), ("B", 2)])
def test_product_element_matches_enumeration(kind, rank):
    # every element of W_base^3 built from its copies' table indices has the
    # root permutations, length and word of the breadth-first enumeration
    g = rd.build_group(kind, rank, res_degree=3)
    table = strata._qual_table(rd.build_group(kind, rank), ())
    build = strata._product_element.__wrapped__
    built = {}
    for parts in itertools.product(range(len(table.elements)), repeat=3):
        w = build(g, ((),) * 3, parts)
        built[w.root_perm] = w
    enumerated = list(weyl.enumerate_min_coset_reps(
        weyl.parabolic_from_subset(g.absolute, ()), g.absolute))
    assert len(built) == len(enumerated) == len(table.elements) ** 3
    for u in enumerated:
        w = built[u.root_perm]
        assert (w.inv_perm, w.length, w.word) == (u.inv_perm, u.length, u.word)


@pytest.mark.parametrize("kind,rank,t", [("A", 3, 4), ("A", 1, 8)])
def test_reach_past_product_enumeration(kind, rank, t):
    # |W| = 331,776 for A3 t=4: the report reads one 24-element table
    g = rd.build_group(kind, rank, res_degree=t)
    rng = random.Random(f"{kind}{rank} t={t} reach")
    pool = [0, 0, 1, 2, F(1, 2)]
    samples = [[[1] * rank] * t] + [
        [[rng.choice(pool) for _ in range(rank)] for _ in range(t)] for _ in range(12)]
    for coeffs in samples:
        entries = tuple(dominant_from_coeffs(g.base, c) for c in coeffs)
        report = strata.strata_report(g, entries)
        verdict = cf.classify(g, entries).verdict
        assert (verdict == cf.VERDICT_DRINFELD) == (report.codim_y == 1)


def test_budget_counts_product_cosets_before_any_table():
    g = rd.build_group("A", 3, res_degree=4)
    regular = (dominant_from_coeffs(g.base, [1, 1, 1]),) * 4
    before = strata._qual_table.cache_info()
    with pytest.raises(BudgetExceeded, match=r"\|W\^P\| = 331776 exceeds budget 331775"):
        strata.strata_report(g, regular, max_cells=331_775)
    after = strata._qual_table.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert strata.strata_report(g, regular, max_cells=331_776).dim_f == 24


def test_not_dominant_message_on_product():
    g = rd.build_group("A", 2, res_degree=2)
    entries = ((2, -1, -1), (-1, 0, 1))
    with pytest.raises(NotDominant) as expected:
        weyl.parabolic_of(rd.assemble_nu(g, entries), g.absolute)
    with pytest.raises(NotDominant) as got:
        strata.strata_report(g, entries)
    assert str(got.value) == str(expected.value) == \
        "negative pairing with simple coroots [3, 4]"


@pytest.mark.parametrize("kind,rank,t", [("E8", 8, 1), ("F4", 4, 1), ("F4", 4, 2)])
def test_integer_delta_matches_fraction_parabolic(kind, rank, t):
    # half-integral coordinates: the integer pairings with 2 alpha_j must
    # give Delta_P of the Fraction pairings with alpha_j^vee
    g = rd.build_group(kind, rank, res_degree=t)
    rng = random.Random(f"{kind}{rank} t={t} delta")
    pool = [0, 0, F(1, 2), 1, F(3, 2), F(1, 3)]
    for _ in range(40):
        entries = tuple(dominant_from_coeffs(g.base, [rng.choice(pool) for _ in range(rank)])
                        for _ in range(t))
        _, deltas = strata._copy_parabolics(g, entries)
        absolute = tuple(j * rank + i for j, d in enumerate(deltas) for i in d)
        assert absolute == weyl.parabolic_of(rd.assemble_nu(g, entries), g.absolute).delta_p


@given(st.lists(st.sampled_from([0, 1, 2, 3]), min_size=2, max_size=2),
       st.fractions(min_value=F(1, 7), max_value=7))
def test_scale_invariance(coeffs, c):
    g = rd.build_group("A", 2)
    nu = dominant_from_coeffs(g.base, coeffs)
    scaled = tuple(c * x for x in nu)
    r1 = strata.strata_report(g, nu)
    r2 = strata.strata_report(g, scaled)
    assert (r1.dim_f, r1.dim_y, r1.codim_y) == (r2.dim_f, r2.dim_y, r2.codim_y)
    assert [s.dim for s in r1.per_vertex] == [s.dim for s in r2.per_vertex]


def test_equivariance_identity(rng):
    # (omega_i, s_b w0 nu) = (s_b omega_i, w0 nu) as an exact identity
    for kind, rank in [("A", 3), ("B", 3), ("G2", 2)]:
        g = rd.build_group(kind, rank)
        rs = g.base
        w0 = weyl.longest_element(rs)
        for _ in range(50):
            nu = dominant_from_coeffs(rs, [rng.randint(0, 3) for _ in range(rank)])
            w0nu = w0.apply(nu)
            for rc in rd.relative_coweights(g):
                for b in range(1, rank + 1):
                    sb = weyl.simple_reflection(rs, b)
                    lhs = rd.inner_product(rc.vector, sb.apply(w0nu))
                    rhs = rd.inner_product(sb.apply(rc.vector), w0nu)
                    assert lhs == rhs


@pytest.mark.parametrize("kind,rank,form,t", [
    ("A", 3, "split", 1), ("A", 4, "unitary", 1), ("B", 2, "split", 1),
    ("A", 2, "split", 2),
])
def test_reflection_formula_on_relative_coweights(kind, rank, form, t):
    # s_b(omega_i) is omega_i - beta when beta lies in the orbit of vertex i,
    # and fixes omega_i otherwise
    g = rd.build_group(kind, rank, form, t)
    rs = g.absolute
    for rc in rd.relative_coweights(g):
        orbit = set(g.galois_orbits[rc.index - 1])
        for b in range(1, rs.rank + 1):
            sb = weyl.simple_reflection(rs, b)
            image = sb.apply(rc.vector)
            if b in orbit:
                beta = rs.simple_roots[b - 1]
                assert image == tuple(x - y for x, y in zip(rc.vector, beta))
            else:
                assert image == rc.vector


def test_anti_dominance_of_w0_nu(rng):
    for kind, rank in [("A", 3), ("B", 3), ("C", 3), ("G2", 2)]:
        g = rd.build_group(kind, rank)
        rs = g.base
        w0 = weyl.longest_element(rs)
        for _ in range(30):
            nu = dominant_from_coeffs(rs, [rng.randint(0, 2) for _ in range(rank)])
            w0nu = w0.apply(nu)
            for rc in rd.relative_coweights(g):
                assert rd.inner_product(rc.vector, w0nu) <= 0


def codim_one_by_simple_reflection(g, entries):
    """Codim-1 test straight from the length-(l(w0)-1) cells: some s_b w0."""
    rs = g.absolute
    flat = rd.assemble_nu(g, entries)
    w0 = weyl.longest_element(rs)
    w0nu = w0.apply(flat)
    for rc in rd.relative_coweights(g):
        for b in range(1, rs.rank + 1):
            sb = weyl.simple_reflection(rs, b)
            if rd.inner_product(rc.vector, sb.apply(w0nu)) > 0:
                return True
    return False


@pytest.mark.parametrize("kind,rank,form,t", [
    ("A", 1, "split", 1), ("A", 2, "split", 1), ("A", 3, "split", 1),
    ("A", 4, "split", 1), ("B", 2, "split", 1), ("B", 3, "split", 1),
    ("C", 3, "split", 1), ("D", 4, "split", 1), ("G2", 2, "split", 1),
    ("F4", 4, "split", 1), ("A", 2, "unitary", 1), ("A", 5, "unitary", 1),
    ("A", 1, "split", 2), ("A", 2, "split", 3), ("B", 2, "split", 2),
])
def test_codim_one_bridge(kind, rank, form, t):
    # codim Y == 1 from the enumeration exactly when some vertex and simple
    # reflection certify it on the antidominant side
    g = rd.build_group(kind, rank, form, t)
    rng = random.Random(f"{kind}{rank} {form} t={t} bridge")
    pool = [0, 0, 1, 1, 2, 3, F(1, 2)]
    for _ in range(40):
        entries = tuple(
            dominant_from_coeffs(g.base, [rng.choice(pool) for _ in range(g.base.rank)])
            for _ in range(t)
        )
        report = strata.strata_report(g, entries)
        assert (report.codim_y == 1) == codim_one_by_simple_reflection(g, entries)


def test_witness_is_first_in_bfs_order():
    g = rd.build_group("A", 2)
    r = strata.strata_report(g, (2, -1, -1))
    s2 = r.per_vertex[1]
    # cells of Y_2 are e and s1; the max-length witness is s1
    assert s2.witness.word == (1,)
    assert s2.witness.length == s2.dim
