import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perioddomains import classify as cf
from perioddomains import cli
from perioddomains import rootdata as rd
from perioddomains import strata, weyl
from perioddomains.errors import (
    BudgetExceeded,
    NotDominant,
    PeriodDomainError,
)
from test_acceptance import SWEEP_CONFIGS, dominant_from_coeffs
from test_rootdata import coroot, galois_orbits, inner_product, reference_apply, simple_roots
from test_weyl import min_coset_rep


def slope_on_cell(w, omega, nu):
    """GIT slope on the cell BwP/P for vertex omega: -(omega, w nu).

    The cell lies in Y_i exactly when the returned value is negative.
    """
    return -inner_product(rd.vector(omega), reference_apply(w, nu))


def brute_report(g, nu_entries):
    """Independent slow route: explicit W^P enumeration with Fraction slopes.

    Each vertex gives (dim, cell count, reduced word of the first
    longest qualifying cell in enumeration order). Every element's word is
    (i,) + its predecessor's word, so each image w nu is one Fraction
    reflection of an earlier one.
    """
    rs = g.absolute
    flat = rd.assemble_nu(g, nu_entries)
    pd = weyl.parabolic_of(flat, rs)
    reps = list(weyl.enumerate_min_coset_reps(pd, rs))
    reflections = [weyl.simple_reflection(rs, i) for i in range(1, rs.rank + 1)]
    by_word = {}
    for w in reps:
        by_word[w.word] = (reference_apply(reflections[w.word[0] - 1], by_word[w.word[1:]])
                           if w.word else flat)
    images = [by_word[w.word] for w in reps]
    per_vertex = []
    for omega in rd.relative_coweights(g):
        # the GIT slope -(omega_i, w nu) of the cell is negative
        qualifying = [w for w, img in zip(reps, images)
                      if inner_product(omega, img) > 0]
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
    assert slope_on_cell(e, omega, (1, -1)) == -1
    assert slope_on_cell(e, omega, (0, 0)) == 0
    s = weyl.simple_reflection(gA1.absolute, 1)
    assert slope_on_cell(s, omega, (1, -1)) == 1


def test_top_cell_slope_positive_for_regular_nu():
    gA2 = rd.build_group("A", 2)
    rs = gA2.absolute
    nu = (2, 0, -2)
    pd = weyl.parabolic_of(rd.vector(nu), rs)
    w0p = min_coset_rep(weyl.longest_element(rs), pd.delta_p)
    for omega in rd.relative_coweights(gA2):
        assert slope_on_cell(w0p, omega, nu) > 0


def test_dim_y_i_a1():
    g = rd.build_group("A", 1)
    (s,) = strata.strata_report(g, (1, -1)).per_vertex
    assert s.dim == 0 and s.cell_count == 1
    assert s.witness.length == 0


def test_dim_y_i_a2():
    g = rd.build_group("A", 2)
    s1, s2 = strata.strata_report(g, (2, -1, -1)).per_vertex
    assert (s1.dim, s1.cell_count) == (0, 1)
    assert (s2.dim, s2.cell_count) == (1, 2)
    assert s2.witness.word == (1,)


def test_dim_y_g2_regular_below_codim_one():
    g = rd.build_group("G2", 2)
    rs = g.base
    nu = dominant_from_coeffs(rs, (1, 1))
    report = strata.strata_report(g, nu)
    w0_len = len(rs.positive_coefficients)
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
    # one stratum per relative vertex, in order
    for g in (rd.build_group("A", 2), rd.build_group("A", 3, "unitary"),
              rd.build_group("A", 1, res_degree=3)):
        nu = [(1,) + (0,) * (g.base.rank - 1) + (-1,)] * g.res_degree
        report = strata.strata_report(g, nu)
        assert [s.index for s in report.per_vertex] == list(range(1, len(rd.relative_coweights(g)) + 1))


def test_budget_propagates():
    g = rd.build_group("A", 3)
    with pytest.raises(BudgetExceeded):
        strata.strata_report(g, (3, 1, -1, -3), max_cells=5)


def test_negative_budget_rejected():
    g = rd.build_group("A", 3)
    with pytest.raises(PeriodDomainError) as exc:
        strata.strata_report(g, (3, 1, -1, -3), max_cells=-1)
    assert not isinstance(exc.value, BudgetExceeded)


@pytest.mark.parametrize("kind,rank,form,t", SWEEP_CONFIGS + [("A", 2, "unitary", 2)])
def test_fast_table_matches_fraction_route(kind, rank, form, t):
    # the double-coset route against W^P enumeration on every criterion-3
    # configuration: the regular and the zero nu, then seeded nus
    g = rd.build_group(kind, rank, form, t)
    rng = random.Random(f"{kind}{rank} {form} t={t}")
    pool = [0, 0, 1, 2, F(1, 2), 3]
    # the Fraction route visits every element of W^P; on A3 t=3 (13,824
    # elements) each nu takes seconds
    samples = 3 if weyl.weyl_order(g.absolute) > 2 ** 12 else 25
    coeffs = [[[1] * rank] * t, [[0] * rank] * t] + [
        [[rng.choice(pool) for _ in range(rank)] for _ in range(t)] for _ in range(samples)]
    for c in coeffs:
        assert_matches_brute(g, tuple(dominant_from_coeffs(g.base, x) for x in c))


def _orbit_branches(g, entries):
    """The orbits the route searches over the vertices: True for that of
    omega_i (|W/W_{P_i}| <= |W/W_P|), False for that of nu_P."""
    rs = g.absolute
    order_p = weyl.parabolic_of(rd.assemble_nu(g, entries), rs).w_p_order
    return {weyl._parabolic(
        rs, tuple(k for k in range(1, rs.rank + 1) if k not in orbit)).w_p_order >= order_p
        for orbit in galois_orbits(g)}


@pytest.mark.parametrize("kind,rank,i", [("E6", 6, 1), ("E7", 7, 1), ("E7", 7, 7)])
def test_maximal_parabolics_take_both_orbit_branches(kind, rank, i):
    # some vertices search the orbit of omega_i, the others that of nu_P
    g = rd.build_group(kind, rank)
    assert _orbit_branches(g, (g.base.fundamental_coweights[i - 1],)) == {True, False}


@pytest.mark.parametrize("i", range(1, 8))
def test_e7_maximal_parabolics_match_enumeration(i):
    g = rd.build_group("E7", 7)
    omega = g.base.fundamental_coweights[i - 1]
    assert_matches_brute(g, (omega,))


def test_e7_regular_under_default_budget():
    # |W^P| = 2,903,040 cells, but 17,642 orbit elements over the 7 vertices
    g = rd.build_group("E7", 7)
    rho = dominant_from_coeffs(g.base, [1] * 7)
    start = time.perf_counter()
    report = strata.strata_report(g, rho, max_cells=cli.DEFAULT_BUDGET)
    assert time.perf_counter() - start < 1.0
    assert (report.dim_f, report.dim_y, report.codim_y) == (63, 49, 14)
    assert cf.classify(g, (rho,)).verdict != cf.VERDICT_DRINFELD
    with pytest.raises(BudgetExceeded, match=r"^17642 orbit elements exceed budget 17641$"):
        strata.strata_report(g, rho, max_cells=17_641)


@pytest.mark.parametrize("i", range(1, 7))
def test_fallback_table_matches_fraction_route(i):
    g = rd.build_group("E6", 6)
    omega = g.base.fundamental_coweights[i - 1]
    assert_matches_brute(g, (omega,))


def test_product_of_parabolic_tables_matches_fraction_route():
    # each copy has its own Delta_P (27 cells each here)
    g = rd.build_group("E6", 6, res_degree=2)
    omegas = g.base.fundamental_coweights
    assert_matches_brute(g, (omegas[0], omegas[5]))


# Integerized entries of 2^62 and more: the pairings stay exact integers.
@pytest.mark.parametrize("kind,rank,t,coeffs", [
    ("A", 2, 1, [[2 ** 64, 1]]),
    ("A", 2, 1, [[3, 2 ** 64 + 1]]),
    ("B", 2, 2, [[2 ** 62, 1], [F(1, 2), 2 ** 61 + 3]]),
    ("E6", 6, 1, [[2 ** 64, 0, 0, 0, 0, 1]]),
], ids=["A2-first", "A2-second", "B2-t2", "E6"])
def test_exact_route_matches_fraction_route(kind, rank, t, coeffs):
    g = rd.build_group(kind, rank, res_degree=t)
    entries = tuple(dominant_from_coeffs(g.base, c) for c in coeffs)
    ints, _, _ = rd.integer_pairings(g.base, entries)
    assert max(abs(x) for v in ints for x in v) >= 2 ** 62
    assert_matches_brute(g, entries)


@pytest.mark.parametrize("kind,rank", [("A", 3), ("B", 2)])
def test_product_element_matches_enumeration(kind, rank):
    # the longest cell of W_base^3 built from one double coset per copy is the
    # enumeration's element, word included, and the root-permutation order on
    # W_base^3 is lexicographic over the copies' longest cells
    g = rd.build_group(kind, rank, res_degree=3)
    vertex_deltas = strata._vertex_data(g.base, g.form)
    enumerated = {u.root_perm: u for u in weyl.enumerate_min_coset_reps(
        weyl._parabolic(g.absolute, ()), g.absolute)}
    for delta_pi in vertex_deltas:
        mus = strata._double_cosets(g.base, (), delta_pi)[2]
        built = []
        for parts in itertools.product(mus, repeat=3):
            copies = [strata._top_cell(g.base, delta_pi, (), mu) for mu in parts]
            w = strata._lift(g, copies)
            u = enumerated[w.root_perm]
            assert (w.length, w.word) == (u.length, u.word)
            assert w.length == sum(c.length for c in copies)
            built.append((w.root_perm, [c.root_perm for c in copies]))
        assert sorted(built) == sorted(built, key=lambda b: b[1])


@pytest.mark.parametrize("kind,rank,form", [("A", 3, "split"), ("B", 3, "split"),
                                            ("A", 4, "unitary")])
def test_every_degree_reads_the_records_of_its_base(kind, rank, form):
    # the double cosets are kept per (base system, form, Delta_P, vertex): a
    # t = 2 report after a t = 1 report on the same parabolic builds none
    base = rd.build_group(kind, rank, form)
    nu = dominant_from_coeffs(base.base, [1] + [0] * (rank - 1))
    first = strata.strata_report(base, nu)
    misses = strata._double_cosets.cache_info().misses
    second = strata.strata_report(rd.build_group(kind, rank, form, 2), (nu, nu))
    assert strata._double_cosets.cache_info().misses == misses
    assert second.dim_f == 2 * first.dim_f


@pytest.mark.parametrize("kind,rank,t", [("A", 3, 4), ("A", 1, 8)])
def test_reach_past_product_enumeration(kind, rank, t):
    # |W| = 331,776 for A3 t=4: each copy reads at most 6 double cosets per vertex
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
    # max_cells bounds the orbit elements visited, per copy and vertex the
    # smaller of |W/W_{P_i}| and |W/W_P|: here 4 * (4 + 6 + 4), not |W| = 331,776
    g = rd.build_group("A", 3, res_degree=4)
    regular = (dominant_from_coeffs(g.base, [1, 1, 1]),) * 4
    strata._double_cosets.cache_clear()
    with pytest.raises(BudgetExceeded, match=r"^56 orbit elements exceed budget 55$"):
        strata.strata_report(g, regular, max_cells=55)
    assert strata._double_cosets.cache_info().currsize == 0
    assert strata.strata_report(g, regular, max_cells=56).dim_f == 24


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
    # give Delta_P of the Fraction pairings with alpha_j^vee, computed here
    g = rd.build_group(kind, rank, res_degree=t)
    rng = random.Random(f"{kind}{rank} t={t} delta")
    pool = [0, 0, F(1, 2), 1, F(3, 2), F(1, 3)]
    for _ in range(40):
        entries = tuple(dominant_from_coeffs(g.base, [rng.choice(pool) for _ in range(rank)])
                        for _ in range(t))
        _, _, pairings = rd.integer_pairings(g.base, entries)
        (absolute,) = rd.dominant_delta(pairings, g.absolute.rank)
        # per copy, Delta_P is the flat one cut at the copies' boundaries
        assert rd.dominant_delta(pairings, rank) == tuple(
            tuple(k - j * rank for k in absolute if j * rank < k <= (j + 1) * rank)
            for j in range(t))
        flat = rd.assemble_nu(g, entries)
        reference = [inner_product(flat, coroot(a)) for a in simple_roots(g.absolute)]
        assert absolute == tuple(k + 1 for k, c in enumerate(reference) if c == 0)


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
            w0nu = reference_apply(w0, nu)
            for omega in rd.relative_coweights(g):
                for b in range(1, rank + 1):
                    sb = weyl.simple_reflection(rs, b)
                    lhs = inner_product(omega, reference_apply(sb, w0nu))
                    rhs = inner_product(reference_apply(sb, omega), w0nu)
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
    for omega, orbit in zip(rd.relative_coweights(g), galois_orbits(g), strict=True):
        for b in range(1, rs.rank + 1):
            sb = weyl.simple_reflection(rs, b)
            image = reference_apply(sb, omega)
            if b in orbit:
                beta = simple_roots(rs)[b - 1]
                assert image == tuple(x - y for x, y in zip(omega, beta))
            else:
                assert image == omega


def test_anti_dominance_of_w0_nu(rng):
    for kind, rank in [("A", 3), ("B", 3), ("C", 3), ("G2", 2)]:
        g = rd.build_group(kind, rank)
        rs = g.base
        w0 = weyl.longest_element(rs)
        for _ in range(30):
            nu = dominant_from_coeffs(rs, [rng.randint(0, 2) for _ in range(rank)])
            w0nu = reference_apply(w0, nu)
            for omega in rd.relative_coweights(g):
                assert inner_product(omega, w0nu) <= 0


def codim_one_by_simple_reflection(g, entries):
    """Codim-1 test straight from the length-(l(w0)-1) cells: some s_b w0."""
    rs = g.absolute
    flat = rd.assemble_nu(g, entries)
    w0 = weyl.longest_element(rs)
    w0nu = reference_apply(w0, flat)
    for omega in rd.relative_coweights(g):
        for b in range(1, rs.rank + 1):
            sb = weyl.simple_reflection(rs, b)
            if inner_product(omega, reference_apply(sb, w0nu)) > 0:
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


@pytest.mark.parametrize("nu", [(2, -1, -1), ((2, -1, -1), (0, 0, 0))], ids=["t1", "t2"])
def test_witness_is_found_on_first_read(nu, monkeypatch):
    # a report builds no cell; the first read of a witness runs its search,
    # a second read returns that object, and the search holds its records,
    # so clearing the caches between report and read changes nothing
    entries = nu if isinstance(nu[0], tuple) else (nu,)
    g = rd.build_group("A", 2, res_degree=len(entries))
    words = [word for _, _, word in brute_report(g, entries)[1]]
    double_cosets, top_cell = strata._double_cosets, strata._top_cell
    calls = []

    def counting(name):
        real = getattr(strata, name)

        def counted(*args):
            calls.append(name)
            return real(*args)
        return counted
    for name in ("_top_cell", "_lift"):
        monkeypatch.setattr(strata, name, counting(name))
    report, early = strata.strata_report(g, nu), strata.strata_report(g, nu)
    assert calls == []
    s = report.per_vertex[1]
    witness = s.witness
    assert witness.word == words[1]
    made = list(calls)
    assert "_top_cell" in made and made.count("_lift") == (len(entries) > 1)
    assert s.witness is witness and calls == made
    double_cosets.cache_clear()
    top_cell.cache_clear()
    assert [v.witness.word if v.witness else None for v in early.per_vertex] == words


def test_reports_compare_their_witnesses():
    # equal dims and counts at every vertex, but the witnesses are s1 and s3:
    # ==, hash and repr read the witness, which no report has read before
    g = rd.build_group("A", 2, res_degree=2)
    first = strata.strata_report(g, ((2, -1, -1), (0, 0, 0)))
    second = strata.strata_report(g, ((0, 0, 0), (2, -1, -1)))
    same = strata.strata_report(g, ((2, -1, -1), (0, 0, 0)))
    assert first != second and first == same
    assert hash(first) == hash(same)
    assert "witness=s3" in repr(second)
    assert [(s.dim, s.cell_count) for s in first.per_vertex] == [
        (s.dim, s.cell_count) for s in second.per_vertex]
    assert [repr(s.witness) for s in first.per_vertex] == ["e", "s1"]
    assert [repr(s.witness) for s in second.per_vertex] == ["e", "s3"]
