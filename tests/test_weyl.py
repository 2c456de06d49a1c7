import itertools
from fractions import Fraction as F

import pytest

from perioddomains import rootdata as rd
from perioddomains import weyl
from perioddomains.errors import (
    BudgetExceeded,
    IndexOutOfRange,
    InvariantViolation,
    NotDominant,
)


def all_elements(rs):
    """Brute-force enumeration of W as the full coset list for the empty subset."""
    pd = weyl.parabolic_from_subset(rs, ())
    return list(weyl.enumerate_min_coset_reps(pd, rs))


def mulclose_matrices(rs):
    """Independent oracle: close the set of reflection matrices under products."""
    gens = [weyl.simple_reflection(rs, i).matrix for i in range(1, rs.rank + 1)]
    n = rs.ambient_dim

    def mul(a, b):
        return tuple(
            tuple(sum((a[i][k] * b[k][j] for k in range(n)), F(0)) for j in range(n))
            for i in range(n)
        )

    identity = tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for m in frontier:
            for g in gens:
                prod = mul(g, m)
                if prod not in seen:
                    seen.add(prod)
                    fresh.append(prod)
        frontier = fresh
    return seen


def test_simple_reflection_examples():
    a2 = rd.build_root_system("A", 2)
    s1 = weyl.simple_reflection(a2, 1)
    assert s1.apply((1, 0, -1)) == rd.vector((0, 1, -1))
    assert (s1 * s1).length == 0
    g2 = rd.build_root_system("G2", 2)
    s1g = weyl.simple_reflection(g2, 1)
    w1 = g2.fundamental_coweights[0]
    expected = tuple(a - b for a, b in zip(w1, g2.simple_roots[0]))
    assert s1g.apply(w1) == expected
    with pytest.raises(IndexOutOfRange):
        weyl.simple_reflection(a2, 3)


def test_longest_element_examples():
    a2 = rd.build_root_system("A", 2)
    w0 = weyl.longest_element(a2)
    assert w0.length == 3
    assert w0.apply((1, 2, 3)) == rd.vector((3, 2, 1))
    b2 = rd.build_root_system("B", 2)
    w0b = weyl.longest_element(b2)
    assert w0b.length == 4
    assert w0b.matrix == ((F(-1), F(0)), (F(0), F(-1)))
    a1 = rd.build_root_system("A", 1)
    w0a = weyl.longest_element(a1)
    assert w0a.length == 1
    assert w0a.apply((1, -1)) == rd.vector((-1, 1))


def test_parabolic_examples():
    a2 = rd.build_root_system("A", 2)
    pd = weyl.parabolic_of((1, 0, -1), a2)
    assert pd.delta_p == ()
    assert pd.w0p_length == 3
    pd = weyl.parabolic_of((2, -1, -1), a2)
    assert pd.delta_p == (2,)
    assert pd.w0p_length == 2
    pd = weyl.parabolic_of((0, 0, 0), a2)
    assert pd.delta_p == (1, 2)
    assert pd.w0p_length == 0
    with pytest.raises(NotDominant):
        weyl.parabolic_of((-1, 0, 1), a2)


def test_w0_equals_w0p_times_wp_lengths():
    for kind, rank in [("A", 3), ("B", 3), ("C", 3), ("G2", 2)]:
        rs = rd.build_root_system(kind, rank)
        for size in range(rank + 1):
            for delta in itertools.combinations(range(1, rank + 1), size):
                pd = weyl.parabolic_from_subset(rs, delta)
                wp_len = pd.w0_length - pd.w0p_length
                sub_npos = sum(
                    1 for c in rs.positive_coefficients
                    if all(c[k] == 0 or (k + 1) in delta for k in range(rank))
                )
                assert wp_len == sub_npos


def test_enumerate_full_s3():
    a2 = rd.build_root_system("A", 2)
    pd = weyl.parabolic_from_subset(a2, ())
    reps = list(weyl.enumerate_min_coset_reps(pd, a2))
    assert len(reps) == 6
    assert sorted(w.length for w in reps) == [0, 1, 1, 2, 2, 3]


def test_enumerate_coset_reps_a2():
    a2 = rd.build_root_system("A", 2)
    pd = weyl.parabolic_from_subset(a2, (2,))
    reps = list(weyl.enumerate_min_coset_reps(pd, a2))
    assert [w.length for w in reps] == [0, 1, 2]
    # oracle: filter the full group for w(alpha_2) still a positive root
    alpha2 = a2.simple_roots[1]
    positives = set(a2.positive_roots)
    brute = [w for w in all_elements(a2) if w.apply(alpha2) in positives]
    assert {w.root_perm for w in brute} == {w.root_perm for w in reps}


def test_enumerate_a1():
    a1 = rd.build_root_system("A", 1)
    pd = weyl.parabolic_from_subset(a1, ())
    assert len(list(weyl.enumerate_min_coset_reps(pd, a1))) == 2


def test_budget_raised_before_enumeration():
    f4 = rd.build_root_system("F4", 4)
    pd = weyl.parabolic_from_subset(f4, ())
    with pytest.raises(BudgetExceeded):
        list(weyl.enumerate_min_coset_reps(pd, f4, max_count=100))


@pytest.mark.parametrize("kind,rank", [("A", 2), ("A", 3), ("B", 2), ("G2", 2)])
def test_element_count_matches_matrix_closure(kind, rank):
    rs = rd.build_root_system(kind, rank)
    assert len(all_elements(rs)) == len(mulclose_matrices(rs)) == weyl.weyl_order(rs)


@pytest.mark.parametrize("kind,rank", [
    ("A", 1), ("A", 4), ("B", 4), ("C", 4), ("D", 4), ("G2", 2), ("F4", 4),
])
def test_coset_count_times_parabolic_order(kind, rank):
    rs = rd.build_root_system(kind, rank)
    order = weyl.weyl_order(rs)
    for size in range(rank + 1):
        for delta in itertools.combinations(range(1, rank + 1), size):
            pd = weyl.parabolic_from_subset(rs, delta)
            count = sum(1 for _ in weyl.enumerate_min_coset_reps(pd, rs))
            assert count * pd.w_p_order == order


def test_product_realization_order():
    g = rd.build_group("A", 2, res_degree=2)
    assert weyl.weyl_order(g.absolute) == 36
    pd = weyl.parabolic_from_subset(g.absolute, (1,))
    assert sum(1 for _ in weyl.enumerate_min_coset_reps(pd, g.absolute)) == 18


@pytest.mark.parametrize("kind,rank", [("A", 2), ("A", 3), ("B", 3), ("C", 3), ("G2", 2)])
def test_length_of_w0_times_w(kind, rank):
    rs = rd.build_root_system(kind, rank)
    w0 = weyl.longest_element(rs)
    for w in all_elements(rs):
        assert (w0 * w).length == w0.length - w.length
        for u in (w0, w.inverse()):
            assert (u * w).length <= u.length + w.length


@pytest.mark.parametrize("kind,rank,nu", [
    ("A", 2, (2, -1, -1)), ("A", 3, (1, 1, -1, -1)), ("B", 2, (1, 0)),
    ("C", 3, (2, 1, 0)), ("G2", 2, None),
])
def test_w0_nu_equals_w0p_nu(kind, rank, nu):
    rs = rd.build_root_system(kind, rank)
    if nu is None:
        nu = tuple(a + b for a, b in zip(*rs.fundamental_coweights))
    w0 = weyl.longest_element(rs)
    pd = weyl.parabolic_of(nu, rs)
    w0p = weyl.min_coset_rep(w0, pd.delta_p)
    assert w0.apply(nu) == w0p.apply(nu)
    assert w0p.length == pd.w0p_length


@pytest.mark.parametrize("kind,rank,nu", [
    ("A", 2, (2, -1, -1)), ("A", 3, (3, 1, -1, -3)), ("B", 3, (2, 1, 0)),
])
def test_orbit_size_matches_coset_count(kind, rank, nu):
    rs = rd.build_root_system(kind, rank)
    pd = weyl.parabolic_of(nu, rs)
    reps = list(weyl.enumerate_min_coset_reps(pd, rs))
    orbit = {w.apply(nu) for w in reps}
    assert len(orbit) == len(reps)


def test_minimality_of_representatives():
    rs = rd.build_root_system("B", 3)
    pd = weyl.parabolic_from_subset(rs, (1, 3))
    for w in weyl.enumerate_min_coset_reps(pd, rs):
        for i in pd.delta_p:
            assert (w * weyl.simple_reflection(rs, i)).length > w.length


def test_enumeration_is_deterministic():
    rs = rd.build_root_system("B", 3)
    pd = weyl.parabolic_from_subset(rs, (2,))
    first = [w.root_perm for w in weyl.enumerate_min_coset_reps(pd, rs)]
    second = [w.root_perm for w in weyl.enumerate_min_coset_reps(pd, rs)]
    assert first == second
    lengths = [w.length for w in weyl.enumerate_min_coset_reps(pd, rs)]
    assert lengths == sorted(lengths)


def test_matrix_and_word_apply_agree():
    rs = rd.build_root_system("F4", 4)
    w = weyl.simple_reflection(rs, 1) * weyl.simple_reflection(rs, 3) \
        * weyl.simple_reflection(rs, 2)
    v = rd.vector((1, 2, 3, 4))
    m = w.matrix
    via_matrix = tuple(sum((row[j] * v[j] for j in range(4)), F(0)) for row in m)
    assert via_matrix == w.apply(v)
    assert w.inverse().apply(w.apply(v)) == v


def test_permutation_element_roundtrip():
    rs = rd.build_root_system("A", 3)
    w = weyl.permutation_element(rs, (2, 4, 1, 3))
    assert w.apply((10, 20, 30, 40)) == rd.vector((30, 10, 40, 20))
    # length equals the inversion count of the one-line word
    assert w.length == 3


def test_permutation_element_rejects_non_permutation():
    rs = rd.build_root_system("A", 2)
    with pytest.raises(InvariantViolation):
        weyl.permutation_element(rs, (1, 1, 2))
