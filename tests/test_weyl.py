import itertools
import math
from fractions import Fraction as F

import pytest

from perioddomains import rootdata as rd
from perioddomains import weyl
from perioddomains.errors import (
    IndexOutOfRange,
    InvariantViolation,
    NotDominant,
)
from test_rootdata import coroot, positive_roots, reference_apply


def min_coset_rep(w, delta_p):
    """Minimal representative of the coset w W_P (strips right descents in delta_p)."""
    rs = w.realization
    t = weyl._tables(rs)
    npos = t.npos
    perm, length = w.root_perm, w.length
    changed = True
    while changed:
        changed = False
        for j in sorted(set(delta_p)):
            a = t.simple_idx[j - 1]
            if perm[a] >= npos:
                sp = t.sperm[j - 1]
                perm = tuple(perm[sp[k]] for k in range(len(sp)))
                length -= 1
                changed = True
    return weyl.WeylElement(rs, perm, length, None)


def all_elements(rs):
    """Brute-force enumeration of W as the full coset list for the empty subset."""
    pd = weyl._parabolic(rs, ())
    return list(weyl.enumerate_min_coset_reps(pd, rs))


def reflection_matrices(rs):
    """Rows of I - alpha (x) alpha^vee for each simple root, built from coroot."""
    n = rs.ambient_dim
    gens = []
    for alpha in rs.simple_roots:
        alphav = coroot(alpha)
        gens.append(tuple(tuple(F(int(i == j)) - alpha[i] * alphav[j] for j in range(n))
                          for i in range(n)))
    return gens


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), F(0)) for j in range(n))
        for i in range(n)
    )


def mulclose_matrices(rs):
    """Independent oracle: close the set of reflection matrices under products."""
    gens = reflection_matrices(rs)
    n = rs.ambient_dim
    identity = tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(g, m)
                if prod not in seen:
                    seen.add(prod)
                    fresh.append(prod)
        frontier = fresh
    return seen


def test_simple_reflection_examples():
    a2 = rd.build_root_system("A", 2)
    s1 = weyl.simple_reflection(a2, 1)
    assert reference_apply(s1, (1, 0, -1)) == rd.vector((0, 1, -1))
    assert (s1 * s1).length == 0
    g2 = rd.build_root_system("G2", 2)
    s1g = weyl.simple_reflection(g2, 1)
    w1 = g2.fundamental_coweights[0]
    expected = tuple(a - b for a, b in zip(w1, g2.simple_roots[0]))
    assert reference_apply(s1g, w1) == expected
    with pytest.raises(IndexOutOfRange):
        weyl.simple_reflection(a2, 3)


def test_longest_element_examples():
    a2 = rd.build_root_system("A", 2)
    w0 = weyl.longest_element(a2)
    assert w0.length == 3
    assert reference_apply(w0, (1, 2, 3)) == rd.vector((3, 2, 1))
    b2 = rd.build_root_system("B", 2)
    w0b = weyl.longest_element(b2)
    assert w0b.length == 4
    assert reference_apply(w0b, (1, 0)) == rd.vector((-1, 0))
    assert reference_apply(w0b, (0, 1)) == rd.vector((0, -1))
    a1 = rd.build_root_system("A", 1)
    w0a = weyl.longest_element(a1)
    assert w0a.length == 1
    assert reference_apply(w0a, (1, -1)) == rd.vector((-1, 1))


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
                pd = weyl._parabolic(rs, delta)
                wp_len = len(rs.positive_coefficients) - pd.w0p_length
                sub_npos = sum(
                    1 for c in rs.positive_coefficients
                    if all(c[k] == 0 or (k + 1) in delta for k in range(rank))
                )
                assert wp_len == sub_npos


def test_enumerate_full_s3():
    a2 = rd.build_root_system("A", 2)
    pd = weyl._parabolic(a2, ())
    reps = list(weyl.enumerate_min_coset_reps(pd, a2))
    assert len(reps) == 6
    assert sorted(w.length for w in reps) == [0, 1, 1, 2, 2, 3]


def test_enumerate_coset_reps_a2():
    a2 = rd.build_root_system("A", 2)
    pd = weyl._parabolic(a2, (2,))
    reps = list(weyl.enumerate_min_coset_reps(pd, a2))
    assert [w.length for w in reps] == [0, 1, 2]
    # oracle: filter the full group for w(alpha_2) still a positive root
    alpha2 = a2.simple_roots[1]
    positives = set(positive_roots(a2))
    brute = [w for w in all_elements(a2) if reference_apply(w, alpha2) in positives]
    assert {w.root_perm for w in brute} == {w.root_perm for w in reps}


def test_enumerate_a1():
    a1 = rd.build_root_system("A", 1)
    pd = weyl._parabolic(a1, ())
    assert len(list(weyl.enumerate_min_coset_reps(pd, a1))) == 2


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
            pd = weyl._parabolic(rs, delta)
            count = sum(1 for _ in weyl.enumerate_min_coset_reps(pd, rs))
            assert count * pd.w_p_order == order


@pytest.mark.parametrize("kind,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("D", 4),
    ("G2", 2), ("F4", 4),
])
def test_poincare_polynomials_match_enumeration(kind, rank):
    # W(q) = sum over W^P of q^l(u), times W_P(q): the lengths come from the
    # enumeration, the polynomials from root heights alone
    rs = rd.build_root_system(kind, rank)
    whole = weyl._parabolic(rs, tuple(range(1, rank + 1)))
    for size in range(rank + 1):
        for delta in itertools.combinations(range(1, rank + 1), size):
            pd = weyl._parabolic(rs, delta)
            assert pd.poincare(1) == pd.w_p_order
            lengths = [u.length for u in weyl.enumerate_min_coset_reps(pd, rs)]
            for q in (2, 3):
                assert sum(q ** n for n in lengths) * pd.poincare(q) == whole.poincare(q)


def test_product_realization_order():
    g = rd.build_group("A", 2, res_degree=2)
    assert weyl.weyl_order(g.absolute) == 36
    pd = weyl._parabolic(g.absolute, (1,))
    assert sum(1 for _ in weyl.enumerate_min_coset_reps(pd, g.absolute)) == 18


@pytest.mark.parametrize("kind,rank", [("A", 4), ("B", 3), ("D", 4), ("F4", 4), ("G2", 2)])
def test_longest_element_of_every_parabolic(kind, rank):
    # w0(W_J) is the element of W_J sending every alpha_j, j in J, to a
    # negative root; it is an involution of length N(J)
    rs = rd.build_root_system(kind, rank)
    t = weyl._tables(rs)
    for size in range(rank + 1):
        for delta in itertools.combinations(range(1, rank + 1), size):
            w = weyl.longest_element(rs, delta)
            assert set(w.word) <= set(delta)
            assert all(w.root_perm[t.simple_idx[j - 1]] >= t.npos for j in delta)
            assert w * w == weyl.identity_element(rs)
            pd = weyl._parabolic(rs, delta)
            assert w.length == len(w.word) == len(rs.positive_coefficients) - pd.w0p_length
    assert weyl.longest_element(rs, tuple(range(1, rank + 1))) == weyl.longest_element(rs)


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
    w0p = min_coset_rep(w0, pd.delta_p)
    assert reference_apply(w0, nu) == reference_apply(w0p, nu)
    assert w0p.length == pd.w0p_length


@pytest.mark.parametrize("kind,rank,nu", [
    ("A", 2, (2, -1, -1)), ("A", 3, (3, 1, -1, -3)), ("B", 3, (2, 1, 0)),
])
def test_orbit_size_matches_coset_count(kind, rank, nu):
    rs = rd.build_root_system(kind, rank)
    pd = weyl.parabolic_of(nu, rs)
    reps = list(weyl.enumerate_min_coset_reps(pd, rs))
    orbit = {reference_apply(w, nu) for w in reps}
    assert len(orbit) == len(reps)


def test_minimality_of_representatives():
    rs = rd.build_root_system("B", 3)
    pd = weyl._parabolic(rs, (1, 3))
    for w in weyl.enumerate_min_coset_reps(pd, rs):
        for i in pd.delta_p:
            assert (w * weyl.simple_reflection(rs, i)).length > w.length


def test_enumeration_is_deterministic():
    rs = rd.build_root_system("B", 3)
    pd = weyl._parabolic(rs, (2,))
    first = [w.root_perm for w in weyl.enumerate_min_coset_reps(pd, rs)]
    second = [w.root_perm for w in weyl.enumerate_min_coset_reps(pd, rs)]
    assert first == second
    lengths = [w.length for w in weyl.enumerate_min_coset_reps(pd, rs)]
    assert lengths == sorted(lengths)


def test_matrix_and_word_apply_agree():
    rs = rd.build_root_system("F4", 4)
    w = weyl.simple_reflection(rs, 1) * weyl.simple_reflection(rs, 3) \
        * weyl.simple_reflection(rs, 2)
    assert w.word == (1, 3, 2)
    gens = reflection_matrices(rs)
    m = mat_mul(mat_mul(gens[0], gens[2]), gens[1])
    v = rd.vector((1, 2, 3, 4))
    via_matrix = tuple(sum((row[j] * v[j] for j in range(4)), F(0)) for row in m)
    assert via_matrix == reference_apply(w, v)
    assert reference_apply(w.inverse(), reference_apply(w, v)) == v


@pytest.mark.parametrize("kind,rank", [("A", 3), ("B", 3), ("G2", 2)])
def test_derived_word_is_reduced_and_multiplies_out(kind, rank):
    rs = rd.build_root_system(kind, rank)
    for w in all_elements(rs):
        bare = weyl.WeylElement(rs, w.root_perm, w.length)
        word = bare.word
        assert len(word) == w.length
        product = weyl.identity_element(rs)
        for i in word:
            product = product * weyl.simple_reflection(rs, i)
        assert product.root_perm == w.root_perm


@pytest.mark.parametrize("kind,rank,t,delta_p", [
    ("A", 3, 1, ()), ("A", 3, 1, (1,)), ("A", 3, 1, (2,)), ("A", 3, 1, (1, 3)),
    ("B", 3, 1, ()), ("B", 3, 1, (1,)), ("B", 3, 1, (3,)), ("B", 3, 1, (2, 3)),
    ("G2", 2, 1, ()), ("G2", 2, 1, (1,)), ("G2", 2, 1, (2,)),
    ("F4", 4, 1, ()), ("F4", 4, 1, (1,)), ("F4", 4, 1, (4,)), ("F4", 4, 1, (2, 3)),
    ("A", 2, 2, ()), ("A", 2, 2, (1, 4)),
])
def test_derived_word_is_the_enumeration_word(kind, rank, t, delta_p):
    # an element rebuilt without its word derives the word the breadth-first
    # enumeration gave it, on every W^P
    rs = rd.build_group(kind, rank, res_degree=t).absolute
    pd = weyl._parabolic(rs, delta_p)
    for w in weyl.enumerate_min_coset_reps(pd, rs):
        bare = weyl.WeylElement(rs, w.root_perm, w.length)
        assert bare.word == w.word


def test_elements_without_a_built_word_get_one():
    rs = rd.build_root_system("A", 3)
    w = weyl.WeylElement(rs, weyl.permutation_element(rs, (4, 3, 2, 1)).root_perm, 6)
    assert len(w.word) == w.length == 6
    assert reference_apply(w, (1, 2, 3, 4)) == rd.vector((4, 3, 2, 1))
    u = min_coset_rep(weyl.longest_element(rs), (1,))
    assert len(u.word) == u.length == 5
    s1 = weyl.simple_reflection(rs, 1)
    assert (s1 * s1).word == ()
    assert repr(s1 * s1) == "e"


def test_permutation_element_roundtrip():
    rs = rd.build_root_system("A", 3)
    w = weyl.permutation_element(rs, (2, 4, 1, 3))
    assert reference_apply(w, (10, 20, 30, 40)) == rd.vector((30, 10, 40, 20))
    # length equals the inversion count of the one-line word
    assert w.length == 3


def test_permutation_element_on_all_of_s4():
    # the element built from adjacent transpositions moves coordinate a to
    # one_line[a], has the one-line word's inversion count as its length,
    # and carries a reduced word that multiplies out to it
    rs = rd.build_root_system("A", 3)
    v = (10, 20, 30, 40)
    for one_line in itertools.permutations(range(1, 5)):
        w = weyl.permutation_element(rs, one_line)
        image = [0] * 4
        for a, x in enumerate(one_line):
            image[x - 1] = v[a]
        assert reference_apply(w, v) == rd.vector(image)
        assert w.length == sum(x > y for x, y in itertools.combinations(one_line, 2))
        assert w * w.inverse() == weyl.identity_element(rs)
        product = weyl.identity_element(rs)
        for i in w.word:
            product = product * weyl.simple_reflection(rs, i)
        assert product == w and len(w.word) == w.length


def test_permutation_element_rejects_non_permutation():
    rs = rd.build_root_system("A", 2)
    with pytest.raises(InvariantViolation):
        weyl.permutation_element(rs, (1, 1, 2))


@pytest.mark.parametrize("kind,rank,order", (
    [("A", n, math.factorial(n + 1)) for n in range(1, 9)]
    + [(kind, n, 2 ** n * math.factorial(n)) for kind in "BC" for n in range(2, 9)]
    + [("D", n, 2 ** (n - 1) * math.factorial(n)) for n in range(4, 9)]
    + [("E6", 6, 51840), ("E7", 7, 2903040), ("E8", 8, 696729600),
       ("F4", 4, 1152), ("G2", 2, 12)]
))
def test_weyl_order_pinned(kind, rank, order):
    assert weyl.weyl_order(rd.build_root_system(kind, rank)) == order


# every maximal parabolic of E6-E8 with |W^P| <= 2160: (kind, removed node, |W^P|)
@pytest.mark.parametrize("kind,node,cosets", [
    ("E6", 1, 27), ("E6", 2, 72), ("E6", 3, 216), ("E6", 4, 720), ("E6", 5, 216),
    ("E6", 6, 27), ("E7", 1, 126), ("E7", 2, 576), ("E7", 3, 2016), ("E7", 6, 756),
    ("E7", 7, 56), ("E8", 1, 2160), ("E8", 8, 240),
])
def test_maximal_parabolic_orders_exceptional(kind, node, cosets):
    rank = int(kind[1])
    rs = rd.build_root_system(kind, rank)
    pd = weyl._parabolic(rs, tuple(i for i in range(1, rank + 1) if i != node))
    count = sum(1 for _ in weyl.enumerate_min_coset_reps(pd, rs))
    assert count == cosets
    assert count * pd.w_p_order == weyl.weyl_order(rs)


@pytest.mark.parametrize("delta", [(0,), (4,), (1, 5), (-1, 2)])
def test_parabolic_from_subset_rejects_bad_index(delta):
    a3 = rd.build_root_system("A", 3)
    with pytest.raises(IndexOutOfRange, match=r"outside 1\.\.3"):
        weyl._parabolic(a3, delta)
