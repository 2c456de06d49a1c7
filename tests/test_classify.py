import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perioddomains import classify as cf
from perioddomains import rootdata as rd
from perioddomains.errors import MalformedNu


def test_drinfeld_rank_one():
    g = rd.build_group("A", 1)
    c = cf.classify(g, (1, -1))
    assert c.verdict == cf.VERDICT_DRINFELD
    assert c.ell == 1 and c.factor_index == 1 and c.codim_one
    assert c.side == cf.SIDE_FIRST  # both sides hold; first wins the report


def test_trivial_middle_zero():
    g = rd.build_group("A", 2)
    c = cf.classify(g, (1, 0, -1))
    assert c.verdict == cf.VERDICT_TRIVIAL
    assert not c.codim_one


def test_res_pair_examples():
    g = rd.build_group("A", 1, res_degree=2)
    c = cf.classify(g, ((1, -1), (0, 0)))
    assert c.verdict == cf.VERDICT_DRINFELD
    assert c.factor_index == 1
    c = cf.classify(g, ((1, -1), (1, -1)))
    assert c.verdict == cf.VERDICT_TRIVIAL
    assert c.near_miss_factors == (1, 2)


def test_g2_always_trivial(rng):
    g = rd.build_group("G2", 2)
    ws = g.base.fundamental_coweights
    for _ in range(30):
        n1, n2 = rng.randint(0, 4), rng.randint(0, 4)
        nu = tuple(n1 * a + n2 * b for a, b in zip(*ws))
        assert cf.classify(g, nu).verdict == cf.VERDICT_TRIVIAL


def test_unitary_always_trivial():
    g = rd.build_group("A", 3, form="unitary")
    assert cf.classify(g, (2, 1, -1, -2)).verdict == cf.VERDICT_TRIVIAL


def test_zero_nu_trivial():
    g = rd.build_group("A", 2)
    assert cf.classify(g, (0, 0, 0)).verdict == cf.VERDICT_TRIVIAL


def test_both_sides_fire_single_verdict():
    g = rd.build_group("A", 1, res_degree=2)
    c = cf.classify(g, ((2, -2), (0, 0)))
    assert c.verdict == cf.VERDICT_DRINFELD
    assert c.side == cf.SIDE_FIRST
    assert c.factor_index == 1


def test_malformed_nu():
    g = rd.build_group("A", 2)
    with pytest.raises(MalformedNu):
        cf.classify(g, (0, 1, -1))
    with pytest.raises(MalformedNu):
        cf.classify(g, (1, 0, 0))
    gB = rd.build_group("B", 2)
    with pytest.raises(MalformedNu):
        cf.classify(gB, (0, 1))


def random_sorted_zero_sum(rng, n):
    xs = sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True)
    mean = F(sum(xs), n)
    return tuple(F(x) - mean for x in xs)


def fired_sides(entries, j):
    x = entries[j]
    out = set()
    others_first = sum(e[0] for k, e in enumerate(entries) if k != j)
    others_last = sum(e[-1] for k, e in enumerate(entries) if k != j)
    if x[1] < 0 and others_first < -x[1]:
        out.add(cf.SIDE_FIRST)
    if x[-2] > 0 and others_last > -x[-2]:
        out.add(cf.SIDE_LAST)
    return out


def test_uniqueness_of_the_distinguished_factor(rng):
    g3 = rd.build_group("A", 2, res_degree=3)
    for _ in range(300):
        entries = tuple(random_sorted_zero_sum(rng, 3) for _ in range(3))
        firing = [j for j in range(3) if fired_sides(entries, j)]
        c = cf.classify(g3, entries)
        assert len(firing) <= 1
        if firing:
            assert c.verdict == cf.VERDICT_DRINFELD
            assert c.factor_index == firing[0] + 1
        else:
            assert c.verdict == cf.VERDICT_TRIVIAL


def dual_flip(entries):
    return tuple(tuple(-x for x in reversed(e)) for e in entries)


def test_duality_flip_swaps_sides(rng):
    g = rd.build_group("A", 3, res_degree=2)
    for _ in range(200):
        entries = tuple(random_sorted_zero_sum(rng, 4) for _ in range(2))
        c1 = cf.classify(g, entries)
        c2 = cf.classify(g, dual_flip(entries))
        assert c1.verdict == c2.verdict
        if c1.verdict == cf.VERDICT_DRINFELD:
            assert c2.factor_index == c1.factor_index
            s1 = fired_sides(entries, c1.factor_index - 1)
            s2 = fired_sides(dual_flip(entries), c2.factor_index - 1)
            flip = {cf.SIDE_FIRST: cf.SIDE_LAST, cf.SIDE_LAST: cf.SIDE_FIRST}
            assert s2 == {flip[s] for s in s1}


def test_factor_permutation_invariance(rng):
    g = rd.build_group("A", 2, res_degree=3)
    for _ in range(60):
        entries = tuple(random_sorted_zero_sum(rng, 3) for _ in range(3))
        c = cf.classify(g, entries)
        for perm in itertools.permutations(range(3)):
            cp = cf.classify(g, tuple(entries[p] for p in perm))
            assert cp.verdict == c.verdict
            if c.verdict == cf.VERDICT_DRINFELD:
                assert perm[cp.factor_index - 1] == c.factor_index - 1


@given(st.integers(1, 4), st.fractions(min_value=F(1, 5), max_value=5))
def test_scale_invariance_of_verdict(rank, c):
    g = rd.build_group("A", rank)
    rng = random.Random(rank)
    nu = random_sorted_zero_sum(rng, rank + 1)
    v1 = cf.classify(g, nu)
    v2 = cf.classify(g, tuple(c * x for x in nu))
    assert v1.verdict == v2.verdict
    assert v1.side == v2.side


def test_pi1_label_format():
    g = rd.build_group("A", 2, res_degree=2)
    c = cf.classify(g, ((2, -1, -1), (0, 0, 0)))
    assert c.verdict == cf.VERDICT_DRINFELD
    assert c.pi1_label(res_degree=2) == "pi1(Omega^(3)/k')"
    g1 = rd.build_group("A", 1)
    assert cf.classify(g1, (1, -1)).pi1_label() == "pi1(Omega^(2)/k)"
    assert cf.classify(g1, (0, 0)).pi1_label() == "trivial"
