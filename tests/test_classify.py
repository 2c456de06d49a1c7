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


def fraction_reference(nu):
    """The closed form in Fractions on dominant sum-zero factors of a split
    type-A group: (verdict, factor, side, near-miss factors, details)."""
    entries = [tuple(map(F, v)) for v in nu]
    details, fired, near_miss = {}, [], []
    total_first = sum((e[0] for e in entries), F(0))
    total_last = sum((e[-1] for e in entries), F(0))
    for j, x in enumerate(entries, start=1):
        details[f"x2[{j}]"] = x[1]
        details[f"xl[{j}]"] = x[-2]
        details[f"sum_first_others[{j}]"] = sum_first = total_first - x[0]
        details[f"sum_last_others[{j}]"] = sum_last = total_last - x[-1]
        sides = [side for side, holds in ((cf.SIDE_FIRST, x[1] < 0 and sum_first < -x[1]),
                                          (cf.SIDE_LAST, x[-2] > 0 and sum_last > -x[-2]))
                 if holds]
        if sides:
            fired.append((j, sides[0]))
        elif x[1] < 0 or x[-2] > 0:
            near_miss.append(j)
    assert len(fired) <= 1
    j, side = fired[0] if fired else (None, None)
    verdict = cf.VERDICT_DRINFELD if fired else cf.VERDICT_TRIVIAL
    return verdict, j, side, tuple(near_miss), details


def random_dominant_factor(rng, n):
    """A dominant sum-zero factor of width n over a denominator from 1 to 6;
    about one in three is zero, so that margins of several factors hold."""
    if rng.random() < 1 / 3:
        return (F(0),) * n
    ys = sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True)
    d = rng.randint(1, 6)
    return tuple(F(n * y - sum(ys), d) for y in ys)


def test_classify_matches_the_fraction_reference(rng):
    # classify decides on nu scaled to integers; a reference in Fractions
    # gives the same verdict and the same printed values, and scaling nu by
    # c keeps all but the details, which scale by c
    sides = set()
    for t, rank in itertools.product((1, 2, 3), (1, 2, 3, 4)):
        g = rd.build_group("A", rank, res_degree=t)
        for _ in range(25):
            nu = tuple(random_dominant_factor(rng, rank + 1) for _ in range(t))
            verdict, j, side, near_miss, details = fraction_reference(nu)
            c = cf.classify(g, nu)
            assert (c.verdict, c.factor_index, c.side, c.near_miss_factors) == \
                (verdict, j, side, near_miss), nu
            assert c.details == details and {type(v) for v in c.details.values()} == {F}
            for scale in (F(1, 7), F(3), F(12, 5)):
                cs = cf.classify(g, tuple(tuple(scale * x for x in v) for v in nu))
                assert (cs.verdict, cs.factor_index, cs.side, cs.near_miss_factors) == \
                    (verdict, j, side, near_miss), (nu, scale)
                assert cs.details == {k: scale * v for k, v in details.items()}
            sides.add((t, side))
    assert {side for t, side in sides if t > 1} == {cf.SIDE_FIRST, cf.SIDE_LAST, None}


def test_a_verdict_read_alone_builds_no_fraction(monkeypatch):
    # the details are built when read: a caller that reads only the
    # verdict, as the coset sweep does, divides nothing by L
    built = []
    monkeypatch.setattr(cf, "Fraction", lambda *args: built.append(args) or F(*args))
    g = rd.build_group("A", 2, res_degree=3)
    nu = ((F(3, 2), F(-1, 2), -1), (0, 0, 0), (0, 0, 0))
    c = cf.classify(g, nu)
    assert (c.verdict, c.factor_index, c.side) == (cf.VERDICT_DRINFELD, 1, cf.SIDE_FIRST)
    assert built == []
    details = c.details
    assert len(built) == 12 and details == fraction_reference(nu)[4]
    assert list(details) == [f"{key}[{j}]" for j in (1, 2, 3) for key in
                             ("x2", "xl", "sum_first_others", "sum_last_others")]
