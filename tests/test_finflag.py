import hashlib
import itertools
import math
import random
import re
from fractions import Fraction as F

import pytest

from perioddomains import finflag as ffl
from perioddomains import rootdata as rd
from perioddomains import weyl
from perioddomains.errors import (
    BudgetExceeded,
    IllegalType,
    InvariantViolation,
    NotDominant,
    PeriodDomainError,
    ValidationError,
)
from test_rootdata import inner_product, reference_apply
from test_weyl import min_coset_rep


@pytest.mark.parametrize("p,e,m", [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4),
                                   (3, 1, 1), (3, 1, 2), (5, 1, 1), (2, 2, 2),
                                   # past the dense limit: Zech add and mul
                                   (2, 1, 9), (3, 1, 8), (2, 1, 12), (5, 1, 6)])
def test_field_axioms(p, e, m):
    ff = ffl.finite_field(p, e, m)
    Q = ff.order
    assert (ff._add_table is None) == (Q > ffl._DENSE_LIMIT)
    sample = range(Q) if Q <= 16 else random.Random(0).sample(range(Q), 16)
    for a in sample:
        assert ff.add(a, 0) == a
        assert ff.mul(a, 1) == a
        assert ff.add(a, ff.neg(a)) == 0
        if a:
            assert ff.mul(a, ff.inv(a)) == 1
    for a, b in itertools.product(sample, repeat=2):
        assert ff.add(a, b) == ff.add(b, a)
        assert ff.mul(a, b) == ff.mul(b, a)
    for a, b, c in itertools.product(sample[:8], repeat=3):
        assert ff.add(ff.add(a, b), c) == ff.add(a, ff.add(b, c))
        assert ff.mul(ff.mul(a, b), c) == ff.mul(a, ff.mul(b, c))
        assert ff.mul(a, ff.add(b, c)) == ff.add(ff.mul(a, b), ff.mul(a, c))


def _reference_tables(p, n):
    """Modulus, generator, exp, log and zech by a power-walk scan: the first
    candidate whose powers do not return to 1 before Q - 1 steps, each step a
    full polynomial product."""
    Q = p ** n
    modulus = next(f for f in (ffl._digits(c, p, n) + [1] for c in range(Q))
                   if ffl._is_irreducible(f, p, n))
    for gen in range(2 if n == 1 else p, Q):
        gvec = ffl._digits(gen, p, n)
        exp, cur = [1], [1] + [0] * (n - 1)
        for _ in range(Q - 2):
            cur = ffl._poly_mul_mod(cur, gvec, modulus, p)
            val = ffl._undigits(cur, p)
            if val == 1:
                break
            exp.append(val)
        else:
            break
    log = [0] * Q
    for k, v in enumerate(exp):
        log[v] = k
    zech = []
    for v in exp:
        plus_one = v - v % p + (v % p + 1) % p
        zech.append(None if plus_one == 0 else log[plus_one])
    return tuple(modulus), gen, exp, log, zech


@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (2, 1, 3), (2, 1, 5), (2, 1, 8), (2, 1, 11),
                                   (2, 1, 12), (2, 2, 3), (3, 1, 1), (3, 1, 2),
                                   (3, 1, 3), (3, 1, 5), (3, 1, 7), (3, 2, 2), (5, 1, 1),
                                   (5, 1, 2), (5, 1, 5), (7, 1, 4), (11, 1, 3),
                                   (13, 1, 3), (17, 1, 2), (251, 1, 1)])
def test_tables_match_power_walk_reference(p, e, m):
    ff = ffl.FiniteField(p, e, m)
    assert ff.order <= 4096
    modulus, gen, exp, log, zech = _reference_tables(p, e * m)
    assert (ff.modulus, ff.generator) == (modulus, gen)
    assert ff.exp == exp and ff.log == log and ff.zech == zech
    assert ff._neg_one == p - 1  # the constant polynomial -1


# (modulus, generator, first 16 hex digits of the sha256 of the exp table
# written as comma-separated decimals) of the fields of the flag_count
# benchmark and of the largest fields under the default order bound
PINNED_TABLES = {
    (2, 1, 5): ((1, 0, 1, 0, 0, 1), 2, "1aae48154ea2150d"),
    (3, 1, 3): ((1, 2, 0, 1), 3, "62f2ccfa842b73c3"),
    (2, 1, 12): ((1, 0, 0, 1) + (0,) * 8 + (1,), 3, "3b99066734910660"),
    (3, 1, 8): ((2, 0, 1) + (0,) * 5 + (1,), 38, "ae4826aa570ad5b1"),
    (2, 1, 14): ((1, 0, 0, 0, 0, 1) + (0,) * 8 + (1,), 7, "26c1da36aba3e49d"),
    (2, 1, 16): ((1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,), 3, "5860a63f932f7cb6"),
    (3, 1, 10): ((1, 0, 2) + (0,) * 7 + (1,), 34, "9cc6265c9b4aa255"),
}


@pytest.mark.parametrize("p,e,m", sorted(PINNED_TABLES))
def test_large_field_tables_pinned(p, e, m):
    ff = ffl.finite_field(p, e, m)
    Q = ff.order
    modulus, gen, digest = PINNED_TABLES[p, e, m]
    assert (ff.modulus, ff.generator) == (modulus, gen)
    assert hashlib.sha256(",".join(map(str, ff.exp)).encode()).hexdigest()[:16] == digest
    assert len(ff.exp) == Q - 1 and sorted(ff.exp) == list(range(1, Q))
    assert all(ff.log[v] == k for k, v in enumerate(ff.exp))


def _moebius(n):
    primes = ffl._prime_divisors(n)
    return 0 if math.prod(primes) != n else (-1) ** len(primes)


def test_irreducible_counts_match_gauss():
    # Gauss: (1/n) sum_{d | n} mu(d) p^(n/d) monic irreducibles of degree n
    # over F_p, a reference for the rank test that shares no code with it
    for p in (p for p in range(2, 1025) if ffl._prime_divisors(p) == [p]):
        for n in itertools.takewhile(lambda n: p ** n <= 1024, itertools.count(1)):
            count = sum(ffl._is_irreducible(ffl._digits(c, p, n) + [1], p, n)
                        for c in range(p ** n))
            expected = sum(_moebius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0)
            assert count * n == expected, (p, n)


def test_tables_of_f2():
    ff = ffl.FiniteField(2)
    assert (ff.modulus, ff.generator, ff.exp, ff.log, ff.zech, ff._neg_one) == \
        ((0, 1), 1, [1], [0, 0], [None], 1)
    assert ff._add_table == [[0, 1], [1, 0]] and ff._mul_table == [[0, 0], [0, 1]]


def test_generator_of_wrong_order_is_an_invariant_violation():
    # x has order 5 modulo x^4 + x^3 + x^2 + x + 1 over F_2, not 15
    with pytest.raises(InvariantViolation):
        ffl._powers([0, 1, 0, 0], (1, 1, 1, 1, 1), 2, 15)
    assert ffl._powers([0, 1, 0, 0], (1, 1, 0, 0, 1), 2, 15) == ffl.finite_field(2, 1, 4).exp


def test_frobenius_fixes_exactly_the_base_field():
    ff = ffl.finite_field(2, 1, 3)
    fixed = {a for a in range(ff.order) if ff.frobenius(a) == a}
    assert fixed == set(ff.subfield(ff.q))
    ff = ffl.finite_field(2, 2, 2)  # base F4 inside F16
    fixed = {a for a in range(ff.order) if ff.frobenius(a) == a}
    assert fixed == set(ff.subfield(ff.q))
    assert len(fixed) == 4


def test_field_budget():
    assert ffl.checked_field_order(2, 1, 16) == ffl.MAX_FIELD_ORDER == 2 ** 16
    with pytest.raises(BudgetExceeded):
        ffl.FiniteField(2, 1, 17)
    with pytest.raises(BudgetExceeded):
        ffl.FiniteField(3, 1, 11)


def test_gaussian_binomial():
    # [n, k]_q is the flag count of one step k in an n-space
    assert ffl.checked_flag_count(1, (1,), 4) == 5
    assert ffl.checked_flag_count(2, (1,), 2) == 7
    assert ffl.checked_flag_count(2, (2,), 2) == 7
    assert ffl.checked_flag_count(3, (2,), 3) == 130


@pytest.mark.parametrize("q,m,ell,dims,expected", [
    (2, 2, 1, (1,), 5),
    (2, 1, 2, (1, 2), 21),
    (2, 3, 2, (1,), 73),
    (3, 1, 2, (2,), 13),
    (2, 2, 3, (1, 3), 1785),  # 85 lines in F4^4, times 21 hyperplanes above each
])
def test_flag_counts(q, m, ell, dims, expected):
    ff = ffl.finite_field(q, 1, m)
    points = list(ffl.enumerate_flags(ff, ell, dims))
    assert len(points) == expected
    assert len(points) == ffl.checked_flag_count(ell, dims, ff.order)
    assert len(set(points)) == expected  # no duplicates


def test_flag_budget_and_validation():
    ff = ffl.finite_field(2, 1, 2)
    assert ffl.checked_flag_count(2, (1, 2), ff.order) == 105
    with pytest.raises(ValidationError):
        list(ffl.enumerate_flags(ff, 2, (2, 1)))
    with pytest.raises(ValidationError):
        list(ffl.enumerate_flags(ff, 2, (3,)))
    # the root bound refuses A_100000 before [100001, 1]_2 is formed
    with pytest.raises(BudgetExceeded, match="A100000 has 5000050000 positive roots"):
        ffl.checked_flag_count(100000, (1,), 2)


def test_point_of_the_wrong_width_is_refused():
    # a point of F_2^4 against a cocharacter of length 3 with the same dims
    ff = ffl.finite_field(2)
    x = ffl.FlagPoint((((1, 0, 0, 0),), ((1, 0, 0, 0), (0, 1, 0, 0))))
    with pytest.raises(ValidationError, match="length 3"):
        ffl.is_semistable_subspace_test(x, (1, 0, -1), ff)
    with pytest.raises(ValidationError, match="length 3"):
        ffl.is_semistable_strata_test(x, (1, 0, -1), ff)


def test_flag_point_dims_are_its_step_sizes():
    # a step of two rows is a step of dim 2, whatever nu expects
    ff = ffl.finite_field(2)
    x = ffl.FlagPoint((((1, 0), (0, 1)),))
    assert x.dims == (2,)
    for test in (ffl.is_semistable_subspace_test, ffl.is_semistable_strata_test):
        with pytest.raises(ValidationError, match=r"flag dims \(2,\) do not match"):
            test(x, (1, -1), ff)


@pytest.mark.parametrize("test", [ffl.is_semistable_subspace_test,
                                  ffl.is_semistable_strata_test], ids=["subspace", "strata"])
def test_steps_that_do_not_nest_are_refused_by_both_tests(test):
    # F^1 = <e1> does not lie in F^2 = <e2, e3>: the line <e1> meets F^1 but
    # not F^2, which no nested flag allows; both tests refuse the point
    ff = ffl.finite_field(2)
    x = ffl.FlagPoint((((1, 0, 0),), ((0, 1, 0), (0, 0, 1))))
    with pytest.raises(ValidationError, match="the steps do not nest"):
        test(x, (1, 0, -1), ff)
    # a nu of width below 2 is refused as enumerate_flags refuses A_0, before
    # any division by the width, flat or as t factors
    point = ffl.FlagPoint(())
    for points, nu in ((point, ()), (point, (1,)), ((point, point), ((1,), (1,)))):
        with pytest.raises(IllegalType, match="illegal pair kind=A rank="):
            test(points, nu, ff)
    # factors given as lists are read as the same tuples
    ff = ffl.finite_field(2, 1, 2)
    lines = list(ffl.enumerate_flags(ff, 1, (1,)))
    verdicts = [test(pair, ((1, -1), (1, -1)), ff) for pair in itertools.product(lines, repeat=2)]
    assert verdicts.count(False) == 5
    assert verdicts == [test(pair, [[1, -1], [1, -1]], ff)
                        for pair in itertools.product(lines, repeat=2)]


@pytest.mark.parametrize("test", [ffl.is_semistable_subspace_test,
                                  ffl.is_semistable_strata_test], ids=["subspace", "strata"])
def test_steps_whose_rows_are_dependent_or_zero_are_refused(test):
    # a zero row spans no line, and two equal rows no plane: the public
    # tests' common `_is_semistable` refuses such a step, on any copy, when it
    # reduces it
    ff = ffl.finite_field(2)
    zero = ffl.FlagPoint((((0, 0, 0),),))
    with pytest.raises(ValidationError, match="^flag step of 1 rows has rank 0$"):
        test(zero, (2, -1, -1), ff)
    twice = ffl.FlagPoint((((1, 0, 0),), ((1, 0, 0), (1, 0, 0))))
    with pytest.raises(ValidationError, match="^flag step of 2 rows has rank 1$"):
        test(twice, (1, 0, -1), ff)
    ff = ffl.finite_field(2, 1, 2)
    line = next(ffl.enumerate_flags(ff, 1, (1,)))
    with pytest.raises(ValidationError, match="^flag step of 1 rows has rank 0$"):
        test((line, ffl.FlagPoint((((0, 0),),))), ((1, -1), (1, -1)), ff)


@pytest.mark.parametrize("bases,nu,err", [
    ((((1, 0, 0),), ((1, 0, 0, 0), (0, 1, 0, 0))), (1, 0, -1),
     "flag point of width 4, nu of length 3"),
    ((((0, 0, 1), (1, 0)),), (1, 1, -2), "flag point of width 2, nu of length 3"),
    ((((1, 5, 0),),), (2, -1, -1), "flag entry 5 is not an int in 0..1"),
    ((((1, -1, 0),),), (2, -1, -1), "flag entry -1 is not an int in 0..1"),
    ((((1, 1.0, 0),),), (2, -1, -1), "flag entry of type float is not an int in 0..1"),
    (([[1, 0, 0]],), (2, -1, -1), "flag row of type list is not a tuple"),
    (([(1, 0, 0)],), (2, -1, -1), "flag step of type list is not a tuple"),
    ([((1, 0, 0),)], (2, -1, -1), "flag bases of type list are not a tuple"),
], ids=["width-in-a-later-step", "width-in-a-later-row", "entry-past-the-field",
        "negative-entry", "float-entry", "list-rows", "list-step", "list-bases"])
def test_malformed_rows_are_refused_by_both_tests(bases, nu, err):
    # both tests check every row of every step before any memo is read: a
    # row of another width, or an entry that is not an element of F_2, gets
    # no verdict, an IndexError or a wrapped index, and a list row, step or
    # bases no bare TypeError from the profiles' memo, which hashes the point
    ff = ffl.finite_field(2)
    for test in (ffl.is_semistable_subspace_test, ffl.is_semistable_strata_test):
        with pytest.raises(ValidationError, match=f"^{re.escape(err)}$"):
            test(ffl.FlagPoint(bases), nu, ff)


@pytest.mark.parametrize("test", [ffl.is_semistable_subspace_test,
                                  ffl.is_semistable_strata_test], ids=["subspace", "strata"])
@pytest.mark.parametrize("entry", [1.0, True], ids=["float", "bool"])
def test_copy_of_the_last_point_with_an_equal_entry_is_refused(test, entry):
    # the profiles' memo compares points by value, where 1.0 == 1 == True:
    # a copy of the point just decided, with a float or bool entry, must be
    # refused before the memo is read, not given the int point's verdict
    ff = ffl.finite_field(2)
    assert test(ffl.FlagPoint((((1, 0, 0),),)), (2, -1, -1), ff) is False
    err = f"^flag entry of type {type(entry).__name__} is not an int in 0..1$"
    with pytest.raises(ValidationError, match=err):
        test(ffl.FlagPoint((((entry, 0, 0),),)), (2, -1, -1), ff)


@pytest.mark.parametrize("test", [ffl.is_semistable_subspace_test,
                                  ffl.is_semistable_strata_test], ids=["subspace", "strata"])
def test_a_bare_tuple_of_steps_is_refused(test):
    # a tuple of steps in place of a FlagPoint has no dims: it is refused
    # with a typed error before any attribute of it is read
    with pytest.raises(ValidationError, match="^flag point of type tuple is not a FlagPoint$"):
        test((((1, 0, 0),),), (2, -1, -1), ffl.finite_field(2))


def _mixed(step, rng, ff):
    """The rows of a random invertible combination of the rows of step."""
    k = len(step)
    while True:
        g = [[rng.randrange(ff.order) for _ in range(k)] for _ in range(k)]
        if len(ffl.rref(g, ff)[0]) == k:
            break
    out = []
    for coeffs in g:
        row = [0] * len(step[0])
        for c, r in zip(coeffs, step):
            row = [ff.add(a, ff.mul(c, b)) for a, b in zip(row, r)]
        out.append(tuple(row))
    return tuple(out)


@pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (3, 3)], ids=["F2", "F4", "F27"])
def test_a_hand_built_step_gets_the_verdicts_of_its_reduced_twin(q, m):
    # a full-rank step that is not in canonical form is reduced once, by the
    # public tests' common `_is_semistable`, and decided as the canonical
    # step it spans
    ff = ffl.finite_field(q, 1, m)
    rng = random.Random(q ** m)
    twins = [(ffl.FlagPoint((((0, 1, 0),), ((1, 1, 0), (0, 1, 0)))),
              ffl.FlagPoint((((0, 1, 0),), ((1, 0, 0), (0, 1, 0)))))]
    flags = list(ffl.enumerate_flags(ff, 2, (1, 2)))
    for x in rng.sample(flags, min(30, len(flags))):
        twins.append((ffl.FlagPoint(tuple(_mixed(step, rng, ff) for step in x.bases)), x))
    assert sum(hand != twin for hand, twin in twins) > len(twins) // 2
    seen = set()
    for nu in ((1, 0, -1), (3, 1, -4)):
        for hand, twin in twins:
            for test in (ffl.is_semistable_subspace_test, ffl.is_semistable_strata_test):
                verdict = test(twin, nu, ff)
                assert test(hand, nu, ff) == verdict
                seen.add(verdict)
    assert (True in seen) == (ff.order > 2)  # every flag over F_2 is rational


def test_enumerated_points_are_decided_without_rref(monkeypatch):
    # an enumerated point's steps are canonical: enumerate_flags's first
    # step, the check in `_is_semistable` and the kernel read pivots off the rows, so
    # with rref refused once the points are built, both public tests and
    # survey's verdicts decide them as before (n = 3 keeps `_rank` on its
    # fast paths)
    ff = ffl.finite_field(3, 1, 2)
    flags = list(ffl.enumerate_flags(ff, 2, (1, 2)))
    lines = list(ffl.enumerate_flags(ff, 2, (1,)))
    pairs = list(itertools.product(ffl.enumerate_flags(ffl.finite_field(2, 1, 2), 1, (1,)),
                                   repeat=2))

    def both(points, nu, ff):
        return [(x, ffl.is_semistable_subspace_test(x, nu, ff),
                 ffl.is_semistable_strata_test(x, nu, ff)) for x in points]

    jobs = [(flags, (1, 0, -1), ff), (lines, (2, -1, -1), ff),
            (pairs, ((1, -1), (1, -1)), ffl.finite_field(2, 1, 2))]
    want = [both(*job) for job in jobs]

    def refuse(*args):
        raise AssertionError("rref called")

    monkeypatch.setattr(ffl, "rref", refuse)
    assert [both(*job) for job in jobs] == want
    assert list(ffl.survey(3, 1, 2, 2, (2, -1, -1), 10 ** 6)[1]) == \
        [((x,), a, b) for x, a, b in want[1]]
    assert list(ffl.survey(2, 1, 2, 1, ((1, -1), (1, -1)), 10 ** 6)[1]) == want[2]


def test_survey_refuses_before_building_the_field(monkeypatch):
    # survey checks its budget's sign first, its counts, and nu's entry types
    # before the memo of nu's reading, which is keyed by value (1.0 == 1),
    # all before the field
    def no_field(*args):
        raise AssertionError(f"field {args} built")

    monkeypatch.setattr(ffl, "finite_field", no_field)
    ffl._excesses.cache_clear()
    # a negative budget is invalid, not exceeded, and refused first: before
    # the field order's checks (6 is not prime) and before nu is read
    for p in (2, 6):
        with pytest.raises(ValidationError, match="^budget must be nonnegative, got -1$"):
            ffl.survey(p, 1, 2, 1, (1, -1), -1)
    assert ffl._excesses.cache_info().currsize == 0
    # P^1 over F_16 has 17 points; nu is read before the count is refused
    with pytest.raises(BudgetExceeded, match="^17 flag points exceed budget 16$"):
        ffl.survey(2, 1, 4, 1, (1, -1), 16)
    assert ffl._excesses.cache_info().currsize == 1
    with pytest.raises(ValidationError, match="^cocharacter entry of type float, not an int"):
        ffl.survey(2, 1, 4, 1, (1.0, -1.0), 2 ** 16)
    assert ffl._excesses.cache_info().currsize == 1


def test_field_order_refused_before_primality_and_power():
    # a p above the bound is never tested for primality, and 2^(10^9) is
    # never formed; p at most the bound is tested first as before
    with pytest.raises(BudgetExceeded, match="field order 1000000000000000003 exceeds"):
        ffl.checked_field_order(10 ** 18 + 3)
    with pytest.raises(BudgetExceeded, match=r"field order 2\^1000000000 exceeds"):
        ffl.checked_field_order(2, 1, 10 ** 9)
    with pytest.raises(BudgetExceeded, match="field order 131072 exceeds"):
        ffl.checked_field_order(2, 1, 17)
    with pytest.raises(ValidationError, match="6 is not prime"):
        ffl.checked_field_order(6, 1, 10)
    with pytest.raises(ValidationError, match="1 is not prime"):
        ffl.checked_field_order(1, 1, 100)
    assert ffl.checked_field_order(2, 1, 16) == 65536


def test_subspace_enumeration_matches_gaussian_counts():
    for k in (1, 2):
        subs = list(ffl.enumerate_rref(3, k, range(3)))
        assert len(subs) == ffl.checked_flag_count(2, (k,), 3)
        assert len(set(subs)) == len(subs)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_enumerated_steps_are_their_own_rref(q):
    # `_is_semistable` and the kernel read a step's pivots off its rows, first 1
    # of each: every step of every enumerated point, partial or full, is
    # already its rref, with those pivots
    ff = ffl.finite_field(*ffl.factor_prime_power(q))
    for n in (2, 3, 4):
        for size in range(1, n):
            for dims in itertools.combinations(range(1, n), size):
                for x in ffl.enumerate_flags(ff, n - 1, dims):
                    for step in x.bases:
                        assert ffl.rref(step, ff) == (step, tuple(row.index(1) for row in step))


@pytest.mark.parametrize("q,m,t", [(2, 2, 2), (3, 2, 2), (2, 3, 3)])
def test_frobenius_twisted_steps_are_their_own_rref(q, m, t):
    # the kernel twists copy j's steps by Frob^-j; sigma fixes 0 and 1, so a
    # twisted canonical step is canonical, with the same pivots
    ff = ffl.finite_field(q, 1, m)
    for x in ffl.enumerate_flags(ff, 2, (1, 2)):
        for step in x.bases:
            pivots = tuple(row.index(1) for row in step)
            for j in range(1, t):
                twisted = tuple(tuple(ff.frobenius(v, -j) for v in row) for row in step)
                assert ffl.rref(twisted, ff) == (twisted, pivots)


def test_slope_examples():
    # the subspace excess is nkL (slope(U) - ambient slope) for the lcm L of
    # nu's denominators: for nu = (2, -1, -1) (ambient slope 0) a line in F^1
    # has slope 2 and a line outside it slope -1; for nu = (1/3, -1/3) (L = 3)
    # a line in F^1 has slope 1/3
    subspace = ffl._excesses(2, ((2, -1, -1),))[2]["subspace"]
    assert subspace(1, (1,)) == 6
    assert subspace(1, (0,)) == -3
    assert ffl._excesses(1, ((F(1, 3), F(-1, 3)),))[2]["subspace"](1, (1,)) == 2


def test_run_lengths_and_dims():
    # flag_dims reads nu on A_{n-1} as every route does: its dims are the
    # simple roots outside Delta_P, and it refuses what the routes refuse
    assert ffl.flag_dims((2, -1, -1)) == (1,)
    assert ffl.flag_dims((1, 0, -1)) == (1, 2)
    assert ffl.flag_dims((0, 0, 0)) == ()
    with pytest.raises(NotDominant, match=r"^negative pairing with simple coroots \[1\]$"):
        ffl.flag_dims((0, 1, -1))
    with pytest.raises(IllegalType):
        ffl.flag_dims((0,))
    with pytest.raises(BudgetExceeded):
        ffl.flag_dims((1,) + (0,) * 35)


@pytest.mark.parametrize("nu", [("1", "-1"), (1.0, -1.0), ("10", "2")],
                         ids=["str", "float", "str_order"])
def test_nu_entries_that_are_not_rational_are_refused(nu):
    # a string or a float is not read as a number: strings would compare as
    # text, and the integer scaling reads denominators
    message = r"^cocharacter entry of type (str|float), not an int or a Fraction$"
    with pytest.raises(ValidationError, match=message):
        ffl.flag_dims(nu)
    ff = ffl.finite_field(2, 1, 2)
    x = next(ffl.enumerate_flags(ff, 1, (1,)))
    for test in (ffl.is_semistable_subspace_test, ffl.is_semistable_strata_test):
        with pytest.raises(ValidationError, match=message):
            test(x, nu, ff)
        with pytest.raises(ValidationError, match=message):
            test((x,), (nu,), ff)


def test_semistable_p1_f4():
    ff = ffl.finite_field(2, 1, 2)
    rational = set(ff.subfield(ff.q))
    for x in ffl.enumerate_flags(ff, 1, (1,)):
        row = x.bases[0][0]
        is_rational = all(v in rational for v in row)
        assert ffl.is_semistable_subspace_test(x, (1, -1), ff) == (not is_rational)


def test_full_rational_flag_never_semistable():
    # any rational full flag is destabilized by its own first step
    ff = ffl.finite_field(2, 1, 2)
    point = ffl.FlagPoint((((1, 0, 0),), ((1, 0, 0), (0, 1, 0))))
    assert not ffl.is_semistable_subspace_test(point, (1, 0, -1), ff)
    assert not ffl.is_semistable_strata_test(point, (1, 0, -1), ff)


class SingularTransform(PeriodDomainError):
    """Basis change matrix is not invertible."""


def relative_position(x, g, ff):
    """Bruhat position w with x in g.(BwP/P), as a minimal coset representative.

    Computed from the rank matrix dim(g E_a cap F^{y_b}) against the
    reference full flag of g's leading column spans.
    """
    n = len(g)
    cols = tuple(tuple(row[c] for row in g) for c in range(n))
    if len(ffl.rref(cols, ff)[0]) != n:
        raise SingularTransform("basis change matrix is singular")

    jump_sets = []
    for step_rows in x.bases:
        # a is a jump where g E_a meets F^b in one more dimension than g E_{a-1}
        ranks = [len(ffl.rref((*step_rows, *cols[:a]), ff)[0]) for a in range(n + 1)]
        jump_sets.append({a for a in range(1, n + 1) if ranks[a] == ranks[a - 1]})
    jump_sets.append(set(range(1, n + 1)))

    one_line: list[int] = []
    prev: set[int] = set()
    for js in jump_sets:
        one_line += sorted(js - prev)
        prev = js
    rs = rd.build_root_system("A", n - 1)
    return weyl.permutation_element(rs, one_line)


def test_relative_position_identity_and_flip():
    ff = ffl.finite_field(2, 1, 2)
    ident = ((1, 0), (0, 1))
    std = ffl.FlagPoint((((1, 0),),))
    w = relative_position(std, ident, ff)
    assert w.length == 0
    opposite = ffl.FlagPoint((((0, 1),),))
    w = relative_position(opposite, ident, ff)
    assert w.length == 1


def test_relative_position_column_flip_on_coordinate_flags():
    # permuting the reference basis columns by the longest element sends the
    # position of a coordinate flag to the minimal representative of w0 w
    ff = ffl.finite_field(2, 1, 1)
    n = 3
    rs = rd.build_root_system("A", 2)
    w0 = weyl.longest_element(rs)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    flipped = tuple(tuple(int(i == n - 1 - j) for j in range(n)) for i in range(n))
    for x in ffl.enumerate_flags(ff, 2, (1,)):
        w = relative_position(x, ident, ff)
        if all(sum(row) == 1 for row in x.bases[-1]):  # coordinate flag
            wf = relative_position(x, flipped, ff)
            expected = min_coset_rep(w0 * w, (2,))
            assert wf.root_perm == expected.root_perm


def test_relative_position_rejects_singular():
    ff = ffl.finite_field(2, 1, 2)
    std = ffl.FlagPoint((((1, 0),),))
    with pytest.raises(SingularTransform):
        relative_position(std, ((1, 0), (1, 0)), ff)


def _span(rows, coeffs, ff):
    """Every linear combination of rows with coefficients from coeffs."""
    n = len(rows[0])
    out = set()
    for cs in itertools.product(coeffs, repeat=len(rows)):
        v = (0,) * n
        for c, row in zip(cs, rows):
            v = tuple(ff.add(a, ff.mul(c, b)) for a, b in zip(v, row))
        out.add(v)
    return out


def _brute_profile(u_rows, step_spans, ff):
    """(dim(U cap F^b))_b by counting the working-field vectors of U that lie
    in each step."""
    vecs = _span(u_rows, range(ff.order), ff)
    return tuple(next(d for d in range(len(u_rows) + 1) if ff.order ** d == len(vecs & s))
                 for s in step_spans)


def _step_spans(x, ff):
    return [_span(b, range(ff.order), ff) for b in x.bases]


def _completed_basis(t_rows, ff, n):
    """Invertible matrix whose first columns are t_rows, completed by unit vectors."""
    cols = [tuple(r) for r in t_rows]
    for j in range(n):
        e = tuple(int(i == j) for i in range(n))
        if len(ffl.rref(cols + [e], ff)[0]) > len(cols):
            cols.append(e)
    return tuple(tuple(col[r] for col in cols) for r in range(n))


@pytest.mark.parametrize("q,m,ell,dims,every", [
    (2, 2, 2, (1,), 1),       # P^2 over F_4
    (3, 2, 2, (1,), 1),       # P^2 over F_9
    (2, 3, 1, (1,), 1),       # P^1 over F_8
    (2, 2, 2, (1, 2), 1),     # full flags over F_4
    (2, 2, 3, (1,), 1),       # P^3 over F_4: ranks of 2 x 3 and 3 x 3 matrices
    (2, 2, 3, (2,), 7),       # lines in P^3 over F_4
    (2, 2, 3, (1, 2, 3), 97),  # full flags of F_4^4
])
def test_intersection_profiles_match_brute_force(q, m, ell, dims, every):
    ff = ffl.finite_field(q, 1, m)
    n = ell + 1
    rational = {k: list(ffl.enumerate_rref(n, k, ff.subfield(ff.q))) for k in range(1, n)}
    for x in list(ffl.enumerate_flags(ff, ell, dims))[::every]:
        spans = _step_spans(x, ff)
        want = {k: {_brute_profile(u, spans, ff) for u in us} for k, us in rational.items()}
        assert dict(ffl.intersection_profiles((x,), n, ff)) == want, x


@pytest.mark.parametrize("q,m,ell,dims", [
    (2, 2, 1, ((1,), (1,))),        # pairs of lines in F_4^2, k' = F_4
    (2, 4, 1, ((1,), (1,))),        # pairs over F_16, k' = F_4
    (2, 3, 1, ((1,), (1,), (1,))),  # triples over F_8, k' = F_8: Frob^-1 is not Frob
    (2, 2, 2, ((1,), (1, 2))),      # a line and a full flag of F_4^3
])
def test_intersection_profiles_of_copies_match_brute_force(q, m, ell, dims):
    # copy j of a t-tuple meets Frob^j U for every subspace U of F_{q^t}^n
    ff = ffl.finite_field(q, 1, m)
    n, t = ell + 1, len(dims)
    subspaces = {k: list(ffl.enumerate_rref(n, k, ff.subfield(q ** t))) for k in range(1, n)}
    points = list(itertools.product(*(ffl.enumerate_flags(ff, ell, d) for d in dims)))
    for x in points[::max(1, len(points) // 40)]:
        spans = [_step_spans(copy, ff) for copy in x]
        want = {k: {sum((_brute_profile([[ff.frobenius(v, j) for v in row] for row in u],
                                        spans[j], ff) for j in range(t)), ())
                    for u in us}
                for k, us in subspaces.items()}
        assert dict(ffl.intersection_profiles(x, n, ff)) == want, x


def _brute_profiles(x, ff):
    n = len(x.bases[0][0])
    spans = _step_spans(x, ff)
    return {k: {_brute_profile(u, spans, ff) for u in ffl.enumerate_rref(n, k, ff.subfield(ff.q))}
            for k in range(1, n)}


def test_both_tests_of_a_point_share_one_profile_pass():
    ff = ffl.finite_field(2, 1, 2)
    nu = (1, 0, -1)
    ffl.intersection_profiles.cache_clear()
    for x in list(ffl.enumerate_flags(ff, 2, (1, 2)))[:5]:
        before = ffl.intersection_profiles.cache_info()
        ffl.is_semistable_subspace_test(x, nu, ff)
        ffl.is_semistable_strata_test(x, nu, ff)
        after = ffl.intersection_profiles.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
        assert after.currsize == 1


def test_profiles_are_kept_per_field():
    # the same bases over F_4 and over F_16, both with q = 4: <(1, x)> is a
    # rational line of F_4^2 but not of F_16^2
    small, large = ffl.finite_field(2, 2, 1), ffl.finite_field(2, 2, 2)
    x = ffl.FlagPoint((((1, 2),),))
    want = {ff: _brute_profiles(x, ff) for ff in (small, large)}
    assert want[small] != want[large]
    for ff in (small, large, small):
        assert dict(ffl.intersection_profiles((x,), 2, ff)) == want[ff]


def test_a_tuple_and_its_first_point_keep_separate_profiles():
    ff = ffl.finite_field(2, 1, 2)
    x = next(ffl.enumerate_flags(ff, 1, (1,)))
    ffl.intersection_profiles.cache_clear()
    alone = ffl.intersection_profiles((x,), 2, ff)
    pair = ffl.intersection_profiles((x, x), 2, ff)
    assert dict(alone) == _brute_profiles(x, ff)
    assert {len(p) for _, ps in pair for p in ps} == {2}
    assert ffl.intersection_profiles.cache_info().misses == 2


def test_returned_profiles_are_immutable():
    ff = ffl.finite_field(2, 1, 2)
    x = next(ffl.enumerate_flags(ff, 2, (1, 2)))
    result = ffl.intersection_profiles((x,), 3, ff)
    assert isinstance(result, tuple)
    for _, profiles in result:
        assert isinstance(profiles, frozenset)
        with pytest.raises(AttributeError):
            profiles.add((0, 0))


def test_frobenius_powers():
    ff = ffl.finite_field(2, 2, 3)  # F_64 over F_4: Frob_4 has order 3
    for a in range(ff.order):
        assert ff.frobenius(a, 0) == a == ff.frobenius(a, 3)
        assert ff.frobenius(a, 2) == ff.frobenius(ff.frobenius(a))
        assert ff.frobenius(ff.frobenius(a, -1)) == a


@pytest.mark.parametrize("p,e,m,n", [
    (2, 1, 1, 3), (2, 1, 2, 4), (3, 1, 1, 3), (3, 1, 2, 4), (2, 2, 1, 3), (2, 1, 1, 5),
])
def test_rational_subspace_counts(p, e, m, n):
    ff = ffl.finite_field(p, e, m)
    rows, families = ffl._rational_rows(ff, n, 1)
    assert len(set(rows)) == len(rows)
    assert all(v in ff.subfield(ff.q) for row in rows for v in row)
    for k, family in enumerate(families, start=1):
        assert len(family) == len(set(family)) == ffl.checked_flag_count(n - 1, (k,), ff.q)
        assert family == tuple(tuple(rows.index(r) for r in u)
                               for u in ffl.enumerate_rref(n, k, ff.subfield(ff.q)))


@pytest.mark.parametrize("q,m,nu,every", [
    (2, 2, (1, 0, -1), 1), (2, 2, (2, -1, -1), 1), (3, 2, (1, 1, -2), 1),
    (2, 1, (2, 1, -1, -2), 5), (2, 2, (3, -1, -1, -1), 3), (2, 2, (1, 1, -1, -1), 9),
])
def test_vertex_pairing_matches_relative_position(q, m, nu, every):
    # the strata test reads (omega_i, w nu) off dim(T cap F^b); relative
    # position against an explicit basis whose first i columns span T must
    # give the same value for every rational T
    ff = ffl.finite_field(q, 1, m)
    n = len(nu)
    rs = rd.build_root_system("A", n - 1)
    pairing = ffl._excesses(n - 1, (rd.vector(nu),))[2]["strata"]
    _, scale, _ = rd.integer_pairings(rs, (rd.vector(nu),))  # the excess is 2nL (omega_i, w nu)
    for x in list(ffl.enumerate_flags(ff, n - 1, ffl.flag_dims(nu)))[::every]:
        spans = _step_spans(x, ff)
        for i in range(1, n):
            for t in ffl.enumerate_rref(n, i, ff.subfield(ff.q)):
                w = relative_position(x, _completed_basis(t, ff, n), ff)
                want = 2 * n * scale * inner_product(rs.fundamental_coweights[i - 1],
                                                     reference_apply(w, nu))
                assert pairing(i, _brute_profile(t, spans, ff)) == want, (x, t)


def test_strata_excess_is_k_times_subspace_excess():
    # for type A, (omega_k, w nu) = k (slope(U) - ambient slope), so the
    # integer excesses, 2nL and nkL times these, differ by the factor 2: the
    # two routes derive one number, on the criterion-6 grid and two t = 2
    # cells (one with factors of nonzero sum), over a prefix of each cell's
    # points
    cells = [(q, m, ell, (nu,)) for q in (2, 3) for m in (1, 2, 3) for ell, nu in
             [(1, (1, -1))] + [(2, nu) for nu in ((2, -1, -1), (1, 1, -2), (1, 0, -1))]]
    cells += [(2, 2, 2, ((2, -1, -1), (1, 0, -1))), (2, 4, 1, ((1, 0), (0, -1)))]
    signs = set()
    for q, m, ell, nus in cells:
        ff = ffl.finite_field(q, 1, m)
        n, _, excess = ffl._excesses(ell, nus)
        copies = [ffl.enumerate_flags(ff, ell, ffl.flag_dims(nu)) for nu in nus]
        for x in itertools.islice(itertools.product(*copies), 12):
            for k, profiles in ffl.intersection_profiles(x, n, ff):
                for p in profiles:
                    gap = excess["subspace"](k, p)
                    assert excess["strata"](k, p) == 2 * gap, (q, m, nus, x, k, p)
                    signs.add((gap > 0) - (gap < 0))
    assert signs == {-1, 0, 1}


@pytest.mark.parametrize("q,m,nu", [
    (2, 2, (1, -1)), (2, 3, (1, -1)), (3, 2, (1, -1)),
])
def test_two_routes_agree_rank_one(q, m, nu):
    ff = ffl.finite_field(q, 1, m)
    for x in ffl.enumerate_flags(ff, 1, ffl.flag_dims(nu)):
        assert ffl.is_semistable_subspace_test(x, nu, ff) == \
            ffl.is_semistable_strata_test(x, nu, ff)


@pytest.mark.parametrize("q,m,nu", [
    (2, 2, (2, -1, -1)), (2, 2, (1, 1, -2)), (2, 2, (1, 0, -1)),
    (3, 1, (1, 0, -1)),
])
def test_two_routes_agree_rank_two(q, m, nu):
    ff = ffl.finite_field(q, 1, m)
    for x in ffl.enumerate_flags(ff, 2, ffl.flag_dims(nu)):
        assert ffl.is_semistable_subspace_test(x, nu, ff) == \
            ffl.is_semistable_strata_test(x, nu, ff)


def test_two_routes_agree_rank_three_sample():
    ff = ffl.finite_field(2, 1, 2)
    nu = (3, -1, -1, -1)
    for x in ffl.enumerate_flags(ff, 3, ffl.flag_dims(nu)):
        assert ffl.is_semistable_subspace_test(x, nu, ff) == \
            ffl.is_semistable_strata_test(x, nu, ff)


def semistable_count(q, m, ell, nu):
    """Semistable points of nu's flag variety over F_{q^m}: the subspace
    verdicts of `survey`."""
    _, verdicts = ffl.survey(q, 1, m, ell, nu, 2 ** 16)
    return sum(a for _, a, _ in verdicts)


@pytest.mark.parametrize("q,m,expected", [
    (2, 2, 2), (2, 3, 6), (3, 2, 6),
])
def test_drinfeld_counts_rank_one(q, m, expected):
    assert semistable_count(q, m, 1, (1, -1)) == expected
    # matches |P1(F_{q^m})| - |P1(F_q)|
    assert expected == (q ** m + 1) - (q + 1)


@pytest.mark.parametrize("m,expected", [(2, 0), (3, 24)])
def test_counts_rank_two(m, expected):
    assert semistable_count(2, m, 2, (2, -1, -1)) == expected


def test_dual_counts_match():
    # Omega and its dual are isomorphic varieties, so the counts agree
    for m in (2, 3):
        assert semistable_count(2, m, 2, (2, -1, -1)) == semistable_count(2, m, 2, (1, 1, -2))


def test_fibration_count_for_full_flag_drinfeld():
    # nu = (4,-1,-3): first-step Drinfeld with a full P1-fiber over Omega
    count = semistable_count(2, 3, 2, (4, -1, -3))
    omega = semistable_count(2, 3, 2, (2, -1, -1))
    assert count == omega * (2 ** 3 + 1)


def test_frobenius_stability_of_semistable_set():
    ff = ffl.finite_field(2, 1, 2)
    nu = (2, -1, -1)
    verdicts = {}
    for x in ffl.enumerate_flags(ff, 2, (1,)):
        verdicts[x.bases] = ffl.is_semistable_subspace_test(x, nu, ff)
    for bases, verdict in verdicts.items():
        frob_bases = tuple(
            tuple(tuple(ff.frobenius(v) for v in row) for row in step)
            for step in bases)
        assert verdicts[frob_bases] == verdict


def test_monotonicity_in_m():
    counts = [semistable_count(2, m, 1, (1, -1)) for m in (1, 2, 3, 4)]
    assert counts == sorted(counts)


def test_every_point_semistable_when_unstable_locus_empty():
    # nu = 0 on a point-flag: nothing can destabilize
    ff = ffl.finite_field(2, 1, 2)
    points = list(ffl.enumerate_flags(ff, 1, ()))
    assert len(points) == 1
    assert ffl.is_semistable_subspace_test(points[0], (0, 0), ff)
    assert ffl.is_semistable_strata_test(points[0], (0, 0), ff)


def frobenius_point(x, ff):
    """The point whose steps are those of x with Frob_q applied to every entry."""
    return ffl.FlagPoint(tuple(tuple(tuple(ff.frobenius(v) for v in row) for row in step)
                               for step in x.bases))


def _restriction_counts(q, m, ell, nus):
    """(semistable, points, points where the two tests disagree) over every
    t-tuple of flag points, t = len(nus)."""
    ff = ffl.finite_field(q, 1, m)
    points = list(itertools.product(*(ffl.enumerate_flags(ff, ell, ffl.flag_dims(nu))
                                      for nu in nus)))
    verdicts = [(ffl.is_semistable_subspace_test(x, nus, ff),
                 ffl.is_semistable_strata_test(x, nus, ff)) for x in points]
    return sum(a for a, _ in verdicts), len(points), sum(a != b for a, b in verdicts)


def test_restriction_diagonal_complement():
    # degree-2 restriction of the rank-one group at q=2: working field F4 is
    # the quadratic extension itself; equal nonzero weights leave the
    # complement of a twisted-diagonal copy of P1(F4): 25 - 5 = 20 points
    ff = ffl.finite_field(2, 1, 2)
    nus = ((1, -1), (1, -1))
    lines = list(ffl.enumerate_flags(ff, 1, (1,)))
    unstable = {(x, y) for x in lines for y in lines
                if not ffl.is_semistable_subspace_test((x, y), nus, ff)}
    assert unstable == {(x, frobenius_point(x, ff)) for x in lines}
    assert len(lines) == len(unstable) == 5
    assert _restriction_counts(2, 2, 1, nus) == (20, 25, 0)


def test_restriction_unequal_weights():
    # second factor trivial: a point of its flag variety, while the first
    # factor must avoid the lines rational over the quadratic extension,
    # which over F4 itself leaves nothing
    assert _restriction_counts(2, 2, 1, ((1, -1), (0, 0))) == (0, 5, 0)
    # over F16 the first factor decides: P1(F16) minus P1(F4), times P1(F16)
    assert _restriction_counts(2, 4, 1, ((2, -2), (1, -1))) == ((17 - 5) * 17, 17 * 17, 0)
    # equal weights: only the twisted diagonal over F4 is unstable
    assert _restriction_counts(2, 4, 1, ((1, -1), (1, -1))) == (17 * 17 - 5, 17 * 17, 0)


def test_subfield_sizes_are_powers_of_p():
    # F_16 has subfields of 2, 4 and 16 elements; 6 - 1 divides 16 - 1, but 6
    # is no power of 2, and 8 - 1 does not divide 15
    ff = ffl.finite_field(2, 1, 4)
    assert [len(ff.subfield(size)) for size in (2, 4, 16)] == [2, 4, 16]
    assert set(ff.subfield(4)) == {a for a in range(16) if ff.frobenius(a, 2) == a}
    for size in (6, 8, 1, 0):
        with pytest.raises(ValidationError, match=f"no subfield of size {size} in F_16$"):
            ff.subfield(size)


def test_restriction_degree_must_divide_m():
    # F_8 contains no quadratic extension of F_2
    odd = ffl.finite_field(2, 1, 3)
    x = ffl.FlagPoint((((1, 0),),))
    for test in (ffl.is_semistable_subspace_test, ffl.is_semistable_strata_test):
        with pytest.raises(ValidationError, match="no subfield of size 4 in F_8"):
            test((x, x), ((1, -1), (1, -1)), odd)


@pytest.mark.parametrize("q,m,ell,nus,semistable", [
    # t = 3 over F_8 = k': each of the 9 k'-lines T destabilizes the 25
    # triples that meet Frob^j T in at least two copies j
    (2, 3, 1, ((1, -1),) * 3, 9 * 9 * 9 - 9 * 25),
    # t = 2 over F_9 = k': the twisted diagonal, 10 of 100 pairs
    (3, 2, 1, ((1, -1), (1, -1)), 90),
    (2, 2, 1, ((3, -3), (1, -1)), 0),
    (2, 4, 1, ((1, -1), (0, 0)), 17 - 5),
    (2, 2, 2, ((2, -1, -1), (1, 1, -2)), None),
    (2, 2, 2, ((1, 0, -1), (0, 0, 0)), None),
    (2, 2, 2, ((2, -1, -1), (0, 0, 0)), 0),
    (2, 4, 1, ((1, 0), (0, -1)), None),  # factors with nonzero sums
    (2, 2, 2, ((2, -1, -1), (1, 0, -1)), 0),  # 21 x 105 points
])
def test_restriction_routes_agree(q, m, ell, nus, semistable):
    count, points, disagreements = _restriction_counts(q, m, ell, nus)
    assert disagreements == 0
    assert semistable is None or count == semistable, count


def test_restriction_of_degree_one_is_the_flag_variety():
    # a 1-tuple of points with a 1-tuple of factors is the FlagPoint case
    ff = ffl.finite_field(2, 1, 3)
    for nu in ((2, -1, -1), (1, 0, -1)):
        for x in list(ffl.enumerate_flags(ff, 2, ffl.flag_dims(nu)))[::7]:
            assert ffl.is_semistable_subspace_test((x,), (nu,), ff) == \
                ffl.is_semistable_subspace_test(x, nu, ff)
            assert ffl.is_semistable_strata_test((x,), (nu,), ff) == \
                ffl.is_semistable_strata_test(x, nu, ff)


def test_a_float_nu_is_refused_after_its_equal_int_nu():
    # the tests' memo is keyed by nu's value, and (1.0, -1.0) == (1, -1), so
    # the entry types are checked before the memo answers
    ff = ffl.finite_field(2, 1, 2)
    x = next(ffl.enumerate_flags(ff, 1, (1,)))
    for points, ints, floats in [(x, (1, -1), (1.0, -1.0)),
                                 ((x, x), ((1, -1), (1, -1)), ((1, -1), (1.0, -1.0)))]:
        for test in (ffl.is_semistable_subspace_test, ffl.is_semistable_strata_test):
            test(points, ints, ff)
            with pytest.raises(ValidationError, match="^cocharacter entry of type float"):
                test(points, floats, ff)


def test_restriction_shape_is_checked():
    ff = ffl.finite_field(2, 1, 2)
    x = ffl.FlagPoint((((1, 0),),))
    with pytest.raises(ValidationError, match="1 flag points for 2 cocharacter factors"):
        ffl.is_semistable_subspace_test((x,), ((1, -1), (1, -1)), ff)
    with pytest.raises(ValidationError, match="factors of lengths"):
        ffl.is_semistable_strata_test((x, x), ((1, -1), (2, -1, -1)), ff)
