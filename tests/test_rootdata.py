import dataclasses
import functools
import random
from fractions import Fraction as F

import pytest

from perioddomains import rootdata as rd
from perioddomains import weyl
from perioddomains.errors import BudgetExceeded, DimensionMismatch, IllegalType, MalformedNu

ALL_SYSTEMS = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(2, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]
)


def frac_vec(*xs):
    return tuple(F(x) for x in xs)


def inner_product(u, v):
    """Euclidean pairing; the Weyl-invariant form of every realization here."""
    if len(u) != len(v):
        raise DimensionMismatch(f"vectors of length {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), F(0))


def coroot(alpha):
    """alpha^vee = 2*alpha/(alpha,alpha)."""
    norm = inner_product(alpha, alpha)
    return tuple(2 * a / norm for a in alpha)


@functools.lru_cache(maxsize=None)
def simple_roots(rs):
    """The simple roots of any realization, read off its doubled integer
    pairs: a product of copies keeps no Fraction view of them."""
    return tuple(tuple(F(dict(root).get(k, 0), 2) for k in range(rs.ambient_dim))
                 for root in rs.simple_pairs)


@functools.lru_cache(maxsize=None)
def positive_roots(rs):
    """The positive roots of any realization as Fraction vectors, formed from
    its coefficients, so in the order that fixes every root index."""
    simple = simple_roots(rs)
    return tuple(tuple(sum((c * a[k] for c, a in zip(coeffs, simple)), F(0))
                       for k in range(rs.ambient_dim)) for coeffs in rs.positive_coefficients)


def galois_orbits(g):
    """The 1-based absolute simple-root indices restricting to each relative
    vertex: its base orbit, copied into every block."""
    return tuple(tuple(sorted(j * g.base.rank + b for j in range(g.res_degree) for b in orbit))
                 for orbit in rd._base_orbits(g.base, g.form))


def block_copies(g, vectors):
    """Vectors of g's base system embedded in each of its copies in turn; on
    the base's coweights, the absolute fundamental coweights of g."""
    n, t, zero = g.base.ambient_dim, g.res_degree, (F(0),)
    return tuple(zero * (j * n) + v + zero * ((t - 1 - j) * n)
                 for j in range(t) for v in vectors)


def test_a2_coweights_exact():
    rs = rd.build_root_system("A", 2)
    assert rs.fundamental_coweights[0] == frac_vec(F(2, 3), F(-1, 3), F(-1, 3))
    assert rs.fundamental_coweights[1] == frac_vec(F(1, 3), F(1, 3), F(-2, 3))


def test_a1_coweight_and_duality():
    rs = rd.build_root_system("A", 1)
    w = rs.fundamental_coweights[0]
    assert w == frac_vec(F(1, 2), F(-1, 2))
    assert inner_product(w, coroot(rs.simple_roots[0])) == 1


def test_g2_gram_constants():
    rs = rd.build_root_system("G2", 2)
    w1, w2 = rs.fundamental_coweights
    a1, a2 = rs.simple_roots
    assert inner_product(w1, w1) == 2
    assert inner_product(w1, w2) == 3
    assert inner_product(w2, w2) == 6
    assert inner_product(a1, a1) == 2
    assert inner_product(a2, a2) == 6


def test_inner_product_basics():
    rs = rd.build_root_system("A", 2)
    w1, w2 = rs.fundamental_coweights
    assert inner_product(w1, w2) == F(1, 3)
    assert inner_product(w1, (0, 0, 0)) == 0
    with pytest.raises(DimensionMismatch):
        inner_product((1, 0), (1, 0, 0))


@pytest.mark.parametrize("kind,rank", ALL_SYSTEMS)
def test_coweight_duality_exact(kind, rank):
    rs = rd.build_root_system(kind, rank)
    for i, w in enumerate(rs.fundamental_coweights):
        for j, a in enumerate(rs.simple_roots):
            assert inner_product(w, coroot(a)) == int(i == j)


@pytest.mark.parametrize("kind,rank", ALL_SYSTEMS)
def test_coweight_gram_nonnegative(kind, rank):
    rs = rd.build_root_system(kind, rank)
    ws = rs.fundamental_coweights
    for i in range(rank):
        for j in range(rank):
            assert inner_product(ws[i], ws[j]) >= 0


@pytest.mark.parametrize("kind,rank", [t for t in ALL_SYSTEMS if t[0] != "A"])
def test_coweight_norm_bound_non_a(kind, rank):
    # (w_i, w_i) >= (a_i, a_i)/2 for every type except A; this bound is what
    # rules the non-A types out of the codimension-one phenomenon.
    rs = rd.build_root_system(kind, rank)
    for w, a in zip(rs.fundamental_coweights, rs.simple_roots):
        assert inner_product(w, w) >= inner_product(a, a) / 2


@pytest.mark.parametrize("rank", range(1, 9))
def test_coweight_norm_bound_fails_at_type_a_ends(rank):
    # For type A the bound fails exactly at the end nodes (all nodes for
    # rank <= 2); those are the vertices carrying the Drinfeld cases.
    rs = rd.build_root_system("A", rank)
    for i, (w, a) in enumerate(zip(rs.fundamental_coweights, rs.simple_roots), 1):
        holds = inner_product(w, w) >= inner_product(a, a) / 2
        assert holds == (i not in (1, rank))


def test_opposition_tables():
    assert rd.build_root_system("A", 5).opposition == (5, 4, 3, 2, 1)
    assert rd.build_root_system("B", 4).opposition == (1, 2, 3, 4)
    assert rd.build_root_system("C", 3).opposition == (1, 2, 3)
    assert rd.build_root_system("D", 4).opposition == (1, 2, 3, 4)
    assert rd.build_root_system("D", 5).opposition == (1, 2, 3, 5, 4)
    assert rd.build_root_system("E7", 7).opposition == tuple(range(1, 8))
    assert rd.build_root_system("E8", 8).opposition == tuple(range(1, 9))
    assert rd.build_root_system("F4", 4).opposition == (1, 2, 3, 4)
    assert rd.build_root_system("G2", 2).opposition == (1, 2)
    # The E6 diagram flip fixes the branch node (2) and the centre (4).
    assert rd.build_root_system("E6", 6).opposition == (6, 2, 5, 4, 3, 1)


@pytest.mark.parametrize("kind,rank", [("A", 3), ("B", 3), ("D", 4), ("E6", 6), ("G2", 2)])
def test_opposition_matches_longest_element(kind, rank):
    rs = rd.build_root_system(kind, rank)
    w0 = weyl.longest_element(rs)
    for i in range(rank):
        img = tuple(-x for x in reference_apply(w0, rs.fundamental_coweights[i]))
        assert img == rs.fundamental_coweights[rs.opposition[i] - 1]


def test_illegal_pairs():
    for kind, rank in [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E6", 7),
                       ("F4", 3), ("G2", 3), ("X", 2), ("E6", 5), ("E7", 8),
                       ("E8", 7), ("F4", 5), ("G2", 1)]:
        with pytest.raises(IllegalType):
            rd.build_root_system(kind, rank)


def test_kind_names_are_upper_cased_and_short_names_take_the_rank():
    # a kind is read upper-cased; E names E{rank}, F and G the one system of
    # their letter, whose rank is then checked like any other
    for build in (rd.build_root_system, lambda kind, rank: rd.build_group(kind, rank).base):
        for kind, rank, name in [("a", 3, "A"), (" b ", 2, "B"), ("E", 6, "E6"), ("e", 8, "E8"),
                                 ("F", 4, "F4"), ("g", 2, "G2")]:
            assert build(kind, rank) is rd.build_root_system(name, rank)
        with pytest.raises(IllegalType, match=r"^unknown kind 'E5'$"):
            build("E", 5)
        with pytest.raises(IllegalType, match=r"^illegal pair kind=G2 rank=3$"):
            build("G", 3)
    assert rd.build_group("e", 7) is rd.build_group("E7", 7)


def test_flat_cocharacter_only_for_t_1():
    # a restriction of scalars takes its cocharacter as t factors; one flat
    # vector of length t * n is refused, and is a cocharacter only at t = 1
    g = rd.build_group("A", 1, res_degree=3)
    with pytest.raises(DimensionMismatch, match="flat cocharacter of length 6"):
        rd._read_nu(g.base, 3, (1, -1) * 3)
    assert rd._read_nu(g.base, 3, [(1, -1)] * 3)[0] == ((1, -1),) * 3
    assert rd._read_nu(g.base, 1, (1, -1))[0] == ((1, -1),)


def test_a_wrong_factor_count_is_refused_by_the_library():
    # the CLI counts nu's factors against t before it calls the library, so
    # only a library caller meets this refusal, on both routes
    from perioddomains import classify, strata
    g = rd.build_group("A", 1, res_degree=2)
    for route in (classify.classify, strata.strata_report):
        with pytest.raises(MalformedNu, match=r"^expected 2 cocharacter factors, got 3$"):
            route(g, ((1, -1),) * 3)


def test_a_factor_that_is_no_tuple_or_list_is_refused_unread():
    # the entry check would consume a one-shot iterator before its width is
    # measured; it is refused before any entry is read, and a list factor
    # reads as a tuple does
    g = rd.build_group("A", 1, res_degree=2)
    factor = iter((1, -1))
    message = r"^cocharacter factor of type tuple_iterator, not a tuple or a list$"
    with pytest.raises(MalformedNu, match=message):
        rd._read_nu(g.base, 2, [(1, -1), factor])
    assert list(factor) == [1, -1]
    assert rd._read_nu(g.base, 2, [(1, -1), [1, -1]]) == \
        rd._read_nu(g.base, 2, ((1, -1), (1, -1))) == (((1, -1),) * 2, 1, ((),) * 2)


def test_numpy_integer_entries_read_as_python_ints():
    # a numpy integer is a Rational whose numerator stays a numpy integer;
    # read as such, 2 * 2^62 - 2 * (-2^62) = 2^64 would wrap to 0 and make
    # nu look singular
    np = pytest.importorskip("numpy")
    from perioddomains import classify, finflag, strata

    g = rd.build_group("A", 1)
    py_nu = (2 ** 62, -2 ** 62)
    np_nu = tuple(map(np.int64, py_nu))
    assert rd._read_nu(g.base, 1, np_nu) == rd._read_nu(g.base, 1, py_nu) == (
        ((2 ** 62, -2 ** 62),), 1, ((),))
    assert all(type(x) is int for x in rd._read_nu(g.base, 1, np_nu)[0][0])
    assert finflag.flag_dims(np_nu) == finflag.flag_dims(py_nu) == (1,)
    assert classify.classify(g, np_nu) == classify.classify(g, py_nu)
    assert strata.strata_report(g, np_nu) == strata.strata_report(g, py_nu)


@pytest.mark.parametrize("kind,rank", [("A", 35), ("B", 25), ("C", 25), ("D", 26), ("A", 10 ** 6)])
def test_oversized_systems_refused_before_the_build(kind, rank, monkeypatch):
    def no_table(*args):
        raise AssertionError(f"{args} built")

    monkeypatch.setattr(rd, "_simple_root_table", no_table)
    with pytest.raises(BudgetExceeded, match=f"above the bound {rd.MAX_POSITIVE_ROOTS}"):
        rd.build_root_system(kind, rank)
    with pytest.raises(BudgetExceeded):
        rd.build_group(kind, rank, res_degree=2)


def test_d3_alias_warns():
    with pytest.warns(UserWarning, match="D3"):
        rs = rd.build_root_system("D", 3)
    assert len(rs.positive_coefficients) == 6  # same as A3


def test_weyl_invariance_sampled(rng):
    for kind, rank in ALL_SYSTEMS:
        rs = rd.build_root_system(kind, rank)
        n = rs.ambient_dim
        for _ in range(1000 // len(ALL_SYSTEMS) + 1):
            w = weyl.identity_element(rs)
            for _ in range(rng.randint(0, 8)):
                w = w * weyl.simple_reflection(rs, rng.randint(1, rank))
            u = rd.vector([rng.randint(-3, 3) for _ in range(n)])
            v = rd.vector([rng.randint(-3, 3) for _ in range(n)])
            image_u, image_v = reference_apply(w, u), reference_apply(w, v)
            assert inner_product(image_u, image_v) == inner_product(u, v)


# The Fraction build that the integer label rule replaced, kept as the
# reference: reflection closure on ambient vectors, the walk from -rho, and
# the opposition read from w0 applied to the simple roots.

def _reference_close_roots(simple):
    r = len(simple)
    coroots = [coroot(a) for a in simple]
    known = {simple[i]: tuple(F(int(i == j)) for j in range(r)) for i in range(r)}
    frontier = list(simple)
    while frontier:
        fresh = []
        for root in frontier:
            c = known[root]
            for i in range(r):
                pairing = inner_product(root, coroots[i])
                if pairing == 0:
                    continue
                img = tuple(a - pairing * b for a, b in zip(root, simple[i]))
                if img not in known:
                    cc = list(c)
                    cc[i] -= pairing
                    known[img] = tuple(cc)
                    fresh.append(img)
        frontier = fresh
    positives = sorted(v for v, c in known.items() if all(x >= 0 for x in c))
    return tuple(positives), tuple(known[v] for v in positives)


def _reference_apply_word(word, v, simple, coroots=None):
    for i in reversed(word):
        alpha = simple[i - 1]
        alphav = coroot(alpha) if coroots is None else coroots[i - 1]
        pairing = inner_product(v, alphav)
        v = tuple(a - pairing * b for a, b in zip(v, alpha))
    return v


@functools.lru_cache(maxsize=None)
def _reference_coroots(rs):
    return tuple(coroot(a) for a in simple_roots(rs))


def reference_apply(w, v):
    """w v for a Weyl element w and an ambient vector v: Fraction reflections
    along w's word, the suite's one reference for images of vectors."""
    rs = w.realization
    return _reference_apply_word(w.word, rd.vector(v), simple_roots(rs), _reference_coroots(rs))


def _reference_w0_word(simple, coweights):
    rho = tuple(sum(xs) for xs in zip(*coweights))
    v = tuple(-x for x in rho)
    word = []
    while (i := next((i for i, a in enumerate(simple)
                      if inner_product(v, coroot(a)) < 0), None)) is not None:
        v = _reference_apply_word([i + 1], v, simple)
        word.append(i + 1)
    assert v == rho
    return tuple(word)


def _reference_opposition(word, simple):
    return tuple(simple.index(tuple(-x for x in _reference_apply_word(word, a, simple))) + 1
                 for a in simple)


def _reference_coweights(simple):
    # omega_i = sum_j B_ij alpha_j, B the inverse of ((alpha_i, alpha_j^vee)),
    # by Gauss-Jordan elimination of [P | I]
    r = len(simple)
    rows = [[inner_product(a, coroot(b)) for b in simple] + [F(int(i == j)) for j in range(r)]
            for i, a in enumerate(simple)]
    for col in range(r):
        piv = next(k for k in range(col, r) if rows[k][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for k in range(r):
            f = rows[k][col]
            if k != col and f:
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[col])]
    return tuple(tuple(sum((c * a[k] for c, a in zip(row[r:], simple)), F(0))
                       for k in range(len(simple[0]))) for row in rows)


def _reference_sperm(rs):
    simple = simple_roots(rs)
    positives = list(positive_roots(rs))
    roots = positives + [tuple(-x for x in v) for v in positives]
    index = {v: k for k, v in enumerate(roots)}
    return tuple(tuple(index[_reference_apply_word([i], v, simple)] for v in roots)
                 for i in range(1, rs.rank + 1))


def _reference_cartan(simple):
    return tuple(tuple((j, int(inner_product(a, coroot(b))))
                       for j, b in enumerate(simple) if j != k and inner_product(a, b))
                 for k, a in enumerate(simple))


@pytest.mark.parametrize("kind,rank", ALL_SYSTEMS)
def test_build_matches_fraction_reference(kind, rank):
    rs = rd.build_root_system(kind, rank)
    simple = rs.simple_roots
    assert rs.cartan == _reference_cartan(simple)
    positives, coeffs = _reference_close_roots(simple)
    assert positive_roots(rs) == positives
    assert rs.positive_coefficients == coeffs
    assert all(type(x) is F for v in positives + coeffs for x in v)
    assert rs.fundamental_coweights == _reference_coweights(simple)
    assert rs.gram == tuple(tuple(inner_product(a, b) for b in simple) for a in simple)
    omegas = rs.fundamental_coweights
    assert rs.coweight_gram == tuple(tuple(inner_product(v, w) for w in omegas) for v in omegas)
    word = _reference_w0_word(simple, rs.fundamental_coweights)
    assert weyl.longest_element(rs).word == word
    assert rs.opposition == _reference_opposition(word, simple)
    assert weyl._tables(rs).sperm == _reference_sperm(rs)
    # the integer tables: the nonzero entries of each 2 alpha_j, and
    # W_i = c omega_i for one integer c > 0 shared by all i
    assert rs.simple_pairs == tuple(tuple((k, 2 * x) for k, x in enumerate(a) if x)
                                    for a in simple)
    assert all(type(x) is int for root in rs.simple_pairs for _, x in root)
    (c,) = {x / y for w, v in zip(rs.integer_coweights, omegas) for x, y in zip(w, v) if y}
    assert c.denominator == 1 and c > 0
    assert rs.integer_coweights == tuple(tuple(c * y for y in v) for v in omegas)
    assert all(type(x) is int for w in rs.integer_coweights for x in w)


@pytest.mark.parametrize("kind,rank", [("A", 3), ("B", 2)])
def test_product_tables_match_fraction_reference(kind, rank):
    g = rd.build_group(kind, rank, res_degree=3)
    rs = g.absolute
    # copy j's simple roots are the base's, embedded in block j
    simple = simple_roots(rs)
    assert simple == block_copies(g, g.base.simple_roots)
    assert rs.cartan == _reference_cartan(simple)
    _, coeffs = _reference_close_roots(simple)
    assert sorted(rs.positive_coefficients) == list(coeffs)
    coweights = block_copies(g, g.base.fundamental_coweights)
    assert coweights == _reference_coweights(simple)
    word = _reference_w0_word(simple, coweights)
    assert weyl.longest_element(rs).word == word
    assert _reference_opposition(word, simple) == \
        tuple(j * rank + o for j in range(3) for o in g.base.opposition)
    assert weyl._tables(rs).sperm == _reference_sperm(rs)
    # every copy shares the base's integer coweights, W_i = c omega_i for one c > 0
    omegas = g.base.fundamental_coweights
    (c,) = {x / y for w, v in zip(g.base.integer_coweights, omegas) for x, y in zip(w, v) if y}
    assert c.denominator == 1 and c > 0
    assert g.base.integer_coweights == tuple(tuple(c * y for y in v) for v in omegas)


def test_realization_holds_only_integer_weyl_data():
    # the routes read only these five; the Fraction views are the base's
    assert [f.name for f in dataclasses.fields(rd.Realization)] == [
        "ambient_dim", "rank", "simple_pairs", "positive_coefficients", "cartan"]
    for kind, rank, t in [("A", 1, 600), ("B", 2, 3), ("E8", 8, 1)]:
        rs = rd.build_group(kind, rank, res_degree=t).absolute
        assert type(rs) is (rd.RootSystemData if t == 1 else rd.Realization)
        assert type(rs.ambient_dim) is type(rs.rank) is int
        assert all(type(x) is int for root in rs.simple_pairs for pair in root for x in pair)
        assert all(type(x) is int for c in rs.positive_coefficients for x in c)
        assert all(type(x) is int for row in rs.cartan for pair in row for x in pair)


def decompose_in_coweights(nu, rs):
    """Coefficients n_i = (nu, alpha_i^vee), exact, from the integer pairings:
    the exact labels that `integer_pairings` gives up to positive factors."""
    _, scale, pairings = rd.integer_pairings(rs, (rd.vector(nu),))
    return tuple(F(4 * p, scale * sum(a * a for _, a in root))
                 for p, root in zip(pairings, rs.simple_pairs))


def sign(x):
    return (x > 0) - (x < 0)


@pytest.mark.parametrize("kind,rank,t", [
    ("E8", 8, 1), ("F4", 4, 1), ("F4", 4, 2), ("A", 3, 2), ("B", 2, 3), ("G2", 2, 3),
])
def test_integer_pairings_match_coroot_pairings(kind, rank, t):
    # the one integer reading of nu against Fraction pairings (v, alpha_j^vee)
    # computed here, on seeded dominant and non-dominant blocks with
    # half-integral and third-integral coordinates
    g = rd.build_group(kind, rank, res_degree=t)
    rng = random.Random(f"{kind}{rank} t={t} pairings")
    pool = [0, 0, F(1, 2), 1, F(3, 2), F(1, 3), -1, F(-1, 2)]
    dominant = 0
    for _ in range(40):
        blocks = []
        for _ in range(t):
            v = (F(0),) * g.base.ambient_dim
            for w in g.base.fundamental_coweights:
                c = rng.choice(pool)
                v = tuple(a + c * b for a, b in zip(v, w))
            blocks.append(v)
        ints, scale, pairings = rd.integer_pairings(g.base, blocks)
        reference = [inner_product(v, coroot(a))
                     for v in blocks for a in g.base.simple_roots]
        assert [sign(p) for p in pairings] == [sign(c) for c in reference]
        assert ints == tuple(tuple(scale * x for x in v) for v in blocks)
        assert all(type(x) is int for v in ints for x in v)
        flat = rd.assemble_nu(g, blocks)
        assert rd.integer_pairings(g.absolute, (flat,))[2] == pairings
        for j, v in enumerate(blocks):
            assert decompose_in_coweights(v, g.base) == \
                tuple(reference[j * rank:(j + 1) * rank])
        dominant += all(c >= 0 for c in reference)
    assert 0 < dominant < 40


def test_relative_coweights_split():
    g = rd.build_group("A", 2)
    assert rd.relative_coweights(g) == g.base.fundamental_coweights


def test_relative_coweights_unitary_a3():
    g = rd.build_group("A", 3, form="unitary")
    assert galois_orbits(g) == ((1, 3), (2,))
    assert rd.relative_coweights(g) == (frac_vec(1, 0, 0, -1),
                                        frac_vec(F(1, 2), F(1, 2), F(-1, 2), F(-1, 2)))


@pytest.mark.parametrize("rank,expected_orbits", [
    (2, ((1, 2),)),
    (3, ((1, 3), (2,))),
    (4, ((1, 4), (2, 3))),
    (5, ((1, 5), (2, 4), (3,))),
])
def test_unitary_orbit_shapes(rank, expected_orbits):
    g = rd.build_group("A", rank, form="unitary")
    assert galois_orbits(g) == expected_orbits
    assert len(rd.relative_coweights(g)) == (rank + 1) // 2


def test_relative_coweights_res_a1():
    g = rd.build_group("A", 1, res_degree=2)
    assert rd.relative_coweights(g) == (frac_vec(F(1, 2), F(-1, 2), F(1, 2), F(-1, 2)),)


@pytest.mark.parametrize("kind,rank,form,t", [
    ("A", 3, "split", 3), ("A", 3, "unitary", 2), ("E6", 6, "split", 2), ("A", 1, "split", 50),
])
def test_relative_coweights_match_absolute_orbit_sums(kind, rank, form, t):
    # the Fraction sum of the absolute coweights over each Galois orbit
    g = rd.build_group(kind, rank, form, t)
    omegas = block_copies(g, g.base.fundamental_coweights)
    want = []
    for orbit in galois_orbits(g):
        w = (F(0),) * g.absolute.ambient_dim
        for b in orbit:
            w = tuple(x + y for x, y in zip(w, omegas[b - 1]))
        want.append(w)
    rcs = rd.relative_coweights(g)
    assert list(rcs) == want
    assert all(type(x) is F for w in rcs for x in w)


@pytest.mark.parametrize("kind,rank,form,t", [
    ("A", 2, "split", 2), ("A", 3, "unitary", 1), ("B", 2, "split", 3),
])
def test_relative_coweights_dominant(kind, rank, form, t):
    g = rd.build_group(kind, rank, form, t)
    for w in rd.relative_coweights(g):
        for a in simple_roots(g.absolute):
            assert inner_product(w, coroot(a)) >= 0


def test_unitary_requires_type_a():
    with pytest.raises(IllegalType):
        rd.build_group("B", 2, form="unitary")
    with pytest.raises(IllegalType):
        rd.build_group("A", 1, form="unitary")


def test_a_restriction_of_scalars_has_positive_degree():
    # the CLI refuses t <= 0 while it parses; the library refuses it too
    for t in (0, -2):
        with pytest.raises(IllegalType, match=r"^res_degree must be >= 1$"):
            rd.build_group("A", 1, res_degree=t)


def test_group_interning():
    assert rd.build_group("A", 2) is rd.build_group("A", 2)
    assert rd.build_root_system("F4", 4) is rd.build_root_system("F4", 4)
