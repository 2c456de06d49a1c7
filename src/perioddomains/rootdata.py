"""Exact rational root-system realizations in Bourbaki coordinates.

The build starts from one integer table, the doubled simple roots 2 alpha_j,
and runs on integers: Dynkin labels and one fraction-free inverse of the
Cartan matrix. A `Realization` holds only the integer Weyl data the routes
read: the nonzero entries of each 2 alpha_j (`simple_pairs`), the positive
roots' simple-root coefficients and the Cartan integers. A base system
(`RootSystemData`) adds its coweights W_i = 2 det(M) omega_i
(`integer_coweights`) and, as tuples of `fractions.Fraction`, its simple
roots, coweights and Gram matrices: the exact view that `tables` prints,
which no route pairs with a cocharacter. Floating point is never used
anywhere in this package's mathematical kernel.

A group (`GroupDatum`) is its base system, its form and the degree t of
its restriction of scalars; every route reads it as t copies of the base.
The t-fold product realization, which only `strata`'s witness needs, is
built on first read of `absolute`.

Conventions: type A lives in the sum-zero hyperplane of Q^(l+1) with simple
roots e_i - e_{i+1}; the inner product is the Euclidean dot product of the
realization. Type G2 is realized in the sum-zero hyperplane of Q^3 with
alpha_1 = e_1 - e_2 and alpha_2 = -2e_1 + e_2 + e_3, which gives the Gram
values (w_1,w_1)=2, (w_1,w_2)=3, (w_2,w_2)=6.

Root closure, every w0 word (`climb`, for W and for `weyl`'s W_J), the
opposition, `weyl`'s root permutations, `strata`'s orbit search and
`finflag`'s strata test all run on integer Dynkin labels
c_j = (x, alpha_j^vee), on which s_k acts by
c_j <- c_j - c_k (alpha_k, alpha_j^vee) (`reflect_labels`), with the Cartan
integers of each realization computed once (`cartan_integers`).

`_read_nu` is the one reader of a cocharacter: it checks nu and gives its
factors as Python ints, scaled by one lcm L of their denominators, L and
Delta_P per copy, 1-based within the copy. Every route decides on it:
`classify` on the ints, `strata` and `weyl.parabolic_of` on Delta_P, and
`finflag` and `verify` on its complement, the type-A flag dims.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from numbers import Rational
from operator import mul
from typing import Iterable, Sequence

from .errors import (BudgetExceeded, DimensionMismatch, IllegalType, InvariantViolation,
                     MalformedNu, NotDominant, ValidationError, shown)

Vector = tuple[Fraction, ...]
Cartan = tuple[tuple[tuple[int, int], ...], ...]
Pairs = tuple[tuple[tuple[int, int], ...], ...]  # nonzero (coordinate, entry) of each 2 alpha_j

FORM_SPLIT = "split"
FORM_UNITARY = "unitary"

# kind -> (smallest rank, largest rank or None, positive roots at rank r)
_KINDS = {
    "A": (1, None, lambda r: r * (r + 1) // 2),
    "B": (2, None, lambda r: r * r),
    "C": (2, None, lambda r: r * r),
    "D": (3, None, lambda r: r * (r - 1)),
    "E6": (6, 6, lambda r: 36),
    "E7": (7, 7, lambda r: 63),
    "E8": (8, 8, lambda r: 120),
    "F4": (4, 4, lambda r: 24),
    "G2": (2, 2, lambda r: 6),
}

# build_root_system refuses more positive roots than this before building:
# A34 (595) builds with its `weyl` tables in about 0.2 s (Python 3.11); E8 has 120.
MAX_POSITIVE_ROOTS = 600


def vector(entries: Iterable) -> Vector:
    """A sequence of ints and Fractions as an exact vector of Fractions, as
    `assemble_nu` joins them; `_read_nu` reads nu in integers, without it."""
    return tuple(x if type(x) is Fraction else Fraction(x) for x in entries)


def format_vector(v: Iterable) -> str:
    """Comma-separated entries, as the config format writes a vector: 1,-1/2,0."""
    return ",".join(str(x) for x in v)


def _bareiss_inverse(m: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """det M and det(M) M^-1, by fraction-free Gauss-Jordan elimination
    (Bareiss): after step k every entry is a minor of [M | I], so each
    division is exact. No pivot search: every leading principal minor of a
    finite-type Cartan matrix is the determinant of a subdiagram's Cartan
    matrix, which is positive."""
    r = len(m)
    a = [list(row) + [int(i == j) for j in range(r)] for i, row in enumerate(m)]
    prev = 1
    for k in range(r):
        pivot = a[k]
        a = [row if i == k else
             [(pivot[k] * x - row[k] * y) // prev for x, y in zip(row, pivot)]
             for i, row in enumerate(a)]
        prev = pivot[k]
    return prev, [row[r:] for row in a]


@dataclass(frozen=True, eq=False)
class Realization:
    """The integer data a reflection group acts on: the doubled simple roots'
    nonzero entries, the positive roots' coefficients and the Cartan integers.

    Instances are interned by the factory functions, so identity comparison
    and the default object hash are the intended semantics.
    """

    ambient_dim: int
    rank: int
    simple_pairs: Pairs
    positive_coefficients: tuple[tuple[int, ...], ...]
    cartan: Cartan


@dataclass(frozen=True, eq=False)
class RootSystemData(Realization):
    """A simple root system of kind A..G2: the integer data of a
    `Realization`, its integer coweights W_i = 2 det(M) omega_i (M the
    Cartan matrix) and opposition, and, over exact rationals, its simple
    roots and fundamental coweights with their Gram matrices."""

    kind: str
    simple_roots: tuple[Vector, ...]
    fundamental_coweights: tuple[Vector, ...]
    integer_coweights: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[Fraction, ...], ...]
    coweight_gram: tuple[tuple[Fraction, ...], ...]
    opposition: tuple[int, ...]

    def coweight_pairings(self, ints) -> list[tuple[int, ...]]:
        """(W_i, L nu_j) for each integer factor L nu_j of `_read_nu` and each
        i: 2 det(M) L (omega_i, nu_j), so every sign, order and sum is kept."""
        return [tuple(sum(map(mul, w, v)) for w in self.integer_coweights) for v in ints]


def _simple_root_table(kind: str, rank: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Ambient dimension and the doubled simple roots 2 alpha_j of a legal
    pair of `_KINDS`, in integers: every kind is integral when doubled."""
    def step(n: int, i: int) -> tuple[int, ...]:  # 2 (e_i - e_{i+1}) in Q^n
        return tuple(2 * (k == i) - 2 * (k == i + 1) for k in range(n))

    if kind == "A":
        return rank + 1, tuple(step(rank + 1, i) for i in range(rank))
    if kind in ("B", "C", "D"):
        last = (0,) * (rank - 2) + {"B": (0, 2), "C": (0, 4), "D": (2, 2)}[kind]
        return rank, tuple(step(rank, i) for i in range(rank - 1)) + (last,)
    if kind in ("E6", "E7", "E8"):
        return 8, ((1, -1, -1, -1, -1, -1, -1, 1),
                   (2, 2, 0, 0, 0, 0, 0, 0),
                   *(tuple(-x for x in step(8, i)) for i in range(rank - 2)))
    if kind == "F4":
        return 4, ((0, 2, -2, 0),
                   (0, 0, 2, -2),
                   (0, 0, 0, 2),
                   (1, -1, -1, -1))
    return 3, ((2, -2, 0),  # G2
               (-4, 2, 2))


def cartan_integers(roots: Sequence[Sequence[int]]) -> Cartan:
    """For each k, the nonzero Cartan integers (j, (alpha_k, alpha_j^vee)),
    j != k, from the doubled simple roots; the diagonal is 2."""
    return tuple(tuple((j, 2 * sum(map(mul, a, b)) // sum(map(mul, b, b)))
                       for j, b in enumerate(roots) if j != k and sum(map(mul, a, b)))
                 for k, a in enumerate(roots))


def root_labels(cartan: Cartan, coeffs: Sequence) -> tuple[int, ...]:
    """Dynkin labels (beta, alpha_j^vee) of beta = sum_k coeffs[k] alpha_k."""
    labels = [2 * c for c in coeffs]
    for k, c in enumerate(coeffs):
        if c:
            for j, a in cartan[k]:
                labels[j] += c * a
    return tuple(labels)


def reflect_labels(cartan: Cartan, c: tuple[int, ...], k: int) -> tuple[int, ...]:
    """s_k (0-based) on Dynkin labels: c_j <- c_j - c_k (alpha_k, alpha_j^vee)."""
    x = list(c)
    x[k] = -c[k]
    for j, a in cartan[k]:
        x[j] -= c[k] * a
    return tuple(x)


def climb(cartan: Cartan, c: tuple[int, ...], nodes: Sequence[int]) -> list[int]:
    """Letters k_1, k_2, ... (0-based) taking c up until no label at `nodes`
    is negative, one length step each: the first such node, in the order of
    `nodes`, every time. From -rho's labels over the nodes of J it spells
    the reduced word of w0(J)."""
    letters = []
    while (k := next((k for k in nodes if c[k] < 0), None)) is not None:
        c = reflect_labels(cartan, c, k)
        letters.append(k)
    return letters


def _close_roots(pairs: Pairs, cartan: Cartan, ambient: int) -> tuple[tuple[int, ...], ...]:
    """The positive roots' simple-root coefficients, sorted by the roots'
    ambient vectors; that order fixes every root index. On labels,
    s_k raises a root with c_k < 0 by -c_k alpha_k, and so reaches every
    positive root from the simple ones (Humphreys, Reflection Groups and
    Coxeter Groups, 1.6); the sort key is the doubled ambient vector."""
    r = len(pairs)
    units = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    known = {root_labels(cartan, e): e for e in units}  # labels -> coefficients
    frontier = list(known)
    while frontier:
        fresh = []
        for c in frontier:
            for k, ck in enumerate(c):
                if ck < 0 and (img := reflect_labels(cartan, c, k)) not in known:
                    coeffs = list(known[c])
                    coeffs[k] -= ck
                    known[img] = tuple(coeffs)
                    fresh.append(img)
        frontier = fresh

    def twice(coeffs: tuple[int, ...]) -> list[int]:
        v = [0] * ambient
        for ck, root in zip(coeffs, pairs):
            for i, x in root:
                v[i] += ck * x
        return v

    return tuple(sorted(known.values(), key=twice))


@lru_cache(maxsize=None)
def _build_root_system(kind: str, rank: int) -> RootSystemData:
    ambient, roots2 = _simple_root_table(kind, rank)
    pairs = tuple(tuple((k, x) for k, x in enumerate(a) if x) for a in roots2)
    cartan = cartan_integers(roots2)
    coeffs = _close_roots(pairs, cartan, ambient)
    if len(coeffs) != _KINDS[kind][2](rank):
        raise InvariantViolation(f"{kind}{rank}: closure found {len(coeffs)} positive roots")

    # omega_i = sum_j c_ij alpha_j with sum_j c_ij (alpha_j, alpha_k^vee) =
    # delta_ik: c = M^-1 for M the labels of the simple roots, so with D = det M
    # and a_j = 2 alpha_j, W_i = 2D omega_i = sum_j (D M^-1)_ij a_j is integral
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    det, adj = _bareiss_inverse([root_labels(cartan, e) for e in units])
    scaled = [tuple(sum(c * a[k] for c, a in zip(row, roots2)) for k in range(ambient))
              for row in adj]
    # (omega_i, alpha_j^vee) = delta_ij reads 2 (W_i, a_j) = D (a_j, a_j) delta_ij
    if any(2 * sum(map(mul, w, a)) != (det * sum(map(mul, a, a)) if i == j else 0)
           for i, w in enumerate(scaled) for j, a in enumerate(roots2)):
        raise InvariantViolation(f"{kind}{rank}: (omega_i, alpha_j^vee) != delta_ij")

    # -rho has every label -1, and its climb to rho spells a reduced word of
    # w0; omega_i has labels e_i, and w0 omega_i = -omega_{opp(i)}
    word = climb(cartan, (-1,) * rank, range(rank))
    if len(word) != len(coeffs):
        raise InvariantViolation(f"{kind}{rank}: w0 word of length {len(word)}")
    opposition = []
    for c in units:
        for k in word:
            c = reflect_labels(cartan, c, k)
        opposition.append(c.index(-1) + 1)

    return RootSystemData(
        ambient_dim=ambient,
        rank=rank,
        simple_pairs=pairs,
        positive_coefficients=coeffs,
        cartan=cartan,
        kind=kind,
        simple_roots=tuple(tuple(Fraction(x, 2) for x in a) for a in roots2),
        fundamental_coweights=tuple(tuple(Fraction(x, 2 * det) for x in w) for w in scaled),
        integer_coweights=tuple(scaled),
        gram=tuple(tuple(Fraction(sum(map(mul, a, b)), 4) for b in roots2) for a in roots2),
        coweight_gram=tuple(tuple(Fraction(sum(map(mul, v, w)), 4 * det * det) for w in scaled)
                            for v in scaled),
        opposition=tuple(opposition),
    )


def _normalize_kind(kind: str, rank: int) -> str:
    kind = kind.strip().upper()
    return {"E": f"E{rank}", "F": "F4", "G": "G2"}.get(kind, kind)


def build_root_system(kind: str, rank: int) -> RootSystemData:
    """Interned exact realization of the (kind, rank) root system.

    Legal pairs are those `_KINDS` admits (D3 with a warning, since D3 = A3).
    A legal system with more than MAX_POSITIVE_ROOTS positive roots raises
    BudgetExceeded.
    """
    kind = _normalize_kind(kind, rank)
    if kind not in _KINDS:
        raise IllegalType(f"unknown kind {shown(kind)}")
    low, high, positives = _KINDS[kind]
    if rank < low or (high is not None and rank > high):
        raise IllegalType(f"illegal pair kind={kind} rank={shown(rank)}")
    if kind == "D" and rank == 3:
        warnings.warn("D3 is an alias of A3; building the D-style realization", stacklevel=2)
    if (count := positives(rank)) > MAX_POSITIVE_ROOTS:
        raise BudgetExceeded(f"{kind}{shown(rank)} has {shown(count)} positive roots, "
                             f"above the bound {MAX_POSITIVE_ROOTS}")
    return _build_root_system(kind, rank)


@dataclass(frozen=True, eq=False)
class GroupDatum:
    """A k-simple adjoint group: base system, form, restriction-of-scalars
    degree t. Every route reads it as t copies of its base.

    Instances are interned by `build_group`, so identity comparison and the
    default object hash are the intended semantics.
    """

    base: RootSystemData
    form: str
    res_degree: int

    @cached_property
    def absolute(self) -> Realization:
        """The realization the full Weyl machinery runs on: the base system
        itself when res_degree == 1, otherwise res_degree disjoint
        block-embedded copies, built on first read."""
        if self.res_degree == 1:
            return self.base
        return _product_realization(self.base, self.res_degree)


def _product_realization(base: RootSystemData, t: int) -> Realization:
    """t block-embedded copies of base, in integers: copy j's root pairs are
    the base's with every coordinate shifted by j * n, and its root
    coefficients and Cartan integers with every index shifted by j * rank."""
    n, r = base.ambient_dim, base.rank
    return Realization(
        ambient_dim=t * n,
        rank=t * r,
        simple_pairs=tuple(tuple((j * n + k, x) for k, x in root)
                           for j in range(t) for root in base.simple_pairs),
        positive_coefficients=tuple((0,) * (j * r) + c + (0,) * ((t - 1 - j) * r)
                                    for j in range(t) for c in base.positive_coefficients),
        cartan=tuple(tuple((j * r + k, a) for k, a in row)
                     for j in range(t) for row in base.cartan),
    )


def _base_orbits(base: RootSystemData, form: str) -> tuple[tuple[int, ...], ...]:
    ell = base.rank
    if form == FORM_SPLIT:
        return tuple((i,) for i in range(1, ell + 1))
    return tuple(tuple(sorted({i, ell + 1 - i})) for i in range(1, (ell + 1) // 2 + 1))


@lru_cache(maxsize=None)
def _build_group(base: RootSystemData, form: str, t: int) -> GroupDatum:
    return GroupDatum(base=base, form=form, res_degree=t)


def build_group(kind: str, rank: int, form: str = FORM_SPLIT,
                res_degree: int = 1) -> GroupDatum:
    """Interned group datum for a k-simple adjoint group.

    `form` is "split" or "unitary" (quasi-split outer form; type A, rank >= 2
    only); `res_degree` is the degree t of the restriction of scalars, i.e.
    the number of absolute diagram copies. A group with more than
    MAX_POSITIVE_ROOTS absolute positive roots raises BudgetExceeded before
    it is built.
    """
    kind = _normalize_kind(kind, rank)
    form = form.strip().lower()
    if form not in (FORM_SPLIT, FORM_UNITARY):
        raise IllegalType(f"unknown form {shown(form)}")
    if form == FORM_UNITARY and (kind != "A" or rank < 2):
        raise IllegalType("unitary form requires kind A with rank >= 2")
    if res_degree < 1:
        raise IllegalType("res_degree must be >= 1")
    base = build_root_system(kind, rank)  # validates the pair (and warns on D3)
    if (count := res_degree * len(base.positive_coefficients)) > MAX_POSITIVE_ROOTS:
        raise BudgetExceeded(f"{base.kind}{'' if base.kind[1:] else rank} t={shown(res_degree)} "
                             f"has {shown(count)} positive roots, above the bound "
                             f"{MAX_POSITIVE_ROOTS}")
    return _build_group(base, form, res_degree)


def relative_coweights(g: GroupDatum) -> tuple[Vector, ...]:
    """Relative cofundamental weights, vertex i at position i - 1: orbit sums
    of absolute fundamental coweights. A Galois orbit is its base orbit
    copied into every block, so the sum is the base orbit's sum repeated in
    each of the t blocks."""
    omegas = g.base.fundamental_coweights
    return tuple(tuple(map(sum, zip(*(omegas[b - 1] for b in orbit)))) * g.res_degree
                 for orbit in _base_orbits(g.base, g.form))


def integer_pairings(rs: Realization, blocks: Sequence[Sequence[Rational]]
                     ) -> tuple[tuple[tuple[int, ...], ...], int, tuple[int, ...]]:
    """nu's blocks of int, Fraction or other Rational entries, each of rs's
    ambient width, scaled to Python ints (so a numpy integer cannot wrap) by
    one common lcm L of their denominators, L itself, and the pairings
    (L v, 2 alpha_j) of each block v with the simple roots of rs, block by
    block: `_read_nu`'s step after its width checks.

    (L v, 2 alpha_j) = L (alpha_j, alpha_j) (v, alpha_j^vee) is a positive
    multiple of the simple-coroot pairing, so it has the same sign.
    """
    scale = math.lcm(*(int(x.denominator) for v in blocks for x in v))
    ints = tuple(tuple(int(x.numerator) * scale // int(x.denominator) for x in v) for v in blocks)
    return ints, scale, tuple(sum(a * v[k] for k, a in root)
                              for v in ints for root in rs.simple_pairs)


def dominant_delta(pairings: Sequence, rank: int) -> tuple[tuple[int, ...], ...]:
    """Delta_P of each copy of a rank-`rank` system, 1-based within the copy,
    from the pairings of nu with the simple coroots, copy after copy.

    Any positive multiple of each pairing will do, since only signs are
    read. Raises NotDominant, counting indices over the copies, when one is
    negative.
    """
    bad = [i + 1 for i, c in enumerate(pairings) if c < 0]
    if bad:
        raise NotDominant(f"negative pairing with simple coroots {bad}")
    return tuple(tuple([i + 1 for i, c in enumerate(pairings[j:j + rank]) if c == 0])
                 for j in range(0, len(pairings), rank))


def check_rational(factors) -> None:
    """Refuse a factor entry that is not an int or a Fraction (a Rational):
    a string compares as text, and a float has no exact denominator. The
    finite-field tests call it per point, so ints and Fractions skip the
    slower ABC check."""
    for v in factors:
        for x in v:
            if type(x) is not int and type(x) is not Fraction and not isinstance(x, Rational):
                raise ValidationError(f"cocharacter entry of type {type(x).__name__}, "
                                      "not an int or a Fraction")


def _read_nu(base: Realization, t: int, nu):
    """The one reading of a cocharacter of t copies of base: its factors
    scaled to Python ints by one common lcm L of their denominators, L
    itself (`integer_pairings`), and Delta_P of each copy, 1-based within
    the copy (`dominant_delta`, whose message counts over the copies). It
    builds no Fraction. It checks, in order: t factors, or one flat vector
    when t == 1; factors that are tuples or lists, before any entry is read;
    rational entries; the factor count; one width for all, the base's; and
    dominance."""
    n = base.ambient_dim
    seq = list(nu)
    if seq and not isinstance(seq[0], (list, tuple)):
        if t != 1:
            raise DimensionMismatch(
                f"flat cocharacter of length {len(seq)}; expected {t} factors of {n}")
        seq = [seq]
    if odd := [type(x).__name__ for x in seq if not isinstance(x, (list, tuple))]:
        raise MalformedNu(f"cocharacter factor of type {odd[0]}, not a tuple or a list")
    check_rational(seq)
    if len(seq) != t:
        raise MalformedNu(f"expected {t} cocharacter factors, got {len(seq)}")
    widths = [len(x) for x in seq]
    if len(set(widths)) > 1:
        raise DimensionMismatch(f"cocharacter factors of lengths {widths}")
    if widths[0] != n:
        raise DimensionMismatch(f"factor of length {widths[0]}; base ambient dimension is {n}")
    ints, scale, pairings = integer_pairings(base, seq)
    return ints, scale, dominant_delta(pairings, base.rank)


def assemble_nu(g: GroupDatum, nu) -> Vector:
    """Flat block vector of nu's res_degree factors, dominant or not, in the
    absolute ambient space of g: the factors concatenated, unchecked."""
    return sum(map(vector, nu), ())
