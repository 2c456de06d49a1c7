"""Exact rational root-system realizations in Bourbaki coordinates.

Every vector is a tuple of `fractions.Fraction`; pairings, weights and chamber
tests are all exact. Floating point is never used anywhere in this package's
mathematical kernel.

Conventions: type A lives in the sum-zero hyperplane of Q^(l+1) with simple
roots e_i - e_{i+1}; the inner product is the Euclidean dot product of the
realization. Type G2 is realized in the sum-zero hyperplane of Q^3 with
alpha_1 = e_1 - e_2 and alpha_2 = -2e_1 + e_2 + e_3, which gives the Gram
values (w_1,w_1)=2, (w_1,w_2)=3, (w_2,w_2)=6.

Root closure, the w0 word, the opposition, `weyl`'s root permutations and
`strata`'s orbit search all run on integer Dynkin labels c_j = (x,
alpha_j^vee), on which s_k acts by c_j <- c_j - c_k (alpha_k, alpha_j^vee)
(`reflect_labels`), with the Cartan integers of each realization computed
once (`cartan_integers`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Sequence

from .errors import BudgetExceeded, DimensionMismatch, IllegalType, InvariantViolation, MalformedNu

Vector = tuple[Fraction, ...]
Cartan = tuple[tuple[tuple[int, int], ...], ...]

FORM_SPLIT = "split"
FORM_UNITARY = "unitary"

_POSITIVE_COUNTS = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "E6": lambda r: 36,
    "E7": lambda r: 63,
    "E8": lambda r: 120,
    "F4": lambda r: 24,
    "G2": lambda r: 6,
}

# build_root_system refuses more positive roots than this before building:
# A34 (595) builds with its `weyl` tables in about 1.1 s (Python 3.11); E8 has 120.
MAX_POSITIVE_ROOTS = 600


def vector(entries: Iterable) -> Vector:
    """Coerce a sequence of ints/strings/Fractions to an exact vector."""
    return tuple(x if type(x) is Fraction else Fraction(x) for x in entries)


def inner_product(u: Vector, v: Vector) -> Fraction:
    """Euclidean pairing; the Weyl-invariant form of every realization here."""
    if len(u) != len(v):
        raise DimensionMismatch(f"vectors of length {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def format_vector(v: Iterable) -> str:
    """Comma-separated entries, as the config format writes a vector: 1,-1/2,0."""
    return ",".join(str(x) for x in v)


def run_lengths(nu) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """Decreasing jump values and multiplicities of a sorted type-A cocharacter."""
    x = vector(nu)
    if any(a < b for a, b in zip(x, x[1:])):
        raise MalformedNu(f"cocharacter is not sorted nonincreasing: {format_vector(x)}")
    jumps: list[Fraction] = []
    mults: list[int] = []
    for a in x:
        if jumps and a == jumps[-1]:
            mults[-1] += 1
        else:
            jumps.append(a)
            mults.append(1)
    return tuple(jumps), tuple(mults)


def coroot(alpha: Vector) -> Vector:
    """alpha^vee = 2*alpha/(alpha,alpha)."""
    norm = inner_product(alpha, alpha)
    return tuple(2 * a / norm for a in alpha)


def _add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def _reflect(v: Vector, alpha: Vector, alphav: Vector) -> Vector:
    pairing = inner_product(v, alphav)
    return tuple(a - pairing * b for a, b in zip(v, alpha))


def solve_in_span(columns: Sequence[Vector], targets: Sequence[Vector]
                  ) -> tuple[tuple[Fraction, ...], ...]:
    """For each target, the coefficients c with sum c_j * columns[j] == target,
    from one elimination; every target must lie in the span."""
    n = len(targets[0])
    r = len(columns)
    aug = [[columns[j][i] for j in range(r)] + [t[i] for t in targets] for i in range(n)]
    pivots: list[int] = []
    row = 0
    for col in range(r):
        piv = next((k for k in range(row, n) if aug[k][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = Fraction(1) / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for k in range(n):
            if k != row and aug[k][col] != 0:
                f = aug[k][col]
                aug[k] = [x - f * y for x, y in zip(aug[k], aug[row])]
        pivots.append(col)
        row += 1
    if any(x != 0 for k in range(row, n) for x in aug[k][r:]):
        raise DimensionMismatch("target vector not in span")
    coeffs = [[Fraction(0)] * r for _ in targets]
    for i, col in enumerate(pivots):
        for c, x in zip(coeffs, aug[i][r:]):
            c[col] = x
    return tuple(map(tuple, coeffs))


@dataclass(frozen=True, eq=False)
class Realization:
    """Geometric data a reflection group acts on: simple roots plus weights.

    Instances are interned by the factory functions, so identity comparison
    and the default object hash are the intended semantics.
    """

    ambient_dim: int
    rank: int
    simple_roots: tuple[Vector, ...]
    fundamental_coweights: tuple[Vector, ...]
    positive_roots: tuple[Vector, ...]
    positive_coefficients: tuple[tuple[Fraction, ...], ...]
    cartan: Cartan


@dataclass(frozen=True, eq=False)
class RootSystemData(Realization):
    """A simple root system of kind A..G2 realized over exact rationals."""

    kind: str = ""
    gram: tuple[tuple[Fraction, ...], ...] = ()
    opposition: tuple[int, ...] = ()


def _simple_root_table(kind: str, rank: int) -> tuple[int, tuple[Vector, ...]]:
    F = Fraction
    if kind == "A":
        n = rank + 1
        roots = []
        for i in range(rank):
            v = [F(0)] * n
            v[i], v[i + 1] = F(1), F(-1)
            roots.append(tuple(v))
        return n, tuple(roots)
    if kind in ("B", "C", "D"):
        n = rank
        roots = []
        for i in range(rank - 1):
            v = [F(0)] * n
            v[i], v[i + 1] = F(1), F(-1)
            roots.append(tuple(v))
        last = [F(0)] * n
        if kind == "B":
            last[-1] = F(1)
        elif kind == "C":
            last[-1] = F(2)
        else:
            last[-2], last[-1] = F(1), F(1)
        roots.append(tuple(last))
        return n, tuple(roots)
    if kind in ("E6", "E7", "E8"):
        n = 8
        half = F(1, 2)
        a1 = (half, -half, -half, -half, -half, -half, -half, half)
        a2 = (F(1), F(1)) + (F(0),) * 6
        roots = [a1, a2]
        for i in range(3, rank + 1):
            v = [F(0)] * n
            v[i - 3], v[i - 2] = F(-1), F(1)
            roots.append(tuple(v))
        return n, tuple(roots)
    if kind == "F4":
        half = F(1, 2)
        return 4, (
            (F(0), F(1), F(-1), F(0)),
            (F(0), F(0), F(1), F(-1)),
            (F(0), F(0), F(0), F(1)),
            (half, -half, -half, -half),
        )
    if kind == "G2":
        return 3, ((F(1), F(-1), F(0)), (F(-2), F(1), F(1)))
    raise IllegalType(f"unknown kind {kind!r}")


def cartan_integers(simple: Sequence[Vector]) -> Cartan:
    """For each k, the nonzero Cartan integers (j, (alpha_k, alpha_j^vee)),
    j != k, from the doubled simple roots; the diagonal is 2."""
    roots = [doubled(a) for a in simple]
    return tuple(tuple((j, 2 * sum(map(mul, a, b)) // sum(map(mul, b, b)))
                       for j, b in enumerate(roots) if j != k and sum(map(mul, a, b)))
                 for k, a in enumerate(roots))


def root_labels(cartan: Cartan, coeffs: Sequence) -> tuple[int, ...]:
    """Dynkin labels (beta, alpha_j^vee) of beta = sum_k coeffs[k] alpha_k."""
    labels = [2 * int(c) for c in coeffs]
    for k, c in enumerate(coeffs):
        if c:
            for j, a in cartan[k]:
                labels[j] += int(c) * a
    return tuple(labels)


def reflect_labels(cartan: Cartan, c: tuple[int, ...], k: int) -> tuple[int, ...]:
    """s_k (0-based) on Dynkin labels: c_j <- c_j - c_k (alpha_k, alpha_j^vee)."""
    x = list(c)
    x[k] = -c[k]
    for j, a in cartan[k]:
        x[j] -= c[k] * a
    return tuple(x)


def climb(cartan: Cartan, c: tuple[int, ...]) -> list[int]:
    """Letters k_1, k_2, ... (0-based) taking c up to the dominant chamber,
    one length step each: the first negative label every time."""
    letters = []
    while (k := next((k for k, ck in enumerate(c) if ck < 0), None)) is not None:
        c = reflect_labels(cartan, c, k)
        letters.append(k)
    return letters


def _close_roots(simple: tuple[Vector, ...], cartan: Cartan):
    """Positive roots, sorted, with their simple-root coefficients. On labels,
    s_k raises a root with c_k < 0 by -c_k alpha_k, and so reaches every
    positive root from the simple ones (Humphreys, Reflection Groups and
    Coxeter Groups, 1.6); ambient vectors are formed once, doubled to sort."""
    r = len(simple)
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
    roots2 = [[(i, x) for i, x in enumerate(doubled(a)) if x] for a in simple]
    twice = []
    for coeffs in known.values():
        v = [0] * len(simple[0])
        for ck, root in zip(coeffs, roots2):
            for i, x in root:
                v[i] += ck * x
        twice.append((tuple(v), coeffs))
    twice.sort()
    return (tuple(tuple(Fraction(x, 2) for x in v) for v, _ in twice),
            tuple(tuple(map(Fraction, c)) for _, c in twice))


@lru_cache(maxsize=None)
def _build_root_system(kind: str, rank: int) -> RootSystemData:
    ambient, simple = _simple_root_table(kind, rank)
    cartan = cartan_integers(simple)
    positives, coeffs = _close_roots(simple, cartan)
    if len(positives) != _POSITIVE_COUNTS[kind](rank):
        raise InvariantViolation(f"{kind}{rank}: closure found {len(positives)} positive roots")

    # omega_i = sum_j c_j alpha_j with sum_j c_j (alpha_j, alpha_k^vee) = delta_ik,
    # against the labels of the simple roots
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    coweights = tuple(tuple(sum((c * a[k] for c, a in zip(row, simple)), Fraction(0))
                            for k in range(ambient))
                      for row in solve_in_span([root_labels(cartan, e) for e in units], units))
    coroots = [coroot(a) for a in simple]
    if any(inner_product(w, a) != int(i == j)
           for i, w in enumerate(coweights) for j, a in enumerate(coroots)):
        raise InvariantViolation(f"{kind}{rank}: (omega_i, alpha_j^vee) != delta_ij")

    # -rho has every label -1, and its climb to rho spells a reduced word of
    # w0; omega_i has labels e_i, and w0 omega_i = -omega_{opp(i)}
    word = climb(cartan, (-1,) * rank)
    if len(word) != len(positives):
        raise InvariantViolation(f"{kind}{rank}: w0 word of length {len(word)}")
    opposition = []
    for c in units:
        for k in word:
            c = reflect_labels(cartan, c, k)
        opposition.append(c.index(-1) + 1)

    return RootSystemData(
        ambient_dim=ambient,
        rank=rank,
        simple_roots=simple,
        fundamental_coweights=coweights,
        positive_roots=positives,
        positive_coefficients=coeffs,
        cartan=cartan,
        kind=kind,
        gram=tuple(tuple(inner_product(a, b) for b in simple) for a in simple),
        opposition=tuple(opposition),
    )


def _normalize_kind(kind: str, rank: int) -> str:
    kind = kind.strip().upper()
    if kind == "E":
        kind = f"E{rank}"
    elif kind == "F":
        kind = "F4"
    elif kind == "G":
        kind = "G2"
    return kind


def build_root_system(kind: str, rank: int) -> RootSystemData:
    """Interned exact realization of the (kind, rank) root system.

    Legal pairs: A (rank >= 1), B and C (rank >= 2), D (rank >= 3, with a
    warning at 3 since D3 = A3), E6/E7/E8, F4, G2. A legal system with more
    than MAX_POSITIVE_ROOTS positive roots raises BudgetExceeded.
    """
    kind = _normalize_kind(kind, rank)
    if kind == "A":
        ok = rank >= 1
    elif kind in ("B", "C"):
        ok = rank >= 2
    elif kind == "D":
        ok = rank >= 3
        if rank == 3:
            warnings.warn("D3 is an alias of A3; building the D-style realization",
                          stacklevel=2)
    elif kind in ("E6", "E7", "E8"):
        ok = rank == int(kind[1])
    elif kind == "F4":
        ok = rank == 4
    elif kind == "G2":
        ok = rank == 2
    else:
        raise IllegalType(f"unknown kind {kind!r}")
    if not ok:
        raise IllegalType(f"illegal pair kind={kind} rank={rank}")
    if (count := _POSITIVE_COUNTS[kind](rank)) > MAX_POSITIVE_ROOTS:
        raise BudgetExceeded(f"{kind}{rank} has {count} positive roots, "
                             f"above the bound {MAX_POSITIVE_ROOTS}")
    return _build_root_system(kind, rank)


@dataclass(frozen=True, eq=False)
class GroupDatum:
    """A k-simple adjoint group: base system, form, restriction-of-scalars degree.

    `absolute` is the realization the full Weyl machinery runs on: the base
    system itself when res_degree == 1, otherwise res_degree disjoint
    block-embedded copies. `galois_orbits[i-1]` lists the 1-based absolute
    simple-root indices restricting to relative vertex i.
    """

    base: RootSystemData
    form: str
    res_degree: int
    relative_rank: int
    galois_orbits: tuple[tuple[int, ...], ...]
    absolute: Realization


@dataclass(frozen=True)
class RelativeCoweight:
    """One relative cofundamental weight: vertex index plus its absolute vector."""

    index: int
    vector: Vector


def _product_realization(base: RootSystemData, t: int) -> Realization:
    """t block-embedded copies of base; copy j's Cartan integers are the
    base's with every index shifted by j * rank."""
    n, r = base.ambient_dim, base.rank
    zero = (Fraction(0),)

    def copies(vectors, width):
        return tuple(zero * (j * width) + v + zero * ((t - 1 - j) * width)
                     for j in range(t) for v in vectors)

    return Realization(
        ambient_dim=t * n,
        rank=t * r,
        simple_roots=copies(base.simple_roots, n),
        fundamental_coweights=copies(base.fundamental_coweights, n),
        positive_roots=copies(base.positive_roots, n),
        positive_coefficients=copies(base.positive_coefficients, r),
        cartan=tuple(tuple((j * r + k, a) for k, a in row)
                     for j in range(t) for row in base.cartan),
    )


def _base_orbits(base: RootSystemData, form: str) -> tuple[tuple[int, ...], ...]:
    ell = base.rank
    if form == FORM_SPLIT:
        return tuple((i,) for i in range(1, ell + 1))
    d = (ell + 1) // 2
    orbits = [tuple(sorted({i, ell + 1 - i})) for i in range(1, d)]
    if (ell + 1) % 2 == 0:
        orbits.append((d,))
    else:
        orbits.append((d, d + 1))
    return tuple(orbits)


@lru_cache(maxsize=None)
def _build_group(kind: str, rank: int, form: str, res_degree: int) -> GroupDatum:
    base = build_root_system(kind, rank)
    t = res_degree
    base_orbits = _base_orbits(base, form)
    d = len(base_orbits)
    orbits = tuple(
        tuple(sorted(j * base.rank + b for j in range(t) for b in orbit))
        for orbit in base_orbits
    )
    absolute = base if t == 1 else _product_realization(base, t)
    return GroupDatum(
        base=base,
        form=form,
        res_degree=t,
        relative_rank=d,
        galois_orbits=orbits,
        absolute=absolute,
    )


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
        raise IllegalType(f"unknown form {form!r}")
    if form == FORM_UNITARY and (kind != "A" or rank < 2):
        raise IllegalType("unitary form requires kind A with rank >= 2")
    if res_degree < 1:
        raise IllegalType("res_degree must be >= 1")
    base = build_root_system(kind, rank)  # validates the pair (and warns on D3)
    if (count := res_degree * len(base.positive_roots)) > MAX_POSITIVE_ROOTS:
        raise BudgetExceeded(f"{base.kind}{'' if base.kind[1:] else rank} t={res_degree} has "
                             f"{count} positive roots, above the bound {MAX_POSITIVE_ROOTS}")
    return _build_group(kind, rank, form, res_degree)


def relative_coweights(g: GroupDatum) -> tuple[RelativeCoweight, ...]:
    """Relative cofundamental weights: orbit sums of absolute fundamental coweights."""
    out = []
    for i, orbit in enumerate(g.galois_orbits, start=1):
        w = (Fraction(0),) * g.absolute.ambient_dim
        for b in orbit:
            w = _add(w, g.absolute.fundamental_coweights[b - 1])
        out.append(RelativeCoweight(index=i, vector=w))
    return tuple(out)


def doubled(v: Vector) -> tuple[int, ...]:
    """2v as integers; every root coordinate here is half-integral at worst."""
    if any((2 * x).denominator != 1 for x in v):
        raise InvariantViolation("root coordinates are not half-integral")
    return tuple(int(2 * x) for x in v)


@lru_cache(maxsize=None)
def _doubled_simple_roots(rs: Realization) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The nonzero (coordinate, entry) pairs of each 2 alpha_j."""
    return tuple(tuple((k, x) for k, x in enumerate(doubled(a)) if x)
                 for a in rs.simple_roots)


def integer_pairings(rs: Realization, blocks: Sequence[Vector]
                     ) -> tuple[tuple[tuple[int, ...], ...], int, tuple[int, ...]]:
    """nu's blocks scaled to integers by one common lcm L of their
    denominators, L itself, and the pairings (L v, 2 alpha_j) of each block v
    with the simple roots of rs, block by block.

    (L v, 2 alpha_j) = L (alpha_j, alpha_j) (v, alpha_j^vee) is a positive
    multiple of the simple-coroot pairing, so it has the same sign.
    """
    for v in blocks:
        if len(v) != rs.ambient_dim:
            raise DimensionMismatch(
                f"vector of length {len(v)} in ambient dimension {rs.ambient_dim}")
    scale = math.lcm(*(x.denominator for v in blocks for x in v))
    ints = tuple(tuple(x.numerator * (scale // x.denominator) for x in v) for v in blocks)
    roots = _doubled_simple_roots(rs)
    return ints, scale, tuple(sum(a * v[k] for k, a in root) for v in ints for root in roots)


def decompose_in_coweights(nu: Sequence, rs: Realization) -> tuple[Fraction, ...]:
    """Coefficients n_i = (nu, alpha_i^vee), exact, from the integer pairings;
    nu is dominant iff all are >= 0."""
    _, scale, pairings = integer_pairings(rs, (vector(nu),))
    return tuple(p / (scale * inner_product(a, a))
                 for p, a in zip(pairings, rs.simple_roots))


def split_nu(g: GroupDatum, nu) -> tuple[Vector, ...]:
    """Normalize a cocharacter input to a tuple of res_degree base-ambient vectors.

    Accepts a single flat vector when res_degree == 1, a sequence of
    res_degree vectors, or one already-flat block vector.
    """
    t = g.res_degree
    n = g.base.ambient_dim
    seq = list(nu)
    if seq and not isinstance(seq[0], (list, tuple)):
        flat = vector(seq)
        if len(flat) == n and t == 1:
            return (flat,)
        if len(flat) == t * n:
            return tuple(flat[j * n:(j + 1) * n] for j in range(t))
        raise DimensionMismatch(
            f"flat cocharacter of length {len(flat)}; expected {t} blocks of {n}")
    if len(seq) != t:
        raise MalformedNu(f"expected {t} cocharacter factors, got {len(seq)}")
    entries = tuple(vector(x) for x in seq)
    for x in entries:
        if len(x) != n:
            raise DimensionMismatch(
                f"factor of length {len(x)}; base ambient dimension is {n}")
    return entries


def assemble_nu(g: GroupDatum, nu) -> Vector:
    """Flat block vector of the cocharacter tuple in the absolute ambient space."""
    return sum(split_nu(g, nu), ())
