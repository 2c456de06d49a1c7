"""Finite-field oracle: enumerate flag-variety points and test semistability.

Two routes decide semistability of a point of a type-A flag variety, or,
for the restriction of scalars Res_{k'/k} GL_n with [k' : k] = t and t | m,
of a t-tuple of flag points (F_0, ..., F_{t-1}), one per copy. A
k-rational subspace is then a k'-subspace U of k'^n, and copy j meets
Frob_q^j(U) (Dat-Orlik-Rapoport, Period Domains over Finite and p-adic
Fields, 2010); t = 1 is the split case. Both routes read the intersection
profiles (dim(Frob^j U cap F_j^b))_{j, b} from one kernel,
`intersection_profiles`: per point it tabulates u . a once for every
echelon row u of the U and every vector a of each Frob^-j-twisted step's
annihilator, so each U costs lookups plus the rank of a small matrix, and a
line U reads its dims straight off the table. The kernel keeps its last
result, so a point's profiles are computed once and both routes read them.
It reads a step's pivots off its canonical rows (Frobenius fixes 0 and 1);
`enumerate_flags` and the public tests reduce a step once, where it enters.

One helper, `_semistable`, decides a point: semistable iff no excess of the
route is positive on its profiles, each an integer summed over the copies.
`_excesses` reads nu on A_{n-1} once, by `rootdata._read_nu` as every route
reads it, scaled to integers by one lcm L of its denominators; each copy's
flag dims (`flag_dims`) are the simple roots outside its Delta_P. The public
tests check x, each row too, and nu before any memo; `survey`, the one
runner of a finite-field job (the CLI's `verify`), reads nu once per job
and decides the points it builds unchecked. The subspace excess is nkL
times the slope of the profile minus the ambient slope. The strata excess
treats a rational k-dimensional U as a translate g P_k of a vertex
parabolic: the profile fixes the double coset W_{P_k} w W_P of the point's
Bruhat position, and the excess is 2nL times the pairing (omega_k, w nu),
read from a one-line representative of it with the Dynkin labels of
w^-1 omega_k (`rootdata.reflect_labels`) and the integer coweights
W_i = 2n omega_i, as `strata` reads its cells. For type A (omega_k, w nu)
is k times the slope gap, so the strata excess is twice the subspace
excess. Both derivations stay, as independent references: `verify` exits 4
when they disagree, and tests/test_finflag.py computes w from rank matrices.

Field arithmetic uses Zech logarithm tables (exp/log plus log(1 + g^k)), so
addition and multiplication are single table lookups; fields up to
MAX_FIELD_ORDER = 2^16 elements are supported. The build chooses `add` and
`mul` once: dense tables up to 256 elements, the Zech data above. Elements
are integers 0..q^m-1 whose base-p digits are the coefficients of the
residue polynomial. The modulus is the first irreducible monic polynomial
in that encoding, by Berlekamp's rank test (`_is_irreducible`: `rref` over
F_p, the one elimination routine over a field). The generator g is the
first element of order q^m - 1, found by the cofactor test:
g^((Q-1)/r) != 1 for every prime r | Q - 1. exp is one walk through the
powers of g, each a product with g, whose few nonzero digits keep it
cheap; F_{2^16} and F_{3^10} each build in about 0.7 s (Python 3.11, three
runs each on a shared CPU).

The public tests and the enumeration take no budget; `survey` checks its
own before it builds the field, by `checked_flag_count`, a quotient of
`weyl`'s Poincare polynomials: each copy's number of points and, for one
step k over F_{q^t}, the number [n, k]_{q^t} of rational k-subspaces (or
translates), every one of which each point is tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul, sub
from typing import Iterator, Sequence

from .errors import BudgetExceeded, InvariantViolation, ValidationError, check_budget, shown
from .rootdata import _read_nu, build_group, build_root_system, check_rational, reflect_labels
from .weyl import _parabolic, permutation_element

Row = tuple[int, ...]
Matrix = tuple[Row, ...]

# FiniteField refuses a larger order before it builds any table
MAX_FIELD_ORDER = 1 << 16
_DENSE_LIMIT = 256


def _digits(value: int, p: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        out.append(value % p)
        value //= p
    return out


def _undigits(digits: Sequence[int], p: int) -> int:
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


def _poly_mul_mod(a, b, f, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    n = len(f) - 1
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(n):
                prod[k - n + j] = (prod[k - n + j] - c * f[j]) % p
    return prod[:n] + [0] * max(0, n - len(prod))


def _poly_pow_mod(base, exp, f, p):
    n = len(f) - 1
    result = [1] + [0] * (n - 1)
    cur = list(base[:n]) + [0] * max(0, n - len(base))
    while exp:
        if exp & 1:
            result = _poly_mul_mod(result, cur, f, p)
        cur = _poly_mul_mod(cur, cur, f, p)
        exp >>= 1
    return result


def _powers(g, f, p, count) -> list[int]:
    """The encodings of g^0..g^(count-1) modulo the monic f.

    g goes first into `_poly_mul_mod`, which skips its zero digits, so a step
    costs about n (deg g + the number of terms of g) digit operations: the
    generator, the first element of its order, has low degree.
    """
    cur = [1] + [0] * (len(f) - 2)
    out = [1]
    for _ in range(count - 1):
        cur = _poly_mul_mod(g, cur, f, p)
        val = _undigits(cur, p)
        if val == 1:
            raise InvariantViolation(f"generator has order {len(out)}, not {count}")
        out.append(val)
    return out


def _is_irreducible(f, p, n) -> bool:
    """Whether the monic f of degree n is irreducible over F_p: f divides
    x^(p^n) - x, so it is squarefree, and the rows x^(ip) - x^i mod f
    (i < n) have rank n - 1, since the algebra F_p[x]/f fixed by a -> a^p has
    one dimension per irreducible factor (Berlekamp 1967)."""
    if n == 1:
        return True
    x = [0, 1] + [0] * (n - 2)
    if _poly_pow_mod(x, p ** n, f, p) != x:
        return False
    xp, cur, rows = _poly_pow_mod(x, p, f, p), [1] + [0] * (n - 1), []
    for i in range(n):  # cur = x^(ip) mod f
        rows.append([(c - (k == i)) % p for k, c in enumerate(cur)])
        cur = _poly_mul_mod(xp, cur, f, p)
    return len(rref(rows, finite_field(p))[0]) == n - 1


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FiniteField:
    """F_{q^m} with q = p^e, with Zech-log arithmetic and subfield access.

    Elements are integers 0..order-1 (base-p digit encoding of residue
    polynomials); 0 and 1 are the field zero and one. `generator` is the
    first nonzero element of multiplicative order `order - 1`, found by the
    cofactor test, and `exp[k]` is generator^k. `add` and `mul` are chosen
    once at build: dense tables up to _DENSE_LIMIT elements, Zech logs above.
    The build takes time linear in the order: about 0.65 s at 2^16.
    """

    def __init__(self, p: int, e: int = 1, m: int = 1):
        self.order = checked_field_order(p, e, m)
        self.p, self.e, self.m = p, e, m
        self.q = p ** e
        self.degree = e * m
        self._build_tables()

    def _build_tables(self):
        p, n, Q = self.p, self.degree, self.order
        # irreducible monic modulus of degree n (deterministic scan)
        for c in range(Q):
            modulus = _digits(c, p, n) + [1]
            if _is_irreducible(modulus, p, n):
                break
        else:
            raise InvariantViolation(f"no irreducible polynomial of degree {n} over F_{p}")
        self.modulus = tuple(modulus)

        # the generator is the first nonzero element of order Q - 1, the first
        # with g^((Q-1)/r) != 1 for every prime r | Q - 1; exp is built once,
        # from its powers
        one = [1] + [0] * (n - 1)
        cofactors = [(Q - 1) // r for r in _prime_divisors(Q - 1)]
        for gen in range(1, Q):
            gvec = _digits(gen, p, n)
            if all(_poly_pow_mod(gvec, c, modulus, p) != one for c in cofactors):
                break
        else:
            raise InvariantViolation(f"no primitive element of F_{Q} found")
        self.generator = gen
        self.exp = exp = _powers(gvec, modulus, p, Q - 1)
        log = [0] * Q
        for k, v in enumerate(exp):
            log[v] = k
        self.log = log

        # zech[k] = log(1 + g^k), or None when 1 + g^k = 0
        zech: list[int | None] = []
        for k in range(Q - 1):
            v = exp[k]
            low = v % p
            plus_one = v - low + (low + 1) % p
            zech.append(None if plus_one == 0 else log[plus_one])
        self.zech = zech
        self._neg_one = 1 if p == 2 else exp[(Q - 1) // 2]

        self._add_table = self._mul_table = None
        self.add, self.mul = self._add_zech, self._mul_zech
        if Q <= _DENSE_LIMIT:
            add_rows = self._add_table = [[self.add(a, b) for b in range(Q)] for a in range(Q)]
            mul_rows = self._mul_table = [[self.mul(a, b) for b in range(Q)] for a in range(Q)]
            self.add, self.mul = (lambda a, b: add_rows[a][b]), (lambda a, b: mul_rows[a][b])

    def _add_zech(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        Q1 = self.order - 1
        la, lb = self.log[a], self.log[b]
        z = self.zech[(lb - la) % Q1]
        if z is None:
            return 0
        return self.exp[(la + z) % Q1]

    def _mul_zech(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.order - 1)]

    def neg(self, a: int) -> int:
        return self.mul(a, self._neg_one) if self.p != 2 else a

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.exp[(-self.log[a]) % (self.order - 1)]

    def frobenius(self, a: int, power: int = 1) -> int:
        """The base-field Frobenius a -> a^q, applied `power` times (mod m)."""
        if a == 0:
            return 0
        Q1 = self.order - 1
        return self.exp[self.log[a] * pow(self.q, power % self.m, Q1) % Q1]

    def subfield(self, size: int) -> tuple[int, ...]:
        """Elements of the subfield with `size` elements, sorted: the size must
        be p^d with (p^d - 1) | (order - 1), that is d | degree."""
        if size not in {self.p ** d for d in range(1, self.degree + 1)} \
                or (self.order - 1) % (size - 1):
            raise ValidationError(f"no subfield of size {size} in F_{self.order}")
        step = (self.order - 1) // (size - 1)
        return tuple(sorted({0} | {self.exp[k * step] for k in range(size - 1)}))

    def __repr__(self):
        return f"FiniteField(p={self.p}, e={self.e}, m={self.m})"


def checked_field_order(p: int, e: int = 1, m: int = 1) -> int:
    """The order p^(e*m) of F_{q^m}, after the checks FiniteField makes before
    it builds any table: positive degrees, p prime, order within
    MAX_FIELD_ORDER. A p above the bound, or e*m above its bit length, is
    refused before the primality test and without forming p^(e*m)."""
    if e < 1 or m < 1:
        raise ValidationError("field degrees must be positive")
    if p > MAX_FIELD_ORDER or (p > 1 and e * m > MAX_FIELD_ORDER.bit_length()):
        order = shown(p) if e * m == 1 else f"{shown(p)}^{shown(e * m)}"
        raise BudgetExceeded(f"field order {order} exceeds bound {MAX_FIELD_ORDER}")
    if p < 2 or _prime_divisors(p) != [p]:
        raise ValidationError(f"{p} is not prime")
    order = p ** (e * m)
    if order > MAX_FIELD_ORDER:
        raise BudgetExceeded(f"field order {order} exceeds bound {MAX_FIELD_ORDER}")
    return order


def factor_prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e for a prime p; a q above MAX_FIELD_ORDER is refused
    before it is factored, and a q that is not a prime power after."""
    if q > MAX_FIELD_ORDER:
        raise BudgetExceeded(f"q = {shown(q)} exceeds the field order bound {MAX_FIELD_ORDER}")
    primes = _prime_divisors(q)
    if len(primes) != 1:
        raise ValidationError("q must be a prime power" + ("" if primes else " >= 2"))
    e = 1
    while primes[0] ** e < q:
        e += 1
    return primes[0], e


@lru_cache(maxsize=None)
def finite_field(p: int, e: int = 1, m: int = 1) -> FiniteField:
    return FiniteField(p, e, m)


# ---------------------------------------------------------------------------
# linear algebra over a FiniteField


def rref(rows: Sequence[Sequence[int]], ff: FiniteField) -> tuple[Matrix, tuple[int, ...]]:
    """Canonical reduced row echelon form and pivot columns (zero rows dropped)."""
    mat = [list(r) for r in rows]
    if not mat:
        return (), ()
    add, mul = ff.add, ff.mul
    ncols = len(mat[0])
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        if mat[rank][col] != 1:  # enumerate_flags's later steps join rows with pivot 1
            inv = ff.inv(mat[rank][col])
            mat[rank] = [mul(inv, x) for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                minus_c = ff.neg(mat[r][col])
                mat[r] = [add(x, mul(minus_c, y)) for x, y in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return tuple(tuple(r) for r in mat[:rank]), tuple(pivots)


def enumerate_rref(n: int, k: int, elements: Sequence[int]) -> Iterator[Matrix]:
    """All canonical reduced echelon k x n matrices with entries in `elements`.

    `elements` are the encodings of a subfield (or of the whole field); no
    field arithmetic is needed. Pivot columns run in lexicographic order,
    free entries in the order of `elements`.
    """
    free_values = tuple(elements)
    for pivots in itertools.combinations(range(n), k):
        free_positions = []
        for i in range(k):
            for j in range(pivots[i] + 1, n):
                if j not in pivots:
                    free_positions.append((i, j))
        for values in itertools.product(free_values, repeat=len(free_positions)):
            mat = [[0] * n for _ in range(k)]
            for i in range(k):
                mat[i][pivots[i]] = 1
            for (i, j), v in zip(free_positions, values):
                mat[i][j] = v
            yield tuple(tuple(r) for r in mat)


# ---------------------------------------------------------------------------
# flags


@dataclass(frozen=True)
class FlagPoint:
    """A point of a type-A partial flag variety over the working field.

    `bases[i]` is the canonical reduced echelon basis of the i-th proper
    step, `dims` their sizes. Both semistability tests refuse bases, steps
    or rows that are not tuples, rows not of nu's width over the field, and
    dependent rows, reduce a step that is not canonical, assume the steps
    nest, and refuse a profile that no nested flag has.
    """

    bases: tuple[Matrix, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(map(len, self.bases))


def flag_dims(nu) -> tuple[int, ...]:
    """Proper step dimensions of the flag variety of a dominant nu on A_{n-1},
    n its width, from the semistability tests' memoized reading (`_excesses`)."""
    nu = tuple(nu)
    check_rational((nu,))
    return _excesses(len(nu) - 1, (nu,))[1][0]


def checked_flag_count(ell: int, dims: Sequence[int], order: int) -> int:
    """The number of points of the flag variety with step dims `dims` in an
    (ell+1)-space over the field of `order` elements: W(order) / W_P(order)
    for A_ell and the P whose Levi blocks are the steps. Illegal dims raise
    ValidationError, the check `enumerate_flags` makes before its first
    point; then a rank past MAX_POSITIVE_ROOTS raises BudgetExceeded."""
    dims = tuple(dims)
    if any(d1 >= d2 for d1, d2 in zip(dims, dims[1:])) or \
            any(not 1 <= d <= ell for d in dims):
        raise ValidationError(f"illegal step dimensions {dims} for ell={ell}")
    rs = build_root_system("A", ell)
    nodes = range(1, ell + 1)
    return _parabolic(rs, tuple(nodes)).poincare(order) // \
        _parabolic(rs, tuple(j for j in nodes if j not in dims)).poincare(order)


def enumerate_flags(ff: FiniteField, ell: int, dims: Sequence[int]) -> Iterator[FlagPoint]:
    """All working-field points of the partial flag variety, each exactly once.

    Deterministic order: steps are extended recursively, quotient subspaces
    enumerated in canonical echelon order.
    """
    n = ell + 1
    dims = tuple(dims)
    checked_flag_count(ell, dims, ff.order)
    all_elems = tuple(range(ff.order))

    def extend(step: int, rows: Matrix, pivots: tuple[int, ...]) -> Iterator[tuple[Matrix, ...]]:
        if step == len(dims):
            yield ()
            return
        k = dims[step] - len(rows)
        free_cols = [j for j in range(n) if j not in pivots]
        for quo in enumerate_rref(len(free_cols), k, all_elems):
            if step:  # join the new rows to the earlier ones
                lifted = []
                for qrow in quo:
                    row = [0] * n
                    for val, col in zip(qrow, free_cols):
                        row[col] = val
                    lifted.append(row)
                new_rows, new_pivots = rref(list(rows) + lifted, ff)
                if len(new_rows) != dims[step]:
                    raise InvariantViolation(
                        f"step {step + 1} has dimension {len(new_rows)}, not {dims[step]}")
            else:  # the first step is canonical as enumerated: its pivots are its first 1s
                new_rows, new_pivots = quo, tuple(row.index(1) for row in quo)
            for rest in extend(step + 1, new_rows, new_pivots):
                yield (new_rows,) + rest

    for chain in extend(0, (), ()):
        yield FlagPoint(chain)


@lru_cache(maxsize=None)
def _rational_rows(ff: FiniteField, n: int,
                   t: int) -> tuple[tuple[Row, ...], tuple[tuple[tuple[int, ...], ...], ...]]:
    """Distinct echelon rows of the subspaces of F_{q^t}^n, and, for each
    k = 1..n-1, every k-dimensional one (in `enumerate_rref` order) as
    indices into them. A t that does not divide m raises ValidationError."""
    index: dict[Row, int] = {}
    families = tuple(
        tuple(tuple(index.setdefault(row, len(index)) for row in u)
              for u in enumerate_rref(n, k, ff.subfield(ff.q ** t)))
        for k in range(1, n))
    return tuple(index), families


def _rank(vecs: Sequence[Row], ff: FiniteField) -> int:
    """Rank of a list of nonzero vectors."""
    if len(vecs) < 2 or len(vecs[0]) == 1:
        return min(len(vecs), 1)
    if len(vecs) == len(vecs[0]) == 2:
        (a, b), (c, d) = vecs
        return 1 + (ff.mul(a, d) != ff.mul(b, c))
    return len(rref(vecs, ff)[0])


@lru_cache(maxsize=1)
def intersection_profiles(points: tuple[FlagPoint, ...], n: int, ff: FiniteField
                          ) -> tuple[tuple[int, frozenset[tuple[int, ...]]], ...]:
    """For k = 1..n-1, the pair of k and the distinct profiles over all
    k-dimensional subspaces U of F_{q^t}^n, t = len(points): the dims
    dim(Frob^j U cap F_j^b) for the proper steps F_j^b of copy j,
    concatenated over j = 0..t-1. For t = 1 these are the rational subspaces
    of F_q^n.

    dim(Frob^j U cap F) = dim(U cap Frob^-j F), so copy j's steps are
    twisted by Frob^-j and every copy reads the rows of U itself. A step's
    pivots are its rows' first 1s (the caller checks and reduces it); its
    annihilator has one vector a_f per free column f, and dim(U cap F^b) =
    k - rank(u . a_f) over the rows u of U and the free columns f. The
    products u . a_f are tabulated once per row u, so each U costs lookups
    plus the rank of a k x (n - dim F^b) matrix; a line (k = 1) reads its
    dim off the table, 1 where its row lies in F^b. It refuses nothing. The
    last call's result is kept, so the two tests of one point compute its
    profiles once.
    """
    rows, families = _rational_rows(ff, n, len(points))
    add, mul = ff.add, ff.mul
    tables = []
    power = 0  # copy j's steps take Frob^-j
    for x in points:
        for basis in x.bases:
            pivots = [row.index(1) for row in basis]
            if power:
                basis = [[ff.frobenius(v, power) for v in row] for row in basis]
            annihilator = [(f, [(pc, ff.neg(r[f])) for r, pc in zip(basis, pivots) if r[f]])
                           for f in range(n) if f not in pivots]
            table = []
            for u in rows:
                products = []
                for f, terms in annihilator:
                    s = u[f]
                    for pc, c in terms:
                        if u[pc]:
                            s = add(s, mul(u[pc], c))
                    products.append(s)
                table.append(tuple(products) if any(products) else None)  # None: u in F^b
            tables.append(table)
        power -= 1
    out = []
    for k, family in enumerate(families, start=1):
        if k == 1:
            per_step = [[int(t[r] is None) for (r,) in family] for t in tables]
        else:
            per_step = [[k - _rank([t[r] for r in u if t[r] is not None], ff)
                         for u in family] for t in tables]
        out.append((k, frozenset(zip(*per_step)) if per_step else frozenset({()})))
    return tuple(out)


def _split(k: int, profile: tuple[int, ...], dims, n: int) -> list[tuple[int, ...]]:
    """The profile of a k-dimensional subspace cut into one part per copy; a
    part that no nested flag of F^n has raises ValidationError."""
    it = iter(profile)
    parts = [tuple(itertools.islice(it, len(d))) for d in dims]
    for d, part in zip(dims, parts):
        prev_d = prev_c = 0
        for step, c in zip(d + (n,), part + (k,)):
            if not 0 <= c - prev_c <= step - prev_d:
                raise ValidationError(f"intersection dims {part} of a subspace of dim {k} "
                                      f"with steps of dims {d}: the steps do not nest")
            prev_d, prev_c = step, c
    return parts


@lru_cache(maxsize=256)
def _excesses(ell: int, factors: tuple):
    """The width n = ell + 1 and flag dims of nu's t factors, and per route,
    "subspace" or "strata", the map k, profile -> the integer excess of a
    k-dimensional U of F_{q^t}^n with that profile, summed over the copies;
    memoized per rank and factor tuple, by value.

    nu is read on A_ell by `rootdata._read_nu`: checked, its flag dims (the
    simple roots outside its Delta_P) and jumps taken, and its factors scaled
    to integers by one common lcm L of their denominators. The subspace
    excess is nkL times the summed slope of U minus the ambient slope:
    n sum_j sum_b (L y_b)(dim(U cap F^b) - dim(U cap F^{b-1})) minus
    k L sum_j sum(nu_j), for the jumps y_b of nu_j. The strata excess of
    copy j is (W_k, w_j L nu_j) = 2nL (omega_k, w_j nu_j) for the base
    system's integer coweights W_i = 2n omega_i (det of A_{n-1}'s Cartan
    matrix is n) and the position w_j of copy j relative to Frob^j U. Each
    is a positive multiple of its rational excess, so every sign is the same.

    The one-line representative of the double coset W_{P_k} w W_P puts, in
    block b, dim(U cap F^b) - dim(U cap F^{b-1}) values from 1..k followed by
    values from k+1..n; the pairing is invariant under W_{P_k} on the left
    and W_P on the right, so any such representative gives it exactly. It is
    sum_i c_i (W_i, L nu_j) for the labels c of w^-1 omega_k, which start at
    e_k and take w's word first letter first. An ell below 1 raises the
    IllegalType that `enumerate_flags` gives for A_0.
    """
    n = ell + 1
    rs = build_root_system("A", ell)
    ints, _, deltas = _read_nu(rs, len(factors), factors)
    dims = tuple(tuple(k for k in range(1, n) if k not in d) for d in deltas)
    jumps = [tuple(v[b] for b in (0,) + d) for v, d in zip(ints, dims)]
    total = sum(map(sum, ints))
    weights = rs.coweight_pairings(ints)

    def labels(k: int, steps: tuple[int, ...], part: tuple[int, ...]) -> tuple[int, ...]:
        small, large = iter(range(1, k + 1)), iter(range(k + 1, n + 1))
        one_line: list[int] = []
        prev_d = prev_c = 0
        for d, c in zip(steps, part + (k,)):
            one_line += [next(small) for _ in range(c - prev_c)]
            one_line += [next(large) for _ in range(d - prev_d - c + prev_c)]
            prev_d, prev_c = d, c
        c = tuple(int(j == k - 1) for j in range(n - 1))
        for s in permutation_element(rs, one_line).word:
            c = reflect_labels(rs.cartan, c, s - 1)
        return c

    @lru_cache(maxsize=None)
    def subspace(k: int, profile: tuple[int, ...]) -> int:
        return n * sum(sum(map(mul, ys, map(sub, part + (k,), (0,) + part)))
                       for part, ys in zip(_split(k, profile, dims, n), jumps)) - k * total

    @lru_cache(maxsize=None)
    def strata(k: int, profile: tuple[int, ...]) -> int:
        return sum(sum(map(mul, labels(k, d + (n,), part), w))
                   for d, part, w in zip(dims, _split(k, profile, dims, n), weights))
    return n, dims, {"subspace": subspace, "strata": strata}


def _semistable(points: tuple[FlagPoint, ...], n: int, ff: FiniteField, excess) -> bool:
    """Whether no excess is positive on the profiles of the points, one per
    copy of width n: the one decision of both routes."""
    return all(excess(k, p) <= 0 for k, ps in intersection_profiles(points, n, ff) for p in ps)


def _factors(nu) -> tuple[tuple, ...]:
    """nu's factors as tuples: a flat vector is one factor."""
    nu = tuple(nu)
    return tuple(map(tuple, nu)) if nu and isinstance(nu[0], (list, tuple)) else (nu,)


def _is_semistable(x, nu, ff: FiniteField, route: str) -> bool:
    """Whether x is semistable by `route`, after the checks of x and nu: the
    driver of both public tests. Its memos are keyed by value (1.0 == 1 ==
    True), so nu's entries and every row of x are checked before they are
    read; a step that is not canonical is reduced once, here."""
    factors = _factors(nu)
    check_rational(factors)
    n, dims, excesses = _excesses(len(factors[0]) - 1, factors)
    points = (x,) if isinstance(x, FlagPoint) else tuple(x)
    if len(points) != len(dims):
        raise ValidationError(f"{len(points)} flag points for {len(dims)} cocharacter factors")
    order = ff.order
    j = 0  # plain loops: zip or all() would cost more than the checks
    for y in points:
        if type(y) is not FlagPoint:
            raise ValidationError(f"flag point of type {type(y).__name__} is not a FlagPoint")
        if type(y.bases) is not tuple:
            raise ValidationError(f"flag bases of type {type(y.bases).__name__} are not a tuple")
        if y.dims != dims[j]:
            raise ValidationError(f"flag dims {y.dims} do not match cocharacter dims {dims[j]}")
        for s, basis in enumerate(y.bases):
            prev = -1  # the last pivot, or n once a row is not canonical
            for i, row in enumerate(basis):
                if type(row) is not tuple:
                    raise ValidationError(f"flag row of type {type(row).__name__} is not a tuple")
                if len(row) != n:
                    raise ValidationError(f"flag point of width {len(row)}, nu of length {n}")
                for v in row:
                    if type(v) is not int or not 0 <= v < order:
                        what = shown(v) if type(v) is int else f"of type {type(v).__name__}"
                        raise ValidationError(f"flag entry {what} is not an int in 0..{order - 1}")
                pivot = row.index(1) if 1 in row else n  # canonical: 0s, a 1, 0s above that 1
                prev = pivot if prev < pivot < n and not any(row[:pivot]) \
                    and not (i and any(r[pivot] for r in basis[:i])) else n
            if type(basis) is not tuple:
                raise ValidationError(f"flag step of type {type(basis).__name__} is not a tuple")
            if prev == n:  # a hand-built step is reduced once, here
                ech = rref(basis, ff)[0]
                if len(ech) < len(basis):
                    raise ValidationError(f"flag step of {len(basis)} rows has rank {len(ech)}")
                y = FlagPoint(y.bases[:s] + (ech,) + y.bases[s + 1:])
                points = points[:j] + (y,) + points[j + 1:]  # the loop reads the old tuple
        j += 1
    return _semistable(points, n, ff, excesses[route])


def is_semistable_subspace_test(x, nu, ff: FiniteField) -> bool:
    """Subspace route: every rational subspace has slope at most the ambient slope.

    x is a FlagPoint and nu one vector, or, for a restriction of scalars of
    degree t (t | m), x holds t points and nu is a tuple of t factors; the
    rational subspaces are then those of F_{q^t}^n, and slopes add over the
    copies.
    """
    return _is_semistable(x, nu, ff, "subspace")


def is_semistable_strata_test(x, nu, ff: FiniteField) -> bool:
    """Strata route: no rational translate of a vertex stratum contains the point.

    Every translate class g P_i, one per rational i-dimensional T, is checked;
    x and nu are read as by `is_semistable_subspace_test`.
    """
    return _is_semistable(x, nu, ff, "strata")


def survey(p: int, e: int, m: int, ell: int, nu, budget: int
           ) -> tuple[int, Iterator[tuple[tuple[FlagPoint, ...], bool, bool]]]:
    """The job Res_{k'/k} GL_{ell+1} over F_{q^m}, q = p^e, with t = [k' : k]
    the number of nu's factors (read as by the public tests): its number of
    points, t-tuples of flag points, and a lazy iterator of (point, subspace
    verdict, strata verdict), each one `_semistable` call on a point it built,
    unchecked. Before the field is built it checks, in order: the budget's
    sign, `checked_field_order`, t | m, the root bound of t copies of A_ell,
    nu's entry types, nu, read once by `_excesses` (keyed by value), and
    against `budget` the points and the sum_k [n, k]_{q^t} rational subspaces
    (and translates) both routes visit per point, by `checked_flag_count`.
    The first copy's points stream; the tuples of the others are listed once."""
    check_budget(budget)
    order = checked_field_order(p, e, m)
    factors = _factors(nu)
    t = len(factors)
    if m % t:
        raise ValidationError(f"t={t} does not divide m={m}: no degree-t extension")
    build_group("A", ell, res_degree=t)
    check_rational(factors)
    n, dims, excesses = _excesses(ell, factors)
    points = math.prod(checked_flag_count(ell, d, order) for d in dims)
    if points > budget:
        raise BudgetExceeded(f"{shown(points)} flag points exceed budget {budget}")
    subspaces = sum(checked_flag_count(ell, (k,), p ** (e * t)) for k in range(1, n))
    if subspaces > budget:
        raise BudgetExceeded(f"{shown(subspaces)} rational subspaces exceed budget {budget}")
    ff = finite_field(p, e, m)

    def verdicts():
        copies = [enumerate_flags(ff, ell, d) for d in dims]
        others = list(itertools.product(*copies[1:]))
        for x in ((first,) + rest for first in copies[0] for rest in others):
            yield (x, _semistable(x, n, ff, excesses["subspace"]),
                   _semistable(x, n, ff, excesses["strata"]))
    return points, verdicts()
