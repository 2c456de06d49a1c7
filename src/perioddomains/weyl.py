"""Finite reflection group engine.

Elements are stored by their permutation action on the full root list (an
exact faithful encoding for these realizations, where everything fixes the
orthogonal complement of the root span pointwise). Exact-rational matrices
and vector images are reconstructed on demand, so lengths, coset tests and
slope pairings stay exact while enumeration runs on integer tuples.

Minimal coset representatives of W/W_P are grown by *left* multiplication:
if u is a minimal representative and u = s_i v with l(v) = l(u) - 1, then v
is again minimal, so a breadth-first frontier over minimal representatives
is exhaustive. (Right multiplication does not have this property.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterator, Sequence

from .errors import BudgetExceeded, IndexOutOfRange, InvariantViolation, NotDominant
from .rootdata import (
    Realization,
    Vector,
    _w0_word,
    coroot,
    inner_product,
    invert_matrix,
    vector,
)


class _Tables:
    """Per-realization lookup tables (root list, reflection permutations)."""

    def __init__(self, rs: Realization):
        positives = rs.positive_roots
        self.npos = len(positives)
        roots = list(positives) + [tuple(-x for x in v) for v in positives]
        self.roots = tuple(roots)
        self.index = {v: k for k, v in enumerate(roots)}
        self.simple_idx = tuple(self.index[a] for a in rs.simple_roots)
        self.coroots = tuple(coroot(a) for a in rs.simple_roots)
        sperm = []
        for alpha, alphav in zip(rs.simple_roots, self.coroots):
            perm = []
            for v in roots:
                pairing = inner_product(v, alphav)
                img = tuple(a - pairing * b for a, b in zip(v, alpha))
                perm.append(self.index[img])
            sperm.append(tuple(perm))
        self.sperm = tuple(sperm)
        self._basis_inv = None
        self._rs = rs

    @property
    def basis_inv(self):
        """Inverse of [simple roots | complement basis], for matrix recovery."""
        if self._basis_inv is None:
            rs = self._rs
            n = rs.ambient_dim
            cols = [list(a) for a in rs.simple_roots]
            complement = _kernel_basis(rs.simple_roots, n)
            cols += [list(c) for c in complement]
            assert len(cols) == n
            matrix_rows = [[cols[j][i] for j in range(n)] for i in range(n)]
            self._basis_inv = (invert_matrix(matrix_rows), tuple(complement))
        return self._basis_inv


def _kernel_basis(rows: Sequence[Vector], n: int) -> list[Vector]:
    """Exact basis of {v : (row, v) = 0 for all rows}."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(n):
        piv = next((k for k in range(rank, len(mat)) if mat[k][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for k in range(len(mat)):
            if k != rank and mat[k][col] != 0:
                f = mat[k][col]
                mat[k] = [x - f * y for x, y in zip(mat[k], mat[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -mat[i][fc]
        basis.append(tuple(v))
    return basis


@lru_cache(maxsize=None)
def _tables(rs: Realization) -> _Tables:
    return _Tables(rs)


class WeylElement:
    """A Weyl group element: root permutation, cached length, optional reduced word."""

    __slots__ = ("realization", "root_perm", "inv_perm", "length", "word", "_matrix")

    def __init__(self, realization, root_perm, inv_perm, length, word=None):
        self.realization = realization
        self.root_perm = root_perm
        self.inv_perm = inv_perm
        self.length = length
        self.word = word
        self._matrix = None

    def apply(self, v) -> Vector:
        """Image of an arbitrary ambient vector, exact."""
        v = vector(v)
        if self.word is not None:
            rs = self.realization
            t = _tables(rs)
            for i in reversed(self.word):
                alpha = rs.simple_roots[i - 1]
                pairing = inner_product(v, t.coroots[i - 1])
                v = tuple(a - pairing * b for a, b in zip(v, alpha))
            return v
        m = self.matrix
        return tuple(sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in m)

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """Exact orthogonal matrix (rows), computed on first use."""
        if self._matrix is None:
            rs = self.realization
            t = _tables(rs)
            n = rs.ambient_dim
            basis_inv, complement = t.basis_inv
            image_cols = [t.roots[self.root_perm[t.simple_idx[k]]] for k in range(rs.rank)]
            image_cols += list(complement)
            rows = []
            for i in range(n):
                row = []
                for j in range(n):
                    row.append(sum((image_cols[k][i] * basis_inv[k][j] for k in range(n)),
                                   Fraction(0)))
                rows.append(tuple(row))
            self._matrix = tuple(rows)
        return self._matrix

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.realization is not other.realization:
            raise ValueError("elements of different realizations")
        perm = tuple(self.root_perm[p] for p in other.root_perm)
        inv = tuple(other.inv_perm[p] for p in self.inv_perm)
        npos = _tables(self.realization).npos
        length = sum(1 for k in range(npos) if perm[k] >= npos)
        word = None
        if self.word is not None and other.word is not None \
                and length == self.length + other.length:
            word = self.word + other.word
        return WeylElement(self.realization, perm, inv, length, word)

    def inverse(self) -> "WeylElement":
        word = tuple(reversed(self.word)) if self.word is not None else None
        return WeylElement(self.realization, self.inv_perm, self.root_perm,
                           self.length, word)

    def __eq__(self, other):
        return (isinstance(other, WeylElement)
                and self.realization is other.realization
                and self.root_perm == other.root_perm)

    def __hash__(self):
        return hash(self.root_perm)

    def __repr__(self):
        if self.word is not None:
            return "e" if not self.word else ".".join(f"s{i}" for i in self.word)
        return f"WeylElement(length={self.length})"


def identity_element(rs: Realization) -> WeylElement:
    n = 2 * _tables(rs).npos
    perm = tuple(range(n))
    return WeylElement(rs, perm, perm, 0, ())


def simple_reflection(rs: Realization, i: int) -> WeylElement:
    """The reflection s_i: v -> v - (v, alpha_i^vee) alpha_i (1-based index)."""
    if not 1 <= i <= rs.rank:
        raise IndexOutOfRange(f"simple reflection index {i} outside 1..{rs.rank}")
    perm = _tables(rs).sperm[i - 1]
    return WeylElement(rs, perm, perm, 1, (i,))


@lru_cache(maxsize=None)
def longest_element(rs: Realization) -> WeylElement:
    """The longest element w0; its length is the number of positive roots."""
    word = _w0_word(rs.simple_roots, rs.fundamental_coweights)
    w = identity_element(rs)
    for i in word:
        w = w * simple_reflection(rs, i)
    assert w.length == _tables(rs).npos
    return w


@dataclass(frozen=True)
class ParabolicData:
    """Combinatorial data of the parabolic W_P inside W."""

    delta_p: tuple[int, ...]
    w_p_order: int
    w0_length: int
    w0p_length: int


def reflection_subgroup_order(rs: Realization, indices: Sequence[int]) -> int:
    """Order of the reflection subgroup generated by the listed simple roots.

    Classifies each connected component of the sub-diagram by its bond
    pattern and applies the closed-form order.
    """
    idx = sorted(i - 1 for i in set(indices))
    for i in idx:
        if not 0 <= i < rs.rank:
            raise IndexOutOfRange(f"simple root index {i + 1} outside 1..{rs.rank}")
    simple = rs.simple_roots
    bond = {}
    adj = {i: [] for i in idx}
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            i, j = idx[a], idx[b]
            cij = inner_product(simple[i], coroot(simple[j]))
            cji = inner_product(simple[j], coroot(simple[i]))
            m = int(cij * cji)
            if m:
                bond[(i, j)] = bond[(j, i)] = m
                adj[i].append(j)
                adj[j].append(i)

    order = 1
    seen: set[int] = set()
    for start in idx:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        k = 0
        while k < len(comp):
            for j in adj[comp[k]]:
                if j not in seen:
                    seen.add(j)
                    comp.append(j)
            k += 1
        order *= _component_order(comp, adj, bond)
    return order


def _component_order(comp, adj, bond) -> int:
    r = len(comp)
    if r == 1:
        return 2
    maxbond = max(bond[(i, j)] for i in comp for j in adj[i])
    if maxbond == 3:
        assert r == 2
        return 12
    if maxbond == 2:
        if r == 4:
            i, j = next((i, j) for i in comp for j in adj[i] if bond[(i, j)] == 2)
            if len(adj[i]) == 2 and len(adj[j]) == 2:
                return 1152  # double bond in the middle of a 4-chain
        return 2 ** r * factorial(r)
    degrees = {i: len(adj[i]) for i in comp}
    fork = [i for i in comp if degrees[i] == 3]
    if not fork:
        return factorial(r + 1)
    assert len(fork) == 1
    node = fork[0]
    branch_lengths = sorted(_branch_length(b, node, adj) for b in adj[node])
    if branch_lengths[1] == 1:
        return 2 ** (r - 1) * factorial(r)
    return {2: 51840, 3: 2903040, 4: 696729600}[branch_lengths[2]]


def _branch_length(start, fork, adj) -> int:
    length = 1
    prev, cur = fork, start
    while True:
        nxt = [j for j in adj[cur] if j != prev]
        if not nxt:
            return length
        prev, cur = cur, nxt[0]
        length += 1


@lru_cache(maxsize=None)
def weyl_order(rs: Realization) -> int:
    return reflection_subgroup_order(rs, range(1, rs.rank + 1))


def parabolic_from_subset(rs: Realization, delta_p: Sequence[int]) -> ParabolicData:
    """ParabolicData for an explicit subset of simple-root indices (1-based)."""
    return _parabolic(rs, tuple(sorted(set(delta_p))))


@lru_cache(maxsize=None)
def _parabolic(rs: Realization, delta: tuple[int, ...]) -> ParabolicData:
    npos = _tables(rs).npos
    dset = {i - 1 for i in delta}
    wp_len = sum(
        1 for c in rs.positive_coefficients
        if all(c[k] == 0 or k in dset for k in range(rs.rank))
    )
    return ParabolicData(
        delta_p=delta,
        w_p_order=reflection_subgroup_order(rs, delta) if delta else 1,
        w0_length=npos,
        w0p_length=npos - wp_len,
    )


def parabolic_of(nu, rs: Realization) -> ParabolicData:
    """Parabolic attached to a dominant cocharacter: delta_p = vanishing pairings."""
    v = vector(nu)
    coeffs = [inner_product(v, c) for c in _tables(rs).coroots]
    bad = [i + 1 for i, c in enumerate(coeffs) if c < 0]
    if bad:
        raise NotDominant(f"negative pairing with simple coroots {bad}")
    delta = tuple(i + 1 for i, c in enumerate(coeffs) if c == 0)
    return parabolic_from_subset(rs, delta)


def enumerate_min_coset_reps(pd: ParabolicData, rs: Realization,
                             max_count: int | None = None) -> Iterator[WeylElement]:
    """All minimal-length coset representatives of W/W_P, once each.

    Breadth first in length; within a length layer, ordered by the root
    permutation tuple, so the output order is deterministic. Raises
    BudgetExceeded up front when |W^P| = |W|/|W_P| exceeds max_count.
    """
    total = weyl_order(rs) // pd.w_p_order
    if max_count is not None and total > max_count:
        raise BudgetExceeded(f"|W^P| = {total} exceeds budget {max_count}")
    t = _tables(rs)
    npos = t.npos
    alpha_idx = tuple(t.simple_idx[i - 1] for i in pd.delta_p)
    layer = [identity_element(rs)]
    seen = {layer[0].root_perm}
    produced = 0
    while layer:
        for w in layer:
            produced += 1
            yield w
        nxt = {}
        for w in layer:
            for i in range(rs.rank):
                if w.inv_perm[t.simple_idx[i]] >= npos:
                    continue  # l(s_i w) = l(w) - 1
                sp = t.sperm[i]
                perm = tuple(sp[p] for p in w.root_perm)
                if perm in seen or perm in nxt:
                    continue
                if any(perm[a] >= npos for a in alpha_idx):
                    continue  # left multiplication broke minimality
                inv = tuple(w.inv_perm[sp[k]] for k in range(len(sp)))
                nxt[perm] = WeylElement(rs, perm, inv, w.length + 1, (i + 1,) + w.word)
        seen.update(nxt)
        layer = [nxt[p] for p in sorted(nxt)]
    if produced != total:
        raise InvariantViolation(f"enumerated {produced} cosets, expected {total}")


def min_coset_rep(w: WeylElement, delta_p: Sequence[int]) -> WeylElement:
    """Minimal representative of the coset w W_P (strips right descents in delta_p)."""
    rs = w.realization
    t = _tables(rs)
    npos = t.npos
    perm, inv, length = w.root_perm, w.inv_perm, w.length
    changed = True
    while changed:
        changed = False
        for j in sorted(set(delta_p)):
            a = t.simple_idx[j - 1]
            if perm[a] >= npos:
                sp = t.sperm[j - 1]
                perm = tuple(perm[sp[k]] for k in range(len(sp)))
                inv = tuple(sp[p] for p in inv)
                length -= 1
                changed = True
    return WeylElement(rs, perm, inv, length, None)


def permutation_element(rs: Realization, one_line: Sequence[int]) -> WeylElement:
    """Type-A element from one-line notation on coordinates (1-based values).

    one_line[k] is the image of position k+1; the element permutes the
    ambient coordinates accordingly.
    """
    return _permutation_element(rs, tuple(one_line))


@lru_cache(maxsize=4096)
def _permutation_element(rs: Realization, one_line: tuple[int, ...]) -> WeylElement:
    n = rs.ambient_dim
    if sorted(one_line) != list(range(1, n + 1)):
        raise InvariantViolation(f"{one_line} is not a permutation of 1..{n}")
    t = _tables(rs)
    sigma = [x - 1 for x in one_line]
    inv_sigma = [0] * n
    for k, x in enumerate(sigma):
        inv_sigma[x] = k

    def image(v, s):
        out = [Fraction(0)] * n
        for a in range(n):
            out[s[a]] = v[a]
        return tuple(out)

    perm = tuple(t.index[image(v, sigma)] for v in t.roots)
    inv = tuple(t.index[image(v, inv_sigma)] for v in t.roots)
    length = sum(1 for k in range(t.npos) if perm[k] >= t.npos)
    return WeylElement(rs, perm, inv, length, None)
