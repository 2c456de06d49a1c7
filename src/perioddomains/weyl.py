"""Finite reflection group engine.

Elements are stored by their permutation action on the full root list (an
exact faithful encoding for these realizations, where everything fixes the
orthogonal complement of the root span pointwise) together with a reduced
word. Vector images apply the word's simple reflections, so lengths, coset
tests and slope pairings stay exact while enumeration runs on integer
tuples.

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
    _reflect,
    _w0_word,
    coroot,
    inner_product,
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
        self.sperm = tuple(
            tuple(self.index[_reflect(v, alpha, alphav)] for v in roots)
            for alpha, alphav in zip(rs.simple_roots, self.coroots))


@lru_cache(maxsize=None)
def _tables(rs: Realization) -> _Tables:
    return _Tables(rs)


def _reduced_word(rs: Realization, perm: tuple[int, ...]) -> tuple[int, ...]:
    """A reduced word of the element with root permutation perm: while some
    w(alpha_j) < 0, replace w by w s_j and record j (first such j)."""
    t = _tables(rs)
    letters: list[int] = []
    while True:
        j = next((j for j, a in enumerate(t.simple_idx) if perm[a] >= t.npos), None)
        if j is None:
            return tuple(reversed(letters))
        sp = t.sperm[j]
        perm = tuple(perm[p] for p in sp)
        letters.append(j + 1)


class WeylElement:
    """A Weyl group element: root permutation, cached length and a reduced word.

    Elements built without a word derive one from the root permutation on
    first use, so `word` is never None.
    """

    __slots__ = ("realization", "root_perm", "inv_perm", "length", "_word")

    def __init__(self, realization, root_perm, inv_perm, length, word=None):
        self.realization = realization
        self.root_perm = root_perm
        self.inv_perm = inv_perm
        self.length = length
        self._word = word

    @property
    def word(self) -> tuple[int, ...]:
        """Reduced word, 1-based letters; the element is s_{word[0]} s_{word[1]} ..."""
        if self._word is None:
            self._word = _reduced_word(self.realization, self.root_perm)
        return self._word

    def apply(self, v) -> Vector:
        """Image of an arbitrary ambient vector, exact."""
        v = vector(v)
        rs = self.realization
        coroots = _tables(rs).coroots
        for i in reversed(self.word):
            v = _reflect(v, rs.simple_roots[i - 1], coroots[i - 1])
        return v

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.realization is not other.realization:
            raise ValueError("elements of different realizations")
        perm = tuple(self.root_perm[p] for p in other.root_perm)
        inv = tuple(other.inv_perm[p] for p in self.inv_perm)
        npos = _tables(self.realization).npos
        length = sum(1 for k in range(npos) if perm[k] >= npos)
        word = None
        if self._word is not None and other._word is not None \
                and length == self.length + other.length:
            word = self._word + other._word
        return WeylElement(self.realization, perm, inv, length, word)

    def inverse(self) -> "WeylElement":
        word = tuple(reversed(self._word)) if self._word is not None else None
        return WeylElement(self.realization, self.inv_perm, self.root_perm,
                           self.length, word)

    def __eq__(self, other):
        return (isinstance(other, WeylElement)
                and self.realization is other.realization
                and self.root_perm == other.root_perm)

    def __hash__(self):
        return hash(self.root_perm)

    def __repr__(self):
        return "e" if not self.word else ".".join(f"s{i}" for i in self.word)


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
    if w.length != _tables(rs).npos:
        raise InvariantViolation(f"w0 word of length {w.length} is not reduced")
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
        if r != 2:
            raise InvariantViolation(f"triple bond in a component of rank {r}")
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
    if len(fork) != 1:
        raise InvariantViolation(f"simply-laced component with {len(fork)} branch nodes")
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
    return _parabolic(rs, dominant_delta([inner_product(v, c) for c in _tables(rs).coroots]))


def dominant_delta(pairings: Sequence) -> tuple[int, ...]:
    """Delta_P (1-based) from the pairings of nu with the simple coroots.

    Any positive multiple of each pairing will do, since only signs are
    read. Raises NotDominant when one is negative.
    """
    bad = [i + 1 for i, c in enumerate(pairings) if c < 0]
    if bad:
        raise NotDominant(f"negative pairing with simple coroots {bad}")
    return tuple(i + 1 for i, c in enumerate(pairings) if c == 0)


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
