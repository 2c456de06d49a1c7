"""Finite reflection group engine.

Elements are stored by their permutation action on the full root list (an
exact faithful encoding for these realizations, where everything fixes the
orthogonal complement of the root span pointwise) together with a reduced
word, so lengths and coset tests run on integer tuples. No inverse is
stored: s_j shortens u exactly when alpha_j is the image of a negative root,
so left descents are read from the permutation, and `inverse()` inverts it
when called. The simple reflections permute the roots by their Dynkin
labels (`rootdata.reflect_labels`); a caller that needs the image of a
weight reflects its labels along the word. `longest_element` gives w0 of any
W_J by the one w0 rule, `rootdata.climb`, and `permutation_element` builds a
type-A element, with a reduced word, from one-line notation by sorting it
with adjacent transpositions; it keeps no cache, since finflag's strata test
memoizes what it reads per profile.

Minimal coset representatives of W/W_P are grown by *left* multiplication:
if u is a minimal representative and u = s_i v with l(v) = l(u) - 1, then v
is again minimal, so a breadth-first frontier over minimal representatives
is exhaustive. (Right multiplication does not have this property.) u gets
(i,) + word(v) for the first such v in root-permutation order, which
`_reduced_word` derives from u alone. The enumeration takes no budget: it
yields |W|/|W_P| elements, a number `weyl_order` and `ParabolicData` give
before it starts.

Parabolic data needs no diagram classification: W_J has one positive root
per inversion of its longest element, and m is an exponent of W_J
#(height m) - #(height m + 1) times (Humphreys, 3.20). The Poincare polynomial
W_J(q) = sum_w q^l(w) is the product of 1 + q + ... + q^m over them
(Macdonald, 1972): |W_J| = W_J(1), and G/P has W(q) / W_P(q) F_q-points, the
package's one q-count. `_parabolic` builds these data once per realization
and checked, sorted index tuple; a dominant nu's are read from the integer
pairings of `rootdata._read_nu`, which refuses one that is not.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import IndexOutOfRange, InvariantViolation
from .rootdata import Realization, _read_nu, climb, reflect_labels, root_labels


class _Tables:
    """Per-realization lookup tables over the root list (the positive roots,
    then their negatives): where each simple root sits, and the simple
    reflections as root permutations, read from the roots' Dynkin labels."""

    def __init__(self, rs: Realization):
        self.npos = len(rs.positive_coefficients)
        labels = [root_labels(rs.cartan, c) for c in rs.positive_coefficients]
        labels += [tuple(-x for x in c) for c in labels]
        by_labels = {c: v for v, c in enumerate(labels)}
        units = (tuple(int(j == k) for j in range(rs.rank)) for k in range(rs.rank))
        self.simple_idx = tuple(by_labels[root_labels(rs.cartan, e)] for e in units)
        self.sperm = tuple(
            tuple(by_labels[reflect_labels(rs.cartan, c, k)] if c[k] else v
                  for v, c in enumerate(labels))
            for k in range(rs.rank))


@lru_cache(maxsize=None)
def _tables(rs: Realization) -> _Tables:
    return _Tables(rs)


def _left_descents(t: _Tables, perm: tuple[int, ...]) -> set[int]:
    """The j (0-based) with l(s_j u) < l(u): alpha_j = u(beta) for a negative
    root beta, so the simple roots among root_perm[npos:]."""
    negative = set(perm[t.npos:])
    return {j for j, a in enumerate(t.simple_idx) if a in negative}


def _reduced_word(w: "WeylElement") -> tuple[int, ...]:
    """The reduced word `enumerate_min_coset_reps` gives w: word(u) = (j,) +
    word(v) for the smallest v = s_j u, by root permutation, one left descent
    below u."""
    t = _tables(w.realization)
    perm = w.root_perm
    letters: list[int] = []
    while descents := _left_descents(t, perm):
        perm, j = min((tuple(sp[p] for p in perm), j)
                      for j, sp in enumerate(t.sperm) if j in descents)
        letters.append(j + 1)
    return tuple(letters)


class WeylElement:
    """A Weyl group element: root permutation, cached length and a reduced word.

    root_perm[k] is the index of the image of root k. Elements built without
    a word derive the enumeration's word from the root permutation on first
    use, so `word` is never None.
    """

    __slots__ = ("realization", "root_perm", "length", "_word")

    def __init__(self, realization, root_perm, length, word=None):
        self.realization = realization
        self.root_perm = root_perm
        self.length = length
        self._word = word

    @property
    def word(self) -> tuple[int, ...]:
        """Reduced word, 1-based letters; the element is s_{word[0]} s_{word[1]} ..."""
        if self._word is None:
            self._word = _reduced_word(self)
        return self._word

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.realization is not other.realization:
            raise ValueError("elements of different realizations")
        perm = tuple(self.root_perm[p] for p in other.root_perm)
        npos = _tables(self.realization).npos
        length = sum(1 for k in range(npos) if perm[k] >= npos)
        word = None
        if self._word is not None and other._word is not None \
                and length == self.length + other.length:
            word = self._word + other._word
        return WeylElement(self.realization, perm, length, word)

    def inverse(self) -> "WeylElement":
        inv = [0] * len(self.root_perm)
        for k, p in enumerate(self.root_perm):
            inv[p] = k
        word = tuple(reversed(self._word)) if self._word is not None else None
        return WeylElement(self.realization, tuple(inv), self.length, word)

    def __eq__(self, other):
        return (isinstance(other, WeylElement)
                and self.realization is other.realization
                and self.root_perm == other.root_perm)

    def __hash__(self):
        return hash(self.root_perm)

    def __repr__(self):
        return "e" if not self.word else ".".join(f"s{i}" for i in self.word)


def identity_element(rs: Realization) -> WeylElement:
    return WeylElement(rs, tuple(range(2 * _tables(rs).npos)), 0, ())


def simple_reflection(rs: Realization, i: int) -> WeylElement:
    """The reflection s_i: v -> v - (v, alpha_i^vee) alpha_i (1-based index)."""
    if not 1 <= i <= rs.rank:
        raise IndexOutOfRange(f"simple reflection index {i} outside 1..{rs.rank}")
    return WeylElement(rs, _tables(rs).sperm[i - 1], 1, (i,))


@lru_cache(maxsize=None)
def longest_element(rs: Realization, delta: tuple[int, ...] | None = None) -> WeylElement:
    """The longest element of W_delta (a tuple of 1-based simple-root indices;
    all of W by default). Its reduced word is the climb of -rho's labels over
    delta, in delta's order (`rootdata.climb`): w <- w s_j for the first j in
    delta with w(alpha_j) > 0, until there is none."""
    t = _tables(rs)
    nodes = range(rs.rank) if delta is None else [j - 1 for j in delta]
    word = tuple(k + 1 for k in climb(rs.cartan, (-1,) * rs.rank, nodes))
    perm = tuple(range(2 * t.npos))
    for j in word:
        perm = tuple(perm[q] for q in t.sperm[j - 1])
    return WeylElement(rs, perm, len(word), word)


@dataclass(frozen=True)
class ParabolicData:
    """Combinatorial data of the parabolic W_P inside W, exponents included."""

    delta_p: tuple[int, ...]
    w_p_order: int
    w0p_length: int
    exponents: tuple[int, ...]

    def poincare(self, q: int) -> int:
        """W_P(q), the sum over W_P of q^l(w): prod (1 + q + ... + q^m)."""
        return math.prod(sum(q ** i for i in range(m + 1)) for m in self.exponents)


def weyl_order(rs: Realization) -> int:
    return _parabolic(rs, tuple(range(1, rs.rank + 1))).w_p_order


@lru_cache(maxsize=None)
def _parabolic(rs: Realization, delta: tuple[int, ...]) -> ParabolicData:
    """One pass over the positive roots of J: their heights are dual to the
    exponents of W_J (Humphreys, Reflection Groups and Coxeter Groups, 3.20)."""
    for i in delta:
        if not 1 <= i <= rs.rank:
            raise IndexOutOfRange(f"simple root index {i} outside 1..{rs.rank}")
    dset = {i - 1 for i in delta}
    heights = [sum(c) for c in rs.positive_coefficients
               if all(c[k] == 0 or k in dset for k in range(rs.rank))]
    per_height = Counter(heights)
    exponents = tuple(m for m in range(1, max(heights, default=0) + 1)
                      for _ in range(per_height[m] - per_height[m + 1]))
    return ParabolicData(
        delta_p=delta,
        w_p_order=math.prod(m + 1 for m in exponents),
        w0p_length=len(rs.positive_coefficients) - len(heights),
        exponents=exponents,
    )


def parabolic_of(nu, rs: Realization) -> ParabolicData:
    """Parabolic attached to a dominant cocharacter, one flat vector:
    delta_p = vanishing pairings, as `rootdata._read_nu` reads them."""
    return _parabolic(rs, _read_nu(rs, 1, nu)[2][0])


def enumerate_min_coset_reps(pd: ParabolicData, rs: Realization) -> Iterator[WeylElement]:
    """All minimal-length coset representatives of W/W_P, once each.

    Breadth first in length; within a length layer, ordered by the root
    permutation tuple, so the output order is deterministic. The caller
    bounds the work: there are |W^P| = |W|/|W_P| of them.
    """
    total = weyl_order(rs) // pd.w_p_order
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
            descents = _left_descents(t, w.root_perm)  # l(s_i w) = l(w) - 1
            for i in range(rs.rank):
                if i in descents:
                    continue
                sp = t.sperm[i]
                perm = tuple(sp[p] for p in w.root_perm)
                if perm in seen or perm in nxt:
                    continue
                if any(perm[a] >= npos for a in alpha_idx):
                    continue  # left multiplication broke minimality
                nxt[perm] = WeylElement(rs, perm, w.length + 1, (i + 1,) + w.word)
        seen.update(nxt)
        layer = [nxt[p] for p in sorted(nxt)]
    if produced != total:
        raise InvariantViolation(f"enumerated {produced} cosets, expected {total}")


def permutation_element(rs: Realization, one_line: Sequence[int]) -> WeylElement:
    """Type-A element from one-line notation on coordinates (1-based values).

    one_line[k] is the image of position k+1; the element permutes the
    ambient coordinates accordingly. Swapping the entries at positions i and
    i+1 multiplies by s_i on the right and, at a descent, lowers the length
    by one; sorting one_line this way to the identity spells the reduced
    word w = s_{i_m} ... s_{i_1}.
    """
    n = rs.ambient_dim
    if sorted(one_line) != list(range(1, n + 1)):
        raise InvariantViolation(f"{one_line} is not a permutation of 1..{n}")
    t = _tables(rs)
    line, letters = list(one_line), []
    while (i := next((i for i in range(n - 1) if line[i] > line[i + 1]), None)) is not None:
        line[i], line[i + 1] = line[i + 1], line[i]
        letters.append(i)
    perm = tuple(range(2 * t.npos))
    for i in letters:  # perm <- s_i perm
        perm = tuple(t.sperm[i][p] for p in perm)
    return WeylElement(rs, perm, len(letters), tuple(i + 1 for i in reversed(letters)))
