"""Unstable strata of the flag variety: slopes, cell dimensions, codimension.

For a dominant cocharacter nu with parabolic P, the vertex stratum Y_i is the
union of Schubert cells BwP/P over minimal coset representatives w with
(omega_i, w nu) > 0; its dimension is the largest l(w) among them. dim F is
l(w0^P) and codim Y = dim F - dim Y decides the fundamental group.

A restriction of scalars of degree t has W = W_base^t, P is a product of one
parabolic per copy, and both lengths and the pairings (omega_i, w nu) add
over the copies. So a report reads one table per copy, built for the t = 1
group: its elements in root-permutation order with their lengths, the signs
of w(alpha_j) for every simple root, and the vectors w^{-1} omega_i scaled to
integers (signs are scale-invariant). w is the minimal representative of
wW_P exactly when w(alpha_j) > 0 for every j in delta_p, so each copy keeps
the elements whose delta_p signs are positive. One integer mat-vec per copy
gives every vertex's pairings; their broadcast sum over the copies, beside
the broadcast sum of lengths, runs over W^P in C order. A report counts the
positive entries per vertex and takes the longest, first in C order, as
witness.

Within a length layer the breadth-first W^P enumeration orders elements by
root permutation, which on W_base^t is lexicographic over the copies' root
permutations, so the C-order first index is that enumeration's witness. Its
reduced word follows the enumeration's rule, word(u) = (j,) + word(s_j u)
for the smallest s_j u one left descent below u.

When |W_base| <= FULL_TABLE_MAX_ORDER (2^15) one table over all of W_base
serves every parabolic. Larger base groups (A7, E6-E8) build one W^P table
per (group, delta_p), whose delta_p signs are all positive. Dominance and
delta_p come from `rootdata.integer_pairings`, which also scales the blocks
of nu to the integers the mat-vecs read. Overflow of the int64 sums is
excluded by an a priori bound; inputs beyond it run the same broadcast on
exact Python integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import BudgetExceeded, IndexOutOfRange, ValidationError
from .rootdata import (
    GroupDatum,
    RelativeCoweight,
    build_group,
    inner_product,
    integer_pairings,
    relative_coweights,
    solve_in_span,
    split_nu,
    vector,
)
from .weyl import (
    WeylElement,
    _tables,
    dominant_delta,
    enumerate_min_coset_reps,
    parabolic_from_subset,
    weyl_order,
)


@dataclass(frozen=True)
class VertexStratum:
    """One vertex stratum: its dimension (None if empty), a witness cell, cell count."""

    index: int
    dim: int | None
    witness: WeylElement | None
    cell_count: int


@dataclass(frozen=True)
class StrataReport:
    """dim F, all vertex strata, dim Y and codim Y (math.inf when Y is empty)."""

    dim_f: int
    per_vertex: tuple[VertexStratum, ...]
    dim_y: int | None
    codim_y: int | float


def slope_on_cell(w: WeylElement, omega, nu) -> Fraction:
    """GIT slope on the cell BwP/P for vertex omega: -(omega, w nu).

    The cell lies in Y_i exactly when the returned value is negative.
    """
    vec = omega.vector if isinstance(omega, RelativeCoweight) else vector(omega)
    return -inner_product(vec, w.apply(nu))


# Largest |W_base| for which one table over all of W_base serves every
# parabolic of a copy. It covers F4 (1152) and excludes A7 (40,320) and E6
# (51,840), whose full tables would cost seconds to build where W^P is small.
FULL_TABLE_MAX_ORDER = 2 ** 15


class _QualTable:
    """Minimal coset reps of W/W_{delta_p} (all of W for delta_p = ()) of a
    t = 1 group in root-permutation order, with their lengths, signs of
    w(alpha_j) and rows of w^{-1}omega_i, shaped (vertex, element, coordinate)."""

    def __init__(self, g: GroupDatum, delta_p: tuple[int, ...]):
        rs = g.absolute
        reps = enumerate_min_coset_reps(parabolic_from_subset(rs, delta_p), rs)
        self.elements = tuple(sorted(reps, key=lambda w: w.root_perm))
        # int16 keeps the broadcast length sums of A3 t=3 under 128 KB, where
        # malloc stops mapping fresh pages for every report; a sum past 32767
        # would need some 270 nontrivial copies, hence 2^270 cells.
        self.lengths = np.array([w.length for w in self.elements], dtype=np.int16)
        omegas = relative_coweights(g)
        coeff_rows = [solve_in_span(rs.simple_roots, om.vector) for om in omegas]
        tab = _tables(rs)
        # signs[n, j] says whether elements[n] maps alpha_{j+1} to a positive root
        self.signs = np.array(
            [[w.root_perm[a] < tab.npos for a in tab.simple_idx] for w in self.elements],
            dtype=bool)

        # Doubling the root coordinates and clearing the coefficient
        # denominators turns every row of w^{-1} omega_i = sum_k c_k
        # w^{-1}(alpha_k) into small integers.
        root2 = np.array(tab.root2, dtype=np.int64)
        inv_at_simple = np.array(
            [[w.inv_perm[tab.simple_idx[k]] for k in range(rs.rank)]
             for w in self.elements],
            dtype=np.intp)

        self.rows = np.empty((len(coeff_rows), len(self.elements), rs.ambient_dim),
                             dtype=np.int64)
        for row, coeffs in zip(self.rows, coeff_rows):
            scale = math.lcm(*(c.denominator for c in coeffs))
            cint = np.array([int(c * scale) for c in coeffs], dtype=np.int64)
            support = np.nonzero(cint)[0]
            gathered = root2[inv_at_simple[:, support]]  # (n_elem, support, dim)
            np.einsum("s,nsd->nd", cint[support], gathered, out=row)
        self.max_abs = max(1, int(self.rows.max()), -int(self.rows.min()))
        self._minimal: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}

    def minimal(self, delta_p: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the minimal representatives of W/W_{delta_p} among the
        elements, and their lengths."""
        hit = self._minimal.get(delta_p)
        if hit is None:
            sel = np.flatnonzero(self.signs[:, [j - 1 for j in delta_p]].all(axis=1))
            hit = self._minimal[delta_p] = (sel, self.lengths[sel])
        return hit

    @cached_property
    def left(self) -> list[tuple[int, ...]]:
        """left[n][b]: index of s_{b+1} w_n when that is shorter than w_n, else -1.

        A W^P table holds every such element: predecessors of a minimal
        representative are minimal.
        """
        tab = _tables(self.elements[0].realization)
        index = {w.root_perm: n for n, w in enumerate(self.elements)}
        return [tuple(index[tuple(sp[p] for p in w.root_perm)]
                      if w.inv_perm[a] >= tab.npos else -1
                      for a, sp in zip(tab.simple_idx, tab.sperm))
                for w in self.elements]


@lru_cache(maxsize=256)
def _qual_table(g: GroupDatum, delta_p: tuple[int, ...]) -> _QualTable:
    return _QualTable(g, delta_p)


@dataclass(frozen=True)
class _Copy:
    """One restriction-of-scalars copy: its t = 1 group, and whether one
    table over all of W_base serves it."""

    group: GroupDatum
    full: bool


@lru_cache(maxsize=None)
def _copy(g: GroupDatum) -> _Copy:
    base = build_group(g.base.kind, g.base.rank, g.form, 1)
    return _Copy(base, weyl_order(base.absolute) <= FULL_TABLE_MAX_ORDER)


def _copy_parabolics(g: GroupDatum, nu) -> tuple[tuple[tuple[int, ...], ...],
                                                  tuple[tuple[int, ...], ...]]:
    """The blocks of nu scaled to integers, and delta_p of each copy (1-based).

    Absolute indices of the pairings run copy by copy, as in g.absolute.
    """
    ints, _, pairings = integer_pairings(g.base, split_nu(g, nu))
    delta = dominant_delta(pairings)
    r = g.base.rank
    deltas = tuple(tuple(i - j * r for i in delta if j * r < i <= (j + 1) * r)
                   for j in range(len(ints)))
    return ints, deltas


@lru_cache(maxsize=4096)
def _product_element(g: GroupDatum, table_deltas: tuple[tuple[int, ...], ...],
                     parts: tuple[int, ...]) -> WeylElement:
    """The element of W_base^t = W(g.absolute) whose copy j is element
    parts[j] of the copy's table for table_deltas[j].

    Its word is the one breadth-first W^P enumeration gives: word(u) =
    (j,) + word(v) for the smallest v = s_j u one left descent below u, in
    the lexicographic order of the copies' table indices.
    """
    group = _copy(g).group
    tables = [_qual_table(group, d) for d in table_deltas]
    r = g.base.rank
    letters = []
    cur = parts
    while True:
        steps = [(cur[:j] + (prev,) + cur[j + 1:], j * r + b + 1)
                 for j, (table, k) in enumerate(zip(tables, cur))
                 for b, prev in enumerate(table.left[k]) if prev >= 0]
        if not steps:
            break
        cur, letter = min(steps)
        letters.append(letter)

    elements = [table.elements[k] for table, k in zip(tables, parts)]
    npos = _tables(g.base).npos
    t = len(parts)

    def lift(perms):
        # copy j's positive root m is root j*npos + m of the product, and its
        # negative root m >= npos is root (t - 1 + j)*npos + m
        return tuple(m + j * npos if m < npos else m + (t - 1 + j) * npos
                     for half in (slice(0, npos), slice(npos, None))
                     for j, p in enumerate(perms) for m in p[half])

    return WeylElement(g.absolute, lift([w.root_perm for w in elements]),
                       lift([w.inv_perm for w in elements]),
                       sum(w.length for w in elements), tuple(letters))


def _vertex_strata(g: GroupDatum, nu, max_cells=None) -> tuple[tuple[VertexStratum, ...], int]:
    if max_cells is not None and max_cells < 0:
        raise ValidationError(f"cell budget must be nonnegative, got {max_cells}")
    c = _copy(g)
    ints, deltas = _copy_parabolics(g, nu)
    rs = c.group.absolute
    pds = [parabolic_from_subset(rs, d) for d in deltas]
    cells = math.prod(weyl_order(rs) // pd.w_p_order for pd in pds)
    if max_cells is not None and cells > max_cells:
        raise BudgetExceeded(f"|W^P| = {cells} exceeds budget {max_cells}")
    table_deltas = tuple(() if c.full else d for d in deltas)
    tables = [_qual_table(c.group, d) for d in table_deltas]

    # |sum over copies| <= max_abs * max_nu * (t * base dim)
    max_nu = max(abs(x) for v in ints for x in v)
    exact = max(tab.max_abs for tab in tables) * max_nu * g.absolute.ambient_dim >= 2 ** 62
    dtype = object if exact else np.int64
    sels = []
    values = lengths = None
    for table, d, v in zip(tables, deltas, ints):
        sel, lens = table.minimal(d)
        rows = table.rows.astype(object) if exact else table.rows
        vals = (rows @ np.array(v, dtype=dtype)).take(sel, axis=1)
        sels.append(sel)
        if values is None:
            values, lengths = vals, lens
        else:  # (vertex, earlier copies, this copy) flattened in C order
            values = (values[:, :, None] + vals[:, None, :]).reshape(len(vals), -1)
            lengths = (lengths[:, None] + lens).reshape(-1)

    qualifies = values > 0
    counts = qualifies.sum(axis=1)
    dims = np.where(qualifies, lengths, -1)
    best = dims.max(axis=1)
    first = np.unravel_index((dims == best[:, None]).argmax(axis=1), [len(s) for s in sels])

    strata = []
    for i in range(len(values)):
        if counts[i] == 0:
            strata.append(VertexStratum(index=i + 1, dim=None, witness=None, cell_count=0))
            continue
        parts = tuple(int(sel[k[i]]) for sel, k in zip(sels, first))
        witness = (tables[0].elements[parts[0]] if len(parts) == 1
                   else _product_element(g, table_deltas, parts))
        strata.append(VertexStratum(index=i + 1, dim=int(best[i]), witness=witness,
                                    cell_count=int(counts[i])))
    return tuple(strata), sum(pd.w0p_length for pd in pds)


def dim_y_i(g: GroupDatum, nu, i: int, max_cells: int | None = None) -> VertexStratum:
    """Dimension data of the i-th vertex stratum (1 <= i <= relative rank)."""
    if not 1 <= i <= g.relative_rank:
        raise IndexOutOfRange(f"vertex {i} outside 1..{g.relative_rank}")
    strata, _ = _vertex_strata(g, nu, max_cells)
    return strata[i - 1]


def strata_report(g: GroupDatum, nu, max_cells: int | None = None) -> StrataReport:
    """Full unstable-locus report for a dominant cocharacter tuple."""
    strata, dim_f = _vertex_strata(g, nu, max_cells)
    dims = [s.dim for s in strata if s.dim is not None]
    if dims:
        dim_y = max(dims)
        codim: int | float = dim_f - dim_y
    else:
        dim_y = None
        codim = math.inf
    return StrataReport(dim_f=dim_f, per_vertex=strata, dim_y=dim_y, codim_y=codim)
