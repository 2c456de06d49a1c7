"""Unstable strata of the flag variety: slopes, cell dimensions, codimension.

For a dominant cocharacter nu with parabolic P, the vertex stratum Y_i is the
union of Schubert cells BwP/P over minimal coset representatives w with
(omega_i, w nu) > 0; its dimension is the largest l(w) among them. dim F is
l(w0^P) and codim Y = dim F - dim Y decides the fundamental group.

The qualification predicate is evaluated through a cached table of elements
with their lengths, the signs of w(alpha_j) for every simple root, and the
vectors w^{-1} omega_i scaled to integers (signs are scale-invariant). A
report ANDs the delta_p columns of the sign table, since w is the minimal
representative of wW_P exactly when w(alpha_j) > 0 for every j in delta_p,
with the result of one integer mat-vec per vertex, then takes the longest
qualifying element, first in enumeration order, as witness.

When |W| <= FULL_TABLE_MAX_ORDER (2^15) one table over all of W serves every
parabolic of the group. Filtering its breadth-first order keeps the order of
the W^P enumeration, and the predecessors of a minimal representative are
minimal, so witnesses and their reduced words are those of a W^P table.
Larger groups (A7, E6-E8) build one W^P table per (group, delta_p), whose
delta_p signs are all positive. Overflow of the mat-vec is excluded by an a
priori bound; inputs beyond it fall back to exact Fraction arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BudgetExceeded, IndexOutOfRange, InvariantViolation, ValidationError
from .rootdata import (
    GroupDatum,
    RelativeCoweight,
    Vector,
    assemble_nu,
    inner_product,
    relative_coweights,
    solve_in_span,
    vector,
)
from .weyl import (
    WeylElement,
    _tables,
    enumerate_min_coset_reps,
    parabolic_from_subset,
    parabolic_of,
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


# Largest |W| for which one table over all of W serves every parabolic. It
# covers A3 with t=3 (|W| = 13,824) and excludes A7 (40,320) and E6 (51,840),
# whose full tables would cost seconds to build where W^P is small.
FULL_TABLE_MAX_ORDER = 2 ** 15


class _QualTable:
    """Minimal coset reps of W/W_{delta_p} (all of W for delta_p = ()) with
    their lengths, signs of w(alpha_j) and w^{-1}omega_i rows."""

    def __init__(self, g: GroupDatum, delta_p: tuple[int, ...]):
        rs = g.absolute
        self.elements = tuple(enumerate_min_coset_reps(parabolic_from_subset(rs, delta_p), rs))
        self.lengths = np.array([w.length for w in self.elements], dtype=np.int64)
        omegas = relative_coweights(g)
        coeff_rows = [solve_in_span(rs.simple_roots, om.vector) for om in omegas]
        tab = _tables(rs)
        # signs[n, j] says whether elements[n] maps alpha_{j+1} to a positive root
        self.signs = np.array(
            [[w.root_perm[a] < tab.npos for a in tab.simple_idx] for w in self.elements],
            dtype=bool)

        # All root coordinates are half-integral at worst; doubling them and
        # clearing the coefficient denominators turns every row of
        # w^{-1} omega_i = sum_k c_k w^{-1}(alpha_k) into small integers.
        if any((2 * x).denominator != 1 for v in tab.roots for x in v):
            raise InvariantViolation("root coordinates are not half-integral")
        root2 = np.array([[int(2 * x) for x in v] for v in tab.roots],
                         dtype=np.int64)
        inv_at_simple = np.array(
            [[w.inv_perm[tab.simple_idx[k]] for k in range(rs.rank)]
             for w in self.elements],
            dtype=np.intp)

        self.vertex_rows = []
        self.max_abs = 1
        for coeffs in coeff_rows:
            scale = 1
            for c in coeffs:
                scale = scale * c.denominator // math.gcd(scale, c.denominator)
            cint = np.array([int(c * scale) for c in coeffs], dtype=np.int64)
            support = np.nonzero(cint)[0]
            gathered = root2[inv_at_simple[:, support]]  # (n_elem, support, dim)
            rows = np.einsum("s,nsd->nd", cint[support], gathered)
            self.max_abs = max(self.max_abs, int(np.abs(rows).max(initial=1)))
            self.vertex_rows.append(rows)


@lru_cache(maxsize=256)
def _qual_table(g: GroupDatum, delta_p: tuple[int, ...]) -> _QualTable:
    return _QualTable(g, delta_p)


def _integerize(nu: Vector) -> list[int]:
    lcm = 1
    for x in nu:
        lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    return [int(x * lcm) for x in nu]


def _vertex_strata(g: GroupDatum, nu, max_cells=None) -> tuple[tuple[VertexStratum, ...], int]:
    if max_cells is not None and max_cells < 0:
        raise ValidationError(f"cell budget must be nonnegative, got {max_cells}")
    rs = g.absolute
    flat = assemble_nu(g, nu)
    pd = parabolic_of(flat, rs)
    order = weyl_order(rs)
    if max_cells is not None and order // pd.w_p_order > max_cells:
        raise BudgetExceeded(f"|W^P| = {order // pd.w_p_order} exceeds budget {max_cells}")
    # w is the minimal representative of wW_P exactly when w(alpha_j) > 0
    # for every j in delta_p; a W^P table has all those signs positive.
    table = _qual_table(g, () if order <= FULL_TABLE_MAX_ORDER else pd.delta_p)
    minimal = table.signs[:, [j - 1 for j in pd.delta_p]].all(axis=1)

    nu_int = _integerize(flat)
    max_nu = max((abs(x) for x in nu_int), default=0)
    dim = rs.ambient_dim
    exact_fallback = table.max_abs * max_nu * dim >= 2 ** 62

    strata = []
    for i, rows in enumerate(table.vertex_rows, start=1):
        if exact_fallback:
            omega = relative_coweights(g)[i - 1].vector
            flags = [inner_product(omega, w.apply(flat)) > 0 for w in table.elements]
            mask = np.array(flags, dtype=bool) & minimal
        else:
            vals = rows @ np.array(nu_int, dtype=np.int64)
            mask = (vals > 0) & minimal
        count = int(mask.sum())
        if count == 0:
            strata.append(VertexStratum(index=i, dim=None, witness=None, cell_count=0))
            continue
        dims = table.lengths[mask]
        best = int(dims.max())
        witness_idx = int(np.nonzero(mask & (table.lengths == best))[0][0])
        strata.append(VertexStratum(index=i, dim=best,
                                    witness=table.elements[witness_idx],
                                    cell_count=count))
    return tuple(strata), pd.w0p_length


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
