"""Unstable strata of the flag variety: cell dimensions, counts, codimension.

For a dominant cocharacter nu with parabolic P, the vertex stratum Y_i is the
union of Schubert cells BwP/P over w in W^P with (omega_i, w nu) > 0; dim Y_i
is the largest l(w) among them, and codim Y = l(w0^P) - max_i dim Y_i.

The pairing is constant on each double coset D = W_{P_i} d W_P, d minimal,
and mu = d^{-1} omega_i, the Delta_P-dominant element of its W_P-orbit,
fixes D. By Kilmoyer's theorem W_{P_i} ∩ d W_P d^{-1} = d W_J d^{-1} with J
the zero labels of mu in Delta_P (Carter, Finite Groups of Lie Type, 2.7),
so D holds |W_{P_i}| / |W_J| cells, its longest cell w0(P_i) d w0(J) has
length N(Delta_{P_i}) + l(d) - N(J), N counting positive roots, and its
pairing is sum_j (mu, alpha_j^vee) (omega_j, nu). One breadth-first search
over integer Dynkin labels, on which s_k acts by `rootdata.reflect_labels`,
finds every mu at level l(d). It runs over the smaller orbit:
that of omega_i, keeping the Delta_P-dominant elements, when |W/W_{P_i}| <=
|W/W_P|, else that of nu_P (labels 1 off Delta_P), keeping the
Delta_{P_i}-dominant d nu_P and carrying omega_i back along d^{-1}. The
records are cached per (base system, Delta_P, Delta_{P_i}), so a report
only scans them, and every degree t and form of one base reads the same
records.

A restriction of scalars of degree t has W = W_base^t: lengths and pairings
add over the copies and counts multiply, so one pass over each copy's double
cosets tabulates [largest dim, count] per value, and the tables merge by sums.

The witness is the qualifying cell of largest dimension that comes first in
the breadth-first W^P enumeration, whose length layers run in root-
permutation order, lexicographic over the copies on W_base^t. In each copy
it is the longest cell of its double coset, so only candidates are built,
and its reduced word is the enumeration's (`weyl._reduced_word`). A report
finds no witness: each vertex keeps the records its search reads and runs
it the first time its witness is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul

from .errors import BudgetExceeded, check_budget
from .rootdata import GroupDatum, RootSystemData, _base_orbits, _read_nu, climb, reflect_labels
from .weyl import WeylElement, _parabolic, _tables, longest_element, weyl_order


class _FoundOnFirstRead:
    """`VertexStratum.witness`: the first read runs the stratum's `_search`
    (a function, then its arguments) and stores the cell in the instance,
    which later reads find first. `functools.cached_property` does the same
    but takes a lock on each first read up to Python 3.11."""

    def __get__(self, stratum, owner=None):
        if stratum is None:
            return self
        search = stratum._search
        witness = stratum.__dict__["witness"] = search[0](*search[1:]) if search else None
        return witness


@dataclass(frozen=True)
class VertexStratum:
    """One vertex stratum: its dimension (None if empty), a witness cell (None
    exactly when the dimension is), found when first read, and cell count."""

    index: int
    dim: int | None
    # init=False: __init__ leaves it to the class attribute, the descriptor
    witness: WeylElement | None = field(init=False, default=_FoundOnFirstRead())
    cell_count: int
    _search: tuple = field(default=(), repr=False, compare=False)


@dataclass(frozen=True)
class StrataReport:
    """dim F, all vertex strata, dim Y and codim Y (math.inf when Y is empty)."""

    dim_f: int
    per_vertex: tuple[VertexStratum, ...]
    dim_y: int | None
    codim_y: int | float


@lru_cache(maxsize=None)
def _vertex_data(base: RootSystemData, form: str) -> tuple[tuple[int, ...], ...]:
    """Delta_{P_i} of each vertex i, which every copy of (base, form) shares."""
    return tuple(tuple(k for k in range(1, base.rank + 1) if k not in orbit)
                 for orbit in _base_orbits(base, form))


@lru_cache(maxsize=1024)
def _double_cosets(rs: RootSystemData, delta_p: tuple[int, ...], delta_pi: tuple[int, ...]):
    """The double cosets W_{P_i} d W_P of one copy by dimension descending, as
    three tuples: longest-cell lengths, cell counts and mu = d^{-1} omega_i."""
    pi = _parabolic(rs, delta_pi)
    omega = tuple(int(k + 1 not in delta_pi) for k in range(rs.rank))
    from_omega = pi.w_p_order >= _parabolic(rs, delta_p).w_p_order
    if from_omega:
        layer, keep = [omega], delta_p
    else:
        layer, keep = [tuple(int(k + 1 not in delta_p) for k in range(rs.rank))], delta_pi
    by_j: dict[tuple[int, ...], tuple[int, int]] = {}  # J -> (l(top) - l(d), count)
    by_dim: dict[int, tuple[list[int], list[tuple[int, ...]]]] = {}
    level = 0
    while layer:
        for c in layer:
            if any(c[j - 1] < 0 for j in keep):
                continue
            mu = c
            if not from_omega:  # c = d nu_P; carry omega_i back along d^{-1}
                mu = omega
                for k in climb(rs.cartan, c, range(rs.rank)):
                    mu = reflect_labels(rs.cartan, mu, k)
            j_mu = tuple(j for j in delta_p if mu[j - 1] == 0)
            if j_mu not in by_j:
                pj = _parabolic(rs, j_mu)
                by_j[j_mu] = (pj.w0p_length - pi.w0p_length, pi.w_p_order // pj.w_p_order)
            counts, mus = by_dim.setdefault(level + by_j[j_mu][0], ([], []))
            counts.append(by_j[j_mu][1])
            mus.append(mu)
        nxt = {}
        for c in layer:
            for k, ck in enumerate(c):
                if ck > 0:
                    nxt[reflect_labels(rs.cartan, c, k)] = None
        layer, level = list(nxt), level + 1
    dims = sorted(by_dim, reverse=True)
    return (tuple(d for d in dims for _ in by_dim[d][0]),
            tuple(c for d in dims for c in by_dim[d][0]),
            tuple(mu for d in dims for mu in by_dim[d][1]))


@lru_cache(maxsize=4096)
def _top_cell(rs: RootSystemData, delta_pi: tuple[int, ...], delta_p: tuple[int, ...],
              mu: tuple[int, ...]) -> WeylElement:
    """The longest cell w0(P_i) d w0(J) of the double coset of mu in one copy."""
    tab = _tables(rs)
    perm = longest_element(rs, tuple(k for k in delta_p if mu[k - 1] == 0)).root_perm
    for k in climb(rs.cartan, mu, range(rs.rank)):  # d = s_{k_m} ... s_{k_1}
        sp = tab.sperm[k]
        perm = tuple(sp[p] for p in perm)
    w0pi = longest_element(rs, delta_pi).root_perm
    perm = tuple(w0pi[p] for p in perm)
    return WeylElement(rs, perm, sum(p >= tab.npos for p in perm[:tab.npos]))


def _lift(g: GroupDatum, cells: list[WeylElement]) -> WeylElement:
    """The element of W_base^t whose copy j is cells[j]."""
    npos, t = _tables(g.base).npos, len(cells)
    # copy j's root m < npos is j*npos + m, and m >= npos is (t-1+j)*npos + m
    perm = tuple(m + j * npos if m < npos else m + (t - 1 + j) * npos
                 for half in (slice(0, npos), slice(npos, None))
                 for j, w in enumerate(cells) for m in w.root_perm[half])
    return WeylElement(g.absolute, perm, sum(w.length for w in cells))


def strata_report(g: GroupDatum, nu, max_cells: int | None = None) -> StrataReport:
    """Full unstable-locus report for a dominant cocharacter tuple. It visits
    the sum over copies and vertices of min(|W/W_{P_i}|, |W/W_P|) orbit
    elements; more than max_cells raise BudgetExceeded before any search."""
    check_budget(max_cells)
    vertex_deltas = _vertex_data(g.base, g.form)
    ints, _, deltas = _read_nu(g.base, g.res_degree, nu)
    rs = g.base
    pds = [_parabolic(rs, d) for d in deltas]
    visits = sum(weyl_order(rs) // max(_parabolic(rs, dpi).w_p_order, pd.w_p_order)
                 for pd in pds for dpi in vertex_deltas)
    if max_cells is not None and visits > max_cells:
        raise BudgetExceeded(f"{visits} orbit elements exceed budget {max_cells}")
    pairs = rs.coweight_pairings(ints)
    strata = tuple(_stratum(g, i, dpi, deltas, pairs)
                   for i, dpi in enumerate(vertex_deltas, start=1))
    dim_f = sum(pd.w0p_length for pd in pds)
    dims = [s.dim for s in strata if s.dim is not None]
    if dims:
        dim_y = max(dims)
        codim: int | float = dim_f - dim_y
    else:
        dim_y = None
        codim = math.inf
    return StrataReport(dim_f=dim_f, per_vertex=strata, dim_y=dim_y, codim_y=codim)


def _stratum(g: GroupDatum, i: int, delta_pi: tuple[int, ...], deltas, pairs) -> VertexStratum:
    """Vertex i, with Delta_{P_i} = delta_pi, from each copy's double cosets
    and pairing values (mu, nu_j), which for t >= 2 merge from the last copy
    into [largest dim, count] per summed value."""
    if len(deltas) == 1:
        dims, counts, mus = _double_cosets(g.base, deltas[0], delta_pi)
        hits = [k for k, mu in enumerate(mus) if sum(map(mul, mu, pairs[0])) > 0]
        if not hits:
            return VertexStratum(index=i, dim=None, cell_count=0)
        return VertexStratum(index=i, dim=dims[hits[0]], cell_count=sum(counts[k] for k in hits),
                             _search=(_base_witness, g.base, delta_pi, deltas[0], dims, mus, hits))
    cosets = [_double_cosets(g.base, d, delta_pi) for d in deltas]  # per copy: dims, counts, mus
    values = [[sum(map(mul, mu, nus)) for mu in mus] for (_, _, mus), nus in zip(cosets, pairs)]
    suffix = [{0: [0, 1]}]  # suffix[j]: value of copies j.. -> [largest dim, count]
    for (dims, counts, _), xs in zip(reversed(cosets), reversed(values)):
        table: dict[int, list[int]] = {}  # this copy: value -> [largest dim, count]
        for dim, count, x in zip(dims, counts, xs):  # dims fall, so a value's first is largest
            table.setdefault(x, [dim, 0])[1] += count
        merged: dict[int, list[int]] = {}
        for x, (dim, count) in table.items():
            for y, (dim2, count2) in suffix[-1].items():
                if (old := merged.get(x + y)) is None:
                    merged[x + y] = [dim + dim2, count * count2]
                else:
                    old[0] = max(old[0], dim + dim2)
                    old[1] += count * count2
        suffix.append(merged)
    suffix.reverse()
    qualifying = [v for x, v in suffix[0].items() if x > 0]
    if not qualifying:
        return VertexStratum(index=i, dim=None, cell_count=0)
    best = max(dim for dim, _ in qualifying)
    return VertexStratum(index=i, dim=best, cell_count=sum(count for _, count in qualifying),
                         _search=(_product_witness, g, delta_pi, deltas, cosets, values,
                                  suffix, best))


def _base_witness(rs: RootSystemData, delta_pi, delta_p, dims, mus, hits) -> WeylElement:
    """The t = 1 witness: the least root permutation among the longest cells
    of the qualifying double cosets (indices hits) at the top dim. No _lift:
    _top_cell's cached cell derives its word once."""
    return min((_top_cell(rs, delta_pi, delta_p, mus[k]) for k in hits if dims[k] == dims[hits[0]]),
               key=lambda w: w.root_perm)


def _product_witness(g: GroupDatum, delta_pi, deltas, cosets, values, suffix, best) -> WeylElement:
    """The t >= 2 witness: copy by copy, the least root permutation among
    double cosets whose value x and dim leave copies j+1.. a value above
    need - x at dim rest - dim."""
    need, rest, parts = 0, best, []
    for j, ((dims, _, mus), xs) in enumerate(zip(cosets, values)):
        highest: dict[int, int] = {}  # dim of copies j+1.. -> largest value there
        for y, (dim2, _) in suffix[j + 1].items():
            highest[dim2] = max(y, highest.get(dim2, y))
        cell, x, dim = min(((_top_cell(g.base, delta_pi, deltas[j], mu), x, dim)
                            for dim, mu, x in zip(dims, mus, xs)
                            if highest.get(rest - dim, need - x) > need - x),
                           key=lambda choice: choice[0].root_perm)
        need, rest = need - x, rest - dim
        parts.append(cell)
    return _lift(g, parts)
