"""Vertex enumeration for integer zonotopes in fixed small dimension.

A vertex of zone(D) is a signed sum of the generators, one per
full-dimensional cell of the central arrangement of the hyperplanes
orthogonal to the generators.  Parallel generators are merged into one
aggregate per primitive direction, and the cells, keyed by their vertex,
are found in the integer span of the aggregates by recursing into the
facets: the facet with outer normal s*r, r a (k-1)-subset's signed
maximal minors over their gcd, is the zonotope of the generators
orthogonal to r, translated by s times the off-facet sum of sgn(r.e)*e.
A facet's exact integer witness c' lifts to the cell's certificate
lam*s*r + c', with lam > |c'.e| for every generator e.

The recursion runs level by level on arrays: a level holds every facet
of the level above as a group of rows, and one scan, in chunks of
SCAN_ENTRIES, takes the sides of every normal against its group and the
off-facet sums.  Facets are pairwise non-parallel and of known rank: a
rank-1 facet gives its two cells directly, a rank-2 facet is spanned by
its first two generators, and only the top level and facets of rank 3
or more find a basis by echelon.  A product runs in int64 when a bound
on its values (||r||_1*max|e| for the sides, the sum of max|v| for the
vertex sums) is below 2^62, and otherwise by the same code on Python
ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial, isqrt
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import (DimensionMismatchError, InternalInconsistencyError,
                     ResourceLimitError)
from .graver import INT64_BOUND
from .intlinalg import IntMat, _column_echelon

# never called: bound only because perfbench/spans.py wraps this name; it
# goes with the `ratlp.probe` row in a benchmark change (ROADMAP items 4, 7)
find_interior_direction = None

# about this many (normal, generator) pairs per chunk of a facet scan
SCAN_ENTRIES = 1 << 16


@dataclass(frozen=True)
class ZonotopeVertex:
    """A vertex and an integer direction uniquely maximized there.  The
    certificate is strict on every nonzero generator e, so the vertex is
    the sum of sgn(certificate.e)*e."""

    vertex: tuple
    certificate: tuple


def _independent_subset(vectors: list) -> list:
    """Indices of the greedy maximal linearly independent subset, in
    input order: the pivot rows of the column echelon form."""
    A = IntMat(len(vectors), len(vectors[0]), tuple(map(tuple, vectors)))
    return [r for r, _ in _column_echelon(A)[2]]


def _minors_normal(rows) -> np.ndarray:
    """Entry j is (-1)^j times the minor without column j of k-1 vectors
    in Z^k (the last two axes of rows): it spans their kernel when that
    has rank 1 and is zero otherwise.  Laplace expansion, bottom up."""
    rows = np.asarray(rows)
    k = rows.shape[-1]
    sets, dets = {(c,): c for c in range(k)}, rows[..., k - 2, :]
    for size in range(2, k):
        row = rows[..., k - 1 - size, :]
        grown = list(combinations(range(k), size))
        terms = [row[..., [S[t] for S in grown]]
                 * dets[..., [sets[S[:t] + S[t + 1:]] for S in grown]]
                 for t in range(size)]
        dets = sum(terms[0::2]) - sum(terms[1::2])
        sets = {S: i for i, S in enumerate(grown)}
    # combinations() lists the (k-1)-sets by the omitted column, k-1 first
    return dets[..., ::-1] * (-1) ** np.arange(k)


def _ints(bound: int, *arrays) -> list:
    """The arrays as int64 when bound, a Python int above every value the
    caller computes from them, is below 2^62; else as Python ints."""
    dtype = np.int64 if bound < INT64_BOUND else object
    return [a.astype(dtype, copy=False) for a in arrays]


def _canonical(X) -> tuple:
    """The nonzero rows of X divided by their gcd and signed to a positive
    first nonzero entry, with the gcd of every row of X."""
    g = np.gcd.reduce(X, axis=1, initial=0)
    X = X[g != 0] // g[g != 0, None]
    lead = X[np.arange(len(X)), (X != 0).argmax(axis=1)]
    return np.where((lead < 0)[:, None], -X, X), g


def _top(a) -> int:
    return int(np.abs(a).max())


def _first(keys: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct row."""
    order = np.lexsort(keys.T)
    rows = keys[order]
    new = np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))
    return np.sort(order[new])


def _pairs(a, b) -> np.ndarray:
    """Row i of a, then row i of b, for every i."""
    return np.stack((a, b), 1).reshape(-1, a.shape[1])


def _span_cells(E, V, starts, basis) -> tuple:
    """Cells of groups of pairwise non-parallel generators (group g: rows
    starts[g]:starts[g+1] of E, spanned by its rows basis[g]) as arrays
    (vertices, witnesses, group), by group and in cell order; a vertex
    sums the rows of V with the cell's signs.  A proper subspace is taken
    in Gram coordinates; witnesses are mapped back and divided by their
    gcd, which keeps every oracle query small."""
    rank = basis.shape[1]
    if rank == 1:
        if len(E) != len(starts) - 1:
            raise InternalInconsistencyError(
                "non-parallel generators in a rank-1 span")
        c = E // np.gcd.reduce(E, axis=1, initial=0)[:, None]
        return _pairs(V, -V), _pairs(c, -c), np.repeat(np.arange(len(E)), 2)
    if rank == E.shape[1]:
        verts, W, group = _cells(E, V, starts)
    else:
        own = np.repeat(np.arange(len(basis)), np.diff(starts))
        top = _top(E)
        Es, B = _ints(E.shape[1] * top * top, E, E[basis])
        verts, Y, group = _cells((Es[:, None, :] * B[own]).sum(2), V, starts)
        Y, B = _ints(rank * _top(Y) * top, Y, B)
        W = (Y[:, :, None] * B[group]).sum(1)
    return verts, W // np.gcd.reduce(W, axis=1)[:, None], group


def _cells(E, V, starts) -> tuple:
    """`_span_cells` of groups of rank k in Z^k, k >= 2: the normals of
    each group's (k-1)-subsets, one chunked scan for their sides and
    off-facet sums, the facets' cells one level down, and the lifted
    candidates, of which the first per vertex and group is kept."""
    k, sizes = E.shape[1], np.diff(starts)
    subsets = np.array([s for lo, hi in zip(starts[:-1].tolist(),
                                            starts[1:].tolist())
                        for s in combinations(range(lo, hi), k - 1)],
                       dtype=np.int64).reshape(-1, k - 1)
    (Es,) = _ints(factorial(k - 1) * _top(E) ** (k - 1), E)
    normals, g = _canonical(_minors_normal(Es[subsets]))
    mine = np.repeat(np.arange(len(sizes)), sizes)
    owner = mine[subsets[g != 0, 0]]
    keep = _first(np.column_stack((owner, normals)))
    R, owner = normals[keep], owner[keep]
    # c normals span about c generators of small groups, or one big group
    rs, es = _ints(int(np.abs(R).sum(1, dtype=object).max()) * _top(E), R, E)
    step = max(1, min(isqrt(SCAN_ENTRIES), SCAN_ENTRIES // int(sizes.max())))
    offs, members, counts = [], [], []
    for lo in range(0, len(R), step):
        own = owner[lo:lo + step, None]
        a, b = starts[own[0, 0]], starts[own[-1, 0] + 1]
        same = own == mine[a:b]
        dots = rs[lo:lo + step] @ es[a:b].T
        side = np.sign(dots).astype(np.int8) * same
        offs.append(side @ V[a:b])
        at, on = np.nonzero((dots == 0) & same)
        members.append(on + a)
        counts.append(np.bincount(at, minlength=len(own)))
    members = np.concatenate(members)
    fstarts = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    if k <= 3:  # rank 1 or 2: the first generators span the facet
        basis = fstarts[:-1, None] + np.arange(k - 1)
    else:
        basis = np.array([[lo + i for i in _independent_subset(
            E[members[lo:hi]].tolist())] for lo, hi in
            zip(fstarts[:-1].tolist(), fstarts[1:].tolist())])
    fv, fc, facet = _span_cells(E[members], V[members], fstarts, basis)

    bound = np.maximum.reduceat(np.abs(E).max(axis=1), starts[:-1])
    cmax = _top(fc)
    fc, r, b = _ints((1 + k * cmax * _top(bound)) * _top(R) + cmax,
                     fc, R[facet], bound[owner[facet]])
    lr = (1 + np.abs(fc).sum(1) * b)[:, None] * r
    off = np.concatenate(offs)[facet]
    verts, wits = _pairs(off + fv, fv - off), _pairs(lr + fc, fc - lr)
    group = np.repeat(owner[facet], 2)
    keep = _first(np.column_stack((group, verts)))
    return verts[keep], wits[keep], group[keep]


def zonotope_vertices(generators: Sequence[Sequence[int]],
                      dim: Optional[int] = None,
                      config: RunConfig = DEFAULT_CONFIG) -> list:
    """Every vertex of the zonotope of the generators, each with an
    integer certificate uniquely maximized there, sorted by vertex.

    Zero, parallel and repeated generators are fine.  The dimension guard
    rejects dim > config.dim_cap.
    """
    gens = [tuple(int(a) for a in e) for e in generators]
    if gens:
        dims = {len(e) for e in gens}
        if len(dims) != 1:
            raise DimensionMismatchError("generators of mixed dimensions")
        if dim is not None and dim != dims.pop():
            raise DimensionMismatchError("dim does not match the generators")
        dim = len(gens[0])
    elif dim is None:
        raise ValueError("dim required when the generator list is empty")
    if dim > config.dim_cap:
        raise ResourceLimitError(
            f"zonotope dimension {dim} exceeds cap {config.dim_cap}")

    # merge parallel generators into one aggregate per primitive direction
    nonzero = [e for e in gens if any(e)]
    if not nonzero:
        return [ZonotopeVertex((0,) * dim, (0,) * dim)]
    primitive, g = _canonical(np.array(nonzero, dtype=object))
    classes: dict = {}
    for p, alpha in zip(map(tuple, primitive.tolist()), g.tolist()):
        classes[p] = classes.get(p, 0) + alpha
    aggregates = [tuple(classes[p] * a for a in p) for p in sorted(classes)]
    (V,) = _ints(sum(max(map(abs, v)) for v in aggregates),
                 np.array(aggregates, dtype=object))
    verts, wits, _ = _span_cells(V, V, np.array([0, len(V)]),
                                 np.array([_independent_subset(aggregates)]))
    return [ZonotopeVertex(v, c) for v, c in
            sorted(zip(map(tuple, verts.tolist()), map(tuple, wits.tolist())))]
