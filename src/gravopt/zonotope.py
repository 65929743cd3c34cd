"""Vertex enumeration for integer zonotopes in fixed small dimension.

A vertex of zone(D) is a signed sum of the generators, one sign pattern
per full-dimensional cell of the central arrangement of the hyperplanes
orthogonal to the generators, and distinct cells have distinct
vertices.  The enumeration therefore walks cells, not the exponentially
many sign vectors, and keys each cell by its vertex: parallel
generators are merged into one aggregate per primitive direction and
the problem is restricted to the integer span of the aggregates.
There, every vertex lies on a facet, and the facet with outer normal
s*r is the zonotope of the generators orthogonal to r, one dimension
lower, translated by s times the off-facet sum of sgn(r.e)*e; the cells
are found by recursing into the facets, down to the two half-lines of
rank 1.  The facet normals are the signed maximal minors of the
(k-1)-subsets of the generators, divided by their gcd; a subset of
lower rank has all minors zero and gives no facet.  Each cell carries
an exact integer witness direction, which doubles as the separation
certificate: a facet witness c' lifts to lam*s*r + c', with
lam > |c'.e| for every generator e, so the generators off the facet
keep the facet's side.  All arithmetic is on integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Optional, Sequence

from .config import DEFAULT_CONFIG, RunConfig
from .errors import (DimensionMismatchError, InternalInconsistencyError,
                     ResourceLimitError)
from .intlinalg import IntMat, _column_echelon, dot

# never called: bound only because perfbench/spans.py wraps this name; it
# goes when a benchmark change drops the `ratlp.probe` row (ROADMAP item 1)
find_interior_direction = None


@dataclass(frozen=True)
class ZonotopeVertex:
    """A vertex and an integer direction uniquely maximized there.  The
    certificate is strict on every nonzero generator e, so the vertex is
    the sum of sgn(certificate.e)*e."""

    vertex: tuple
    certificate: tuple


def _primitive(e: Sequence[int]):
    """Canonical primitive direction p (first nonzero entry positive) and
    the integer alpha with e = alpha * p.  Returns (None, 0) for zero."""
    g = 0
    for a in e:
        g = gcd(g, abs(a))
    if g == 0:
        return None, 0
    p = tuple(a // g for a in e)
    if next(a for a in p if a) < 0:
        return tuple(-a for a in p), -g
    return p, g


def _independent_subset(vectors: list) -> list:
    """Greedy maximal linearly independent subset, in input order: the
    pivot rows of the column echelon form."""
    A = IntMat(len(vectors), len(vectors[0]), tuple(vectors))
    return [vectors[r] for r, _ in _column_echelon(A)[2]]


def _minors_normal(rows: Sequence[Sequence[int]]) -> tuple:
    """The signed maximal minors of k-1 vectors in Z^k: entry j is
    (-1)^j times the determinant without column j.  The vector is
    orthogonal to every row (it expands det([row; rows]) = 0), so it
    spans their kernel when that has rank 1, and it is zero when the
    kernel has rank 2 or more.  The minors are built by Laplace
    expansion along the rows, bottom up: dets[S] is the determinant of
    the last |S| rows restricted to the column set S."""
    k = len(rows[0])
    dets = {(): 1}
    for size, row in enumerate(reversed(rows), 1):
        expanded = {}
        for S in combinations(range(k), size):
            total, sign = 0, 1
            for t, c in enumerate(S):
                total += sign * row[c] * dets[S[:t] + S[t + 1:]]
                sign = -sign
            expanded[S] = total
        dets = expanded
    # combinations() lists the (k-1)-sets by the omitted column, k-1 first
    return tuple(-m if j & 1 else m
                 for j, m in enumerate(reversed(dets.values())))


def _sgn(a: int) -> int:
    return (a > 0) - (a < 0)


def _span_cells(gens: list, vecs: list) -> list:
    """Cells of pairwise non-parallel nonzero generators, as (vertex,
    witness) pairs; the vertex sums vecs[i] with the cell's sign on
    gens[i].  Generators of a proper subspace are expressed against an
    integer basis of their span, and the witnesses mapped back.
    Spanning generators keep their coordinates, and witnesses are
    divided by their gcd: both keep the witnesses, and so every later
    oracle query, on small integers."""
    basis = _independent_subset(gens)
    dim = len(gens[0])
    if len(basis) == dim:
        cells = _cells(gens, vecs)
    else:
        reduced = [tuple(dot(b, e) for b in basis) for e in gens]
        cells = [(v, tuple(sum(yi * b[j] for yi, b in zip(y, basis))
                           for j in range(dim)))
                 for v, y in _cells(reduced, vecs)]
    out = []
    for v, c in cells:
        g = gcd(*c)
        out.append((v, tuple(a // g for a in c)))
    return out


def _cells(reduced: list, vecs: list) -> list:
    """Cells of pairwise non-parallel generators of rank k in Z^k, each
    as its vertex (the sum of vecs[i] signed as the cell is on
    reduced[i]) and a strict integer witness y, by recursion over the
    facets of their zonotope."""
    k = len(reduced[0])
    if k == 1:
        if len(reduced) != 1:
            raise InternalInconsistencyError(
                "non-parallel generators in a rank-1 span")
        e, v = reduced[0], vecs[0]
        return [(v, e), (tuple(-a for a in v), tuple(-a for a in e))]
    normals: dict = {}
    for subset in combinations(reduced, k - 1):
        r = _primitive(_minors_normal(subset))[0]
        if r is not None:
            normals.setdefault(r, None)
    bound = max(abs(a) for e in reduced for a in e)
    dim = len(vecs[0])
    cells: dict = {}
    for r in normals:
        sides = [_sgn(dot(r, e)) for e in reduced]
        on = [i for i, side in enumerate(sides) if side == 0]
        off = [sum(side * v[j] for side, v in zip(sides, vecs))
               for j in range(dim)]
        for facet_vertex, c in _span_cells([reduced[i] for i in on],
                                           [vecs[i] for i in on]):
            lam = 1 + sum(abs(a) for a in c) * bound
            for s in (1, -1):
                vertex = tuple(s * a + b for a, b in zip(off, facet_vertex))
                if vertex not in cells:
                    cells[vertex] = tuple(lam * s * a + b
                                          for a, b in zip(r, c))
    return list(cells.items())


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
    classes: dict = {}
    for e in gens:
        p, alpha = _primitive(e)
        if p is not None:
            classes[p] = classes.get(p, 0) + abs(alpha)
    if not classes:
        zero = (0,) * dim
        return [ZonotopeVertex(zero, zero)]
    aggregates = [tuple(classes[p] * a for a in p) for p in sorted(classes)]
    return [ZonotopeVertex(v, c)
            for v, c in sorted(_span_cells(aggregates, aggregates))]
