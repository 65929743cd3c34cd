"""Vertex enumeration for integer zonotopes in fixed small dimension.

A vertex of zone(D) is a signed sum of the generators, one sign pattern
per full-dimensional cell of the central arrangement of the hyperplanes
orthogonal to the generators.  The enumeration therefore walks cells,
not the exponentially many sign vectors: parallel generators are merged
into one aggregate per primitive direction and the problem is restricted
to the integer span of the aggregates.  There, every vertex lies on a
facet, and the facet with outer normal s*r is a translate of the
zonotope of the generators orthogonal to r, one dimension lower; the
cells are found by recursing into the facets, down to the two
half-lines of rank 1.  The facet normals are the integer kernels of the
(k-1)-subsets of the generators.  Each cell carries an exact integer
witness direction, which doubles as the separation certificate: a facet
witness c' lifts to lam*s*r + c', with lam > |c'.e| for every
generator e, so the generators off the facet keep the facet's side.
All arithmetic is on integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Optional, Sequence

from .config import DEFAULT_CONFIG, RunConfig
from .errors import (DimensionMismatchError, InternalInconsistencyError,
                     ResourceLimitError)
from .intlinalg import IntMat, dot, lattice_kernel_basis, rank
# not called here: bound only because perfbench/spans.py wraps this name
from .ratlp import find_interior_direction  # noqa: F401


@dataclass(frozen=True)
class ZonotopeVertex:
    """A vertex, an integer direction uniquely maximized there, and the
    generator signs realizing it (zero generators get +1)."""

    vertex: tuple
    certificate: tuple
    signs: tuple


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
    """Greedy maximal linearly independent subset, in input order."""
    chosen: list = []
    for v in vectors:
        trial = chosen + [v]
        if rank(IntMat.from_rows(trial, cols=len(v))) == len(trial):
            chosen.append(v)
    return chosen


def _sgn(a: int) -> int:
    return (a > 0) - (a < 0)


def _span_cells(gens: list) -> list:
    """Cells of pairwise non-parallel nonzero generators, as (signs,
    witness) pairs.  Generators of a proper subspace are expressed
    against an integer basis of their span, and the witnesses mapped
    back.  Spanning generators keep their coordinates, and witnesses are
    divided by their gcd: both keep the witnesses, and so every later
    oracle query, on small integers."""
    basis = _independent_subset(gens)
    dim = len(gens[0])
    if len(basis) == dim:
        cells = _cells(gens)
    else:
        reduced = [tuple(dot(b, e) for b in basis) for e in gens]
        cells = [(sigma, tuple(sum(yi * b[j] for yi, b in zip(y, basis))
                               for j in range(dim)))
                 for sigma, y in _cells(reduced)]
    out = []
    for sigma, c in cells:
        g = gcd(*c)
        out.append((sigma, tuple(a // g for a in c)))
    return out


def _cells(reduced: list) -> list:
    """Cells of pairwise non-parallel generators of rank k in Z^k, each
    with a strict integer witness y (sgn(y.e) is the cell's sign on e),
    by recursion over the facets of their zonotope."""
    k = len(reduced[0])
    if k == 1:
        if len(reduced) != 1:
            raise InternalInconsistencyError(
                "non-parallel generators in a rank-1 span")
        e = reduced[0]
        return [((1,), e), ((-1,), tuple(-a for a in e))]
    normals: dict = {}
    for subset in combinations(reduced, k - 1):
        kernel = lattice_kernel_basis(IntMat.from_rows(subset, cols=k))
        if len(kernel) == 1:
            normals.setdefault(_primitive(kernel[0])[0], None)
    bound = max(abs(a) for e in reduced for a in e)
    cells: dict = {}
    for r in normals:
        rdots = [dot(r, e) for e in reduced]
        on = [i for i, v in enumerate(rdots) if v == 0]
        for facet_sigma, c in _span_cells([reduced[i] for i in on]):
            lam = 1 + sum(abs(a) for a in c) * bound
            on_sign = dict(zip(on, facet_sigma))
            for s in (1, -1):
                sigma = tuple(on_sign[i] if v == 0 else s * _sgn(v)
                              for i, v in enumerate(rdots))
                if sigma not in cells:
                    cells[sigma] = tuple(lam * s * a + b
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
    memberships = []  # per generator: (primitive, alpha) or None for zero
    for e in gens:
        p, alpha = _primitive(e)
        memberships.append((p, alpha))
        if p is not None:
            classes[p] = classes.get(p, 0) + abs(alpha)
    zero = (0,) * dim
    if not classes:
        return [ZonotopeVertex(zero, zero, (1,) * len(gens))]
    prims = sorted(classes)
    aggregates = [tuple(classes[p] * a for a in p) for p in prims]

    out = []
    for sigma, cert in _span_cells(aggregates):
        vertex = [0] * dim
        for sg, agg in zip(sigma, aggregates):
            for j, a in enumerate(agg):
                vertex[j] += sg * a
        sign_by_prim = dict(zip(prims, sigma))
        signs = tuple(1 if p is None else sign_by_prim[p] * _sgn(alpha)
                      for p, alpha in memberships)
        out.append(ZonotopeVertex(tuple(vertex), cert, signs))
    out.sort(key=lambda zv: zv.vertex)
    if len({zv.vertex for zv in out}) != len(out):
        raise InternalInconsistencyError("two cells gave the same vertex")
    return out
