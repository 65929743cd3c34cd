"""Shared helpers: random instance generators and independent oracles."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from gravopt import nfold
from gravopt.config import DEFAULT_CONFIG
from gravopt.errors import DimensionMismatchError, InternalInconsistencyError
from gravopt.graver import GraverBasis, conformal_leq
from gravopt.intlinalg import IntMat, vec_sub


# -- vector and matrix helpers only the tests use ---------------------------

def col(A: IntMat, j: int) -> tuple:
    return tuple(row[j] for row in A.data)


def vec_add(u, v) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c: int, u) -> tuple:
    return tuple(c * a for a in u)


def transpose(A: IntMat) -> IntMat:
    return IntMat(A.cols, A.rows,
                  tuple(tuple(A.data[i][j] for i in range(A.rows))
                        for j in range(A.cols)))


def vstack(A: IntMat, B: IntMat) -> IntMat:
    if A.cols != B.cols:
        raise DimensionMismatchError("vstack with differing column counts")
    return IntMat(A.rows + B.rows, A.cols, A.data + B.data)


def conformal_decompose(g, basis: GraverBasis) -> list:
    """Write g as a sum of basis elements, each conformal to g.

    Greedy in canonical order.  A nonzero remainder with no conformal
    basis element signals a wrong basis and raises.
    """
    remainder = tuple(g)
    if not any(remainder):
        raise ValueError("cannot decompose the zero vector")
    parts = []
    while any(remainder):
        for h in basis.elements:
            if conformal_leq(h, remainder):
                parts.append(h)
                remainder = vec_sub(remainder, h)
                break
        else:
            raise InternalInconsistencyError(
                f"no conformal basis element for remainder {remainder}; "
                "the basis is not complete for its matrix")
    return sorted(parts)


# -- random instances and independent oracles -------------------------------


def random_matrix(rng: random.Random, max_rows: int = 3, max_cols: int = 5,
                  lo: int = -3, hi: int = 3) -> IntMat:
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)
    return IntMat(rows, cols,
                  tuple(tuple(rng.randint(lo, hi) for _ in range(cols))
                        for _ in range(rows)))


def _hull_cycle_2d(points) -> list:
    """Strict vertices of a planar point set in cycle order, by Andrew's
    monotone chain in exact integer arithmetic (collinear points are
    dropped)."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(reversed(pts))


def hull_vertices_2d(points) -> list:
    """Strict vertices of a planar point set, sorted."""
    return sorted(_hull_cycle_2d(points))


def hull_edges_2d(points) -> list:
    """Primitive edge directions of the planar hull, first nonzero entry
    positive, sorted.  Collinear input yields its single direction; fewer
    than two distinct points yield nothing."""
    cycle = _hull_cycle_2d(points)
    if len(cycle) < 2:
        return []
    dirs = set()
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        dx, dy = b[0] - a[0], b[1] - a[1]
        g = math.gcd(dx, dy)
        if dx < 0 or (dx == 0 and dy < 0):
            g = -g
        dirs.add((dx // g, dy // g))
    return sorted(dirs)


def enumerate_nfold(stencil, rhs, layer_bounds) -> list:
    """Exhaustive n-fold fiber by per-layer enumeration: all brick
    solutions of A2 x = b_k within the layer bounds, combined across
    layers and filtered by the coupling sums A1."""
    from gravopt.bruteforce import EnumBudget, enumerate_feasible
    from gravopt.intlinalg import mat_vec

    per_layer = [enumerate_feasible(stencil.A2, bk,
                                    EnumBudget(max_points=10 ** 7,
                                               bounds=layer_bounds[k]))
                 for k, bk in enumerate(rhs.layer_rhs)]
    out = []
    for combo in itertools.product(*per_layer):
        sums = [0] * stencil.r
        for brick in combo:
            contrib = mat_vec(stencil.A1, brick)
            sums = [a + c for a, c in zip(sums, contrib)]
        if tuple(sums) == rhs.b0:
            out.append(tuple(a for brick in combo for a in brick))
    out.sort()
    return out


def lifted_basis(stencil, n) -> list:
    """The elements of the basis of nfold_matrix(stencil, n) lifted from
    the level-g basis, g the stencil's Graver complexity, for any n >= g:
    `nfold_graver` itself lifts only beyond max(g, 6) layers."""
    g = nfold.graver_complexity(stencil)
    return nfold._lift_basis(nfold.nfold_graver(stencil, g), g, n,
                             stencil.t, DEFAULT_CONFIG)


def cross3(u, v) -> tuple:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot3(u, v) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _rank_3d(vectors) -> tuple:
    """(rank, c) of integer 3-vectors, where c = u x v for the first
    nonzero u and the first v not parallel to it (None below rank 2)."""
    u = next((a for a in vectors if any(a)), None)
    if u is None:
        return 0, None
    c = next((w for w in (cross3(u, a) for a in vectors) if any(w)), None)
    if c is None:
        return 1, None
    return (3 if any(_dot3(c, a) for a in vectors) else 2), c


def _vertices_3d(pts: list) -> list:
    """Vertices of a full-rank point set in Z^3.  p is a vertex iff the
    normals (q-p)x(r-p) of the planes through p that leave every point on
    one side have rank 3: a point inside an edge, facet or the interior
    lies only on supporting planes that contain that face."""
    P = np.array(pts, dtype=np.int64)
    span = int(np.abs(P - P[0]).max()) * 2
    # |normal . difference| <= 6 * span^3 must stay inside int64
    if 6 * span ** 3 >= 2 ** 62:
        raise ValueError("coordinates too large for the int64 hull oracle")
    iu, ju = np.triu_indices(len(pts), k=1)
    out = []
    for p in pts:
        diff = P - np.array(p, dtype=np.int64)
        normals = np.cross(diff[iu], diff[ju])
        normals = normals[normals.any(axis=1)]
        sides = normals @ diff.T
        support = (sides <= 0).all(axis=1) | (sides >= 0).all(axis=1)
        rows = np.unique(normals[support], axis=0).tolist()
        if _rank_3d(rows)[0] == 3:
            out.append(p)
    return out


def hull_extreme_points(gens: list) -> list:
    """Vertices of the zonotope by exhaustive sign enumeration followed by
    an exact hull-extremality filter, for generators in Z^1..Z^3.
    Exponential in len(gens).

    The points are projected onto coordinates that are independent on
    their affine span, which keeps the vertex set: a segment keeps its
    two endpoints, a polygon goes to `hull_vertices_2d`, and a solid to
    `_vertices_3d`."""
    d = len(gens[0])
    if d > 3:
        raise ValueError("hull_extreme_points handles d <= 3")
    pts = sorted({tuple(sum(s * e[j] for s, e in zip(signs, gens))
                        for j in range(d))
                  for signs in itertools.product((1, -1), repeat=len(gens))})
    padded = [p + (0,) * (3 - d) for p in pts]
    rank, c = _rank_3d([tuple(a - b for a, b in zip(q, padded[0]))
                        for q in padded])
    if rank == 0:
        return pts
    if rank == 1:
        # a segment: any coordinate that moves along it orders it
        j = next(j for j in range(d) if pts[0][j] != pts[-1][j])
        return sorted({min(pts, key=lambda q: q[j]),
                       max(pts, key=lambda q: q[j])})
    if rank == 2:
        # c_i != 0 makes the other two coordinates independent on the plane
        i = next(i for i in range(3) if c[i])
        keep = [j for j in range(3) if j != i]
        by_image = {(q[keep[0]], q[keep[1]]): p
                    for p, q in zip(pts, padded)}
        return sorted(by_image[v] for v in hull_vertices_2d(by_image))
    return _vertices_3d(pts)
