"""Shared helpers: random instance generators and independent oracles."""

from __future__ import annotations

import itertools
import math
import random

from gravopt.errors import DimensionMismatchError, InternalInconsistencyError
from gravopt.graver import GraverBasis, conformal_leq
from gravopt.intlinalg import IntMat, dot, vec_sub
from gravopt.ratlp import find_interior_direction


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


def is_extreme(p: tuple, pts: list, d: int) -> bool:
    """Exact extremality of p among pts, by cutting planes: grow a small
    set of difference constraints until a strictly separating direction
    survives every point or the constraint LP goes infeasible."""
    others = [q for q in pts if q != p]
    if not others:
        return True
    S = others[:2]
    while True:
        rows = [tuple(a - b for a, b in zip(p, q)) for q in S]
        g = find_interior_direction(rows, d)
        if g is None:
            return False
        gp = dot(g, p)
        viol = next((q for q in others if dot(g, q) >= gp), None)
        if viol is None:
            return True
        S.append(viol)


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


def hull_extreme_points(gens: list) -> list:
    """Vertices of the zonotope by exhaustive sign enumeration followed by
    an exact hull-extremality filter.  Exponential in len(gens)."""
    d = len(gens[0])
    pts = sorted({tuple(sum(s * e[j] for s, e in zip(signs, gens))
                        for j in range(d))
                  for signs in itertools.product((1, -1), repeat=len(gens))})
    return [p for p in pts if is_extreme(p, pts, d)]
