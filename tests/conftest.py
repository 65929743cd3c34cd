"""Shared helpers: random instance generators and independent oracles."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from gravopt import graver, intlinalg, nfold
from gravopt.apps import build_threeway
from gravopt.bruteforce import EnumBudget, enumerate_feasible
from gravopt.config import DEFAULT_CONFIG
from gravopt.convexopt import MaxLinearObjective
from gravopt.errors import DimensionMismatchError, InternalInconsistencyError
from gravopt.graver import INT64_BOUND, GraverBasis, Int64View, conformal_leq
from gravopt.intlinalg import (IntMat, _column_echelon, dot, format_matrix,
                               lattice_kernel_basis, mat_vec, vec_sub)
from gravopt.ipsolve import SolveOutcome
from gravopt.nfold import NFoldRhs, NFoldStencil
from gravopt.zonotope import ZonotopeVertex

# the 2x2 line-sum stencil: A1 = I_4, A2 = row and column sums of a layer
TRANSPORT_2x2 = NFoldStencil(
    IntMat.identity(4),
    IntMat(4, 4, ((1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0), (0, 1, 0, 1))))

# the stencils of criterion 4 (the lift equals direct completion)
STABILIZATION_STENCILS = (
    NFoldStencil(IntMat(1, 2, ((1, 0),)), IntMat(1, 2, ((1, -1),))),
    NFoldStencil(IntMat(1, 2, ((1, 1),)), IntMat(1, 2, ((1, -1),))),
    NFoldStencil(IntMat(1, 2, ((1, 2),)), IntMat(1, 2, ((1, 1),))),
    NFoldStencil(IntMat(2, 2, ((1, 0), (0, 1))), IntMat(1, 2, ((1, -2),))),
    TRANSPORT_2x2,
)

# Graver complexity 3, with level-3 elements of one and two nonzero
# bricks: at n = 7, 1008 placements give 476 distinct elements
SPARSE_LEVEL_3 = NFoldStencil(IntMat(1, 3, ((1, 1, 1),)),
                              IntMat(1, 3, ((1, 0, -1),)))


@pytest.fixture
def fresh_caches():
    """The per-process caches of per-matrix products (completed and lifted
    bases, complexities, echelon forms), emptied before and after the
    test: its bases are built afresh, and what it builds on them (say,
    `elements`) does not reach a later test."""
    caches = (nfold._cached_graver, nfold.graver_complexity,
              nfold._lift_basis, intlinalg._echelon)
    for cache in caches:
        cache.cache_clear()
    yield caches
    for cache in caches:
        cache.cache_clear()


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


def dense_column_echelon(A: IntMat):
    """Column echelon form on dense column lists: the oracle for
    `intlinalg._column_echelon`, which does the same column operations on
    sparse columns.  Returns (E, U, pivots) with E = A·U and U as lists
    of column lists."""
    m, n = A.rows, A.cols
    cols = [[A.data[i][j] for i in range(m)] for j in range(n)]
    U = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    pivots = []
    p = 0
    for r in range(m):
        if p >= n:
            break
        # gcd-eliminate row r across the active columns p..n-1
        while True:
            nz = [j for j in range(p, n) if cols[j][r] != 0]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: abs(cols[j][r]))
            piv = cols[j0][r]
            for j in nz:
                if j == j0:
                    continue
                q = cols[j][r] // piv
                if q:
                    cj, cj0 = cols[j], cols[j0]
                    for i in range(r, m):
                        cj[i] -= q * cj0[i]
                    uj, uj0 = U[j], U[j0]
                    for i in range(n):
                        uj[i] -= q * uj0[i]
        nz = [j for j in range(p, n) if cols[j][r] != 0]
        if nz:
            j = nz[0]
            if j != p:
                cols[p], cols[j] = cols[j], cols[p]
                U[p], U[j] = U[j], U[p]
            if cols[p][r] < 0:
                cols[p] = [-v for v in cols[p]]
                U[p] = [-v for v in U[p]]
            pivots.append((r, p))
            p += 1
    return cols, U, pivots


def densify_echelon(A: IntMat, echelon) -> tuple:
    """(E, U, pivots) of `intlinalg._column_echelon` with its sparse
    columns written out as the dense column lists of the oracle."""
    E, U, pivots = echelon
    return ([[c.get(i, 0) for i in range(A.rows)] for c in E],
            [[c.get(i, 0) for i in range(A.cols)] for c in U], pivots)


def basis_supports(basis: GraverBasis) -> tuple:
    """Per element, the (index, value) pairs of its nonzero entries."""
    return tuple(tuple((j, a) for j, a in enumerate(g) if a)
                 for g in basis.elements)


def _best_steps(x: list, supports, reads, score):
    """The greedy loop of both exact oracles below, over the list x.
    score(i) reads x only at the indices of the pairs `reads[i]`; for each
    yielded (i, score) the caller moves x along `supports[i]`."""
    scores = [score(i) for i in range(len(supports))]
    readers: list = [[] for _ in x]
    for i, pairs in enumerate(reads):
        for j, _ in pairs:
            readers[j].append(i)
    while True:
        best = max(range(len(scores)), key=scores.__getitem__, default=None)
        if best is None or scores[best] <= 0:
            return
        yield best, scores[best]
        for i in {i for j, _ in supports[best] for i in readers[j]}:
            scores[i] = score(i)


def augment_exact(x0, basis: GraverBasis, w) -> SolveOutcome:
    """Phase II on Python ints, one element at a time: the oracle for
    `ipsolve.augment_to_optimum` and `ipsolve.augment_batch`.  The value
    of an optimal outcome is w.x, computed from the point."""
    scores = [sum(w[j] * a for j, a in supp) for supp in basis_supports(basis)]
    out = augment_scores_exact(x0, basis, scores, dot(w, x0))
    return SolveOutcome.optimal(out.x, dot(w, out.x)) if out.is_optimal \
        else out


def augment_scores_exact(x0, basis: GraverBasis, scores,
                         value) -> SolveOutcome:
    """`augment_exact` from what the phase-II kernel
    (`ipsolve._augment_rows`) is given of an objective w: the values w.g
    of the basis elements in canonical order and the start value w.x0.
    The value of an optimal outcome is the start value plus the gain of
    every step."""
    x = list(x0)
    supps, wgs, negs = [], [], []
    for g, supp, wg in zip(basis.elements, basis_supports(basis), scores):
        if wg <= 0:
            continue
        neg = [(j, -a) for j, a in supp if a < 0]
        if not neg:
            return SolveOutcome.unbounded(g)
        supps.append(supp)
        wgs.append(wg)
        negs.append(neg)

    def step_gain(i):
        # lam*(w.g) at the largest lam >= 0 with x + lam*g >= 0
        lam = None
        for j, m in negs[i]:
            cap = x[j] // m
            if lam is None or cap < lam:
                lam = cap
                if lam == 0:
                    break
        return lam * wgs[i]

    for i, gain in _best_steps(x, supps, negs, step_gain):
        lam = gain // wgs[i]
        for j, a in supps[i]:
            x[j] += lam * a
        if min(x) < 0:
            raise InternalInconsistencyError(
                "augmentation left the nonnegative orthant")
        value += gain
    return SolveOutcome.optimal(tuple(x), value)


def best_negpart_step(x, supp):
    """Best integer lam >= 1 for the penalty sum_j min(x_j, 0) along the
    sparse element supp.

    The gain is concave piecewise linear in lam with kinks where a
    coordinate crosses zero, so it suffices to test lam=1 and the integer
    neighbors of every kink.  Returns (lam, gain) with gain maximal and
    lam smallest among maximizers, or (0, 0) when nothing improves.
    """
    # only a positive entry at a negative coordinate can gain
    if not any(a > 0 and x[j] < 0 for j, a in supp):
        return 0, 0
    candidates = {1}
    for j, a in supp:
        q, rem = divmod(-x[j], a)
        if q >= 1:
            candidates.add(q)
        if rem and q + 1 >= 1:
            candidates.add(q + 1)
    best_lam, best_gain = 0, 0
    for lam in sorted(candidates):
        gain = sum(min(x[j] + lam * a, 0) - min(x[j], 0) for j, a in supp)
        if gain > best_gain:
            best_lam, best_gain = lam, gain
    return best_lam, best_gain


def drive_exact(x0, basis: GraverBasis) -> tuple:
    """Phase I on Python ints, one element at a time: the oracle for
    `ipsolve.drive_nonnegative`."""
    x = list(x0)
    supps = basis_supports(basis)
    lams = [0] * len(supps)

    def score(i):
        lams[i], gain = best_negpart_step(x, supps[i])
        return gain

    for i, _ in _best_steps(x, supps, supps, score):
        for j, a in supps[i]:
            x[j] += lams[i] * a
    return tuple(x)


def supports_int64_view(supports: tuple, n: int, exact: bool = False):
    """The view built in Python from a basis's supports
    (`basis_supports`): the oracle for `GraverBasis.int64_view` and
    `exact_view`, which `graver._view` builds with numpy from the basis's
    nonzero entries.  With `exact` the values are Python
    ints and unbounded."""
    if not supports:
        return None
    max_l1 = max(sum(abs(a) for _, a in s) for s in supports)
    if max_l1 >= INT64_BOUND and not exact:
        return None
    values = object if exact else np.int64
    negs = [[(j, -a) for j, a in s if a < 0] for s in supports]

    def index(lists):
        by_col: list = [[] for _ in range(n)]
        for i, pairs in enumerate(lists):
            for j, _ in pairs:
                by_col[j].append(i)
        return (np.cumsum([0] + [len(r) for r in by_col], dtype=np.int64),
                np.array([i for r in by_col for i in r], dtype=np.int64))

    def padded(lists, pad):
        """Each list padded to the longest with pad(list)."""
        k = max(1, max(map(len, lists)))
        rows = [(list(pairs) + [pad(pairs)] * k)[:k] for pairs in lists]
        return (np.array([[j for j, _ in r] for r in rows], dtype=np.int64),
                np.array([[a for _, a in r] for r in rows], dtype=values))

    # supports pad with the sentinel (n, 1); negative entries repeat their
    # first one, and (0, 1) stands in for an element with none
    supp_cols, supp_vals = padded(supports, lambda pairs: (n, 1))
    neg_cols, neg_mags = padded(negs, lambda pairs: (pairs or [(0, 1)])[0])
    meet_starts, meets = index(supports)
    reader_starts, readers = index(negs)
    return Int64View(
        cols=np.array([j for s in supports for j, _ in s], dtype=np.int64),
        vals=np.array([a for s in supports for _, a in s], dtype=values),
        starts=np.cumsum([0] + [len(s) for s in supports], dtype=np.int64),
        supp_cols=supp_cols, supp_vals=supp_vals,
        meet_starts=meet_starts, meets=meets,
        neg_cols=neg_cols.T.copy(), neg_mags=neg_mags.T.copy(),
        reader_starts=reader_starts, readers=readers,
        nonneg=np.array([i for i, neg in enumerate(negs) if not neg],
                        dtype=np.int64),
        max_l1=max_l1)


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


def dense_basis(elements, source: IntMat) -> GraverBasis:
    """The basis of the given dense vectors (canonical order) of source,
    each placed as one brick at layer 0, as `graver_basis` places them."""
    return GraverBasis(tuple(((v,), (0,)) for v in elements), source.cols,
                       source)


def brute_force_graver(A: IntMat, box: int) -> GraverBasis:
    """Oracle for `graver_basis`: enumerate kernel points in
    [-box, box]^n, filter to the conformally minimal ones.  Correct
    whenever every true basis element fits in the box.

    The kernel points are the y - box*1 with A y = A (box, .., box) and
    y in [0, 2*box]^n, so `enumerate_feasible` and its default budget do
    the enumeration.
    """
    if box <= 0:
        raise ValueError("box must be positive")
    n = A.cols
    ys = enumerate_feasible(A, mat_vec(A, (box,) * n),
                            EnumBudget(bounds=(2 * box,) * n))
    pts = [x for x in (tuple(v - box for v in y) for y in ys) if any(x)]
    return dense_basis(sorted(graver._minimal_filter(pts)), A)


def reference_normal_forms(A: IntMat) -> list:
    """Every vector the completion of A reduces to normal form, in order,
    by the queued loop `graver_basis` ran before its pairs were streamed:
    the seeds, then the pair sums, the pairs kept in a list and read from
    a head index."""
    seen = []

    def reduce(v, basis):
        seen.append(v)
        return graver._normal_form(v, basis)

    basis: list = []
    for k in lattice_kernel_basis(A):
        for s in (k, tuple(-a for a in k)):
            r = reduce(s, basis)
            if any(r):
                basis.append(r)
    pairs = [(i, j) for i in range(len(basis)) for j in range(i, len(basis))]
    head = 0
    while head < len(pairs):
        i, j = pairs[head]
        head += 1
        s = tuple(a + b for a, b in zip(basis[i], basis[j]))
        if not any(s):
            continue
        r = reduce(s, basis)
        if not any(r):
            continue
        for new in (r, tuple(-a for a in r)):
            idx = len(basis)
            basis.append(new)
            pairs.extend((k, idx) for k in range(idx + 1))
    return seen


def enumerate_nfold(stencil, rhs, layer_bounds) -> list:
    """Exhaustive n-fold fiber by per-layer enumeration: all brick
    solutions of A2 x = b_k within the layer bounds, combined across
    layers and filtered by the coupling sums A1."""
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


def seeded_transport(n, d, seed):
    """A seeded 2x2xn line-sum table: (stencil, rhs, weights, maxlin),
    with d weight arrays in [-2, 2] and a random max-of-linear objective
    on Z^d."""
    rng = random.Random(seed)
    tab = [[[rng.randint(0, 3) for _ in range(n)] for _ in range(2)]
           for _ in range(2)]
    u = [[sum(tab[i][j]) for j in range(2)] for i in range(2)]
    v = [[tab[i][0][k] + tab[i][1][k] for k in range(n)] for i in range(2)]
    z = [[tab[0][j][k] + tab[1][j][k] for k in range(n)] for j in range(2)]
    stencil, rhs, codec = build_threeway(2, 2, n, u, v, z)
    arrays = [[[[rng.randint(-2, 2) for _ in range(n)] for _ in range(2)]
               for _ in range(2)] for _ in range(d)]
    maxlin = MaxLinearObjective(tuple(
        tuple(rng.randint(-2, 2) for _ in range(d))
        for _ in range(rng.randint(1, 3))))
    return stencil, rhs, codec.encode_weights(arrays), maxlin


def format_stencil(stencil: NFoldStencil) -> str:
    """The stencil text `cli.parse_stencil` reads."""
    return "{} {} {}\n{}{}".format(stencil.r, stencil.s, stencil.t,
                                   format_matrix(stencil.A1),
                                   format_matrix(stencil.A2))


def format_rhs(rhs: NFoldRhs) -> str:
    """The rhs text `cli.parse_rhs` reads."""
    s = len(rhs.layer_rhs[0]) if rhs.layer_rhs else 0
    lines = ["{} {} {}".format(len(rhs.b0), s, rhs.n)]
    if rhs.b0:
        lines.append(" ".join(str(v) for v in rhs.b0))
    lines.extend(" ".join(str(v) for v in layer)
                 for layer in rhs.layer_rhs if layer)
    return "\n".join(lines) + "\n"


def lifted_basis(stencil, n):
    """The package's lift (`nfold._lift_basis`) of the basis of
    nfold_matrix(stencil, n) from the level-g basis, g the stencil's
    Graver complexity, for any n >= g: `nfold_graver` itself lifts only
    beyond max(g, 6) layers."""
    g = nfold.graver_complexity(stencil)
    return nfold._lift_basis(stencil, g, n, DEFAULT_CONFIG.basis_cap)


def dense_lift(stencil, n) -> tuple:
    """The oracle for `lifted_basis`: every nonzero-brick sequence of a
    level-g element placed into every increasing choice of n layers as a
    dense n*t tuple, then deduplicated and sorted; also the number of
    placements before deduplication."""
    g, t = nfold.graver_complexity(stencil), stencil.t
    lifted, placements = set(), 0
    zero = (0,) * t
    for elem in nfold.nfold_graver(stencil, g).elements:
        bricks = [b for b in nfold.split_layers(elem, g, t) if any(b)]
        for positions in itertools.combinations(range(n), len(bricks)):
            layers = [zero] * n
            for pos, brick in zip(positions, bricks):
                layers[pos] = brick
            lifted.add(tuple(v for layer in layers for v in layer))
            placements += 1
    return sorted(lifted), placements


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


# -- the recursive zonotope enumeration: the oracle for gravopt.zonotope -----

def primitive_direction(e):
    """Canonical primitive direction p (first nonzero entry positive) and
    the integer alpha with e = alpha * p.  Returns (None, 0) for zero."""
    g = 0
    for a in e:
        g = math.gcd(g, abs(a))
    if g == 0:
        return None, 0
    p = tuple(a // g for a in e)
    if next(a for a in p if a) < 0:
        return tuple(-a for a in p), -g
    return p, g


def _minors_normal_exact(rows) -> tuple:
    """The signed maximal minors of k-1 vectors in Z^k, by Laplace
    expansion along the rows on Python ints: entry j is (-1)^j times the
    determinant without column j."""
    k = len(rows[0])
    dets = {(): 1}
    for size, row in enumerate(reversed(rows), 1):
        expanded = {}
        for S in itertools.combinations(range(k), size):
            total, sign = 0, 1
            for t, c in enumerate(S):
                total += sign * row[c] * dets[S[:t] + S[t + 1:]]
                sign = -sign
            expanded[S] = total
        dets = expanded
    return tuple(-m if j & 1 else m
                 for j, m in enumerate(reversed(dets.values())))


def _reference_span_cells(gens: list, vecs: list) -> list:
    """(vertex, witness) cells of pairwise non-parallel nonzero generators,
    one `_column_echelon` per call: generators of a proper subspace are
    taken in Gram coordinates against the greedy independent subset, and
    witnesses are mapped back and divided by their gcd."""
    A = IntMat(len(gens), len(gens[0]), tuple(gens))
    basis = [gens[r] for r, _ in _column_echelon(A)[2]]
    dim = len(gens[0])
    if len(basis) == dim:
        cells = _reference_cells(gens, vecs)
    else:
        reduced = [tuple(dot(b, e) for b in basis) for e in gens]
        cells = [(v, tuple(sum(yi * b[j] for yi, b in zip(y, basis))
                           for j in range(dim)))
                 for v, y in _reference_cells(reduced, vecs)]
    out = []
    for v, c in cells:
        g = math.gcd(*c)
        out.append((v, tuple(a // g for a in c)))
    return out


def _reference_cells(reduced: list, vecs: list) -> list:
    """Cells of generators of rank k in Z^k by recursion over the facets
    of their zonotope, one facet normal at a time, the first cell per
    vertex kept."""
    k = len(reduced[0])
    if k == 1:
        if len(reduced) != 1:
            raise InternalInconsistencyError(
                "non-parallel generators in a rank-1 span")
        e, v = reduced[0], vecs[0]
        return [(v, e), (tuple(-a for a in v), tuple(-a for a in e))]
    normals: dict = {}
    for subset in itertools.combinations(reduced, k - 1):
        r = primitive_direction(_minors_normal_exact(subset))[0]
        if r is not None:
            normals.setdefault(r, None)
    bound = max(abs(a) for e in reduced for a in e)
    dim = len(vecs[0])
    cells: dict = {}
    for r in normals:
        sides = [(d > 0) - (d < 0) for d in (dot(r, e) for e in reduced)]
        on = [i for i, side in enumerate(sides) if side == 0]
        off = [sum(side * v[j] for side, v in zip(sides, vecs))
               for j in range(dim)]
        for facet_vertex, c in _reference_span_cells(
                [reduced[i] for i in on], [vecs[i] for i in on]):
            lam = 1 + sum(abs(a) for a in c) * bound
            for s in (1, -1):
                vertex = tuple(s * a + b for a, b in zip(off, facet_vertex))
                if vertex not in cells:
                    cells[vertex] = tuple(lam * s * a + b
                                          for a, b in zip(r, c))
    return list(cells.items())


def reference_zonotope_vertices(generators, dim=None) -> list:
    """`zonotope.zonotope_vertices` by the recursion on Python ints, one
    facet at a time: the oracle its vertices, certificates and order must
    equal byte for byte."""
    gens = [tuple(int(a) for a in e) for e in generators]
    dim = len(gens[0]) if gens else dim
    classes: dict = {}
    for e in gens:
        p, alpha = primitive_direction(e)
        if p is not None:
            classes[p] = classes.get(p, 0) + abs(alpha)
    if not classes:
        return [ZonotopeVertex((0,) * dim, (0,) * dim)]
    aggregates = [tuple(classes[p] * a for a in p) for p in sorted(classes)]
    return [ZonotopeVertex(v, c)
            for v, c in sorted(_reference_span_cells(aggregates, aggregates))]
