"""Convex integer maximization via linear-IP oracle calls.

The driver projects the edge-direction set onto the objective space,
enumerates the vertices of the resulting zonotope, and asks the linear
oracle once per vertex, for the lifted objective h = c^T W of the vertex
certificate c.  A convex comparison picks the winner among the projected
optima.  Every reply is checked: c.z, with z = W.x read from the point x
it returns, must equal the value h.x it reports.  Replies often share
their point, so z is projected once per distinct point.

A Graver basis is projected once per solve into the table P = G.W^T
(`GraverBasis.project`): one `np.add.reduceat` over the basis's int64
view (`GraverBasis.int64_view`) when max|W| * max|g|_1 < 2^62, which
caps every partial sum, and over its exact view otherwise; a plain list
of directions is projected exactly.  The zonotope generators D are the
distinct nonzero rows of P.

`solve_convex(A, b, W, c)` runs the pipeline on any A, with one Graver
basis for phase I, for the directions and for the oracle: graver_basis(A)
unless the caller passes one, as `solve_convex_nfold` passes the n-fold
basis.  It asks its vertex queries in chunks and never forms h: for a
chunk of certificates C the scores h.g = c.(W.g) are the rows of C.P^T,
and the start values are h.x0 = c.z0, z0 = W.x0 projected once per
solve.  The certificates c of a chunk with |c|_1 * max|P| < 2^62 are
batched in int64, and the others, if any, in a second batch on Python
ints, so one large certificate does not send its whole chunk there.
`ipsolve.augment_batch` steps a batch at once over shared states and
reports each value as its start value plus the gains of its steps, so
the check tests the kernel that answered.  A chunk holds max(8,
CHUNK_ENTRIES // |G|) queries, so its score array, and the kernel's copy
of it, stay near CHUNK_ENTRIES entries: one chunk or a few for the
queries of a 2x2x32 solve.  The replies are compared in vertex order by
the loop of `convex_maximize`, which lifts h exactly (`lift_normal`) for
its caller's oracle; a chunk's replies after an unbounded one are
computed but never counted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import DimensionMismatchError, InternalInconsistencyError
from .graver import INT64_BOUND, GraverBasis
from .intlinalg import IntMat, dot
from .ipsolve import (INFEASIBLE, UNBOUNDED, _check_objective, augment_batch,
                      augment_to_optimum, find_feasible)
from .nfold import NFoldRhs, NFoldStencil, nfold_graver
from .zonotope import zonotope_vertices

OPTIMAL_OUTCOME = "optimal"
INFEASIBLE_OUTCOME = "infeasible"
UNBOUNDED_POLYHEDRON = "unbounded-polyhedron"

# score entries per chunk of batched vertex queries (module docstring)
CHUNK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class ObjectiveWeights:
    """The d linear forms w_1..w_d, all of the same length."""

    rows: tuple  # tuple of IntVec

    @classmethod
    def make(cls, rows: Sequence[Sequence[int]]) -> "ObjectiveWeights":
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        if not rows:
            raise ValueError("at least one objective row required")
        if len({len(r) for r in rows}) != 1:
            raise DimensionMismatchError("objective rows of differing lengths")
        return cls(rows)

    @property
    def d(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def project(self, x: Sequence[int]) -> tuple:
        return tuple(dot(w, x) for w in self.rows)


class ConvexObjective:
    """Comparison oracle for a convex function on Z^d.  Built-ins carry an
    exact integer evaluator; custom callables only need the order."""

    def compare_leq(self, y: Sequence[int], z: Sequence[int]) -> bool:
        raise NotImplementedError

    def strictly_better(self, y: Sequence[int], z: Sequence[int]) -> bool:
        """True iff c(y) > c(z)."""
        return not self.compare_leq(y, z)


class _EvaluatedObjective(ConvexObjective):
    def evaluate(self, z: Sequence[int]) -> int:
        raise NotImplementedError

    def compare_leq(self, y, z):
        return self.evaluate(y) <= self.evaluate(z)


@dataclass(frozen=True)
class LinearObjective(_EvaluatedObjective):
    coeffs: tuple

    def evaluate(self, z):
        return dot(self.coeffs, z)


class SquaredNormObjective(_EvaluatedObjective):
    def evaluate(self, z):
        return sum(a * a for a in z)


@dataclass(frozen=True)
class MaxLinearObjective(_EvaluatedObjective):
    """Pointwise maximum of finitely many linear forms; convex."""

    rows: tuple

    def evaluate(self, z):
        return max(dot(row, z) for row in self.rows)


@dataclass(frozen=True)
class CallbackObjective(ConvexObjective):
    leq: Callable

    def compare_leq(self, y, z):
        return self.leq(y, z)


@dataclass
class SearchStats:
    """Per-run counters, mainly for the oracle-identity audit."""

    oracle_queries: int = 0
    identity_checks: int = 0
    vertices: int = 0


@dataclass(frozen=True)
class ConvexOutcome:
    status: str
    x: Optional[tuple] = None
    z: Optional[tuple] = None
    stats: Optional[SearchStats] = None

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL_OUTCOME


def project_directions(directions: GraverBasis | np.ndarray
                       | Sequence[Sequence[int]],
                       weights: ObjectiveWeights) -> list:
    """Projections (w_1.e, .., w_d.e), zero vectors and duplicates
    removed, sorted for determinism.  `directions` is a sequence of
    vectors, a GraverBasis, which is projected by its `project`, or such
    a projection table, whose rows are already projected."""
    if isinstance(directions, GraverBasis):
        directions = directions.project(weights.rows)
    if isinstance(directions, np.ndarray):
        P = directions
        return sorted(set(map(tuple, P[P.any(axis=1)].tolist())))
    seen = set()
    for e in directions:
        p = weights.project(e)
        if any(p):
            seen.add(p)
    return sorted(seen)


def lift_normal(g: Sequence[int], weights: ObjectiveWeights) -> tuple:
    """The linear form h with h.x == g.(w_1 x, .., w_d x) for every x, on
    Python ints."""
    if len(g) != weights.d:
        raise DimensionMismatchError("certificate length != objective count")
    return tuple(map(functools.partial(dot, g), zip(*weights.rows)))


def convex_maximize(lip: Callable, weights: ObjectiveWeights,
                    directions: GraverBasis | Sequence[Sequence[int]],
                    objective: ConvexObjective,
                    config: RunConfig = DEFAULT_CONFIG) -> ConvexOutcome:
    """Reduce the convex program to one linear oracle call per zonotope
    vertex.

    `lip` maps a linear objective vector h to a SolveOutcome whose value
    is h.x, which the identity check reads.  `directions`
    must cover all edge-directions of the feasible hull (the n-fold entry
    point supplies a Graver basis).  The vertices are queried one at a
    time, in enumeration order, and each reply is checked and compared
    before the next query.  An unbounded reply stops the search at that
    vertex: the polyhedron is unbounded and oracle-presented convex
    functions are hopeless there.
    """
    def replies(verts):
        for vert in verts:
            yield lip(lift_normal(vert.certificate, weights))

    return _search(lip, weights, directions, objective, config, replies)


def _search(lip: Callable, weights: ObjectiveWeights, directions,
            objective: ConvexObjective, config: RunConfig,
            replies: Callable) -> ConvexOutcome:
    """The probe, the zonotope and the comparison loop of
    `convex_maximize`; replies(verts) yields the oracle's reply to each
    vertex's lifted certificate h, in order, and is read only as far as
    the loop gets."""
    stats = SearchStats()
    probe_status = lip((0,) * weights.n).status
    stats.oracle_queries += 1
    if probe_status == INFEASIBLE:
        return ConvexOutcome(INFEASIBLE_OUTCOME, stats=stats)
    D = project_directions(directions, weights)
    verts = zonotope_vertices(D, dim=weights.d, config=config)
    stats.vertices = len(verts)

    best = None  # (z, x)
    projected: dict = {}  # x -> W.x
    for vert, reply in zip(verts, replies(verts)):
        stats.oracle_queries += 1
        if reply.status == UNBOUNDED:
            return ConvexOutcome(UNBOUNDED_POLYHEDRON, stats=stats)
        if reply.status == INFEASIBLE:
            raise InternalInconsistencyError(
                "oracle reported infeasible after a feasible probe")
        x = reply.x
        z = projected.get(x)
        if z is None:
            z = projected[x] = weights.project(x)
        if dot(vert.certificate, z) != reply.value:
            raise InternalInconsistencyError(
                "projection identity cert.z != reply value failed")
        stats.identity_checks += 1
        if best is None:
            best = (z, x)
            continue
        if objective.strictly_better(z, best[0]):
            best = (z, x)
        elif objective.compare_leq(best[0], z) and (z, x) < best:
            # c-equal candidates: smallest (z, x) lexicographically wins
            best = (z, x)
    if best is None:
        raise InternalInconsistencyError("no zonotope vertices enumerated")
    return ConvexOutcome(OPTIMAL_OUTCOME, x=best[1], z=best[0], stats=stats)


def _batched_replies(x0: tuple, basis: GraverBasis,
                     weights: ObjectiveWeights, P: np.ndarray, verts: list):
    """augment_to_optimum(x0, basis, h) for each vertex, h its lifted
    certificate, a chunk at a time, without forming h (module docstring)."""
    z0 = weights.project(x0)
    top = max(int(np.abs(P).max(initial=0)), 1)
    rows = max(8, CHUNK_ENTRIES // max(len(P), 1))
    for start in range(0, len(verts), rows):
        certs = [v.certificate for v in verts[start:start + rows]]
        small = [sum(map(abs, c)) * top < INT64_BOUND for c in certs]
        replies = [None] * len(certs)
        for dtype, fits in ((np.int64, True), (object, False)):
            part = [i for i, s in enumerate(small) if s is fits]
            if not part:
                continue
            C = np.array([certs[i] for i in part], dtype=dtype)
            wg = C @ P.astype(dtype, copy=False).T
            outs = augment_batch(x0, basis, wg,
                                 [dot(certs[i], z0) for i in part])
            for i, out in zip(part, outs):
                replies[i] = out
        yield from replies


def solve_convex(A: IntMat, b: Sequence[int], weights: ObjectiveWeights,
                 objective: ConvexObjective,
                 config: RunConfig = DEFAULT_CONFIG,
                 basis: Optional[GraverBasis] = None) -> ConvexOutcome:
    """Full pipeline (module docstring): phase I, then the zonotope driver
    with the basis as directions and batched augmentation as oracle."""
    _check_objective(weights.rows[0], A.cols)
    feas, basis = find_feasible(A, b, basis, config)
    if feas.status == INFEASIBLE:
        return ConvexOutcome(INFEASIBLE_OUTCOME)
    x0, P = feas.x, basis.project(weights.rows)
    return _search(functools.partial(augment_to_optimum, x0, basis), weights,
                   P, objective, config,
                   functools.partial(_batched_replies, x0, basis, weights, P))


def solve_convex_nfold(stencil: NFoldStencil, n: int,
                       weights: ObjectiveWeights, b: NFoldRhs,
                       objective: ConvexObjective,
                       config: RunConfig = DEFAULT_CONFIG) -> ConvexOutcome:
    """`solve_convex` on the n-fold matrix with its n-fold basis."""
    _check_objective(weights.rows[0], n * stencil.t)
    b.check_shape(stencil, n)
    basis = nfold_graver(stencil, n, config)
    return solve_convex(basis.source, b.concat(), weights, objective, config,
                        basis)
