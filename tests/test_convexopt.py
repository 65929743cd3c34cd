import hashlib
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (enumerate_nfold, hull_edges_2d, random_matrix,
                      seeded_transport)
from gravopt import convexopt, intlinalg, ipsolve
from gravopt.apps import PartitionInstance, build_partition, build_threeway
from gravopt.bruteforce import EnumBudget, brute_convex_max, enumerate_feasible
from gravopt.convexopt import (INFEASIBLE_OUTCOME, OPTIMAL_OUTCOME,
                               UNBOUNDED_POLYHEDRON, CallbackObjective,
                               LinearObjective, MaxLinearObjective,
                               ObjectiveWeights,
                               SquaredNormObjective, convex_maximize,
                               lift_normal, project_directions,
                               solve_convex, solve_convex_nfold)
from gravopt.errors import InternalInconsistencyError
from gravopt.graver import INT64_BOUND, graver_basis
from gravopt.intlinalg import IntMat, dot, mat_vec, rank
from gravopt.ipsolve import UNBOUNDED, SolveOutcome, solve_ip
from gravopt.nfold import NFoldRhs, NFoldStencil, nfold_graver, nfold_matrix
from gravopt.zonotope import zonotope_vertices

SEGMENT = IntMat(1, 2, ((1, 1),))  # x1 + x2 = b, the 4-point example
W_AXES = ObjectiveWeights.make([(1, 0), (0, 1)])


def _segment_lip(b):
    def lip(w):
        return solve_ip(SEGMENT, (b,), w)
    return lip


def test_reference_example_norm2():
    basis = graver_basis(SEGMENT)
    out = convex_maximize(_segment_lip(3), W_AXES, basis.elements,
                          SquaredNormObjective())
    assert out.status == OPTIMAL_OUTCOME
    assert out.z in {(3, 0), (0, 3)}
    assert sum(a * a for a in out.z) == 9
    assert out.stats.identity_checks == out.stats.vertices == 2


def test_tie_break_is_lexicographic():
    basis = graver_basis(SEGMENT)
    out = convex_maximize(_segment_lip(3), W_AXES, basis.elements,
                          SquaredNormObjective())
    # (0,3) and (3,0) are c-equal; the smaller z wins
    assert out.z == (0, 3) and out.x == (0, 3)


def test_infeasible_probe_short_circuits():
    out = convex_maximize(_segment_lip(-1), W_AXES,
                          graver_basis(SEGMENT).elements,
                          SquaredNormObjective())
    assert out.status == INFEASIBLE_OUTCOME


def test_unbounded_reply_aborts():
    A = IntMat(1, 2, ((1, -1),))
    basis = graver_basis(A)

    def lip(w):
        return solve_ip(A, (0,), w)

    out = convex_maximize(lip, W_AXES, basis.elements,
                          SquaredNormObjective())
    assert out.status == UNBOUNDED_POLYHEDRON


class _RecordingLip:
    """The segment oracle, counting its calls and holding only weak
    references to the replies it returns."""

    def __init__(self, b, unbounded_from=None):
        self.inner = _segment_lip(b)
        self.unbounded_from = unbounded_from
        self.calls = 0
        self.replies = []
        self.most_alive = 0

    def __call__(self, w):
        alive = sum(ref() is not None for ref in self.replies)
        self.most_alive = max(self.most_alive, alive)
        self.calls += 1
        reply = self.inner(w)
        if self.unbounded_from is not None and \
                self.calls > self.unbounded_from:
            reply = SolveOutcome(UNBOUNDED, certificate=(1, 1))
        self.replies.append(weakref.ref(reply))
        return reply


# surplus directions are harmless, and these make a hexagon: six queries
HEXAGON = [(1, -1), (1, 0), (0, 1)]


def test_vertex_queries_hold_one_reply_at_a_time():
    lip = _RecordingLip(4)
    out = convex_maximize(lip, W_AXES, HEXAGON, SquaredNormObjective())
    assert out.is_optimal and out.z == (0, 4)
    assert lip.calls == out.stats.oracle_queries == 7
    assert out.stats.vertices == 6
    assert lip.most_alive <= 1


def test_the_identity_check_reads_the_value_a_user_oracle_reports():
    lip = _segment_lip(4)

    def off_by_one(w):
        reply = lip(w)
        if not reply.is_optimal:
            return reply
        return SolveOutcome.optimal(reply.x, reply.value + 1)

    with pytest.raises(InternalInconsistencyError):
        convex_maximize(off_by_one, W_AXES, HEXAGON, SquaredNormObjective())


def test_the_identity_check_tests_the_batched_oracle(monkeypatch):
    # one more on every positive score: each step's gain overstates
    # lam*(w.g) by lam, so the value the kernel reports misses c.(W.x)
    kernel = ipsolve._augment_rows

    def skewed(x0, basis, view, wg, values):
        return kernel(x0, basis, view, wg + (wg > 0), values)

    monkeypatch.setattr(ipsolve, "_augment_rows", skewed)
    stencil, rhs, weights, _maxlin = seeded_transport(16, 2, 4018)
    with pytest.raises(InternalInconsistencyError):
        solve_convex_nfold(stencil, 16, weights, rhs, SquaredNormObjective())


def test_each_replied_point_is_projected_once(monkeypatch):
    replies = []
    batch = convexopt.augment_batch

    def spy(*args):
        out = batch(*args)
        replies.extend(out)
        return out

    projected = []
    project = ObjectiveWeights.project

    def count(self, x):
        projected.append(tuple(x))
        return project(self, x)

    monkeypatch.setattr(convexopt, "augment_batch", spy)
    monkeypatch.setattr(ObjectiveWeights, "project", count)
    stencil, rhs, weights, _maxlin = seeded_transport(8, 3, 4031)
    out = solve_convex_nfold(stencil, 8, weights, rhs, SquaredNormObjective())
    assert len(replies) == out.stats.identity_checks > 400
    points = {reply.x for reply in replies}
    # z0 once, then each distinct replied point once
    assert len(projected) == 1 + len(points) < len(replies) // 4
    assert set(projected[1:]) == points


def test_no_query_follows_an_unbounded_reply():
    # the probe and the first vertex query answer normally
    lip = _RecordingLip(4, unbounded_from=2)
    out = convex_maximize(lip, W_AXES, HEXAGON, SquaredNormObjective())
    assert out.status == UNBOUNDED_POLYHEDRON
    assert lip.calls == out.stats.oracle_queries == 3
    assert out.stats.vertices == 6


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=2, max_size=2).map(tuple),
       st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=2, max_size=2))
def test_lift_normal_identity(g, wrows):
    weights = ObjectiveWeights.make(wrows)
    h = lift_normal(g, weights)
    rng = random.Random(0)
    for _ in range(5):
        x = tuple(rng.randint(-5, 5) for _ in range(3))
        assert dot(h, x) == dot(g, weights.project(x))


def test_project_directions_dedupes_and_drops_zero():
    weights = ObjectiveWeights.make([(1, 0, 0), (0, 1, 0)])
    dirs = [(1, -1, 0), (-1, 1, 0), (0, 0, 1), (2, -2, 0)]
    D = project_directions(dirs, weights)
    assert D == [(-1, 1), (1, -1), (2, -2)]


def test_objective_zoo():
    assert LinearObjective((2, -1)).evaluate((3, 1)) == 5
    assert SquaredNormObjective().evaluate((3, -4)) == 25
    assert MaxLinearObjective(((1, 0), (0, 1))).evaluate((2, 7)) == 7
    cb = CallbackObjective(lambda y, z: sum(y) <= sum(z))
    assert cb.compare_leq((1, 0), (2, 0))
    assert cb.strictly_better((3, 0), (1, 0))


def test_extreme_point_coverage_d2():
    # every hull vertex of the projected feasible set shows up among the
    # collected z_v of the zonotope vertices
    basis = graver_basis(SEGMENT)
    weights = ObjectiveWeights.make([(2, 1), (1, 3)])
    pts = enumerate_feasible(SEGMENT, (4,), EnumBudget(bounds=(4, 4)))
    proj = sorted({weights.project(p) for p in pts})
    edges = hull_edges_2d(proj)
    D = project_directions(basis.elements, weights)
    # each hull edge direction is covered (up to sign/scaling)
    for e in edges:
        assert any(e[0] * f[1] == e[1] * f[0] for f in D), (e, D)


def test_scaling_invariance_of_argmax():
    st2 = NFoldStencil(SEGMENT, IntMat(0, 2, ()))
    rhs = NFoldRhs.make((3,), [()])
    base = solve_convex_nfold(st2, 1, W_AXES, rhs, SquaredNormObjective())
    scaled_w = ObjectiveWeights.make([(3, 0), (0, 3)])
    scaled = solve_convex_nfold(st2, 1, scaled_w, rhs, SquaredNormObjective())
    assert scaled.z == tuple(3 * a for a in base.z)
    assert scaled.x == base.x


def test_nfold_entrypoint_matches_bruteforce():
    st2 = NFoldStencil(SEGMENT, IntMat(0, 2, ()))
    rhs = NFoldRhs.make((3,), [()])
    out = solve_convex_nfold(st2, 1, W_AXES, rhs, SquaredNormObjective())
    pts = enumerate_feasible(SEGMENT, (3,), EnumBudget(bounds=(3, 3)))
    bx, bz = brute_convex_max(pts, W_AXES, SquaredNormObjective())
    assert out.z == bz and out.x == bx


def test_rank3_clustering_matches_bruteforce():
    # balanced 2-clusterings of items in Z^3: the projected directions
    # span rank 3, so the zonotope stage recurses over 2-D facets
    rng = random.Random(3003)
    for m in (4, 6, 8):
        for _ in range(2):
            items = [tuple(rng.randint(-2, 2) for _ in range(3))
                     for _ in range(m)]
            inst = PartitionInstance.make(2, items, sizes=(m // 2, m // 2))
            stencil, rhs, weights, _codec = build_partition(inst)
            directions = project_directions(
                nfold_graver(stencil, m).elements, weights)
            assert rank(IntMat.from_rows(directions)) == 3
            pts = enumerate_nfold(stencil, rhs, [(1, 1)] * m)
            maxlin = MaxLinearObjective(tuple(
                tuple(rng.randint(-2, 2) for _ in range(weights.d))
                for _ in range(rng.randint(1, 3))))
            for objective in (SquaredNormObjective(), maxlin):
                out = solve_convex_nfold(stencil, m, weights, rhs, objective)
                assert out.status == OPTIMAL_OUTCOME
                assert out.x in pts and weights.project(out.x) == out.z
                _bx, bz = brute_convex_max(pts, weights, objective)
                assert objective.compare_leq(bz, out.z)
                assert objective.compare_leq(out.z, bz)


def test_d3_transport_matches_bruteforce():
    # three weight arrays on 2x2xn tables: from n = 4 the projected
    # directions span rank 3, so the zonotope stage recurses over facets
    rng = random.Random(3033)
    top_rank = 0
    for n in (1, 2, 3, 4, 4, 4, 4, 4):
        tab = [[[rng.randint(0, 3) for _ in range(n)] for _ in range(2)]
               for _ in range(2)]
        u = [[sum(tab[i][j]) for j in range(2)] for i in range(2)]
        v = [[tab[i][0][k] + tab[i][1][k] for k in range(n)]
             for i in range(2)]
        z = [[tab[0][j][k] + tab[1][j][k] for k in range(n)]
             for j in range(2)]
        stencil, rhs, codec = build_threeway(2, 2, n, u, v, z)
        arrays = [[[[rng.randint(-2, 2) for _ in range(n)] for _ in range(2)]
                   for _ in range(2)] for _ in range(3)]
        weights = codec.encode_weights(arrays)
        directions = project_directions(
            nfold_graver(stencil, n).elements, weights)
        if directions:
            top_rank = max(top_rank, rank(IntMat.from_rows(directions)))
        bounds = [tuple(min(u[i][j], v[i][k], z[j][k])
                        for i in range(2) for j in range(2))
                  for k in range(n)]
        pts = enumerate_nfold(stencil, rhs, bounds)
        maxlin = MaxLinearObjective(tuple(
            tuple(rng.randint(-2, 2) for _ in range(3))
            for _ in range(rng.randint(1, 3))))
        for objective in (SquaredNormObjective(), maxlin):
            out = solve_convex_nfold(stencil, n, weights, rhs, objective)
            assert out.status == OPTIMAL_OUTCOME
            assert out.x in pts and weights.project(out.x) == out.z
            _bx, bz = brute_convex_max(pts, weights, objective)
            assert objective.compare_leq(bz, out.z)
            assert objective.compare_leq(out.z, bz)
    assert top_rank == 3


def _plain_instance(rng, bounded):
    """A random small A, with an all-positive last row when bounded; b from
    a random point three times in four, else drawn at random; d = 1..3
    weight rows in [-2, 2]."""
    A = random_matrix(rng, max_rows=2, max_cols=4)
    if bounded:
        top = tuple(rng.randint(1, 2) for _ in range(A.cols))
        A = IntMat(A.rows + 1, A.cols, A.data + (top,))
    if rng.random() < 0.75:
        b = mat_vec(A, tuple(rng.randint(0, 2) for _ in range(A.cols)))
    else:
        b = tuple(rng.randint(-3, 3) for _ in range(A.rows))
    weights = ObjectiveWeights.make(
        [tuple(rng.randint(-2, 2) for _ in range(A.cols))
         for _ in range(rng.randint(1, 3))])
    return A, b, weights


def test_solve_convex_on_plain_matrices_matches_bruteforce():
    rng = random.Random(1021)
    seen = {OPTIMAL_OUTCOME: 0, INFEASIBLE_OUTCOME: 0, UNBOUNDED_POLYHEDRON: 0}
    for i in range(120):
        bounded = i % 3 != 2
        A, b, weights = _plain_instance(rng, bounded)
        if bounded:  # the positive row bounds every x_j
            box = tuple(max(b[-1] // a, 0) for a in A.data[-1])
        else:
            box = (4,) * A.cols
        pts = enumerate_feasible(A, b, EnumBudget(bounds=box))
        # nonnegative kernel rays that W sees, in a box of 16^4 points
        rays = [g for g in enumerate_feasible(
                    A, (0,) * A.rows, EnumBudget(bounds=(15,) * A.cols))
                if any(weights.project(g))]
        maxlin = MaxLinearObjective(tuple(
            tuple(rng.randint(-2, 2) for _ in range(weights.d))
            for _ in range(rng.randint(1, 3))))
        for objective in (SquaredNormObjective(), maxlin):
            out = solve_convex(A, b, weights, objective)
            seen[out.status] += 1
            if out.status == INFEASIBLE_OUTCOME:
                assert not pts
                continue
            # a feasible system is unbounded exactly when W sees a ray
            assert (out.status == UNBOUNDED_POLYHEDRON) == bool(rays)
            if rays:
                assert not bounded
                continue
            assert mat_vec(A, out.x) == b and min(out.x) >= 0
            assert weights.project(out.x) == out.z
            _bx, bz = brute_convex_max(pts, weights, objective)
            # no point of the box beats the optimum; when bounded, the
            # box holds every point, so the optimum is attained in it
            assert objective.compare_leq(bz, out.z)
            assert not bounded or objective.compare_leq(out.z, bz)
    assert min(seen.values()) >= 10, seen


def test_plain_path_builds_the_basis_only_after_a_lattice_point(
        monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("built a basis for a lattice-infeasible system")

    monkeypatch.setattr(ipsolve, "graver_basis", build)
    # 2x + 4y = 3 has no integer solution
    out = solve_convex(IntMat(1, 2, ((2, 4),)), (3,), W_AXES,
                       SquaredNormObjective())
    assert out.status == INFEASIBLE_OUTCOME


def test_a_plain_solve_computes_one_echelon_form(monkeypatch, fresh_caches):
    # phase I's lattice point and the basis's kernel lattice read one
    # echelon form of A
    seen = []
    echelon = intlinalg._column_echelon

    def recording(M):
        seen.append(M)
        return echelon(M)

    monkeypatch.setattr(intlinalg, "_column_echelon", recording)
    A = IntMat(2, 4, ((1, 1, 1, 1), (1, -1, 2, 0)))
    weights = ObjectiveWeights.make([(1, 0, 0, 0), (0, 1, 0, 0)])
    out = solve_convex(A, (4, 2), weights, SquaredNormObjective())
    assert out.status == OPTIMAL_OUTCOME and mat_vec(A, out.x) == (4, 2)
    assert seen == [A]


def test_the_nfold_wrapper_adds_nothing():
    # up to n = 6 nfold_graver completes the n-fold matrix itself, so the
    # plain path with no basis solves the same system with the same basis
    for n, d in ((2, 1), (3, 2), (4, 2), (5, 3), (6, 2)):
        stencil, rhs, weights, maxlin = seeded_transport(n, d, 5000 + n)
        A = nfold_matrix(stencil, n)
        for objective in (SquaredNormObjective(), maxlin):
            out = solve_convex_nfold(stencil, n, weights, rhs, objective)
            assert out == solve_convex(A, rhs.concat(), weights, objective)
            assert out == solve_convex(A, rhs.concat(), weights, objective,
                                       basis=nfold_graver(stencil, n))


def test_a_given_basis_is_the_one_built():
    rng = random.Random(1023)
    for i in range(30):
        A, b, weights = _plain_instance(rng, bounded=i % 2 == 0)
        for objective in (SquaredNormObjective(), LinearObjective(
                (1,) * weights.d)):
            assert solve_convex(A, b, weights, objective) == solve_convex(
                A, b, weights, objective, basis=graver_basis(A))


def test_weights_validation():
    with pytest.raises(Exception):
        ObjectiveWeights.make([])
    with pytest.raises(Exception):
        ObjectiveWeights.make([(1, 0), (1,)])


def test_transport_outputs_are_pinned():
    # the returned x depends on the lattice point, phase I and the order
    # of the vertex queries, so (status, x, z, stats) is pinned byte for
    # byte on seeded transport instances
    outs = []
    for n, d in ((8, 2), (12, 2), (16, 2), (8, 3)):
        stencil, rhs, weights, maxlin = seeded_transport(n, d, 4000 + n + d)
        for objective in (SquaredNormObjective(), maxlin):
            out = solve_convex_nfold(stencil, n, weights, rhs, objective)
            outs.append((out.status, out.x, out.z, out.stats))
    assert hashlib.sha256(repr(outs).encode()).hexdigest() == (
        "2e58b66936032279cef725a1eeebcd5644d43b1bd379df4b21a9e25d055007e3")


def test_clustering_and_larger_transport_outputs_are_pinned():
    # beside the pin above: balanced 2-clustering at m = 4..8 (rank-3
    # zonotope), 2x2x32 at d = 2 and 2x2x16 at d = 3, whose vertex queries
    # fill several rows of one batch each
    outs = []
    cases = []
    for m in range(4, 9):
        rng = random.Random(4100 + m)
        items = [tuple(rng.randint(-2, 2) for _ in range(3))
                 for _ in range(m)]
        inst = PartitionInstance.make(2, items, (m // 2, m - m // 2))
        stencil, rhs, weights, _codec = build_partition(inst)
        maxlin = MaxLinearObjective(tuple(
            tuple(rng.randint(-2, 2) for _ in range(weights.d))
            for _ in range(2)))
        cases.append((stencil, m, weights, rhs, maxlin))
    for n, d in ((32, 2), (16, 3)):
        stencil, rhs, weights, maxlin = seeded_transport(n, d, 4200 + n + d)
        cases.append((stencil, n, weights, rhs, maxlin))
    for stencil, n, weights, rhs, maxlin in cases:
        for objective in (SquaredNormObjective(), maxlin):
            out = solve_convex_nfold(stencil, n, weights, rhs, objective)
            outs.append((out.status, out.x, out.z, out.stats))
    assert hashlib.sha256(repr(outs).encode()).hexdigest() == (
        "ef7a6a1ebb79f54be07073fb792087111f1361333e064c6cc076647a0b3a1edb")


def _exact_projection(elements, weights):
    return sorted({p for p in (tuple(dot(w, e) for w in weights.rows)
                               for e in elements) if any(p)})


def _exact_lift(c, weights):
    return tuple(sum(ci * w[j] for ci, w in zip(c, weights.rows))
                 for j in range(weights.n))


def test_projection_runs_in_int64_and_the_lift_is_exact_on_transport():
    stencil, _rhs, weights, _maxlin = seeded_transport(8, 3, 4011)
    basis = nfold_graver(stencil, 8)
    D = project_directions(basis, weights)
    assert len(D) == 56
    assert D == project_directions(list(basis.elements), weights)
    assert D == _exact_projection(basis.elements, weights)
    assert basis.project(weights.rows).dtype == np.int64
    for vert in zonotope_vertices(D, dim=3):
        c = vert.certificate
        assert lift_normal(c, weights) == _exact_lift(c, weights)


def test_projection_guard_sends_large_weights_to_the_exact_path():
    basis = graver_basis(IntMat(1, 2, ((1, 1),)))  # max |g|_1 = 2
    for top, int64 in ((INT64_BOUND // 2 - 1, True),
                       (INT64_BOUND // 2, False), (2 ** 70, False)):
        weights = ObjectiveWeights.make([(top, 3), (-5, top - 7)])
        D = _exact_projection(basis.elements, weights)
        assert project_directions(basis, weights) == D
        assert project_directions(list(basis.elements), weights) == D
        P = basis.project(weights.rows)
        assert P.dtype == (np.int64 if int64 else object)
        assert all(type(a) is int for a in P.tolist()[0])
    big = ObjectiveWeights.make([(2 ** 61 + 1, 3, -(2 ** 61 - 5)),
                                 (1, 2 ** 61, 7)])
    basis = graver_basis(IntMat(1, 3, ((1, 2, 1),)))  # max |g|_1 = 3
    D = _exact_projection(basis.elements, big)
    assert basis.project(big.rows).dtype == object
    assert project_directions(basis, big) == D


def test_the_lift_is_exact_on_huge_certificates():
    unit = ObjectiveWeights.make([(1, 0, -1), (0, 1, 1)])
    for c in ((INT64_BOUND - 2, -1), (INT64_BOUND - 1, -1), (2 ** 70, -3)):
        assert lift_normal(c, unit) == _exact_lift(c, unit)
    weights = ObjectiveWeights.make([(1, 2, 3), (4, -5, 6)])
    c = (2 ** 62, 1)
    assert lift_normal(c, weights) == _exact_lift(c, weights)
    assert lift_normal((2 ** 70, 5), ObjectiveWeights.make(
        [(0, 0), (0, 0)])) == (0, 0)
