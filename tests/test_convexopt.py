import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import enumerate_nfold
from gravopt.apps import PartitionInstance, build_partition
from gravopt.bruteforce import (EnumBudget, brute_convex_max,
                                enumerate_feasible, hull_edges_2d)
from gravopt.config import RunConfig
from gravopt.convexopt import (INFEASIBLE_OUTCOME, OPTIMAL_OUTCOME,
                               UNBOUNDED_POLYHEDRON, CallbackObjective,
                               LinearObjective, MaxLinearObjective,
                               NegatedObjective, ObjectiveWeights,
                               SquaredNormObjective, convex_maximize,
                               lift_normal, project_directions,
                               solve_convex_nfold)
from gravopt.graver import graver_basis
from gravopt.intlinalg import IntMat, dot, rank
from gravopt.ipsolve import solve_ip
from gravopt.nfold import NFoldRhs, NFoldStencil, nfold_graver

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
    neg = NegatedObjective(LinearObjective((1, 1)))
    assert neg.strictly_better((0, 0), (1, 1))
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


def test_thread_count_does_not_change_output():
    st2 = NFoldStencil(SEGMENT, IntMat(0, 2, ()))
    rhs = NFoldRhs.make((5,), [()])
    weights = ObjectiveWeights.make([(1, 0), (1, 2)])
    outs = [solve_convex_nfold(st2, 1, weights, rhs, SquaredNormObjective(),
                               RunConfig(threads=k)) for k in (1, 2, 4)]
    assert outs[0].x == outs[1].x == outs[2].x
    assert outs[0].z == outs[1].z == outs[2].z


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


def test_weights_validation():
    with pytest.raises(Exception):
        ObjectiveWeights.make([])
    with pytest.raises(Exception):
        ObjectiveWeights.make([(1, 0), (1,)])
