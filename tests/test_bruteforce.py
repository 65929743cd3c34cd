import pytest

from conftest import hull_edges_2d
from gravopt.bruteforce import EnumBudget, brute_convex_max, enumerate_feasible
from gravopt.convexopt import (LinearObjective, ObjectiveWeights,
                               SquaredNormObjective)
from gravopt.errors import ResourceLimitError
from gravopt.intlinalg import IntMat


def test_segment_enumeration():
    A = IntMat(1, 2, ((1, 1),))
    pts = enumerate_feasible(A, (3,), EnumBudget(bounds=(3, 3)))
    assert pts == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert enumerate_feasible(A, (-1,)) == []
    # a zero-column system has one point, the empty one, when b = 0
    empty = IntMat(1, 0, ((),))
    assert enumerate_feasible(empty, (0,)) == [()]
    assert enumerate_feasible(empty, (1,)) == []


def test_default_bound_covers_margin_systems():
    A = IntMat(1, 2, ((1, 1),))
    assert len(enumerate_feasible(A, (3,))) == 4


def test_transport_unit_margins_yield_permutation_matrices():
    A = IntMat(4, 4, ((1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0), (0, 1, 0, 1)))
    pts = enumerate_feasible(A, (1, 1, 1, 1))
    assert pts == [(0, 1, 1, 0), (1, 0, 0, 1)]


def test_budget_guard():
    A = IntMat(1, 8, ((1,) * 8,))
    with pytest.raises(ResourceLimitError):
        enumerate_feasible(A, (9,), EnumBudget(max_points=100))


def test_python_int_path_handles_huge_entries():
    big = 2 ** 62
    A = IntMat(1, 2, ((big, -big),))
    pts = enumerate_feasible(A, (0,), EnumBudget(bounds=(2, 2)))
    assert pts == [(0, 0), (1, 1), (2, 2)]
    # a right-hand side past int64 takes the same path
    A = IntMat(1, 2, ((1, 1),))
    assert enumerate_feasible(A, (2 ** 63,), EnumBudget(bounds=(2, 2))) == []
    assert enumerate_feasible(A, (-(2 ** 70),),
                              EnumBudget(bounds=(1, 1))) == []


def test_brute_convex_max_examples():
    W = ObjectiveWeights.make([(1, 0), (0, 1)])
    pts = [(0, 3), (1, 2), (2, 1), (3, 0)]
    x, z = brute_convex_max(pts, W, SquaredNormObjective())
    assert z in {(0, 3), (3, 0)} and sum(a * a for a in z) == 9
    assert (x, z) == ((0, 3), (0, 3))  # tie-break: smallest (z, x)
    x, z = brute_convex_max([(2, 1)], W, SquaredNormObjective())
    assert (x, z) == ((2, 1), (2, 1))
    W1 = ObjectiveWeights.make([(2, 1)])
    x, z = brute_convex_max(pts, W1, LinearObjective((1,)))
    assert z == (6,) and x == (3, 0)
    with pytest.raises(ValueError):
        brute_convex_max([], W, SquaredNormObjective())


def test_hull_edges_examples():
    assert hull_edges_2d([(0, 0), (1, 0), (0, 1), (1, 1)]) == [(0, 1), (1, 0)]
    assert hull_edges_2d([(0, 0), (1, 1), (2, 2)]) == [(1, 1)]
    assert hull_edges_2d([(5, 5)]) == []
    # projected 4-point segment: one direction
    assert hull_edges_2d([(0, 3), (1, 2), (2, 1), (3, 0)]) == [(1, -1)]


def test_determinism():
    A = IntMat(2, 3, ((1, 1, 0), (0, 1, 1)))
    a = enumerate_feasible(A, (2, 2))
    b = enumerate_feasible(A, (2, 2))
    assert a == b == sorted(a)
