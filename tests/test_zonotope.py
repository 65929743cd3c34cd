import itertools
import random
from math import comb

import pytest

from conftest import hull_extreme_points
from gravopt.config import RunConfig
from gravopt.errors import DimensionMismatchError, ResourceLimitError
from gravopt.intlinalg import dot
from gravopt.ratlp import find_interior_direction
from gravopt.zonotope import zonotope_vertices


def _check_case(gens, dim=None):
    verts = zonotope_vertices(gens, dim=dim)
    got = [zv.vertex for zv in verts]
    assert got == sorted(got) and len(set(got)) == len(got)
    if gens:
        assert got == hull_extreme_points(gens)
    for zv in verts:
        d = len(zv.vertex)
        # signs reconstruct the vertex
        assert zv.vertex == tuple(
            sum(s * e[j] for s, e in zip(zv.signs, gens)) for j in range(d))
        assert all(s in (1, -1) for s in zv.signs)
        # certificate strictly separates
        for other in verts:
            if other.vertex != zv.vertex:
                assert dot(zv.certificate, zv.vertex) > \
                    dot(zv.certificate, other.vertex)
    return verts


def test_square_and_hexagon():
    assert [z.vertex for z in _check_case([(1, 0), (0, 1)])] == \
        [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    assert len(_check_case([(1, 0), (0, 1), (1, 1)])) == 6


def test_degenerate_generators():
    _check_case([(0, 0), (2, 0), (1, 0)])       # zero + parallel, rank 1
    _check_case([(1, 1), (-2, -2), (0, 0)])     # antiparallel aggregate
    _check_case([(1, 2, 0), (0, 1, 1), (1, 0, 0), (2, 4, 0)])
    verts = zonotope_vertices([], dim=2)
    assert len(verts) == 1 and verts[0].vertex == (0, 0)
    verts = zonotope_vertices([(0, 0, 0)])
    assert len(verts) == 1 and verts[0].signs == (1,)


def test_three_dimensional_cube():
    verts = _check_case([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert len(verts) == 8


def test_lower_dimensional_zonotope_in_high_space():
    # generators spanning only a plane inside Z^3
    _check_case([(1, 1, 0), (1, -1, 0), (2, 0, 0)])


def test_random_against_sign_enumeration():
    rng = random.Random(21)
    for _ in range(25):
        d = rng.choice([2, 3])
        k = rng.randint(1, 6)
        gens = [tuple(rng.randint(-2, 2) for _ in range(d))
                for _ in range(k)]
        _check_case(gens)


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _general_position_3d(rng, m):
    """m integer vectors in Z^3, pairwise non-parallel and with every
    3-subset linearly independent."""
    gens = []
    while len(gens) < m:
        e = tuple(rng.randint(-9, 9) for _ in range(3))
        if any(e) and all(any(_cross(e, f)) for f in gens) and \
                all(dot(e, _cross(f, g))
                    for f, g in itertools.combinations(gens, 2)):
            gens.append(e)
    return gens


@pytest.mark.parametrize("m", [20, 40])
def test_general_position_d3(m):
    gens = _general_position_3d(random.Random(3000 + m), m)
    verts = zonotope_vertices(gens)
    assert len(verts) == 2 * sum(comb(m - 1, i) for i in range(3))
    points = [zv.vertex for zv in verts]
    for own, zv in enumerate(verts):
        c0, c1, c2 = zv.certificate
        vals = [c0 * a + c1 * b + c2 * c for a, b, c in points]
        best = max(vals)
        assert vals[own] == best and vals.count(best) == 1


def test_dimension_guard_and_mismatch():
    with pytest.raises(ResourceLimitError):
        zonotope_vertices([(1,) * 7], config=RunConfig(dim_cap=6))
    with pytest.raises(DimensionMismatchError):
        zonotope_vertices([(1, 0), (1, 0, 0)])
    with pytest.raises(DimensionMismatchError):
        zonotope_vertices([(1, 0)], dim=3)


def test_find_interior_direction_soundness():
    rng = random.Random(31)
    for _ in range(150):
        d = rng.randint(1, 4)
        m = rng.randint(1, 6)
        rows = [tuple(rng.randint(-3, 3) for _ in range(d))
                for _ in range(m)]
        y = find_interior_direction(rows, d)
        if y is not None:
            assert all(dot(r, y) >= 1 for r in rows)
        else:
            # completeness at desk scale: no witness in a small box either
            for cand in itertools.product(range(-4, 5), repeat=d):
                assert not all(dot(r, cand) >= 1 for r in rows)


def test_find_interior_direction_exact_on_thin_cones():
    # nearly opposite constraints still admit an exact integer witness
    rows = [(1, 1000), (1, -999)]
    y = find_interior_direction(rows, 2)
    assert y is not None and all(dot(r, y) >= 1 for r in rows)
    assert find_interior_direction([(1, 0), (-1, 0)], 2) is None
