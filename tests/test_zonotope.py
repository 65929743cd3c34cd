import hashlib
import itertools
import random
from math import comb

import pytest

from conftest import (cross3, dense_column_echelon, densify_echelon,
                      hull_extreme_points, seeded_transport)
from gravopt import zonotope
from gravopt.config import RunConfig
from gravopt.convexopt import project_directions
from gravopt.errors import DimensionMismatchError, ResourceLimitError
from gravopt.intlinalg import IntMat, dot, lattice_kernel_basis
from gravopt.nfold import nfold_graver
from gravopt.zonotope import _minors_normal, _primitive, zonotope_vertices


def _sgn(a):
    return (a > 0) - (a < 0)


def _check_case(gens, dim=None):
    verts = zonotope_vertices(gens, dim=dim)
    got = [zv.vertex for zv in verts]
    assert got == sorted(got) and len(set(got)) == len(got)
    if gens:
        assert got == hull_extreme_points(gens)
    nonzero = [e for e in gens if any(e)]
    for zv in verts:
        d = len(zv.vertex)
        # the certificate is strict on every nonzero generator, and its
        # signs reconstruct the vertex
        signs = [_sgn(dot(zv.certificate, e)) for e in nonzero]
        assert all(s in (1, -1) for s in signs)
        assert zv.vertex == tuple(
            sum(s * e[j] for s, e in zip(signs, nonzero)) for j in range(d))
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
    assert len(verts) == 1 and verts[0].vertex == (0, 0, 0)
    assert verts[0].certificate == (0, 0, 0)


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


def _general_position_3d(rng, m):
    """m integer vectors in Z^3, pairwise non-parallel and with every
    3-subset linearly independent."""
    gens = []
    while len(gens) < m:
        e = tuple(rng.randint(-9, 9) for _ in range(3))
        if any(e) and all(any(cross3(e, f)) for f in gens) and \
                all(dot(e, cross3(f, g))
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


def _transport_projection_d3(n):
    """Projected basis directions of a seeded 2x2xn transport table under
    three seeded weight arrays (seed 1010)."""
    stencil, _rhs, weights, _maxlin = seeded_transport(n, 3, 1010)
    return project_directions(nfold_graver(stencil, n).elements, weights)


def test_transport_d3_vertices_and_certificates_are_pinned():
    # every certificate becomes an oracle query, so the (vertex,
    # certificate) list is pinned byte for byte
    gens = _transport_projection_d3(8)
    assert len(gens) == 56
    pairs = [(zv.vertex, zv.certificate) for zv in zonotope_vertices(gens)]
    assert len(pairs) == 582
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == (
        "0432fb4d088a1f1987c2d4f0569496ada4f38e5d6a26fc5b7e86eb72f2988812")


def test_dimension_guard_and_mismatch():
    with pytest.raises(ResourceLimitError):
        zonotope_vertices([(1,) * 7], config=RunConfig(dim_cap=6))
    with pytest.raises(DimensionMismatchError):
        zonotope_vertices([(1, 0), (1, 0, 0)])
    with pytest.raises(DimensionMismatchError):
        zonotope_vertices([(1, 0)], dim=3)


def test_independent_subset_echelons_match_the_dense_oracle(monkeypatch):
    # the tall |gens| x dim matrices that _independent_subset reduces
    seen = []
    echelon = zonotope._column_echelon

    def recording(A):
        out = echelon(A)
        seen.append((A, out))
        return out

    monkeypatch.setattr(zonotope, "_column_echelon", recording)
    rng = random.Random(2024)
    families = [_transport_projection_d3(8)]
    for _ in range(40):
        d = rng.randint(2, 4)
        families.append([tuple(rng.randint(-2, 2) for _ in range(d))
                         for _ in range(rng.randint(1, 7))])
    for gens in families:
        zonotope_vertices(gens)
    assert len(seen) > 1000 and any(A.rows > A.cols for A, _ in seen)
    for A, out in seen:
        assert densify_echelon(A, out) == dense_column_echelon(A)


def test_minors_normal_is_the_primitive_kernel_vector():
    rng = random.Random(2025)
    ranks = set()
    for _ in range(2000):
        k = rng.randint(2, 6)
        rows = [tuple(rng.randint(-3, 3) for _ in range(k))
                for _ in range(k - 1)]
        if k > 2 and rng.random() < 0.3:
            # rank-deficient: the last row is a combination of the others
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            other = rows[1] if k > 3 else rows[0]
            rows[-1] = tuple(a * u + b * v for u, v in zip(rows[0], other))
        kernel = lattice_kernel_basis(IntMat.from_rows(rows, cols=k))
        ranks.add(len(kernel))
        normal = _minors_normal(rows)
        if len(kernel) == 1:
            assert _primitive(normal)[0] == _primitive(kernel[0])[0]
        else:
            assert not any(normal)
    assert {1, 2, 3} <= ranks
