import hashlib
import itertools
import random
import sys
from math import comb

import pytest

from conftest import (cross3, dense_column_echelon, densify_echelon,
                      hull_extreme_points, primitive_direction,
                      reference_zonotope_vertices, seeded_transport)
from gravopt import intlinalg, zonotope
from gravopt.apps import PartitionInstance, build_partition
from gravopt.config import RunConfig
from gravopt.convexopt import project_directions
from gravopt.errors import DimensionMismatchError, ResourceLimitError
from gravopt.intlinalg import IntMat, dot, lattice_kernel_basis
from gravopt.nfold import nfold_graver
from gravopt.zonotope import _minors_normal, zonotope_vertices


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
    # the tall |gens| x dim matrices whose span basis the top level takes
    seen = []
    echelon = zonotope._column_echelon

    def recording(A):
        out = echelon(A)
        seen.append((A, out))
        return out

    monkeypatch.setattr(zonotope, "_column_echelon", recording)
    rng = random.Random(2024)
    matrices = [_transport_projection_d3(8)]
    for _ in range(1200):
        d = rng.randint(2, 6)
        rows = [tuple(rng.randint(-3, 3) for _ in range(d))
                for _ in range(rng.randint(d + 1, d + 6))]
        if rng.random() < 0.4:
            # rank-deficient: one row a combination of two others
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[-1] = tuple(a * u + b * v for u, v in zip(rows[0], rows[1]))
        matrices.append(rows)
    # per-instance matrices stay out of the cache of echelon forms
    cached = intlinalg._echelon.cache_info()
    for rows in matrices:
        assert zonotope._independent_subset(rows) == [
            r for r, _ in dense_column_echelon(
                IntMat(len(rows), len(rows[0]), tuple(rows)))[2]]
    assert zonotope_vertices(matrices[0])
    assert intlinalg._echelon.cache_info() == cached
    assert len(seen) > 1000 and all(A.rows > A.cols for A, _ in seen)
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
            assert primitive_direction(tuple(normal.tolist()))[0] == \
                primitive_direction(kernel[0])[0]
        else:
            assert not any(normal)
    assert {1, 2, 3} <= ranks


def _random_low_rank(rng, d, rank):
    """Generators in Z^d spanning a rank-`rank` lattice, with zero,
    parallel and antiparallel ones mixed in."""
    basis = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rank)]
    gens = [tuple(sum(rng.randint(-2, 2) * b[j] for b in basis)
                  for j in range(d)) for _ in range(rng.randint(1, 7))]
    for _ in range(rng.randint(0, 3)):
        e, alpha = rng.choice(gens), rng.choice((-3, -2, -1, 2, 3))
        gens.append(tuple(alpha * a for a in e))
    if rng.random() < 0.5:
        gens.insert(rng.randrange(len(gens) + 1), (0,) * d)
    return gens


def _partition_projection(m):
    """Projected basis directions of a seeded balanced 2-clustering of m
    items in Z^3: rank 3 in Z^6."""
    rng = random.Random(f"cluster/{m}")
    items = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(m)]
    inst = PartitionInstance.make(2, items, sizes=(m // 2, m - m // 2))
    stencil, _rhs, weights, _codec = build_partition(inst)
    return project_directions(nfold_graver(stencil, m), weights)


def _families(name):
    if name == "random":
        rng = random.Random(2026)
        return [_random_low_rank(rng, d, rank) for d in range(2, 7)
                for rank in range(1, min(d, 3) + 1) for _ in range(5)]
    if name == "rank-4-to-6":
        # facets of rank 3 and 4 find their span basis by echelon
        rng = random.Random(2027)
        return [_random_low_rank(rng, d, rank) for d in (4, 5, 6)
                for rank in range(4, d + 1) for _ in range(3)]
    if name == "partition":
        return [_partition_projection(m) for m in range(4, 9)]
    if name == "transport-d2":
        return [project_directions(nfold_graver(st, n), w)
                for n in (8, 16, 32, 64)
                for st, _rhs, w, _ml in [seeded_transport(n, 2, 1010 + n)]]
    return [_transport_projection_d3(n) for n in (8, 16)]


@pytest.mark.parametrize("name", ["random", "rank-4-to-6", "partition",
                                  "transport-d2", "transport-d3"])
def test_vertices_and_certificates_equal_the_reference(name):
    # every certificate becomes an oracle query, so the array enumeration
    # must return the recursion's list byte for byte
    for gens in _families(name):
        got = [(zv.vertex, zv.certificate) for zv in zonotope_vertices(gens)]
        want = [(zv.vertex, zv.certificate)
                for zv in reference_zonotope_vertices(gens)]
        assert repr(got) == repr(want)


def test_int64_guards_switch_to_python_ints_at_their_exact_bound(monkeypatch):
    # each product runs in int64 below its bound 2^62 and on Python ints
    # from there on, by the same code, and the outputs never differ
    calls = []
    ints = zonotope._ints

    def recording(bound, *arrays):
        out = ints(bound, *arrays)
        caller = sys._getframe(1)
        calls.append(((caller.f_code.co_name, caller.f_lineno), len(arrays),
                      bound, out[0].dtype == object))
        return out

    monkeypatch.setattr(zonotope, "_ints", recording)
    B = 2 ** 62
    families = [
        [(2 ** 61, 0), (0, 2 ** 61 - 1)],     # vertex sums at 2^62 - 1
        [(2 ** 61, 0), (0, 2 ** 61)],         # ... and at 2^62
        [(B - 1, 0), (0, 1)],                 # minors and sides at 2^62 - 1
        [(B, 0), (0, 1)],                     # ... and at 2^62
        [(2 ** 61 - 2, 0), (0, 1)],           # witnesses at 2^62 - 2
        [(2 ** 61 - 1, 0), (0, 1)],           # ... and at 2^62
        [(1, 1, 0), (1, -1, 0), (2, 0, 0)],   # Gram coordinates in int64
        [(2 ** 31, 1, 0, 0, 0, 0), (0, 2 ** 31, 1, 0, 0, 0),
         (1, 0, 2 ** 31, 0, 0, 0)],           # ... and on Python ints
        [(2 ** 61, 1, 0), (0, 2 ** 62, 1), (3, 0, 2 ** 63), (1, 1, 1)],
        [(2 ** 62 + 1, -3), (5, 2 ** 61), (-(2 ** 63), 7), (1, 1)],
    ]
    for gens in families:
        got = [(zv.vertex, zv.certificate) for zv in zonotope_vertices(gens)]
        want = [(zv.vertex, zv.certificate)
                for zv in reference_zonotope_vertices(gens)]
        assert repr(got) == repr(want)
    sites: dict = {}
    for site, _n, bound, exact in calls:
        assert exact == (bound >= B)
        sites.setdefault(site, set()).add(exact)
    assert len(sites) == 6 and all(v == {False, True} for v in sites.values())
    sums = {(b, e) for (name, _), _n, b, e in calls
            if name == "zonotope_vertices"}
    sides = {(b, e) for (name, _), n, b, e in calls
             if name == "_cells" and n == 2}
    assert {(B - 1, False), (B, True)} <= sums & sides
