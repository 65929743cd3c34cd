import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravopt.apps import (MultiwayInstance, PackingInstance,
                          PartitionInstance, build_multiway, build_packing,
                          build_partition, build_threeway, cluster_variance)
from gravopt.errors import DimensionMismatchError, InfeasibleInstanceError
from gravopt.intlinalg import mat_vec
from gravopt.nfold import nfold_matrix


def _random_table(rng, p, q, n, hi=3):
    return [[[rng.randint(0, hi) for _ in range(n)] for _ in range(q)]
            for _ in range(p)]


def _margins(tab, p, q, n):
    u = [[sum(tab[i][j]) for j in range(q)] for i in range(p)]
    v = [[sum(tab[i][j][k] for j in range(q)) for k in range(n)]
         for i in range(p)]
    z = [[sum(tab[i][j][k] for i in range(p)) for k in range(n)]
         for j in range(q)]
    return u, v, z


def test_two_way_margin_matrix():
    # the per-layer rows of a 2 x 2 x n table: row sums, then column sums
    stencil, _, _ = build_threeway(2, 2, 1, [[0, 0], [0, 0]], [[0], [0]],
                                   [[0], [0]])
    M = stencil.A2
    assert M.data == ((1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0), (0, 1, 0, 1))
    # negative margins are not rejected here: the solver finds them
    # infeasible
    _, rhs, _ = build_threeway(1, 1, 1, [[-1]], [[-1]], [[-1]])
    assert rhs.b0 == (-1,) and rhs.layer_rhs == ((-1, -1),)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 10 ** 6))
def test_threeway_encoding_and_roundtrip(p, q, n, seed):
    rng = random.Random(seed)
    tab = _random_table(rng, p, q, n)
    u, v, z = _margins(tab, p, q, n)
    stencil, rhs, codec = build_threeway(p, q, n, u, v, z)
    x = codec.encode(tab)
    assert mat_vec(nfold_matrix(stencil, n), x) == rhs.concat()
    assert codec.decode(x) == tab


def test_threeway_shape_validation():
    with pytest.raises(DimensionMismatchError):
        build_threeway(2, 2, 1, [[1, 1]], [[1], [1]], [[1], [1]])


def test_multiway_reproduces_threeway():
    rng = random.Random(5)
    p, q, n = 2, 2, 2
    tab = _random_table(rng, p, q, n)
    u, v, z = _margins(tab, p, q, n)
    margins = {}
    for i in range(p):
        for j in range(q):
            margins[(i, j, None)] = u[i][j]
    for i in range(p):
        for k in range(n):
            margins[(i, None, k)] = v[i][k]
    for j in range(q):
        for k in range(n):
            margins[(None, j, k)] = z[j][k]
    inst = MultiwayInstance.make((p, q), n, [{0, 1}, {0, 2}, {1, 2}], margins)
    stencil, rhs, codec = build_multiway(inst)
    x = codec.encode({(i, j, k): tab[i][j][k]
                      for i in range(p) for j in range(q) for k in range(n)})
    assert mat_vec(nfold_matrix(stencil, n), x) == rhs.concat()
    assert codec.decode(x)[(1, 0, 1)] == tab[1][0][1]


def test_multiway_rejects_bad_margins():
    with pytest.raises(ValueError):
        MultiwayInstance.make((2,), 2, [{0}], {(None, 0): 1})  # support {1}
    with pytest.raises(ValueError):
        MultiwayInstance.make((2,), 2, [{0}], {(0, None): -1})
    with pytest.raises(DimensionMismatchError):
        MultiwayInstance.make((2,), 2, [{0}], {(0,): 1})
    inst = MultiwayInstance.make((2,), 2, [{0}, {1}],
                                 {(0, None): 1, (1, None): 1, (None, 0): 1})
    with pytest.raises(ValueError):  # (None, 1) margin missing
        build_multiway(inst)


def test_packing_construction_and_mass_balance():
    inst = PackingInstance.from_items([3, 2], [2, 2], [5, 5, 4])
    stencil, rhs, codec = build_packing(inst)
    assert stencil.t == 3 and inst.residual() == 4
    assert rhs.b0 == (2, 2, 4)
    assert rhs.layer_rhs == ((5,), (5,), (4,))
    matrix = [[1, 0, 1], [0, 2, 0], [2, 1, 1]]
    x = codec.encode(matrix)
    assert mat_vec(nfold_matrix(stencil, inst.n), x) == rhs.concat()
    assert codec.decode(x) == matrix


def test_packing_validation():
    with pytest.raises(InfeasibleInstanceError):
        build_packing(PackingInstance.from_items([5], [3], [4, 4]))
    with pytest.raises(ValueError):
        PackingInstance.make((3, 2), (1,), (4,))  # slack weight != 1
    with pytest.raises(DimensionMismatchError):
        PackingInstance.make((3, 1), (1, 1), (4,))
    with pytest.raises(ValueError):
        PackingInstance.from_items([0], [1], [3])


def test_packing_utility_lift_pads_slack():
    inst = PackingInstance.from_items([3, 2], [2, 2], [5, 5, 4])
    _, _, codec = build_packing(inst)
    W = codec.lift_utilities([[[1, 2, 3], [4, 5, 6]]])
    assert W.rows[0] == (1, 4, 0, 2, 5, 0, 3, 6, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3), st.integers(2, 6), st.integers(0, 10 ** 6))
def test_partition_codec_roundtrip(players, n, seed):
    rng = random.Random(seed)
    items = [tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(n)]
    inst = PartitionInstance.make(players, items)
    _, _, _, codec = build_partition(inst)
    assignment = [rng.randrange(players) for _ in range(n)]
    part = tuple(tuple(i for i, h in enumerate(assignment) if h == target)
                 for target in range(players))
    assert codec.decode(codec.encode(part)) == part


def test_partition_weights_project_to_cluster_sums():
    inst = PartitionInstance.make(2, [(1, 2), (3, 4), (5, 6)], sizes=(2, 1))
    stencil, rhs, weights, codec = build_partition(inst)
    x = codec.encode(((0, 2), (1,)))
    assert mat_vec(nfold_matrix(stencil, inst.n), x) == rhs.concat()
    z = weights.project(x)
    # d = players * criteria rows: per-player componentwise sums
    assert z == (1 + 5, 2 + 6, 3, 4)


def test_partition_validation():
    with pytest.raises(ValueError):
        PartitionInstance.make(2, [(1,), (2,)], sizes=(1, 2))
    with pytest.raises(DimensionMismatchError):
        PartitionInstance.make(2, [(1,), (2, 3)])
    with pytest.raises(DimensionMismatchError):
        PartitionInstance.make(2, [(1,), (2,)], sizes=(2,))
    # zero-size players are allowed
    PartitionInstance.make(3, [(1,), (2,)], sizes=(2, 0, 0))


def test_cluster_variance_exact():
    inst = PartitionInstance.make(2, [(1, 1), (1, 1), (2, 0), (2, 0)],
                                  sizes=(2, 2))
    assert cluster_variance(inst, ((0, 1), (2, 3))) == 0
    assert cluster_variance(inst, ((0, 2), (1, 3))) == Fraction(1)
    with pytest.raises(ValueError):
        cluster_variance(inst, ((0, 1, 2, 3), ()))
    with pytest.raises(ValueError):
        cluster_variance(inst, ((0, 1), (2,)))
