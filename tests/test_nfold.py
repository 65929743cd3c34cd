import itertools

import numpy as np
import pytest

from conftest import (SPARSE_LEVEL_3, STABILIZATION_STENCILS, TRANSPORT_2x2,
                      brute_force_graver, dense_basis, dense_lift,
                      lifted_basis, vstack)
from test_graver import _assert_same_view
from gravopt import nfold
from gravopt.config import RunConfig
from gravopt.errors import ResourceLimitError
from gravopt.cli import format_placements
from gravopt.graver import graver_basis
from gravopt.intlinalg import IntMat, mat_vec
from gravopt.nfold import (NFoldRhs, NFoldStencil, brick_type,
                           graver_complexity, nfold_graver, nfold_matrix,
                           nproduct, split_layers)

# a third column free in both blocks: the level-2 elements that move it in
# one layer, (0, 0, 1, 0, 0, 0) and (0, 0, 0, 0, 0, 1), place the same
# brick, so their placements collapse onto each other
FREE_COLUMN = NFoldStencil(IntMat(1, 3, ((1, 1, 0),)),
                           IntMat(1, 3, ((1, -1, 0),)))


def test_nfold_matrix_layout():
    st = NFoldStencil(IntMat(1, 2, ((1, 1),)), IntMat(1, 2, ((1, -1),)))
    A = nfold_matrix(st, 2)
    assert A.data == ((1, 1, 1, 1),
                      (1, -1, 0, 0),
                      (0, 0, 1, -1))


def test_nproduct_111_cubed_matches_fixed_matrix():
    got = nproduct(IntMat(1, 3, ((1, 1, 1),)), 3)
    expected = IntMat(6, 9, (
        (1, 0, 0, 1, 0, 0, 1, 0, 0),
        (0, 1, 0, 0, 1, 0, 0, 1, 0),
        (0, 0, 1, 0, 0, 1, 0, 0, 1),
        (1, 1, 1, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 1, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 1, 1, 1)))
    assert got == expected


def test_rhs_shape_checks():
    st = NFoldStencil(IntMat(1, 2, ((1, 1),)), IntMat(1, 2, ((1, 0),)))
    rhs = NFoldRhs.make((3,), [(1,), (2,)])
    rhs.check_shape(st, 2)
    with pytest.raises(Exception):
        rhs.check_shape(st, 3)
    assert rhs.concat() == (3, 1, 2)


def test_split_layers_and_brick_type():
    x = (1, 0, 0, 2, 3, 0)
    assert split_layers(x, 3, 2) == [(1, 0), (0, 2), (3, 0)]
    assert brick_type(x, 3, 2) == 3
    assert brick_type((0, 0, 0, 2, 0, 0), 3, 2) == 1


def test_nfold_n1_equals_stacked_graver():
    st = NFoldStencil(IntMat(1, 2, ((1, 0),)), IntMat(1, 2, ((1, -1),)))
    direct = graver_basis(vstack(st.A1, st.A2))
    assert set(nfold_graver(st, 1)) == set(direct)


def test_trivial_stencil_has_empty_basis():
    st = NFoldStencil(IntMat(1, 1, ((1,),)), IntMat(1, 1, ((1,),)))
    assert len(nfold_graver(st, 3)) == 0
    # lifted from an empty level-1 basis: no entries, so no views
    lifted = nfold_graver(st, 8)
    assert lifted.t == st.t and len(lifted) == 0
    assert lifted.int64_view is None and lifted.exact_view is None


def test_graver_complexity_examples():
    assert graver_complexity(TRANSPORT_2x2) == 2
    # empty inner basis degenerates to complexity 1
    st = NFoldStencil(IntMat(1, 1, ((1,),)), IntMat(1, 1, ((1,),)))
    assert graver_complexity(st) == 1


def test_basis_caches_are_bounded():
    for cached in (nfold._cached_graver, graver_complexity):
        assert cached.cache_info().maxsize is not None
    # a repeat of a lifted solve is served from the caches
    nfold_graver(TRANSPORT_2x2, 8)
    before = nfold._cached_graver.cache_info()
    nfold_graver(TRANSPORT_2x2, 8)
    after = nfold._cached_graver.cache_info()
    assert after.misses == before.misses and after.hits > before.hits
    assert after.currsize <= after.maxsize


def test_lifting_matches_direct_completion():
    stencils = [
        NFoldStencil(IntMat(1, 2, ((1, 0),)), IntMat(1, 2, ((1, -1),))),
        NFoldStencil(IntMat(1, 2, ((1, 1),)), IntMat(1, 2, ((1, -1),))),
        TRANSPORT_2x2,
        FREE_COLUMN,
    ]
    for st in stencils:
        g = graver_complexity(st)
        for n in range(g, g + 3):
            lifted = lifted_basis(st, n)
            direct = graver_basis(nfold_matrix(st, n))
            assert set(lifted) == set(direct), (st, n)
            # stencil-width and one-brick placements of one basis: the
            # same views, canonical half and printed rows
            assert (lifted.t, direct.t) == (st.t, n * st.t)
            for field in ("int64_view", "exact_view"):
                _assert_same_arrays(getattr(lifted, field),
                                    getattr(direct, field))
            assert lifted.canonical_half() == direct.canonical_half()
            assert _printed(lifted) == _printed(direct), (st, n)


def _assert_same_arrays(a, b):
    for field, x, y in zip(a._fields, a, b):
        if field == "max_l1":
            assert x == y
        else:
            assert x.dtype == y.dtype and np.array_equal(x, y), field


def _printed(basis):
    return "".join(format_placements(basis.half_placements(), basis.n,
                                     basis.t))


def _first_nonzero_positive(v):
    return next(a for a in v if a) > 0


def test_lift_matches_the_dense_oracle():
    collapsed = 0
    for st in (*STABILIZATION_STENCILS, SPARSE_LEVEL_3):
        g = graver_complexity(st)
        for n in range(g + 1, 11):
            lifted = lifted_basis(st, n)
            dense, placements = dense_lift(st, n)
            # length, single elements and the canonical half are read
            # without building the dense elements
            assert len(lifted) == len(dense), (st, n)
            assert [lifted[i] for i in range(len(lifted))] == dense
            assert lifted.canonical_half() == tuple(
                filter(_first_nonzero_positive, dense))
            assert "elements" not in lifted.__dict__
            assert lifted.elements == tuple(dense)
            assert lifted == dense_basis(dense, lifted.source)
            _assert_same_view(lifted)
            collapsed += len(dense) < placements
    assert collapsed


def test_canonical_placements_of_a_completed_basis():
    # below the lifting threshold the basis is completed, one brick per
    # element; it prints as the lift's stencil-width bricks do
    basis = nfold_graver(TRANSPORT_2x2, 5)
    lifted = lifted_basis(TRANSPORT_2x2, 5)
    assert (basis.t, lifted.t) == (20, 4)
    assert [bricks for bricks, _ in basis.half_placements()] == [
        (v,) for v in basis.canonical_half()]
    assert _printed(basis) == _printed(lifted)
    assert lifted.canonical_half() == basis.canonical_half()


def test_force_lift_is_not_an_option():
    with pytest.raises(TypeError, match="force_lift"):
        nfold_graver(TRANSPORT_2x2, 3, force_lift=True)


def test_layer_permutation_symmetry():
    st = NFoldStencil(IntMat(1, 2, ((1, 1),)), IntMat(1, 2, ((1, -1),)))
    n, t = 3, 2
    basis = nfold_graver(st, n)
    elems = set(basis)
    for v in basis:
        layers = split_layers(v, n, t)
        for perm in itertools.permutations(layers):
            moved = tuple(a for layer in perm for a in layer)
            assert moved in elems


def test_lifted_elements_are_kernel_vectors():
    A = nfold_matrix(TRANSPORT_2x2, 3)
    basis = nfold_graver(TRANSPORT_2x2, 3)
    for v in basis:
        assert mat_vec(A, v) == (0,) * A.rows


def test_lift_cap_guard():
    # basis_cap refuses a lift before anything is placed: 2 C(10^6, 2)
    # elements
    with pytest.raises(ResourceLimitError,
                       match="lifted basis of 999999000000 elements"):
        nfold_graver(TRANSPORT_2x2, 10 ** 6)


def test_basis_cap_guards_the_deduplicated_lifted_size():
    assert len(nfold_graver(TRANSPORT_2x2, 40, RunConfig(basis_cap=1560))) \
        == 1560
    with pytest.raises(ResourceLimitError,
                       match="lifted basis of 1560 elements exceeds cap 1559"):
        nfold_graver(TRANSPORT_2x2, 40, RunConfig(basis_cap=1559))
    assert len(nfold_graver(SPARSE_LEVEL_3, 7, RunConfig(basis_cap=476))) \
        == 476
    with pytest.raises(ResourceLimitError,
                       match="lifted basis of 476 elements exceeds cap 475"):
        nfold_graver(SPARSE_LEVEL_3, 7, RunConfig(basis_cap=475))


def test_nfold_graver_deterministic_across_calls():
    a = nfold_graver(TRANSPORT_2x2, 4)
    b = nfold_graver(TRANSPORT_2x2, 4)
    assert a.elements == b.elements


def test_nfold_minimality_spot_check():
    st = NFoldStencil(IntMat(1, 2, ((1, 0),)), IntMat(1, 2, ((1, -1),)))
    basis = nfold_graver(st, 2)
    box = max((abs(a) for v in basis for a in v), default=1)
    oracle = brute_force_graver(nfold_matrix(st, 2), box)
    assert set(basis) == set(oracle)
