import itertools

import pytest

from conftest import lifted_basis, vstack
from gravopt import nfold
from gravopt.bruteforce import brute_force_graver
from gravopt.config import RunConfig
from gravopt.errors import ResourceLimitError
from gravopt.graver import graver_basis
from gravopt.intlinalg import IntMat, mat_vec
from gravopt.nfold import (NFoldRhs, NFoldStencil, brick_type,
                           graver_complexity, nfold_graver, nfold_matrix,
                           nproduct, split_layers)

TRANSPORT_2x2 = NFoldStencil(
    IntMat.identity(4),
    IntMat(4, 4, ((1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0), (0, 1, 0, 1))))


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
    ]
    for st in stencils:
        g = graver_complexity(st)
        for n in range(g, g + 3):
            lifted = lifted_basis(st, n)
            direct = graver_basis(nfold_matrix(st, n))
            assert set(lifted) == set(direct), (st, n)


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
    with pytest.raises(ResourceLimitError):
        nfold_graver(TRANSPORT_2x2, 40, RunConfig(lift_cap=10))


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
