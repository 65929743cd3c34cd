import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (dense_column_echelon, densify_echelon, transpose,
                      vec_add, vec_scale, vstack)
from gravopt.errors import DimensionMismatchError
from gravopt.intlinalg import (IntMat, _column_echelon, dot, format_matrix,
                               lattice_kernel_basis, mat_vec, parse_matrix,
                               rank, solve_integer, vec_sub)
from gravopt.nfold import NFoldStencil, nfold_matrix

int_entries = st.integers(min_value=-9, max_value=9)


@st.composite
def matrices(draw, max_rows=4, max_cols=5):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    data = tuple(tuple(draw(int_entries) for _ in range(cols))
                 for _ in range(rows))
    return IntMat(rows, cols, data)


def fraction_rank(A: IntMat) -> int:
    rows = [[Fraction(v) for v in row] for row in A.data]
    r = 0
    for c in range(A.cols):
        piv = next((i for i in range(r, A.rows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(A.rows):
            if i != r and rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def test_constructors_and_shapes():
    I3 = IntMat.identity(3)
    assert I3.data == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    Z = IntMat.zero(2, 3)
    assert Z.rows == 2 and Z.cols == 3 and all(v == 0 for r in Z.data for v in r)
    with pytest.raises(DimensionMismatchError):
        IntMat(2, 2, ((1, 2),))


def test_vector_ops():
    assert dot((1, 2, 3), (4, 5, 6)) == 32
    assert vec_add((1, 2), (3, 4)) == (4, 6)
    assert vec_sub((1, 2), (3, 4)) == (-2, -2)
    assert vec_scale(3, (1, -2)) == (3, -6)


def test_matvec_transpose_vstack():
    A = IntMat(2, 3, ((1, 2, 3), (0, 1, 0)))
    assert mat_vec(A, (1, 1, 1)) == (6, 1)
    assert transpose(A).data == ((1, 0), (2, 1), (3, 0))
    B = vstack(A, IntMat.identity(3))
    assert B.rows == 5 and B.data[2:] == IntMat.identity(3).data


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_matches_fraction_elimination(A):
    assert rank(A) == fraction_rank(A)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_basis_is_a_kernel_lattice_basis(A):
    kb = lattice_kernel_basis(A)
    assert len(kb) == A.cols - rank(A)
    for v in kb:
        assert mat_vec(A, v) == (0,) * A.rows
    if kb:
        K = IntMat.from_rows(kb, cols=A.cols)
        assert rank(K) == len(kb)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.lists(int_entries, min_size=5, max_size=5))
def test_solve_integer_roundtrip(A, seed):
    x0 = tuple(seed[:A.cols]) + (0,) * max(0, A.cols - len(seed))
    b = mat_vec(A, x0)
    x = solve_integer(A, b)
    assert x is not None
    assert mat_vec(A, x) == b


def test_solve_integer_detects_unsolvable():
    # 2x = 1 has no integer solution; 2x = 4 does
    A = IntMat(1, 1, ((2,),))
    assert solve_integer(A, (1,)) is None
    assert solve_integer(A, (4,)) == (2,)
    # inconsistent system
    B = IntMat(2, 1, ((1,), (1,)))
    assert solve_integer(B, (1, 2)) is None


def test_solve_integer_exhaustive_cross_check():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(1, 2)
        A = IntMat(m, 3, tuple(tuple(rng.randint(-2, 2) for _ in range(3))
                               for _ in range(m)))
        b = tuple(rng.randint(-2, 2) for _ in range(m))
        x = solve_integer(A, b)
        if x is None:
            # then no solution may exist in a generous box either
            for cand in itertools.product(range(-6, 7), repeat=3):
                assert mat_vec(A, cand) != b
        else:
            assert mat_vec(A, x) == b


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_matrix_text_roundtrip(A):
    assert parse_matrix(format_matrix(A)) == A


def test_matrix_text_format_is_stable():
    A = IntMat(2, 3, ((1, -2, 3), (0, 0, 0)))
    assert format_matrix(A) == "2 3\n1 -2 3\n0 0 0\n"
    assert parse_matrix("2 3\n 1 -2  3\n0 0 0") == A
    with pytest.raises(ValueError):
        parse_matrix("2 3\n1 2 3\n")


def test_sparse_echelon_matches_the_dense_oracle_on_random_matrices():
    # every choice (j0, the quotients, the swap, the sign) is the dense
    # routine's, so the densified (E, U, pivots) must be equal
    rng = random.Random(1111)
    for _ in range(3000):
        rows, cols = rng.randint(0, 5), rng.randint(0, 7)
        lo = -rng.choice((1, 3, 9))
        A = IntMat(rows, cols,
                   tuple(tuple(rng.randint(lo, -lo) if rng.random() < 0.6
                               else 0 for _ in range(cols))
                         for _ in range(rows)))
        assert densify_echelon(A, _column_echelon(A)) == \
            dense_column_echelon(A)


def test_sparse_echelon_matches_the_dense_oracle_on_transport_nfold():
    stencil = NFoldStencil(
        IntMat.identity(4),
        IntMat(4, 4, ((1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0),
                      (0, 1, 0, 1))))
    for n in (8, 32, 64):
        A = nfold_matrix(stencil, n)
        E, U, pivots = _column_echelon(A)
        assert densify_echelon(A, (E, U, pivots)) == dense_column_echelon(A)
        assert len(pivots) == rank(A)
        # the transform stays sparse: under 4 nonzeros per column
        assert sum(map(len, U)) < 4 * A.cols
