import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (SPARSE_LEVEL_3, STABILIZATION_STENCILS, basis_supports,
                      brute_force_graver, col, conformal_decompose,
                      dense_basis, random_matrix, reference_normal_forms,
                      supports_int64_view, vec_add)
from gravopt import graver
from gravopt.bruteforce import EnumBudget, enumerate_feasible
from gravopt.errors import ResourceLimitError
from gravopt.graver import (INT64_BOUND, GraverBasis, conformal_leq,
                            graver_basis)
from gravopt.intlinalg import IntMat, mat_vec, vec_sub
from gravopt.nfold import NFoldStencil, nfold_graver, nfold_matrix

small_vecs = st.lists(st.integers(-5, 5), min_size=1, max_size=6).map(tuple)


def test_example_basis_121():
    basis = graver_basis(IntMat(1, 3, ((1, 2, 1),)))
    expected = {(2, -1, 0), (0, -1, 2), (1, 0, -1), (1, -1, 1)}
    assert set(basis) == expected | {tuple(-a for a in v) for v in expected}


def test_example_basis_111():
    basis = graver_basis(IntMat(1, 3, ((1, 1, 1),)))
    expected = {(1, -1, 0), (1, 0, -1), (0, 1, -1)}
    assert set(basis) == expected | {tuple(-a for a in v) for v in expected}


def test_canonical_half_is_deterministic():
    basis = graver_basis(IntMat(1, 3, ((1, 2, 1),)))
    half = basis.canonical_half()
    assert half == tuple(sorted(half))
    assert len(half) * 2 == len(basis)
    for v in half:
        lead = next(a for a in v if a)
        assert lead > 0


@settings(max_examples=200, deadline=None)
@given(small_vecs, small_vecs)
def test_conformal_order_properties(u, v):
    n = min(len(u), len(v))
    u, v = u[:n], v[:n]
    assert conformal_leq(u, u)
    if conformal_leq(u, v) and conformal_leq(v, u):
        assert u == v
    if conformal_leq(u, v):
        # same orthant and componentwise dominated
        assert all(a * b >= 0 and abs(a) <= abs(b) for a, b in zip(u, v))


def test_conformal_order_transitive_sample():
    rng = random.Random(0)
    for _ in range(500):
        n = rng.randint(1, 4)
        u, v, w = (tuple(rng.randint(-3, 3) for _ in range(n))
                   for _ in range(3))
        if conformal_leq(u, v) and conformal_leq(v, w):
            assert conformal_leq(u, w)


def test_oracle_equivalence_sample():
    # the full 200-matrix sweep lives in the acceptance suite
    rng = random.Random(11)
    for _ in range(30):
        A = random_matrix(rng)
        basis = graver_basis(A)
        box = max((abs(a) for v in basis for a in v), default=1)
        if box <= 4:
            oracle = brute_force_graver(A, box)
            assert set(basis) == set(oracle)


def test_every_element_is_kernel_and_minimal():
    rng = random.Random(3)
    for _ in range(20):
        A = random_matrix(rng)
        basis = graver_basis(A)
        elems = set(basis)
        for v in basis:
            assert mat_vec(A, v) == (0,) * A.rows
            assert tuple(-a for a in v) in elems
            for u in basis:
                if u != v:
                    assert not conformal_leq(u, v) or u == v


def test_conformal_decomposition_soundness():
    rng = random.Random(5)
    for _ in range(40):
        A = random_matrix(rng)
        basis = graver_basis(A)
        if not len(basis):
            continue
        elems = list(basis)
        g = (0,) * basis.n
        for _ in range(rng.randint(1, 3)):
            g = vec_add(g, rng.choice(elems))
        if not any(g):
            continue
        parts = conformal_decompose(g, basis)
        total = (0,) * basis.n
        for p in parts:
            assert conformal_leq(p, g)
            assert p in basis.elements
            total = vec_add(total, p)
        assert total == g


def test_edge_direction_coverage_via_feasible_differences():
    # every difference of two feasible points decomposes conformally
    rng = random.Random(9)
    done = 0
    while done < 25:
        A = random_matrix(rng, max_rows=2, max_cols=4, lo=0, hi=3)
        if any(all(v == 0 for v in col(A, j)) for j in range(A.cols)):
            continue  # zero column: unbounded fibers
        x0 = tuple(rng.randint(0, 3) for _ in range(A.cols))
        b = mat_vec(A, x0)
        pts = enumerate_feasible(A, b, EnumBudget(bounds=(6,) * A.cols))
        if len(pts) < 2:
            continue
        basis = graver_basis(A)
        for u, v in itertools.islice(itertools.combinations(pts, 2), 50):
            diff = vec_sub(u, v)
            parts = conformal_decompose(diff, basis)
            assert all(conformal_leq(p, diff) for p in parts)
        done += 1


def test_zero_kernel_matrix_has_empty_basis():
    basis = graver_basis(IntMat.identity(3))
    assert len(basis) == 0
    assert basis.canonical_half() == ()


def test_basis_cap_guard():
    from gravopt.config import RunConfig
    A = IntMat(1, 4, ((1, 2, 3, 4),))
    with pytest.raises(ResourceLimitError):
        graver_basis(A, RunConfig(basis_cap=2))


def test_completion_reduces_the_queued_loops_pair_sums_in_order(monkeypatch):
    rng = random.Random(2602)
    matrices = [random_matrix(rng, 2, cols) for cols in [4] * 90 + [5] * 10]
    matrices += [nfold_matrix(st, n) for st in (*STABILIZATION_STENCILS,
                                                SPARSE_LEVEL_3)
                 for n in (2, 3)]
    expected = [reference_normal_forms(A) for A in matrices]
    seen = []
    reduce = graver._normal_form

    def recording(v, basis):
        seen.append(v)
        return reduce(v, basis)

    monkeypatch.setattr(graver, "_normal_form", recording)
    for A, sums in zip(matrices, expected):
        seen.clear()
        graver_basis(A)
        assert seen == sums


def test_basis_cap_bounds_the_working_set_exactly():
    from gravopt.config import RunConfig
    A = IntMat(1, 4, ((1, 2, 3, 4),))
    assert len(graver_basis(A, RunConfig(basis_cap=30))) == 30
    with pytest.raises(ResourceLimitError,
                       match="Graver completion exceeded basis cap 29$"):
        graver_basis(A, RunConfig(basis_cap=29))


def test_brute_force_graver_matches_known():
    oracle = brute_force_graver(IntMat(1, 3, ((1, 1, 1),)), box=2)
    expected = {(1, -1, 0), (1, 0, -1), (0, 1, -1)}
    assert set(oracle) == expected | {tuple(-a for a in v) for v in expected}


def test_brute_force_graver_handles_huge_entries():
    big = 2 ** 62
    oracle = brute_force_graver(IntMat(1, 2, ((big, -big),)), 1)
    assert set(oracle) == {(1, 1), (-1, -1)}


def test_brute_force_graver_budget_trips_before_enumerating():
    # the box [-1, 1]^13 has 3^13 = 1594323 points, over the default budget
    with pytest.raises(ResourceLimitError, match="1594323"):
        brute_force_graver(IntMat(1, 13, ((1,) * 13,)), 1)


def test_graver_basis_is_hashable_value_object():
    A = IntMat(1, 3, ((1, 2, 1),))
    assert graver_basis(A) == graver_basis(A)
    assert isinstance(graver_basis(A), GraverBasis)


def _fresh_view(basis, exact=False):
    """The view `GraverBasis.int64_view` (or, with `exact`, `exact_view`)
    builds, built again rather than read from the cache."""
    return graver._view(basis._triples(object if exact else np.int64),
                        len(basis), basis.n)


def _assert_same_view(basis):
    """Both views of the basis, as built and as cached, equal the Python
    oracle's; an exact view's values are Python ints."""
    for exact in (False, True):
        _assert_view_equals(_fresh_view(basis, exact), basis, exact)
        _assert_view_equals(basis.exact_view if exact else basis.int64_view,
                            basis, exact)


def _assert_view_equals(view, basis, exact):
    oracle = supports_int64_view(basis_supports(basis), basis.n, exact)
    if oracle is None:
        assert view is None
        return
    for field, want in zip(oracle._fields, oracle):
        got = getattr(view, field)
        if field == "max_l1":
            assert type(got) is int and got == want
            continue
        assert got.dtype == want.dtype and np.array_equal(got, want), field
        if got.dtype == object:
            assert all(type(a) is int for a in got.flat), field


def test_int64_view_matches_the_python_oracle(monkeypatch):
    # one row per block too, so every block boundary is crossed
    rng = random.Random(89)
    bases = [graver_basis(random_matrix(rng)) for _ in range(150)]
    for entries in (1, graver.VIEW_BLOCK_ENTRIES):
        monkeypatch.setattr(graver, "VIEW_BLOCK_ENTRIES", entries)
        for basis in bases:
            _assert_same_view(basis)
    monkeypatch.undo()
    transport = NFoldStencil(IntMat.identity(4),
                             IntMat(2, 4, ((1, 1, 0, 0), (1, 0, 1, 0))))
    for n in (8, 32, 64):
        _assert_same_view(nfold_graver(transport, n))


def test_negative_entry_table_pads_with_each_elements_first_entry():
    # every slot names a real column; slots past an element's negative
    # entries repeat its first one, so a minimum over the slots is the
    # minimum over the entries; an element with none reads (0, 1)
    rng = random.Random(97)
    padded = 0
    for basis in filter(len, (graver_basis(random_matrix(rng))
                              for _ in range(80))):
        for view in (basis.int64_view, basis.exact_view):
            if view is None:
                continue
            assert (view.neg_cols < basis.n).all()
            k = len(view.neg_cols)
            for i, g in enumerate(basis.elements):
                negs = [(j, -a) for j, a in enumerate(g) if a < 0]
                slots = list(zip(view.neg_cols[:, i].tolist(),
                                 view.neg_mags[:, i].tolist()))
                pad = (negs or [(0, 1)])[0]
                assert slots == negs + [pad] * (k - len(negs)), (g, slots)
                padded += 0 < len(negs) < k
    assert padded >= 20


def test_int64_view_guards_its_entries_and_one_norms():
    top = INT64_BOUND - 1
    half = INT64_BOUND // 2
    cases = [
        # entries past int64 and at its minimum, whose int64 abs wraps;
        # then a 1-norm at and one past the bound
        (((1 << 63, 0),), None),
        (((-(1 << 63), 0),), None),
        (((half, -(half - 1)),), top),
        (((half, half),), None),
        ((((1 << 63) - 1, 0),), None),
        # max|a| * n >= 2^63: the 1-norm is summed on Python ints, here
        # at the bound and past it (int64 would wrap 2 (2^62 - 1) + 2)
        (((half, half // 2, half // 2 - 1, 0),), top),
        (((top, -top, 2),), None),
    ]
    for elements, max_l1 in cases:
        basis = dense_basis(elements, IntMat(0, len(elements[0]), ()))
        view = basis.int64_view
        assert (view and view.max_l1) == max_l1, elements
        # the exact view bounds nothing
        exact = basis.exact_view
        assert exact.max_l1 == sum(map(abs, elements[0])), elements
        _assert_same_view(basis)
    empty = dense_basis((), IntMat(0, 3, ()))
    assert empty.int64_view is None and empty.exact_view is None
