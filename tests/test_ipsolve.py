import random

import pytest

from conftest import random_matrix
from gravopt import cli, convexopt, graver, ipsolve
from gravopt.apps import build_threeway
from gravopt.bruteforce import EnumBudget, enumerate_feasible
from gravopt.convexopt import (MaxLinearObjective, SquaredNormObjective,
                               solve_convex_nfold)
from gravopt.errors import (DimensionMismatchError,
                            InternalInconsistencyError)
from gravopt.graver import INT64_BOUND, GraverBasis, graver_basis
from gravopt.intlinalg import IntMat, dot, mat_vec, solve_integer
from gravopt.ipsolve import (INFEASIBLE, OPTIMAL, UNBOUNDED, SolveOutcome,
                             augment_to_optimum, drive_nonnegative,
                             find_feasible, solve_ip, solve_nfold_ip)
from gravopt.nfold import (NFoldRhs, NFoldStencil, nfold_graver,
                           nfold_matrix)


def _random_bounded_stencil(rng: random.Random) -> NFoldStencil:
    """A2 starts with an all-ones row, so every fiber is bounded."""
    t = rng.randint(2, 3)
    a1 = IntMat(1, t, (tuple(rng.randint(0, 2) for _ in range(t)),))
    extra = rng.randint(0, 1)
    rows = [(1,) * t] + [tuple(rng.randint(-1, 2) for _ in range(t))
                         for _ in range(extra)]
    return NFoldStencil(a1, IntMat(len(rows), t, tuple(rows)))


def test_augmentation_checks_the_orthant_without_assert():
    # x0 breaks the x0 >= 0 precondition; the step keeps x[2] = -1, which
    # must surface as an internal fault even under python -O
    basis = graver_basis(IntMat(1, 3, ((1, 1, 0),)))
    with pytest.raises(InternalInconsistencyError):
        augment_to_optimum((0, 2, -1), basis, (1, 0, 0))


def test_augmentation_rejects_a_point_of_the_wrong_length(monkeypatch):
    def loop(*args):
        raise AssertionError("augmented a point of the wrong length")

    monkeypatch.setattr(ipsolve, "_augment_int64", loop)
    monkeypatch.setattr(ipsolve, "_augment_exact", loop)
    basis = graver_basis(IntMat(1, 2, ((1, 1),)))
    for x0, w in (((0, 2, 5), (1, 0, 7)), ((2,), (1,))):
        with pytest.raises(DimensionMismatchError,
                           match=f"point of length {len(x0)}, basis has 2"):
            augment_to_optimum(x0, basis, w)


def test_augmentation_on_line_segment():
    A = IntMat(1, 2, ((1, 1),))
    basis = graver_basis(A)
    out = augment_to_optimum((3, 0), basis, (1, 2))
    assert out.status == OPTIMAL and out.x == (0, 3) and out.value == 6
    out = augment_to_optimum((0, 3), basis, (2, 1))
    assert out.x == (3, 0) and out.value == 6


def test_augmentation_detects_unbounded_with_certificate():
    A = IntMat(1, 2, ((1, -1),))
    basis = graver_basis(A)
    out = augment_to_optimum((0, 0), basis, (1, 1))
    assert out.status == UNBOUNDED
    g = out.certificate
    assert mat_vec(A, g) == (0,)
    assert all(v >= 0 for v in g) and dot((1, 1), g) > 0


def test_augmentation_value_monotone_and_feasible():
    # per-step feasibility is asserted inside augment_to_optimum; here we
    # confirm the endpoint beats the start for many random objectives
    A = IntMat(2, 4, ((1, 1, 1, 1), (0, 1, 2, 3)))
    basis = graver_basis(A)
    rng = random.Random(4)
    for _ in range(50):
        w = tuple(rng.randint(-4, 4) for _ in range(4))
        x0 = (4, 0, 0, 0) if rng.random() < 0.5 else (0, 2, 2, 0)
        b = mat_vec(A, x0)
        out = augment_to_optimum(x0, basis, w)
        assert out.status == OPTIMAL
        assert mat_vec(A, out.x) == b
        assert out.value >= dot(w, x0)


def _rescan_phase1(x, basis):
    """Greedy best penalty step, every element and every step length up
    to the largest |x_j| + 1 rescanned at every step."""
    x = list(x)
    while min(x) < 0:
        best = None  # (gain, g, lam)
        for g in basis.elements:
            for lam in range(1, max(abs(v) for v in x) + 2):
                gain = sum(min(a + lam * b, 0) - min(a, 0)
                           for a, b in zip(x, g))
                if gain > 0 and (best is None or gain > best[0]):
                    best = (gain, g, lam)
        if best is None:
            break
        x = [a + best[2] * b for a, b in zip(x, best[1])]
    return tuple(x)


def _rescan_phase2(x, basis, w):
    """Greedy best augmentation, every element rescanned at every step."""
    x = list(x)
    while True:
        best = None  # (score, g, lam)
        for g in basis.elements:
            if dot(w, g) <= 0:
                continue
            lam = min(x[j] // -a for j, a in enumerate(g) if a < 0)
            if lam >= 1 and (best is None or lam * dot(w, g) > best[0]):
                best = (lam * dot(w, g), g, lam)
        if best is None:
            return tuple(x)
        x = [a + best[2] * b for a, b in zip(x, best[1])]


def test_greedy_steps_match_a_full_rescan():
    # both phases pick the same step as a full rescan, ties included, on
    # 2x2xn transport fibers (bounded, so every query is optimal); phase I
    # also starts from the lattice point that find_feasible hands it
    rng = random.Random(61)
    stencil = NFoldStencil(IntMat.identity(4),
                           IntMat(2, 4, ((1, 1, 0, 0), (1, 0, 1, 0))))
    for n in range(2, 6):
        basis = graver_basis(nfold_matrix(stencil, n))
        A = nfold_matrix(stencil, n)
        for _ in range(3):
            x0 = tuple(rng.randint(0, 3) for _ in range(4 * n))
            start = tuple(a + b for a, b in zip(
                x0, rng.choice(basis.elements)))
            lattice = solve_integer(A, mat_vec(A, x0))
            for x in (start, lattice):
                assert drive_nonnegative(x, basis) == \
                    _rescan_phase1(x, basis)
            for _ in range(5):
                w = tuple(rng.randint(-2, 2) for _ in range(4 * n))
                out = augment_to_optimum(x0, basis, w)
                assert out.x == _rescan_phase2(x0, basis, w)
                assert mat_vec(A, out.x) == mat_vec(A, x0)
    # longer phase I runs from the lattice point at larger n
    for n in (8, 10, 12):
        basis = nfold_graver(stencil, n)
        A = nfold_matrix(stencil, n)
        x0 = tuple(rng.randint(0, 3) for _ in range(4 * n))
        lattice = solve_integer(A, mat_vec(A, x0))
        assert drive_nonnegative(lattice, basis) == \
            _rescan_phase1(lattice, basis)
    # cosets of x_1 + ... + x_6 = b, often with b < 0: phase I stops at a
    # negative point there, and a missed re-score moves that point (on the
    # transport fibers above it does not)
    basis = graver_basis(IntMat(1, 6, ((1,) * 6,)))
    for _ in range(40):
        start = tuple(rng.randint(-5, 5) for _ in range(6))
        assert drive_nonnegative(start, basis) == _rescan_phase1(start, basis)


TRANSPORT_FIBER = NFoldStencil(IntMat.identity(4),
                               IntMat(2, 4, ((1, 1, 0, 0), (1, 0, 1, 0))))


def _transport_2x2(rng, n, d):
    """A feasible 2x2xn line-sum instance with d weight arrays."""
    tab = [[[rng.randint(0, 3) for _ in range(n)] for _ in range(2)]
           for _ in range(2)]
    u = [[sum(tab[i][j]) for j in range(2)] for i in range(2)]
    v = [[tab[i][0][k] + tab[i][1][k] for k in range(n)] for i in range(2)]
    z = [[tab[0][j][k] + tab[1][j][k] for k in range(n)] for j in range(2)]
    stencil, rhs, codec = build_threeway(2, 2, n, u, v, z)
    arrays = [[[[rng.randint(-2, 2) for _ in range(n)] for _ in range(2)]
               for _ in range(2)] for _ in range(d)]
    return stencil, rhs, codec.encode_weights(arrays)


def _assert_paths_agree(x0, basis, w):
    out = augment_to_optimum(x0, basis, w)
    assert out == ipsolve._augment_exact(x0, basis, w), (x0, w)
    return out


def test_int64_and_exact_paths_agree():
    rng = random.Random(71)
    # random systems: elements with differing numbers of negative entries
    # (so padded rows of the view), unbounded fibers among them
    statuses, padded = set(), 0
    for _ in range(60):
        basis = graver_basis(random_matrix(rng, max_rows=2, max_cols=5))
        counts = {sum(1 for a in g if a < 0) for g in basis.elements}
        padded += len(counts) > 1
        for _ in range(8):
            x0 = tuple(rng.randint(0, 4) for _ in range(basis.n))
            w = tuple(rng.randint(-3, 3) for _ in range(basis.n))
            statuses.add(_assert_paths_agree(x0, basis, w).status)
    assert statuses == {OPTIMAL, UNBOUNDED} and padded >= 20
    # 2x2xn transport fibers
    for n in range(1, 9):
        basis = nfold_graver(TRANSPORT_FIBER, n)
        for _ in range(10):
            x0 = tuple(rng.randint(0, 3) for _ in range(4 * n))
            w = tuple(rng.randint(-2, 2) for _ in range(4 * n))
            _assert_paths_agree(x0, basis, w)


def test_int64_and_exact_paths_agree_on_every_vertex_query(monkeypatch):
    calls = []

    def both(x0, basis, w):
        calls.append(w)
        return _assert_paths_agree(x0, basis, w)

    monkeypatch.setattr(convexopt, "augment_to_optimum", both)
    stencil, rhs, weights = _transport_2x2(random.Random(1010), 8, 3)
    maxlin = MaxLinearObjective(((1, -1, 0), (0, 2, 1)))
    for objective in (SquaredNormObjective(), maxlin):
        calls.clear()
        out = solve_convex_nfold(stencil, 8, weights, rhs, objective)
        assert out.status == OPTIMAL
        assert len(calls) == out.stats.oracle_queries > 500


def _spy(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def spy(*args):
        out = fn(*args)
        calls.append(out)
        return out

    monkeypatch.setattr(module, name, spy)
    return calls


def test_int64_guards_fall_back_to_the_exact_loop(monkeypatch):
    fast = _spy(monkeypatch, ipsolve, "_augment_int64")
    exact = _spy(monkeypatch, ipsolve, "_augment_exact")
    # x1 + x2 = b: max |g|_1 = 2, and w = (1, 0) gives max w.g = 1, so
    # x0 may reach 2^62 - 1 on the int64 path
    segment = graver_basis(IntMat(1, 2, ((1, 1),)))
    top = INT64_BOUND - 1
    out = augment_to_optimum((0, top), segment, (1, 0))
    assert out.x == (top, 0) and out.value == top
    assert len(fast) == 1 and fast[0] == out and not exact
    # an entry of x0 past the bound, then a weight past 2^62 / max |g|_1
    for x0, w in (((0, INT64_BOUND), (1, 0)),
                  ((0, 3), (INT64_BOUND // 2, 0))):
        fast.clear()
        exact.clear()
        out = augment_to_optimum(x0, segment, w)
        assert out.x == (x0[1], 0) and out.value == x0[1] * w[0]
        assert fast in ([], [None]) and exact == [out]
    # x1 + 2 x2 = b: the step along (2, -1) doubles the largest entry, so
    # the guard passes before the query and trips after its first step
    line = graver_basis(IntMat(1, 2, ((1, 2),)))
    k = INT64_BOUND // 3
    assert k * 2 < INT64_BOUND <= 2 * k * 2
    fast.clear()
    exact.clear()
    out = augment_to_optimum((0, k), line, (1, 0))
    assert out == SolveOutcome.optimal((2 * k, 0), 2 * k)
    assert fast == [None] and exact == [out]
    # x0 with a negative entry takes the exact loop
    fast.clear()
    basis = graver_basis(IntMat(1, 3, ((1, 1, 0),)))
    with pytest.raises(InternalInconsistencyError):
        augment_to_optimum((0, 2, -1), basis, (1, 0, 0))
    assert not fast


def test_int64_view_is_built_once_per_basis(monkeypatch, tmp_path):
    builds = _spy(monkeypatch, graver, "_int64_view")
    bases = _spy(monkeypatch, convexopt, "nfold_graver")
    stencil, rhs, weights = _transport_2x2(random.Random(5), 8, 2)
    out = solve_convex_nfold(stencil, 8, weights, rhs, SquaredNormObjective())
    basis, = bases
    assert out.stats.oracle_queries > 10 and len(builds) == 1
    assert basis.__dict__["int64_view"] is builds[0]
    # equality and hashing ignore the view
    bare = GraverBasis(basis.elements, basis.source)
    assert bare == basis and hash(bare) == hash(basis)
    assert "int64_view" not in bare.__dict__
    # neither nfold_graver nor the nfold-graver command builds it
    builds.clear()
    assert "int64_view" not in nfold_graver(stencil, 10).__dict__
    printed = _spy(monkeypatch, cli, "nfold_graver")
    path = tmp_path / "st.txt"
    path.write_text("1 0 1\n1 1\n1\n0 1\n")
    assert cli.dispatch(["nfold-graver", "--stencil", str(path), "--n", "8",
                         "--output", str(tmp_path / "out.txt")]) == 0
    assert len(printed) == 1 and "int64_view" not in printed[0].__dict__
    assert not builds


def test_drive_nonnegative_reaches_feasibility():
    A = IntMat(1, 3, ((1, 1, 1),))
    basis = graver_basis(A)
    x = drive_nonnegative((5, -2, 0), basis)
    assert min(x) >= 0 and sum(x) == 3


def test_find_feasible_matches_enumeration():
    rng = random.Random(13)
    agree = 0
    for _ in range(60):
        st = _random_bounded_stencil(rng)
        n = rng.randint(1, 3)
        if rng.random() < 0.6:  # feasible by construction
            x0 = tuple(rng.randint(0, 2) for _ in range(n * st.t))
            b0 = mat_vec(st.A1, x0[:st.t])
            for k in range(1, n):
                b0 = tuple(a + c for a, c in zip(
                    b0, mat_vec(st.A1, x0[k * st.t:(k + 1) * st.t])))
            layers = [mat_vec(st.A2, x0[k * st.t:(k + 1) * st.t])
                      for k in range(n)]
        else:  # random margins, possibly infeasible
            b0 = tuple(rng.randint(0, 4) for _ in range(st.r))
            layers = [tuple(rng.randint(0, 4) for _ in range(st.s))
                      for _ in range(n)]
        rhs = NFoldRhs.make(b0, layers)
        out = find_feasible(st, n, rhs)
        A = nfold_matrix(st, n)
        # the all-ones A2 row bounds each layer variable by its layer sum
        bounds = tuple(layer[0] for layer in rhs.layer_rhs
                       for _ in range(st.t))
        pts = enumerate_feasible(A, rhs.concat(),
                                 EnumBudget(max_points=10 ** 7,
                                            bounds=bounds))
        if out.status == OPTIMAL:
            assert mat_vec(A, out.x) == rhs.concat() and min(out.x) >= 0
            assert pts, "solver found a point enumeration missed the fiber"
        else:
            assert not pts, (st, rhs, pts[:3])
        agree += 1
    assert agree == 60


def test_solve_nfold_ip_matches_enumeration():
    rng = random.Random(17)
    for _ in range(40):
        st = _random_bounded_stencil(rng)
        n = rng.randint(1, 3)
        x0 = tuple(rng.randint(0, 2) for _ in range(n * st.t))
        b0 = tuple(sum(mat_vec(st.A1, x0[k * st.t:(k + 1) * st.t])[i]
                       for k in range(n)) for i in range(st.r))
        layers = [mat_vec(st.A2, x0[k * st.t:(k + 1) * st.t])
                  for k in range(n)]
        rhs = NFoldRhs.make(b0, layers)
        w = tuple(rng.randint(-3, 3) for _ in range(n * st.t))
        out = solve_nfold_ip(st, n, w, rhs)
        A = nfold_matrix(st, n)
        # the all-ones A2 row bounds each layer variable by its layer sum
        bounds = tuple(layer[0] for layer in rhs.layer_rhs
                       for _ in range(st.t))
        pts = enumerate_feasible(A, rhs.concat(),
                                 EnumBudget(max_points=10 ** 7,
                                            bounds=bounds))
        assert out.status == OPTIMAL
        assert out.value == max(dot(w, p) for p in pts)


def test_generic_solve_ip_path():
    A = IntMat(1, 2, ((1, 1),))
    out = solve_ip(A, (3,), (2, 1))
    assert out.status == OPTIMAL and out.x == (3, 0) and out.value == 6
    out = solve_ip(A, (-1,), (1, 1))
    assert out.status == INFEASIBLE
    out = solve_ip(IntMat(1, 2, ((1, -1),)), (0,), (1, 1))
    assert out.status == UNBOUNDED


def test_objective_length_is_checked_before_solving(monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("solved with a malformed objective")

    for name in ("solve_integer", "graver_basis", "nfold_graver"):
        monkeypatch.setattr(ipsolve, name, solve)
    # an infeasible rhs, then a feasible one: neither is looked at
    for b in ((-1,), (3,)):
        with pytest.raises(DimensionMismatchError):
            solve_ip(IntMat(1, 2, ((1, 1),)), b, (1, 2, 3))
    stencil = NFoldStencil(IntMat(1, 2, ((1, 1),)), IntMat(1, 2, ((1, 0),)))
    rhs = NFoldRhs.make((3,), [(1,), (1,)])
    with pytest.raises(DimensionMismatchError):
        solve_nfold_ip(stencil, 2, (1, 2, 3), rhs)


def test_packing_slack_reward_example():
    # rewarding only slack drives all residual capacity into slack items
    from gravopt.apps import PackingInstance, build_packing
    inst = PackingInstance.from_items([2], [2], [5, 4])
    stencil, rhs, codec = build_packing(inst)
    slack = tuple(1 if (i % inst.t) == inst.t - 1 else 0
                  for i in range(inst.n * inst.t))
    out = solve_nfold_ip(stencil, inst.n, slack, rhs)
    assert out.status == OPTIMAL
    assert out.value == inst.residual() == 5


def test_unique_table_transport_example():
    from gravopt.apps import build_threeway
    # margins that force a unique 1x1x2 table
    st, rhs, codec = build_threeway(1, 1, 2, [[3]], [[1, 2]], [[1, 2]])
    for w in [(1, 0), (0, 1), (-1, 5)]:
        out = solve_nfold_ip(st, 2, w, rhs)
        assert out.status == OPTIMAL and out.x == (1, 2)
