import itertools
import random

import numpy as np
import pytest

from conftest import (TRANSPORT_2x2, augment_exact, augment_scores_exact,
                      dense_basis, drive_exact, format_stencil,
                      random_matrix, seeded_transport)
from gravopt import cli, convexopt, graver, ipsolve
from gravopt.apps import build_threeway
from gravopt.bruteforce import EnumBudget, enumerate_feasible
from gravopt.convexopt import (UNBOUNDED_POLYHEDRON, MaxLinearObjective,
                               ObjectiveWeights, SearchStats,
                               SquaredNormObjective, solve_convex_nfold)
from gravopt.errors import (DimensionMismatchError,
                            InternalInconsistencyError)
from gravopt.graver import INT64_BOUND, Int64View, graver_basis
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

    monkeypatch.setattr(ipsolve, "_augment_rows", loop)
    basis = graver_basis(IntMat(1, 2, ((1, 1),)))
    for x0, w in (((0, 2, 5), (1, 0, 7)), ((2,), (1,))):
        with pytest.raises(DimensionMismatchError,
                           match=f"point of length {len(x0)}, basis has 2"):
            augment_to_optimum(x0, basis, w)
        with pytest.raises(DimensionMismatchError,
                           match=f"point of length {len(x0)}, basis has 2"):
            ipsolve.augment_batch(x0, basis, [(1,)],
                                  np.ones((2, 1), dtype=np.int64), (0,))


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
    assert out == augment_exact(x0, basis, w), (x0, w)
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
    batch = convexopt.augment_batch

    def both(x0, basis, certificates, P, z0):
        replies = batch(x0, basis, certificates, P, z0)
        for c, reply in zip(certificates, replies):
            row, value = [dot(c, p) for p in P.tolist()], dot(c, z0)
            calls.append(value)
            assert reply == augment_scores_exact(x0, basis, row, value), \
                (x0, row, value)
        return replies

    monkeypatch.setattr(convexopt, "augment_batch", both)
    kernels = _kernel_spy(monkeypatch, "_augment_rows")
    stencil, rhs, weights = _transport_2x2(random.Random(1010), 8, 3)
    maxlin = MaxLinearObjective(((1, -1, 0), (0, 2, 1)))
    for objective in (SquaredNormObjective(), maxlin):
        calls.clear()
        out = solve_convex_nfold(stencil, 8, weights, rhs, objective)
        assert out.status == OPTIMAL
        assert len(calls) == out.stats.oracle_queries - 1 > 500
    # every reply came from the int64 view
    assert kernels and not any(exact for exact, _ in kernels)


def _wg(basis, objectives):
    """The exact values w.g, one row per objective, as int64."""
    return np.array([[dot(w, g) for g in basis.elements] for w in objectives],
                    dtype=np.int64)


def _batch(x0, basis, objectives):
    """`augment_batch`'s (certificates, P, z0) for the objectives: one
    identity certificate per objective over P = basis.project(objectives),
    so certificate q scores w_q.g and starts at w_q.x0."""
    q = len(objectives)
    certificates = [tuple(int(i == j) for j in range(q)) for i in range(q)]
    return (certificates, basis.project(objectives),
            tuple(dot(w, x0) for w in objectives))


def test_batched_kernel_matches_the_exact_loop_row_by_row():
    # random systems with several objectives per call: unbounded rows,
    # rows with max w.g <= 0 (x0 is optimal), and bases with an element
    # whose negative entries are padded to the table's height
    rng = random.Random(73)
    seen = {"unbounded": 0, "flat": 0, "stepped": 0, "padded": 0}
    for _ in range(80):
        basis = graver_basis(random_matrix(rng, max_rows=2, max_cols=5))
        view = basis.int64_view
        if view is None:
            continue
        negs = [sum(1 for a in g if a < 0) for g in basis.elements]
        seen["padded"] += any(0 < k < len(view.neg_cols) for k in negs)
        x0 = tuple(rng.randint(0, 4) for _ in range(basis.n))
        objectives = [tuple(rng.randint(-3, 3) for _ in range(basis.n))
                      for _ in range(rng.randint(1, 6))]
        objectives.append((0,) * basis.n)
        wg, values = _wg(basis, objectives), [dot(w, x0) for w in objectives]
        outs = ipsolve._augment_rows(x0, basis, view, wg, values)
        assert outs == ipsolve.augment_batch(x0, basis,
                                             *_batch(x0, basis, objectives))
        assert outs == ipsolve._augment_rows(
            x0, basis, basis.exact_view, wg.astype(object), values)
        for w, row, out in zip(objectives, wg, outs):
            assert out == augment_exact(x0, basis, w), (x0, w)
            if out.status == UNBOUNDED:
                seen["unbounded"] += 1
            elif row.max() <= 0:
                seen["flat"] += 1
            elif out.x != x0:
                seen["stepped"] += 1
    assert min(seen.values()) >= 20, seen


def test_batched_kernel_trips_one_row_while_the_others_step(monkeypatch):
    # x1 + 2 x2 = b beside x3 + .. + x6 = b': rows 0 and 4 pass the guard
    # before the query and trip on their first step, which is the same
    # step (as in the single-row case of the guard test); rows 1 and 2
    # empty two coordinates of the second block, one per step
    basis = graver_basis(IntMat(2, 6, ((1, 2, 0, 0, 0, 0),
                                       (0, 0, 1, 1, 1, 1))))
    k = INT64_BOUND // 3
    x0 = (0, k, 3, 1, 4, 2)
    objectives = [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 1),
                  (0, 0, 0, 1, 1, 0), (0, 0, 0, 0, 0, 0),
                  (1, 0, 0, 0, 0, 1)]
    wg, values = _wg(basis, objectives), [dot(w, x0) for w in objectives]
    assert ipsolve._augment_rows(x0, basis, basis.int64_view, wg,
                                 values) is None
    exact = [augment_exact(x0, basis, w) for w in objectives]
    assert exact[0] == SolveOutcome.optimal((2 * k, 0, 3, 1, 4, 2), 2 * k)
    assert [out.x[2:].count(0) for out in exact[1:4]] == [2, 2, 0]
    kernels = _kernel_spy(monkeypatch, "_augment_rows")
    assert ipsolve.augment_batch(
        x0, basis, *_batch(x0, basis, objectives)) == exact
    # the tripped call is re-run whole, all five rows, on the exact view
    assert kernels == [(False, None), (True, exact)]


def _greedy_paths(x0, basis, wg):
    """Each row's greedy steps on Python ints, by full rescans: a list of
    (element, tied) pairs, tied when another element has the same largest
    score lam*max(w.g, 0) at that point."""
    paths = []
    for row in wg.tolist():
        x, path = list(x0), []
        while True:
            scores = []
            for g, w in zip(basis.elements, row):
                caps = [x[j] // -a for j, a in enumerate(g) if a < 0]
                scores.append(min(caps) * w if w > 0 and caps else 0)
            top = max(scores)
            if top <= 0:
                break
            best = scores.index(top)
            path.append((best, scores.count(top) > 1))
            lam = top // row[best]
            x = [a + lam * b for a, b in zip(x, basis.elements[best])]
        paths.append(path)
    return paths


def _path_pairs(paths):
    """(rows sharing a first step, rows that split at a step where one of
    them had a tie) over the pairs of distinct paths."""
    shared = split = 0
    for a, b in itertools.combinations(paths, 2):
        if a == b:
            continue
        p = 0
        while p < min(len(a), len(b)) and a[p] == b[p]:
            p += 1
        shared += p > 0
        split += p < min(len(a), len(b)) and (a[p][1] or b[p][1])
    return shared, split


def test_shared_state_kernel_matches_the_exact_oracle_row_by_row():
    # batches on transport fibers whose rows share prefixes (a scaled
    # copy shares its whole path, a nudged copy a part of it) and split
    # after ties; every row of both views must match the exact oracle.
    # The same batches from a start
    # past the int64 limit, and from one whose first step passes it, send
    # the int64 view back (None) and augment_batch to the exact view.
    rng = random.Random(311)
    seen = {"shared": 0, "split": 0, "start past": 0, "step past": 0}
    for n in (3, 4, 5, 6):
        basis = nfold_graver(TRANSPORT_FIBER, n)
        for _ in range(4):
            objectives = [tuple(rng.randint(-2, 2) for _ in range(4 * n))
                          for _ in range(4)]
            objectives.append(tuple(3 * a for a in objectives[0]))
            for _ in range(3):
                w = list(objectives[1])
                w[rng.randrange(4 * n)] += rng.choice((-1, 1))
                objectives.append(tuple(w))
            wg = _wg(basis, objectives)
            limit = (INT64_BOUND - 1) // int(wg.max(initial=1))
            for base in (0, limit * 3 // 5, limit + 1):
                x0 = tuple(base + rng.randint(0, 3) for _ in range(4 * n))
                values = [dot(w, x0) for w in objectives]
                want = [augment_scores_exact(x0, basis, row, v)
                        for row, v in zip(wg.tolist(), values)]
                outs = ipsolve._augment_rows(
                    x0, basis, basis.exact_view, wg.astype(object), values)
                assert outs == want
                fast = ipsolve._augment_rows(x0, basis, basis.int64_view,
                                             wg, values)
                if base == 0:
                    assert fast == want
                    shared, split = _path_pairs(_greedy_paths(x0, basis, wg))
                    seen["shared"] += shared
                    seen["split"] += split
                else:
                    assert fast is None
                    seen["start past" if base > limit else "step past"] += 1
                assert ipsolve.augment_batch(
                    x0, basis, *_batch(x0, basis, objectives)) == want
    assert min(seen.values()) >= 16, seen


def test_one_batch_straddles_the_guard(monkeypatch):
    # certificates on both sides of |c|_1 * max|P| < 2^62 in one call:
    # the small ones step in int64 and the large ones on Python ints, and
    # each row answers as the exact oracle does for h = c^T W
    kernels = _kernel_spy(monkeypatch, "_augment_rows")
    basis = nfold_graver(TRANSPORT_FIBER, 4)
    rng = random.Random(29)
    W = [tuple(rng.randint(-3, 3) for _ in range(basis.n)) for _ in range(2)]
    P = basis.project(W)
    x0 = tuple(rng.randint(0, 3) for _ in range(basis.n))
    z0 = tuple(dot(w, x0) for w in W)
    certificates = [(1, 0), (2 ** 62, 1), (2, -1), (3, -(2 ** 70)),
                    (-3, 5), (2 ** 61, 2 ** 61), (0, 0)]
    small = [0, 2, 4, 6]
    outs = ipsolve.augment_batch(x0, basis, certificates, P, z0)
    for c, out in zip(certificates, outs):
        h = tuple(c[0] * a + c[1] * b for a, b in zip(*W))
        assert out == augment_exact(x0, basis, h), c
    assert kernels == [(False, [outs[q] for q in small]),
                       (True, [outs[q] for q in range(7) if q not in small])]
    assert sum(out.x != x0 for out in outs) >= 4
    # the bound itself, from a start where no step is possible
    edge = (INT64_BOUND - 1) // int(np.abs(P).max())
    kernels.clear()
    zero = (0,) * basis.n
    outs = ipsolve.augment_batch(zero, basis,
                                 [(edge, 0), (edge + 1, 0), (0, -edge)],
                                 P, (0, 0))
    assert outs == [SolveOutcome.optimal(zero, 0)] * 3
    assert kernels == [(False, [outs[0], outs[2]]), (True, [outs[1]])]


def test_batch_shapes_are_checked_before_any_work(monkeypatch):
    def kernel(*args):
        raise AssertionError("stepped a batch of the wrong shape")

    monkeypatch.setattr(ipsolve, "_augment_rows", kernel)
    basis = graver_basis(IntMat(1, 3, ((1, 1, 1),)))
    x0 = (3, 0, 0)
    certs, P, z0 = _batch(x0, basis, [(1, 0, 0), (0, 1, 0)])
    empty = graver_basis(IntMat.identity(2))
    assert len(empty) == 0
    for x0, b, certs, P, z0 in (
            (x0, basis, [(1, 0), (0, 1, 0)], P, z0),  # a certificate
            (x0, basis, certs, P[:-1], z0),  # a row of P
            (x0, basis, certs, P[:, 0], z0),  # P is not a table
            (x0, basis, certs, P, z0[:1]),  # z0 of length 1 for d = 2
            ((1, 2), empty, [(1, 0)], np.zeros((0, 1)), (0,))):
        with pytest.raises(DimensionMismatchError):
            ipsolve.augment_batch(x0, b, certs, P, z0)


def _per_vertex(stencil, n, weights, rhs, objective):
    """solve_convex_nfold with one augment_to_optimum call per vertex."""
    basis = nfold_graver(stencil, n)
    x0 = find_feasible(basis.source, rhs.concat(), basis)[0].x
    return convexopt.convex_maximize(
        lambda w: augment_to_optimum(x0, basis, w), weights, basis, objective)


@pytest.mark.parametrize("entries", [1, convexopt.CHUNK_ENTRIES],
                         ids=["one-entry", "default"])
def test_batched_vertex_queries_match_the_per_vertex_loop(monkeypatch,
                                                          entries):
    # with entries = 1 a chunk holds 8 queries, so every solve below spans
    # several chunks; at the default size the d = 3 one still does (1270
    # vertices, 728 to a chunk)
    monkeypatch.setattr(convexopt, "CHUNK_ENTRIES", entries)
    chunks = _spy(monkeypatch, convexopt, "augment_batch")
    rng = random.Random(79)
    for n, d in ((4, 2), (6, 2), (8, 2), (10, 3)):
        stencil, rhs, weights = _transport_2x2(rng, n, d)
        maxlin = MaxLinearObjective(((1,) * d, (-1,) + (2,) * (d - 1)))
        for objective in (SquaredNormObjective(), maxlin):
            chunks.clear()
            out = solve_convex_nfold(stencil, n, weights, rhs, objective)
            assert out == _per_vertex(stencil, n, weights, rhs, objective)
            assert sum(map(len, chunks)) == out.stats.vertices
            assert len(chunks) > 1 or (entries > 1 and d == 2)
    # sum_k x_k - y_k = 1 is unbounded: the fifth vertex query of the
    # first chunk is the first unbounded reply, and the search stops there
    stencil = NFoldStencil(IntMat(1, 2, ((1, -1),)), IntMat(0, 2, ()))
    rhs = NFoldRhs.make((1,), [()] * 3)
    weights = ObjectiveWeights.make([(1, 2, 1, 1, 2, 2),
                                     (-1, -1, 2, 1, 2, -1)])
    chunks.clear()
    out = solve_convex_nfold(stencil, 3, weights, rhs, SquaredNormObjective())
    assert out == _per_vertex(stencil, 3, weights, rhs,
                              SquaredNormObjective())
    assert out.status == UNBOUNDED_POLYHEDRON
    assert out.stats == SearchStats(oracle_queries=6, identity_checks=4,
                                    vertices=18)
    assert [r.status for r in chunks[0][:6]] == [OPTIMAL] * 4 + [UNBOUNDED] * 2
    assert len(chunks) == 1


def test_chunk_guard_batches_large_certificates_on_python_ints(
        monkeypatch):
    # scaled weights put |c|_1 * max|P| past 2^62 for some certificates
    # of the solve only: those are batched on Python ints, the others in
    # int64, so a chunk holding both is batched twice
    monkeypatch.setattr(convexopt, "CHUNK_ENTRIES", 1)
    chunks = []
    kernel = ipsolve._augment_rows

    def spy(x0, basis, view, wg, values):
        out = kernel(x0, basis, view, wg, values)
        # a call after a tripped one re-runs its batch on the exact view
        if chunks and chunks[-1][2]:
            assert wg.dtype == object and len(values) == chunks[-1][1]
            chunks[-1] = (chunks[-1][0], len(values), False)
        else:
            chunks.append((wg.dtype, len(values), out is None))
        return out

    verts = []
    enumerate_vertices = convexopt.zonotope_vertices

    def vertices(*args, **kwargs):
        verts.append(enumerate_vertices(*args, **kwargs))
        return verts[-1]

    monkeypatch.setattr(ipsolve, "_augment_rows", spy)
    monkeypatch.setattr(convexopt, "zonotope_vertices", vertices)
    single = _spy(monkeypatch, convexopt, "augment_to_optimum")
    stencil, rhs, weights = _transport_2x2(random.Random(85), 8, 2)
    scale = 1 << 25
    big = ObjectiveWeights.make([[scale * a for a in row]
                                 for row in weights.rows])
    out = solve_convex_nfold(stencil, 8, big, rhs, SquaredNormObjective())
    top = int(np.abs(nfold_graver(stencil, 8).project(big.rows)).max())
    large = sum(sum(map(abs, v.certificate)) * top >= INT64_BOUND
                for v in verts[0])
    # of 6 chunks, the 3 holding large certificates are batched twice;
    # only the probe, also stepped in int64, is a single query
    assert sorted(str(dtype) for dtype, _, _ in chunks) == \
        ["int64"] * 7 + ["object"] * 3
    assert sum(rows for dtype, rows, _ in chunks if dtype == object) == \
        large < len(verts[0]) // 2
    assert len(single) == 1
    assert out == _per_vertex(stencil, 8, big, rhs, SquaredNormObjective())
    small = solve_convex_nfold(stencil, 8, weights, rhs,
                               SquaredNormObjective())
    assert out.x == small.x and out.z == tuple(scale * a for a in small.z)


def test_empty_basis_solves_at_its_one_point():
    # a 1 x 1 x n table is fixed by its margins: the basis is empty, the
    # projection table has no rows, and the one vertex query returns x0
    stencil, rhs, _ = build_threeway(1, 1, 3, [[6]], [[1, 2, 3]], [[1, 2, 3]])
    basis = nfold_graver(stencil, 3)
    weights = ObjectiveWeights.make([(1, 2, 3), (2, 1, 3)])
    assert len(basis) == 0
    assert basis.project(weights.rows).shape == (0, 2)
    out = solve_convex_nfold(stencil, 3, weights, rhs, SquaredNormObjective())
    assert out.x == (1, 2, 3) and out.z == (14, 13)
    assert out.stats == SearchStats(oracle_queries=2, identity_checks=1,
                                    vertices=1)
    assert augment_to_optimum((1, 2, 3), basis, (1, 0, 0)) == \
        SolveOutcome.optimal((1, 2, 3), 1)


SCALES = (1 << 61, 1 << 70, 10 ** 30)


def test_exact_view_kernels_match_the_oracles_past_every_guard():
    # both kernels on the exact view, against the one-element-at-a-time
    # oracles, with starts, objectives or basis entries scaled past every
    # int64 guard
    rng = random.Random(103)
    bases = [graver_basis(random_matrix(rng, max_rows=2, max_cols=4))
             for _ in range(25)]
    bases += [nfold_graver(TRANSPORT_FIBER, n) for n in (2, 4, 6)]
    bases += [graver_basis(IntMat(1, 3, ((1, -s, 0),))) for s in SCALES]
    seen = {"stepped": 0, "unbounded": 0, "phase1": 0, "stuck": 0}
    for basis in filter(len, bases):
        n = basis.n
        for s in SCALES:
            x0 = tuple(s * rng.randint(0, 3) + rng.randint(0, 3)
                       for _ in range(n))
            objectives = [tuple(rng.randint(-3, 3) * rng.choice((1, s))
                                for _ in range(n)) for _ in range(4)]
            wg = np.array([[dot(w, g) for g in basis.elements]
                           for w in objectives], dtype=object)
            want = [augment_exact(x0, basis, w) for w in objectives]
            assert ipsolve._augment_rows(
                x0, basis, basis.exact_view, wg,
                [dot(w, x0) for w in objectives]) == want
            assert [augment_to_optimum(x0, basis, w)
                    for w in objectives] == want
            for out in want:
                seen["unbounded"] += out.status == UNBOUNDED
                seen["stepped"] += out.status == OPTIMAL and out.x != x0
            start = tuple(s * rng.randint(-3, 2) + rng.randint(-3, 3)
                          for _ in range(n))
            x = drive_exact(start, basis)
            assert ipsolve._drive(start, basis.exact_view) == x, start
            assert drive_nonnegative(start, basis) == x
            seen["phase1"] += x != start
            seen["stuck"] += min(x) < 0
    assert min(seen.values()) >= 20, seen
    # the first step carries x1 past max(x0), and the next step's element
    # with one negative entry, at x1, must read x1 in its padded slots too
    # (a pad that stays at max(x0) steps too short)
    basis = graver_basis(IntMat(1, 5, ((-2, -2, 1, -3, -1),)))
    x0, w = (0, 1, 1, 2, 1), (0, -3, 0, -1, -1)
    wg = np.array([[dot(w, g) for g in basis.elements]], dtype=object)
    want = augment_exact(x0, basis, w)
    assert want.x == (6, 0, 4, 0, 0)
    assert ipsolve._augment_rows(x0, basis, basis.exact_view, wg,
                                 [dot(w, x0)]) == [want]


def _spy(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def spy(*args):
        out = fn(*args)
        calls.append(out)
        return out

    monkeypatch.setattr(module, name, spy)
    return calls


def _kernel_spy(monkeypatch, name):
    """Records (on the exact view?, outcome) for each call of the ipsolve
    kernel `name`; a call that raises records outcome None, as does a
    call whose int64 guard trips."""
    calls = []
    fn = getattr(ipsolve, name)

    def spy(x0, *args):
        view = next(a for a in args if isinstance(a, Int64View))
        out = None
        try:
            out = fn(x0, *args)
            return out
        finally:
            calls.append((view.vals.dtype == object, out))

    monkeypatch.setattr(ipsolve, name, spy)
    return calls


def test_int64_guards_fall_back_to_the_exact_loop(monkeypatch):
    kernels = _kernel_spy(monkeypatch, "_augment_rows")
    # x1 + x2 = b: max |g|_1 = 2, and w = (1, 0) gives max w.g = 1, so
    # x0 may reach 2^62 - 1 on the int64 path
    segment = graver_basis(IntMat(1, 2, ((1, 1),)))
    top = INT64_BOUND - 1
    out = augment_to_optimum((0, top), segment, (1, 0))
    assert out.x == (top, 0) and out.value == top
    assert kernels == [(False, [out])]
    # an entry of x0 past the bound, then a weight past 2^62 / max |g|_1
    # (2^61 * max|g|_1 sends the projection to Python ints, but w.g =
    # +-2^61 passes the batch guard, so the int64 view is tried first)
    for x0, w, first in (((0, INT64_BOUND), (1, 0), [(False, None)]),
                         ((0, 3), (INT64_BOUND // 2, 0), [(False, None)])):
        kernels.clear()
        out = augment_to_optimum(x0, segment, w)
        assert out.x == (x0[1], 0) and out.value == x0[1] * w[0]
        assert kernels == first + [(True, [out])]
    # x1 + 2 x2 = b: the step along (2, -1) doubles the largest entry, so
    # the guard passes before the query and trips after its first step
    line = graver_basis(IntMat(1, 2, ((1, 2),)))
    k = INT64_BOUND // 3
    assert k * 2 < INT64_BOUND <= 2 * k * 2
    kernels.clear()
    out = augment_to_optimum((0, k), line, (1, 0))
    assert out == SolveOutcome.optimal((2 * k, 0), 2 * k)
    assert kernels == [(False, None), (True, [out])]
    # x0 with a negative entry takes the exact view, whose first step
    # raises
    kernels.clear()
    basis = graver_basis(IntMat(1, 3, ((1, 1, 0),)))
    with pytest.raises(InternalInconsistencyError):
        augment_to_optimum((0, 2, -1), basis, (1, 0, 0))
    assert kernels == [(True, None)]


def test_solve_paths_never_build_the_lifted_elements(monkeypatch, tmp_path):
    bases = _spy(monkeypatch, convexopt, "nfold_graver")
    stencil, rhs, weights, _ = seeded_transport(32, 2, 4032)
    out = solve_convex_nfold(stencil, 32, weights, rhs, SquaredNormObjective())
    basis, = bases
    assert out.stats.oracle_queries > 10
    # lifted: placed as bricks of the stencil's width 4
    assert basis.t == 4 and len(basis) == 992
    assert "int64_view" in basis.__dict__
    assert "elements" not in basis.__dict__
    printed = _spy(monkeypatch, cli, "nfold_graver")
    path = tmp_path / "st.txt"
    path.write_text(format_stencil(TRANSPORT_2x2))
    assert cli.dispatch(["nfold-graver", "--stencil", str(path), "--n", "32",
                         "--output", str(tmp_path / "out.txt")]) == 0
    basis, = printed
    assert len(basis) == 992 and "elements" not in basis.__dict__


def test_int64_view_is_built_once_per_basis(monkeypatch, tmp_path):
    builds = _spy(monkeypatch, graver, "_view")
    bases = _spy(monkeypatch, convexopt, "nfold_graver")
    stencil, rhs, weights = _transport_2x2(random.Random(5), 8, 2)
    out = solve_convex_nfold(stencil, 8, weights, rhs, SquaredNormObjective())
    basis, = bases
    assert out.stats.oracle_queries > 10 and len(builds) == 1
    assert basis.__dict__["int64_view"] is builds[0]
    # every guard held, so the exact view was never built
    assert "exact_view" not in basis.__dict__
    # equality and hashing ignore the view
    bare = dense_basis(basis.elements, basis.source)
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


def _assert_phase1_paths_agree(x0, basis):
    """Phase I on the int64 view takes x0 within its guard to the exact
    oracle's point, and so does phase I on the exact view; returns that
    point."""
    x = ipsolve._drive(x0, basis.int64_view)
    assert x is not None and x == drive_exact(x0, basis), x0
    assert ipsolve._drive(x0, basis.exact_view) == x, x0
    return x


def test_int64_and_exact_phase1_agree(monkeypatch):
    rng = random.Random(97)
    # cosets of x_1 + ... + x_6 = b, mostly b < 0: phase I stops at a
    # negative point there
    basis = graver_basis(IntMat(1, 6, ((1,) * 6,)))
    stuck = 0
    for _ in range(60):
        x = _assert_phase1_paths_agree(
            tuple(rng.randint(-6, 4) for _ in range(6)), basis)
        stuck += min(x) < 0
    assert stuck >= 30
    # 2x2xn transport lattice points, far from the orthant
    for n in range(8, 25, 4):
        basis = nfold_graver(TRANSPORT_FIBER, n)
        A = nfold_matrix(TRANSPORT_FIBER, n)
        for _ in range(2):
            x0 = tuple(rng.randint(0, 3) for _ in range(4 * n))
            lattice = solve_integer(A, mat_vec(A, x0))
            assert min(lattice) < 0
            assert min(_assert_phase1_paths_agree(lattice, basis)) >= 0
    # random systems from their lattice points: entries beyond +-1 (so
    # kinks between integers) and supports of differing lengths (so a
    # padded table)
    seen = {"stepped": 0, "padded": 0, "fractional": 0}
    for _ in range(150):
        A = random_matrix(rng, max_rows=2, max_cols=5)
        basis = graver_basis(A)
        b = mat_vec(A, tuple(rng.randint(-3, 3) for _ in range(A.cols)))
        x0 = solve_integer(A, b)
        if basis.int64_view is None or x0 is None:
            continue
        seen["stepped"] += _assert_phase1_paths_agree(x0, basis) != x0
        seen["padded"] += bool((basis.int64_view.supp_cols == A.cols).any())
        seen["fractional"] += max(map(abs, basis.int64_view.vals)) > 1
    assert min(seen.values()) >= 20, seen
    # and drive_nonnegative itself takes the int64 path
    basis = nfold_graver(TRANSPORT_FIBER, 8)
    A = nfold_matrix(TRANSPORT_FIBER, 8)
    lattice = solve_integer(A, mat_vec(A, (1,) * 32))
    kernels = _kernel_spy(monkeypatch, "_drive")
    x = drive_nonnegative(lattice, basis)
    assert kernels == [(False, x)] and x == drive_exact(lattice, basis)


def test_phase1_guards_fall_back_to_the_exact_loop(monkeypatch):
    kernels = _kernel_spy(monkeypatch, "_drive")
    # x1 - x2 = b: the basis is +-(1, 1), max |g|_1 = 2, and the step
    # along (1, 1) that empties x1 adds |x1| to x2
    line = graver_basis(IntMat(1, 2, ((1, -1),)))
    limit = ipsolve._penalty_limit(line.int64_view)
    # the limit is the largest M with max|g|_1 (2M + 1) < 2^62
    for l1 in range(1, 9):
        pm = dense_basis(((l1,), (-l1,)), IntMat(0, 1, ()))
        m = ipsolve._penalty_limit(pm.int64_view)
        assert l1 * (2 * m + 1) < INT64_BOUND <= l1 * (2 * m + 3)

    def drive(x0, basis=line):
        kernels.clear()
        return drive_nonnegative(x0, basis)

    def fell_back(x):
        return kernels == [(False, None), (True, x)]

    # the start guard: max|x0| at the limit, then past it
    assert drive((-limit, 0)) == (0, limit)
    assert kernels == [(False, (0, limit))]
    assert drive((-limit - 1, 0)) == (0, limit + 1)
    assert fell_back((0, limit + 1))
    # the step guard: a step writes the limit, then one past it
    assert drive((-1, limit - 1)) == (0, limit)
    assert kernels == [(False, (0, limit))]
    assert drive((-1, limit)) == (0, limit + 1)
    assert fell_back((0, limit + 1))
    # x1 - x2 = b beside x3 - x4 = b': the first step (gain 5) empties
    # x1, the second writes x4 past the limit after x4 starts at it, so
    # the phase is re-run from x0 on the exact view
    pair = graver_basis(IntMat(2, 4, ((1, -1, 0, 0), (0, 0, 1, -1))))
    assert ipsolve._penalty_limit(pair.int64_view) == limit
    assert drive((-5, 0, -1, limit - 1), pair) == (0, 5, 0, limit)
    assert kernels == [(False, (0, 5, 0, limit))]
    assert drive((-5, 0, -1, limit), pair) == (0, 5, 0, limit + 1)
    assert fell_back((0, 5, 0, limit + 1))
    # a basis without an int64 view takes the exact view, and an empty
    # basis leaves x0 as it is
    huge = dense_basis((((1 << 62), 1), (-(1 << 62), -1)),
                       IntMat(1, 2, ((1, -(1 << 62)),)))
    assert huge.int64_view is None
    assert drive((-(1 << 62), -1), huge) == (0, 0)
    assert kernels == [(True, (0, 0))]
    empty = graver_basis(IntMat.identity(2))
    assert len(empty) == 0 and drive([-3, 4], empty) == (-3, 4)
    assert not kernels


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
        A = nfold_matrix(st, n)
        out, _ = find_feasible(A, rhs.concat(), nfold_graver(st, n))
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


def test_the_nfold_wrapper_adds_nothing():
    # for n <= 6 nfold_graver completes the n-fold matrix itself, so
    # solve_ip with no basis solves the same system with the same basis
    rng = random.Random(19)
    statuses = set()
    for _ in range(40):
        st = _random_bounded_stencil(rng)
        n = rng.randint(1, 3)
        A = nfold_matrix(st, n)
        if rng.random() < 0.6:  # the margins of a random point
            b = mat_vec(A, tuple(rng.randint(0, 2) for _ in range(A.cols)))
        else:
            b = tuple(rng.randint(0, 4) for _ in range(A.rows))
        rhs = NFoldRhs.make(b[:st.r], [b[k:k + st.s]
                                       for k in range(st.r, A.rows, st.s)])
        w = tuple(rng.randint(-3, 3) for _ in range(A.cols))
        out = solve_nfold_ip(st, n, w, rhs)
        statuses.add(out.status)
        assert out == solve_ip(A, b, w)
    assert statuses == {OPTIMAL, INFEASIBLE}


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


def test_rhs_shape_is_checked_before_the_basis_is_built(monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("built a basis for a malformed right-hand side")

    for module in (ipsolve, convexopt):
        monkeypatch.setattr(module, "nfold_graver", build)
    monkeypatch.setattr(ipsolve, "solve_integer", build)
    stencil = NFoldStencil(IntMat(1, 2, ((1, 1),)), IntMat(1, 2, ((1, 0),)))
    weights = ObjectiveWeights.make([(1, 0, 0, 1)])
    # three layers for n = 2, then a layer of the wrong length
    for rhs in (NFoldRhs.make((3,), [(1,), (1,), (1,)]),
                NFoldRhs.make((3,), [(1,), (1, 2)])):
        with pytest.raises(DimensionMismatchError):
            solve_nfold_ip(stencil, 2, (1, 0, 0, 1), rhs)
        with pytest.raises(DimensionMismatchError):
            solve_convex_nfold(stencil, 2, weights, rhs,
                               SquaredNormObjective())


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
