"""Acceptance gate: ten numbered criteria, each printing one PASS/FAIL
line.  Oracles are exhaustive enumerations and fixed reference values;
tolerances are exact equality unless a runtime bound is stated."""

import itertools
import random
import time

from conftest import (enumerate_nfold, hull_extreme_points, hull_vertices_2d,
                      lifted_basis, random_matrix)
from gravopt.apps import (PackingInstance, PartitionInstance, build_packing,
                          build_partition, build_threeway, cluster_variance)
from gravopt.bruteforce import brute_convex_max, brute_force_graver
from gravopt.convexopt import (MaxLinearObjective, SquaredNormObjective,
                               solve_convex_nfold)
from gravopt.graver import graver_basis
from gravopt.intlinalg import IntMat, dot, mat_vec
from gravopt.ipsolve import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_nfold_ip
from gravopt.nfold import (NFoldRhs, NFoldStencil, graver_complexity,
                           nfold_matrix, nproduct)
from gravopt.zonotope import zonotope_vertices

TRANSPORT_2x2 = NFoldStencil(
    IntMat.identity(4),
    IntMat(4, 4, ((1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0), (0, 1, 0, 1))))

# criterion 7 feeds criterion 8: accumulated oracle-identity audit counters
IDENTITY_AUDIT = {"checks": 0, "failures": 0, "queries": 0}


def _report(capsys, criterion: int, ok: bool, detail: str):
    with capsys.disabled():
        print("[criterion {:>2}] {}: {}".format(
            criterion, "PASS" if ok else "FAIL", detail), flush=True)
    assert ok, detail


# -- 1 ----------------------------------------------------------------------

def test_criterion_01_graver_example_fidelity(capsys):
    t0 = time.perf_counter()
    basis = graver_basis(IntMat(1, 3, ((1, 2, 1),)))
    elapsed = time.perf_counter() - t0
    expected = {(2, -1, 0), (0, -1, 2), (1, 0, -1), (1, -1, 1)}
    expected |= {tuple(-a for a in v) for v in expected}
    ok = set(basis) == expected and elapsed < 1.0
    _report(capsys, 1, ok,
            f"basis of (1,2,1) has the 8 reference elements, "
            f"{elapsed * 1000:.1f} ms")


# -- 2 ----------------------------------------------------------------------

def test_criterion_02_nproduct_fidelity(capsys):
    t0 = time.perf_counter()
    got = nproduct(IntMat(1, 3, ((1, 1, 1),)), 3)
    elapsed = time.perf_counter() - t0
    expected = IntMat(6, 9, (
        (1, 0, 0, 1, 0, 0, 1, 0, 0),
        (0, 1, 0, 0, 1, 0, 0, 1, 0),
        (0, 0, 1, 0, 0, 1, 0, 0, 1),
        (1, 1, 1, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 1, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 1, 1, 1)))
    ok = got == expected and elapsed < 1.0
    _report(capsys, 2, ok,
            f"n-product of (1,1,1) with n=3 matches the 6x9 reference "
            f"entrywise, {elapsed * 1000:.1f} ms")


# -- 3 ----------------------------------------------------------------------

def test_criterion_03_graver_oracle_suite(capsys):
    rng = random.Random(1003)
    t0 = time.perf_counter()
    box = 3
    count, agree, full = 0, 0, 0
    while count < 200:
        A = random_matrix(rng, max_rows=3, max_cols=5, lo=-3, hi=3)
        count += 1
        basis = graver_basis(A)
        oracle = set(brute_force_graver(A, box))
        inside = {v for v in basis if max(map(abs, v)) <= box}
        if inside != oracle:
            break
        agree += 1
        maxnorm = max((max(map(abs, v)) for v in basis), default=0)
        if maxnorm <= box:
            full += 1
            if set(basis) != oracle:
                agree -= 1
                break
    elapsed = time.perf_counter() - t0
    ok = agree == count == 200 and elapsed < 300
    _report(capsys, 3, ok,
            f"{agree}/{count} random matrices agree with the box-{box} "
            f"brute-force basis ({full} verified in full), {elapsed:.1f} s")


# -- 4 ----------------------------------------------------------------------

def test_criterion_04_stabilization_consistency(capsys):
    stencils = [
        NFoldStencil(IntMat(1, 2, ((1, 0),)), IntMat(1, 2, ((1, -1),))),
        NFoldStencil(IntMat(1, 2, ((1, 1),)), IntMat(1, 2, ((1, -1),))),
        NFoldStencil(IntMat(1, 2, ((1, 2),)), IntMat(1, 2, ((1, 1),))),
        NFoldStencil(IntMat(2, 2, ((1, 0), (0, 1))),
                     IntMat(1, 2, ((1, -2),))),
        TRANSPORT_2x2,
    ]
    t0 = time.perf_counter()
    checked, agree = 0, 0
    for st in stencils:
        g = graver_complexity(st)
        for n in range(max(g, 1), g + 3):
            lifted = lifted_basis(st, n)
            direct = graver_basis(nfold_matrix(st, n))
            checked += 1
            if set(lifted) == set(direct):
                agree += 1
    elapsed = time.perf_counter() - t0
    ok = agree == checked and len(stencils) >= 5 and elapsed < 600
    _report(capsys, 4, ok,
            f"lifted == direct on {agree}/{checked} (stencil, n) pairs "
            f"across {len(stencils)} stencils, n up to g+2, {elapsed:.1f} s")


# -- 5 ----------------------------------------------------------------------

def _bounded_stencil(rng):
    t = rng.randint(2, 3)
    a1 = IntMat(1, t, (tuple(rng.randint(0, 2) for _ in range(t)),))
    rows = [(1,) * t]
    if rng.random() < 0.5:
        rows.append(tuple(rng.randint(-1, 2) for _ in range(t)))
    return NFoldStencil(a1, IntMat(len(rows), t, tuple(rows)))


def test_criterion_05_ip_oracle_suite(capsys):
    rng = random.Random(1005)
    t0 = time.perf_counter()
    total, agree, optimal_seen, infeasible_seen = 0, 0, 0, 0
    while total < 100:
        st = _bounded_stencil(rng)
        n = rng.randint(1, 3)
        x0 = tuple(rng.randint(0, 2) for _ in range(n * st.t))
        b0 = tuple(sum(mat_vec(st.A1, x0[k * st.t:(k + 1) * st.t])[i]
                       for k in range(n)) for i in range(st.r))
        layers = [mat_vec(st.A2, x0[k * st.t:(k + 1) * st.t])
                  for k in range(n)]
        if rng.random() < 0.3:  # mutate towards (possible) infeasibility
            b0 = tuple(v + rng.choice((-2, -1, 1, 2)) for v in b0)
        rhs = NFoldRhs.make(b0, layers)
        w = tuple(rng.randint(-3, 3) for _ in range(n * st.t))
        out = solve_nfold_ip(st, n, w, rhs)
        bounds = [tuple(max(layer[0], 0) for _ in range(st.t))
                  for layer in rhs.layer_rhs]
        pts = enumerate_nfold(st, rhs, bounds)
        total += 1
        if out.status == OPTIMAL:
            optimal_seen += 1
            if pts and out.value == max(dot(w, p) for p in pts) and \
                    mat_vec(nfold_matrix(st, n), out.x) == rhs.concat():
                agree += 1
        elif out.status == INFEASIBLE:
            infeasible_seen += 1
            if not pts:
                agree += 1
    # unbounded verdicts: certified rays on purpose-built instances
    ray_ok = 0
    st = NFoldStencil(IntMat(1, 2, ((0, 0),)), IntMat(1, 2, ((1, -1),)))
    for w in [(1, 1), (2, 3), (5, 0)]:
        out = solve_nfold_ip(st, 2, w * 2, NFoldRhs.make((0,), [(0,), (0,)]))
        g = out.certificate
        if out.status == UNBOUNDED and min(g) >= 0 and \
                dot(w * 2, g) > 0 and \
                mat_vec(nfold_matrix(st, 2), g) == (0, 0, 0):
            ray_ok += 1
    elapsed = time.perf_counter() - t0
    ok = agree == total == 100 and ray_ok == 3 and \
        infeasible_seen > 0 and optimal_seen > 0 and elapsed < 600
    _report(capsys, 5, ok,
            f"{agree}/{total} bounded instances match enumeration "
            f"({optimal_seen} optimal, {infeasible_seen} infeasible), "
            f"{ray_ok}/3 unbounded rays certified, {elapsed:.1f} s")


# -- 6 ----------------------------------------------------------------------

def test_criterion_06_zonotope_oracle_suite(capsys):
    rng = random.Random(1006)
    cases = [
        [(1, 0), (0, 1)],
        [(0, 0), (0, 0)],
        [(1, 1), (2, 2), (-1, -1), (0, 0)],        # parallel + zero
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(1, 2, 3), (2, 4, 6), (0, 0, 0)],          # parallel + zero, 3-D
    ]
    while len(cases) < 88:
        d = rng.choice([2, 3])
        k = rng.randint(1, 7 if d == 3 else 9)
        gens = [tuple(rng.randint(-2, 2) for _ in range(d))
                for _ in range(k)]
        cases.append(gens)
    while len(cases) < 100:  # wide planar families up to |D| = 12
        k = rng.randint(10, 12)
        cases.append([(rng.randint(-2, 2), rng.randint(-2, 2))
                      for _ in range(k)])
    t0 = time.perf_counter()
    agree = 0
    for gens in cases:
        d = len(gens[0])
        verts = zonotope_vertices(gens)
        got = [zv.vertex for zv in verts]
        if d == 2 and len(gens) > 7:
            pts = {tuple(sum(s * e[j] for s, e in zip(signs, gens))
                         for j in range(d))
                   for signs in itertools.product((1, -1), repeat=len(gens))}
            expected = hull_vertices_2d(pts)
        else:
            expected = hull_extreme_points(gens)
        strict = all(
            dot(v.certificate, v.vertex) > dot(v.certificate, u.vertex)
            for v in verts for u in verts if u.vertex != v.vertex)
        if got == expected and strict:
            agree += 1
    elapsed = time.perf_counter() - t0
    ok = agree == len(cases) == 100 and elapsed < 300
    _report(capsys, 6, ok,
            f"{agree}/{len(cases)} generator families match the "
            f"sign-enumeration hull with strict certificates, "
            f"{elapsed:.1f} s")


# -- 7 / 8 -------------------------------------------------------------------

def _transport_case(rng):
    p = q = 2
    n = rng.randint(1, 4)
    tab = [[[rng.randint(0, 2) for _ in range(n)] for _ in range(q)]
           for _ in range(p)]
    u = [[sum(tab[i][j]) for j in range(q)] for i in range(p)]
    v = [[sum(tab[i][j][k] for j in range(q)) for k in range(n)]
         for i in range(p)]
    z = [[sum(tab[i][j][k] for i in range(p)) for k in range(n)]
         for j in range(q)]
    stencil, rhs, codec = build_threeway(p, q, n, u, v, z)
    d = rng.randint(1, 2)
    arrays = [[[[rng.randint(-2, 2) for _ in range(n)] for _ in range(q)]
               for _ in range(p)] for _ in range(d)]
    weights = codec.encode_weights(arrays)
    bounds = [tuple(min(u[i][j], v[i][k], z[j][k])
                    for i in range(p) for j in range(q))
              for k in range(n)]
    return stencil, n, rhs, weights, bounds


def _packing_case(rng):
    wts = sorted(rng.sample([2, 3, 4, 5], k=rng.randint(1, 2)))
    counts = [rng.randint(1, 2) for _ in wts]
    # two real types make the per-bin knapsack bases grow quickly; keep
    # those at <= 3 bins (still within the t <= 3, bins <= 4 envelope)
    bins = rng.randint(2, 3 if len(wts) == 2 else 4)
    x = [[0] * bins for _ in wts]
    for j, c in enumerate(counts):
        for _ in range(c):
            x[j][rng.randrange(bins)] += 1
    caps = [sum(wts[j] * x[j][k] for j in range(len(wts))) + rng.randint(0, 2)
            for k in range(bins)]
    inst = PackingInstance.from_items(wts, counts, caps)
    stencil, rhs, codec = build_packing(inst)
    d = rng.randint(1, 2)
    arrays = [[[rng.randint(-2, 2) for _ in range(bins)] for _ in wts]
              for _ in range(d)]
    weights = codec.lift_utilities(arrays)
    bounds = [tuple(counts) + (caps[k],) for k in range(bins)]
    return stencil, bins, rhs, weights, bounds


def _partition_case(rng):
    n = rng.randint(4, 8) & ~1  # even, balanced split
    items = [tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(n)]
    inst = PartitionInstance.make(2, items, sizes=(n // 2, n - n // 2))
    stencil, rhs, weights, _codec = build_partition(inst)
    bounds = [(1, 1)] * n
    return stencil, n, rhs, weights, bounds


def test_criterion_07_end_to_end_convex_equivalence(capsys):
    rng = random.Random(1007)
    makers = [_transport_case, _packing_case, _partition_case]
    t0 = time.perf_counter()
    total, agree, replayed = 0, 0, 0
    per_family = {m.__name__: 0 for m in makers}
    while total < 102:
        maker = makers[total % 3]
        stencil, n, rhs, weights, bounds = maker(rng)
        if total % 2 == 0:
            objective = SquaredNormObjective()
        else:
            objective = MaxLinearObjective(tuple(
                tuple(rng.randint(-2, 2) for _ in range(weights.d))
                for _ in range(rng.randint(1, 3))))
        out = solve_convex_nfold(stencil, n, weights, rhs, objective)
        total += 1
        per_family[maker.__name__] += 1
        if out.status != "optimal":
            continue
        IDENTITY_AUDIT["checks"] += out.stats.identity_checks
        IDENTITY_AUDIT["queries"] += out.stats.oracle_queries
        pts = enumerate_nfold(stencil, rhs, bounds)
        bx, bz = brute_convex_max(pts, weights, objective)
        value_match = (objective.compare_leq(bz, out.z)
                       and objective.compare_leq(out.z, bz))
        feasible = out.x in pts and weights.project(out.x) == out.z
        if value_match and feasible:
            agree += 1
        if total % 6 == 0:
            replay = solve_convex_nfold(stencil, n, weights, rhs, objective)
            if replay.x == out.x and replay.z == out.z:
                replayed += 1
            else:
                agree = -10 ** 9  # determinism failure dominates
    elapsed = time.perf_counter() - t0
    ok = agree == total == 102 and replayed == total // 6 and \
        min(per_family.values()) >= 34 and elapsed < 900
    _report(capsys, 7, ok,
            f"{agree}/{total} instances (transport/pack/partition = "
            f"{per_family['_transport_case']}/{per_family['_packing_case']}/"
            f"{per_family['_partition_case']}) match exhaustive search; "
            f"{replayed} determinism replays, {elapsed:.1f} s")


def test_criterion_08_per_query_identity(capsys):
    ok = IDENTITY_AUDIT["checks"] > 0 and IDENTITY_AUDIT["failures"] == 0
    _report(capsys, 8, ok,
            f"{IDENTITY_AUDIT['checks']} identity assertions over "
            f"{IDENTITY_AUDIT['queries']} oracle queries, "
            f"{IDENTITY_AUDIT['failures']} failures")


# -- 9 ----------------------------------------------------------------------

def test_criterion_09_clustering_check(capsys):
    items = [(0, 0), (1, 0), (4, 0), (5, 0), (0, 3), (1, 3)]
    inst = PartitionInstance.make(2, items, sizes=(3, 3))
    stencil, rhs, weights, codec = build_partition(inst)
    out = solve_convex_nfold(stencil, inst.n, weights, rhs,
                             SquaredNormObjective())
    got = cluster_variance(inst, codec.decode(out.x))
    best = min(cluster_variance(inst,
                                (combo, tuple(i for i in range(6)
                                              if i not in combo)))
               for combo in itertools.combinations(range(6), 3))
    ok = out.status == "optimal" and got == best
    _report(capsys, 9, ok,
            f"pipeline variance {got} equals the exhaustive balanced "
            f"minimum {best} (exact rationals)")


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_polynomial_growth_smoke(capsys):
    rng = random.Random(1010)
    t0 = time.perf_counter()
    times = {}
    for n in (4, 8, 16, 32):
        tab = [[[rng.randint(0, 3) for _ in range(n)] for _ in range(2)]
               for _ in range(2)]
        u = [[sum(tab[i][j]) for j in range(2)] for i in range(2)]
        v = [[sum(tab[i][j][k] for j in range(2)) for k in range(n)]
             for i in range(2)]
        z = [[sum(tab[i][j][k] for i in range(2)) for k in range(n)]
             for j in range(2)]
        stencil, rhs, codec = build_threeway(2, 2, n, u, v, z)
        arrays = [[[[rng.randint(-2, 2) for _ in range(n)]
                    for _ in range(2)] for _ in range(2)]
                  for _ in range(2)]
        weights = codec.encode_weights(arrays)
        start = time.perf_counter()
        out = solve_convex_nfold(stencil, n, weights, rhs,
                                 SquaredNormObjective())
        times[n] = time.perf_counter() - start
        assert out.status == "optimal"
    ratios = [times[2 * n] / max(times[n], 0.05) for n in (4, 8, 16)]
    elapsed = time.perf_counter() - t0
    ok = all(r <= 8 for r in ratios) and elapsed < 600
    detail = ", ".join(f"n={n}: {times[n] * 1000:.0f} ms"
                       for n in (4, 8, 16, 32))
    _report(capsys, 10, ok,
            f"{detail}; per-doubling ratios "
            + ", ".join(f"{r:.2f}" for r in ratios) + " (cap 8)")
