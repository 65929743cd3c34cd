#!/usr/bin/env python3
"""End-to-end demo of the three application reductions and of a plain A.

Builds one transportation, one bin-packing, and one balanced-clustering
instance, solves each through the convex n-fold pipeline, and prints the
decoded solutions.  A last section solves a system given as a plain
matrix through the same pipeline (`solve_convex`) and checks it against
exhaustive search.  Everything is exact integer/rational arithmetic, so
the output is reproducible bit for bit.

Usage: python scripts/applications_demo.py
"""

from __future__ import annotations

from gravopt.apps import (PackingInstance, PartitionInstance, build_packing,
                          build_partition, build_threeway, cluster_variance)
from gravopt.bruteforce import EnumBudget, brute_convex_max, enumerate_feasible
from gravopt.convexopt import MaxLinearObjective, ObjectiveWeights, \
    SquaredNormObjective, solve_convex, solve_convex_nfold
from gravopt.intlinalg import IntMat


def transport_demo() -> None:
    print("== 2x2x3 transportation, squared-norm objective ==")
    u = [[3, 3], [3, 3]]                # sums over layers per cell
    v = [[2, 2, 2], [2, 2, 2]]          # per-layer row sums
    z = [[2, 2, 2], [2, 2, 2]]          # per-layer column sums
    stencil, rhs, codec = build_threeway(2, 2, 3, u, v, z)
    weights = codec.encode_weights([
        [[[1, 0, -1], [0, 1, 0]], [[0, -1, 1], [1, 0, 0]]],
        [[[0, 1, 0], [1, -1, 0]], [[-1, 0, 0], [0, 0, 1]]],
    ])
    out = solve_convex_nfold(stencil, 3, weights, rhs, SquaredNormObjective())
    print("status:", out.status)
    if out.is_optimal:
        table = codec.decode(out.x)
        for i, plane in enumerate(table):
            print(f"  x[{i}][j][k] =", plane)
        print("  composite point z =", out.z)
    print()


def packing_demo() -> None:
    print("== packing 4+3 items of weights 3,2 into 3 bins of capacity 7 ==")
    inst = PackingInstance.from_items(weights=(3, 2), counts=(4, 3),
                                      capacities=(7, 7, 7))
    stencil, rhs, codec = build_packing(inst)
    utilities = codec.lift_utilities([
        [[2, -1, 0], [1, 1, 1]],        # utility of each type per bin
        [[0, 1, 2], [-1, 0, 1]],
    ])
    out = solve_convex_nfold(stencil, inst.n, utilities, rhs,
                             MaxLinearObjective(((1, 1), (1, -1))))
    print("status:", out.status)
    if out.is_optimal:
        per_type = codec.decode(out.x)
        for j, row in enumerate(per_type[:-1]):
            print(f"  type {j} (weight {inst.weights[j]}) per bin:", row)
        print("  slack per bin:", per_type[-1])
    print()


def clustering_demo() -> None:
    print("== balanced 2-clustering of six points in the plane ==")
    items = ((0, 0), (1, 0), (0, 1), (5, 5), (6, 5), (5, 6))
    inst = PartitionInstance.make(2, items, sizes=(3, 3))
    stencil, rhs, weights, codec = build_partition(inst)
    out = solve_convex_nfold(stencil, inst.n, weights, rhs,
                             SquaredNormObjective())
    print("status:", out.status)
    if out.is_optimal:
        partition = codec.decode(out.x)
        best = min((cluster_variance(inst, q), q) for q in
                   _balanced_partitions(inst.n))[1]
        print("  solver clusters:", partition)
        print("  variance:", cluster_variance(inst, partition))
        print("  exhaustive optimum clusters:", best,
              "variance:", cluster_variance(inst, best))
    print()


def plain_matrix_demo() -> None:
    print("== plain matrix: x1+x2+x3 = 4, x1+2x2+x4 = 5, squared norm ==")
    A = IntMat(2, 4, ((1, 1, 1, 0), (1, 2, 0, 1)))
    b = (4, 5)
    weights = ObjectiveWeights.make([(1, -1, 0, 2), (0, 1, -2, 1)])
    out = solve_convex(A, b, weights, SquaredNormObjective())
    print("status:", out.status)
    if out.is_optimal:
        points = enumerate_feasible(A, b, EnumBudget(bounds=(4, 2, 4, 5)))
        bx, bz = brute_convex_max(points, weights, SquaredNormObjective())
        print("  solver x =", out.x, " z =", out.z)
        print("  exhaustive optimum over", len(points), "points: x =", bx,
              " z =", bz)
    print()


def _balanced_partitions(n: int):
    import itertools
    half = n // 2
    for first in itertools.combinations(range(n), half):
        rest = tuple(i for i in range(n) if i not in first)
        yield (first, rest)


if __name__ == "__main__":
    transport_demo()
    packing_demo()
    clustering_demo()
    plain_matrix_demo()
