"""Independent desk-scale oracles: exhaustive lattice enumeration and
exhaustive convex maximization.

These deliberately share no search code with the main pipeline; the
verify command and the test suite compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .convexopt import ConvexObjective, ObjectiveWeights
from .errors import DimensionMismatchError, ResourceLimitError
from .intlinalg import IntMat

_CHUNK = 65536


@dataclass(frozen=True)
class EnumBudget:
    max_points: int = 1_000_000
    bounds: Optional[tuple] = None  # per-variable upper bounds, x_j in [0, bound_j]

    def __post_init__(self):
        if self.max_points <= 0:
            raise ValueError("max_points must be positive")
        if self.bounds is not None and any(b < 0 for b in self.bounds):
            raise ValueError("bounds must be nonnegative")


def enumerate_feasible(A: IntMat, b: Sequence[int],
                       budget: EnumBudget = EnumBudget()) -> list:
    """All x in the budget box with Ax = b, x >= 0, lexicographic order.

    Default per-variable bound is max|b_i|, which is valid for the
    nonnegative margin-style systems in scope (each variable appears with
    coefficient one in some margin equation); pass explicit bounds for
    anything else.
    """
    if len(b) != A.rows:
        raise DimensionMismatchError("rhs length != row count")
    n = A.cols
    bounds = budget.bounds
    if bounds is None:
        cap = max((abs(v) for v in b), default=0)
        bounds = (cap,) * n
    if len(bounds) != n:
        raise DimensionMismatchError("bounds length != column count")
    total = 1
    for bound in bounds:
        total *= bound + 1
        if total > budget.max_points:
            raise ResourceLimitError(
                f"box of {total}+ points exceeds budget {budget.max_points}")
    if n == 0:  # the one point, the empty one: np.unravel_index has none
        return [()] if not any(b) else []
    # int64 holds every product and sum below when both bounds are met
    big = max([1] + [abs(v) for row in A.data for v in row])
    fits = (big * (sum(bounds) + 1) < 2 ** 60
            and max(map(abs, b), default=0) < 2 ** 60)
    dtype = np.int64 if fits else object
    mat = np.array(A.data, dtype=dtype).reshape(A.rows, n)
    target = np.array(b, dtype=dtype)
    dims = tuple(bound + 1 for bound in bounds)
    out = []
    for start in range(0, total, _CHUNK):
        # C order of the flat index is itertools.product order
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        pts = np.stack(np.unravel_index(idx, dims), axis=1)
        mask = (pts.astype(dtype, copy=False) @ mat.T == target).all(axis=1)
        out.extend(map(tuple, pts[mask].tolist()))
    return out


def brute_convex_max(points: Sequence[Sequence[int]],
                     weights: ObjectiveWeights,
                     objective: ConvexObjective):
    """Exhaustive argmax of the composed objective, with the pipeline's
    tie-break (smallest projected point, then smallest solution)."""
    if not points:
        raise ValueError("empty point list")
    best = None  # (z, x)
    for x in points:
        x = tuple(x)
        z = weights.project(x)
        if best is None or objective.strictly_better(z, best[0]) or \
                (objective.compare_leq(best[0], z) and (z, x) < best):
            best = (z, x)
    return best[1], best[0]

