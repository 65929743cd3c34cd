#!/usr/bin/env python3
"""Per-stage wall-clock times of `solve_convex_nfold` on seeded families.

Each solve is timed whole and stage by stage.  The stages are timed from
outside, by replacing module attributes with timing wrappers, so nothing
in gravopt changes:

  basis     nfold_graver (completion or lifting)
  lattice   solve_integer (phase I's lattice point)
  phase I   drive_nonnegative
  project   GraverBasis.project (the table P = G.W^T)
  zonotope  zonotope_vertices
  phase II  augment_batch as the driver calls it: every vertex query,
            with its scores C.P^T and start values

A stage's time is its self time: a wrapped call inside another one is
counted once, in the inner stage.  "loop" is the total minus the stages:
the comparison loop, the chunking, the projection of each distinct
replied point, and the probe.  The probe's single query reaches
augment_batch inside ipsolve, past the wrapper; its projection counts
under "project".  Times are in milliseconds, the median over --repeat
solves of each instance, after one untimed solve of it, which fills the
caches of completed bases and complexities.  The cached lifted basis and
echelon forms are dropped before each timed solve, so "basis" and
"lattice" time the lift and the echelon form cold, as the first solve on
a stencil pays them, and the tables stay comparable with those taken
before gravopt kept them.

Families (all with the squared-norm objective):

  t2, t3    2x2xn line-sum transport with d = 2 or 3 weight arrays,
            drawn as `tests/conftest.seeded_transport(n, d, 1010)` draws it
  cluster   balanced 2-clustering of m items in Z^3, drawn as the
            benchmark's cluster workload draws op 0 of seed 1
  threeway  2x3xn line-sum transport with d = 2

Usage:
  python scripts/stage_times.py                      # every family
  python scripts/stage_times.py t2:32,64 t3:8 --repeat 3
  python scripts/stage_times.py cluster:16 --json times.json
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gravopt import apps, convexopt, intlinalg, ipsolve, nfold  # noqa: E402
from gravopt.convexopt import SquaredNormObjective  # noqa: E402
from gravopt.graver import GraverBasis  # noqa: E402

# (stage, owner, attribute): the owner's attribute is replaced by a timer
STAGES = (
    ("basis", convexopt, "nfold_graver"),
    ("lattice", ipsolve, "solve_integer"),
    ("phase I", ipsolve, "drive_nonnegative"),
    ("project", GraverBasis, "project"),
    ("zonotope", convexopt, "zonotope_vertices"),
    ("phase II", convexopt, "augment_batch"),
)

# per-matrix products a repeat solve reuses, dropped before each timed one
COLD_CACHES = (nfold._lift_basis, intlinalg._echelon)

DEFAULT_SIZES = {
    "t2": (32, 64, 128, 256),
    "t3": (8, 16, 32),
    "cluster": (16, 24, 32, 48),
    "threeway": (8, 16, 32),
}


def _transport(p: int, q: int, n: int, d: int, rng: random.Random):
    """A feasible p x q x n line-sum instance: the margins of a table with
    entries 0..3, and d weight arrays in [-2, 2]."""
    tab = [[[rng.randint(0, 3) for _ in range(n)] for _ in range(q)]
           for _ in range(p)]
    u = [[sum(tab[i][j]) for j in range(q)] for i in range(p)]
    v = [[sum(tab[i][j][k] for j in range(q)) for k in range(n)]
         for i in range(p)]
    z = [[sum(tab[i][j][k] for i in range(p)) for k in range(n)]
         for j in range(q)]
    stencil, rhs, codec = apps.build_threeway(p, q, n, u, v, z)
    arrays = [[[[rng.randint(-2, 2) for _ in range(n)] for _ in range(q)]
               for _ in range(p)] for _ in range(d)]
    return stencil, n, codec.encode_weights(arrays), rhs


def instance(family: str, size: int) -> tuple:
    """(stencil, n, weights, rhs) of the family at the given size."""
    if family in ("t2", "t3"):
        return _transport(2, 2, size, int(family[1]), random.Random(1010))
    if family == "threeway":
        return _transport(2, 3, size, 2, random.Random(2300 + size))
    if family == "cluster":
        rng = random.Random(f"cluster/{size}/1/0")
        items = [tuple(rng.randint(-2, 2) for _ in range(3))
                 for _ in range(size)]
        inst = apps.PartitionInstance.make(2, items, (size // 2, size // 2))
        stencil, rhs, weights, _codec = apps.build_partition(inst)
        return stencil, size, weights, rhs
    raise ValueError(f"unknown family {family!r}")


class StageTimer:
    """Self times of the wrapped stages, and the sizes they return."""

    def __init__(self):
        self.times = {name: 0.0 for name, _, _ in STAGES}
        self.sizes: dict = {}
        self._stack: list = []  # [child time] per open call
        self._saved: list = []

    def _wrap(self, name, fn):
        def timed(*args, **kwargs):
            self._stack.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                self.times[name] += spent - self._stack.pop()
                if self._stack:
                    self._stack[-1] += spent
            if name in ("basis", "zonotope"):
                self.sizes[name] = len(out)
            return out
        return timed

    def __enter__(self):
        for name, owner, attr in STAGES:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


def time_solve(family: str, size: int) -> dict:
    """One timed solve: ms per stage, loop and total, |G| and vertices."""
    stencil, n, weights, rhs = instance(family, size)
    for cache in COLD_CACHES:
        cache.cache_clear()
    with StageTimer() as timer:
        start = perf_counter()
        out = convexopt.solve_convex_nfold(stencil, n, weights, rhs,
                                           SquaredNormObjective())
        total = perf_counter() - start
    if not out.is_optimal:
        raise RuntimeError(f"{family}:{size} returned {out.status}")
    row = {name: 1000 * t for name, t in timer.times.items()}
    row["loop"] = 1000 * total - sum(row.values())
    row["total"] = 1000 * total
    row["|G|"] = timer.sizes.get("basis", 0)
    row["vertices"] = timer.sizes.get("zonotope", 0)
    return row


COLUMNS = ("|G|", "vertices", *(name for name, _, _ in STAGES), "loop",
           "total")


def median_row(family: str, size: int, repeat: int) -> dict:
    time_solve(family, size)  # fills the caches of completed bases
    runs = [time_solve(family, size) for _ in range(repeat)]
    return {key: statistics.median(run[key] for run in runs)
            for key in COLUMNS}


def parse_spec(spec: str) -> tuple:
    family, _, sizes = spec.partition(":")
    if family not in DEFAULT_SIZES:
        raise argparse.ArgumentTypeError(f"unknown family {family!r}")
    if not sizes:
        return family, DEFAULT_SIZES[family]
    return family, tuple(int(s) for s in sizes.split(","))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("specs", nargs="*", type=parse_spec,
                        metavar="FAMILY[:SIZE,...]",
                        help="families t2, t3, cluster, threeway "
                             "(default: all, at their default sizes)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="solves per instance; the median is shown")
    parser.add_argument("--json", help="also write the rows to this file")
    args = parser.parse_args(argv)
    specs = args.specs or list(DEFAULT_SIZES.items())
    print("| family | size | " + " | ".join(COLUMNS) + " |")
    print("|---" * (len(COLUMNS) + 2) + "|")
    rows = []
    for family, sizes in specs:
        for size in sizes:
            row = median_row(family, size, args.repeat)
            rows.append({"family": family, "size": size, **row})
            cells = [f"{row[key]:.0f}" for key in COLUMNS]
            print(f"| {family} | {size} | " + " | ".join(cells) + " |",
                  flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
