"""The benchmark's workloads: seeded inputs, one timed op, and its check.

One op is one user-level call: an `apps` builder plus
`solve_convex_nfold`, or one `nfold-graver` command through
`gravopt.cli.dispatch`.  Inputs are drawn outside the timed op from
`(workload, seed, op index)`, so op i of a seed is the same instance in
every run.  Every result is checked by code that shares nothing with the
solver beyond the `apps` codecs; `bruteforce` and the checks are never
timed.

A workload must run with the caches of `gravopt.nfold` filled by
`warmup`, which is part of set-up, not of the timed loop.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import random

import numpy as np

from gravopt import apps, cli, convexopt
from gravopt.convexopt import SquaredNormObjective
from spans import untraced


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


class Transport:
    """Feasible 2x2xn line-sum tables: margins of a witness with entries
    0..3, two weight arrays in [-2, 2], squared-norm objective.  Every
    instance shares one stencil."""

    def __init__(self, n: int, anchor_ops: int):
        self.n = n
        self.anchor_ops = anchor_ops

    def make_input(self, seed: int, i: int) -> dict:
        rng = random.Random(f"transport/{self.n}/{seed}/{i}")
        n = self.n
        tab = [[[rng.randint(0, 3) for _ in range(n)] for _ in range(2)]
               for _ in range(2)]
        arrays = [[[[rng.randint(-2, 2) for _ in range(n)] for _ in range(2)]
                   for _ in range(2)] for _ in range(2)]
        return {
            "u": [[sum(tab[i][j]) for j in range(2)] for i in range(2)],
            "v": [[tab[i][0][k] + tab[i][1][k] for k in range(n)]
                  for i in range(2)],
            "z": [[tab[0][j][k] + tab[1][j][k] for k in range(n)]
                  for j in range(2)],
            "arrays": arrays,
        }

    def warmup(self) -> None:
        small = Transport(8, 1)
        small.op(small.make_input(0, 0), untraced)

    def op(self, inp: dict, span):
        with span("apps.build"):
            stencil, rhs, codec = apps.build_threeway(
                2, 2, self.n, inp["u"], inp["v"], inp["z"])
            weights = codec.encode_weights(inp["arrays"])
        with span("convexopt"):
            out = convexopt.solve_convex_nfold(
                stencil, self.n, weights, rhs, SquaredNormObjective())
        return codec, out

    def check(self, inp: dict, result) -> str:
        """Raise AssertionError unless the result is a feasible optimum
        whose z is the projection of x; return its digest."""
        codec, out = result
        n = self.n
        _require(out.status == "optimal", f"status {out.status}")
        _require(min(out.x) >= 0, "negative entry")
        t = codec.decode(out.x)  # t[i][j][k]
        _require(all(sum(t[i][j]) == inp["u"][i][j]
                     for i in range(2) for j in range(2)), "layer sums")
        _require(all(t[i][0][k] + t[i][1][k] == inp["v"][i][k]
                     for i in range(2) for k in range(n)), "row sums")
        _require(all(t[0][j][k] + t[1][j][k] == inp["z"][j][k]
                     for j in range(2) for k in range(n)), "column sums")
        z = tuple(sum(a[i][j][k] * t[i][j][k] for i in range(2)
                      for j in range(2) for k in range(n))
                  for a in inp["arrays"])
        _require(z == out.z, "z is not the projection of x")
        return _digest(out.status, out.x, out.z)


class Cluster:
    """Balanced 2-clustering of m seeded items in Z^3 (coordinates in
    [-2, 2]), squared-norm objective, which for equal sizes is minimum
    variance.  The span of the projected directions has rank 3, so the
    zonotope takes its general (LP-probing) path.  At m = 6 one op takes
    1.3-13 s depending on the draw, too few ops per run for a steady
    median; m = 4 takes about 0.1 s."""

    def __init__(self, m: int, anchor_ops: int):
        self.m = m
        self.anchor_ops = anchor_ops
        self.sizes = (m // 2, m // 2)

    def make_input(self, seed: int, i: int) -> list:
        rng = random.Random(f"cluster/{self.m}/{seed}/{i}")
        return [tuple(rng.randint(-2, 2) for _ in range(3))
                for _ in range(self.m)]

    def warmup(self) -> None:
        self.op(self.make_input(0, 0), untraced)

    def op(self, items: list, span):
        with span("apps.build"):
            inst = apps.PartitionInstance.make(2, items, self.sizes)
            stencil, rhs, weights, codec = apps.build_partition(inst)
        with span("convexopt"):
            out = convexopt.solve_convex_nfold(
                stencil, self.m, weights, rhs, SquaredNormObjective())
        return inst, codec, out

    def check(self, items: list, result) -> str:
        """Raise AssertionError unless the result is a balanced split of
        least variance whose z is the projection of x; return its digest."""
        inst, codec, out = result
        _require(out.status == "optimal", f"status {out.status}")
        _require(set(out.x) <= {0, 1}, "entry outside {0, 1}")
        _require(all(out.x[2 * k] + out.x[2 * k + 1] == 1
                     for k in range(self.m)), "item not assigned once")
        clusters = codec.decode(out.x)
        _require(tuple(len(c) for c in clusters) == self.sizes, "sizes")
        z = tuple(sum(items[i][j] for i in c) for c in clusters
                  for j in range(3))
        _require(z == out.z, "z is not the projection of x")
        everyone = set(range(self.m))
        best = min(apps.cluster_variance(inst, (c, tuple(sorted(everyone - set(c)))))
                   for c in itertools.combinations(range(self.m), self.sizes[0]))
        _require(apps.cluster_variance(inst, clusters) == best,
                 "variance above the brute-force minimum")
        return _digest(out.status, out.x, out.z)


# the 2x2 line-sum stencil in the CLI's text format: A1 = I_4 (cell sums
# over layers), A2 = row and column sums of each 2x2 layer
_LINE_SUM_STENCIL = """4 4 4
4 4
1 0 0 0
0 1 0 0
0 0 1 0
0 0 0 1
4 4
1 1 0 0
0 0 1 1
1 0 1 0
0 1 0 1
"""


class NFoldGraver:
    """`gravopt nfold-graver` on the 2x2 line-sum stencil, run in-process
    through `cli.dispatch`, writing to a file.  The input does not depend
    on the seed.  The basis is the n(n-1) elements +-(e_k - e_l) (x)
    (1, -1, -1, 1), so the output has C(n, 2) rows."""

    def __init__(self, n: int, workdir: str):
        self.n = n
        self.anchor_ops = 1
        self.stencil_path = os.path.join(workdir, "stencil.txt")
        self.output_path = os.path.join(workdir, "basis.txt")
        with open(self.stencil_path, "w", encoding="utf-8") as fh:
            fh.write(_LINE_SUM_STENCIL)
        self._verified = None  # digest of the last output checked in full

    def make_input(self, seed: int, i: int) -> int:
        return self.n

    def warmup(self) -> None:
        self.op(8, untraced)

    def op(self, n: int, span):
        with span("cli"):
            return cli.dispatch(["nfold-graver", "--stencil", self.stencil_path,
                                 "--n", str(n), "--output", self.output_path])

    def check(self, n: int, rc) -> str:
        """Raise AssertionError unless the command succeeded and wrote
        C(n, 2) distinct canonical kernel rows in sorted order; return the
        digest of the output bytes."""
        _require(rc == 0, f"exit code {rc}")
        with open(self.output_path, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        if digest != self._verified:
            self._verify_rows(n, data)
            self._verified = digest
        return digest

    def _verify_rows(self, n: int, data: bytes) -> None:
        text = [[int(v) for v in ln.split()] for ln in _LINE_SUM_STENCIL.splitlines()]
        a1, a2 = np.array(text[2:6]), np.array(text[7:11])
        t = a1.shape[1]
        lines = data.decode().splitlines()
        _require(lines[0].split() == [str(math.comb(n, 2)), str(n * t)],
                 f"header {lines[0]!r}")
        _require(len(lines) == 1 + math.comb(n, 2), "row count")
        prev = None
        for line in lines[1:]:
            row = tuple(int(v) for v in line.split())
            _require(len(row) == n * t, "row length")
            _require(prev is None or prev < row, "rows not strictly sorted")
            g = np.array(row, dtype=np.int64).reshape(n, t)
            _require(g.any(), "zero row")
            _require(g.flat[np.flatnonzero(g)[0]] > 0, "sign not canonical")
            _require(not (a1 @ g.sum(axis=0)).any(), "coupling rows")
            _require(not (g @ a2.T).any(), "layer rows")
            prev = row


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


# name -> factory(workdir); see BENCHMARK.json for why each was chosen
WORKLOADS = {
    "transport-2x2-n32": lambda workdir: Transport(32, anchor_ops=3),
    "cluster-2x3-m4": lambda workdir: Cluster(4, anchor_ops=20),
    "nfold-graver-n128": lambda workdir: NFoldGraver(128, workdir),
}

# toy sizes for the self-test (the cluster workload is already toy-sized)
TOY_WORKLOADS = {
    "transport-2x2-n8": lambda workdir: Transport(8, anchor_ops=3),
    "nfold-graver-n8": lambda workdir: NFoldGraver(8, workdir),
}


def make(name: str, workdir: str):
    """The workload called `name`, full-size or toy, using `workdir` for
    its files."""
    return {**WORKLOADS, **TOY_WORKLOADS}[name](workdir)
