"""Application encoders: multiway transportation, bin packing with slack
items, vector partitioning and balanced clustering.

Each builder returns the n-fold stencil, the right-hand side, and a codec
that maps solver vectors back to domain objects.  The layer coordinate is
always the last one; layer k of the flat vector is the k-th table slice,
bin, or item.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .convexopt import ObjectiveWeights
from .errors import (DimensionMismatchError, InfeasibleInstanceError)
from .intlinalg import IntMat
from .nfold import NFoldRhs, NFoldStencil


# ---------------------------------------------------------------------------
# 3-way transportation: p x q x n tables, all line sums fixed.

@dataclass(frozen=True)
class ThreeWayCodec:
    p: int
    q: int
    n: int

    def encode(self, table) -> tuple:
        """table[i][j][k] -> flat layer-major vector."""
        p, q, n = self.p, self.q, self.n
        if len(table) != p or any(len(plane) != q or any(
                len(line) != n for line in plane) for plane in table):
            raise DimensionMismatchError(f"table is not {p} x {q} x {n}")
        return tuple(table[i][j][k]
                     for k in range(n) for i in range(p) for j in range(q))

    def decode(self, x: Sequence[int]):
        p, q, n = self.p, self.q, self.n
        if len(x) != p * q * n:
            raise DimensionMismatchError("flat vector has the wrong length")
        return [[[x[k * p * q + i * q + j] for k in range(n)]
                 for j in range(q)] for i in range(p)]

    def encode_weights(self, arrays) -> ObjectiveWeights:
        return ObjectiveWeights.make([self.encode(a) for a in arrays])


def build_threeway(p: int, q: int, n: int, u, v, z):
    """Line-sum 3-way transportation as an n-fold system: `build_multiway`
    on p x q x n arrays with the margin family {{0,1}, {0,2}, {1,2}}.

    u is p x q (sums over layers), v is p x n and z is q x n (per-layer
    row and column sums).  Margin consistency is NOT checked here, nor
    are signs; an inconsistent instance simply comes back Infeasible from
    the solver.
    """
    if len(u) != p or any(len(row) != q for row in u):
        raise DimensionMismatchError("u must be p x q")
    if len(v) != p or any(len(row) != n for row in v):
        raise DimensionMismatchError("v must be p x n")
    if len(z) != q or any(len(row) != n for row in z):
        raise DimensionMismatchError("z must be q x n")
    margins = {(i, j, None): u[i][j] for i in range(p) for j in range(q)}
    margins.update(((i, None, k), v[i][k]) for i in range(p) for k in range(n))
    margins.update(((None, j, k), z[j][k]) for j in range(q) for k in range(n))
    # the constructor, not `make`, which rejects negative margins
    inst = MultiwayInstance((p, q), n, frozenset(map(frozenset, (
        {0, 1}, {0, 2}, {1, 2}))), margins)
    stencil, rhs, _ = build_multiway(inst)
    return stencil, rhs, ThreeWayCodec(p, q, n)


# ---------------------------------------------------------------------------
# k-way transportation for long arrays: m_1 x .. x m_{k-1} x n, any margin
# family.  Margin keys are length-k tuples with None marking a summed
# coordinate; the support is the set of positions that are not None.

@dataclass(frozen=True)
class MultiwayInstance:
    dims: tuple          # m_1 .. m_{k-1}, fixed sizes
    n: int               # layer count (last coordinate)
    family: frozenset    # frozenset of frozensets of coordinates 0..k-1
    margins: dict        # key tuple (len k, None = summed) -> value >= 0

    @classmethod
    def make(cls, dims, n, family, margins) -> "MultiwayInstance":
        dims = tuple(int(m) for m in dims)
        fam = frozenset(frozenset(f) for f in family)
        k = len(dims) + 1
        margins = {tuple(key): int(val) for key, val in margins.items()}
        for key, val in margins.items():
            if len(key) != k:
                raise DimensionMismatchError(f"margin key {key} is not length {k}")
            support = frozenset(i for i, idx in enumerate(key) if idx is not None)
            if support not in fam:
                raise ValueError(
                    f"margin key {key} has support outside the family")
            if val < 0:
                raise ValueError(f"negative margin value for {key}")
        return cls(dims, int(n), fam, margins)

    @property
    def k(self) -> int:
        return len(self.dims) + 1


@dataclass(frozen=True)
class MultiwayCodec:
    dims: tuple
    n: int

    @property
    def t(self) -> int:
        out = 1
        for m in self.dims:
            out *= m
        return out

    def cell_index(self, idx: Sequence[int]) -> int:
        pos = 0
        for i, m in zip(idx, self.dims):
            pos = pos * m + i
        return pos

    def cells(self):
        return itertools.product(*(range(m) for m in self.dims))

    def decode(self, x: Sequence[int]) -> dict:
        """Flat vector -> {(i_1..i_{k-1}, layer): value}."""
        t = self.t
        out = {}
        for k in range(self.n):
            for cell in self.cells():
                out[cell + (k,)] = x[k * t + self.cell_index(cell)]
        return out

    def encode(self, table: dict) -> tuple:
        """{(i_1..i_{k-1}, layer): value}, every cell once -> flat vector."""
        keys = [cell + (k,) for k in range(self.n) for cell in self.cells()]
        if table.keys() != set(keys):
            shape = " x ".join(map(str, (*self.dims, self.n)))
            raise DimensionMismatchError(
                f"table keys are not the {shape} cells")
        return tuple(map(table.__getitem__, keys))


def _margin_rows(codec: MultiwayCodec, support) -> list:
    """One row per index assignment on the support coordinates (all of
    which are table coordinates, not the layer)."""
    dims = codec.dims
    support = sorted(support)
    rows = []
    keys = []
    for assign in itertools.product(*(range(dims[i]) for i in support)):
        fixed = dict(zip(support, assign))
        row = [0] * codec.t
        for cell in codec.cells():
            if all(cell[i] == val for i, val in fixed.items()):
                row[codec.cell_index(cell)] = 1
        rows.append(tuple(row))
        keys.append(fixed)
    return rows, keys


def _margin_key(k: int, fixed: dict, layer: Optional[int]) -> tuple:
    key = [None] * k
    for i, val in fixed.items():
        key[i] = val
    if layer is not None:
        key[k - 1] = layer
    return tuple(key)


def build_multiway(inst: MultiwayInstance):
    """General margin family over long k-way arrays.  Family members that
    contain the layer coordinate become per-layer rows (A2); the rest sum
    over layers (A1).  Every margin with support in the family must be
    present."""
    k = inst.k
    layer_coord = k - 1
    codec = MultiwayCodec(inst.dims, inst.n)
    a1_rows, b0 = [], []
    a2_rows, layer_keys = [], []
    for support in sorted(inst.family, key=lambda f: sorted(f)):
        if layer_coord in support:
            rows, keys = _margin_rows(codec, support - {layer_coord})
            a2_rows.extend(rows)
            layer_keys.extend((support, fixed) for fixed in keys)
        else:
            rows, keys = _margin_rows(codec, support)
            a1_rows.extend(rows)
            for fixed in keys:
                b0.append(_lookup_margin(inst, _margin_key(k, fixed, None)))
    layers = []
    for layer in range(inst.n):
        vals = []
        for _support, fixed in layer_keys:
            vals.append(_lookup_margin(inst, _margin_key(k, fixed, layer)))
        layers.append(tuple(vals))
    t = codec.t
    A1 = IntMat(len(a1_rows), t, tuple(a1_rows))
    A2 = IntMat(len(a2_rows), t, tuple(a2_rows))
    stencil = NFoldStencil(A1, A2)
    return stencil, NFoldRhs.make(b0, layers), codec


def _lookup_margin(inst: MultiwayInstance, key: tuple) -> int:
    try:
        return inst.margins[key]
    except KeyError:
        raise ValueError(f"missing margin value for {key}") from None


# ---------------------------------------------------------------------------
# Bin packing with slack items.

@dataclass(frozen=True)
class PackingInstance:
    """t item types, the last being the slack type of weight one that
    absorbs unused capacity.  counts covers the t-1 real types; the slack
    count is derived from the residual capacity."""

    weights: tuple      # length t, positive; weights[-1] == 1 (slack)
    counts: tuple       # length t-1, items per real type
    capacities: tuple   # one per bin

    @classmethod
    def make(cls, weights, counts, capacities) -> "PackingInstance":
        weights = tuple(int(v) for v in weights)
        counts = tuple(int(v) for v in counts)
        capacities = tuple(int(v) for v in capacities)
        if len(weights) != len(counts) + 1:
            raise DimensionMismatchError(
                "need one more weight (the slack type) than counts")
        if any(v <= 0 for v in weights):
            raise ValueError("weights must be positive")
        if weights[-1] != 1:
            raise ValueError("the slack type must have weight 1")
        if any(c < 0 for c in counts) or any(u < 0 for u in capacities):
            raise ValueError("counts and capacities must be nonnegative")
        return cls(weights, counts, capacities)

    @classmethod
    def from_items(cls, weights, counts, capacities) -> "PackingInstance":
        """Convenience: real types only; appends the slack type."""
        return cls.make(tuple(weights) + (1,), counts, capacities)

    @property
    def t(self) -> int:
        return len(self.weights)

    @property
    def n(self) -> int:
        return len(self.capacities)

    def residual(self) -> int:
        return sum(self.capacities) - sum(c * w for c, w in
                                          zip(self.counts, self.weights))


@dataclass(frozen=True)
class PackingCodec:
    t: int
    n: int

    def decode(self, x: Sequence[int]):
        """Flat vector -> t x n matrix: items of each type per bin."""
        return [[x[k * self.t + j] for k in range(self.n)]
                for j in range(self.t)]

    def encode(self, matrix) -> tuple:
        return tuple(matrix[j][k] for k in range(self.n) for j in range(self.t))

    def lift_utilities(self, arrays) -> ObjectiveWeights:
        """d utility matrices over the real types, zero on slack."""
        rows = []
        for a in arrays:
            if len(a) != self.t - 1 or any(len(r) != self.n for r in a):
                raise DimensionMismatchError(
                    f"utility matrix is not {self.t - 1} x {self.n}")
            row = []
            for k in range(self.n):
                row.extend(a[j][k] for j in range(self.t - 1))
                row.append(0)
            rows.append(tuple(row))
        return ObjectiveWeights.make(rows)


def build_packing(inst: PackingInstance):
    """Stencil A1 = I_t (type counts shared across bins), A2 = the weight
    row (per-bin capacity).  Raises immediately when the items outweigh
    the total capacity."""
    residual = inst.residual()
    if residual < 0:
        raise InfeasibleInstanceError(
            f"items outweigh capacity by {-residual}")
    t = inst.t
    stencil = NFoldStencil(IntMat.identity(t),
                           IntMat(1, t, (inst.weights,)))
    b0 = inst.counts + (residual,)
    layers = [(u,) for u in inst.capacities]
    return stencil, NFoldRhs.make(b0, layers), PackingCodec(t, inst.n)


# ---------------------------------------------------------------------------
# Vector partition and balanced clustering.

@dataclass(frozen=True)
class PartitionInstance:
    players: int
    items: tuple          # item vectors in Z^k
    sizes: Optional[tuple]  # per-player sizes, or None for unconstrained

    @classmethod
    def make(cls, players, items, sizes=None) -> "PartitionInstance":
        items = tuple(tuple(int(v) for v in item) for item in items)
        if not items or len({len(v) for v in items}) != 1:
            raise DimensionMismatchError("item vectors must share a dimension")
        if sizes is not None:
            sizes = tuple(int(v) for v in sizes)
            if len(sizes) != players:
                raise DimensionMismatchError("one size per player required")
            if any(s < 0 for s in sizes):
                raise ValueError("sizes must be nonnegative")
            if sum(sizes) != len(items):
                raise ValueError("sizes must sum to the item count")
        return cls(int(players), items, sizes)

    @property
    def criteria(self) -> int:
        return len(self.items[0])

    @property
    def n(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class PartitionCodec:
    players: int
    n: int

    def decode(self, x: Sequence[int]) -> tuple:
        """0/1 assignment vector -> tuple of item-index tuples."""
        p = self.players
        clusters = [[] for _ in range(p)]
        for i in range(self.n):
            brick = x[i * p:(i + 1) * p]
            h = next(j for j, v in enumerate(brick) if v == 1)
            clusters[h].append(i)
        return tuple(tuple(c) for c in clusters)

    def encode(self, partition) -> tuple:
        p = self.players
        x = [0] * (p * self.n)
        for h, cluster in enumerate(partition):
            for i in cluster:
                x[i * p + h] = 1
        return tuple(x)


def build_partition(inst: PartitionInstance):
    """Each item is a layer with brick of length p; the column-sum-one
    constraint is the per-layer row of ones.  Constrained instances pin
    the per-player totals through the coupling identity."""
    p, k = inst.players, inst.criteria
    ones = IntMat(1, p, ((1,) * p,))
    if inst.sizes is None:
        stencil = NFoldStencil(IntMat(0, p, ()), ones)
        rhs = NFoldRhs.make((), [(1,)] * inst.n)
    else:
        stencil = NFoldStencil(IntMat.identity(p), ones)
        rhs = NFoldRhs.make(inst.sizes, [(1,)] * inst.n)
    rows = []
    for h in range(p):
        for j in range(k):
            row = [0] * (p * inst.n)
            for i in range(inst.n):
                row[i * p + h] = inst.items[i][j]
            rows.append(tuple(row))
    weights = ObjectiveWeights.make(rows)
    return stencil, rhs, weights, PartitionCodec(p, inst.n)


def cluster_variance(inst: PartitionInstance, partition) -> Fraction:
    """Sum over clusters of the mean squared distance to the cluster mean,
    exact rationals throughout.  Empty clusters are undefined."""
    seen = sorted(i for cluster in partition for i in cluster)
    if seen != list(range(inst.n)):
        raise ValueError("not a partition of the items")
    total = Fraction(0)
    for cluster in partition:
        if not cluster:
            raise ValueError("variance of an empty cluster is undefined")
        size = len(cluster)
        mean = [Fraction(sum(inst.items[i][j] for i in cluster), size)
                for j in range(inst.criteria)]
        total += Fraction(1, size) * sum(
            (Fraction(inst.items[i][j]) - mean[j]) ** 2
            for i in cluster for j in range(inst.criteria))
    return total
