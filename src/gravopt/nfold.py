"""n-fold matrix constructors and their Graver bases via stabilization.

A stencil is a fixed (r+s) x t matrix split into a coupling block A1 and
a per-layer block A2.  The n-fold matrix repeats A1 across all n column
blocks and places A2 block-diagonally.  For n beyond the stencil's
Graver complexity, the basis of the big matrix is obtained by lifting the
basis at the complexity level: every element there is placed, brick by
brick, into every increasing choice of layers.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .config import DEFAULT_CONFIG, RunConfig
from .errors import DimensionMismatchError, ResourceLimitError
from .graver import GraverBasis, graver_basis
from .intlinalg import IntMat, IntVec, mat_vec


@dataclass(frozen=True)
class NFoldStencil:
    """The fixed (r+s) x t matrix, split: A1 holds the top r coupling
    rows, A2 the bottom s per-layer rows."""

    A1: IntMat
    A2: IntMat

    def __post_init__(self):
        if self.A1.cols != self.A2.cols:
            raise DimensionMismatchError(
                f"A1 has {self.A1.cols} columns, A2 has {self.A2.cols}")

    @property
    def r(self) -> int:
        return self.A1.rows

    @property
    def s(self) -> int:
        return self.A2.rows

    @property
    def t(self) -> int:
        return self.A1.cols


@dataclass(frozen=True)
class NFoldRhs:
    """Right-hand side split as the coupling part b0 (length r) and one
    length-s vector per layer."""

    b0: tuple
    layer_rhs: tuple  # tuple of length-s tuples

    @classmethod
    def make(cls, b0: Sequence[int], layer_rhs: Sequence[Sequence[int]]) -> "NFoldRhs":
        return cls(tuple(int(v) for v in b0),
                   tuple(tuple(int(v) for v in layer) for layer in layer_rhs))

    @property
    def n(self) -> int:
        return len(self.layer_rhs)

    def concat(self) -> IntVec:
        out = list(self.b0)
        for layer in self.layer_rhs:
            out.extend(layer)
        return tuple(out)

    def check_shape(self, stencil: NFoldStencil, n: int) -> None:
        if len(self.b0) != stencil.r:
            raise DimensionMismatchError(
                f"b0 has length {len(self.b0)}, stencil needs {stencil.r}")
        if len(self.layer_rhs) != n:
            raise DimensionMismatchError(
                f"{len(self.layer_rhs)} layer right-hand sides for n={n}")
        for layer in self.layer_rhs:
            if len(layer) != stencil.s:
                raise DimensionMismatchError(
                    f"layer rhs of length {len(layer)}, stencil needs {stencil.s}")


def split_layers(x: Sequence[int], n: int, t: int) -> list:
    """View a flat length-n*t vector as its n bricks of length t."""
    if len(x) != n * t:
        raise DimensionMismatchError(f"vector of length {len(x)} is not {n}x{t}")
    return [tuple(x[k * t:(k + 1) * t]) for k in range(n)]


def brick_type(x: Sequence[int], n: int, t: int) -> int:
    """Number of nonzero bricks."""
    return sum(1 for b in split_layers(x, n, t) if any(b))


def nfold_matrix(stencil: NFoldStencil, n: int) -> IntMat:
    """The (r + n*s) x (n*t) matrix: A1 repeated across all column blocks
    on top, block-diagonal A2 below."""
    if n < 1:
        raise ValueError("n must be at least 1")
    r, s, t = stencil.r, stencil.s, stencil.t
    rows = []
    for i in range(r):
        rows.append(stencil.A1.data[i] * n)
    zero_t = (0,) * t
    for k in range(n):
        for i in range(s):
            rows.append(zero_t * k + stencil.A2.data[i] + zero_t * (n - k - 1))
    return IntMat(r + n * s, n * t, tuple(rows))


def nproduct(A: IntMat, n: int) -> IntMat:
    """n-fold matrix of I_t stacked over A; output is (t + n*s) x (n*t)."""
    return nfold_matrix(NFoldStencil(IntMat.identity(A.cols), A), n)


# bases and complexities kept per process; one stencil needs at most
# three bases (A2, the outer matrix, the level-g matrix) and one complexity
_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _cached_graver(A: IntMat, basis_cap: int) -> GraverBasis:
    cfg = RunConfig(basis_cap=basis_cap)
    return graver_basis(A, cfg)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def graver_complexity(stencil: NFoldStencil,
                      config: RunConfig = DEFAULT_CONFIG) -> int:
    """Largest brick type occurring in any n-fold basis of the stencil.

    Computed as the max 1-norm over the basis of the matrix whose columns
    are A1·h for h ranging over the basis of A2 (canonical order).  When
    either inner basis is empty the complexity degenerates to 1, the
    smallest value that keeps the lifting exhaustive.
    """
    inner = _cached_graver(stencil.A2, config.basis_cap)
    if not inner.elements:
        return 1
    cols = [mat_vec(stencil.A1, h) for h in inner.elements]
    B = IntMat(stencil.r, len(cols),
               tuple(tuple(c[i] for c in cols) for i in range(stencil.r)))
    outer = _cached_graver(B, config.basis_cap)
    if not outer.elements:
        return 1
    return max(sum(abs(a) for a in g) for g in outer.elements)


def _lift_basis(base: GraverBasis, g: int, n: int, t: int,
                config: RunConfig) -> list:
    """Place the nonzero bricks of every element of the level-g basis into
    every increasing choice of n layers."""
    budget = 0
    lifted = set()
    zero = (0,) * t
    for elem in base.elements:
        bricks = [b for b in split_layers(elem, g, t) if any(b)]
        tau = len(bricks)
        budget += math.comb(n, tau)
        if budget > config.lift_cap:
            raise ResourceLimitError(
                f"lifted basis placement count exceeds cap {config.lift_cap}")
        for positions in itertools.combinations(range(n), tau):
            layers = [zero] * n
            for pos, brick in zip(positions, bricks):
                layers[pos] = brick
            lifted.add(tuple(v for layer in layers for v in layer))
    return sorted(lifted)


# below this many layers direct completion is preferred; the Graver
# complexity (whose own computation can dwarf the completion) is then
# never consulted
_DIRECT_LAYERS = 6


def nfold_graver(stencil: NFoldStencil, n: int,
                 config: RunConfig = DEFAULT_CONFIG) -> GraverBasis:
    """Graver basis of nfold_matrix(stencil, n).

    Direct completion for few layers and up to the stencil's Graver
    complexity g, lifting from level g beyond that.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n <= _DIRECT_LAYERS or n <= (g := graver_complexity(stencil, config)):
        return _cached_graver(nfold_matrix(stencil, n), config.basis_cap)
    base = _cached_graver(nfold_matrix(stencil, g), config.basis_cap)
    lifted = _lift_basis(base, g, n, stencil.t, config)
    if len(lifted) > config.basis_cap:
        raise ResourceLimitError(
            f"lifted basis of {len(lifted)} elements exceeds cap {config.basis_cap}")
    return GraverBasis(tuple(lifted), nfold_matrix(stencil, n))
