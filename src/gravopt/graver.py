"""Conformal order and Graver bases by completion.

The basis of a matrix A is the set of conformally-minimal nonzero integer
vectors in ker(A).  It is computed by a Pottier-style normal-form
completion: seed with the signed lattice kernel basis, close under pair
sums reduced to conformal normal form, then filter to minimal elements.
The test oracle, a brute-force box enumeration of the same set, is
`bruteforce.brute_force_graver`.  A basis also carries, once the
projection or phase II first asks for it, an int64 view of itself
(`GraverBasis.int64_view`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import DimensionMismatchError, ResourceLimitError
from .intlinalg import IntMat, IntVec, lattice_kernel_basis, vec_sub


def conformal_leq(u: Sequence[int], v: Sequence[int]) -> bool:
    """True iff u and v lie in the same closed orthant and |u| <= |v|
    entrywise.  The zero vector is below everything."""
    if len(u) != len(v):
        raise DimensionMismatchError(
            f"conformal comparison of lengths {len(u)} and {len(v)}")
    for a, b in zip(u, v):
        if a * b < 0 or abs(a) > abs(b):
            return False
    return True


# phase II keeps every int64 product below this bound (ipsolve's guards)
INT64_BOUND = 1 << 62


class Int64View(NamedTuple):
    """A basis as int64 arrays, for the batched phase-II kernel
    (`ipsolve.augment_batch`) and the projection table
    (`convexopt.projection_table`).

    Element i's support is cols/vals[starts[i]:starts[i + 1]].  Column i
    of neg_cols/neg_mags (k x |G|, one row per negative-entry slot) holds
    element i's negative entries as (column, -value), padded to the
    longest such list with (n, 1): column n is a sentinel coordinate that
    phase II sets above every real step length.  The elements with a
    negative entry at coordinate j are readers[reader_starts[j]:
    reader_starts[j + 1]], and nonneg lists the elements with none, in
    canonical order.
    """

    cols: np.ndarray
    vals: np.ndarray
    starts: np.ndarray
    neg_cols: np.ndarray
    neg_mags: np.ndarray
    reader_starts: np.ndarray
    readers: np.ndarray
    nonneg: np.ndarray
    max_l1: int


def _int64_view(supports: tuple, n: int) -> Optional[Int64View]:
    if not supports:
        return None
    max_l1 = max(sum(abs(a) for _, a in s) for s in supports)
    if max_l1 >= INT64_BOUND:
        return None
    negs = [[(j, -a) for j, a in s if a < 0] for s in supports]
    k = max(1, max(map(len, negs)))
    readers: list = [[] for _ in range(n)]
    for i, neg in enumerate(negs):
        for j, _ in neg:
            readers[j].append(i)
    pad = [(n, 1)] * k
    padded = [(neg + pad)[:k] for neg in negs]
    return Int64View(
        cols=np.array([j for s in supports for j, _ in s], dtype=np.int64),
        vals=np.array([a for s in supports for _, a in s], dtype=np.int64),
        starts=np.cumsum([0] + [len(s) for s in supports], dtype=np.int64),
        neg_cols=np.array([[j for j, _ in neg] for neg in padded],
                          dtype=np.int64).T.copy(),
        neg_mags=np.array([[m for _, m in neg] for neg in padded],
                          dtype=np.int64).T.copy(),
        reader_starts=np.cumsum([0] + [len(r) for r in readers],
                                dtype=np.int64),
        readers=np.array([i for r in readers for i in r], dtype=np.int64),
        nonneg=np.array([i for i, neg in enumerate(negs) if not neg],
                        dtype=np.int64),
        max_l1=max_l1)


def _first_nonzero_positive(v: Sequence[int]) -> bool:
    for a in v:
        if a:
            return a > 0
    return False


@dataclass(frozen=True)
class GraverBasis:
    """Sign-symmetric set of conformally minimal kernel vectors of `source`.

    `elements` holds the full +/- set in lexicographic order (the canonical
    order used for every deterministic tie-break downstream).
    """

    elements: tuple  # tuple of IntVec, lex sorted, closed under negation
    source: IntMat

    @property
    def n(self) -> int:
        return self.source.cols

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def canonical_half(self) -> tuple:
        """One representative per +/- pair: first nonzero entry positive,
        lexicographically sorted.  This is the serialization order."""
        return tuple(v for v in self.elements if _first_nonzero_positive(v))

    @functools.cached_property
    def supports(self) -> tuple:
        """Per element, the (index, value) pairs of its nonzero entries.
        N-fold elements are very sparse; the augmentation inner loops run
        over these instead of the full vectors."""
        return tuple(tuple((j, a) for j, a in enumerate(g) if a)
                     for g in self.elements)

    @functools.cached_property
    def int64_view(self) -> Optional[Int64View]:
        """The basis as int64 arrays, built on first use;
        None when it is empty or a 1-norm reaches INT64_BOUND."""
        return _int64_view(self.supports, self.n)


def _normal_form(v: IntVec, basis: list) -> IntVec:
    """Subtract conformally-smaller basis elements until none applies."""
    changed = True
    while changed and any(v):
        changed = False
        for g in basis:
            if conformal_leq(g, v):
                v = vec_sub(v, g)
                changed = True
                if not any(v):
                    return v
    return v


def _minimal_filter(vectors) -> list:
    """Keep the conformally minimal vectors.  Processing by ascending
    1-norm makes a single pass sufficient: any strict minorant has a
    strictly smaller 1-norm."""
    kept: list = []
    for v in sorted(set(vectors), key=lambda w: (sum(abs(a) for a in w), w)):
        if not any(conformal_leq(h, v) for h in kept):
            kept.append(v)
    return kept


def graver_basis(A: IntMat, config: RunConfig = DEFAULT_CONFIG) -> GraverBasis:
    """Completion procedure for the full basis of A.

    Raises ResourceLimitError when the intermediate set would exceed
    config.basis_cap; never truncates silently.
    """
    kernel = lattice_kernel_basis(A)
    if not kernel:
        return GraverBasis((), A)
    basis: list = []
    for k in kernel:
        for s in (k, tuple(-a for a in k)):
            r = _normal_form(s, basis)
            if any(r):
                basis.append(r)
    pairs = [(i, j) for i in range(len(basis)) for j in range(i, len(basis))]
    head = 0
    while head < len(pairs):
        i, j = pairs[head]
        head += 1
        s = tuple(a + b for a, b in zip(basis[i], basis[j]))
        if not any(s):
            continue
        r = _normal_form(s, basis)
        if not any(r):
            continue
        for new in (r, tuple(-a for a in r)):
            idx = len(basis)
            basis.append(new)
            if len(basis) > config.basis_cap:
                raise ResourceLimitError(
                    f"Graver completion exceeded basis cap {config.basis_cap}")
            pairs.extend((k, idx) for k in range(idx + 1))
    minimal = _minimal_filter(basis)
    return GraverBasis(tuple(sorted(minimal)), A)
