"""Conformal order and Graver bases by completion.

The basis of a matrix A is the set of conformally-minimal nonzero integer
vectors in ker(A).  It is computed by a Pottier-style normal-form
completion: seed with the signed lattice kernel basis, close under pair
sums reduced to conformal normal form, then filter to minimal elements.
The critical pairs are streamed from the working set's indices
(`_critical_pairs`), never queued, so `RunConfig.basis_cap` on the
working set bounds the completion's memory too.

Every basis is held one way, as brick placements (`GraverBasis`): each
element is its nonzero bricks of width t and the increasing layers they
go to.  A completed basis places each element as one brick of width n at
layer 0; a lifted n-fold basis places the stencil-width bricks of its
level-g elements into every choice of layers.  The dense vectors are
built only when asked for.

A basis also carries two array views of itself, built when first asked
for: `GraverBasis.int64_view`, whose values are int64 and bounded, and
`GraverBasis.exact_view`, whose values are Python ints.  One builder,
`_view`, makes both from the basis's nonzero entries as (element,
column, value) arrays, which `GraverBasis._triples` reads off the
distinct bricks with numpy, a block of bricks at a time, and repeats
for every placement.  The augmentation kernels and the projection
`GraverBasis.project` run on either view; the exact view is built only
when a value is past an int64 guard.
"""

from __future__ import annotations

import functools
import itertools
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


# every int64 value of the view's users stays below this bound (the
# guards of ipsolve and convexopt)
INT64_BOUND = 1 << 62

# basis entries converted to int64 per block while the view is built
VIEW_BLOCK_ENTRIES = 1 << 16


class Int64View(NamedTuple):
    """A basis as arrays, for phase I (`ipsolve.drive_nonnegative`), the
    batched phase-II kernel (`ipsolve.augment_batch`) and the projection
    `GraverBasis.project`.  The index arrays are int64; the value arrays
    vals, supp_vals and neg_mags are int64 in the int64 view and hold
    Python ints (dtype object) in the exact view.

    Element i's support is cols/vals[starts[i]:starts[i + 1]], in column
    order.  Row i of supp_cols/supp_vals (|G| x k) holds the same entries
    padded to the longest support with (n, 1), and the elements whose
    support meets coordinate j are meets[meet_starts[j]:meet_starts[j + 1]]:
    phase I scores from the table and re-scores through this index, with
    a sentinel coordinate n that it keeps at zero.  Column i of
    neg_cols/neg_mags (k x |G|, one row per negative-entry slot) holds
    element i's negative entries as (column, -value), padded to the
    longest such list with copies of its first one, so a minimum over
    the slots is the minimum over the entries; an element with none is
    padded with (0, 1), which phase II never reads.  The elements with a
    negative entry at coordinate j are readers[reader_starts[j]:
    reader_starts[j + 1]], and nonneg lists the elements with none.
    Element ids ascend (canonical order) within every list.
    """

    cols: np.ndarray
    vals: np.ndarray
    starts: np.ndarray
    supp_cols: np.ndarray
    supp_vals: np.ndarray
    meet_starts: np.ndarray
    meets: np.ndarray
    neg_cols: np.ndarray
    neg_mags: np.ndarray
    reader_starts: np.ndarray
    readers: np.ndarray
    nonneg: np.ndarray
    max_l1: int


def _view(triples: Optional[tuple], size: int,
          n: int) -> Optional[Int64View]:
    """The view of a basis of `size` elements of length n, built from its
    nonzero entries `triples` = (elem, cols, vals), in element then
    column order; None when triples is None.  Values of dtype object give
    the exact view, which bounds nothing; int64 values give the int64
    view, None when an entry or a 1-norm reaches INT64_BOUND."""
    if triples is None:
        return None
    elem, cols, vals = triples
    exact = vals.dtype == object
    if not exact and (vals.min() <= -INT64_BOUND
                      or vals.max() >= INT64_BOUND):
        return None
    counts = np.bincount(elem, minlength=size)
    starts = _starts(counts)
    mags = np.abs(vals)
    # a 1-norm is at most max|a| * max(counts): summed in int64 below 2^63
    if not exact and int(mags.max()) * int(counts.max()) >= 1 << 63:
        mags = mags.astype(object)
    max_l1 = int(np.add.reduceat(mags, starts[:-1]).max())
    if not exact and max_l1 >= INT64_BOUND:
        return None
    neg = vals < 0
    neg_elem, neg_cols, neg_mags = elem[neg], cols[neg], -vals[neg]
    neg_counts = np.bincount(neg_elem, minlength=size)
    meet_starts, meets = _grouped(cols, elem, n)
    reader_starts, readers = _grouped(neg_cols, neg_elem, n)
    return Int64View(
        cols=cols, vals=vals, starts=starts,
        supp_cols=_padded(elem, counts, cols, n),
        supp_vals=_padded(elem, counts, vals, 1),
        meet_starts=meet_starts, meets=meets,
        neg_cols=_padded(neg_elem, neg_counts, neg_cols, 0, True).T.copy(),
        neg_mags=_padded(neg_elem, neg_counts, neg_mags, 1, True).T.copy(),
        reader_starts=reader_starts, readers=readers,
        nonneg=np.flatnonzero(neg_counts == 0),
        max_l1=max_l1)


def _starts(counts: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(counts)))


def _ranges(lo: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The concatenation of range(lo[i], lo[i] + count[i]) over i."""
    ends = np.cumsum(count)
    return (np.arange(ends[-1] if len(ends) else 0)
            + np.repeat(lo - ends + count, count))


def _grouped(keys: np.ndarray, ids: np.ndarray, size: int) -> tuple:
    """(starts, grouped): the ids with key j are grouped[starts[j]:
    starts[j + 1]], in their order in `ids`."""
    return (_starts(np.bincount(keys, minlength=size)),
            ids[np.argsort(keys, kind="stable")])


def _padded(elem: np.ndarray, counts: np.ndarray, values: np.ndarray,
            fill: int, repeat: bool = False) -> np.ndarray:
    """The |G| x max(1, max(counts)) table whose row i holds the values
    of element i's entries in order, then fill, or with `repeat` copies
    of its first value (fill only when it has none); elem ascends and
    counts holds its multiplicities."""
    table = np.full((len(counts), max(1, int(counts.max()))), fill,
                    dtype=values.dtype)
    first = np.cumsum(counts) - counts
    if repeat:
        has = counts > 0
        table[has] = values[first[has], None]
    table[elem, np.arange(len(elem)) - first[elem]] = values
    return table


@dataclass(frozen=True, eq=False)
class GraverBasis:
    """Sign-symmetric set of conformally minimal kernel vectors of `source`.

    The elements are held as brick placements: `placements` lists them
    in lexicographic order (the canonical order used for every
    deterministic tie-break downstream) as (bricks, positions) pairs,
    the element's nonzero bricks of width t and the increasing layers,
    of n // t, that they go to.  `graver_basis` places each element as
    one brick at layer 0 (t = n); a lifted n-fold basis
    (`nfold._lift_basis`) places stencil-width bricks.  The dense
    vectors `elements` are built only when asked for.  Two bases are
    equal when their sources and elements are, whatever their brick
    width.
    """

    placements: tuple  # of (bricks, positions), canonical order
    t: int
    source: IntMat

    @property
    def n(self) -> int:
        return self.source.cols

    def _dense(self, placement: tuple) -> IntVec:
        layers = [(0,) * self.t] * (self.n // self.t)
        for brick, pos in zip(*placement):
            layers[pos] = brick
        return tuple(itertools.chain.from_iterable(layers))

    @functools.cached_property
    def elements(self) -> tuple:
        """The dense vectors, closed under negation, in canonical order."""
        return tuple(map(self._dense, self.placements))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraverBasis):
            return NotImplemented
        return (self.source, self.elements) == (other.source, other.elements)

    def __hash__(self) -> int:
        return hash((self.source, self.elements))

    def __len__(self) -> int:
        return len(self.placements)

    def __getitem__(self, i: int) -> IntVec:
        return self._dense(self.placements[i])

    def __iter__(self):
        return iter(self.elements)

    def half_placements(self) -> list:
        """The placements of one representative per +/- pair, the one
        whose first nonzero entry (in its first brick) is positive, in
        canonical order."""
        return [p for p in self.placements if next(filter(None, p[0][0])) > 0]

    def canonical_half(self) -> tuple:
        """One representative per +/- pair: first nonzero entry positive,
        lexicographically sorted.  This is the serialization order."""
        return tuple(map(self._dense, self.half_placements()))

    def _triples(self, dtype) -> Optional[tuple]:
        """(elem, cols, vals): the nonzero entries, in element then column
        order, values of the given dtype; None when there are none or an
        entry is outside int64.  Each distinct brick is read once, a block
        of bricks at a time, so a one-brick basis's |G| x n array is never
        held whole; its entries are then repeated for every placement of
        the brick, shifted by t per layer."""
        placements = self.placements
        if not placements:
            return None
        ids: dict = {}
        slot_brick = np.array([ids.setdefault(brick, len(ids))
                               for bricks, _ in placements
                               for brick in bricks], dtype=np.int64)
        positions = np.fromiter(
            itertools.chain.from_iterable(p for _, p in placements),
            dtype=np.int64, count=len(slot_brick))
        elem = np.repeat(np.arange(len(placements)), np.fromiter(
            map(len, (p for _, p in placements)), dtype=np.int64,
            count=len(placements)))
        bricks, t = list(ids), self.t
        rows = max(1, VIEW_BLOCK_ENTRIES // max(t, 1))
        parts = []
        for lo in range(0, len(bricks), rows):
            chunk = bricks[lo:lo + rows]
            try:
                block = np.fromiter(itertools.chain.from_iterable(chunk),
                                    dtype=dtype, count=len(chunk) * t)
            except OverflowError:  # an entry outside int64
                return None
            i, j = np.nonzero(block.reshape(len(chunk), t))
            parts.append((i + lo, j, block[i * t + j]))
        brick, col, val = (np.concatenate(a) for a in zip(*parts))
        per_brick = np.bincount(brick, minlength=len(bricks))
        counts = per_brick[slot_brick]
        entries = _ranges(_starts(per_brick)[slot_brick], counts)
        return (np.repeat(elem, counts),
                col[entries] + np.repeat(positions * t, counts),
                val[entries])

    @functools.cached_property
    def int64_view(self) -> Optional[Int64View]:
        """The basis as int64 arrays, built on first use; None when it is
        empty or an entry or a 1-norm reaches INT64_BOUND."""
        return _view(self._triples(np.int64), len(self), self.n)

    @functools.cached_property
    def exact_view(self) -> Optional[Int64View]:
        """The basis as arrays with Python-int values, built on first use,
        when a value is past an int64 guard; None when it is empty."""
        return _view(self._triples(object), len(self), self.n)

    def project(self, rows: Sequence[Sequence[int]]) -> np.ndarray:
        """G.W^T as a |G| x d array for the d rows of W, row i the
        projection of elements[i]: one sum per element over the int64
        view when max|W| * max|g|_1 < INT64_BOUND, and over the exact
        view, in Python ints, otherwise; (0, d) when the basis is empty."""
        for w in rows:
            if len(w) != self.n:
                raise DimensionMismatchError(
                    f"objective rows of length {len(w)}, basis has "
                    f"{self.n} columns")
        view = self.int64_view
        top = max((abs(a) for w in rows for a in w), default=0)
        if view is None or top * view.max_l1 >= INT64_BOUND:
            view = self.exact_view
        if view is None:  # no elements
            return np.zeros((0, len(rows)), dtype=np.int64)
        W = np.array(rows, dtype=view.vals.dtype)
        return np.add.reduceat(W[:, view.cols] * view.vals,
                               view.starts[:-1], axis=1).T


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


def _critical_pairs(basis: list):
    """The pairs (i, j), i <= j, of a working set that grows while they
    are read, first in first out: the seeded upper triangle i-major, then
    (k, idx) for k = 0..idx, for each index idx appended since, in turn."""
    seeded = len(basis)
    for i in range(seeded):
        for j in range(i, seeded):
            yield i, j
    idx = seeded
    while idx < len(basis):
        for k in range(idx + 1):
            yield k, idx
        idx += 1


def graver_basis(A: IntMat, config: RunConfig = DEFAULT_CONFIG) -> GraverBasis:
    """Completion procedure for the full basis of A.

    Raises ResourceLimitError when the working set would exceed
    config.basis_cap; never truncates silently.
    """
    kernel = lattice_kernel_basis(A)
    if not kernel:
        return GraverBasis((), A.cols, A)
    basis: list = []
    for k in kernel:
        for s in (k, tuple(-a for a in k)):
            r = _normal_form(s, basis)
            if any(r):
                basis.append(r)
    for i, j in _critical_pairs(basis):
        s = tuple(a + b for a, b in zip(basis[i], basis[j]))
        if not any(s):
            continue
        r = _normal_form(s, basis)
        if not any(r):
            continue
        for new in (r, tuple(-a for a in r)):
            basis.append(new)
            if len(basis) > config.basis_cap:
                raise ResourceLimitError(
                    f"Graver completion exceeded basis cap {config.basis_cap}")
    minimal = _minimal_filter(basis)
    return GraverBasis(tuple(((v,), (0,)) for v in sorted(minimal)),
                       A.cols, A)
