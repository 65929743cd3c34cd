"""Linear integer programming by Graver-basis augmentation.

On Python ints both phases run one greedy loop, `_best_steps`: one
integer score per candidate in canonical basis order, a step along the
first largest positive score, then re-scores of only the candidates that
read a moved coordinate.  The phases differ only in the candidates, what
each score reads, and the score.  Phase II: the improving elements, read
at their negative entries, scored lam*(w.g) at the longest feasible step
lam; an improving nonnegative element certifies unboundedness.  Phase I,
from a lattice solution: every element, read on its support, scored by
its best gain in the penalty sum_j min(x_j, 0).  The penalty is concave,
integer and at most zero, so augmentation terminates, and conformal
decomposability of coset differences makes a local optimum global.

Both phases normally run on the basis's int64 view
(`GraverBasis.int64_view`, built on first use: in a solve, by phase I);
the exact loop, over the Python `GraverBasis.supports`, is their
fallback.  Phase I scores every element once from the padded support
table, PENALTY_BLOCK_ENTRIES (element, candidate lam, entry) values at a
time: the gain sum_j min(x_j + lam*a_j, 0) - min(x_j, 0) at lam = 1 and
at the integer neighbours of every kink -x_j/a_j, the largest gain with
the smallest lam among its maximizers, and (0, 0) where no positive entry
sits at a negative coordinate, as `_best_negpart_step` scores on Python
ints.  `argmax` takes the first largest gain (the canonical-order
tie-break), and after a move only the elements whose support meets a
moved coordinate are re-scored.  Every candidate lam is at most
max|x| + 1, so each int64 value of a score, and each coordinate a step
writes, is at most max|g|_1 * (2 max|x| + 1), kept below 2^62: phase I
starts only when max|x0| is within that bound, and a step that writes a
coordinate past it sends the whole phase back to the exact loop from x0.

Phase II runs one batched kernel on the view: `augment_to_optimum`
gives it one objective, and `augment_batch` gives it many that share the
start x0, as the convex driver's vertex queries do.  The kernel takes a
Q x |G| array of the values w_q.g and steps all Q rows in lockstep, each
by the greedy rules above: the first nonnegative element with w.g > 0
(canonical order) certifies unboundedness, `argmax` takes a row's first
largest score lam*max(w.g, 0) (the canonical-order tie-break), and
lam = score // w.g.  A move is applied through the CSR supports; only
the (row, element) pairs whose element has a negative entry at a moved
coordinate and w.g > 0 are re-scored, by flat gathers over the
negative-entry columns.  Every int64 product stays below 2^62.  The
values w.g are exact: for one objective max|w| * max|g|_1 is below 2^62,
and a batch's caller guards its own.  A row starts only when
max(x0) <= limit = (2^62 - 1) // max(w.g), and a step may not carry a
coordinate past limit; for a positive entry a that is checked as
lam > (limit - x_j) // a, which cannot overflow.  A row whose guard
trips is re-run on the exact loop from x0 while the other rows keep
stepping, and a negative entry in x0 sends every row there; the greedy
is deterministic, so the outcome is the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import DimensionMismatchError, InternalInconsistencyError
from .graver import INT64_BOUND, GraverBasis, Int64View, graver_basis
from .intlinalg import IntMat, dot, solve_integer
from .nfold import NFoldRhs, NFoldStencil, nfold_graver, nfold_matrix

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# (element, candidate, support slot) entries per block of phase-I scores
PENALTY_BLOCK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class SolveOutcome:
    """Three-way verdict.  Unbounded outcomes carry a certificate ray g
    with Ag = 0, g >= 0 and positive objective gain."""

    status: str
    x: Optional[tuple] = None
    value: Optional[int] = None
    certificate: Optional[tuple] = None

    @classmethod
    def optimal(cls, x: Sequence[int], value: int) -> "SolveOutcome":
        return cls(OPTIMAL, tuple(x), value)

    @classmethod
    def infeasible(cls) -> "SolveOutcome":
        return cls(INFEASIBLE)

    @classmethod
    def unbounded(cls, certificate: Sequence[int]) -> "SolveOutcome":
        return cls(UNBOUNDED, certificate=tuple(certificate))

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def _best_steps(x: list, supports, reads, score):
    """The greedy loop of both phases (module docstring), over the list x.
    score(i) reads x only at the indices of the pairs `reads[i]`; for each
    yielded (i, score) the caller moves x along `supports[i]`."""
    scores = [score(i) for i in range(len(supports))]
    readers: list = [[] for _ in x]
    for i, pairs in enumerate(reads):
        for j, _ in pairs:
            readers[j].append(i)
    while True:
        best = max(range(len(scores)), key=scores.__getitem__, default=None)
        if best is None or scores[best] <= 0:
            return
        yield best, scores[best]
        for i in {i for j, _ in supports[best] for i in readers[j]}:
            scores[i] = score(i)


def augment_to_optimum(x0: Sequence[int], basis: GraverBasis,
                       w: Sequence[int]) -> SolveOutcome:
    """Greedy best Graver augmentation from a feasible x0.

    Each step picks, among improving basis elements, the pair (g, lam)
    maximizing lam*(w.g), ties broken by canonical basis order; a
    nonnegative improving element is returned as an unboundedness
    certificate instead.  Runs on the basis's int64 view when the guards
    of the module docstring hold, and on the exact loop otherwise.
    """
    if len(w) != len(x0):
        raise DimensionMismatchError("objective length != point length")
    _check_point(x0, basis)
    view = basis.int64_view
    if (view is None or min(x0) < 0
            or max(map(abs, w)) * view.max_l1 >= INT64_BOUND):
        return _augment_exact(x0, basis, w)
    out = _augment_one(x0, basis, view, w)
    return _augment_exact(x0, basis, w) if out is None else out


def augment_batch(x0: Sequence[int], basis: GraverBasis, wg: np.ndarray,
                  objectives: Sequence[Sequence[int]]) -> list:
    """`augment_to_optimum(x0, basis, w)` for every w in `objectives`.

    Row q of the int64 array wg holds objectives[q].g for every basis
    element g, in canonical order; the caller computes it exactly.  The
    rows step in lockstep on the int64 view, and a row whose guard trips
    is re-run on the exact loop (module docstring).
    """
    _check_point(x0, basis)
    view = basis.int64_view
    if view is None or min(x0) < 0:
        outs = [None] * len(objectives)
    else:
        outs = _augment_rows(x0, basis, view, wg, objectives)
    return [_augment_exact(x0, basis, w) if out is None else out
            for out, w in zip(outs, objectives)]


def _check_point(x0: Sequence[int], basis: GraverBasis) -> None:
    if len(x0) != basis.n:
        raise DimensionMismatchError(
            f"point of length {len(x0)}, basis has {basis.n} columns")


def _augment_one(x0: Sequence[int], basis: GraverBasis, view: Int64View,
                 w: Sequence[int]) -> Optional[SolveOutcome]:
    """The int64 kernel on the one objective w; None if a guard trips."""
    wg = np.add.reduceat(np.array(w, dtype=np.int64)[view.cols] * view.vals,
                         view.starts[:-1])
    return _augment_rows(x0, basis, view, wg[None, :], (w,))[0]


def _ranges(lo: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The concatenation of range(lo[i], lo[i] + count[i]) over i."""
    ends = np.cumsum(count)
    return (np.arange(ends[-1] if len(ends) else 0)
            + np.repeat(lo - ends + count, count))


def _gains(x: np.ndarray, view: Int64View, wg: np.ndarray,
           pairs: np.ndarray) -> np.ndarray:
    """Score lam*(w.g) of each (row, element) pair, given by its flat
    index into wg; lam is the longest step keeping the row's point x[row]
    nonnegative, and x carries the sentinel column."""
    rows, elems = np.divmod(pairs, wg.shape[1])
    base = rows * x.shape[1]
    lam = x.take(base + view.neg_cols[0].take(elems)) \
        // view.neg_mags[0].take(elems)
    for cols, mags in zip(view.neg_cols[1:], view.neg_mags[1:]):
        np.minimum(lam, x.take(base + cols.take(elems)) // mags.take(elems),
                   out=lam)
    return lam * wg.take(pairs)


def _augment_rows(x0: Sequence[int], basis: GraverBasis, view: Int64View,
                  wg: np.ndarray, objectives: Sequence[Sequence[int]]) -> list:
    """The batched int64 kernel (module docstring): entry q is row q's
    outcome, or None where a guard tripped.  x0 is nonnegative."""
    outs: list = [None] * len(wg)
    ray = wg[:, view.nonneg] > 0
    tops = wg.max(axis=1).tolist()
    high = max(x0)
    live = []
    for q, top in enumerate(tops):
        if ray[q].any():
            outs[q] = SolveOutcome.unbounded(
                basis.elements[view.nonneg[ray[q].argmax()]])
        elif top <= 0:
            outs[q] = SolveOutcome.optimal(x0, dot(objectives[q], x0))
        elif high <= (INT64_BOUND - 1) // top:
            live.append(q)
    if not live:
        return outs
    ids = np.array(live)
    wg = wg[ids]
    limit = (INT64_BOUND - 1) // wg.max(axis=1)
    x = np.tile(np.array([*x0, INT64_BOUND], dtype=np.int64), (len(ids), 1))
    n, size = basis.n, wg.shape[1]
    hot = wg > 0
    scores = np.zeros_like(wg)
    pairs = np.flatnonzero(hot)
    np.put(scores, pairs, _gains(x, view, wg, pairs))
    tripped = np.zeros(len(ids), dtype=bool)
    while True:
        best = scores.argmax(axis=1)  # the first maximum: canonical order
        gain = scores[np.arange(len(ids)), best]
        done = gain <= 0
        for q, row in zip(ids[done], x[done]):
            xq = tuple(row[:n].tolist())
            outs[q] = SolveOutcome.optimal(xq, dot(objectives[q], xq))
        stop = done | tripped
        if stop.all():
            return outs
        if stop.any():
            keep = ~stop
            ids, wg, hot, limit, x, scores, best, gain = (
                a[keep] for a in (ids, wg, hot, limit, x, scores, best, gain))
        rows = np.arange(len(ids))
        lam = gain // wg[rows, best]
        lo = view.starts[best]
        count = view.starts[best + 1] - lo
        rows = np.repeat(rows, count)
        entries = _ranges(lo, count)
        cols, vals = view.cols[entries], view.vals[entries]
        steps = np.repeat(lam, count)
        flat = rows * (n + 1) + cols
        old = x.take(flat)
        # x_j + lam*a > limit, for a > 0, without forming lam*a
        up = np.flatnonzero(vals > 0)
        over = up[steps[up] > (limit[rows[up]] - old[up]) // vals[up]]
        tripped = np.zeros(len(ids), dtype=bool)
        tripped[rows[over]] = True
        moved = ~tripped[rows]
        rows, cols, flat = rows[moved], cols[moved], flat[moved]
        new = old[moved] + steps[moved] * vals[moved]
        if (new < 0).any():
            raise InternalInconsistencyError(
                "augmentation left the nonnegative orthant")
        np.put(x, flat, new)
        lo = view.reader_starts[cols]
        count = view.reader_starts[cols + 1] - lo
        mark = np.zeros_like(hot)
        np.put(mark, np.repeat(rows * size, count)
               + view.readers[_ranges(lo, count)], True)
        mark &= hot
        pairs = np.flatnonzero(mark)
        np.put(scores, pairs, _gains(x, view, wg, pairs))


def _augment_exact(x0: Sequence[int], basis: GraverBasis,
                   w: Sequence[int]) -> SolveOutcome:
    """Phase II on Python ints, through `_best_steps`."""
    x = list(x0)
    supps, wgs, negs = [], [], []
    for g, supp in zip(basis.elements, basis.supports):
        wg = sum(w[j] * a for j, a in supp)
        if wg <= 0:
            continue
        neg = [(j, -a) for j, a in supp if a < 0]
        if not neg:
            return SolveOutcome.unbounded(g)
        supps.append(supp)
        wgs.append(wg)
        negs.append(neg)

    def step_gain(i):
        # lam*(w.g) at the largest lam >= 0 with x + lam*g >= 0
        lam = None
        for j, m in negs[i]:
            cap = x[j] // m
            if lam is None or cap < lam:
                lam = cap
                if lam == 0:
                    break
        return lam * wgs[i]

    for i, gain in _best_steps(x, supps, negs, step_gain):
        lam = gain // wgs[i]
        for j, a in supps[i]:
            x[j] += lam * a
        if min(x) < 0:
            raise InternalInconsistencyError(
                "augmentation left the nonnegative orthant")
    return SolveOutcome.optimal(tuple(x), dot(w, x))


def _best_negpart_step(x: Sequence[int], supp):
    """Best integer lam >= 1 for the penalty sum_j min(x_j, 0) along the
    sparse element supp.

    The gain is concave piecewise linear in lam with kinks where a
    coordinate crosses zero, so it suffices to test lam=1 and the integer
    neighbors of every kink.  Returns (lam, gain) with gain maximal and
    lam smallest among maximizers, or (0, 0) when nothing improves.
    """
    # only a positive entry at a negative coordinate can gain
    if not any(a > 0 and x[j] < 0 for j, a in supp):
        return 0, 0
    candidates = {1}
    for j, a in supp:
        q, rem = divmod(-x[j], a)
        if q >= 1:
            candidates.add(q)
        if rem and q + 1 >= 1:
            candidates.add(q + 1)
    best_lam, best_gain = 0, 0
    for lam in sorted(candidates):
        gain = sum(min(x[j] + lam * a, 0) - min(x[j], 0) for j, a in supp)
        if gain > best_gain:
            best_lam, best_gain = lam, gain
    return best_lam, best_gain


def drive_nonnegative(x0: Sequence[int], basis: GraverBasis) -> tuple:
    """Maximize sum_j min(x_j, 0) over the lattice coset of x0 by greedy
    best augmentation.  Returns the final point; nonnegative iff the
    coset meets the nonnegative orthant.  Runs on the basis's int64 view
    when the guard of the module docstring holds, and on the exact loop
    otherwise."""
    view = basis.int64_view
    x = None if view is None else _drive_int64(x0, view)
    return _drive_exact(x0, basis) if x is None else x


def _penalty_limit(view: Int64View) -> int:
    """The largest max|x| with max|g|_1 * (2 max|x| + 1) < INT64_BOUND."""
    return ((INT64_BOUND - 1) // view.max_l1 - 1) // 2


def _drive_int64(x0: Sequence[int], view: Int64View) -> Optional[tuple]:
    """Phase I's greedy on the int64 view (module docstring); None if
    max|x0|, or a coordinate a step writes, is past the guard."""
    n = len(x0)
    limit = _penalty_limit(view)
    if max(map(abs, x0), default=0) > limit:
        return None
    x = np.array([*x0, 0], dtype=np.int64)  # the sentinel column stays 0
    gain = np.zeros(len(view.supp_cols), dtype=np.int64)
    lam = np.zeros_like(gain)
    _penalty_scores(x, view, np.arange(len(gain)), gain, lam)
    while True:
        best = int(gain.argmax())  # the first maximum: canonical order
        if gain[best] <= 0:
            return tuple(x[:n].tolist())
        entries = slice(view.starts[best], view.starts[best + 1])
        cols = view.cols[entries]
        moved = x[cols] + lam[best] * view.vals[entries]
        if np.abs(moved).max() > limit:
            return None
        x[cols] = moved
        lo = view.meet_starts[cols]
        meets = np.zeros(len(gain), dtype=bool)
        meets[view.meets[_ranges(lo, view.meet_starts[cols + 1] - lo)]] = True
        _penalty_scores(x, view, np.flatnonzero(meets), gain, lam)


def _penalty_scores(x: np.ndarray, view: Int64View, elems: np.ndarray,
                    gain: np.ndarray, lam: np.ndarray) -> None:
    """Write `_best_negpart_step(x, g)` for each element g of `elems` to
    (lam, gain), a block of elements at a time."""
    cols, vals = view.supp_cols[elems], view.supp_vals[elems]
    xs = x[cols]
    # only a positive entry at a negative coordinate can gain
    live = ((vals > 0) & (xs < 0)).any(axis=1)
    dead = elems[~live]
    gain[dead] = lam[dead] = 0
    elems, cols, vals, xs = (a[live] for a in (elems, cols, vals, xs))
    k = cols.shape[1]
    rows = max(1, PENALTY_BLOCK_ENTRIES // (k * (2 * k + 1)))
    for lo in range(0, len(elems), rows):
        block = slice(lo, lo + rows)
        gain[elems[block]], lam[elems[block]] = _best_penalty_steps(
            xs[block], vals[block])


def _best_penalty_steps(xs: np.ndarray, vals: np.ndarray) -> tuple:
    """(gain, lam) of `_best_negpart_step` for each row of the padded
    supports vals, read at the coordinates xs: every row's gain is tried
    at lam = 1 and at the integer neighbours q and q + 1 of the kinks
    q + rem/a = -x_j/a, those below 1 raised to 1."""
    q, rem = np.divmod(-xs, vals)
    lams = [np.ones((len(xs), 1), dtype=np.int64), np.maximum(q, 1)]
    if rem.any():  # never with unit entries
        lams.append(np.maximum(q + (rem != 0), 1))
    lams = np.concatenate(lams, axis=1)
    gains = np.minimum(xs[:, None, :] + lams[:, :, None] * vals[:, None, :],
                       0).sum(axis=2) - np.minimum(xs, 0).sum(axis=1)[:, None]
    top = gains.max(axis=1)
    # the smallest lam among the maximizers
    low = np.where(gains == top[:, None], lams, INT64_BOUND).min(axis=1)
    improves = top > 0
    return np.where(improves, top, 0), np.where(improves, low, 0)


def _drive_exact(x0: Sequence[int], basis: GraverBasis) -> tuple:
    """Phase I on Python ints, through `_best_steps`."""
    x = list(x0)
    supps = basis.supports
    lams = [0] * len(supps)

    def score(i):
        lams[i], gain = _best_negpart_step(x, supps[i])
        return gain

    for i, _ in _best_steps(x, supps, supps, score):
        for j, a in supps[i]:
            x[j] += lams[i] * a
    return tuple(x)


def find_feasible(stencil: NFoldStencil, n: int, b: NFoldRhs,
                  config: RunConfig = DEFAULT_CONFIG,
                  basis: Optional[GraverBasis] = None) -> SolveOutcome:
    """Phase I for the n-fold system: lattice solution first, then drive
    the negative entries out with the system's own basis.  The returned
    Optimal carries a feasible point and value 0 (objective ignored)."""
    b.check_shape(stencil, n)
    A = nfold_matrix(stencil, n)
    x = solve_integer(A, b.concat())
    if x is None:
        return SolveOutcome.infeasible()
    if basis is None:
        basis = nfold_graver(stencil, n, config)
    x = drive_nonnegative(x, basis)
    if min(x, default=0) < 0:
        return SolveOutcome.infeasible()
    return SolveOutcome.optimal(x, 0)


def solve_nfold_ip(stencil: NFoldStencil, n: int, w: Sequence[int],
                   b: NFoldRhs,
                   config: RunConfig = DEFAULT_CONFIG) -> SolveOutcome:
    """The linear integer programming oracle for n-fold systems."""
    _check_objective(w, n * stencil.t)
    basis = nfold_graver(stencil, n, config)
    feas = find_feasible(stencil, n, b, config, basis=basis)
    if not feas.is_optimal:
        return feas
    return augment_to_optimum(feas.x, basis, w)


def solve_ip(A: IntMat, b: Sequence[int], w: Sequence[int],
             config: RunConfig = DEFAULT_CONFIG) -> SolveOutcome:
    """Generic path: augmentation with a directly computed basis of A.
    Correct at desk scale; carries no polynomiality claim."""
    _check_objective(w, A.cols)
    x = solve_integer(A, tuple(b))
    if x is None:
        return SolveOutcome.infeasible()
    basis = graver_basis(A, config)
    x = drive_nonnegative(x, basis)
    if min(x, default=0) < 0:
        return SolveOutcome.infeasible()
    return augment_to_optimum(x, basis, w)


def _check_objective(w: Sequence[int], cols: int) -> None:
    if len(w) != cols:
        raise DimensionMismatchError(
            f"objective of length {len(w)}, system has {cols} variables")
