"""Linear integer programming by Graver-basis augmentation.

`find_feasible` is phase I on any Ax = b: a lattice solution, then
augmentation with the basis passed in, or else graver_basis(A), built
only once a lattice solution exists.  `solve_ip` adds phase II, and
`solve_nfold_ip` only supplies the n-fold basis.

Both phases are the same greedy: one integer score per candidate in
canonical basis order, a step along the first largest positive score,
then re-scores of only the candidates that read a moved coordinate.
Phase II: the improving elements, read at their negative entries, scored
lam*(w.g) at the longest feasible step lam; an improving nonnegative
element certifies unboundedness.  Phase I, from a lattice solution:
every element, read on its support, scored by its best gain in the
penalty sum_j min(x_j, 0).  The penalty is concave, integer and at most
zero, so augmentation terminates, and conformal decomposability of coset
differences makes a local optimum global.

Each phase is one numpy kernel over a view of the basis
(`graver.Int64View`).  It runs on the int64 view
(`GraverBasis.int64_view`, built on first use: in a solve, by phase I)
while explicit guards keep every value below 2^62, and otherwise on the
exact view (`GraverBasis.exact_view`), whose values are Python ints: the
same code with no guard.  The greedy is deterministic, so both views give
the same outcome.  An empty basis leaves x0 as it is.

Phase I scores every element once from the padded support table,
PENALTY_BLOCK_ENTRIES (element, candidate lam, entry) values at a time:
the gain sum_j min(x_j + lam*a_j, 0) - min(x_j, 0) at lam = 1 and at the
integer neighbours of every kink -x_j/a_j, the largest gain with the
smallest lam among its maximizers, and (0, 0) where no positive entry
sits at a negative coordinate.  `argmax` takes the first largest gain
(the canonical-order tie-break), and after a move only the elements
whose support meets a moved coordinate are re-scored.  Every candidate
lam is at most max|x| + 1, so each value of a score, and each coordinate
a step writes, is at most max|g|_1 * (2 max|x| + 1).  On the int64 view
that is kept below 2^62: phase I starts only when max|x0| is within that
bound, and a step that writes a coordinate past it sends the whole phase
back to the exact view from x0.

Phase II runs one batched kernel: `augment_to_optimum` gives it one
objective, and `augment_batch` gives it many that share the start x0, as
the convex driver's vertex queries do.  The kernel reads no objective,
only a Q x |G| array of the values w_q.g and the Q start values w_q.x0,
and steps all Q rows in lockstep, each by the greedy rules above: the
first nonnegative element with w.g > 0 (canonical order) certifies
unboundedness, `argmax` takes a row's first largest score
lam*max(w.g, 0) (the canonical-order tie-break), and lam = score // w.g.
A row's value is its start value plus the scores of its steps, summed
on Python ints.

The step length lam(x, g) depends only on the point and the element, so
the rows step over shared states.  Every row starts at the one state x0,
whose lam is computed once per call.  At each level the rows are grouped
by (state, chosen element) with one `np.unique`; each distinct
transition moves one point, through the CSR supports, into a new state.
lam is recomputed once per transition, only at the elements with a
negative entry at a coordinate it moved (deduplicated through a reusable
mark buffer), and each row's scores are rewritten only there.  Rows that
finish leave the score block, and live rows from its tail take their
slots, so compaction never copies the block.

On the int64 view every product stays below 2^62.  The values w.g are
exact: `GraverBasis.project` computes them for one objective, and a
batch's caller guards its own.  A call starts only when max(x0) <=
limit = (2^62 - 1) // max(w.g), the maximum over the whole batch, and no
step may carry a coordinate past limit; for a positive entry a that is
checked as lam > (limit - x_j) // a, which cannot overflow.  Every score
is then lam*w.g <= limit*max(w.g).  When either check fails the whole
call is re-run on the exact view from x0, as phase I is.  A negative
entry in x0 sends the call there at once, and its first step raises
InternalInconsistencyError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import DimensionMismatchError, InternalInconsistencyError
from .graver import (INT64_BOUND, GraverBasis, Int64View, _ranges, _starts,
                     graver_basis)
from .intlinalg import IntMat, dot, solve_integer
from .nfold import NFoldRhs, NFoldStencil, nfold_graver

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


def augment_to_optimum(x0: Sequence[int], basis: GraverBasis,
                       w: Sequence[int]) -> SolveOutcome:
    """Greedy best Graver augmentation from a feasible x0.

    Each step picks, among improving basis elements, the pair (g, lam)
    maximizing lam*(w.g), ties broken by canonical basis order; a
    nonnegative improving element is returned as an unboundedness
    certificate instead.  The values w.g come from `GraverBasis.project`,
    and the batch of one runs as `augment_batch` runs it.
    """
    if len(w) != len(x0):
        raise DimensionMismatchError("objective length != point length")
    _check_point(x0, basis)
    return augment_batch(x0, basis, basis.project((w,)).T, (dot(w, x0),))[0]


def augment_batch(x0: Sequence[int], basis: GraverBasis, wg: np.ndarray,
                  values: Sequence[int]) -> list:
    """`augment_to_optimum(x0, basis, w_q)` for every row q of wg.

    Row q of wg holds w_q.g for every basis element g, in canonical
    order, and values[q] = w_q.x0; the caller computes both exactly, wg
    in int64 or on Python ints (dtype object).  An int64 wg steps on the
    int64 view, and the whole call is re-run on the exact view when the
    guard trips (module docstring).
    """
    _check_point(x0, basis)
    if wg.shape != (len(values), len(basis)):
        raise DimensionMismatchError(
            f"scores of shape {wg.shape} for {len(values)} start values "
            f"and a basis of {len(basis)} elements")
    if not len(basis):
        return [SolveOutcome.optimal(x0, v) for v in values]
    view = basis.int64_view
    outs = None
    if wg.dtype != object and view is not None and min(x0) >= 0:
        outs = _augment_rows(x0, basis, view, wg, values)
    if outs is None:
        outs = _augment_rows(x0, basis, basis.exact_view,
                             wg.astype(object, copy=False), values)
    return outs


def _check_point(x0: Sequence[int], basis: GraverBasis) -> None:
    if len(x0) != basis.n:
        raise DimensionMismatchError(
            f"point of length {len(x0)}, basis has {basis.n} columns")


def _augment_rows(x0: Sequence[int], basis: GraverBasis, view: Int64View,
                  wg: np.ndarray, values: Sequence[int]) -> Optional[list]:
    """The batched phase-II kernel (module docstring) on the view, whose
    value dtype wg shares: entry q is row q's outcome.  On the int64 view
    x0 is nonnegative, and the call returns None when the guard trips."""
    exact = wg.dtype == object
    if not exact:
        limit = (INT64_BOUND - 1) // int(wg.max(initial=1))
        if max(x0) > limit:
            return None
    outs: list = [None] * len(wg)
    ray = wg[:, view.nonneg] > 0
    live = []
    for q, top in enumerate(wg.max(axis=1).tolist()):
        if ray[q].any():
            outs[q] = SolveOutcome.unbounded(
                basis[int(view.nonneg[ray[q].argmax()])])
        elif top <= 0:
            outs[q] = SolveOutcome.optimal(x0, values[q])
        else:
            live.append(q)
    if not live:
        return outs
    size = wg.shape[1]
    # the states: one point per distinct path; row i is at st[i]
    X = np.array([x0], dtype=wg.dtype)
    ids = np.array(live)
    st = np.zeros(len(ids), dtype=np.int64)
    value = np.array(values, dtype=object)[ids]
    # scores lam*max(w.g, 0), lam read once at x0 for the whole block
    scores = wg[ids]
    np.maximum(scores, 0, out=scores)
    scores *= _step_lengths(X, view, np.zeros(size, dtype=np.int64),
                            np.arange(size))
    mark = np.zeros(len(ids) * size, dtype=bool)
    k = len(ids)
    while True:
        best = scores[:k].argmax(axis=1)  # the first maximum: canonical order
        gain = scores[np.arange(k), best]
        done = gain <= 0
        if done.any():
            finals: dict = {}
            for q, s, v in zip(ids[done].tolist(), st[done].tolist(),
                               value[done]):
                if s not in finals:
                    finals[s] = tuple(X[s].tolist())
                outs[q] = SolveOutcome.optimal(finals[s], v)
            keep = ~done
            k = int(keep.sum())
            if not k:
                return outs
            # live rows from the tail fill the finished rows' slots, one
            # row at a time, so no second score block is formed
            order = np.arange(k)
            holes = np.flatnonzero(done[:k])
            order[holes] = k + np.flatnonzero(keep[k:])
            for hole, row in zip(holes.tolist(), order[holes].tolist()):
                scores[hole] = scores[row]
            ids, st, value, best, gain = (
                a[order] for a in (ids, st, value, best, gain))
        value += gain.astype(object)
        # one transition per distinct (state, element): one step each
        uniq, first, row_t = np.unique(st * size + best, return_index=True,
                                       return_inverse=True)
        parent, elem = np.divmod(uniq, size)
        lam = gain[first] // wg[ids[first], elem]
        moved = _step_states(X, view, parent, elem, lam,
                             None if exact else limit)
        if moved is None:
            return None
        X, trans, cols = moved
        _rescore(scores, wg, ids, row_t, X, view, trans, cols, mark)
        st = row_t


def _step_states(X: np.ndarray, view: Int64View, parent: np.ndarray,
                 elem: np.ndarray, lam: np.ndarray,
                 limit: Optional[int]) -> Optional[tuple]:
    """The points X[parent] + lam*g_elem of the new states, with the state
    and column of each coordinate written; None when a written coordinate
    passes limit (module docstring), which the exact view does not set."""
    lo = view.starts[elem]
    count = view.starts[elem + 1] - lo
    trans = np.repeat(np.arange(len(elem)), count)
    entries = _ranges(lo, count)
    cols, vals = view.cols[entries], view.vals[entries]
    steps = np.repeat(lam, count)
    low = X.min()
    X = X[parent]
    flat = trans * X.shape[1] + cols
    old = X.take(flat)
    if limit is not None:
        # x_j + lam*a > limit, for a > 0, without forming lam*a
        up = vals > 0
        if (steps[up] > (limit - old[up]) // vals[up]).any():
            return None
    new = old + steps * vals
    np.put(X, flat, new)
    # a negative x0 (exact view only) is checked whole, as it may stay
    if (new < 0).any() or (low < 0 and (X < 0).any()):
        raise InternalInconsistencyError(
            "augmentation left the nonnegative orthant")
    return X, trans, cols


def _rescore(scores: np.ndarray, wg: np.ndarray, ids: np.ndarray,
             row_t: np.ndarray, X: np.ndarray, view: Int64View,
             trans: np.ndarray, cols: np.ndarray, mark: np.ndarray) -> None:
    """After the states X[t] were written at (trans, cols), recompute the
    step length of each state at every element with a negative entry at a
    written coordinate, once per state, and rewrite the scores
    lam*max(w.g, 0) of each row i at its state row_t[i] there; rows i of
    scores belong to the rows ids[i] of wg, and mark is an all-False
    buffer of at least len(X) * |G| entries, left all False."""
    size = wg.shape[1]
    lo = view.reader_starts[cols]
    count = view.reader_starts[cols + 1] - lo
    flat = view.readers[_ranges(lo, count)]
    flat += np.repeat(trans * size, count)
    mark[flat] = True
    pairs = np.flatnonzero(mark[:len(X) * size])
    mark[pairs] = False
    pair_t, pair_e = np.divmod(pairs, size)
    # each array is freed once read: the row-wise ones below are the
    # kernel's largest temporaries
    del pairs, flat
    pair_lam = _step_lengths(X, view, pair_t, pair_e)
    per_t = np.bincount(pair_t, minlength=len(X))
    count = per_t[row_t]
    sel = _ranges(_starts(per_t)[row_t], count)
    del pair_t
    elems, score = pair_e[sel], pair_lam[sel]
    del sel, pair_e, pair_lam
    flat = np.repeat(ids * size, count)
    flat += elems
    w = wg.take(flat)
    np.maximum(w, 0, out=w)
    score *= w
    del w
    flat -= np.repeat((ids - np.arange(len(ids))) * size, count)
    np.put(scores, flat, score)


def _step_lengths(X: np.ndarray, view: Int64View, states: np.ndarray,
                  elems: np.ndarray) -> np.ndarray:
    """The longest step lam keeping X[state] + lam*g nonnegative, for each
    (state, element) pair: the minimum of x_j // -g_j over the element's
    negative entries g_j."""
    base = states * X.shape[1]
    lam = X.take(base + view.neg_cols[0].take(elems)) \
        // view.neg_mags[0].take(elems)
    for cols, mags in zip(view.neg_cols[1:], view.neg_mags[1:]):
        np.minimum(lam, X.take(base + cols.take(elems)) // mags.take(elems),
                   out=lam)
    return lam


def drive_nonnegative(x0: Sequence[int], basis: GraverBasis) -> tuple:
    """Maximize sum_j min(x_j, 0) over the lattice coset of x0 by greedy
    best augmentation.  Returns the final point; nonnegative iff the
    coset meets the nonnegative orthant.  Runs on the basis's int64 view
    when the guard of the module docstring holds, and on its exact view
    otherwise."""
    if not len(basis):
        return tuple(x0)
    view = basis.int64_view
    x = None if view is None else _drive(x0, view)
    return _drive(x0, basis.exact_view) if x is None else x


def _penalty_limit(view: Int64View) -> int:
    """The largest max|x| with max|g|_1 * (2 max|x| + 1) < INT64_BOUND."""
    return ((INT64_BOUND - 1) // view.max_l1 - 1) // 2


def _drive(x0: Sequence[int], view: Int64View) -> Optional[tuple]:
    """Phase I's greedy on the view (module docstring); on the int64 view
    None if max|x0|, or a coordinate a step writes, is past the guard."""
    n = len(x0)
    exact = view.vals.dtype == object
    limit = None if exact else _penalty_limit(view)
    if not exact and max(map(abs, x0), default=0) > limit:
        return None
    # the sentinel column stays 0
    x = np.array([*x0, 0], dtype=view.vals.dtype)
    gain = np.zeros(len(view.supp_cols), dtype=view.vals.dtype)
    lam = np.zeros_like(gain)
    _penalty_scores(x, view, np.arange(len(gain)), gain, lam)
    while True:
        best = int(gain.argmax())  # the first maximum: canonical order
        if gain[best] <= 0:
            return tuple(x[:n].tolist())
        entries = slice(view.starts[best], view.starts[best + 1])
        cols = view.cols[entries]
        moved = x[cols] + lam[best] * view.vals[entries]
        if not exact and np.abs(moved).max() > limit:
            return None
        x[cols] = moved
        lo = view.meet_starts[cols]
        meets = np.zeros(len(gain), dtype=bool)
        meets[view.meets[_ranges(lo, view.meet_starts[cols + 1] - lo)]] = True
        _penalty_scores(x, view, np.flatnonzero(meets), gain, lam)


def _penalty_scores(x: np.ndarray, view: Int64View, elems: np.ndarray,
                    gain: np.ndarray, lam: np.ndarray) -> None:
    """Write the best penalty step (module docstring) of each element of
    `elems` to (lam, gain), a block of elements at a time."""
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
    """(gain, lam) of the best penalty step for each row of the padded
    supports vals, read at the coordinates xs: every row's gain is tried
    at lam = 1 and at the integer neighbours q and q + 1 of the kinks
    q + rem/a = -x_j/a, those below 1 raised to 1; the largest gain
    takes the smallest lam among its maximizers, and a row that does not
    gain gets (0, 0)."""
    if xs.dtype == object:  # np.divmod has no object loop
        q, rem = -xs // vals, -xs % vals
    else:
        q, rem = np.divmod(-xs, vals)
    lams = [np.ones((len(xs), 1), dtype=np.int64), np.maximum(q, 1)]
    if rem.any():  # never with unit entries
        lams.append(np.maximum(q + (rem != 0), 1))
    lams = np.concatenate(lams, axis=1)
    gains = np.minimum(xs[:, None, :] + lams[:, :, None] * vals[:, None, :],
                       0).sum(axis=2) - np.minimum(xs, 0).sum(axis=1)[:, None]
    top = gains.max(axis=1)
    # the smallest lam among the maximizers
    low = np.where(gains == top[:, None], lams, lams.max()).min(axis=1)
    improves = top > 0
    return np.where(improves, top, 0), np.where(improves, low, 0)


def find_feasible(A: IntMat, b: Sequence[int],
                  basis: Optional[GraverBasis] = None,
                  config: RunConfig = DEFAULT_CONFIG) -> tuple:
    """Phase I (module docstring).  Returns (outcome, basis): an Optimal
    outcome carries a feasible point and value 0, and the basis is the
    one used, None when no lattice point exists and none was given."""
    x = solve_integer(A, tuple(b))
    if x is not None:
        basis = graver_basis(A, config) if basis is None else basis
        x = drive_nonnegative(x, basis)
    if x is None or min(x, default=0) < 0:
        return SolveOutcome.infeasible(), basis
    return SolveOutcome.optimal(x, 0), basis


def solve_nfold_ip(stencil: NFoldStencil, n: int, w: Sequence[int],
                   b: NFoldRhs,
                   config: RunConfig = DEFAULT_CONFIG) -> SolveOutcome:
    """`solve_ip` on the n-fold matrix with its n-fold basis."""
    _check_objective(w, n * stencil.t)
    b.check_shape(stencil, n)
    basis = nfold_graver(stencil, n, config)
    return solve_ip(basis.source, b.concat(), w, config, basis)


def solve_ip(A: IntMat, b: Sequence[int], w: Sequence[int],
             config: RunConfig = DEFAULT_CONFIG,
             basis: Optional[GraverBasis] = None) -> SolveOutcome:
    """Linear IP on any A: phases I and II with `basis` (module docstring).
    Correct at desk scale; polynomial with an n-fold basis."""
    _check_objective(w, A.cols)
    feas, basis = find_feasible(A, b, basis, config)
    return augment_to_optimum(feas.x, basis, w) if feas.is_optimal else feas


def _check_objective(w: Sequence[int], cols: int) -> None:
    if len(w) != cols:
        raise DimensionMismatchError(
            f"objective of length {len(w)}, system has {cols} variables")
