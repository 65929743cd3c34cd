"""Linear integer programming by Graver-basis augmentation.

Both phases run one greedy loop, `_best_steps`: one integer score per
candidate in canonical basis order, a step along the first largest
positive score, then re-scores of only the candidates that read a moved
coordinate.  The phases differ only in the candidates, what each score
reads, and the score.  Phase II: the improving elements, read at their
negative entries, scored lam*(w.g) at the longest feasible step lam; an
improving nonnegative element certifies unboundedness.  Phase I, from a
lattice solution: every element, read on its support, scored by its best
gain in the penalty sum_j min(x_j, 0).  The penalty is concave, integer
and at most zero, so augmentation terminates, and conformal
decomposability of coset differences makes a local optimum global.

Phase II normally runs the same greedy on the basis's int64 view
(`GraverBasis.int64_view`, built on the first query and kept on the
basis): w.g for every element is one `np.add.reduceat` over the supports,
the scores lam*max(w.g, 0) live in one array, `argmax` takes the first
maximum (the canonical-order tie-break), steps are applied in Python
ints, and only the elements with a negative entry on the step's support
are re-scored.  Every int64 product stays below 2^62: the query needs
max|w| * max|g|_1 and max(x0) * max(w.g) below it, and every coordinate a
step writes must keep x_j * max(w.g) below it.  A negative entry in x0,
or a guard that fails before or during the query, sends the query to the
exact loop from x0; the greedy is deterministic, so the outcome is the
same.
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
    if len(x0) != basis.n:
        raise DimensionMismatchError(
            f"point of length {len(x0)}, basis has {basis.n} columns")
    view = basis.int64_view
    if (view is None or min(x0) < 0
            or max(map(abs, w)) * view.max_l1 >= INT64_BOUND):
        return _augment_exact(x0, basis, w)
    out = _augment_int64(x0, basis, view, w)
    return _augment_exact(x0, basis, w) if out is None else out


def _augment_int64(x0: Sequence[int], basis: GraverBasis, view: Int64View,
                   w: Sequence[int]) -> Optional[SolveOutcome]:
    """Phase II on the int64 view; None as soon as a guard fails."""
    wg = np.add.reduceat(np.array(w, dtype=np.int64)[view.cols] * view.vals,
                         view.starts[:-1])
    for i in view.nonneg:
        if wg[i] > 0:
            return SolveOutcome.unbounded(basis.elements[i])
    top = int(wg.max())
    if top <= 0:
        return SolveOutcome.optimal(x0, dot(w, x0))
    limit = (INT64_BOUND - 1) // top  # x_j <= limit: x_j * (w.g) < 2^62
    x = list(x0)
    if max(x) > limit:
        return None
    xa = np.array(x + [INT64_BOUND], dtype=np.int64)  # sentinel column n
    wg_pos = np.maximum(wg, 0)
    scores = (xa[view.neg_cols] // view.neg_mags).min(axis=1) * wg_pos
    supports, readers = basis.supports, view.readers
    while True:
        best = int(scores.argmax())  # the first maximum: canonical order
        gain = scores.item(best)
        if gain <= 0:
            return SolveOutcome.optimal(x, dot(w, x))
        lam = gain // wg.item(best)
        for j, a in supports[best]:
            v = x[j] + lam * a
            if v < 0:
                raise InternalInconsistencyError(
                    "augmentation left the nonnegative orthant")
            if v > limit:
                return None
            x[j] = xa[j] = v
        rows = np.concatenate([readers[j] for j, _ in supports[best]])
        scores[rows] = (xa[view.neg_cols[rows]] // view.neg_mags[rows]
                        ).min(axis=1) * wg_pos[rows]


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
    coset meets the nonnegative orthant."""
    x = list(x0)
    supps = basis.supports
    for i, _ in _best_steps(
            x, supps, supps, lambda i: _best_negpart_step(x, supps[i])[1]):
        lam, _ = _best_negpart_step(x, supps[i])
        for j, a in supps[i]:
            x[j] += lam * a
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
