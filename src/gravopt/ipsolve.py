"""Linear integer programming by Graver-basis augmentation.

Phase II is greedy best-augmentation: among all improving basis elements
take the one with the largest step-times-gain, deterministically.  An
improving nonnegative element certifies unboundedness.  Phase I finds a
feasible point from an unconstrained lattice solution by maximizing the
separable concave penalty sum_j min(x_j, 0) with the same basis; the
penalty is integer-valued and bounded above by zero, so augmentation
terminates, and conformal decomposability of any coset difference makes
a local optimum global.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .config import DEFAULT_CONFIG, RunConfig
from .errors import DimensionMismatchError, InternalInconsistencyError
from .graver import GraverBasis, graver_basis
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


def _max_step_neg(x: Sequence[int], neg) -> int:
    """Largest lam >= 0 with x + lam*g >= 0, given the (index, decrement)
    pairs of g's negative entries (nonempty)."""
    lam = None
    for j, m in neg:
        cap = x[j] // m
        if lam is None or cap < lam:
            lam = cap
            if lam == 0:
                break
    return lam


def augment_to_optimum(x0: Sequence[int], basis: GraverBasis,
                       w: Sequence[int]) -> SolveOutcome:
    """Greedy best Graver augmentation from a feasible x0.

    Each step picks, among improving basis elements, the pair (g, lam)
    maximizing lam*(w.g), ties broken by canonical basis order; a
    nonnegative improving element is returned as an unboundedness
    certificate instead.
    """
    x = list(x0)
    if len(w) != len(x):
        raise DimensionMismatchError("objective length != point length")
    gains = []
    for g, supp in zip(basis.elements, basis.supports):
        wg = sum(w[j] * a for j, a in supp)
        if wg <= 0:
            continue
        neg = [(j, -a) for j, a in supp if a < 0]
        if not neg:
            return SolveOutcome.unbounded(g)
        gains.append((supp, wg, neg))
    # a step moves x only on its support, so only the elements with a
    # negative entry there change their step length
    blocked_by: list = [[] for _ in x]
    for i, (_, _, neg) in enumerate(gains):
        for j, _ in neg:
            blocked_by[j].append(i)
    scores = [_max_step_neg(x, neg) * wg for _, wg, neg in gains]
    while True:
        # the first element in canonical order among the best scores
        best = max(range(len(scores)), key=scores.__getitem__, default=None)
        if best is None or scores[best] <= 0:
            return SolveOutcome.optimal(tuple(x), dot(w, x))
        supp, wg, _ = gains[best]
        lam = scores[best] // wg
        for j, a in supp:
            x[j] += lam * a
        if min(x) < 0:
            raise InternalInconsistencyError(
                "augmentation left the nonnegative orthant")
        for i in {i for j, _ in supp for i in blocked_by[j]}:
            _, wg, neg = gains[i]
            scores[i] = _max_step_neg(x, neg) * wg


def _negpart(x: Sequence[int]) -> int:
    return sum(a for a in x if a < 0)


def _best_negpart_step(x: Sequence[int], supp):
    """Best integer lam >= 1 for the penalty sum_j min(x_j, 0) along the
    sparse element supp.

    The gain is concave piecewise linear in lam with kinks where a
    coordinate crosses zero, so it suffices to test lam=1 and the integer
    neighbors of every kink.  Returns (lam, gain) with gain maximal and
    lam smallest among maximizers, or (0, 0) when nothing improves.
    """
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
    while _negpart(x) < 0:
        best = None  # (gain, order, supp, lam)
        for order, supp in enumerate(basis.supports):
            # only a positive entry at a negative coordinate can gain
            if not any(a > 0 and x[j] < 0 for j, a in supp):
                continue
            lam, gain = _best_negpart_step(x, supp)
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, order, supp, lam)
        if best is None:
            break
        _, _, supp, lam = best
        for j, a in supp:
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
                   b: NFoldRhs, config: RunConfig = DEFAULT_CONFIG,
                   basis: Optional[GraverBasis] = None) -> SolveOutcome:
    """The linear integer programming oracle for n-fold systems."""
    if basis is None:
        basis = nfold_graver(stencil, n, config)
    feas = find_feasible(stencil, n, b, config, basis=basis)
    if not feas.is_optimal:
        return feas
    return augment_to_optimum(feas.x, basis, w)


def solve_ip(A: IntMat, b: Sequence[int], w: Sequence[int],
             config: RunConfig = DEFAULT_CONFIG) -> SolveOutcome:
    """Generic path: augmentation with a directly computed basis of A.
    Correct at desk scale; carries no polynomiality claim."""
    x = solve_integer(A, tuple(b))
    if x is None:
        return SolveOutcome.infeasible()
    basis = graver_basis(A, config)
    x = drive_nonnegative(x, basis)
    if min(x, default=0) < 0:
        return SolveOutcome.infeasible()
    return augment_to_optimum(x, basis, w)
