"""Arbitrary-precision integer vectors, matrices, and kernel lattices.

Vectors are plain tuples of Python ints (unbounded precision for free);
matrices are immutable dense row-major wrappers.  Everything downstream
runs on these, so exactness here is non-negotiable.  The column echelon
form behind rank, kernel lattices and integer solves works on sparse
columns: an n-fold matrix has a few nonzeros per column, and its
transform stays almost as sparse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatchError, UsageError

IntVec = tuple  # tuple[int, ...]


@dataclass(frozen=True)
class IntMat:
    """Immutable row-major integer matrix.  Zero-row matrices are legal
    (they arise as the empty coupling block of unconstrained partition
    stencils)."""

    rows: int
    cols: int
    data: tuple  # tuple of row tuples

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimension")
        if len(self.data) != self.rows:
            raise DimensionMismatchError(
                f"expected {self.rows} rows, got {len(self.data)}")
        for row in self.data:
            if len(row) != self.cols:
                raise DimensionMismatchError(
                    f"row of length {len(row)}, expected {self.cols}")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: Optional[int] = None) -> "IntMat":
        data = tuple(tuple(int(v) for v in row) for row in rows)
        if cols is None:
            if not data:
                raise ValueError("cannot infer column count of an empty matrix")
            cols = len(data[0])
        return cls(len(data), cols, data)

    @classmethod
    def identity(cls, n: int) -> "IntMat":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n))
                               for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMat":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise DimensionMismatchError(f"dot of lengths {len(u)} and {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def vec_sub(u: Sequence[int], v: Sequence[int]) -> IntVec:
    return tuple(a - b for a, b in zip(u, v))


def mat_vec(A: IntMat, x: Sequence[int]) -> IntVec:
    """Exact matrix-vector product."""
    if A.cols != len(x):
        raise DimensionMismatchError(
            f"matrix has {A.cols} columns, vector has length {len(x)}")
    return tuple(sum(a * b for a, b in zip(row, x)) for row in A.data)


def _column_echelon(A: IntMat):
    """Bring A into column echelon form by unimodular column operations.

    Returns (E, U, pivots) where E = A·U and U, the n×n transform, are
    lists of sparse columns in position order, each a dict row -> nonzero
    entry.  pivots is a list of (row, col) pairs with strictly increasing
    rows and contiguous columns 0..rank-1.  Columns rank..n-1 of E are
    zero, so the matching columns of U are a lattice basis of ker_Z(A).

    Row r is gcd-eliminated across the active columns p..n-1: while two
    or more have a nonzero at r, every other one is reduced by the first
    (in position order) of smallest |entry|.  The survivor moves to
    position p, its sign is made positive, and it leaves the active set.
    A row -> active-columns index finds the nonzeros of a row, and a
    position permutation stands in for physical column swaps, so the
    work follows the nonzeros; the arithmetic is that of the dense
    elimination, step for step.
    """
    m, n = A.rows, A.cols
    E: list = [{} for _ in range(n)]  # indexed by column id
    active: list = [set() for _ in range(m)]  # row -> active column ids
    for i, row in enumerate(A.data):
        for j, a in enumerate(row):
            if a:
                E[j][i] = a
                active[i].add(j)
    U: list = [{j: 1} for j in range(n)]
    order = list(range(n))  # position -> column id
    pos = list(range(n))  # column id -> position
    pivots = []
    p = 0
    for r in range(m):
        if p >= n:
            break
        nz_ids = active[r]
        while len(nz_ids) > 1:
            nz = sorted(nz_ids, key=pos.__getitem__)
            j0 = min(nz, key=lambda j: abs(E[j][r]))
            e0, u0 = E[j0], U[j0]
            piv = e0[r]
            for j in nz:
                if j == j0:
                    continue
                q = E[j][r] // piv
                if q:
                    ej, uj = E[j], U[j]
                    for i, a in e0.items():
                        v = ej.get(i, 0) - q * a
                        if v:
                            ej[i] = v
                            active[i].add(j)
                        else:
                            del ej[i]
                            active[i].discard(j)
                    for i, a in u0.items():
                        v = uj.get(i, 0) - q * a
                        if v:
                            uj[i] = v
                        else:
                            del uj[i]
        if nz_ids:
            (j,) = nz_ids
            k = order[p]
            order[p], order[pos[j]] = j, k
            pos[k], pos[j] = pos[j], p
            if E[j][r] < 0:
                E[j] = {i: -a for i, a in E[j].items()}
                U[j] = {i: -a for i, a in U[j].items()}
            for i in E[j]:
                active[i].discard(j)
            pivots.append((r, p))
            p += 1
    return [E[j] for j in order], [U[j] for j in order], pivots


def rank(A: IntMat) -> int:
    return len(_column_echelon(A)[2])


def lattice_kernel_basis(A: IntMat) -> list:
    """Lattice basis of {x in Z^n : Ax = 0}.

    The returned vectors are obtained from a unimodular column reduction,
    so they generate the full kernel lattice (not merely a finite-index
    sublattice); the count equals n - rank(A).
    """
    _, U, pivots = _column_echelon(A)
    n = A.cols
    out = []
    for col in U[len(pivots):]:
        v = [0] * n
        for i, a in col.items():
            v[i] = a
        out.append(tuple(v))
    return out


def solve_integer(A: IntMat, b: Sequence[int]) -> Optional[IntVec]:
    """Some integer solution of Ax = b, or None if none exists.

    No sign constraint: the result may have negative entries.
    """
    if len(b) != A.rows:
        raise DimensionMismatchError(
            f"matrix has {A.rows} rows, rhs has length {len(b)}")
    E, U, pivots = _column_echelon(A)
    residual = list(b)
    coeffs = []
    for r, j in pivots:
        col = E[j]
        piv = col[r]
        if residual[r] % piv != 0:
            return None
        q = residual[r] // piv
        coeffs.append(q)
        if q:
            for i, a in col.items():
                residual[i] -= q * a
    if any(residual):
        return None
    x = [0] * A.cols
    for (r, j), q in zip(pivots, coeffs):
        if q:
            for i, a in U[j].items():
                x[i] += q * a
    return tuple(x)


# --- 4ti2-compatible text format: "rows cols", then row-major entries. ---

def format_matrix(A: IntMat) -> str:
    lines = [f"{A.rows} {A.cols}"]
    lines.extend(" ".join(str(v) for v in row) for row in A.data)
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> IntMat:
    tokens = text.split()
    if len(tokens) < 2:
        raise UsageError("matrix file needs a 'rows cols' header")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
        entries = [int(t) for t in tokens[2:]]
    except ValueError as exc:
        raise UsageError(f"non-integer token in matrix file: {exc}") from None
    if len(entries) != rows * cols:
        raise UsageError(
            f"matrix file declares {rows}x{cols} but carries {len(entries)} entries")
    data = tuple(tuple(entries[i * cols:(i + 1) * cols]) for i in range(rows))
    return IntMat(rows, cols, data)
