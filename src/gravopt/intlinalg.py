"""Dense arbitrary-precision integer vectors, matrices, and kernel lattices.

Vectors are plain tuples of Python ints (unbounded precision for free);
matrices are immutable row-major wrappers.  Everything downstream runs on
these, so exactness here is non-negotiable.  Storage is dense: target
instances are small-dimensional per layer.
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

    Returns (E, U, pivots) where E = A·U as lists of column lists,
    U is the n×n transform (list of column lists), and pivots is a list
    of (row, col) pairs with strictly increasing rows and contiguous
    columns 0..rank-1.  Columns rank..n-1 of E are zero, so the matching
    columns of U are a lattice basis of ker_Z(A).
    """
    m, n = A.rows, A.cols
    cols = [[A.data[i][j] for i in range(m)] for j in range(n)]
    U = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    pivots = []
    p = 0
    for r in range(m):
        if p >= n:
            break
        # gcd-eliminate row r across the active columns p..n-1
        while True:
            nz = [j for j in range(p, n) if cols[j][r] != 0]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: abs(cols[j][r]))
            piv = cols[j0][r]
            for j in nz:
                if j == j0:
                    continue
                q = cols[j][r] // piv
                if q:
                    cj, cj0 = cols[j], cols[j0]
                    for i in range(r, m):
                        cj[i] -= q * cj0[i]
                    uj, uj0 = U[j], U[j0]
                    for i in range(n):
                        uj[i] -= q * uj0[i]
        nz = [j for j in range(p, n) if cols[j][r] != 0]
        if nz:
            j = nz[0]
            if j != p:
                cols[p], cols[j] = cols[j], cols[p]
                U[p], U[j] = U[j], U[p]
            if cols[p][r] < 0:
                cols[p] = [-v for v in cols[p]]
                U[p] = [-v for v in U[p]]
            pivots.append((r, p))
            p += 1
    return cols, U, pivots


def rank(A: IntMat) -> int:
    return len(_column_echelon(A)[2])


def lattice_kernel_basis(A: IntMat) -> list:
    """Lattice basis of {x in Z^n : Ax = 0}.

    The returned vectors are obtained from a unimodular column reduction,
    so they generate the full kernel lattice (not merely a finite-index
    sublattice); the count equals n - rank(A).
    """
    _, U, pivots = _column_echelon(A)
    return [tuple(U[j]) for j in range(len(pivots), A.cols)]


def solve_integer(A: IntMat, b: Sequence[int]) -> Optional[IntVec]:
    """Some integer solution of Ax = b, or None if none exists.

    No sign constraint: the result may have negative entries.
    """
    if len(b) != A.rows:
        raise DimensionMismatchError(
            f"matrix has {A.rows} rows, rhs has length {len(b)}")
    cols, U, pivots = _column_echelon(A)
    m, n = A.rows, A.cols
    residual = list(b)
    coeffs = []
    for r, j in pivots:
        piv = cols[j][r]
        if residual[r] % piv != 0:
            return None
        q = residual[r] // piv
        coeffs.append(q)
        if q:
            cj = cols[j]
            for i in range(m):
                residual[i] -= q * cj[i]
    if any(residual):
        return None
    x = [0] * n
    for (r, j), q in zip(pivots, coeffs):
        if q:
            uj = U[j]
            for i in range(n):
                x[i] += q * uj[i]
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
