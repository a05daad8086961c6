"""Linear-algebra kernels instrumented with exact scalar-operation counts.

Every kernel takes an optional OpCounts and adds the number of scalar
multiplies, adds/subtracts, and divides the textbook scalar algorithm would
perform. The numpy evaluation may fuse or reorder the arithmetic, but the
counters always reflect the scalar recurrence, so counted costs are
deterministic functions of the operand shapes.

Sign flips (negation) are not counted; in hardware they are free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class OpCounts:
    """Scalar multiply / add-subtract / divide tallies."""

    mult: int = 0
    add: int = 0
    div: int = 0

    def total(self) -> int:
        return self.mult + self.add + self.div

    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(self.mult + other.mult, self.add + other.add,
                        self.div + other.div)

    def __mul__(self, n: int) -> "OpCounts":
        return OpCounts(n * self.mult, n * self.add, n * self.div)

    def __iadd__(self, other: "OpCounts") -> "OpCounts":
        self.mult += other.mult
        self.add += other.add
        self.div += other.div
        return self

    def as_dict(self) -> dict:
        return {"mult": int(self.mult), "add": int(self.add), "div": int(self.div),
                "total": int(self.total())}


class SingularMatrixError(ArithmeticError):
    """A matrix that must be inverted (or factored) is numerically singular."""

    def __init__(self, name: str):
        super().__init__(f"singular matrix: {name}")
        self.matrix_name = name


def _as2d(a: np.ndarray) -> tuple:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        return a[:, None], True
    return a, False


def mat_mul(a: np.ndarray, b: np.ndarray, ops: OpCounts | None = None) -> np.ndarray:
    """Dense product; cost m*k*n mult and m*(k-1)*n add for (m,k) @ (k,n)."""
    a2, _ = _as2d(a)
    b2, bvec = _as2d(b)
    m, k = a2.shape
    n = b2.shape[1]
    if ops is not None:
        ops.mult += m * k * n
        ops.add += m * (k - 1) * n
    out = a2 @ b2
    return out[:, 0] if bvec else out


def mat_add(a: np.ndarray, b: np.ndarray, ops: OpCounts | None = None) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if ops is not None:
        ops.add += a.size
    return a + np.asarray(b, dtype=np.float64)


def mat_sub(a: np.ndarray, b: np.ndarray, ops: OpCounts | None = None) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if ops is not None:
        ops.add += a.size
    return a - np.asarray(b, dtype=np.float64)


def ldl_factor(S: np.ndarray, ops: OpCounts | None = None,
               name: str = "matrix") -> tuple:
    """Square-root-free Cholesky: S = L D L^T for symmetric S.

    Cost per column j: 2j mult + j add for the pivot, then per row below,
    2j mult + j add + 1 div. Raises SingularMatrixError on a vanishing pivot,
    which also catches indefinite inputs well enough for filter use.
    """
    S = np.asarray(S, dtype=np.float64)
    n = S.shape[0]
    L = np.eye(n)
    D = np.zeros(n)
    scale = max(1.0, float(np.abs(np.diag(S)).max(initial=0.0)))
    for j in range(n):
        lj = L[j, :j]
        dj = S[j, j] - float(np.dot(lj * lj, D[:j]))
        if ops is not None:
            ops.mult += 2 * j
            ops.add += j
        if not np.isfinite(dj) or abs(dj) <= 1e-12 * scale:
            raise SingularMatrixError(name)
        D[j] = dj
        rows = n - 1 - j
        if rows:
            L[j + 1:, j] = (S[j + 1:, j] - L[j + 1:, :j] @ (D[:j] * lj)) / dj
            if ops is not None:
                ops.mult += 2 * j * rows
                ops.add += j * rows
                ops.div += rows
    return L, D


def ldl_solve(S: np.ndarray, B: np.ndarray, ops: OpCounts | None = None,
              name: str = "matrix") -> np.ndarray:
    """Solve S X = B for symmetric S via the LDL^T factorization."""
    L, D = ldl_factor(S, ops, name)
    B2, bvec = _as2d(B)
    n, r = B2.shape
    Y = np.empty_like(B2)
    for i in range(n):
        Y[i] = B2[i] - L[i, :i] @ Y[:i]
        if ops is not None:
            ops.mult += i * r
            ops.add += i * r
    Y = Y / D[:, None]
    if ops is not None:
        ops.div += n * r
    X = np.empty_like(Y)
    for i in range(n - 1, -1, -1):
        X[i] = Y[i] - L[i + 1:, i] @ X[i + 1:]
        if ops is not None:
            ops.mult += (n - 1 - i) * r
            ops.add += (n - 1 - i) * r
    return X[:, 0] if bvec else X


def inv_small(M: np.ndarray, ops: OpCounts | None = None,
              name: str = "matrix") -> np.ndarray:
    """Closed-form inverse for 1x1..3x3 via adjugate-over-determinant.

    2x2 costs 2 mult + 1 add + 4 div (each adjugate entry divided by the
    determinant); 3x3 costs 21 mult + 11 add + 9 div; 1x1 is a lone divide.
    """
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    if n == 2:
        # the entries as float64 scalars, row-major whatever M's layout
        a, b, c, e = M.flat
        det = a * e - b * c
        if ops is not None:
            ops.mult += 2
            ops.add += 1
        # a non-finite entry makes det non-finite, so the threshold is read
        # only when every entry, and so this scale, is finite
        scale = max(1.0, abs(a), abs(b), abs(c), abs(e))
        if not math.isfinite(det) or abs(det) <= 1e-12 * scale * scale:
            raise SingularMatrixError(name)
        out = np.array([[e, -b], [-c, a]]) / det
        if ops is not None:
            ops.div += 4
        return out
    scale = max(1.0, float(np.abs(M).max()))
    if n == 1:
        if not np.isfinite(M[0, 0]) or abs(M[0, 0]) <= 1e-12 * scale:
            raise SingularMatrixError(name)
        if ops is not None:
            ops.div += 1
        return np.array([[1.0 / M[0, 0]]])
    if n == 3:
        cof = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                r = [k for k in range(3) if k != i]
                c = [k for k in range(3) if k != j]
                minor = M[r[0], c[0]] * M[r[1], c[1]] - M[r[0], c[1]] * M[r[1], c[0]]
                cof[i, j] = minor if (i + j) % 2 == 0 else -minor
                if ops is not None:
                    ops.mult += 2
                    ops.add += 1
        det = M[0, 0] * cof[0, 0] + M[0, 1] * cof[0, 1] + M[0, 2] * cof[0, 2]
        if ops is not None:
            ops.mult += 3
            ops.add += 2
        if not np.isfinite(det) or abs(det) <= 1e-12 * scale ** 3:
            raise SingularMatrixError(name)
        if ops is not None:
            ops.div += 9
        return cof.T / det
    raise ValueError("inv_small handles 2x2 and 3x3 only")
