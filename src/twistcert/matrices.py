"""Exact integer matrix arithmetic for the symplectic calculus.

All matrices are immutable and use arbitrary-precision Python integers, so
every product, inverse and congruence test below is exact.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass


@dataclass(frozen=True)
class IntMatrix:
    """Square integer matrix of even dimension 2g >= 4, stored row-major."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(map(operator.index, row)) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n < 4 or n % 2 != 0:
            raise ValueError(f"dimension must be even and >= 4, got {n}")
        if any(len(row) != n for row in rows):
            raise ValueError("matrix is not square")

    @classmethod
    def _exact(cls, rows: tuple[tuple[int, ...], ...]) -> IntMatrix:
        # rows already square tuples of ints, as a product of two IntMatrix
        # values is: skip the coercion
        m = object.__new__(cls)
        m.__dict__["rows"] = rows
        return m

    @property
    def dim(self) -> int:
        return len(self.rows)

    @staticmethod
    def identity(dim: int) -> IntMatrix:
        return IntMatrix(tuple(
            tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)
        ))

    @staticmethod
    def from_unit_entries(dim: int, entries: dict[tuple[int, int], int]) -> IntMatrix:
        """I + sum of c*E_{i,j} for ((i, j), c) in entries; indices are 1-based."""
        rows = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
        for (i, j), c in entries.items():
            rows[i - 1][j - 1] += c
        return IntMatrix(tuple(tuple(row) for row in rows))

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        return mat_mul(self, other)

    def is_identity(self) -> bool:
        return self == IntMatrix.identity(self.dim)


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact integer matrix product, row i of AB as the combination of the
    rows of B picked out by the nonzero entries of row i of A."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    zero = (0,) * b.dim
    rows = []
    for row in a.rows:
        acc = zero
        for x, brow in zip(row, b.rows):
            if x:
                if acc is zero:
                    acc = brow if x == 1 else [x * y for y in brow]
                else:
                    acc = [s + x * y for s, y in zip(acc, brow)]
        rows.append(tuple(acc))  # a reused row of B or the zero row stays shared
    return IntMatrix._exact(tuple(rows))


def mat_pow(m: IntMatrix, k: int) -> IntMatrix:
    """m**k for k >= 0 by repeated squaring."""
    if k < 0:
        raise ValueError("negative power needs an inverse; use SpMatrix.pow")
    result = IntMatrix.identity(m.dim)
    base = m
    while k:
        if k & 1:
            result = result @ base
        base = base @ base
        k >>= 1
    return result


def symplectic_form(genus: int) -> IntMatrix:
    """The form matrix J = [[0, I_g], [-I_g, 0]] in the (a_1..a_g, b_1..b_g) basis."""
    n = 2 * genus
    rows = [[0] * n for _ in range(n)]
    for i in range(genus):
        rows[i][genus + i] = 1
        rows[genus + i][i] = -1
    return IntMatrix(tuple(tuple(row) for row in rows))


def sp_check(m: IntMatrix) -> bool:
    """True iff M^T J M = J exactly, J the form of genus dim/2.

    (M^T J M)[a][b] = sum_i M[i][a] M[g+i][b] - M[g+i][a] M[i][b] is the form
    on columns a and b. It is antisymmetric for every M, so only a < b is
    accumulated, over pairs of nonzero entries of rows i and g+i, and J is
    subtracted before the zero test; no product is formed.
    """
    n = m.dim
    genus = n // 2
    acc = [0] * (n * n)  # acc[a * n + b] for a < b
    for i in range(genus):
        top = [(a, x) for a, x in enumerate(m.rows[i]) if x]
        bottom = [(b, y) for b, y in enumerate(m.rows[genus + i]) if y]
        for a, x in top:
            for b, y in bottom:
                if a < b:
                    acc[a * n + b] += x * y
                elif b < a:
                    acc[b * n + a] -= x * y
        acc[i * n + genus + i] -= 1
    return not any(acc)


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    n = m.dim
    a = [list(row) for row in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SpMatrix:
    """Integer matrix certified symplectic (M^T J M = J) at construction; its
    genus is half its dimension."""

    m: IntMatrix

    def __post_init__(self) -> None:
        if not sp_check(self.m):
            raise ValueError("matrix is not symplectic: M^T J M != J")

    @staticmethod
    def identity(genus: int) -> SpMatrix:
        return SpMatrix(IntMatrix.identity(2 * genus))

    @property
    def dim(self) -> int:
        return self.m.dim

    @property
    def genus(self) -> int:
        return self.m.dim // 2

    @classmethod
    def _closed(cls, m: IntMatrix) -> SpMatrix:
        # Sp(2g, Z) is closed under @, inverse and pow: their results skip the check
        sp = object.__new__(cls)
        sp.__dict__["m"] = m
        return sp

    def __matmul__(self, other: SpMatrix) -> SpMatrix:
        return SpMatrix._closed(self.m @ other.m)

    def inverse(self) -> SpMatrix:
        """Exact symplectic inverse via M^{-1} = -J M^T J."""
        # for M = [[A, B], [C, D]] in g x g blocks, the signed block
        # transpose [[D^T, -B^T], [-C^T, A^T]]
        g = self.genus
        t = tuple(zip(*self.m.rows))  # rows (A^T | C^T), then (B^T | D^T)
        rows = [r[g:] + tuple(-x for x in r[:g]) for r in t[g:]]
        rows += [tuple(-x for x in r[g:]) + r[:g] for r in t[:g]]
        return SpMatrix._closed(IntMatrix._exact(tuple(rows)))

    def pow(self, k: int) -> SpMatrix:
        base = self if k >= 0 else self.inverse()
        return SpMatrix._closed(mat_pow(base.m, abs(k)))
