"""Exact integer matrix helpers.

All matrices are tuples of tuples of Python ints, so every computation is
arbitrary precision.  Sizes here are small (Seifert matrices of side <= ~20),
so the O(n^3)/O(n^4) algorithms below are more than fast enough.
"""

from __future__ import annotations

from typing import Sequence

IntMatrix = tuple[tuple[int, ...], ...]


def freeze(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """rows as a tuple of tuples, entries as they stand (never coerced)."""
    return tuple(map(tuple, rows))


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: IntMatrix) -> IntMatrix:
    if not a:
        return ()
    return tuple(zip(*a))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matmul: inner dimensions differ")
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_unimodular(a: IntMatrix) -> bool:
    return len(a) == 0 or (len(a) == len(a[0]) and det(a) in (1, -1))


def inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular integer matrix, exact over the integers."""
    from fractions import Fraction

    n = len(a)
    if n == 0:
        return ()
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    inv = []
    for row in aug:
        vals = row[n:]
        if any(v.denominator != 1 for v in vals):
            raise ValueError("matrix is not unimodular")
        inv.append(tuple(int(v) for v in vals))
    return tuple(inv)
