"""Exact linear algebra over rationals: rank and inverse.

Rank uses fraction-free (Bareiss) elimination on an integer-scaled copy of
the matrix, so intermediate values stay integral and the result is exact.
Rows that hold only ints are copied as they are.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Sequence


class SingularMatrixError(Exception):
    """Square matrix with no inverse."""


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> List[List[int]]:
    out = []
    for row in rows:
        if all(type(x) is int for x in row):
            out.append(list(row))
            continue
        fracs = [Fraction(x) for x in row]
        scale = lcm(*[f.denominator for f in fracs]) if fracs else 1
        out.append([int(f * scale) for f in fracs])
    return out


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank via Bareiss fraction-free Gaussian elimination."""
    m = _integer_rows(rows)
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    prev = 1
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        for i in range(r + 1, n_rows):
            for j in range(c + 1, n_cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
    return r


def invert(a: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Exact inverse of a square rational matrix, by Gauss-Jordan elimination
    of the rows augmented with the identity."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("invert expects a square matrix")
    m = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(a)
    ]
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError(f"singular at column {c}")
        m[c], m[pivot_row] = m[pivot_row], m[c]
        pivot = m[c][c]
        m[c] = [x / pivot for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]
