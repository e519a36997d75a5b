"""Exact linear algebra over rationals: rank and inverse.

Rank uses fraction-free (Bareiss) elimination on an integer-scaled copy of
the matrix, so intermediate values stay integral and the result is exact.
Entries follow the number convention of every exact layer, an int when
integral and a Fraction otherwise: a row that holds only ints is used as it
is, and only a row with a Fraction is scaled.  A one-row matrix needs no
elimination: its rank is 1 when an entry is nonzero and 0 otherwise, read
off the entries as they are, Fractions unscaled.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Sequence


class SingularMatrixError(Exception):
    """Square matrix with no inverse."""


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> List[Sequence[int]]:
    out = []
    for row in rows:
        if set(map(type, row)) <= {int}:
            out.append(row)
            continue
        fracs = [Fraction(x) for x in row]
        scale = lcm(*[f.denominator for f in fracs]) if fracs else 1
        out.append([int(f * scale) for f in fracs])
    return out


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank via Bareiss fraction-free Gaussian elimination.

    Each step takes the first remaining row with a nonzero entry in the
    leading column as the pivot row, drops it, and replaces every other row
    by its tail past that column: each entry ``a`` becomes
    ``(p*a - x*b) // prev``, for the pivot ``p``, the row's leading entry
    ``x`` and the pivot row's entry ``b`` in ``a``'s column, or only
    ``p*a // prev`` where ``x`` is zero.  The divisions are exact.  A
    single row (one conserved quantity's gradient, or a block of it) is
    ranked by whether any entry is nonzero, with no scaling.
    """
    if len(rows) == 1:
        return int(any(rows[0]))
    m = _integer_rows(rows)
    r = 0
    prev = 1
    while m and m[0]:
        i = next((i for i, row in enumerate(m) if row[0]), None)
        if i is None:
            m = [row[1:] for row in m]
            continue
        top = m.pop(i)
        p, tail = top[0], top[1:]
        rest = []
        for row in m:
            x = row[0]
            if x:
                rest.append([(p * a - x * b) // prev for a, b in zip(row[1:], tail)])
            else:
                rest.append([p * a // prev for a in row[1:]])
        m = rest
        prev = p
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
