"""Integer linear algebra: primitive vectors, and ranks and independent
subsets by fraction-free row reduction.

Matrices are lists of lists of ints (rows); a rational row is scaled to
integers by integer_row before it is reduced, so every answer is exact.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(A, v):
    return tuple(sum(map(operator.mul, row, v)) for row in A)


def integer_row(row):
    """(ints, den): the rational row times den, the lcm of its denominators;
    a row of ints comes back as it is, with den 1."""
    if all(type(x) is int for x in row):
        return list(row), 1
    fr = [x if isinstance(x, Fraction) else Fraction(x) for x in row]
    den = math.lcm(*(x.denominator for x in fr))
    return [x.numerator * (den // x.denominator) for x in fr], den


def primitive_vector(v) -> tuple[int, ...]:
    """Scale a rational vector by a positive rational to a primitive integer
    vector pointing the same way."""
    ints, _ = integer_row(v)
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


def _eliminate(M, ncols):
    """Fraction-free Gauss-Jordan elimination of the integer rows M in
    place, over their first ncols columns.  Returns (pivot columns, det),
    det > 0: afterwards each pivot row is zero in the other pivot columns
    and every pivot entry equals det, the last pivot (1 when there is
    none), the rows negated once when it is negative.  The divisions are
    exact, as in Bareiss's method."""
    pivots, prev = [], 1
    for c in range(ncols):
        k = len(pivots)
        r = next((i for i in range(k, len(M)) if M[i][c]), None)
        if r is None:
            continue
        M[k], M[r] = M[r], M[k]
        p = M[k][c]
        for i in range(len(M)):
            if i != k:
                a = M[i][c]
                M[i] = [(p * x - a * y) // prev for x, y in zip(M[i], M[k])]
        prev = p
        pivots.append(c)
        if len(pivots) == len(M):
            break
    if prev < 0:
        M[:] = [[-x for x in row] for row in M]
    return pivots, abs(prev)


def independent_subset(rows) -> list[int]:
    """Indices of a maximal independent subset, greedily in order: the
    pivot columns of the rows, scaled to integers, written as columns."""
    cols = [integer_row(row)[0] for row in rows]
    return _eliminate([list(r) for r in zip(*cols)], len(cols))[0]


def rank_of_rows(rows) -> int:
    """Rank over Q of a list of rational row vectors."""
    return len(independent_subset(rows))
