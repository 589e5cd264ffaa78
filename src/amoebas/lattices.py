"""Integer linear algebra: Smith normal form, kernels, quotient maps, and
ranks by fraction-free row reduction.

Matrices are lists of lists of ints (rows).  The Smith normal form is
sympy's; its transforms are checked in exact integer arithmetic, so kernels
and quotient projections come with unimodular certificates.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import InternalInvariantError


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a == 0:
                continue
            Bt = B[t]
            row = out[i]
            for j in range(m):
                row[j] += a * Bt[j]
    return out


def mat_vec(A, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in A)


def smith_normal_form(A):
    """Return (U, D, V, Uinv) with U*A*V = D diagonal, U and V unimodular.

    D's diagonal entries are nonnegative and satisfy the divisibility chain
    d1 | d2 | ... .  sympy computes the decomposition; U*A*V = D,
    U*Uinv = I, det V = +-1 and the shape of D are checked here exactly.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if not m or not n:
        return identity(m), [list(row) for row in A], identity(n), identity(m)
    from sympy.polys.domains import ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import smith_normal_decomp

    D, U, V = smith_normal_decomp(DomainMatrix.from_list(A, ZZ))
    Uinv, den = U.inv_den()
    if abs(V.det()) != 1:
        raise InternalInvariantError("smith column transform not unimodular")
    # den is +-1 for a unimodular U, so Uinv * den is the exact inverse
    D, U, V, Uinv = ([[int(x) for x in row] for row in M.to_list()] for M in (D, U, V, Uinv * den))
    if mat_mul(U, mat_mul(A, V)) != D:
        raise InternalInvariantError("smith normal form failed")
    if mat_mul(U, Uinv) != identity(m):
        raise InternalInvariantError("smith transform inverse failed")
    d = [D[t][t] for t in range(min(m, n))]
    off = any(D[i][j] for i in range(m) for j in range(n) if i != j)
    if off or any(x < 0 for x in d) or any(b % a if a else b for a, b in zip(d, d[1:])):
        raise InternalInvariantError("smith form not diagonal with d1 | d2 | ...")
    return U, D, V, Uinv


def integer_kernel(A) -> list[tuple[int, ...]]:
    """Basis of the lattice {x in Z^n : A x = 0} (a saturated sublattice)."""
    m = len(A)
    n = len(A[0]) if m else 0
    if m == 0:
        return [tuple(row) for row in identity(n)]
    _, D, V, _ = smith_normal_form(A)
    rank = sum(1 for t in range(min(m, n)) if D[t][t] != 0)
    return [tuple(V[r][j] for r in range(n)) for j in range(rank, n)]


def quotient_map(generators, n):
    """Projection of Z^n onto Z^(n-k) killing the span of the generators.

    Returns (phi, right_inverse): phi is an (n-k) x n integer matrix whose
    kernel is the saturation of the generators' span, with phi * right_inverse
    the identity (so phi is split surjective).
    """
    gens = [list(g) for g in generators]
    k = len(gens)
    if k == 0:
        eye = identity(n)
        return [list(r) for r in eye], [list(r) for r in eye]
    B = [[gens[j][i] for j in range(k)] for i in range(n)]  # n x k, columns = gens
    U, D, _, Uinv = smith_normal_form(B)
    rank = sum(1 for t in range(min(n, k)) if D[t][t] != 0)
    if rank != k:
        raise InternalInvariantError("quotient_map expects independent generators")
    phi = [U[r] for r in range(k, n)]
    rinv = [[Uinv[i][j] for j in range(k, n)] for i in range(n)]
    check = mat_mul(phi, rinv)
    if check != identity(n - k):
        raise InternalInvariantError("quotient right inverse failed")
    for g in gens:
        if any(x != 0 for x in mat_vec(phi, g)):
            raise InternalInvariantError("quotient kernel failed")
    return [list(r) for r in phi], rinv


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
    place, over their first ncols columns.  Returns (pivot columns, det):
    afterwards each pivot row is zero in the other pivot columns and every
    pivot entry equals det, the last pivot (1 when there is none).  The
    divisions are exact, as in Bareiss's method."""
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
    return pivots, prev


def independent_subset(rows) -> list[int]:
    """Indices of a maximal independent subset, greedily in order: the
    pivot columns of the rows, scaled to integers, written as columns."""
    cols = [integer_row(row)[0] for row in rows]
    return _eliminate([list(r) for r in zip(*cols)], len(cols))[0]


def rank_of_rows(rows) -> int:
    """Rank over Q of a list of rational row vectors."""
    return len(independent_subset(rows))


def in_rational_span(v, rows) -> bool:
    return len(rows) not in independent_subset([*rows, v])
