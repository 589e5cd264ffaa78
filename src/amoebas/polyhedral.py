"""Exact rational polyhedra, linear programming, and polyhedral complexes.

A Polyhedron is stored in H-representation as its own key: the tuple
(rank, eqs, ineqs), whose rows are keys (row, rhs numerator, rhs
denominator), all ints, so a polyhedron hashes, compares and sorts as that
tuple and no Fraction is hashed.  polyhedron() and preimage() canonicalize:
each row primitive, an equality's first nonzero entry positive, and the
rows of each kind sorted and deduplicated on their keys.  intersect()
merges the rows of canonical polyhedra the same way without canonicalizing
them again.  A Polyhedron stores no Fraction: Fractions appear in
polyhedron()'s input, the read-only equalities and inequalities views, and
the values and points returned.

The LP solver is a two-phase tableau simplex with Bland's rule, so
termination is guaranteed.  Its tableau holds Python ints over one common
positive denominator and is updated by fraction-free (Bareiss) pivots,
every division exact.  Every answer is exact and is checked against its
certificate (dual multipliers, an improving ray, or Farkas multipliers)
before it is returned; it also takes a Polyhedron whose rows are not
canonical.  The one cached query is keyed_interior_point: None when P is
empty, else a point of P strict on every row that is not an implicit
equality together with the frame it solved.  The frame is P's stated
equalities solved once into every solution (x0 + C z) / den, one column of
C per free direction, checked against every equality; keyed_reduction
drops implied rows with it, greedily in row order, so no frame is solved
twice.  With at most one free direction that point, redundancy removal and
maximize read their answers off the interval of z with integer
comparisons, each answer checked like an LP's; with k >= 2 the point takes
one slack LP per round and redundancy removal one LP per row, each over
the k coordinates of z.  maximize returns the maximizer, where that is one
point, as ints over one positive denominator.
A minimum is the maximum of the negated objective.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import DimensionMismatch, InternalInvariantError
from .lattices import _eliminate as _gauss_jordan
from .lattices import integer_row


def _canon_constraint(row, rhs, is_equality):
    """The key (row, rhs numerator, rhs denominator) of the constraint
    scaled to a primitive integer row, an equality's first nonzero entry
    positive; None for vacuous rows and the string "infeasible" for
    unsatisfiable zero rows."""
    row, den = integer_row(row)
    g = math.gcd(*row)
    if g == 0:
        if rhs == 0 or (not is_equality and rhs > 0):
            return None
        return "infeasible"
    if is_equality and next(x for x in row if x) < 0:
        g = -g
    if g != 1 or den != 1:
        row, rhs = [x // g for x in row], Fraction(rhs * den, g)
    elif type(rhs) is not Fraction:
        rhs = Fraction(rhs)
    return tuple(row), rhs.numerator, rhs.denominator


def _pairs(keys):
    return tuple((row, Fraction(num, den)) for row, num, den in keys)


class Polyhedron(NamedTuple):
    """H-representation {v : eq. rows v = rhs, ineq. rows v <= rhs}, each
    row held as its key (row, rhs numerator, rhs denominator)."""

    rank: int
    eqs: tuple
    ineqs: tuple

    @property
    def equalities(self):
        """The equalities as (row, Fraction rhs), a read-only view."""
        return _pairs(self.eqs)

    @property
    def inequalities(self):
        """The inequalities as (row, Fraction rhs), a read-only view."""
        return _pairs(self.ineqs)


def polyhedron(rank, equalities=(), inequalities=()):
    """Canonicalizing constructor from (row, rhs) pairs with rational
    entries: primitive rows, sorted and deduplicated on their keys."""
    groups = []
    for cons, is_equality in ((equalities, True), (inequalities, False)):
        canon = [_canon_constraint(row, rhs, is_equality) for row, rhs in cons]
        if "infeasible" in canon:
            return empty_polyhedron(rank)
        groups.append(tuple(sorted(set(canon) - {None})))
    return Polyhedron(rank, *groups)


def empty_polyhedron(rank):
    return Polyhedron(rank, (((0,) * rank, 1, 1),), ())


def intersect(*polys):
    """Intersection of canonical polyhedra: their row keys merged, each
    once and sorted, equal to polyhedron() on all their rows.  Only
    empty_polyhedron() holds the zero row, and an input that holds it gives
    the empty polyhedron."""
    rank = polys[0].rank
    if any(p.rank != rank for p in polys):
        raise DimensionMismatch("intersecting polyhedra of different ranks")
    eqs = {row for p in polys for row in p.eqs}
    if ((0,) * rank, 1, 1) in eqs:
        return empty_polyhedron(rank)
    return Polyhedron(rank, tuple(sorted(eqs)), tuple(sorted({row for p in polys for row in p.ineqs})))


def contains_point(P, v, scale=1) -> bool:
    """Whether the point v / scale (scale > 0) lies in P."""
    if len(v) != P.rank:
        raise DimensionMismatch("point rank mismatch")
    # v / scale = ints / den; each row's gap, over den and the rhs denominator
    ints, den = integer_row(v)
    den *= scale
    gap = lambda row, num, rden: _dot(row, ints) * rden - num * den
    return not any(gap(*c) for c in P.eqs) and all(gap(*c) <= 0 for c in P.ineqs)


# ---------------------------------------------------------------------------
# exact simplex


@dataclass(frozen=True)
class LPOptimal:
    value: Fraction
    point: tuple
    multipliers: tuple  # equalities, then inequalities, of the maximization solved


@dataclass(frozen=True)
class LPUnbounded:
    ray: tuple
    point: tuple


@dataclass(frozen=True)
class LPInfeasible:
    farkas: tuple  # multipliers over equalities, then inequalities


def _pivot(T, basis, d, r, c):
    """Fraction-free (Bareiss) pivot on T[r][c] of an integer tableau whose
    entries are d times the true ones.  Returns the new denominator: the
    pivot, negated together with every row when negative, so d stays
    positive.  The pivot row keeps its entries.  Each division is exact; as
    floor remainders by d > 0 are nonnegative, equal row sums prove it."""
    p = T[r][c]
    Tr = T[r]
    sr = sum(Tr)
    for i, Ti in enumerate(T):
        f = Ti[c]
        if i == r or (f == 0 and p == d):
            continue
        if d == 1:
            T[i] = [p * x - f * y for x, y in zip(Ti, Tr)]
            continue
        new = [(p * x - f * y) // d for x, y in zip(Ti, Tr)]
        if p * sum(Ti) - f * sr != d * sum(new):
            raise InternalInvariantError("inexact Bareiss division")
        T[i] = new
    if p < 0:
        T[:] = [[-x for x in row] for row in T]
        p = -p
    basis[r] = c
    return p


def _run_simplex(T, basis, d, ncols):
    """Bland's-rule simplex on an integer tableau with denominator d > 0
    whose last row holds reduced costs (minimization); only the first ncols
    columns may enter.  Returns ("optimal", d), or (entering column, d) when
    unbounded."""
    m = len(T) - 1
    while True:
        cost = T[-1]
        enter = next((j for j in range(ncols) if cost[j] < 0), -1)
        if enter < 0:
            return "optimal", d
        leave = -1
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                b = T[i][-1]
                if leave < 0:
                    leave, best_a, best_b = i, a, b
                    continue
                # ratio b / a against best_b / best_a, both a positive
                lhs, rhs = b * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_a, best_b = i, a, b
        if leave < 0:
            return enter, d
        d = _pivot(T, basis, d, leave, enter)


# Certificate checks on integer numerators.  Constraint i reads
# rows[i] . v = rhs[i] for i < neq and rows[i] . v <= rhs[i] otherwise.


def _dot(a, b):
    return sum(map(operator.mul, a, b))


def _combine(lam, rows, n):
    return [sum(l * row[k] for l, row in zip(lam, rows) if l) for k in range(n)]


def _check_point(rows, rhs, neq, point, d):
    """point / d satisfies every constraint."""
    for i, (row, b) in enumerate(zip(rows, rhs)):
        lhs = _dot(row, point)
        if (lhs != d * b) if i < neq else (lhs > d * b):
            raise InternalInvariantError("LP point violates a constraint")


def _check_farkas(rows, rhs, neq, lam):
    """lam, nonnegative on inequalities, combines the rows into 0 and the
    rhs into a negative number: the constraints have no common point."""
    n = len(rows[0]) if rows else 0
    ok = not any(_combine(lam, rows, n)) and _dot(lam, rhs) < 0
    if not (ok and all(l >= 0 for l in lam[neq:])):
        raise InternalInvariantError("Farkas certificate failed its check")


def _check_optimal(rows, rhs, neq, obj, lam, point, d):
    """point / d is feasible, and lam, nonnegative on inequalities,
    combines the rows into d * obj and the rhs into obj . point: by weak
    duality no feasible point does better than point / d."""
    _check_point(rows, rhs, neq, point, d)
    ok = _combine(lam, rows, len(obj)) == [d * o for o in obj]
    if not (ok and all(l >= 0 for l in lam[neq:]) and _dot(lam, rhs) == _dot(obj, point)):
        raise InternalInvariantError("optimality certificate failed its check")


def _check_unbounded(rows, rhs, neq, obj, ray, point, d):
    """point / d is feasible, and ray keeps every constraint and improves
    obj."""
    _check_point(rows, rhs, neq, point, d)
    ok = all(_dot(row, ray) == 0 for row in rows[:neq]) and _dot(obj, ray) > 0
    if not (ok and all(_dot(row, ray) <= 0 for row in rows[neq:])):
        raise InternalInvariantError("unboundedness certificate failed its check")


def _over_lcm(keys):
    """(rows, rhs, D): the rows of the row keys and their rhs as ints over
    D, the lcm of the rhs denominators."""
    D = math.lcm(*(den for _, _, den in keys))
    return [row for row, _, _ in keys], [num * (D // den) for _, num, den in keys], D


def lp_solve(objective, P: Polyhedron):
    """Exact LP over the polyhedron: maximize objective . v.

    Returns LPOptimal (value, a witness point, and optimal multipliers: the
    combination of the constraints, equalities then inequalities,
    nonnegative on inequalities, that gives the objective), LPUnbounded (an
    improving ray from a feasible point), or LPInfeasible (with Farkas
    multipliers in the same order).  Each outcome passes its certificate
    check (optimal multipliers, the ray, the Farkas multipliers) before it
    is returned; a failed check raises InternalInvariantError.
    """
    n = P.rank
    obj = [Fraction(x) for x in objective]
    if len(obj) != n:
        raise DimensionMismatch("objective rank mismatch")

    # integer data: the stored rows, rhs scaled by D0, objective by L
    neq = len(P.eqs)
    rows, rhs, D0 = _over_lcm(P.eqs + P.ineqs)
    cobj, L = integer_row(obj)
    m = len(rows)
    nfree = 2 * n
    ncols = nfree + m - neq

    # columns [y+ | y- | slacks | artificials | rhs]; a row with negative
    # rhs is negated, and it and every equality get an artificial column
    signs = [-1 if b < 0 else 1 for b in rhs]
    art_col = {}
    for i in range(m):
        if i < neq or signs[i] < 0:
            art_col[i] = ncols + len(art_col)
    col_of_row = [art_col.get(i, nfree + i - neq) for i in range(m)]
    width = ncols + len(art_col) + 1
    T = []
    for i, row in enumerate(rows):
        s = signs[i]
        full = [s * x for x in row] + [-s * x for x in row] + [0] * (width - nfree)
        if i >= neq:
            full[nfree + i - neq] = s
        full[col_of_row[i]] = 1
        full[-1] = s * rhs[i]
        T.append(full)
    basis = list(col_of_row)

    # phase 1: minimize the sum of artificials
    cost = [0] * width
    for i, a in art_col.items():
        cost[a] = 1
        cost = [c - x for c, x in zip(cost, T[i])]
    T.append(cost)
    status, d = _run_simplex(T, basis, 1, width - 1)
    if status != "optimal":
        raise InternalInvariantError("phase 1 cannot be unbounded")
    if T[-1][-1] != 0:
        # infeasible; Farkas multipliers (over d) from the phase-1 duals
        lam = [
            (T[-1][col_of_row[i]] - (d if i in art_col else 0)) * signs[i]
            for i in range(m)
        ]
        _check_farkas(rows, rhs, neq, lam)
        return LPInfeasible(tuple(Fraction(x, d) for x in lam))

    # drive artificials out of the basis, dropping redundant rows
    drop = []
    for i in range(m):
        if basis[i] >= ncols:
            piv = next((j for j in range(ncols) if T[i][j] != 0), None)
            if piv is None:
                drop.append(i)
            else:
                d = _pivot(T, basis, d, i, piv)
    for i in reversed(drop):
        del T[i]
        del basis[i]
    mm = len(T) - 1

    # phase 2: minimize -obj . (y+ - y-), costs over d * L; the artificial
    # columns stay for the multipliers but never enter
    cost = [0] * width
    for k in range(n):
        cost[k] = -cobj[k] * d
        cost[n + k] = cobj[k] * d
    for i in range(mm):
        f = cost[basis[i]] // d
        if f != 0:
            cost = [c - f * x for c, x in zip(cost, T[i])]
    T[-1] = cost
    status, d = _run_simplex(T, basis, d, ncols)

    # the point over d * D0, multipliers over d * L, the ray over d
    x = [0] * ncols
    for i in range(mm):
        x[basis[i]] = T[i][-1]
    point = [x[k] - x[n + k] for k in range(n)]
    pt = tuple(Fraction(v, d * D0) for v in point)
    if status == "optimal":
        lam = [T[-1][col_of_row[i]] * signs[i] for i in range(m)]
        _check_optimal(rows, rhs, neq, cobj, lam, point, d)
        mult = tuple(Fraction(x, d * L) for x in lam)
        return LPOptimal(Fraction(_dot(cobj, point), L * d * D0), pt, mult)
    r = [0] * ncols
    r[status] = d
    for i in range(mm):
        r[basis[i]] = -T[i][status]
    ray = [r[k] - r[n + k] for k in range(n)]
    _check_unbounded(rows, rhs, neq, cobj, ray, point, d)
    return LPUnbounded(tuple(Fraction(v, d) for v in ray), pt)


# Entries of the keyed_interior_point cache; bounds memory in a long-lived process.
_CACHE_SIZE = 4096


def _gap(a, b):
    """For rows s z <= t that bound z on the same side: negative, zero or
    positive as a's bound is tighter than, equal to or looser than b's."""
    (s, t), (u, w) = a, b
    return (t * u - w * s) * s


def _tightest(st):
    """[lower, upper]: the index of the last row of st with the tightest
    bound on that side of z, found in one pass; None where no row bounds
    it."""
    best = [None, None]
    for i, (s, t) in enumerate(st):
        if s:
            j = best[s > 0]
            if j is None or _gap((s, t), st[j]) <= 0:
                best[s > 0] = i
    return best


def _frame(P, most=math.inf):
    """The stated equalities of P, read off their ints, solved once into
    the frame (x0, cols, den), integer with den > 0: the
    solutions are (x0 + sum_j z_j cols[j]) / den for real z, one column per
    free direction.  None when there are more than most free directions,
    and "empty" when the equalities are inconsistent.  The elimination
    carries identity columns, so inconsistent equalities leave a
    combination reading 0 = nonzero, which is checked as a Farkas
    certificate; a frame is checked against every equality."""
    n, m = P.rank, len(P.eqs)
    rows, rhs, D = _over_lcm(P.eqs)
    M = [[*row, b, *(int(i == j) for j in range(m))] for i, (row, b) in enumerate(zip(rows, rhs))]
    pivots, det = _gauss_jordan(M, n)
    lam = next((r[n + 1:] for r in M[len(pivots):] if r[n]), None)
    if lam is not None:
        _check_farkas(rows, rhs, m, lam if _dot(lam, rhs) < 0 else [-x for x in lam])
        return "empty"
    free = [c for c in range(n) if c not in pivots]
    if len(free) > most:
        return None
    # pivot row r reads det * v[p] + sum_f r[f] * v[f] = r[n] / D
    x0, cols = [0] * n, [[0] * n for _ in free]
    for p, r in zip(pivots, M):
        x0[p] = r[n]
        for col, f in zip(cols, free):
            col[p] = -r[f]
    for col, f in zip(cols, free):
        col[f] = det
    den = D * det
    if den < 0:
        x0, den = [-x for x in x0], -den
    if any(_dot(row, x0) * D != b * den or any(_dot(row, col) for col in cols) for row, b in zip(rows, rhs)):
        raise InternalInvariantError("the frame misses a stated equality")
    return tuple(x0), tuple(map(tuple, cols)), den


def _frame_rows(ineqs, x0, cols, den):
    """Each inequality key (a, c.num, c.den), reading a . v <= c, on the
    frame as the integer row s z <= t: s_j = (a . cols[j]) c.den and
    t = c.num den - (a . x0) c.den."""
    return tuple(
        (tuple(_dot(a, col) * cd for col in cols), cn * den - _dot(a, x0) * cd) for a, cn, cd in ineqs
    )


def _on_line(P, frame):
    """(frame, st, bounds) read off what _frame returned for P, when that has at most one column; None passes through.  With frame =
    (x0, col, den) the solutions are (x0 + z col) / den for real z (col =
    0 when none is free); st[i] = (s, t) is inequality i as the integer
    row s z <= t; bounds = (lo, hi) are the rows of st with the tightest
    lower and upper bound on z (_tightest; None on an open side), or None
    when P is empty.
    Inconsistent equalities give None and () for frame and st.  An empty
    interval is checked by the Farkas combination of a row constant in z
    or of the two bounding rows, which cross."""
    if frame is None:
        return None
    if frame == "empty":
        return None, (), None
    x0, cols, den = frame
    col = cols[0] if cols else (0,) * P.rank
    frame = x0, col, den
    st = tuple((s, t) for (s,), t in _frame_rows(P.ineqs, x0, (col,), den))
    lo, hi = _tightest(st)
    cert = next((([i], [1]) for i, (s, t) in enumerate(st) if not s and t < 0), None)
    if cert is None and None not in (lo, hi):
        (sl, tl), (sh, th) = st[lo], st[hi]
        if sh * tl - sl * th < 0:
            cert = [lo, hi], [sh, -sl]
    if cert is not None:
        _check_farkas([(st[i][0],) for i in cert[0]], [st[i][1] for i in cert[0]], 0, cert[1])
        return frame, st, None
    return frame, st, (lo, hi)


def _end(st, i):
    """(n, d), d > 0: the bound z = n / d of row i of st."""
    s, t = st[i]
    return (t, s) if s > 0 else (-t, -s)


def _midpoint(st, lo, hi):
    """(n, d), d > 0: z = n / d strictly between the bounds of rows lo and
    hi (one past a bound on an open side), or the bound where the two
    meet."""
    if lo is None and hi is None:
        return 0, 1
    if lo is None:
        n, d = _end(st, hi)
        return n - d, d
    if hi is None:
        n, d = _end(st, lo)
        return n + d, d
    (a, b), (c, e) = _end(st, lo), _end(st, hi)
    return a * e + c * b, 2 * b * e


def _on_frame(frame, zn, zd):
    """(ints, d): the point (x0 + z col) / den at z = zn / zd, zd > 0, as
    ints over d = den * zd."""
    x0, col, den = frame
    return tuple(a * zd + c * zn for a, c in zip(x0, col)), den * zd


def _point_on(frame, zn, zd):
    """The point of _on_frame as Fractions."""
    ints, d = _on_frame(frame, zn, zd)
    return tuple(Fraction(v, d) for v in ints)


def _implicit_on_line(P, frame, st, bounds):
    """A relative-interior point of P off its line, or None when P is
    empty: a row is an implicit equality exactly when it is tight at the
    midpoint of the interval of z, and the point, checked in P on the row
    keys' ints, must be strict on exactly the other rows."""
    if bounds is None:
        return None
    zn, zd = _midpoint(st, *bounds)
    implicit = {i for i, (s, t) in enumerate(st) if s * zn == t * zd}
    ints, d = _on_frame(frame, zn, zd)
    gaps = lambda keys: [_dot(row, ints) * rd - num * d for row, num, rd in keys]
    if any(gaps(P.eqs)) or any(g > 0 or (g < 0) == (i in implicit) for i, g in enumerate(gaps(P.ineqs))):
        raise InternalInvariantError("the point on the line is not strict exactly off the implicit rows")
    return _point_on(frame, zn, zd)


def _implicit_by_lps(ineqs, x0, cols, den):
    """A relative-interior point of P, or None when P is empty, found in
    the k coordinates z of P's frame (k = len(cols)), where each of P's
    inequality keys ineqs is the integer row s z <= t of _frame_rows.
    Each round maximizes u <= 1 subject to s z + u <= t on the rows not
    yet known to be implicit equalities, with the rest kept as equalities.
    Infeasible or u < 0: P is empty.  u > 0: the point is relatively
    interior.  u = 0: the multipliers of those rows sum to 1, and each row
    with a positive one holds with equality on all of P (complementary
    slackness), so every round finds one."""
    st, k, implicit = _frame_rows(ineqs, x0, cols, den), len(cols), set()
    cap = ((0,) * k + (1,), 1, 1)
    while True:
        eqs = tuple(((*s, 0), t, 1) for i, (s, t) in enumerate(st) if i in implicit)
        free = [i for i in range(len(st)) if i not in implicit]
        slack = tuple(((*st[i][0], 1), st[i][1], 1) for i in free)
        res = lp_solve(cap[0], Polyhedron(k + 1, eqs, slack + (cap,)))
        if isinstance(res, LPUnbounded):
            raise InternalInvariantError("interior slack is capped, cannot be unbounded")
        if isinstance(res, LPInfeasible) or res.value < 0:
            return None
        if res.value > 0:
            z, d = integer_row(res.point[:k])
            return tuple(Fraction(a * d + _dot(z, c), den * d) for a, *c in zip(x0, *cols))
        found = {i for i, lam in zip(free, res.multipliers[len(eqs):]) if lam > 0}
        if not found:
            raise InternalInvariantError("a zero-slack round found no implicit equality")
        implicit |= found


@functools.lru_cache(maxsize=_CACHE_SIZE)
def keyed_interior_point(P):
    """(point, frame) for the polyhedron P, or None when P is empty: point
    is a rational point of P strict on every row that is not an implicit
    equality, and frame is what _frame solved P's stated equalities into,
    so that keyed_reduction need not solve it again.  Cached on P, which
    holds ints alone, so that no Fraction is hashed, and which is equal to
    the plain tuple (rank, eqs, ineqs).  The point is read off the line
    when P's equalities leave at most one free direction, else found by
    one slack LP per round in the coordinates of P's frame."""
    frame = _frame(P)
    if frame != "empty" and len(frame[1]) > 1:
        point = _implicit_by_lps(P.ineqs, *frame)
    else:
        point = _implicit_on_line(P, *_on_line(P, frame))
    return None if point is None else (point, frame)


def _check_kept(st, i, others, z):
    """z breaks row i of st and keeps the rows in others: those do not
    imply row i."""
    if st[i][0] * z <= st[i][1] or any(st[j][0] * z > st[j][1] for j in others):
        raise InternalInvariantError("a kept row's witness failed its check")


def _kept(P, frame):
    """The indices of the inequalities that redundancy removal keeps in a
    nonempty P, given P's _frame.  Greedily in row order, a row
    is dropped when the equalities and the rows still kept imply it.  On
    P's line (at most one free direction) that keeps the last row with the
    tightest bound on z on each side, as _on_line finds them in one pass,
    each checked by a point that breaks it alone.  Else, in the k
    coordinates of P's frame, a row constant there is dropped and each
    other row takes one LP, whose value decides."""
    if frame == "empty" or len(frame[1]) < 2:
        _, st, bounds = _on_line(P, frame)
        keep = [i for i in bounds or () if i is not None]
        for i in keep:
            s, t = st[i]  # z = t / s one past row i's bound
            _check_kept(st, i, [j for j in keep if j != i], Fraction(t + abs(s), s))
        return keep
    st, k = _frame_rows(P.ineqs, *frame), len(frame[1])
    keep = [i for i, (s, _) in enumerate(st) if any(s)]
    for i in list(keep):
        others = [j for j in keep if j != i]
        res = lp_solve(st[i][0], Polyhedron(k, (), tuple((*st[j], 1) for j in others)))
        if isinstance(res, LPOptimal) and res.value <= st[i][1]:
            keep = others
    return keep


def keyed_reduction(P, frame):
    """P with the inequalities implied by the rest dropped, greedily in
    row order (_kept), for a nonempty P and the frame keyed_interior_point
    solved for it.  The rows kept are a sorted subset of P's, so a
    canonical P stays canonical."""
    return Polyhedron(P.rank, P.eqs, tuple(P.ineqs[i] for i in sorted(_kept(P, frame))))


def maximize(objective, P, level=None):
    """(value, point) over the Polyhedron P, whose rows need not be
    canonical.  value is the maximum of
    objective . v over P: a Fraction, math.inf when it is unbounded, or
    None when P is empty.  point is (ints, d), the point ints / d with
    d > 0: the one point of P that attains a finite maximum, or, for an
    unbounded one and a given level, the one point of P's line where
    objective . v == level if P holds it, or else the end of P where the
    objective is least, above level (an int or Fraction); otherwise None.
    When P's equalities leave at most one free direction both are read off
    the interval of z in ints, the value with its optimality or
    unboundedness certificate checked on that line, and no Polyhedron is
    built; the maximizer is then one z when the objective moves along the
    line (c != 0), when no direction is free, or when the interval is a
    single z.  Otherwise the value is lp_solve's on P, and point is None."""
    line = _on_line(P, _frame(P, 1))
    if line is None:
        res = lp_solve(objective, P)
        value = None if isinstance(res, LPInfeasible) else res.value if isinstance(res, LPOptimal) else math.inf
        return value, None
    frame, st, bounds = line
    if bounds is None:
        return None, None
    (x0, col, den), (obj, L) = frame, integer_row(objective)
    c = _dot(obj, col)
    j = bounds[c > 0] if c else None
    rows, rhs, lam = [(s,) for s, _ in st], [t for _, t in st], [0] * len(st)
    if j is None:
        zn, zd = _midpoint(st, *bounds)
        if c:
            _check_unbounded(rows, rhs, 0, [c], [1 if c > 0 else -1], [zn], zd)
            if level is None:
                return math.inf, None
            # obj . (x0 + z col) == level * den * L, or the bound below it
            ln, ld = level.numerator, level.denominator
            zn, zd = ln * den * L - _dot(obj, x0) * ld, c * ld
            zn, zd = (zn, zd) if c > 0 else (-zn, -zd)
            if not all(s * zn <= t * zd for s, t in st):
                zn, zd = _end(st, bounds[c < 0])
            return math.inf, _on_frame(frame, zn, zd)
    else:
        # z = t / s at the bounding row, kept over |s| so that |c| is its multiplier
        s, t = st[j]
        zn, zd, lam[j] = (t, s, c) if s > 0 else (-t, -s, -c)
    _check_optimal(rows, rhs, 0, [c], lam, [zn], zd)
    value = Fraction(_dot(obj, x0) * zd + c * zn, den * zd * L)
    lo, hi = bounds
    one = c or not any(col) or (None not in bounds and st[lo][1] * st[hi][0] == st[hi][1] * st[lo][0])
    return value, _on_frame(frame, zn, zd) if one else None


# ---------------------------------------------------------------------------
# preimage


def preimage(P: Polyhedron, phi) -> Polyhedron:
    """{v : phi v in P} for an integer matrix phi (m x n), P in R^m."""
    m = len(phi)
    if P.rank != m:
        raise DimensionMismatch("preimage matrix shape mismatch")
    n = len(phi[0]) if m else 0
    pull = lambda keys: [
        ([sum(row[i] * phi[i][j] for i in range(m)) for j in range(n)], Fraction(num, den)) for row, num, den in keys
    ]
    return polyhedron(n, pull(P.eqs), pull(P.ineqs))


# ---------------------------------------------------------------------------
# complexes


@dataclass(frozen=True)
class Cell:
    """A polyhedron with optional corner-locus labels: the set of term
    indices achieving the minimum on it, and its lattice multiplicity."""

    polyhedron: Polyhedron
    tie_set: frozenset | None = None
    multiplicity: int | None = None

    def sort_key(self):
        tie = tuple(sorted(self.tie_set)) if self.tie_set is not None else ()
        return (tie, self.polyhedron)


@dataclass(frozen=True)
class PolyhedralComplex:
    rank: int
    cells: tuple


def make_complex(rank, cells) -> PolyhedralComplex:
    cells = tuple(sorted(cells, key=lambda c: c.sort_key()))
    for c in cells:
        if c.polyhedron.rank != rank:
            raise DimensionMismatch("cell rank mismatch")
    return PolyhedralComplex(rank, cells)


# ---------------------------------------------------------------------------
# JSON


def polyhedron_to_json(P: Polyhedron) -> dict:
    """Each rhs is written as str(Fraction) writes it: num/den, or num
    alone when den is 1."""
    rows = lambda keys: [{"row": list(r), "rhs": f"{num}/{den}" if den != 1 else str(num)} for r, num, den in keys]
    return {"rank": P.rank, "equalities": rows(P.eqs), "inequalities": rows(P.ineqs)}


def complex_to_json(C: PolyhedralComplex) -> dict:
    cells = []
    for c in C.cells:
        d = polyhedron_to_json(c.polyhedron)
        d["tie_set"] = sorted(c.tie_set) if c.tie_set is not None else None
        d["multiplicity"] = c.multiplicity
        cells.append(d)
    return {"rank": C.rank, "cells": cells}
