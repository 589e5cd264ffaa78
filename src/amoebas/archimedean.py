"""Archimedean amoeba membership for hypersurfaces over Q.

The amoeba at the archimedean place is never stored as a region; this module
answers pointwise queries with certificates.  At a log-modulus point v each
term contributes modulus r_i = |a_i| * exp(-<u_i, v>), kept symbolically as
the pair (|a_i|, -<u_i, v>) of exact rationals.  Each term modulus is
enclosed once per point, by integer bounds over one common power of two
from directed rounding, and every comparison of r_k with the sum of the
other moduli is decided from those shared bounds.  Only a comparison whose
bounds straddle zero goes to the exact refinement of sums
sum q_i * exp(t_i): equal exponents are grouped (exact equality detection),
then the enclosure is repeated at doubling precision; a nonzero sum with
distinct rational exponents is bounded away from zero, so refinement
terminates on every strict comparison.

A query's one exact fact is its dominance: the first term whose modulus
exceeds the sum of all the others, which certifies the point outside the
amoeba (lopsidedness, after Purbhoo), or none.  On a trinomial whose
exponent differences are unimodular (triangle_applicable) the same fact is
exact membership: no term dominates exactly when the moduli satisfy the
closed triangle inequality.  classify reads its verdicts off it; the
sampler looks for a verified numeric witness inside.
"""
from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    DegenerateSlice,
    ExponentSpreadTooLarge,
    PlaceFieldMismatch,
    PointTooLarge,
    TermCountMismatch,
)
from .lattices import integer_row
from .laurent import LaurentPoly, make_laurent
from .scalars import FIELD_Q

_FIRST_PRECISION = 64
_MAX_PRECISION = 4096
# Largest exponent spread of the solved coordinate: its slice polynomial
# has one coefficient per exponent, and a sweep stacks the companion
# matrices of its 65 phases for one eigenvalue call, 65 * 64**2 complex
# entries (about 4.3 MB) at this cap.
_MAX_EXPONENT_SPREAD = 64
# Relative tolerance of the sampler's verification: a witness's solved
# root must match the target modulus within _TOL of it, and |f(x)| must
# stay below _TOL times the sum of the term moduli.
_TOL = 1e-9


@dataclass(frozen=True)
class ArchQuery:
    """A hypersurface over Q with a rational log-modulus query point; holds
    the exact (|a_i|, -<u_i, v>) data behind the term moduli r_i."""

    poly: LaurentPoly
    point: tuple
    magnitudes: tuple   # |a_i| as Fractions
    exponents: tuple    # -<u_i, v> as Fractions

    @classmethod
    def at(cls, f: LaurentPoly, v):
        """The query of f at v.  PointTooLarge when a term exponent reaches
        2**_MAX_PRECISION in magnitude: each is enclosed at the working
        precision plus its own integer bits (_enclose), so below that bound
        an enclosure stays under twice the precision cap."""
        if f.field != FIELD_Q:
            raise PlaceFieldMismatch("archimedean queries need coefficients in Q")
        v = tuple(Fraction(x) for x in v)
        if len(v) != f.rank:
            raise ValueError("point rank mismatch")
        ints, den = integer_row(v)
        mags = tuple(abs(c) for _, c in f.terms)
        nums = [-sum(a * x for a, x in zip(u, ints)) for u, _ in f.terms]
        if max(map(abs, nums)) >= den << _MAX_PRECISION:
            raise PointTooLarge(f"a term exponent <u, v> reaches 2**{_MAX_PRECISION} in magnitude")
        return cls(f, v, mags, tuple(Fraction(n, den) for n in nums))

    def moduli(self):
        return [float(q) * math.exp(float(t)) for q, t in zip(self.magnitudes, self.exponents)]

    @cached_property
    def dominance(self):
        """(signs, k): the signs _dominance_signs yields up to and including
        the first +1, and the index k of that term, the one whose modulus
        exceeds the sum of all the others (None when no term does).  A k
        certifies the point outside.  A None sign is a comparison that
        refinement gave up on; with no k and no None no term dominates,
        which puts the point inside where triangle_applicable holds."""
        signs = []
        for sign in _dominance_signs(self):
            signs.append(sign)
            if sign == 1:
                return tuple(signs), len(signs) - 1
        return tuple(signs), None


def _floor_scaled(x, e):
    """floor(x * 2**-e) for a finite raw mpf x."""
    sign, man, exp, _ = x
    n = -man if sign else man
    return n << (exp - e) if exp >= e else n >> (e - exp)


def _enclose(terms, prec=_FIRST_PRECISION):
    """Integer bounds lo <= q * exp(t) * 2**-e <= hi for every (q, t) pair of
    rationals, over one common e; returns (e, [(lo, hi), ...]).

    Each product is enclosed at prec bits by directed rounding (mpmath's
    interval exponential and product, the routines behind its interval
    type), and its endpoints are rounded outward to integers at the scale
    prec bits below the largest endpoint.  t is enclosed at prec bits past
    its integer bits: exp turns the absolute error of t into its own
    relative error.  Past 600 bits mpmath raises e to an endpoint that is
    an integer by repeated squaring, whose cost grows with the endpoint, so
    there a t with a nonzero integer endpoint (an integer t, or one within
    an ulp of it) is enclosed as exp(t - 1/2) exp(1/2).
    """
    from mpmath.libmp import from_rational, mpf_neg, round_ceiling, round_floor
    from mpmath.libmp.libmpi import mpi_exp, mpi_mul

    def interval(x, bits=prec):
        n, d = x.numerator, x.denominator
        return from_rational(n, d, bits, round_floor), from_rational(n, d, bits, round_ceiling)

    def exp_interval(t):
        whole = abs(t.numerator).bit_length() - t.denominator.bit_length() + 1
        ends = interval(t, prec + max(0, whole))
        if prec > 600 and any(man and exp >= 0 for _, man, exp, _ in ends):
            half = Fraction(1, 2)
            return mpi_mul(exp_interval(t - half), exp_interval(half), prec)
        return mpi_exp(ends, prec)

    ends = [mpi_mul(interval(q), exp_interval(t), prec) for q, t in terms]
    top = max((x[2] + x[3] for pair in ends for x in pair if x[1]), default=0)
    e = top - prec
    return e, [(_floor_scaled(a, e), -_floor_scaled(mpf_neg(b), e)) for a, b in ends]


def sign_exp_sum(terms) -> int | None:
    """Exact sign of sum q * exp(t) over (q, t) pairs of rationals.

    Groups equal exponents first; a fully cancelling sum is exactly zero.
    Otherwise the terms are enclosed once per precision, doubling from 64
    bits, until the summed bounds exclude zero; None only if the precision
    cap is hit first (which a nonzero sum never does at desk scale).
    """
    groups: dict[Fraction, Fraction] = {}
    for q, t in terms:
        q, t = Fraction(q), Fraction(t)
        groups[t] = groups.get(t, Fraction(0)) + q
    pairs = [(q, t) for t, q in groups.items() if q != 0]
    if not pairs:
        return 0
    prec = _FIRST_PRECISION
    while prec <= _MAX_PRECISION:
        _, bounds = _enclose(pairs, prec)
        if sum(lo for lo, _ in bounds) > 0:
            return 1
        if sum(hi for _, hi in bounds) < 0:
            return -1
        prec *= 2
    return None


def _dominance_signs(q: ArchQuery):
    """Yield, for k = 0, 1, ..., the sign of r_k - sum_{j != k} r_j (None
    when refinement gives up).

    All k share one enclosure of the moduli at the first precision; a k
    whose bounds straddle zero, such as an exact tie, is decided by
    sign_exp_sum on its own terms.
    """
    terms = list(zip(q.magnitudes, q.exponents))
    _, bounds = _enclose(terms)
    total_lo = sum(lo for lo, _ in bounds)
    total_hi = sum(hi for _, hi in bounds)
    for k, (lo, hi) in enumerate(bounds):
        if lo - (total_hi - hi) > 0:
            yield 1
        elif hi - (total_lo - lo) < 0:
            yield -1
        else:
            yield sign_exp_sum(
                [terms[k]] + [(-m, t) for j, (m, t) in enumerate(terms) if j != k]
            )


def triangle_applicable(f: LaurentPoly) -> bool:
    """Whether the exact trinomial test applies: the two exponent differences
    must extend to a basis of the full exponent lattice, that is, both Smith
    invariant factors of the 2 x n difference matrix equal one.  Their
    product d1 * d2 is the gcd of the 2 x 2 minors, and d1 | d2, so that is
    the gcd of the minors being one.  Then a monomial change of coordinates
    makes the hypersurface a line in a two-torus times a torus factor, and a
    point lies in the amoeba exactly when the three term moduli satisfy the
    closed triangle inequality, that is, when no term dominates."""
    if f.nterms != 3:
        raise TermCountMismatch("the triangle test needs exactly three terms")
    if f.rank < 2:
        return False
    u = f.exponents()
    a = [x - z for x, z in zip(u[0], u[2])]
    b = [y - z for y, z in zip(u[1], u[2])]
    pairs = itertools.combinations(range(f.rank), 2)
    return math.gcd(*(a[i] * b[j] - a[j] * b[i] for i, j in pairs)) == 1


def evaluate_at(f: LaurentPoly, x) -> complex:
    total = 0j
    for u, c in f.terms:
        term = complex(float(c))
        for xk, e in zip(x, u):
            term *= xk ** e
        total += term
    return total


def _canonical_phase_tuples(count, length):
    """The first count tuples of dyadic phases.  Level m takes the angles
    2*pi*k/2**m, k in the order ks: level m-1's doubled, then each plus one,
    so level 2 is 0, pi, pi/2, 3*pi/2.  All tuples of level 2 come first,
    lexicographically; each later level adds, in the same order, the tuples
    with an entry an odd multiple of 2*pi/2**m."""

    def tuples():
        ks = [0, 1]
        while True:
            ks = [2 * k for k in ks] + [2 * k + 1 for k in ks]
            angles = [2 * math.pi * k / len(ks) for k in ks]
            for idx in itertools.product(range(len(ks)), repeat=length):
                if len(ks) == 4 or max(idx) >= len(ks) // 2:
                    yield tuple(angles[i] for i in idx)

    return list(itertools.islice(tuples(), count))


def _float_scale(q: ArchQuery):
    """The sum of the float term moduli, or None when they leave the float
    range: a modulus or their sum overflows, or the largest one is below
    the normal floats."""
    try:
        moduli = q.moduli()
    except OverflowError:
        return None
    scale = sum(moduli)
    return scale if sys.float_info.min <= max(moduli) and scale < math.inf else None


def _over_largest_term(q: ArchQuery) -> LaurentPoly:
    """f * x^(-u_k) for the first term k of largest exact modulus at the
    query point: the same zero set in the torus, with term moduli at most
    |a_k|."""
    k = 0
    for i in range(1, len(q.magnitudes)):
        pair = [(q.magnitudes[i], q.exponents[i]), (-q.magnitudes[k], q.exponents[k])]
        if sign_exp_sum(pair) == 1:
            k = i
    uk = q.poly.terms[k][0]
    shifted = [(tuple(a - b for a, b in zip(u, uk)), c) for u, c in q.poly.terms]
    return make_laurent(q.poly.rank, q.poly.field, shifted)


def _slice_rows(terms, moduli, width, phase_tuples):
    """(points, rows) for the univariate slices at each tuple of phases of
    the coordinates not solved for: points[j] lists those coordinates,
    moduli times phases, and rows[j] the slice's coefficients, highest
    degree first.  terms holds each term's float coefficient, its exponents
    of those coordinates and its solved exponent above the least one."""
    points, rows = [], []
    for phases in phase_tuples:
        x = [m * cmath.exp(1j * theta) for m, theta in zip(moduli, phases)]
        coeffs = [0j] * width
        for c, exps, degree in terms:
            val = c
            for xk, e in zip(x, exps):
                val *= xk ** e
            coeffs[degree] += val
        points.append(x)
        rows.append(coeffs[::-1])
    return points, rows


def _nonzero_roots(rows):
    """Yield [complex(r) for r in np.roots(p) if r != 0] for each row of
    coefficients, p being the row without its leading zeros, or None when
    p has at most one coefficient.

    np.roots cuts p to its nonzero span and takes the eigenvalues of the
    span's companion matrix.  Here each row's span is found on its values
    with the same predicates (abs > 0 at the leading end, != 0 at the
    trailing one), its end entries looked at before any scan; the
    companion matrices of one order, one row's or a sweep's, are built the
    same way and solved by one stacked np.linalg.eigvals call, which runs
    LAPACK on each matrix as np.roots does, so every root keeps its float
    bits.  A 1 x 1 companion matrix still goes to eigvals: LAPACK rescales
    a matrix whose norm is past about 1e+-138, and its eigenvalue then
    differs from the entry in the last bits, or in the sign of a zero.  A
    row whose companion matrix is not finite raises OverflowError when it
    is reached, where np.roots would refuse it.
    """
    import numpy as np

    roots = [None] * len(rows)
    groups = {}
    for i, row in enumerate(rows):
        n = len(row)
        a = 0 if abs(row[0]) > 0 else next((j for j in range(1, n) if abs(row[j]) > 0), n)
        if n - a <= 1:
            continue
        b = n - 1 if row[-1] != 0 else next(j for j in range(n - 2, a - 1, -1) if row[j] != 0)
        roots[i] = []  # a nonzero constant once cut to its span
        if b > a:
            groups.setdefault(b - a, []).append((i, row[a:b + 1]))
    stop = len(rows)  # the first row whose companion matrix is not finite
    for order, group in groups.items():
        idx, spans = zip(*group)
        p = np.array(spans, dtype=complex)
        companion = np.zeros((len(idx), order, order), dtype=complex)
        companion[:, np.arange(1, order), np.arange(order - 1)] = 1
        with np.errstate(all="ignore"):
            companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        finite = np.isfinite(companion[:, 0, :]).all(axis=1).tolist()
        k = len(idx) if all(finite) else finite.index(False)
        if k < len(idx):
            stop = min(stop, idx[k])
        # the group's rows from k on come after stop and are never yielded
        for i, values in zip(idx, np.linalg.eigvals(companion[:k]).tolist()):
            roots[i] = [r for r in values if r != 0]
    yield from roots[:stop]
    if stop < len(rows):
        raise OverflowError("a slice's companion matrix leaves the float range")


def sampled_inside(f: LaurentPoly, v, trials=200):
    """Search for a point of the hypersurface with the prescribed coordinate
    moduli; returns the witness tuple or None.

    One coordinate with maximal exponent spread is solved for exactly (as a
    univariate polynomial) while one other phase is swept and the rest stay
    at the first trials dyadic tuples of _canonical_phase_tuples.  A sweep
    builds the slices at its 65 phases of the swept circle and solves them
    in one stacked eigenvalue call, then scans them in phase order, so the
    first verified witness is the one a slice-by-slice scan finds.  Sign
    changes of the root-modulus excess between neighbouring phases are
    bisected one slice at a time, so boundary witnesses are found reliably.
    A candidate must match the target modulus within relative _TOL and pass
    the residual check |f(x)| < _TOL * sum(r_i).  When the term moduli leave
    the float range, the sampler and its residual run on f * x^(-u_k), k a
    term of largest modulus.  A point with a coordinate modulus exp(-v_k)
    that overflows or underflows to 0.0 has no float witness: None.  Nor
    has one whose slice coefficients leave the float range though its term
    moduli do not: the search returns None where it reaches a slice whose
    power overflows or whose companion matrix is not finite (an
    OverflowError), or whose power with a negative exponent divides by a
    power that underflowed to 0 (a ZeroDivisionError), after any earlier
    slice's witness.  Phases
    whose slice is a monomial are skipped; DegenerateSlice is raised only
    when every phase of every sweep gave one.  ExponentSpreadTooLarge is
    raised before any slice is built when the solved coordinate's exponent
    spread exceeds _MAX_EXPONENT_SPREAD.
    """
    if trials < 1:
        raise ValueError("trials >= 1 required")
    q = ArchQuery.at(f, v)
    spreads = [
        max(u[k] for u, _ in f.terms) - min(u[k] for u, _ in f.terms)
        for k in range(f.rank)
    ]
    solve = max(range(f.rank), key=lambda k: spreads[k])
    if spreads[solve] == 0:
        raise DegenerateSlice("no coordinate to solve for")
    if spreads[solve] > _MAX_EXPONENT_SPREAD:
        raise ExponentSpreadTooLarge(
            f"exponent spread {spreads[solve]} exceeds {_MAX_EXPONENT_SPREAD}"
        )
    try:
        rho = [math.exp(-float(x)) for x in q.point]
    except OverflowError:
        return None
    if 0.0 in rho:  # no float point has these coordinate moduli
        return None
    scale = _float_scale(q)
    if scale is None:  # the shift keeps every exponent spread
        q = ArchQuery.at(_over_largest_term(q), v)
        f, scale = q.poly, sum(q.moduli())
    target = rho[solve]

    def verify(x, root):
        if abs(abs(root) - target) > _TOL * target:
            return None
        w = (*x[:solve], root, *x[solve:])
        if abs(evaluate_at(f, w)) >= _TOL * scale:
            return None
        return w

    nfixed = f.rank - 2  # phases not swept
    assignments = _canonical_phase_tuples(trials, nfixed) if nfixed > 0 else [()]
    others = [k for k in range(f.rank) if k != solve]
    emin = min(u[solve] for u, _ in f.terms)
    terms = [(complex(float(c)), [u[k] for k in others], u[solve] - emin) for u, c in f.terms]
    moduli = [rho[k] for k in others]

    def slices(phase_tuples):
        points, rows = _slice_rows(terms, moduli, spreads[solve] + 1, phase_tuples)
        return zip(points, _nonzero_roots(rows))

    def probe(x, roots):
        """(verified witness or None, roots below the target modulus) for
        one solved slice; (None, None) when the slice is a monomial."""
        if not roots:
            return None, None
        best = min(roots, key=lambda r: abs(abs(r) - target))
        return verify(x, best), sum(1 for r in roots if abs(r) < target)

    def scan():
        if f.rank == 1:
            x, roots = next(slices([()]))
            if roots is None:
                raise DegenerateSlice("univariate input degenerates to a monomial")
            for r in roots:
                w = verify(x, r)
                if w:
                    return w
            return None

        sweep_grid = 64
        thetas = [2 * math.pi * t / sweep_grid for t in range(sweep_grid + 1)]
        degenerate = 0
        for fixed in assignments:
            samples = []
            for theta, (x, roots) in zip(thetas, slices([(t,) + fixed for t in thetas])):
                w, below = probe(x, roots)
                if w:
                    return w
                if below is not None:  # a monomial slice skips just this phase
                    samples.append((theta, below))
            if not samples:
                degenerate += 1
                continue
            for (t1, c1), (t2, c2) in zip(samples, samples[1:]):
                if c1 == c2:
                    continue
                lo, hi = t1, t2
                for _ in range(80):
                    mid = (lo + hi) / 2
                    w, below = probe(*next(slices([(mid,) + fixed])))
                    if w:
                        return w
                    if below is None:
                        break
                    if below == c1:
                        lo = mid
                    else:
                        hi = mid
        if degenerate == len(assignments):
            raise DegenerateSlice("every sampled slice degenerated to a monomial")
        return None

    try:
        return scan()
    except (OverflowError, ZeroDivisionError):  # a slice left the float range
        return None
