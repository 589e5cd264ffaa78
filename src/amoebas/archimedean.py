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

Three verdicts are possible and propagate downstream: certified outside
(lopsidedness or the exact trinomial triangle test), a verified numeric
witness inside, or unknown.
"""
from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateSlice, ExponentSpreadTooLarge, TermCountMismatch
from .laurent import LaurentPoly
from .scalars import FIELD_Q

INSIDE = "inside"
OUTSIDE = "outside"
NOT_APPLICABLE = "not-applicable"

_FIRST_PRECISION = 64
_MAX_PRECISION = 4096
# Largest exponent spread of the solved coordinate: its slice polynomial
# has one coefficient per exponent and np.roots solves a companion matrix
# of that order at every sampled phase.
_MAX_EXPONENT_SPREAD = 64


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
        if f.field != FIELD_Q:
            raise TypeError("archimedean queries need coefficients in Q")
        v = tuple(Fraction(x) for x in v)
        if len(v) != f.rank:
            raise ValueError("point rank mismatch")
        mags = tuple(abs(c) for _, c in f.terms)
        exps = tuple(-sum(a * x for a, x in zip(u, v)) for u, _ in f.terms)
        return cls(f, v, mags, exps)

    def moduli(self):
        return [float(q) * math.exp(float(t)) for q, t in zip(self.magnitudes, self.exponents)]


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
    prec bits below the largest endpoint.
    """
    from mpmath.libmp import from_rational, mpf_neg, round_ceiling, round_floor
    from mpmath.libmp.libmpi import mpi_exp, mpi_mul

    def interval(x):
        n, d = x.numerator, x.denominator
        return from_rational(n, d, prec, round_floor), from_rational(n, d, prec, round_ceiling)

    ends = [mpi_mul(interval(q), mpi_exp(interval(t), prec), prec) for q, t in terms]
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


def lopsided_outside(f: LaurentPoly, v) -> bool:
    """True when one term modulus exceeds the sum of all the others, which
    certifies that v is outside the archimedean amoeba; False says nothing."""
    return any(sign == 1 for sign in _dominance_signs(ArchQuery.at(f, v)))


def triangle_applicable(f: LaurentPoly) -> bool:
    """Whether the exact trinomial test applies: the two exponent differences
    must extend to a basis of the full exponent lattice, that is, both Smith
    invariant factors of the 2 x n difference matrix equal one.  Their
    product d1 * d2 is the gcd of the 2 x 2 minors, and d1 | d2, so that is
    the gcd of the minors being one."""
    if f.nterms != 3:
        raise TermCountMismatch("the triangle test needs exactly three terms")
    if f.rank < 2:
        return False
    u = f.exponents()
    a = [x - z for x, z in zip(u[0], u[2])]
    b = [y - z for y, z in zip(u[1], u[2])]
    pairs = itertools.combinations(range(f.rank), 2)
    return math.gcd(*(a[i] * b[j] - a[j] * b[i] for i, j in pairs)) == 1


def triangle_exact_membership(f: LaurentPoly, v) -> str:
    """Exact amoeba membership for unimodular trinomials.

    After a monomial change of coordinates the hypersurface is a line in a
    two-torus times a torus factor, and v lies in the amoeba exactly when the
    three term moduli satisfy the closed triangle inequality.
    """
    if not triangle_applicable(f):
        return NOT_APPLICABLE
    for sign in _dominance_signs(ArchQuery.at(f, v)):
        if sign is None:
            return NOT_APPLICABLE
        if sign == 1:
            return OUTSIDE
    return INSIDE


def evaluate_at(f: LaurentPoly, x) -> complex:
    total = 0j
    for u, c in f.terms:
        term = complex(float(c))
        for xk, e in zip(x, u):
            term *= xk ** e
        total += term
    return total


def _canonical_phase_tuples(count, length):
    """Deterministic phase assignments tried before random ones: the first
    count tuples over the fourth roots of unity, lexicographically."""
    base = (0.0, math.pi, math.pi / 2, 3 * math.pi / 2)
    return list(itertools.islice(itertools.product(base, repeat=length), count))


def _slice_roots(f, v_float, solve, fixed_phases):
    """Substitute moduli+phases for all coordinates except ``solve`` and
    return the nonzero roots of the resulting univariate polynomial."""
    others = [k for k in range(f.rank) if k != solve]
    x = {}
    for k, theta in zip(others, fixed_phases):
        x[k] = math.exp(-v_float[k]) * cmath.exp(1j * theta)
    emin = min(u[solve] for u, _ in f.terms)
    emax = max(u[solve] for u, _ in f.terms)
    coeffs = [0j] * (emax - emin + 1)
    for u, c in f.terms:
        val = complex(float(c))
        for k in others:
            val *= x[k] ** u[k]
        coeffs[u[solve] - emin] += val
    arr = np.array(coeffs[::-1], dtype=complex)  # np.roots wants high degree first
    nz = np.nonzero(np.abs(arr) > 0)[0]
    if len(nz) == 0:
        return x, None
    arr = arr[nz[0]:]
    if len(arr) <= 1:
        return x, None
    roots = [complex(r) for r in np.roots(arr) if r != 0]
    return x, roots


def sampled_inside(f: LaurentPoly, v, trials=200, tol=1e-9, rng=None):
    """Search for a point of the hypersurface with the prescribed coordinate
    moduli; returns the witness tuple or None.

    One coordinate with maximal exponent spread is solved for exactly (as a
    univariate polynomial) while the remaining phases are swept: canonical
    fourth-root phases first, then seeded random ones.  Along the swept phase
    circle, sign changes of the root-modulus excess are bisected, so boundary
    witnesses are found reliably.  A candidate must match the target modulus
    within relative tol and pass the residual check |f(x)| < tol * sum(r_i).
    Phases whose slice is a monomial are skipped; DegenerateSlice is raised
    only when every phase of every sweep gave one.  ExponentSpreadTooLarge
    is raised before any slice is built when the solved coordinate's
    exponent spread exceeds _MAX_EXPONENT_SPREAD.
    """
    if trials < 1 or tol <= 0:
        raise ValueError("trials >= 1 and tol > 0 required")
    if not isinstance(rng, random.Random):
        rng = random.Random(0 if rng is None else rng)
    q = ArchQuery.at(f, v)
    scale = sum(q.moduli())
    v_float = [float(x) for x in q.point]
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
    target = math.exp(-v_float[solve])

    def verify(x_full):
        root = x_full[solve]
        if abs(abs(root) - target) > tol * target:
            return None
        if abs(evaluate_at(f, x_full)) >= tol * scale:
            return None
        return tuple(x_full)

    def assemble(xdict, root):
        return [root if k == solve else xdict[k] for k in range(f.rank)]

    if f.rank == 1:
        x, roots = _slice_roots(f, v_float, solve, ())
        if roots is None:
            raise DegenerateSlice("univariate input degenerates to a monomial")
        for r in roots:
            w = verify(assemble(x, r))
            if w:
                return w
        return None

    sweep_grid = 64
    thetas = [2 * math.pi * t / sweep_grid for t in range(sweep_grid + 1)]
    nfixed = f.rank - 2  # phases not swept
    if nfixed == 0:
        assignments = [()]
    else:
        assignments = _canonical_phase_tuples(trials, nfixed)
        while len(assignments) < trials:
            assignments.append(
                tuple(rng.uniform(0, 2 * math.pi) for _ in range(nfixed))
            )

    def probe(theta, fixed):
        """(verified witness or None, roots below the target modulus) at the
        swept phase theta; (None, None) when the slice is a monomial."""
        x, roots = _slice_roots(f, v_float, solve, (theta,) + fixed)
        if roots is None:
            return None, None
        best = min(roots, key=lambda r: abs(abs(r) - target))
        return verify(assemble(x, best)), sum(1 for r in roots if abs(r) < target)

    degenerate = 0
    for fixed in assignments:
        samples = []
        for theta in thetas:
            w, below = probe(theta, fixed)
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
                w, below = probe(mid, fixed)
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

