"""Archimedean amoeba membership for hypersurfaces over Q.

The amoeba at the archimedean place is never stored as a region; this module
answers pointwise queries with certificates.  At a log-modulus point v each
term contributes modulus r_i = |a_i| * exp(-<u_i, v>), kept symbolically as
the pair (|a_i|, -<u_i, v>) of exact rationals.  Comparisons of sums
sum q_i * exp(t_i) are decided by grouping equal exponents (exact equality
detection) and certified interval refinement otherwise; a nonzero sum with
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
from .lattices import smith_invariants
from .scalars import FIELD_Q

INSIDE = "inside"
OUTSIDE = "outside"
NOT_APPLICABLE = "not-applicable"

_MAX_PRECISION = 4096
# Largest exponent spread of the solved coordinate: its slice polynomial
# has one coefficient per exponent and np.roots solves a companion matrix
# of that order at every sampled phase.
_MAX_EXPONENT_SPREAD = 64
_TIE_TOLERANCE = 1e-12


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


def sign_exp_sum(terms) -> int | None:
    """Exact sign of sum q * exp(t) over (q, t) pairs of rationals.

    Groups equal exponents first; a fully cancelling sum is exactly zero.
    Otherwise interval refinement decides, with None only if the precision
    cap is hit inside the tie tolerance (which a nonzero sum never does at
    desk scale).
    """
    groups: dict[Fraction, Fraction] = {}
    for q, t in terms:
        q, t = Fraction(q), Fraction(t)
        groups[t] = groups.get(t, Fraction(0)) + q
    groups = {t: q for t, q in groups.items() if q != 0}
    if not groups:
        return 0
    from mpmath import iv

    prec = 64
    old = iv.prec
    try:
        while prec <= _MAX_PRECISION:
            iv.prec = prec
            total = iv.mpf(0)
            for t, q in groups.items():
                qi = iv.mpf(q.numerator) / iv.mpf(q.denominator)
                ti = iv.mpf(t.numerator) / iv.mpf(t.denominator)
                total += qi * iv.exp(ti)
            if total.a > 0:
                return 1
            if total.b < 0:
                return -1
            if float(total.b - total.a) < _TIE_TOLERANCE and prec == _MAX_PRECISION:
                return None
            prec *= 2
    finally:
        iv.prec = old
    return None


def lopsided_outside(f: LaurentPoly, v) -> bool:
    """True when one term modulus exceeds the sum of all the others, which
    certifies that v is outside the archimedean amoeba; False says nothing."""
    q = ArchQuery.at(f, v)
    s = len(q.magnitudes)
    for k in range(s):
        terms = [(q.magnitudes[k], q.exponents[k])]
        terms += [(-q.magnitudes[j], q.exponents[j]) for j in range(s) if j != k]
        if sign_exp_sum(terms) == 1:
            return True
    return False


def triangle_applicable(f: LaurentPoly) -> bool:
    """Whether the exact trinomial test applies: the two exponent differences
    must extend to a basis of the full exponent lattice (both Smith invariant
    factors equal to one)."""
    if f.nterms != 3:
        raise TermCountMismatch("the triangle test needs exactly three terms")
    if f.rank < 2:
        return False
    u = f.exponents()
    rows = [
        [a - b for a, b in zip(u[0], u[2])],
        [a - b for a, b in zip(u[1], u[2])],
    ]
    return smith_invariants(rows) == (1, 1)


def triangle_exact_membership(f: LaurentPoly, v) -> str:
    """Exact amoeba membership for unimodular trinomials.

    After a monomial change of coordinates the hypersurface is a line in a
    two-torus times a torus factor, and v lies in the amoeba exactly when the
    three term moduli satisfy the closed triangle inequality.
    """
    if not triangle_applicable(f):
        return NOT_APPLICABLE
    q = ArchQuery.at(f, v)
    for k in range(3):
        terms = [(q.magnitudes[k], q.exponents[k])]
        terms += [(-q.magnitudes[j], q.exponents[j]) for j in range(3) if j != k]
        sign = sign_exp_sum(terms)
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
    """Deterministic phase assignments tried before random ones: tuples over
    the fourth roots of unity, lexicographically."""
    base = [0.0, math.pi, math.pi / 2, 3 * math.pi / 2]
    out = []
    for combo in itertools.product(range(4), repeat=length):
        out.append(tuple(base[i] for i in combo))
        if len(out) >= count:
            break
    return out


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
        out = [None] * f.rank
        for k, val in xdict.items():
            out[k] = val
        out[solve] = root
        return out

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
    others = [k for k in range(f.rank) if k != solve]
    nfixed = len(others) - 1  # phases not swept
    if nfixed == 0:
        assignments = [()]
    else:
        assignments = _canonical_phase_tuples(min(trials, 4**nfixed), nfixed)
        while len(assignments) < trials:
            assignments.append(
                tuple(rng.uniform(0, 2 * math.pi) for _ in range(nfixed))
            )
    degenerate = 0

    def excess(theta, fixed):
        x, roots = _slice_roots(f, v_float, solve, (theta,) + fixed)
        if roots is None:
            return x, None, None
        best = min(roots, key=lambda r: abs(abs(r) - target))
        return x, roots, best

    for fixed in assignments[:trials]:
        thetas = [2 * math.pi * t / sweep_grid for t in range(sweep_grid + 1)]
        samples = []
        for theta in thetas:
            x, roots, best = excess(theta, fixed)
            if roots is None:  # a monomial slice: skip just this phase
                continue
            w = verify(assemble(x, best))
            if w:
                return w
            below = sum(1 for r in roots if abs(r) < target)
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
                x, roots, best = excess(mid, fixed)
                if roots is None:
                    break
                w = verify(assemble(x, best))
                if w:
                    return w
                below = sum(1 for r in roots if abs(r) < target)
                if below == c1:
                    lo = mid
                else:
                    hi = mid
    if degenerate == len(assignments[:trials]) and degenerate > 0:
        raise DegenerateSlice("every sampled slice degenerated to a monomial")
    return None

