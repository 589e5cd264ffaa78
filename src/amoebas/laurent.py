"""Laurent polynomials: parsing, canonical form, Newton vertices, bad places.

A Laurent polynomial is a finite sum of terms (integer exponent vector,
nonzero coefficient) over Q or Q(z), kept sorted lexicographically by
exponent.  The tropical side only ever consumes coefficient valuations, so
scaling by a nonzero scalar never changes any downstream complex; bad-place
discovery therefore works with coefficient ratios.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import parsing
from .errors import (
    EmptyPolynomial,
    InternalInvariantError,
    MonomialInput,
    RankMismatch,
)
from .polyhedral import LPOptimal, lp_solve, polyhedron
from .scalars import (
    FIELD_Q,
    FIELD_QZ,
    RationalFunction,
    field_of,
    valuations,
)


@dataclass(frozen=True)
class LaurentPoly:
    rank: int
    field: str
    terms: tuple  # ((exponent tuple, coefficient), ...) sorted by exponent

    @property
    def nterms(self):
        return len(self.terms)

    def exponents(self):
        return [e for e, _ in self.terms]


def make_laurent(rank, field, terms) -> LaurentPoly:
    """Canonicalize: combine like terms, drop zeros, sort by exponent."""
    if rank < 1:
        raise RankMismatch("ambient rank must be at least 1")
    if field not in (FIELD_Q, FIELD_QZ):
        raise ValueError(f"unknown field {field!r}")
    combined: dict = {}
    items = terms.items() if isinstance(terms, dict) else terms
    for exp, coeff in items:
        exp = tuple(int(x) for x in exp)
        if len(exp) != rank:
            raise RankMismatch(f"exponent {exp} does not have rank {rank}")
        if field == FIELD_Q:
            coeff = Fraction(coeff) if not isinstance(coeff, Fraction) else coeff
        else:
            if not isinstance(coeff, RationalFunction):
                coeff = RationalFunction.const(coeff)
        combined[exp] = combined.get(exp, 0) + coeff
    cleaned = [(e, c) for e, c in combined.items() if c != 0]
    if not cleaned:
        raise EmptyPolynomial("all terms cancel")
    for _, c in cleaned:
        if field_of(c) != field:
            raise ValueError("coefficient field mismatch")
    return LaurentPoly(rank, field, tuple(sorted(cleaned, key=lambda t: t[0])))


def parse_poly(text, rank=None, field=None) -> LaurentPoly:
    """Parse polynomial text; rank and field are inferred when omitted."""
    rank, field, terms = parsing.parse_terms(text, rank, field)
    if not terms:
        raise EmptyPolynomial(f"{text!r} cancels to zero")
    return make_laurent(rank, field, terms)


def poly_to_json(f: LaurentPoly) -> dict:
    return {
        "rank": f.rank,
        "field": f.field,
        "terms": [
            {"exp": list(e), "coeff": str(c)} for e, c in f.terms
        ],
    }


def strict_vertex_direction(points, i):
    """A direction v with <points[i], v> strictly below all others, or None.

    LP over (v, t): maximize t subject to <u_i - u_j, v> + t <= 0 and t <= 1;
    the optimum is 1 when a separating direction exists and 0 otherwise.
    """
    n = len(points[i])
    ineqs = []
    for j, u in enumerate(points):
        if j == i:
            continue
        row = [a - b for a, b in zip(points[i], u)] + [1]
        ineqs.append((row, Fraction(0)))
    ineqs.append(([0] * n + [1], Fraction(1)))
    res = lp_solve([0] * n + [1], polyhedron(n + 1, (), ineqs))
    if not isinstance(res, LPOptimal):  # (0, 0) is feasible and t <= 1 bounds it
        raise InternalInvariantError("a vertex LP has no optimum")
    if res.value > 0:
        return res.point[:n]
    return None


def ratio_valuations(f: LaurentPoly) -> dict:
    """{place: (v(a_1 / a_1), ..., v(a_s / a_1))} at each bad place of f,
    the finite places where the coefficient valuation vector is not
    constant, in the order the factorizations find them.

    Works on the ratios a_j / a_1 so that global scaling never contributes a
    spurious place.  The ratios other than 1 are factored by one call of
    scalars.valuations, which factors each distinct numerator and
    denominator once; the valuation of a coefficient a_j at a bad place is
    then v(a_1) plus the entry j here.
    """
    if f.nterms < 2:
        raise MonomialInput("a single term has no hypersurface")
    a1 = f.terms[0][1]
    ratios = [c / a1 for _, c in f.terms[1:]]
    factored = iter(valuations([r for r in ratios if r != 1]))
    out = {}
    for j, r in enumerate(ratios, 1):
        if r != 1:
            for place, v in next(factored).items():
                out.setdefault(place, [0] * f.nterms)[j] = v
    return {place: tuple(vs) for place, vs in out.items()}


def bad_places(f: LaurentPoly) -> frozenset:
    """Finite places where the coefficient valuation vector is not constant:
    the places of ratio_valuations."""
    return frozenset(ratio_valuations(f))
