"""Laurent polynomials: parsing, canonical form, Newton polytopes, bad places.

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
    DimensionMismatch,
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
    support_places,
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

    def __str__(self):
        return poly_to_str(self)


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
    if rank is None:
        rank = max(parsing.scan_rank(text), 1)
    if field is None:
        field = parsing.scan_field(text)
    terms = parsing.parse_terms(text, rank, field)
    if not terms:
        raise EmptyPolynomial(f"{text!r} cancels to zero")
    return make_laurent(rank, field, terms)


def _coeff_sign_split(c):
    """(sign, |c|) with the sign read off the leading numerator coefficient."""
    if isinstance(c, Fraction):
        return (1, c) if c > 0 else (-1, -c)
    if c.num[0] > 0:
        return 1, c
    return -1, -c


def _coeff_str(c) -> str:
    s = str(c)
    if isinstance(c, RationalFunction) and not c.is_constant():
        if not (s.startswith("(") and s.endswith(")")):
            s = f"({s})"
    return s


def _monomial_str(exp) -> str:
    pieces = []
    for i, e in enumerate(exp):
        if e == 0:
            continue
        pieces.append(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}")
    return "*".join(pieces)


def poly_to_str(f: LaurentPoly) -> str:
    parts = []
    for exp, coeff in f.terms:
        sign, mag = _coeff_sign_split(coeff)
        mono = _monomial_str(exp)
        if not mono:
            body = _coeff_str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_coeff_str(mag)}*{mono}"
        if not parts:
            parts.append(body if sign > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if sign > 0 else f"- {body}")
    return " ".join(parts)


def poly_to_json(f: LaurentPoly) -> dict:
    return {
        "rank": f.rank,
        "field": f.field,
        "terms": [
            {"exp": list(e), "coeff": str(c)} for e, c in f.terms
        ],
    }


@dataclass(frozen=True)
class NewtonPolytope:
    points: tuple
    vertex_indices: tuple
    directions: tuple  # per point: a strict_vertex_direction, None off the vertices


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


def newton_polytope(f: LaurentPoly) -> NewtonPolytope:
    """Exponent points, the indices that are vertices of their hull, and
    each vertex's strict direction (zero for a lone point)."""
    points = f.exponents()
    if len(points) == 1:
        directions = ((Fraction(0),) * f.rank,)
    else:
        directions = tuple(strict_vertex_direction(points, i) for i in range(len(points)))
    vertices = tuple(i for i, d in enumerate(directions) if d is not None)
    return NewtonPolytope(tuple(points), vertices, directions)


def bad_places(f: LaurentPoly) -> frozenset:
    """Finite places where the coefficient valuation vector is not constant.

    Works on the ratios a_j / a_1 so that global scaling never contributes a
    spurious place.
    """
    if f.nterms < 2:
        raise MonomialInput("a single term has no hypersurface")
    a1 = f.terms[0][1]
    ratios = [c / a1 for _, c in f.terms[1:]]
    ratios = [r for r in ratios if r != 1]
    if not ratios:
        return frozenset()
    return support_places(ratios)


def apply_monomial_map(point, matrix):
    """Image of a point under an integer matrix (rows act by dot product)."""
    if any(len(row) != len(point) for row in matrix):
        raise DimensionMismatch("matrix/point shape mismatch")
    return tuple(sum(a * x for a, x in zip(row, point)) for row in matrix)
