"""Halfspace disjointness decisions and the disjointness trichotomy.

An open halfspace is the Minkowski sum of a rational linear boundary space
and an open half line.  At a nonarchimedean place of a hypersurface, the
halfspace misses trop f exactly when one open complement region C_k, where
term k alone is minimal, holds it; that integer test on the valuations the
adelic amoeba keeps decides the place before any cell is read.  A place it
finds met is scanned for its witness, which the scan must then find (an
InternalInvariantError otherwise).  That scan, and a system's places, decide
disjointness from a complex exactly cell by cell, on a line or by LP (the
open end is honored: touching at t = 0 counts as disjoint).  A meeting
cell's witness is read off that line when it is the only choice, so any
correct method prints it; an LP's vertex is printed only where the choice
is not unique.
The archimedean place is scanned at the grid points t d of the ray,
t = 1/2, 1, ..., count/2: once a term k that minimizes <u_k, d> dominates
at t0, every later grid point is certified outside from that tail, with no
enclosure of its own.
The tail certifies grid points, not the open ray between them.
The trichotomy's conclusion (a declared small image, an image defined over
the scalars, or a torsion binomial) is stated once, for a disjointness
report: of a given halfspace, or of the first vertex-cone half-line that
the EKL check finds disjoint.  A supplied image hypersurface lives in the
quotient by the boundary span, whose rank is the halfspace's codimension,
since the boundary is kept independent.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction

from .archimedean import ArchQuery, sampled_inside, triangle_applicable
from .errors import (
    DependentDirection,
    DimensionMismatch,
    InternalInvariantError,
    MissingImagePresentation,
    MonomialInput,
)
from .lattices import independent_subset, integer_row, mat_vec, primitive_vector
from .laurent import LaurentPoly, strict_vertex_direction
from .polyhedral import (
    LPOptimal,
    LPUnbounded,
    Polyhedron,
    PolyhedralComplex,
    contains_point,
    intersect,
    lp_solve,
    maximize,
    polyhedron,
    polyhedron_to_json,
)
from .scalars import FIELD_Q, FIELD_QZ, place_to_str
from .tropical import (
    AdelicAmoeba,
    PrevarietySystem,
    TropicalData,
    adelic_amoeba,
)

DISJOINT = "disjoint"
MEETS = "meets"


@dataclass(frozen=True)
class Halfspace:
    """Open halfspace: span(boundary) + positive multiples of direction.
    Rational vectors are scaled to integers, which keeps the open ray and
    the span; a float or other non-rational entry is a ValueError."""

    rank: int
    direction: tuple
    boundary: tuple = ()

    def __post_init__(self):
        if not all(isinstance(x, numbers.Rational) for v in (self.direction, *self.boundary) for x in v):
            raise ValueError("halfspace vectors need integer or rational entries")
        direction = tuple(integer_row(self.direction)[0])
        if len(direction) != self.rank or not any(direction):
            raise DependentDirection("direction must be a nonzero rank-length vector")
        gens = [tuple(integer_row(g)[0]) for g in self.boundary]
        if any(len(g) != self.rank for g in gens):
            raise DimensionMismatch("boundary generators must be rank-length vectors")
        # greedy in order: the direction is kept, last, when off their span
        *keep, last = independent_subset([*gens, direction])
        if last != len(gens):
            raise DependentDirection("direction lies in the boundary span")
        gens = tuple(gens[i] for i in keep)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "boundary", gens)

    def codimension(self):
        return self.rank - len(self.boundary)


def halfspace_meets_complex(H: Halfspace, C: PolyhedralComplex):
    """First witness point of C in the open halfspace, or None.

    Each cell is decided in the halfspace's own coordinates: x =
    sum(lambda_a g_a) + t v turns a cell row (r, b) into ((r . g_1, ...,
    r . g_k, r . v), b), and the cell meets H exactly when t, kept >= 0, is
    unbounded or has a positive maximum (zero only touches the closed
    boundary).  That maximum is maximize's, read off a line when the
    cell's equalities leave at most one free direction in (lambda, t).
    The same line pass gives the witness of a meeting cell where it is
    unique: the one maximizer of a finite t, or the one point at t = 1 of
    an unbounded t.  It is checked exactly (in the cell, t equal to the
    maximum or to 1), and every correct method prints that point.
    Other meeting cells get the LP in (x, lambda, t), whose optimal vertex
    is the witness and must agree with the decision: two or more free
    directions, t constant along a segment (the pivot rule picks the
    vertex), or a cell met only past t = 1.  When t is unbounded the LP is
    capped at t <= 1, except on a line whose least t, from the same pass,
    is past 1.  A cell whose every point has t > 1 leaves the capped LP
    infeasible; the uncapped LP's point of the first such cell is the
    witness when no later cell gives a capped one.
    """
    if H.rank != C.rank:
        raise DimensionMismatch("halfspace/complex rank mismatch")
    n = H.rank
    k = len(H.boundary)
    total = n + k + 1
    gens = (*H.boundary, H.direction)
    tpos = (((0,) * k + (-1,), Fraction(0)),)
    # a cell row r in the coordinates (lambda, t): (r . g_1, ..., r . g_k, r . v)
    img = lambda r: tuple(sum(map(operator.mul, r, g)) for g in gens)
    sub = lambda cons: tuple((img(r), b) for r, b in cons)
    obj = [0] * (n + k) + [1]
    # x - sum(lambda_a g_a) - t v = 0, one row per coordinate of x
    link = [
        ([int(i == c) for i in range(n)] + [-g[c] for g in gens], Fraction(0)) for c in range(n)
    ]
    pad = lambda cons: [(list(r) + [0] * (k + 1), b) for r, b in cons]
    late = None
    for cell in C.cells:
        P = cell.polyhedron
        top, at = maximize(obj[n:], Polyhedron(k + 1, sub(P.equalities), sub(P.inequalities) + tpos), 1)
        if top is None or top <= 0:
            continue
        if at is not None:
            x = tuple(sum(a * g[c] for a, g in zip(at, gens)) for c in range(n))
            if not (contains_point(P, x) and (at[-1] == top if top < math.inf else at[-1] >= 1)):
                raise InternalInvariantError("the witness on the line fails its check")
            if top < math.inf or at[-1] == 1:
                return x
        ineqs = pad(P.inequalities) + [([0] * (n + k) + [-1], Fraction(0))]
        ext = polyhedron(total, link + pad(P.equalities), ineqs)
        wit = lp_solve(obj, ext)
        want = LPOptimal if top < math.inf else LPUnbounded
        if not isinstance(wit, want) or (want is LPOptimal and wit.value != top):
            raise InternalInvariantError("the witness LP disagrees with the decision")
        if isinstance(wit, LPOptimal):
            return wit.point[:n]
        # past the line's least t > 1 the capped LP is infeasible by construction
        if at is None:
            capped = lp_solve(obj, intersect(ext, polyhedron(total, (), [(obj, Fraction(1))])))
            if isinstance(capped, LPOptimal):
                return capped.point[:n]
        if late is None:
            late = wit.point[:n]
    return late


# ---------------------------------------------------------------------------
# archimedean point classification

CERTIFIED_OUTSIDE = "certified-outside"
EVIDENCE_ONLY = "evidence-only"
# Archimedean grid points of a scanned half-line, t = 1/2, 1, ..., GRID/2.
GRID = 20


@dataclass(frozen=True)
class ArchPointVerdict:
    point: tuple
    verdict: str  # certified-outside | meets | evidence-only
    certificate: dict

    def to_json(self):
        return {
            "point": [str(x) for x in self.point],
            "verdict": self.verdict,
            "certificate": self.certificate,
        }


def _witness_json(w):
    return [[x.real, x.imag] for x in w]


TRIANGLE = "triangle"
LOPSIDED = "lopsided"
INSIDE = "inside"


class _Part:
    """A hypersurface of the source, pulled back by an integer matrix (None
    is the identity), with what no point of a scan along d changes: whether
    the exact triangle test applies, M d and the terms minimizing <u, M d>.
    tail is the t from which its tail certifies the ray, or None."""

    def __init__(self, poly, matrix, direction):
        self.poly, self.matrix = poly, matrix
        self.triangle = poly.nterms == 3 and triangle_applicable(poly)
        self.tail = None
        if direction is not None:
            self.pulled = direction if matrix is None else mat_vec(matrix, direction)
            dots = [sum(a * b for a, b in zip(u, self.pulled)) for u in poly.exponents()]
            self.minimizers = frozenset(i for i, x in enumerate(dots) if x == min(dots))

    def outside(self, point, t):
        """TRIANGLE or LOPSIDED when the image of point is certified outside
        the amoeba, INSIDE when the triangle test puts it inside, else None,
        all read off the query's dominance (signs, k).  A dominating term k
        certifies the point outside; the kind is TRIANGLE when the exact
        triangle test applies and no sign up to k is undecided.  With no k
        the point is INSIDE the closed triangle when that test applies and
        every sign is decided.  A point t d of the ray (t not None) at or
        past the tail is answered from it; a certified t d may start the
        tail."""
        if t is not None and self.tail is not None and t >= self.tail:
            return TRIANGLE if self.triangle else LOPSIDED
        image = point if self.matrix is None else mat_vec(self.matrix, point)
        signs, k = ArchQuery.at(self.poly, image).dominance
        exact = self.triangle and None not in signs
        if k is None:
            return INSIDE if exact else None
        if t is not None:
            self._start_tail(signs, k, t)
        return TRIANGLE if exact else LOPSIDED

    def _start_tail(self, signs, k, t):
        """Start the tail at t when the term k dominating at t d minimizes
        <u, M d>: every ratio r_j / r_k = |a_j / a_k| exp(-t <u_j - u_k, M d>)
        then falls as t grows, so k dominates at every t' >= t.  Both facts
        are checked again, exactly, before the tail is trusted.  A full test
        runs only before the tail, so t is below any earlier start."""
        if k not in self.minimizers:
            return
        dots = [sum(a * b for a, b in zip(u, self.pulled)) for u in self.poly.exponents()]
        if signs[k] != 1 or any(dots[k] > x for x in dots):
            raise InternalInvariantError(
                "a tail needs a certified dominating term that minimizes <u, d>"
            )
        self.tail = t


def _classify_arch_hypersurface(part, point, t, trials):
    kind = part.outside(point, t)
    if kind in (TRIANGLE, LOPSIDED):
        return ArchPointVerdict(point, CERTIFIED_OUTSIDE, {"kind": kind})
    w = sampled_inside(part.poly, point, trials=trials)
    if kind == INSIDE:
        cert = {"kind": TRIANGLE}
        if w is not None:
            cert["witness"] = _witness_json(w)
        return ArchPointVerdict(point, MEETS, cert)
    if w is not None:
        return ArchPointVerdict(point, MEETS, {"kind": "witness", "witness": _witness_json(w)})
    return ArchPointVerdict(point, EVIDENCE_ONLY, {"kind": "undecided"})


def _classify_arch_system(parts, point, t):
    for idx, part in enumerate(parts):
        kind = part.outside(point, t)
        if kind in (TRIANGLE, LOPSIDED):
            return ArchPointVerdict(point, CERTIFIED_OUTSIDE, {"kind": kind, "constraint": idx})
    return ArchPointVerdict(point, EVIDENCE_ONLY, {"kind": "no-constraint-certifies"})


def _arch_verdicts(source, direction, points, trials):
    """Yield the verdict at each (point, t) pair of a hypersurface or system
    source: t is None for a lone point, else point == t d for the integer
    direction d the parts are built along."""
    if isinstance(source, LaurentPoly):
        part = _Part(source, None, direction)
        for point, t in points:
            yield _classify_arch_hypersurface(part, point, t, trials)
    elif isinstance(source, PrevarietySystem):
        parts = [_Part(c.poly, c.pullback, direction) for c in source.constraints]
        for point, t in points:
            yield _classify_arch_system(parts, point, t)
    else:
        raise TypeError("source must be a hypersurface or a prevariety system")


def scan_arch_ray(source, direction, count, trials=200):
    """Yield classify_arch_point's verdict at the points t d of the open ray,
    t = 1/2, 1, ..., count/2, for a hypersurface or system source and a
    nonzero integer direction d.  Once a part is certified outside at t d
    by a term k that minimizes <u_k, M d>, its tail certifies every later
    point without another enclosure.  A system's parts are still visited in
    constraint order.  The tail certifies the scanned points, not the open
    ray between them."""
    steps = (Fraction(i, 2) for i in range(1, count + 1))
    points = ((tuple(t * x for x in direction), t) for t in steps)
    return _arch_verdicts(source, direction, points, trials)


def classify_arch_point(source, point, trials=200, rng=None):
    """The verdict at one point.  rng is accepted and ignored: the
    benchmark's query workload still passes it."""
    # Fraction(x) runs an abstract-class check even when x is a Fraction
    point = tuple(x if type(x) is Fraction else Fraction(x) for x in point)
    if isinstance(source, (LaurentPoly, PrevarietySystem)) and len(point) != source.rank:
        raise DimensionMismatch("point rank mismatch")
    return next(_arch_verdicts(source, None, [(point, None)], trials))


# ---------------------------------------------------------------------------
# adelic disjointness report


@dataclass(frozen=True)
class PlaceCheck:
    place: str
    disjoint: bool
    witness: tuple | None

    def to_json(self):
        return {
            "place": self.place,
            "verdict": DISJOINT if self.disjoint else MEETS,
            "witness": [str(x) for x in self.witness] if self.witness else None,
        }


@dataclass(frozen=True)
class AdelicReport:
    nonarchimedean: tuple
    archimedean: tuple | None
    overall: str
    archimedean_certified: bool | None

    def to_json(self):
        return {
            "nonarchimedean": [c.to_json() for c in self.nonarchimedean],
            "archimedean": (
                None
                if self.archimedean is None
                else [a.to_json() for a in self.archimedean]
            ),
            "overall": self.overall,
            "archimedean_certified": self.archimedean_certified,
        }


def component_term(data: TropicalData, H: Halfspace):
    """The term k whose open complement region C_k, where term k alone
    attains min_i(<u_i, v> + c_i), holds H; None when no region does.

    C_k holds H = span(B) + R>0 d exactly when, for every term j != k and
    D = u_j - u_k, the gap <D, s b + t d> + c_j - c_k is positive for every
    real s and t > 0: <D, b> = 0 for each b in B, c_j >= c_k and
    <D, d> >= 0, and the last two are not both equalities.  So every term
    has the same <u_i, b>, and k is the one term that minimizes c_i and
    <u_i, d> together; no corner locus and no LP is needed.
    """
    dot = lambda u, g: sum(map(operator.mul, u, g))
    if any(len({dot(u, b) for u in data.exponents}) > 1 for b in H.boundary):
        return None
    keys = [(c, dot(u, H.direction)) for u, c in zip(data.exponents, data.shifts)]
    k = min(range(len(keys)), key=keys.__getitem__)
    if keys.count(keys[k]) == 1 and all(t >= keys[k][1] for _, t in keys):
        return k
    return None


def _place_check(place, C, data, H):
    """PlaceCheck of H against the complex C at a place; data is the
    TropicalData of a hypersurface place, or None for a system's.  A
    hypersurface place whose complement component holds H is disjoint with
    no cell scan; at any other the connected H meets trop f, so the scan
    must find the witness it prints."""
    if data is not None and component_term(data, H) is not None:
        return PlaceCheck(place, True, None)
    w = halfspace_meets_complex(H, C)
    if w is None and data is not None:
        raise InternalInvariantError("no complement component holds H, yet the cell scan misses it")
    return PlaceCheck(place, w is None, w)


def adelic_disjoint(
    amoeba: AdelicAmoeba, H: Halfspace, grid=GRID, trials=200, rng=None
) -> AdelicReport:
    """Check the halfspace against the generic and every special complex;
    over Q, additionally scan the archimedean place along the halfspace.

    At a hypersurface place, the TropicalData the amoeba keeps decides the
    place first (component_term): the complement of trop f is the disjoint
    union of the open convex regions C_k where term k alone is minimal, and
    H is connected, so H misses trop f exactly when one C_k holds it.  Such
    a place is disjoint with no cell scan.  At any other place H meets trop
    f, and halfspace_meets_complex runs only for the witness it prints; a
    scan that finds none raises InternalInvariantError.  A system's places
    keep the prevariety scan.

    The scan is scan_arch_ray's at the grid points t = 1/2, 1, ..., grid/2
    along the halfspace direction (a grid below 1 is a ValueError): points
    past a tail start are certified from the tail, all others by their own
    test.  The overall verdict is disjoint only if every nonarchimedean
    part is disjoint and the archimedean scan (when applicable) found no
    witness.  archimedean_certified records whether every grid point was
    certified outside; it says nothing about the open ray between them.
    rng is accepted and ignored: the benchmark's query workload still
    passes it.

    The archimedean scan reads the ray, not span(B).  For a hypersurface
    whose generic complex misses H that loses nothing: H lies in the
    generic C_k of one term k, the open normal cone of u_k, so
    <u_j - u_k, b> = 0 for every term j and b in B (component_term's first
    condition).  Every complex and the archimedean amoeba are then
    invariant under span(B), and meet H exactly when they meet the ray.  A
    system's constraint that certifies t d says nothing of the rest of
    t d + span(B).
    """
    if H.rank != amoeba.generic.rank:
        raise DimensionMismatch("halfspace/complex rank mismatch")
    places = (("generic", amoeba.generic), *((place_to_str(p), C) for p, C in amoeba.special))
    data = amoeba.data or (None,) * len(places)
    checks = [_place_check(place, C, d, H) for (place, C), d in zip(places, data)]
    arch = None
    certified = None
    if amoeba.source is not None and amoeba.source.field == FIELD_Q:
        if grid < 1:
            raise ValueError("an empty archimedean grid certifies nothing")
        arch = tuple(scan_arch_ray(amoeba.source, H.direction, grid, trials))
        certified = all(a.verdict == CERTIFIED_OUTSIDE for a in arch)
    disjoint = all(c.disjoint for c in checks) and not (
        arch is not None and any(a.verdict == MEETS for a in arch)
    )
    return AdelicReport(tuple(checks), arch, DISJOINT if disjoint else MEETS, certified)


# ---------------------------------------------------------------------------
# structural conclusions


def defined_over_k_test(f: LaurentPoly):
    """Index i such that every coefficient ratio a_j / a_i is a constant, or
    None; constancy for one index implies it for all, so the smallest (0) is
    returned."""
    if f.field != FIELD_QZ:
        raise ValueError("defined-over-scalars test needs coefficients in Q(z)")
    if f.nterms < 2:
        raise MonomialInput("need at least two terms")
    a1 = f.terms[0][1]
    if all((c / a1).is_constant() for _, c in f.terms[1:]):
        return 0
    return None


def torsion_coset_test(f: LaurentPoly):
    """The defining hyperplane when f is a binomial whose coefficient ratio
    is a root of unity in Q (so the hypersurface is a torsion translate of a
    subtorus), else None."""
    if f.field != FIELD_Q:
        raise ValueError("torsion coset test needs coefficients in Q")
    if f.nterms < 2:
        raise MonomialInput("need at least two terms")
    if f.nterms != 2:
        return None
    (u, a), (wexp, b) = f.terms
    if -b / a not in (1, -1):
        return None
    row = tuple(x - y for x, y in zip(u, wexp))
    return polyhedron(f.rank, [(row, Fraction(0))], ())


# ---------------------------------------------------------------------------
# the trichotomy report


@dataclass(frozen=True)
class TheoremReport:
    disjointness: AdelicReport
    conclusion_case: int | None
    certificates: tuple
    violation: bool

    def to_json(self):
        return {
            "hypothesis": self.disjointness.to_json(),
            "conclusion_case": self.conclusion_case,
            "certificates": list(self.certificates),
            "violation": self.violation,
        }


def theorem1_report(
    source,
    H: Halfspace,
    image_hypersurface: LaurentPoly | None = None,
    declared_codim_gt_one: bool = False,
    trials=200,
) -> TheoremReport:
    """Decide disjointness from the adelic amoeba and verify the structural
    conclusion that it forces, by trichotomy_conclusion.

    The source is a hypersurface (boundary-free halfspace; the quotient is
    the identity, and the source is its own image, so a supplied image or
    codimension declaration is rejected) or a prevariety system, in which
    case the hypersurface image under the boundary quotient must be
    supplied, or its codimension declared to exceed one (the declaration is
    echoed, never computed).
    """
    if image_hypersurface is not None and declared_codim_gt_one:
        raise ValueError("supply an image hypersurface or a declaration, not both")
    if image_hypersurface is not None and isinstance(source, LaurentPoly):
        raise ValueError("a hypersurface source is its own image; supply no image hypersurface")
    _refuse_hypersurface_declaration(source, declared_codim_gt_one)
    report = adelic_disjoint(adelic_amoeba(source), H, trials=trials)
    return trichotomy_conclusion(source, H, report, image_hypersurface, declared_codim_gt_one)


def _refuse_hypersurface_declaration(source, declared_codim_gt_one):
    """A hypersurface X in T^n has dimension n - 1, so its image X' in the
    quotient by a boundary span of dimension b has dimension at least
    n - 1 - b in T^(n - b): codim X' <= 1, and a declaration of more is
    false."""
    if declared_codim_gt_one and isinstance(source, LaurentPoly):
        raise ValueError(
            "the image of a hypersurface has codimension at most one; declare no codimension"
        )


def trichotomy_conclusion(
    source, H: Halfspace, report: AdelicReport, image_hypersurface=None, declared_codim_gt_one=False
) -> TheoremReport:
    """The conclusion that a disjoint report of H forces: case 1 (declared,
    for a system only), 2 (over Q(z), an image defined over the scalars) or
    3 (over Q, a torsion binomial).  Violation is flagged when certified
    disjointness holds but no conclusion checks out, which would falsify
    the implementation.  Over Q(z) every place is decided exactly; over Q
    the grid certifies points, not the open ray, so no report over Q flags
    a violation.
    """
    _refuse_hypersurface_declaration(source, declared_codim_gt_one)
    if report.overall != DISJOINT:
        return TheoremReport(report, None, (), False)
    if declared_codim_gt_one:
        return TheoremReport(
            report, 1, ({"kind": "declared-codimension-greater-than-one"},), False
        )
    if isinstance(source, LaurentPoly):
        if H.boundary:
            raise MissingImagePresentation(
                "the image of a hypersurface under a boundary quotient is not computed; "
                "present the hypersurface as a system and supply its image"
            )
        image = source
    else:
        if image_hypersurface is None:
            raise MissingImagePresentation(
                "prevariety sources need the image hypersurface or a declaration"
            )
        image = image_hypersurface
        if image.rank != H.codimension():
            raise DimensionMismatch(
                f"image hypersurface rank {image.rank} != quotient rank {H.codimension()}"
            )
    if source.field == FIELD_QZ:
        idx = defined_over_k_test(image)
        if idx is not None:
            return TheoremReport(
                report, 2, ({"kind": "defined-over-scalars", "index": idx},), False
            )
        return TheoremReport(report, None, (), True)
    hyper = torsion_coset_test(image)
    if hyper is not None:
        return TheoremReport(
            report,
            3,
            ({"kind": "torsion-coset", "hyperplane": polyhedron_to_json(hyper)},),
            False,
        )
    return TheoremReport(report, None, (), False)


# ---------------------------------------------------------------------------
# the EKL check: the conclusion on a half-line found disjoint


def uniform_minimal_vertices(amoeba: AdelicAmoeba):
    """(i, d) for each vertex u_i of the Newton polytope of the amoeba's
    hypersurface whose coefficient valuation is minimal at every bad
    place, so that its vertex cone misses every nonarchimedean amoeba, with
    d its strict vertex direction.  The valuations are the shifts the
    amoeba keeps, after the generic data; the vertex LP runs only for the
    terms they keep."""
    f = amoeba.source
    shift_table = [data.shifts for data in amoeba.data[1:]]
    points = f.exponents()
    kept = [i for i in range(f.nterms) if all(shifts[i] == min(shifts) for shifts in shift_table)]
    directions = [(i, strict_vertex_direction(points, i)) for i in kept]
    return [(i, d) for i, d in directions if d is not None]


@dataclass(frozen=True)
class EklReport:
    """The accepted half-line with its theorem report, or none, after the
    candidates rejected at the archimedean place."""

    field: str
    halfline: dict | None
    rejected: tuple
    theorem: TheoremReport | None

    @property
    def side(self):
        if self.theorem is None:
            return "none-found"
        return "violation" if self.theorem.violation else "hypothesis"

    @property
    def archimedean_caveat(self):
        # the accepted half-line rests on a grid point no exact test decided
        return self.theorem is not None and self.theorem.disjointness.archimedean_certified is False

    def to_json(self):
        theorem = self.theorem
        return {
            "field": self.field,
            "halfline": self.halfline,
            "rejected_candidates": [
                {**r, "archimedean": r["archimedean"].to_json()} for r in self.rejected
            ],
            "side": self.side,
            "conclusion_case": None if theorem is None else theorem.conclusion_case,
            "certificates": [] if theorem is None else list(theorem.certificates),
            "archimedean_caveat": self.archimedean_caveat,
        }


def ekl_consistency_check(f: LaurentPoly, trials=200) -> EklReport:
    """The theorem on one open half-line per uniformly minimal vertex cone,
    along its primitive strict direction, which misses every
    nonarchimedean amoeba (a meet is an internal error).  adelic_disjoint
    checks each against the adelic amoeba, built once; the first found
    disjoint gets trichotomy_conclusion.  Side
    none-found says only that these candidates all meet the archimedean
    amoeba, not that no disjoint half-line exists.
    """
    if f.nterms < 2:
        raise MonomialInput("need at least two terms")
    amoeba = adelic_amoeba(f)
    candidates = uniform_minimal_vertices(amoeba)
    rejected = []
    for i, d in candidates:
        H = Halfspace(f.rank, primitive_vector(d))
        halfline = {"vertex": i, "direction": list(H.direction)}
        report = adelic_disjoint(amoeba, H, trials=trials)
        if not all(c.disjoint for c in report.nonarchimedean):
            raise InternalInvariantError("a uniformly minimal vertex cone meets a nonarchimedean amoeba")
        if report.overall == DISJOINT:
            return EklReport(f.field, halfline, tuple(rejected), trichotomy_conclusion(f, H, report))
        meets = next(a for a in report.archimedean if a.verdict == MEETS)
        rejected.append({**halfline, "archimedean": meets})
    return EklReport(f.field, None, tuple(rejected), None)
