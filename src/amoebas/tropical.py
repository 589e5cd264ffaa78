"""Tropicalizations of hypersurfaces and prevarieties, and adelic assembly.

At a finite place the hypersurface tropicalization is the corner locus of
v -> min_i(<u_i, v> + c_i) with c_i the coefficient valuations; at the
pseudo-place ``GENERIC`` all c_i vanish and the corner locus is the
codimension-one skeleton of the inward normal fan of the Newton polytope.
Everything downstream (projection, prevariety intersection, balancing) is
exact polyhedral computation.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .errors import (
    ArchimedeanNotSupported,
    DimensionMismatch,
    InternalInvariantError,
    MonomialInput,
)
from .lattices import (
    identity,
    integer_kernel,
    integer_row,
    primitive_vector,
    quotient_map,
)
from .laurent import LaurentPoly, bad_places
from .polyhedral import (
    Cell,
    LPInfeasible,
    LPUnbounded,
    Polyhedron,
    PolyhedralComplex,
    _canon_constraint,
    _con_key,
    affine_hull_rows,
    contains_point,
    dimension,
    intersect,
    lp_solve,
    make_complex,
    poly_contains,
    poly_equal,
    polyhedron,
    preimage,
    project,
    prune_to_maximal,
    relative_interior_point,
    remove_redundancy,
)
from .scalars import GENERIC, ArchimedeanQ, GenericPlace, place_to_str, valuation


@dataclass(frozen=True)
class TropicalData:
    """Exponents u_i paired with the valuations c_i of their coefficients."""

    exponents: tuple
    shifts: tuple


def tropical_data(f: LaurentPoly, place) -> TropicalData:
    if isinstance(place, ArchimedeanQ):
        raise ArchimedeanNotSupported(
            "tropicalization needs a nonarchimedean place; use the archimedean module"
        )
    if isinstance(place, GenericPlace):
        shifts = tuple(0 for _ in f.terms)
    else:
        shifts = tuple(valuation(c, place) for _, c in f.terms)
    return TropicalData(tuple(f.exponents()), shifts)


def min_value_and_argmin(data: TropicalData, v):
    """Minimum of <u_i, v> + c_i at the rational point v and the indices
    achieving it, compared as integers over the common denominator of v."""
    ints, den = integer_row(v)
    vals = [
        sum(a * x for a, x in zip(u, ints)) + c * den
        for u, c in zip(data.exponents, data.shifts)
    ]
    best = min(vals)
    return Fraction(best, den), frozenset(i for i, x in enumerate(vals) if x == best)


def psi(f: LaurentPoly, place, v):
    """Exact minimum of <u_i, v> + c_i and the full achieving index set."""
    if f.nterms < 2:
        raise MonomialInput("need at least two terms")
    return min_value_and_argmin(tropical_data(f, place), v)


def _segment_multiplicity(exponents, tie):
    """Lattice length of the segment spanned by the tied exponents."""
    idx = sorted(tie)
    base = exponents[idx[0]]
    diffs = [tuple(a - b for a, b in zip(exponents[j], base)) for j in idx]
    direction = next((d for d in diffs if any(d)), None)
    if direction is None:
        raise InternalInvariantError("tied exponents coincide")
    prim = primitive_vector(direction)
    pivot = next(k for k, x in enumerate(prim) if x != 0)
    ts = []
    for d in diffs:
        t, r = divmod(d[pivot], prim[pivot])
        if r or tuple(t * x for x in prim) != d:
            raise InternalInvariantError("tied exponents are not collinear")
        ts.append(t)
    length = max(ts) - min(ts)
    if length <= 0:
        raise InternalInvariantError("bad lattice length")
    return length


def _span_forms(span):
    """Integer linear forms vanishing exactly on the span of one or two
    linearly independent integer rows: each minor of order len(span) + 1
    of those rows with one more row r appended, expanded along r."""
    k, n = len(span), len(span[0])
    if k == 1:
        minor = lambda cols: span[0][cols[0]]
    else:
        minor = lambda cols: span[0][cols[0]] * span[1][cols[1]] - span[0][cols[1]] * span[1][cols[0]]
    forms = []
    for cols in itertools.combinations(range(n), k + 1):
        form = [0] * n
        for p, c in enumerate(cols):
            form[c] = (-1) ** p * minor(cols[:p] + cols[p + 1:])
        forms.append(form)
    return forms


def _in_span(row, forms) -> bool:
    return not any(sum(a * x for a, x in zip(f, row)) for f in forms)


def _slack_point(data: TropicalData, rank, tie):
    """Optimal point of the slack LP on the locus where the terms of tie
    (two or three indices, first a) tie at the minimum, or None when the
    optimum is not positive.

    Variables (v, t): maximize t subject to <u_a - u_k, v> = c_k - c_a for
    k in tie, <u_a - u_l, v> + t <= c_l - c_a for every other l, the same
    row without t when it lies in the span of the tie differences (such a
    row is constant on the tie locus), and t <= 1.  The locus has
    dimension rank + 1 - len(tie) exactly when the optimum is positive, and
    every optimal point then lies in its relative interior, where the
    argmin set is constant.  Rows go to the LP as they are: neither the
    verdict nor that argmin set depends on their order or scale.  When the
    locus can only be a point (len(tie) = rank + 1), it is solved for
    instead, with no LP.
    """
    a, rest = tie[0], tie[1:]
    ua, ca = data.exponents[a], data.shifts[a]
    diff = lambda k: tuple(x - y for x, y in zip(ua, data.exponents[k]))
    span = [diff(k) for k in rest]
    if len(rest) == rank:
        # the differences span R^rank, so every row lies in their span: the
        # locus is the solution of the equalities (Cramer's rule) when the
        # terms of tie are minimal there, and empty otherwise
        b = [data.shifts[k] - ca for k in rest]
        if rank == 1:
            x = (Fraction(b[0], span[0][0]),)
        else:
            (p, q), (r, s) = span
            det = p * s - q * r
            x = (Fraction(b[0] * s - q * b[1], det), Fraction(p * b[1] - r * b[0], det))
        return x if set(tie) <= min_value_and_argmin(data, x)[1] else None
    forms = _span_forms(span)
    t_axis = (0,) * rank + (1,)
    eqs = tuple((row + (0,), data.shifts[k] - ca) for row, k in zip(span, rest))
    ineqs = [
        (row + (0 if _in_span(row, forms) else 1,), data.shifts[l] - ca)
        for l in range(len(data.exponents))
        if l not in tie
        for row in (diff(l),)
    ]
    ineqs.append((t_axis, 1))
    res = lp_solve(t_axis, Polyhedron(rank + 1, eqs, tuple(ineqs)))
    if isinstance(res, LPInfeasible):
        return None
    if isinstance(res, LPUnbounded):
        raise InternalInvariantError("tie slack is capped, cannot be unbounded")
    return res.point[:rank] if res.value > 0 else None


def _pair_polyhedron(data: TropicalData, rank, i, j):
    """The tie locus of terms i and j at the minimum, canonical and
    unreduced."""
    ui, ci = data.exponents[i], data.shifts[i]
    diff = lambda k: tuple(a - b for a, b in zip(ui, data.exponents[k]))
    return polyhedron(
        rank,
        [(diff(j), data.shifts[j] - ci)],
        [(diff(k), data.shifts[k] - ci) for k in range(len(data.exponents)) if k not in (i, j)],
    )


def _cell_polyhedron(data: TropicalData, rank, a, b, tie, sigmas, misses):
    """The cell of tie, first pair (a, b), with one inequality per facet.

    The corner locus is dual to the regular subdivision of the Newton
    polytope, so the facets of the cell are the 2-cells sigma containing
    tie.  Each k outside tie and off the line of a and b gets one slack LP
    on the locus where a, b and k tie, unless a sigma found so far holds
    tie and k, or a triple in misses (held by no 2-cell) lies in tie and k.
    A positive optimum finds the sigma holding a, b and k: the argmin set
    at the LP point.  sigmas and misses are shared by the cells of one
    corner locus.  The rows <u_a - u_k, v> <= c_k - c_a for k in sigma -
    tie all define the facet of sigma; the cell keeps the largest in
    canonical order, the row that greedy redundancy removal over the
    sorted rows keeps.  Each kept row must be tight at its sigma's point,
    and the point must lie in the cell.
    """
    ua, ca = data.exponents[a], data.shifts[a]
    diff = lambda k: tuple(x - y for x, y in zip(ua, data.exponents[k]))
    line = _span_forms([diff(b)])
    for k in range(len(data.exponents)):
        if k in tie or _in_span(diff(k), line):
            continue
        if any(k in sigma and tie <= sigma for sigma, _ in sigmas) or any(
            m <= tie | {k} for m in misses
        ):
            continue
        x = _slack_point(data, rank, (a, b, k))
        if x is None:
            misses.append(frozenset((a, b, k)))
        else:
            sigmas.append((min_value_and_argmin(data, x)[1], x))
    facets = []
    for sigma, x in sigmas:
        if tie <= sigma:
            rows = (_canon_constraint(diff(k), data.shifts[k] - ca, False) for k in sigma - tie)
            facets.append((max(rows, key=_con_key), x))
    eq = _canon_constraint(diff(b), data.shifts[b] - ca, True)
    P = Polyhedron(rank, (eq,), tuple(sorted((con for con, _ in facets), key=_con_key)))
    for con, x in facets:
        # x lies in P, on the hyperplane of con
        if not contains_point(Polyhedron(rank, (eq, con), P.inequalities), x):
            raise InternalInvariantError("a facet row is not tight on its 2-cell")
    return P


def corner_locus(data: TropicalData, rank) -> PolyhedralComplex:
    """Cells where at least two terms achieve the minimum.

    Each unordered pair (i, j) is decided by one slack LP (_slack_point);
    a positive optimum keeps the pair, and the argmin set at the LP point
    labels its cell and deduplicates it.  A tie set first met at pair
    (i, j) gets the tie equality of i and j and one inequality per facet,
    found by one slack LP per 2-cell of the dual subdivision
    (_cell_polyhedron), with no redundancy removal.  A tie set met again
    must carve the same polyhedron as the first pair did.
    """
    s = len(data.exponents)
    cells = {}
    sigmas, misses = [], []
    for i, j in itertools.combinations(range(s), 2):
        x = _slack_point(data, rank, (i, j))
        if x is None:
            continue
        tie = min_value_and_argmin(data, x)[1]
        if tie in cells:
            if not poly_equal(cells[tie].polyhedron, _pair_polyhedron(data, rank, i, j)):
                raise InternalInvariantError("one argmin set carved two cells")
            continue
        P = _cell_polyhedron(data, rank, i, j, tie, sigmas, misses)
        cells[tie] = Cell(P, tie, _segment_multiplicity(data.exponents, tie))
    return make_complex(rank, cells.values())


def trop_hypersurface(f: LaurentPoly, place) -> PolyhedralComplex:
    """Tropicalization of the hypersurface cut out by f at the given place."""
    if f.nterms < 2:
        raise MonomialInput("a monomial cuts out the empty set in the torus")
    return corner_locus(tropical_data(f, place), f.rank)


def generic_skeleton(f: LaurentPoly) -> PolyhedralComplex:
    """Tropicalization at the cofinitely many places with unit coefficients:
    the codimension-one skeleton of the Newton polytope's inward normal fan."""
    return trop_hypersurface(f, GENERIC)


def contains_zero(C: PolyhedralComplex) -> bool:
    origin = (Fraction(0),) * C.rank
    return any(contains_point(cell.polyhedron, origin) for cell in C.cells)


@dataclass(frozen=True)
class AdelicAmoeba:
    """Generic complex plus the finitely many special places, with a handle
    back to the defining data for archimedean queries."""

    generic: PolyhedralComplex
    special: tuple  # ((place, PolyhedralComplex), ...) sorted by place string
    source: object = dataclass_field(compare=False, default=None)

    def special_dict(self):
        return dict(self.special)

    def places(self):
        return [p for p, _ in self.special]


def adelic_amoeba(source) -> AdelicAmoeba:
    """Adelic amoeba of a hypersurface, or of a PrevarietySystem."""
    if isinstance(source, PrevarietySystem):
        return adelic_amoeba_of_system(source)
    if not isinstance(source, LaurentPoly):
        raise TypeError("source must be a hypersurface or a prevariety system")
    if source.nterms < 2:
        raise MonomialInput("a monomial cuts out the empty set in the torus")
    special = [
        (p, trop_hypersurface(source, p))
        for p in sorted(bad_places(source), key=place_to_str)
    ]
    return AdelicAmoeba(generic_skeleton(source), tuple(special), source)


def project_complex(C: PolyhedralComplex, phi) -> PolyhedralComplex:
    """Cellwise image under a surjective integer matrix, merged to
    inclusion-maximal cells (labels do not survive projection)."""
    images = [project(cell.polyhedron, phi) for cell in C.cells]
    keep = prune_to_maximal(images)
    return make_complex(len(phi), [Cell(P) for P in keep])


@dataclass(frozen=True)
class Constraint:
    """One prevariety constraint: a hypersurface in its own torus plus the
    integer monomial map pulling it back to the ambient torus (None means
    the identity)."""

    poly: LaurentPoly
    pullback: tuple | None = None

    def matrix(self, rank):
        if self.pullback is None:
            if self.poly.rank != rank:
                raise DimensionMismatch(
                    f"identity pullback needs rank {rank}, got {self.poly.rank}"
                )
            return identity(rank)
        mat = [list(row) for row in self.pullback]
        if len(mat) != self.poly.rank or any(len(r) != rank for r in mat):
            raise DimensionMismatch("pullback matrix shape mismatch")
        return mat


def prevariety(constraints, place, rank) -> PolyhedralComplex:
    """Intersection of the pulled-back hypersurface tropicalizations.

    Distributes intersection over tuples of cells and prunes the raw pieces
    to the inclusion-maximal nonempty ones; redundancy removal runs only on
    the cells kept.  Deduplication keeps the first piece of each set-equal
    class in product order, reduced or not, so the cells do not depend on
    when redundancy is removed.  This is an outer approximation of the
    tropicalization of the common zero set.
    """
    pulled = []
    for con in constraints:
        mat = con.matrix(rank)
        trop = trop_hypersurface(con.poly, place)
        pulled.append([preimage(cell.polyhedron, mat) for cell in trop.cells])
    keep = prune_to_maximal([intersect(*combo) for combo in itertools.product(*pulled)])
    return make_complex(rank, [Cell(remove_redundancy(P)) for P in keep])


def system_bad_places(constraints) -> frozenset:
    return frozenset().union(*(bad_places(con.poly) for con in constraints))


@dataclass(frozen=True)
class PrevarietySystem:
    """A parametrized subvariety presented by constraints in an ambient torus."""

    rank: int
    constraints: tuple

    @property
    def field(self):
        return self.constraints[0].poly.field


def adelic_amoeba_of_system(system: PrevarietySystem) -> AdelicAmoeba:
    places = sorted(system_bad_places(system.constraints), key=place_to_str)
    special = [
        (p, prevariety(system.constraints, p, system.rank)) for p in places
    ]
    return AdelicAmoeba(
        prevariety(system.constraints, GENERIC, system.rank),
        tuple(special),
        system,
    )


# ---------------------------------------------------------------------------
# balancing


def _codimension_two_cells(C: PolyhedralComplex):
    """Distinct (rank-2)-dimensional pairwise intersections of maximal cells."""
    target = C.rank - 2
    taus = []
    for A, B in itertools.combinations([c.polyhedron for c in C.cells], 2):
        T = intersect(A, B)
        if dimension(T) != target:
            continue
        if not any(poly_equal(T, S) for S in taus):
            taus.append(T)
    return taus


def is_balanced(C: PolyhedralComplex) -> bool:
    """Multiplicity-weighted balancing around every codimension-two cell.

    For each such cell, the adjacent maximal cells map to rays in the rank-two
    lattice quotient by the cell's direction space; their primitive generators
    weighted by multiplicity must sum to zero exactly.
    """
    n = C.rank
    if n < 2 or len(C.cells) < 2:
        return True
    for cell in C.cells:
        if cell.multiplicity is None:
            raise InternalInvariantError("balancing needs multiplicity labels")
    for tau in _codimension_two_cells(C):
        rows = affine_hull_rows(tau)
        kernel = integer_kernel([list(r) for r in rows])
        if len(kernel) != n - 2:
            raise InternalInvariantError("unexpected direction space")
        phi, _ = quotient_map(kernel, n)
        x_tau = relative_interior_point(tau)
        image_tau = [sum(r * x for r, x in zip(row, x_tau)) for row in phi]
        total = [0, 0]
        for cell in C.cells:
            if not poly_contains(cell.polyhedron, tau):
                continue
            x_cell = relative_interior_point(cell.polyhedron)
            image = [sum(r * x for r, x in zip(row, x_cell)) for row in phi]
            diff = [a - b for a, b in zip(image, image_tau)]
            direction = primitive_vector(diff)
            total = [t + cell.multiplicity * d for t, d in zip(total, direction)]
        if any(total):
            return False
    return True
