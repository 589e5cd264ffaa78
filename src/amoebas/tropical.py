"""Tropicalizations of hypersurfaces and prevarieties, and adelic assembly.

At a finite place the hypersurface tropicalization is the corner locus of
v -> min_i(<u_i, v> + c_i) with c_i the coefficient valuations; at the
pseudo-place ``GENERIC`` all c_i vanish and the corner locus is the
codimension-one skeleton of the inward normal fan of the Newton polytope.
A corner locus is dual to the regular subdivision of the lifted exponents
(u_i, c_i) (Maclagan-Sturmfels, Introduction to Tropical Geometry, 3.1) and
is read off it by exact integer elimination, with no LP; its work is
bounded (MAX_CORNER_OPS).  Everything downstream (projection, prevariety
intersection) is exact polyhedral computation.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .errors import (
    ArchimedeanNotSupported,
    CornerLocusTooLarge,
    DimensionMismatch,
    InternalInvariantError,
    MonomialInput,
)
from .lattices import (
    _eliminate,
    identity,
    integer_row,
    mat_vec,
    primitive_vector,
    rank_of_rows,
)
from .laurent import LaurentPoly, bad_places
from .polyhedral import (
    Cell,
    Polyhedron,
    PolyhedralComplex,
    _canon_constraint,
    _con_key,
    contains_point,
    dimension,
    intersect,
    make_complex,
    preimage,
    project,
    prune_to_maximal,
    relative_interior_point,
    remove_redundancy,
)
from .scalars import GENERIC, ArchimedeanQ, GenericPlace, place_to_str, valuation

# The most integer multiply-adds, as estimated by _Budget before each step,
# that one corner locus may spend; past it corner_locus raises
# CornerLocusTooLarge (about 2.5 s of work on a 2-core VM).
MAX_CORNER_OPS = 3_000_000


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
    vals = _values(data.exponents, data.shifts, ints, den)
    best = min(vals)
    return Fraction(best, den), frozenset(i for i, x in enumerate(vals) if x == best)


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


def _values(points, shifts, ints, den):
    """den * (<p_i, ints / den> + c_i) for every term, as integers."""
    return [sum(a * x for a, x in zip(p, ints)) + c * den for p, c in zip(points, shifts)]


class _Budget:
    """Integer multiply-adds left to one corner locus of s terms in rank n,
    charged before each step from its estimated cost."""

    def __init__(self, s, n):
        self.left, self.s, self.n = MAX_CORNER_OPS, s, n

    def spend(self, ops):
        self.left -= ops
        if self.left < 0:
            raise CornerLocusTooLarge(
                f"the corner locus of {self.s} terms in rank {self.n} needs "
                f"more than {MAX_CORNER_OPS} integer operations"
            )

    def scan(self, m, k, d):
        """Charge a scan of the k-subsets of m points in Z^d: per subset, a
        d x d elimination and the m points evaluated once."""
        self.spend(math.comb(m, k) * (d**3 + m * d))


def _maximal_cells(points, shifts, d):
    """The maximal cells of the regular subdivision of the points p_i,
    which affinely span Z^d, lifted by the shifts c_i: {sigma: (nums, den)},
    with y = nums / den a point of the dual cell of sigma.

    Each (d+1)-subset S with affinely independent points is solved for the
    y where its terms tie, <p_a - p_k, y> = c_k - c_a for k in S; S lies in
    a maximal cell exactly when its terms are minimal at y, and the argmin
    set there is that cell."""
    cells = {}
    for S in itertools.combinations(range(len(points)), d + 1):
        a = S[0]
        pa, ca = points[a], shifts[a]
        M = [[x - y for x, y in zip(pa, points[k])] + [shifts[k] - ca] for k in S[1:]]
        pivots, den = _eliminate(M, d)
        if len(pivots) < d:
            continue
        nums = [row[d] for row in M]
        if den < 0:
            nums, den = [-x for x in nums], -den
        vals = _values(points, shifts, nums, den)
        best = min(vals)
        if vals[a] == best:
            sigma = frozenset(i for i, x in enumerate(vals) if x == best)
            cells.setdefault(sigma, (nums, den))
    return cells


def _affine_rank(points, idx):
    base = points[min(idx)]
    return rank_of_rows([[x - y for x, y in zip(points[k], base)] for k in idx])


def _facets(points, sigma, d):
    """Facets of the d-polytope conv(p_i : i in sigma) as index sets: the
    hyperplane through each d-subset of affinely independent points, kept
    when all of sigma lies on one side of it."""
    idx = sorted(sigma)
    facets = []
    for D in itertools.combinations(idx, d):
        if any(F.issuperset(D) for F in facets):
            continue
        base = points[D[0]]
        M = [[x - y for x, y in zip(points[k], base)] for k in D[1:]]
        pivots, det = _eliminate(M, d)
        if len(pivots) < d - 1:
            continue
        # the normal spans the kernel of M: det on the free column
        free = next(c for c in range(d) if c not in pivots)
        normal = [0] * d
        normal[free] = det
        for row, c in zip(M, pivots):
            normal[c] = -row[free]
        side = {k: sum(a * (x - y) for a, x, y in zip(normal, points[k], base)) for k in idx}
        if min(side.values()) >= 0 or max(side.values()) <= 0:
            facets.append(frozenset(k for k in idx if side[k] == 0))
    return facets


def _edges_and_two_faces(points, sigma, d, budget):
    """Edges and 2-faces of the d-polytope conv(p_i : i in sigma) as index
    sets.  A simplex has every subset as a face.  Otherwise the faces of
    rank k - 1 are the pairwise intersections of rank k - 1 of the faces of
    rank k (every face is where two faces one rank up meet), from the
    facets down."""
    m = len(sigma)
    if m == d + 1:
        budget.spend(math.comb(m, 3))
        faces = lambda k: [frozenset(c) for c in itertools.combinations(sorted(sigma), k + 1)]
        return faces(1), faces(2) if d >= 2 else []
    levels = {d: [sigma]}
    if d >= 2:
        budget.scan(m, d, d)
        levels[d - 1] = _facets(points, sigma, d)
    for k in range(d - 1, 1, -1):
        budget.spend(math.comb(len(levels[k]), 2) * m)
        meets = {}
        for A, B in itertools.combinations(levels[k], 2):
            G = A & B
            if len(G) >= k and G not in meets and _affine_rank(points, G) == k - 1:
                meets[G] = None
        levels[k - 1] = list(meets)
    return levels.get(1, []), levels.get(2, [])


def _cell_polyhedron(data: TropicalData, rank, tie, two_cells):
    """The cell of the edge tie of the subdivision, with one inequality per
    facet.

    The equality is the tie of the two smallest indices a < b of tie.  The
    facets of the cell are the 2-cells sigma containing tie (two_cells, each
    with the vertex (ints, den) of a maximal cell containing it).  The rows
    <u_a - u_k, v> <= c_k - c_a for k in sigma - tie all define the facet of
    sigma; the cell keeps the largest in canonical order, the row that
    greedy redundancy removal over the sorted rows keeps.  Each kept row
    must be tight at its vertex, and the vertex must lie in the cell.
    """
    a, b = sorted(tie)[:2]
    ua, ca = data.exponents[a], data.shifts[a]
    con = lambda k, is_eq: _canon_constraint(
        tuple(x - y for x, y in zip(ua, data.exponents[k])), data.shifts[k] - ca, is_eq
    )
    eq = con(b, True)
    facets = [(max((con(k, False) for k in sigma - tie), key=_con_key), v) for sigma, v in two_cells]
    P = Polyhedron(rank, (eq,), tuple(sorted((row for row, _ in facets), key=_con_key)))
    for row, (ints, den) in facets:
        # den * (<r, v> - rhs) at v = ints / den, scaled by rhs's denominator
        gap = lambda r, rhs: sum(x * y for x, y in zip(r, ints)) * rhs.denominator - rhs.numerator * den
        if gap(*eq) or gap(*row) or any(gap(*c) > 0 for c in P.inequalities):
            raise InternalInvariantError("a facet row is not tight on its 2-cell")
    return P


def corner_locus(data: TropicalData, rank) -> PolyhedralComplex:
    """Cells where at least two terms achieve the minimum, read off the
    regular subdivision of the lifted exponents (u_i, c_i), to which the
    corner locus is dual, with no LP.

    The exponents affinely span a space of dimension d, which maps one-to-
    one onto the pivot coordinates of their differences (_eliminate).  Each
    maximal cell sigma of the subdivision comes with a vertex of the corner
    locus, solved for on those coordinates with the others 0
    (_maximal_cells).  The edges of the maximal cells are the tie sets of
    the cells, and the 2-faces containing an edge give its facets
    (_cell_polyhedron), so each cell is built once.  Every step is charged
    to a _Budget of MAX_CORNER_OPS before it runs, the scan of the
    C(s, d + 1) subsets of the s terms included; past it
    CornerLocusTooLarge is raised.
    """
    exps, shifts = data.exponents, data.shifts
    s = len(exps)
    budget = _Budget(s, rank)
    budget.spend(s * rank * rank)
    pivots, _ = _eliminate([[x - y for x, y in zip(u, exps[0])] for u in exps], rank)
    d = len(pivots)
    budget.scan(s, d + 1, d)
    points = [tuple(u[c] for c in pivots) for u in exps]
    edges, two_cells = {}, {}
    for sigma, (nums, den) in _maximal_cells(points, shifts, d).items():
        ints = [0] * rank
        for c, x in zip(pivots, nums):
            ints[c] = x
        es, fs = _edges_and_two_faces(points, sigma, d, budget)
        # an edge lies in a 2-face when its two smallest indices do
        by_pair = {tuple(sorted(e)[:2]): edges.setdefault(e, set()) for e in es}
        for f in fs:
            two_cells.setdefault(f, (ints, den))
            for pair in itertools.combinations(sorted(f), 2):
                if pair in by_pair:
                    by_pair[pair].add(f)
    budget.spend(sum(len(fs) * (len(fs) + 2) for fs in edges.values()) * rank)
    cells = [
        Cell(
            _cell_polyhedron(data, rank, tie, [(f, two_cells[f]) for f in fs]),
            tie,
            _segment_multiplicity(exps, tie),
        )
        for tie, fs in edges.items()
    ]
    return make_complex(rank, cells)


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

    Distributes intersection over tuples of cells.  A corner-locus cell is
    where its tie set attains the minimum, so a raw piece P is where each
    constraint's tie set does.  Name a nonempty P by its argmin tuple T,
    the terms of each constraint minimal at a relative-interior point.  On
    P each term's gap above the minimum is affine and nonnegative, so it
    vanishes on all of P or is positive on its relative interior.  Hence
    P = {v : T_i lies in argmin_i(v) for every i}, equal tuples name equal
    pieces, and P lies in Q exactly when T_Q lies in T_P entry by entry.
    The first piece of each tuple in product order is kept when no other
    tuple lies below it, and only kept pieces get redundancy removal.  This
    is an outer approximation of the tropicalization of the common zero set.
    """
    pulled, tropdata = [], []
    for con in constraints:
        mat = con.matrix(rank)
        if con.poly.nterms < 2:
            raise MonomialInput("a monomial cuts out the empty set in the torus")
        data = tropical_data(con.poly, place)
        trop = corner_locus(data, con.poly.rank)
        if con.pullback is None:  # the cells are canonical already
            pulled.append([cell.polyhedron for cell in trop.cells])
            tropdata.append(data)
            continue
        pulled.append([preimage(cell.polyhedron, mat) for cell in trop.cells])
        # <u, M x> = <M^T u, x>: the terms pulled back to the ambient torus
        transpose = list(zip(*mat))
        tropdata.append(TropicalData(tuple(mat_vec(transpose, u) for u in data.exponents), data.shifts))
    pieces = {}
    for combo in itertools.product(*pulled):
        P = intersect(*combo)
        if dimension(P) < 0:
            continue
        x = relative_interior_point(P)
        pieces.setdefault(tuple(min_value_and_argmin(d, x)[1] for d in tropdata), P)
    below = lambda S, T: S != T and all(s <= t for s, t in zip(S, T))
    keep = [P for T, P in pieces.items() if not any(below(S, T) for S in pieces)]
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
