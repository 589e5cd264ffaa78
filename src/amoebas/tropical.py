"""Tropicalizations of hypersurfaces and prevarieties, and adelic assembly.

At a finite place the hypersurface tropicalization is the corner locus of
v -> min_i(<u_i, v> + c_i) with c_i the coefficient valuations; at the
pseudo-place ``GENERIC`` all c_i vanish and the corner locus is the
codimension-one skeleton of the inward normal fan of the Newton polytope.
A corner locus is dual to the regular subdivision of the lifted exponents
(u_i, c_i) (Maclagan-Sturmfels, Introduction to Tropical Geometry, 3.1) and
is read off it by exact integer elimination, with no LP; its work is
bounded (MAX_CORNER_OPS per locus, MAX_AMOEBA_OPS over the loci of one
adelic amoeba).  The loci of one polynomial at all its places are
subdivisions of the same exponents, so what the lifts do not change is
found once per support (_support) and shared.  Everything downstream
(pullback, prevariety intersection) is exact polyhedral computation, on a
PrevarietySystem whose shapes and term counts were checked when built.
One adelic_amoeba assembles a hypersurface and a prevariety system alike:
the complex at each bad place of its polynomials, then at GENERIC.  For a
hypersurface it also keeps the TropicalData of each place, so that queries
read the valuations without computing them again.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field as dataclass_field

from .errors import (
    ArchimedeanNotSupported,
    CornerLocusTooLarge,
    DimensionMismatch,
    EmptySystem,
    FieldMismatch,
    InternalInvariantError,
    MonomialInput,
)
from .lattices import (
    _eliminate,
    integer_row,
    mat_vec,
    primitive_vector,
    rank_of_rows,
)
from .laurent import LaurentPoly, bad_places
from .polyhedral import (
    Cell,
    PolyhedralComplex,
    empty_polyhedron,
    intersect_keys,
    keyed_interior_point,
    keyed_reduction,
    make_complex,
    polyhedron_of_key,
    preimage,
)
from .scalars import GENERIC, ArchimedeanQ, GenericPlace, place_to_str, valuation

# The most integer multiply-adds, as estimated by _Budget before each step,
# that one corner locus may spend; past it corner_locus raises
# CornerLocusTooLarge (about 2.5 s of work on a 2-core VM).
MAX_CORNER_OPS = 3_000_000

# The most subset-scan work, as charged by _Budget.scan, that the corner
# loci of one adelic amoeba may spend over all its places together; past
# it adelic_amoeba raises CornerLocusTooLarge before the first locus.
MAX_AMOEBA_OPS = 5 * MAX_CORNER_OPS

# Supports whose place-independent corner-locus data _support keeps.
_SUPPORT_CACHE_SIZE = 64


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
    return [sum(map(operator.mul, p, ints)) + c * den for p, c in zip(points, shifts)]


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
        d x d elimination and the m points evaluated once.  Returns the
        charge."""
        ops = math.comb(m, k) * (d**3 + m * d)
        self.spend(ops)
        return ops


class _Support:
    """What the corner loci of one support share at every place, found
    once: the pivot coordinates of the exponents' differences and the
    points p_i on them (also as coordinate columns), the table of
    (d+1)-subsets (built only after the scan is charged), and memos of the
    primitive pair rows and of the segment multiplicities of ties."""

    def __init__(self, exponents, rank):
        self.exponents = exponents
        self.pivots, _ = _eliminate([[x - y for x, y in zip(u, exponents[0])] for u in exponents], rank)
        self.d = len(self.pivots)
        self.points = [tuple(u[c] for c in self.pivots) for u in exponents]
        self.columns = list(zip(*self.points))
        self._rows, self._multiplicities = {}, {}

    @functools.cached_property
    def subsets(self):
        """(S, T, den) for each (d+1)-subset S = (a, k_1, ..., k_d) with
        affinely independent points: T (p_a - p_k)_k = den I with den > 0,
        found by eliminating the block with d identity columns appended.
        The terms of S tie at y = T b / den with b_k = c_k - c_a, the
        numerators and denominator the shift column's elimination gives."""
        d, points, out = self.d, self.points, []
        for S in itertools.combinations(range(len(points)), d + 1):
            pa = points[S[0]]
            M = [
                [x - y for x, y in zip(pa, points[k])] + [int(i == j) for j in range(d)]
                for i, k in enumerate(S[1:])
            ]
            pivots, den = _eliminate(M, d)
            if len(pivots) < d:
                continue
            T = [row[d:] for row in M]
            if den < 0:
                T, den = [[-x for x in row] for row in T], -den
            out.append((S, T, den))
        return out

    def maximal_cells(self, shifts):
        """The maximal cells of the regular subdivision of the points p_i
        lifted by the shifts c_i: {sigma: (nums, den)}, with y = nums / den
        a point of the dual cell of sigma.  A subset S lies in a maximal
        cell exactly when its terms are minimal where they tie, and the
        argmin set there is that cell."""
        cells = {}
        for S, T, den in self.subsets:
            a = S[0]
            b = [shifts[k] - shifts[a] for k in S[1:]]
            nums = [sum(t * x for t, x in zip(row, b)) for row in T]
            # den * (<p_i, y> + c_i) for every term, one coordinate at a time
            vals = [c * den for c in shifts]
            for col, x in zip(self.columns, nums):
                vals = [v + p * x for v, p in zip(vals, col)]
            best = min(vals)
            if vals[a] == best:
                sigma = frozenset(i for i, x in enumerate(vals) if x == best)
                cells.setdefault(sigma, (nums, den))
        return cells

    def constraint(self, a, k, shifts, is_equality):
        """The key (row, rhs numerator, rhs denominator) of the canonical
        form of <u_a - u_k, v> (= or <=) c_k - c_a, with the primitive row
        of u_a - u_k and its gcd found once per pair."""
        try:
            row, g = self._rows[a, k]
        except KeyError:
            diff = [x - y for x, y in zip(self.exponents[a], self.exponents[k])]
            g = math.gcd(*diff)
            row, g = self._rows[a, k] = tuple(x // g for x in diff), g
        if is_equality and next(x for x in row if x) < 0:
            row, g = tuple(-x for x in row), -g
        num = shifts[k] - shifts[a]
        q = math.gcd(num, g) if g > 0 else -math.gcd(num, g)
        return row, num // q, g // q

    def multiplicity(self, tie):
        if tie not in self._multiplicities:
            self._multiplicities[tie] = _segment_multiplicity(self.exponents, tie)
        return self._multiplicities[tie]


@functools.lru_cache(maxsize=_SUPPORT_CACHE_SIZE)
def _support(exponents, rank):
    return _Support(exponents, rank)


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


def _cell_polyhedron(support, shifts, rank, tie, two_cells):
    """The cell of the edge tie of the subdivision, with one inequality per
    facet.

    The equality is the tie of the two smallest indices a < b of tie.  The
    facets of the cell are the 2-cells sigma containing tie (two_cells, each
    with the vertex (ints, den) of a maximal cell containing it).  The rows
    <u_a - u_k, v> <= c_k - c_a for k in sigma - tie all define the facet of
    sigma; the cell keeps the largest in canonical order, the row that
    greedy redundancy removal over the sorted rows keeps.  Rows are row
    keys (_Support.constraint), ordered as plain tuples, and each kept row
    must be tight at its vertex, and the vertex lie in the cell, checked
    in integers; the Polyhedron is built last, one Fraction per row.
    """
    a, b = sorted(tie)[:2]
    eq = support.constraint(a, b, shifts, True)
    facets = [(max(support.constraint(a, k, shifts, False) for k in sigma - tie), v) for sigma, v in two_cells]
    rows = sorted(row for row, _ in facets)
    for row, (ints, den) in facets:
        # den * (<r, v> - num / rden) at v = ints / den, scaled by rden
        gap = lambda r, num, rden: sum(map(operator.mul, r, ints)) * rden - num * den
        if gap(*eq) or gap(*row) or any(gap(*c) > 0 for c in rows):
            raise InternalInvariantError("a facet row is not tight on its 2-cell")
    return polyhedron_of_key((rank, (eq,), tuple(rows)))


def corner_locus(data: TropicalData, rank) -> PolyhedralComplex:
    """Cells where at least two terms achieve the minimum, read off the
    regular subdivision of the lifted exponents (u_i, c_i), to which the
    corner locus is dual, with no LP.

    The exponents affinely span a space of dimension d, which maps one-to-
    one onto the pivot coordinates of their differences (_eliminate).  Each
    maximal cell sigma of the subdivision comes with a vertex of the corner
    locus, solved for on those coordinates with the others 0.  The edges of
    the maximal cells are the tie sets of the cells, and the 2-faces
    containing an edge give its facets (_cell_polyhedron), so each cell is
    built once.  What no place changes (the pivots, each (d+1)-subset's
    elimination, the pair rows and the multiplicities) is kept per support
    in _support, shared by the loci of one polynomial at every place.
    Every step is charged to a _Budget of MAX_CORNER_OPS before it runs, at
    its uncached estimate, the scan of the C(s, d + 1) subsets of the s
    terms included; past it CornerLocusTooLarge is raised.
    """
    exps, shifts = data.exponents, data.shifts
    s = len(exps)
    budget = _Budget(s, rank)
    budget.spend(s * rank * rank)
    support = _support(exps, rank)
    pivots, d = support.pivots, support.d
    budget.scan(s, d + 1, d)
    edges, two_cells = {}, {}
    for sigma, (nums, den) in support.maximal_cells(shifts).items():
        ints = [0] * rank
        for c, x in zip(pivots, nums):
            ints[c] = x
        es, fs = _edges_and_two_faces(support.points, sigma, d, budget)
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
            _cell_polyhedron(support, shifts, rank, tie, [(f, two_cells[f]) for f in fs]),
            tie,
            support.multiplicity(tie),
        )
        for tie, fs in edges.items()
    ]
    return make_complex(rank, cells)


def trop_hypersurface(f: LaurentPoly, place) -> PolyhedralComplex:
    """Tropicalization of the hypersurface cut out by f at the given place."""
    if f.nterms < 2:
        raise MonomialInput("a monomial cuts out the empty set in the torus")
    return corner_locus(tropical_data(f, place), f.rank)


@dataclass(frozen=True)
class AdelicAmoeba:
    """Generic complex plus the finitely many special places, with a handle
    back to the defining data for archimedean queries.  A hypersurface's
    amoeba keeps the TropicalData each of its complexes was built from,
    generic first and then in the order of special, so that no query
    recomputes a valuation; a system's keeps none."""

    generic: PolyhedralComplex
    special: tuple  # ((place, PolyhedralComplex), ...) sorted by place string
    source: object = dataclass_field(compare=False, default=None)
    data: tuple = dataclass_field(compare=False, default=())


def _check_amoeba_size(polys, places):
    """Refuse, before any locus is built, hypersurfaces whose loci at the
    given number of places would spend more than MAX_AMOEBA_OPS on their
    subset scans together.  The charges of one locus up to its scan come
    first, so what one locus refuses is refused with the same message."""
    ops = 0
    for f in polys:
        s, rank = f.nterms, f.rank
        budget = _Budget(s, rank)
        budget.spend(s * rank * rank)
        d = _support(tuple(f.exponents()), rank).d
        ops += budget.scan(s, d + 1, d)
    if places * ops > MAX_AMOEBA_OPS:
        terms = " and ".join(f"{f.nterms} terms in rank {f.rank}" for f in polys)
        raise CornerLocusTooLarge(
            f"the {places * len(polys)} corner loci of {terms} need more "
            f"than {MAX_AMOEBA_OPS} integer operations"
        )


def adelic_amoeba(source) -> AdelicAmoeba:
    """Adelic amoeba of a hypersurface (the corner locus of its
    tropical_data at each place, which is kept) or of a PrevarietySystem
    (prevariety at each place): the special places are the bad places of
    its polynomials, sorted by place string and built first, and the
    generic complex is built last."""
    data = {}
    if isinstance(source, PrevarietySystem):
        polys = [con.poly for con in source.constraints]
        build = lambda place: prevariety(source, place)
    elif isinstance(source, LaurentPoly):
        if source.nterms < 2:
            raise MonomialInput("a monomial cuts out the empty set in the torus")
        polys = [source]

        def build(place):
            data[place] = tropical_data(source, place)
            return corner_locus(data[place], source.rank)
    else:
        raise TypeError("source must be a hypersurface or a prevariety system")
    places = sorted(frozenset().union(*map(bad_places, polys)), key=place_to_str)
    _check_amoeba_size(polys, len(places) + 1)
    special = tuple((p, build(p)) for p in places)
    generic = build(GENERIC)
    kept = tuple(data[p] for p in (GENERIC, *places)) if data else ()
    return AdelicAmoeba(generic, special, source, kept)


@dataclass(frozen=True)
class Constraint:
    """One prevariety constraint: a hypersurface in its own torus plus the
    integer monomial map pulling it back to the ambient torus (None means
    the identity)."""

    poly: LaurentPoly
    pullback: tuple | None = None


def _argmin_mask(tropdata, ints, den):
    """The argmin sets of all constraints at v = ints / den as one int: term
    i of constraint j is bit offset_j + i, where offset_j counts the terms
    of the constraints before j.  Compared as integers over den."""
    mask = offset = 0
    for data in tropdata:
        vals = _values(data.exponents, data.shifts, ints, den)
        best = min(vals)
        for i, x in enumerate(vals, offset):
            if x == best:
                mask |= 1 << i
        offset += len(vals)
    return mask


def _below(S, T):
    """Whether the argmin mask S lies strictly below T, term by term."""
    return S != T and S | T == T


def prevariety(system, place) -> PolyhedralComplex:
    """Intersection of the pulled-back hypersurface tropicalizations.

    Distributes intersection over tuples of cells.  A corner-locus cell is
    where its tie set attains the minimum, so a raw piece P is where each
    constraint's tie set does.  Each nonempty cell is keyed once
    (Polyhedron.sort_key: ints alone), and a piece's key merges its cells'
    keys (intersect_keys), so a piece hashes no Fraction, and a cache miss
    reads it off those ints and builds no Polyhedron.  Each piece is asked
    once, on that key, for a relative-interior point and the frame of its
    equalities (keyed_interior_point), None exactly when P is empty.  Name
    a nonempty P by its argmin tuple T, the terms of each constraint
    minimal at that point.  On P each term's gap above the minimum is
    affine and nonnegative, so it vanishes on all of P or is positive on
    its relative interior.  Hence
    P = {v : T_i lies in argmin_i(v) for every i}, equal tuples name equal
    pieces, and P lies in Q exactly when T_Q lies in T_P entry by entry.
    The tuple is held as one bit mask (_argmin_mask), read off the point
    scaled to integers once, so equal masks are equal tuples and S | T == T
    says S lies in T entry by entry.  The first piece of each mask in
    product order is kept when no other mask lies below it (_below), with
    its frame, and only kept pieces get redundancy removal, on their key
    and that frame (keyed_reduction), and are built as polyhedra.
    This is an outer approximation of the tropicalization of the common
    zero set.
    """
    pulled, tropdata = [], []
    for con in system.constraints:
        data = tropical_data(con.poly, place)
        cells = [cell.polyhedron for cell in corner_locus(data, con.poly.rank).cells]
        if con.pullback is not None:
            cells = [preimage(P, con.pullback) for P in cells]
            # <u, M x> = <M^T u, x>: the terms pulled back to the ambient torus
            transpose = list(zip(*con.pullback))
            data = TropicalData(tuple(mat_vec(transpose, u) for u in data.exponents), data.shifts)
        pulled.append(cells)
        tropdata.append(data)
    empty = empty_polyhedron(system.rank)
    keyed = [[P.sort_key() for P in cells if P != empty] for cells in pulled]
    pieces = {}
    for combo in itertools.product(*keyed):
        key = intersect_keys(combo)
        found = keyed_interior_point(key)
        if found is None:
            continue
        point, frame = found
        ints, den = integer_row(point)
        pieces.setdefault(_argmin_mask(tropdata, ints, den), (key, frame))
    keep = [piece for T, piece in pieces.items() if not any(_below(S, T) for S in pieces)]
    return make_complex(system.rank, [Cell(keyed_reduction(key, frame)) for key, frame in keep])


@dataclass(frozen=True)
class PrevarietySystem:
    """A parametrized subvariety presented by constraints in an ambient torus,
    whose number, field, pullback shapes and term counts are checked when it
    is built."""

    rank: int
    constraints: tuple

    def __post_init__(self):
        if not self.constraints:
            raise EmptySystem("a system needs at least one constraint")
        if len({con.poly.field for con in self.constraints}) > 1:
            raise FieldMismatch("the constraints of a system need one field")
        for con in self.constraints:
            mat, rank = con.pullback, con.poly.rank
            if mat is None and rank != self.rank:
                raise DimensionMismatch(f"identity pullback needs rank {self.rank}, got {rank}")
            if mat is not None and (len(mat) != rank or any(len(r) != self.rank for r in mat)):
                raise DimensionMismatch("pullback matrix shape mismatch")
            if con.poly.nterms < 2:
                raise MonomialInput("a monomial cuts out the empty set in the torus")

    @property
    def field(self):
        return self.constraints[0].poly.field
