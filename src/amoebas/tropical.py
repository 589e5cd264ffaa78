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
from .lattices import identity, integer_kernel, primitive_vector, quotient_map
from .laurent import LaurentPoly, bad_places
from .polyhedral import (
    Cell,
    LPInfeasible,
    LPUnbounded,
    PolyhedralComplex,
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
    v = [Fraction(x) for x in v]
    best = None
    arg = set()
    for i, (u, c) in enumerate(zip(data.exponents, data.shifts)):
        val = sum(a * x for a, x in zip(u, v)) + c
        if best is None or val < best:
            best = val
            arg = {i}
        elif val == best:
            arg.add(i)
    return best, frozenset(arg)


def psi(f: LaurentPoly, place, v):
    """Exact minimum of <u_i, v> + c_i and the full achieving index set."""
    if f.nterms < 2:
        raise MonomialInput("need at least two terms")
    return min_value_and_argmin(tropical_data(f, place), v)


def _segment_multiplicity(exponents, tie):
    """Lattice length of the segment spanned by the tied exponents."""
    idx = sorted(tie)
    base = exponents[idx[0]]
    direction = None
    for j in idx[1:]:
        d = tuple(a - b for a, b in zip(exponents[j], base))
        if any(d):
            direction = d
            break
    if direction is None:
        raise InternalInvariantError("tied exponents coincide")
    prim = primitive_vector(direction)
    pivot = next(k for k, x in enumerate(prim) if x != 0)
    ts = []
    for j in idx:
        d = tuple(a - b for a, b in zip(exponents[j], base))
        t = Fraction(d[pivot], prim[pivot])
        if tuple(t * x for x in prim) != tuple(map(Fraction, d)):
            raise InternalInvariantError("tied exponents are not collinear")
        ts.append(t)
    length = max(ts) - min(ts)
    if length.denominator != 1 or length <= 0:
        raise InternalInvariantError("bad lattice length")
    return int(length)


def _parallel(w, r) -> bool:
    """Whether the integer rows w and r are linearly dependent (all 2x2
    minors vanish)."""
    return all(
        w[a] * r[b] == w[b] * r[a] for a, b in itertools.combinations(range(len(w)), 2)
    )


def corner_locus(data: TropicalData, rank) -> PolyhedralComplex:
    """Cells where at least two terms achieve the minimum.

    For each unordered pair (i, j), one slack LP maximizes t subject to the
    tie <u_i - u_j, v> = c_j - c_i, <u_i - u_k, v> + t <= c_k - c_i for every
    k whose row is not parallel to u_i - u_j, the same row without t for
    parallel k (such a row is constant on the tie hyperplane), and t <= 1.
    The tie locus has dimension rank-1 exactly when the optimum is positive,
    and the optimal point then lies in its relative interior, where the
    argmin set is constant; that set labels the cell and deduplicates it.
    Redundancy removal runs only on the cells kept.
    """
    s = len(data.exponents)
    cells = {}
    for i, j in itertools.combinations(range(s), 2):
        ui, uj = data.exponents[i], data.exponents[j]
        ci, cj = data.shifts[i], data.shifts[j]
        w = tuple(a - b for a, b in zip(ui, uj))
        ineqs = []
        for k in range(s):
            if k in (i, j):
                continue
            uk, ck = data.exponents[k], data.shifts[k]
            ineqs.append(
                (tuple(a - b for a, b in zip(ui, uk)), Fraction(ck - ci))
            )
        P = polyhedron(rank, [(w, Fraction(cj - ci))], ineqs)
        t_axis = (0,) * rank + (1,)
        slack = polyhedron(
            rank + 1,
            [(row + (0,), rhs) for row, rhs in P.equalities],
            [(row + (0 if _parallel(w, row) else 1,), rhs) for row, rhs in P.inequalities]
            + [(t_axis, 1)],
        )
        res = lp_solve(t_axis, slack)
        if isinstance(res, LPInfeasible):
            continue
        if isinstance(res, LPUnbounded):
            raise InternalInvariantError("tie slack is capped, cannot be unbounded")
        if res.value <= 0:
            continue
        _, tie = min_value_and_argmin(data, res.point[:rank])
        if tie in cells:
            if not poly_equal(cells[tie].polyhedron, P):
                raise InternalInvariantError("one argmin set carved two cells")
            continue
        P = remove_redundancy(P)
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
