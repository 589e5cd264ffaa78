"""Shared fixtures: the worked-example corpus, expected complexes, random
generators, a brute-force LP oracle for small bounded polytopes, and the
test-only oracles (polyhedra from generators, set equality of complexes,
balancing, convex certificates, the argmin of a tropical polynomial) that no
command calls."""
from __future__ import annotations

import cmath
import contextlib
import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings
from sympy import ZZ, Matrix, factorint
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import smith_normal_decomp

from amoebas.archimedean import (
    _MAX_EXPONENT_SPREAD,
    _TOL,
    ArchQuery,
    evaluate_at,
    sign_exp_sum,
    triangle_applicable,
)
from amoebas.classify import (
    CERTIFIED_OUTSIDE,
    DISJOINT,
    EVIDENCE_ONLY,
    INSIDE,
    LOPSIDED,
    MEETS,
    TRIANGLE,
    AdelicReport,
    ArchPointVerdict,
    EklReport,
    Halfspace,
    PlaceCheck,
    _witness_json,
    halfspace_meets_complex,
    trichotomy_conclusion,
)
from amoebas.errors import (
    DegenerateSlice,
    DimensionMismatch,
    EmptyPolynomial,
    ExponentSpreadTooLarge,
    InternalInvariantError,
    MonomialInput,
    PlaceFieldMismatch,
    ZeroInput,
)
from amoebas.laurent import (
    LaurentPoly,
    bad_places,
    make_laurent,
    parse_poly,
    strict_vertex_direction,
)
from amoebas.lattices import (
    identity,
    primitive_vector,
    rank_of_rows,
)
from amoebas import polyhedral
from amoebas.polyhedral import (
    Cell,
    LPInfeasible,
    LPOptimal,
    LPUnbounded,
    contains_point,
    empty_polyhedron,
    intersect,
    lp_solve,
    make_complex,
    polyhedron,
    keyed_interior_point,
    preimage,
)
from amoebas.scalars import (
    ARCH,
    FF_INFINITY,
    FIELD_Q,
    FIELD_QZ,
    GENERIC,
    FiniteIrreducible,
    FinitePrime,
    RationalFunction,
    _factored,
    field_of,
    irreducible_factors,
    log_abs,
    place_from_str,
    place_to_str,
    valuation,
)
from amoebas.tropical import (
    PrevarietySystem,
    _segment_multiplicity,
    adelic_amoeba,
    trop_hypersurface,
    tropical_data,
)

# Derandomized property tests draw the same examples on every run, and the
# exact-LP properties have no per-example deadline to trip on a loaded host.
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")


# 120 terms of rank 2 on a 12 x 10 grid of exponents, past the corner-locus
# bound (the CI workflow builds the same text)
LARGE_RANK_2 = " + ".join(
    f"{(a * b) % 7 + 1}*x1^{a}*x2^{b}" for a in range(-9, 3) for b in range(-9, 1)
)

# 10 boundary generators in Z^24 with first coordinate 0, so dir:1,0,...,0
# stays off their span (the CI workflow builds the same halfspace)
_wide = random.Random(24)
WIDE_BOUNDARY = [[0] + [_wide.randint(-4, 4) for _ in range(23)] for _ in range(10)]
WIDE_HALFSPACE = "dir:" + ",".join(["1"] + ["0"] * 23) + " bnd:" + ";".join(
    ",".join(map(str, g)) for g in WIDE_BOUNDARY
)

# three constraints of 3-5 terms in rank 4 whose raw product has many
# lower-dimensional and nested pieces (the CI workflow builds the same system)
RANK_4_SYSTEM = {
    "rank": 4,
    "field": "Q",
    "constraints": [
        {"f": "x1 + 2*x2 + 3*x3 + 5*x4 + 7"},
        {"f": "x1*x2 + x3 - 3*x4 + 11"},
        {"f": "x1 - x2*x4 + 13*x3 + 1"},
    ],
}


# ---------------------------------------------------------------------------
# test-only oracles: no command reaches these, so they live here


# the place z of Q(z)
Z = RationalFunction((1, 0))


def scale(f, c):
    if c == 0:
        raise EmptyPolynomial("scaling by zero")
    return make_laurent(f.rank, f.field, [(e, a * c) for e, a in f.terms])


def poly_to_str(f):
    """Text that parse_poly reads back to f: the parser's round-trip input."""
    parts = []
    for exp, coeff in f.terms:
        negative = coeff < 0 if isinstance(coeff, Fraction) else coeff.num[0] < 0
        mag = -coeff if negative else coeff
        mag_str = str(mag)
        if isinstance(mag, RationalFunction) and not mag.is_constant():
            if not (mag_str.startswith("(") and mag_str.endswith(")")):
                mag_str = f"({mag_str})"
        mono = "*".join(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(exp) if e)
        if not mono:
            body = mag_str
        elif mag == 1:
            body = mono
        else:
            body = f"{mag_str}*{mono}"
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts)


def is_empty(P):
    """Emptiness by one feasibility LP, independent of the hull cache."""
    return isinstance(lp_solve([0] * P.rank, P), LPInfeasible)


def from_generators(rank, points, rays=(), lines=()):
    """Polyhedron conv(points) + cone(rays) + span(lines), via projection."""
    if not points:
        raise ValueError("need at least one point")
    # variables (v, mu): v = sum of mu_k g_k, mu >= 0 on points and rays,
    # and the mu of the points sum to 1
    gens = [*points, *rays, *lines]
    n, k = rank + len(gens), len(points)
    eye = identity(n)
    eqs = [(eye[c][:rank] + [-Fraction(g[c]) for g in gens], 0) for c in range(rank)]
    eqs.append(([0] * rank + [1] * k + [0] * (n - rank - k), 1))
    ineqs = [([-x for x in eye[rank + i]], 0) for i in range(k + len(rays))]
    return reference_project(polyhedron(n, eqs, ineqs), eye[:rank])


def complex_membership(C, v):
    """Index of the first cell containing v, or None."""
    v = tuple(Fraction(x) for x in v)
    if len(v) != C.rank:
        raise DimensionMismatch("point rank mismatch")
    for i, cell in enumerate(C.cells):
        if contains_point(cell.polyhedron, v):
            return i
    return None


def contains_zero(C):
    return complex_membership(C, (0,) * C.rank) is not None


def translate_complex(C, w):
    """The translate C + w, cell by cell, labels kept."""
    w = [Fraction(x) for x in w]
    move = lambda cons: [(r, b + sum(a * x for a, x in zip(r, w))) for r, b in cons]
    return make_complex(
        C.rank,
        [
            Cell(
                polyhedron(C.rank, move(c.polyhedron.equalities), move(c.polyhedron.inequalities)),
                c.tie_set,
                c.multiplicity,
            )
            for c in C.cells
        ],
    )


def covered_by(P, polys):
    """Whether P is contained in the union of the given polyhedra.

    If no single piece contains P, split P along a constraint hyperplane of a
    piece overlapping it full-dimensionally and recurse.  A hyperplane can
    properly split any chain at most once, so this terminates; if the union
    covers P, some piece always overlaps full-dimensionally.
    """
    dP = dimension(P)
    if dP < 0:
        return True
    for Q in polys:
        if reference_poly_contains(Q, P):
            return True
    for Q in polys:
        if dimension(intersect(P, Q)) != dP:
            continue
        for row, rhs in Q.equalities + Q.inequalities:
            hi = lp_solve(row, P)
            hi_exceeds = isinstance(hi, LPUnbounded) or hi.value > rhs
            if not hi_exceeds:
                continue
            lo = lp_solve([-x for x in row], P)
            lo_below = isinstance(lo, LPUnbounded) or -lo.value < rhs
            if not lo_below:
                continue
            P1 = intersect(P, polyhedron(P.rank, (), [(row, rhs)]))
            P2 = intersect(P, polyhedron(P.rank, (), [(tuple(-x for x in row), -rhs)]))
            return covered_by(P1, polys) and covered_by(P2, polys)
        # a full-dimensional overlap with no proper split means P lies in Q
        return True
    return False


def complexes_equal(C1, C2):
    """Set equality of supports, by double inclusion on cells."""
    if C1.rank != C2.rank:
        return False
    polys1 = [c.polyhedron for c in C1.cells]
    polys2 = [c.polyhedron for c in C2.cells]
    return all(covered_by(P, polys2) for P in polys1) and all(
        covered_by(Q, polys1) for Q in polys2
    )


def polyhedron_from_json(obj):
    return polyhedron(
        obj["rank"],
        [(tuple(c["row"]), Fraction(c["rhs"])) for c in obj["equalities"]],
        [(tuple(c["row"]), Fraction(c["rhs"])) for c in obj["inequalities"]],
    )


def complex_from_json(obj):
    cells = []
    for d in obj["cells"]:
        tie = frozenset(d["tie_set"]) if d.get("tie_set") is not None else None
        cells.append(Cell(polyhedron_from_json(d), tie, d.get("multiplicity")))
    return make_complex(obj["rank"], cells)


def convex_certificate(points, i):
    """Exact convex combination of the other points equal to points[i], as
    an {index: weight} dict, or None when points[i] is a vertex of their
    hull: an LP feasibility oracle for the vertices, independent of the
    strict-direction LP."""
    others = [j for j in range(len(points)) if j != i]
    k = len(others)
    eqs = [([points[j][c] for j in others], Fraction(points[i][c])) for c in range(len(points[i]))]
    eqs.append(([1] * k, Fraction(1)))
    ineqs = [([-1 if t == s else 0 for t in range(k)], Fraction(0)) for s in range(k)]
    res = lp_solve([0] * k, polyhedron(k, eqs, ineqs))
    if not isinstance(res, LPOptimal):
        return None
    return {others[s]: res.point[s] for s in range(k) if res.point[s] != 0}


def _codimension_two_cells(C):
    """Distinct (rank-2)-dimensional pairwise intersections of maximal cells."""
    target = C.rank - 2
    taus = []
    for A, B in itertools.combinations([c.polyhedron for c in C.cells], 2):
        T = intersect(A, B)
        if dimension(T) != target:
            continue
        if not any(reference_poly_contains(T, S) and reference_poly_contains(S, T) for S in taus):
            taus.append(T)
    return taus


def reference_smith(A):
    """sympy's Smith form U A V = D of an integer matrix, as int lists
    (U, D, V); a matrix without rows or columns gives identities."""
    m, n = len(A), len(A[0]) if A else 0
    if not m or not n:
        return identity(m), [list(row) for row in A], identity(n)
    D, U, V = smith_normal_decomp(DomainMatrix.from_list(A, ZZ))
    return tuple([[int(x) for x in row] for row in M.to_list()] for M in (U, D, V))


def reference_quotient_map(boundary, n):
    """(phi, rinv): phi maps Z^n onto Z^(n - r), r the rank of the boundary
    rows B, with the saturated span of B as kernel, and phi rinv = I.  The
    last n - r columns of B V are zero in the Smith form U B V = D, so phi
    reads them off x V and rinv is the matching rows of V^-1."""
    r = rank_of_rows(boundary)
    V = reference_smith(boundary)[2] if boundary else identity(n)
    Vinv = Matrix(V).inv()
    phi = [[V[j][i] for j in range(n)] for i in range(r, n)]
    rinv = [[int(Vinv[i, j]) for i in range(r, n)] for j in range(n)]
    return phi, rinv


def is_balanced(C):
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
        rows = [list(r) for r in hull_rows(tau)]
        if len(rows) != 2:
            raise InternalInvariantError("unexpected direction space")
        # the last n - 2 columns of V in the Smith form U A V = D of the hull
        # rows A are a basis of the direction space of tau in Z^n
        V = reference_smith(rows)[2]
        phi, _ = reference_quotient_map([[V[i][j] for i in range(n)] for j in range(2, n)], n)
        x_tau = relative_interior_point(tau)
        image_tau = [sum(r * x for r, x in zip(row, x_tau)) for row in phi]
        total = [0, 0]
        for cell in C.cells:
            if not reference_poly_contains(cell.polyhedron, tau):
                continue
            x_cell = relative_interior_point(cell.polyhedron)
            image = [sum(r * x for r, x in zip(row, x_cell)) for row in phi]
            diff = [a - b for a, b in zip(image, image_tau)]
            direction = primitive_vector(diff)
            total = [t + cell.multiplicity * d for t, d in zip(total, direction)]
        if any(total):
            return False
    return True


def ray(rank, base, direction):
    return from_generators(rank, [base], [direction])


def segment(rank, a, b):
    return from_generators(rank, [a, b])


def cells_of(rank, polys):
    return make_complex(rank, [Cell(P) for P in polys])


# ---------------------------------------------------------------------------
# worked examples


@pytest.fixture(scope="session")
def ex_curve_qz():
    # the three-term curve over Q(z) with bad places z, z-1, z-2
    return parse_poly("z*x1 + (z-1)*x2 + (z-2)")


@pytest.fixture(scope="session")
def ex_curve_q():
    # the four-term curve over Q with bad place 2 and a pinched archimedean amoeba
    return parse_poly("x1*x2 - 2*x1 - 2*x2 + 1")


@pytest.fixture(scope="session")
def ex_line_q():
    return parse_poly("x1 + x2 - 2")


def tripod(base):
    """Rays from base in directions e1, e2, -(e1+e2)."""
    return cells_of(
        2,
        [
            ray(2, base, (1, 0)),
            ray(2, base, (0, 1)),
            ray(2, base, (-1, -1)),
        ],
    )


@pytest.fixture(scope="session")
def expected_tripods():
    return {
        "generic": tripod((0, 0)),
        "q:z": tripod((-1, 0)),
        "q:z-1": tripod((0, -1)),
        "q:z-2": tripod((1, 1)),
    }


@pytest.fixture(scope="session")
def expected_axes():
    return cells_of(
        2,
        [
            ray(2, (0, 0), (1, 0)),
            ray(2, (0, 0), (-1, 0)),
            ray(2, (0, 0), (0, 1)),
            ray(2, (0, 0), (0, -1)),
        ],
    )


@pytest.fixture(scope="session")
def expected_curve_q_at_two():
    v = (1, -1)
    mv = (-1, 1)
    return cells_of(
        2,
        [
            segment(2, v, mv),
            ray(2, v, (1, 0)),
            ray(2, v, (0, -1)),
            ray(2, mv, (-1, 0)),
            ray(2, mv, (0, 1)),
        ],
    )


@pytest.fixture(scope="session")
def corpus(ex_curve_qz, ex_curve_q, ex_line_q):
    """Hypersurface/place pairs exercising both fields, shifts, and
    multiplicities; used by the oracle, purity, and balancing criteria."""
    pairs = []
    for p in ("generic", "q:z", "q:z-1", "q:z-2"):
        pairs.append((ex_curve_qz, place_from_str(p) if p != "generic" else GENERIC))
    for p in (GENERIC, FinitePrime(2)):
        pairs.append((ex_curve_q, p))
    pairs.append((ex_line_q, GENERIC))
    pairs.append((ex_line_q, FinitePrime(2)))
    pairs.append((parse_poly("x1 + x2 + 1"), GENERIC))
    pairs.append((parse_poly("x1*x2^2 - 1"), GENERIC))
    pairs.append((parse_poly("x1*x2^2 - 1"), FinitePrime(3)))
    pairs.append((parse_poly("x1^2 + x2 + 1"), GENERIC))  # multiplicity-2 ray
    pairs.append((parse_poly("4*x1 + 2*x2 + 1"), FinitePrime(2)))
    pairs.append((parse_poly("x1 - x3 - 2", rank=3), GENERIC))
    pairs.append((parse_poly("x1 - x3 - 2", rank=3), FinitePrime(2)))
    pairs.append((parse_poly("x1^2 + x1 + 1"), GENERIC))
    return pairs


@pytest.fixture(scope="session")
def corpus_trops(corpus):
    return [(f, p, trop_hypersurface(f, p)) for f, p in corpus]


# ---------------------------------------------------------------------------
# randomness


@pytest.fixture()
def rng():
    return random.Random(20260809)


def rand_fraction(rng, num=50, den=30):
    n = 0
    while n == 0:
        n = rng.randint(-num, num)
    return Fraction(n, rng.randint(1, den))


_FACTOR_POOL = [  # dense integer coefficients, high degree first
    (1, 0),       # z
    (1, -1),      # z - 1
    (1, 1),       # z + 1
    (1, -2),      # z - 2
    (1, 0, 1),    # z^2 + 1
    (1, 3),       # z + 3
]


def rand_ratfunc(rng, max_factors=2):
    num = RationalFunction.const(rand_fraction(rng, 9, 5))
    den = RationalFunction.const(1)
    for _ in range(rng.randint(0, max_factors)):
        num = num * RationalFunction(rng.choice(_FACTOR_POOL))
    for _ in range(rng.randint(0, max_factors)):
        den = den * RationalFunction(rng.choice(_FACTOR_POOL))
    return num / den


def rand_exponents(rng, rank, count, spread=3):
    out = set()
    while len(out) < count:
        out.add(tuple(rng.randint(-spread, spread) for _ in range(rank)))
    return sorted(out)


def rand_poly_q(rng, rank=2, terms=None):
    s = terms or rng.randint(2, 5)
    exps = rand_exponents(rng, rank, s)
    return make_laurent(rank, FIELD_Q, [(e, rand_fraction(rng)) for e in exps])


def rand_poly_qz_constant(rng, rank=2, terms=None):
    s = terms or rng.randint(2, 6)
    exps = rand_exponents(rng, rank, s)
    return make_laurent(
        rank,
        FIELD_QZ,
        [(e, RationalFunction.const(rand_fraction(rng))) for e in exps],
    )


def rand_poly_qz(rng, rank=2, terms=None):
    s = terms or rng.randint(2, 6)
    exps = rand_exponents(rng, rank, s)
    return make_laurent(rank, FIELD_QZ, [(e, rand_ratfunc(rng)) for e in exps])


def rand_point(rng, rank, num=12, den=4):
    return tuple(
        Fraction(rng.randint(-num, num), rng.randint(1, den)) for _ in range(rank)
    )


# ---------------------------------------------------------------------------
# naive LP oracle (bounded pointed polyhedra only)


def brute_force_lp(objective, P):
    """Enumerate basic solutions from all rank-sized constraint subsets and
    maximize over the feasible ones.  Returns (value, point) or None when no
    feasible basic solution exists."""
    n = P.rank
    rows = list(P.equalities + P.inequalities)
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        mat = [list(map(Fraction, rows[i][0])) for i in combo]
        rhs = [Fraction(rows[i][1]) for i in combo]
        point = _solve_square(mat, rhs)
        if point is None:
            continue
        if not contains_point(P, point):
            continue
        value = sum(Fraction(o) * x for o, x in zip(objective, point))
        if best is None or value > best[0]:
            best = (value, point)
    return best


def _solve_square(mat, rhs):
    n = len(mat)
    A = [row[:] + [b] for row, b in zip(mat, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        pv = A[col][col]
        A[col] = [x / pv for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return tuple(A[r][n] for r in range(n))


# ---------------------------------------------------------------------------
# per-pair references for the complex-assembly differential tests


def min_value_and_argmin(data, v):
    """Minimum of <u_i, v> + c_i at the rational point v and the indices
    achieving it, in Fractions."""
    vals = [sum(a * Fraction(x) for a, x in zip(u, v)) + c for u, c in zip(data.exponents, data.shifts)]
    best = min(vals)
    return best, frozenset(i for i, x in enumerate(vals) if x == best)


def reference_corner_locus(data, rank):
    """Corner locus by emptiness, dimension and a relative-interior point of
    every pair's tie locus, each decided by its own LPs."""
    s = len(data.exponents)
    cells = {}
    for i, j in itertools.combinations(range(s), 2):
        ui, uj = data.exponents[i], data.exponents[j]
        ci, cj = data.shifts[i], data.shifts[j]
        eq = (tuple(a - b for a, b in zip(ui, uj)), Fraction(cj - ci))
        ineqs = [
            (tuple(a - b for a, b in zip(ui, data.exponents[k])), Fraction(data.shifts[k] - ci))
            for k in range(s)
            if k not in (i, j)
        ]
        P = polyhedron(rank, [eq], ineqs)
        if is_empty(P) or dimension(P) != rank - 1:
            continue
        _, tie = min_value_and_argmin(data, relative_interior_point(P))
        if tie in cells:
            Q = cells[tie].polyhedron
            if not (reference_poly_contains(Q, P) and reference_poly_contains(P, Q)):
                raise InternalInvariantError("one argmin set carved two cells")
            continue
        cells[tie] = Cell(reference_remove_redundancy(P), tie, _segment_multiplicity(data.exponents, tie))
    return make_complex(rank, cells.values())


def reference_maximal_cells(support, shifts):
    """_Support.maximal_cells as a full scan of the subset table: every
    (d+1)-subset's tie point is evaluated, and the first subset that finds
    a cell gives its vertex."""
    cells = {}
    for S, T, den in support.subsets:
        a = S[0]
        b = [shifts[k] - shifts[a] for k in S[1:]]
        nums = [sum(t * x for t, x in zip(row, b)) for row in T]
        vals = [c * den for c in shifts]
        for col, x in zip(support.columns, nums):
            vals = [v + p * x for v, p in zip(vals, col)]
        best = min(vals)
        if vals[a] == best:
            sigma = frozenset(i for i, x in enumerate(vals) if x == best)
            cells.setdefault(sigma, (nums, den))
    return cells


def reference_poly_contains(P, Q):
    """Whether Q is a subset of P: an emptiness LP, then per constraint of P
    the LPs over Q (of the row and its negation for an equality, of the row
    for an inequality)."""
    if is_empty(Q):
        return True
    for row, rhs in P.equalities:
        for sign in (1, -1):
            res = lp_solve([sign * x for x in row], Q)
            if not (isinstance(res, LPOptimal) and res.value == sign * rhs):
                return False
    for row, rhs in P.inequalities:
        hi = lp_solve(row, Q)
        if not (isinstance(hi, LPOptimal) and hi.value <= rhs):
            return False
    return True


def _independent_rows(rows):
    """The rows that raise the rank of those before them, in order."""
    hull = []
    for row in rows:
        if reference_rank_of_rows(hull + [row]) > len(hull):
            hull.append(row)
    return tuple(hull)


def reference_affine_hull(P):
    """None for an empty P (by is_empty); else the independent affine-hull
    rows, greedily in order, and per inequality whether it is an implicit
    equality, each decided by one LP minimizing the row over P."""
    if is_empty(P):
        return None
    flags = []
    for row, rhs in P.inequalities:
        res = lp_solve([-x for x in row], P)
        flags.append(isinstance(res, LPOptimal) and -res.value == rhs)
    rows = [row for row, _ in P.equalities] + [r for (r, _), f in zip(P.inequalities, flags) if f]
    return _independent_rows(rows), tuple(flags)


def relative_interior_point(P):
    """The point of keyed_interior_point on P: a point of P strict on
    every row that is not an implicit equality, or None when P is empty."""
    found = keyed_interior_point(P)
    return None if found is None else found[0]


def hull_rows(P):
    """The independent affine-hull rows of P, greedily in order, or None
    when P is empty: the equalities and the inequalities tight at
    relative_interior_point(P), which is strict on exactly the rows that
    are not implicit equalities (test_polyhedral.TestHull checks that
    against reference_affine_hull)."""
    x = relative_interior_point(P)
    if x is None:
        return None
    tight = [row for row, rhs in P.inequalities if sum(a * b for a, b in zip(row, x)) == rhs]
    return _independent_rows([row for row, _ in P.equalities] + tight)


def dimension(P):
    """Dimension of P, -1 when empty: the rank less its affine-hull rows."""
    rows = hull_rows(P)
    return -1 if rows is None else P.rank - len(rows)


def reference_remove_redundancy(P):
    """Drop inequalities implied by the rest of a nonempty P, greedily in
    row order, each row decided by index (an exact duplicate is a row of
    its own) by one max LP over the equalities and the rows still kept."""
    eqs, ineqs = P.equalities, P.inequalities
    kept = list(range(len(ineqs)))
    for i in range(len(ineqs)):
        others = [j for j in kept if j != i]
        row, rhs = ineqs[i]
        res = lp_solve(row, polyhedron(P.rank, eqs, [ineqs[j] for j in others]))
        if isinstance(res, LPOptimal) and res.value <= rhs:
            kept = others
    return polyhedron(P.rank, eqs, [ineqs[j] for j in kept])


@contextlib.contextmanager
def no_fraction_hash():
    """Inside it, hashing a Fraction fails the test."""

    def refuse(self):
        raise AssertionError("a Fraction was hashed")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__hash__", refuse)
        yield


def count_lp_calls(monkeypatch):
    """A list that gains one entry per lp_solve call made from any module of
    the package, from now on."""
    calls = []
    real = polyhedral.lp_solve

    def spy(*args):
        calls.append(args)
        return real(*args)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("amoebas") and getattr(mod, "lp_solve", None) is real:
            monkeypatch.setattr(mod, "lp_solve", spy)
    return calls


def reference_prune_to_maximal(polys):
    """Deduplicate and keep inclusion-maximal polyhedra, by containment LPs
    alone."""
    contains = reference_poly_contains
    polys = [P for P in polys if not is_empty(P)]
    uniq = []
    for P in polys:
        if not any(P == Q or (contains(P, Q) and contains(Q, P)) for Q in uniq):
            uniq.append(P)
    return [
        P
        for i, P in enumerate(uniq)
        if not any(contains(Q, P) for j, Q in enumerate(uniq) if j != i and not contains(P, Q))
    ]


def reference_canon_constraint(row, rhs, is_equality):
    """The canonical constraint through Fractions: rhs scaled by the row's
    denominator, then divided by the row's content."""
    fr = [Fraction(x) for x in row]
    den = math.lcm(*(x.denominator for x in fr))
    row = [x.numerator * (den // x.denominator) for x in fr]
    rhs = Fraction(rhs) * den
    g = math.gcd(*row)
    if g == 0:
        if rhs == 0 or (not is_equality and rhs > 0):
            return None
        return "infeasible"
    ints = [x // g for x in row]
    rhs /= g
    if is_equality and next(x for x in ints if x != 0) < 0:
        ints = [-x for x in ints]
        rhs = -rhs
    return tuple(ints), rhs


def reference_rank_of_rows(rows):
    """Rank over Q by Gauss-Jordan elimination on Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [x / pv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def pullback_matrix(con, rank):
    """A constraint's pullback as integer rows; the identity for None."""
    return identity(rank) if con.pullback is None else [list(row) for row in con.pullback]


def reference_prevariety(constraints, place, rank):
    """Prevariety with every product piece, polyhedron() of all its rows,
    tested for emptiness and reduced before pruning."""
    pulled = []
    for con in constraints:
        mat = pullback_matrix(con, rank)
        trop = trop_hypersurface(con.poly, place)
        pulled.append([preimage(cell.polyhedron, mat) for cell in trop.cells])
    pieces = []
    for combo in itertools.product(*pulled):
        P = polyhedron(
            rank,
            [c for Q in combo for c in Q.equalities],
            [c for Q in combo for c in Q.inequalities],
        )
        if not is_empty(P):
            pieces.append(reference_remove_redundancy(P))
    keep = reference_prune_to_maximal(pieces)
    return make_complex(rank, [Cell(P) for P in keep])


def reference_halfspace_meets_complex(H, C):
    """First witness point of C in the open halfspace, or None.

    Per cell: maximize t over {x in cell, x = sum(lambda_a g_a) + t v,
    t >= 0}; the cell meets H exactly when the optimum is positive or
    unbounded (optimum zero only touches the closed boundary).
    """
    # kept as it stood before cells were decided in (lambda, t); it misses
    # a cell that meets H only past t = 1, where the capped LP is infeasible
    if H.rank != C.rank:
        raise DimensionMismatch("halfspace/complex rank mismatch")
    n = H.rank
    k = len(H.boundary)
    total = n + k + 1
    obj = [0] * (n + k) + [1]
    for cell in C.cells:
        P = cell.polyhedron
        eqs = []
        for c in range(n):
            row = [0] * total
            row[c] = 1
            for a, g in enumerate(H.boundary):
                row[n + a] = -g[c]
            row[n + k] = -H.direction[c]
            eqs.append((row, Fraction(0)))
        eqs += [(list(r) + [0] * (k + 1), b) for r, b in P.equalities]
        ineqs = [(list(r) + [0] * (k + 1), b) for r, b in P.inequalities]
        tpos = [0] * total
        tpos[n + k] = -1
        ineqs.append((tpos, Fraction(0)))
        ext = polyhedron(total, eqs, ineqs)
        res = lp_solve(obj, ext)
        if isinstance(res, LPUnbounded):
            cap = polyhedron(total, (), [([0] * (n + k) + [1], Fraction(1))])
            res = lp_solve(obj, intersect(ext, cap))
        if isinstance(res, LPOptimal) and res.value > 0:
            return res.point[:n]
    return None


def _reference_eliminate(eqs, ineqs, idx):
    """One elimination step on Fraction working rows."""
    pivot = next((i for i, (row, _) in enumerate(eqs) if row[idx] != 0), None)
    if pivot is not None:
        prow, prhs = eqs[pivot]
        c = prow[idx]

        def subst(con):
            row, rhs = con
            if row[idx] == 0:
                return con
            f = row[idx] / c
            return [a - f * b for a, b in zip(row, prow)], rhs - f * prhs

        eqs = [subst(con) for i, con in enumerate(eqs) if i != pivot]
        return eqs, [subst(con) for con in ineqs]
    pos = [(row, rhs) for row, rhs in ineqs if row[idx] > 0]
    neg = [(row, rhs) for row, rhs in ineqs if row[idx] < 0]
    zero = [(row, rhs) for row, rhs in ineqs if row[idx] == 0]
    combos = []
    for prow, prhs in pos:
        for nrow, nrhs in neg:
            a, b = prow[idx], -nrow[idx]
            combos.append(([b * x + a * y for x, y in zip(prow, nrow)], b * prhs + a * nrhs))
    return eqs, zero + combos


def reference_project(P, phi):
    """Image of P under phi by Fourier-Motzkin elimination on Fraction
    working rows, made primitive and deduplicated after each step, with an
    emptiness LP before redundancy removal."""
    m, n = len(phi), P.rank
    assert rank_of_rows(phi) == m
    F = Fraction
    eqs = [
        ([F(int(i == k)) for k in range(m)] + [F(-x) for x in phi[i]], F(0)) for i in range(m)
    ]
    eqs += [([F(0)] * m + [F(x) for x in row], rhs) for row, rhs in P.equalities]
    ineqs = [([F(0)] * m + [F(x) for x in row], rhs) for row, rhs in P.inequalities]
    for j in range(n):
        eqs, ineqs = _reference_eliminate(eqs, ineqs, m + j)
        cons = []
        for is_eq, group in ((True, eqs), (False, ineqs)):
            canon = [reference_canon_constraint(r, b, is_eq) for r, b in group]
            if "infeasible" in canon:
                return empty_polyhedron(m)
            cons.append([([F(x) for x in c[0]], c[1]) for c in canon if c is not None])
        eqs = cons[0]
        ineqs = sorted({(tuple(r), b) for r, b in cons[1]}, key=lambda c: (c[0], c[1]))
        ineqs = [(list(r), b) for r, b in ineqs]
    out = polyhedron(m, [(r[:m], b) for r, b in eqs], [(r[:m], b) for r, b in ineqs])
    if is_empty(out):
        return empty_polyhedron(m)
    return reference_remove_redundancy(out)


def reference_project_complex(C, phi):
    """Cellwise image under phi, merged to inclusion-maximal cells."""
    images = [reference_project(cell.polyhedron, phi) for cell in C.cells]
    return make_complex(len(phi), [Cell(P) for P in reference_prune_to_maximal(images)])


# ---------------------------------------------------------------------------
# Fraction-tableau reference for the fraction-free simplex


def _reference_pivot(T, basis, r, c):
    piv = T[r][c]
    T[r] = [x / piv for x in T[r]]
    for i in range(len(T)):
        if i != r and T[i][c] != 0:
            f = T[i][c]
            T[i] = [x - f * y for x, y in zip(T[i], T[r])]
    basis[r] = c


def _reference_run_simplex(T, basis, ncols):
    m = len(T) - 1
    while True:
        enter = next((j for j in range(ncols) if T[-1][j] < 0), -1)
        if enter < 0:
            return "optimal"
        leave = -1
        best = None
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                ratio = T[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return ("unbounded", enter)
        _reference_pivot(T, basis, leave, enter)


def reference_lp_solve(objective, P):
    """The two-phase Bland's-rule simplex on a tableau of Fractions, with the
    column layout, row flips, artificial columns and dropped redundant rows
    of the fraction-free kernel.  The artificial columns stay in phase 2
    without entering, and the optimal multipliers are the reduced costs of
    each row's slack or artificial column, sign-flipped with the row."""
    n = P.rank
    obj = [Fraction(x) for x in objective]
    eqs = list(P.equalities)
    ineqs = list(P.inequalities)
    m = len(eqs) + len(ineqs)
    nfree = 2 * n
    ncols = nfree + len(ineqs)
    rows = []
    flips = []
    for i, (row, rhs) in enumerate(eqs + ineqs):
        r = [Fraction(x) for x in row] + [Fraction(-x) for x in row] + [Fraction(0)] * len(ineqs)
        if i >= len(eqs):
            r[nfree + i - len(eqs)] = Fraction(1)
        flips.append(rhs < 0)
        rows.append(([-x for x in r], -Fraction(rhs)) if rhs < 0 else (r, Fraction(rhs)))
    art_of_row = {}
    for i in range(m):
        if i < len(eqs) or flips[i]:
            art_of_row[i] = ncols + len(art_of_row)
    ncols_art = ncols + len(art_of_row)
    T = []
    basis = []
    for i, (r, b) in enumerate(rows):
        full = r + [Fraction(0)] * (ncols_art - ncols) + [b]
        if i in art_of_row:
            full[art_of_row[i]] = Fraction(1)
        basis.append(art_of_row.get(i, nfree + i - len(eqs)))
        T.append(full)
    cost = [Fraction(0)] * (ncols_art + 1)
    for i, a in art_of_row.items():
        cost[a] = Fraction(1)
        cost = [c - x for c, x in zip(cost, T[i])]
    T.append(cost)
    if _reference_run_simplex(T, basis, ncols_art) != "optimal":
        raise InternalInvariantError("phase 1 cannot be unbounded")
    if T[-1][-1] != 0:
        lam = []
        for i in range(m):
            if i in art_of_row:
                y = Fraction(1) - T[-1][art_of_row[i]]
            else:
                y = -T[-1][nfree + i - len(eqs)]
            lam.append(y if flips[i] else -y)
        return LPInfeasible(tuple(lam))
    drop = []
    for i in range(m):
        if basis[i] >= ncols:
            piv = next((j for j in range(ncols) if T[i][j] != 0), None)
            if piv is None:
                drop.append(i)
            else:
                _reference_pivot(T, basis, i, piv)
    for i in reversed(drop):
        del T[i]
        del basis[i]
    T = T[:-1]
    cost = [Fraction(0)] * (ncols_art + 1)
    for k in range(n):
        cost[k] = -obj[k]
        cost[n + k] = obj[k]
    for i in range(len(T)):
        f = cost[basis[i]]
        if f != 0:
            cost = [c - f * x for c, x in zip(cost, T[i])]
    T.append(cost)
    status = _reference_run_simplex(T, basis, ncols)
    x = [Fraction(0)] * ncols
    for i in range(len(T) - 1):
        x[basis[i]] = T[i][-1]
    point = tuple(x[k] - x[n + k] for k in range(n))
    if status == "optimal":
        lam = []
        for i in range(m):
            y = T[-1][art_of_row.get(i, nfree + i - len(eqs))]
            lam.append(-y if flips[i] else y)
        return LPOptimal(sum(o * v for o, v in zip(obj, point)), point, tuple(lam))
    enter = status[1]
    d = [Fraction(0)] * ncols
    d[enter] = Fraction(1)
    for i in range(len(T) - 1):
        d[basis[i]] = -T[i][enter]
    return LPUnbounded(tuple(d[k] - d[n + k] for k in range(n)), point)


# ---------------------------------------------------------------------------
# per-k references for the archimedean certificates, and Euclid over Q


def _reference_dominance(q, k):
    terms = [(q.magnitudes[k], q.exponents[k])]
    terms += [(-q.magnitudes[j], q.exponents[j]) for j in range(len(q.magnitudes)) if j != k]
    return sign_exp_sum(terms)


def reference_lopsided_outside(f, v):
    """Lopsidedness by one exact sign_exp_sum per term."""
    q = ArchQuery.at(f, v)
    return any(_reference_dominance(q, k) == 1 for k in range(len(q.magnitudes)))


def reference_triangle_exact_membership(f, v):
    """The closed triangle inequality by one exact sign_exp_sum per term:
    TRIANGLE when a term dominates, INSIDE when none does, None when the
    test does not apply or a sign stays undecided."""
    if not triangle_applicable(f):
        return None
    q = ArchQuery.at(f, v)
    for k in range(3):
        sign = _reference_dominance(q, k)
        if sign is None:
            return None
        if sign == 1:
            return TRIANGLE
    return INSIDE


def reference_point_kind(f, v):
    """_Part.outside's kind at a lone point, from the two references."""
    if f.nterms == 3:
        kind = reference_triangle_exact_membership(f, v)
        if kind is not None:
            return kind
    return LOPSIDED if reference_lopsided_outside(f, v) else None


def reference_poly_rem(a, b):
    """a mod b for coefficient lists over Q, low degree first, each with a
    nonzero last entry, by long division on Fractions; trailing zeros
    trimmed."""
    rem = [Fraction(c) for c in a]
    while len(rem) >= len(b):
        f, k = rem[-1] / b[-1], len(rem) - len(b)
        for i, c in enumerate(b):
            rem[k + i] -= f * c
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def reference_poly_gcd(a, b):
    """Monic gcd of two coefficient lists over Q, low degree first, each
    with a nonzero last entry, by the Euclidean algorithm on Fractions."""
    while b:
        a, b = b, reference_poly_rem(a, b)
    return [c / a[-1] for c in a]


def reference_dense_str(coeffs):
    """A polynomial over Q as text, from its Fraction coefficients low
    degree first: terms from the top degree down, zero terms left out, the
    first signed only when negative, |c| as str(Fraction), and a
    coefficient 1 left out before a power of z."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return "0"
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        if e == 0:
            body = str(abs(c))
        else:
            zpart = "z" if e == 1 else f"z^{e}"
            body = zpart if abs(c) == 1 else f"{abs(c)}*{zpart}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return "".join(parts)


def reference_ratfunc_str(r):
    """str of a RationalFunction: num and den over Fractions with den made
    monic, the bare numerator when den is a constant."""
    num, den = ([Fraction(c, r.den[0]) for c in reversed(p)] for p in (r.num, r.den))
    if len(den) == 1:
        return reference_dense_str(num)
    return f"({reference_dense_str(num)})/({reference_dense_str(den)})"


def outcome(fn, *args, **kwargs):
    """("ok", result) or (exception type, message): comparable across two
    implementations that must also fail alike."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# the archimedean point verdicts, the sampler, the EKL check and the
# place walk as they stood before each fact was computed once: the sampler
# with separate sweep and bisection probes and one np.roots call per slice,
# reading the slice data again for each, the check solving each
# candidate's vertex LP again, classification running lopsidedness after an
# inside triangle verdict, and one place loop per scalar function


def _bit_reverse(j, bits):
    return int(format(j, f"0{bits}b")[::-1], 2)


def reference_canonical_phase_tuples(count, length):
    """The sampler's fixed phases, by sorting rather than level by level:
    an entry of van der Corput index j is the angle 2*pi*k/2**M, k the
    M-bit reversal of j, and the tuples of indices below 2**M sort by their
    level max(2, bit length of the largest index), then lexicographically.
    M is the least level >= 2 with count tuples."""
    levels = 2
    while 2 ** (levels * length) < count:
        levels += 1
    size = 2**levels
    order = sorted(
        itertools.product(range(size), repeat=length),
        key=lambda idx: (max(2, max(idx).bit_length()), idx),
    )
    angle = [2 * math.pi * _bit_reverse(j, levels) / size for j in range(size)]
    return [tuple(angle[j] for j in idx) for idx in order[:count]]


def reference_slice_roots(f, v_float, solve, fixed_phases):
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


def reference_sampled_inside(f, v, trials=200):
    if trials < 1:
        raise ValueError("trials >= 1 required")
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
        if abs(abs(root) - target) > _TOL * target:
            return None
        if abs(evaluate_at(f, x_full)) >= _TOL * scale:
            return None
        return tuple(x_full)

    def assemble(xdict, root):
        out = [None] * f.rank
        for k, val in xdict.items():
            out[k] = val
        out[solve] = root
        return out

    if f.rank == 1:
        x, roots = reference_slice_roots(f, v_float, solve, ())
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
        assignments = reference_canonical_phase_tuples(trials, nfixed)
    degenerate = 0

    def excess(theta, fixed):
        x, roots = reference_slice_roots(f, v_float, solve, (theta,) + fixed)
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


def reference_classify_arch_hypersurface(f, point, trials):
    if f.nterms == 3:
        verdict = reference_triangle_exact_membership(f, point)
        if verdict == TRIANGLE:
            return ArchPointVerdict(point, CERTIFIED_OUTSIDE, {"kind": "triangle"})
        if verdict == INSIDE:
            cert = {"kind": "triangle"}
            w = reference_sampled_inside(f, point, trials=trials)
            if w is not None:
                cert["witness"] = _witness_json(w)
            return ArchPointVerdict(point, MEETS, cert)
    if reference_lopsided_outside(f, point):
        return ArchPointVerdict(point, CERTIFIED_OUTSIDE, {"kind": "lopsided"})
    w = reference_sampled_inside(f, point, trials=trials)
    if w is not None:
        return ArchPointVerdict(point, MEETS, {"kind": "witness", "witness": _witness_json(w)})
    return ArchPointVerdict(point, EVIDENCE_ONLY, {"kind": "undecided"})


def reference_classify_arch_system(system, point):
    for idx, con in enumerate(system.constraints):
        mat = pullback_matrix(con, system.rank)
        image = tuple(sum(a * x for a, x in zip(row, point)) for row in mat)
        g = con.poly
        if g.nterms == 3 and reference_triangle_exact_membership(g, image) == TRIANGLE:
            return ArchPointVerdict(
                point, CERTIFIED_OUTSIDE, {"kind": "triangle", "constraint": idx}
            )
        if reference_lopsided_outside(g, image):
            return ArchPointVerdict(
                point, CERTIFIED_OUTSIDE, {"kind": "lopsided", "constraint": idx}
            )
    return ArchPointVerdict(point, EVIDENCE_ONLY, {"kind": "no-constraint-certifies"})


def reference_classify_arch_point(source, point, trials=200):
    point = tuple(Fraction(x) for x in point)
    if isinstance(source, LaurentPoly):
        return reference_classify_arch_hypersurface(source, point, trials)
    if isinstance(source, PrevarietySystem):
        return reference_classify_arch_system(source, point)
    raise TypeError("source must be a hypersurface or a prevariety system")


def reference_adelic_disjoint(amoeba, H, grid=20, trials=200):
    """adelic_disjoint with one reference_classify_arch_point at each grid
    point t d, t = 1/2, 1, ..., grid/2, and no tail: the scan as it stood
    before tails."""
    places = [("generic", amoeba.generic)] + [(place_to_str(p), C) for p, C in amoeba.special]
    checks = []
    for name, C in places:
        w = halfspace_meets_complex(H, C)
        checks.append(PlaceCheck(name, w is None, w))
    arch = certified = None
    if amoeba.source is not None and amoeba.source.field == FIELD_Q:
        if grid < 1:
            raise ValueError("an empty archimedean grid certifies nothing")
        points = [tuple(Fraction(i, 2) * x for x in H.direction) for i in range(1, grid + 1)]
        arch = tuple(
            reference_classify_arch_point(amoeba.source, p, trials=trials)
            for p in points
        )
        certified = all(a.verdict == CERTIFIED_OUTSIDE for a in arch)
    disjoint = all(c.disjoint for c in checks) and not (
        arch is not None and any(a.verdict == MEETS for a in arch)
    )
    return AdelicReport(tuple(checks), arch, DISJOINT if disjoint else MEETS, certified)


NOT_RELINT = "not-relint"


def halfline_disjoint_fast(f, place, v):
    """Valuation comparison for a half line in a vertex cone's interior:
    (DISJOINT, None), (MEETS, witness point on the ray), or (NOT_RELINT,
    None) when the direction ties several exponents and the LP path must
    decide instead."""
    if f.nterms < 2:
        raise MonomialInput("need at least two terms")
    v = tuple(Fraction(x) for x in v)
    data = tropical_data(f, place)
    vals = [sum(a * x for a, x in zip(u, v)) for u in data.exponents]
    winners = [i for i, t in enumerate(vals) if t == min(vals)]
    if len(winners) != 1:
        return NOT_RELINT, None
    i = winners[0]
    ci = data.shifts[i]
    if all(ci <= cj for cj in data.shifts):
        return DISJOINT, None
    crossing = max(
        Fraction(ci - cj) / (vals[j] - vals[i]) for j, cj in enumerate(data.shifts) if cj < ci
    )
    return MEETS, tuple(crossing * x for x in v)


def reference_ekl_consistency_check(f, trials=200):
    """ekl_consistency_check with the candidates picked by convex_certificate
    and the shifts, each one's direction from its own vertex LP, and
    reference_adelic_disjoint, one reference point verdict per grid point,
    on its ray; the conclusion is the library's."""
    if f.nterms < 2:
        raise MonomialInput("need at least two terms")
    shift_table = [tropical_data(f, p).shifts for p in bad_places(f)]
    points = f.exponents()
    candidates = [
        i for i in range(f.nterms)
        if convex_certificate(points, i) is None and all(s[i] == min(s) for s in shift_table)
    ]
    amoeba = adelic_amoeba(f)
    rejected = []
    for i in candidates:
        H = Halfspace(f.rank, primitive_vector(strict_vertex_direction(points, i)))
        halfline = {"vertex": i, "direction": list(H.direction)}
        report = reference_adelic_disjoint(amoeba, H, trials=trials)
        if not all(c.disjoint for c in report.nonarchimedean):
            raise InternalInvariantError("a uniformly minimal vertex cone meets a nonarchimedean amoeba")
        if report.overall == DISJOINT:
            return EklReport(f.field, halfline, tuple(rejected), trichotomy_conclusion(f, H, report))
        meets = next(a for a in report.archimedean if a.verdict == MEETS)
        rejected.append({**halfline, "archimedean": meets})
    return EklReport(f.field, None, tuple(rejected), None)


def reference_factor_list(f):
    """{monic irreducible factor over Q: multiplicity} of the integer
    polynomial f (high degree first), every f factored by sympy's
    Zassenhaus ``dup_factor_list``: what ``scalars._factor_list`` returns
    without its irreducibility tests."""
    from sympy.polys.factortools import dup_factor_list

    out = {}
    for fac, mult in dup_factor_list(list(f), ZZ)[1]:
        q = RationalFunction([int(c) for c in fac], [int(fac[0])])
        out[q] = out.get(q, 0) + mult
    monic = lambda q: [Fraction(c, q.den[0]) for c in reversed(q.num)]
    return dict(sorted(out.items(), key=lambda item: (len(item[0].num), monic(item[0]))))


def reference_support_places(values):
    values = list(values)
    if not values:
        return frozenset()
    fields = {field_of(a) for a in values}
    if len(fields) > 1:
        raise PlaceFieldMismatch("mixed coefficient fields")
    out = set()
    if fields == {FIELD_Q}:
        for a in values:
            if a == 0:
                raise ZeroInput("support of zero is undefined")
            for n in (a.numerator, a.denominator):
                for p in sorted(factorint(abs(n))):
                    out.add(FinitePrime(p))
    else:
        for a in values:
            if a.is_zero():
                raise ZeroInput("support of zero is undefined")
            for poly in (a.num, a.den):
                for q in irreducible_factors(RationalFunction(poly)):
                    out.add(_factored(FiniteIrreducible, "q", q))
            if valuation(a, FF_INFINITY) != 0:
                out.add(FF_INFINITY)
    return frozenset(out)


def reference_product_formula_residual(a):
    if isinstance(a, Fraction):
        if a == 0:
            raise ZeroInput("product formula for zero")
        total = log_abs(a, ARCH)
        for n in (a.numerator, a.denominator):
            for p in sorted(factorint(abs(n))):
                total += valuation(a, FinitePrime(p)) * math.log(p)
        return total
    if isinstance(a, RationalFunction):
        if a.is_zero():
            raise ZeroInput("product formula for zero")
        total = valuation(a, FF_INFINITY)
        seen = set()
        for poly in (a.num, a.den):
            for q in irreducible_factors(RationalFunction(poly)):
                if q not in seen:
                    seen.add(q)
                    total += (len(q.num) - 1) * valuation(a, _factored(FiniteIrreducible, "q", q))
        return total
    raise TypeError(f"not a scalar: {a!r}")
