import itertools
import json
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amoebas import polyhedral, tropical
from amoebas.errors import (
    ArchimedeanNotSupported,
    CornerLocusTooLarge,
    DimensionMismatch,
    EmptySystem,
    FieldMismatch,
    InternalInvariantError,
    MonomialInput,
)
from amoebas.laurent import bad_places, make_laurent, parse_poly
from amoebas.polyhedral import (
    complex_to_json,
    contains_point,
    intersect,
    polyhedron,
    preimage,
)
from amoebas.scalars import (
    ARCH,
    FIELD_Q,
    FIELD_QZ,
    GENERIC,
    FinitePrime,
    RationalFunction,
    place_from_str,
)
from amoebas.tropical import (
    Constraint,
    TropicalData,
    adelic_amoeba,
    corner_locus,
    prevariety,
    trop_hypersurface,
    tropical_data,
    PrevarietySystem,
)
from amoebas.lattices import _eliminate, integer_row

from conftest import (
    LARGE_RANK_2,
    RANK_4_SYSTEM,
    cells_of,
    complex_membership,
    complexes_equal,
    contains_zero,
    convex_certificate,
    covered_by,
    dimension,
    from_generators,
    is_balanced,
    min_value_and_argmin,
    no_fraction_hash,
    pullback_matrix,
    rand_point,
    rand_poly_q,
    rand_poly_qz,
    ray,
    reference_canon_constraint,
    reference_corner_locus,
    reference_poly_contains,
    reference_prevariety,
    reference_project_complex,
    relative_interior_point,
    scale,
    translate_complex,
    tripod,
)


class TestPsi:
    def test_generic_point(self, ex_curve_qz):
        value, arg = min_value_and_argmin(tropical_data(ex_curve_qz, GENERIC), (0, 5))
        # terms sorted by exponent: 0 = constant, 1 = x2, 2 = x1
        assert value == 0 and arg == frozenset({0, 2})

    def test_on_translated_complex(self, ex_curve_qz):
        # two ways to land on a shifted tripod with value -1 and the two
        # nonconstant terms tied
        value, arg = min_value_and_argmin(tropical_data(ex_curve_qz, place_from_str("q:z")), (-2, -1))
        assert value == -1 and arg == frozenset({1, 2})
        value, arg = min_value_and_argmin(tropical_data(ex_curve_qz, place_from_str("q:z-2")), (-1, -1))
        assert value == -1 and arg == frozenset({1, 2})

    def test_generic_position_singleton(self, ex_curve_qz, rng):
        v = (Fraction(1019, 7), Fraction(-2027, 11))
        _, arg = min_value_and_argmin(tropical_data(ex_curve_qz, GENERIC), v)
        assert len(arg) == 1

    def test_archimedean_rejected(self, ex_curve_qz):
        with pytest.raises(ArchimedeanNotSupported):
            min_value_and_argmin(tropical_data(ex_curve_qz, ARCH), (0, 0))


class TestTropHypersurface:
    def test_curve_qz_generic(self, ex_curve_qz, expected_tripods):
        assert complexes_equal(trop_hypersurface(ex_curve_qz, GENERIC), expected_tripods["generic"])

    @pytest.mark.parametrize("place", ["q:z", "q:z-1", "q:z-2"])
    def test_curve_qz_special_places(self, ex_curve_qz, expected_tripods, place):
        C = trop_hypersurface(ex_curve_qz, place_from_str(place))
        assert complexes_equal(C, expected_tripods[place])
        assert contains_zero(C)

    def test_curve_q_at_two(self, ex_curve_q, expected_curve_q_at_two):
        C = trop_hypersurface(ex_curve_q, FinitePrime(2))
        assert complexes_equal(C, expected_curve_q_at_two)
        assert contains_zero(C)

    def test_curve_q_generic_axes(self, ex_curve_q, expected_axes):
        assert complexes_equal(trop_hypersurface(ex_curve_q, GENERIC), expected_axes)

    def test_monomial_rejected(self):
        with pytest.raises(MonomialInput):
            trop_hypersurface(parse_poly("7*x1", rank=1, field=FIELD_Q), GENERIC)

    def test_purity(self, corpus_trops):
        for f, _, C in corpus_trops:
            for cell in C.cells:
                assert dimension(cell.polyhedron) == f.rank - 1

    def test_oracle_membership_sample(self, ex_curve_qz, rng):
        data = tropical_data(ex_curve_qz, place_from_str("q:z"))
        C = trop_hypersurface(ex_curve_qz, place_from_str("q:z"))
        for _ in range(200):
            v = rand_point(rng, 2)
            _, arg = min_value_and_argmin(data, v)
            assert (complex_membership(C, v) is not None) == (len(arg) >= 2)


class TestGenericSkeleton:
    """trop_hypersurface at GENERIC: the codimension-one skeleton of the
    Newton polytope's inward normal fan."""

    def test_linear_tripod(self):
        f = parse_poly("x1 + x2 + 1", rank=2, field=FIELD_Q)
        assert complexes_equal(trop_hypersurface(f, GENERIC), tripod((0, 0)))

    def test_binomial_hyperplane(self):
        f = parse_poly("x1*x2^2 - 1", rank=2, field=FIELD_Q)
        expected = cells_of(2, [polyhedron(2, [((1, 2), Fraction(0))], ())])
        assert complexes_equal(trop_hypersurface(f, GENERIC), expected)
        cell = trop_hypersurface(f, GENERIC).cells[0]
        assert cell.multiplicity == 1

    def test_multiplicity_two(self):
        f = parse_poly("x1^2 - 1", rank=1, field=FIELD_Q)
        C = trop_hypersurface(f, GENERIC)
        assert len(C.cells) == 1 and C.cells[0].multiplicity == 2

    def test_complement_components_match_vertices(self, rng):
        from amoebas.laurent import strict_vertex_direction

        for _ in range(10):
            f = rand_poly_q(rng, rank=rng.randint(2, 3), terms=rng.randint(3, 5))
            data = tropical_data(f, GENERIC)
            points = f.exponents()
            for i in range(f.nterms):
                direction = strict_vertex_direction(points, i)
                if convex_certificate(points, i) is None:
                    _, arg = min_value_and_argmin(data, direction)
                    assert arg == frozenset({i})
                else:
                    assert direction is None


class TestPairEquationSkeleton:
    def test_rank4_pair_equation_is_tripod_times_plane(self):
        f = parse_poly("x1 - x2 - 1", rank=4, field=FIELD_Q)
        lines = [(0, 0, 1, 0), (0, 0, 0, 1)]
        expected = cells_of(
            4,
            [
                from_generators(4, [(0, 0, 0, 0)], rays=[(1, 0, 0, 0)], lines=lines),
                from_generators(4, [(0, 0, 0, 0)], rays=[(0, 1, 0, 0)], lines=lines),
                from_generators(4, [(0, 0, 0, 0)], rays=[(-1, -1, 0, 0)], lines=lines),
            ],
        )
        assert complexes_equal(trop_hypersurface(f, GENERIC), expected)


class TestAdelicAmoeba:
    def test_curve_qz_assembly(self, ex_curve_qz, expected_tripods):
        am = adelic_amoeba(ex_curve_qz)
        assert complexes_equal(am.generic, expected_tripods["generic"])
        places = [p for p, _ in am.special]
        assert sorted(map(str, places)) == sorted(
            str(place_from_str(s)) for s in ("q:z", "q:z-1", "q:z-2")
        )
        for p, C in am.special:
            assert contains_zero(C)

    def test_curve_q_assembly(self, ex_curve_q, expected_axes):
        am = adelic_amoeba(ex_curve_q)
        assert complexes_equal(am.generic, expected_axes)
        assert [p for p, _ in am.special] == [FinitePrime(2)]

    def test_constant_ratio_no_special(self):
        f = parse_poly("z*(x1 + x2 + 1)", rank=2, field=FIELD_QZ)
        assert adelic_amoeba(f).special == ()

    @pytest.mark.parametrize(
        "text, field",
        [("x1*x2-2*x1-2*x2+1", FIELD_Q), ("z*x1+(z-1)*x2+(z-2)", FIELD_QZ), ("x1/z + z*x2 + 1", FIELD_QZ)],
    )
    def test_keeps_the_tropical_data_of_each_place(self, text, field):
        # generic first, then the special places in order; inf included
        f = parse_poly(text, rank=2, field=field)
        am = adelic_amoeba(f)
        places = [GENERIC, *(p for p, _ in am.special)]
        assert am.data == tuple(tropical_data(f, p) for p in places)

    def test_a_system_keeps_no_tropical_data(self, curve_system_qz):
        assert adelic_amoeba(curve_system_qz).data == ()

    def test_kept_data_is_left_out_of_equality_and_hash(self, ex_curve_qz):
        am = adelic_amoeba(ex_curve_qz)
        bare = tropical.AdelicAmoeba(am.generic, am.special, am.source)
        assert bare.data == () and am.data
        assert am == bare and hash(am) == hash(bare)

    def test_contains_zero_shifted_fails(self, expected_tripods):
        shifted = translate_complex(expected_tripods["generic"], (5, 0))
        assert not contains_zero(shifted)
        assert contains_zero(expected_tripods["generic"])


class TestInvariance:
    def test_scaling_invariance(self, rng):
        for _ in range(5):
            f = rand_poly_qz(rng, rank=2, terms=3)
            c = RationalFunction.const(rand_fraction_nonzero(rng))
            from amoebas.laurent import bad_places

            g = scale(f, c)
            places = list(bad_places(f))[:2] + [GENERIC]
            for p in places:
                assert complexes_equal(trop_hypersurface(f, p), trop_hypersurface(g, p))

    def test_translation_equivariance(self, ex_curve_qz, rng):
        data = tropical_data(ex_curve_qz, place_from_str("q:z"))
        C = corner_locus(data, 2)
        for _ in range(5):
            w = tuple(rng.randint(-3, 3) for _ in range(2))
            shifted = TropicalData(
                data.exponents,
                tuple(
                    c + sum(a * b for a, b in zip(u, w))
                    for u, c in zip(data.exponents, data.shifts)
                ),
            )
            D = corner_locus(shifted, 2)
            assert complexes_equal(D, translate_complex(C, tuple(-x for x in w)))


def rand_fraction_nonzero(rng):
    from conftest import rand_fraction

    return rand_fraction(rng)


class TestProjectComplex:
    """The cellwise image that test_functoriality_containment compares with
    the prevariety of the projected system."""

    def test_identity(self, expected_tripods):
        C = expected_tripods["generic"]
        assert complexes_equal(reference_project_complex(C, [[1, 0], [0, 1]]), C)

    def test_hyperplane_to_line(self):
        C = cells_of(2, [polyhedron(2, [((1, 2), Fraction(0))], ())])
        image = reference_project_complex(C, [[1, 0]])
        assert complexes_equal(image, cells_of(1, [polyhedron(1, (), ())]))

    def test_four_rays_to_tripod(self):
        four = cells_of(
            3,
            [
                ray(3, (0, 0, 0), (1, 0, 0)),
                ray(3, (0, 0, 0), (0, 1, 0)),
                ray(3, (0, 0, 0), (0, 0, 1)),
                ray(3, (0, 0, 0), (-1, -1, -1)),
            ],
        )
        image = reference_project_complex(four, [[1, 0, 0], [0, 1, 0]])
        assert complexes_equal(image, tripod((0, 0)))


def system_places(system):
    """The bad places of a system's constraints, sorted."""
    return sorted(frozenset().union(*(bad_places(c.poly) for c in system.constraints)), key=str)


def pair_system_qz():
    """Constraints for the curve t -> (t, t-1, t-1/z) in the rank-3 torus."""
    f1 = parse_poly("x1 - x2 - 1", rank=3, field=FIELD_QZ)
    f2 = parse_poly("x1 - x3 - (1/z)", rank=3, field=FIELD_QZ)
    f3 = parse_poly("x2 - x3 - (1/z) + 1", rank=3, field=FIELD_QZ)
    return PrevarietySystem(3, (Constraint(f1), Constraint(f2), Constraint(f3)))


def pair_system_q():
    """Constraints for (t, t') -> (t, t-1, t-2, t') in the rank-4 torus."""
    f1 = parse_poly("x1 - x2 - 1", rank=4, field=FIELD_Q)
    f2 = parse_poly("x1 - x3 - 2", rank=4, field=FIELD_Q)
    f3 = parse_poly("x2 - x3 - 1", rank=4, field=FIELD_Q)
    return PrevarietySystem(4, (Constraint(f1), Constraint(f2), Constraint(f3)))


@pytest.fixture(scope="module")
def curve_system_qz():
    return pair_system_qz()


@pytest.fixture(scope="module")
def surface_system_q():
    return pair_system_q()


class TestPrevariety:
    def test_four_rays(self, curve_system_qz):
        C = prevariety(curve_system_qz, GENERIC)
        expected = cells_of(
            3,
            [
                ray(3, (0, 0, 0), (1, 0, 0)),
                ray(3, (0, 0, 0), (0, 1, 0)),
                ray(3, (0, 0, 0), (0, 0, 1)),
                ray(3, (0, 0, 0), (-1, -1, -1)),
            ],
        )
        assert complexes_equal(C, expected)

    def test_single_constraint_is_trop(self, ex_curve_qz):
        C = prevariety(PrevarietySystem(2, (Constraint(ex_curve_qz),)), GENERIC)
        assert complexes_equal(C, trop_hypersurface(ex_curve_qz, GENERIC))

    def test_pullback_map(self, ex_line_q):
        # pull x1 + x2 - 2 back along (v1, v2, v3) -> (v1, v3)
        con = Constraint(ex_line_q, ((1, 0, 0), (0, 0, 1)))
        C = prevariety(PrevarietySystem(3, (con,)), GENERIC)
        for cell in C.cells:
            assert cell.polyhedron.rank == 3

    def test_system_bad_places(self, curve_system_qz):
        # the special places of a system are the bad places of its constraints
        places = [p for p, _ in adelic_amoeba(curve_system_qz).special]
        from amoebas.scalars import FF_INFINITY

        assert places == [FF_INFINITY, place_from_str("q:z"), place_from_str("q:z-1")]

    def test_adelic_amoeba_of_a_system(self, curve_system_qz, surface_system_q):
        assert curve_system_qz.field == FIELD_QZ and surface_system_q.field == FIELD_Q
        for system in (curve_system_qz, surface_system_q):
            am = adelic_amoeba(system)
            assert am.source is system
            assert am.generic == prevariety(system, GENERIC)
            assert am.special and all(
                C == prevariety(system, p) for p, C in am.special
            )
        with pytest.raises(TypeError):
            adelic_amoeba(curve_system_qz.constraints)

    def test_rank4_rays_away_from_the_bad_prime(self, surface_system_q):
        # all four coordinate rays appear at the cofinitely many good places
        for p in (GENERIC, FinitePrime(5)):
            C = prevariety(surface_system_q, p)
            for e in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]:
                R = ray(4, (0, 0, 0, 0), e)
                assert covered_by(R, [c.polyhedron for c in C.cells])

    def test_rank4_rays_at_the_bad_prime(self, surface_system_q):
        # at 2 the first and third rays drop out: a coordinate and its
        # shift by two cannot both have positive valuation there
        C = prevariety(surface_system_q, FinitePrime(2))
        polys = [c.polyhedron for c in C.cells]
        assert covered_by(ray(4, (0, 0, 0, 0), (0, 1, 0, 0)), polys)
        assert covered_by(ray(4, (0, 0, 0, 0), (0, 0, 0, 1)), polys)
        assert not covered_by(ray(4, (0, 0, 0, 0), (1, 0, 0, 0)), polys)
        assert not covered_by(ray(4, (0, 0, 0, 0), (0, 0, 1, 0)), polys)

    @pytest.mark.parametrize(
        "text, rank, pullback, error",
        [
            ("x1 + x2 + 1", 2, None, DimensionMismatch),  # no map needs the ambient rank
            ("x1 + x2 + 1", 2, ((1, 0, 0),), DimensionMismatch),  # one row per variable
            ("x1 + x2 + 1", 2, ((1, 0), (0, 1)), DimensionMismatch),  # rows of ambient length
            ("7*x1", 3, None, MonomialInput),
            ("7*x1", 1, ((1, 0, 0),), MonomialInput),
        ],
        ids=["identity-rank", "map-rows", "map-columns", "monomial", "mapped-monomial"],
    )
    def test_system_checked_when_built(self, text, rank, pullback, error):
        good = Constraint(parse_poly("x1 - x3 - 1", rank=3, field=FIELD_Q))
        bad = Constraint(parse_poly(text, rank=rank, field=FIELD_Q), pullback)
        with pytest.raises(error):
            PrevarietySystem(3, (good, bad))

    def test_constraints_over_two_fields_refused(self):
        q = Constraint(parse_poly("x1+x2+1"))
        qz = Constraint(parse_poly("z*x1+x2", rank=2))
        with pytest.raises(FieldMismatch):
            PrevarietySystem(2, (q, qz))

    def test_empty_system_refused(self):
        with pytest.raises(EmptySystem):
            PrevarietySystem(2, ())

    def test_functoriality_containment(self, curve_system_qz):
        C = prevariety(curve_system_qz, GENERIC)
        phi = [[1, 0, 0], [0, 1, 0]]
        image = reference_project_complex(C, phi)
        sub = prevariety(
            PrevarietySystem(2, (Constraint(parse_poly("x1 - x2 - 1", rank=2, field=FIELD_QZ)),)),
            GENERIC,
        )
        assert all(
            covered_by(cell.polyhedron, [c.polyhedron for c in sub.cells])
            for cell in image.cells
        )


class TestBalancing:
    def test_corpus_balanced(self, corpus_trops):
        for _, _, C in corpus_trops:
            assert is_balanced(C)

    def test_unbalanced_detected(self):
        # drop one ray from a balanced tripod
        broken = cells_of(2, [ray(2, (0, 0), (1, 0)), ray(2, (0, 0), (0, 1))])
        broken = type(broken)(
            broken.rank,
            tuple(
                type(c)(c.polyhedron, c.tie_set, 1) for c in broken.cells
            ),
        )
        assert not is_balanced(broken)


SQUARE = ((0, 0), (1, 0), (0, 1), (1, 1))
HEXAGON = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
# lattice points inside edges and inside the 2-face: a 3 x 3 grid less a
# corner, and the hexagon with its centre; and a cube, a 3-cell that is not
# a simplex
GRID = tuple((a, b, 0) for a in (-1, 0, 1) for b in (-1, 0, 1) if (a, b) != (1, 1))
SHAPES = [
    tuple((a, b, 0) for a, b in SQUARE),
    tuple((a, b, 0) for a, b in HEXAGON),
    GRID,
    tuple((a, b, 0) for a, b in HEXAGON + ((0, 0),)),
    tuple(itertools.product((0, 1), repeat=3)),
]


@st.composite
def tropical_data_and_rank(draw):
    """Rank 1-4, 2-8 distinct exponents in [-2, 2] with shifts in [-1, 1]
    so that ties are common.  Often a planted collinear triple p - d, p,
    p + d; a planted shape p + a d + b e2 + c e3 whose shifts are zero or
    affine on it, so that it lies in one cell of the subdivision: a square
    or hexagon (more than one row per facet of its edge cells), a grid or
    a centred hexagon (lattice points inside edges and 2-faces), or a cube;
    or an all-collinear support p + k d.  A quarter of the draws have all
    shifts zero, as at the generic place, so that the whole support is one
    cell, rarely a simplex."""
    rank = draw(st.integers(1, 4))
    vec = lambda: draw(st.tuples(*[st.integers(-1, 1)] * rank))
    shape = draw(st.sampled_from(["free", "triple", "planted", "line"]))
    p, d = vec(), draw(st.tuples(*[st.integers(-1, 1)] * rank).filter(any))
    planted, shifts = [], []
    if shape == "triple":
        planted = [tuple(a - b for a, b in zip(p, d)), p, tuple(a + b for a, b in zip(p, d))]
    elif shape == "planted":
        e2, e3 = vec(), vec()
        planted = [
            tuple(x + a * y + b * z + c * w for x, y, z, w in zip(p, d, e2, e3))
            for a, b, c in draw(st.sampled_from(SHAPES))
        ]
        lam, mu = vec(), draw(st.integers(-1, 1))
        planted = list(dict.fromkeys(planted))[:8]
        shifts = [sum(l * x for l, x in zip(lam, u)) + mu for u in planted]
    elif shape == "line":
        planted = [tuple(k * x for x in d) for k in range(draw(st.integers(2, 5)))]
    exps = list(planted)
    if shape != "line":
        exps += draw(
            st.lists(
                st.tuples(*[st.integers(-2, 2)] * rank),
                min_size=max(0, 2 - len(exps)),
                max_size=max(0, 8 - len(exps)),
            )
        )
    exps = list(dict.fromkeys(exps))
    assume(len(exps) >= 2)
    shifts += draw(
        st.lists(st.integers(-1, 1), min_size=len(exps) - len(shifts), max_size=len(exps) - len(shifts))
    )
    if draw(st.sampled_from([False, False, False, True])):
        shifts = [0] * len(exps)
    return TropicalData(tuple(exps), tuple(shifts)), rank


PINNED_SUPPORTS = [
    ("1 + x1 + x2 + x1*x2", 2),
    ("x1 + x2 + x1^-1*x2 + x1^-1 + x2^-1 + x1*x2^-1", 2),
    ("x1 + x2 + x1^-1*x2 + x1^-1 + x2^-1 + x1*x2^-1 + 1", 2),
    ("1 + x1 + x1^2 + x2", 2),
    ("2 + 3*x1*x3 + x2*x3^-1 + 6*x1*x2 + 4*x1^2*x2*x3", 3),
    ("1 + 2*x1 + 4*x1^3 + 3*x1^-2", 1),
    # the free sum of two triangles, and the midpoint of one of its edges
    ("x1^2 + x1^-1*x2^2 + x1^-1*x2^-2 + x3^2 + x3^-1*x4^2 + x3^-1*x4^-2 + x1*x3", 4),
]


class TestCornerLocusAgainstPerPairReference:
    """The corner locus read off the regular subdivision equals the
    per-pair reference that decides emptiness, dimension and the interior
    point by separate LPs and removes redundant rows by one LP each."""

    @settings(max_examples=150)
    @given(tropical_data_and_rank())
    def test_random_data(self, data_rank):
        data, rank = data_rank
        assert corner_locus(data, rank) == reference_corner_locus(data, rank)

    def test_duplicate_tie_of_collinear_terms(self):
        # three collinear exponents (0,0), (1,0), (2,0) tie on one cell of
        # multiplicity 2, an edge of the subdivision with a lattice point
        # inside
        data = tropical_data(parse_poly("1 + x1 + x1^2 + x2"), GENERIC)
        C = corner_locus(data, 2)
        assert C == reference_corner_locus(data, 2)
        assert {(tuple(sorted(c.tie_set)), c.multiplicity) for c in C.cells} == {
            ((0, 1), 1),
            ((0, 2, 3), 2),
            ((1, 3), 1),
        }

    def test_square_two_cell(self):
        # the unit square is one 2-cell: for each edge, both vertices off it
        # give a row for the edge cell's one facet (the origin), and one row
        # is kept
        data = tropical_data(parse_poly("1 + x1 + x2 + x1*x2"), GENERIC)
        C = corner_locus(data, 2)
        assert C == reference_corner_locus(data, 2)
        assert len(C.cells) == 4
        assert all(len(c.polyhedron.inequalities) == 1 for c in C.cells)

    @pytest.mark.parametrize("place", [GENERIC, FinitePrime(2), FinitePrime(3)], ids=str)
    @pytest.mark.parametrize(
        "f, rank",
        [
            # a rank-3 polynomial whose exponents span a plane through 0
            ("2 + 3*x1*x3 + x2*x3^-1 + 6*x1*x2 + 4*x1^2*x2*x3", 3),
            ("1 + 2*x1 + 4*x1^3 + 3*x1^-2", 1),
        ],
        ids=["rank-3-planar", "rank-1"],
    )
    def test_degenerate_supports(self, f, rank, place):
        data = tropical_data(parse_poly(f, rank), place)
        assert corner_locus(data, rank) == reference_corner_locus(data, rank)

    def test_facets_meeting_in_an_edge(self):
        # at the generic place the whole support is one 4-cell, the free sum
        # of two triangles; two of its facets meet in just the edge from
        # x1^2 to x3^2, whose midpoint x1*x3 is a term: three points that
        # are an edge, not a 2-face
        data = tropical_data(parse_poly(PINNED_SUPPORTS[-1][0], 4), GENERIC)
        C = corner_locus(data, 4)
        assert C == reference_corner_locus(data, 4)
        assert [(sorted(c.tie_set), c.multiplicity) for c in C.cells if len(c.tie_set) > 2] == [
            ([4, 5, 6], 2)
        ]


class TestCornerLocusRunsNoLP:
    """corner_locus is exact integer and rational arithmetic: with lp_solve
    made to raise, it still builds every complex."""

    @staticmethod
    def corner_locus_without_lp(data, rank):
        def no_lp(*args, **kwargs):
            raise AssertionError("corner_locus ran an LP")

        with pytest.MonkeyPatch.context() as mp:
            for module in (tropical, polyhedral):
                mp.setattr(module, "lp_solve", no_lp, raising=False)
            return corner_locus(data, rank)

    @settings(max_examples=60)
    @given(tropical_data_and_rank())
    def test_random_data(self, data_rank):
        data, rank = data_rank
        assert self.corner_locus_without_lp(data, rank) == corner_locus(data, rank)

    @pytest.mark.parametrize("place", [GENERIC, FinitePrime(2), FinitePrime(3)], ids=str)
    @pytest.mark.parametrize("f, rank", PINNED_SUPPORTS)
    def test_pinned_supports(self, f, rank, place):
        data = tropical_data(parse_poly(f, rank), place)
        assert self.corner_locus_without_lp(data, rank) == corner_locus(data, rank)


class TestCornerLocusChecks:
    """Each cell's facet rows are checked in integers, tight at the vertex
    of their 2-cell with that vertex inside the cell: a facet row loosened
    by 1, or a vertex moved off its rows, raises."""

    LOCI = [("x1 + x2 + 1", 2), ("1 + x1 + x2 + x1*x2", 2), ("1 + x1 + x2 + x3", 3)]

    @settings(max_examples=60)
    @given(tropical_data_and_rank(), st.booleans())
    def test_rows_are_canonical_keys(self, data_rank, is_equality):
        # the int triple of each pair is the key of the canonical row, so
        # plain tuple order is the canonical order
        data, rank = data_rank
        exps, shifts = data.exponents, data.shifts
        support = tropical._Support(exps, rank)
        for a, k in itertools.permutations(range(len(exps)), 2):
            diff = [x - y for x, y in zip(exps[a], exps[k])]
            row, rhs = reference_canon_constraint(diff, shifts[k] - shifts[a], is_equality)
            assert support.constraint(a, k, shifts, is_equality) == (row, rhs.numerator, rhs.denominator)

    @pytest.mark.parametrize("f, rank", LOCI)
    def test_loosened_facet_row_raises(self, f, rank, monkeypatch):
        real = tropical._Support.constraint
        loosened = []

        def loosen(self, a, k, shifts, is_equality):
            row, num, den = real(self, a, k, shifts, is_equality)
            if is_equality or loosened:
                return row, num, den
            loosened.append((a, k))
            return row, num + den, den

        monkeypatch.setattr(tropical._Support, "constraint", loosen)
        with pytest.raises(InternalInvariantError, match="not tight"):
            trop_hypersurface(parse_poly(f, rank), GENERIC)
        assert len(loosened) == 1

    @pytest.mark.parametrize("f, rank", LOCI)
    def test_moved_vertex_raises(self, f, rank, monkeypatch):
        real = tropical._Support.maximal_cells

        def move(self, shifts):
            cells = real(self, shifts)
            sigma = next(iter(cells))
            nums, den = cells[sigma]
            cells[sigma] = ([nums[0] + den, *nums[1:]], den)
            return cells

        monkeypatch.setattr(tropical._Support, "maximal_cells", move)
        with pytest.raises(InternalInvariantError, match="not tight"):
            trop_hypersurface(parse_poly(f, rank), GENERIC)


def primes_poly(s):
    """s terms of rank 2 on an 8-column grid, the k-th with the k-th prime
    as its coefficient: s special places."""
    primes = [p for p in range(2, 1000) if all(p % q for q in range(2, p))]
    return " + ".join(f"{p}*x1^{i % 8}*x2^{i // 8}" for i, p in enumerate(primes[:s]))


class TestCornerLocusBound:
    def test_many_terms_refused_before_the_scan(self):
        data = tropical_data(parse_poly(LARGE_RANK_2), FinitePrime(2))
        start = time.perf_counter()
        with pytest.raises(CornerLocusTooLarge):
            corner_locus(data, 2)
        assert time.perf_counter() - start < 5

    def test_refused_before_any_subset_elimination(self, monkeypatch):
        # on a cold table only the pivot elimination may run before the
        # scan is charged, not one of the C(120, 3) subset eliminations
        data = tropical_data(parse_poly(LARGE_RANK_2), FinitePrime(2))
        calls, eliminate = [], tropical._eliminate
        monkeypatch.setattr(
            tropical, "_eliminate", lambda *a: calls.append(1) or eliminate(*a)
        )
        tropical._support.cache_clear()
        with pytest.raises(CornerLocusTooLarge):
            corner_locus(data, 2)
        assert len(calls) <= 1

    def test_high_rank_simplex_refused(self):
        # one maximal cell, but 300 cells of 23 facets each
        f = " + ".join(["1"] + [f"x{i}" for i in range(1, 25)])
        with pytest.raises(CornerLocusTooLarge):
            trop_hypersurface(parse_poly(f), GENERIC)

    def test_moderate_input_within_the_bound(self):
        f = " + ".join(["1"] + [f"x{i}" for i in range(1, 9)])
        assert len(trop_hypersurface(parse_poly(f), GENERIC).cells) == 36

    def test_amoeba_at_twenty_places_within_the_bound(self):
        am = adelic_amoeba(parse_poly(primes_poly(20)))
        assert len(am.special) == 20

    def test_amoeba_at_fifty_places_refused_before_its_loci(self):
        # each of the 51 loci is within MAX_CORNER_OPS, their scans together
        # are not
        f = parse_poly(primes_poly(50))
        start = time.perf_counter()
        with pytest.raises(CornerLocusTooLarge, match="51 corner loci"):
            adelic_amoeba(f)
        assert time.perf_counter() - start < 5
        assert len(trop_hypersurface(f, GENERIC).cells) > 0

    def test_system_loci_charged_together(self):
        # f_30 alone is within the bound at its 31 places, twice it is not
        f = parse_poly(primes_poly(30))
        system = PrevarietySystem(2, (Constraint(f), Constraint(f)))
        with pytest.raises(CornerLocusTooLarge, match="62 corner loci"):
            adelic_amoeba(system)


@st.composite
def support_and_places(draw):
    """Rank 1-4, 2-8 distinct exponents in [-2, 2], 2-4 shift vectors in
    [-2, 2] (the places), and a corner-locus bound: the real one, or one
    small enough that some loci are refused at some step."""
    rank = draw(st.integers(1, 4))
    exps = draw(
        st.lists(st.tuples(*[st.integers(-2, 2)] * rank), min_size=2, max_size=8, unique=True)
    )
    shifts = st.tuples(*[st.integers(-2, 2)] * len(exps))
    places = draw(st.lists(shifts, min_size=2, max_size=4))
    bound = draw(st.sampled_from([tropical.MAX_CORNER_OPS, 300, 1000, 3000]))
    return tuple(exps), rank, places, bound


class TestSupportTable:
    """corner_locus keeps each support's place-independent data in a table
    shared by the loci at all places; no locus and no refusal may depend
    on what the table holds."""

    @staticmethod
    def locus_or_refusal(exps, rank, shifts):
        try:
            return corner_locus(TropicalData(exps, shifts), rank)
        except CornerLocusTooLarge as exc:
            return str(exc)

    @settings(max_examples=60)
    @given(support_and_places())
    def test_warm_table_gives_cold_results(self, drawn):
        exps, rank, places, bound = drawn
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tropical, "MAX_CORNER_OPS", bound)
            cold = []
            for shifts in places:
                tropical._support.cache_clear()
                cold.append(self.locus_or_refusal(exps, rank, shifts))
            # warm the table fully: the generic locus builds every subset
            # when it is not refused
            tropical._support.cache_clear()
            self.locus_or_refusal(exps, rank, (0,) * len(exps))
            warm = [self.locus_or_refusal(exps, rank, shifts) for shifts in places]
        assert warm == cold
        for shifts, C in zip(places, cold):
            if not isinstance(C, str):
                assert C == reference_corner_locus(TropicalData(exps, shifts), rank)


class TestEliminate:
    @settings(max_examples=200)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=4)
        )
    )
    def test_matches_fraction_gauss_jordan(self, rows):
        n = len(rows[0])
        M = [list(r) for r in rows]
        pivots, det = _eliminate(M, n)
        # reduced row echelon form over Q by Fractions
        R, ref = [[Fraction(x) for x in r] for r in rows], []
        for c in range(n):
            k = len(ref)
            r = next((i for i in range(k, len(R)) if R[i][c]), None)
            if r is None:
                continue
            R[k], R[r] = R[r], R[k]
            R[k] = [x / R[k][c] for x in R[k]]
            R = [R[i] if i == k else [x - R[i][c] * y for x, y in zip(R[i], R[k])] for i in range(len(R))]
            ref.append(c)
        assert pivots == ref and det != 0
        assert [[Fraction(x, det) for x in row] for row in M[: len(ref)]] == R[: len(ref)]
        assert not any(any(row) for row in M[len(ref):])


@st.composite
def trinomial_systems(draw):
    """Two constraints in rank 2 or 3, each of 2-3 terms with exponents in
    [-1, 1] and coefficients with 2-adic valuations -1 to 2, pulled back
    along the identity or a random integer map, at the generic place or 2."""
    rank = draw(st.integers(2, 3))
    constraints = []
    for _ in range(2):
        mapped = draw(st.booleans())
        own = draw(st.integers(1, rank)) if mapped else rank
        exps = draw(
            st.lists(st.tuples(*[st.integers(-1, 1)] * own), min_size=2, max_size=3, unique=True)
        )
        coeffs = st.sampled_from([1, -1, 2, -2, 3, 4, 6, Fraction(1, 2), Fraction(-3, 2)])
        poly = make_laurent(own, FIELD_Q, [(e, draw(coeffs)) for e in exps])
        pullback = None
        if mapped:
            row = st.tuples(*[st.integers(-1, 1)] * rank)
            pullback = tuple(draw(st.lists(row, min_size=own, max_size=own)))
        constraints.append(Constraint(poly, pullback))
    place = draw(st.sampled_from([GENERIC, FinitePrime(2)]))
    return constraints, place, rank


class TestArgminMask:
    """A product piece's argmin mask holds the bits of its argmin tuple, term
    i of constraint j at bit offset_j + i; _below on masks is strict
    inclusion of the tuples entry by entry; and the pieces are merged with
    no Fraction hashed."""

    @staticmethod
    def check(constraints, place, rank):
        datas = [tropical_data(con.poly, place) for con in constraints]
        mats = [pullback_matrix(con, rank) for con in constraints]
        # the terms pulled back to the ambient torus: <u, M x> = <M^T u, x>
        pull = lambda u, M: tuple(sum(a * row[c] for a, row in zip(u, M)) for c in range(rank))
        terms = [
            TropicalData(tuple(pull(u, M) for u in d.exponents), d.shifts) for d, M in zip(datas, mats)
        ]
        offsets = list(itertools.accumulate((len(d.exponents) for d in datas), initial=0))
        pulled = [
            [preimage(cell.polyhedron, M) for cell in trop_hypersurface(con.poly, place).cells]
            for con, M in zip(constraints, mats)
        ]
        named = []
        for combo in itertools.product(*pulled):
            with no_fraction_hash():
                P = intersect(*combo)
            assert P == polyhedron(
                rank, [c for Q in combo for c in Q.equalities], [c for Q in combo for c in Q.inequalities]
            )
            x = relative_interior_point(P)
            if x is None:
                continue
            argmins = tuple(
                min_value_and_argmin(d, [sum(a * b for a, b in zip(row, x)) for row in M])[1]
                for d, M in zip(datas, mats)
            )
            mask = tropical._argmin_mask(terms, *integer_row(x))
            assert mask == sum(1 << (off + i) for off, T in zip(offsets, argmins) for i in T)
            named.append((mask, argmins))
        for (S, s), (T, t) in itertools.product(named, repeat=2):
            assert tropical._below(S, T) == (s != t and all(a <= b for a, b in zip(s, t)))
        return named

    @settings(max_examples=60)
    @given(trinomial_systems())
    def test_random_systems(self, system):
        self.check(*system)

    def test_acceptance_systems(self, curve_system_qz, surface_system_q):
        nested = 0
        for system in (curve_system_qz, surface_system_q):
            for place in [GENERIC, *system_places(system)]:
                named = self.check(system.constraints, place, system.rank)
                pairs = itertools.product(named, repeat=2)
                nested += sum(tropical._below(S, T) for (S, _), (T, _) in pairs)
        # the inclusion test is exercised: some pieces lie in others
        assert nested > 0


class TestPrevarietyAgainstReference:
    """Pruning the raw product pieces by their argmin tuples, with no
    containment test, and reducing only the kept cells gives the bytes of
    reducing every nonempty piece and pruning by containment."""

    @settings(max_examples=60)
    @given(trinomial_systems())
    def test_random_systems(self, system):
        constraints, place, rank = system
        dump = lambda C: json.dumps(complex_to_json(C), sort_keys=True)
        assert dump(prevariety(PrevarietySystem(rank, tuple(constraints)), place)) == dump(
            reference_prevariety(constraints, place, rank)
        )

    def test_acceptance_systems(self, curve_system_qz, surface_system_q):
        for system in (curve_system_qz, surface_system_q):
            for place in [GENERIC, *system_places(system)]:
                C = prevariety(system, place)
                assert C == reference_prevariety(system.constraints, place, system.rank)

    @pytest.mark.parametrize(
        "place, dims",
        [(GENERIC, [1, 2, 2, 2, 2, 2, 2, 2, 3]), (FinitePrime(3), [1, 2, 2, 2, 2, 2])],
        ids=["generic", "p:3"],
    )
    def test_rank_4_system(self, place, dims):
        # test_cli pins the bytes; here no kept cell may lie in another
        constraints = [Constraint(parse_poly(c["f"], 4)) for c in RANK_4_SYSTEM["constraints"]]
        system = PrevarietySystem(4, tuple(constraints))
        polys = [c.polyhedron for c in prevariety(system, place).cells]
        assert sorted(map(dimension, polys)) == dims
        assert not any(reference_poly_contains(P, Q) for P, Q in itertools.permutations(polys, 2))

    @pytest.mark.parametrize("place", [GENERIC, FinitePrime(3)], ids=["generic", "p:3"])
    def test_one_point_lookup_per_product_piece(self, place, monkeypatch):
        # each raw piece is asked once, on the integer key of its merged
        # rows: its relative-interior point, or None when it is empty
        constraints = [Constraint(parse_poly(c["f"], 4)) for c in RANK_4_SYSTEM["constraints"]]
        lookups = []
        real = tropical.keyed_interior_point
        monkeypatch.setattr(tropical, "keyed_interior_point", lambda key: lookups.append(key) or real(key))
        prevariety(PrevarietySystem(4, tuple(constraints)), place)
        cells = [trop_hypersurface(con.poly, place).cells for con in constraints]
        want = [intersect(*(c.polyhedron for c in combo)).sort_key() for combo in itertools.product(*cells)]
        assert len(want) > 1 and lookups == want
        ints = lambda x: all(type(v) is int for v in x)
        assert all(all(ints(row) and ints(rest) for row, *rest in eqs + ineqs) for _, eqs, ineqs in lookups)

    @pytest.mark.parametrize("place", [GENERIC, FinitePrime(3)], ids=["generic", "p:3"])
    def test_each_frame_solved_once(self, place, monkeypatch):
        # keyed_interior_point hands the frame it solved to keyed_reduction,
        # so a cold run solves one frame per cache miss and a warm one none
        constraints = [Constraint(parse_poly(c["f"], 4)) for c in RANK_4_SYSTEM["constraints"]]
        system = PrevarietySystem(4, tuple(constraints))
        calls = []
        real = polyhedral._frame
        monkeypatch.setattr(polyhedral, "_frame", lambda *a: calls.append(a) or real(*a))
        polyhedral.keyed_interior_point.cache_clear()
        cold = prevariety(system, place)
        assert len(calls) == polyhedral.keyed_interior_point.cache_info().misses > 0
        calls.clear()
        assert prevariety(system, place) == cold
        assert calls == []

    @pytest.mark.parametrize("place", [GENERIC, FinitePrime(3)], ids=["generic", "p:3"])
    def test_no_fraction_hashed_on_a_warm_run(self, place):
        # the first call fills the point cache; the second takes every
        # piece's point from it on an integer key, and reduces and sorts
        # the kept pieces, with no Fraction hashed anywhere
        constraints = [Constraint(parse_poly(c["f"], 4)) for c in RANK_4_SYSTEM["constraints"]]
        system = PrevarietySystem(4, tuple(constraints))
        cold = prevariety(system, place)
        with no_fraction_hash():
            assert prevariety(system, place) == cold
