import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from amoebas import archimedean, classify, laurent, polyhedral, tropical
from amoebas.classify import (
    CERTIFIED_OUTSIDE,
    DISJOINT,
    MEETS,
    AdelicReport,
    Halfspace,
    adelic_disjoint,
    classify_arch_point,
    component_term,
    defined_over_k_test,
    ekl_consistency_check,
    halfspace_meets_complex,
    theorem1_report,
    torsion_coset_test,
    trichotomy_conclusion,
    uniform_minimal_vertices,
)
from amoebas.errors import (
    DependentDirection,
    DimensionMismatch,
    InternalInvariantError,
    MissingImagePresentation,
)
from amoebas.lattices import primitive_vector, rank_of_rows
from amoebas.laurent import (
    bad_places,
    make_laurent,
    parse_poly,
    strict_vertex_direction,
)
from amoebas.polyhedral import (
    Cell,
    PolyhedralComplex,
    contains_point,
    polyhedron,
)
from amoebas.scalars import (
    FIELD_Q,
    FIELD_QZ,
    GENERIC,
    FinitePrime,
    RationalFunction,
    place_from_str,
)
from amoebas.tropical import (
    Constraint,
    PrevarietySystem,
    adelic_amoeba,
    trop_hypersurface,
    tropical_data,
)

from conftest import (
    NOT_RELINT,
    cells_of,
    halfline_disjoint_fast,
    min_value_and_argmin,
    outcome,
    rand_fraction,
    rand_poly_q,
    rand_poly_qz,
    rand_poly_qz_constant,
    ray,
    reference_adelic_disjoint,
    reference_classify_arch_point,
    reference_ekl_consistency_check,
    reference_halfspace_meets_complex,
    scale,
    segment,
)
from test_archimedean import SMALL_POINT_COORDS, small_q_cases, small_q_polys
from test_tropical import pair_system_q, pair_system_qz


class TestHalfspace:
    def test_dependent_direction_rejected(self):
        with pytest.raises(DependentDirection):
            Halfspace(2, (1, 1), ((1, 1),))
        with pytest.raises(DependentDirection):
            Halfspace(2, (0, 0))

    def test_boundary_reduction(self):
        H = Halfspace(3, (0, 0, 1), ((1, 0, 0), (2, 0, 0), (0, 1, 0)))
        assert H.boundary == ((1, 0, 0), (0, 1, 0))

    @pytest.mark.parametrize("gen", [(1, 0, 0), (1,), (0, 1, 0)])
    def test_boundary_generator_length_checked(self, gen):
        with pytest.raises(DimensionMismatch):
            Halfspace(2, (1, 1), (gen,))

    def test_rational_vectors_scaled_to_integers(self):
        # the same open ray and boundary span, not a truncated direction
        H = Halfspace(3, (Fraction(1, 2), 1, 0), ((0, Fraction(2, 3), Fraction(-1, 6)),))
        assert H.direction == (1, 2, 0) and H.boundary == ((0, 4, -1),)
        assert all(type(x) is int for x in H.direction + H.boundary[0])

    def test_integer_vectors_kept(self):
        H = Halfspace(3, (2, 4, 0), ((0, 3, 0), (0, 6, 0)))
        assert H.direction == (2, 4, 0) and H.boundary == ((0, 3, 0),)

    @pytest.mark.parametrize(
        "direction, boundary",
        [((0.5, 1), ()), ((1, 1), ((1.0, 0),)), (("1", 1), ()), ((1, complex(1)), ())],
    )
    def test_non_rational_entries_rejected(self, direction, boundary):
        with pytest.raises(ValueError):
            Halfspace(2, direction, boundary)


class TestFastPath:
    def test_disjoint_at_z(self, ex_curve_qz):
        verdict, _ = halfline_disjoint_fast(
            ex_curve_qz, place_from_str("q:z"), (2, -1)
        )
        assert verdict == DISJOINT

    def test_meets_at_z_minus_1(self, ex_curve_qz):
        verdict, witness = halfline_disjoint_fast(
            ex_curve_qz, place_from_str("q:z-1"), (2, -1)
        )
        assert verdict == MEETS
        _, arg = min_value_and_argmin(tropical_data(ex_curve_qz, place_from_str("q:z-1")), witness)
        assert len(arg) >= 2

    def test_tie_direction_not_relint(self):
        f = parse_poly("x1 + x2 + 1", rank=2, field=FIELD_Q)
        verdict, _ = halfline_disjoint_fast(f, GENERIC, (0, 1))
        assert verdict == NOT_RELINT

    def test_agrees_with_lp_path_300(self, rng):
        cache = {}
        checked = 0
        while checked < 300:
            f = rng.choice(
                [
                    rand_poly_q(rng, rank=2, terms=rng.randint(2, 4)),
                    rand_poly_qz(rng, rank=2, terms=rng.randint(2, 4)),
                ]
                if rng.random() < 0.4 or not cache
                else [fp[0] for fp in cache.values()]
            )
            places = sorted(bad_places(f), key=str) + [GENERIC]
            p = rng.choice(places)
            v = tuple(rng.randint(-4, 4) for _ in range(2))
            if not any(v):
                continue
            verdict, witness = halfline_disjoint_fast(f, p, v)
            if verdict == NOT_RELINT:
                continue
            key = (f, str(p))
            if key not in cache:
                cache[key] = (f, trop_hypersurface(f, p))
            C = cache[key][1]
            hit = halfspace_meets_complex(Halfspace(2, v), C)
            assert (hit is None) == (verdict == DISJOINT)
            checked += 1


class TestHalfspaceMeetsComplex:
    def test_one_lp_for_a_line_met_only_past_t_one(self, monkeypatch):
        # at p:2 the meeting cell's line has t >= 2 throughout, so the LP
        # capped at t <= 1 would be infeasible: only the uncapped LP runs
        f = parse_poly("x1*x2 + 2*x1 + 4*x2 + 1", field=FIELD_Q)
        C = trop_hypersurface(f, FinitePrime(2))
        calls = []
        solve = polyhedral.lp_solve
        counted = lambda *args: calls.append(args) or solve(*args)
        monkeypatch.setattr(polyhedral, "lp_solve", counted)
        monkeypatch.setattr(classify, "lp_solve", counted)
        assert halfspace_meets_complex(Halfspace(2, (1, 0), ((0, 1),)), C) == (2, -2)
        assert len(calls) == 1

    def test_four_ray_disjoint(self):
        system = pair_system_qz()
        from amoebas.tropical import prevariety

        C = prevariety(system, GENERIC)
        H = Halfspace(3, (1, 1, 0), ((0, 0, 1),))
        assert halfspace_meets_complex(H, C) is None

    def test_open_ray_meets_skeleton(self):
        f = parse_poly("x1 + x2 + 1", rank=2, field=FIELD_Q)
        H = Halfspace(2, (1, 0))
        w = halfspace_meets_complex(H, trop_hypersurface(f, GENERIC))
        assert w is not None and w[0] > 0 and w[1] == 0

    def test_touching_at_zero_is_disjoint(self, ex_curve_q):
        C = trop_hypersurface(ex_curve_q, FinitePrime(2))
        H = Halfspace(2, (1, 1))
        assert halfspace_meets_complex(H, C) is None

    def test_meets_only_past_t_one(self):
        # the ray x1 = x2 >= 3 meets the diagonal only at t >= 3, where the
        # t <= 1 capped LP cannot reach
        far = Cell(polyhedron(2, [((1, -1), 0)], [((-1, 0), -3)]))
        H = Halfspace(2, (1, 1))
        assert halfspace_meets_complex(H, PolyhedralComplex(2, (far,))) == (3, 3)
        assert reference_halfspace_meets_complex(H, PolyhedralComplex(2, (far,))) is None
        # a later cell with a capped witness still gives the witness
        near = Cell(polyhedron(2, [((1, -1), 0)], [((1, 0), 2), ((-1, 0), -1)]))
        assert halfspace_meets_complex(H, PolyhedralComplex(2, (far, near))) == (2, 2)

    @pytest.mark.parametrize(
        "place, H",
        [(FinitePrime(2), Halfspace(2, (1, 1))), (GENERIC, Halfspace(2, (0, 1), ((1, 0),)))],
        ids=["finite-maximum", "capped-at-one"],
    )
    def test_tampered_line_witness_raises(self, monkeypatch, place, H):
        # the maximizer read off the line, moved by 1/2, fails the exact
        # check before it is returned
        C = trop_hypersurface(parse_poly("x1 + x2 + 2", rank=2, field=FIELD_Q), place)
        assert halfspace_meets_complex(H, C) is not None
        real = classify.maximize

        def shifted(*args):
            top, at = real(*args)
            return top, None if at is None else tuple(x + Fraction(1, 2) for x in at)

        monkeypatch.setattr(classify, "maximize", shifted)
        with pytest.raises(InternalInvariantError):
            halfspace_meets_complex(H, C)


_COEFFS = {
    FIELD_Q: ["1", "-1", "2", "-3", "4", "6", "1/2", "-1/3", "9", "12", "1/4", "-8"],
    FIELD_QZ: ["1", "-1", "z", "-z", "z-1", "z^2+1", "2*z", "1/z", "(z-2)^2", "z^2"],
}


@st.composite
def hypersurface_halfspaces(draw):
    """A polynomial of 3-4 terms in rank 2-3 with exponents in [-1, 1] over
    Q (coefficients of 2- and 3-adic valuation -2 to 3) or Q(z), and a
    halfspace of direction and 0-2 boundary generators in [-2, 2]."""
    rank = draw(st.integers(2, 3))
    field = draw(st.sampled_from([FIELD_Q, FIELD_QZ]))
    vec = st.tuples(*[st.integers(-1, 1)] * rank)
    exps = draw(st.lists(vec, min_size=3, max_size=4, unique=True))
    coeff = st.sampled_from(_COEFFS[field])
    mono = lambda e: "*".join(f"x{i + 1}^{a}" for i, a in enumerate(e) if a) or "1"
    f = parse_poly(" + ".join(f"({draw(coeff)})*{mono(e)}" for e in exps), rank=rank, field=field)
    vec = st.tuples(*[st.integers(-2, 2)] * rank)
    direction = draw(vec.filter(any))
    boundary = draw(st.lists(vec, max_size=2))
    try:
        H = Halfspace(rank, direction, tuple(boundary))
    except DependentDirection:
        assume(False)
    return f, H


@st.composite
def ray_complexes(draw):
    """1-2 rays and segments in rank 2-3, in drawn order, against a
    halfspace with 0-1 boundary generators.  They start at points in [-4,
    4] or at s v for the direction v and s in [-2, 4]: a ray along v from
    s v with s > 1 is met only past t = 1, and a ray along a boundary
    generator g from s v keeps t = s, so its maximizers form a ray."""
    rank = draw(st.integers(2, 3))
    vec = lambda lo, hi: draw(st.tuples(*[st.integers(lo, hi)] * rank))
    boundary = (vec(-1, 1),) if draw(st.booleans()) else ()
    try:
        H = Halfspace(rank, draw(st.tuples(*[st.integers(-1, 1)] * rank).filter(any)), boundary)
    except DependentDirection:
        assume(False)
    cells = []
    for _ in range(draw(st.integers(1, 2))):
        s = draw(st.integers(-2, 4))
        base = tuple(s * x for x in H.direction) if draw(st.booleans()) else vec(-4, 4)
        if draw(st.integers(0, 2)):
            along = st.sampled_from((H.direction, *H.boundary))
            cells.append(Cell(ray(rank, base, draw(along) if draw(st.booleans()) else vec(-1, 1))))
        else:
            cells.append(Cell(segment(rank, base, vec(-4, 4))))
    return H, PolyhedralComplex(rank, tuple(cells))


def _ray_parameter(H, x):
    """The t of x = sum(lambda_a g_a) + t v, solved by sympy."""
    M = sympy.Matrix([list(g) for g in (*H.boundary, H.direction)]).T
    sol, _ = M.gauss_jordan_solve(sympy.Matrix([sympy.Rational(c.numerator, c.denominator) for c in x]))
    return sol[-1]


def _check_against_reference(H, C):
    """The witness the (x, lambda, t) LP on each cell gave; where that
    found none, a witness can only come from a cell met past t = 1, and
    it lies in H and in C."""
    want = reference_halfspace_meets_complex(H, C)
    got = halfspace_meets_complex(H, C)
    if want is not None or got is None:
        assert got == want
        return
    event("met only past t = 1")
    assert any(contains_point(cell.polyhedron, got) for cell in C.cells)
    assert _ray_parameter(H, got) > 1


class TestHalfspaceMeetsComplexAgainstReference:
    @settings(max_examples=60)
    @given(hypersurface_halfspaces())
    def test_every_place_of_a_hypersurface(self, drawn):
        f, H = drawn
        am = adelic_amoeba(f)
        for C in (am.generic, *(C for _, C in am.special)):
            _check_against_reference(H, C)

    @settings(max_examples=150)
    @given(ray_complexes())
    def test_rays_and_segments(self, drawn):
        _check_against_reference(*drawn)


class TestAdelicDisjoint:
    def test_curve_qz_meets_negative_diagonal(self, ex_curve_qz):
        am = adelic_amoeba(ex_curve_qz)
        rep = adelic_disjoint(am, Halfspace(2, (-1, -1)))
        assert rep.overall == MEETS
        generic_entry = rep.nonarchimedean[0]
        assert generic_entry.place == "generic" and not generic_entry.disjoint
        w = generic_entry.witness
        assert w[0] == w[1] < 0  # the witness sits on the antidiagonal ray

    def test_rank4_surface_disjoint(self):
        system = pair_system_q()
        am = adelic_amoeba(system)
        H = Halfspace(4, (1, 1, 1, 0), ((0, 0, 0, 1),))
        rep = adelic_disjoint(am, H)
        assert rep.overall == DISJOINT
        assert rep.archimedean_certified is True
        assert all(a.verdict == CERTIFIED_OUTSIDE for a in rep.archimedean)

    def test_grid_is_configurable(self, ex_line_q):
        am = adelic_amoeba(ex_line_q)
        H = Halfspace(2, (1, 1))
        rep = adelic_disjoint(am, H, grid=5)
        assert len(rep.archimedean) == 5

    def test_empty_grid_rejected_over_q(self, ex_line_q):
        # an empty scan would certify "disjoint" for a line the ray meets
        am = adelic_amoeba(ex_line_q)
        with pytest.raises(ValueError):
            adelic_disjoint(am, Halfspace(2, (1, 1)), grid=0)

    def test_empty_grid_unused_over_qz(self, ex_curve_qz):
        am = adelic_amoeba(ex_curve_qz)
        rep = adelic_disjoint(am, Halfspace(2, (-1, -1)), grid=0)
        assert rep.archimedean is None and rep.overall == MEETS


@st.composite
def component_cases(draw):
    """A polynomial of 2-4 terms in rank 1-3 with exponents in [-2, 2] over
    Q or Q(z) (so its places include inf), half the time on a line u_0 +
    w c, and a halfspace with 0-2 boundary generators: drawn in [-2, 2], or
    a multiple (1, 2 or -3) of a vector orthogonal to every exponent
    difference."""
    rank = draw(st.integers(1, 3))
    vec = lambda lo, hi: st.tuples(*[st.integers(lo, hi)] * rank)
    if rank > 1 and draw(st.booleans()):
        u0, c = draw(vec(-1, 1)), draw(vec(-1, 1).filter(any))
        weights = draw(st.lists(st.integers(-2, 2), min_size=2, max_size=4, unique=True))
        exps = [tuple(a + w * x for a, x in zip(u0, c)) for w in weights]
    else:
        exps = draw(st.lists(vec(-2, 2), min_size=2, max_size=4, unique=True))
    field = draw(st.sampled_from([FIELD_Q, FIELD_QZ]))
    coeff = st.sampled_from(_COEFFS[field])
    mono = lambda e: "*".join(f"x{i + 1}^{a}" for i, a in enumerate(e) if a) or "1"
    f = parse_poly(" + ".join(f"({draw(coeff)})*{mono(e)}" for e in exps), rank=rank, field=field)
    normal = sympy.Matrix([[x - y for x, y in zip(u, exps[0])] for u in exps[1:]]).nullspace()
    orthogonal = [primitive_vector([Fraction(int(x.p), int(x.q)) for x in v]) for v in normal]
    boundary = []
    for _ in range(draw(st.integers(0, 2))):
        if orthogonal and draw(st.booleans()):
            m = draw(st.sampled_from((1, 2, -3)))
            boundary.append(tuple(m * x for x in draw(st.sampled_from(orthogonal))))
        else:
            boundary.append(draw(vec(-2, 2)))
    try:
        H = Halfspace(rank, draw(vec(-2, 2).filter(any)), tuple(boundary))
    except DependentDirection:
        assume(False)
    return f, H


class TestComponentTest:
    """A hypersurface place whose complement component holds H is disjoint
    with no cell scan; any other is scanned for its witness."""

    @settings(max_examples=150, deadline=None)
    @given(component_cases())
    def test_agrees_with_the_cell_scan_at_every_place(self, case):
        f, H = case
        am = adelic_amoeba(f)
        places = [(GENERIC, am.generic), *am.special]
        assert len(am.data) == len(places)
        for (place, C), data in zip(places, am.data):
            k = component_term(data, H)
            verdict = "disjoint" if k is not None else "meets"
            event(f"{type(place).__name__}: {verdict}")
            event(f"{verdict} with {len(H.boundary)} boundary generators")
            assert (k is not None) == (halfspace_meets_complex(H, C) is None)
            if k is not None:
                # term k alone is minimal at a point of H
                point = [sum(x) for x in zip(H.direction, *H.boundary)]
                _, argmin = min_value_and_argmin(data, point)
                assert argmin == {k}

    def _counted(self, monkeypatch):
        scanned, lps = [], []
        scan, top = classify.halfspace_meets_complex, classify.maximize
        counted = lambda H, C: scanned.append(C) or scan(H, C)
        monkeypatch.setattr(classify, "halfspace_meets_complex", counted)
        monkeypatch.setattr(classify, "maximize", lambda *args: lps.append(args) or top(*args))
        return scanned, lps

    def test_a_passing_place_runs_no_scan(self, monkeypatch):
        scanned, lps = self._counted(monkeypatch)
        am = adelic_amoeba(parse_poly("x1 + x2 + 1", rank=2, field=FIELD_Q))
        rep = adelic_disjoint(am, Halfspace(2, (1, 1)), grid=2, trials=2)
        assert [c.to_json() for c in rep.nonarchimedean] == [
            {"place": "generic", "verdict": DISJOINT, "witness": None}
        ]
        assert scanned == [] and lps == []

    def test_only_the_failing_place_is_scanned(self, monkeypatch):
        # the generic place lies in the constant's region through the
        # orthogonal boundary; p:3 lies in no region and is scanned
        scanned, lps = self._counted(monkeypatch)
        am = adelic_amoeba(parse_poly("x1*x2 + 3", rank=2, field=FIELD_Q))
        rep = adelic_disjoint(am, Halfspace(2, (1, 1), ((1, -1),)), grid=2, trials=2)
        verdicts = [(c.place, c.disjoint) for c in rep.nonarchimedean]
        assert verdicts == [("generic", True), ("p:3", False)]
        assert scanned == [am.special[0][1]] and lps

    def test_a_scan_missing_a_failing_place_raises(self, monkeypatch):
        am = adelic_amoeba(parse_poly("x1*x2 + 3", rank=2, field=FIELD_Q))
        H = Halfspace(2, (1, 1), ((1, -1),))
        assert component_term(am.data[1], H) is None
        monkeypatch.setattr(classify, "halfspace_meets_complex", lambda H, C: None)
        with pytest.raises(InternalInvariantError):
            adelic_disjoint(am, H, grid=2, trials=2)

    def test_rank_mismatch_refused_before_any_place(self):
        am = adelic_amoeba(parse_poly("x1 + x2 + 1", rank=2, field=FIELD_Q))
        with pytest.raises(DimensionMismatch):
            adelic_disjoint(am, Halfspace(3, (1, 1, 1)))


@st.composite
def boundary_orthogonal_cases(draw):
    """A polynomial whose exponent differences are orthogonal to every
    boundary generator of a halfspace: rank 2-3, one to rank - 1 generators
    in [-2, 2], and 2-4 terms u_0 + sum w_j c_j with w_j in [-1, 1] over an
    integer basis c of the generators' orthogonal complement, over Q (its
    coefficients of 2- and 3-adic valuation -2 to 3) or Q(z)."""
    rank = draw(st.integers(2, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * rank)
    boundary = draw(st.lists(vec, min_size=1, max_size=rank - 1))
    assume(rank_of_rows(boundary) == len(boundary))
    basis = [
        primitive_vector([Fraction(int(x.p), int(x.q)) for x in c])
        for c in sympy.Matrix(boundary).nullspace()
    ]
    u0 = draw(st.tuples(*[st.integers(-1, 1)] * rank))
    weights = draw(
        st.lists(st.tuples(*[st.integers(-1, 1)] * len(basis)), min_size=2, max_size=4, unique=True)
    )
    exps = [tuple(a + sum(w * c[i] for w, c in zip(ws, basis)) for i, a in enumerate(u0)) for ws in weights]
    field = draw(st.sampled_from([FIELD_Q, FIELD_QZ]))
    coeff = st.sampled_from(_COEFFS[field])
    mono = lambda e: "*".join(f"x{i + 1}^{a}" for i, a in enumerate(e) if a) or "1"
    f = parse_poly(" + ".join(f"({draw(coeff)})*{mono(e)}" for e in exps), rank=rank, field=field)
    try:
        H = Halfspace(rank, draw(vec.filter(any)), tuple(boundary))
    except DependentDirection:
        assume(False)
    return f, H


def _same_verdicts(f, H):
    """adelic_disjoint of f gives H and its ray alone the same per-place
    verdicts, archimedean scan and overall verdict."""
    am = adelic_amoeba(f)
    with_boundary = adelic_disjoint(am, H, grid=4, trials=4)
    ray_only = adelic_disjoint(am, Halfspace(H.rank, H.direction), grid=4, trials=4)
    verdicts = lambda rep: [(c.place, c.disjoint) for c in rep.nonarchimedean]
    assert verdicts(with_boundary) == verdicts(ray_only)
    assert with_boundary.archimedean == ray_only.archimedean
    assert with_boundary.overall == ray_only.overall


class TestBoundaryOrthogonalHypersurface:
    """A hypersurface whose generic complex misses H = span(B) + R>0 d has
    exponent differences orthogonal to B, and then every complex and the
    archimedean amoeba are invariant under span(B): the verdicts of H and
    of its ray t d agree (adelic_disjoint scans only the ray)."""

    @settings(max_examples=40, deadline=None)
    @given(boundary_orthogonal_cases())
    def test_verdicts_do_not_depend_on_the_boundary(self, case):
        _same_verdicts(*case)

    @settings(max_examples=60, deadline=None)
    @given(hypersurface_halfspaces())
    def test_a_generic_complex_missing_h_is_orthogonal_to_the_boundary(self, case):
        f, H = case
        if halfspace_meets_complex(H, trop_hypersurface(f, GENERIC)) is not None:
            return
        event("the generic complex misses H")
        u0, *rest = f.exponents()
        for u, b in itertools.product(rest, H.boundary):
            assert sum((x - y) * g for x, y, g in zip(u, u0, b)) == 0
        _same_verdicts(f, H)


class TestStructuralTests:
    def test_defined_over_k_positive(self):
        f = parse_poly("z*x1 + 2*z*x2 + 3*z", rank=2, field=FIELD_QZ)
        assert defined_over_k_test(f) == 0

    def test_defined_over_k_negative(self, ex_curve_qz):
        assert defined_over_k_test(ex_curve_qz) is None

    def test_defined_over_k_expanded_product(self):
        f = parse_poly("(z^2+1)*(x1 + x2 - 5)", rank=2, field=FIELD_QZ)
        assert defined_over_k_test(f) == 0

    def test_torsion_coset_binomial(self):
        f = parse_poly("x1*x2^2 - 1", rank=2, field=FIELD_Q)
        hyper = torsion_coset_test(f)
        assert hyper is not None
        assert hyper == polyhedron(2, [((1, 2), Fraction(0))], ())

    def test_torsion_coset_negative(self):
        assert torsion_coset_test(parse_poly("x1 - 2", rank=1, field=FIELD_Q)) is None

    def test_torsion_coset_sum(self):
        f = parse_poly("x1 + x2", rank=2, field=FIELD_Q)
        assert torsion_coset_test(f) is not None


SMALL_QZ_COEFFS = st.sampled_from([
    RationalFunction((1, 0)),               # z
    RationalFunction((1, -1)),              # z - 1
    RationalFunction((1,), (1, 0)),         # 1/z
    RationalFunction((1, 1), (1, -2)),      # (z + 1)/(z - 2)
    RationalFunction.const(2),
    RationalFunction.const(-1),
])


@st.composite
def small_qz_polys(draw, rank=None):
    """A polynomial over Q(z) of rank 1 to 3 with 2 to 4 terms."""
    rank = rank or draw(st.integers(1, 3))
    s = draw(st.integers(2, 4))
    exps = draw(st.lists(
        st.tuples(*[st.integers(-2, 2)] * rank), min_size=s, max_size=s, unique=True
    ))
    return make_laurent(rank, FIELD_QZ, [(e, draw(SMALL_QZ_COEFFS)) for e in exps])


class TestHalflineSearch:
    def test_defined_over_k_gives_halfline(self, rng):
        for _ in range(20):
            f = scale(rand_poly_qz_constant(rng), RationalFunction((1, 0)))
            rep = ekl_consistency_check(f)
            assert rep.halfline is not None and not rep.archimedean_caveat
            assert rep.side == "hypothesis" and rep.theorem.conclusion_case == 2

    def test_nonconstant_has_no_uniform_vertex(self, rng):
        count = 0
        while count < 20:
            f = rand_poly_qz(rng, rank=2, terms=rng.randint(2, 4))
            if defined_over_k_test(f) is not None:
                continue
            count += 1
            assert not uniform_minimal_vertices(adelic_amoeba(f))

    @settings(max_examples=80)
    @given(st.one_of(small_q_polys(), small_qz_polys()))
    def test_candidates_miss_every_bad_place_by_valuations(self, f):
        # the cross-check of the candidate filter against the valuation
        # comparison on each candidate ray
        candidates = uniform_minimal_vertices(adelic_amoeba(f))
        event(f"{len(candidates)} candidates")
        for _, d in candidates:
            direction = primitive_vector(d)
            for p in bad_places(f):
                assert halfline_disjoint_fast(f, p, direction) == (DISJOINT, None)


class TestEkl:
    def test_curve_qz_none_found(self, ex_curve_qz):
        # no vertex has the least coefficient valuation at every bad place
        rep = ekl_consistency_check(ex_curve_qz)
        assert (rep.side, rep.halfline, rep.rejected, rep.theorem) == ("none-found", None, (), None)

    def test_curve_q_rejected_by_archimedean_witnesses(self, ex_curve_q):
        rep = ekl_consistency_check(ex_curve_q)
        assert rep.side == "none-found"
        assert rep.halfline is None
        assert len(rep.rejected) == 2  # both diagonal candidates meet the amoeba
        assert all(r["archimedean"].verdict == MEETS for r in rep.rejected)

    def test_constant_coefficients_over_qz(self):
        f = parse_poly("x1 + x2 + 1", rank=2, field=FIELD_QZ)
        rep = ekl_consistency_check(f)
        assert rep.side == "hypothesis"
        assert rep.halfline is not None and rep.theorem.conclusion_case == 2

    def test_candidate_meeting_a_nonarchimedean_place_is_an_internal_error(self, monkeypatch):
        # the constant's vertex cone, offered as a candidate, meets the amoeba
        # {v = 1} of x1 + 2 at p:2
        f = parse_poly("x1 + 2", field=FIELD_Q)
        points = f.exponents()
        bad = [(i, strict_vertex_direction(points, i)) for i, u in enumerate(points) if not any(u)]
        monkeypatch.setattr(classify, "uniform_minimal_vertices", lambda amoeba: bad)
        with pytest.raises(InternalInvariantError):
            ekl_consistency_check(f)

    def test_valuations_read_off_the_amoeba(self, monkeypatch):
        # the candidates read the shifts the amoeba keeps: the check makes
        # the valuation calls of building the amoeba and no more
        f = parse_poly("6*x1^2 + 10*x1*x2 + 15*x2^2 + 7", rank=2, field=FIELD_Q)
        calls = []
        real = tropical.valuation
        monkeypatch.setattr(tropical, "valuation", lambda *a: calls.append(a) or real(*a))
        adelic_amoeba(f)
        built = len(calls)
        calls.clear()
        ekl_consistency_check(f)
        assert built == len(calls) == 16

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 2).flatmap(lambda r: st.one_of(small_q_polys(rank=r), small_qz_polys(rank=r))),
        st.integers(1, 3),
    )
    def test_random_input_never_violates(self, f, trials):
        rep = ekl_consistency_check(f, trials=trials)
        event(f"{f.field}: {rep.side}")
        assert rep.side != "violation"


class TestTheoremReport:
    def test_binomial_over_q(self):
        f = parse_poly("x1*x2 - 1", rank=2, field=FIELD_Q)
        rep = theorem1_report(f, Halfspace(2, (1, 1)))
        assert rep.disjointness.overall == DISJOINT
        assert rep.conclusion_case == 3 and not rep.violation

    def test_curve_system_case_two(self):
        system = pair_system_qz()
        H = Halfspace(3, (1, 1, 0), ((0, 0, 1),))
        image = parse_poly("x1 - x2 - 1", rank=2, field=FIELD_QZ)
        rep = theorem1_report(system, H, image_hypersurface=image)
        assert rep.disjointness.overall == DISJOINT
        assert rep.conclusion_case == 2 and not rep.violation

    def test_image_rank_must_be_the_codimension(self):
        # the boundary's dependent generator is dropped: codimension 2, not 1
        system = pair_system_qz()
        H = Halfspace(3, (1, 1, 0), ((0, 0, 1), (0, 0, 2)))
        image = parse_poly("x1 - x2 - x3 - 1", rank=3, field=FIELD_QZ)
        with pytest.raises(DimensionMismatch, match="quotient rank 2"):
            theorem1_report(system, H, image_hypersurface=image)

    def test_surface_system_case_one(self):
        system = pair_system_q()
        H = Halfspace(4, (1, 1, 1, 0), ((0, 0, 0, 1),))
        rep = theorem1_report(system, H, declared_codim_gt_one=True)
        assert rep.disjointness.overall == DISJOINT
        assert rep.conclusion_case == 1 and not rep.violation

    def test_source_type_checked(self):
        with pytest.raises(TypeError):
            theorem1_report((1, 2), Halfspace(2, (1, 1)))

    def test_missing_image_rejected(self):
        system = pair_system_qz()
        H = Halfspace(3, (1, 1, 0), ((0, 0, 1),))
        with pytest.raises(MissingImagePresentation):
            theorem1_report(system, H)

    def test_image_of_hypersurface_rejected(self, monkeypatch):
        # rejected before any amoeba is built
        def no_build(*args):
            raise AssertionError("amoeba built for a rejected input")

        monkeypatch.setattr(classify, "adelic_amoeba", no_build)
        f = parse_poly("x1*x2 - 1", rank=2, field=FIELD_Q)
        with pytest.raises(ValueError):
            theorem1_report(f, Halfspace(2, (1, 1)), image_hypersurface=parse_poly("x1+x2+5"))

    @pytest.mark.parametrize("boundary", [(), ((1, -1),)], ids=["no-boundary", "boundary"])
    def test_declaration_on_hypersurface_rejected(self, monkeypatch, boundary):
        # the image of a hypersurface has codimension at most one, so the
        # declaration is false: refused on a disjoint report, and by
        # theorem1_report before any amoeba is built
        f = parse_poly("x1*x2 - 1", rank=2, field=FIELD_Q)
        H = Halfspace(2, (1, 1), boundary)
        report = adelic_disjoint(adelic_amoeba(f), Halfspace(2, (1, 1)))
        assert report.overall == DISJOINT
        with pytest.raises(ValueError, match="codimension at most one"):
            trichotomy_conclusion(f, H, report, declared_codim_gt_one=True)

        def no_build(*args):
            raise AssertionError("amoeba built for a rejected input")

        monkeypatch.setattr(classify, "adelic_amoeba", no_build)
        with pytest.raises(ValueError, match="codimension at most one"):
            theorem1_report(f, H, declared_codim_gt_one=True)

    def test_hypersurface_with_boundary_needs_image(self):
        # every amoeba of this binomial is the hyperplane v1 + v2 = 0, so the
        # boundary halfspace is disjoint and the image presentation is needed
        f = parse_poly("x1*x2 - 1", rank=3, field=FIELD_Q)
        H = Halfspace(3, (1, 1, 0), ((0, 0, 1),))
        with pytest.raises(MissingImagePresentation):
            theorem1_report(f, H)

    def test_never_violates_on_200_random(self, rng):
        violations = 0
        runs = 0
        # scaled constant-coefficient hypersurfaces over Q(z): always
        # disjoint from a vertex-cone ray, conclusion case 2
        for _ in range(50):
            f = scale(rand_poly_qz_constant(rng, terms=rng.randint(2, 4)),
                      RationalFunction((1, 0)))
            points = f.exponents()
            directions = (strict_vertex_direction(points, i) for i in range(f.nterms))
            d = primitive_vector(next(x for x in directions if x is not None))
            rep = theorem1_report(f, Halfspace(f.rank, d))
            runs += 1
            violations += rep.violation
            assert rep.disjointness.overall == DISJOINT and rep.conclusion_case == 2
        # non-constant coefficient ratios: any verdict, never a violation
        for _ in range(50):
            f = rand_poly_qz(rng, rank=2, terms=rng.randint(2, 4))
            v = (0, 0)
            while not any(v):
                v = tuple(rng.randint(-3, 3) for _ in range(2))
            rep = theorem1_report(f, Halfspace(2, v))
            runs += 1
            violations += rep.violation
        # torsion binomials over Q: disjoint plus case 3
        for _ in range(50):
            while True:
                u = tuple(rng.randint(-3, 3) for _ in range(2))
                w = tuple(rng.randint(-3, 3) for _ in range(2))
                if u != w:
                    break
            a = rand_fraction(rng)
            f = make_laurent(2, FIELD_Q, [(u, a), (w, rng.choice([a, -a]))])
            while True:
                d = tuple(rng.randint(-3, 3) for _ in range(2))
                if any(d) and sum(x * (p - q) for x, p, q in zip(d, u, w)) != 0:
                    break
            rep = theorem1_report(f, Halfspace(2, d), trials=8)
            runs += 1
            violations += rep.violation
            assert rep.disjointness.overall == DISJOINT and rep.conclusion_case == 3
        # random hypersurfaces over Q: any verdict, never a violation
        for _ in range(50):
            f = rand_poly_q(rng, rank=2, terms=rng.randint(2, 4))
            v = (0, 0)
            while not any(v):
                v = tuple(rng.randint(-3, 3) for _ in range(2))
            rep = theorem1_report(f, Halfspace(2, v), trials=4)
            runs += 1
            violations += rep.violation
        assert runs == 200
        assert violations == 0


class TestArchPointClassification:
    def test_system_certifies_via_constraint(self):
        system = pair_system_q()
        res = classify_arch_point(system, (1, 1, 1, 0))
        assert res.verdict == CERTIFIED_OUTSIDE
        assert res.certificate["kind"] in ("triangle", "lopsided")

    def test_hypersurface_triangle_meets(self, ex_line_q):
        res = classify_arch_point(ex_line_q, (0, 0))
        assert res.verdict == MEETS and res.certificate["kind"] == "triangle"


@st.composite
def small_q_systems(draw):
    """A system over Q of rank 2 or 3 with one to three constraints, mostly
    trinomials, and a small rational point."""
    rank = draw(st.integers(2, 3))
    cons = [
        Constraint(draw(small_q_polys(rank=rank, terms=draw(st.sampled_from([2, 3, 3, 4])))))
        for _ in range(draw(st.integers(1, 3)))
    ]
    point = tuple(draw(SMALL_POINT_COORDS) for _ in range(rank))
    return PrevarietySystem(rank, tuple(cons)), point


class TestQueriesAgainstReference:
    """Point verdicts and the EKL check against copies that solve each vertex LP twice and run lopsidedness
    after an inside triangle verdict: identical JSON and witness floats."""

    @staticmethod
    def _same(fn, ref, *args, **kwargs):
        got = outcome(fn, *args, **kwargs)
        assert got == outcome(ref, *args, **kwargs)
        return got

    @settings(max_examples=80)
    @given(st.one_of(small_q_cases(), small_q_systems()), st.integers(1, 4))
    def test_arch_point(self, case, trials):
        source, point = case
        kind, got = self._same(
            classify_arch_point, reference_classify_arch_point, source, point, trials=trials
        )
        if kind == "ok":
            event(got.certificate["kind"])

    @settings(max_examples=40)
    @given(st.one_of(small_q_polys(), small_qz_polys()), st.integers(1, 2))
    def test_ekl(self, f, trials):
        kind, got = self._same(
            ekl_consistency_check, reference_ekl_consistency_check, f, trials=trials
        )
        if kind == "ok":
            event(got.side)


class TestOneComputationPerFact:
    def test_one_vertex_lp_per_term(self, monkeypatch):
        # only the terms whose valuations are minimal at p:2 get a vertex
        # LP: the constant and x1*x2, not -2*x1 and -2*x2
        f = parse_poly("x1*x2-2*x1-2*x2+1", field=FIELD_Q)
        calls = []
        solve = laurent.strict_vertex_direction

        def counted(points, i):
            calls.append(i)
            return solve(points, i)

        monkeypatch.setattr(laurent, "strict_vertex_direction", counted)
        monkeypatch.setattr(classify, "strict_vertex_direction", counted, raising=False)
        rep = ekl_consistency_check(f)
        assert len(rep.rejected) == 2
        assert sorted(calls) == sorted(r["vertex"] for r in rep.rejected)
        assert len(calls) == 2

    def test_one_enclosure_per_constraint_inside_the_triangle(self, monkeypatch):
        # both constraints put (1/2, 1/2) inside the closed triangle, where
        # lopsidedness has nothing to add
        system = PrevarietySystem(2, (
            Constraint(parse_poly("x1 + x2 + 1", field=FIELD_Q)),
            Constraint(parse_poly("x1 - x2 + 1", field=FIELD_Q)),
        ))
        calls = []
        enclose = archimedean._enclose
        monkeypatch.setattr(
            archimedean, "_enclose", lambda *args: calls.append(args) or enclose(*args)
        )
        res = classify_arch_point(system, (Fraction(1, 2), Fraction(1, 2)))
        assert res.verdict == "evidence-only"
        assert len(calls) == len(system.constraints)


# ---------------------------------------------------------------------------
# ray scans: tails against one reference verdict per grid point

@st.composite
def mapped_q_systems(draw):
    """A system over Q of rank 2 or 3 with one or two constraints of rank 1
    to the ambient rank, each pulled back by a small integer matrix (or the
    identity, when the ranks agree)."""
    rank = draw(st.integers(2, 3))
    cons = []
    for _ in range(draw(st.integers(1, 2))):
        r = draw(st.integers(1, rank))
        g = draw(small_q_polys(rank=r, terms=draw(st.sampled_from([2, 3, 3]))))
        rows = st.tuples(*[st.integers(-2, 2)] * rank)
        pullback = draw(st.tuples(*[rows] * r))
        if r == rank and draw(st.booleans()):
            pullback = None
        cons.append(Constraint(g, pullback))
    return PrevarietySystem(rank, tuple(cons))


@st.composite
def ray_scans(draw):
    """A hypersurface over Q of rank 1 to 3 or a mapped system, a nonzero
    direction and a grid count from 1 to 40: most points inside a small
    amoeba lie at small t, most tails start far out."""
    source = draw(st.one_of(small_q_polys(), mapped_q_systems()))
    direction = draw(st.tuples(*[st.integers(-2, 2)] * source.rank).filter(any))
    return source, direction, draw(st.integers(1, 40))


def _scan_prefix(source, direction, count, trials, n):
    """The JSON of a count-point scan's first n verdicts, ended by the
    outcome of an exception that stops it early."""
    got = []
    try:
        scan = classify.scan_arch_ray(source, direction, count, trials)
        got.extend(v.to_json() for v in itertools.islice(scan, n))
    except Exception as exc:
        got.append((type(exc), str(exc)))
    return got


class TestRayScan:
    """adelic_disjoint, alone and in the EKL check, answers a grid point past
    a tail without an enclosure; their bytes must equal one reference
    verdict per point."""

    @settings(max_examples=60, deadline=None)
    @given(ray_scans(), st.integers(1, 2))
    def test_adelic_disjoint_matches_point_by_point(self, case, trials):
        source, direction, grid = case
        amoeba = adelic_amoeba(source)
        H = Halfspace(source.rank, direction)
        got = outcome(adelic_disjoint, amoeba, H, grid=grid, trials=trials)
        want = outcome(reference_adelic_disjoint, amoeba, H, grid=grid, trials=trials)
        if got[0] == want[0] == "ok":
            got, want = ("ok", got[1].to_json()), ("ok", want[1].to_json())
            event(got[1]["overall"])
        assert got == want

    @settings(max_examples=40, deadline=None)
    @given(ray_scans(), st.integers(1, 40), st.integers(1, 2))
    def test_a_longer_scan_starts_with_the_shorter(self, case, other, trials):
        # the points of a count-n scan are the first n of any longer one
        source, direction, count = case
        n, m = sorted((count, other))
        assume(n < m)
        want = _scan_prefix(source, direction, n, trials, n)
        assert _scan_prefix(source, direction, m, trials, n) == want

    @settings(max_examples=30, deadline=None)
    @given(small_q_polys(), st.integers(1, 2))
    def test_ekl_check_matches_point_by_point(self, f, trials):
        got = outcome(ekl_consistency_check, f, trials=trials)
        want = outcome(reference_ekl_consistency_check, f, trials=trials)
        assert got == want

    def test_tail_answers_the_rest_of_the_ray(self, monkeypatch):
        # (1/2, 1/2) is inside the triangle; from (1, 1) on the constant term
        # dominates and minimizes <u, (1, 1)>
        f = parse_poly("x1 + x2 + 1", field=FIELD_Q)
        calls = []
        enclose = archimedean._enclose
        monkeypatch.setattr(
            archimedean, "_enclose", lambda *args: calls.append(args) or enclose(*args)
        )
        H = Halfspace(2, (1, 1))
        rep = adelic_disjoint(adelic_amoeba(f), H, grid=201)
        kinds = [(a.verdict, a.certificate["kind"]) for a in rep.archimedean]
        assert kinds == [(MEETS, "triangle")] + [(CERTIFIED_OUTSIDE, "triangle")] * 200
        assert len(calls) == 2

    def test_no_tail_from_a_term_that_does_not_minimize(self, monkeypatch):
        # along (-1, -1) the constant 100 dominates at t = 1/2 but the terms
        # x1 and x2 minimize <u, d>, so each point takes the full test
        f = parse_poly("x1 + x2 + 100", field=FIELD_Q)
        calls = []
        enclose = archimedean._enclose
        monkeypatch.setattr(
            archimedean, "_enclose", lambda *args: calls.append(args) or enclose(*args)
        )
        verdicts = list(classify.scan_arch_ray(f, (-1, -1), 2))
        assert [v.verdict for v in verdicts] == [CERTIFIED_OUTSIDE] * 2
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "signs, want",
        [((None, 1), classify.LOPSIDED), ((-1, -1, -1), classify.INSIDE), ((None, -1, -1), None)],
    )
    def test_kind_read_off_the_dominance_signs(self, monkeypatch, signs, want):
        # a unimodular trinomial: an undecided sign before the dominating
        # term leaves lopsidedness, not the triangle test; with no dominating
        # term only decided signs put the point inside
        f = parse_poly("x1 + x2 + 1", field=FIELD_Q)
        monkeypatch.setattr(archimedean, "_dominance_signs", lambda q: iter(signs))
        assert classify._Part(f, None, None).outside((0, 0), None) == want

    def test_tamper_non_minimal_term(self):
        f = parse_poly("x1 + x2 + 100", field=FIELD_Q)
        part = classify._Part(f, None, (-1, -1))
        part.minimizers = frozenset(range(f.nterms))
        with pytest.raises(InternalInvariantError):
            part.outside((Fraction(-1, 2),) * 2, Fraction(1, 2))

    def test_tamper_sign_not_plus_one(self, monkeypatch):
        # the constant term minimizes <u, (1, 1)>; its recorded sign is -1
        f = parse_poly("x1 + x2 + 1", field=FIELD_Q)
        k = next(i for i, (u, _) in enumerate(f.terms) if not any(u))
        monkeypatch.setattr(
            archimedean.ArchQuery, "dominance", property(lambda q: ((-1,) * (k + 1), k))
        )
        with pytest.raises(InternalInvariantError):
            adelic_disjoint(adelic_amoeba(f), Halfspace(2, (1, 1)))
