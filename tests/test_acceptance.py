"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""
import random
from fractions import Fraction

from amoebas.archimedean import sampled_inside
from amoebas.classify import (
    CERTIFIED_OUTSIDE,
    DISJOINT,
    MEETS,
    Halfspace,
    adelic_disjoint,
    classify_arch_point,
    ekl_consistency_check,
    halfspace_meets_complex,
    torsion_coset_test,
    uniform_minimal_vertices,
)
from amoebas.laurent import (
    bad_places,
    make_laurent,
    strict_vertex_direction,
)
from amoebas.lattices import primitive_vector
from amoebas.scalars import (
    FIELD_Q,
    GENERIC,
    FinitePrime,
    place_from_str,
    product_formula_residual,
)
from amoebas.tropical import (
    adelic_amoeba,
    prevariety,
    trop_hypersurface,
    tropical_data,
)

from conftest import (
    cells_of,
    complex_membership,
    complexes_equal,
    contains_zero,
    is_balanced,
    min_value_and_argmin,
    rand_exponents,
    rand_fraction,
    rand_point,
    rand_poly_q,
    rand_poly_qz,
    rand_poly_qz_constant,
    ray,
)
from test_tropical import pair_system_q, pair_system_qz


def report(number, label, ok):
    print(f"ACCEPTANCE {number:02d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_01_three_term_curve_over_qz(ex_curve_qz, expected_tripods):
    ok = complexes_equal(trop_hypersurface(ex_curve_qz, GENERIC), expected_tripods["generic"])
    for place in ("q:z", "q:z-1", "q:z-2"):
        C = trop_hypersurface(ex_curve_qz, place_from_str(place))
        ok = ok and complexes_equal(C, expected_tripods[place])
        ok = ok and contains_zero(C)
    ok = ok and contains_zero(trop_hypersurface(ex_curve_qz, GENERIC))
    report(1, "three-term curve over Q(z): all four complexes, zero membership", ok)


def test_criterion_02_four_term_curve_over_q(
    ex_curve_q, expected_axes, expected_curve_q_at_two
):
    ok = bad_places(ex_curve_q) == frozenset({FinitePrime(2)})
    ok = ok and complexes_equal(trop_hypersurface(ex_curve_q, GENERIC), expected_axes)
    at_two = trop_hypersurface(ex_curve_q, FinitePrime(2))
    ok = ok and complexes_equal(at_two, expected_curve_q_at_two)
    ok = ok and contains_zero(at_two)
    ok = ok and classify_arch_point(ex_curve_q, (0, 0)).verdict != CERTIFIED_OUTSIDE
    report(2, "four-term curve over Q: axes, segment-plus-rays at 2, pinching", ok)


def test_criterion_03_curve_system_in_rank_three():
    system = pair_system_qz()
    C = prevariety(system, GENERIC)
    expected = cells_of(
        3,
        [
            ray(3, (0, 0, 0), (1, 0, 0)),
            ray(3, (0, 0, 0), (0, 1, 0)),
            ray(3, (0, 0, 0), (0, 0, 1)),
            ray(3, (0, 0, 0), (-1, -1, -1)),
        ],
    )
    ok = complexes_equal(C, expected)
    H = Halfspace(3, (1, 1, 0), ((0, 0, 1),))
    ok = ok and halfspace_meets_complex(H, C) is None
    for _, Cp in adelic_amoeba(system).special:
        ok = ok and halfspace_meets_complex(H, Cp) is None
    report(3, "rank-3 curve system: four rays, halfspace disjoint everywhere", ok)


def test_criterion_04_surface_system_in_rank_four():
    system = pair_system_q()
    H = Halfspace(4, (1, 1, 1, 0), ((0, 0, 0, 1),))
    am = adelic_amoeba(system)
    ok = all(halfspace_meets_complex(H, Cp) is None for Cp in [am.generic, *(C for _, C in am.special)])
    rep = adelic_disjoint(am, H)
    ok = ok and rep.overall == DISJOINT
    ok = ok and len(rep.archimedean) == 20
    ok = ok and all(a.verdict == CERTIFIED_OUTSIDE for a in rep.archimedean)
    ok = ok and all(a.certificate["kind"] == "triangle" for a in rep.archimedean)
    report(4, "rank-4 surface system: nonarchimedean miss, 20 triangle-certified points", ok)


def test_criterion_05_scalar_definition_equivalence():
    rng = random.Random(5)
    ok = True
    for _ in range(100):
        f = rand_poly_qz_constant(
            rng, rank=rng.choice([2, 3]), terms=rng.randint(2, 6)
        )
        rep = ekl_consistency_check(f)
        ok = ok and rep.halfline is not None and not rep.archimedean_caveat
    trop_cache = {}
    count = 0
    while count < 100:
        f = rand_poly_qz(rng, rank=rng.choice([2, 3]), terms=rng.randint(2, 6))
        a1 = f.terms[0][1]
        if all((c / a1).is_constant() for _, c in f.terms[1:]):
            continue
        count += 1
        ok = ok and not uniform_minimal_vertices(adelic_amoeba(f))
        shift_table = {p: tropical_data(f, p).shifts for p in sorted(bad_places(f), key=str)}
        points = f.exponents()
        for i in range(f.nterms):
            d = strict_vertex_direction(points, i)
            if d is None:
                continue
            bad = next(
                p for p, shifts in shift_table.items() if shifts[i] > min(shifts)
            )
            direction = primitive_vector(d)
            key = (f, str(bad))
            if key not in trop_cache:
                trop_cache[key] = trop_hypersurface(f, bad)
            hit = halfspace_meets_complex(
                Halfspace(f.rank, direction), trop_cache[key]
            )
            ok = ok and hit is not None
    report(5, "100+100 random scalar-definition equivalences, zero discrepancies", ok)


def test_criterion_06_torsion_binomials():
    rng = random.Random(6)
    ok = True
    for _ in range(50):
        rank = rng.choice([2, 3])
        u, w = rand_exponents(rng, rank, 2)
        a = rand_fraction(rng)
        f = make_laurent(rank, FIELD_Q, [(u, a), (w, rng.choice([a, -a]))])
        hyper = torsion_coset_test(f)
        ok = ok and hyper is not None
        expected = cells_of(rank, [hyper])
        for p in [GENERIC, FinitePrime(2), FinitePrime(5)] + sorted(
            bad_places(f), key=str
        ):
            ok = ok and complexes_equal(trop_hypersurface(f, p), expected)
    for _ in range(50):
        if rng.random() < 0.5:
            f = rand_poly_q(rng, rank=2, terms=rng.randint(3, 5))
        else:
            u, w = rand_exponents(rng, 2, 2)
            a = rand_fraction(rng)
            b = a * rng.choice([2, -3, Fraction(1, 2)])
            f = make_laurent(2, FIELD_Q, [(u, a), (w, b)])
        ok = ok and torsion_coset_test(f) is None
    report(6, "50 torsion binomials give one hyperplane at every place; 50 others fail", ok)


def test_criterion_07_oracle_equivalence(corpus_trops):
    rng = random.Random(7)
    mismatches = 0
    for f, place, C in corpus_trops:
        data = tropical_data(f, place)
        for _ in range(1000):
            v = rand_point(rng, f.rank)
            _, arg = min_value_and_argmin(data, v)
            member = complex_membership(C, v) is not None
            mismatches += member != (len(arg) >= 2)
    report(7, "1000-point membership/argmin agreement per corpus instance", mismatches == 0)


def test_criterion_08_product_formula():
    rng = random.Random(8)
    ok = True
    from conftest import rand_ratfunc

    for _ in range(500):
        a = rand_ratfunc(rng, max_factors=3)
        res = product_formula_residual(a)
        ok = ok and isinstance(res, int) and res == 0
    for _ in range(500):
        a = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) * rng.choice(
            [1, -1]
        )
        ok = ok and abs(product_formula_residual(a)) < 1e-9
    report(8, "product formula: 500 exact integer zeros, 500 small residuals", ok)


def test_criterion_09_balancing(corpus_trops):
    ok = all(is_balanced(C) for _, _, C in corpus_trops)
    report(9, "multiplicity-weighted balancing at every codimension-2 cell", ok)


def test_criterion_10_archimedean_point_facts(ex_line_q):
    origin = classify_arch_point(ex_line_q, (0, 0))
    ok = origin.verdict == MEETS and origin.certificate["kind"] == "triangle"
    w = sampled_inside(ex_line_q, (0, 0))
    ok = ok and w is not None
    ok = ok and abs(w[0] - 1) <= 1e-9 and abs(w[1] - 1) <= 1e-9
    far = classify_arch_point(ex_line_q, (1, 1))
    ok = ok and far.verdict == CERTIFIED_OUTSIDE and far.certificate["kind"] == "triangle"
    report(10, "boundary triangle at the origin, witness at (1,1), lopsided escape", ok)
