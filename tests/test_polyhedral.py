from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoebas.errors import RankDeficient
from amoebas.polyhedral import (
    Cell,
    LPInfeasible,
    LPOptimal,
    LPUnbounded,
    complex_membership,
    complexes_equal,
    contains_point,
    covered_by,
    dimension,
    from_generators,
    intersect,
    is_empty,
    lp_solve,
    make_complex,
    poly_contains,
    poly_equal,
    polyhedron,
    polyhedron_from_json,
    polyhedron_to_json,
    preimage,
    project,
    prune_to_maximal,
    relative_interior_point,
    remove_redundancy,
)

from conftest import brute_force_lp, cells_of, ray, reference_prune_to_maximal, segment


def box(rank, lo=-1, hi=1):
    ineqs = []
    for c in range(rank):
        row = [0] * rank
        row[c] = 1
        ineqs.append((tuple(row), Fraction(hi)))
        row = [0] * rank
        row[c] = -1
        ineqs.append((tuple(row), Fraction(-lo)))
    return polyhedron(rank, (), ineqs)


class TestLPBasics:
    def test_bounded_max(self):
        P = polyhedron(1, (), [((1,), Fraction(3))])
        res = lp_solve([1], P)
        assert isinstance(res, LPOptimal) and res.value == 3 and res.point == (3,)

    def test_unbounded(self):
        P = polyhedron(1, (), [((-1,), Fraction(0))])
        res = lp_solve([1], P)
        assert isinstance(res, LPUnbounded) and res.ray[0] > 0

    def test_infeasible_with_farkas(self):
        P = polyhedron(1, (), [((1,), Fraction(-1)), ((-1,), Fraction(0))])
        res = lp_solve([1], P)
        assert isinstance(res, LPInfeasible)
        assert res.farkas is not None

    def test_equality_handling(self):
        P = polyhedron(2, [((1, 1), Fraction(2))], [((1, 0), Fraction(5))])
        res = lp_solve([1, 0], P)
        assert isinstance(res, LPOptimal) and res.value == 5
        res = lp_solve([0, 1], P, sense="min")
        assert isinstance(res, LPOptimal) and res.value == -3

    def test_oracle_agreement_small_corpus(self, rng):
        corpus = []
        corpus.append(box(2))
        corpus.append(box(3, 0, 2))
        # random bounded polytopes: a box cut by random halfspaces
        for _ in range(20):
            n = rng.randint(2, 4)
            cuts = [
                (
                    tuple(rng.randint(-3, 3) for _ in range(n)),
                    Fraction(rng.randint(-2, 4)),
                )
                for _ in range(rng.randint(1, 4))
            ]
            corpus.append(intersect(box(n, -2, 2), polyhedron(n, (), cuts)))
        for P in corpus:
            if len(P.inequalities) + len(P.equalities) > 8 or P.rank > 4:
                continue
            for _ in range(3):
                obj = [rng.randint(-3, 3) for _ in range(P.rank)]
                want = brute_force_lp(obj, P)
                got = lp_solve(obj, P)
                if want is None:
                    assert isinstance(got, LPInfeasible)
                else:
                    assert isinstance(got, LPOptimal)
                    assert got.value == want[0]


class TestDimension:
    def test_line_in_plane(self):
        P = polyhedron(2, [((1, -1), Fraction(0))], ())
        assert dimension(P) == 1

    def test_point_via_implicit_equalities(self):
        P = polyhedron(
            2,
            [((0, 1), Fraction(1))],
            [((1, 0), Fraction(0)), ((-1, 0), Fraction(0))],
        )
        assert dimension(P) == 0

    def test_empty(self):
        P = polyhedron(1, (), [((1,), Fraction(-1)), ((-1,), Fraction(0))])
        assert dimension(P) == -1

    def test_monotone_under_constraints(self, rng):
        for _ in range(30):
            n = rng.randint(1, 3)
            P = box(n, -2, 2)
            cut = (
                tuple(rng.randint(-2, 2) for _ in range(n)),
                Fraction(rng.randint(-2, 2)),
            )
            Q = intersect(P, polyhedron(n, (), [cut]))
            assert dimension(Q) <= dimension(P)

    def test_relative_interior(self):
        P = polyhedron(2, [((1, -1), Fraction(0))], [((1, 0), Fraction(0))])
        x = relative_interior_point(P)
        assert contains_point(P, x)
        assert x[0] == x[1] and x[0] < 0  # strictly inside the ray


class TestProjection:
    def test_diagonal_to_first(self):
        P = polyhedron(2, [((1, -1), Fraction(0))], ())
        Q = project(P, [[1, 0]])
        assert Q.equalities == () and Q.inequalities == ()

    def test_strip_to_interval(self):
        P = polyhedron(
            2,
            [((0, 1), Fraction(3))],
            [((1, 0), Fraction(1)), ((-1, 0), Fraction(0))],
        )
        Q = project(P, [[1, 0]])
        assert poly_equal(Q, polyhedron(1, (), [((1,), Fraction(1)), ((-1,), Fraction(0))]))

    def test_diagonal_ray(self):
        P = from_generators(3, [(0, 0, 0)], rays=[(1, 1, 1)])
        Q = project(P, [[1, 0, 0], [0, 1, 0]])
        assert poly_equal(Q, from_generators(2, [(0, 0)], rays=[(1, 1)]))

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            project(box(2), [[1, 1], [2, 2]])

    def test_preimage_composition(self):
        P = polyhedron(1, [((1,), Fraction(0))], ())
        Q = preimage(P, [[1, 0]])
        assert poly_equal(Q, polyhedron(2, [((1, 0), Fraction(0))], ()))

    def test_preimage_whole_space(self):
        P = polyhedron(1, (), ())
        assert preimage(P, [[3, -1]]).inequalities == ()

    def test_project_preimage_round_trip_50_random(self, rng):
        for _ in range(50):
            m = rng.randint(1, 2)
            n = m + rng.randint(1, 2)
            while True:
                phi = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
                from amoebas.lattices import rank_of_rows

                if rank_of_rows(phi) == m:
                    break
            cons = [
                (
                    tuple(rng.randint(-2, 2) for _ in range(m)),
                    Fraction(rng.randint(0, 3)),
                )
                for _ in range(rng.randint(1, 3))
            ]
            P = polyhedron(m, (), cons)
            if is_empty(P):
                continue
            back = project(preimage(P, phi), phi)
            assert poly_equal(back, P)


class TestComplexes:
    def test_membership_cases(self):
        C = cells_of(2, [ray(2, (0, 0), (1, 0)), ray(2, (0, 0), (0, 1))])
        assert complex_membership(C, (2, 0)) is not None
        assert complex_membership(C, (1, 1)) is None
        assert complex_membership(C, (0, 0)) == 0  # shared vertex: first cell

    def test_covered_by_with_splitting(self):
        # the segment [-1, 1] is covered by [-1, 0] and [0, 1] only jointly
        seg = segment(1, (-1,), (1,))
        left = segment(1, (-1,), (0,))
        right = segment(1, (0,), (1,))
        assert covered_by(seg, [left, right])
        assert not covered_by(seg, [left])

    def test_complex_equality_differs_by_decomposition(self):
        whole = cells_of(1, [segment(1, (-1,), (1,))])
        halves = cells_of(1, [segment(1, (-1,), (0,)), segment(1, (0,), (1,))])
        assert complexes_equal(whole, halves)
        assert not complexes_equal(whole, cells_of(1, [segment(1, (-1,), (2,))]))

    def test_json_round_trip(self):
        P = polyhedron(2, [((1, -1), Fraction(1, 2))], [((1, 0), Fraction(3))])
        assert polyhedron_from_json(polyhedron_to_json(P)) == P


class TestRedundancy:
    def test_removes_dominated_row(self):
        P = polyhedron(1, (), [((1,), Fraction(1)), ((1,), Fraction(2))])
        R = remove_redundancy(P)
        assert R.inequalities == (((1,), Fraction(1)),)

    def test_keeps_necessary_rows(self):
        B = box(2)
        assert remove_redundancy(B) == B


def _rows(rank, lo, hi):
    return st.tuples(*[st.integers(lo, hi)] * rank)


@st.composite
def infeasible_polyhedra(draw):
    """A random system closed by the row that makes a random nonnegative
    combination of its inequalities (and any combination of its equalities)
    read 0 <= -k with k >= 1."""
    rank = draw(st.integers(1, 3))
    con = st.tuples(_rows(rank, -3, 3), st.integers(-3, 3))
    eqs = draw(st.lists(con, max_size=2))
    ineqs = draw(st.lists(con, min_size=1, max_size=4))
    lam = draw(st.lists(st.integers(-2, 2), min_size=len(eqs), max_size=len(eqs)))
    lam += draw(st.lists(st.integers(0, 2), min_size=len(ineqs), max_size=len(ineqs)))
    cons = eqs + ineqs
    row = [-sum(m * r[c] for m, (r, _) in zip(lam, cons)) for c in range(rank)]
    rhs = -sum(m * b for m, (_, b) in zip(lam, cons)) - draw(st.integers(1, 3))
    return polyhedron(rank, eqs, ineqs + [(row, rhs)])


class TestFarkasCertificate:
    @settings(max_examples=80)
    @given(infeasible_polyhedra(), st.data())
    def test_random_infeasible_systems(self, P, data):
        obj = data.draw(_rows(P.rank, -2, 2))
        res = lp_solve(obj, P)
        assert isinstance(res, LPInfeasible)
        cons = P.constraints()
        assert len(res.farkas) == len(cons)
        for c in range(P.rank):
            assert sum(m * row[c] for m, (row, _, _) in zip(res.farkas, cons)) == 0
        assert sum(m * rhs for m, (_, rhs, _) in zip(res.farkas, cons)) < 0
        assert all(m >= 0 for m, (_, _, is_eq) in zip(res.farkas, cons) if not is_eq)


@st.composite
def piece_lists(draw):
    """Random polyhedra of rank 1-3 with, per piece, a duplicate, an equal
    piece written differently, a nested piece or an empty piece, shuffled."""
    rank = draw(st.integers(1, 3))
    con = st.tuples(_rows(rank, -2, 2), st.integers(-2, 2))
    base = [
        polyhedron(rank, draw(st.lists(con, max_size=1)), draw(st.lists(con, max_size=4)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    pieces = list(base)
    for P in base:
        kind = draw(st.sampled_from(["duplicate", "rewritten", "nested", "empty", "none"]))
        if kind == "duplicate":
            pieces.append(P)
        elif kind == "rewritten":
            # equalities as inequality pairs, plus a loosened copy of a row
            ineqs = list(P.inequalities)
            ineqs += [(r, b) for r, b in P.equalities]
            ineqs += [(tuple(-x for x in r), -b) for r, b in P.equalities]
            ineqs += [(r, b + 1) for r, b in P.inequalities[:1]]
            pieces.append(polyhedron(rank, (), ineqs))
        elif kind == "nested":
            pieces.append(intersect(P, polyhedron(rank, (), [draw(con)])))
        elif kind == "empty":
            row = draw(_rows(rank, -2, 2).filter(any))
            pieces.append(polyhedron(rank, (), [(row, 0), (tuple(-x for x in row), -1)]))
    return draw(st.permutations(pieces))


class TestPruneAgainstContainmentReference:
    """Pruning with a point test before each containment LP equals pruning
    by containment LPs alone."""

    @settings(max_examples=80)
    @given(piece_lists())
    def test_random_piece_lists(self, pieces):
        assert prune_to_maximal(pieces) == reference_prune_to_maximal(pieces)

    def test_duplicates_nested_and_empty(self):
        big = box(2, -2, 2)
        small = box(2, -1, 1)
        line = polyhedron(2, [((1, -1), Fraction(0))], ())
        empty = polyhedron(2, (), [((1, 0), Fraction(-1)), ((-1, 0), Fraction(0))])
        pieces = [small, empty, big, line, small, box(2, -2, 2)]
        assert prune_to_maximal(pieces) == reference_prune_to_maximal(pieces) == [big, line]
