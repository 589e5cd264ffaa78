import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amoebas import polyhedral
from amoebas.classify import Halfspace, halfspace_meets_complex
from amoebas.errors import DependentDirection, InternalInvariantError
from amoebas.laurent import parse_poly
from amoebas.lattices import rank_of_rows
from amoebas.polyhedral import (
    Cell,
    LPInfeasible,
    LPOptimal,
    LPUnbounded,
    Polyhedron,
    PolyhedralComplex,
    _canon_constraint,
    complex_to_json,
    contains_point,
    empty_polyhedron,
    intersect,
    keyed_interior_point,
    keyed_reduction,
    lp_solve,
    make_complex,
    maximize,
    polyhedron,
    polyhedron_to_json,
    preimage,
)
from amoebas.scalars import FIELD_Q, GENERIC, FinitePrime
from amoebas.tropical import adelic_amoeba, prevariety, trop_hypersurface

from conftest import (
    brute_force_lp,
    cells_of,
    complex_membership,
    complexes_equal,
    count_lp_calls,
    covered_by,
    dimension,
    from_generators,
    hull_rows,
    is_empty,
    no_fraction_hash,
    polyhedron_from_json,
    ray,
    reference_affine_hull,
    reference_canon_constraint,
    reference_lp_solve,
    reference_poly_contains,
    reference_project,
    reference_prune_to_maximal,
    reference_remove_redundancy,
    relative_interior_point,
    segment,
)
from test_classify import _check_against_reference
from test_tropical import pair_system_qz


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
        res = lp_solve([0, -1], P)
        assert isinstance(res, LPOptimal) and res.value == 3

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
        assert relative_interior_point(P) is None and dimension(P) == -1

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


@st.composite
def hull_polyhedra(draw, equalities=None, min_rank=1):
    """Polyhedra of rank min_rank-4, empty, lower-dimensional or unbounded:
    random rows, an opposite copy of a row with its rhs moved by -1, 0 or 1
    (an empty piece, a face or a slab), and a repeated or scaled row kept
    as it is when the constructor does not canonicalize.
    equalities(rank), when given, draws the equalities in place of 0-2
    random rows, and up to two rows that read the same on their solutions
    as a row already drawn (a tie) or as a constant follow last: an
    inequality plus a combination of the equalities, its rhs moved by the
    same combination, or the combination alone, its rhs moved by -1, 0 or
    1."""
    rank = draw(st.integers(min_rank, 4))
    con = st.tuples(_rows(rank, -2, 2), st.integers(-2, 2).map(Fraction))
    eqs = draw(st.lists(con, max_size=2) if equalities is None else equalities(rank))
    ineqs = draw(st.lists(con, max_size=6))
    if ineqs and draw(st.booleans()):
        row, rhs = draw(st.sampled_from(ineqs))
        ineqs.append((tuple(-x for x in row), -rhs + draw(st.integers(-1, 1))))
    if ineqs and draw(st.booleans()):
        row, rhs = draw(st.sampled_from(ineqs))
        k = draw(st.integers(1, 2))
        ineqs.append((tuple(k * x for x in row), k * rhs))
    kinds = st.lists(st.sampled_from(["tie", "constant"]), max_size=2)
    for kind in draw(kinds) if equalities is not None and eqs else ():
        lam = draw(st.lists(st.integers(-1, 1), min_size=len(eqs), max_size=len(eqs)))
        comb = tuple(sum(a * row[k] for a, (row, _) in zip(lam, eqs)) for k in range(rank))
        shift = sum(a * b for a, (_, b) in zip(lam, eqs))
        if kind == "tie" and ineqs:
            row, rhs = draw(st.sampled_from(ineqs))
            ineqs.append((tuple(x + y for x, y in zip(row, comb)), rhs + shift))
        else:
            ineqs.append((comb, shift + draw(st.integers(-1, 1))))
    if draw(st.booleans()):
        return polyhedron(rank, eqs, ineqs)
    return raw_polyhedron(rank, eqs, ineqs)


def raw_polyhedron(rank, eqs, ineqs):
    """The Polyhedron of the (row, rhs) pairs as they stand: each row's key
    (row, rhs numerator, rhs denominator), with no row scaled, sorted or
    dropped."""
    keys = lambda cons: tuple((tuple(row), Fraction(b).numerator, Fraction(b).denominator) for row, b in cons)
    return Polyhedron(rank, keys(eqs), keys(ineqs))


def canonical(P):
    """polyhedron() of P's rows."""
    return polyhedron(P.rank, P.equalities, P.inequalities)


def reduced(P):
    """keyed_reduction of a nonempty P with the frame that
    keyed_interior_point solved for it."""
    return keyed_reduction(P, keyed_interior_point(P)[1])


def on_line(P):
    """What _on_line reads off P's frame when it has at most one column."""
    return polyhedral._on_line(P, polyhedral._frame(P, 1))


def _more_equalities(draw, rank, eqs, kinds):
    """eqs with a row appended per kind: a random row, a combination of
    earlier rows whose rhs is the same combination or off by one
    (dependent or inconsistent), or a zero row with rhs 0 or 1."""
    con = st.tuples(_rows(rank, -2, 2), st.integers(-2, 2).map(Fraction))
    for kind in kinds:
        if kind == "random":
            eqs.append(draw(con))
        elif kind == "dependent" and eqs:
            (r1, b1), (r2, b2) = draw(st.sampled_from(eqs)), draw(st.sampled_from(eqs))
            a, c = draw(st.integers(1, 2)), draw(st.integers(-1, 1))
            shift = draw(st.integers(-1, 1))
            eqs.append((tuple(a * x + c * y for x, y in zip(r1, r2)), a * b1 + c * b2 + shift))
        else:
            eqs.append(((0,) * rank, Fraction(draw(st.integers(0, 1)))))
    return eqs


def _independent_equalities(draw, rank, size):
    con = st.tuples(_rows(rank, -2, 2), st.integers(-2, 2).map(Fraction))
    return draw(
        st.lists(con, min_size=size, max_size=size).filter(
            lambda eqs: rank_of_rows([row for row, _ in eqs]) == size
        )
    )


@st.composite
def line_equalities(draw, rank):
    """rank - 1 independent equality rows and up to two more
    (_more_equalities), so n - 1, n or n + 1 in all."""
    eqs = _independent_equalities(draw, rank, rank - 1)
    kinds = st.lists(st.sampled_from(["random", "dependent", "zero"]), max_size=2)
    return _more_equalities(draw, rank, eqs, draw(kinds))


@st.composite
def frame_equalities(draw, rank):
    """0 to rank - 2 independent equality rows, so that two or more
    directions stay free unless they are inconsistent, and up to one
    dependent, inconsistent or zero row more (_more_equalities)."""
    eqs = _independent_equalities(draw, rank, draw(st.integers(0, rank - 2)))
    kinds = st.lists(st.sampled_from(["dependent", "zero"]), max_size=1)
    return _more_equalities(draw, rank, eqs, draw(kinds))


def _check_hull(P):
    """relative_interior_point is None exactly when one LP finds P empty,
    and otherwise a point of P strict on exactly the rows that one LP per
    inequality row finds are not implicit equalities; so the test-side
    hull_rows, read off that point, are the reference's rows."""
    want = reference_affine_hull(P)
    x = relative_interior_point(P)
    if want is None:
        assert x is None
        return
    rows, implicit = want
    assert contains_point(P, x)
    for (row, rhs), tight in zip(P.inequalities, implicit):
        assert (sum(a * b for a, b in zip(row, x)) < rhs) != tight
    assert hull_rows(P) == rows


class TestHull:
    """The relative-interior point, off a line or by one LP per round, is
    strict on every row but the implicit equalities that one LP per
    inequality row finds, and None exactly when P is empty."""

    @settings(max_examples=300)
    @given(hull_polyhedra())
    def test_matches_lp_per_row_reference(self, P):
        _check_hull(P)

    def test_one_round_per_implicit_row_at_most(self, monkeypatch):
        # a point in the plane cut out by four inequalities takes at most
        # one LP per implicit row and one more; a full box takes one LP
        keyed_interior_point.cache_clear()
        calls = []
        lp = polyhedral.lp_solve
        monkeypatch.setattr(polyhedral, "lp_solve", lambda *a: calls.append(1) or lp(*a))
        P = polyhedron(2, (), [((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0), ((1, 1), 1)])
        assert dimension(P) == 0 and relative_interior_point(P) == (0, 0)
        assert 2 <= len(calls) <= 5
        calls.clear()
        assert dimension(box(3)) == 3 and len(calls) == 1

    def test_multipliers_of_the_maximization_solved(self):
        # max -v1 over the box: the row -v1 <= 1 carries it
        res = lp_solve((-1, 0), box(2))
        assert res.value == 1
        rows = box(2).eqs + box(2).ineqs
        assert [m for m, (row, _, _) in zip(res.multipliers, rows) if m] == [1]
        assert rows[res.multipliers.index(1)][0] == (-1, 0)


@pytest.fixture
def fresh_caches():
    """A cold relative-interior point cache before and after the test, so
    a patched kernel is reached and leaves nothing behind."""
    keyed_interior_point.cache_clear()
    yield
    keyed_interior_point.cache_clear()


def max_value(objective, P):
    return maximize(objective, P)[0]


def max_point(objective, P, level=None):
    """maximize on P, with its point (ints, d) as Fractions."""
    value, point = maximize(objective, P, level)
    if point is not None:
        ints, d = point
        assert d > 0
        point = tuple(Fraction(x, d) for x in ints)
    return value, point


def _halfspaces(rank, k):
    vec = st.tuples(*[st.integers(-2, 2)] * rank)
    return st.builds(Halfspace, st.just(rank), vec, st.lists(vec, min_size=k, max_size=k).map(tuple))


class TestLine:
    """Polyhedra whose equalities leave at most one free direction are
    decided on that line, with the same answers as the LP references."""

    @settings(max_examples=300)
    @given(hull_polyhedra(line_equalities), st.data())
    def test_matches_lp_references(self, P, data):
        assert on_line(P) is not None
        _check_hull(P)
        if dimension(P) >= 0:
            Q = canonical(P)
            assert reduced(Q) == reference_remove_redundancy(Q)
        k = data.draw(st.integers(0, min(1, P.rank - 1)))
        try:
            H = data.draw(_halfspaces(P.rank, k))
        except DependentDirection:
            return
        _check_against_reference(H, PolyhedralComplex(P.rank, (Cell(P),)))

    @settings(max_examples=150)
    @given(hull_polyhedra(line_equalities), st.data())
    def test_maximizer_is_the_only_one(self, P, data):
        """maximize's point is the one point of P at its finite maximum, or
        at the level of an unbounded objective, or at P's least value when
        that is above the level: each coordinate's range over P at that
        value, by reference_lp_solve, is that point's entry.  No point means
        a range of positive width."""
        obj = data.draw(st.tuples(*[st.integers(-2, 2)] * P.rank))
        level = data.draw(st.integers(-2, 2))
        top = lambda objective, Q: (
            None if isinstance(res := reference_lp_solve(objective, Q), LPInfeasible)
            else res.value if isinstance(res, LPOptimal) else math.inf
        )
        value, point = max_point(obj, P, level)
        assert value == top(obj, P)
        if value is None:
            assert point is None
            return
        at = value if value < math.inf else level
        face = raw_polyhedron(P.rank, P.equalities + ((obj, at),), P.inequalities)
        if top([0] * P.rank, face) is None:
            assert value == math.inf
            at = -top([-x for x in obj], P)
            assert at > level
            face = raw_polyhedron(P.rank, P.equalities + ((obj, at),), P.inequalities)
        ranges = [
            (top(e, face), -top([-x for x in e], face))
            for e in ([int(i == j) for j in range(P.rank)] for i in range(P.rank))
        ]
        if point is None:
            assert any(hi != lo for hi, lo in ranges)
        else:
            assert [(x, x) for x in point] == ranges

    def test_segment_point_and_empty_crossing(self):
        # the diagonal of the plane cut to [0, 2], to {1}, and to nothing
        diag = [((1, -1), 0)]
        seg = polyhedron(2, diag, [((1, 0), 2), ((-1, 0), 0), ((1, 0), 3)])
        assert dimension(seg) == 1 and relative_interior_point(seg) == (1, 1)
        assert reduced(seg) == polyhedron(2, diag, [((1, 0), 2), ((-1, 0), 0)])
        assert max_value((1, 1), seg) == 4 and max_value((-1, 0), seg) == 0
        point = polyhedron(2, diag, [((1, 0), 1), ((-1, 0), -1)])
        assert hull_rows(point) == ((1, -1), (-1, 0)) and relative_interior_point(point) == (1, 1)
        assert relative_interior_point(polyhedron(2, diag, [((1, 0), 0), ((-1, 0), -1)])) is None
        ray_ = polyhedron(2, diag, [((-1, 0), 0)])
        assert max_value((1, 0), ray_) == math.inf and max_value((-1, 0), ray_) == 0

    def test_last_tied_row_survives(self):
        # on the diagonal, x1 <= 2 and 2 x1 - x2 <= 2 bound z alike, and
        # x1 - x2 <= 1 is constant; the tied row later in canonical order
        # is kept, checked by a witness that breaks it alone
        diag, tied, constant = [((1, -1), 0)], [((2, -1), 2), ((1, 0), 2)], ((1, -1), 1)
        P = polyhedron(2, diag, [*tied, constant, ((-1, 0), 0)])
        want = polyhedron(2, diag, [((2, -1), 2), ((-1, 0), 0)])
        assert reduced(P) == reference_remove_redundancy(P) == want

    def test_reference_drops_one_copy_of_a_repeated_row(self):
        # x1 <= 2 twice around the tied 2 x1 - x2 <= 2: the greedy drops
        # rows by index, so it keeps the later copy of x1 <= 2
        rows = [((1, 0), 2), ((2, -1), 2), ((1, 0), 2), ((-1, 0), 0)]
        P = raw_polyhedron(2, polyhedron(2, _DIAG).equalities, rows)
        want = polyhedron(2, _DIAG, [((1, 0), 2), ((-1, 0), 0)])
        assert reference_remove_redundancy(P) == want

    def test_unbounded_point_at_the_level_or_the_least_value(self):
        # the diagonal ray from (2, 2): x1 = 1 is below it, x1 = 3 on it
        ray_ = polyhedron(2, [((1, -1), 0)], [((-1, 0), -2)])
        assert max_point((1, 0), ray_, 3) == (math.inf, (3, 3))
        assert max_point((2, 0), ray_, Fraction(17, 3)) == (math.inf, (Fraction(17, 6),) * 2)
        assert max_point((1, 0), ray_, 1) == (math.inf, (2, 2))
        assert max_point((-1, -1), ray_, 1) == (-4, (2, 2))

    @settings(max_examples=100)
    @given(hull_polyhedra(line_equalities))
    def test_tampered_farkas_combinations_raise(self, P):
        # the combination of inconsistent equalities, or of two rows
        # constant on the line, that an empty answer carries
        with pytest.MonkeyPatch.context() as mp:
            calls = []
            check = polyhedral._check_farkas
            mp.setattr(polyhedral, "_check_farkas", lambda *a: calls.append(a) or check(*a))
            on_line(P)
        for rows, rhs, neq, lam in calls:
            polyhedral._check_farkas(rows, rhs, neq, lam)
            for i in range(len(lam)):
                if any(rows[i]):
                    bad = list(lam)
                    bad[i] += 1
                    with pytest.raises(InternalInvariantError):
                        polyhedral._check_farkas(rows, rhs, neq, bad)

    @settings(max_examples=100)
    @given(hull_polyhedra(line_equalities))
    def test_tampered_kept_row_witnesses_raise(self, P):
        assume(dimension(P) >= 0)
        with pytest.MonkeyPatch.context() as mp:
            calls = []
            check = polyhedral._check_kept
            mp.setattr(polyhedral, "_check_kept", lambda *a: calls.append(a) or check(*a))
            reduced(P)
        for st_, i, others, z in calls:
            polyhedral._check_kept(st_, i, others, z)
            with pytest.raises(InternalInvariantError):
                polyhedral._check_kept(st_, i, others, Fraction(st_[i][1], st_[i][0]))


def _tamper(monkeypatch, name, change):
    """Hand the named check of polyhedral its arguments changed."""
    check = getattr(polyhedral, name)
    monkeypatch.setattr(polyhedral, name, lambda *args: check(*change(*args)))


def _corrupt_x0(monkeypatch):
    """Shift the rhs entry of the first row the line's elimination leaves,
    which moves x0 off the equalities."""
    solve = polyhedral._gauss_jordan

    def corrupt(M, ncols):
        out = solve(M, ncols)
        M[0][ncols] += 1
        return out

    monkeypatch.setattr(polyhedral, "_gauss_jordan", corrupt)


def _bump_farkas(monkeypatch):
    _tamper(monkeypatch, "_check_farkas", lambda rows, rhs, neq, lam: (rows, rhs, neq, [lam[0] + 1, *lam[1:]]))


def _kept_at_its_bound(monkeypatch):
    _tamper(monkeypatch, "_check_kept", lambda st_, i, others, z: (st_, i, others, Fraction(st_[i][1], st_[i][0])))


_DIAG = [((1, -1), 0)]
_SEGMENT = polyhedron(2, _DIAG, [((1, 0), 2), ((-1, 0), 0)])
# corrupted certificate -> (the corruption, a polyhedron whose answers rest on it)
_CORRUPTIONS = {
    "x0": (_corrupt_x0, _SEGMENT),
    "equality combination": (_bump_farkas, raw_polyhedron(2, [((1, 1), 0), ((2, 2), 1)], ())),
    "crossing pair": (_bump_farkas, polyhedron(2, _DIAG, [((1, 0), 0), ((-1, 0), -1)])),
    "kept-row witness": (_kept_at_its_bound, _SEGMENT),
}


class TestLineCertificates:
    """A line answer whose certificate is corrupted raises and never
    becomes a verdict: the relative-interior point, redundancy removal,
    max_value and the halfspace decision alike."""

    @pytest.mark.parametrize("kind", list(_CORRUPTIONS))
    def test_corrupted_certificate_raises(self, kind, monkeypatch, fresh_caches):
        corrupt, P = _CORRUPTIONS[kind]
        corrupt(monkeypatch)
        calls = [lambda: keyed_reduction(P, polyhedral._frame(P))]
        if kind != "kept-row witness":
            C = PolyhedralComplex(2, (Cell(P),))
            calls += [lambda: relative_interior_point(P), lambda: max_value((1, 0), P)]
            calls += [lambda: halfspace_meets_complex(Halfspace(2, (1, 1)), C)]
        for call in calls:
            keyed_interior_point.cache_clear()
            with pytest.raises(InternalInvariantError):
                call()


def _corrupt_column(monkeypatch):
    """Shift the entry of the first free column in the first row the
    elimination leaves, which turns a frame column off the equalities."""
    solve = polyhedral._gauss_jordan

    def corrupt(M, ncols):
        pivots, det = solve(M, ncols)
        M[0][next(c for c in range(ncols) if c not in pivots)] += 1
        return pivots, det

    monkeypatch.setattr(polyhedral, "_gauss_jordan", corrupt)


class TestFrame:
    """Polyhedra whose equalities leave k >= 2 free directions take their
    slack and redundancy LPs over the k coordinates of a frame, with the
    answers of the LP references, and a frame off the equalities raises."""

    @settings(max_examples=200)
    @given(hull_polyhedra(frame_equalities, min_rank=2))
    def test_matches_lp_references(self, P):
        frame = polyhedral._frame(P)
        assert frame == "empty" or len(frame[1]) >= 2
        with pytest.MonkeyPatch.context() as mp:
            keyed_interior_point.cache_clear()
            calls = count_lp_calls(mp)
            _check_hull(P)
            if dimension(P) >= 0:
                Q = canonical(P)
                assert reduced(Q) == reference_remove_redundancy(Q)
        # the slack LPs take k + 1 coordinates, the redundancy LPs k
        assert calls == [] if frame == "empty" else all(Q.rank <= len(frame[1]) + 1 for _, Q in calls)

    # the plane x1 + x2 + x3 = 1 cut to a triangle by x >= 0
    _TRIANGLE = polyhedron(3, [((1, 1, 1), 1)], [((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0)])

    def test_triangle(self, fresh_caches):
        assert dimension(self._TRIANGLE) == 2
        assert reduced(self._TRIANGLE) == self._TRIANGLE

    @pytest.mark.parametrize("corrupt", [_corrupt_x0, _corrupt_column], ids=["x0", "column"])
    def test_corrupted_frame_raises(self, corrupt, monkeypatch, fresh_caches):
        corrupt(monkeypatch)
        P = self._TRIANGLE
        for call in (lambda: keyed_reduction(P, polyhedral._frame(P)), lambda: relative_interior_point(P)):
            keyed_interior_point.cache_clear()
            with pytest.raises(InternalInvariantError, match="frame misses"):
                call()


class TestKeyedPath:
    """A canonical piece (keyed_interior_point, then keyed_reduction with
    the frame it returned) gets the answers of the LP references, with at
    most one free direction and with k >= 2, and a miss hashes no
    Fraction."""

    @pytest.mark.parametrize("equalities", [line_equalities, frame_equalities], ids=["line", "frame"])
    @settings(max_examples=150)
    @given(data=st.data())
    def test_agrees_with_the_lp_references(self, equalities, data):
        P = canonical(data.draw(hull_polyhedra(equalities, min_rank=2)))
        keyed_interior_point.cache_clear()
        with no_fraction_hash():
            found = keyed_interior_point(P)
        assert (found is None) == is_empty(P)
        if found is None:
            return
        point, frame = found
        assert frame == polyhedral._frame(P)
        _, implicit = reference_affine_hull(P)
        assert contains_point(P, point)
        for (row, rhs), tight in zip(P.inequalities, implicit):
            assert (sum(a * b for a, b in zip(row, point)) < rhs) != tight
        assert keyed_reduction(P, frame) == reference_remove_redundancy(P)


class TestLineLPCounts:
    def test_prevariety_of_the_rank_3_curve_system(self, monkeypatch, fresh_caches):
        # its pieces leave at most one free direction: the LP-based hull
        # and redundancy removal took 86 LPs here
        calls = count_lp_calls(monkeypatch)
        C = prevariety(pair_system_qz(), GENERIC)
        assert len(C.cells) == 4 and len(calls) <= 10

    def test_halfspace_without_boundary_on_a_disjoint_complex(self, monkeypatch, fresh_caches):
        # one decision LP per cell before, 3 here
        C = trop_hypersurface(parse_poly("x1 + x2 + 1", rank=2, field=FIELD_Q), FinitePrime(2))
        calls = count_lp_calls(monkeypatch)
        assert halfspace_meets_complex(Halfspace(2, (1, 1)), C) is None
        assert calls == []

    def test_halfspace_witness_on_a_meeting_complex(self, monkeypatch, fresh_caches):
        # the witness LP in (x, lambda, t) ran for the meeting cell before
        C = trop_hypersurface(parse_poly("x1 + x2 + 2", rank=2, field=FIELD_Q), FinitePrime(2))
        calls = count_lp_calls(monkeypatch)
        assert halfspace_meets_complex(Halfspace(2, (1, 1)), C) == (1, 1)
        assert calls == []


def _contains(P, Q):
    """Whether Q is a subset of P, by max_value (which reads polyhedra with
    at most one free direction off their line) over Q of P's rows."""
    if max_value([0] * Q.rank, Q) is None:
        return True
    if any(max_value(r, Q) != b or max_value([-x for x in r], Q) != -b for r, b in P.equalities):
        return False
    return all(max_value(r, Q) <= b for r, b in P.inequalities)


def _same(P, Q):
    return _contains(P, Q) and _contains(Q, P)


class TestProjection:
    """reference_project, the Fourier-Motzkin image behind from_generators
    and reference_project_complex, against known images and the package's
    preimage."""

    def test_diagonal_to_first(self):
        P = polyhedron(2, [((1, -1), Fraction(0))], ())
        Q = reference_project(P, [[1, 0]])
        assert Q.equalities == () and Q.inequalities == ()

    def test_strip_to_interval(self):
        P = polyhedron(
            2,
            [((0, 1), Fraction(3))],
            [((1, 0), Fraction(1)), ((-1, 0), Fraction(0))],
        )
        Q = reference_project(P, [[1, 0]])
        assert _same(Q, polyhedron(1, (), [((1,), Fraction(1)), ((-1,), Fraction(0))]))

    def test_diagonal_ray(self):
        P = from_generators(3, [(0, 0, 0)], rays=[(1, 1, 1)])
        Q = reference_project(P, [[1, 0, 0], [0, 1, 0]])
        assert _same(Q, from_generators(2, [(0, 0)], rays=[(1, 1)]))

    def test_empty_image_is_the_empty_polyhedron(self):
        # eliminating v from w = v leaves w <= -1, -w <= 0: no zero row
        # marks it infeasible, the emptiness LP before redundancy removal does
        P = polyhedron(1, (), [((1,), Fraction(-1)), ((-1,), Fraction(0))])
        assert reference_project(P, [[1]]) == empty_polyhedron(1)

    def test_preimage_composition(self):
        P = polyhedron(1, [((1,), Fraction(0))], ())
        Q = preimage(P, [[1, 0]])
        assert Q == polyhedron(2, [((1, 0), Fraction(0))], ())

    def test_preimage_whole_space(self):
        P = polyhedron(1, (), ())
        assert preimage(P, [[3, -1]]).inequalities == ()

    def test_project_preimage_round_trip_50_random(self, rng):
        for _ in range(50):
            m = rng.randint(1, 2)
            n = m + rng.randint(1, 2)
            while True:
                phi = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
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
            back = reference_project(preimage(P, phi), phi)
            assert _same(back, P)


@st.composite
def projections(draw):
    """A random polyhedron of rank 1-4 and a full-row-rank integer matrix
    with entries in [-2, 2] onto rank 1 to the same rank."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, n))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    phi = draw(st.lists(row, min_size=m, max_size=m))
    assume(rank_of_rows(phi) == m)
    con = st.tuples(_rows(n, -2, 2), _rationals(-3, 3, 2))
    P = polyhedron(n, draw(st.lists(con, max_size=2)), draw(st.lists(con, max_size=5)))
    return P, phi


class TestProjectionAgainstFractionReference:
    """Fourier-Motzkin on Fraction working rows gives the image of P along
    phi: the max of c over the image is the max of c phi over P."""

    @settings(max_examples=150)
    @given(projections(), st.data())
    def test_random_projections(self, case, data):
        P, phi = case
        m, n = len(phi), P.rank
        image = reference_project(P, phi)
        assert (image == empty_polyhedron(m)) == (dimension(P) < 0)
        units = [[int(i == j) for j in range(m)] for i in range(m)]
        c = data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
        for row in (*units, *([-x for x in u] for u in units), c):
            pulled = [sum(row[i] * phi[i][j] for i in range(m)) for j in range(n)]
            assert max_value(row, image) == max_value(pulled, P)

    def test_negative_pivot_keeps_directions(self):
        # the graph row w - 2v = 0 has pivot coefficient -2 at v
        P = polyhedron(1, (), [((1,), Fraction(2)), ((-1,), Fraction(-1))])
        image = polyhedron(1, (), [((1,), Fraction(4)), ((-1,), Fraction(-2))])
        assert _same(reference_project(P, [[2]]), image)




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
        R = reduced(P)
        assert R.inequalities == (((1,), Fraction(1)),) == reference_remove_redundancy(P).inequalities

    def test_keeps_necessary_rows(self):
        B = box(2)
        assert reduced(B) == reference_remove_redundancy(B) == B


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
        cons = [(row, rhs, True) for row, rhs in P.equalities] + [(row, rhs, False) for row, rhs in P.inequalities]
        assert len(res.farkas) == len(cons)
        for c in range(P.rank):
            assert sum(m * row[c] for m, (row, _, _) in zip(res.farkas, cons)) == 0
        assert sum(m * rhs for m, (_, rhs, _) in zip(res.farkas, cons)) < 0
        assert all(m >= 0 for m, (_, _, is_eq) in zip(res.farkas, cons) if not is_eq)

    @settings(max_examples=40)
    @given(infeasible_polyhedra())
    def test_tampered_multipliers_raise(self, P):
        with pytest.MonkeyPatch.context() as mp:
            calls = _captured_certificates(mp, "_check_farkas", [0] * P.rank, P)
        assert len(calls) == 1
        rows, rhs, neq, lam = calls[0]
        polyhedral._check_farkas(rows, rhs, neq, lam)
        for i in range(len(lam)):
            if any(rows[i]):
                bad = list(lam)
                bad[i] += 1
                with pytest.raises(InternalInvariantError):
                    polyhedral._check_farkas(rows, rhs, neq, bad)


def _empty_piece(draw, rank):
    row = draw(_rows(rank, -2, 2).filter(any))
    return polyhedron(rank, (), [(row, 0), (tuple(-x for x in row), -1)])


def _variant(draw, P, kind, con):
    """A piece related to P: itself, the same set written differently, P cut
    by a halfspace, a face of P (an inequality row taken as an equality), a
    hyperplane through a relative-interior point of P, a point (a
    half-integer one, inside P or not), or an empty piece."""
    rank = P.rank
    if kind == "duplicate":
        return P
    if kind == "rewritten":
        # equalities as inequality pairs, plus a loosened copy of a row
        ineqs = list(P.inequalities)
        ineqs += [(r, b) for r, b in P.equalities]
        ineqs += [(tuple(-x for x in r), -b) for r, b in P.equalities]
        ineqs += [(r, b + 1) for r, b in P.inequalities[:1]]
        return polyhedron(rank, (), ineqs)
    if kind == "nested":
        return intersect(P, polyhedron(rank, (), [draw(con)]))
    if kind == "face":
        if not P.inequalities:
            return P
        face = draw(st.sampled_from(P.inequalities))
        return polyhedron(rank, P.equalities + (face,), P.inequalities)
    if kind == "hyperplane" and not is_empty(P):
        # a hyperplane through the relative-interior point of P, so that the
        # point test passes and the span test decides
        row = draw(_rows(rank, -2, 2).filter(any))
        x = relative_interior_point(P)
        return polyhedron(rank, [(row, sum(a * b for a, b in zip(row, x)))], ())
    if kind == "point":
        x = draw(_rows(rank, -4, 4))
        eye = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        return polyhedron(rank, [(e, Fraction(k, 2)) for e, k in zip(eye, x)], ())
    return _empty_piece(draw, rank)


_KINDS = ["duplicate", "rewritten", "nested", "face", "hyperplane", "point", "empty"]


@st.composite
def piece_lists(draw):
    """Random polyhedra of rank 1-3 with, per piece, one of the variants of
    _variant or none, shuffled."""
    rank = draw(st.integers(1, 3))
    con = st.tuples(_rows(rank, -2, 2), st.integers(-2, 2))
    base = [
        polyhedron(rank, draw(st.lists(con, max_size=1)), draw(st.lists(con, max_size=4)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    pieces = list(base)
    for P in base:
        kind = draw(st.sampled_from(_KINDS + ["none"]))
        if kind != "none":
            pieces.append(_variant(draw, P, kind, con))
    return draw(st.permutations(pieces))


@st.composite
def containment_pairs(draw):
    """(P, Q) of rank 1-3, Q random or a variant of P, either way round."""
    rank = draw(st.integers(1, 3))
    con = st.tuples(_rows(rank, -2, 2), st.integers(-2, 2))
    P, Q = [
        polyhedron(rank, draw(st.lists(con, max_size=2)), draw(st.lists(con, max_size=4)))
        for _ in range(2)
    ]
    kind = draw(st.sampled_from(_KINDS + ["random"]))
    if kind != "random":
        Q = _variant(draw, P, kind, con)
    return (Q, P) if draw(st.booleans()) else (P, Q)


class TestContainmentAgainstLPReference:
    """reference_poly_contains, one LP per constraint row, equals the same
    test by max_value, and a subset has no greater dimension, its
    relative-interior point inside and its affine hull within."""

    @settings(max_examples=400)
    @given(containment_pairs())
    def test_random_pairs(self, pair):
        P, Q = pair
        inside = reference_poly_contains(P, Q)
        assert inside == _contains(P, Q)
        if inside and dimension(Q) >= 0:
            assert dimension(Q) <= dimension(P)
            assert contains_point(P, relative_interior_point(Q))
            hull = list(hull_rows(Q))
            assert all(rank_of_rows(hull + [list(row)]) == len(hull) for row in hull_rows(P))

    def test_equality_needs_the_span_test(self):
        # the box's relative-interior point is the origin, on the line v1 = 0
        line = polyhedron(2, [((1, 0), Fraction(0))], ())
        assert relative_interior_point(box(2)) == (0, 0)
        assert not reference_poly_contains(line, box(2))
        assert reference_poly_contains(line, intersect(line, box(2)))

    def test_inequalities_need_their_lps(self):
        # the big box's interior point lies in the small box
        assert not reference_poly_contains(box(2), box(2, -2, 2))
        assert reference_poly_contains(box(2, -2, 2), box(2))

    def test_empty_and_point(self):
        empty = polyhedron(2, (), [((1, 0), Fraction(0)), ((-1, 0), Fraction(-1))])
        assert reference_poly_contains(polyhedron(2, [((1, 0), Fraction(5))], ()), empty)
        point = polyhedron(2, [((1, 0), Fraction(1)), ((0, 1), Fraction(-1))], ())
        assert reference_poly_contains(box(2), point) and not reference_poly_contains(box(2, 2, 3), point)


class TestPruneAgainstContainmentReference:
    """reference_prune_to_maximal, by containment LPs alone, keeps one of
    each set among the pieces that no other piece strictly contains, by
    max_value's containment test."""

    @settings(max_examples=80)
    @given(piece_lists())
    def test_random_piece_lists(self, pieces):
        kept = reference_prune_to_maximal(pieces)
        assert all(any(P is Q for Q in pieces) and dimension(P) >= 0 for P in kept)
        assert not any(_contains(P, Q) for i, P in enumerate(kept) for j, Q in enumerate(kept) if i != j)
        assert all(any(_contains(P, Q) for P in kept) for Q in pieces if dimension(Q) >= 0)

    def test_duplicates_nested_and_empty(self):
        big = box(2, -2, 2)
        small = box(2, -1, 1)
        line = polyhedron(2, [((1, -1), Fraction(0))], ())
        empty = polyhedron(2, (), [((1, 0), Fraction(-1)), ((-1, 0), Fraction(0))])
        pieces = [small, empty, big, line, small, box(2, -2, 2)]
        assert reference_prune_to_maximal(pieces) == [big, line]




def _rationals(lo=-4, hi=4, den=3):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, den))


class TestCanonConstraintAgainstFractionReference:
    """The row key (row, rhs numerator, rhs denominator), all ints, holds
    the row and rhs of the all-Fraction form."""

    @settings(max_examples=300)
    @given(st.data())
    def test_canon_constraint(self, data):
        rank = data.draw(st.integers(1, 4))
        entry = st.integers(-6, 6) | st.integers(-10**12, 10**12)
        if data.draw(st.booleans()):
            entry = entry | _rationals(-6, 6, 4)
        row = data.draw(st.lists(entry, min_size=rank, max_size=rank))
        rhs = data.draw(st.integers(-6, 6) | st.integers(-10**12, 10**12) | _rationals(-6, 6, 4))
        is_equality = data.draw(st.booleans())
        got = _canon_constraint(row, rhs, is_equality)
        want = reference_canon_constraint(row, rhs, is_equality)
        if isinstance(want, tuple):
            want = (want[0], want[1].numerator, want[1].denominator)
            assert all(type(x) is int for x in (*got[0], *got[1:]))
        assert got == want


@st.composite
def canonical_polyhedra(draw):
    """1-4 polyhedra of one rank 1-3 built by polyhedron() from a shared
    pool of rows (zero and scaled rows among them), with repeated pieces
    and empty ones: empty_polyhedron(), or a row left unsatisfiable."""
    rank = draw(st.integers(1, 3))
    pool = draw(st.lists(st.tuples(_rows(rank, -3, 3), _rationals()), min_size=1, max_size=6))
    pool += [(tuple(2 * x for x in r), 2 * b) for r, b in pool[:1]]
    polys = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["rows", "rows", "rows", "repeat", "empty"]))
        if kind == "repeat" and polys:
            polys.append(draw(st.sampled_from(polys)))
        elif kind == "empty":
            polys.append(empty_polyhedron(rank))
        else:
            rows = st.lists(st.sampled_from(pool), max_size=4)
            polys.append(polyhedron(rank, draw(rows), draw(rows)))
    return rank, polys


class TestIntersectMergesCanonicalRows:
    """Merging canonical rows gives what polyhedron() gives on all of them,
    the empty polyhedron included."""

    @settings(max_examples=300)
    @given(canonical_polyhedra())
    def test_intersect_is_polyhedron_of_all_rows(self, drawn):
        rank, polys = drawn
        eqs = [c for P in polys for c in P.equalities]
        ineqs = [c for P in polys for c in P.inequalities]
        # the rows are merged by canonical key, with no Fraction hashed
        with no_fraction_hash():
            merged = intersect(*polys)
        assert merged == polyhedron(rank, eqs, ineqs)

    def test_empty_input(self):
        assert intersect(box(2), empty_polyhedron(2), box(2, 0, 3)) == empty_polyhedron(2)


@st.composite
def lp_instances(draw):
    """Random LPs of rank 1-4 with rational rhs and objective, duplicate and
    scaled rows, and equalities that depend on each other."""
    rank = draw(st.integers(1, 4))
    con = st.tuples(_rows(rank, -3, 3), _rationals())
    eqs = draw(st.lists(con, max_size=2))
    ineqs = draw(st.lists(con, max_size=6))
    if eqs and draw(st.booleans()):
        (r1, b1), (r2, b2) = eqs[0], eqs[-1]
        eqs.append((tuple(2 * a - c for a, c in zip(r1, r2)), 2 * b1 - b2))
    if ineqs and draw(st.booleans()):
        row, rhs = draw(st.sampled_from(ineqs))
        ineqs.append((tuple(3 * x for x in row), 3 * rhs + draw(st.integers(0, 1))))
    obj = draw(st.lists(_rationals(-3, 3), min_size=rank, max_size=rank))
    return obj, polyhedron(rank, eqs, ineqs)


class TestHashOfFields:
    """Equal polyhedra hash equal before and after a cached lookup, and an
    equal twin finds the cached point."""

    @settings(max_examples=100)
    @given(lp_instances())
    def test_equal_polyhedra_hash_equal(self, drawn):
        _, P = drawn
        rows = lambda cons: [(tuple(2 * x for x in r), 2 * b) for r, b in reversed(cons)]
        Q = polyhedron(P.rank, rows(P.equalities), rows(P.inequalities))
        assert P == Q and P is not Q
        assert hash(P) == hash(Q)
        x = relative_interior_point(P)  # a cache lookup stores the point under P
        R = polyhedron(P.rank, rows(P.equalities), rows(P.inequalities))
        assert {P: 1}[R] == 1 and relative_interior_point(R) is x
        assert hash(P) == hash(Q) == hash(R)


class TestWhatTheBenchmarkReads:
    """On the cells of an adelic amoeba and of a system's prevariety, the
    read-only equalities and inequalities views (the benchmark's oracles
    and tracer read them) are (tuple row, Fraction) pairs that print as
    complex_to_json does, a Polyhedron equals and hashes as its plain tuple,
    and an intersection and an equal Polyhedron share one cache entry."""

    @staticmethod
    def _complexes():
        amoeba = adelic_amoeba(parse_poly("x1 + x2 + 6", rank=2, field=FIELD_Q))
        return [amoeba.generic, *(C for _, C in amoeba.special), prevariety(pair_system_qz(), GENERIC)]

    def test_views_print_as_the_json(self):
        for C in self._complexes():
            for cell, d in zip(C.cells, complex_to_json(C)["cells"], strict=True):
                P = cell.polyhedron
                for view, name in ((P.equalities, "equalities"), (P.inequalities, "inequalities")):
                    assert type(view) is tuple
                    assert all(type(row) is tuple and type(rhs) is Fraction for row, rhs in view)
                    assert [{"row": list(row), "rhs": str(rhs)} for row, rhs in view] == d[name]

    def test_equal_and_hash_as_the_plain_tuple(self):
        for C in self._complexes():
            for cell in C.cells:
                P = cell.polyhedron
                assert P == tuple(P) == (P.rank, P.eqs, P.ineqs)
                assert hash(P) == hash(tuple(P)) == hash((P.rank, P.eqs, P.ineqs))

    def test_an_intersection_and_its_twin_share_a_cache_entry(self, fresh_caches):
        for C in self._complexes():
            cells = [cell.polyhedron for cell in C.cells]
            for A, B in zip(cells, cells[1:]):
                P = intersect(A, B)
                keyed_interior_point.cache_clear()
                found = keyed_interior_point(P)
                assert keyed_interior_point(Polyhedron(P.rank, P.eqs, P.ineqs)) is found
                info = keyed_interior_point.cache_info()
                assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


class TestFractionFreeKernel:
    """The integer tableau takes the pivots of the Fraction tableau, so
    every result field agrees with it."""

    @settings(max_examples=300)
    @given(lp_instances())
    def test_matches_fraction_reference(self, instance):
        obj, P = instance
        got = lp_solve(obj, P)
        want = reference_lp_solve(obj, P)
        assert type(got) is type(want) and got == want

    @settings(max_examples=80)
    @given(st.data())
    def test_values_match_brute_force(self, data):
        # a box cut by random rational halfspaces: bounded, possibly empty
        rank = data.draw(st.integers(1, 3))
        cuts = data.draw(st.lists(st.tuples(_rows(rank, -3, 3), _rationals()), max_size=3))
        P = intersect(box(rank, -2, 2), polyhedron(rank, (), cuts))
        obj = data.draw(st.lists(_rationals(-3, 3), min_size=rank, max_size=rank))
        for c in (obj, [-x for x in obj]):
            want = brute_force_lp(c, P)
            got = lp_solve(c, P)
            if want is None:
                assert isinstance(got, LPInfeasible)
            else:
                assert isinstance(got, LPOptimal) and got.value == want[0]
                assert contains_point(P, got.point)

    def test_inexact_division_raises(self):
        # entries that are not 3 times a tableau: 1 // 3 leaves a remainder
        T = [[2, 1], [1, 1]]
        with pytest.raises(InternalInvariantError):
            polyhedral._pivot(T, [0, 1], 3, 0, 0)


def _captured_certificates(monkeypatch, check_name, obj, P):
    """Solve obj over P and return the arguments of every call of the named
    check (the integer certificate data of the kernel)."""
    calls = []
    check = getattr(polyhedral, check_name)

    def spy(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(polyhedral, check_name, spy)
    lp_solve(obj, P)
    return calls


def _pushed_out(rows, rhs, neq, point, d):
    """point moved along its first constraint row until it violates it."""
    row, b = rows[0], rhs[0]
    t = abs(d * b - polyhedral._dot(row, point)) + 1
    return [x + t * a for x, a in zip(point, row)]


class TestCertificateChecks:
    """Optimal and unbounded outcomes are checked like infeasible ones: the
    kernel's own certificate passes, and a tampered one raises."""

    def test_optimal_by_hand(self):
        # maximize v over 0 <= v <= 3: multipliers (1, 0), point 3, d = 1
        rows, rhs = [(1,), (-1,)], [3, 0]
        polyhedral._check_optimal(rows, rhs, 0, [1], [1, 0], [3], 1)
        for lam, point in (([2, 1], [3]), ([0, -1], [3]), ([1, 0], [2]), ([1, 0], [4])):
            with pytest.raises(InternalInvariantError):
                polyhedral._check_optimal(rows, rhs, 0, [1], lam, point, 1)
        # v <= 3 written twice: (3, -1) combines to v and to 3, but a
        # negative multiplier on an inequality proves nothing
        rows, rhs = [(1,), (2,)], [3, 6]
        polyhedral._check_optimal(rows, rhs, 0, [1], [1, 0], [3], 1)
        with pytest.raises(InternalInvariantError):
            polyhedral._check_optimal(rows, rhs, 0, [1], [3, -1], [3], 1)
        # as equalities the same multipliers are a proof
        polyhedral._check_optimal(rows, rhs, 2, [1], [3, -1], [3], 1)

    def test_unbounded_by_hand(self):
        # maximize v over v >= 0 from v = 0: ray 1
        rows, rhs = [(-1,)], [0]
        polyhedral._check_unbounded(rows, rhs, 0, [1], [1], [0], 1)
        for ray, point in (([-1], [0]), ([0], [0]), ([1], [-1])):
            with pytest.raises(InternalInvariantError):
                polyhedral._check_unbounded(rows, rhs, 0, [1], ray, point, 1)
        # on the line v1 = v2 the ray must stay on the line
        rows, rhs = [(1, -1)], [0]
        polyhedral._check_unbounded(rows, rhs, 1, [1, 0], [1, 1], [0, 0], 1)
        with pytest.raises(InternalInvariantError):
            polyhedral._check_unbounded(rows, rhs, 1, [1, 0], [1, 0], [0, 0], 1)

    @settings(max_examples=60)
    @given(lp_instances())
    def test_tampered_optimal_certificates_raise(self, instance):
        obj, P = instance
        with pytest.MonkeyPatch.context() as mp:
            calls = _captured_certificates(mp, "_check_optimal", obj, P)
        for rows, rhs, neq, cobj, lam, point, d in calls:
            polyhedral._check_optimal(rows, rhs, neq, cobj, lam, point, d)
            for i in range(len(lam)):
                bad = list(lam)
                bad[i] += 1
                with pytest.raises(InternalInvariantError):
                    polyhedral._check_optimal(rows, rhs, neq, cobj, bad, point, d)
            if rows:
                bad = _pushed_out(rows, rhs, neq, point, d)
                with pytest.raises(InternalInvariantError):
                    polyhedral._check_optimal(rows, rhs, neq, cobj, lam, bad, d)

    @settings(max_examples=60)
    @given(lp_instances())
    def test_tampered_unbounded_certificates_raise(self, instance):
        obj, P = instance
        with pytest.MonkeyPatch.context() as mp:
            calls = _captured_certificates(mp, "_check_unbounded", obj, P)
        for rows, rhs, neq, cobj, ray, point, d in calls:
            polyhedral._check_unbounded(rows, rhs, neq, cobj, ray, point, d)
            with pytest.raises(InternalInvariantError):
                polyhedral._check_unbounded(rows, rhs, neq, cobj, [-x for x in ray], point, d)
            if rows:
                bad = _pushed_out(rows, rhs, neq, point, d)
                with pytest.raises(InternalInvariantError):
                    polyhedral._check_unbounded(rows, rhs, neq, cobj, ray, bad, d)
