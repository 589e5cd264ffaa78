from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix

from amoebas.lattices import (
    identity,
    independent_subset,
    primitive_vector,
    rank_of_rows,
)

from conftest import (
    WIDE_BOUNDARY,
    reference_quotient_map,
    reference_rank_of_rows,
    reference_smith,
)


def is_unimodular(M):
    # an integer matrix has an integer inverse iff det = +-1
    return abs(Matrix(M).det()) == 1


def diagonal(D):
    return [D[t][t] for t in range(min(len(D), len(D[0]) if D else 0))]


def mat_mul(A, B):
    return [[int(x) for x in row] for row in (Matrix(A) * Matrix(B)).tolist()]


class TestSmith:
    """The balancing oracle's quotients read sympy's Smith form with its
    nonzero invariants first and its kernel in the last columns of V."""

    def test_known_invariants(self):
        assert diagonal(reference_smith([[2, 0], [0, 3]])[1]) == [1, 6]
        assert diagonal(reference_smith([[2, 4], [6, 8]])[1]) == [2, 4]
        assert diagonal(reference_smith([[1, 0], [0, 0]])[1]) == [1, 0]

    def test_no_rows_or_no_columns(self):
        assert reference_smith([]) == ([], [], [])
        assert reference_smith([[], []]) == (identity(2), [[], []], [])

    def test_transform_identity_random(self, rng):
        for _ in range(60):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            U, D, V = reference_smith(A)
            assert mat_mul(U, mat_mul(A, V)) == D
            assert is_unimodular(U) and is_unimodular(V)
            diag = diagonal(D)
            assert all(D[i][j] == 0 for i in range(m) for j in range(n) if i != j)
            r = rank_of_rows(A)
            assert all(diag[:r]) and not any(diag[r:])
            assert all(diag[i + 1] % diag[i] == 0 for i in range(r - 1))

    def test_kernel_is_saturated_kernel(self, rng):
        for _ in range(40):
            m = rng.randint(1, 3)
            n = rng.randint(m, 4)
            A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
            r = rank_of_rows(A)
            V = reference_smith(A)[2]
            basis = [[V[i][j] for i in range(n)] for j in range(r, n)]
            assert len(basis) == n - r
            for v in basis:
                assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A)


class TestQuotientMap:
    def test_kill_e3(self):
        phi, rinv = reference_quotient_map([[0, 0, 1]], 3)
        assert len(phi) == 2
        assert all(row[2] == 0 for row in phi)
        assert mat_mul(phi, rinv) == identity(2)

    def test_diagonal_boundary(self):
        phi, _ = reference_quotient_map([[1, 1]], 2)
        assert len(phi) == 1
        assert phi[0][0] + phi[0][1] == 0
        assert abs(phi[0][0]) == 1  # up to sign this is (1, -1)

    def test_empty_boundary_identity(self):
        phi, rinv = reference_quotient_map([], 3)
        assert phi == identity(3) and rinv == identity(3)

    def test_wide_boundary(self):
        # ten generators in Z^24: both identities hold
        phi, rinv = reference_quotient_map(WIDE_BOUNDARY, 24)
        assert len(phi) == 14
        assert mat_mul(phi, rinv) == identity(14)
        for g in WIDE_BOUNDARY:
            assert all(sum(r * x for r, x in zip(row, g)) == 0 for row in phi)

    def test_split_surjection_random(self, rng):
        for _ in range(30):
            n = rng.randint(2, 4)
            k = rng.randint(1, n - 1)
            gens = []
            while len(gens) < k:
                cand = [rng.randint(-4, 4) for _ in range(n)]
                if len(gens) in independent_subset([*gens, cand]):
                    gens.append(cand)
            phi, rinv = reference_quotient_map(gens, n)
            assert mat_mul(phi, rinv) == identity(n - k)
            for g in gens:
                assert all(sum(r * x for r, x in zip(row, g)) == 0 for row in phi)


class TestVectors:
    def test_primitive_keeps_direction(self):
        assert primitive_vector((Fraction(2, 3), Fraction(-4, 3))) == (1, -2)
        assert primitive_vector((0, 6, -9)) == (0, 2, -3)

    def test_independent_subset(self):
        rows = [[1, 0], [2, 0], [0, 1], [1, 1]]
        assert independent_subset(rows) == [0, 2]


@st.composite
def row_lists(draw):
    """Rows of one length, all ints or mixed with Fractions, with planted
    dependencies: combinations of earlier rows inserted anywhere."""
    n = draw(st.integers(1, 5))
    entry = st.integers(-6, 6) | st.integers(-10**12, 10**12)
    if draw(st.booleans()):
        entry = entry | st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        if rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c, d = draw(entry), draw(entry)
            rows.insert(draw(st.integers(0, len(rows))), [c * x + d * y for x, y in zip(a, b)])
    return rows


class TestRankAgainstFractionReference:
    """The fraction-free echelon agrees with Gauss-Jordan on Fractions."""

    @settings(max_examples=200)
    @given(row_lists())
    def test_rank(self, rows):
        assert rank_of_rows(rows) == reference_rank_of_rows(rows)

    @settings(max_examples=200)
    @given(row_lists(), st.data())
    def test_span(self, rows, data):
        n = len(rows[0]) if rows else data.draw(st.integers(1, 3))
        v = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        if rows and data.draw(st.booleans()):
            v = [sum(c * row[k] for c, row in zip(v, rows)) for k in range(n)]
        want = reference_rank_of_rows(rows + [v]) == reference_rank_of_rows(rows)
        # greedy in order: the rows kept are those kept without v, and v is
        # kept last exactly when it is off their span (Halfspace's one pass)
        keep = independent_subset([*rows, v])
        assert [i for i in keep if i < len(rows)] == independent_subset(rows)
        assert (len(rows) not in keep) == want

    @settings(max_examples=200)
    @given(row_lists())
    def test_independent_subset(self, rows):
        chosen = []
        want = []
        for i, row in enumerate(rows):
            if reference_rank_of_rows(chosen + [row]) > len(chosen):
                chosen.append(row)
                want.append(i)
        assert independent_subset(rows) == want
