import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amoebas import archimedean
from amoebas.archimedean import (
    INSIDE,
    NOT_APPLICABLE,
    OUTSIDE,
    ArchQuery,
    evaluate_at,
    lopsided_outside,
    sampled_inside,
    sign_exp_sum,
    triangle_applicable,
    triangle_exact_membership,
)
from amoebas.errors import ExponentSpreadTooLarge, TermCountMismatch
from amoebas.laurent import make_laurent, parse_poly
from amoebas.lattices import smith_normal_form
from amoebas.scalars import FIELD_Q

from conftest import (
    outcome,
    rand_point,
    rand_poly_q,
    reference_lopsided_outside,
    reference_sampled_inside,
    reference_triangle_exact_membership,
)


def phase_search_inside(f, v, grid=100, band=1e-2):
    """Brute-force membership for rank-2 trinomials: scan the phase torus and
    look for a small residual relative to the term moduli scale."""
    q = ArchQuery.at(f, v)
    scale = sum(q.moduli())
    rho = [math.exp(-float(x)) for x in v]
    best = float("inf")
    for i in range(grid):
        for j in range(grid):
            x = (
                rho[0] * cmath.exp(2j * math.pi * i / grid),
                rho[1] * cmath.exp(2j * math.pi * j / grid),
            )
            best = min(best, abs(evaluate_at(f, x)))
    return best < band * scale


_RATIONALS = st.fractions(min_value=-8, max_value=8, max_denominator=10**12)
_SIGNED_RATIONALS = _RATIONALS.filter(lambda q: q != 0)


@st.composite
def polys_and_points(draw, terms=None):
    """A polynomial over Q of rank 2 or 3 and a rational point."""
    rank = draw(st.sampled_from([2, 3]))
    s = terms or draw(st.integers(2, 5))
    exps = draw(st.lists(
        st.tuples(*[st.integers(-3, 3)] * rank), min_size=s, max_size=s, unique=True
    ))
    coeffs = draw(st.lists(
        st.fractions(-50, 50, max_denominator=30).filter(bool), min_size=s, max_size=s
    ))
    v = draw(st.tuples(*[st.fractions(-6, 6, max_denominator=4)] * rank))
    return make_laurent(rank, FIELD_Q, list(zip(exps, coeffs))), v


@st.composite
def planted_ties(draw, margin=0):
    """All term moduli share one exponent at v, and |a_0| is the sum of the
    other |a_j| plus margin: an exact tie for margin 0."""
    rank = draw(st.sampled_from([2, 3]))
    s = draw(st.integers(3, 5))
    num = draw(st.tuples(*[st.integers(-4, 4)] * rank))
    v = tuple(Fraction(n, draw(st.integers(1, 3))) for n in num)
    den = math.lcm(*(x.denominator for x in v))
    w = [int(x * den) for x in v]  # an integer vector parallel to v
    # integer vectors orthogonal to w span the exponent differences
    ortho = [
        tuple(w[j] if k == i else -w[i] if k == j else 0 for k in range(rank))
        for i in range(rank) for j in range(i + 1, rank)
    ]
    if not any(any(o) for o in ortho):
        ortho = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
    base = draw(st.tuples(*[st.integers(-2, 2)] * rank))
    steps = draw(st.lists(
        st.tuples(*[st.integers(-2, 2)] * len(ortho)), min_size=s, max_size=s, unique=True
    ))
    exps = sorted(
        {tuple(b + sum(c * o[k] for c, o in zip(m, ortho)) for k, b in enumerate(base)) for m in steps}
    )
    assume(len(exps) == s)
    lead = draw(st.sampled_from(range(s)))
    others = [
        draw(st.fractions(1, 20, max_denominator=12).filter(bool)) for _ in range(s - 1)
    ]
    mags = others[:lead] + [sum(others) + margin] + others[lead:]
    signs = [draw(st.sampled_from([1, -1])) for _ in range(s)]
    f = make_laurent(rank, FIELD_Q, [(u, c * m) for u, c, m in zip(exps, signs, mags)])
    return f, v


# small coefficients and points with zero coordinates make exact ties such
# as 2 - 1 - 1 at the origin common
SMALL_COEFFS = st.sampled_from(
    [Fraction(c) for c in (1, -1, 2, -2, 3)] + [Fraction(1, 2), Fraction(-3, 2)]
)
SMALL_POINT_COORDS = st.sampled_from(
    [Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-2)]
)


@st.composite
def small_q_polys(draw, rank=None, terms=None):
    """A polynomial over Q of rank 1 to 3 with 2 to 4 terms of small
    exponents and coefficients."""
    rank = rank or draw(st.integers(1, 3))
    s = terms or draw(st.integers(2, 4))
    exps = draw(st.lists(
        st.tuples(*[st.integers(-2, 2)] * rank), min_size=s, max_size=s, unique=True
    ))
    return make_laurent(rank, FIELD_Q, [(e, draw(SMALL_COEFFS)) for e in exps])


@st.composite
def small_q_cases(draw):
    """A small polynomial over Q with a small rational point."""
    f = draw(small_q_polys())
    return f, tuple(draw(SMALL_POINT_COORDS) for _ in range(f.rank))


class TestSignExpSum:
    def test_exact_cancellation(self):
        assert sign_exp_sum([(2, 0), (-1, 0), (-1, 0)]) == 0

    def test_strict_signs(self):
        assert sign_exp_sum([(1, 1), (-2, 0)]) == 1  # e > 2
        assert sign_exp_sum([(1, 1), (-3, 0)]) == -1  # e < 3

    def test_tiny_margin_decided(self):
        # e^(1/1000) vs the rational 1 + 1/1000: strictly larger, certify it
        assert sign_exp_sum([(1, Fraction(1, 1000)), (Fraction(-1001, 1000), 0)]) == 1

    def test_signed_coefficients(self):
        assert sign_exp_sum([(-3, 0), (1, 1)]) == -1  # e < 3
        assert sign_exp_sum([(Fraction(-1, 3), 1), (1, 0)]) == 1  # e < 3
        assert sign_exp_sum([(-1, 1), (-1, -1), (3, 0)]) == -1  # e + 1/e > 3
        # the t = 0 group cancels exactly and leaves -exp(-50)
        assert sign_exp_sum([(Fraction(-5, 2), 0), (Fraction(5, 2), 0), (-1, -50)]) == -1

    def test_exponents_of_large_height(self):
        # exp(1 + 10^-40) - e is about 2.7e-40: refinement must pass 64 bits
        t = Fraction(10**40 + 1, 10**40)
        assert sign_exp_sum([(1, t), (-1, 1)]) == 1
        assert sign_exp_sum([(-1, t), (1, 1)]) == -1
        tiny = Fraction(1, 10**50)
        assert sign_exp_sum([(1 + tiny, tiny), (-1, 0)]) == 1
        assert sign_exp_sum([(Fraction(-(10**30 + 7), 10**30), Fraction(3**40, 2**60)), (1, 0)]) == -1

    @settings(max_examples=200)
    @given(st.lists(st.tuples(_SIGNED_RATIONALS, _RATIONALS), min_size=1, max_size=5))
    def test_agrees_with_high_precision(self, terms):
        with mpmath.workprec(2000):
            value = mpmath.fsum(
                mpmath.mpf(q.numerator) / q.denominator * mpmath.exp(mpmath.mpf(t.numerator) / t.denominator)
                for q, t in terms
            )
            decided = abs(value) > mpmath.mpf(2) ** -1000
        sign = sign_exp_sum(terms)
        if decided:
            assert sign == (1 if value > 0 else -1)
        else:  # nonzero sums this small do not arise from these draws
            assert sign == 0


class TestEnclosure:
    @settings(max_examples=200)
    @given(st.lists(st.tuples(_SIGNED_RATIONALS, _RATIONALS), min_size=1, max_size=5))
    def test_bounds_contain_each_term(self, terms):
        e, bounds = archimedean._enclose(terms)
        with mpmath.workprec(600):
            for (q, t), (lo, hi) in zip(terms, bounds):
                # 600 bits: far finer than the unit of the bounds
                x = mpmath.mpf(q.numerator) / q.denominator
                x *= mpmath.exp(mpmath.mpf(t.numerator) / t.denominator)
                x = mpmath.ldexp(x, -e)
                assert lo <= x <= hi
                # 64-bit enclosures: |t| <= 8 costs at most a few of the bits
                assert hi - lo <= 64


class TestTriangle:
    def test_boundary_inside(self, ex_line_q):
        assert triangle_exact_membership(ex_line_q, (0, 0)) == INSIDE

    def test_outside_along_diagonal(self, ex_line_q):
        assert triangle_exact_membership(ex_line_q, (1, 1)) == OUTSIDE

    def test_univariate_not_applicable(self):
        f = parse_poly("x1^2 + x1 + 1", rank=1, field=FIELD_Q)
        assert triangle_exact_membership(f, (0,)) == NOT_APPLICABLE
        # and the gate matters: the naive triangle inequality would accept a
        # whole interval while the true membership set is the single point 0
        w = sampled_inside(f, (0,))
        assert w is not None
        assert sampled_inside(f, (Fraction(1, 4),), trials=4) is None

    def test_term_count_enforced(self, ex_curve_q):
        with pytest.raises(TermCountMismatch):
            triangle_exact_membership(ex_curve_q, (0, 0))

    def test_agrees_with_phase_search(self, rng):
        count = 0
        while count < 12:
            f = rand_poly_q(rng, rank=2, terms=3)
            if not triangle_applicable(f):
                continue
            v = rand_point(rng, 2, num=3, den=2)
            verdict = triangle_exact_membership(f, v)
            # skip near-boundary points so the coarse oracle is decisive
            q = ArchQuery.at(f, v)
            r = sorted(q.moduli())
            if abs(r[2] - r[1] - r[0]) < 0.05 * sum(r):
                continue
            count += 1
            assert phase_search_inside(f, v) == (verdict == INSIDE)

    @settings(max_examples=300)
    @given(st.integers(2, 5).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(-6, 6)] * n), min_size=3, max_size=3, unique=True)))
    def test_applicable_agrees_with_smith_form(self, exps):
        # the gcd of the 2 x 2 minors against both Smith invariants being one
        f = make_laurent(len(exps[0]), FIELD_Q, [(u, 1) for u in exps])
        rows = [[a - c for a, c in zip(u, exps[2])] for u in exps[:2]]
        D = smith_normal_form(rows)[1]
        assert triangle_applicable(f) == (D[0][0] == D[1][1] == 1)


class TestLopsided:
    def test_far_out_dominates(self):
        f = parse_poly("x1 + x2 + 1", rank=2, field=FIELD_Q)
        assert lopsided_outside(f, (10, 10))
        assert not lopsided_outside(f, (0, 0))

    def test_pinching_point_not_lopsided(self, ex_curve_q):
        assert not lopsided_outside(ex_curve_q, (0, 0))


class TestAgainstPerTermReference:
    """The shared-bound dominance loop against one exact sign_exp_sum per
    term, on random points and on ties that force the exact fallback."""

    @settings(max_examples=150)
    @given(polys_and_points())
    def test_lopsided_random(self, case):
        f, v = case
        assert lopsided_outside(f, v) == reference_lopsided_outside(f, v)

    @settings(max_examples=150)
    @given(polys_and_points(terms=3))
    def test_triangle_random(self, case):
        f, v = case
        assert triangle_exact_membership(f, v) == reference_triangle_exact_membership(f, v)

    @settings(max_examples=100)
    @given(st.sampled_from([0, Fraction(1, 10**40), Fraction(-1, 10**40)]).flatmap(planted_ties))
    def test_planted_ties(self, case):
        f, v = case
        want = reference_lopsided_outside(f, v)
        assert lopsided_outside(f, v) == want
        if f.nterms == 3:
            verdict = triangle_exact_membership(f, v)
            assert verdict == reference_triangle_exact_membership(f, v)
            assert verdict in (NOT_APPLICABLE, OUTSIDE if want else INSIDE)

    def test_near_tie_above_is_outside(self):
        # |a_0| exceeds the sum of the others by 10^-40: far below the first
        # enclosure's resolution, so only the exact fallback can certify it
        eps = Fraction(1, 10**40)
        f = make_laurent(2, FIELD_Q, [((0, 0), 2 + eps), ((1, 0), -1), ((0, 1), -1)])
        assert lopsided_outside(f, (0, 0))
        assert triangle_exact_membership(f, (0, 0)) == OUTSIDE
        g = make_laurent(2, FIELD_Q, [((0, 0), 2 - eps), ((1, 0), -1), ((0, 1), -1)])
        assert not lopsided_outside(g, (0, 0))
        assert triangle_exact_membership(g, (0, 0)) == INSIDE

    def test_exact_tie_is_inside(self):
        f = make_laurent(2, FIELD_Q, [((0, 0), 2), ((1, 0), -1), ((0, 1), -1)])
        assert not lopsided_outside(f, (0, 0))
        assert triangle_exact_membership(f, (0, 0)) == INSIDE


class TestSampledInside:
    def test_boundary_witness_exact(self, ex_line_q):
        w = sampled_inside(ex_line_q, (0, 0))
        assert w is not None
        assert abs(w[0] - 1) < 1e-9 and abs(w[1] - 1) < 1e-9

    def test_unknown_when_lopsided(self, ex_line_q):
        assert sampled_inside(ex_line_q, (1, 1), trials=8) is None

    def test_univariate_root(self):
        f = parse_poly("x1 - 1", rank=1, field=FIELD_Q)
        w = sampled_inside(f, (0,))
        assert w is not None and abs(w[0] - 1) < 1e-12

    def test_residual_verified(self, ex_curve_q):
        w = sampled_inside(ex_curve_q, (Fraction(1, 2), Fraction(1, 2)))
        assert w is not None
        q = ArchQuery.at(ex_curve_q, (Fraction(1, 2), Fraction(1, 2)))
        assert abs(evaluate_at(ex_curve_q, w)) < 1e-9 * sum(q.moduli())

    def test_exponent_spread_guard(self, monkeypatch):
        # the slice solver must not run: it would allocate one coefficient
        # per exponent in the spread
        def no_slice(*args):
            raise AssertionError("slice solved past the spread guard")

        limit = archimedean._MAX_EXPONENT_SPREAD
        with monkeypatch.context() as mp:
            mp.setattr(archimedean, "_slice_roots", no_slice)
            for text, rank in (("x1^99999999 - 1", 1), (f"x1^{limit + 1}*x2 + x2 + 3", 2)):
                with pytest.raises(ExponentSpreadTooLarge):
                    sampled_inside(parse_poly(text, rank=rank, field=FIELD_Q), (0,) * rank)
        w = sampled_inside(parse_poly(f"x1^{limit} - 1", rank=1, field=FIELD_Q), (0,))
        assert w is not None and abs(abs(w[0]) - 1) < 1e-9

    def test_soundness_500_random(self, rng):
        for _ in range(500):
            f = rand_poly_q(rng, rank=2, terms=rng.randint(2, 4))
            v = rand_point(rng, 2, num=4, den=2)
            if lopsided_outside(f, v):
                assert sampled_inside(f, v, trials=2) is None


class TestSamplerAgainstReference:
    """The sampler with one probe for the sweep and the bisection against the
    copy with a probe each: the same witness floats, the same errors and the
    same seeded draws."""

    @settings(max_examples=80)
    @given(st.one_of(small_q_cases(), planted_ties()), st.integers(1, 5), st.integers(0, 3))
    def test_same_witness_and_draws(self, case, trials, seed):
        f, v = case
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = outcome(sampled_inside, f, v, trials=trials, rng=rng)
        assert got == outcome(reference_sampled_inside, f, v, trials=trials, rng=ref_rng)
        assert rng.getstate() == ref_rng.getstate()
