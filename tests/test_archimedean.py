import cmath
import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

import amoebas
from amoebas import archimedean, classify
from amoebas.archimedean import (
    ArchQuery,
    evaluate_at,
    sampled_inside,
    sign_exp_sum,
    triangle_applicable,
)
from amoebas.classify import INSIDE, LOPSIDED, TRIANGLE
from amoebas.errors import (
    DegenerateSlice,
    ExponentSpreadTooLarge,
    PointTooLarge,
    TermCountMismatch,
)
from amoebas.laurent import make_laurent, parse_poly
from amoebas.scalars import FIELD_Q

from conftest import (
    outcome,
    rand_point,
    rand_poly_q,
    reference_canonical_phase_tuples,
    reference_lopsided_outside,
    reference_point_kind,
    reference_sampled_inside,
)


def point_kind(f, v):
    """The kind that classify's part test reads off the dominance at a lone
    point: TRIANGLE, LOPSIDED, INSIDE or None."""
    return classify._Part(f, None, None).outside(v, None)


def certified_outside(f, v):
    return point_kind(f, v) in (TRIANGLE, LOPSIDED)


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


@st.composite
def vanishing_slices(draw):
    """A polynomial over Q of rank 2 or 3 solved for x1, whose lowest or
    highest x1-coefficient, or both, is c * (x2^e - 1) times a monomial, with
    a point where v2 = 0: at the swept phase 0, x2 = 1 exactly and that
    coefficient vanishes, so the slice there loses its leading or trailing
    coefficient while its neighbours keep theirs."""
    rank = draw(st.sampled_from([2, 3]))
    spread = draw(st.integers(2, 4))  # of x1, above that of x2 and x3

    def rest():
        return tuple(draw(st.integers(0, 1)) for _ in range(rank - 2))

    vanishing = draw(st.sampled_from([(0,), (spread,), (0, spread)]))
    terms = {}
    for level in vanishing:
        e, r, c = draw(st.integers(1, spread - 1)), rest(), draw(SMALL_COEFFS)
        terms[(level, e) + r] = c
        terms[(level, 0) + r] = -c
    for level in range(spread + 1):
        if level not in vanishing and (level in (0, spread) or draw(st.booleans())):
            terms[(level, draw(st.integers(0, 1))) + rest()] = draw(SMALL_COEFFS)
    v = (draw(SMALL_POINT_COORDS), Fraction(0)) + tuple(
        draw(SMALL_POINT_COORDS) for _ in range(rank - 2))
    return make_laurent(rank, FIELD_Q, terms), v


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

    @pytest.mark.parametrize("bits", [100, 1000, 4095])
    def test_huge_exponents_keep_their_width(self, bits):
        # t is enclosed past its integer bits, so the bounds stay as narrow
        # as for a small t
        terms = [(Fraction(1), Fraction(2**bits - 1, 3)), (Fraction(-3, 7), Fraction(-(2**bits), 7))]
        e, bounds = archimedean._enclose(terms)
        with mpmath.workprec(bits + 600):
            for (q, t), (lo, hi) in zip(terms, bounds):
                x = mpmath.mpf(q.numerator) / q.denominator
                x *= mpmath.exp(mpmath.mpf(t.numerator) / t.denominator)
                assert lo <= mpmath.ldexp(x, -e) <= hi
        assert bounds[0][1] - bounds[0][0] <= 64

    @pytest.mark.parametrize("prec", [1024, 4096])
    def test_integer_exponents_past_600_bits(self, prec):
        # a nonzero integer t is enclosed as exp(t - 1/2) exp(1/2) there
        terms = [(Fraction(1), Fraction(2**1000 + 1)), (Fraction(-3, 7), Fraction(-5)), (Fraction(2), Fraction(0))]
        e, bounds = archimedean._enclose(terms, prec)
        with mpmath.workprec(prec + 1200):
            for (q, t), (lo, hi) in zip(terms, bounds):
                x = mpmath.mpf(q.numerator) / q.denominator * mpmath.exp(int(t))
                assert lo <= mpmath.ldexp(x, -e) <= hi
        assert bounds[0][1] - bounds[0][0] <= 64

    @pytest.mark.parametrize("shift", ["0", "Fraction(1, 2**3000)"])
    def test_integer_exponents_of_4095_bits_in_bounded_time(self, shift):
        # in a child process, so that mpmath's integer power path, which
        # raises e to 2**4095 - 1 by repeated squaring, fails by timeout:
        # the two terms differ by a relative 2**-4000, past 600 bits.  A
        # shift of 2**-3000 is below the ulp at 1024 and 2048 bits, where
        # the enclosure of a non-integer t still has integer endpoints
        code = (
            "from fractions import Fraction\n"
            "import mpmath\n"
            "from amoebas.classify import classify_arch_point\n"
            "from amoebas.laurent import make_laurent\n"
            "with mpmath.workprec(4200):\n"
            "    q = Fraction(int(mpmath.floor(mpmath.ldexp(mpmath.exp(-1), 4000))), 2**4000)\n"
            "f = make_laurent(2, 'Q', [((1, 0), 1), ((0, 1), -q)])\n"
            f"d = {shift}\n"
            "v = classify_arch_point(f, (2 - 2**4095 + d, 1 - 2**4095 + d))\n"
            "print(v.verdict, v.certificate['kind'])\n"
        )
        src = os.path.dirname(os.path.dirname(amoebas.__file__))
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=10, env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["certified-outside", "lopsided"]


class TestHugePoints:
    def test_refused_at_the_precision_cap(self):
        # one term exponent -<u, v> at 2**_MAX_PRECISION in magnitude
        f = parse_poly("x1 + x2 + 1", field=FIELD_Q)
        cap = 2**archimedean._MAX_PRECISION
        with pytest.raises(PointTooLarge):
            ArchQuery.at(f, (cap, 0))
        with pytest.raises(PointTooLarge):
            ArchQuery.at(f, (0, Fraction(-cap)))
        assert min(ArchQuery.at(f, (cap - 1, 0)).exponents) == 1 - cap

    def test_largest_accepted_point_is_decided_at_once(self):
        f = parse_poly("x1 + x2 + x3 + 1", field=FIELD_Q)
        big = Fraction(2**archimedean._MAX_PRECISION - 1, 2)
        start = time.perf_counter()
        assert point_kind(f, (big, Fraction(1, 2), -big)) == LOPSIDED
        assert sampled_inside(f, (big, Fraction(1, 2), -big), trials=1) is None
        assert time.perf_counter() - start < 5


class TestTriangle:
    def test_boundary_inside(self, ex_line_q):
        assert point_kind(ex_line_q, (0, 0)) == INSIDE

    def test_outside_along_diagonal(self, ex_line_q):
        assert point_kind(ex_line_q, (1, 1)) == TRIANGLE

    def test_univariate_not_applicable(self):
        f = parse_poly("x1^2 + x1 + 1", rank=1, field=FIELD_Q)
        assert not triangle_applicable(f)
        assert point_kind(f, (0,)) is None
        # and the gate matters: the naive triangle inequality would accept a
        # whole interval while the true membership set is the single point 0
        w = sampled_inside(f, (0,))
        assert w is not None
        assert sampled_inside(f, (Fraction(1, 4),), trials=4) is None

    def test_term_count_enforced(self, ex_curve_q):
        with pytest.raises(TermCountMismatch):
            triangle_applicable(ex_curve_q)

    def test_agrees_with_phase_search(self, rng):
        count = 0
        while count < 12:
            f = rand_poly_q(rng, rank=2, terms=3)
            if not triangle_applicable(f):
                continue
            v = rand_point(rng, 2, num=3, den=2)
            verdict = point_kind(f, v)
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
        D = smith_normal_form(Matrix(rows))
        assert triangle_applicable(f) == (abs(D[0, 0]) == abs(D[1, 1]) == 1)


class TestLopsided:
    def test_far_out_dominates(self):
        f = parse_poly("x1 + x2 + 1", rank=2, field=FIELD_Q)
        assert certified_outside(f, (10, 10))
        assert not certified_outside(f, (0, 0))
        g = parse_poly("x1 + x2 + x1*x2 + 1", rank=2, field=FIELD_Q)
        assert point_kind(g, (-10, -10)) == LOPSIDED

    def test_pinching_point_not_lopsided(self, ex_curve_q):
        assert point_kind(ex_curve_q, (0, 0)) is None


class TestAgainstPerTermReference:
    """The shared-bound dominance loop against one exact sign_exp_sum per
    term, on random points and on ties that force the exact fallback."""

    @settings(max_examples=150)
    @given(polys_and_points())
    def test_lopsided_random(self, case):
        f, v = case
        assert certified_outside(f, v) == reference_lopsided_outside(f, v)

    @settings(max_examples=150)
    @given(polys_and_points(terms=3))
    def test_triangle_random(self, case):
        f, v = case
        assert point_kind(f, v) == reference_point_kind(f, v)

    @settings(max_examples=100)
    @given(st.sampled_from([0, Fraction(1, 10**40), Fraction(-1, 10**40)]).flatmap(planted_ties))
    def test_planted_ties(self, case):
        f, v = case
        want = reference_lopsided_outside(f, v)
        kind = point_kind(f, v)
        assert kind == reference_point_kind(f, v)
        assert kind in ((TRIANGLE, LOPSIDED) if want else (INSIDE, None))

    def test_near_tie_above_is_outside(self):
        # |a_0| exceeds the sum of the others by 10^-40: far below the first
        # enclosure's resolution, so only the exact fallback can certify it
        eps = Fraction(1, 10**40)
        f = make_laurent(2, FIELD_Q, [((0, 0), 2 + eps), ((1, 0), -1), ((0, 1), -1)])
        assert point_kind(f, (0, 0)) == TRIANGLE
        g = make_laurent(2, FIELD_Q, [((0, 0), 2 - eps), ((1, 0), -1), ((0, 1), -1)])
        assert point_kind(g, (0, 0)) == INSIDE

    def test_exact_tie_is_inside(self):
        f = make_laurent(2, FIELD_Q, [((0, 0), 2), ((1, 0), -1), ((0, 1), -1)])
        assert point_kind(f, (0, 0)) == INSIDE


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

    def test_common_monomial_factor_out_of_float_range(self):
        # every term modulus of f overflows at the first point and underflows
        # at the second, so the sampler runs on f * x^(-u_k)
        f = parse_poly("x1*x2^500 - x2^501 + x1^2*x2^500", rank=2, field=FIELD_Q)
        g = parse_poly("x1 - x2 + x1^2", rank=2, field=FIELD_Q)
        for v in [(-5, -10), (2, 2)]:
            w = sampled_inside(f, v)
            assert w is not None
            assert all(abs(abs(x) - math.exp(-c)) <= 1e-9 * math.exp(-c) for x, c in zip(w, v))
            assert abs(evaluate_at(g, w)) < 1e-9 * sum(ArchQuery.at(g, v).moduli())

    def test_overflowing_coordinate_modulus_has_no_witness(self):
        # exp(750) overflows: a fixed modulus, then the target modulus; and a
        # coordinate past the float range
        cases = [("x1 + 1", (0, -750)), ("x1 + x2 + 1", (-750, -750)), ("x1 + 1", (0, -10**400))]
        for text, v in cases:
            assert sampled_inside(parse_poly(text, rank=2, field=FIELD_Q), v) is None

    def test_zero_coordinate_modulus_after_monomial_shift(self):
        # the term moduli underflow, so the sampler shifts by a monomial;
        # the shifted terms hold negative powers of exp(-750) == 0.0
        f = parse_poly("x1*x2 + x1 + x2", rank=2, field=FIELD_Q)
        assert sampled_inside(f, (750, 750)) is None

    def test_no_witness_with_a_zero_coordinate(self):
        # x1 = -1 with x2 = 0.0 is not a point of the torus; a subnormal
        # modulus is still a float point
        f = parse_poly("x1 + 1", rank=2, field=FIELD_Q)
        assert sampled_inside(f, (0, 750)) is None
        w = sampled_inside(f, (0, 740))
        assert w is not None and w[1] != 0 and abs(w[0] + 1) < 1e-12

    def test_slice_cancelling_to_a_monomial_is_skipped(self):
        # at v2 = 0 the swept phase 0 gives x2 = 1, where the slice is 3 * x1
        f = parse_poly("x1^2*x2 - x1^2 + 3*x1 + x2 - 1", rank=2, field=FIELD_Q)
        v = (Fraction(1, 2), Fraction(0))
        w = sampled_inside(f, v)
        assert w is not None
        assert all(abs(abs(x) - math.exp(-c)) <= 1e-9 * math.exp(-c) for x, c in zip(w, v))
        assert abs(evaluate_at(f, w)) < 1e-9 * sum(ArchQuery.at(f, v).moduli())

    def test_exponent_spread_guard(self, monkeypatch):
        # no slice may be built: each allocates one coefficient per exponent
        # in the spread
        def no_slice(*args):
            raise AssertionError("slice built past the spread guard")

        limit = archimedean._MAX_EXPONENT_SPREAD
        with monkeypatch.context() as mp:
            mp.setattr(archimedean, "_slice_rows", no_slice)
            for text, rank in (("x1^99999999 - 1", 1), (f"x1^{limit + 1}*x2 + x2 + 3", 2)):
                with pytest.raises(ExponentSpreadTooLarge):
                    sampled_inside(parse_poly(text, rank=rank, field=FIELD_Q), (0,) * rank)
        w = sampled_inside(parse_poly(f"x1^{limit} - 1", rank=1, field=FIELD_Q), (0,))
        assert w is not None and abs(abs(w[0]) - 1) < 1e-9

    def test_soundness_500_random(self, rng):
        for _ in range(500):
            f = rand_poly_q(rng, rank=2, terms=rng.randint(2, 4))
            v = rand_point(rng, 2, num=4, den=2)
            if certified_outside(f, v):
                assert sampled_inside(f, v, trials=2) is None


class TestSamplerAgainstReference:
    """The sampler, which solves a sweep's slices in one stacked eigenvalue
    call, against the copy with a probe each for the sweep and the bisection
    and one np.roots call per slice: the same witness floats and the same
    errors."""

    @settings(max_examples=150)
    @given(st.one_of(small_q_cases(), planted_ties(), vanishing_slices()),
           st.sampled_from([1, 2, 3, 5, 20]))
    def test_same_witness_and_errors(self, case, trials):
        f, v = case
        got = outcome(sampled_inside, f, v, trials=trials)
        want = outcome(reference_sampled_inside, f, v, trials=trials)
        if want == outcome(min, []):
            # the reference fails on a slice that cancels to a monomial,
            # which the sampler skips like any other monomial slice
            kind, w = got
            assert kind in ("ok", DegenerateSlice)
            if kind == "ok" and w is not None:
                assert abs(evaluate_at(f, w)) < 1e-9 * sum(ArchQuery.at(f, v).moduli())
            return
        assert got == want


# the fourth-root phases the sampler tried first before its phases were all
# dyadic, in their order
_FOURTH_ROOTS = (0.0, math.pi, math.pi / 2, 3 * math.pi / 2)


class TestDyadicPhases:
    @settings(max_examples=60)
    @given(st.integers(1, 3), st.integers(1, 300), st.integers(1, 300))
    def test_prefix_and_fourth_roots_first(self, length, n, m):
        n, m = sorted((n, m))
        short = archimedean._canonical_phase_tuples(n, length)
        full = archimedean._canonical_phase_tuples(m, length)
        assert len(short) == n and len(full) == m
        assert _float_bits(short) == _float_bits(full[:n])
        fourth = list(itertools.product(_FOURTH_ROOTS, repeat=length))
        assert _float_bits(full[: len(fourth)]) == _float_bits(fourth[:m])

    @settings(max_examples=30)
    @given(st.integers(1, 3), st.integers(1, 600))
    def test_matches_the_sorted_reference(self, length, count):
        got = archimedean._canonical_phase_tuples(count, length)
        assert _float_bits(got) == _float_bits(reference_canonical_phase_tuples(count, length))


def _float_bits(tuples):
    return [tuple(x.hex() for x in t) for t in tuples]


def _bits(roots):
    return None if roots is None else [(r.real.hex(), r.imag.hex()) for r in roots]


def _np_nonzero_roots(row):
    """np.roots of the row cut of its leading zeros, without its zero
    roots; None when that leaves at most one coefficient."""
    lead = next((i for i, x in enumerate(row) if abs(x) > 0), len(row))
    if len(row) - lead <= 1:
        return None
    return [complex(r) for r in np.roots(np.array(row[lead:], dtype=complex)) if r != 0]


def _root_outcome(solve):
    """The float bits of the roots solve() gives, or the refusal of a
    companion matrix that is not finite (np.roots raises LinAlgError,
    _nonzero_roots OverflowError)."""
    try:
        return _bits(solve())
    except (OverflowError, np.linalg.LinAlgError):
        return "not finite"


def _coefficients(top):
    """A coefficient: zero one time in four, else of modulus from 10**-top
    to 10**top."""
    nonzero = st.builds(
        lambda sign, re, im, e: complex(sign * re, im) * 10.0**e,
        st.sampled_from((1, -1)),
        st.floats(0.1, 9),
        st.floats(-9, 9),
        st.integers(-top, top - 1),
    )
    return st.builds(lambda k, c: c if k else 0j, st.integers(0, 3), nonzero)


def _root_rows(width=None, top=300):
    """Rows of 0-2 leading zeros, 1-7 coefficients and 0-2 trailing zeros,
    cut to their last width entries when width is given: all-zero rows,
    lone coefficients and polynomials of orders 1-6 with inner zeros.
    With top=100 no quotient of two coefficients leaves the float range,
    so every companion matrix is finite."""
    lead, trail = st.integers(0, 2), st.integers(0, 2)
    body = st.lists(_coefficients(top), min_size=1, max_size=7)
    rows = st.builds(lambda a, b, c: [0j] * a + b + [0j] * c, lead, body, trail)
    return rows.map(lambda r: r[-width:]) if width else rows


class TestStackedRoots:
    def test_rows_match_np_roots(self):
        # degrees 1 to 6 in one stack, leading, trailing and inner zeros, and
        # rows that are zero or a lone coefficient once cut
        rng = random.Random(11)
        rows = [[0j] * 7, [0j] * 6 + [2 + 1j], [0j] * 3 + [1j, 0j, 0j, 0j]]
        for _ in range(400):
            lead, trail = rng.randint(0, 5), rng.randint(0, 5)
            mid = max(1, 7 - lead - trail)
            body = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 10 ** rng.randint(-8, 8)
                    if rng.random() > 0.15 else 0j for _ in range(mid)]
            body[0] = body[0] or 1 + 0j
            rows.append(([0j] * lead + body + [0j] * trail)[:7])
        want = []
        for row in rows:
            p = np.array(row)[np.nonzero(np.abs(row))[0][0]:] if any(row) else []
            want.append(
                None if len(p) <= 1 else [complex(r) for r in np.roots(p) if r != 0])
        got = list(archimedean._nonzero_roots(rows))
        assert [_bits(r) for r in got] == [_bits(r) for r in want]
        spans = [[i for i, c in enumerate(r) if c] for r in rows if any(r)]
        assert {nz[-1] - nz[0] for nz in spans} == {0, 1, 2, 3, 4, 5, 6}

    @pytest.mark.filterwarnings("ignore:overflow encountered in divide", "ignore:invalid value encountered in divide")
    def test_non_finite_companion_raises_when_reached(self):
        # 1 / 5e-324 overflows, so np.roots refuses the middle row; the rows
        # before it are still solved, and the row itself raises
        # OverflowError when it is reached, alone or in a stack
        rows = np.array([[1, -3, 2], [5e-324, 1, 1], [1, 0, -1]], dtype=complex).tolist()
        with pytest.raises(np.linalg.LinAlgError):
            np.roots(rows[1])
        found = archimedean._nonzero_roots(rows)
        assert _bits(next(found)) == _bits([complex(r) for r in np.roots(rows[0])])
        with pytest.raises(OverflowError):
            next(found)
        with pytest.raises(OverflowError):
            next(archimedean._nonzero_roots(rows[1:2]))

    @settings(max_examples=400, deadline=None)
    @given(_root_rows(), st.lists(_root_rows(7), max_size=3))
    @pytest.mark.filterwarnings("ignore:overflow encountered in divide", "ignore:invalid value encountered in divide")
    def test_one_row_matches_the_stack_and_np_roots(self, row, others):
        # the row alone is a stack of one; the same row in a stack of at
        # least two matrices of its order, and through np.roots
        width = max(len(row), 7)
        row = [0j] * (width - len(row)) + row
        others = [[0j] * (width - len(r)) + r for r in others]
        outcome = lambda rows: _root_outcome(lambda: next(archimedean._nonzero_roots(rows)))
        alone = outcome([row])
        event(alone if isinstance(alone, str) else "no polynomial" if alone is None else f"{len(alone)} roots")
        assert alone == outcome([row, row, *others])
        assert alone == _root_outcome(lambda: _np_nonzero_roots(row))

    def test_edge_rows_and_a_1x1_companion_go_to_eigvals(self, monkeypatch):
        # a zero row and a lone coefficient have no roots to solve; a linear
        # row's 1 x 1 companion matrix is still solved by eigvals, never read
        # off its entry: LAPACK rescales a matrix whose norm is past about
        # 1e+-138, and its eigenvalue can then differ from the entry in the
        # last bits or in the sign of a zero
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape[-2:]) or eigvals(a))
        rows = [[0j, 0j, 0j], [0j, 0j, 3 + 1j], [0j, 2j, 0j], [0j, 1e-200 + 0j, 3e-50j], [1 + 0j, -2 + 0j, 0j]]
        got = [next(archimedean._nonzero_roots([row])) for row in rows]
        assert [_bits(r) for r in got] == [_bits(_np_nonzero_roots(row)) for row in rows]
        assert got[:3] == [None, None, []] and got[4] == [2]
        # the companion entry of the fourth row, -3e150j, is past the
        # rescaling bound: its eigenvalue has other bits
        entry = (-np.array([3e-50j]) / np.array([1e-200 + 0j])).tolist()
        assert abs(got[3][0] - entry[0]) <= 1e-15 * abs(entry[0]) and _bits(got[3]) != _bits(entry)
        assert calls == [(1, 1), (1, 1)]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_root_rows(7, top=100), max_size=8), st.data())
    @pytest.mark.filterwarnings("ignore:overflow encountered in divide", "ignore:invalid value encountered in divide")
    def test_rows_before_a_non_finite_row_match_np_roots(self, rows, data):
        # rows of mixed orders and spans, and at most one whose leading
        # 5e-324 puts an overflowed quotient in its companion matrix: each
        # row before it gives np.roots' bits, and the row itself raises
        # OverflowError when it is reached, whichever order groups come in
        rows = [[0j] * (7 - len(r)) + r for r in rows]
        bad = data.draw(st.none() | st.integers(0, 5).flatmap(lambda k: st.builds(
            lambda c, tail: [0j] * k + [5e-324 + 0j, c] + tail,
            st.sampled_from((1 + 0j, -3 + 0j, 2j)),
            st.lists(_coefficients(300), min_size=5 - k, max_size=5 - k),
        )))
        if bad is not None:
            rows.insert(data.draw(st.integers(0, len(rows))), bad)
            assert _root_outcome(lambda: _np_nonzero_roots(bad)) == "not finite"
        event("a non-finite row" if bad is not None else "all finite")
        found = archimedean._nonzero_roots(rows)
        for row in rows:
            if row is bad:
                with pytest.raises(OverflowError):
                    next(found)
                return
            assert _bits(next(found)) == _bits(_np_nonzero_roots(row))
        assert next(found, "end") == "end"

    def test_one_eigenvalue_call_per_sweep_and_bisection_step(self, monkeypatch):
        # the reference makes one np.roots call per slice, 65 per sweep; a
        # rank-2 point whose witness the bisection finds after one sweep, and
        # an evidence-only rank-3 point with 20 sweeps
        cases = [
            ("x1^2 + x2^2 + x1*x2 - 3", 2, (Fraction(1, 2), Fraction(-1, 2)), 200, 1),
            ("-3*x1^-2 + 2*x1^-1*x3^-2 + 5*x1^-1*x3^-1 + 2*x1", 3,
             (Fraction(1, 2), -2, 0), 20, 20),
        ]
        for text, rank, v, trials, sweeps in cases:
            f = parse_poly(text, rank=rank, field=FIELD_Q)
            counts = {"roots": 0, "eigvals": 0}

            def counted(name, fn):
                def call(*args):
                    counts[name] += 1
                    return fn(*args)
                return call

            with monkeypatch.context() as mp:
                mp.setattr(np, "roots", counted("roots", np.roots))
                mp.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
                want = reference_sampled_inside(f, v, trials=trials)
                slices = counts["roots"]
                counts.update(roots=0, eigvals=0)
                assert sampled_inside(f, v, trials=trials) == want
            assert (want is None) == (rank == 3)
            assert counts == {"roots": 0, "eigvals": slices - 64 * sweeps}
