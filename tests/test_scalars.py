import json
import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import amoebas
from amoebas import scalars

from amoebas.errors import (
    FactorizationTooLarge,
    InternalInvariantError,
    InvalidPlace,
    PlaceFieldMismatch,
    ZeroInput,
)
from amoebas.scalars import (
    ARCH,
    FF_INFINITY,
    FIELD_QZ,
    FiniteIrreducible,
    FinitePrime,
    RationalFunction,
    factor_int,
    irreducible_factors,
    is_irreducible,
    log_abs,
    place_from_str,
    place_to_str,
    product_formula_residual,
    valuation,
    valuations,
)

from amoebas.parsing import parse_poly_z, parse_scalar

from conftest import (
    Z,
    outcome,
    rand_fraction,
    rand_ratfunc,
    reference_factor_list,
    reference_poly_gcd,
    reference_poly_rem,
    reference_dense_str,
    reference_product_formula_residual,
    reference_ratfunc_str,
    reference_support_places,
)


def support_places(values):
    """The finite places where some scalar of the list has nonzero valuation."""
    return frozenset().union(*valuations(values))


def rf(num, den=(1,)):
    """The rational function of two integer coefficient tuples, lowest first."""
    return RationalFunction(num[::-1], den[::-1])


def poly_product(*factors):
    """The product of integer polynomials given lowest coefficient first."""
    out = RationalFunction.const(1)
    for f in factors:
        out = out * rf(f)
    return out


def convolve(f, g):
    """The product of two integer coefficient lists, lowest first."""
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


_C = 3 * 10000000000000000051 * 30000000000000000041


@st.composite
def factoring_inputs(draw):
    """An integer polynomial of degree at least 1, high degree first, of a
    kind that the irreducibility tests of ``_factor_list`` decide or pass
    on, times a random content and sign: an Eisenstein polynomial (at a
    prime below FACTOR_LIMIT, or at one past it, which is not tried), a
    product of 1-3 small factors or its square, a quadratic whose
    discriminant is a square, a non-square or negative, or a polynomial
    with a zero constant term."""
    small = st.lists(st.integers(-4, 4), min_size=2, max_size=4).filter(lambda g: g[0])
    kind = draw(st.sampled_from(["eisenstein", "product", "quadratic", "zero constant"]))
    if kind == "eisenstein":
        p = draw(st.sampled_from([2, 3, 5, 7, 101, 99991, 100003]))
        degree = draw(st.integers(3, 6))
        lead = draw(st.integers(1, 20).filter(lambda a: a % p))
        middle = draw(st.lists(st.integers(-3, 3), min_size=degree - 1, max_size=degree - 1))
        unit = draw(st.integers(-20, 20).filter(lambda u: u % p))
        g = [lead] + [p * m for m in middle] + [p * unit]
    elif kind == "product":
        g = [1]
        for factor in draw(st.lists(small, min_size=1, max_size=3)):
            g = convolve(g, factor)
        if draw(st.booleans()):
            g = convolve(g, g)
    elif kind == "quadratic":
        linear = st.lists(st.integers(-4, 4), min_size=2, max_size=2).filter(lambda g: g[0])
        g = draw(st.one_of(
            st.tuples(linear, linear).map(lambda fs: convolve(*fs)),
            st.tuples(st.integers(-9, 9).filter(bool), st.integers(-9, 9), st.integers(-9, 9)).map(list),
        ))
    else:
        g = draw(small) + [0]
    content = draw(st.integers(1, 30)) * draw(st.sampled_from([1, -1]))
    return [content * c for c in g]


def value(ints, x):
    """The integer polynomial ints (high degree first) at the rational x."""
    out = 0
    for c in ints:
        out = out * x + c
    return out


def assert_canonical(r):
    """Coprime in Z[z] (content included), with a positive leading
    coefficient in the denominator."""
    assert all(type(c) is int for c in r.num + r.den)
    assert r.den[0] > 0
    assert math.gcd(*r.num, *r.den) == 1
    assert reference_poly_gcd(r.num[::-1], r.den[::-1]) == [1]


class TestValuation:
    def test_rational_at_two(self):
        assert valuation(Fraction(3, 4), FinitePrime(2)) == -2

    def test_ratfunc_at_z(self):
        a = rf((0, 0, 1), (-1, 1))  # z^2/(z-1)
        assert valuation(a, FiniteIrreducible(Z)) == 2

    def test_ratfunc_at_infinity(self):
        a = rf((0, 0, 1), (-1, 1))
        assert valuation(a, FF_INFINITY) == -1

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            valuation(Fraction(0), FinitePrime(2))

    def test_field_mismatch(self):
        with pytest.raises(PlaceFieldMismatch):
            valuation(Fraction(1, 2), FiniteIrreducible(Z))
        with pytest.raises(PlaceFieldMismatch):
            valuation(rf((0, 1)), FinitePrime(2))
        with pytest.raises(PlaceFieldMismatch):
            valuation(Fraction(3), ARCH)

    def test_multiplicative_500_random_pairs_each_field(self, rng):
        for _ in range(500):
            a, b = rand_fraction(rng), rand_fraction(rng)
            p = FinitePrime(rng.choice([2, 3, 5, 7]))
            assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)
        places = [FiniteIrreducible(Z), FiniteIrreducible(rf((-1, 1))), FF_INFINITY]
        for _ in range(500):
            a, b = rand_ratfunc(rng), rand_ratfunc(rng)
            p = rng.choice(places)
            assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)


class TestLogAbs:
    def test_twelve_at_two(self):
        assert log_abs(Fraction(12), FinitePrime(2)) == pytest.approx(2 * math.log(2))

    def test_twelve_archimedean(self):
        assert log_abs(Fraction(12), ARCH) == pytest.approx(-math.log(12))

    def test_simple_zero_weight(self):
        a = rf((1, 0, -1), (0, 1))  # (1 - z^2)/z; zero at z=1 has degree-1 weight
        assert log_abs(a, FiniteIrreducible(rf((-1, 1)))) == pytest.approx(1.0)

    def test_zero_off_support(self, rng):
        for _ in range(50):
            a = rand_fraction(rng)
            support = support_places([a])
            for p in (FinitePrime(q) for q in (2, 3, 5, 7, 11)):
                if p not in support:
                    assert log_abs(a, p) == 0.0


class TestProductFormula:
    def test_twelve(self):
        assert abs(product_formula_residual(Fraction(12))) < 1e-12

    def test_z2_minus_1_over_z(self):
        a = rf((-1, 0, 1), (0, 1))
        res = product_formula_residual(a)
        assert isinstance(res, int) and res == 0

    def test_minus_one_unit(self):
        assert product_formula_residual(Fraction(-1)) == 0.0


class TestSupportPlaces:
    def test_linear_factors_and_infinity(self):
        zs = [rf((0, 1)), rf((-1, 1)), rf((-2, 1))]
        got = {place_to_str(p) for p in support_places(zs)}
        assert got == {"q:z", "q:z-1", "q:z-2", "inf"}

    def test_units_empty(self):
        assert support_places([Fraction(1), Fraction(-1), Fraction(1)]) == frozenset()

    def test_curve_q_coefficients(self):
        got = support_places([Fraction(1), Fraction(-2), Fraction(-2), Fraction(1)])
        assert got == frozenset({FinitePrime(2)})


class TestUnits:
    def test_sign_units_have_no_support_and_abs_one(self, rng):
        for a in (Fraction(1), Fraction(-1)):
            assert support_places([a]) == frozenset()
            assert abs(a) == 1
        for _ in range(100):
            a = rand_fraction(rng)
            trivial = support_places([a]) == frozenset() and abs(a) == 1
            assert trivial == (a in (1, -1))


class TestFactorization:
    def test_factor_int(self):
        assert factor_int(360) == {2: 3, 3: 2, 5: 1}
        # ascending, whatever order the primes are found in (rho finds the
        # larger one first here)
        assert list(factor_int(2210484349 * 4246154377)) == [2210484349, 4246154377]
        with pytest.raises(ZeroInput):
            factor_int(0)

    def test_factor_int_bounded(self):
        # the bounded pass leaves 4387541017 * 5698091173 whole; under the
        # digit bound the cofactor is factored in full, with multiplicities
        assert factor_int(-12 * (4387541017 * 5698091173) ** 2) == {
            2: 2, 3: 1, 4387541017: 2, 5698091173: 2,
        }
        with pytest.raises(FactorizationTooLarge):
            factor_int(90799494873517555709 * 11218320424174490777)

    def test_factor_int_splits_products_of_7_digit_primes(self):
        # sympy's bounded factorint raised ValueError on this product of
        # twelve 7-digit primes ("... is not a prime factor of ...")
        primes = [1006877, 1037741, 1066433, 1072763, 1083689, 1095461,
                  1113643, 1130737, 1146533, 1204183, 1214011, 1233241]
        assert factor_int(-math.prod(primes)) == dict.fromkeys(primes, 1)
        primes = [sympy.nextprime(10**6 + 1000 * i) for i in range(44)]  # 878 bits
        assert factor_int(math.prod(primes)) == dict.fromkeys(primes, 1)

    def test_factor_int_takes_a_piece_past_rho_whole_below_the_digit_bound(self, monkeypatch):
        # two 12-digit primes: rho gives up within RHO_STEPS, and sympy's
        # factorint finishes the piece
        p, q = 300000000077, 700000000009
        whole = []
        factorint = sympy.factorint
        monkeypatch.setattr(sympy, "factorint", lambda m: whole.append(m) or factorint(m))
        assert factor_int(-p * q) == {p: 1, q: 1}
        assert whole == [p * q]

    def test_factor_int_reach_of_rho_past_the_digit_bound(self):
        # x -> x^2 + 1 from 2 meets 100000193 after 51838 evaluations, within
        # RHO_STEPS (sympy's Floyd rho took 26530 of its 2^15 steps), and
        # 100036927 after 99582, past them (Floyd: 33980 steps)
        q = sympy.nextprime(10**25)
        assert factor_int(100000193 * q) == {100000193: 1, q: 1}
        with pytest.raises(FactorizationTooLarge, match="rho steps"):
            factor_int(100036927 * q)

    def test_rho_retraces_a_block_whose_gcd_is_m(self):
        # rho meets both 4-digit primes within one block of steps, so the
        # block's gcd is mostly m and the factor comes from the retrace; it
        # fails only where both are met at the same step (6 of the 378 pairs)
        ps = list(sympy.primerange(1000, 1200))
        pairs = [(p, q) for i, p in enumerate(ps) for q in ps[i + 1:]]
        found = [scalars._rho(p * q) for p, q in pairs]
        assert all(d in (None, p, q) for d, (p, q) in zip(found, pairs))
        assert found.count(None) <= 10

    @pytest.mark.parametrize("split", [lambda m: 1, lambda m: m, lambda m: m + 2, lambda m: 2],
                             ids=["1", "m", "m+2", "2"])
    @pytest.mark.parametrize("n", [1000003 * 1000033, 90799494873517555709 * 11218320424174490777],
                             ids=["below", "above"])
    def test_factor_int_checks_each_split(self, monkeypatch, split, n):
        # a factor from rho that is not a proper divisor is an internal fault,
        # on both sides of the digit bound
        monkeypatch.setattr(scalars, "_rho", split)
        with pytest.raises(InternalInvariantError, match="does not split"):
            factor_int(n)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(2, 12), st.integers(0, 10**12), st.integers(1, 3)),
                 min_size=1, max_size=4),
        st.sampled_from([1, -1]),
    )
    def test_factor_int_agrees_with_sympy(self, parts, sign):
        # products of 1-4 primes of 2-12 digits with multiplicities 1-3:
        # below the digit bound in full, above it in full or refused
        expected = {}
        for digits, offset, e in parts:
            p = sympy.nextprime(10 ** (digits - 1) + offset % (9 * 10 ** (digits - 1)))
            expected[p] = expected.get(p, 0) + e
        n = sign * math.prod(p**e for p, e in expected.items())
        if abs(n) < 10**scalars.MAX_COFACTOR_DIGITS:
            assert factor_int(n) == sympy.factorint(abs(n)) == dict(sorted(expected.items()))
            return
        try:
            assert factor_int(n) == dict(sorted(expected.items()))
        except FactorizationTooLarge:
            pass

    def test_factor_int_decides_from_the_size_first(self, monkeypatch):
        # no rho step runs on a piece past the bit bounds, and no primality
        # test past PRIME_BITS, whatever the piece is
        def no_call(*args, **kwargs):
            raise AssertionError("called past the size bound")

        monkeypatch.setattr(scalars, "_rho", no_call)
        p = sympy.nextprime(2**1100)
        with pytest.raises(FactorizationTooLarge):
            factor_int(7 * p * sympy.nextprime(p))
        monkeypatch.setattr(sympy, "isprime", no_call)
        with pytest.raises(FactorizationTooLarge):
            factor_int(3 * ((1 << scalars.PRIME_BITS) + 1))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-10**9, 10**9).filter(bool))
    def test_factor_int_ascending_primes_multiply_back(self, n):
        facs = factor_int(n)
        assert list(facs) == sorted(facs)
        assert all(p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1)) for p in facs)
        assert math.prod(p**e for p, e in facs.items()) == abs(n)

    def test_finite_prime_accepts_exactly_primes(self):
        accepted = []
        for n in range(2, 30):
            try:
                FinitePrime(n)
            except InvalidPlace:
                continue
            accepted.append(n)
        assert accepted == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(lambda cs: tuple(cs + [1])),
            min_size=1,
            max_size=4,
        )
    )
    def test_irreducible_factors_of_small_monic_products(self, parts):
        f = poly_product(*parts)
        facs = irreducible_factors(f)
        for q in facs:
            assert q.den == (q.num[0],) and is_irreducible(q)
            assert not reference_poly_rem(f.num[::-1], q.num[::-1])
        # a rational root of a monic integer polynomial is an integer, and
        # at most 1 + max |coefficient| in absolute value
        bound = 1 + max(abs(c) for c in f.num)
        for r in range(-bound, bound + 1):
            if value(f.num, r) == 0:
                assert any(value(q.num, r) == 0 for q in facs)

    @settings(max_examples=300, deadline=None)
    @given(factoring_inputs())
    def test_factor_list_agrees_with_zassenhaus(self, f):
        expected = reference_factor_list(f)
        assert scalars._factor_list(f) == expected
        q = RationalFunction(f)
        assert is_irreducible(q) == (list(expected) == [q.monic()])

    @pytest.mark.parametrize("f, zassenhaus", [
        ((1, -1), 0),  # z - 1
        ((1, 0, 1), 0),  # z^2 + 1: discriminant -4
        ((7, 0, 0, 0, 49, 98), 0),  # 7 (z^5 + 7z + 14): Eisenstein at 7
        ((-3, 0, 0, -6, -6), 0),  # -3 (z^4 + 2z + 2): Eisenstein at 2
        ((2, 5, -3), 1),  # (2z - 1)(z + 3): discriminant 49
        ((1, 0, 0, 0, -1, -1), 1),  # z^5 - z - 1: irreducible, but no test applies
        # Eisenstein at 3, but the gcd 3 P Q of two 20-digit primes is past
        # FACTOR_LIMIT, where factor_int would refuse it
        ((1, 0, _C, _C), 1),
    ])
    def test_zassenhaus_runs_only_where_no_test_proves_irreducibility(self, monkeypatch, f, zassenhaus):
        from sympy.polys import factortools

        expected = reference_factor_list(f)
        calls, real = [], factortools.dup_factor_list
        monkeypatch.setattr(factortools, "dup_factor_list", lambda g, K: calls.append(g) or real(g, K))
        assert scalars._factor_list(f) == expected
        assert len(calls) == zassenhaus

    def test_quadratic_irreducible(self):
        assert irreducible_factors(rf((1, 0, 1))) == (rf((1, 0, 1)),)

    def test_splits_and_strips_multiplicity(self):
        f = poly_product((-1, 1), (-1, 1), (0, 1), (1, 0, 1))
        assert set(irreducible_factors(f)) == {rf((0, 1)), rf((-1, 1)), rf((1, 0, 1))}

    def test_quartic_fallback(self):
        f = poly_product((1, 0, 1), (2, 0, 1))  # two irreducible quadratics
        assert set(irreducible_factors(f)) == {rf((1, 0, 1)), rf((2, 0, 1))}

    def test_rational_coefficients(self):
        # (z - 1/2)(z + 2/3) = (6z^2 + z - 2) / 6: the factors are monic over Q
        f = rf((-2, 1, 6), (6,))
        assert irreducible_factors(f) == (rf((-1, 2), (2,)), rf((2, 3), (3,)))

    def test_refuses_a_denominator(self):
        # z / (z + 1): factoring the numerator alone would answer (z,)
        with pytest.raises(ValueError):
            irreducible_factors(RationalFunction((1, 0), (1, 1)))


_INT_POLYS = st.lists(st.integers(-6, 6), max_size=4)  # lowest coefficient first
_TEXT_COEFFS = st.lists(st.fractions(-9, 9, max_denominator=7), min_size=1, max_size=4).filter(any)
_OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


def _text(num, den):
    """Q(z) text of two Fraction coefficient lists, lowest first."""
    poly = lambda cs: " + ".join(f"({c})*z^{i}" for i, c in enumerate(cs))
    return f"({poly(num)})/({poly(den)})"


class TestRationalFunction:
    @settings(max_examples=200)
    @given(_INT_POLYS, _INT_POLYS.filter(any), _INT_POLYS.filter(any))
    def test_canonical_form(self, a, b, common):
        # a planted common factor, so the cancel often has work to do
        r = rf(convolve(a, common), convolve(b, common))
        assert_canonical(r)
        assert r == rf(a, b) and hash(r) == hash(rf(a, b))

    @settings(max_examples=100)
    @given(st.integers(0, 2**32), st.integers(0, 3), st.fractions(-20, 20, max_denominator=9))
    def test_ops_commute_with_evaluation(self, seed, k, z0):
        rng = random.Random(seed)
        a, b = rand_ratfunc(rng, 3), rand_ratfunc(rng, 3)
        op = _OPS[k]
        at = lambda r: value(r.num, z0) / value(r.den, z0)
        assume(value(a.den, z0) and value(b.den, z0))
        assume(op is not operator.truediv or at(b))
        c = op(a, b)
        assert_canonical(c)
        assert at(c) == op(at(a), at(b))

    @settings(max_examples=100)
    @given(_TEXT_COEFFS, _TEXT_COEFFS, _TEXT_COEFFS, _TEXT_COEFFS, st.integers(0, 3),
           st.fractions(-20, 20, max_denominator=9))
    def test_parsed_ops_commute_with_evaluation(self, n1, d1, n2, d2, k, z0):
        # each side is evaluated from its text's coefficients, not its parse
        at = lambda cs: sum(c * z0**i for i, c in enumerate(cs))
        assume(at(d1) and at(d2))
        a = parse_scalar(_text(n1, d1), FIELD_QZ)
        b = parse_scalar(_text(n2, d2), FIELD_QZ)
        op = _OPS[k]
        x, y = at(n1) / at(d1), at(n2) / at(d2)
        assume(op is not operator.truediv or y)
        c = op(a, b)
        assert_canonical(c)
        assert value(c.num, z0) / value(c.den, z0) == op(x, y)

    @settings(max_examples=300)
    @given(_INT_POLYS, _INT_POLYS.filter(any), st.integers(-10**6, 10**6), st.integers(1, 10**6),
           st.integers(0, 3), st.booleans())
    def test_constant_operand_matches_the_cancel(self, a, b, p, q, k, flip):
        # one constant operand takes integer scaling and the content alone;
        # sympy's dense arithmetic on the same pairs and dup_cancel agree
        from sympy.polys.densearith import dup_add, dup_mul, dup_sub
        from sympy.polys.domains import ZZ

        x, y = rf(a, b), RationalFunction.const(Fraction(p, q))
        if flip:
            x, y = y, x
        op = _OPS[k]
        assume(op is not operator.truediv or y)
        f, g, c, d = map(list, (x.num, x.den, y.num, y.den))
        if op is operator.truediv:
            c, d = d, c
        mul = lambda u, v: dup_mul(u, v, ZZ)
        if op in (operator.mul, operator.truediv):
            want = RationalFunction(mul(f, c), mul(g, d))
        else:
            cross = (dup_add if op is operator.add else dup_sub)(mul(f, d), mul(c, g), ZZ)
            want = RationalFunction(cross, mul(g, d))
        got = op(x, y)
        assert (got.num, got.den) == (want.num, want.den)
        assert_canonical(got)

    @settings(max_examples=300)
    @given(_INT_POLYS, _INT_POLYS, st.integers(0, 2))
    def test_polynomial_operands_match_the_cancel(self, a, b, k):
        # two polynomials (den 1) add, subtract and multiply as integer
        # polynomials over 1, with no cancel; sympy's dense arithmetic on
        # the same pairs and dup_cancel agree
        from sympy.polys.densearith import dup_add, dup_mul, dup_sub
        from sympy.polys.domains import ZZ

        x, y = rf(a), rf(b)
        assume(not x.is_constant() and not y.is_constant())
        op = _OPS[k]
        f, c = list(x.num), list(y.num)
        combine = {operator.add: dup_add, operator.sub: dup_sub, operator.mul: dup_mul}[op]
        want = RationalFunction(combine(f, c, ZZ), [1])
        got = op(x, y)
        assert (got.num, got.den) == (want.num, want.den)
        assert_canonical(got)

    def test_constants_and_zero(self):
        assert RationalFunction.const(Fraction(-3, 2)).num == (-3,)
        assert RationalFunction.const(Fraction(-3, 2)).den == (2,)
        zero = RationalFunction((0, 0))
        assert (zero.num, zero.den) == ((), (1,)) and zero == 0 and not zero
        assert rf((0, 6), (0, -4)) == Fraction(-3, 2)
        assert rf((1, 2), (3, 6)).is_constant()
        with pytest.raises(ZeroDivisionError):
            rf((1, 2), (0,))
        with pytest.raises(ZeroDivisionError):
            rf((1, 2)) / zero

    def test_gcd_reduction_in_ratfunc(self):
        a = rf((-1, 0, 1), (-1, 1))  # (z^2-1)/(z-1)
        assert a == rf((1, 1))

    def test_printed_view_is_monic(self):
        r = rf((-1, 0, 6), (0, -4))  # (6z^2 - 1)/(-4z)
        assert (r.num, r.den) == ((-6, 0, 1), (4, 0))
        assert str(r) == "(-3/2*z^2+1/4)/(z)"


def run_amoeba(*argv):
    src = os.path.dirname(os.path.dirname(amoebas.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-m", "amoebas.cli", *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )


class TestLargePrimeCoefficient:
    """An 18-digit prime coefficient must factor in bounded time."""

    P = "1000000000000000003"

    def test_adelic(self):
        res = run_amoeba("adelic", "--f", f"x1+x2+{self.P}")
        assert res.returncode == 0, res.stderr
        assert [s["place"] for s in json.loads(res.stdout)["special"]] == [f"p:{self.P}"]

    def test_trop_at_the_prime(self):
        res = run_amoeba("trop", "--f", "x1+x2+1", "--place", f"p:{self.P}")
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["place"] == f"p:{self.P}"


class TestPlaces:
    def test_prime_validation(self):
        with pytest.raises(InvalidPlace):
            FinitePrime(6)

    def test_prime_bound_comes_first(self, monkeypatch):
        # no primality test past PRIME_BITS, whatever the number is
        def no_call(*args, **kwargs):
            raise AssertionError("called past the size bound")

        monkeypatch.setattr(sympy, "isprime", no_call)
        for p in ((1 << scalars.PRIME_BITS) + 1, -(1 << scalars.PRIME_BITS) - 1):
            with pytest.raises(InvalidPlace, match="at most 4096 bits"):
                FinitePrime(p)

    def test_support_proves_each_prime_once(self, monkeypatch):
        # the primes factor_int returns are not tested again
        calls = []
        isprime = sympy.isprime
        monkeypatch.setattr(sympy, "isprime", lambda n: calls.append(n) or isprime(n))
        p = 2**127 - 1  # a prime past the 30 digits that factorint takes whole
        factor_int(p)
        alone, calls[:] = len(calls), []
        places = support_places([Fraction(p)])
        assert 0 < len(calls) <= alone
        assert places == {FinitePrime(p)}

    def test_irreducible_validation(self):
        with pytest.raises(InvalidPlace):
            FiniteIrreducible(rf((-1, 0, 1)))  # z^2 - 1 splits

    def test_factor_places_are_not_factored_again(self, monkeypatch):
        checked = []
        check = scalars.is_irreducible
        monkeypatch.setattr(scalars, "is_irreducible", lambda q: checked.append(q) or check(q))
        a = rf((-1, 0, 0, 0, 1), (0, 1))  # (z^4 - 1)/z = (z-1)(z+1)(z^2+1)/z
        places = support_places([a])
        assert product_formula_residual(a) == 0
        assert checked == []
        assert places == {
            FiniteIrreducible(q) for q in (Z, rf((-1, 1)), rf((1, 1)), rf((1, 0, 1)))
        } | {FF_INFINITY}
        assert checked  # places built from outside are still checked

    def test_round_trip_strings(self):
        for s in ("p:2", "q:z-1", "q:z^2+1", "inf", "arch", "generic"):
            assert place_to_str(place_from_str(s)) == s


# rationals with several primes up and down, zero included
RATIONALS = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
_Z_POLYS = st.lists(st.integers(-3, 3), min_size=1, max_size=4).filter(any)
RATFUNCS = st.one_of(
    st.builds(lambda c, num, den: c * RationalFunction(num, den), RATIONALS, _Z_POLYS, _Z_POLYS),
    st.just(RationalFunction.const(0)),
)


class TestPlaceWalkAgainstReference:
    """support_places and product_formula_residual on one place walk against
    the copies with a loop each: the same place sets, the same float
    residual under ==, and the exact int residual over Q(z)."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.lists(RATIONALS, max_size=3),
        st.lists(RATFUNCS, max_size=3),
        st.lists(st.one_of(RATIONALS, RATFUNCS), max_size=3),
    ))
    def test_support_places(self, values):
        assert outcome(support_places, values) == outcome(reference_support_places, values)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.lists(RATIONALS, max_size=3), st.lists(RATFUNCS, max_size=3)))
    def test_valuations_are_the_multiplicities(self, values):
        # each entry holds v(a), as valuation computes it, at exactly the
        # places of a's support
        assume(all(values))
        for a, got in zip(values, valuations(values), strict=True):
            assert set(got) == reference_support_places([a])
            assert got == {place: valuation(a, place) for place in got}
            assert 0 not in got.values()

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(RATIONALS, RATFUNCS))
    def test_product_formula_residual(self, a):
        got = outcome(product_formula_residual, a)
        assert got == outcome(reference_product_formula_residual, a)
        if isinstance(a, RationalFunction) and a:
            assert got == ("ok", 0) and type(got[1]) is int

    def test_float_residual_order(self):
        # three primes above, three below: the summation order shows in the
        # last bits of the residual
        a = Fraction(-360, 7007)
        assert product_formula_residual(a) == reference_product_formula_residual(a) != 0


class TestPrinting:
    """str of a RationalFunction and the names of the places of Q(z), on
    examples and against printers that read Fraction coefficients."""

    def test_str_roundtrip_examples(self):
        assert str(rf((-1, 0, 1))) == "z^2-1"
        assert str(rf((1, 4), (2,))) == "2*z+1/2"
        assert str(RationalFunction.const(0)) == "0"

    @settings(max_examples=300)
    @given(RATFUNCS)
    def test_str(self, a):
        assert str(a) == reference_ratfunc_str(a)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(RATFUNCS, max_size=3))
    def test_place_names_round_trip(self, values):
        assume(all(values))
        for v in valuations(values):
            for place in v:
                back = place_from_str(place_to_str(place))
                assert back == place and hash(back) == hash(place)

    @settings(max_examples=200, deadline=None)
    @given(_TEXT_COEFFS)
    def test_monic_names_the_place(self, cs):
        # the name q:t of a polynomial text t is q: and the text of
        # parse_poly_z(t).monic(), its coefficients over the top one
        while not cs[-1]:
            cs = cs[:-1]
        text = " + ".join(f"({c})*z^{i}" for i, c in enumerate(cs))
        name = str(parse_poly_z(text).monic())
        assert name == reference_dense_str(c / cs[-1] for c in cs)
        if is_irreducible(parse_poly_z(text)):
            assert place_to_str(place_from_str("q:" + text)) == "q:" + name
        else:
            with pytest.raises(InvalidPlace, match="not irreducible"):
                place_from_str("q:" + text)
