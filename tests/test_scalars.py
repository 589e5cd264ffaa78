import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amoebas
from amoebas import scalars

from amoebas.errors import FactorizationTooLarge, InvalidPlace, PlaceFieldMismatch, ZeroInput
from amoebas.scalars import (
    ARCH,
    FF_INFINITY,
    FiniteIrreducible,
    FinitePrime,
    Poly,
    RationalFunction,
    Z,
    factor_int,
    irreducible_factors,
    is_irreducible,
    log_abs,
    place_from_str,
    place_to_str,
    poly_gcd,
    product_formula_residual,
    support_places,
    valuation,
)

from conftest import rand_fraction, rand_ratfunc, reference_poly_gcd


def rf(num, den=1):
    return RationalFunction(Poly(num), Poly(den) if den != 1 else Poly.const(1))


class TestPoly:
    def test_divmod_exact(self):
        f = Poly((-1, 0, 1))  # z^2 - 1
        q, r = divmod(f, Poly((-1, 1)))
        assert q == Poly((1, 1)) and r.is_zero()

    def test_str_roundtrip_examples(self):
        assert str(Poly((-1, 0, 1))) == "z^2-1"
        assert str(Poly((Fraction(1, 2), 2))) == "2*z+1/2"
        assert str(Poly(())) == "0"

    def test_gcd_reduction_in_ratfunc(self):
        a = RationalFunction(Poly((-1, 0, 1)), Poly((-1, 1)))  # (z^2-1)/(z-1)
        assert a == RationalFunction(Poly((1, 1)))


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
        places = [FiniteIrreducible(Z), FiniteIrreducible(Poly((-1, 1))), FF_INFINITY]
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
        assert log_abs(a, FiniteIrreducible(Poly((-1, 1)))) == pytest.approx(1.0)

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
        # ascending, whatever order the primes are found in (sympy finds the
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
            st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(lambda cs: Poly(cs + [1])),
            min_size=1,
            max_size=4,
        )
    )
    def test_irreducible_factors_of_small_monic_products(self, parts):
        f = Poly.const(1)
        for q in parts:
            f = f * q
        facs = irreducible_factors(f)
        for q in facs:
            assert q.leading == 1 and is_irreducible(q)
            assert (f % q).is_zero()
        # a rational root of a monic integer polynomial is an integer, and
        # at most 1 + max |coefficient| in absolute value
        bound = 1 + int(max(abs(c) for c in f.coeffs))
        for r in range(-bound, bound + 1):
            if f(r) == 0:
                assert any(q(r) == 0 for q in facs)

    def test_quadratic_irreducible(self):
        assert irreducible_factors(Poly((1, 0, 1))) == (Poly((1, 0, 1)),)

    def test_splits_and_strips_multiplicity(self):
        f = Poly((-1, 1)) * Poly((-1, 1)) * Poly((0, 1)) * Poly((1, 0, 1))
        assert set(irreducible_factors(f)) == {Poly((0, 1)), Poly((-1, 1)), Poly((1, 0, 1))}

    def test_quartic_fallback(self):
        f = Poly((1, 0, 1)) * Poly((2, 0, 1))  # two irreducible quadratics
        assert set(irreducible_factors(f)) == {Poly((1, 0, 1)), Poly((2, 0, 1))}


_SMALL_POLYS = st.lists(
    st.fractions(-6, 6, max_denominator=5), max_size=4
).map(Poly)


class TestPolyGcd:
    @settings(max_examples=200)
    @given(_SMALL_POLYS, _SMALL_POLYS, _SMALL_POLYS)
    def test_matches_euclid(self, common, a, b):
        # a planted common factor, so the gcd is often nonconstant
        a, b = a * common, b * common
        assert poly_gcd(a, b) == reference_poly_gcd(a, b)
        assert poly_gcd(b, a) == reference_poly_gcd(b, a)

    def test_constants_and_zero(self):
        one, zero = Poly.const(1), Poly(())
        assert poly_gcd(Poly.const(Fraction(-3, 2)), Poly((1, 2))) == one
        assert poly_gcd(zero, Poly.const(5)) == one
        assert poly_gcd(zero, zero) == zero
        assert poly_gcd(Poly((2, 4)), zero) == Poly((Fraction(1, 2), 1))


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

    def test_irreducible_validation(self):
        with pytest.raises(InvalidPlace):
            FiniteIrreducible(Poly((-1, 0, 1)))  # z^2 - 1 splits

    def test_factor_places_are_not_factored_again(self, monkeypatch):
        checked = []
        check = scalars.is_irreducible
        monkeypatch.setattr(scalars, "is_irreducible", lambda q: checked.append(q) or check(q))
        a = rf((-1, 0, 0, 0, 1), (0, 1))  # (z^4 - 1)/z = (z-1)(z+1)(z^2+1)/z
        places = support_places([a])
        assert product_formula_residual(a) == 0
        assert checked == []
        assert places == {
            FiniteIrreducible(q) for q in (Z, Poly((-1, 1)), Poly((1, 1)), Poly((1, 0, 1)))
        } | {FF_INFINITY}
        assert checked  # places built from outside are still checked

    def test_round_trip_strings(self):
        for s in ("p:2", "q:z-1", "q:z^2+1", "inf", "arch", "generic"):
            assert place_to_str(place_from_str(s)) == s
