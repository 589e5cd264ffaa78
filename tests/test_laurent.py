import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amoebas import laurent, parsing, scalars
from amoebas.errors import (
    AmoebaError,
    EmptyPolynomial,
    ExpansionTooLarge,
    InternalInvariantError,
    PolySyntaxError,
    RankMismatch,
    RankTooLarge,
)
from amoebas.laurent import (
    bad_places,
    make_laurent,
    parse_poly,
    strict_vertex_direction,
)
from amoebas.polyhedral import LPInfeasible
from amoebas.scalars import (
    FIELD_Q,
    FIELD_QZ,
    GENERIC,
    FinitePrime,
    RationalFunction,
    place_to_str,
)
from amoebas.tropical import trop_hypersurface

from conftest import (
    Z,
    complexes_equal,
    convex_certificate,
    poly_to_str,
    rand_fraction,
    rand_poly_q,
    rand_poly_qz,
    rand_ratfunc,
    scale,
)


class TestParse:
    def test_curve_over_qz(self):
        f = parse_poly("z*x1 + (z-1)*x2 + (z-2)", rank=2, field=FIELD_QZ)
        assert f.nterms == 3
        assert f.exponents() == [(0, 0), (0, 1), (1, 0)]

    def test_curve_over_q(self):
        f = parse_poly("x1*x2 - 2*x1 - 2*x2 + 1", rank=2, field=FIELD_Q)
        assert f.nterms == 4
        assert dict(f.terms)[(1, 1)] == 1 and dict(f.terms)[(0, 1)] == -2

    def test_cancellation_rejected(self):
        with pytest.raises(EmptyPolynomial):
            parse_poly("x1 - x1", rank=1, field=FIELD_Q)

    @pytest.mark.parametrize("text", ["0", "(0)", "0^3", "-0", "0*x1"])
    def test_zero_rejected(self, text):
        with pytest.raises(EmptyPolynomial):
            parse_poly(text)

    def test_rank_mismatch_reported(self):
        with pytest.raises(RankMismatch):
            parse_poly("x1 + x3", rank=2, field=FIELD_Q)

    def test_syntax_error_position(self):
        with pytest.raises(PolySyntaxError) as err:
            parse_poly("x1 + + * x2", rank=2, field=FIELD_Q)
        assert err.value.position == 5  # the second '+' is the first bad token

    def test_rank_bound(self):
        assert parse_poly("x64 + 1").rank == 64
        for text, rank in (("x65 + 1", None), ("x99999999999999999999", None), ("x1", 10**8)):
            with pytest.raises(RankTooLarge):
                parse_poly(text, rank=rank)

    def test_expansion_bound(self):
        # a single term with coefficient 1 or -1 takes any exponent
        assert parse_poly("x1^99999999999 + 1").exponents() == [(0,), (99999999999,)]
        assert parse_poly("(-x1)^99999999999 - x1^2").nterms == 2
        assert parse_poly("(x1+1)^64").nterms == 65
        assert parse_poly("((2^64)^64)^3*x1 + 1").nterms == 2  # 3700 digits
        for text in (
            "(x1+1)^65",  # exponent
            "2^65*x1",  # exponent of a single term with another coefficient
            "((x1+1)^64)^64",  # term pairs
            "((2^64)^64)^4*x1",  # digits
            "((z+1)^64)^8*x1",  # z-degree
            f"(x1^{'9' * 2500})^{'9' * 2500}",  # exponent digits
        ):
            with pytest.raises(ExpansionTooLarge):
                parse_poly(text)

    @settings(max_examples=200)
    @given(st.integers(0, 2**32), st.integers(1, 4))
    def test_size_reads_the_monic_view(self, seed, count):
        # the bound's (z-degree, bits) read off the integer pair equals the
        # reading of the printed view: numerator and monic denominator over Q
        rng = random.Random(seed)
        coeffs = [rand_ratfunc(rng, 3) * rand_fraction(rng, 999, 99) for _ in range(count)]
        coeffs += [rand_fraction(rng, 10**6, 10**4) for _ in range(rng.randint(0, 2))]
        views = [c.view() for c in coeffs if isinstance(c, RationalFunction)]
        fracs = [c for c in coeffs if not isinstance(c, RationalFunction)]
        fracs += [x for v in views for p in v for x in p.coeffs]
        degree = max((p.degree for v in views for p in v), default=0)
        bits = max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in fracs)
        terms = {(k,): c for k, c in enumerate(coeffs)}
        assert parsing._size(terms) == (degree, bits)

    @settings(max_examples=300)
    @given(st.text() | st.text(alphabet="x0123456789z+-*/^() ", max_size=30))
    @example("x" + "9" * 5000)
    @example("(x1+x2+1)^300")
    @example("0^99")
    @example("x1 + 2\u00b2")
    @example("(" * 400 + "x1" + ")" * 400)
    def test_any_text_raises_only_amoeba_errors(self, text):
        try:
            parse_poly(text)
        except AmoebaError:
            pass

    def test_negative_exponents(self):
        f = parse_poly("x1^-2*x2 + 1", rank=2, field=FIELD_Q)
        assert f.exponents() == [(-2, 1), (0, 0)]

    def test_rational_function_coefficient(self):
        f = parse_poly("((z-1)/(z^2+1))*x1 + 1", rank=1, field=FIELD_QZ)
        coeff = dict(f.terms)[(1,)]
        assert isinstance(coeff, RationalFunction)
        assert str(coeff) == "(z-1)/(z^2+1)"

    def test_inference(self):
        f = parse_poly("z*x1 + x2^3")
        assert f.rank == 2 and f.field == FIELD_QZ
        g = parse_poly("x1 - 2")
        assert g.rank == 1 and g.field == FIELD_Q

    def test_product_expansion(self):
        f = parse_poly("(z^2+1)*(x1 + x2 - 5)", rank=2, field=FIELD_QZ)
        assert f.nterms == 3
        base = dict(f.terms)[(1, 0)]
        assert str(base) == "z^2+1"
        assert dict(f.terms)[(0, 0)] == -5 * base

    def test_print_parse_round_trip_200_random(self, rng):
        for _ in range(100):
            f = rand_poly_q(rng, rank=rng.randint(1, 3))
            assert parse_poly(poly_to_str(f), f.rank, f.field) == f
        for _ in range(100):
            f = rand_poly_qz(rng, rank=rng.randint(1, 3))
            assert parse_poly(poly_to_str(f), f.rank, f.field) == f

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_print_parse_round_trip_property(self, data):
        rank = data.draw(st.integers(1, 3))
        field = data.draw(st.sampled_from([FIELD_Q, FIELD_QZ]))
        exps = data.draw(
            st.lists(st.tuples(*[st.integers(-3, 3)] * rank), min_size=1, max_size=5, unique=True)
        )
        fractions = st.fractions(-50, 50, max_denominator=30).filter(bool)
        if field == FIELD_Q:
            coeffs = fractions
        else:
            # num / den with integer coefficients in z, highest first
            poly = st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any)
            coeffs = st.builds(
                lambda c, num, den: c * RationalFunction(num, den),
                fractions, poly, poly,
            )
        f = make_laurent(rank, field, [(e, data.draw(coeffs)) for e in exps])
        assert parse_poly(poly_to_str(f), rank, field) == f


def _poly_texts(atoms):
    """Texts of sums, differences, products, small powers and negations of
    the atoms, with zeros among them, so that terms merge and cancel."""
    return st.recursive(
        st.sampled_from(atoms),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*"), inner).map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
            st.tuples(inner, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
            inner.map(lambda t: f"-({t})"),
        ),
        max_leaves=8,
    )


Q_ATOMS = ["0", "1", "2", "3/4", "x1", "x2", "x3", "x1^-1"]


class TestParsedTermsAreCanonical:
    """parse_poly builds the polynomial from the parser's terms directly:
    they are the terms make_laurent would make of them, and the rank and
    field are read off the text."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_poly_texts(Q_ATOMS), _poly_texts(Q_ATOMS + ["z", "1/z", "(z-1)"])))
    def test_random_texts(self, text):
        try:
            f = parse_poly(text)
        except EmptyPolynomial:
            return
        assert make_laurent(f.rank, f.field, f.terms) == f
        assert f.field == (FIELD_QZ if "z" in text else FIELD_Q)
        assert f.rank == max(int(c) for c in "1" + "".join(re.findall(r"x(\d)", text)))


class TestScale:
    def test_scaling_invariance_of_tropicalization(self, rng):
        f = parse_poly("z*x1 + z*x2 + 2*z", rank=2, field=FIELD_QZ)
        g = scale(f, RationalFunction.const(1) / f.terms[0][1])
        assert g.terms[0][1] == RationalFunction.const(1)
        from amoebas.scalars import FiniteIrreducible, Poly

        places = [GENERIC, FiniteIrreducible(Z), FiniteIrreducible(Poly((-1, 1)))]
        for p in places:
            assert complexes_equal(trop_hypersurface(f, p), trop_hypersurface(g, p))


def vertex_indices(f):
    points = f.exponents()
    return {i for i in range(f.nterms) if strict_vertex_direction(points, i) is not None}


class TestNewtonPolytope:
    def test_triangle(self):
        f = parse_poly("x1 + x2 + 1", rank=2, field=FIELD_Q)
        assert vertex_indices(f) == {0, 1, 2}

    def test_midpoint_not_vertex(self):
        f = make_laurent(2, FIELD_Q, [((0, 0), 1), ((1, 0), 1), ((2, 0), 1)])
        assert vertex_indices(f) == {0, 2}
        cert = convex_certificate(f.exponents(), 1)
        assert cert == {0: Fraction(1, 2), 2: Fraction(1, 2)}

    def test_square_all_vertices(self):
        f = parse_poly("x1*x2 - 2*x1 - 2*x2 + 1", rank=2, field=FIELD_Q)
        assert vertex_indices(f) == {0, 1, 2, 3}

    def test_certificates_random(self, rng):
        # the strict-direction LP against the convex-combination LP
        for _ in range(20):
            f = rand_poly_q(rng, rank=2, terms=rng.randint(3, 6))
            points = f.exponents()
            vertices = vertex_indices(f)
            for i in range(f.nterms):
                cert = convex_certificate(points, i)
                if i in vertices:
                    assert cert is None
                    continue
                total = sum(cert.values())
                assert total == 1 and all(w > 0 for w in cert.values())
                for c in range(f.rank):
                    assert sum(w * points[j][c] for j, w in cert.items()) == points[i][c]

    def test_vertex_lp_without_optimum_is_an_internal_error(self, monkeypatch):
        # the check holds under python -O, where an assert would vanish
        monkeypatch.setattr(laurent, "lp_solve", lambda *args: LPInfeasible((1,)))
        with pytest.raises(InternalInvariantError):
            laurent.strict_vertex_direction([(0, 0), (1, 0), (0, 1)], 0)


class TestBadPlaces:
    def test_curve_qz_excludes_infinity(self, ex_curve_qz):
        got = {place_to_str(p) for p in bad_places(ex_curve_qz)}
        assert got == {"q:z", "q:z-1", "q:z-2"}

    def test_curve_q(self, ex_curve_q):
        assert bad_places(ex_curve_q) == frozenset({FinitePrime(2)})

    def test_scaled_constant_ratios_empty(self):
        f = parse_poly("z*x1 + z*x2 + z", rank=2, field=FIELD_QZ)
        assert bad_places(f) == frozenset()

    def test_each_distinct_polynomial_factored_once(self, monkeypatch):
        # a_1 = z^2 + 1 is the denominator of all three ratios a_j / a_1
        from sympy.polys import factortools

        seen, real = [], factortools.dup_factor_list
        monkeypatch.setattr(
            factortools, "dup_factor_list", lambda f, K: seen.append(tuple(f)) or real(f, K)
        )
        f = parse_poly("(z^2+1) + z*x1 + (z+2)*x2 + (z-1)*x1*x2", rank=2)
        got = {place_to_str(p) for p in bad_places(f)}
        assert got == {"q:z", "q:z+2", "q:z-1", "q:z^2+1", "inf"}
        assert sorted(seen) == sorted([(1, 0), (1, 0, 1), (1, 2), (1, -1)])

    def test_each_distinct_integer_factored_once(self, monkeypatch):
        # P Q is a coefficient, but the ratios over a_1 = Q are P / Q and P:
        # P and Q are factored, each once, and P Q never is
        P, Q = 10000000000000000051, 30000000000000000041
        seen, real = [], scalars.factor_int
        monkeypatch.setattr(scalars, "factor_int", lambda n: seen.append(n) or real(n))
        f = parse_poly(f"{P * Q}*x1 + {P}*x2 + {Q}")
        assert bad_places(f) == frozenset({FinitePrime(P), FinitePrime(Q)})
        assert sorted(seen) == [1, P, Q]

    def test_ratio_valuations(self):
        # terms by exponent: a_1 = 9/4, then 7 and 18/5, whose ratios over
        # a_1 are 28/9 and 8/5
        f = parse_poly("(9/4)*x1^-1 + (18/5)*x1 + 7*x2")
        assert [c for _, c in f.terms] == [Fraction(9, 4), 7, Fraction(18, 5)]
        got = {place_to_str(p): v for p, v in laurent.ratio_valuations(f).items()}
        assert got == {"p:2": (0, 2, 3), "p:3": (0, -2, 0), "p:7": (0, 1, 0), "p:5": (0, 0, -1)}
        assert list(got) == ["p:2", "p:7", "p:3", "p:5"]


class TestVariablePowersInPlace:
    """A variable power that multiplies or divides a single-term product
    moves that term's exponent in place: the same terms, and the same
    errors, as the product of the parenthesized factors, which multiplies
    two term maps."""

    COEFFS = ["0", "3", "-2/7", "(z-1)", "(z^2+1)/(3*z)", "(x1+x2)", "x2^3", "(0*x1)"]

    @staticmethod
    def parsed(text):
        try:
            return "ok", parsing.parse_terms(text, 2)
        except RankMismatch as exc:  # its position is that of its own text
            return RankMismatch, re.sub(r"\(position \d+\)", "", str(exc))
        except AmoebaError as exc:
            return type(exc), str(exc)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(COEFFS),
        st.lists(st.tuples(st.sampled_from("*/"), st.integers(1, 3), st.integers(-3, 3)), max_size=3),
    )
    def test_same_terms_and_errors_as_the_general_product(self, c, factors):
        power = lambda k, e: f"x{k}" if e == 1 else f"x{k}^{e}"
        fast = c + "".join(f"{op}{power(k, e)}" for op, k, e in factors)
        general = f"({c})" + "".join(f"{op}({power(k, e)})" for op, k, e in factors)
        assert self.parsed(fast) == self.parsed(general)

    def test_rank_mismatch_position(self):
        with pytest.raises(RankMismatch, match=re.escape("variable x3 outside rank 2 (position 5)")):
            parsing.parse_terms("2*x1*x3^2", 2)

    @pytest.mark.parametrize("bits, refused", [(parsing._MAX_COEFF_BITS - 1, True), (parsing._MAX_COEFF_BITS - 2, False)])
    def test_coefficient_bit_bound(self, bits, refused):
        # a coefficient of b bits times x1 is refused when b + 2 passes the
        # bound, on both paths
        c = str(2 ** (bits - 1))
        for text in (f"{c}*x1", f"({c})*(x1)"):
            if refused:
                with pytest.raises(ExpansionTooLarge):
                    parsing.parse_terms(text, 1)
            else:
                assert parsing.parse_terms(text, 1)[2] == {(1,): Fraction(int(c))}
