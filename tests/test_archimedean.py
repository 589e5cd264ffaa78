import cmath
import math
from fractions import Fraction

import pytest

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
from amoebas.laurent import parse_poly
from amoebas.scalars import FIELD_Q

from conftest import rand_point, rand_poly_q


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


class TestSignExpSum:
    def test_exact_cancellation(self):
        assert sign_exp_sum([(2, 0), (-1, 0), (-1, 0)]) == 0

    def test_strict_signs(self):
        assert sign_exp_sum([(1, 1), (-2, 0)]) == 1  # e > 2
        assert sign_exp_sum([(1, 1), (-3, 0)]) == -1  # e < 3

    def test_tiny_margin_decided(self):
        # e^(1/1000) vs the rational 1 + 1/1000: strictly larger, certify it
        assert sign_exp_sum([(1, Fraction(1, 1000)), (Fraction(-1001, 1000), 0)]) == 1


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


class TestLopsided:
    def test_far_out_dominates(self):
        f = parse_poly("x1 + x2 + 1", rank=2, field=FIELD_Q)
        assert lopsided_outside(f, (10, 10))
        assert not lopsided_outside(f, (0, 0))

    def test_pinching_point_not_lopsided(self, ex_curve_q):
        assert not lopsided_outside(ex_curve_q, (0, 0))


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
