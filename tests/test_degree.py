"""Degree assembly tests with brute-force finite-field oracles."""

import itertools
from fractions import Fraction as F

import pytest

from qdegree.checks import theorem_grid
from qdegree.degree import (assemble_degree, closed_form_degree, gamma_factor,
                            gl_order, verify_theorem)
from qdegree.model import OutOfRangeError, validate
from qdegree.qform import FactoredForm as FF, as_exponent


def count_invertible_matrices(n: int, p: int) -> int:
    """Brute-force count of invertible n x n matrices over the p-element field."""

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = 0
        for j in range(len(rows)):
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            total += (-1 if j % 2 else 1) * rows[0][j] * det(minor)
        return total

    count = 0
    for entries in itertools.product(range(p), repeat=n * n):
        rows = [list(entries[i * n:(i + 1) * n]) for i in range(n)]
        if det(rows) % p:
            count += 1
    return count


class TestGlOrder:
    def test_rank_one(self):
        assert gl_order(1) == FF.binomial(1).scale(-1)

    @pytest.mark.parametrize("n,expected", [(2, 6), (3, 168)])
    def test_brute_force_oracle_at_two(self, n, expected):
        assert count_invertible_matrices(n, 2) == expected
        assert gl_order(n).eval_exact(F(2)) == expected

    def test_brute_force_oracle_at_three(self):
        assert gl_order(2).eval_exact(F(3)) == count_invertible_matrices(2, 3)

    def test_positive_integer_at_prime_powers(self):
        for n in (1, 2, 3, 4):
            for q in (2, 3, 4, 5, 8, 9):
                value = gl_order(n).eval_exact(F(q))
                assert value.denominator == 1 and value > 0

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            gl_order(0)

    def test_laid_out_as_its_defining_build(self):
        # q^(n(n-1)/2) * prod_(k=1..n) (q^k - 1), each q^k - 1 written -(1 - q^k)
        for n in range(1, 97):
            want = FF.build((-1) ** n, 0, n * (n - 1) // 2,
                            [(as_exponent(k), 1) for k in range(1, n + 1)])
            assert gl_order(n) == want, n


class TestGammaFactor:
    def test_split_rank_one_case(self):
        # m=1, d=2: (q+1)/q
        got = gamma_factor(validate(1, 2, 1, 0))
        want = FF.binomial(2) / FF.binomial(1) / FF.q_power(1)
        assert got == want

    def test_trivial_levi(self):
        assert gamma_factor(validate(3, 1, 1, 0)).is_one

    def test_exact_rational_value(self):
        got = gamma_factor(validate(2, 2, 1, 0)).eval_exact(F(2))
        assert got == F(20160, 36 * 256)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_laid_out_as_its_defining_build(self, m):
        # |GL_n| / |GL_m|^d * q^(mn - n^2) as one list of factors, uncancelled:
        # d = 1 leaves every factor k <= m with multiplicity 0, which must be dropped
        for d in range(1, 17):
            n = m * d
            factors = ([(as_exponent(k), 1) for k in range(1, n + 1)]
                       + [(as_exponent(k), -1) for k in range(1, m + 1)] * d)
            want = FF.build(F(-1) ** n / F(-1) ** (m * d), 0,
                            n * (n - 1) // 2 - d * (m * (m - 1) // 2) + m * n - n * n, factors)
            assert gamma_factor(validate(m, d, m, 0)) == want, (m, d)

    @pytest.mark.parametrize("m", [1, 2, 3, 6])
    def test_equals_group_orders(self, m):
        # d = 1 leaves every factor k <= m with multiplicity 0, which must be dropped
        for d in range(1, 17):
            n = m * d
            want = gl_order(n)
            for _ in range(d):
                want = want / gl_order(m)
            want = want * FF.q_power(m * n - n * n)
            assert gamma_factor(validate(m, d, m, 0)) == want, (m, d)


class TestDepthZeroSlice:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_closed_degree_is_the_hecke_formula(self, m):
        """At (t, a) = (m, m^2 - m) with deg(sigma) = 1 the closed degree is

            |GL_n| / (|GL_m|^d q^(m^2 d(d-1)/2)) * (1 - q^-m)^d / (1 - q^-md) / d.

        This checks gamma_factor's cancellations and the closed scalar's
        exponents on that slice, written as that formula built from
        ``gl_order``.  It does not confirm that a = m^2 - m is the pair
        conductor.
        """
        for d in range(1, 17):
            n = m * d
            want = gl_order(n)
            for _ in range(d):
                want = want / gl_order(m)
            want = (want * FF.q_power(-(m * m * d * (d - 1) // 2))
                    * FF.binomial(-m, d) * FF.binomial(-m * d, -1)).scale(F(1, d))
            got = closed_form_degree(validate(m, d, m, m * m - m, deg_sigma=1))
            assert got.factored == want and got.deg_sigma_power == 0, (m, d)


class TestDegree:
    def test_single_block_is_cuspidal_degree(self):
        r = closed_form_degree(validate(2, 1, 1, 0))
        assert r.factored.is_one and r.deg_sigma_power == 1
        assert r.render() == "degσ"

    def test_steinberg_of_gl2(self):
        # d=2, m=1, t=1, a=0: ((q-1)/2) degσ^2
        r = closed_form_degree(validate(1, 2, 1, 0))
        assert r.factored == FF.binomial(1).scale(F(-1, 2))
        assert r.deg_sigma_power == 2
        a = assemble_degree(validate(1, 2, 1, 0))
        assert a.factored == r.factored

    def test_assembled_equals_closed_with_numeric(self):
        p = validate(2, 2, 2, 1, q=F(3), deg_sigma=F(1))
        a, c = assemble_degree(p), closed_form_degree(p)
        assert a.factored == c.factored
        assert a.deg_sigma_power == c.deg_sigma_power == 0
        assert a.numeric == pytest.approx(c.numeric)
        assert a.numeric == pytest.approx(float(a.factored.eval_exact(F(3))))

    def test_numeric_positive_and_scaling_in_deg_sigma(self):
        base = closed_form_degree(validate(2, 3, 2, 1, q=F(2), deg_sigma=F(1)))
        scaled = closed_form_degree(validate(2, 3, 2, 1, q=F(2), deg_sigma=F(5)))
        assert base.numeric > 0
        assert scaled.numeric == pytest.approx(base.numeric * 5 ** 3)

    def test_float_q_mode(self):
        r = closed_form_degree(validate(1, 2, 1, 0, q=2.5, deg_sigma=F(2)))
        assert r.numeric == pytest.approx((2.5 - 1) / 2 * 4)

    # at float q=1000, q^(-1440) underflows before the large binomials are
    # applied, so a factor-by-factor product used to give 0.0, not None; a
    # degree below the smallest normal float is None as well, not 0.0
    @pytest.mark.parametrize("q, deg_sigma", [(F(1000), F(1)), (F(2), F(10) ** 400),
                                              (2.0, F(10) ** 400), (1000.0, F(1)),
                                              (F(2), F(10) ** -400), (2.0, F(10) ** -400)])
    def test_beyond_float_range_keeps_exact_form(self, q, deg_sigma):
        r = closed_form_degree(validate(6, 10, 3, 1, q=q, deg_sigma=deg_sigma))
        assert r.numeric is None
        assert r.deg_sigma_power == 0
        symbolic_q = closed_form_degree(validate(6, 10, 3, 1, deg_sigma=deg_sigma))
        assert r.factored == symbolic_q.factored

    # a magnitude estimate settles these before the exact evaluation, whose
    # big integers took seconds (18 s for the first case)
    @pytest.mark.parametrize("d, q, deg_sigma", [(12, F(10) ** 300, 1), (10, F(1000), 1),
                                                 (10, F(2), F(10) ** -400),
                                                 (10, F(1000001, 1000000), F(10) ** -400)])
    def test_far_beyond_float_range_skips_exact_evaluation(self, monkeypatch, d, q, deg_sigma):
        def refuse(self, q):
            raise AssertionError("exact evaluation ran")

        monkeypatch.setattr(FF, "eval_exact", refuse)
        assert closed_form_degree(validate(6, d, 3, 1, q=q, deg_sigma=deg_sigma)).numeric is None

    # near q = 1 each factor 1 - q^k lies far below q^max(k, 0); the bounds
    # take its logarithm, so they settle these in milliseconds, where the
    # exact evaluation took seconds (log2 of the values: -1177, -1945)
    @pytest.mark.parametrize("d, q", [(600, F(1001, 1000)), (300, 1.0001)])
    def test_beyond_float_range_near_q_one_skips_exact_evaluation(self, monkeypatch, d, q):
        def refuse(self, q):
            raise AssertionError("exact evaluation ran")

        monkeypatch.setattr(FF, "eval_exact", refuse)
        assert closed_form_degree(validate(1, d, 1, 0, q=q, deg_sigma=1)).numeric is None

    # the Steinberg degree of GL_2 at q = 21 is 10 deg(sigma)^2
    @pytest.mark.parametrize("deg_sigma, want", [(F(10) ** 153, 1e307), (F(10) ** -154, 1e-307)])
    def test_near_the_float_limits_still_evaluated(self, deg_sigma, want):
        got = closed_form_degree(validate(1, 2, 1, 0, q=F(21), deg_sigma=deg_sigma)).numeric
        assert got == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("m, d, t, a, q", [(3, 6, 3, 0, 1000.0), (6, 8, 1, 1, 2.0),
                                               (6, 8, 2, 0, 2.0)])
    def test_float_q_with_factors_beyond_range(self, m, d, t, a, q):
        # in range, but a factor-by-factor float product passes below the
        # smallest normal float on the way and loses digits (up to 7 % here)
        got = closed_form_degree(validate(m, d, t, a, q=q, deg_sigma=1)).numeric
        exact = closed_form_degree(validate(m, d, t, a, q=F(q), deg_sigma=1)).numeric
        assert got == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("m, d, t, a, q", [(1, 2, 1, 0, 3.0), (1, 4, 1, 0, 2.0),
                                               (2, 3, 2, 1, 2.5), (6, 4, 3, 2, 1.1),
                                               (3, 6, 3, 0, 1000.0)])
    def test_float_q_is_evaluated_exactly(self, m, d, t, a, q):
        # a float q stands for the rational F(q), so both give the same float;
        # the first case is the Steinberg value (q - 1)/2 = 1
        got = closed_form_degree(validate(m, d, t, a, q=q, deg_sigma=1)).numeric
        assert got == closed_form_degree(validate(m, d, t, a, q=F(q), deg_sigma=1)).numeric
        if (m, d, q) == (1, 2, 3.0):
            assert got == 1.0


class TestTheoremIdentity:
    def test_full_grid(self):
        for p in theorem_grid(d_max=6):
            report = verify_theorem(p)
            assert report.passed, (report.name, report.detail)

    def test_non_divisor_torsion_still_exact(self):
        # t need not divide m; everything stays a rational identity
        for m, d, t in [(6, 3, 4), (5, 2, 3), (6, 4, 5)]:
            p = validate(m, d, t, 1)
            assert p.warnings
            assert verify_theorem(p).passed

    def test_deeper_towers(self):
        for d in (7, 8):
            assert verify_theorem(validate(2, d, 2, 1)).passed

    def test_full_grid_at_depths_seven_and_eight(self):
        cases = [p for p in theorem_grid(d_max=8, m_set=(1, 2, 3, 6), a_set=(0, 1, 2))
                 if p.d >= 7]
        assert len(cases) == 54
        for p in cases:
            report = verify_theorem(p)
            assert report.passed, (report.name, report.detail)

    def test_full_grid_at_depths_nine_to_sixteen(self):
        cases = [p for p in theorem_grid(d_max=16, m_set=(1, 2, 3, 6), a_set=(0, 1, 2))
                 if p.d >= 9]
        assert len(cases) == 216
        for p in cases:
            report = verify_theorem(p)
            assert report.passed, (report.name, report.detail)

    def test_depth_sixty_four(self):
        report = verify_theorem(validate(6, 64, 3, 1))
        assert report.passed, report.detail

    @pytest.mark.parametrize("d", [12, 16])
    def test_deep_towers(self, d):
        report = verify_theorem(validate(6, d, 3, 1))
        assert report.passed, report.detail

    def test_positive_at_random_numeric_q(self):
        import random

        rng = random.Random(99)
        for _ in range(25):
            p = validate(rng.choice((1, 2, 3)), rng.randint(1, 5), 1,
                         rng.choice((0, 1, 2)), q=1 + 9 * rng.random(),
                         deg_sigma=F(rng.randint(1, 5)))
            r = closed_form_degree(p)
            assert r.numeric is not None and r.numeric > 0

    def test_examples(self):
        assert verify_theorem(validate(2, 3, 2, 1)).passed
        assert verify_theorem(validate(1, 6, 1, 0)).passed

    def test_fault_injection_reports_quotient_d(self, drop_level_inverse):
        report = verify_theorem(validate(2, 3, 2, 1))
        assert report.status == "fail"
        assert report.detail == "3"

    def test_quotient_of_equal_forms_is_one(self):
        p = validate(2, 4, 2, 2)
        q = assemble_degree(p).factored / closed_form_degree(p).factored
        assert q.is_one
