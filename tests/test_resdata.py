"""Residue-datum tests: iterated residues, prefactors, the closed scalar."""

from fractions import Fraction as F

import pytest

from qdegree.checks import theorem_grid
from qdegree.coords import residue_plan
from qdegree.model import OutOfRangeError, validate
from qdegree.mu import mu_on_z
from qdegree.qform import AffineExponent as AE, FactoredForm as FF, residue
from qdegree.resdata import (iterated_residue, res_a1_mu, res_al,
                             residue_closed_form)


class TestIteratedResidue:
    @pytest.mark.parametrize("t", (1, 2, 3))
    def test_two_block_value(self, t):
        # Res at z1 = t of the two-block mu: -q^a (1-q^-t)(1-q^t) / ((1-q^-2t) logq)
        p = validate(t, 2, t, 1)
        got = iterated_residue(mu_on_z(p), residue_plan(p))
        want = (FF.q_power(1) * FF.binomial(-t) * FF.binomial(t)
                * FF.binomial(-2 * t, -1)).scale(-1) * FF.from_constant(1, -1)
        assert got == want

    def test_stop_at_top_level_is_identity(self):
        # the top level l = d takes no steps
        p = validate(1, 3, 1, 0)
        f = mu_on_z(p)
        assert iterated_residue(f, ()) == f

    def test_regular_function_gives_zero(self):
        p = validate(1, 3, 1, 0)
        f = FF.q_power(AE.make(0, {"z1": 1, "z2": 1}))
        assert iterated_residue(f, residue_plan(p)).is_zero
        # the datum of a zero residue is the one zero form: no prefactor's log grade
        zero = res_al(p, FF.from_constant(2), 1)
        assert zero == FF.from_constant(0)
        assert zero.log_grade == 0

    def test_surviving_variables(self):
        p = validate(1, 4, 1, 0)
        out = res_al(p, mu_on_z(p), 2)
        exponents = [out.monomial] + [e for e, _ in out.binomials]
        assert {v for e in exponents for v, _ in e.coeffs} == {"z1"}


class TestResAl:
    def test_top_level_keeps_function(self):
        p = validate(2, 3, 2, 1)
        f = mu_on_z(p)
        assert res_al(p, f, 3) == f

    def test_two_block_datum_grade_zero(self):
        p = validate(2, 2, 2, 0)
        assert res_al(p, mu_on_z(p), 1).log_grade == 0

    def test_mid_level_grade_bookkeeping(self):
        p = validate(1, 3, 1, 1)
        # one residue taken (grade -1), one prefactor power (grade +1)
        assert iterated_residue(mu_on_z(p), residue_plan(p)[:1]).log_grade == -1
        assert res_al(p, mu_on_z(p), 2).log_grade == 0

    def test_prefactor_rational_part(self):
        p = validate(6, 3, 2, 0)
        assert res_al(p, FF.from_constant(1), 3) == FF.from_constant(1)
        # (m/t)^(d-l) / (d-l+1) = 3/2
        term = res_al(p, mu_on_z(p), 2)
        plain = res_al(validate(2, 3, 2, 0), mu_on_z(p), 2)
        assert term == plain.scale(3)

    @pytest.mark.parametrize("d", (1, 3))
    def test_level_outside_one_to_d(self, d):
        p = validate(2, d, 1, 0)
        for l in (0, d + 1):
            with pytest.raises(OutOfRangeError):
                res_al(p, mu_on_z(p), l)


class TestClosedScalar:
    def test_single_block(self):
        assert res_a1_mu(validate(5, 1, 1, 2)).is_one
        assert residue_closed_form(validate(5, 1, 1, 2)).is_one

    def test_two_block_example(self):
        # (m/t)(1/2) q^a q^t (q^t-1)^2 / (q^2t - 1)
        p = validate(2, 2, 2, 1)
        q2_minus_1 = FF.binomial(2).scale(-1)
        want = (FF.from_constant(F(1, 2)) * FF.q_power(1) * FF.q_power(2)
                * q2_minus_1 * q2_minus_1 / FF.binomial(4).scale(-1))
        assert res_a1_mu(p) == want

    def test_three_block_example(self):
        # d=3, t=1, a=0, m=1: (1/3) q^3 (q-1)^3 / (q^3 - 1)
        got = res_a1_mu(validate(1, 3, 1, 0))
        q_minus_1 = FF.binomial(1).scale(-1)
        want = (FF.from_constant(F(1, 3)) * FF.q_power(3)
                * q_minus_1 * q_minus_1 * q_minus_1 / FF.binomial(3).scale(-1))
        assert got == want

    def test_closed_form_on_grid(self):
        for p in theorem_grid(d_max=6):
            got = res_a1_mu(p)
            assert got.log_grade == 0
            assert got == residue_closed_form(p), (p.m, p.d, p.t, p.a)

    def test_fault_injection_scales_by_level_factors(self, drop_level_inverse):
        p = validate(1, 3, 1, 0)
        honest = drop_level_inverse(p, mu_on_z(p), 1)  # the unpatched res_al
        faulty = res_a1_mu(p)
        assert faulty == honest.scale(p.d)


class TestBaseChange:
    def test_every_block_is_the_unramified_one_at_q_to_the_t(self):
        """The residue route alone, with no closed form: t enters only through
        Q = q^t, a only through q^(a d(d-1)/2) and m only through (m/t)^(d-1),

            res_a1_mu(m, d, t, a) = (m/t)^(d-1) q^(a d(d-1)/2) sigma_t(res_a1_mu(1, d, 1, 0)),

        where sigma_t multiplies every exponent by t.  t need not divide m."""
        for d in range(1, 13):
            base = res_a1_mu(validate(1, d, 1, 0))
            for m in range(1, 7):
                for t in range(1, m + 1):
                    for a in range(4):
                        want = FF.build(base.constant * F(m, t) ** (d - 1), base.log_grade,
                                        base.monomial.scale(t) + a * d * (d - 1) // 2,
                                        [(e.scale(t), k) for e, k in base.binomials])
                        assert res_a1_mu(validate(m, d, t, a)) == want, (m, d, t, a)


class TestOrderInsensitivity:
    @pytest.mark.parametrize("m,t,a", [(1, 1, 0), (2, 2, 1), (2, 1, 2)])
    def test_three_block_residues_commute_across_hyperplanes(self, m, t, a):
        """The two simple-pole extractions commute when the first residue is
        taken across the actual pole hyperplane.  In z-coordinates the level-1
        hyperplane is tilted (z1 = t + z2/2), so the reversed order takes its
        first residue at that affine point; reversing with both points held
        fixed would see no pole at all (mu is regular at z1 = r1 for generic z2).
        """
        p = validate(m, 3, t, a)
        f = mu_on_z(p)
        (forward,) = residue(residue(f, "z2", F(t)), "z1", F(3 * t, 2)).terms
        tilted = residue(f, "z1", AE.make(t, {"z2": F(1, 2)}))
        assert residue(tilted, "z2", F(t)).terms == (forward,)
        # fixed-point reversal: regular in z1 at generic z2, hence zero
        assert residue(residue(f, "z1", F(3 * t, 2)), "z2", F(t)).is_zero
