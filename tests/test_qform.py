"""Kernel tests: canonical forms, substitution, residues, numeric
evaluation, the float bounds on exact values, and the randomized property
suites."""

import cmath
import math
import os
import pickle
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction as F

import hypothesis
import hypothesis.strategies as st
import pytest

from conftest import (circle_integral, pole_distance_bound, random_form,
                      random_rational)
from qdegree.degree import gamma_factor, gl_order
from qdegree.model import validate
from qdegree.qform import (AffineExponent as AE, DivisionByZeroError,
                           FactoredForm as FF, PoleAtSubstitutionError, SumForm,
                           as_exponent, as_sum, rational_text, residue)


# ints and Fractions, zero included; the names in their natural order
_rationals = st.one_of(st.integers(-6, 6), st.builds(F, st.integers(-6, 6), st.integers(1, 4)))
_NAMES = ("w", "z1", "z2", "z10")


class TestRationalText:
    @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @hypothesis.given(st.integers(-(2 ** 2000), 2 ** 2000),
                      st.integers(-(2 ** 2000), 2 ** 2000).filter(bool))
    def test_is_str_within_the_digit_limit(self, n, d):
        assert rational_text(n) == str(n)
        assert rational_text(F(n, d)) == str(F(n, d))

    def test_full_digits_past_the_digit_limit(self):
        assert rational_text(10 ** 5000) == "1" + "0" * 5000
        assert rational_text(F(-1, 10 ** 5000)) == "-1/1" + "0" * 5000
        if sys.get_int_max_str_digits():  # str() refuses these under the default limit
            with pytest.raises(ValueError):
                str(10 ** 5000)


class TestAffineExponent:
    def test_zero_coefficients_dropped(self):
        e = AE.make(1, {"z1": F(0), "z2": F(1, 2)})
        assert [n for n, _ in e.coeffs] == ["z2"]
        assert e.coeff("z1") == 0

    def test_structural_equality(self):
        assert AE.make(F(1, 2), {"z": 1}) == AE.make(F(1, 2), {"z": F(2, 2)})
        assert AE.make(0, {"z": 1}) != AE.make(0, {"z": -1})

    def test_substitute_affine_value(self):
        e = AE.make(1, {"z": 2, "w": 1})
        got = e.substitute("z", AE.make(F(3, 2), {"u": 1}))
        assert got == AE.make(4, {"u": 2, "w": 1})

    def test_natural_variable_order(self):
        e = AE.make(0, {"z10": 1, "z2": 1})
        assert [n for n, _ in e.coeffs] == ["z2", "z10"]

    def test_pickle_rehashes_in_another_process(self):
        # str hashes are salted per process, so the cached hash must not travel
        code = ("import pickle, sys; from qdegree.qform import AffineExponent as AE; "
                "sys.stdout.buffer.write(pickle.dumps(AE.make(1, {'z': 2})))")
        env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=os.pathsep.join(sys.path))
        data = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              check=True).stdout
        assert {AE.make(1, {"z": 2}): "found"}.get(pickle.loads(data)) == "found"

    @pytest.mark.parametrize("k", [0, -7, 96, 10 ** 30])
    def test_one_shared_instance_per_integer(self, k):
        e = as_exponent(k)
        assert as_exponent(k) is e
        assert e == AE(k) and hash(e) == hash(AE(k))
        assert e.const == k and not e.coeffs
        copy = pickle.loads(pickle.dumps(e))
        assert copy == e and hash(copy) == hash(e)
        # a Fraction and a bool are taken by value
        assert as_exponent(F(k)) == e
        assert as_exponent(True) == AE(1)

    @staticmethod
    def _built_every_way(const, coeff):
        """const + coeff * z1, fresh from make, the constructor, substitute and
        pickling, and for an integer the shared instance too."""
        e = AE.make(const, {"z1": coeff})
        ways = [AE.make(const, {"z1": coeff}), AE(e._num, e._den, tuple(e._terms)),
                AE.make(const, {"w": coeff}).substitute("w", AE.variable("z1")),
                pickle.loads(pickle.dumps(AE.make(const, {"z1": coeff})))]
        if not coeff and F(const).denominator == 1:
            ways.append(as_exponent(int(const)))
        return ways

    @hypothesis.settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @hypothesis.given(_rationals, _rationals)
    def test_equal_exponents_find_each_other_however_built(self, const, coeff):
        n = len(self._built_every_way(const, coeff))
        for i in range(n):
            for j in range(n):
                for hashed_first in (False, True):
                    key = self._built_every_way(const, coeff)[i]
                    probe = self._built_every_way(const, coeff)[j]
                    if hashed_first:  # the probe's hash is cached before the lookup
                        hash(probe)
                    found = {key: "found"}  # the key is hashed on insertion
                    assert found.get(probe) == "found"
                    assert hash(probe) == hash(key) and probe == key

    def test_an_exponent_never_hashed_equals_a_hashed_one(self):
        for const, coeff in ((F(1, 2), 3), (0, F(-2, 3)), (7, 0)):
            hashed, fresh = AE.make(const, {"z1": coeff}), AE.make(const, {"z1": coeff})
            hash(hashed)
            assert fresh == hashed and hashed == fresh
            assert fresh._hash is None  # equality compares the integers, not hashes
            assert fresh != AE.make(const + 1, {"z1": coeff})

    def test_gamma_and_gl_order_share_their_exponents(self):
        p = validate(3, 4, 1, 2)
        gamma, gl = gamma_factor(p), gl_order(p.n)
        for form in (gamma, gl):
            assert all(e is as_exponent(e._num) for e, _ in form.binomials)
            assert form.monomial is as_exponent(form.monomial._num)
        assert {id(e) for e, _ in gl.binomials} >= {id(e) for e, _ in gamma.binomials}

    @hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @hypothesis.given(st.builds(F, st.integers(-30, 30), st.integers(1, 12)),
                      st.builds(F, st.integers(-30, 30), st.integers(1, 12)))
    def test_variable_matches_make(self, coeff, const):
        # equality compares the reduced integer representation
        assert AE.variable("z", coeff, const) == AE.make(const, {"z": coeff})

    @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @hypothesis.given(_rationals, st.lists(st.tuples(st.sampled_from(_NAMES), _rationals),
                                           max_size=6), st.booleans())
    def test_make_matches_a_fraction_model(self, const, pairs, as_mapping):
        coeffs = dict(pairs) if as_mapping else pairs
        model: dict[str, F] = {}
        for name, c in (coeffs.items() if as_mapping else coeffs):
            model[name] = model.get(name, 0) + F(c)
        want = {name: c for name, c in model.items() if c}
        e = AE.make(const, coeffs)
        assert e.const == const and dict(e.coeffs) == want
        assert [n for n, _ in e.coeffs] == [n for n in _NAMES if n in want]

    @pytest.mark.parametrize("const,coeffs", [(0.5, {}), (0, {"z": 0.5}),
                                              (1, [("z", 1), ("w", 0.0)])])
    def test_make_refuses_a_float(self, const, coeffs):
        with pytest.raises(TypeError, match="exact rational"):
            AE.make(const, coeffs)

    def test_render_terms_constant_first(self):
        assert AE.make(F(-3, 2), {"z1": 1, "z2": F(-1, 2)}).render() == "-3/2 + z1 - 1/2*z2"
        assert AE.make(0, {"z1": F(5, 3)}).render() == "5/3*z1"
        assert AE.make(0).render() == "0"


class TestCanonicalForm:
    def test_inverse_pair_cancels(self):
        z = AE.variable("z")
        assert (FF.binomial(z) * FF.binomial(z, -1)).is_one

    def test_orientation_rule(self):
        z = AE.variable("z")
        got = FF.binomial(-z)
        want = FF.q_power(-z).scale(-1) * FF.binomial(z)
        assert got == want
        assert got.render() == "-1 * q^(-z) * (1 - q^(z))^1"

    def test_multiplicity_addition(self):
        b = FF.q_power(3) * FF.binomial(AE.make(2, {"z": -1}))
        got = b * b
        assert got == FF.q_power(AE.make(10, {"z": -2})) * FF.binomial(AE.make(-2, {"z": 1}), 2)

    def test_constant_orientation_parity(self):
        # (1 - q^-1)^2 = q^-2 (1 - q)^2 with positive sign
        got = FF.binomial(-1, 2)
        assert got == FF.q_power(-2) * FF.binomial(1, 2)
        assert got.constant == 1

    def test_zero_exponent_numerator_is_zero(self):
        assert FF.build(1, 0, as_exponent(0), ((as_exponent(0), 1),)).is_zero

    def test_zero_exponent_denominator_raises(self):
        with pytest.raises(PoleAtSubstitutionError):
            FF.build(1, 0, as_exponent(0), ((as_exponent(0), -1),))
        # a zero numerator factor listed first does not hide the pole
        with pytest.raises(PoleAtSubstitutionError):
            FF.build(1, 0, as_exponent(0), ((as_exponent(0), 1), (as_exponent(0), -1)))

    def test_division_by_zero_form(self):
        with pytest.raises(DivisionByZeroError):
            FF.from_constant(0).inverse()

    def test_render_golden(self):
        p = FF.from_constant(F(-1, 2), -1) * FF.q_power(AE.make(F(3, 2), {"z1": 1}))
        p = p * FF.binomial(AE.make(-1, {"z1": 1}), -1) * FF.binomial(AE.variable("z1"), 2)
        assert p.render() == ("-1/2 * logq^-1 * q^(3/2 + z1) * "
                              "(1 - q^(-1 + z1))^-1 * (1 - q^(z1))^2")
        assert FF.from_constant(1).render() == "1"
        assert FF.from_constant(0).render() == "0"

    @pytest.mark.parametrize("bits", [10, 2000, 2001, 20000, 60000])
    def test_render_constant_of_any_size(self, bits):
        # str() of an int refuses more digits than sys.get_int_max_str_digits()
        x = F(-(3 ** (bits * 100 // 158)) - 1, 7 ** (bits * 100 // 281))
        text = FF.from_constant(x).render()
        top, bottom = text.split("/")
        assert Decimal(top) == x.numerator and Decimal(bottom) == x.denominator
        assert not top.startswith("-0") and "E" not in text and "." not in text
        if bits <= 10000:  # within the default limit of 4300 digits
            assert text == str(x)


class TestZeroForm:
    def test_every_zero_is_the_one_zero_form(self):
        zero = FF.from_constant(0)
        f = FF.build(F(3, 2), 1, AE.variable("z"), [(as_exponent(2), -1)])
        zeros = (
            FF.build(5, 2, AE.variable("z"), [(as_exponent(3), 1), (as_exponent(0), 2)]),
            f.scale(0),
            f * zero,
            zero * f,
            FF(F(0)),
        )
        for z in zeros:
            assert z == zero and z.is_zero and not z.is_one
            assert z.render() == "0"
            assert z.eval_numeric(2.0, {"z": 0.5}) == 0j
            assert type(z.eval_numeric(2.0, {"z": 0.5})) is complex
        assert zero.constant == 0 and zero.binomials == () and zero.monomial.is_zero


# Few distinct values, so that the two operands often share an exponent (in
# either orientation) and its multiplicities cancel; constant and affine, with
# denominators 1, 2 and 3 mixed.
_merge_exponents = st.builds(lambda c, z: AE.make(c, {"z": z}),
                             st.builds(F, st.integers(-2, 2), st.integers(1, 3)),
                             st.sampled_from((0, 0, 1, -1, F(1, 2), F(-2, 3)))
                             ).filter(lambda e: not e.is_zero)
_merge_forms = st.builds(FF.build,
                         st.sampled_from((0, 1, -1, F(2, 3), F(-5, 4))),
                         st.integers(-1, 1),
                         st.builds(lambda c: AE.make(c, {"z": c}), st.integers(-1, 1)),
                         st.lists(st.tuples(_merge_exponents, st.sampled_from((-2, -1, 1, 2))),
                                  max_size=5))


def _half(e, m):
    """The binomial (1 - q^(e/2))^m, canonical."""
    return FF.build(1, 0, 0, [(e.scale(F(1, 2)), m)])


class TestMergedProduct:
    """Products and quotients merge two canonical forms; one ``build`` of the
    combined factors is their reference."""

    @hypothesis.settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @hypothesis.given(_merge_forms, _merge_forms)
    @hypothesis.example(FF.from_constant(0), _half(AE.variable("z"), 1))
    @hypothesis.example(FF.from_constant(F(3, 2), 1), _half(AE.variable("z"), -1))
    @hypothesis.example(_half(AE.make(F(1, 3), {"z": 1}), 2) * _half(as_exponent(3), 1),
                        _half(AE.make(F(-1, 3), {"z": -1}), -2) * _half(as_exponent(F(1, 2)), -1))
    def test_product_and_quotient_are_one_build(self, a, b):
        assert a * b == FF.build(a.constant * b.constant, a.log_grade + b.log_grade,
                                 a.monomial + b.monomial, a.binomials + b.binomials)
        if not b.is_zero:
            assert a / b == FF.build(a.constant / b.constant, a.log_grade - b.log_grade,
                                     a.monomial - b.monomial,
                                     a.binomials + tuple((e, -m) for e, m in b.binomials))


class TestSubstitute:
    def test_numerator_vanishes_to_zero(self):
        f = FF.binomial(AE.make(-2, {"z": 1}))
        assert f.substitute("z", 2).is_zero

    def test_denominator_vanishes_raises(self):
        f = FF.binomial(AE.make(-2, {"z": 1}), -1)
        with pytest.raises(PoleAtSubstitutionError):
            f.substitute("z", 2)

    @pytest.mark.parametrize("t,d,l", [(1, 3, 2), (2, 5, 3), (3, 6, 6), (2, 2, 2)])
    def test_nested_specialization_factor(self, t, d, l):
        # (1 - q^(t(d-l)/2 - z)) at z := t(d-l+2)/2 gives (1 - q^-t) for any level
        f = FF.binomial(AE.make(F(t * (d - l), 2), {"z": -1}))
        assert f.substitute("z", F(t * (d - l + 2), 2)) == FF.binomial(as_exponent(-t))

    def test_monomial_identity_case(self):
        f = FF.q_power(AE.make(0, {"z1": 1, "z2": 1}))
        assert f.substitute("z2", 0) == FF.q_power(AE.variable("z1"))

    def test_denominator_checked_before_numerator(self):
        f = FF.binomial(AE.variable("z")) * FF.binomial(AE.variable("z", 2), -1)
        with pytest.raises(PoleAtSubstitutionError):
            f.substitute("z", 0)


class TestResidue:
    def test_inverted_binomial_residue(self):
        # 1/(q^(z-c) - 1) = -1/(1 - q^(z-c)) has residue 1/logq at z = c
        c = F(3, 2)
        f = FF.binomial(AE.make(-c, {"z": 1}), -1).scale(-1)
        assert residue(f, "z", c).terms == (FF.from_constant(1, -1),)

    def test_sign_flip(self):
        c = F(3, 2)
        f = FF.binomial(AE.make(-c, {"z": 1}), -1)
        assert residue(f, "z", c).terms == (FF.from_constant(-1, -1),)

    def test_regular_point_gives_zero(self):
        f = FF.binomial(AE.variable("z")) * FF.binomial(AE.make(-1, {"z": 1}), -1)
        assert residue(f, "z", 0).is_zero

    def test_cancelling_zero_and_pole_is_regular(self):
        # (1 - q^z) / (1 - q^(2z)) has a removable point at z = 0
        f = FF.binomial(AE.variable("z")) * FF.binomial(AE.variable("z", 2), -1)
        assert residue(f, "z", 0).is_zero

    def test_slope_scaling(self):
        # residue of 1/(1 - q^(e z)) at 0 is -1/(e logq)
        for e in (F(2), F(1, 2), F(-3, 2)):
            f = FF.binomial(AE.variable("z", e), -1)
            assert residue(f, "z", 0).terms == (FF.from_constant(-1 / e, -1),)

    def test_double_pole(self):
        # 1/(1 - q^z)^2 = 1/(logq z)^2 (1 + logq z + ...) ; residue -> 1/logq ... check numerically
        f = FF.binomial(AE.variable("z"), -2)
        sym = residue(f, "z", 0)
        num = circle_integral(f, 2.0, "z", 0.0, 0.3)
        assert abs(sym.eval_numeric(2.0) - num) < 1e-10

    def test_double_pole_with_monomial_matches_circle_integral(self):
        # every kind of unit series enters: the vanishing pair, a regular
        # binomial and a monomial in z
        f = (FF.binomial(AE.variable("z", 1, F(-1, 2)), -2)
             * FF.binomial(AE.make(1, {"z": 1})) * FF.q_power(AE.variable("z", F(1, 3))))
        assert f.pole_order("z", F(1, 2)) == 2
        sym = residue(f, "z", F(1, 2)).eval_numeric(2.0)
        num = circle_integral(f, 2.0, "z", 0.5, 0.3, nodes=512)
        assert abs(sym - num) < 1e-8 * max(1, abs(num))

    def test_triple_pole_with_zero(self):
        f = FF.binomial(AE.variable("z", 1, -1), -3) * FF.binomial(AE.variable("z", 2, -2))
        sym = residue(f, "z", 1)
        num = circle_integral(f, 2.0, "z", 1.0, 0.25)
        assert abs(sym.eval_numeric(2.0) - num) < 1e-9

    def test_higher_order_poles_match_circle_integral(self):
        # random forms times two to four poles at the point, 20 of each net order 2, 3, 4
        rng = random.Random(6006)
        q = 2.0
        counts = {2: 0, 3: 0, 4: 0}
        while min(counts.values()) < 20:
            point = F(rng.randint(-2, 2), rng.randint(1, 2))
            f = random_form(rng, ("z",), n_binomials=2)
            for _ in range(rng.randint(2, 4)):
                slope = F(rng.choice((1, 2, -1, 3)))
                f = f * FF.binomial(AE.make(-point * slope, {"z": slope}), -1)
            order = f.pole_order("z", point)
            if counts.get(order, 20) >= 20:
                continue
            radius = 0.5 * pole_distance_bound(f, "z", point, q)
            if radius <= 1e-3:
                continue
            sym = residue(f, "z", point).eval_numeric(q)
            num = circle_integral(f, q, "z", complex(float(point)), radius, nodes=512)
            assert abs(sym - num) <= 1e-8 * max(1.0, abs(num))
            counts[order] += 1

    def test_residue_in_other_variables_stays_exact(self):
        # pole in z with a spectator variable w in the regular part
        f = (FF.binomial(AE.make(0, {"z": 1, "w": 1}))
             * FF.binomial(AE.make(-1, {"z": 1}), -1))
        (got,) = residue(f, "z", 1).terms
        want = FF.binomial(AE.make(1, {"w": 1})) * FF.from_constant(-1, -1)
        assert got == want

    def test_log_grade_decrement(self):
        f = FF.from_constant(3, 2) * FF.binomial(AE.variable("z"), -1)
        (got,) = residue(f, "z", 0).terms
        assert got.log_grade == 1


class TestEvalNumeric:
    def test_basic_values(self):
        assert FF.binomial(AE.variable("z")).eval_numeric(2.0, {"z": 1}) == pytest.approx(-1.0)
        assert FF.from_constant(1, -1).eval_numeric(math.e) == pytest.approx(1.0)

    def test_imaginary_axis_value(self):
        z = 1j * math.pi / math.log(2)
        f = FF.binomial(AE.variable("z", -1)) * FF.binomial(AE.variable("z"))
        assert f.eval_numeric(2.0, {"z": z}) == pytest.approx(4.0)

    def test_division_by_zero_guard(self):
        f = FF.binomial(AE.variable("z"), -1)
        with pytest.raises(DivisionByZeroError):
            f.eval_numeric(2.0, {"z": 0.0})

    def test_unassigned_variable(self):
        with pytest.raises(ValueError):
            FF.q_power(AE.variable("z")).eval_numeric(2.0, {})

    @pytest.mark.parametrize("q", [math.nan, math.inf])
    def test_non_finite_q_raises(self, q):
        # refused like q <= 1, not returned as a silent (nan+nanj)
        with pytest.raises(ValueError):
            FF.binomial(1).eval_numeric(q)

    def test_zero_value_is_complex_zero(self):
        for zero in (FF.from_constant(0), SumForm()):
            got = zero.eval_numeric(2.0)
            assert type(got) is complex and got == 0

    @pytest.mark.parametrize("q", [math.nan, math.inf, 1.0, 0.5, -2.0])
    def test_sum_refuses_q_as_a_form_does(self, q):
        for f in (SumForm(), as_sum(FF.binomial(1))):
            with pytest.raises(ValueError):
                f.eval_numeric(q)

    def test_matches_plain_product_in_range(self):
        # where every factor is an ordinary float, carrying a separate power of
        # two must not change the value of the plain factor-by-factor product
        rng = random.Random(41)
        for _ in range(300):
            f = random_form(rng, ("z", "w"), n_binomials=5)
            assignment = {"z": complex(rng.uniform(-3, 3), rng.uniform(-1, 1)),
                          "w": complex(rng.uniform(-3, 3), 0.25)}
            q = rng.choice((1.5, 2.0, 7.0))
            lnq = math.log(q)
            want = complex(f.constant) * lnq ** f.log_grade
            want *= cmath.exp(lnq * f.monomial.evaluate(assignment))
            for e, m in f.binomials:
                want *= (1.0 - cmath.exp(lnq * e.evaluate(assignment))) ** m
            assert abs(f.eval_numeric(q, assignment) - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("mult, want", [(3000, 1.0), (101, -1.0), (-101, -1.0)])
    def test_real_factor_to_high_power_stays_real(self, mult, want):
        # (1 - 2)^mult: a power beyond 100 must not pass through a complex logarithm
        got = FF.binomial(1, mult).eval_numeric(2.0)
        assert got.imag == 0
        assert got.real == want

    @pytest.mark.parametrize("mult", [200, -200, 333])
    def test_complex_factor_to_high_power(self, mult):
        # q^z = i on z = i pi / (2 log q), so the factor is 1 - i = sqrt(2) e^(-i pi/4)
        z = 1j * math.pi / (2 * math.log(2))
        got = FF.binomial(AE.variable("z"), mult).eval_numeric(2.0, {"z": z})
        want = 2 ** (mult / 2) * cmath.exp(-1j * math.pi / 4 * mult)
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_factors_beyond_float_range(self):
        # q^-2000 underflows and (1 - q^1990) overflows, their product is -2^-10
        f = FF.q_power(-2000) * FF.binomial(1990)
        assert f.eval_numeric(2.0) == pytest.approx(-2.0 ** -10, rel=1e-12)
        # a constant below the float range times q^1329 above it
        got = (FF.from_constant(F(1, 10 ** 400)) * FF.q_power(1329)).eval_numeric(2.0)
        assert got == pytest.approx(float(F(2 ** 1329, 10 ** 400)), rel=1e-12)

    @pytest.mark.parametrize("exponent", [-2000, 2000])
    def test_value_beyond_float_range_raises(self, exponent):
        with pytest.raises(OverflowError):
            FF.q_power(exponent).eval_numeric(2.0)

    def test_exact_rational_evaluation(self):
        f = FF.q_power(3) * FF.binomial(1) * FF.binomial(2, -1)
        assert f.eval_exact(F(2)) == F(8, 3)
        with pytest.raises(ValueError):
            FF.q_power(F(1, 2)).eval_exact(F(2))


class TestLog2Bounds:
    @pytest.mark.parametrize("q", [F(1), F(1, 2), F(0), F(-3)])
    def test_none_unless_q_above_one(self, q):
        assert FF.binomial(2, 3).log2_bounds(q) is None

    @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @hypothesis.given(
        st.builds(F, st.integers(-60, 60).filter(bool), st.integers(1, 60)),
        st.integers(-20, 20),
        st.lists(st.tuples(st.integers(-400, 400).filter(bool), st.integers(-3, 3)), max_size=8),
        st.one_of(st.builds(lambda n: 1 + F(1, n), st.integers(100, 10 ** 6)),
                  st.builds(F, st.integers(2, 40), st.integers(1, 20)).filter(lambda q: q > 1)))
    def test_bounds_hold_at_rational_q(self, constant, monomial, binomials, q):
        # q in (1, 1.01] too, where each factor 1 - q^k lies far below q^max(k, 0)
        f = FF.build(constant, 0, monomial, [(as_exponent(k), m) for k, m in binomials])
        low, high = f.log2_bounds(q)
        got = _log2_abs(f.eval_exact(q))
        assert low <= got <= high and high - low <= 1e-9 * (1 + abs(got))

    def test_none_for_variable_exponents_zero_and_q_too_close_to_one(self):
        assert FF.binomial(AE.variable("z")).log2_bounds(F(2)) is None
        assert FF.from_constant(0).log2_bounds(F(2)) is None
        assert FF.binomial(2, 3).log2_bounds(1 + F(1, 10 ** 400)) is None


def _log2_abs(x: F) -> float:
    """log2 |x| for a nonzero rational of any size, from its correctly rounded mantissa."""
    x = abs(x)
    k = x.numerator.bit_length() - x.denominator.bit_length()
    return math.log2(x / F(2) ** k) + k


def fraction_loop_eval(f: FF, q) -> F:
    """Reference for eval_exact: a Fraction power, a 1 - x and a normalising
    Fraction multiply per factor."""
    if f.is_zero:
        return F(0)
    if f.log_grade:
        raise ValueError("exact evaluation requires log_grade 0")
    q = F(q)

    def q_pow(e):
        if not e.is_constant or e.const.denominator != 1:
            raise ValueError(f"exponent {e} is not a constant integer")
        return q ** e.const.numerator

    value = f.constant * q_pow(f.monomial)
    for e, m in f.binomials:
        factor = 1 - q_pow(e)
        if not factor and m < 0:
            raise DivisionByZeroError(f"denominator factor (1 - q^({e})) is zero")
        value *= factor ** m
    return value


def _outcome(evaluate, f, q):
    """The value, or the type of the exception raised."""
    try:
        return evaluate(f, q)
    except ArithmeticError as exc:
        return type(exc)


class TestEvalExact:
    @pytest.mark.parametrize("q", [F(7, 2), F(2), F(-3, 2), F(0)])
    def test_matches_fraction_loop(self, q):
        rng = random.Random(1010)
        values = 0
        for _ in range(300):
            binomials = [(as_exponent(rng.choice((-1, 1)) * rng.randint(1, 12)),
                          rng.choice((-3, -2, -1, 1, 2, 3)))
                         for _ in range(rng.randint(0, 8))]
            monomial = rng.randint(-6, 6) if rng.random() < 0.5 else rng.randint(0, 6)
            constant = random_rational(rng, 9, 9, allow_zero=False)
            # build orients every exponent positive; the raw form keeps the
            # negative ones, so both branches of the kernel are compared
            raw = FF(constant, 0, as_exponent(monomial), tuple(binomials))
            for f in (FF.build(constant, 0, monomial, binomials), raw):
                want = _outcome(fraction_loop_eval, f, q)
                assert _outcome(FF.eval_exact, f, q) == want
                values += isinstance(want, F)
        assert values >= 100  # at q = 0 every negative power raises

    def test_negative_power_of_zero_raises_first(self):
        # the monomial is evaluated before the symbolic binomial
        with pytest.raises(ZeroDivisionError):
            (FF.q_power(-1) * FF.binomial(AE.variable("z"))).eval_exact(F(0))
        with pytest.raises(ZeroDivisionError):
            FF(F(1), 0, as_exponent(0), ((as_exponent(-2), -1),)).eval_exact(F(0))

    def test_integer_constant_and_int_q(self):
        f = FF.build(-4, 0, -3, [(as_exponent(-2), 3), (as_exponent(5), -2)])
        assert f.eval_exact(3) == fraction_loop_eval(f, 3)

    def test_vanishing_numerator_factor_gives_zero(self):
        f = FF.build(F(5, 3), 0, -2, [(as_exponent(3), 1), (as_exponent(-4), 2)])
        assert f.eval_exact(F(1)) == 0
        assert FF.binomial(2, 3).eval_exact(F(-1)) == 0

    @pytest.mark.parametrize("q,exponent", [(F(1), 3), (F(1), -2), (F(-1), 2), (F(-1), -4)])
    def test_vanishing_denominator_factor_raises(self, q, exponent):
        with pytest.raises(DivisionByZeroError):
            (FF.binomial(1) * FF.binomial(exponent, -1)).eval_exact(q)

    @pytest.mark.parametrize("form", [FF.q_power(F(1, 2)), FF.binomial(F(3, 2), -1),
                                      FF.q_power(AE.variable("z")),
                                      FF.binomial(AE.variable("z", 1, 2)),
                                      FF.from_constant(2, log_grade=1)])
    def test_non_integer_symbolic_or_graded_raises(self, form):
        with pytest.raises(ValueError):
            form.eval_exact(F(2))

    def test_gl_order_96_at_five(self):
        n = 96
        assert gl_order(n).eval_exact(5) == math.prod(5 ** n - 5 ** i for i in range(n))


# ---------------------------------------------------------------------------
# Randomized property suites (also exercised by the acceptance gate)
# ---------------------------------------------------------------------------

def canonical_uniqueness_cases(n_cases: int = 100) -> int:
    """Products built in different orders / with cancelling factors agree."""
    rng = random.Random(2024)
    checked = 0
    for _ in range(n_cases):
        a = random_form(rng, ("z", "w"))
        b = random_form(rng, ("z", "w"))
        c = random_form(rng, ("z", "w"))
        direct = a * b
        detoured = ((a * c) * b) / c
        assert direct == detoured
        assert a * b == b * a
        assert (direct / a) == b
        checked += 1
    return checked


def residue_shift_covariance_cases(n_cases: int = 100) -> int:
    """residue(f, z, r) == residue(f(z + r), z, 0)."""
    rng = random.Random(77)
    checked = 0
    while checked < n_cases:
        f = random_form(rng, ("z",))
        r = random_rational(rng)
        shifted = f.substitute("z", AE.variable("z", 1, r))
        lhs = residue(f, "z", r)
        rhs = residue(shifted, "z", 0)
        assert sorted(t.render() for t in lhs.terms) == sorted(t.render() for t in rhs.terms)
        checked += 1
    return checked


def residue_linearity_cases(n_cases: int = 100) -> int:
    rng = random.Random(91)
    checked = 0
    while checked < n_cases:
        f = random_form(rng, ("z",))
        c = random_rational(rng, allow_zero=False)
        lhs = residue(f.scale(c), "z", 0)
        rhs = [t.scale(c) for t in residue(f, "z", 0).terms]
        assert sorted(t.render() for t in lhs.terms) == sorted(t.render() for t in rhs)
        checked += 1
    return checked


def symbolic_numeric_residue_cases(n_cases: int = 100, tol: float = 1e-8) -> int:
    """eval of the symbolic residue matches a small-circle contour integral."""
    rng = random.Random(5150)
    q = 2.0
    checked = 0
    while checked < n_cases:
        point = F(rng.randint(-2, 2), rng.randint(1, 2))
        slope = F(rng.choice((1, 2, -1, 3)))
        pole = FF.binomial(AE.make(-point * slope, {"z": slope}), -1)
        f = pole * random_form(rng, ("z",), n_binomials=2)
        if f.pole_order("z", point) < 1:
            continue
        radius = 0.5 * pole_distance_bound(f, "z", point, q)
        if radius <= 1e-3:
            continue
        sym = residue(f, "z", point).eval_numeric(q)
        num = circle_integral(f, q, "z", complex(float(point)), radius, nodes=512)
        assert abs(sym - num) <= tol * max(1.0, abs(num))
        checked += 1
    return checked


def log_grade_cases(n_cases: int = 100) -> int:
    """Grades add under products; a simple-pole residue decrements by one."""
    rng = random.Random(13)
    checked = 0
    while checked < n_cases:
        a = random_form(rng, ("z",))
        b = random_form(rng, ("z",))
        assert (a * b).log_grade == a.log_grade + b.log_grade
        pole = FF.binomial(AE.variable("z"), -1)
        g = pole * FF.q_power(random_rational(rng))
        if g.pole_order("z", F(0)) == 1:
            (res,) = residue(g, "z", 0).terms
            assert res.log_grade == g.log_grade - 1
        checked += 1
    return checked


class TestPropertySuites:
    def test_canonical_uniqueness(self):
        assert canonical_uniqueness_cases() >= 100

    def test_residue_shift_covariance(self):
        assert residue_shift_covariance_cases() >= 100

    def test_residue_linearity(self):
        assert residue_linearity_cases() >= 100

    def test_symbolic_numeric_residue(self):
        assert symbolic_numeric_residue_cases() >= 100

    def test_log_grade_bookkeeping(self):
        assert log_grade_cases() >= 100
