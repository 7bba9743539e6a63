"""Parameter validation and measure bookkeeping."""

from fractions import Fraction as F

import pytest

from qdegree.model import (InvalidParamsError, OutOfRangeError, measure_chars,
                           measure_orbit, measure_report, validate)


class TestValidate:
    def test_basic(self):
        p = validate(2, 3, 1, 1)
        assert p.n == 6
        assert p.warnings == ()

    def test_t_exceeds_m(self):
        with pytest.raises(InvalidParamsError):
            validate(2, 2, 3, 0)

    def test_non_divisor_warning(self):
        p = validate(6, 2, 4, 0)
        assert p.n == 12
        assert len(p.warnings) == 1
        assert "divide" in p.warnings[0]

    @pytest.mark.parametrize("m,d,t,a", [(0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 0, 0), (1, 1, 1, -1)])
    def test_rejects_bad_integers(self, m, d, t, a):
        with pytest.raises(InvalidParamsError):
            validate(m, d, t, a)

    def test_rejects_q_at_most_one(self):
        with pytest.raises(InvalidParamsError):
            validate(1, 1, 1, 0, q=F(1))
        with pytest.raises(InvalidParamsError):
            validate(1, 1, 1, 0, q=0.5)

    @pytest.mark.parametrize("q", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_non_finite_q(self, q):
        with pytest.raises(InvalidParamsError, match="finite"):
            validate(1, 1, 1, 0, q=q)

    def test_rejects_nonpositive_deg_sigma(self):
        with pytest.raises(InvalidParamsError):
            validate(1, 1, 1, 0, deg_sigma=F(0))


class TestMeasures:
    def test_chars_values(self):
        assert measure_chars(validate(2, 3, 1, 0), 2) == 8
        assert measure_chars(validate(1, 1, 1, 0), 1) == 1
        assert measure_chars(validate(3, 2, 1, 0), 1) == 6

    def test_orbit_values(self):
        assert measure_orbit(validate(2, 3, 2, 0), 2) == 2
        assert measure_orbit(validate(2, 3, 1, 0), 2) == 8
        assert measure_orbit(validate(6, 2, 3, 0), 1) == 4

    def test_out_of_range(self):
        p = validate(2, 3, 1, 0)
        with pytest.raises(OutOfRangeError):
            measure_chars(p, 0)
        with pytest.raises(OutOfRangeError):
            measure_orbit(p, 4)

    def test_torsion_relation_and_top_level(self):
        for m, d, t in [(2, 3, 2), (6, 4, 3), (4, 2, 2), (5, 5, 1)]:
            p = validate(m, d, t, 0)
            for l in range(1, d + 1):
                assert measure_orbit(p, l) * t ** l == measure_chars(p, l)
            assert measure_chars(p, d) == m ** d
            assert measure_orbit(p, d) == F(m, t) ** d

    def test_report(self):
        r = measure_report(validate(2, 3, 2, 0), 2)
        assert (r.level, r.chars_measure, r.orbit_measure) == (2, 8, 2)
