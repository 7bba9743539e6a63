"""Coordinate layer: rescaled roots, pairings, z/s conversion, residue plans."""

from fractions import Fraction as F

import pytest

from qdegree.coords import (discrete_series_point, generic_weight, pairing_coroot,
                            residue_plan, residue_point, z_to_s, z_var)
from qdegree.model import OutOfRangeError, validate
from qdegree.qform import AffineExponent as AE, as_exponent


def alpha_tilde(p, j: int):
    """The rescaled root atilde_j: z_to_s at the j-th unit vector, which is
    one entry too long for z_to_s to accept when j > d - 1."""
    return z_to_s(p, [int(k == j) for k in range(1, max(p.d, j + 1))])


class TestAlphaTilde:
    def test_examples(self):
        assert alpha_tilde(validate(1, 2, 1, 0), 1).as_fractions() == (F(1, 2), F(-1, 2))
        assert alpha_tilde(validate(2, 3, 2, 0), 1).as_fractions() == (F(1, 3), F(-1, 6), F(-1, 6))
        assert alpha_tilde(validate(1, 3, 1, 0), 2).as_fractions() == (0, F(1, 2), F(-1, 2))

    def test_sums_to_zero(self):
        p = validate(2, 6, 2, 0)
        for j in range(1, 6):
            assert sum(alpha_tilde(p, j).as_fractions()) == 0

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            alpha_tilde(validate(1, 3, 1, 0), 3)
        with pytest.raises(OutOfRangeError):
            alpha_tilde(validate(1, 1, 1, 0), 1)


class TestPairing:
    @pytest.mark.parametrize("d", range(2, 9))
    @pytest.mark.parametrize("t", (1, 2, 3))
    def test_pairing_identity(self, d, t):
        p = validate(t, d, t, 0)
        w = generic_weight(p)
        for l in range(1, d):
            got = pairing_coroot(p, l, w).scale(t)
            want = AE.variable(z_var(l))
            if l + 1 < d:
                want = want - AE.variable(z_var(l + 1), F(d - l - 1, d - l))
            assert got == want

    def test_examples(self):
        p = validate(1, 3, 1, 0)
        assert pairing_coroot(p, 1, generic_weight(p)) == AE.make(0, {"z1": 1, "z2": F(-1, 2)})
        p = validate(1, 2, 1, 0)
        assert pairing_coroot(p, 1, generic_weight(p)) == AE.variable("z1")
        p = validate(2, 4, 2, 0)
        assert pairing_coroot(p, 3, generic_weight(p)) == AE.variable("z3", F(1, 2))

    def test_shift_invariance(self):
        p = validate(1, 4, 1, 0)
        w = generic_weight(p)
        shifted = w.shift(AE.variable("c"))
        for l in range(1, 4):
            assert pairing_coroot(p, l, w) == pairing_coroot(p, l, shifted)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            pairing_coroot(validate(1, 2, 1, 0), 2, generic_weight(validate(1, 2, 1, 0)))


class TestZToS:
    def test_residue_points_give_centered_staircase(self):
        for d in range(1, 9):
            for t in (1, 2, 3):
                p = validate(t, d, t, 0)
                s = discrete_series_point(p).as_fractions()
                assert s == tuple(F(d - 1, 2) - k for k in range(d))

    def test_zero_maps_to_zero(self):
        p = validate(1, 4, 1, 0)
        assert z_to_s(p, [0, 0, 0]).as_fractions() == (0, 0, 0, 0)

    def test_pairing_relation_single_variable(self):
        p = validate(1, 2, 1, 0)
        s = z_to_s(p, [F(1)])
        assert s.s[0] - s.s[1] == as_exponent(1)

    def test_numeric_normalization_sums_to_zero(self):
        # every rescaled root sums to zero, so z_to_s does at any numeric point
        p = validate(2, 3, 2, 0)
        s = z_to_s(p, [F(5), F(-7, 3)])
        assert sum(s.as_fractions()) == 0

    def test_wrong_length(self):
        with pytest.raises(OutOfRangeError):
            z_to_s(validate(1, 3, 1, 0), [F(1)])


class TestResiduePlan:
    def test_examples(self):
        assert list(residue_plan(validate(1, 2, 1, 0))) == [("z1", F(1))]
        assert list(residue_plan(validate(2, 3, 2, 0))) == [("z2", F(2)), ("z1", F(3))]
        assert list(residue_plan(validate(1, 1, 1, 0))) == []

    def test_points_formula(self):
        p = validate(2, 5, 2, 0)
        for l in range(1, 5):
            assert residue_point(p, l) == F(2 * (5 - l + 1), 2)
