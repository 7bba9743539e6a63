"""Parameter validation."""

from fractions import Fraction as F

import pytest

import qdegree
from qdegree.model import InvalidParamsError, validate

NON_FINITE = (float("inf"), float("-inf"), float("nan"))


class TestValidate:
    def test_basic(self):
        p = validate(2, 3, 1, 1)
        assert p.n == 6
        assert p.warnings == ()

    def test_integer_q_is_kept_as_a_fraction(self):
        q = validate(1, 2, 1, 0, q=3).q
        assert q == F(3) and type(q) is F

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

    @pytest.mark.parametrize("kwargs", [
        *(pytest.param({"q": x}, id=str(x)) for x in NON_FINITE),
        *(pytest.param({"deg_sigma": x}, id=f"deg_sigma={x}") for x in NON_FINITE)])
    def test_rejects_non_finite_q(self, kwargs):
        with pytest.raises(InvalidParamsError, match="finite"):
            validate(1, 1, 1, 0, **kwargs)

    def test_rejects_nonpositive_deg_sigma(self):
        with pytest.raises(InvalidParamsError):
            validate(1, 1, 1, 0, deg_sigma=F(0))

    def test_messages_print_rationals_past_the_digit_limit(self):
        # str() of these refuses more than 4300 digits by default
        with pytest.raises(InvalidParamsError) as caught:
            validate(1, 2, 1, 0, q=F(1, 10 ** 5000))
        assert str(caught.value).endswith("got 1/1" + "0" * 5000)
        with pytest.raises(InvalidParamsError) as caught:
            validate(1, 2, 1, 0, deg_sigma=-10 ** 5000)
        assert str(caught.value).endswith("got -1" + "0" * 5000)


def test_public_names_resolve():
    # a name left in __all__ after its definition is gone fails here
    assert [name for name in qdegree.__all__ if not hasattr(qdegree, name)] == []
