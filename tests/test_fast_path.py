"""The closed simple-pole residue against the general series engine.

``residue`` takes a simple pole in one step; ``local_series`` expands every
factor as a truncated Laurent series.  At a simple pole both must give the
same canonical form, including when zeros and poles at the point partly
cancel.
"""

from fractions import Fraction as F

import pytest

from qdegree.qform import AffineExponent as AE, FactoredForm as FF, local_series, residue

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

rationals = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
nonzero_rationals = rationals.filter(bool)
exponents = st.builds(lambda c, z, w: AE.make(c, {"z": z, "w": w}),
                      rationals, rationals, rationals)


def _vanishing(slope: F, point: F) -> AE:
    """slope * (z - point): the exponent of a binomial that vanishes at the point."""
    return AE.make(-slope * point, {"z": slope})


@st.composite
def simple_pole_forms(draw):
    """A form with net pole order one at a random rational point.

    Up to two vanishing numerator binomials of total multiplicity k are
    balanced by up to three vanishing denominators of total multiplicity
    k + 1, with independent slopes; regular factors may involve a spectator
    variable w.
    """
    point = draw(rationals)
    zeros = draw(st.lists(st.tuples(nonzero_rationals, st.integers(1, 2)), max_size=2))
    n_poles = sum(m for _, m in zeros) + 1
    cuts = sorted(draw(st.sets(st.integers(1, n_poles - 1), max_size=2))) if n_poles > 1 else []
    poles = [(draw(nonzero_rationals), a - b) for a, b in zip([0] + cuts, cuts + [n_poles])]
    binomials = [(_vanishing(s, point), m) for s, m in zeros + poles]
    for e, m in draw(st.lists(st.tuples(exponents, st.sampled_from((-2, -1, 1, 2))),
                              max_size=4)):
        if not e.substitute("z", point).is_zero:
            binomials.append((e, m))
    f = FF.build(draw(nonzero_rationals), draw(st.integers(-1, 2)), draw(exponents), binomials)
    return f, point


@hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
@hypothesis.given(simple_pole_forms())
def test_simple_pole_residue_matches_series(case):
    f, point = case
    assert f.pole_order("z", point) == 1
    got = residue(f, "z", point)
    assert got == local_series(f, "z", point, -1).coefficient(-1)
    assert len(got.terms) == 1
    assert got.terms[0].log_grade == f.log_grade - 1


def test_zero_and_double_pole_cancel_to_simple_pole():
    # (1 - q^(2(z-1))) / (1 - q^(z-1))^2 * (1 - q^(z+w)): the vanishing parts
    # lead with (-2 logq w) / (logq w)^2, so the residue at z = 1 is
    # -2/logq * (1 - q^(1+w))
    f = (FF.binomial(_vanishing(F(2), F(1))) * FF.binomial(_vanishing(F(1), F(1)), -2)
         * FF.binomial(AE.make(0, {"z": 1, "w": 1})))
    got = residue(f, "z", 1)
    assert got.single_term() == FF.build(-2, -1, 0, [(AE.make(1, {"w": 1}), 1)])
    assert got == local_series(f, "z", 1, -1).coefficient(-1)

