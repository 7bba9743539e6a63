"""Residue data: iterated residues along the nested specialization points,
the per-level residue datum with its measure prefactor, and the fully
specialized scalar that feeds the degree formula.

The datum at level l is  (m logq / t)^(d-l) * 1/(d-l+1)  times the iterated
residue Res_(z_l = r_l) ... Res_(z_(d-1) = r_(d-1)), leaving z_1..z_(l-1)
free.  At l = 1 everything is specialized; the (logq)^(d-1) prefactor then
cancels the d-1 simple-pole residues exactly, so the scalar has log grade 0
and closed form

    (m/t)^(d-1) (1/d) q^(a d(d-1)/2) q^(t d(d-1)/2) (q^t - 1)^d / (q^(td) - 1).

The chain is taken in one pass over the form's binomials
(``iterated_residue``).
"""

from __future__ import annotations

from fractions import Fraction

from .coords import residue_plan
from .model import SetupParams
from .mu import mu_on_z
from .qform import FactoredForm, HigherOrderPoleError, as_exponent, residue, split_at_point


def iterated_residue(f: FactoredForm, steps: tuple[tuple[str, Fraction], ...]) -> FactoredForm:
    """Apply the residues at (z_k, r_k) of ``steps`` in order, innermost first.

    Substituting a constant for one variable never changes the coefficient
    of another, so a binomial whose exponent is zero at the full point
    vanishes at exactly one level, the one that substitutes the last of its
    variables, and every other binomial is regular along the whole chain.
    So the chain is one pass: ``split_at_point`` evaluates the binomials at
    the whole point of the steps, lays out each level's vanishing binomials
    as one canonical form and merges the regular values (187 binomials of mu
    give 12 values at d = 12).  ``residue`` takes each level's simple pole
    on its form, which has no monomial and no regular factor, so the pole
    is a constant, kept as integers along the chain, and a log grade; the
    result is one build of the regular part.  A level of pole order >= 2,
    where the derivatives of the regular part would enter, raises
    ``HigherOrderPoleError``; this is checked before any level of order
    <= 0 makes the result zero, since the orders of the later levels are
    only known after such a pole is taken.  Variables without a step stay
    free; no steps give f itself.
    """
    monomial, levels, regular = split_at_point(f, steps)
    orders = [-sum(m for _, m in level.binomials) for level in levels]
    for (name, point), order in zip(steps, orders):
        if order >= 2:
            raise HigherOrderPoleError(f"pole of order {order} at {name} = {point}")
    if any(order != 1 for order in orders):
        return FactoredForm.from_constant(0)
    num, den, log_grade = f.constant.numerator, f.constant.denominator, f.log_grade
    for (name, point), level in zip(steps, levels):
        (pole,) = residue(level, name, point).terms
        num *= pole.constant.numerator
        den *= pole.constant.denominator
        log_grade += pole.log_grade
    return FactoredForm.build(Fraction(num, den), log_grade, monomial, regular)


def res_al(p: SetupParams, psi: FactoredForm, l: int) -> FactoredForm:
    """The level-l residue datum of psi (given in the z-variables), a form in
    the surviving variables z_1..z_(l-1); its prefactor carries log grade d-l.

    The prefactor (m/t)^(d-l)/(d-l+1) * logq^(d-l) is a constant and a log
    grade, so it goes straight into the canonical residue's constant, as one
    Fraction of integers, and its log grade, with no build.
    """
    p.check_level(l)
    k = p.d - l
    inner = iterated_residue(psi, residue_plan(p)[:k])
    if inner.is_zero:
        return inner
    c = inner.constant
    return FactoredForm(Fraction(c.numerator * p.m ** k, c.denominator * p.t ** k * (k + 1)),
                        inner.log_grade + k, inner.monomial, inner.binomials)


def res_a1_mu(p: SetupParams) -> FactoredForm:
    """The fully specialized scalar datum of mu; no variables, log grade 0."""
    return res_al(p, mu_on_z(p), 1)


def residue_closed_form(p: SetupParams) -> FactoredForm:
    """Closed form of res_a1_mu:  (m/t)^(d-1) (1/d) q^((a+t) d(d-1)/2) (q^t-1)^d / (q^(td)-1).

    With q^k - 1 = -(1 - q^k), the sign is (-1)^d / (-1) = (-1)^(d-1).  The
    constant is one Fraction of integers.
    """
    k = p.d - 1
    return FactoredForm.build(Fraction((-1) ** k * p.m ** k, p.t ** k * p.d), 0,
                              (p.a + p.t) * (p.d * k // 2),
                              [(as_exponent(p.t), p.d), (as_exponent(p.t * p.d), -1)])
