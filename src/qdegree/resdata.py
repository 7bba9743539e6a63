"""Residue data: iterated residues along the nested specialization points,
the per-level residue datum with its measure prefactor, and the fully
specialized scalar that feeds the degree formula.

The datum at level l is  (m logq / t)^(d-l) * 1/(d-l+1)  times the iterated
residue Res_(z_l = r_l) ... Res_(z_(d-1) = r_(d-1)), leaving z_1..z_(l-1)
free.  At l = 1 everything is specialized; the (logq)^(d-1) prefactor then
cancels the d-1 simple-pole residues exactly, so the scalar has log grade 0
and closed form

    (m/t)^(d-1) (1/d) q^(a d(d-1)/2) q^(t d(d-1)/2) (q^t - 1)^d / (q^(td) - 1).

The chain is taken in one pass over each term's binomials.  Substituting a
constant for one variable never changes the coefficient of another, so a
binomial whose exponent is zero at the full point vanishes at exactly one
level, the one that substitutes the last of its variables; every other
binomial is regular along the whole chain and is simply evaluated at the
point.  Each level's pole is then a residue of a one-variable form made of
the binomials filed under it, and the result is one build of the regular
part times those pieces.  A level with pole order <= 0 makes the term zero.
At order >= 2 the derivatives of the regular part enter, so such a term goes
through the residues level by level instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Union

from .coords import ResiduePlan, residue_plan
from .model import SetupParams
from .mu import mu_on_z
from .qform import AffineExponent, FactoredForm, SumForm, as_sum, as_exponent, residue


@dataclass(frozen=True)
class ResidueDatumResult:
    """Residue datum at one level: prefactor bookkeeping plus the value,
    a sum form in the surviving variables z_1..z_(l-1).
    """

    level: int
    prefactor_log_grade: int
    value: SumForm


def iterated_residue(f: Union[FactoredForm, SumForm], plan: ResiduePlan,
                     stop_at: int = 1) -> SumForm:
    """Apply residues at (z_k, r_k) for k = d-1 down to stop_at, innermost first.

    Each term is handled in one pass (see the module docstring): every
    binomial exponent is evaluated at the whole plan once, the binomials
    vanishing there are filed under their level, and each level's simple
    pole is taken by ``residue`` on a one-variable form of its binomials
    alone.  A term with a level of pole order >= 2 takes the residues level
    by level, through the series engine at that level.  Variables below
    stop_at stay free.
    """
    steps = []
    for name, point in plan:
        if int(name[1:]) < stop_at:
            break
        steps.append((name, point))
    if not steps:
        return as_sum(f)
    den = lcm(*(point.denominator for _, point in steps))
    nums = {name: point.numerator * (den // point.denominator) for name, point in steps}
    position = {name: k for k, (name, _) in enumerate(steps)}
    out: list[FactoredForm] = []
    for term in as_sum(f).terms:
        out += _term_residue(term, steps, nums, den, position)
    return SumForm(tuple(out))


def _term_residue(term: FactoredForm, steps, nums, den, position) -> list[FactoredForm]:
    """The iterated residue of one term along ``steps``, as a list of terms."""
    levels: list[list] = [[] for _ in steps]
    regular = []
    for e, m in term.binomials:
        at_point = e.substitute_constants(nums, den)
        if at_point.is_zero:
            # it vanishes at the step that substitutes the last of its variables
            levels[max(position[v] for v in e.variables())].append((e, m))
        else:
            regular.append((at_point, m))
    orders = [-sum(m for _, m in level) for level in levels]
    if any(order >= 2 for order in orders):
        out = SumForm.of(term)
        for name, point in steps:
            out = residue(out, name, point)
        return list(out.terms)
    if any(order != 1 for order in orders):
        return []
    constant, log_grade = term.constant, term.log_grade
    monomial = term.monomial.substitute_constants(nums, den)
    for (name, point), level in zip(steps, levels):
        vanishing = []
        for e, m in level:
            s = e.coeff(name)  # along the chain, e is s * (name - point) at this level
            vanishing.append((AffineExponent.variable(name, s, -s * point), m))
        pole = residue(FactoredForm.build(1, 0, 0, vanishing), name, point).single_term()
        constant *= pole.constant
        log_grade += pole.log_grade
        monomial = monomial + pole.monomial
        regular += pole.binomials
    return [FactoredForm.build(constant, log_grade, monomial, regular)]


def res_al(p: SetupParams, psi: Union[FactoredForm, SumForm], l: int,
           drop_level_inverse: bool = False) -> ResidueDatumResult:
    """The level-l residue datum of psi (given in the z-variables).

    ``drop_level_inverse`` omits the 1/(d-l+1) factor; it exists only for
    fault-injection checks and must stay False in real computations.
    """
    p.check_level(l)
    inner = iterated_residue(psi, residue_plan(p), stop_at=l)
    scale = Fraction(p.m, p.t) ** (p.d - l)
    if not drop_level_inverse:
        scale /= p.d - l + 1
    prefactor = FactoredForm.from_constant(scale, log_grade=p.d - l)
    return ResidueDatumResult(l, p.d - l, inner * prefactor)


def res_a1_mu(p: SetupParams, drop_level_inverse: bool = False) -> FactoredForm:
    """The fully specialized scalar datum of mu; no variables, log grade 0."""
    datum = res_al(p, mu_on_z(p), 1, drop_level_inverse=drop_level_inverse)
    return datum.value.single_term()


def residue_closed_form(p: SetupParams) -> FactoredForm:
    """Closed form of res_a1_mu:  (m/t)^(d-1) (1/d) q^((a+t) d(d-1)/2) (q^t-1)^d / (q^(td)-1).

    With q^k - 1 = -(1 - q^k), the sign is (-1)^d / (-1) = (-1)^(d-1).
    """
    return FactoredForm.build(Fraction(p.m, p.t) ** (p.d - 1) / p.d * (-1) ** (p.d - 1), 0,
                              (p.a + p.t) * (p.d * (p.d - 1) // 2),
                              [(as_exponent(p.t), p.d), (as_exponent(p.t * p.d), -1)])
