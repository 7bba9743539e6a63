"""Formal degree assembly: finite general linear group orders, the gamma
constant of the induction step, the closed-form degree, and the identity
check between the assembled and closed expressions.

deg(sigma) is kept as an opaque positive symbolic unit unless a rational
value is supplied; the result is always a log-grade-0 factored form in q
times deg(sigma)^d.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .checks import CheckReport, run_check
from .model import OutOfRangeError, SetupParams
from .qform import UNITS, FactoredForm, as_exponent
from .resdata import res_a1_mu, residue_closed_form


@dataclass(frozen=True)
class DegreeResult:
    """A formal degree: factored q-part, the power of deg(sigma) carried
    symbolically (0 if folded in as a rational), and an optional numeric value.
    """

    factored: FactoredForm
    deg_sigma_power: int
    numeric: float | None = None

    def render(self) -> str:
        if self.deg_sigma_power == 0:
            return self.factored.render()
        unit = "degσ" if self.deg_sigma_power == 1 else f"degσ^{self.deg_sigma_power}"
        if self.factored.is_one:
            return unit
        return f"{self.factored.render()} * {unit}"

    def __str__(self) -> str:
        return self.render()


def gl_order(n: int) -> FactoredForm:
    """|GL_n| over the q-element field: |GL_n| = q^(n(n-1)/2) * prod_(k=1..n)
    (q^k - 1), and q^k - 1 = -(1 - q^k).  The exponents 1..n are positive,
    distinct and in canonical order: the shared ``as_exponent`` ints, laid out.
    """
    if n < 1:
        raise OutOfRangeError(f"matrix size {n} must be positive")
    return FactoredForm(UNITS[n % 2], 0, as_exponent(n * (n - 1) // 2),
                        tuple([(as_exponent(k), 1) for k in range(1, n + 1)]))


def gamma_factor(p: SetupParams) -> FactoredForm:
    """The induction constant |GL_n| / |GL_m|^d * q^(mn - n^2), laid out as gl_order.

    The factors (1 - q^k) of |GL_m|^d cancel those of |GL_n| for k <= m, which
    leaves multiplicity 1 - d there (none at d = 1) and 1 for m < k <= n; the
    signs (-1)^n / (-1)^(md) cancel since n = md.
    """
    m, n, d = p.m, p.n, p.d
    low = [(as_exponent(k), 1 - d) for k in range(1, m + 1)] if d > 1 else []
    return FactoredForm(UNITS[0], 0,
                        as_exponent(n * (n - 1) // 2 - d * (m * (m - 1) // 2) + m * n - n * n),
                        tuple(low + [(as_exponent(k), 1) for k in range(m + 1, n + 1)]))


_MARGIN_BITS = 64  # how far beyond the float range the bounds must lie, past their rounding
_HIGH = sys.float_info.max_exp + _MARGIN_BITS
_LOW = sys.float_info.min_exp - _MARGIN_BITS


def _numeric(factored: FactoredForm, q: Fraction | float) -> float | None:
    """The value at q as a float, or None when it lies beyond the range of normal floats.

    A float q is evaluated exactly too, at the rational it stands for.  A
    value whose ``log2_bounds`` lie far beyond that range returns None before
    the exact evaluation, whose big integers would take seconds.
    """
    q = Fraction(q)
    bounds = factored.log2_bounds(q)
    if bounds is not None and (bounds[0] > _HIGH or bounds[1] < _LOW):
        return None
    try:
        value = float(factored.eval_exact(q))
    except OverflowError:
        return None
    return value if sys.float_info.min <= abs(value) <= sys.float_info.max else None


def _finish(p: SetupParams, factored: FactoredForm) -> DegreeResult:
    """Fold in deg(sigma) when given, as one Fraction of integers with the
    constant; evaluate when q is also given.

    ``numeric`` stays None when the value does not fit in a float; the exact
    factored form is still returned.
    """
    power = p.d
    if p.deg_sigma is not None:
        c, s = factored.constant, p.deg_sigma
        factored = FactoredForm(Fraction(c.numerator * s.numerator ** p.d,
                                         c.denominator * s.denominator ** p.d),
                                factored.log_grade, factored.monomial, factored.binomials)
        power = 0
    numeric = None
    if p.q is not None and power == 0:
        numeric = _numeric(factored, p.q)
    return DegreeResult(factored, power, numeric)


def closed_form_degree(p: SetupParams) -> DegreeResult:
    """The closed-form degree

        |GL_n|/|GL_m|^d q^(mn-n^2) * m^(d-1)/(t^(d-1) d)
        * q^((a+t) d(d-1)/2) * (q^t-1)^d / (q^(td)-1) * deg(sigma)^d,

    that is gamma times the closed residue scalar times deg(sigma)^d.
    """
    return _finish(p, gamma_factor(p) * residue_closed_form(p))


def assemble_degree(p: SetupParams) -> DegreeResult:
    """Degree assembled from the residue route:

        gamma * deg(sigma)^d * |Stab|^(-1) * (fully specialized residue datum),

    with |Stab| = 1 because the discrete-series point is regular.
    """
    return _finish(p, gamma_factor(p) * res_a1_mu(p))


def _theorem_failure(p: SetupParams) -> str | None:
    """None when the two degrees agree, else the render of their quotient.

    Canonical forms are equal exactly when the functions are, so the forms
    are compared directly; the quotient is built only to show a failure.
    """
    lhs = assemble_degree(p)
    rhs = closed_form_degree(p)
    if lhs == rhs:
        return None
    return (lhs.factored / rhs.factored).render()


def verify_theorem(p: SetupParams) -> CheckReport:
    """Check assemble_degree == closed_form_degree canonically."""
    return run_check(f"theorem m={p.m} d={p.d} t={p.t} a={p.a}", _theorem_failure, p)
