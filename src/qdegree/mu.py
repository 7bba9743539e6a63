"""The Harish-Chandra mu-function as an exact factored form.

mu is the product over block pairs i < j of a rank-one factor depending only
on the difference x = s_i - s_j.  Each factor is even in x, vanishes to
second order at x = 0, and has simple poles at x = +-1.  Merging the blocks
l..d and peeling off block l-1 gives the level ratio in a single variable,
which telescopes to a closed two-over-two form.
"""

from __future__ import annotations

from fractions import Fraction

from .coords import Weight, generic_weight
from .model import OutOfRangeError, SetupParams
from .qform import AffineExponent, ExponentValue, FactoredForm, RowSum, as_exponent


def _rank_one_binomials(p: SetupParams, tx: AffineExponent) -> list[tuple[AffineExponent, int]]:
    """The binomials of the oriented pair factor at difference x, given as tx = t x,
    with multiplicities: (1 - q^(tx))^2 (1 - q^(tx+t))^-1 (1 - q^(tx-t))^-1; its
    monomial is q^(a+t).
    """
    return [(tx, 2), (tx + p.t, -1), (tx - p.t, -1)]


def rank_one_factor(p: SetupParams, x: ExponentValue) -> FactoredForm:
    """The pair factor q^(a+t) (1-q^(tx))^2 / ((1-q^(tx+t)) (1-q^(tx-t))).

    It equals q^(a+2t) (1-q^(tx))(1-q^(-tx)) / ((1-q^(t(x+1)))(1-q^(t(1-x)))):
    writing 1-q^(-tx) = -q^(-tx)(1-q^(tx)) and 1-q^(t-tx) = -q^(t-tx)(1-q^(tx-t))
    moves q^(-t) into the monomial.  The normalization q^(a+t) is the unique
    per-pair constant whose telescoped level products reproduce the closed
    level ratios; the telescoping tests pin it down.  Vanishes (second order)
    at x = 0; poles at x = +-1 raise.  For a difference s_i - s_j with i < j
    of the generic weight, every exponent already leads with a positive
    coefficient, so a build only merges and sorts.
    """
    return FactoredForm.build(1, 0, p.a + p.t, _rank_one_binomials(p, as_exponent(x).scale(p.t)))


def mu_full(p: SetupParams, weight: Weight) -> FactoredForm:
    """Product of rank-one factors over all block pairs 1 <= i < j <= d.

    Depends only on the differences s_i - s_j, so it is shift invariant.  The
    adjacent steps t(s_i - s_(i+1)) come from the entries' integer rows
    (``Weight.steps``), and each t(s_i - s_j) is a running sum of the steps'
    rows (``RowSum.running_sums``): a row addition and one gcd step per pair.
    All pair binomials go into one build, so they are merged and sorted once.
    """
    if weight.dim != p.d:
        raise OutOfRangeError(f"weight has {weight.dim} entries, expected {p.d}")
    steps = RowSum([(step, 1) for step in weight.steps(p.t)])
    binomials = []
    for i in range(p.d - 1):
        for tx in steps.running_sums(i):
            binomials += _rank_one_binomials(p, tx)
    return FactoredForm.build(1, 0, (p.a + p.t) * (p.d * (p.d - 1) // 2), binomials)


def mu_level_ratio_closed(p: SetupParams, l: int) -> FactoredForm:
    """The level ratio joining block l-1 to the merged block l..d, closed form, in one build:

        q^((d-l+1)a) (1-q^(t(d-l)/2 - z))(1-q^(t(d-l)/2 + z))
                   / ((1-q^(-t(d-l)/2 - t - z))(1-q^(-t(d-l)/2 - t + z)))
    """
    p.check_level(l, low=2)
    half = Fraction(p.t * (p.d - l), 2)
    return FactoredForm.build(1, 0, (p.d - l + 1) * p.a,
                              [(AffineExponent.variable("z", sign, c), m)
                               for c, m in ((half, 1), (-half - p.t, -1)) for sign in (-1, 1)])


def mu_level_ratio_telescoped(p: SetupParams, l: int) -> FactoredForm:
    """The same level ratio as the product of its rank-one factors.

    The pairs (l-1, j) for j = l..d, at the nested specialization, sit at
    x_j = z/t - (d-l)/2 + (j-l); the product telescopes to the closed form.
    """
    p.check_level(l, low=2)
    binomials = []
    for j in range(l, p.d + 1):
        tx = AffineExponent.variable("z", const=p.t * (Fraction(-(p.d - l), 2) + (j - l)))
        binomials += _rank_one_binomials(p, tx)
    return FactoredForm.build(1, 0, (p.a + p.t) * (p.d - l + 1), binomials)


def mu_on_z(p: SetupParams) -> FactoredForm:
    """mu at the symbolic weight sum_j z_j atilde_j in z1..z(d-1)."""
    return mu_full(p, generic_weight(p))
