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
from .qform import (AffineExponent, ExponentValue, FactoredForm, RowSum, as_exponent,
                    sorted_binomials)


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
    at x = 0; poles at x = +-1 raise.
    """
    return FactoredForm.build(1, 0, p.a + p.t, _rank_one_binomials(p, as_exponent(x).scale(p.t)))


def mu_full(p: SetupParams, weight: Weight) -> FactoredForm:
    """Product of rank-one factors over all block pairs 1 <= i < j <= d.

    Depends only on the differences s_i - s_j, so it is shift invariant.  The
    adjacent steps t(s_i - s_(i+1)) come from the entries' integer rows
    (``Weight.steps``), and each part tx = t(s_i - s_j) is a running sum of
    the steps' rows (``RowSum.running_sums``): a row addition and one gcd
    step per pair.

    When no part has a constant term, as for every weight ``z_to_s`` makes
    from symbolic z, the canonical binomials are laid out here, once per
    distinct part, with no build.  The pair factor is even in x, so a part
    and its negative give the same three canonical binomials and the same
    constant and monomial: each part is taken with a positive leading
    coefficient.  Equal parts merge into a multiplicity k, and a zero part
    makes mu zero.  The distinct parts are sorted once with their counts in
    build's order (``sorted_binomials``).  The binomials are three runs in
    that order of the parts, one per binomial of ``_rank_one_binomials``
    sorted by constant (-t < 0 < t): (tx - t)^(-k), (tx)^(2k), (tx + t)^(-k);
    tx + c is laid out as (c den + terms) / den, as tx has no constant, and
    the run at 0 holds the part itself, so a part's three binomials share its
    terms tuple.  A weight whose differences carry a constant, which only
    tests pass, takes the one general build of all pair binomials instead.
    """
    if weight.dim != p.d:
        raise OutOfRangeError(f"weight has {weight.dim} entries, expected {p.d}")
    steps = weight.steps(p.t)
    rows = RowSum([(step, 1) for step in steps])
    parts = [tx for i in range(p.d - 1) for tx in rows.running_sums(i)]
    monomial = (p.a + p.t) * (p.d * (p.d - 1) // 2)
    if any(step._num for step in steps):  # the parts carry constants
        return FactoredForm.build(1, 0, monomial,
                                  [b for tx in parts for b in _rank_one_binomials(p, tx)])
    counts: dict[AffineExponent, int] = {}
    for tx in parts:
        if tx.is_zero:
            return FactoredForm.from_constant(0)
        if tx._terms[0][1] < 0:
            tx = -tx
        counts[tx] = counts.get(tx, 0) + 1
    order = sorted_binomials(counts)
    runs = sorted((e._num, m) for e, m in _rank_one_binomials(p, as_exponent(0)))
    binomials = tuple([(AffineExponent(c * tx._den, tx._den, tx._terms) if c else tx, m * k)
                       for c, m in runs for tx, k in order])
    return FactoredForm(Fraction(1), 0, as_exponent(monomial), binomials)


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
