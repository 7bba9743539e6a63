"""The Harish-Chandra mu-function as an exact factored form.

mu is the product over block pairs i < j of a rank-one factor depending only
on the difference x = s_i - s_j.  Each factor is even in x, vanishes to
second order at x = 0, and has simple poles at x = +-1.  Merging the blocks
l..d and peeling off block l-1 gives the level ratio in a single variable,
which telescopes to a closed two-over-two form.

mu has two paths: ``mu_full``, one build for any weight, and ``mu_on_z``, the
generic weight's mu read off its integer rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

from .coords import Weight, generic_weight
from .model import OutOfRangeError, SetupParams
from .qform import UNITS, AffineExponent, ExponentValue, FactoredForm, as_exponent, integer_rows


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
    """Product of rank-one factors over all block pairs 1 <= i < j <= d, in one build.

    Depends only on the differences s_i - s_j, so it is shift invariant.  It
    takes any weight, and it is the reference for ``mu_on_z``.
    """
    if weight.dim != p.d:
        raise OutOfRangeError(f"weight has {weight.dim} entries, expected {p.d}")
    s = weight.s
    return FactoredForm.build(1, 0, (p.a + p.t) * comb(p.d, 2), [
        b for i in range(p.d) for j in range(i + 1, p.d)
        for b in _rank_one_binomials(p, (s[i] - s[j]).scale(p.t))])


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
    """mu at the symbolic weight sum_j z_j atilde_j in z1..z(d-1), laid out
    with no build from that weight's entries t s_k as integer rows over one
    denominator D (``integer_rows``).

    Each row has numerator 0; row k is nonzero exactly on z1..zk, the last row
    on z1..z(d-1); and in each column c every row below row c holds the same
    value, tail[c].  So the part t(s_i - s_j), i < j, row i minus row j on
    columns zi..zj, is row i's run [row_i[i] - tail[i], -tail[i+1], ...] cut
    to its first j - i entries, then -row_j[j], which the last row, lacking
    column zj, does not add: no zero among them, a positive first coefficient,
    and all parts distinct.  Each run is made once, and as its entries are the
    same in every later part, the gcd that reduces a part is carried along j.
    The parts come in build's order (by the first name as a string, z10 < z2,
    then by j), in three runs, one per binomial of ``_rank_one_binomials``
    sorted by constant (-t < 0 < t); tx + c is (c den + terms) / den, so a
    part's binomials share its terms.
    """
    den, names, entries = integer_rows([(e, p.t) for e in generic_weight(p).s])
    rows = [row for _, row in entries]
    tail = [rows[c + 1][c] for c in range(p.d - 1)]  # column c of every row below row c
    parts = []
    for i in sorted(range(p.d - 1), key=names.__getitem__):
        run = [rows[i][i] - tail[i], *[-v for v in tail[i + 1:]]]
        g = den
        for j in range(i + 1, p.d):
            g = gcd(g, run[j - i - 1])  # column j-1: the same in every later part
            part = run[:j - i]
            if j < p.d - 1:  # column j, which the last row lacks
                part.append(-rows[j][j])
            r = gcd(g, part[-1])
            terms = tuple(zip(names[i:j + 1], part if r == 1 else [c // r for c in part]))
            parts.append(AffineExponent(0, den // r, terms))
    runs = sorted((e._num, m) for e, m in _rank_one_binomials(p, as_exponent(0)))
    binomials = tuple([(AffineExponent(c * tx._den, tx._den, tx._terms) if c else tx, m)
                       for c, m in runs for tx in parts])
    return FactoredForm(UNITS[0], 0, as_exponent((p.a + p.t) * comb(p.d, 2)), binomials)
