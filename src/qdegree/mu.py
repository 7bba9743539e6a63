"""The Harish-Chandra mu-function as an exact factored form.

mu is the product over block pairs i < j of a rank-one factor depending only
on the difference x = s_i - s_j.  Each factor is even in x, vanishes to
second order at x = 0, and has simple poles at x = +-1.  Merging the blocks
l..d and peeling off block l-1 gives the level ratio in a single variable,
which telescopes to a closed two-over-two form.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd
from operator import add, floordiv, neg, sub

from .coords import Weight, generic_weight
from .model import OutOfRangeError, SetupParams
from .qform import AffineExponent, ExponentValue, FactoredForm, as_exponent, integer_rows


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


def _laid_out_parts(t: int, weight: Weight) -> list[tuple[AffineExponent, int]] | None:
    """The distinct parts tx = t(s_i - s_j), i < j, each with a positive first
    coefficient and its count, in build's order; None when a part carries a
    constant, or its row a zero between its first and last column.

    The entries t s_k are integer rows over one denominator D
    (``integer_rows``).  The part (i, j) is the running sum of the adjacent
    steps i..j-1 between the entries, read between the first and the last
    column those steps name, and it is keyed by the name of its first column
    and the tuple of its coefficients over D.  With no zero inside the row,
    its terms are exactly those columns, so equal keys are equal parts, and
    the keys sort as build sorts exponents: by the first name as a string
    (z10 < z2), then by the coefficients (``sorted_binomials``).  A part's
    gcd with D is kept along the running sum, each column that no later step
    touches folded in once; each distinct part is reduced by it after the sort.
    """
    den, names, entries = integer_rows([(e, t) for e in weight.s])
    n = len(names)
    if len({num for num, _ in entries}) > 1:
        return None
    steps = []  # (first column, end column, the step's row between them)
    for (_, a), (_, b) in zip(entries, entries[1:]):
        step = list(map(sub, a, b))
        nonzero = [k for k, c in enumerate(step) if c] or [0]
        steps.append((nonzero[0], nonzero[-1] + 1, step[nonzero[0]:nonzero[-1] + 1]))
    # the columns left of ahead[k] are final once steps ..k are added
    ahead = [*accumulate([low for low, _, _ in reversed(steps)], min)][::-1][1:] + [n]
    found: dict[tuple, list[int]] = {}
    for i in range(len(steps)):
        acc, lo, hi, g, folded = [0] * n, n, 0, den, 0
        for (low, high, step), final in zip(steps[i:], ahead[i:]):
            acc[low:high] = map(add, acc[low:high], step)
            if low < lo:
                lo = low
            if high > hi:
                hi = high
            part = tuple(acc[lo:hi])
            if not part or 0 in part:
                return None
            cut = final if final < hi else hi
            g, folded = gcd(g, *acc[folded:cut]), cut
            if part[0] < 0:
                part = tuple(map(neg, part))
            found.setdefault((names[lo], part, lo), [gcd(g, *acc[cut:hi]), 0])[1] += 1
    return [(AffineExponent(0, den // g, tuple(zip(names[lo:lo + len(part)],
                                                   map(floordiv, part, repeat(g))))), k)
            for (_, part, lo), (g, k) in sorted(found.items())]


def mu_full(p: SetupParams, weight: Weight) -> FactoredForm:
    """Product of rank-one factors over all block pairs 1 <= i < j <= d.

    Depends only on the differences s_i - s_j, so it is shift invariant.
    When no part tx = t(s_i - s_j) has a constant term, as for every weight
    ``z_to_s`` makes from symbolic z, the canonical binomials are laid out
    once per distinct part (``_laid_out_parts``), with no build.  The pair
    factor is even in x, so a part and its negative give the same three
    canonical binomials and the same constant and monomial.  The binomials
    are three runs in the parts' order, one per binomial of
    ``_rank_one_binomials`` sorted by constant (-t < 0 < t): (tx - t)^(-k),
    (tx)^(2k), (tx + t)^(-k) for a part met k times; tx + c is laid out as
    (c den + terms) / den, so a part's three binomials share its terms tuple.
    Any other weight, which only tests pass, takes one general build.
    """
    if weight.dim != p.d:
        raise OutOfRangeError(f"weight has {weight.dim} entries, expected {p.d}")
    monomial = (p.a + p.t) * (p.d * (p.d - 1) // 2)
    order = _laid_out_parts(p.t, weight)
    if order is None:
        s = weight.s
        return FactoredForm.build(1, 0, monomial, [
            b for i in range(p.d) for j in range(i + 1, p.d)
            for b in _rank_one_binomials(p, (s[i] - s[j]).scale(p.t))])
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
