"""Root and coordinate layer: the rescaled simple roots, coroot pairings,
conversion between residue coordinates z and block coordinates s, and the
nested specialization points.

A point lambda with character |det_m|^(s_1) x ... x |det_m|^(s_d) is stored
by its s-vector.  The residue coordinates z_1, ..., z_(d-1) parametrize
lambda = sum_j z_j * atilde_j, where atilde_j is the rescaled simple root
normalized so that  t * <alpha_l^vee, sum z_j atilde_j> = z_l - ((d-l-1)/(d-l)) z_(l+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Sequence

from .model import OutOfRangeError, SetupParams
from .qform import AffineExponent, ExponentValue, as_exponent, integer_rows, row_exponent


def z_var(j: int) -> str:
    return f"z{j}"


@dataclass(frozen=True)
class Weight:
    """A point in s-coordinates; entries are affine expressions (constants
    included) in the residue variables.  Only differences of entries matter:
    the composite coroot joining blocks i < j pairs to s[i - 1] - s[j - 1].
    Every weight of ``z_to_s`` sums to zero, because every rescaled root does.
    """

    s: tuple[AffineExponent, ...]

    def shift(self, c: ExponentValue) -> "Weight":
        c = as_exponent(c)
        return Weight(tuple(e + c for e in self.s))

    def as_fractions(self) -> tuple[Fraction, ...]:
        if not all(e.is_constant for e in self.s):
            raise ValueError("weight has symbolic entries")
        return tuple(e.const for e in self.s)


def pairing_coroot(p: SetupParams, l: int, weight: Weight) -> AffineExponent:
    """<alpha_l^vee, lambda> = s_l - s_(l+1) for 1 <= l <= d-1."""
    if not 1 <= l <= p.d - 1:
        raise OutOfRangeError(f"coroot index {l} outside [1, {p.d - 1}]")
    return weight.s[l - 1] - weight.s[l]


def z_to_s(p: SetupParams, z_values: Sequence[ExponentValue]) -> Weight:
    """The weight sum_j z_j * atilde_j for given z-values (rational or affine).

    The rescaled root atilde_j has entry j equal to the head (d-j)/(t(d-j+1)),
    entries after j equal to the tail -1/(t(d-j+1)), and earlier entries 0.
    Since head - tail = 1/t, entry k is sum_(j<=k) z_j tail_j + z_k / t, and
    z_k / t = -(d-k+1) z_k tail_k.  So one pass over the rows z_j tail_j on the
    lcm of their denominators (``integer_rows``) gives every entry, each with one
    gcd step: entry k is the running sum of rows 1..k-1 minus (d-k) times row
    k, and the last entry is the sum of all rows.
    """
    if len(z_values) != p.d - 1:
        raise OutOfRangeError(f"expected {p.d - 1} z-values, got {len(z_values)}")
    den, names, rows = integer_rows([(as_exponent(z), Fraction(-1, p.t * (p.d - j)))
                                     for j, z in enumerate(z_values)])
    num, total, entries = 0, [0] * len(names), []
    for j, (top, row) in enumerate(rows):  # row j is z_(j+1) times its tail
        f = j + 1 - p.d
        entries.append(row_exponent(num + f * top, den, names,
                                    [a + f * b for a, b in zip(total, row)]))
        num, total = num + top, list(map(add, total, row))
    entries.append(row_exponent(num, den, names, total))
    return Weight(tuple(entries))


def generic_weight(p: SetupParams) -> Weight:
    """The symbolic weight sum_j z_j * atilde_j in the variables z1..z(d-1)."""
    # the exponent z_j, given in its reduced integer form: numerator 0 over 1
    return z_to_s(p, [AffineExponent(0, 1, ((z_var(j), 1),)) for j in range(1, p.d)])


def residue_point(p: SetupParams, l: int) -> Fraction:
    if not 1 <= l <= p.d - 1:
        raise OutOfRangeError(f"level {l} outside [1, {p.d - 1}]")
    return Fraction(p.t * (p.d - l + 1), 2)


def residue_plan(p: SetupParams) -> tuple[tuple[str, Fraction], ...]:
    """Nested specialization points (z_(d-1), r_(d-1)), ..., (z_1, r_1),
    innermost first; r_l = t (d - l + 1) / 2.
    """
    return tuple((z_var(l), residue_point(p, l)) for l in range(p.d - 1, 0, -1))


def discrete_series_point(p: SetupParams) -> Weight:
    """The point with consecutive differences 1: s = ((d-1)/2, ..., (-d+1)/2)."""
    return z_to_s(p, [residue_point(p, l) for l in range(1, p.d)])
