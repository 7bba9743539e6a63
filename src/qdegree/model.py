"""Input parameters and the measure bookkeeping for the block tower.

The setup is a cuspidal block size m repeated d times inside GL(n), n = m*d,
with torsion number t (order of the unramified stabilizer of the cuspidal)
and pair conductor a.  The Levi tower M_l = GL_m^(l-1) x GL_((d-l+1)m)
carries unitary character tori whose reference measures are recorded here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union


class InvalidParamsError(ValueError):
    """Rejected setup parameters."""


class OutOfRangeError(ValueError):
    """A level or index outside its valid range."""


QValue = Union[None, Fraction, float]


@dataclass(frozen=True)
class SetupParams:
    """Validated parameters (m, d, t, a) plus q-mode and the cuspidal degree.

    q is None for symbolic computation, an exact Fraction > 1, or a float > 1.
    deg_sigma is None for the symbolic unit, or a positive Fraction.
    """

    m: int
    d: int
    t: int
    a: int
    q: QValue = None
    deg_sigma: Fraction | None = None
    warnings: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return self.m * self.d

    def check_level(self, l: int, low: int = 1, high: int | None = None) -> None:
        high = self.d if high is None else high
        if not low <= l <= high:
            raise OutOfRangeError(f"level {l} outside [{low}, {high}]")


def validate(m: int, d: int, t: int, a: int,
             q: QValue = None, deg_sigma=None) -> SetupParams:
    """Validate raw parameters, deriving n and attaching warnings."""
    problems = []
    if m < 1:
        problems.append(f"m must be a positive integer, got {m}")
    if d < 1:
        problems.append(f"d must be a positive integer, got {d}")
    if t < 1:
        problems.append(f"t must be a positive integer, got {t}")
    elif m >= 1 and t > m:
        problems.append(f"t must not exceed m, got t={t} > m={m}")
    if a < 0:
        problems.append(f"a must be a nonnegative integer, got {a}")
    if isinstance(q, (int, Fraction)) and q is not None:
        q = Fraction(q)
    if isinstance(q, float) and not math.isfinite(q):
        problems.append(f"q must be finite, got {q}")
    elif q is not None and not q > 1:
        problems.append(f"q must exceed 1, got {q}")
    if deg_sigma is not None:
        deg_sigma = Fraction(deg_sigma)
        if not deg_sigma > 0:
            problems.append(f"deg_sigma must be positive, got {deg_sigma}")
    if problems:
        raise InvalidParamsError("; ".join(problems))
    warnings = ()
    if m % t:
        warnings = (f"t={t} does not divide m={m}; formulas remain rational",)
    return SetupParams(m, d, t, a, q, deg_sigma, warnings)


@dataclass(frozen=True)
class MeasureReport:
    """Reference measures at one level of the tower."""

    level: int
    chars_measure: Fraction
    orbit_measure: Fraction


def measure_chars(p: SetupParams, l: int) -> Fraction:
    """Total measure (d-l+1) * m^l of the unitary character torus at level l.

    The covering onto the central-torus characters, (z_1, ..., z_l) ->
    (z_1^m, ..., z_{l-1}^m, z_l^((d-l+1)m)), has this degree.
    """
    p.check_level(l)
    return Fraction((p.d - l + 1) * p.m ** l)


def measure_orbit(p: SetupParams, l: int) -> Fraction:
    """Total measure (d-l+1) * (m/t)^l of the unitary orbit at level l.

    The fibers of the character torus over the orbit all have cardinality t^l.
    """
    p.check_level(l)
    return (p.d - l + 1) * Fraction(p.m, p.t) ** l


def measure_report(p: SetupParams, l: int) -> MeasureReport:
    return MeasureReport(l, measure_chars(p, l), measure_orbit(p, l))
