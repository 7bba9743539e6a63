"""Input parameters for the block tower.

The setup is a cuspidal block size m repeated d times inside GL(n), n = m*d,
with torsion number t (order of the unramified stabilizer of the cuspidal)
and pair conductor a.  Levels l = 1..d index the Levi tower
M_l = GL_m^(l-1) x GL_((d-l+1)m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .qform import q_problem, rational_text


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

    def check_level(self, l: int, low: int = 1) -> None:
        if not low <= l <= self.d:
            raise OutOfRangeError(f"level {l} outside [{low}, {self.d}]")


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
    if isinstance(q, int):
        q = Fraction(q)
    if q is not None and (problem := q_problem(q)):
        problems.append(problem)
    if isinstance(deg_sigma, float) and not math.isfinite(deg_sigma):
        problems.append(f"deg_sigma must be finite, got {deg_sigma}")
    elif deg_sigma is not None:
        deg_sigma = Fraction(deg_sigma)
        if not deg_sigma > 0:
            problems.append(f"deg_sigma must be positive, got {rational_text(deg_sigma)}")
    if problems:
        raise InvalidParamsError("; ".join(problems))
    warnings = ()
    if m % t:
        warnings = (f"t={t} does not divide m={m}; formulas remain rational",)
    return SetupParams(m, d, t, a, q, deg_sigma, warnings)
