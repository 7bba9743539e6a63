"""Reference values computed apart from qdegree, with plain integers,
``Fraction`` and floats.  Nothing here imports the package under test.

The closed-form degree of the paper:

    deg(pi_d) = |GL_n(F_q)| / |GL_m(F_q)|^d * q^(mn - n^2)
              * m^(d-1) / (t^(d-1) d)
              * q^((a+t) d(d-1)/2) * (q^t - 1)^d / (q^(td) - 1) * deg(sigma)^d

with n = m d, and the level-1 residue scalar, the same expression without
the group orders, the q^(mn - n^2) factor and deg(sigma)^d.
"""

from __future__ import annotations

import math
from fractions import Fraction


def gl_order(k: int, q: int) -> int:
    """|GL_k(F_q)| = prod_(i<k) (q^k - q^i)."""
    out = 1
    for i in range(k):
        out *= q ** k - q ** i
    return out


def exact_degree(m: int, d: int, t: int, a: int, q: int,
                 deg_sigma: Fraction = Fraction(1)) -> Fraction:
    """The closed-form degree at an integer q, exactly."""
    n = m * d
    return (Fraction(gl_order(n, q), gl_order(m, q) ** d)
            * Fraction(q) ** (m * n - n * n)
            * Fraction(m ** (d - 1), t ** (d - 1) * d)
            * Fraction(q) ** ((a + t) * d * (d - 1) // 2)
            * Fraction((q ** t - 1) ** d, q ** (t * d) - 1)
            * Fraction(deg_sigma) ** d)


def log10_degree(m: int, d: int, t: int, a: int, q: float) -> float:
    """log10 of the closed-form degree with deg(sigma) = 1, summed factor by
    factor in floats so that it stays finite where the degree itself does not.
    """
    lq = math.log10(q)

    def log10_gl(k: int) -> float:
        return sum(k * lq + math.log10(1 - q ** (i - k)) for i in range(k))

    n = m * d
    return (log10_gl(n) - d * log10_gl(m) + (m * n - n * n) * lq
            + (d - 1) * math.log10(m / t) - math.log10(d)
            + (a + t) * d * (d - 1) / 2 * lq
            + d * math.log10(q ** t - 1) - math.log10(q ** (t * d) - 1))


def residue_scalar(m: int, d: int, t: int, a: int, q: float) -> float:
    """(m/t)^(d-1)/d * q^((a+t)d(d-1)/2) (q^t - 1)^d / (q^(td) - 1) in floats."""
    return ((m / t) ** (d - 1) / d * q ** ((a + t) * d * (d - 1) / 2)
            * (q ** t - 1) ** d / (q ** (t * d) - 1))
