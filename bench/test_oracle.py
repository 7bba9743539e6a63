"""Pins the benchmark's oracle to values obtained without its formulas.

Run with  python3 -m pytest bench/test_oracle.py
"""

import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402


def brute_force_invertible(k: int, p: int) -> int:
    """Invertible k x k matrices over F_p, counted by Gaussian elimination mod p."""

    def invertible(rows):
        rows = [list(r) for r in rows]
        for col in range(k):
            pivot = next((r for r in range(col, k) if rows[r][col] % p), None)
            if pivot is None:
                return False
            rows[col], rows[pivot] = rows[pivot], rows[col]
            inv = pow(rows[col][col], -1, p)
            for r in range(col + 1, k):
                f = rows[r][col] * inv % p
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[col])]
        return True

    count = 0
    for entries in itertools.product(range(p), repeat=k * k):
        if invertible([entries[i * k:(i + 1) * k] for i in range(k)]):
            count += 1
    return count


def test_gl_order_matches_brute_force_counts():
    assert brute_force_invertible(2, 2) == oracle.gl_order(2, 2) == 6
    assert brute_force_invertible(2, 3) == oracle.gl_order(2, 3) == 48
    assert brute_force_invertible(3, 2) == oracle.gl_order(3, 2) == 168


def test_steinberg_value():
    # m = d - 1 = t = 1, a = 0: the Steinberg representation of GL_2, (q-1)/2.
    for q in (2, 3, 4, 5, 7, 9):
        assert oracle.exact_degree(1, 2, 1, 0, q) == Fraction(q - 1, 2)
        assert oracle.exact_degree(1, 2, 1, 0, q, Fraction(3)) == Fraction(9 * (q - 1), 2)


def test_log10_degree_tracks_exact_value():
    for m, d, t, a, q in ((1, 2, 1, 0, 2), (6, 10, 3, 1, 3), (2, 16, 1, 2, 5)):
        exact = oracle.exact_degree(m, d, t, a, q)
        want = math.log10(exact.numerator) - math.log10(exact.denominator)
        assert math.isclose(oracle.log10_degree(m, d, t, a, q), want, abs_tol=1e-9)


def test_residue_scalar_at_depth_one_and_two():
    for q in (2.0, 3.0, 5.0):
        assert math.isclose(oracle.residue_scalar(3, 1, 3, 2, q), 1.0)
        # d = 2, m = t = 1, a = 0:  (1/2) q (q-1)^2 / (q^2-1) = q (q-1) / (2 (q+1))
        assert math.isclose(oracle.residue_scalar(1, 2, 1, 0, q), q * (q - 1) / (2 * (q + 1)))
