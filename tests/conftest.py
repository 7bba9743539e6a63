"""Shared helpers: seeded random factored forms, a numeric residue oracle,
and a fault injected into the residue datum."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import pytest

from qdegree import contour, resdata
from qdegree.qform import AffineExponent, FactoredForm, as_sum


@pytest.fixture()
def drop_level_inverse(monkeypatch):
    """A fault the checks must catch: res_al without its 1/(d-l+1) factor,
    in the residue chain and in the contour oracle.  Returns the honest res_al.
    """
    honest = resdata.res_al

    def faulty(p, psi, l):
        return honest(p, psi, l).scale(p.d - l + 1)

    monkeypatch.setattr(resdata, "res_al", faulty)
    monkeypatch.setattr(contour, "res_al", faulty)
    return honest


def random_rational(rng: random.Random, max_num: int = 4, max_den: int = 3,
                    allow_zero: bool = True) -> Fraction:
    while True:
        r = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        if allow_zero or r:
            return r


def random_exponent(rng: random.Random, variables=("z",), allow_zero: bool = False) -> AffineExponent:
    while True:
        e = AffineExponent.make(random_rational(rng),
                                {v: random_rational(rng) for v in variables})
        if allow_zero or not e.is_zero:
            return e


def random_form(rng: random.Random, variables=("z",), n_binomials: int = 3) -> FactoredForm:
    """A random nonzero factored form with small exponents and multiplicities."""
    out = FactoredForm.from_constant(random_rational(rng, allow_zero=False),
                                     rng.randint(-1, 1))
    out = out * FactoredForm.q_power(random_exponent(rng, variables, allow_zero=True))
    for _ in range(rng.randint(1, n_binomials)):
        out = out * FactoredForm.binomial(random_exponent(rng, variables),
                                          rng.choice((-2, -1, 1, 1, 2)))
    return out


def circle_integral(f, q: float, name: str, center: complex, radius: float,
                    nodes: int = 256, assignment=None) -> complex:
    """(1/2pi i) closed contour integral of f dz on a small circle."""
    assignment = dict(assignment or {})
    total = 0j
    for k in range(nodes):
        w = cmath.exp(2j * math.pi * k / nodes)
        assignment[name] = center + radius * w
        total += as_sum(f).eval_numeric(q, assignment) * radius * w
    return total / nodes


def pole_distance_bound(f, name: str, point: Fraction, q: float = 2.0) -> float:
    """A radius safely inside the nearest other singularity of f around the point.

    Other poles/zeros of a binomial (1 - q^E) near z = point sit where E
    vanishes modulo the imaginary period; their distance from the point is at
    least |E(point)| * logq / (2pi-ish slack) horizontally, or the period
    vertically.  A crude but safe bound is used.
    """
    lnq = math.log(q)
    period = 2 * math.pi / lnq
    best = period / 2
    for term in as_sum(f).terms:
        for e, _ in term.binomials:
            slope = e.coeff(name)
            if not slope:
                continue
            # vertical spacing of the zero lattice of this factor
            best = min(best, period / abs(float(slope)))
            val = e.substitute(name, point)
            if val.is_zero or not val.is_constant:
                continue
            best = min(best, abs(float(val.const) / float(slope)))
    return best
