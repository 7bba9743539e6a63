"""Numeric oracle: quadrature of mu over a shifted compact torus against the
sum of residue-data terms.

The left side integrates mu over the product of circles Re(z_l) = R_l, at
the chamber point R_l = r_l + t/2 + 1/4 beyond every crossed pole, with the
unfolded prefactor (logq/2pi)^(d-1) (m/t)^(d-1); trapezoidal nodes on the
period 2pi/logq give spectral accuracy.  The right side unfolds the shift of
each circle to the unitary axis.  Every crossed pole contributes a residue
term:

  * the nested chain gives, for each level l, the datum res_al(mu, l)
    integrated over the unitary torus in z_1..z_(l-1) with the measure
    factor (d-l+1) (m/t)^(l-1) (logq/2pi)^(l-1) -- at l = 1 this is
    d times the fully specialized scalar;
  * for d = 3 the unfolding also crosses the two tilted pair hyperplanes
    z_1 = t + z_2/2 and z_1 = t - z_2/2 (levels +1 of the pairs (1,2) and
    (1,3)), whose residues are integrated over the unitary z_2 circle.

At that chamber point these are exactly the crossed poles for d <= 3, and
the two sides agree to machine precision.

Both sides evaluate forms on a sparse meshgrid of nodes (``_eval_grid``).
Exponents are affine, so q^E splits into a constant times one factor per
variable; each such factor is one exponential over a single axis, shared by
every binomial of the form, and only multiplications run over the full grid.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

import numpy as np

from .checks import CheckReport
from .coords import residue_point, z_var
from .model import InvalidParamsError, OutOfRangeError, SetupParams
from .mu import mu_on_z
from .qform import (AffineExponent, DivisionByZeroError, FactoredForm,
                    SumForm, as_sum, residue)
from .resdata import res_al


@dataclass(frozen=True)
class QuadratureSpec:
    """Contour quadrature parameters.

    ``nodes`` is the per-circle node count (a power of two, at least 16).
    """

    q: float
    nodes: int = 256
    tolerance: float = 1e-8

    def __post_init__(self):
        if not self.q > 1:
            raise InvalidParamsError(f"q must exceed 1, got {self.q}")
        if self.nodes < 16 or self.nodes & (self.nodes - 1):
            raise InvalidParamsError(f"nodes must be a power of two >= 16, got {self.nodes}")
        if not self.tolerance > 0:
            raise InvalidParamsError(f"tolerance must be positive, got {self.tolerance}")


def default_shift(p: SetupParams) -> tuple[float, ...]:
    """Chamber point beyond every crossed pole: R_l = r_l + t/2 + 1/4."""
    return tuple(float(residue_point(p, l)) + p.t / 2 + 0.25 for l in range(1, p.d))


def _eval_grid(f: Union[FactoredForm, SumForm], q: float,
               arrays: Mapping[str, np.ndarray]) -> np.ndarray:
    """Vectorized eval_numeric over the nodes of a sparse meshgrid.

    Every exponent is affine, so q^E = q^(c_0) * prod_v exp(lnq c_v z_v).  Each
    axis factor exp(lnq c_v z_v) is one exponential over the nodes of that
    axis alone, computed once per (variable, coefficient) pair in this call
    and shared by the monomial and every binomial of every term.  q^(c_0) is
    a numpy complex scalar, so it overflows to inf, with numpy's warning, as
    a full-grid exponential does; broadcasting the product then costs one
    full-grid multiply per factor.  Multiplicities are repeated
    multiplications into one numerator and one denominator per term, divided
    once; before that division each denominator factor is checked for nodes
    where it vanishes.  Returns an array of the broadcast shape of ``arrays``.
    """
    lnq = math.log(q)
    shape = np.broadcast_shapes(*(a.shape for a in arrays.values())) if arrays else ()
    axis_powers: dict[tuple[str, Fraction], np.ndarray] = {}

    def q_power(e: AffineExponent) -> np.ndarray:
        """q^e as a new array over the axes of e's variables."""
        value = np.array(np.exp(complex(lnq * float(e.const))))
        for v, c in e.coeffs:
            power = axis_powers.get((v, c))
            if power is None:
                power = axis_powers[v, c] = np.exp(lnq * float(c) * arrays[v])
            value = value * power
        return value

    total = np.zeros(shape, dtype=complex)
    for term in as_sum(f).terms:
        numerator = np.full(shape, complex(term.constant) * lnq ** term.log_grade)
        numerator *= q_power(term.monomial)
        denominator = np.ones(shape, dtype=complex)
        for e, mult in term.binomials:
            factor = q_power(e)
            np.subtract(1.0, factor, out=factor)
            if mult < 0 and np.abs(factor).min() < 1e-12:
                raise DivisionByZeroError(
                    f"denominator factor (1 - q^({e})) vanishes on the contour")
            product = numerator if mult > 0 else denominator
            for _ in range(abs(mult)):
                product *= factor
        numerator /= denominator
        total += numerator
    return total


def _unitary_nodes(q: float, nodes: int) -> np.ndarray:
    period = 2 * math.pi / math.log(q)
    return 1j * period * np.arange(nodes) / nodes


def _torus_mean(f: Union[FactoredForm, SumForm], spec: QuadratureSpec,
                shifts: Mapping[str, float]) -> complex:
    """Node mean of f over the circles Re(v) = shifts[v], ``spec.nodes`` per
    circle, on a sparse meshgrid; over no circles it is f's constant value.
    """
    nodes = _unitary_nodes(spec.q, spec.nodes)
    axes = np.meshgrid(*[nodes] * len(shifts), indexing="ij", sparse=True)
    arrays = {v: shift + axis for (v, shift), axis in zip(shifts.items(), axes)}
    return complex(_eval_grid(f, spec.q, arrays).mean())


def lhs_contour(p: SetupParams, spec: QuadratureSpec) -> complex:
    """(logq/2pi)^(d-1) (m/t)^(d-1) times the iterated box integral of mu
    over the circles Re(z_l) = R_l of ``default_shift``; equals (m/t)^(d-1)
    times the node mean.
    """
    shifts = {z_var(j): r for j, r in enumerate(default_shift(p), start=1)}
    return (Fraction(p.m, p.t) ** (p.d - 1)) * _torus_mean(mu_on_z(p), spec, shifts)


def _offchain_sum(p: SetupParams, f: FactoredForm) -> SumForm:
    """Residues of mu across the tilted hyperplanes z_1 = t -+ z_2/2 (d = 3).

    These are the level +1 loci of the pairs (1,2) and (1,3); both are
    crossed when z_1 is shifted to the unitary axis.  Each residue is taken
    in z_1 at the affine point itself.  ``f`` is mu_on_z(p).
    """
    return sum((residue(f, z_var(1), AffineExponent.make(p.t, {z_var(2): sign}))
                for sign in (Fraction(1, 2), Fraction(-1, 2))), SumForm())


@dataclass(frozen=True)
class DecompositionReport:
    """Both sides of the residue decomposition with the per-term breakdown."""

    lhs: complex
    rhs: complex
    chain_terms: tuple[complex, ...]  # indexed by level l = 1..d
    offchain_term: complex
    relative_error: float
    status: str  # pass iff relative_error <= the spec's tolerance, else fail


def residue_terms(p: SetupParams, spec: QuadratureSpec) -> tuple[tuple[complex, ...], complex]:
    """Per-level chain terms and the off-chain term of the unfolded right side."""
    if p.d > 3:
        raise OutOfRangeError("residue decomposition is implemented for d <= 3")
    ratio = Fraction(p.m, p.t)
    f = mu_on_z(p)
    chain = []
    for l in range(1, p.d + 1):
        datum = res_al(p, f, l)
        if l == 1:
            mean = complex(datum.eval_numeric(spec.q))
        else:
            mean = _torus_mean(datum, spec, {z_var(j): 0.0 for j in range(1, l)})
        chain.append((p.d - l + 1) * (ratio ** (l - 1)) * mean)
    offchain = 0j
    if p.d == 3:
        mean = _torus_mean(_offchain_sum(p, f), spec, {z_var(2): 0.0})
        offchain = math.log(spec.q) * (ratio ** 2) * mean
    return tuple(chain), offchain


def decomposition_report(p: SetupParams, spec: QuadratureSpec) -> DecompositionReport:
    """Both sides and the per-term breakdown.

    Raises OverflowError when a side does not fit in a complex float: an
    overflowed node value turns the node mean into inf or nan, and numpy's
    warnings about it are silenced in favour of that one error.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        # residue_terms first: it rejects an unsupported depth before the
        # quadrature allocates its nodes^(d-1) grid
        chain, offchain = residue_terms(p, spec)
        lhs = lhs_contour(p, spec)
    rhs = sum(chain, 0j) + offchain
    if not (cmath.isfinite(lhs) and cmath.isfinite(rhs)):
        raise OverflowError(f"lhs = {lhs}, rhs = {rhs} at q = {spec.q}")
    rel = abs(lhs - rhs) / max(abs(lhs), 1.0)
    status = "pass" if rel <= spec.tolerance else "fail"
    return DecompositionReport(lhs, rhs, chain, offchain, rel, status)


def verify_residue_decomposition(p: SetupParams, spec: QuadratureSpec) -> CheckReport:
    """The decomposition as a named check, with ``decomposition_report``'s status."""
    start = time.perf_counter()
    name = f"contour d={p.d} q={spec.q} t={p.t} m={p.m} a={p.a}"
    report = decomposition_report(p, spec)
    elapsed = int(1000 * (time.perf_counter() - start))
    return CheckReport(name, report.status, f"{report.relative_error:.3e}", elapsed)
