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

Both sides evaluate forms at the torus nodes themselves (``_eval_grid``).
The trapezoidal nodes are equispaced on each circle, so q^E at a node
depends on it only through one integer index linear in the node indices.
The monomial and binomials that share a variable part multiply into one
short table over that index, and a strided view lays the table over the
grid, so a term costs one full-grid multiply per variable part.  Sizes
are taken out as one log per term, so a side overflows (and ``contour``
exits 3) only where its value itself lies beyond the float range.
A torus of more than MAX_GRID_NODES nodes is refused before it is built.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .checks import CheckReport
from .coords import residue_point, z_var
from .model import InvalidParamsError, OutOfRangeError, SetupParams
from .mu import mu_on_z
from .qform import (AffineExponent, DivisionByZeroError, FactoredForm,
                    SumForm, as_sum, q_problem, residue)
from .resdata import res_al

# the largest torus the quadrature evaluates, in nodes
MAX_GRID_NODES = 2 ** 24


@dataclass(frozen=True)
class QuadratureSpec:
    """Contour quadrature parameters.

    ``q`` lies in the one domain of q, ``qform.q_problem``, as validate's does;
    ``nodes`` is the per-circle node count (a power of two, at least 16).
    """

    q: float
    nodes: int = 256
    tolerance: float = 1e-8

    def __post_init__(self):
        if problems := [*filter(None, [q_problem(self.q)]),
                        *run_problems(1, self.nodes, self.tolerance)]:
            raise InvalidParamsError("; ".join(problems))


def run_problems(d: int, nodes: int, tolerance: float) -> list[str]:
    """Every problem of a quadrature's nodes and tolerance and, at depth d, of
    the decomposition's depth limit or its torus size (``_grid_problem``)."""
    problems = [] if nodes >= 16 and not nodes & (nodes - 1) else [
        f"nodes must be a power of two >= 16, got {nodes}"]
    if not tolerance > 0:
        problems.append(f"tolerance must be positive, got {tolerance}")
    elif math.isinf(tolerance):
        problems.append(f"tolerance must be finite, got {tolerance}")
    if d > 3:
        problems.append("residue decomposition is implemented for d <= 3")
    elif d >= 1 and (too_large := _grid_problem(d, nodes)):
        problems.append(too_large)
    return problems


def default_shift(p: SetupParams) -> tuple[float, ...]:
    """Chamber point beyond every crossed pole: R_l = r_l + t/2 + 1/4."""
    return tuple(float(residue_point(p, l)) + p.t / 2 + 0.25 for l in range(1, p.d))


def _grid_problem(d: int, nodes: int) -> str | None:
    """Why a quadrature is refused whose largest torus, the d - 1 circles of the
    left side and of the level-d chain term, has more than MAX_GRID_NODES nodes."""
    if nodes ** (d - 1) > MAX_GRID_NODES:
        return (f"nodes^(d-1) = {nodes}^{d - 1} exceeds the limit of "
                f"2^{MAX_GRID_NODES.bit_length() - 1} = {MAX_GRID_NODES} grid nodes")
    return None


def _eval_grid(f: FactoredForm, q: float,
               shifts: Mapping[str, float], nodes: int) -> np.ndarray:
    """Vectorized eval_numeric of one term at the nodes of the torus
    Re(v) = shifts[v]: node k_v = 0..nodes-1 of axis v is
    z_v = shifts[v] + i P k_v / nodes with P = 2pi/logq.  Returns the array
    of shape (nodes,) * len(shifts).

    An exponent E = (c + sum_v a_v z_v)/D with integers c, a_v, D gives at a
    node q^E = e^x w, with x = logq (c + sum_v a_v R_v)/D and the phase
    w = exp(2pi i M/(D nodes)) of the integer M = sum_v a_v k_v.  The
    monomial and the binomials are grouped by their variable part (D, a);
    each group's product is e^size times one 1-D table over M in [lo, hi],
    the least and greatest values the nodes reach (``_group_table``).  A
    zero-copy strided view with stride a_v on axis v (negative for a_v < 0,
    zero off the group's variables) lays the table over the grid, so the
    term costs one full-grid multiply per group with variables; a group
    without variables is a scalar factor.  The sizes are added and taken out
    as one exp, a numpy float: it overflows to inf, with numpy's warning,
    only where the term's size lies beyond the float range.
    """
    lnq = math.log(q)
    axis = {v: i for i, v in enumerate(shifts)}
    shape = (nodes,) * len(shifts)
    # the integer representation (num + terms)/den of AffineExponent
    groups: dict[tuple, list[tuple[AffineExponent, int]]] = {}
    for e, mult in ((f.monomial, 0), *f.binomials):
        groups.setdefault((e._den, e._terms), []).append((e, mult))
    size, scale, views = 0.0, complex(f.constant) * lnq ** f.log_grade, []
    for (den, coeffs), members in groups.items():
        table, lo, part = _group_table(members, den, coeffs, lnq, shifts, nodes)
        size += part
        if not coeffs:
            scale *= table[0]
            continue
        strides = [0] * len(shape)
        for v, a in coeffs:
            strides[axis[v]] = a * table.itemsize
        # element 0 of table[-lo:] is M = 0, the node k = 0
        views.append(as_strided(table[-lo:], shape, strides, writeable=False))
    scale *= np.exp(size)
    out = np.multiply(views[0], scale) if views else np.full(shape, scale)
    for view in views[1:]:
        out *= view
    return out


def _group_table(members: list[tuple[AffineExponent, int]], den: int,
                 coeffs: tuple[tuple[str, int], ...], lnq: float, shifts: Mapping[str, float],
                 nodes: int) -> tuple[np.ndarray, int, float]:
    """One variable part's monomial (multiplicity 0) and binomials over
    M = lo..hi as (table, lo, size), their product being e^size times the
    table; see ``_eval_grid``.  Every member is q^E = e^x w, with one phase
    table w.  The monomial adds x to size and w to the table.  A binomial
    (1 - q^E)^m with x > 0 is e^(m x) (e^-x - w)^m: it adds m x to size and
    e^-x - w, of modulus at most 2, to the table; with x <= 0, 1 - e^x w.

    Each denominator factor is checked on the whole table for a value of
    modulus < 1e-12.  With w = e^(i theta) both forms are 1 - r e^(+-i theta)
    times a unit, r = e^-|x|, and |1 - r e^(i theta)| >= |sin theta|, and
    >= 1 when cos theta <= 0.  So on the phases 2pi j/(D nodes) it comes
    that close to zero only where theta = 0 (mod 2pi); every such entry has
    the value of M = 0, which the node k = 0 reaches, so the check matches
    checking the nodes alone.
    """
    lo = (nodes - 1) * sum(min(a, 0) for _, a in coeffs)
    hi = (nodes - 1) * sum(max(a, 0) for _, a in coeffs)
    period = den * nodes
    w = np.exp((2j * math.pi / period) * (np.arange(lo, hi + 1) % period))
    real = sum(a * shifts[v] for v, a in coeffs)
    table, size = np.ones_like(w), 0.0
    for e, mult in members:
        x = lnq * (e._num + real) / den
        if not mult:
            size += x
            table *= w
            continue
        factor = math.exp(-x) - w if x > 0 else 1 - math.exp(x) * w
        size += mult * max(x, 0.0)
        if mult < 0 and np.abs(factor).min() < 1e-12:
            raise DivisionByZeroError(
                f"denominator factor (1 - q^({e})) vanishes on the contour")
        apply = np.multiply if mult > 0 else np.divide
        for _ in range(abs(mult)):
            apply(table, factor, out=table)
    return table, lo, size


def _torus_mean(f: Union[FactoredForm, SumForm], spec: QuadratureSpec,
                shifts: Mapping[str, float]) -> complex:
    """Node mean of f over the circles Re(v) = shifts[v], ``spec.nodes`` per
    circle, summed over f's terms; over no circles it is f's constant value.
    """
    return sum((complex(_eval_grid(term, spec.q, shifts, spec.nodes).mean())
                for term in as_sum(f).terms), 0j)


def lhs_contour(p: SetupParams, spec: QuadratureSpec, f: FactoredForm) -> complex:
    """(logq/2pi)^(d-1) (m/t)^(d-1) times the iterated box integral of
    f = mu_on_z(p) over the circles Re(z_l) = R_l of ``default_shift``;
    equals (m/t)^(d-1) times the node mean.
    """
    if too_large := _grid_problem(p.d, spec.nodes):
        raise InvalidParamsError(too_large)
    shifts = {z_var(j): r for j, r in enumerate(default_shift(p), start=1)}
    return (Fraction(p.m, p.t) ** (p.d - 1)) * _torus_mean(f, spec, shifts)


def _offchain_sum(p: SetupParams, f: FactoredForm) -> SumForm:
    """Residues of mu across the tilted hyperplanes z_1 = t -+ z_2/2 (d = 3).

    These are the level +1 loci of the pairs (1,2) and (1,3); both are
    crossed when z_1 is shifted to the unitary axis.  Each residue is taken
    in z_1 at the affine point itself.  ``f`` is mu_on_z(p).
    """
    points = [AffineExponent.make(p.t, {z_var(2): s}) for s in (Fraction(1, 2), Fraction(-1, 2))]
    return SumForm(tuple(term for at in points for term in residue(f, z_var(1), at).terms))


@dataclass(frozen=True)
class DecompositionReport:
    """Both sides of the residue decomposition with the per-term breakdown."""

    lhs: complex
    rhs: complex
    chain_terms: tuple[complex, ...]  # indexed by level l = 1..d
    offchain_term: complex
    relative_error: float
    status: str  # pass iff relative_error <= the spec's tolerance, else fail


def _check_decomposition(p: SetupParams, spec: QuadratureSpec) -> None:
    """Refuse a depth beyond 3 and an oversized torus, before mu is built."""
    if problems := run_problems(p.d, spec.nodes, spec.tolerance):
        raise (OutOfRangeError if p.d > 3 else InvalidParamsError)("; ".join(problems))


def residue_terms(p: SetupParams, spec: QuadratureSpec,
                  f: FactoredForm) -> tuple[tuple[complex, ...], complex]:
    """Per-level chain terms and the off-chain term of the unfolded right
    side of f = mu_on_z(p).  Each is a weight times a node mean; at level 1
    the mean is over no circles."""
    _check_decomposition(p, spec)
    ratio = Fraction(p.m, p.t)
    chain = []
    for l in range(1, p.d + 1):
        mean = _torus_mean(res_al(p, f, l), spec, {z_var(j): 0.0 for j in range(1, l)})
        chain.append((p.d - l + 1) * (ratio ** (l - 1)) * mean)
    offchain = 0j
    if p.d == 3:
        mean = _torus_mean(_offchain_sum(p, f), spec, {z_var(2): 0.0})
        offchain = math.log(spec.q) * (ratio ** 2) * mean
    return tuple(chain), offchain


def decomposition_report(p: SetupParams, spec: QuadratureSpec) -> DecompositionReport:
    """Both sides and the per-term breakdown, from one build of mu.

    Raises OverflowError naming the side or sides that do not fit in a
    complex float: a term's size beyond the float range turns its node mean
    into inf or nan, which the message leaves out, and numpy's warnings about
    it are silenced in favour of that one error.  An
    unsupported depth or an oversized torus is refused before mu is built.
    """
    _check_decomposition(p, spec)
    f = mu_on_z(p)
    with np.errstate(over="ignore", invalid="ignore"):
        chain, offchain = residue_terms(p, spec, f)
        lhs = lhs_contour(p, spec, f)
    rhs = sum(chain, 0j) + offchain
    beyond = [side for side, value in (("lhs", lhs), ("rhs", rhs)) if not cmath.isfinite(value)]
    if beyond:
        raise OverflowError(f"{' and '.join(beyond)} at q = {spec.q}")
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
