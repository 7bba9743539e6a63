"""Contour oracle tests: the grid evaluator against eval_numeric, quadrature
vs residue-term sums, the exact chamber limit, convergence, and fault injection."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_exponent, random_rational
from qdegree import contour
from qdegree.contour import (QuadratureSpec, _eval_grid, default_shift,
                             decomposition_report, lhs_contour, residue_terms,
                             verify_residue_decomposition)
from qdegree.model import InvalidParamsError, OutOfRangeError, validate
from qdegree.mu import mu_on_z
from qdegree.qform import AffineExponent, DivisionByZeroError, FactoredForm, SumForm
from qdegree.resdata import residue_closed_form


def _grid_term(rng: random.Random, variables) -> FactoredForm:
    """A random term: rational constant, log grade -1..2, a monomial in every
    variable and binomials of multiplicity +-1..+-3 with denominators <= 3."""
    monomial = AffineExponent.make(random_rational(rng), {
        v: random_rational(rng, allow_zero=False) for v in variables})
    out = (FactoredForm.from_constant(random_rational(rng, allow_zero=False),
                                      rng.randint(-1, 2))
           * FactoredForm.q_power(monomial))
    for _ in range(rng.randint(2, 5)):
        e = random_exponent(rng, rng.sample(variables, rng.randint(0, len(variables))))
        if not e.is_zero:
            out = out * FactoredForm.binomial(e, rng.choice((-3, -2, -1, 1, 2, 3)))
    return out


def _torus_nodes(q: float, shifts, nodes: int) -> dict:
    """Index -> assignment at every node z_v = R_v + i P k_v / nodes, P = 2pi/logq."""
    period = 2 * math.pi / math.log(q)
    return {k: {v: complex(r, period * kv / nodes) for (v, r), kv in zip(shifts.items(), k)}
            for k in np.ndindex((nodes,) * len(shifts))}


def _nearly_vanishes(f: SumForm, q: float, at: dict) -> bool:
    """Whether some 1 - q^E of f comes within 0.05 of zero at some node."""
    z = {v: np.array([node[v] for node in at.values()]) for v in next(iter(at.values()))}
    for term in f.terms:
        for e, _ in term.binomials:
            w = float(e.const) + sum(float(c) * z[v] for v, c in e.coeffs)
            if np.abs(1 - np.exp(math.log(q) * w)).min() < 0.05:
                return True
    return False


class TestEvalGrid:
    @pytest.mark.parametrize("dim", (0, 1, 2, 3))
    def test_matches_eval_numeric_at_every_node(self, dim):
        rng = random.Random(500 + dim)
        variables = [f"z{j}" for j in range(1, dim + 1)]
        seen = set()
        for nodes in (16, 32) if dim < 3 else (16,):
            checked = 0
            while checked < (12 if dim < 3 else 3):
                q = rng.choice((1.5, 2.0, 3.0))
                f = SumForm(tuple(_grid_term(rng, variables) for _ in range(rng.randint(1, 3))))
                shifts = {v: rng.uniform(-1, 1) for v in variables}
                at = _torus_nodes(q, shifts, nodes)
                # 1 - q^E near zero turns last-bit differences in q^E into large
                # relative ones in either evaluation, so such draws are skipped
                if _nearly_vanishes(f, q, at):
                    continue
                got = sum(_eval_grid(term, q, shifts, nodes) for term in f.terms)
                assert got.shape == (nodes,) * dim
                for k, node in at.items():
                    values = [term.eval_numeric(q, node) for term in f.terms]
                    # relative to the sum of the terms' sizes, as terms may cancel
                    assert abs(got[k] - sum(values)) <= 1e-13 * sum(map(abs, values))
                checked += 1
                for term in f.terms:
                    for e in (term.monomial, *(e for e, _ in term.binomials)):
                        coeffs = [c for _, c in e.coeffs]
                        seen.add(("denominator 3", e.const.denominator == 3
                                  or any(c.denominator == 3 for c in coeffs)))
                        seen.add(("no variables", not coeffs and e is not term.monomial))
                        seen.add(("monomial variables", bool(coeffs) and e is term.monomial))
                        # a negative stride, and a stride sharing a factor with
                        # the nodes, which leaves table entries no node reaches
                        seen.add(("negative", any(c < 0 for c in coeffs)))
                        seen.add(("shared factor", any(math.gcd(c.numerator, nodes) > 1
                                                       for c in coeffs)))
        wanted = {"denominator 3", "no variables"}
        if dim:
            wanted |= {"monomial variables", "negative", "shared factor"}
        assert {name for name, hit in seen if hit} >= wanted

    @pytest.mark.parametrize("q", (1e90, 1e200))
    def test_large_q_inside_float_range(self, q):
        """mu at d = 2 is about q on its contour; its numerator factors alone
        are about q^3.5, so no table may hold them before the division."""
        p = validate(1, 2, 1, 0)
        f = mu_on_z(p)
        shifts = {"z1": default_shift(p)[0]}
        got = _eval_grid(f, q, shifts, 16)
        for k, node in _torus_nodes(q, shifts, 16).items():
            want = f.eval_numeric(q, node)
            assert abs(got[k] - want) <= 1e-12 * abs(want)

    def test_vanishing_denominator_raises(self):
        # (1 - q^z1)^-1 on the unitary torus, whose nodes start at z1 = 0
        f = FactoredForm.binomial(AffineExponent.variable("z1"), -1)
        with pytest.raises(DivisionByZeroError):
            _eval_grid(f, 2.0, {"z1": 0.0}, 16)


class TestQuadratureSpec:
    def test_rejects_bad_nodes(self):
        with pytest.raises(ValueError):
            QuadratureSpec(q=2.0, nodes=100)
        with pytest.raises(ValueError):
            QuadratureSpec(q=2.0, nodes=8)

    def test_rejects_bad_q(self):
        for q in (1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                QuadratureSpec(q=q)

    @pytest.mark.parametrize("q", [float("nan"), float("inf"), float("-inf"), 1.0, 0.5])
    def test_q_refused_as_validate_refuses_it(self, q):
        with pytest.raises(InvalidParamsError) as spec_error:
            QuadratureSpec(q=q)
        with pytest.raises(InvalidParamsError) as validate_error:
            validate(1, 2, 1, 0, q=q)
        assert str(spec_error.value) == str(validate_error.value)
        if q != q:
            assert str(spec_error.value) == "q must be finite, got nan"

    def test_every_problem_is_named(self):
        with pytest.raises(InvalidParamsError) as error:
            QuadratureSpec(q=float("inf"), nodes=8, tolerance=0)
        assert str(error.value) == ("q must be finite, got inf; nodes must be a power of two "
                                    ">= 16, got 8; tolerance must be positive, got 0")

    def test_rejections_are_typed(self):
        # the CLI maps both to a usage error; both stay ValueErrors for callers
        for tolerance in (0, float("inf")):
            with pytest.raises(InvalidParamsError):
                QuadratureSpec(q=2.0, tolerance=tolerance)
        with pytest.raises(InvalidParamsError, match="q must be finite, got inf"):
            QuadratureSpec(q=float("inf"))
        p = validate(1, 4, 1, 0)
        with pytest.raises(OutOfRangeError):
            residue_terms(p, QuadratureSpec(q=2.0), mu_on_z(p))

    def test_default_shift_beyond_residue_points(self):
        p = validate(2, 3, 2, 0)
        shift = default_shift(p)
        assert shift == (3.0 + 1.25, 2.0 + 1.25)


class TestLhsContour:
    def test_single_block_trivial(self):
        p = validate(1, 1, 1, 0)
        assert lhs_contour(p, QuadratureSpec(q=2.0), mu_on_z(p)) == 1

    def test_stable_under_node_doubling(self):
        p = validate(1, 2, 1, 0)
        values = [lhs_contour(p, QuadratureSpec(q=2.0, nodes=n), mu_on_z(p))
                  for n in (16, 32, 64, 256)]
        assert abs(values[-1] - values[-2]) < 1e-10
        errors = [abs(v - values[-1]) for v in values[:-1]]
        assert errors[0] > errors[1] > errors[2] or errors[2] < 1e-14

    def test_finite_real_value_inside_chamber(self):
        p = validate(1, 2, 1, 0)
        coarse = lhs_contour(p, QuadratureSpec(q=2.0, nodes=256), mu_on_z(p))
        fine = lhs_contour(p, QuadratureSpec(q=2.0, nodes=512), mu_on_z(p))
        assert abs(coarse.imag) < 1e-12
        assert abs(coarse - fine) < 1e-10

    @pytest.mark.parametrize("d, nodes", ((2, 256), (3, 64), (4, 128)))
    @pytest.mark.parametrize("m, t, a, q", ((1, 1, 0, 2.0), (2, 1, 1, 3.0), (2, 2, 0, 2.0),
                                            (3, 3, 2, 1.5), (6, 2, 1, 2.0)))
    def test_equals_deep_chamber_limit(self, m, t, a, q, d, nodes):
        """Deep in the chamber each pair factor tends to q^(a+t), and the torus
        mean of mu is that limit: (m/t)^(d-1) q^((a+t) d(d-1)/2)."""
        p = validate(m, d, t, a)
        got = lhs_contour(p, QuadratureSpec(q=q, nodes=nodes), mu_on_z(p))
        limit = (m / t) ** (d - 1) * q ** ((a + t) * d * (d - 1) / 2)
        assert abs(got - limit) <= 1e-12 * limit

    @pytest.mark.parametrize("m, t, a, q, d, nodes", ((1, 1, 0, 1e300, 2, 256),
                                                      (1, 1, 0, 1e100, 3, 64),
                                                      (2, 2, 1, 1e30, 3, 64)))
    def test_equals_deep_chamber_limit_at_large_q(self, m, t, a, q, d, nodes):
        """The limit is inside the float range, although single factors of mu
        on the contour are not."""
        p = validate(m, d, t, a)
        got = lhs_contour(p, QuadratureSpec(q=q, nodes=nodes), mu_on_z(p))
        limit = (m / t) ** (d - 1) * q ** ((a + t) * d * (d - 1) / 2)
        assert abs(got - limit) <= 1e-12 * limit


class TestDecomposition:
    def test_single_block(self):
        report = decomposition_report(validate(1, 1, 1, 0), QuadratureSpec(q=2.0))
        assert report.lhs == report.rhs == 1
        assert report.chain_terms == (1,)

    @pytest.mark.parametrize("q", (2.0, 3.0))
    @pytest.mark.parametrize("t", (1, 2))
    @pytest.mark.parametrize("a", (0, 1))
    def test_two_blocks(self, q, t, a):
        p = validate(t, 2, t, a)
        spec = QuadratureSpec(q=q, nodes=512, tolerance=1e-8)
        assert verify_residue_decomposition(p, spec).passed

    @pytest.mark.parametrize("q", (2.0, 3.0))
    @pytest.mark.parametrize("t", (1, 2))
    @pytest.mark.parametrize("a", (0, 1))
    def test_three_blocks(self, q, t, a):
        p = validate(t, 3, t, a)
        spec = QuadratureSpec(q=q, nodes=256, tolerance=1e-6)
        assert verify_residue_decomposition(p, spec).passed

    def test_two_block_terms_structure(self):
        p = validate(1, 2, 1, 0)
        chain, offchain = residue_terms(p, QuadratureSpec(q=2.0, nodes=512), mu_on_z(p))
        assert len(chain) == 2
        assert offchain == 0

    def test_three_block_offchain_needed(self):
        """Without the tilted-hyperplane terms the two sides differ by O(1):
        the unfolding genuinely crosses the pair hyperplanes z1 = t -+ z2/2.
        """
        p = validate(1, 3, 1, 0)
        spec = QuadratureSpec(q=2.0, nodes=256)
        report = decomposition_report(p, spec)
        assert report.relative_error < 1e-12
        chain_only = sum(report.chain_terms)
        assert abs(report.lhs - chain_only) / abs(report.lhs) > 0.05
        assert abs(report.lhs - chain_only - report.offchain_term) < 1e-10

    def test_fault_injection_fails(self, drop_level_inverse):
        p = validate(1, 2, 1, 0)
        spec = QuadratureSpec(q=2.0, nodes=512)
        report = verify_residue_decomposition(p, spec)
        assert report.status == "fail"

    def test_unsupported_depth(self):
        p = validate(1, 4, 1, 0)
        with pytest.raises(ValueError):
            residue_terms(p, QuadratureSpec(q=2.0), mu_on_z(p))

    def test_unsupported_depth_rejected_before_quadrature(self, monkeypatch):
        def no_quadrature(p, spec, f):
            raise AssertionError("lhs_contour ran before the depth check")

        def no_mu(p):
            raise AssertionError("mu was built before the depth check")

        monkeypatch.setattr(contour, "lhs_contour", no_quadrature)
        monkeypatch.setattr(contour, "mu_on_z", no_mu)
        with pytest.raises(ValueError, match="d <= 3"):
            decomposition_report(validate(1, 4, 1, 0), QuadratureSpec(q=2.0))

    @pytest.mark.parametrize("d, nodes, reached", ((3, 4096, True), (3, 8192, False),
                                                   (4, 256, True), (4, 512, False),
                                                   (2, 2 ** 24, True)))
    def test_oversized_grid_rejected_before_quadrature(self, monkeypatch, d, nodes, reached):
        """nodes^(d-1) up to MAX_GRID_NODES = 2^24 reaches the grid evaluator;
        beyond it both sides refuse before any grid is evaluated."""
        class ReachedGrid(Exception):
            pass

        def no_grid(*args):
            raise ReachedGrid

        monkeypatch.setattr(contour, "_eval_grid", no_grid)
        p = validate(1, d, 1, 0)
        f = mu_on_z(p)
        spec = QuadratureSpec(q=2.0, nodes=nodes)
        sides = [lambda: lhs_contour(p, spec, f)]
        if d <= 3:
            sides.append(lambda: residue_terms(p, spec, f))
        for side in sides:
            with pytest.raises(ReachedGrid if reached else InvalidParamsError,
                               match=None if reached else r"limit of 2\^24 = 16777216 grid nodes"):
                side()

    def test_real_values_on_real_parameters(self):
        report = decomposition_report(validate(2, 3, 2, 1), QuadratureSpec(q=2.0, nodes=128))
        assert abs(report.lhs.imag) < 1e-10 * max(1, abs(report.lhs))
        assert abs(report.rhs.imag) < 1e-10 * max(1, abs(report.rhs))


# the acceptance set: d = 2 at 512 nodes per circle, d = 3 at 256
ACCEPTANCE = [(d, nodes, tol, q, t, a) for d, nodes, tol in ((2, 512, 1e-8), (3, 256, 1e-6))
              for q in (2.0, 3.0) for t in (1, 2) for a in (0, 1)]


class TestOneBuildOfMu:
    @pytest.mark.parametrize("d, nodes, tol, q, t, a", ACCEPTANCE)
    def test_level_one_term_is_d_times_closed_scalar(self, d, nodes, tol, q, t, a):
        """The level-1 term is the node mean over no circles of the fully
        specialized datum, weighted by d."""
        p = validate(t, d, t, a)
        report = decomposition_report(p, QuadratureSpec(q=q, nodes=nodes, tolerance=tol))
        want = d * float(residue_closed_form(p).eval_exact(Fraction(q)))
        assert abs(report.chain_terms[0] - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_one_mu_per_report(self, monkeypatch, d):
        calls = []

        def counted(p):
            calls.append(p)
            return mu_on_z(p)

        monkeypatch.setattr(contour, "mu_on_z", counted)
        decomposition_report(validate(1, d, 1, 0), QuadratureSpec(q=2.0, nodes=64))
        assert len(calls) == 1
