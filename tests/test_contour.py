"""Contour oracle tests: the grid evaluator against eval_numeric, quadrature
vs residue-term sums, the exact chamber limit, convergence, and fault injection."""

import math
import random

import numpy as np
import pytest

from conftest import random_exponent, random_rational
from qdegree import contour
from qdegree.contour import (QuadratureSpec, _eval_grid, _unitary_nodes, default_shift,
                             decomposition_report, lhs_contour, residue_terms,
                             verify_residue_decomposition)
from qdegree.model import InvalidParamsError, OutOfRangeError, validate
from qdegree.qform import AffineExponent, DivisionByZeroError, FactoredForm, SumForm


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


def _axis(rng: random.Random, n: int) -> np.ndarray:
    return np.array([complex(rng.uniform(-1, 1), rng.uniform(-3, 3)) for _ in range(n)])


class TestEvalGrid:
    @pytest.mark.parametrize("dim", (1, 2, 3))
    def test_matches_eval_numeric_at_every_node(self, dim):
        rng = random.Random(500 + dim)
        variables = [f"z{j}" for j in range(1, dim + 1)]
        checked = 0
        while checked < 12:
            q = rng.choice((1.5, 2.0, 3.0))
            f = SumForm(tuple(_grid_term(rng, variables) for _ in range(rng.randint(1, 3))))
            axes = np.meshgrid(*[_axis(rng, n) for n in (5, 4, 3)[:dim]],
                               indexing="ij", sparse=True)
            arrays = dict(zip(variables, axes))
            shape = np.broadcast_shapes(*(a.shape for a in axes))
            full = {v: np.broadcast_to(a, shape) for v, a in arrays.items()}
            nodes = [{v: complex(a[i]) for v, a in full.items()} for i in np.ndindex(shape)]
            # 1 - q^E near zero turns last-bit differences in q^E into large
            # relative ones in either evaluation, so such draws are skipped
            if any(abs(1 - FactoredForm.q_power(e).eval_numeric(q, node)) < 0.05
                   for term in f.terms for e, _ in term.binomials for node in nodes):
                continue
            got = _eval_grid(f, q, arrays)
            assert got.shape == shape
            for i, node in zip(np.ndindex(shape), nodes):
                # relative to the sum of the terms' sizes, as terms may cancel
                scale = sum(abs(term.eval_numeric(q, node)) for term in f.terms)
                assert abs(got[i] - f.eval_numeric(q, node)) <= 1e-13 * scale
            checked += 1

    def test_vanishing_denominator_raises(self):
        # (1 - q^z1)^-1 on the unitary nodes, which start at z1 = 0
        f = FactoredForm.binomial(AffineExponent.variable("z1"), -1)
        with pytest.raises(DivisionByZeroError):
            _eval_grid(f, 2.0, {"z1": _unitary_nodes(2.0, 16)})



class TestQuadratureSpec:
    def test_rejects_bad_nodes(self):
        with pytest.raises(ValueError):
            QuadratureSpec(q=2.0, nodes=100)
        with pytest.raises(ValueError):
            QuadratureSpec(q=2.0, nodes=8)

    def test_rejects_bad_q(self):
        for q in (1.0, float("nan")):
            with pytest.raises(ValueError):
                QuadratureSpec(q=q)

    def test_rejections_are_typed(self):
        # the CLI maps both to a usage error; both stay ValueErrors for callers
        with pytest.raises(InvalidParamsError):
            QuadratureSpec(q=2.0, tolerance=0)
        with pytest.raises(OutOfRangeError):
            residue_terms(validate(1, 4, 1, 0), QuadratureSpec(q=2.0))

    def test_default_shift_beyond_residue_points(self):
        p = validate(2, 3, 2, 0)
        shift = default_shift(p)
        assert shift == (3.0 + 1.25, 2.0 + 1.25)


class TestLhsContour:
    def test_single_block_trivial(self):
        assert lhs_contour(validate(1, 1, 1, 0), QuadratureSpec(q=2.0)) == 1

    def test_stable_under_node_doubling(self):
        p = validate(1, 2, 1, 0)
        values = [lhs_contour(p, QuadratureSpec(q=2.0, nodes=n)) for n in (16, 32, 64, 256)]
        assert abs(values[-1] - values[-2]) < 1e-10
        errors = [abs(v - values[-1]) for v in values[:-1]]
        assert errors[0] > errors[1] > errors[2] or errors[2] < 1e-14

    def test_finite_real_value_inside_chamber(self):
        p = validate(1, 2, 1, 0)
        coarse = lhs_contour(p, QuadratureSpec(q=2.0, nodes=256))
        fine = lhs_contour(p, QuadratureSpec(q=2.0, nodes=512))
        assert abs(coarse.imag) < 1e-12
        assert abs(coarse - fine) < 1e-10

    @pytest.mark.parametrize("d, nodes", ((2, 256), (3, 64)))
    @pytest.mark.parametrize("m, t, a, q", ((1, 1, 0, 2.0), (2, 1, 1, 3.0), (2, 2, 0, 2.0),
                                            (3, 3, 2, 1.5), (6, 2, 1, 2.0)))
    def test_equals_deep_chamber_limit(self, m, t, a, q, d, nodes):
        """Deep in the chamber each pair factor tends to q^(a+t), and the torus
        mean of mu is that limit: (m/t)^(d-1) q^((a+t) d(d-1)/2)."""
        p = validate(m, d, t, a)
        got = lhs_contour(p, QuadratureSpec(q=q, nodes=nodes))
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
        chain, offchain = residue_terms(p, QuadratureSpec(q=2.0, nodes=512))
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
        with pytest.raises(ValueError):
            residue_terms(validate(1, 4, 1, 0), QuadratureSpec(q=2.0))

    def test_unsupported_depth_rejected_before_quadrature(self, monkeypatch):
        def no_quadrature(p, spec):
            raise AssertionError("lhs_contour ran before the depth check")

        monkeypatch.setattr(contour, "lhs_contour", no_quadrature)
        with pytest.raises(ValueError, match="d <= 3"):
            decomposition_report(validate(1, 4, 1, 0), QuadratureSpec(q=2.0))

    def test_real_values_on_real_parameters(self):
        report = decomposition_report(validate(2, 3, 2, 1), QuadratureSpec(q=2.0, nodes=128))
        assert abs(report.lhs.imag) < 1e-10 * max(1, abs(report.lhs))
        assert abs(report.rhs.imag) < 1e-10 * max(1, abs(report.rhs))
