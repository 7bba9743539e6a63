"""mu-function tests: rank-one factors, level ratios, telescoping, poles."""

import itertools
import random
from fractions import Fraction as F

import hypothesis
import hypothesis.strategies as st
import pytest

from qdegree.coords import Weight, generic_weight, residue_plan, z_to_s
from qdegree.model import OutOfRangeError, validate
from qdegree.mu import (mu_full, mu_level_ratio_closed, mu_level_ratio_telescoped, mu_on_z,
                        rank_one_factor)
from qdegree.qform import (AffineExponent as AE, FactoredForm as FF, PoleAtSubstitutionError,
                           as_exponent, integer_rows, split_at_point)


class TestRankOne:
    @pytest.mark.parametrize("t,a", [(1, 0), (2, 1), (3, 2)])
    def test_single_block_pair_display(self, t, a):
        # at x = z/t the factor equals q^a (1-q^-z)(1-q^z) / ((1-q^(-t-z))(1-q^(-t+z)))
        p = validate(t, 2, t, a)
        got = rank_one_factor(p, AE.variable("z", F(1, t)))
        want = (FF.q_power(a) * FF.binomial(AE.variable("z", -1))
                * FF.binomial(AE.variable("z"))
                / FF.binomial(AE.make(-t, {"z": -1}))
                / FF.binomial(AE.make(-t, {"z": 1})))
        assert got == want

    def test_vanishes_at_origin(self):
        assert rank_one_factor(validate(2, 3, 2, 1), 0).is_zero

    def test_pole_at_one(self):
        with pytest.raises(PoleAtSubstitutionError):
            rank_one_factor(validate(1, 2, 1, 0), 1)

    def test_evenness(self):
        p = validate(2, 4, 2, 1)
        x = AE.variable("x", F(1, 3), F(1, 5))
        assert rank_one_factor(p, x) == rank_one_factor(p, -x)

    def test_positive_on_imaginary_axis(self):
        p = validate(2, 2, 2, 1)
        rng = random.Random(3)
        for _ in range(20):
            x = 1j * rng.uniform(-4, 4)
            v = rank_one_factor(p, AE.variable("x")).eval_numeric(2.0, {"x": x})
            assert abs(v.imag) < 1e-12
            assert v.real >= 0


class TestMuFull:
    def test_single_block_is_one(self):
        assert mu_on_z(validate(3, 1, 1, 2)).is_one

    def test_two_blocks_matches_level_ratio(self):
        for t, a in [(1, 0), (2, 2)]:
            p = validate(t, 2, t, a)
            got = mu_on_z(p).substitute("z1", AE.variable("z"))
            assert got == mu_level_ratio_closed(p, 2)

    def test_shift_invariance(self):
        p = validate(1, 3, 1, 1)
        w = generic_weight(p)
        assert mu_full(p, w) == mu_full(p, w.shift(AE.variable("c")))

    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_weyl_symmetry(self, d):
        p = validate(1, d, 1, 1)
        w = generic_weight(p)
        base = mu_full(p, w)
        for perm in itertools.permutations(range(d)):
            permuted = type(w)(tuple(w.s[i] for i in perm))
            assert mu_full(p, permuted) == base

    @staticmethod
    def pairwise_product(p, w):
        """mu as the product of pair factors, each s_i - s_j taken by
        subtracting whole entries; mu_full sums adjacent differences."""
        out = FF.from_constant(1)
        for i in range(1, p.d + 1):
            for j in range(i + 1, p.d + 1):
                out = out * rank_one_factor(p, w.s[i - 1] - w.s[j - 1])
        return out

    @pytest.mark.parametrize("d", (12, 16))
    def test_matches_pairwise_differences(self, d):
        p = validate(6, d, 3, 1)
        w = generic_weight(p)
        assert mu_full(p, w) == self.pairwise_product(p, w)

    def test_any_weight_matches_pairwise_differences(self):
        rng = random.Random(12)
        p = validate(2, 5, 2, 1)
        for _ in range(5):
            w = Weight(tuple(AE.make(F(rng.randint(-9, 9), rng.randint(1, 4)),
                                     {v: F(rng.randint(-3, 3), rng.randint(1, 3))
                                      for v in ("x", "y", "w")})
                             for _ in range(p.d)))
            assert mu_full(p, w) == self.pairwise_product(p, w)

    def test_unitary_positivity(self):
        rng = random.Random(11)
        for d in (2, 3, 4):
            p = validate(2, d, 2, 1)
            f = mu_on_z(p)
            for _ in range(10):
                assignment = {f"z{j}": 1j * rng.uniform(-3, 3) for j in range(1, d)}
                v = f.eval_numeric(2.0, assignment)
                assert abs(v.imag) <= 1e-10 * max(1, abs(v))
                assert v.real >= -1e-12


small_rationals = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def constant_free_weights(draw):
    """Weights whose differences have no constant term: the generic weight
    permuted, negated, with its variables renamed in reverse order or shifted
    by a constant, or entries in two or three variables with small
    coefficients, whose differences often coincide or skip the middle
    variable; either kind may repeat an entry."""
    t = draw(st.sampled_from((1, 2, 3, 6)))
    d = draw(st.integers(1, 9))
    p = validate(6, d, t, draw(st.integers(0, 2)))
    if draw(st.booleans()):
        s = draw(st.permutations(generic_weight(p).s))
        if draw(st.booleans()):
            s = [-e for e in s]
        if draw(st.booleans()):
            rename = {f"z{j}": f"z{d - j}" for j in range(1, d)}
            s = [AE.make(e.const, {rename[n]: c for n, c in e.coeffs}) for e in s]
    else:
        names = ("x", "y", "w")[:draw(st.integers(2, 3))]
        s = [AE.make(0, {n: draw(small_rationals) for n in names}) for _ in range(d)]
    if draw(st.booleans()):
        shift = draw(small_rationals)
        s = [e + shift for e in s]
    if d > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
        s[j] = s[i]
    return p, Weight(tuple(s))


class TestLaidOutMu:
    """mu_on_z lays out its binomials from the generic weight's integer rows;
    mu_full, one build for any weight, is its reference."""

    def test_matches_single_build(self):
        """mu_full, the single build, against the product of its pair factors."""
        seen = set()

        @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
        @hypothesis.given(constant_free_weights())
        def check(case):
            p, w = case
            got = mu_full(p, w)
            assert got == TestMuFull.pairwise_product(p, w)
            if got.is_zero:
                seen.add("zero")
            elif any(m not in (-1, 2) for _, m in got.binomials):
                seen.add("merged")
            differences = [w.s[i] - w.s[j] for i in range(p.d) for j in range(i + 1, p.d)]
            if any(x.coeffs and x.coeffs[0][1] < 0 for x in differences):
                seen.add("negative lead")

        check()
        assert {"zero", "merged", "negative lead"} <= seen

    @pytest.mark.parametrize("d", range(1, 25))
    @pytest.mark.parametrize("t", (1, 2, 3, 6))
    def test_generic_weight_row_shape(self, d, t):
        """The facts mu_on_z's layout relies on."""
        p = validate(6, d, t, 1)
        _, names, entries = integer_rows([(e, t) for e in generic_weight(p).s])
        assert names == [f"z{k}" for k in range(1, d)]
        assert all(num == 0 for num, _ in entries)
        last = [min(k, d - 2) for k in range(d)]  # each row's last nonzero column
        for k, (_, row) in enumerate(entries):
            assert [c != 0 for c in row] == [col <= last[k] for col in range(d - 1)]
        for i in range(d):
            for j in range(i + 1, d):
                assert entries[i][1][:last[i]] == entries[j][1][:last[i]]
                assert entries[i][1][i] > entries[j][1][i]  # the part's first coefficient
        for c in range(d - 1):  # the tail: for c < j < j', row j and row j' agree in column c
            assert all(entries[j][1][c] == entries[c + 1][1][c] for j in range(c + 2, d))

    @pytest.mark.parametrize("d", range(1, 17))
    @pytest.mark.parametrize("t", (1, 2, 3, 6))
    def test_string_order_of_names_matches_single_build(self, d, t):
        # from d = 11 on, z10 sorts before z2 as a string but after it as a column
        p = validate(6, d, t, 1)
        got = mu_on_z(p)
        assert got == mu_full(p, generic_weight(p))
        if d >= 11:
            firsts = [e.coeffs[0][0] for e, _ in got.binomials]
            assert firsts.index("z10") < firsts.index("z2")

    def test_weight_with_constants_takes_the_general_build(self):
        p = validate(2, 3, 2, 1)
        x, y = AE.variable("x"), AE.variable("y")
        w = Weight((x + F(1, 2), y, -x))
        assert mu_full(p, w) == TestMuFull.pairwise_product(p, w)
        # t(s_1 - s_2) = t: the pair factor's pole
        with pytest.raises(PoleAtSubstitutionError):
            mu_full(validate(2, 2, 2, 1), Weight((x + 1, x)))

    @pytest.mark.parametrize("d", range(2, 10))
    @pytest.mark.parametrize("t", (1, 2, 3, 6))
    def test_split_reads_shared_and_copied_parts_alike(self, d, t):
        p = validate(6, d, t, 1)
        f = mu_on_z(p)
        # every exponent with its own copy of its terms
        copied = FF(f.constant, f.log_grade, f.monomial,
                    tuple((AE(e._num, e._den, tuple(list(e._terms))), m) for e, m in f.binomials))
        assert copied == f
        assert len({id(e._terms) for e, _ in copied.binomials}) == len(f.binomials)
        assert len({id(e._terms) for e, _ in f.binomials}) < len(f.binomials)
        plan = residue_plan(p)
        for k in range(1, d):
            assert split_at_point(f, plan[:k]) == split_at_point(copied, plan[:k])
        # at the full point every value is an integer, laid out as its shared exponent
        _, _, regular = split_at_point(f, plan)
        assert regular and all(e is as_exponent(e._num) for e, _ in regular)


class TestLevelRatios:
    def test_closed_form_d3_t2(self):
        got = mu_level_ratio_closed(validate(2, 3, 2, 1), 2)
        want = (FF.q_power(2) * FF.binomial(AE.make(1, {"z": -1}))
                * FF.binomial(AE.make(1, {"z": 1}))
                / FF.binomial(AE.make(-3, {"z": -1}))
                / FF.binomial(AE.make(-3, {"z": 1})))
        assert got == want

    def test_evenness_in_z(self):
        p = validate(2, 4, 2, 1)
        r = mu_level_ratio_closed(p, 3)
        flipped = r.substitute("z", AE.variable("w", -1)).substitute("w", AE.variable("z"))
        assert r == flipped

    @pytest.mark.parametrize("d", range(2, 7))
    def test_telescoping(self, d):
        for t in (1, 2, 3):
            for a in (0, 1, 2):
                p = validate(t, d, t, a)
                for l in range(2, d + 1):
                    assert (mu_level_ratio_telescoped(p, l)
                            == mu_level_ratio_closed(p, l)), (d, t, a, l)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            mu_level_ratio_closed(validate(1, 3, 1, 0), 1)
        with pytest.raises(OutOfRangeError):
            mu_level_ratio_telescoped(validate(1, 3, 1, 0), 4)

    @pytest.mark.parametrize("d", (2, 3, 4, 5))
    def test_level_grouping_of_pairs(self, d):
        """mu regroups as the product over levels of the pairs (l-1, j >= l)."""
        p = validate(2, d, 2, 1)
        w = generic_weight(p)
        regrouped = FF.from_constant(1)
        for l in range(2, d + 1):
            for j in range(l, d + 1):
                regrouped = regrouped * rank_one_factor(p, w.s[l - 2] - w.s[j - 1])
        assert regrouped == mu_full(p, w)

    @pytest.mark.parametrize("d", (2, 3, 4, 5))
    def test_nested_chain_factors_through_level_ratios(self, d):
        """The iterated residue chain of mu equals the product over levels of
        the closed level ratio's residue at the next specialization point.
        (mu itself is singular at the fully nested point, so the identity
        lives at the level of residues, not of values.)
        """
        from qdegree.coords import residue_plan, residue_point
        from qdegree.qform import residue
        from qdegree.resdata import iterated_residue

        p = validate(2, d, 2, 1)
        chain = iterated_residue(mu_on_z(p), residue_plan(p))
        via_ratios = FF.from_constant(1)
        for l in range(2, d + 1):
            ratio = mu_level_ratio_closed(p, l)
            (level,) = residue(ratio, "z", residue_point(p, l - 1)).terms
            via_ratios = via_ratios * level
        assert chain == via_ratios


class TestRegularPoints:
    def test_regular_random_points(self):
        rng = random.Random(23)
        p = validate(1, 3, 1, 1)
        f = mu_on_z(p)
        for _ in range(25):
            z1 = F(rng.randint(-40, 40), 7)
            z2 = F(rng.randint(-40, 40), 11)
            s = z_to_s(p, [z1, z2]).as_fractions()
            # mu vanishes or has a pole where some s_i - s_j is 0 or +-1
            if any(si - sj in (-1, 0, 1) for si, sj in itertools.combinations(s, 2)):
                continue
            partial = f.substitute("z2", z2)
            assert partial.pole_order("z1", z1) == 0
            assert not partial.substitute("z1", z1).is_zero
