"""Fast paths against their general references.

``residue`` reads the w^(-1) coefficient of one Laurent expansion: the form
as a lead form times one unit series per factor, each raised to its
multiplicity by the power rule, with the truncated series multiplied out.
At a simple pole it must equal the closed formula written out here
as a reference, including when zeros and poles at the point partly cancel.
At a point affine in another variable it must equal the residue at u = 0
after the substitution z := point + u, at simple poles and at poles of order
two.  The slope it takes at a simple pole is the pole variable's coefficient,
wherever that variable stands among the exponent's terms, and a factored
form's residue is the one of the form as a one-term ``SumForm``.

``AffineExponent`` keeps integers over one shared denominator; a plain
model with Fraction parts checks its arithmetic, its reduced form, its
hashing, its text, the orientation ``FactoredForm.build`` gives it by its
leading coefficient, and the order ``FactoredForm.build`` sorts by, which must
not depend on the order the binomials arrive in, whether they share one
denominator or not.

``iterated_residue`` takes the whole chain in one pass; the level-by-level
chain of ``residue`` calls is its reference wherever every pole is simple,
and elsewhere it must refuse with ``HigherOrderPoleError``.

The integer-row helpers have references too: ``integer_rows`` must give
each scaled exponent's coefficients over one denominator, and
``row_exponent`` must read such a row back as the reduced exponent;
``z_to_s`` must give the weight that heads and tails give through ``scale``
and ``+``; and ``split_at_point`` must give what ``substitute`` one
variable at a time gives, with the vanishing binomials filed under the
right step.

The theorem path makes its exact constants from integers: ``res_al``'s
prefactor at every level, ``residue_closed_form``'s constant, a product
with gamma, whose constant 1 takes no ``Fraction`` product, and deg(sigma)^d
folded into a degree must give the forms that their ``Fraction``
expressions and one ``build`` give.
"""

import math
from fractions import Fraction as F

import hypothesis
import hypothesis.strategies as st
import pytest

from qdegree import resdata
from qdegree.coords import residue_plan, z_to_s
from qdegree.degree import closed_form_degree, gamma_factor
from qdegree.model import validate
from qdegree.mu import mu_on_z
from qdegree.qform import (AffineExponent as AE, FactoredForm as FF, HigherOrderPoleError,
                           SumForm, as_exponent, as_sum, integer_rows, residue, row_exponent,
                           split_at_point)
from qdegree.resdata import iterated_residue


rationals = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
nonzero_rationals = rationals.filter(bool)
exponents = st.builds(lambda c, z, w: AE.make(c, {"z": z, "w": w}),
                      rationals, rationals, rationals)
affine_points = st.builds(lambda c, w: AE.make(c, {"w": w}), rationals, nonzero_rationals)


def _vanishing(slope: F, point) -> AE:
    """slope * (z - point): the exponent of a binomial that vanishes at the point."""
    return AE.variable("z", slope) - as_exponent(point).scale(slope)


def _closed_simple_pole_residue(f: FF, name: str, point: F) -> FF:
    """The residue at a simple pole in one step: every factor that does not
    vanish at the point is evaluated there, the constant is multiplied by
    (-s)^m for each vanishing binomial (1 - q^(s*w))^m, and the log grade
    drops by one.
    """
    center = as_exponent(point)
    constant, regular = f.constant, []
    for e, m in f.binomials:
        at = e.substitute(name, center)
        if at.is_zero:
            constant *= (-e.coeff(name)) ** m
        else:
            regular.append((at, m))
    return FF.build(constant, f.log_grade - 1, f.monomial.substitute(name, center), regular)


@st.composite
def pole_forms(draw, points=rationals, order=1):
    """A form with net pole order ``order`` at a random point of ``points``.

    Up to two vanishing numerator binomials of total multiplicity k are
    balanced by up to three vanishing denominators of total multiplicity
    k + order, with independent slopes; regular factors may involve a
    spectator variable w, in which an affine point also moves.
    """
    point = draw(points)
    zeros = draw(st.lists(st.tuples(nonzero_rationals, st.integers(1, 2)), max_size=2))
    n_poles = sum(m for _, m in zeros) + order
    cuts = sorted(draw(st.sets(st.integers(1, n_poles - 1), max_size=2))) if n_poles > 1 else []
    poles = [(draw(nonzero_rationals), a - b) for a, b in zip([0] + cuts, cuts + [n_poles])]
    binomials = [(_vanishing(s, point), m) for s, m in zeros + poles]
    for e, m in draw(st.lists(st.tuples(exponents, st.sampled_from((-2, -1, 1, 2))),
                              max_size=4)):
        if not e.substitute("z", point).is_zero:
            binomials.append((e, m))
    f = FF.build(draw(nonzero_rationals), draw(st.integers(-1, 2)), draw(exponents), binomials)
    return f, point


@hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
@hypothesis.given(pole_forms())
def test_simple_pole_residue_matches_series(case):
    f, point = case
    assert f.pole_order("z", point) == 1
    got = residue(f, "z", point)
    assert got.terms == (_closed_simple_pole_residue(f, "z", point),)
    assert got.terms[0].log_grade == f.log_grade - 1


@pytest.mark.parametrize("order", [1, 2])
def test_residue_at_affine_point_matches_recentring(order):
    @hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @hypothesis.given(pole_forms(affine_points, order))
    def check(case):
        f, point = case
        assert f.pole_order("z", point) == order
        got = residue(f, "z", point)
        want = residue(f.substitute("z", point + AE.variable("u")), "u", 0)
        if order == 1:
            (term,) = got.terms
            assert want.terms == (term,)
            return
        # a sum of factored forms is not canonical: the recentred form may
        # orient a regular binomial the other way, and q^x / (1 - q^x) =
        # 1 / (1 - q^x) - 1 then splits the same coefficient into other terms
        for w in (0.3137, -1.289):
            size = sum(abs(t.eval_numeric(2.7, {"w": w})) for t in got.terms + want.terms)
            assert abs(got.eval_numeric(2.7, {"w": w}) - want.eval_numeric(2.7, {"w": w})) \
                <= 1e-12 * max(size, 1.0)

    check()


@pytest.mark.parametrize("order", [0, 1, 2])
def test_residue_of_a_form_is_that_of_its_sum(order):
    # a factored form's residue is _form_series's own sum, not rewrapped
    @hypothesis.settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @hypothesis.given(pole_forms(st.one_of(rationals, affine_points), order))
    def check(case):
        f, point = case
        assert residue(f, "z", point) == residue(as_sum(f), "z", point)

    check()
    assert residue(FF.from_constant(0), "z", 1) == SumForm()
    assert residue(as_sum(FF.from_constant(0)), "z", 1) == SumForm()


def test_simple_pole_slope_is_the_pole_variables_coefficient():
    # At z = 2w + 1/3 the canonical exponents lead with w, so the slope of z is
    # their second term: 3w - 3/2 z + 1/2 (over 2) and 10/3 w - 5/3 z + 5/9
    # (over 9, oriented from -(...)), with multiplicities -2 and 1.  The residue
    # takes (-s)^m = (3/2)^-2 * (5/3)^1 with s the coefficient of z, not of w.
    point = AE.make(F(1, 3), {"w": 2})
    e1 = (AE.variable("z") - point).scale(F(-3, 2))
    e2 = (AE.variable("z") - point).scale(F(5, 3))
    f = FF.build(F(7, 5), 0, AE.variable("z", F(1, 2)),
                 [(e1, -2), (e2, 1), (AE.make(0, {"z": 1, "w": 1}), -1)])
    assert [e._terms[0][0] for e, _ in f.binomials] == ["w", "w", "w"]
    assert {e.coeff("z") for e, _ in f.binomials} == {F(-3, 2), F(-5, 3), 1}
    assert {e.coeff("w") for e, _ in f.binomials} == {3, F(10, 3), 1}
    assert f.pole_order("z", point) == 1
    want = FF.build(F(-28, 27), -1, AE.make(F(1, 6), {"w": 1}), [(AE.make(F(1, 3), {"w": 3}), -1)])
    assert residue(f, "z", point).terms == (want,)
    assert _closed_simple_pole_residue(f, "z", point) == want


def test_zero_and_double_pole_cancel_to_simple_pole():
    # (1 - q^(2(z-1))) / (1 - q^(z-1))^2 * (1 - q^(z+w)): the vanishing parts
    # lead with (-2 logq w) / (logq w)^2, so the residue at z = 1 is
    # -2/logq * (1 - q^(1+w))
    f = (FF.binomial(_vanishing(F(2), F(1))) * FF.binomial(_vanishing(F(1), F(1)), -2)
         * FF.binomial(AE.make(0, {"z": 1, "w": 1})))
    got = residue(f, "z", 1)
    assert got.terms == (FF.build(-2, -1, 0, [(AE.make(1, {"w": 1}), 1)]),)


@pytest.mark.parametrize("point", [AE.make(1, {"w": 1}), AE.make(F(1, 2), {"w": F(1, 2)})])
def test_one_variable_exponent_stays_regular_at_an_affine_point(point):
    # z - c, with c the point's constant, is zero at z = c but w-dependent at
    # z = point, so only (1 - q^(z - point)) makes the pole
    e = AE.variable("z") - point
    f = FF.binomial(AE.variable("z") - point.const) * FF.binomial(e, -1)
    got = residue(f, "z", point)
    assert got.terms == (_closed_simple_pole_residue(f, "z", point),)
    assert got.terms[0].binomials == ((point - point.const, 1),)



# -- the integer exponent representation against a plain-Fraction model -----

NAMES = ("w", "z1", "z2", "z10")  # in natural order
wide_rationals = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
coeff_lists = st.lists(st.tuples(st.sampled_from(NAMES), wide_rationals), max_size=5)


def _model(const, coeffs) -> tuple[F, dict]:
    """The reference: a Fraction constant and a dict of nonzero Fraction coefficients."""
    acc = {}
    for n, c in coeffs:
        acc[n] = acc.get(n, F(0)) + F(c)
    return F(const), {n: c for n, c in acc.items() if c}


def _model_of(e: AE) -> tuple[F, dict]:
    return e.const, dict(e.coeffs)


def _model_sum(ma, mb) -> tuple[F, dict]:
    return ma[0] + mb[0], {n: c for n in set(ma[1]) | set(mb[1])
                           if (c := ma[1].get(n, 0) + mb[1].get(n, 0))}


def _model_render(const: F, coeffs: dict) -> str:
    """The text form as the Fraction-valued exponents produced it."""
    pieces = []
    if const or not coeffs:
        pieces.append((1 if const >= 0 else -1, str(abs(const))))
    for n in sorted(coeffs, key=NAMES.index):
        c = coeffs[n]
        pieces.append((1 if c > 0 else -1, n if abs(c) == 1 else f"{abs(c)}*{n}"))
    out = ("-" if pieces[0][0] < 0 else "") + pieces[0][1]
    for sign, body in pieces[1:]:
        out += (" + " if sign > 0 else " - ") + body
    return out


def _check_reduced(e: AE) -> None:
    """den > 0, gcd(den, num, c...) = 1, no zero coefficient, natural order."""
    cs = [c for _, c in e._terms]
    assert e._den > 0 and math.gcd(e._den, e._num, *cs) == 1
    assert all(cs)
    names = [n for n, _ in e._terms]
    assert names == [n for n in NAMES if n in names]


@hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
@hypothesis.given(wide_rationals, coeff_lists, wide_rationals, coeff_lists, wide_rationals)
def test_exponent_operations_match_fraction_model(c1, t1, c2, t2, r):
    a, b = AE.make(c1, t1), AE.make(c2, t2)
    ma, mb = _model(c1, t1), _model(c2, t2)
    assert _model_of(a) == ma
    assert a.render() == _model_render(*ma)

    total = a + b
    assert _model_of(total) == _model_sum(ma, mb)
    # an operand without variables on either side, and an exponent against itself
    for x, y in ((a, as_exponent(c2)), (as_exponent(c1), b)):
        assert _model_of(x + y) == _model_of(y + x) == _model_sum(_model_of(x), _model_of(y))
    assert a == a and hash(a) == hash(AE.make(c1, t1)) and a == AE.make(c1, t1)
    assert _model_of(a - b) == _model_of(a + (-b))
    assert _model_of(a.scale(r)) == (ma[0] * r, {n: c * r for n, c in ma[1].items() if r})
    assert _model_of(a.scale(int(r))) == (ma[0] * int(r),
                                          {n: c * int(r) for n, c in ma[1].items() if int(r)})

    # substituting z1 := b
    c = ma[1].get("z1", F(0))
    rest = {n: v for n, v in ma[1].items() if n != "z1"}
    want = (ma[0] + c * mb[0], {n: v for n in set(rest) | set(mb[1])
                                if (v := rest.get(n, 0) + c * mb[1].get(n, 0))})
    assert _model_of(a.substitute("z1", b)) == want

    for e in (a, b, total, a - b, a.scale(r), a.substitute("z1", b)):
        _check_reduced(e)
        const, coeffs = _model_of(e)
        # build orients a binomial by its model's lead: variables first, constant last
        lead = next((x for x in [coeffs[n] for n, _ in e.coeffs] + [const] if x), 0)
        if lead:
            assert FF.binomial(e).binomials == ((e if lead > 0 else -e, 1),)
        else:
            assert FF.binomial(e).is_zero
        assert e.render() == _model_render(const, coeffs)
        value = complex(const)
        for n, _ in e.coeffs:
            value += float(coeffs[n]) * 0.5
        assert e.evaluate({n: 0.5 for n in NAMES}) == value


@hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None)
@hypothesis.given(wide_rationals, coeff_lists, st.integers(1, 30))
def test_equal_values_are_equal_across_denominators(const, coeffs, k):
    e = AE.make(const, coeffs)
    routes = (
        AE.make(const * k, [(n, c * k) for n, c in coeffs]).scale(F(1, k)),
        as_exponent(const) + AE.make(0, coeffs),
        (e + AE.make(F(1, k), {"z2": F(1, k)})) - AE.make(F(1, k), {"z2": F(1, k)}),
    )
    for other in routes:
        assert other == e and hash(other) == hash(e)
        _check_reduced(other)


def test_equal_values_with_different_denominators():
    # 1/2 + z reached over the denominators 2, 4 and 6
    a = AE.make(F(1, 2), {"z": 1})
    b = AE.make(F(1, 4), {"z": F(1, 4)}) + AE.make(F(1, 4), {"z": F(3, 4)})
    c = AE.make(F(1, 6), {"z": F(1, 3)}).scale(3)
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert {a: 1}[b] == {a: 1}[c] == 1


@hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None)
@hypothesis.given(st.lists(st.tuples(wide_rationals, coeff_lists,
                                     st.sampled_from((-2, -1, 1, 2))), min_size=1, max_size=8))
def test_build_orders_binomials_as_fractions_do(factors):
    binomials = [(AE.make(c, t), m) for c, t, m in factors]
    binomials = [(e, m) for e, m in binomials if not e.is_zero]
    f = FF.build(1, 0, 0, binomials)
    # the reference: orient, merge, sort by the (const, coeffs) Fraction tuples
    merged = {}
    for e, m in binomials:
        e = -e if next((c for _, c in e.coeffs), e.const) < 0 else e
        merged[e] = merged.get(e, 0) + m
    want = sorted(((e, m) for e, m in merged.items() if m),
                  key=lambda em: (em[0].const, em[0].coeffs))
    assert list(f.binomials) == want


def _reference_order(binomials) -> list:
    """Orient, merge, and sort by (const, ((name, coeff), ...)) as Fractions,
    written out from the exponents' Fraction views."""
    merged = {}
    for e, m in binomials:
        const, coeffs = e.const, e.coeffs
        lead = next((c for _, c in coeffs), const)
        if lead < 0:
            e = -e
        merged[e] = merged.get(e, 0) + m
    return sorted(((e, m) for e, m in merged.items() if m),
                  key=lambda em: (em[0].const, em[0].coeffs))


one_denominator_sets = st.integers(1, 12).flatmap(lambda den: st.lists(
    st.tuples(st.integers(-30, 30).filter(lambda n: math.gcd(n, den) == 1),
              st.lists(st.tuples(st.sampled_from(NAMES), st.integers(-30, 30)), max_size=4),
              st.sampled_from((-2, -1, 1, 2)))
    .map(lambda f: (AE.make(F(f[0], den), [(n, F(c, den)) for n, c in f[1]]), f[2])),
    min_size=2, max_size=8))
mixed_denominator_sets = st.lists(
    st.tuples(wide_rationals, coeff_lists, st.sampled_from((-2, -1, 1, 2)))
    .map(lambda f: (AE.make(f[0], f[1]), f[2])), min_size=2, max_size=8)


def test_build_order_ignores_the_order_of_its_binomials():
    seen = set()

    @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @hypothesis.given(st.one_of(one_denominator_sets, mixed_denominator_sets)
                      .map(lambda b: [(e, m) for e, m in b if not e.is_zero])
                      .flatmap(lambda b: st.tuples(st.just(b), st.permutations(b))))
    def check(case):
        binomials, permuted = case
        f = FF.build(1, 0, 0, binomials)
        assert FF.build(1, 0, 0, permuted) == f
        assert list(f.binomials) == _reference_order(binomials)
        dens = {e._den for e, _ in f.binomials}
        if len(f.binomials) > 1:
            seen.add("one denominator" if len(dens) == 1 else "mixed denominators")

    check()
    # both sort keys of build ran on sets of several binomials
    assert seen == {"one denominator", "mixed denominators"}


# -- the one-pass residue chain against residues taken level by level -------

def _level_by_level(f, steps) -> SumForm:
    out = as_sum(f)
    for name, point in steps:
        out = residue(out, name, point)
    return out


@st.composite
def chain_forms(draw, k: int, points: dict, lowest: int, orders: list, var):
    """A binomial product in the variables var(1)..var(k) of levels 1..k
    whose net pole order at each level l >= lowest is drawn from -1..2 and
    appended to ``orders``.

    A binomial vanishing at level j has var(j) as the variable of its lowest
    level and is zero at the whole point; zeros and poles at one level may
    partly cancel.  Its higher levels' variables are often absent, so that
    the binomials of one level differ in where a wrong filing would put
    them.  Regular factors are random exponents that do not vanish at the
    point, so that the drawn orders are the form's.
    """
    def vanishing(j: int) -> AE:
        coeffs = {j: draw(nonzero_rationals)}
        coeffs.update((l, draw(st.one_of(st.just(F(0)), rationals))) for l in range(j + 1, k + 1))
        return AE.make(-sum(c * points[l] for l, c in coeffs.items()),
                       {var(l): c for l, c in coeffs.items()})

    binomials = []
    for j in range(lowest, k + 1):
        order = draw(st.sampled_from((-1, 0, 1, 1, 1, 1, 2)))
        orders.append(order)
        n_zeros = draw(st.integers(0, 2))
        binomials += [(vanishing(j), 1) for _ in range(n_zeros)]
        n_poles = n_zeros + order
        if n_poles > 0:
            split = draw(st.integers(0, n_poles - 1))
            binomials += [(vanishing(j), -m) for m in (n_poles - split, split) if m]
        elif n_poles < 0:
            binomials.append((vanishing(j), -n_poles))
    names = [var(l) for l in range(1, k + 1)]
    at_point = {var(l): points[l] for l in range(1, k + 1)}
    for _ in range(draw(st.integers(0, 3))):
        e = AE.make(draw(rationals), {n: draw(rationals) for n in names})
        if e.const + sum(c * at_point[n] for n, c in e.coeffs):
            binomials.append((e, draw(st.sampled_from((-1, 1, 2)))))
    monomial = AE.make(draw(rationals), {n: draw(rationals) for n in names})
    return FF.build(draw(nonzero_rationals), draw(st.integers(-1, 2)), monomial, binomials)


@st.composite
def chain_cases(draw):
    """A chain form with its steps, level k down to the lowest level drawn,
    and the drawn pole orders; the variables below that level stay free.

    Level l's variable is z_l, or z_(k+1-l): then the canonical form leads a
    binomial with a variable that the chain substitutes before the binomial's
    own level, so its restriction to that level may have a negative slope.
    """
    k = draw(st.integers(1, 3))
    lowest = draw(st.integers(1, k))
    reverse = draw(st.booleans())
    var = (lambda l: f"z{k + 1 - l}") if reverse else (lambda l: f"z{l}")
    points = {l: draw(rationals) for l in range(1, k + 1)}
    steps = tuple((var(l), points[l]) for l in range(k, lowest - 1, -1))
    orders: list = []
    f = draw(chain_forms(k, points, lowest, orders, var))
    return f, steps, orders


def _variables(f: FF) -> set:
    return {n for e in [f.monomial, *(e for e, _ in f.binomials)] for n, _ in e.coeffs}


def _level_shapes(f: FF, steps) -> set:
    """"negative slope" when a binomial vanishing at the point has a negative
    coefficient in the variable of its level, the last of its variables that
    the steps substitute, and "two binomials" when one level holds two."""
    position = {name: k for k, (name, _) in enumerate(steps)}
    point = dict(steps)
    shapes, filed = set(), []
    for e, _ in f.binomials:
        if not {n for n, _ in e.coeffs} <= point.keys() or e.const + sum(
                c * point[n] for n, c in e.coeffs):
            continue
        name = max((n for n, _ in e.coeffs), key=position.__getitem__)
        filed.append(name)
        if e.coeff(name) < 0:
            shapes.add("negative slope")
    if len(filed) > len(set(filed)):
        shapes.add("two binomials")
    return shapes


def test_one_pass_chain_matches_level_by_level():
    seen = set()

    @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @hypothesis.given(chain_cases())
    def check(case):
        f, steps, orders = case
        seen.update(orders)
        if _variables(f) - dict(steps).keys():
            seen.add("free variables")
        if max(orders) <= 1:
            want = _level_by_level(f, steps)
            assert as_sum(iterated_residue(f, steps)) == want
            seen.update(_level_shapes(f, steps))
        else:
            with pytest.raises(HigherOrderPoleError):
                iterated_residue(f, steps)

    check()
    # simple poles, regular levels, the refusal at order two, and a free
    # variable; and a level taken with a negative slope and with two binomials
    assert {-1, 0, 1, 2, "free variables", "negative slope", "two binomials"} <= seen


def _mu_chains():
    for d in range(2, 9):
        for m, t in ((1, 1), (2, 1), (2, 2), (6, 3)):
            p = validate(m, d, t, 1)
            yield mu_on_z(p), residue_plan(p)


def test_chain_hands_residue_canonical_forms(monkeypatch):
    # every level form that iterated_residue hands to residue is the one
    # build makes of its own fields: the chain lays them out canonical
    handed = []

    def recording(f, name, point):
        handed.append(f)
        return residue(f, name, point)

    monkeypatch.setattr(resdata, "residue", recording)
    for f, steps in _mu_chains():
        iterated_residue(f, steps)
    n_mu = len(handed)

    @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @hypothesis.given(chain_cases())
    def check(case):
        f, steps, orders = case
        if max(orders) <= 1:
            iterated_residue(f, steps)

    check()
    assert n_mu == sum(d - 1 for d in range(2, 9)) * 4
    assert len(handed) > n_mu
    for f in handed:
        assert f == FF.build(f.constant, f.log_grade, f.monomial, f.binomials)


# -- the integer-row helpers against their one-operation references --------

@hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None)
@hypothesis.given(st.lists(st.tuples(wide_rationals, coeff_lists, st.one_of(st.integers(-6, 6),
                                                                         nonzero_rationals)),
                           min_size=1, max_size=8))
def test_integer_rows_match_scaled_exponents(parts):
    scaled = [(AE.make(c, t), r) for c, t, r in parts]
    den, names, rows = integer_rows(scaled)
    assert names == [n for n in NAMES if any(e.coeff(n) for e, _ in scaled)]
    for (e, r), (num, row) in zip(scaled, rows):
        assert len(row) == len(names)
        assert F(num, den) == e.const * r
        assert [F(c, den) for c in row] == [e.coeff(n) * r for n in names]
        # a row read back is the scaled exponent, reduced
        assert row_exponent(num, den, names, row) == e.scale(r)
        _check_reduced(row_exponent(num, den, names, row))


def _z_to_s_reference(p, z_values) -> list:
    """The weight sum_j z_j atilde_j as the Fraction formula builds it: entry
    k is the running sum of z_j times the tails of the roots j < k plus z_k
    times the head of atilde_k, through ``scale`` and ``+``."""
    entries, tail = [], as_exponent(0)
    for j, z in enumerate(z_values, start=1):
        z = as_exponent(z)
        size = p.t * (p.d - j + 1)
        entries.append(tail + z.scale(F(p.d - j, size)))
        tail = tail + z.scale(F(-1, size))
    return entries + [tail]


z_values = st.one_of(
    st.integers(-20, 20),
    wide_rationals,
    st.builds(lambda c, t: AE.make(c, t), wide_rationals,
              st.lists(st.tuples(st.sampled_from(NAMES), wide_rationals), max_size=3)))
blocks = st.sampled_from([(m, t) for m in (1, 2, 3, 6) for t in (1, 2, 3, 6) if m % t == 0])


@hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
@hypothesis.given(blocks, st.integers(1, 8).flatmap(
    lambda d: st.lists(z_values, min_size=d - 1, max_size=d - 1)))
def test_weight_rows_match_fraction_formulas(block, zs):
    m, t = block
    p = validate(m, len(zs) + 1, t, 0)
    w = z_to_s(p, zs)
    assert list(w.s) == _z_to_s_reference(p, zs)
    for e in w.s:
        _check_reduced(e)


def _split_reference(f: FF, steps):
    """``split_at_point`` one variable at a time: a binomial that vanishes at
    the whole point goes under the step of its last variable, restricted to
    that step's variable, and each step's restrictions meet in one build;
    the rest meet in one build."""
    position = {name: k for k, (name, _) in enumerate(steps)}

    def at(e: AE, skip=None) -> AE:
        for name, point in steps:
            if name != skip:
                e = e.substitute(name, point)
        return e

    levels = [[] for _ in steps]
    regular = []
    for e, m in f.binomials:
        if at(e).is_zero:
            k = max(position[n] for n, _ in e.coeffs)
            levels[k].append((at(e, skip=steps[k][0]), m))
        else:
            regular.append((at(e), m))
    forms = []
    for (name, point), level in zip(steps, levels):
        # the orientation's q power is 1 at the point, and the level form leaves it out
        form = FF.build(1, 0, 0, level)
        assert form.monomial.substitute(name, point).is_zero
        forms.append(FF(form.constant, 0, as_exponent(0), form.binomials))
    return at(f.monomial), forms, FF.build(1, 0, 0, regular)


def test_split_at_point_matches_substitution():
    seen = set()

    @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @hypothesis.given(chain_cases(), st.integers(-2, 2))
    def check(case, shift):
        f, steps, _ = case
        # binomials that share a variable part with another, as a mu pair's three do
        shifted = [(e + shift, 1) for e, _ in f.binomials if not e.is_constant]
        f = f * FF.build(1, 0, 0, shifted)
        monomial, levels, regular = split_at_point(f, steps)
        want_monomial, want_levels, want_regular = _split_reference(f, steps)
        assert monomial == want_monomial
        assert levels == want_levels
        assert FF.build(1, 0, 0, regular) == want_regular
        assert len(regular) == len({e for e, _ in regular})
        # an integer value is the shared exponent of that integer
        assert all(e is as_exponent(e._num) for e, _ in regular if e.is_constant and e._den == 1)
        seen.update(k for k, level in enumerate(levels) if level.binomials)
        if any(not e.is_constant for e, _ in regular):
            seen.add("free variables")

    check()
    # vanishing binomials under three different steps, and symbolic remainders
    assert {0, 1, 2, "free variables"} <= seen


def test_split_at_point_merges_values_that_meet_at_a_partial_point():
    # z1 + z2 and (3 z1 + 2 z2 - 1)/2 are distinct exponents; at z1 = 1 the
    # second is (2 + 2 z2)/2, the first's value 1 + z2 once reduced
    first, second = AE.make(0, {"z1": 1, "z2": 1}), AE.make(F(-1, 2), {"z1": F(3, 2), "z2": 1})
    f = FF.build(1, 0, 0, [(first, 1), (second, -2), (AE.make(1, {"z2": 2}), 1)])
    monomial, levels, regular = split_at_point(f, [("z1", F(1))])
    assert monomial.is_zero and levels[0].is_one
    assert sorted(regular, key=lambda item: item[1]) == [
        (AE.make(1, {"z2": 1}), -1), (AE.make(1, {"z2": 2}), 1)]


# -- exact constants from integers against their Fraction expressions -------

theorem_params = st.integers(1, 12).flatmap(lambda m: st.tuples(
    st.just(m), st.integers(1, 24), st.integers(1, m), st.integers(0, 3)))


def _res_al_reference(p, inner: FF, l: int) -> FF:
    """res_al from its chain's result ``inner``, with its prefactor
    (m/t)^(d-l)/(d-l+1) made by Fraction operations."""
    if inner.is_zero:
        return inner
    scale = F(p.m, p.t) ** (p.d - l) / (p.d - l + 1)
    return FF(inner.constant * scale, inner.log_grade + p.d - l, inner.monomial, inner.binomials)


def _closed_form_reference(p) -> FF:
    """residue_closed_form with its constant (-1)^(d-1) (m/t)^(d-1)/d made by Fraction operations."""
    return FF.build(F(p.m, p.t) ** (p.d - 1) / p.d * (-1) ** (p.d - 1), 0,
                    (p.a + p.t) * (p.d * (p.d - 1) // 2),
                    [(as_exponent(p.t), p.d), (as_exponent(p.t * p.d), -1)])


def _assert_same_form(got: FF, want: FF) -> None:
    assert got == want
    assert type(got.constant) is F


def test_integer_constants_match_fraction_expressions(monkeypatch):
    # res_al's chain result is recorded, so the reference takes the same one
    # and the chain runs once per level (the one-pass chain has its own test)
    seen, inners = set(), []

    def recording(f, steps):
        inners.append(iterated_residue(f, steps))
        return inners[-1]

    monkeypatch.setattr(resdata, "iterated_residue", recording)

    @hypothesis.settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @hypothesis.given(theorem_params)
    def check(params):
        m, d, t, a = params
        p = validate(m, d, t, a)
        seen.add("t divides m" if m % t == 0 else "t does not divide m")
        psi = mu_on_z(p)
        for l in range(1, d + 1):
            got = resdata.res_al(p, psi, l)
            _assert_same_form(got, _res_al_reference(p, inners[-1], l))
        _assert_same_form(resdata.residue_closed_form(p), _closed_form_reference(p))
        gamma = gamma_factor(p)
        assert gamma.constant == 1
        for f in (resdata.res_a1_mu(p), resdata.residue_closed_form(p)):
            want = FF.build(gamma.constant * f.constant, gamma.log_grade + f.log_grade,
                            gamma.monomial + f.monomial, gamma.binomials + f.binomials)
            _assert_same_form(gamma * f, want)
            _assert_same_form(f * gamma, want)
        # deg(sigma)^d folded into the constant, against the Fraction power and scale
        deg_sigma = F(a + 2, t + 1)
        folded = closed_form_degree(validate(m, d, t, a, deg_sigma=deg_sigma)).factored
        _assert_same_form(folded, closed_form_degree(p).factored.scale(deg_sigma ** d))

    check()
    assert seen == {"t divides m", "t does not divide m"}
