"""Exact arithmetic for rational functions built from factors (1 - q^E).

Values are products  c * (log q)^g * q^(E0) * prod_k (1 - q^(E_k))^(m_k)
where every exponent E is affine in a finite set of variables with rational
coefficients.  q is treated as transcendental: a factor (1 - q^E) vanishes
iff E is identically zero, so equality of canonical forms is structural.
log q is a formal grading symbol (the integer ``log_grade``) that is never
expanded; residues decrement it, measure prefactors increment it.

Residues come in two kinds.  At a simple pole, the only kind the degree
computation meets, ``residue`` returns the leading Laurent coefficient as a
single factored form built in one step.  At a pole of order two or more it
falls back to the truncated series engine (``local_series``), whose
coefficients are sums of factored forms (``SumForm``).

All objects are immutable and hashable; all operations are pure functions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Union

Rational = Union[int, Fraction]
ExponentValue = Union[int, Fraction, "AffineExponent"]


class PoleAtSubstitutionError(ArithmeticError):
    """A denominator factor vanished identically under a substitution.

    Signals that the caller should take a residue instead of evaluating.
    """


class DivisionByZeroError(ZeroDivisionError):
    """A denominator factor evaluated within machine tolerance of zero."""


def _as_fraction(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _var_key(name: str) -> tuple[str, int]:
    """Sort key giving natural order z1 < z2 < ... < z10."""
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    return (head, int(tail) if tail else -1)


# ---------------------------------------------------------------------------
# Affine exponents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineExponent:
    """An exponent  const + sum_l coeff_l * z_l  with exact rational parts.

    Zero coefficients are never stored; equality and hashing are structural.
    The hash is computed once, since exponents are dictionary keys in every
    product and Fraction hashing is not cheap.
    """

    const: Fraction = Fraction(0)
    coeffs: tuple[tuple[str, Fraction], ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.const, self.coeffs)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def make(const: Rational = 0,
             coeffs: Mapping[str, Rational] | Iterable[tuple[str, Rational]] = ()) -> "AffineExponent":
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        cleaned = {}
        for name, c in items:
            c = _as_fraction(c)
            if c:
                cleaned[name] = cleaned.get(name, Fraction(0)) + c
        fixed = tuple(sorted(((n, c) for n, c in cleaned.items() if c),
                             key=lambda item: _var_key(item[0])))
        return AffineExponent(_as_fraction(const), fixed)

    @staticmethod
    def constant(c: Rational) -> "AffineExponent":
        return AffineExponent.make(c)

    @staticmethod
    def variable(name: str, coeff: Rational = 1, const: Rational = 0) -> "AffineExponent":
        return AffineExponent.make(const, {name: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.const and not self.coeffs

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def variables(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.coeffs)

    def coeff(self, name: str) -> Fraction:
        for n, c in self.coeffs:
            if n == name:
                return c
        return Fraction(0)

    def __add__(self, other: ExponentValue) -> "AffineExponent":
        other = as_exponent(other)
        merged = dict(self.coeffs)
        for n, c in other.coeffs:
            merged[n] = merged.get(n, Fraction(0)) + c
        return AffineExponent.make(self.const + other.const, merged)

    def __sub__(self, other: ExponentValue) -> "AffineExponent":
        return self + (-as_exponent(other))

    def __neg__(self) -> "AffineExponent":
        return self.scale(-1)

    def scale(self, r: Rational) -> "AffineExponent":
        r = _as_fraction(r)
        if not r:
            return _ZERO_EXPONENT
        # a nonzero factor keeps the coefficients nonzero and in order
        return AffineExponent(self.const * r, tuple((n, c * r) for n, c in self.coeffs))

    def substitute(self, name: str, value: ExponentValue) -> "AffineExponent":
        c = self.coeff(name)
        if not c:
            return self
        value = as_exponent(value)
        rest = tuple(item for item in self.coeffs if item[0] != name)
        if value.is_constant:
            # dropping one variable keeps the rest canonical
            return AffineExponent(self.const + c * value.const, rest)
        return AffineExponent(self.const, rest) + value.scale(c)

    def leading_sign(self) -> int:
        """Sign of the first nonzero coefficient, variables first, constant last."""
        for _, c in self.coeffs:
            if c:
                return 1 if c > 0 else -1
        if self.const:
            return 1 if self.const > 0 else -1
        return 0

    def sort_key(self):
        return (self.const, self.coeffs)

    def evaluate(self, assignment: Mapping[str, complex]) -> complex:
        total = complex(self.const)
        for n, c in self.coeffs:
            if n not in assignment:
                raise ValueError(f"no value assigned to variable {n!r}")
            total += float(c) * assignment[n]
        return total

    def evaluate_exact(self, assignment: Mapping[str, Rational]) -> Fraction:
        total = self.const
        for n, c in self.coeffs:
            if n not in assignment:
                raise ValueError(f"no value assigned to variable {n!r}")
            total += c * _as_fraction(assignment[n])
        return total

    def render(self) -> str:
        """Deterministic text form; constant term first, then variables in order."""
        pieces: list[tuple[int, str]] = []
        if self.const or not self.coeffs:
            pieces.append((1 if self.const >= 0 else -1, str(abs(self.const))))
        for n, c in self.coeffs:
            mag = abs(c)
            body = n if mag == 1 else f"{mag}*{n}"
            pieces.append((1 if c > 0 else -1, body))
        sign, body = pieces[0]
        out = ("-" if sign < 0 else "") + body
        for sign, body in pieces[1:]:
            out += (" + " if sign > 0 else " - ") + body
        return out

    def __str__(self) -> str:
        return self.render()


def as_exponent(value: ExponentValue) -> AffineExponent:
    if isinstance(value, AffineExponent):
        return value
    return AffineExponent.constant(_as_fraction(value))


_ZERO_EXPONENT = AffineExponent()


# ---------------------------------------------------------------------------
# Factored forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactoredForm:
    """Canonical product  c * logq^g * q^(E0) * prod (1 - q^(E_k))^(m_k).

    Canonical form: every binomial exponent has positive leading coefficient
    (re-orientation via (1 - q^-E) = -q^-E (1 - q^E) folds sign and monomial
    into ``constant``/``monomial``), equal exponents are merged, exponents are
    sorted.  Two forms represent the same function iff they are equal.
    """

    constant: Fraction = Fraction(1)
    log_grade: int = 0
    monomial: AffineExponent = _ZERO_EXPONENT
    binomials: tuple[tuple[AffineExponent, int], ...] = ()
    is_zero: bool = False

    # -- construction -------------------------------------------------------

    @staticmethod
    def zero() -> "FactoredForm":
        return _ZERO_FORM

    @staticmethod
    def one() -> "FactoredForm":
        return _ONE_FORM

    @staticmethod
    def from_constant(c: Rational, log_grade: int = 0) -> "FactoredForm":
        return FactoredForm.build(c, log_grade, _ZERO_EXPONENT, ())

    @staticmethod
    def q_power(exponent: ExponentValue) -> "FactoredForm":
        return FactoredForm.build(1, 0, as_exponent(exponent), ())

    @staticmethod
    def binomial(exponent: ExponentValue, multiplicity: int = 1) -> "FactoredForm":
        """The factor (1 - q^exponent)^multiplicity in canonical form."""
        return FactoredForm.build(1, 0, _ZERO_EXPONENT, ((as_exponent(exponent), multiplicity),))

    @staticmethod
    def build(constant: Rational, log_grade: int, monomial: ExponentValue,
              binomials: Iterable[tuple[AffineExponent, int]]) -> "FactoredForm":
        constant = _as_fraction(constant)
        if not constant:
            return _ZERO_FORM
        monomial = as_exponent(monomial)
        merged: dict[AffineExponent, int] = {}
        for exponent, mult in binomials:
            if mult == 0:
                continue
            sign = exponent.leading_sign()
            if sign == 0:
                if mult > 0:
                    return _ZERO_FORM
                raise PoleAtSubstitutionError(
                    "denominator factor (1 - q^0) is identically zero")
            if sign < 0:
                if mult % 2:
                    constant = -constant
                monomial = monomial + exponent.scale(mult)
                exponent = -exponent
            merged[exponent] = merged.get(exponent, 0) + mult
        fixed = tuple(sorted(((e, m) for e, m in merged.items() if m),
                             key=lambda item: item[0].sort_key()))
        return FactoredForm(constant, log_grade, monomial, fixed, False)

    # -- structure ----------------------------------------------------------

    @property
    def is_one(self) -> bool:
        return (not self.is_zero and self.constant == 1 and self.log_grade == 0
                and self.monomial.is_zero and not self.binomials)

    def variables(self) -> tuple[str, ...]:
        seen = set(self.monomial.variables())
        for e, _ in self.binomials:
            seen.update(e.variables())
        return tuple(sorted(seen, key=_var_key))

    # -- algebra ------------------------------------------------------------

    def __mul__(self, other: "FactoredForm") -> "FactoredForm":
        if self.is_zero or other.is_zero:
            return _ZERO_FORM
        return FactoredForm.build(self.constant * other.constant,
                                  self.log_grade + other.log_grade,
                                  self.monomial + other.monomial,
                                  self.binomials + other.binomials)

    def scale(self, c: Rational) -> "FactoredForm":
        c = _as_fraction(c)
        if self.is_zero or not c:
            return _ZERO_FORM
        return FactoredForm(self.constant * c, self.log_grade, self.monomial,
                            self.binomials, False)

    def inverse(self) -> "FactoredForm":
        if self.is_zero:
            raise DivisionByZeroError("cannot invert the zero form")
        return FactoredForm(1 / self.constant, -self.log_grade, -self.monomial,
                            tuple((e, -m) for e, m in self.binomials), False)

    def __truediv__(self, other: "FactoredForm") -> "FactoredForm":
        return self * other.inverse()

    def __pow__(self, n: int) -> "FactoredForm":
        """Integer power in one step: scaling every multiplicity by n keeps the
        binomials oriented, distinct and sorted, so the result is canonical.
        """
        if n == 0:
            return _ONE_FORM
        base = self if n > 0 else self.inverse()
        if base.is_zero:
            return _ZERO_FORM
        k = abs(n)
        return FactoredForm(base.constant ** k, base.log_grade * k, base.monomial.scale(k),
                            tuple((e, m * k) for e, m in base.binomials), False)

    def substitute(self, name: str, value: ExponentValue) -> "FactoredForm":
        """Rewrite every exponent under  name := value.

        A numerator binomial whose exponent becomes identically zero makes the
        result zero; a denominator one raises PoleAtSubstitutionError.
        """
        if self.is_zero:
            return _ZERO_FORM
        new_binomials = []
        vanished_numerator = False
        for e, m in self.binomials:
            e2 = e.substitute(name, value)
            if e2.is_zero:
                if m < 0:
                    raise PoleAtSubstitutionError(
                        f"denominator factor (1 - q^({e})) vanishes at {name} := {value}")
                vanished_numerator = True
            else:
                new_binomials.append((e2, m))
        if vanished_numerator:
            return _ZERO_FORM
        return FactoredForm.build(self.constant, self.log_grade,
                                  self.monomial.substitute(name, value), new_binomials)

    def pole_order(self, name: str, point: ExponentValue) -> int:
        """Net pole order at name = point for generic other variables.

        Counted as denominator-minus-numerator multiplicity over the binomials
        whose exponent vanishes identically at the point; positive means pole.
        """
        order = 0
        for e, m in self.binomials:
            if e.substitute(name, point).is_zero:
                order -= m
        return order

    # -- evaluation ---------------------------------------------------------

    def eval_numeric(self, q: float, assignment: Mapping[str, complex] | None = None) -> complex:
        """Floating-point value at a numeric q > 1, with (log q)^log_grade applied."""
        if q <= 1:
            raise ValueError("eval_numeric requires q > 1")
        if self.is_zero:
            return 0.0
        assignment = assignment or {}
        lnq = math.log(q)
        value = complex(self.constant) * lnq ** self.log_grade
        value *= cmath.exp(lnq * self.monomial.evaluate(assignment))
        for e, m in self.binomials:
            factor = 1.0 - cmath.exp(lnq * e.evaluate(assignment))
            if m < 0 and abs(factor) < 1e-13:
                raise DivisionByZeroError(
                    f"denominator factor (1 - q^({e})) evaluates to ~0")
            value *= factor ** m
        return value

    def eval_exact(self, q: Fraction, assignment: Mapping[str, Rational] | None = None) -> Fraction:
        """Exact rational value; requires integer exponents and log_grade 0."""
        if self.is_zero:
            return Fraction(0)
        if self.log_grade:
            raise ValueError("exact evaluation requires log_grade 0")
        q = _as_fraction(q)
        assignment = assignment or {}

        def q_pow(e: AffineExponent) -> Fraction:
            x = e.evaluate_exact(assignment)
            if x.denominator != 1:
                raise ValueError(f"non-integer exponent {x} has no exact rational value")
            return q ** x.numerator

        value = self.constant * q_pow(self.monomial)
        for e, m in self.binomials:
            factor = 1 - q_pow(e)
            if not factor and m < 0:
                raise DivisionByZeroError(f"denominator factor (1 - q^({e})) is zero")
            value *= factor ** m
        return value

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Bit-exact canonical text: c * logq^g * q^(E0) * PROD (1 - q^(E))^k."""
        if self.is_zero:
            return "0"
        parts = [str(self.constant)]
        if self.log_grade:
            parts.append(f"logq^{self.log_grade}")
        if not self.monomial.is_zero:
            parts.append(f"q^({self.monomial.render()})")
        for e, m in self.binomials:
            parts.append(f"(1 - q^({e.render()}))^{m}")
        return " * ".join(parts)

    def __str__(self) -> str:
        return self.render()


_ZERO_FORM = FactoredForm(Fraction(0), 0, _ZERO_EXPONENT, (), True)
_ONE_FORM = FactoredForm(Fraction(1), 0, _ZERO_EXPONENT, (), False)


# ---------------------------------------------------------------------------
# Sums of factored forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SumForm:
    """A finite sum of factored forms; the empty sum is zero.

    ``residue`` returns one: a simple pole gives a single term (the closed
    path), and only the series fallback for poles of order two or more can
    give several.  The degree computation stays single-term throughout.
    """

    terms: tuple[FactoredForm, ...] = ()

    @staticmethod
    def make(terms: Iterable[FactoredForm]) -> "SumForm":
        return SumForm(tuple(t for t in terms if not t.is_zero))

    @staticmethod
    def zero() -> "SumForm":
        return SumForm()

    @staticmethod
    def of(term: FactoredForm) -> "SumForm":
        return SumForm.make([term])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def single_term(self) -> FactoredForm:
        """The unique term of a one-term sum (zero form for the empty sum)."""
        if not self.terms:
            return FactoredForm.zero()
        if len(self.terms) != 1:
            raise ValueError(f"sum has {len(self.terms)} terms, expected one")
        return self.terms[0]

    def __add__(self, other: "SumForm") -> "SumForm":
        return SumForm(self.terms + other.terms)

    def __neg__(self) -> "SumForm":
        return SumForm(tuple(t.scale(-1) for t in self.terms))

    def scale(self, c: Rational) -> "SumForm":
        return SumForm.make(t.scale(c) for t in self.terms)

    def __mul__(self, other: Union["SumForm", FactoredForm]) -> "SumForm":
        if isinstance(other, FactoredForm):
            other = SumForm.of(other)
        return SumForm.make(a * b for a in self.terms for b in other.terms)

    def substitute(self, name: str, value: ExponentValue) -> "SumForm":
        return SumForm.make(t.substitute(name, value) for t in self.terms)

    def variables(self) -> tuple[str, ...]:
        seen = set()
        for t in self.terms:
            seen.update(t.variables())
        return tuple(sorted(seen, key=_var_key))

    def log_grades(self) -> tuple[int, ...]:
        return tuple(sorted({t.log_grade for t in self.terms}))

    def eval_numeric(self, q: float, assignment: Mapping[str, complex] | None = None) -> complex:
        return sum((t.eval_numeric(q, assignment) for t in self.terms), 0j)

    def render(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(t.render() for t in self.terms)

    def __str__(self) -> str:
        return self.render()


def as_sum(f: Union[FactoredForm, SumForm]) -> SumForm:
    if isinstance(f, SumForm):
        return f
    return SumForm.of(f)


# ---------------------------------------------------------------------------
# Local series and residues
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalSeries:
    """Truncated Laurent expansion in w = (variable - center), exact coefficients.

    ``coefficients`` maps order -> SumForm; orders below the minimal order are
    absent, orders above ``truncation_order`` are unknown.
    """

    variable: str
    center: Fraction
    coefficients: dict[int, SumForm] = field(default_factory=dict)
    truncation_order: int = 0

    def coefficient(self, order: int) -> SumForm:
        if order > self.truncation_order:
            raise ValueError(f"order {order} beyond truncation {self.truncation_order}")
        return self.coefficients.get(order, SumForm.zero())

    @property
    def min_order(self) -> int:
        return min(self.coefficients) if self.coefficients else 0


class _Series:
    """Internal truncated series with SumForm coefficients."""

    __slots__ = ("items", "trunc")

    def __init__(self, items: dict[int, SumForm], trunc: int):
        self.items = {n: s for n, s in items.items() if not s.is_zero and n <= trunc}
        self.trunc = trunc

    @property
    def min_order(self) -> int:
        return min(self.items) if self.items else 0

    def mul(self, other: "_Series") -> "_Series":
        trunc = min(self.trunc + other.min_order, other.trunc + self.min_order)
        out: dict[int, SumForm] = {}
        for i, a in self.items.items():
            for j, b in other.items.items():
                if i + j > trunc:
                    continue
                out[i + j] = out.get(i + j, SumForm.zero()) + (a * b)
        return _Series(out, trunc)

    def invert(self, n_terms: int) -> "_Series":
        p = self.min_order
        lead = self.items[p].single_term()
        lead_inv = SumForm.of(lead.inverse())
        coeffs: dict[int, SumForm] = {-p: lead_inv}
        for i in range(1, n_terms):
            acc = SumForm.zero()
            for j in range(1, i + 1):
                a = self.items.get(p + j)
                c = coeffs.get(-p + i - j)
                if a is None or c is None:
                    continue
                acc = acc + (a * c)
            coeffs[-p + i] = (-acc) * lead_inv
        return _Series(coeffs, -p + n_terms - 1)

    def power(self, k: int, n_terms: int) -> "_Series":
        base = self if k > 0 else self.invert(n_terms)
        out = base
        for _ in range(abs(k) - 1):
            out = out.mul(base)
        return out


def _unit_series(trunc: int) -> _Series:
    return _Series({0: SumForm.of(FactoredForm.one())}, trunc)


def _exp_series(slope: Fraction, base: FactoredForm, n_terms: int) -> _Series:
    """Series of base * q^(slope*w) = base * sum_j (slope*logq)^j w^j / j!."""
    items: dict[int, SumForm] = {}
    num = Fraction(1)
    fact = 1
    for j in range(n_terms):
        items[j] = SumForm.of(base.scale(num / fact) * FactoredForm.from_constant(1, j))
        num *= slope
        fact *= j + 1
    return _Series(items, n_terms - 1)


def _binomial_vanishing_series(slope: Fraction, n_terms: int) -> _Series:
    """Series of (1 - q^(slope*w)) = -(slope*logq) w (1 + (slope*logq/2) w + ...)."""
    items: dict[int, SumForm] = {}
    num = slope
    fact = 1
    for j in range(1, n_terms + 1):
        items[j] = SumForm.of(FactoredForm.from_constant(-num / fact, j))
        num *= slope
        fact *= j + 1
    return _Series(items, n_terms)


def _binomial_regular_series(slope: Fraction, center_part: AffineExponent, n_terms: int) -> _Series:
    """Series of (1 - q^(center_part + slope*w)) with center_part not identically zero."""
    items: dict[int, SumForm] = {0: SumForm.of(FactoredForm.binomial(center_part))}
    num = slope
    fact = 1
    for j in range(1, n_terms):
        coeff = FactoredForm.build(-num / fact, j, center_part, ())
        items[j] = SumForm.of(coeff)
        num *= slope
        fact *= j + 1
    return _Series(items, n_terms - 1)


def _form_series(f: FactoredForm, name: str, center: Fraction, order: int) -> _Series:
    """Expand a factored form around name = center up to the given order."""
    center_exp = AffineExponent.constant(center)

    # Classify factors and find the total minimal order first.
    factors: list[tuple[str, object]] = []
    total_min = 0
    e0 = f.monomial.coeff(name)
    for e, m in f.binomials:
        slope = e.coeff(name)
        e_center = e.substitute(name, center_exp)
        if slope and e_center.is_zero:
            total_min += m
            factors.append(("vanishing", (slope, m)))
        else:
            factors.append(("regular", (slope, e_center, m)))

    n_terms = order - total_min + 1
    if n_terms <= 0:
        return _Series({}, order)

    base = FactoredForm.build(f.constant, f.log_grade,
                              f.monomial.substitute(name, center_exp), ())
    if e0:
        series = _exp_series(e0, base, n_terms)
    else:
        series = _Series({0: SumForm.of(base)}, n_terms - 1)

    for kind, data in factors:
        if kind == "vanishing":
            slope, m = data
            piece = _binomial_vanishing_series(slope, n_terms).power(m, n_terms)
        else:
            slope, e_center, m = data
            if not slope:
                piece = _Series({0: SumForm.of(FactoredForm.binomial(e_center, m))}, n_terms - 1)
            else:
                piece = _binomial_regular_series(slope, e_center, n_terms).power(m, n_terms)
        series = series.mul(piece)
    return series


def local_series(f: Union[FactoredForm, SumForm], name: str, center: Rational,
                 order: int) -> LocalSeries:
    """Exact Laurent expansion of f around name = center, up to the given order."""
    center = _as_fraction(center)
    items: dict[int, SumForm] = {}
    trunc = order
    for term in as_sum(f).terms:
        series = _form_series(term, name, center, order)
        trunc = min(trunc, series.trunc)
        for n, s in series.items.items():
            items[n] = items.get(n, SumForm.zero()) + s
    return LocalSeries(name, center, {n: s for n, s in items.items() if n <= trunc}, trunc)


def residue(f: Union[FactoredForm, SumForm], name: str, point: Rational) -> SumForm:
    """Residue of f dz at name = point; regular points give zero.

    Near the point, a binomial whose exponent vanishes there is
    1 - q^(s*w) = -(s*logq) w (1 + ...) with w = name - point.  At a simple
    pole the residue is therefore the leading Laurent coefficient, built in
    one step: every other factor is evaluated at the point, the constant is
    multiplied by (-s)^m for each vanishing binomial (1 - q^(s*w))^m, and the
    log grade drops by one.  Poles of order two or more go through the
    truncated series engine (``local_series``), whose w^(-1) coefficient may
    be a sum of several terms.
    """
    point = _as_fraction(point)
    center = AffineExponent.constant(point)
    terms: list[FactoredForm] = []
    for term in as_sum(f).terms:
        constant = term.constant
        order = 0
        regular = []
        for e, m in term.binomials:
            e_center = e.substitute(name, center)
            if e_center.is_zero:
                constant *= (-e.coeff(name)) ** m
                order -= m
            else:
                regular.append((e_center, m))
        if order == 1:
            terms.append(FactoredForm.build(constant, term.log_grade - 1,
                                            term.monomial.substitute(name, center), regular))
        elif order > 1:
            terms.extend(_form_series(term, name, point, -1).items.get(-1, SumForm.zero()).terms)
    return SumForm(tuple(terms))
