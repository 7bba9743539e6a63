"""Exact arithmetic for rational functions built from factors (1 - q^E).

Values are products  c * (log q)^g * q^(E0) * prod_k (1 - q^(E_k))^(m_k)
where every exponent E is affine in a finite set of variables with rational
coefficients.  q is treated as transcendental: a factor (1 - q^E) vanishes
iff E is identically zero, so equality of canonical forms is structural.
``FactoredForm.build`` alone applies that rule: a vanishing denominator
factor raises PoleAtSubstitutionError, else a vanishing numerator one gives 0.
log q is a formal grading symbol (the integer ``log_grade``) that is never
expanded; residues decrement it, measure prefactors increment it.

Each exponent is stored as Python integers over one shared denominator,
(num + sum_l c_l z_l) / den, reduced so that den > 0 and
gcd(den, num, c_1, ...) = 1.  The representation is unique, so exponents
compare by their integers and hash their integer tuple, once, on first use;
their algebra is integer arithmetic with one gcd step, taken by the one
reducer ``_reduced``, and no Fraction arithmetic runs while forms are built.
Every exact rational argument, int or Fraction, is read by one function,
``_ratio``, which refuses anything else.

Exponents and forms are immutable and hashable, and their operations are
pure functions.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

Rational = Union[int, Fraction]
ExponentValue = Union[int, Fraction, "AffineExponent"]


class PoleAtSubstitutionError(ArithmeticError):
    """A denominator factor vanished identically under a substitution.

    Signals that the caller should take a residue instead of evaluating.
    """


class HigherOrderPoleError(ArithmeticError):
    """A residue chain met a pole of order two or more, which it does not take."""


class DivisionByZeroError(ZeroDivisionError):
    """A denominator factor evaluated within machine tolerance of zero."""


def _ratio(x: Rational) -> tuple[int, int]:
    """Numerator and positive denominator of an exact rational, in lowest terms:
    the one reader of an int or a Fraction; anything else raises TypeError."""
    if isinstance(x, int):
        return int(x), 1  # int() turns a bool into a plain int
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _as_fraction(x: Rational) -> Fraction:
    return x if type(x) is Fraction else Fraction(*_ratio(x))


_EXP_SAFE = 708.0  # |Re w| up to which exp(w) is a normal float
_LN2 = math.log(2.0)


def _normalized(z: complex, k: int) -> tuple[complex, int]:
    """z * 2^k rewritten with the larger part of the mantissa in [0.5, 1)."""
    big = max(abs(z.real), abs(z.imag))
    if not big or not math.isfinite(big):
        return z, k
    e = math.frexp(big)[1]
    return complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)), k + e


def _scaled_exp(w: complex) -> tuple[complex, int]:
    """exp(w) as (mantissa, k) with exp(w) = mantissa * 2^k; k = 0 while
    exp(w) is a normal float, so the value is then cmath.exp's own.
    """
    if abs(w.real) <= _EXP_SAFE or not math.isfinite(w.real):
        return cmath.exp(w), 0
    k = int(w.real / _LN2)
    return cmath.exp(complex(w.real - k * _LN2, w.imag)), k


def _scaled_rational(x: Fraction) -> tuple[float, int]:
    """x as (mantissa, k) with x = mantissa * 2^k, the mantissa correctly rounded."""
    k = x.numerator.bit_length() - x.denominator.bit_length()
    if abs(k) < 1000:
        return float(x), 0
    if k > 0:
        return x.numerator / (x.denominator << k), k
    return (x.numerator << -k) / x.denominator, k


def rational_text(x: Rational) -> str:
    """``str(x)`` of an int or a Fraction, for any size: the numerator and
    the denominator go through ``Decimal``, whose conversion has no digit limit."""
    num, den = _ratio(x)
    return str(Decimal(num)) if den == 1 else f"{Decimal(num)}/{Decimal(den)}"


def q_problem(q: Rational | float) -> str | None:
    """Why q lies outside its domain, finite and > 1, or None when it lies
    inside; an exact q is named in full by ``rational_text``."""
    exact = isinstance(q, (int, Fraction))
    if not exact and not math.isfinite(q):
        return f"q must be finite, got {q}"
    if not q > 1:
        return f"q must exceed 1, got {rational_text(q) if exact else q}"
    return None


@lru_cache(maxsize=4096)
def _var_key(name: str) -> tuple[str, int]:
    """Sort key giving natural order z1 < z2 < ... < z10."""
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    return (head, int(tail) if tail else -1)


def _term_key(item: tuple[str, int]) -> tuple[str, int]:
    return _var_key(item[0])


def _merge(t1, f1: int, t2, f2: int) -> tuple[tuple[str, int], ...]:
    """The terms of f1*t1 + f2*t2, zero coefficients dropped, in variable order."""
    acc = {n: c * f1 for n, c in t1}
    for n, c in t2:
        acc[n] = acc.get(n, 0) + c * f2
    return tuple(sorted([item for item in acc.items() if item[1]], key=_term_key))


def _reduced(num: int, den: int, terms: tuple[tuple[str, int], ...]) -> "AffineExponent":
    """The exponent (num + terms)/den, den > 0, with the common factor divided
    out: the one reducer of an exponent."""
    g = gcd(den, num, *[c for _, c in terms])
    if g != 1:
        num //= g
        den //= g
        terms = tuple([(n, c // g) for n, c in terms])
    return AffineExponent(num, den, terms)


def _slope(e: "AffineExponent", name: str) -> int:
    """The integer coefficient of ``name`` in e, over e's denominator."""
    for n, c in e._terms:
        if n == name:
            return c
    return 0


# ---------------------------------------------------------------------------
# Affine exponents
# ---------------------------------------------------------------------------

class AffineExponent:
    """An exponent  const + sum_l coeff_l * z_l  with exact rational parts.

    Stored as integers over one shared denominator: the value is
    (num + sum_l c_l * z_l) / den with den > 0, gcd(den, num, c_1, ...) = 1,
    no zero c_l, and the variables in natural order.  That representation is
    unique, so equality compares the integers, and every operation is integer
    arithmetic followed by at most one gcd step.  The hash of the integer
    tuple is computed the first time it is asked for and then kept: an
    exponent that is never a dict key, as mu's on the residue chain, never
    pays for it.
    ``const``, ``coeffs`` and ``coeff`` give the parts as Fractions.

    Build exponents with ``make``, ``variable`` or ``as_exponent``; the
    constructor takes an already reduced integer representation.  Instances
    are never mutated after construction, apart from caching that hash.
    """

    __slots__ = ("_num", "_den", "_terms", "_hash")

    def __init__(self, num: int = 0, den: int = 1,
                 terms: tuple[tuple[str, int], ...] = ()):
        self._num = num
        self._den = den
        self._terms = terms
        self._hash = None

    @staticmethod
    def make(const: Rational = 0,
             coeffs: Mapping[str, Rational] | Iterable[tuple[str, Rational]] = ()) -> "AffineExponent":
        """const + sum of coeff * name over ``coeffs``, a mapping or pairs in
        which a name may repeat: each unit exponent ``name``, scaled by its
        coefficient, is added to the constant.  A float raises TypeError."""
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        total = AffineExponent(*_ratio(const))
        for name, c in items:
            total = total + AffineExponent(0, 1, ((name, 1),)).scale(c)
        return total

    @staticmethod
    def variable(name: str, coeff: Rational = 1, const: Rational = 0) -> "AffineExponent":
        """const + coeff * name."""
        return AffineExponent.make(const, ((name, coeff),))

    # -- views --------------------------------------------------------------

    @property
    def const(self) -> Fraction:
        return Fraction(self._num, self._den)

    @property
    def coeffs(self) -> tuple[tuple[str, Fraction], ...]:
        return tuple((n, Fraction(c, self._den)) for n, c in self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._num and not self._terms

    @property
    def is_constant(self) -> bool:
        return not self._terms

    def coeff(self, name: str) -> Fraction:
        return Fraction(_slope(self, name), self._den)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not AffineExponent:
            return NotImplemented
        return (self._num == other._num and self._den == other._den
                and self._terms == other._terms)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:  # first use: O(terms), once
            h = self._hash = hash((self._num, self._den, self._terms))
        return h

    def __reduce__(self):
        # string hashes differ between processes: rebuild rather than copy _hash
        return AffineExponent, (self._num, self._den, self._terms)

    def __repr__(self) -> str:
        return f"AffineExponent({self.render()!r})"

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: ExponentValue) -> "AffineExponent":
        other = as_exponent(other)
        d1, d2 = self._den, other._den
        if d2 == 1 and not other._terms:
            # adding an integer keeps the content coprime to the denominator
            return AffineExponent(self._num + other._num * d1, d1, self._terms)
        den = lcm(d1, d2)
        f1, f2 = den // d1, den // d2
        return _reduced(self._num * f1 + other._num * f2, den,
                        _merge(self._terms, f1, other._terms, f2))

    def __sub__(self, other: ExponentValue) -> "AffineExponent":
        return self + (-as_exponent(other))

    def __neg__(self) -> "AffineExponent":
        return AffineExponent(-self._num, self._den, tuple((n, -c) for n, c in self._terms))

    def scale(self, r: Rational) -> "AffineExponent":
        p, q = _ratio(r)
        if not p:
            return _ZERO_EXPONENT
        return _reduced(self._num * p, self._den * q, tuple((n, c * p) for n, c in self._terms))

    def substitute(self, name: str, value: ExponentValue) -> "AffineExponent":
        terms = self._terms
        for i, (n, c) in enumerate(terms):
            if n == name:
                break
        else:
            return self
        value = as_exponent(value)
        vd = value._den
        rest = tuple((n, x * vd) for n, x in terms[:i] + terms[i + 1:])
        if value._terms:
            rest = _merge(rest, 1, value._terms, c)
        return _reduced(self._num * vd + c * value._num, self._den * vd, rest)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, complex]) -> complex:
        den = self._den
        total = complex(self._num / den)
        for n, c in self._terms:
            if n not in assignment:
                raise ValueError(f"no value assigned to variable {n!r}")
            total += (c / den) * assignment[n]
        return total

    def render(self) -> str:
        """Deterministic text form; constant term first, then variables in order."""
        den = self._den
        if den == 1 and not self._terms:
            return str(self._num)
        pieces: list[tuple[int, str]] = []
        if self._num or not self._terms:
            pieces.append((1 if self._num >= 0 else -1,
                           rational_text(Fraction(abs(self._num), den))))
        for n, c in self._terms:
            mag = abs(c)
            body = n if mag == den else f"{rational_text(Fraction(mag, den))}*{n}"
            pieces.append((1 if c > 0 else -1, body))
        sign, body = pieces[0]
        out = ("-" if sign < 0 else "") + body
        for sign, body in pieces[1:]:
            out += (" + " if sign > 0 else " - ") + body
        return out

    def __str__(self) -> str:
        return self.render()


def as_exponent(value: ExponentValue) -> AffineExponent:
    """value as an exponent; an int gives one shared instance per integer, so
    equal integer exponents compare, merge and hash through identity first."""
    if type(value) is AffineExponent:
        return value
    if type(value) is int:
        return _integer_exponent(value)
    return AffineExponent(*_ratio(value))


_integer_exponent = lru_cache(maxsize=4096)(AffineExponent)
_ZERO_EXPONENT = as_exponent(0)


def integer_rows(scaled: Sequence[tuple[AffineExponent, Rational]]
                 ) -> tuple[int, list[str], list[tuple[int, list[int]]]]:
    """Exponents times rational scales as integer rows over one denominator:
    ``den``, the lcm of the scaled exponents' denominators; the names of their
    variables in natural order, one column each; and for each exponent its
    numerator and its coefficient in every column, over ``den``."""
    parts = [(e, *_ratio(r)) for e, r in scaled]
    den = lcm(*[e._den * bottom for e, _, bottom in parts])
    names = sorted({n for e, _, _ in parts for n, _ in e._terms}, key=_var_key)
    column = {n: k for k, n in enumerate(names)}
    rows = []
    for e, top, bottom in parts:
        f = den // (e._den * bottom) * top
        row = [0] * len(names)
        for n, c in e._terms:
            row[column[n]] = c * f
        rows.append((e._num * f, row))
    return den, names, rows


def row_exponent(num: int, den: int, names: Sequence[str], row: Sequence[int]) -> AffineExponent:
    """The exponent (num + sum_k row[k] names[k]) / den, reduced by ``_reduced``."""
    return _reduced(num, den, tuple([(n, c) for n, c in zip(names, row) if c]))


def _scaled_key(den: int):
    """The sort key of an (exponent, multiplicity) item: the exponent's
    (num, terms) scaled to ``den``, a common multiple of the denominators,
    which orders exponents exactly as their (const, coeffs) Fractions would."""

    def key(item: tuple[AffineExponent, int]) -> tuple:
        e = item[0]
        f = den // e._den
        return (e._num * f, tuple([(n, c * f) for n, c in e._terms]))

    return key


def _unscaled_key(item: tuple[AffineExponent, int]) -> tuple:
    return (item[0]._num, item[0]._terms)  # the sort key over one shared denominator


def sorted_binomials(merged: Mapping[AffineExponent, int]) -> tuple:
    """The nonzero items of exponent -> multiplicity in a canonical form's
    order, that of the exponents' (const, coeffs) Fractions: by their (num,
    terms) integers when they share one denominator, else by those integers
    scaled to the lcm of the denominators (``_scaled_key``)."""
    items = [item for item in merged.items() if item[1]]
    if len(items) > 1:
        dens = {e._den for e, _ in items}
        items.sort(key=_unscaled_key if len(dens) == 1 else _scaled_key(lcm(*dens)))
    return tuple(items)


# ---------------------------------------------------------------------------
# Factored forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactoredForm:
    """Canonical product  c * logq^g * q^(E0) * prod (1 - q^(E_k))^(m_k).

    Canonical form: every binomial exponent has positive leading coefficient
    (re-orientation via (1 - q^-E) = -q^-E (1 - q^E) folds sign and monomial
    into ``constant``/``monomial``), equal exponents are merged, exponents are
    sorted.  Two forms represent the same function iff they are equal.  The
    zero form is the one with constant 0; every operation that gives zero
    gives that one form.

    The constructor takes a form that is already canonical, as
    ``AffineExponent``'s takes a reduced one; ``build`` makes one from any
    factors.  Products and quotients rely on their operands being canonical.
    """

    constant: Fraction = Fraction(1)
    log_grade: int = 0
    monomial: AffineExponent = _ZERO_EXPONENT
    binomials: tuple[tuple[AffineExponent, int], ...] = ()

    # -- construction -------------------------------------------------------

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
        """The canonical form of c * logq^g * q^(monomial) * prod (1 - q^e)^m.

        Each binomial is oriented to a positive leading coefficient, equal
        exponents are merged and multiplicity 0 is dropped.  The exponents are
        sorted in the order of their (const, coeffs) Fractions
        (``sorted_binomials``).
        """
        constant = _as_fraction(constant)
        if not constant:
            return _ZERO_FORM
        monomial = as_exponent(monomial)
        merged: dict[AffineExponent, int] = {}
        vanished = False  # a numerator factor is zero; a denominator one still raises
        for exponent, mult in binomials:
            if mult == 0:
                continue
            # the leading coefficient: variables first, constant last; no term's is zero
            terms = exponent._terms
            lead = terms[0][1] if terms else exponent._num
            if lead < 0:
                if mult % 2:
                    constant = -constant
                monomial = monomial + exponent.scale(mult)
                exponent = -exponent
            elif not lead:
                if mult < 0:
                    raise PoleAtSubstitutionError(
                        "denominator factor (1 - q^0) is identically zero")
                vanished = True
                continue
            merged[exponent] = merged.get(exponent, 0) + mult
        if vanished:
            return _ZERO_FORM
        return FactoredForm(constant, log_grade, monomial, sorted_binomials(merged))

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.constant

    @property
    def is_one(self) -> bool:
        return (self.constant == 1 and self.log_grade == 0
                and self.monomial.is_zero and not self.binomials)

    # -- algebra ------------------------------------------------------------

    def __mul__(self, other: "FactoredForm") -> "FactoredForm":
        """Merged from two canonical forms, which are already oriented: equal
        exponents add multiplicities, zeros drop, one sort orders the rest.
        A constant 1 (gamma's, for one) takes the other's with no product."""
        a, b = self.constant, other.constant
        if not a or not b:
            return _ZERO_FORM
        merged = dict(self.binomials)
        for e, m in other.binomials:
            merged[e] = merged.get(e, 0) + m
        return FactoredForm(b if a == 1 else a if b == 1 else a * b,
                            self.log_grade + other.log_grade,
                            self.monomial + other.monomial, sorted_binomials(merged))

    def scale(self, c: Rational) -> "FactoredForm":
        c = _as_fraction(c)
        if self.is_zero or not c:
            return _ZERO_FORM
        return FactoredForm(self.constant * c, self.log_grade, self.monomial, self.binomials)

    def inverse(self) -> "FactoredForm":
        if self.is_zero:
            raise DivisionByZeroError("cannot invert the zero form")
        return FactoredForm(1 / self.constant, -self.log_grade, -self.monomial,
                            tuple((e, -m) for e, m in self.binomials))

    def __truediv__(self, other: "FactoredForm") -> "FactoredForm":
        return self * other.inverse()

    def substitute(self, name: str, value: ExponentValue) -> "FactoredForm":
        """Rewrite every exponent under  name := value, in one ``build``: a
        denominator binomial whose exponent becomes identically zero raises
        PoleAtSubstitutionError, and a numerator one makes the result zero.
        """
        return FactoredForm.build(self.constant, self.log_grade,
                                  self.monomial.substitute(name, value),
                                  [(e.substitute(name, value), m) for e, m in self.binomials])

    def pole_order(self, name: str, point: ExponentValue) -> int:
        """Net pole order at name = point for generic other variables.

        Counted as denominator-minus-numerator multiplicity over the binomials
        whose exponent vanishes identically at the point; positive means pole.
        """
        return -sum(m for e, m in self.binomials if e.substitute(name, point).is_zero)

    # -- evaluation ---------------------------------------------------------

    def eval_numeric(self, q: float, assignment: Mapping[str, complex] | None = None) -> complex:
        """Floating-point value at a finite numeric q > 1, with (log q)^log_grade
        applied; any other q raises ValueError with ``q_problem``'s message.

        The product is carried as a mantissa times a separate power of two,
        so no intermediate factor over- or underflows; scaling by powers of two
        is exact, so values whose factors all fit in a float come out as the
        plain product would give them.  A nonzero value whose magnitude lies
        beyond the range of normal floats raises OverflowError.
        """
        if problem := q_problem(q):
            raise ValueError(problem)
        if self.is_zero:
            return 0j
        assignment = assignment or {}
        lnq = math.log(q)
        c, k = _scaled_rational(self.constant)
        mant, k2 = _scaled_exp(lnq * self.monomial.evaluate(assignment))
        value, shift = _normalized(complex(c) * lnq ** self.log_grade * mant, k + k2)
        for e, m in self.binomials:
            w = lnq * e.evaluate(assignment)
            if w.real <= _EXP_SAFE:
                factor = 1.0 - cmath.exp(w)
                if m < 0 and abs(factor) < 1e-13:
                    raise DivisionByZeroError(
                        f"denominator factor (1 - q^({e})) evaluates to ~0")
                factor, k = _normalized(factor, 0)
            else:
                # |q^E| > e^708: the 1 is far below a float's precision
                mant, k = _scaled_exp(w)
                factor, k = _normalized(-mant, k)
            while m:
                # |factor| lies in [0.5, 1.5), so a power of at most 100 stays a normal float;
                # beyond 100 CPython's ** takes a logarithm, giving a real base an imaginary part
                step = max(-100, min(100, m))
                value, shift = _normalized(value * factor ** step, shift + k * step)
                m -= step
        # the larger part of value lies in [0.5, 1), so shift is the result's binary exponent
        if value and not sys.float_info.min_exp <= shift <= sys.float_info.max_exp:
            raise OverflowError(f"value 2^{shift} * {value} lies beyond the float range")
        return complex(math.ldexp(value.real, shift), math.ldexp(value.imag, shift))

    def eval_exact(self, q: Fraction) -> Fraction:
        """Exact rational value; requires constant integer exponents and log_grade 0.

        With q = n/d every factor is multiplied into one integer numerator and
        one denominator, 1 - q^k as (d^k - n^k)/d^k or, for k < 0, as
        (n^|k| - d^|k|)/n^|k|, and the quotient is reduced once.
        """
        if self.is_zero:
            return Fraction(0)
        if self.log_grade:
            raise ValueError("exact evaluation requires log_grade 0")
        n, d = _ratio(q)

        def power(e: AffineExponent) -> tuple[int, int]:
            k = e._num
            if e._terms or e._den != 1:
                raise ValueError(f"exponent {e} is not a constant integer")
            if k < 0 and not n:
                raise ZeroDivisionError(f"q = 0 has no power q^({e})")
            return (n ** k, d ** k) if k >= 0 else (d ** -k, n ** -k)

        x, y = power(self.monomial)
        num, den = x * self.constant.numerator, y * self.constant.denominator
        for e, m in self.binomials:
            x, y = power(e)  # q^e = x/y, so 1 - q^e = (y - x)/y
            if m < 0 and x == y:
                raise DivisionByZeroError(f"denominator factor (1 - q^({e})) is zero")
            top, bottom = (y - x, y) if m > 0 else (y, y - x)
            num *= top ** abs(m)
            den *= bottom ** abs(m)
        return Fraction(num, den)

    def log2_bounds(self, q: Fraction) -> tuple[float, float] | None:
        """Bounds on log2 |value| at a rational q > 1 from float arithmetic,
        within float rounding however close q is to 1; None unless q > 1,
        log q is a normal float, every exponent is a constant integer, the
        form is nonzero and log_grade is 0.

        log |1 - q^k| = max(k, 0) log q + log(-expm1(-|k| log q)).  log q is
        taken to a few units in the last place (near 1 through ``log1p`` of
        a correctly rounded q - 1), and the slope of log(1 - e^-x) is
        1/(e^x - 1) <= 1/x, so each factor's term is within a few units of
        its size plus its |m|; the q^max(k, 0) parts are gathered into one
        integer power, and ``math.fsum`` adds the terms with one rounding.
        The spread allows 16 units per unit of size and of |m|.
        """
        mono = self.monomial
        if not q > 1 or self.is_zero or self.log_grade or mono._terms or mono._den != 1:
            return None
        if q < 2:
            lnq = math.log1p(float(q - 1))
        else:
            mant, shift = _scaled_rational(q)
            lnq = math.log(mant) + shift * _LN2
        if lnq < sys.float_info.min:
            return None
        mant, shift = _scaled_rational(abs(self.constant))
        terms = [math.log(mant) + shift * _LN2]
        power, weight = mono._num, 2
        for e, m in self.binomials:
            k = e._num
            if e._terms or e._den != 1:
                return None
            if k > 0:
                power += m * k
            weight += abs(m)
            terms.append(m * math.log(-math.expm1(-abs(k) * lnq)))
        terms.append(power * lnq)
        mid = math.fsum(terms) / _LN2
        spread = 16 * sys.float_info.epsilon * (sum(map(abs, terms)) + weight) / _LN2
        return mid - spread, mid + spread

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Bit-exact canonical text: c * logq^g * q^(E0) * PROD (1 - q^(E))^k."""
        if self.is_zero:
            return "0"
        parts = [rational_text(self.constant)]
        if self.log_grade:
            parts.append(f"logq^{self.log_grade}")
        if not self.monomial.is_zero:
            parts.append(f"q^({self.monomial.render()})")
        for e, m in self.binomials:
            parts.append(f"(1 - q^({e.render()}))^{m}")
        return " * ".join(parts)

    def __str__(self) -> str:
        return self.render()


UNITS = (Fraction(1), Fraction(-1))  # (-1)^k by k % 2, shared by every form that has one
_ZERO_FORM = FactoredForm(Fraction(0), 0, _ZERO_EXPONENT, ())
_ONE_FORM = FactoredForm(UNITS[0], 0, _ZERO_EXPONENT, ())


def _at_point(terms: tuple[tuple[str, int], ...], nums: Mapping[str, int], den: int
              ) -> tuple[int, tuple[tuple[str, int], ...]]:
    """The variable part ``terms`` at v = nums[v]/den for every v named in nums,
    times den: the integer it adds to the numerator, and the other terms."""
    value, rest = 0, []
    for n, c in terms:
        v = nums.get(n)
        if v is None:
            rest.append((n, c * den))
        else:
            value += c * v
    return value, tuple(rest)


def split_at_point(f: FactoredForm, steps: Sequence[tuple[str, Fraction]]
                   ) -> tuple[AffineExponent, list[FactoredForm], list[tuple[AffineExponent, int]]]:
    """f's monomial at the point of ``steps`` (pairs (variable, value)), one
    canonical form per step of the binomials that vanish there, and the other
    binomials evaluated there.

    A binomial vanishes at exactly one step, the one that substitutes the
    last of its variables; it is filed under that step as its restriction
    s (z - r) to the step's variable z and value r, oriented to s > 0.  As
    1 - q^(-E) = -q^(-E) (1 - q^E), an odd multiplicity turned round turns
    the sign of the form, and q^(-E), 1 at the point, is left out: the
    residue at a simple pole is the same.  The others are evaluated in
    integers over the exponent's denominator times the lcm of the point's,
    each variable part once, keyed by the identity of its terms tuple, which
    f keeps alive and the three binomials of a mu pair share.  An integer
    value, which its denominator divides, is keyed by that integer, with no
    gcd, and laid out as the shared ``as_exponent`` instance; any other value
    is keyed by its exponent, reduced by ``_reduced``.  Equal values merge.
    Variables not in ``steps`` stay free.
    """
    den = lcm(*(point.denominator for _, point in steps))
    nums = {name: point.numerator * (den // point.denominator) for name, point in steps}
    position = {name: k for k, (name, _) in enumerate(steps)}
    levels: list[dict] = [{} for _ in steps]  # oriented restriction -> multiplicity
    flips = [0] * len(steps)  # the multiplicity each step turned round
    parts: dict[int, tuple[int, tuple]] = {}  # id(terms) -> the part at the point
    regular: dict = {}  # an integer value, or the reduced exponent of any other -> multiplicity
    for e, m in f.binomials:
        terms = e._terms
        part = parts.get(id(terms))
        if part is None:
            part = parts[id(terms)] = _at_point(terms, nums, den)
        value, rest = part
        num = e._num * den + value
        whole = e._den * den
        if not (num or rest):
            k, name, c = max((position[n], n, c) for n, c in terms)
            flips[k] += m * (c < 0)
            restriction = _reduced(-abs(c) * nums[name], whole, ((name, abs(c) * den),))
            levels[k][restriction] = levels[k].get(restriction, 0) + m
            continue
        key = _reduced(num, whole, rest) if rest or num % whole else num // whole
        regular[key] = regular.get(key, 0) + m
    value, rest = _at_point(f.monomial._terms, nums, den)
    monomial = _reduced(f.monomial._num * den + value, f.monomial._den * den, rest)
    forms = [FactoredForm(UNITS[flip % 2], 0, _ZERO_EXPONENT, sorted_binomials(level))
             for flip, level in zip(flips, levels)]
    return monomial, forms, [(as_exponent(key) if type(key) is int else key, m)
                             for key, m in regular.items()]


# ---------------------------------------------------------------------------
# Sums of factored forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SumForm:
    """A finite sum of factored forms; the empty sum is zero.

    Build one with the constructor from a tuple of nonzero terms; ``as_sum``
    wraps a single form.  ``residue`` returns one: a simple pole gives a single
    term, the lead form of the Laurent expansion, and only a pole of order two
    or more can give several.  The degree computation never builds one.
    """

    terms: tuple[FactoredForm, ...] = ()

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def eval_numeric(self, q: float, assignment: Mapping[str, complex] | None = None) -> complex:
        """The sum of the terms' values; like ``FactoredForm.eval_numeric``
        it requires a finite q > 1, also for the empty sum."""
        if problem := q_problem(q):
            raise ValueError(problem)
        return sum((t.eval_numeric(q, assignment) for t in self.terms), 0j)

    def render(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(t.render() for t in self.terms)

    def __str__(self) -> str:
        return self.render()


def as_sum(f: Union[FactoredForm, SumForm]) -> SumForm:
    return f if isinstance(f, SumForm) else SumForm(() if f.is_zero else (f,))


# ---------------------------------------------------------------------------
# Residues
# ---------------------------------------------------------------------------

def _collect(terms: Iterable[FactoredForm]) -> SumForm:
    """The sum of the terms with like terms merged and zeros dropped."""
    acc: dict[tuple, Fraction] = {}
    for t in terms:
        key = (t.log_grade, t.monomial, t.binomials)
        acc[key] = acc.get(key, 0) + t.constant
    return SumForm(tuple(FactoredForm(c, *key) for key, c in acc.items() if c))


def _unit_power(a: list[FactoredForm], m: int, n: int) -> list[SumForm]:
    """Coefficients b_0..b_n of (1 + a_1 w + a_2 w^2 + ...)^m for any integer m
    (a[0] is not read), by the power rule k b_k = sum_(j=1..k) ((m+1) j - k)
    a_j b_(k-j) (Knuth, TAOCP vol. 2, 4.7)."""
    b = [SumForm((_ONE_FORM,))]
    for k in range(1, n + 1):
        b.append(_collect(a[j].scale(Fraction((m + 1) * j - k, k)) * t
                          for j in range(1, k + 1) for t in b[k - j].terms))
    return b


def _form_series(f: FactoredForm, name: str, center: ExponentValue) -> SumForm:
    """The w^(-1) Laurent coefficient of f in w = name - center.

    The center is rational or affine in the other variables.  With
    u = w log q, f is a lead form times w^p times one unit series
    (1 + a_1 w + a_2 w^2 + ...)^m per factor that depends on name, where p is
    the total multiplicity of the binomials that vanish at the center:

        q^(e w)            lead 1              a_j = (e u)^j / j!
        1 - q^(s w)        lead -s log q w     a_j = (s u)^j / (j+1)!
        1 - q^(c + s w)    lead 1 - q^c        a_j = -q^c (s u)^j / (j! (1 - q^c))

    At a rational centre only an exponent in name alone can vanish, when
    num * den_at + k * num_at is zero, a test in integers with no substitute;
    a lead form with no regular factor is canonical as laid out.
    """
    at = as_exponent(center)
    rational = not at._terms
    # the lead constant over integers: f's times each vanishing factor's (-s)^m
    top, bottom, log_grade, p = f.constant.numerator, f.constant.denominator, f.log_grade, 0
    regular, units = [], []  # units: (m, slope (k, den), j! offset, exponent c of a regular factor)
    for exponent, m in f.binomials:
        k = _slope(exponent, name)
        vanishes = (rational and k and len(exponent._terms) == 1
                    and not exponent._num * at._den + k * at._num)
        if not vanishes:
            c = exponent.substitute(name, at)
            vanishes = c.is_zero  # only at an affine centre
        if vanishes:
            x, y = (-k, exponent._den) if m > 0 else (exponent._den, -k)
            top, bottom = top * x ** abs(m), bottom * y ** abs(m)
            log_grade += m
            p += m
            units.append((m, (k, exponent._den), 1, None))
        else:
            regular.append((c, m))
            if k:
                units.append((m, (k, exponent._den), 0, c))
    n = -1 - p
    if n < 0:
        return SumForm()
    lead = (FactoredForm.build if regular else FactoredForm)(
        Fraction(top, bottom), log_grade, f.monomial.substitute(name, at), tuple(regular))
    if n == 0:  # only the constant 1 of each unit series enters
        return SumForm((lead,))
    k = _slope(f.monomial, name)
    if k:  # first: the order of the sums' terms follows units
        units.insert(0, (1, (k, f.monomial._den), 0, None))
    product = [SumForm((_ONE_FORM,))] + [SumForm()] * n
    for m, slope, offset, c in units:
        s = Fraction(*slope)
        g = _ONE_FORM if c is None else FactoredForm.build(-1, 0, c, ((c, -1),))
        a = [FactoredForm(g.constant * s ** j / math.factorial(j + offset), j,
                          g.monomial, g.binomials) for j in range(n + 1)]
        power = _unit_power(a, m, n)
        product = [_collect(x * y for i in range(k + 1) for x in product[i].terms
                            for y in power[k - i].terms) for k in range(n + 1)]
    return SumForm(tuple(lead * t for t in product[n].terms))


def residue(f: Union[FactoredForm, SumForm], name: str, point: ExponentValue) -> SumForm:
    """Residue of f dz at name = point, rational or affine in the other
    variables: the w^(-1) coefficients of ``_form_series`` of f's terms.  A
    simple pole gives one factored form per term; regular points give zero.
    Only a ``SumForm``'s sums are joined into a new one.
    """
    if isinstance(f, FactoredForm):
        return SumForm() if f.is_zero else _form_series(f, name, point)
    return SumForm(tuple(t for term in f.terms for t in _form_series(term, name, point).terms))
