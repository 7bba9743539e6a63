"""Named verification outcomes and the symbolic identity suites run by the
CLI and the acceptance tests.  Every symbolic check is exact: pass means the
canonical forms of the two sides are equal, so their quotient is literally 1;
the quotient is built only to show a failure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from . import coords, model, mu, resdata
from .qform import AffineExponent


@dataclass(frozen=True)
class CheckReport:
    """One verification outcome.

    ``detail`` is "1" for a symbolic pass, the canonical quotient for a
    symbolic failure, or the max relative error for a numeric check.
    """

    name: str
    status: str  # pass | fail
    detail: str
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def run_check(name: str, failure: Callable[..., str | None], *args) -> CheckReport:
    """Time ``failure(*args)``, which returns None on a pass or the failure's detail."""
    start = time.perf_counter()
    detail = failure(*args)
    elapsed = int(1000 * (time.perf_counter() - start))
    if detail is None:
        return CheckReport(name, "pass", "1", elapsed)
    return CheckReport(name, "fail", detail, elapsed)


# ---------------------------------------------------------------------------
# Parameter grids
# ---------------------------------------------------------------------------

DEFAULT_D_MAX = 6
DEFAULT_M_SET = (1, 2, 3, 6)
DEFAULT_T_SET = (1, 2, 3)
DEFAULT_A_SET = (0, 1, 2)


def theorem_grid(d_max: int = DEFAULT_D_MAX,
                 m_set: Iterable[int] = DEFAULT_M_SET,
                 a_set: Iterable[int] = DEFAULT_A_SET,
                 t_set: Iterable[int] | None = None) -> Iterator[model.SetupParams]:
    """All (m, d, t, a) with d <= d_max, m in m_set, t | m, a in a_set.

    ``t_set`` restricts t further; None keeps every divisor of m.
    """
    t_set = None if t_set is None else set(t_set)
    for d in range(1, d_max + 1):
        for m in m_set:
            for t in range(1, m + 1):
                if m % t or (t_set is not None and t not in t_set):
                    continue
                for a in a_set:
                    yield model.validate(m, d, t, a)


# ---------------------------------------------------------------------------
# Identity suites
# ---------------------------------------------------------------------------

def _pairing_failure(d: int, t: int) -> str | None:
    p = model.validate(t, d, t, 0)
    w = coords.generic_weight(p)
    for l in range(1, d):
        got = coords.pairing_coroot(p, l, w).scale(t)
        want = AffineExponent.variable(coords.z_var(l))
        if l + 1 < d:
            want = want - AffineExponent.variable(
                coords.z_var(l + 1), coeff=Fraction(d - l - 1, d - l))
        if got != want:
            return f"l={l}: {got} != {want}"
    point = coords.discrete_series_point(p).as_fractions()
    want_s = tuple(Fraction(d - 1, 2) - k for k in range(d))
    return None if point == want_s else f"point {point} != {want_s}"


def pairing_reports(d_max: int = 8, t_set: Iterable[int] = (1, 2, 3)) -> list[CheckReport]:
    """Coroot pairing identity and the nested specialization point.

    For every d and l:  t <alpha_l^vee, sum z_j atilde_j> = z_l - ((d-l-1)/(d-l)) z_(l+1),
    and the specialization point maps to s = ((d-1)/2, ..., (-d+1)/2).
    """
    return [run_check(f"pairing d={d} t={t}", _pairing_failure, d, t)
            for d in range(2, d_max + 1) for t in t_set]


def _ratio_failure(d: int, t: int, a: int) -> str | None:
    p = model.validate(t, d, t, a)
    for l in range(2, d + 1):
        telescoped, closed = mu.mu_level_ratio_telescoped(p, l), mu.mu_level_ratio_closed(p, l)
        if telescoped != closed:
            return f"l={l}: {(telescoped / closed).render()}"
    return None


def ratio_reports(d_max: int = DEFAULT_D_MAX,
                  t_set: Iterable[int] = DEFAULT_T_SET,
                  a_set: Iterable[int] = DEFAULT_A_SET) -> list[CheckReport]:
    """Telescoped pair products equal the closed level ratios, canonically."""
    return [run_check(f"ratio d={d} t={t} a={a}", _ratio_failure, d, t, a)
            for d in range(2, d_max + 1) for t in t_set for a in a_set]


def _residue_failure(p: model.SetupParams) -> str | None:
    # the closed form has log grade 0, so equal forms pass the log grade rule too
    got, closed = resdata.res_a1_mu(p), resdata.residue_closed_form(p)
    if got == closed:
        return None
    return f"quotient {(got / closed).render()} log_grade {got.log_grade}"


def residue_reports(d_max: int = DEFAULT_D_MAX,
                    m_set: Iterable[int] = DEFAULT_M_SET,
                    a_set: Iterable[int] = DEFAULT_A_SET,
                    t_set: Iterable[int] | None = None) -> list[CheckReport]:
    """The fully specialized residue datum equals its closed form, log grade 0."""
    return [run_check(f"residue m={p.m} d={p.d} t={p.t} a={p.a}", _residue_failure, p)
            for p in theorem_grid(d_max, m_set, a_set, t_set)]


def theorem_reports(d_max: int = DEFAULT_D_MAX,
                    m_set: Iterable[int] = DEFAULT_M_SET,
                    a_set: Iterable[int] = DEFAULT_A_SET,
                    t_set: Iterable[int] | None = None) -> list[CheckReport]:
    """Assembled degree equals the closed-form degree on the whole grid."""
    from .degree import verify_theorem

    return [verify_theorem(p) for p in theorem_grid(d_max, m_set, a_set, t_set)]
