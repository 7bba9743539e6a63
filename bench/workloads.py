"""The benchmark's workloads: seeded inputs, one timed call per case, and the
checks made on each output after the timed region.

Every check compares against ``oracle`` (computed apart from qdegree) or
against a property the method must have; none compares against a stored
copy of an earlier output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import click

import oracle
import reference
from qdegree import cli, contour, degree, model

M_SET = (1, 2, 3, 6)
A_SET = (0, 1, 2)
TOWER_BLOCKS = ((6, 3, 1), (2, 1, 0))  # (m, t, a)
TOWER_DEPTHS = (8, 10, 12)
DEGREE_Q = (2, 3, 5)
DEGREE_D_MAX = 16
# Degrees above 10^300 are left out of the ``degree`` workload: the program
# cannot turn them into a float (see the FOUND lines in CHANGES.md).
FLOAT_LOG10_LIMIT = 300.0


@dataclass
class Context:
    """State the run loop shares with the operations: the active tracer, if any."""

    tracer: object = None


@dataclass
class Case:
    key: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # a problem with the output, or None


@dataclass
class Workload:
    cases: list[Case]
    warmup: Callable[[], object]
    sample_check: Callable[[], list[str]]  # once per run; returns the problems found
    reference: Callable[[], object] = reference.stdlib_block


def _divisors(m: int) -> list[int]:
    return [t for t in range(1, m + 1) if m % t == 0]


def _relative_gap(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


# -- grid and tower: verify_theorem -----------------------------------------

def _theorem_case(m: int, d: int, t: int, a: int) -> Case:
    def check(report) -> str | None:
        if report.status != "pass" or report.detail != "1":
            return f"{report.name}: {report.status}, quotient {report.detail}"
        return None

    return Case(f"m={m} d={d} t={t} a={a}",
                lambda: degree.verify_theorem(model.validate(m, d, t, a)), check)


def _theorem_workload(params: list[tuple[int, int, int, int]], rng: random.Random) -> Workload:
    rng.shuffle(params)
    by_depth: dict[int, list] = {}
    for p in params:
        by_depth.setdefault(p[1], []).append(p)
    sample = [(rng.choice(by_depth[d]), rng.sample(range(2, 8), 2)) for d in sorted(by_depth)]

    def sample_check() -> list[str]:
        problems = []
        for (m, d, t, a), qs in sample:
            form = degree.assemble_degree(model.validate(m, d, t, a)).factored
            if form.log_grade != 0:
                problems.append(f"m={m} d={d} t={t} a={a}: log grade {form.log_grade}")
                continue
            for q in qs:
                if form.eval_exact(Fraction(q)) != oracle.exact_degree(m, d, t, a, q):
                    problems.append(f"m={m} d={d} t={t} a={a}: assembled degree at q={q} "
                                    "differs from the oracle")
        return problems

    return Workload([_theorem_case(*p) for p in params],
                    lambda: degree.verify_theorem(model.validate(2, 2, 1, 0)), sample_check)


def grid(rng: random.Random, ctx: Context) -> Workload:
    """The default ``verify theorem`` grid: d <= 6, m in M_SET, t | m, a in A_SET."""
    params = [(m, d, t, a) for d in range(1, 7) for m in M_SET
              for t in _divisors(m) for a in A_SET]
    return _theorem_workload(params, rng)


def tower(rng: random.Random, ctx: Context) -> Workload:
    params = [(m, d, t, a) for d in TOWER_DEPTHS for m, t, a in TOWER_BLOCKS]
    return _theorem_workload(params, rng)


# -- contour: decomposition_report on the acceptance set --------------------

def _contour_case(d: int, nodes: int, tol: float, q: float, t: int, a: int) -> Case:
    spec = contour.QuadratureSpec(q=q, nodes=nodes, tolerance=tol)

    def check(report) -> str | None:
        if not report.relative_error <= tol:
            return f"relative error {report.relative_error:.3e} above {tol:.0e}"
        want = d * oracle.residue_scalar(t, d, t, a, q)
        gap = _relative_gap(report.chain_terms[0], want)
        if not gap <= 1e-12:
            return f"level-1 term {report.chain_terms[0]} differs from {want} by {gap:.2e}"
        return None

    return Case(f"d={d} nodes={nodes} q={q} t={t} a={a}",
                lambda: contour.decomposition_report(model.validate(t, d, t, a), spec), check)


def contour_set(rng: random.Random, ctx: Context) -> Workload:
    """The acceptance set: d=2 at 512 nodes, d=3 at 256 nodes per circle."""
    cases = [_contour_case(d, nodes, tol, q, t, a)
             for d, nodes, tol in ((2, 512, 1e-8), (3, 256, 1e-6))
             for q in (2.0, 3.0) for t in (1, 2) for a in (0, 1)]
    rng.shuffle(cases)
    warm_spec = contour.QuadratureSpec(q=2.0, nodes=16)
    # Mostly numpy work, which the host's slow phases slow by another factor
    # than interpreted code: the reference block carries numpy work too.
    return Workload(cases, lambda: contour.decomposition_report(model.validate(1, 2, 1, 0),
                                                                warm_spec),
                    lambda: [], reference.contour_block)


# -- degree: the ``qdegree degree`` command, in process ---------------------

def _run_cli(args: list[str], ctx: Context) -> tuple[int, str]:
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            cli.main.main(args=args, prog_name="qdegree", standalone_mode=False)
        except click.ClickException as exc:
            code = exc.exit_code
        except SystemExit as exc:
            code = exc.code
    text = buf.getvalue()
    if ctx.tracer is not None:
        ctx.tracer.add("cli.json_bytes", len(text.encode()))
    return code, text


def _degree_case(m: int, d: int, t: int, a: int, q: int, ctx: Context) -> Case:
    args = ["degree", "--m", str(m), "--d", str(d), "--t", str(t), "--a", str(a),
            "--q", str(q), "--deg-sigma", "1", "--json"]
    want: list[float] = []

    def check(output) -> str | None:
        code, text = output
        if code != 0:
            return f"exit code {code}"
        try:
            result = json.loads(text)["result"]
        except (ValueError, KeyError) as exc:
            return f"unreadable JSON: {exc}"
        if result["log_grade"] != 0:
            return f"log grade {result['log_grade']}"
        if not want:
            want.append(float(oracle.exact_degree(m, d, t, a, q)))
        numeric = result["numeric"]
        if not isinstance(numeric, (int, float)) or _relative_gap(numeric, want[0]) > 1e-15:
            return f"numeric {numeric!r} differs from the oracle's {want[0]!r}"
        return None

    return Case(f"m={m} d={d} t={t} a={a} q={q}", lambda: _run_cli(args, ctx), check)


def degree_cli(rng: random.Random, ctx: Context) -> Workload:
    """One case per (d, m, q): d <= 16, m in M_SET, q in DEGREE_Q, with (t, a)
    drawn from t | m, a in A_SET among the degrees a float can hold.
    """
    cases = []
    for d in range(1, DEGREE_D_MAX + 1):
        for m in M_SET:
            for q in DEGREE_Q:
                options = [(t, a) for t in _divisors(m) for a in A_SET
                           if oracle.log10_degree(m, d, t, a, q) < FLOAT_LOG10_LIMIT]
                t, a = rng.choice(options)
                cases.append(_degree_case(m, d, t, a, q, ctx))
    rng.shuffle(cases)
    warm = _degree_case(1, 2, 1, 0, 2, ctx)
    return Workload(cases, warm.call, lambda: [])


WORKLOADS = {"grid": grid, "tower": tower, "contour": contour_set, "degree": degree_cli}
