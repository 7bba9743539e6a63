"""Command-line surface: parameter intake, computation and verification
subcommands, canonical text output and a stable JSON schema.

Exit codes: 0 all passed, 1 a verification failed, 2 usage or parameter
error, 3 a value beyond the float range (``contour``; ``degree`` instead
reports its exact form with ``numeric`` null), 4 an internal error: any
unexpected exception, reported as one ``error: internal: <type>: <message>``
line.  Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import click

from . import checks, contour, degree, model, mu
from .qform import FactoredForm


# ---------------------------------------------------------------------------
# Parsing and output helpers
# ---------------------------------------------------------------------------

def _parse_q(text: str | None):
    if text is None or text == "symbolic":
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        try:
            return float(text)
        except ValueError:
            raise click.UsageError(f"cannot parse q value {text!r}")


def _parse_deg_sigma(text: str | None):
    if text is None or text == "symbolic":
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"cannot parse deg-sigma value {text!r}")


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise click.UsageError(f"cannot read config file: {exc}")
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise click.UsageError(f"config line {line!r} is not key=value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _require(config: dict[str, str], flag_value, key: str, cast=int):
    """Flag value, falling back to the config file; missing is a usage error."""
    if flag_value is not None:
        return flag_value
    if key in config:
        try:
            return cast(config[key])
        except ValueError:
            raise click.UsageError(f"config value {key}={config[key]!r} is invalid")
    raise click.UsageError(f"missing required parameter --{key.replace('_', '-')}")


def _validated(m, d, t, a, q=None, deg_sigma=None) -> model.SetupParams:
    try:
        return model.validate(m, d, t, a, q=q, deg_sigma=deg_sigma)
    except model.InvalidParamsError as exc:
        raise click.UsageError(str(exc))


def _echo(text: str, err: bool = False) -> None:
    """click.echo to a stream looked up afresh on every call.

    click.echo's own lookup caches a wrapper per stream, and the cached
    wrapper keeps the stream alive.  Run in process with a redirected stdout
    (tests, embedding), every call would then keep its whole output for the
    life of the process.
    """
    click.echo(text, file=click.get_text_stream("stderr" if err else "stdout"))


def emit_json(obj) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, dict):
        body = ",".join(f"{emit_json(str(k))}:{emit_json(v)}" for k, v in obj.items())
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(emit_json(v) for v in obj) + "]"
    raise TypeError(f"cannot emit {type(obj).__name__}")


def _params_doc(p: model.SetupParams) -> dict:
    q = p.q
    if isinstance(q, Fraction):
        q = str(q)
    return {"m": p.m, "d": p.d, "t": p.t, "a": p.a,
            "q": q if q is not None else "symbolic"}


def _result_doc(factored: FactoredForm, rendered: str, numeric) -> dict:
    return {"factored": rendered, "log_grade": factored.log_grade,
            "numeric": float(numeric) if numeric is not None else None}


def _checks_doc(reports) -> list[dict]:
    return [{"name": r.name, "status": r.status, "detail": r.detail} for r in reports]


def _print_reports(reports) -> None:
    for r in reports:
        line = f"[{r.status.upper()}] {r.name} ({r.elapsed_ms} ms)"
        if r.status != "pass":
            line += f"  detail: {r.detail}"
        _echo(line)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

class _OneLineErrors(click.Group):
    """Usage errors print as one ``Error:`` line, without their context's usage
    text: the group's own options fail in ``make_context``, a subcommand in
    ``invoke``. An error with its own ``show`` (bare ``qdegree``) keeps it.
    Any other exception (a closed stdout aside) is one ``error: internal:``
    line and exit 4."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            if type(exc).show is click.UsageError.show:
                exc.ctx = None
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            if type(exc).show is click.UsageError.show:
                exc.ctx = None
            raise
        except (click.ClickException, click.exceptions.Exit, click.Abort, BrokenPipeError):
            raise
        except Exception as exc:
            _echo(f"error: internal: {type(exc).__name__}: {exc}", err=True)
            sys.exit(4)


@click.group(cls=_OneLineErrors)
@click.version_option()
def main():
    """Exact formal-degree engine for discrete series built from a cuspidal block."""


@main.command("degree")
@click.option("--m", type=int, default=None, help="cuspidal block size")
@click.option("--d", type=int, default=None, help="number of blocks")
@click.option("--t", type=int, default=None, help="torsion number of the cuspidal")
@click.option("--a", type=int, default=None, help="pair conductor")
@click.option("--q", "q_text", default=None, help="'symbolic' (default), a rational, or a float > 1")
@click.option("--deg-sigma", "deg_sigma_text", default=None,
              help="'symbolic' (default) or a positive rational")
@click.option("--config", "config_path", default=None, help="key=value parameter file")
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def cmd_degree(m, d, t, a, q_text, deg_sigma_text, config_path, as_json):
    """Print the formal degree in canonical factored form."""
    config = _load_config(config_path)
    p = _validated(_require(config, m, "m"), _require(config, d, "d"),
                   _require(config, t, "t"), _require(config, a, "a"),
                   q=_parse_q(q_text if q_text is not None else config.get("q")),
                   deg_sigma=_parse_deg_sigma(
                       deg_sigma_text if deg_sigma_text is not None else config.get("deg_sigma")))
    result = degree.closed_form_degree(p)
    if p.q is not None and result.deg_sigma_power == 0 and result.numeric is None:
        _echo(f"note: the degree at q={p.q} is beyond the float range; "
              "numeric value omitted", err=True)
    if as_json:
        doc = {"params": _params_doc(p),
               "result": _result_doc(result.factored, result.render(), result.numeric),
               "checks": []}
        _echo(emit_json(doc))
    else:
        _echo(result.render())
        if result.numeric is not None:
            _echo(f"numeric: {format(result.numeric, '.17g')}")


@main.command("mu")
@click.option("--d", type=int, default=None)
@click.option("--t", type=int, default=None)
@click.option("--a", type=int, default=None)
@click.option("--level", type=int, default=None,
              help="print the closed level ratio at this level instead of the full product")
@click.option("--config", "config_path", default=None)
@click.option("--json", "as_json", is_flag=True)
def cmd_mu(d, t, a, level, config_path, as_json):
    """Print the mu-function (or one closed level ratio) canonically."""
    config = _load_config(config_path)
    d = _require(config, d, "d")
    t = _require(config, t, "t")
    a = _require(config, a, "a")
    p = _validated(t, d, t, a)
    try:
        form = mu.mu_on_z(p) if level is None else mu.mu_level_ratio_closed(p, level)
    except model.OutOfRangeError as exc:
        raise click.UsageError(str(exc))
    if as_json:
        doc = {"params": _params_doc(p),
               "result": _result_doc(form, form.render(), None),
               "checks": []}
        _echo(emit_json(doc))
    else:
        _echo(form.render())


@main.command("contour")
@click.option("--d", type=int, default=None)
@click.option("--q", type=float, default=None)
@click.option("--t", type=int, default=None)
@click.option("--m", type=int, default=None)
@click.option("--a", type=int, default=None)
@click.option("--nodes", type=int, default=256, show_default=True)
@click.option("--tol", type=float, default=1e-8, show_default=True)
@click.option("--config", "config_path", default=None)
@click.option("--json", "as_json", is_flag=True)
def cmd_contour(d, q, t, m, a, nodes, tol, config_path, as_json):
    """Check the contour integral against the residue-term sum numerically."""
    config = _load_config(config_path)
    d = _require(config, d, "d")
    q = _require(config, q, "q", cast=float)
    t = _require(config, t, "t")
    m = _require(config, m, "m")
    a = _require(config, a, "a")
    p = _validated(m, d, t, a, q=q)
    try:
        spec = contour.QuadratureSpec(q=q, nodes=nodes, tolerance=tol)
        report = contour.decomposition_report(p, spec)
    except OverflowError as exc:
        _echo(f"error: value beyond float range: {exc}", err=True)
        sys.exit(3)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    status = "pass" if report.relative_error <= tol else "fail"
    if as_json:
        doc = {"params": _params_doc(p),
               "result": {"lhs": [report.lhs.real, report.lhs.imag],
                          "rhs": [report.rhs.real, report.rhs.imag],
                          "chain_terms": [[z.real, z.imag] for z in report.chain_terms],
                          "offchain_term": [report.offchain_term.real,
                                            report.offchain_term.imag],
                          "relative_error": report.relative_error},
               "checks": _checks_doc(
                   [checks.CheckReport("residue decomposition", status,
                                       f"{report.relative_error:.3e}", 0)])}
        _echo(emit_json(doc))
    else:
        _echo(f"lhs  = {report.lhs:.15g}")
        _echo(f"rhs  = {report.rhs:.15g}")
        for l, term in enumerate(report.chain_terms, start=1):
            _echo(f"  level {l} term = {term:.15g}")
        if p.d == 3:
            _echo(f"  off-chain term = {report.offchain_term:.15g}")
        _echo(f"relative error = {report.relative_error:.3e}  [{status}]")
    if status != "pass":
        sys.exit(1)


# Each suite and the grid options it reads; giving it any other is a usage error.
_SUITES = {
    "pairing": (checks.pairing_reports, ("t_set",)),
    "ratio": (checks.ratio_reports, ("t_set", "a_set")),
    "residue": (checks.residue_reports, ("m_set", "t_set", "a_set")),
    "theorem": (checks.theorem_reports, ("m_set", "t_set", "a_set")),
}

# the pairing layer is cheap and its guarantee extends further up the tower
_SUITE_DEFAULT_D_MAX = {"pairing": 8}


def _parse_int_set(text: str, minimum: int = 1) -> tuple[int, ...]:
    try:
        values = tuple(sorted({int(x) for x in text.split(",") if x.strip()}))
    except ValueError:
        raise click.UsageError(f"cannot parse integer set {text!r}")
    if not values or any(v < minimum for v in values):
        raise click.UsageError(f"invalid grid set {text!r}")
    return values


@main.command("verify")
@click.argument("kind", type=click.Choice(sorted(_SUITES)))
@click.option("--d-max", type=int, default=None,
              help="largest tower depth (default 6; 8 for pairing)")
@click.option("--m-set", default=None, help="comma-separated block sizes (default 1,2,3,6)")
@click.option("--t-set", default=None,
              help="comma-separated torsion numbers (default 1,2,3; every t | m for "
                   "theorem and residue)")
@click.option("--a-set", default=None, help="comma-separated conductors (default 0,1,2)")
@click.option("--json", "as_json", is_flag=True)
def cmd_verify(kind, d_max, m_set, t_set, a_set, as_json):
    """Run a symbolic identity suite over a parameter grid."""
    if d_max is None:
        d_max = _SUITE_DEFAULT_D_MAX.get(kind, 6)
    if d_max < 1:
        raise click.UsageError(f"--d-max must be positive, got {d_max}")
    suite, accepted = _SUITES[kind]
    given = {"m_set": m_set, "t_set": t_set, "a_set": a_set}
    extra = [key for key, text in given.items() if text is not None and key not in accepted]
    if extra:
        flags = ", ".join("--" + key.replace("_", "-") for key in extra)
        raise click.UsageError(f"verify {kind} does not take {flags}")
    kwargs = {key: _parse_int_set(text, minimum=0 if key == "a_set" else 1)
              for key, text in given.items() if text is not None}
    reports = suite(d_max=d_max, **kwargs)
    reports = sorted(reports, key=lambda r: r.name)
    if as_json:
        doc = {"params": {"kind": kind, "d_max": d_max},
               "result": None,
               "checks": _checks_doc(reports)}
        _echo(emit_json(doc))
    else:
        _print_reports(reports)
        n_pass = sum(r.passed for r in reports)
        _echo(f"{n_pass}/{len(reports)} checks passed")
    if not all(r.passed for r in reports):
        sys.exit(1)


if __name__ == "__main__":
    main()
