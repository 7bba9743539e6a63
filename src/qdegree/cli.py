"""Command-line surface: parameter intake, computation and verification
subcommands, canonical text output and a stable JSON schema.

Every command shares one intake: each of ``--m --d --t --a --q --deg-sigma``
falls back to its key (``m d t a q deg_sigma``, no other) in a ``--config``
file of ``key=value`` lines, then ``model.validate`` runs once and each parameter
warning goes to stderr as one ``warning: ...`` line.  ``--q`` and
``--deg-sigma`` take exact rationals such as ``3/2`` or ``2.5``; ``contour``
then evaluates q as a float, which must be finite and > 1.

Exit codes: 0 all passed, 1 a verification failed, 2 usage or parameter
error, 3 a value beyond the float range (``contour``; ``degree`` instead
reports its exact form with ``numeric`` null), 4 an internal error: any
unexpected exception, reported as one ``error: internal: <type>: <message>``
line, 141 a closed stdout (128 + SIGPIPE, as a shell reports it).  Results
go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

import click
from click.utils import PacifyFlushWrapper

from . import __version__, checks, degree, model, mu
from .qform import FactoredForm, q_problem, rational_text


# Every shared option, defined once; a command attaches those it reads.
_OPTIONS = {
    "m": click.option("--m", type=int, help="cuspidal block size"),
    "d": click.option("--d", type=int, help="number of blocks"),
    "t": click.option("--t", type=int, help="torsion number of the cuspidal"),
    "a": click.option("--a", type=int, help="pair conductor"),
    "q": click.option("--q", help="a rational or a float > 1; degree's default is 'symbolic'"),
    "deg_sigma": click.option("--deg-sigma", help="'symbolic' (default) or a positive rational"),
    "config_path": click.option("--config", "config_path", help="key=value parameter file"),
    "as_json": click.option("--json", "as_json", is_flag=True, help="emit JSON"),
}

# exact numbers, None when symbolic; every other key is a required integer
_RATIONAL_KEYS = ("q", "deg_sigma")
_CONFIG_KEYS = ("m", "d", "t", "a", *_RATIONAL_KEYS)  # a command ignores those it does not read


def _parse_number(text: str | None, key: str):
    """None for absent or 'symbolic', else the exact rational (3/2, 2.5, 1e400).
    q also reads inf and nan, as floats, so that validate names them."""
    if text is None or text == "symbolic":
        return None
    for parse in (Fraction, float) if key == "q" else (Fraction,):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise click.UsageError(f"cannot parse {key.replace('_', '-')} value {text!r}")


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
    unknown = [key for key in out if key not in _CONFIG_KEYS]
    if unknown:
        raise click.UsageError(f"unknown config key(s) {', '.join(map(repr, unknown))}; "
                               f"a config file takes {' '.join(_CONFIG_KEYS)}")
    return out


def _intake(keys: tuple[str, ...], flags: dict, numeric_q: bool) -> model.SetupParams:
    """Pop ``keys`` and ``config_path`` from ``flags``: each key is its flag, else its
    config key, the first missing one is the usage error, and validate runs once.
    ``numeric_q`` (``contour``) makes q required and, once validated exactly, a
    finite float > 1; a float that is not, and the problems of ``--nodes``,
    ``--tol``, the depth limit and the torus size, join validate's one line."""
    config = _load_config(flags.pop("config_path"))
    values, texts = {}, {}
    for key in keys:
        value = flags.pop(key)
        if key in _RATIONAL_KEYS:
            texts[key] = config.get(key) if value is None else value
            value = _parse_number(texts[key], key)
        elif value is None and key in config:
            try:
                value = int(config[key])
            except ValueError:
                raise click.UsageError(f"config value {key}={config[key]!r} is invalid")
        if value is None and (key not in _RATIONAL_KEYS or numeric_q):
            raise click.UsageError(f"missing required parameter --{key.replace('_', '-')}")
        values[key] = value
    problems = []
    if numeric_q and not q_problem(values["q"]):  # else validate names the exact q
        try:
            q = float(values["q"])
        except OverflowError:
            q = math.inf
        if 1 < q < math.inf:
            values["q"] = q
        else:  # named as given: its float is another number; validate keeps the exact q
            problems.append(f"contour evaluates q as a float: q={texts['q']} gives "
                            f"{q!r}, not a finite float > 1")
    try:  # mu reads no --m: its form is the one at m = t
        p = model.validate(values.get("m", values["t"]), values["d"], values["t"], values["a"],
                           q=values.get("q"), deg_sigma=values.get("deg_sigma"))
    except model.InvalidParamsError as exc:
        problems.insert(0, str(exc))
    if numeric_q:  # contour's own parameters, before mu is built
        from . import contour
        problems += contour.run_problems(values["d"], flags["nodes"], flags["tol"])
    if problems:  # one line naming every bad parameter
        raise click.UsageError("; ".join(problems))
    for warning in p.warnings:
        _echo(f"warning: {warning}", err=True)
    return p


def _echo(text: str, err: bool = False) -> None:
    """click.echo to a stream looked up afresh on every call: click's own lookup
    caches a wrapper that keeps a redirected stdout (tests, embedding), and so
    its whole output, alive for the life of the process."""
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
    q = rational_text(p.q) if isinstance(p.q, Fraction) else p.q
    return {"m": p.m, "d": p.d, "t": p.t, "a": p.a, "q": "symbolic" if q is None else q}


def _result_doc(factored: FactoredForm, rendered: str, numeric) -> dict:
    return {"factored": rendered, "log_grade": factored.log_grade,
            "numeric": float(numeric) if numeric is not None else None}


def _emit_doc(params: dict, result, reports=()) -> None:
    """The one JSON document of every command: params, result and checks."""
    doc = {"params": params, "result": result,
           "checks": [{"name": r.name, "status": r.status, "detail": r.detail}
                      for r in reports]}
    _echo(emit_json(doc))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

class _OneLineErrors(click.Group):
    """Usage errors, rejected parameters and out-of-range levels print as one
    ``Error:`` line without usage text: the group's own options fail in
    ``make_context``, a subcommand in ``invoke``. An error with its own ``show``
    (bare ``qdegree``) keeps it. A value beyond the float range exits 3, a closed
    stdout 141, and any other exception is one ``error: internal:`` line, exit 4."""

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
        except (model.InvalidParamsError, model.OutOfRangeError) as exc:
            raise click.UsageError(str(exc)) from None
        except OverflowError as exc:
            _echo(f"error: value beyond float range: {exc}", err=True)
            sys.exit(3)
        except BrokenPipeError:
            # as click's own EPIPE handling: flushing at exit must not fail again
            sys.stdout = PacifyFlushWrapper(sys.stdout)
            sys.stderr = PacifyFlushWrapper(sys.stderr)
            sys.exit(141)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:
            _echo(f"error: internal: {type(exc).__name__}: {exc}", err=True)
            sys.exit(4)


@click.group(cls=_OneLineErrors)
@click.version_option(version=__version__)
def main():
    """Exact formal-degree engine for discrete series built from a cuspidal block."""


def _setup_command(name: str, *keys: str, options=(), numeric_q: bool = False):
    """Register subcommand ``name`` with the options of ``keys``, its own
    ``options``, --config and --json; its body takes ``_intake``'s ``p``."""
    def register(body):
        def run(**flags):
            p = _intake(keys, flags, numeric_q)
            return body(p, **flags)

        for attach in reversed([*(_OPTIONS[key] for key in keys), *options,
                                _OPTIONS["config_path"], _OPTIONS["as_json"]]):
            run = attach(run)
        return main.command(name, help=body.__doc__)(run)
    return register


@_setup_command("degree", "m", "d", "t", "a", "q", "deg_sigma")
def cmd_degree(p, as_json):
    """Print the formal degree in canonical factored form."""
    result = degree.closed_form_degree(p)
    if p.q is not None and result.deg_sigma_power == 0 and result.numeric is None:
        _echo(f"note: the degree at q={rational_text(p.q)} is beyond the float range; "
              "numeric value omitted", err=True)
    if as_json:
        _emit_doc(_params_doc(p), _result_doc(result.factored, result.render(), result.numeric))
    else:
        _echo(result.render())
        if result.numeric is not None:
            _echo(f"numeric: {format(result.numeric, '.17g')}")


@_setup_command("mu", "d", "t", "a", options=[click.option(
    "--level", type=int, default=None,
    help="print the closed level ratio at this level instead of the full product")])
def cmd_mu(p, level, as_json):
    """Print the mu-function (or one closed level ratio) canonically."""
    form = mu.mu_on_z(p) if level is None else mu.mu_level_ratio_closed(p, level)
    if as_json:
        _emit_doc(_params_doc(p), _result_doc(form, form.render(), None))
    else:
        _echo(form.render())


@_setup_command("contour", "d", "q", "t", "m", "a", numeric_q=True, options=[
    click.option("--nodes", type=int, default=256, show_default=True),
    click.option("--tol", type=float, default=1e-8, show_default=True)])
def cmd_contour(p, nodes, tol, as_json):
    """Check the contour integral against the residue-term sum numerically."""
    from . import contour  # numpy loads only for the command that uses it

    report = contour.decomposition_report(p, contour.QuadratureSpec(p.q, nodes, tol))
    status = report.status
    if as_json:
        check = checks.CheckReport("residue decomposition", status,
                                   f"{report.relative_error:.3e}", 0)
        _emit_doc(_params_doc(p),
                  {"lhs": [report.lhs.real, report.lhs.imag],
                   "rhs": [report.rhs.real, report.rhs.imag],
                   "chain_terms": [[z.real, z.imag] for z in report.chain_terms],
                   "offchain_term": [report.offchain_term.real, report.offchain_term.imag],
                   "relative_error": report.relative_error},
                  [check])
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


# Each suite, the grid options it reads (any other is a usage error) and its
# default depth: the pairing layer is cheap and its guarantee extends further
_SUITES = {
    "pairing": (checks.pairing_reports, ("t_set",), 8),
    "ratio": (checks.ratio_reports, ("t_set", "a_set"), 6),
    "residue": (checks.residue_reports, ("m_set", "t_set", "a_set"), 6),
    "theorem": (checks.theorem_reports, ("m_set", "t_set", "a_set"), 6),
}


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
@_OPTIONS["as_json"]
def cmd_verify(kind, d_max, m_set, t_set, a_set, as_json):
    """Run a symbolic identity suite over a parameter grid."""
    suite, accepted, default_d_max = _SUITES[kind]
    if d_max is None:
        d_max = default_d_max
    if d_max < 1:
        raise click.UsageError(f"--d-max must be positive, got {d_max}")
    given = {"m_set": m_set, "t_set": t_set, "a_set": a_set}
    extra = [key for key, text in given.items() if text is not None and key not in accepted]
    if extra:
        flags = ", ".join("--" + key.replace("_", "-") for key in extra)
        raise click.UsageError(f"verify {kind} does not take {flags}")
    kwargs = {key: _parse_int_set(text, minimum=0 if key == "a_set" else 1)
              for key, text in given.items() if text is not None}
    reports = sorted(suite(d_max=d_max, **kwargs), key=lambda r: r.name)
    if not reports:
        raise click.UsageError(f"verify {kind} has no case on this grid")
    if as_json:
        _emit_doc({"kind": kind, "d_max": d_max}, None, reports)
    else:
        for r in reports:
            line = f"[{r.status.upper()}] {r.name} ({r.elapsed_ms} ms)"
            if r.status != "pass":
                line += f"  detail: {r.detail}"
            _echo(line)
        n_pass = sum(r.passed for r in reports)
        _echo(f"{n_pass}/{len(reports)} checks passed")
    if not all(r.passed for r in reports):
        sys.exit(1)


if __name__ == "__main__":
    main()
