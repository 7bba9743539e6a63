"""Command-line surface: parameter intake, computation and verification
subcommands, canonical text output and a stable JSON schema.

Every command shares one intake: each of ``--m --d --t --a --q --deg-sigma``
falls back to its key (``m d t a q deg_sigma``, no other) in a ``--config``
file of ``key=value`` lines, then ``model.validate`` runs once and each parameter
warning goes to stderr as one ``warning: ...`` line, just before the command's
first output; a run that ends in an error shows its error line alone.  ``--q`` and
``--deg-sigma`` take exact rationals such as ``3/2`` or ``2.5``; ``contour``
then evaluates q as a float, which must be finite and > 1.  One table-driven parser
(``_OPTIONS``, ``_COMMANDS``) words help, at 80 columns, and usage errors as click did.

Exit codes: 0 all passed, 1 a verification failed, 2 usage or parameter
error, 3 a value beyond the float range (``contour``; ``degree`` instead
reports its exact form with ``numeric`` null), 4 an internal error: any
unexpected exception, reported as one ``error: internal: <type>: <message>``
line, 141 a closed stdout (128 + SIGPIPE, as a shell reports it).  Results
go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import difflib
import io
import math
import os
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

from . import __version__, checks, degree, model, mu
from .qform import FactoredForm, q_problem, rational_text


class UsageError(Exception):
    """A usage or parameter error: one ``Error:`` line on stderr, exit 2."""


# Every option by its body's key: flag, type (bool: a flag), help (or else its default) and default
_OPTIONS = {
    "m": ("--m", int, "cuspidal block size", None),
    "d": ("--d", int, "number of blocks", None),
    "t": ("--t", int, "torsion number of the cuspidal", None),
    "a": ("--a", int, "pair conductor", None),
    "q": ("--q", str, "a rational or a float > 1; degree's default is 'symbolic'", None),
    "deg_sigma": ("--deg-sigma", str, "'symbolic' (default) or a positive rational", None),
    "level": ("--level", int, "print the closed level ratio at this level instead of the "
              "full product", None),
    "nodes": ("--nodes", int, "", 256),
    "tol": ("--tol", float, "", 1e-8),
    "d_max": ("--d-max", int, "largest tower depth (default 6; 8 for pairing)", None),
    "m_set": ("--m-set", str, "comma-separated block sizes (default 1,2,3,6)", None),
    "t_set": ("--t-set", str, "comma-separated torsion numbers (default 1,2,3; every t | m "
              "for theorem and residue)", None),
    "a_set": ("--a-set", str, "comma-separated conductors (default 0,1,2)", None),
    "config": ("--config", str, "key=value parameter file", None),
    "as_json": ("--json", bool, "emit JSON", False),
    "version": ("--version", bool, "Show the version and exit.", False),
    "help": ("--help", bool, "Show this message and exit.", False),
}
_TYPE_NAMES = {int: "integer", float: "float", str: "text"}

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
    raise UsageError(f"cannot parse {key.replace('_', '-')} value {text!r}")


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}")
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {line!r} is not key=value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    unknown = [key for key in out if key not in _CONFIG_KEYS]
    if unknown:
        raise UsageError(f"unknown config key(s) {', '.join(map(repr, unknown))}; "
                         f"a config file takes {' '.join(_CONFIG_KEYS)}")
    return out


def _intake(flags: dict, numeric_q: bool) -> model.SetupParams:
    """Pop the parameters in ``flags`` and ``config``: each is its flag, else its
    config key, the first missing one is the usage error, and validate runs once.
    ``numeric_q`` (``contour``) makes q required and, once validated exactly, a
    finite float > 1; a float that is not, and the problems of ``--nodes``,
    ``--tol``, the depth limit and the torus size, join validate's one line."""
    config = _load_config(flags.pop("config"))
    values, texts = {}, {}
    for key in [key for key in flags if key in _CONFIG_KEYS]:
        value = flags.pop(key)
        if key in _RATIONAL_KEYS:
            texts[key] = config.get(key) if value is None else value
            value = _parse_number(texts[key], key)
        elif value is None and key in config:
            try:
                value = int(config[key])
            except ValueError:
                raise UsageError(f"config value {key}={config[key]!r} is invalid")
        if value is None and (key not in _RATIONAL_KEYS or numeric_q):
            raise UsageError(f"missing required parameter --{key.replace('_', '-')}")
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
        raise UsageError("; ".join(problems))
    _held[:] = [f"warning: {warning}" for warning in p.warnings]
    return p


_held: list[str] = []  # parameter warnings not yet shown: an error drops them


def _echo(text: str, err: bool = False) -> None:
    """One line, flushed, to the stream as it is now: callers may redirect it.
    Held warnings go to stderr first."""
    while _held:
        print(_held.pop(0), file=sys.stderr, flush=True)
    print(text, file=sys.stderr if err else sys.stdout, flush=True)


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


def cmd_mu(p, level, as_json):
    """Print the mu-function (or one closed level ratio) canonically."""
    form = mu.mu_on_z(p) if level is None else mu.mu_level_ratio_closed(p, level)
    if as_json:
        _emit_doc(_params_doc(p), _result_doc(form, form.render(), None))
    else:
        _echo(form.render())


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
        raise UsageError(f"cannot parse integer set {text!r}")
    if not values or any(v < minimum for v in values):
        raise UsageError(f"invalid grid set {text!r}")
    return values


def cmd_verify(kind, d_max, m_set, t_set, a_set, as_json):
    """Run a symbolic identity suite over a parameter grid."""
    suite, accepted, default_d_max = _SUITES[kind]
    if d_max is None:
        d_max = default_d_max
    if d_max < 1:
        raise UsageError(f"--d-max must be positive, got {d_max}")
    given = {"m_set": m_set, "t_set": t_set, "a_set": a_set}
    extra = [_OPTIONS[k][0] for k, text in given.items() if text is not None and k not in accepted]
    if extra:
        raise UsageError(f"verify {kind} does not take {', '.join(extra)}")
    kwargs = {key: _parse_int_set(text, minimum=0 if key == "a_set" else 1)
              for key, text in given.items() if text is not None}
    reports = sorted(suite(d_max=d_max, **kwargs), key=lambda r: r.name)
    if not reports:
        raise UsageError(f"verify {kind} has no case on this grid")
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


# Each command: body, options (with --config, read by ``_intake``) and the choices of KIND
_COMMANDS = {
    "contour": (cmd_contour, ("d", "q", "t", "m", "a", "nodes", "tol", "config", "as_json"), ()),
    "degree": (cmd_degree, ("m", "d", "t", "a", "q", "deg_sigma", "config", "as_json"), ()),
    "mu": (cmd_mu, ("d", "t", "a", "level", "config", "as_json"), ()),
    "verify": (cmd_verify, ("d_max", "m_set", "t_set", "a_set", "as_json"), tuple(sorted(_SUITES))),
}


def _no_such(what: str, name: str, known=()) -> UsageError:
    close = ", ".join(map(repr, sorted(difflib.get_close_matches(name, known))))
    hint = f"(Did you mean one of: {close}?)" if "," in close else f"Did you mean {close}?"
    return UsageError(f"No such {what} {name!r}." + f" {hint}" * bool(close))


def _parse(args, keys, interspersed: bool = True) -> tuple[dict, list[str]]:
    """The options of ``keys`` in ``args`` by first occurrence (the last wins; True for a flag)
    and the positionals, which end the options unless ``interspersed``, as ``--`` does."""
    flags, rest, known, args = {}, [], {_OPTIONS[key][0]: key for key in keys}, iter(args)
    for arg in args:
        if arg == "--" or arg[:1] != "-" or arg == "-":
            rest += [arg] if arg != "--" else []
            if arg == "--" or not interspersed:
                break
            continue
        flag, eq, value = arg.partition("=")
        key = known.get(flag)
        if key is None:  # a short option, of which there is none, by its first letter
            raise _no_such("option", flag, known) if arg[1] == "-" else _no_such("option", arg[:2])
        if _OPTIONS[key][1] is bool and eq:
            raise UsageError(f"Option {flag!r} does not take a value.")
        if not eq:
            value = True if _OPTIONS[key][1] is bool else next(args, None)
        if value is None:
            raise UsageError(f"Option {flag!r} requires an argument.")
        flags[key] = value
    return flags, rest + list(args)


def _help(prog: str, name: str | None = None) -> str:
    """The help page of the group, or of command ``name``, at 80 columns."""
    body, keys, kinds = _COMMANDS[name] if name else (main, ("version",), ())
    usage = f"{prog} {name} [OPTIONS]" if name else f"{prog} [OPTIONS] COMMAND [ARGS]..."
    sections = {"Options": [(flag if kind is bool else f"{flag} {_TYPE_NAMES[kind].upper()}",
                             text or f"[default: {default}]")
                            for flag, kind, text, default in map(_OPTIONS.get, (*keys, "help"))]}
    if not name:  # each command's help, cut at a word to fit one line
        sections["Commands"] = [(n, textwrap.shorten(c[0].__doc__, 74 - max(map(len, _COMMANDS)),
                                                     placeholder="..."))
                                for n, c in sorted(_COMMANDS.items())]
    lines = [f"Usage: {usage}" + f" {{{'|'.join(kinds)}}}" * bool(kinds), "",
             textwrap.fill(body.__doc__, 80, initial_indent="  ", subsequent_indent="  ")]
    for title, rows in sections.items():  # terms padded to the widest, text wrapped
        width = max(len(term) for term, _ in rows) + 2
        lines += ["", f"{title}:", *(textwrap.fill(text, 80, initial_indent=f"  {term:<{width}}",
                                                   subsequent_indent=" " * (width + 2))
                                     for term, text in rows)]
    return "\n".join(lines)


# main.main, the benchmark's interface: outside standalone mode, usage and parameter errors raise
def main(args=None, prog_name: str | None = None, standalone_mode: bool = True) -> None:
    """Exact formal-degree engine for discrete series built from a cuspidal block."""
    if prog_name is None:  # as Python was started: python -m <module>, or a script
        package, script = sys.modules["__main__"].__package__, os.path.basename(sys.argv[0])
        prog_name = f"python -m {package}.{script[:-3]}" if package else script
    _held.clear()
    try:
        _dispatch(sys.argv[1:] if args is None else list(args), prog_name)
    except (UsageError, model.InvalidParamsError, model.OutOfRangeError) as exc:
        _held.clear()
        if not standalone_mode:
            raise
        _echo(f"Error: {exc}", err=True)
        sys.exit(2)
    except OverflowError as exc:
        _held.clear()
        _echo(f"error: value beyond float range: {exc}", err=True)
        sys.exit(3)
    except BrokenPipeError:
        sys.stdout = sys.stderr = io.StringIO()  # flushing at exit must not fail again
        sys.exit(141)
    except Exception as exc:
        _held.clear()
        _echo(f"error: internal: {type(exc).__name__}: {exc}", err=True)
        sys.exit(4)


def _dispatch(args: list[str], prog: str) -> None:
    """Parse the group's options, then the command's, and run the command."""
    if not args:  # a bare qdegree: the help page on stderr
        _echo(_help(prog), err=True)
        sys.exit(2)
    flags, rest = _parse(args, ("version", "help"), interspersed=False)
    if flags:  # the first eager option given wins
        _echo(f"{prog}, version {__version__}" if next(iter(flags)) == "version" else _help(prog))
        return
    if not rest or rest[0] not in _COMMANDS:
        raise _no_such("command", rest[0], _COMMANDS) if rest else UsageError("Missing command.")
    name, *rest = rest
    body, keys, kinds = _COMMANDS[name]
    texts, rest = _parse(rest, (*keys, "help"))
    if "help" in texts:  # eager: before any value is read
        _echo(_help(prog, name))
        return
    flags = {key: _OPTIONS[key][3] for key in keys}
    for key, text in texts.items():
        flag, kind = _OPTIONS[key][:2]
        try:
            flags[key] = kind(text)
        except ValueError:
            raise UsageError(f"Invalid value for {flag!r}: {text!r} is not a valid "
                             f"{_TYPE_NAMES[kind]}.") from None
    kind = rest.pop(0) if kinds and rest else None
    if kinds and kind not in kinds:
        raise UsageError(f"Missing argument 'KIND'. Choose from: {', '.join(kinds)}"
                         if kind is None else f"Invalid value for 'KIND': {kind!r} is not one "
                         f"of {', '.join(map(repr, kinds))}.")
    if rest:
        raise UsageError(f"Got unexpected extra argument{'s' * (len(rest) > 1)} ({' '.join(rest)})")
    body(_intake(flags, name == "contour") if "config" in keys else kind, **flags)


main.main = main

if __name__ == "__main__":
    main()
