"""Golden pin of the whole command-line surface: one sha256 digest over the
exit code, stdout and stderr of every case below.

The digest was taken before the commands shared one parameter intake, so a
refactor of the intake must leave every listed output byte-identical.
Verification times ``(N ms)`` and the temporary directory are masked.  For
``contour`` only the exit code, stderr and the JSON keys are pinned, because
its floats depend on the platform; for the same reason the values in its
exit-3 line are masked.  Behaviour added since the digest was taken is
tested by literal cases after it.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qdegree
from conftest import invoke
from qdegree import __version__

DEGREE = ["degree", "--m", "1", "--d", "2", "--t", "1", "--a", "0"]

# {cfg} is a config file of the whole parameter set m=2 d=3 t=2 a=1 q=3
# deg_sigma=1/2, {base} one of m=1 d=2 t=1 a=0 alone, {bad} has m=x,
# {noeq} has a line without "=", {binary} is not UTF-8 and {missing} does not exist
CASES = (
    # mu, text and JSON, with and without --level
    ["mu", "--d", "2", "--t", "1", "--a", "0"],
    ["mu", "--d", "3", "--t", "2", "--a", "1"],
    ["mu", "--d", "3", "--t", "2", "--a", "1", "--json"],
    ["mu", "--d", "3", "--t", "2", "--a", "1", "--level", "2"],
    ["mu", "--d", "4", "--t", "1", "--a", "2", "--level", "3", "--json"],
    ["mu", "--d", "1", "--t", "1", "--a", "0"],
    ["mu", "--config", "{base}"],
    # every verify kind with --json, and the text form with masked times
    ["verify", "pairing", "--json"],
    ["verify", "ratio", "--json"],
    ["verify", "residue", "--d-max", "4", "--json"],
    ["verify", "theorem", "--d-max", "4", "--json"],
    ["verify", "theorem", "--d-max", "3", "--m-set", "2", "--t-set", "1", "--json"],
    ["verify", "pairing", "--d-max", "3"],
    ["verify", "ratio", "--d-max", "3", "--t-set", "2,1", "--a-set", "0"],
    # degree in text and JSON, symbolic, exact and float q
    DEGREE,
    ["degree", "--m", "1", "--d", "1", "--t", "1", "--a", "0"],
    ["degree", "--m", "2", "--d", "3", "--t", "2", "--a", "1", "--q", "3", "--deg-sigma", "1"],
    ["degree", "--m", "6", "--d", "4", "--t", "3", "--a", "1", "--q", "7/2"],
    ["degree", "--m", "2", "--d", "3", "--t", "2", "--a", "1", "--q", "2.5",
     "--deg-sigma", "3/2", "--json"],
    ["degree", "--m", "3", "--d", "3", "--t", "3", "--a", "0", "--deg-sigma", "2", "--json"],
    ["degree", "--m", "1", "--d", "2", "--t", "1", "--a", "0", "--q", "symbolic",
     "--deg-sigma", "symbolic"],
    # degree from a config file, and flags over a config file
    ["degree", "--config", "{cfg}"],
    ["degree", "--config", "{cfg}", "--json"],
    ["degree", "--config", "{base}"],
    ["degree", "--config", "{base}", "--d", "1"],
    ["degree", "--config", "{cfg}", "--q", "5", "--deg-sigma", "symbolic"],
    ["degree", "--config", "{base}", "--m", "2", "--t", "2", "--json"],
    # a degree beyond the float range: numeric null and one note line
    ["degree", "--m", "6", "--d", "10", "--t", "3", "--a", "1", "--q", "1000",
     "--deg-sigma", "1", "--json"],
    ["degree", "--m", "6", "--d", "10", "--t", "3", "--a", "1", "--q", "2",
     "--deg-sigma", "1e400", "--json"],
    # usage errors: one line, exit 2
    [*DEGREE, "--q", "inf", "--deg-sigma", "1"],
    [*DEGREE, "--q", "-inf", "--deg-sigma", "1"],
    [*DEGREE, "--q", "nan", "--deg-sigma", "1"],
    [*DEGREE, "--q", "1e400"],
    [*DEGREE, "--q", "1"],
    [*DEGREE, "--q", "1/0"],
    [*DEGREE, "--q", "abc"],
    [*DEGREE, "--deg-sigma", "1/0"],
    [*DEGREE, "--deg-sigma", "inf"],
    [*DEGREE, "--deg-sigma", "0"],
    ["degree", "--m", "2", "--d", "2", "--t", "3", "--a", "0"],
    ["degree", "--m", "0", "--d", "0", "--t", "1", "--a", "-1"],
    ["degree", "--m", "2", "--d", "2", "--t", "1"],
    ["degree", "--d", "2"],
    ["degree", "--m", "1", "--d", "x", "--t", "1", "--a", "0"],
    ["degree", "--m", "x"],
    ["degree", "--config", "{missing}"],
    ["degree", "--config", "{binary}"],
    ["degree", "--config", "{bad}"],
    ["degree", "--config", "{noeq}"],
    ["mu", "--d", "2", "--t", "1", "--a", "0", "--level", "5"],
    ["mu", "--d", "2", "--t", "1", "--a", "0", "--level", "9"],
    ["mu", "--d", "2", "--t", "0", "--a", "0"],
    ["mu", "--t", "1", "--a", "0"],
    ["verify", "bogus"],
    ["verify", "everything"],
    ["verify", "theorem", "--m-set", "0,1"],
    ["verify", "theorem", "--m-set", "x"],
    ["verify", "theorem", "--d-max", "0"],
    ["verify", "theorem", "--drop-level-inverse"],
    ["verify", "pairing", "--m-set", "5"],
    ["verify", "pairing", "--a-set", "9"],
    ["verify", "pairing", "--m-set", "5", "--a-set", "9"],
    ["nosuch"],
    ["--bogus"],
)

# contour: exit code, stderr and JSON keys only
CONTOUR_CASES = (
    ["contour", "--d", "2", "--q", "2", "--t", "1", "--m", "1", "--a", "0", "--nodes", "64"],
    ["contour", "--d", "2", "--q", "2", "--t", "1", "--m", "1", "--a", "0", "--nodes", "64",
     "--json"],
    ["contour", "--d", "3", "--q", "3", "--t", "1", "--m", "1", "--a", "1", "--tol", "1e-6"],
    ["contour", "--d", "3", "--q", "2", "--t", "1", "--m", "1", "--a", "0", "--tol", "1e-6",
     "--json"],
    ["contour", "--d", "1", "--q", "2.5", "--t", "1", "--m", "1", "--a", "0", "--json"],
    ["contour", "--config", "{cfg}", "--nodes", "64", "--tol", "1e-6", "--json"],
    # near the float range: about 1e300 exits 0; beyond it, exit 3 with one
    # line on stderr and nothing on stdout
    ["contour", "--d", "2", "--q", "1e300", "--t", "1", "--m", "1", "--a", "0", "--nodes", "16"],
    ["contour", "--d", "2", "--q", "1e300", "--t", "1", "--m", "1", "--a", "1", "--nodes", "16"],
    ["contour", "--d", "3", "--q", "1e30", "--t", "3", "--m", "3", "--a", "2", "--nodes", "16",
     "--json"],
    # usage errors
    ["contour", "--d", "2", "--q", "1", "--t", "1", "--m", "1", "--a", "0"],
    ["contour", "--d", "2", "--q", "inf", "--t", "1", "--m", "1", "--a", "0"],
    ["contour", "--d", "2", "--q", "1e400", "--t", "1", "--m", "1", "--a", "0"],
    ["contour", "--d", "2", "--t", "1", "--m", "1", "--a", "0"],
    ["contour", "--q", "2", "--t", "1", "--m", "1", "--a", "0"],
    ["contour", "--d", "2", "--q", "2", "--t", "1", "--m", "1", "--a", "0", "--nodes", "16",
     "--tol", "nan"],
    ["contour", "--d", "2", "--q", "2", "--t", "1", "--m", "1", "--a", "0", "--nodes", "100"],
    ["contour", "--d", "5", "--q", "2", "--t", "1", "--m", "1", "--a", "0"],
    ["contour", "--d", "2", "--q", "2", "--t", "2", "--m", "1", "--a", "0"],
)

CLI_SHA256 = "f59f4148b90962789f354d7361492965cfc5ffc7b0b7cf592c5ac6404f9851cd"
CONTOUR_SHA256 = "5f98b4a7a64da0638cd904d03eb7f75e8a6926312627e03056dab2e9e9a49f32"

# the parse itself, run as ``qdegree``: help pages, --version, eager help, both
# value spellings, the last of a repeated option, and the message of each kind
# of usage error.  Taken through click 8.4, before qdegree had its own parser.
PARSE_CASES = (
    ["--help"],
    ["degree", "--help"],
    ["mu", "--help"],
    ["contour", "--help"],
    ["verify", "--help"],
    ["--version"],
    [],
    ["degree", "--m", "x", "--help"],
    ["degree", "--m=2", "--d=3", "--t", "1", "--a", "0"],
    ["degree", "--m", "3", "--m", "2", "--d", "3", "--t", "1", "--a", "0"],
    ["degree", "--mm", "3"],
    ["degree", "-m", "1"],
    [*DEGREE, "--q"],
    [*DEGREE, "--json=1"],
    ["mu", "--d", "2", "--t", "1", "--a", "0", "--level", "x"],
    ["contour", "--tol", "x"],
    ["verify", "theo"],
    ["verify", "theorem", "extra"],
)

PARSE_SHA256 = "02a6d50a74d4f2895b5340904beed883fb1d901dfe4c734ba349f99f799feeda"


@pytest.fixture()
def files(tmp_path):
    texts = {"cfg": "# a whole set\nm=2\nd=3\nt=2\na=1\nq=3\ndeg_sigma=1/2\n",
             "base": "m=1\nd=2\nt=1\na=0\n", "bad": "m=x\nd=2\nt=1\na=0\n",
             "noeq": "m=1\nd 2\n"}
    paths = {"missing": str(tmp_path / "missing.cfg")}
    for key, text in texts.items():
        (tmp_path / f"{key}.cfg").write_text(text)
        paths[key] = str(tmp_path / f"{key}.cfg")
    (tmp_path / "binary.cfg").write_bytes(b"m=1\xff\n")
    paths["binary"] = str(tmp_path / "binary.cfg")
    return tmp_path, paths


def _run(args, files, **kwargs):
    tmp_path, paths = files
    result = invoke([arg.format(**paths) for arg in args], **kwargs)
    masked = [text.replace(str(tmp_path), "<tmp>") for text in (result.stdout, result.stderr)]
    masked[0] = re.sub(r"\(\d+ ms\)", "(N ms)", masked[0])
    return result.exit_code, masked[0], masked[1]


def _keys(doc):
    """The key structure of a JSON document, without its values."""
    if isinstance(doc, dict):
        return {key: _keys(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_keys(value) for value in doc[:1]]
    return None


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _surface(files, cases=CASES, **kwargs):
    for args in cases:
        code, stdout, stderr = _run(args, files, **kwargs)
        yield f"$ {' '.join(args)}"
        yield f"exit {code}"
        yield stdout
        yield stderr


def _contour_surface(files):
    for args in CONTOUR_CASES:
        code, stdout, stderr = _run(args, files)
        yield f"$ {' '.join(args)}"
        yield f"exit {code}"
        if "--json" in args and code == 0:
            yield json.dumps(_keys(json.loads(stdout)))
        # the values that overflowed are platform floats too
        yield re.sub(r"(beyond float range:) .*", r"\1 ...", stderr)


def test_cli_surface_unchanged(files):
    assert _digest(_surface(files)) == CLI_SHA256


def test_parse_surface_unchanged(files):
    assert _digest(_surface(files, PARSE_CASES, prog_name="qdegree")) == PARSE_SHA256


def test_contour_surface_unchanged(files):
    assert _digest(_contour_surface(files)) == CONTOUR_SHA256


# ---------------------------------------------------------------------------
# Literal cases: behaviour added after the digest was taken
# ---------------------------------------------------------------------------

def test_spot_usage_error(files):
    # a literal value, so that a digest mismatch can be told from a broken harness
    assert _run([*DEGREE, "--q", "1/0"], files) == (
        2, "", "Error: cannot parse q value '1/0'\n")


CONTOUR = ["contour", "--d", "2", "--t", "1", "--m", "1", "--a", "0", "--nodes", "64"]


def test_missing_kind_is_one_line(files):
    # click printed the choices on four more tab-indented lines
    assert _run(["verify"], files) == (
        2, "", "Error: Missing argument 'KIND'. Choose from: pairing, ratio, residue, theorem\n")


def test_contour_takes_a_rational_q(files):
    code, stdout, stderr = _run([*CONTOUR, "--q", "3/2", "--json"], files)
    assert (code, stderr) == (0, "")
    assert json.loads(stdout)["params"]["q"] == 1.5
    assert _run([*CONTOUR, "--q", "1.5", "--json"], files) == (code, stdout, stderr)


@pytest.mark.parametrize("q, message", [
    ("symbolic", "missing required parameter --q"),
    ("abc", "cannot parse q value 'abc'"),
    ("1e400", "contour evaluates q as a float: q=1e400 gives inf, not a finite float > 1"),
])
def test_contour_q_usage_errors(files, q, message):
    assert _run([*CONTOUR, "--q", q], files) == (2, "", f"Error: {message}\n")


@pytest.mark.parametrize("args", [
    ["theorem", "--t-set", "5"],
    ["residue", "--m-set", "1", "--t-set", "2"],
    ["ratio", "--d-max", "1"],
    ["pairing", "--d-max", "1"],
])
def test_verify_empty_grid_is_a_usage_error(files, args):
    assert _run(["verify", *args], files) == (
        2, "", f"Error: verify {args[0]} has no case on this grid\n")


def test_parameter_warning_on_stderr(files):
    # stdout as before the warnings were shown
    assert _run(["degree", "--m", "3", "--d", "2", "--t", "2", "--a", "0"], files) == (
        0,
        "-3/4 * q^(-7) * (1 - q^(1))^-1 * (1 - q^(2))^1 * (1 - q^(3))^-1 * (1 - q^(5))^1"
        " * (1 - q^(6))^1 * degσ^2\n",
        "warning: t=2 does not divide m=3; formulas remain rational\n")


def test_parameter_warning_dropped_when_the_run_fails(files):
    # the error line alone, though the parameters also gave a warning
    assert _run(["contour", "--a", "1000", "--m", "3", "--nodes", "16", "--q", "2", "--d", "3",
                 "--t", "2", "--tol", "1e-6"], files) == (
        3, "", "error: value beyond float range: lhs and rhs at q = 2.0\n")


def test_version_without_installed_metadata():
    result = invoke(["--version"])
    assert result.exit_code == 0
    assert __version__ in result.stdout


def _source_env() -> dict:
    """The environment with this source tree first on PYTHONPATH."""
    src = str(Path(qdegree.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


def test_version_as_a_module():
    # run as python -m, the program names itself as Python was started
    proc = subprocess.run([sys.executable, "-m", "qdegree.cli", "--version"], env=_source_env(),
                          timeout=60, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, f"python -m qdegree.cli, version {__version__}\n", "")


def test_cli_import_leaves_numpy_unloaded():
    # only the contour command needs numpy; it imports its module itself.  The
    # command line parses itself, so click is not loaded either
    code = "import sys, qdegree.cli; sys.exit('numpy' in sys.modules or 'click' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=_source_env(),
                          timeout=60).returncode == 0


@pytest.mark.parametrize("args", [
    [*DEGREE, "--json"],
    ["verify", "theorem", "--d-max", "2"],
    ["degree", "--help"],
])
def test_runs_without_click(args):
    # click blocked from import: each command runs from the standard library alone
    code = ("import sys; sys.modules['click'] = None; from qdegree.cli import main; "
            f"main({args!r}, prog_name='qdegree')")
    proc = subprocess.run([sys.executable, "-c", code], env=_source_env(), timeout=60,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout


def test_closed_stdout_exits_141():
    # the reader is gone before the first line: every write meets a closed pipe
    env = _source_env()
    proc = subprocess.Popen([sys.executable, "-m", "qdegree.cli", "verify", "pairing"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert stderr == b""
