"""The command line's contract over its own option and command tables: every
argv drawn from them gets a correct answer or one documented line.

Exit 0 or 1 (a verification failed) may print anything; any other exit is in
{2, 3} with at most one stderr line and, for 2 and 3, nothing on stdout; and
``--json`` output on exit 0 or 1 parses.  Sizes are capped: the number of
blocks d <= 12, --d-max <= 3, --nodes <= 64 and the block size m <= 1000,
because a degree at m = 10**6, d = 12 and a numeric q takes about a minute.
The caps do not keep every draw prompt: ``--m 1000`` can come with ``--d`` 2,
3, 4, 10 or 12, a numeric ``--q`` and ``--deg-sigma``, and such a degree takes
seconds or more (about 6.5 s at d = 2 and 42 s at d = 3 with q = 2, on a
shared 2-core x86_64 host), most of it in the gcd of the exact value's
``Fraction``.  That is an open promptness fault, and the caps are not lowered
to hide it.
"""

import json

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qdegree.cli import _COMMANDS, _OPTIONS, main

# small valid values of each option, and the largest value a size option takes
VALID = {"m": ["1", "2", "3", "6"], "d": ["1", "2", "3", "4", "12"], "t": ["1", "2", "3"],
         "a": ["0", "1", "2"], "q": ["2", "3", "3/2", "1.5", "symbolic"],
         "deg_sigma": ["1", "1/2", "2", "symbolic"], "level": ["2", "3"], "nodes": ["16", "64"],
         "tol": ["1e-6", "0.001"], "d_max": ["1", "2", "3"], "m_set": ["1,2", "6"],
         "t_set": ["1", "1,2"], "a_set": ["0", "0,1"]}
SIZES = {"d": 12, "d_max": 3, "nodes": 64, "m": 1000}
ANY = ["0", "1", "-1", "2", "1/2", "-2/3", "2.5", "nan", "inf", "-inf", "x", "", "1e400", "3,1"]
LARGE = ["10", "1000", "1000000", "10000000000", "1e12", "10**6"]


def _values(key):
    """Mostly a small valid value; else 0, +-1, a fraction, nan, inf, garbage or,
    unless ``key`` is a size, a large power of ten."""
    wild = [v for v in ANY + LARGE if key not in SIZES or not (
        v.lstrip("-").isdigit() and int(v) > SIZES[key])]
    return st.integers(0, 7).flatmap(
        lambda i: st.sampled_from(wild if i == 7 else VALID[key]))


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    _, keys, kinds = _COMMANDS[name]
    argv = [name]
    if kinds:  # mostly a valid choice; else garbage or none
        argv += draw(st.sampled_from([[kind] for kind in kinds] * 3 + [["theo"], []]))
    options = [key for key in keys if key not in ("config", "as_json")]
    chosen = [key for key in draw(st.permutations(options)) if draw(st.integers(0, 9)) < 9]
    for key in chosen + draw(st.lists(st.sampled_from(options), max_size=2)):  # and repeats
        argv += [_OPTIONS[key][0], draw(_values(key))]
    if draw(st.booleans()):
        argv.append("--json")
    if draw(st.integers(0, 9)) == 9:  # a value left out
        argv.append(_OPTIONS[draw(st.sampled_from(options))][0])
    return argv


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_every_argv_gets_an_answer_or_one_line(argv):
    result = CliRunner().invoke(main, argv, prog_name="qdegree")
    code, stdout, stderr = result.exit_code, result.stdout, result.stderr
    assert code in (0, 1, 2, 3), (argv, code, stderr)
    if code not in (0, 1):
        assert len(stderr.splitlines()) <= 1, (argv, stderr)
        assert stdout == "", (argv, stdout)
    elif "--json" in argv:
        json.loads(stdout)
