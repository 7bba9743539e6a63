"""CLI surface tests: output formats, JSON schema round-trip, exit codes."""

import json

import pytest
from click.testing import CliRunner

from qdegree import contour, coords, degree, mu, resdata
from qdegree.cli import emit_json, main


@pytest.fixture()
def runner():
    return CliRunner()


class TestDegreeCommand:
    def test_steinberg_of_gl2(self, runner):
        result = runner.invoke(main, ["degree", "--m", "1", "--d", "2", "--t", "1", "--a", "0"])
        assert result.exit_code == 0
        assert result.output.strip() == "-1/2 * (1 - q^(1))^1 * degσ^2"

    def test_single_block(self, runner):
        result = runner.invoke(main, ["degree", "--m", "1", "--d", "1", "--t", "1", "--a", "0"])
        assert result.exit_code == 0
        assert result.output.strip() == "degσ"

    @pytest.mark.parametrize("q", ["inf", "-inf", "nan"])
    def test_non_finite_q_exits_2(self, runner, q):
        result = runner.invoke(main, ["degree", "--m", "1", "--d", "2", "--t", "1", "--a", "0",
                                      "--q", q, "--deg-sigma", "1"])
        assert result.exit_code == 2
        assert "finite" in result.stderr

    @pytest.mark.parametrize("extra", [["--q", "1000", "--deg-sigma", "1"],
                                       ["--q", "2", "--deg-sigma", "1e400"],
                                       ["--q", "2", "--deg-sigma", "1e-400"]])
    def test_beyond_float_range_exits_0(self, runner, extra):
        result = runner.invoke(main, ["degree", "--m", "6", "--d", "10", "--t", "3", "--a", "1",
                                      *extra, "--json"])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["result"]["numeric"] is None
        assert len(result.stderr.splitlines()) == 1
        assert "float range" in result.stderr

    @pytest.mark.parametrize("md", [("6", "6000"), ("2", "20000")])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_constant_beyond_the_int_str_limit(self, runner, md, as_json):
        # the constant has more digits than str() of an int accepts by default
        m, d = md
        result = runner.invoke(main, ["degree", "--m", m, "--d", d, "--t", "1", "--a", "0",
                                      *(["--json"] if as_json else [])])
        assert result.exit_code == 0, result.output
        assert result.stderr == ""
        text = json.loads(result.stdout)["result"]["factored"] if as_json else result.stdout
        constant = text.split(" * ")[0]
        assert len(constant) > 4300 and constant.lstrip("-").replace("/", "").isdigit()

    def test_below_float_range_prints_no_numeric_line(self, runner):
        result = runner.invoke(main, ["degree", "--m", "2", "--d", "2", "--t", "1", "--a", "0",
                                      "--q", "2", "--deg-sigma", "1e-400"])
        assert result.exit_code == 0
        assert "numeric:" not in result.stdout
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("note: ")

    def test_beyond_float_range_near_q_one_prints_null_promptly(self, runner):
        # the value's log2 is -1177; the exact evaluation this skips took seconds
        result = runner.invoke(main, ["degree", "--m", "1", "--d", "600", "--t", "1", "--a", "0",
                                      "--q", "1.001", "--deg-sigma", "1", "--json"])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["result"]["numeric"] is None
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("note: ")

    def test_beyond_float_range_after_exact_evaluation_exits_0(self, runner):
        # log2 of the degree is about 1027.7, inside the margin in which the
        # bounds do not decide: the exact value is computed and its float overflows
        result = runner.invoke(main, ["degree", "--m", "1", "--d", "46", "--t", "1", "--a", "0",
                                      "--q", "2", "--deg-sigma", "1", "--json"])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["result"]["numeric"] is None
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("note: ")

    def test_invalid_torsion_exits_2(self, runner):
        result = runner.invoke(main, ["degree", "--m", "2", "--d", "2", "--t", "3", "--a", "0"])
        assert result.exit_code == 2

    def test_missing_parameter_exits_2(self, runner):
        result = runner.invoke(main, ["degree", "--m", "2", "--d", "2", "--t", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("flag", ["--q", "--deg-sigma"])
    def test_zero_denominator_exits_2(self, runner, flag):
        result = runner.invoke(main, ["degree", "--m", "1", "--d", "2", "--t", "1", "--a", "0",
                                      flag, "1/0"])
        assert result.exit_code == 2
        assert result.stderr.splitlines()[-1].startswith("Error: cannot parse")

    @pytest.mark.parametrize("content", [None, b"m=1\xff\n"])
    def test_unreadable_config_exits_2(self, runner, tmp_path, content):
        cfg = tmp_path / "run.cfg"
        if content is not None:
            cfg.write_bytes(content)
        result = runner.invoke(main, ["degree", "--config", str(cfg)])
        assert result.exit_code == 2
        assert result.stderr.splitlines()[-1].startswith("Error: cannot read config file")

    def test_unknown_config_keys_exit_2(self, runner, tmp_path):
        # the flag's spelling deg-sigma is not the key deg_sigma
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m=2\nd=3\nt=1\na=0\nq=3\ndeg-sigma=2\nnodes=32\n")
        result = runner.invoke(main, ["degree", "--config", str(cfg)])
        assert result.exit_code == 2
        assert result.stdout == ""
        (line,) = result.stderr.splitlines()
        assert line.startswith("Error: unknown config key")
        assert "'deg-sigma'" in line and "'nodes'" in line

    def test_config_keys_a_command_does_not_read(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m=2\nd=2\nt=1\na=0\nq=3\ndeg_sigma=2\n")
        result = runner.invoke(main, ["mu", "--config", str(cfg)])
        assert result.exit_code == 0
        assert result.stderr == ""

    def test_numeric_q(self, runner):
        result = runner.invoke(main, ["degree", "--m", "1", "--d", "2", "--t", "1",
                                      "--a", "0", "--q", "3", "--deg-sigma", "1"])
        assert result.exit_code == 0
        assert "numeric: 1" in result.output  # (3-1)/2 = 1

    def test_config_file(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m=1\nd=2\nt=1\na=0\n")
        result = runner.invoke(main, ["degree", "--config", str(cfg)])
        assert result.exit_code == 0
        assert result.output.strip() == "-1/2 * (1 - q^(1))^1 * degσ^2"

    def test_flag_overrides_config(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m=1\nd=2\nt=1\na=0\n")
        result = runner.invoke(main, ["degree", "--config", str(cfg), "--d", "1"])
        assert result.exit_code == 0
        assert result.output.strip() == "degσ"


_GL2 = ["degree", "--m", "1", "--d", "2", "--t", "1", "--a", "0"]
_CONTOUR_D2 = ["contour", "--m", "1", "--d", "2", "--t", "1", "--a", "0"]
_BIG = "1" + "0" * 5000  # 10^5000: str() of an int refuses more than 4300 digits by default


class TestRationalsPastTheDigitLimit:
    """q and deg_sigma of any size are printed in full, never exit 4."""

    def test_json_prints_q_in_full(self, runner):
        result = runner.invoke(main, [*_GL2, "--q", "1e5000", "--json"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["params"]["q"] == _BIG

    def test_beyond_float_range_notes_q_in_full(self, runner):
        result = runner.invoke(main, [*_GL2, "--q", "1e5000", "--deg-sigma", "1"])
        assert result.exit_code == 0, result.output
        assert result.stdout == "-1/2 * (1 - q^(1))^1\n"
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"note: the degree at q={_BIG} is beyond the float range")

    def test_q_below_one_is_one_error_line(self, runner):
        result = runner.invoke(main, [*_GL2, "--q", "1e-5000"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"Error: q must exceed 1, got 1/{_BIG}\n"

    def test_negative_deg_sigma_is_one_error_line(self, runner):
        result = runner.invoke(main, [*_GL2, "--deg-sigma", "-1e5000"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"Error: deg_sigma must be positive, got -{_BIG}\n"

    def test_config_file_as_the_flag(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q=1e5000\n")
        from_config = runner.invoke(main, [*_GL2, "--config", str(cfg), "--json"])
        from_flag = runner.invoke(main, [*_GL2, "--q", "1e5000", "--json"])
        assert from_config.exit_code == from_flag.exit_code == 0
        assert from_config.stdout == from_flag.stdout
        assert from_config.stderr == from_flag.stderr == ""


class TestMuCommand:
    def test_two_block_function(self, runner):
        result = runner.invoke(main, ["mu", "--d", "2", "--t", "1", "--a", "0"])
        assert result.exit_code == 0
        assert result.output.strip() == ("1 * q^(1) * (1 - q^(-1 + z1))^-1 "
                                         "* (1 - q^(z1))^2 * (1 - q^(1 + z1))^-1")

    def test_level_ratio(self, runner):
        result = runner.invoke(main, ["mu", "--d", "3", "--t", "2", "--a", "1", "--level", "2"])
        assert result.exit_code == 0
        assert result.output.strip() == ("1 * q^(6) * (1 - q^(-3 + z))^-1 * (1 - q^(-1 + z))^1 "
                                         "* (1 - q^(1 + z))^1 * (1 - q^(3 + z))^-1")

    def test_single_block(self, runner):
        result = runner.invoke(main, ["mu", "--d", "1", "--t", "1", "--a", "0"])
        assert result.exit_code == 0
        assert result.output.strip() == "1"

    def test_bad_level_exits_2(self, runner):
        result = runner.invoke(main, ["mu", "--d", "2", "--t", "1", "--a", "0", "--level", "5"])
        assert result.exit_code == 2


class TestContourCommand:
    def test_two_blocks_pass(self, runner):
        result = runner.invoke(main, ["contour", "--d", "2", "--q", "2", "--t", "1",
                                      "--m", "1", "--a", "0", "--nodes", "512"])
        assert result.exit_code == 0
        assert "[pass]" in result.output

    def test_three_blocks_pass(self, runner):
        result = runner.invoke(main, ["contour", "--d", "3", "--q", "3", "--t", "1",
                                      "--m", "1", "--a", "1", "--tol", "1e-6"])
        assert result.exit_code == 0
        assert "off-chain term" in result.output

    def test_too_few_nodes_fail_exits_1(self, runner):
        # 16 nodes per circle leave a relative error of about 2e-4
        result = runner.invoke(main, ["contour", "--d", "3", "--q", "2", "--t", "1", "--m", "1",
                                      "--a", "0", "--nodes", "16", "--tol", "1e-12"])
        assert result.exit_code == 1
        assert result.stdout.rstrip().endswith("[fail]")

    def test_q_at_most_one_exits_2(self, runner):
        result = runner.invoke(main, ["contour", "--d", "2", "--q", "1", "--t", "1",
                                      "--m", "1", "--a", "0"])
        assert result.exit_code == 2

    def test_nan_tolerance_exits_2(self, runner):
        result = runner.invoke(main, ["contour", "--d", "2", "--q", "2", "--t", "1", "--m", "1",
                                      "--a", "0", "--nodes", "16", "--tol", "nan"])
        assert result.exit_code == 2
        assert "tolerance must be positive" in result.stderr

    def test_infinite_tolerance_exits_2(self, runner):
        # an infinite tolerance would pass any error
        result = runner.invoke(main, ["contour", "--d", "2", "--q", "2", "--t", "1", "--m", "1",
                                      "--a", "0", "--nodes", "16", "--tol", "inf"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "Error: tolerance must be finite, got inf\n"

    def test_oversized_grid_exits_2(self, runner, monkeypatch):
        def no_grid(*args):
            raise AssertionError("a grid was evaluated before the size check")

        monkeypatch.setattr(contour, "_eval_grid", no_grid)
        result = runner.invoke(main, ["contour", "--d", "3", "--q", "2", "--t", "1", "--m", "1",
                                      "--a", "0", "--nodes", "16384"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert "limit of 2^24" in result.stderr

    @pytest.mark.parametrize("args", [
        ["--d", "2", "--q", "1e300", "--t", "1", "--m", "1", "--a", "0", "--nodes", "16"],
        ["--d", "3", "--q", "1e100", "--t", "1", "--m", "1", "--a", "0", "--tol", "1e-6"],
    ])
    def test_large_q_inside_float_range_passes(self, runner, args):
        # both sides are about q^((a+t)d(d-1)/2): 1e300 and 1e300
        result = runner.invoke(main, ["contour", *args])
        assert result.exit_code == 0
        assert "[pass]" in result.output

    # both sides are about q^((a+t)d(d-1)/2), here 1e600, 1e450 and 2^(6e12), beyond
    # the float range; the grid evaluator's one exp of size overflows, and the
    # finite check in decomposition_report turns that into exit 3
    @pytest.mark.parametrize("args", [
        ["--d", "2", "--q", "1e300", "--t", "1", "--m", "1", "--a", "1", "--nodes", "16"],
        ["--d", "3", "--q", "1e30", "--t", "3", "--m", "3", "--a", "2", "--nodes", "16",
         "--json"],
        ["--d", "3", "--m", "1000000000000", "--t", "1000000000000", "--a", "1000000000000",
         "--q", "2", "--nodes", "64", "--tol", "1000000000000"],
    ])
    def test_beyond_float_range_exits_3(self, runner, args):
        result = runner.invoke(main, ["contour", *args])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        # an overflow that became nan in the node means is named by its side, not printed
        assert result.stderr.startswith("error: value beyond float range: lhs and rhs at q = ")
        assert "nan" not in result.stderr and "inf" not in result.stderr

    # q is validated as the exact rational given, then evaluated as a float:
    # each refusal names q as it was given, not as its float
    @pytest.mark.parametrize("q, message", [
        ("1e-5000", f"q must exceed 1, got 1/{_BIG}"),
        ("1e-400", "q must exceed 1, got 1/1" + "0" * 400),
        ("1e400", "contour evaluates q as a float: q=1e400 gives inf, not a finite float > 1"),
        ("1.0000000000000000001", "contour evaluates q as a float: q=1.0000000000000000001 "
                                  "gives 1.0, not a finite float > 1"),
    ])
    def test_q_is_read_exactly(self, runner, q, message):
        result = runner.invoke(main, [*_CONTOUR_D2, "--q", q])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"Error: {message}\n"

    def test_every_bad_parameter_is_named(self, runner):
        # q's float problem joins validate's line instead of hiding d's
        result = runner.invoke(main, ["contour", "--m", "1", "--d", "0", "--t", "1", "--a", "0",
                                      "--q", "1e400"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == ("Error: d must be a positive integer, got 0; contour evaluates "
                                 "q as a float: q=1e400 gives inf, not a finite float > 1\n")

    # --nodes, --tol, the depth limit and the torus size join the same line
    @pytest.mark.parametrize("args, problems", [
        (["--d", "2", "--q", "2", "--nodes", "3", "--tol", "0"],
         ["nodes must be a power of two >= 16, got 3", "tolerance must be positive, got 0.0"]),
        (["--d", "0", "--q", "2", "--nodes", "3", "--tol", "0"],
         ["d must be a positive integer, got 0", "nodes must be a power of two >= 16, got 3",
          "tolerance must be positive, got 0.0"]),
        (["--d", "5", "--q", "1e400"],
         ["contour evaluates q as a float: q=1e400 gives inf, not a finite float > 1",
          "residue decomposition is implemented for d <= 3"]),
        (["--d", "5", "--q", "2", "--nodes", "3"],
         ["nodes must be a power of two >= 16, got 3",
          "residue decomposition is implemented for d <= 3"]),
        (["--d", "3", "--q", "2", "--nodes", "5000", "--tol", "nan"],
         ["nodes must be a power of two >= 16, got 5000", "tolerance must be positive, got nan",
          "nodes^(d-1) = 5000^2 exceeds the limit of 2^24 = 16777216 grid nodes"]),
    ])
    def test_contour_parameters_are_named_with_the_setup(self, runner, monkeypatch, args,
                                                         problems):
        def no_mu(p):
            raise AssertionError("mu was built before the parameter checks")

        monkeypatch.setattr(contour, "mu_on_z", no_mu)
        result = runner.invoke(main, ["contour", "--m", "1", "--t", "1", "--a", "0", *args])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"Error: {'; '.join(problems)}\n"

    def test_q_from_a_config_file_is_read_exactly(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q=1.0000000000000000001\n")
        from_config = runner.invoke(main, [*_CONTOUR_D2, "--config", str(cfg)])
        from_flag = runner.invoke(main, [*_CONTOUR_D2, "--q", "1.0000000000000000001"])
        assert from_config.exit_code == from_flag.exit_code == 2
        assert from_config.stdout == ""
        assert from_config.stderr == from_flag.stderr


class TestVerifyCommand:
    def test_theorem_small_grid(self, runner):
        result = runner.invoke(main, ["verify", "theorem", "--d-max", "3",
                                      "--m-set", "1,2", "--a-set", "0,1"])
        assert result.exit_code == 0
        assert "[PASS]" in result.output
        assert "checks passed" in result.output

    def test_ratio_suite(self, runner):
        result = runner.invoke(main, ["verify", "ratio", "--d-max", "4",
                                      "--t-set", "1,2", "--a-set", "0"])
        assert result.exit_code == 0

    def test_pairing_suite_defaults_to_depth_eight(self, runner):
        result = runner.invoke(main, ["verify", "pairing"])
        assert result.exit_code == 0
        assert "pairing d=8" in result.output

    def test_pairing_respects_explicit_depth(self, runner):
        result = runner.invoke(main, ["verify", "pairing", "--d-max", "3"])
        assert result.exit_code == 0
        assert "pairing d=3" in result.output
        assert "pairing d=4" not in result.output

    def test_fault_injection_exits_1(self, runner, drop_level_inverse):
        result = runner.invoke(main, ["verify", "theorem", "--d-max", "3", "--m-set", "1",
                                      "--a-set", "0"])
        assert result.exit_code == 1
        assert "[FAIL]" in result.output

    # a wrong side in each suite: every failed case prints its detail, and the run exits 1
    @pytest.mark.parametrize("kind, module, name, wrong", [
        pytest.param("pairing", coords, "pairing_coroot",
                     lambda honest: lambda p, l, w: honest(p, l, w) + 1, id="pairing"),
        pytest.param("ratio", mu, "mu_level_ratio_closed",
                     lambda honest: lambda p, l: honest(p, l).scale(2), id="ratio"),
        pytest.param("residue", resdata, "residue_closed_form",
                     lambda honest: lambda p: honest(p).scale(2), id="residue"),
    ])
    def test_wrong_side_exits_1(self, runner, monkeypatch, kind, module, name, wrong):
        monkeypatch.setattr(module, name, wrong(getattr(module, name)))
        result = runner.invoke(main, ["verify", kind, "--d-max", "2"])
        assert result.exit_code == 1
        failed = [line for line in result.stdout.splitlines() if line.startswith("[FAIL] ")]
        assert failed and all("  detail: " in line for line in failed)

    def test_no_fault_injection_flag(self, runner):
        result = runner.invoke(main, ["verify", "theorem", "--drop-level-inverse"])
        assert result.exit_code == 2

    def test_t_set_restricts_theorem_grid(self, runner):
        result = runner.invoke(main, ["verify", "theorem", "--d-max", "2", "--m-set", "2",
                                      "--t-set", "1"])
        assert result.exit_code == 0
        assert "t=2" not in result.output
        assert "6/6 checks passed" in result.output

    def test_t_set_restricts_residue_grid(self, runner):
        result = runner.invoke(main, ["verify", "residue", "--d-max", "2", "--m-set", "2,6",
                                      "--t-set", "2", "--a-set", "0"])
        assert result.exit_code == 0
        assert "4/4 checks passed" in result.output

    def test_theorem_default_grid_takes_every_divisor(self, runner):
        # m in {1,2,3,6} has 1+2+2+4 divisors t, times 3 conductors
        result = runner.invoke(main, ["verify", "theorem", "--d-max", "1", "--json"])
        assert result.exit_code == 0
        names = [check["name"] for check in json.loads(result.stdout)["checks"]]
        assert len(names) == 27
        assert "theorem m=6 d=1 t=6 a=2" in names

    @pytest.mark.parametrize("extra", [["--m-set", "5"], ["--a-set", "9"],
                                       ["--m-set", "5", "--a-set", "9"]])
    def test_pairing_rejects_unused_grid_options(self, runner, extra):
        result = runner.invoke(main, ["verify", "pairing", *extra])
        assert result.exit_code == 2
        assert "does not take" in result.stderr

    def test_unknown_kind_exits_2(self, runner):
        result = runner.invoke(main, ["verify", "everything"])
        assert result.exit_code == 2

    def test_bad_grid_exits_2(self, runner):
        result = runner.invoke(main, ["verify", "theorem", "--m-set", "0,1"])
        assert result.exit_code == 2

    def test_output_sorted_by_case(self, runner):
        result = runner.invoke(main, ["verify", "ratio", "--d-max", "3",
                                      "--t-set", "2,1", "--a-set", "0"])
        lines = [l for l in result.output.splitlines() if l.startswith("[")]
        names = [l.split("] ", 1)[1].rsplit(" (", 1)[0] for l in lines]
        assert names == sorted(names)


# a usage error in the group's own options, in the command name, in a
# subcommand's options, and from a parameter check inside a command
@pytest.mark.parametrize("args", [
    ["degree", "--m", "1", "--d", "x", "--t", "1", "--a", "0"],
    ["degree", "--m", "1", "--d", "2", "--t", "1", "--a", "0", "--q", "1/0"],
    ["verify", "bogus"],
    ["nosuch"],
    ["contour", "--d", "5", "--q", "2", "--t", "1", "--m", "1", "--a", "0"],
    ["mu", "--d", "2", "--t", "1", "--a", "0", "--level", "9"],
    ["--bogus"],
])
def test_usage_error_is_one_line(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: ")


@pytest.fixture()
def broken_degree(monkeypatch):
    """A fault no command expects: closed_form_degree raises."""
    def broken(p):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(degree, "closed_form_degree", broken)


def test_closed_stdout_is_not_an_internal_error(runner, monkeypatch):
    # a closed pipe is a quiet exit 141 (128 + SIGPIPE), not a failed verification
    def closed(p):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(degree, "closed_form_degree", closed)
    result = runner.invoke(main, ["degree", "--m", "1", "--d", "2", "--t", "1", "--a", "0"])
    assert result.exit_code == 141
    assert result.stderr == ""


def test_unexpected_exception_exits_4(runner, broken_degree):
    result = runner.invoke(main, ["degree", "--m", "1", "--d", "2", "--t", "1", "--a", "0"])
    assert result.exit_code == 4
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["error: internal: RuntimeError: injected fault"]
    assert isinstance(result.exception, SystemExit)


def test_click_exits_keep_their_codes(runner, broken_degree):
    # a usage error and --help keep their own exits, not the internal error's
    assert runner.invoke(main, ["degree", "--m", "x"]).exit_code == 2
    assert runner.invoke(main, ["degree", "--help"]).exit_code == 0


def test_bare_group_prints_help(runner):
    result = runner.invoke(main, [])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Usage:" in result.output and "Commands:" in result.output


class TestJsonOutput:
    def test_degree_schema(self, runner):
        result = runner.invoke(main, ["degree", "--m", "2", "--d", "2", "--t", "2",
                                      "--a", "1", "--q", "3", "--deg-sigma", "1", "--json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["params"] == {"m": 2, "d": 2, "t": 2, "a": 1, "q": "3"}
        assert set(doc["result"]) == {"factored", "log_grade", "numeric"}
        assert doc["result"]["log_grade"] == 0
        assert doc["checks"] == []

    def test_symbolic_q_field(self, runner):
        result = runner.invoke(main, ["degree", "--m", "1", "--d", "2", "--t", "1",
                                      "--a", "0", "--json"])
        doc = json.loads(result.output)
        assert doc["params"]["q"] == "symbolic"
        assert doc["result"]["numeric"] is None

    def test_verify_check_schema(self, runner):
        result = runner.invoke(main, ["verify", "theorem", "--d-max", "2", "--m-set", "1",
                                      "--a-set", "0", "--json"])
        doc = json.loads(result.output)
        for check in doc["checks"]:
            assert set(check) == {"name", "status", "detail"}
            assert check["status"] == "pass"
            assert check["detail"] == "1"

    def test_round_trip_byte_identical(self, runner):
        for args in (["degree", "--m", "2", "--d", "3", "--t", "2", "--a", "1",
                      "--q", "2.5", "--deg-sigma", "3/2", "--json"],
                     ["mu", "--d", "3", "--t", "1", "--a", "0", "--json"],
                     ["contour", "--d", "2", "--q", "2", "--t", "1", "--m", "1",
                      "--a", "0", "--nodes", "512", "--json"],
                     ["contour", "--d", "3", "--q", "2", "--t", "1", "--m", "1",
                      "--a", "0", "--tol", "1e-6", "--json"],
                     ["verify", "ratio", "--d-max", "3", "--a-set", "0", "--json"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            emitted = result.output.strip()
            assert emit_json(json.loads(emitted)) == emitted

    def test_literals(self):
        assert [emit_json(x) for x in (True, False, None)] == ["true", "false", "null"]

    def test_seventeen_significant_digits(self):
        assert emit_json(1 / 3) == "0.33333333333333331"
        assert emit_json({"x": 2.0}) == '{"x":2}'
