import contextlib
import io
import math
import os
import re
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mixedwave.cli as cli
import mixedwave.verify as verify

from mixedwave.cli import (
    MissingCommandError,
    RunConfig,
    UnknownKeyError,
    ValueTypeError,
    fmt,
    format_config,
    main,
    parse_args,
    parse_config,
)
from mixedwave.verify import observed_rates


class TestParsing:
    def test_defaults_with_overrides(self):
        cfg = parse_config(
            "",
            {"mesh.nx": "16", "mesh.ny": "16", "time.dt": "0.005", "time.T": "1.0"},
            "energy",
        )
        assert cfg.theta == 0.25
        assert cfg.nx == 16 and cfg.dt == 0.005 and cfg.T == 1.0

    def test_file_keys_and_comments(self):
        text = "# study setup\nmesh.nx = 8   # coarse\n\nscheme.theta = 0.5\n"
        cfg = parse_config(text, {}, "run")
        assert cfg.nx == 8 and cfg.theta == 0.5

    def test_override_beats_file(self):
        cfg = parse_config("mesh.nx = 8\n", {"mesh.nx": "32"}, "run")
        assert cfg.nx == 32

    def test_theta_out_of_range_rejected(self):
        with pytest.raises(ValueTypeError, match="scheme.theta"):
            parse_config("scheme.theta = 1.5\n", {}, "run")

    def test_unknown_key_names_line(self):
        with pytest.raises(UnknownKeyError, match="line 2.*scheme.thetta"):
            parse_config("mesh.nx = 4\nscheme.thetta = 0.25\n", {}, "run")

    def test_bad_value_names_key_and_line(self):
        with pytest.raises(ValueTypeError, match="line 1.*mesh.nx"):
            parse_config("mesh.nx = four\n", {}, "run")

    def test_missing_command(self):
        with pytest.raises(MissingCommandError):
            parse_config("", {}, None)
        with pytest.raises(MissingCommandError):
            parse_config("", {}, "explode")

    def test_malformed_line(self):
        with pytest.raises(ValueTypeError, match="line 1"):
            parse_config("mesh.nx 4\n", {}, "run")

    def test_case_validation(self):
        assert parse_config("problem.case = forced:2.5\n", {}, "run").case == "forced:2.5"
        with pytest.raises(ValueTypeError):
            parse_config("problem.case = squiggle\n", {}, "run")

    def test_round_trip(self):
        cfg = RunConfig(
            command="energy", nx=12, ny=10, theta=1 / 3, dt=0.0125, T=0.7,
            case="forced:2.5", tol=3.5e-11, max_iter=77, out_dir="results",
        )
        assert parse_config(format_config(cfg), {}, "energy") == cfg

    def test_parse_args(self):
        command, path, overrides = parse_args(
            ["energy", "--config", "c.cfg", "--mesh.nx", "16"]
        )
        assert command == "energy" and path == "c.cfg"
        assert overrides == {"mesh.nx": "16"}

    def test_parse_args_errors(self):
        with pytest.raises(MissingCommandError):
            parse_args([])
        with pytest.raises(ValueTypeError):
            parse_args(["energy", "mesh.nx"])
        with pytest.raises(ValueTypeError):
            parse_args(["energy", "--mesh.nx"])

    def test_fmt_round_trip_17_digits(self):
        for v in (1 / 3, 0.1, 1e-300, math.pi):
            assert float(fmt(v)) == v
        assert fmt(None) == ""
        assert fmt(math.inf) == "inf"


class TestCommands:
    def test_energy_study_passes_and_writes_reports(self, tmp_path, capsys):
        code = main([
            "energy", "--mesh.nx", "8", "--mesh.ny", "8",
            "--time.dt", "0.025", "--time.T", "0.5",
            "--output.dir", str(tmp_path / "out"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS energy conservation" in out
        energy = (tmp_path / "out" / "energy.csv").read_text().splitlines()
        assert energy[0] == "step,t_half,energy,rel_drift"
        drifts = [float(line.split(",")[3]) for line in energy[1:]]
        assert max(drifts) <= 1e-10
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "PASS" in summary and "mesh.nx = 8" in summary
        # 20 solves: the initial step and 19 steps
        total, largest = re.search(r"cg_iterations total = (\d+), max = (\d+)", summary).groups()
        assert 20 <= int(total) <= 20 * int(largest)

    def test_energy_study_fails_beyond_cfl(self, tmp_path):
        # dt far above the explicit stability bound: blow-up, exit code 1
        code = main([
            "energy", "--scheme.theta", "0", "--mesh.nx", "8", "--mesh.ny", "8",
            "--time.dt", "0.125", "--time.T", "5.0",
            "--output.dir", str(tmp_path / "out"),
        ])
        assert code == 1

    def test_run_reports_errors(self, tmp_path, capsys):
        code = main([
            "run", "--mesh.nx", "4", "--mesh.ny", "4",
            "--time.dt", "0.05", "--time.T", "0.2",
            "--output.dir", str(tmp_path / "out"),
        ])
        assert code == 0
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "err_u_linf_l2" in summary
        assert "cg_iterations total = " in summary

    @pytest.mark.parametrize("command", ["run", "energy"])
    def test_steps_csv_has_one_row_per_level(self, command, tmp_path, capsys):
        code = main([
            command, "--mesh.nx", "4", "--mesh.ny", "4",
            "--time.dt", "0.05", "--time.T", "0.2",
            "--output.dir", str(tmp_path / "out"),
        ])
        assert code == 0
        lines = (tmp_path / "out" / "steps.csv").read_text().splitlines()
        assert lines[0] == "level,t,cg_iterations,cg_residual,defect_norm,energy,rel_drift,err_u,err_p"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3, 4]
        assert rows[0][2:7] == ["", "", "", "", ""]  # no solve and no energy sample before level 1
        summary = (tmp_path / "out" / "summary.txt").read_text()
        total = int(re.search(r"cg_iterations total = (\d+)", summary).group(1))
        assert sum(int(r[2]) for r in rows[1:]) == total
        assert all(0.0 <= float(r[3]) <= cli.RunConfig.tol * float(r[4]) for r in rows[1:])
        energy = (tmp_path / "out" / "energy.csv").read_text().splitlines()[1:]
        assert [r[5:7] for r in rows[1:]] == [line.split(",")[2:4] for line in energy]

    @pytest.mark.parametrize("command", ["run", "energy"])
    @pytest.mark.parametrize("args, choice", [
        (["--scheme.theta", "1", "--mesh.nx", "32", "--mesh.ny", "32", "--time.dt", "0.25", "--time.T", "1"],
         r"multigrid, kappa = 1\.52e\+03 >= 500; CG starts from the projection on up to \d+ increments"),
        ([], r"jacobi, kappa = 0\.0911 < 500"),  # the default input
    ])
    def test_summary_names_the_preconditioner(self, command, args, choice, tmp_path, capsys):
        assert main([command, *args, "--output.dir", str(tmp_path / "out")]) == 0
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        lines = [line for line in summary if line.startswith("preconditioner = ")]
        assert len(lines) == 1 and re.fullmatch("preconditioner = " + choice, lines[0])

    @pytest.mark.parametrize("command", ["run", "energy"])
    @pytest.mark.parametrize("args", [
        ["--time.dt", "1e150", "--time.T", "1e150", "--mesh.nx", "64", "--mesh.ny", "64"],
        ["--scheme.theta", "1", "--time.dt", "1e153", "--time.T", "1e153", "--mesh.nx", "8", "--mesh.ny", "8"],
    ])
    def test_a_dt_whose_products_overflow_is_a_usage_error(self, command, args, tmp_path, capsys):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, *args, "--output.dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'time.dt'" in err and "Warning" not in err
        assert not out.exists()

    def test_usage_error_exit_code(self, tmp_path, capsys, monkeypatch):
        assert main([]) == 2
        assert main(["energy", "--scheme.thetta", "0.2"]) == 2
        assert main(["energy", "--config", "/nonexistent/path.cfg"]) == 2
        assert main(["energy", "--time.dt", "0.3", "--time.T", "1.0"]) == 2
        capsys.readouterr()

        # meshes a study cannot use: no free velocity dof, or one element wide
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "run", no_run)
        monkeypatch.setattr(verify, "run", no_run)
        out = str(tmp_path / "out")
        for command, nx, ny, cause in [
            ("estimate-c0", 1, 1, "no free velocity dof"),
            ("stability", 1, 1, "no free velocity dof"),
            ("energy", 1, 8, "one element wide"),
            ("stability", 1, 8, "one element wide"),
            ("stability", 8, 1, "one element wide"),
        ]:
            assert main([command, "--mesh.nx", str(nx), "--mesh.ny", str(ny), "--output.dir", out]) == 2
            err = capsys.readouterr().err
            assert "'mesh.nx'" in err and "'mesh.ny'" in err and cause in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("omega", ["nan", "inf", "-inf", "1e200", "1e154"])
    def test_non_finite_omega_is_a_usage_error(self, omega, tmp_path, capsys):
        # at 1e154 omega^2 is finite, but the residual check overflows to NaN
        code = main(["run", "--problem.case", f"forced:{omega}", "--output.dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid value for 'problem.case'" in err
        assert "Warning" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("solver.tol", "inf"), ("time.T", "inf"), ("time.dt", "1e-320")])
    def test_non_finite_or_overflowing_float_is_a_usage_error(self, key, value, tmp_path, capsys):
        # T / dt overflows for dt = 1e-320, as it is infinite for T = inf
        code = main(["run", f"--{key}", value, "--output.dir", str(tmp_path / "out")])
        assert code == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dt, T", [("1e200", "1e200"), ("1e-300", "1.0")])
    def test_time_inputs_that_cannot_run_are_usage_errors(self, dt, T, tmp_path, capsys, monkeypatch):
        # dt^2 overflows, or T / dt is about 1e300 steps
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "run", no_run)
        code = main(["run", "--time.dt", dt, "--time.T", T, "--output.dir", str(tmp_path / "out")])
        assert code == 2
        assert "'time.dt'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_converge_levels_that_cannot_run_are_usage_errors(self, tmp_path, capsys, monkeypatch):
        # nx 8, 16 and 32 could run; nx 64 needs 18.1 M steps, above the cap
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(verify, "run", no_run)
        code = main(["converge", "--mesh.nx", "8", "--time.T", "1e5", "--output.dir", str(tmp_path / "out")])
        assert code == 2
        assert "'time.T'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_blown_up_level_has_its_errors(self, tmp_path, capsys):
        code = main([
            "energy", "--scheme.theta", "0", "--time.dt", "0.125", "--time.T", "5.0",
            "--output.dir", str(tmp_path / "out"),
        ])
        assert code == 1
        lines = (tmp_path / "out" / "steps.csv").read_text().splitlines()
        assert lines[0].endswith(",err_u,err_p")
        assert len(lines) < 42  # blew up before the last of the 40 levels
        assert all(cell != "" for cell in lines[-1].split(","))

    def test_removed_workers_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("parallel.workers = 2\n")
        assert main(["stability", "--config", str(cfg)]) == 2
        assert "unknown key 'parallel.workers'" in capsys.readouterr().err

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_estimate_c0(self, tmp_path, capsys):
        code = main([
            "estimate-c0", "--mesh.nx", "4", "--mesh.ny", "4",
            "--scheme.theta", "0",
            "--output.dir", str(tmp_path / "out"),
        ])
        assert code == 0
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "C0 = " in summary and "dt_max" in summary

    def test_stability_sweep_rows(self, tmp_path):
        code = main([
            "stability", "--scheme.theta", "0", "--mesh.nx", "16", "--mesh.ny", "16",
            "--output.dir", str(tmp_path / "out"),
        ])
        assert code == 0
        lines = (tmp_path / "out" / "stability.csv").read_text().splitlines()
        assert lines[0] == "theta,dt,dt_over_dtmax,status,final_energy"
        rows = [line.split(",") for line in lines[1:]]
        ratios = [float(r[2]) for r in rows]
        assert ratios == pytest.approx([0.5, 0.9, 0.99, 1.5])
        statuses = [r[3] for r in rows]
        assert statuses[:3] == ["Stable"] * 3 and statuses[3] == "BlowUp"

    def test_converge_blank_first_rate_and_recomputable(self, tmp_path):
        code = main([
            "converge", "--mesh.nx", "4", "--time.T", "0.25",
            "--output.dir", str(tmp_path / "out"),
        ])
        assert code == 0
        lines = (tmp_path / "out" / "converge.csv").read_text().splitlines()
        assert lines[0] == "nx,h,dt,err_u,err_p,rate_u,rate_p"
        first = lines[1].split(",")
        assert first[5] == "" and first[6] == ""
        # rates must be reproducible bit-for-bit from the emitted numbers
        hs = [float(line.split(",")[1]) for line in lines[1:]]
        eu = [float(line.split(",")[3]) for line in lines[1:]]
        ep = [float(line.split(",")[4]) for line in lines[1:]]
        ru = observed_rates(hs, eu)
        rp = observed_rates(hs, ep)
        for k, line in enumerate(lines[2:], start=1):
            cells = line.split(",")
            assert float(cells[5]) == ru[k]
            assert float(cells[6]) == rp[k]

    def test_unreachable_solver_tolerance_fails_fast_naming_it(self, tmp_path, capsys):
        # the true residual stalls near 6e-15 of the defect from iteration 9 on
        code = main([
            "run", "--scheme.theta", "1", "--mesh.nx", "32", "--mesh.ny", "32",
            "--time.dt", "0.25", "--time.T", "1", "--solver.tol", "5e-15",
            "--output.dir", str(tmp_path / "out"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 'solver.tol' = 5e-15: CG stagnated at relative residual")
        assert int(re.search(r"in iteration (\d+)", err).group(1)) <= 20

    def test_tolerance_below_the_smallest_double_names_it_not_the_matrix(self, tmp_path, capsys):
        # p . Mp falls below the normal doubles before the residual can reach 1e-300 of the defect
        code = main([
            "run", "--scheme.theta", "1", "--mesh.nx", "32", "--mesh.ny", "32",
            "--time.dt", "0.25", "--time.T", "1", "--solver.tol", "1e-300",
            "--output.dir", str(tmp_path / "out"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert re.match(
            r"error: 'solver.tol' = 1e-300: CG's search direction underflowed at relative residual \S+ "
            r"in iteration \d+, above the tolerance 1e-300", err
        )
        assert "not SPD" not in err

    def test_run_without_free_velocity_dofs(self, tmp_path):
        # nx = ny = 1 with u.n = 0 on every side pins all 4 edges
        code = main(["run", "--mesh.nx", "1", "--mesh.ny", "1", "--output.dir", str(tmp_path / "out")])
        assert code == 0

    def test_io_failure_names_the_path(self, tmp_path, capsys):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("occupied")
        code = main([
            "energy", "--mesh.nx", "4", "--mesh.ny", "4",
            "--time.dt", "0.05", "--time.T", "0.25",
            "--output.dir", str(blocker),
        ])
        assert code == 1
        assert "not_a_dir" in capsys.readouterr().err

    def test_identical_config_gives_bit_identical_csv(self, tmp_path):
        args = [
            "energy", "--mesh.nx", "4", "--mesh.ny", "4",
            "--time.dt", "0.05", "--time.T", "0.25",
        ]
        assert main(args + ["--output.dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--output.dir", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "energy.csv").read_bytes()
        b = (tmp_path / "b" / "energy.csv").read_bytes()
        assert a == b


# Valid values start only short work: nx <= 8 and at most 20 steps for run
# and energy (T <= 0.5 at dt >= 0.05, or the default T = 1 at dt = 1/128 or
# >= 0.05). Invalid time inputs are too large to run at all. JUNK holds no
# digit and none of the letters of "nan" or "inf", so it never parses as a number.
SIZE = st.integers(1, 8).map(str)
VALID = {
    "mesh.nx": SIZE,
    "mesh.ny": SIZE,
    "scheme.theta": st.sampled_from(["0", "0.1", "0.25", "1"]) | st.floats(0.0, 1.0).map(repr),
    "time.dt": st.sampled_from(["0.05", "0.1", "0.125", "0.25"]),
    "time.T": st.sampled_from(["0.25", "0.5"]),
    "problem.case": st.sampled_from(["standing-wave", "forced:1", "forced:0", "forced:3.5"]),
    "solver.tol": st.sampled_from(["1e-12", "1e-6", "1e-300"]),
    "solver.max_iter": st.sampled_from(["0", "1", "5"]),
}
INVALID = {
    "mesh.nx": ["0", "-3", "2.5", "9e99"],
    "mesh.ny": ["0", "-3", "2.5", "9e99"],
    "scheme.theta": ["1.5", "-0.1", "nan"],
    "time.dt": ["0", "-1", "0.3", "1e-320", "1e200", "inf"],
    "time.T": ["0", "-1", "nan", "inf", "1e300"],
    "problem.case": ["forced:1e154", "forced:1e200", "forced:nan", "forced:-1", "forced:", "wave"],
    "solver.tol": ["0", "-1", "inf"],
    "solver.max_iter": ["-1", "2.5"],
}
JUNK = st.text(alphabet="abcxyz:=#-_. ", max_size=8)
CLI_TIME_BOUND = 20.0  # seconds; the slowest draws (8x8 stability, converge from nx 8) take under 1 s


@st.composite
def cli_argv(draw):
    """A command and --key value pairs, valid or with one fault of a kind the CLI must report."""
    argv = [draw(st.sampled_from(cli.COMMANDS + cli.COMMANDS + ("plot", "", "--help")))]
    optional = [key for key in VALID if not key.startswith("mesh.")]
    keys = ["mesh.nx", "mesh.ny"] + draw(st.lists(st.sampled_from(optional), max_size=4, unique=True))
    pairs = {key: draw(VALID[key]) for key in keys}
    fault = draw(st.sampled_from(["none", "none", "none", "value", "junk", "key", "stray", "config"]))
    if fault in ("value", "junk"):
        key = draw(st.sampled_from(keys))
        pairs[key] = draw(st.sampled_from(INVALID[key]) if fault == "value" else JUNK)
    elif fault == "key":
        pairs[draw(JUNK)] = draw(JUNK)
    elif fault == "config":
        pairs["config"] = "missing.cfg"
    for key, value in pairs.items():
        argv += [f"--{key}", value]
    if fault == "stray":
        argv.insert(draw(st.integers(1, len(argv))), draw(JUNK))
    return argv


@settings(max_examples=60, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cli_argv())
def test_cli_exits_with_a_documented_code_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy overflow and invalid-value warnings
        os.chdir(tmp)  # reports go to the default ./out, or a stray token's directory, in here
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
        elapsed = time.perf_counter() - start
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert elapsed < CLI_TIME_BOUND
