import argparse
import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import koopman_lab
from koopman_lab import carleman, cli, fermion, nip, population, rsep, spectral


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def system_config(tmp_path, fermion_system_dict):
    """Writes the config {"system": commuting N-mode system, **extra} and
    returns its path."""
    def write(N, omegas, gammas, **extra):
        sys_ = fermion.FermionSystem(
            N, *fermion.commuting_example(N, omegas, gammas))
        payload = {"system": fermion_system_dict(sys_), **extra}
        return write_json(tmp_path, "system.json", payload)

    return write


@pytest.fixture()
def fermion_config(system_config):
    return system_config(2, [1.0, 2.0], [0.5, 0.7])


RSEP_POINT = {"d": 4, "beta": 10.0, "gamma": 20.0, "delta": 0.1}


def readme_command_table():
    """{command: (flags, required keys, optional keys)} from the README's
    per-command table, each a set of the backquoted tokens of its cell."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = {}
    for line in readme.read_text().splitlines():
        cells = line.split("|")[1:-1]
        if len(cells) == 4 and cells[0].strip().startswith("`"):
            command, *rest = (set(re.findall(r"`([^`]+)`", cell))
                              for cell in cells)
            table[command.pop()] = tuple(rest)
    return table


README_TABLE = readme_command_table()
# A flag that once set the lifts' DOP853 tolerance, now the constant
# carleman.LIFT_TOL: no command takes it.
RETIRED_FLAGS = ("--tol",)
ALL_FLAGS = sorted(set().union(*(f for f, _, _ in README_TABLE.values()),
                               RETIRED_FLAGS))
# a value each flag's argparse type accepts
FLAG_VALUES = {"--config": "c.json", "--out": "o.csv", "--seed": "1",
               "--threads": "1", "--tol": "1e-10", "--t-end": "0.5",
               "--orders": "2", "--grid": "1:1:1", "--N": "2",
               "--trials": "1"}


def parser_flags():
    """{command: its user-settable flags} of `cli.build_parser()`."""
    parser = cli.build_parser()
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    return {name: {opt for action in p._actions
                   for opt in action.option_strings
                   if opt not in ("-h", "--help")}
            for name, p in sub.choices.items()}


SPECTRAL_MODES = [[0.0, 0.7, 0.6, 0.0], [0.0, -1.3, 0.5, 0.0],
                  [1.0, 0.1, 0.4, 0.0], [2.0, 0.2, 0.3, 0.0],
                  [3.0, 0.3, 0.2, 0.0]]

# Keys that once repeated the flags --t-end and --orders, which alone set a
# run's horizon and orders: no command takes them.
RETIRED_KEYS = ("t_end", "orders", "order")
# Every key some command declares, and the retired ones.
CONFIG_KEYS = sorted(set().union(
    *(c.required + c.optional for c in cli._COMMANDS.values()),
    RETIRED_KEYS))

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def run_python(args, cwd, **env):
    """`python *args` in cwd with the package on PYTHONPATH; `env` entries
    set to None are removed from the environment."""
    src = str(Path(koopman_lab.__file__).resolve().parents[1])
    full = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, value in env.items():
        if value is None:
            full.pop(name, None)
        else:
            full[name] = value
    return subprocess.run([sys.executable, *args], cwd=cwd, env=full,
                          capture_output=True, text=True, timeout=300)


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert cli.run(["frobnicate"]) == cli.EXIT_CONFIG

    def test_unknown_flag(self, capsys):
        code = cli.run(["population-chaos", "--out", "x.csv",
                        "--frobnicate"])
        assert code == cli.EXIT_CONFIG
        assert "--frobnicate" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "bad.json", {"bogus": 1})
        code = cli.run(["population-traj", "--config", cfg,
                        "--out", str(tmp_path / "o.csv")])
        assert code == cli.EXIT_CONFIG
        assert "bogus" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "empty.json", {})
        code = cli.run(["fermion-evolve", "--config", cfg,
                        "--out", str(tmp_path / "o.csv")])
        assert code == cli.EXIT_CONFIG
        assert "system" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = cli.run(["population-traj", "--config", str(path),
                        "--out", str(tmp_path / "o.csv")])
        assert code == cli.EXIT_CONFIG

    def test_numerical_failure_exit(self, tmp_path, capsys):
        # aliased mode frequency -> exit 3
        cfg = write_json(tmp_path, "alias.json",
                         {"modes": [[0.0, 3.3, 1.0, 0.0]], "J": 33,
                          "sigma": 2.0, "dt": 1.0})
        code = cli.run(["spectral-emulate", "--config", cfg,
                        "--out", str(tmp_path / "o.csv")])
        assert code == cli.EXIT_NUMERICAL


    def test_nonpositive_threads_rejected(self, tmp_path, capsys):
        code = cli.run(["population-scan", "--out", str(tmp_path / "o.csv"),
                        "--grid", "1.0:1.0:0.1", "--threads", "0"])
        assert code == cli.EXIT_CONFIG
        assert "--threads" in capsys.readouterr().err

    def test_empty_history_system_is_a_config_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "h.json", {"A": [], "x0": [], "m": 2,
                                              "p": 1, "l": 4, "h": 0.1})
        out = tmp_path / "h.csv"
        code = cli.run(["ode-history", "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        err, = capsys.readouterr().err.strip().splitlines()
        assert err == ("config error: config key 'x0' must be a nonempty "
                       "list and 'A' a square matrix of its size, got "
                       "shapes (0,) and (0,)")
        assert not out.exists()

    def test_overflowing_window_is_refused(self, tmp_path, capsys):
        # I0(pi sigma) overflows: the window used to be NaN on every row
        cfg = write_json(tmp_path, "w.json", {"J": 3, "sigma": 1e308})
        out = tmp_path / "w.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run(["spectral-window", "--config", cfg,
                            "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: bad window parameters: sigma = 1e+308 overflows "
            "the window's I0(pi sigma)\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, payload", [
        ("spectral-emulate",
         {"modes": [[0.0, 0.1, 1.0, 0.0], [1e308, 0.2, 1.0, 0.0]]}),
        ("ode-history",
         {"A": [[-0.3]], "x0": [1e308], "m": 2, "p": 1, "l": 4, "h": 1.0}),
    ])
    def test_huge_values_run_without_warnings_to_finite_output(
            self, tmp_path, capsys, command, payload):
        # a decay rate mu whose mu t overflows warned, though its mode has
        # simply decayed to 0; a history whose squares overflow warned and
        # printed final_error=inf, though the error is finite
        cfg = write_json(tmp_path, "c.json", payload)
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run([command, "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_OK
        printed, err = capsys.readouterr()
        assert err == ""
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        values = [float(v) for row in rows for v in row] + [
            float(v) for v in re.findall(r"=(\S+)", printed)]
        assert values and all(map(np.isfinite, values))
        if command == "ode-history":
            # |T_4(-0.3)^2 - e^-0.6| x0, T_4 the step's Taylor polynomial
            step = sum((-0.3) ** r / np.prod(range(1, r + 1))
                       for r in range(5))
            assert values[-1] == pytest.approx(
                abs(step**2 - np.exp(-0.6)) * 1e308, rel=1e-6)

    def test_amplitudes_whose_norm_overflows_are_normalized(self, tmp_path,
                                                             capsys):
        # the command scales the amplitudes by a power of two before it
        # normalizes them: amplitudes 2^1000 used to overflow |a| with a
        # warning and be refused as not normalized; now they give the
        # bytes of amplitudes 1.  Where the oscillatory modes' squares
        # underflow beside the others, 'modes' is refused.
        outs = []
        for scale in (1.0, 2.0**1000):
            cfg = write_json(tmp_path, "m.json", {"modes": [
                [0.0, 0.1, scale, 0.0], [0.5, 0.2, 0.0, scale]]})
            out = tmp_path / f"m{len(outs)}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.run(["spectral-emulate", "--config", cfg,
                                "--out", str(out)]) == cli.EXIT_OK
            outs.append((out.read_bytes(), capsys.readouterr()))
        assert outs[0] == outs[1] and outs[0][1].err == ""
        cfg = write_json(tmp_path, "u.json", {"modes": [
            [0.0, 0.1, 1.0, 0.0], [0.5, 0.2, 1e308, 1e308]]})
        out = tmp_path / "u.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run(["spectral-emulate", "--config", cfg,
                            "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: config key 'modes' gives the oscillatory modes "
            "amplitudes whose squares, beside the others', underflow to 0\n")
        assert not out.exists()

    def test_a_history_past_the_float_range_is_a_numerical_failure(
            self, tmp_path, capsys):
        # a rotation stepped at Taylor order 1 grows each block by sqrt(2),
        # past the float range from x0 = 1e308
        cfg = write_json(tmp_path, "h.json", {
            "A": [[0, -1], [1, 0]], "x0": [1e308, 1e308], "m": 3, "p": 1,
            "l": 1, "h": 1.0})
        out = tmp_path / "h.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run(["ode-history", "--config", cfg, "--out",
                            str(out)])
        assert code == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: the history system of config key 'x0' "
            "overflows the float range, got [1e+308, 1e+308]\n")
        assert not out.exists()

    @pytest.mark.parametrize("dt", [0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("command", ["spectral-window",
                                         "spectral-emulate",
                                         "spectral-sample"])
    def test_spectral_dt_must_be_finite_and_positive(self, tmp_path, capsys,
                                                     command, dt):
        # dt = 0 used to end in a ZeroDivisionError traceback, and dt = -1
        # to write every omega_hat with its sign flipped
        payload = {"dt": dt}
        if command != "spectral-window":
            payload["modes"] = [[0.5, 0.1, 1.0, 0.0]]
        cfg = write_json(tmp_path, "s.json", payload)
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run([command, "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: config key 'dt' must be finite and positive, "
            f"got {float(dt)!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("dt", [5e-324, 1e-308])
    @pytest.mark.parametrize("command", ["spectral-window",
                                         "spectral-emulate",
                                         "spectral-sample"])
    def test_spectral_dt_must_decode_finite_frequencies(
            self, tmp_path, capsys, command, dt):
        # pi / dt overflows: omega_hat used to be written as +-inf
        payload = {"dt": dt, "J": 5}
        if command != "spectral-window":
            payload["modes"] = [[0.5, 0.1, 1.0, 0.0]]
        cfg = write_json(tmp_path, "s.json", payload)
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run([command, "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: config key 'dt' is so small that the decoded "
            f"frequency pi / dt overflows, got {dt!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("T1", [float("nan"), float("inf"), -1e6])
    @pytest.mark.parametrize("command", ["spectral-emulate",
                                         "spectral-sample"])
    def test_spectral_T1_must_be_finite_and_nonnegative(
            self, tmp_path, capsys, command, T1):
        # T1 = nan used to write p_emulated = nan on every row, with
        # RuntimeWarnings, or to be refused under numpy's name 'pvals'
        cfg = write_json(tmp_path, "s.json", {
            "modes": SPECTRAL_MODES, "J": 33, "T1": T1, "n_samples": 100})
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run([command, "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: config key 'T1' must be finite and nonnegative, "
            f"got {T1!r}\n")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("command", ["population-scan", "population-traj",
                                         "population-chaos", "carleman-error",
                                         "nip-error"])
    def test_non_finite_population_names_the_key(self, tmp_path, capsys,
                                                 command, value):
        # a NaN entry used to end in exit 3 with a step of nan
        if command == "population-scan":
            payload, argv = {"x1": value}, ["--grid", "1:1:1"]
            want = f"config key 'x1' must be finite, got {value!r}"
        else:
            payload, argv = {"x0": [1.0, value, 1.0]}, []
            want = (f"config key 'x0' must hold finite numbers, got "
                    f"{payload['x0']!r}")
        cfg = write_json(tmp_path, "x.json", payload)
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run([command, "--config", cfg, *argv,
                            "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {want}\n"
        assert not out.exists()

    @pytest.mark.parametrize("theta", [1e308, -3.1416, float("nan"),
                                       float("-inf")])
    def test_window_theta_must_be_a_decoded_phase(self, tmp_path, capsys,
                                                  theta):
        # theta = 1e308 used to write p = nan on every row, with a
        # RuntimeWarning
        cfg = write_json(tmp_path, "w.json", {"theta": theta})
        out = tmp_path / "w.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run(["spectral-window", "--config", cfg,
                            "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: config key 'theta' must lie in [-pi, pi], got "
            f"{theta!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("theta", [-np.pi, np.pi])
    def test_window_theta_at_the_interval_ends_runs(self, tmp_path, theta):
        cfg = write_json(tmp_path, "w.json", {"J": 5, "theta": theta})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run(["spectral-window", "--config", cfg, "--out",
                            str(tmp_path / "w.csv")]) == cli.EXIT_OK

    def test_chaos_horizon_checked_before_the_flow(self, tmp_path, capsys,
                                                   monkeypatch):
        calls = []

        def stub(model, x0, t_end):
            calls.append(t_end)
            raise cli.NumericalError("stub flow")

        monkeypatch.setattr(population, "chaos_demo", stub)
        out = tmp_path / "c.csv"
        bound = float(cli.MAX_CHAOS_T_END)
        above = float(np.nextafter(bound, np.inf))
        for t_end, want in ((above, cli.EXIT_CONFIG),
                            (bound, cli.EXIT_NUMERICAL)):
            assert cli.run(["population-chaos", "--t-end", repr(t_end),
                            "--out", str(out)]) == want
        assert capsys.readouterr().err.splitlines()[0] == (
            f"config error: flag --t-end must be <= {cli.MAX_CHAOS_T_END} "
            f"for population-chaos, got {above!r}")
        # the bound itself reaches the flow
        assert calls == [bound]
        assert not out.exists()

    def test_zero_population_is_a_config_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "zero.json", {"x0": [0.0, 1.0, 1.0]})
        code = cli.run(["population-traj", "--config", cfg, "--orders", "2",
                        "--t-end", "0.02", "--out", str(tmp_path / "o.csv")])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: config key 'x0': populations must be positive "
            "for the mode map, got [0.0, 1.0, 1.0]\n")

    @pytest.mark.parametrize("value", [1e308, 2e9])
    @pytest.mark.parametrize("command", ["population-scan", "population-traj",
                                         "population-chaos", "carleman-error",
                                         "nip-error"])
    def test_population_at_the_pole_names_the_key(self, tmp_path, capsys,
                                                  command, value):
        # X_i / x_i below nip.POLE_TOL puts eta on the pole -1: chaos used
        # to end in an IndexError traceback, nip-error and the scan to exit
        # 0 over an inf row, carleman-error to name the integrator's y0
        if command == "population-scan":
            payload, argv, got = {"x1": value}, ["--grid", "1:1:1"], value
            key = "x1"
        else:
            payload, argv = {"x0": [value, 1.4, 1.4]}, []
            key, got = "x0", payload["x0"]
        cfg = write_json(tmp_path, "x.json", payload)
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run([command, "--config", cfg, *argv,
                            "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: config key '{key}': populations must satisfy "
            f"X_i / x_i >= POLE_TOL = 1e-09, off the mode map's pole, got "
            f"{got!r}\n")
        assert captured.out == "" and not out.exists()

    def test_sample_count_past_int64_is_refused(self, tmp_path, capsys):
        # numpy's multinomial draw used to end in an OverflowError traceback
        limit = np.iinfo(np.int64).max
        cfg = write_json(tmp_path, "s.json", {
            "modes": [[0.5, 0.1, 1.0, 0.0]], "n_samples": limit + 1})
        out = tmp_path / "s.csv"
        code = cli.run(["spectral-sample", "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: config key 'n_samples' must be an integer >= 0 "
            f"and <= {limit}, got {limit + 1}\n")
        assert not out.exists()

    @pytest.mark.parametrize("h", [float("nan"), -5.0, 0.0, float("inf")])
    def test_history_step_must_be_finite_and_positive(self, tmp_path,
                                                      capsys, h):
        # NaN used to end in LAPACK's "SVD did not converge" and -5 in an
        # "unstable Taylor propagator", both exit 3
        cfg = write_json(tmp_path, "h.json",
                         {"A": [[-0.3, 0.0], [0.0, -0.1]], "x0": [1.0, 0.5],
                          "m": 6, "p": 3, "l": 8, "h": h})
        out = tmp_path / "h.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run(["ode-history", "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: config key 'h' must be finite and positive, got "
            f"{h!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("grid, cause", [
        ("0:100:1e-4", "more than 1000 points"),
        ("0:1e308:1e-308", "more than 1000 points"),
        ("nan:1:0.1", "finite"),
        ("0:inf:0.1", "finite"),
        ("0:1:nan", "finite"),
    ])
    def test_grid_size_checked_before_allocating(self, tmp_path, capsys,
                                                 monkeypatch, grid, cause):
        def fail(*args, **kwargs):
            raise AssertionError("grid allocated")

        monkeypatch.setattr(np, "arange", fail)
        out = tmp_path / "o.csv"
        code = cli.run(["population-scan", "--out", str(out),
                        "--grid", grid])
        assert code == cli.EXIT_CONFIG
        err, = capsys.readouterr().err.strip().splitlines()
        assert err.startswith("config error: flag --grid") and cause in err
        assert not out.exists()

    def test_largest_grid_passes_the_size_check(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID_CELLS", 9)
        assert cli._parse_grid("1:1.2:0.1").size == 3
        with pytest.raises(cli.ConfigError, match="--grid"):
            cli._parse_grid("1:1.3:0.1")

    def test_grid_points_are_counted(self):
        # at 1e8, HI + 1e-9 STEP rounds to HI: the last point must still
        # count; small grids keep np.arange's values to the bit
        assert cli._parse_grid("1e8:1e8:1").tolist() == [1e8]
        assert cli._parse_grid("1e8:100000002:1").tolist() == [
            1e8, 1e8 + 1, 1e8 + 2]
        # 1e8 + 1e-9 rounds to 1e8: fifteen cells of one value
        with pytest.raises(cli.ConfigError, match="--grid .* repeats"):
            cli._parse_grid("1e8:100000000.00000001:1e-9")
        for lo, hi, step in [(1.0, 1.35, 0.05), (1.3, 1.45, 0.05),
                             (1.4, 1.4, 0.05), (0.5, 2.0, 0.05),
                             (0.95, 1.05, 0.1), (1.0, 1.5, 0.5)]:
            want = np.arange(lo, hi + 1e-9 * step, step)
            got = cli._parse_grid(f"{lo}:{hi}:{step}")
            assert got.tobytes() == want.tobytes()

    def test_one_point_grid_at_a_large_population(self, tmp_path):
        out = tmp_path / "o.csv"
        assert cli.run(["population-scan", "--out", str(out),
                        "--grid", "1e8:1e8:1"]) == cli.EXIT_OK
        header, row = out.read_text().splitlines()
        assert header.startswith("x2,x3,carleman_verdict,nip_verdict")
        assert row.split(",")[:4] == ["100000000", "100000000", "diverged",
                                      "converged"]

    @pytest.mark.parametrize("grid, cause", [
        ("0:0:1", "must be positive"),
        ("0:1:0.5", "must be positive"),
        ("2e9:2e9:1e9", "pole"),
        ("1:2e9:1e9", "pole"),
    ])
    def test_grid_population_the_mode_map_refuses_names_the_flag(
            self, tmp_path, capsys, grid, cause):
        out = tmp_path / "o.csv"
        code = cli.run(["population-scan", "--out", str(out),
                        "--grid", grid])
        assert code == cli.EXIT_CONFIG
        err, = capsys.readouterr().err.strip().splitlines()
        assert err.startswith("config error: flag --grid: ") and cause in err
        assert err.endswith(f"got {grid!r}")
        assert not out.exists()

    def test_history_order_checked_before_allocating(self, tmp_path,
                                                     capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("history matrix allocated")

        monkeypatch.setattr(np, "eye", fail)
        cfg = write_json(tmp_path, "h.json",
                         {"A": [[-0.3, 0.0], [0.0, -0.1]], "x0": [1.0, 0.5],
                          "m": 10**12, "p": 1, "l": 6, "h": 0.05})
        out = tmp_path / "h.csv"
        code = cli.run(["ode-history", "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        err, = capsys.readouterr().err.strip().splitlines()
        assert err == ("config error: config keys 'm', 'p' and 'x0' give a "
                       "history system of order (1000000000000 + 1) * 2, "
                       "above 2000")
        assert not out.exists()

    def test_history_taylor_order_checked_before_the_propagator(
            self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("Taylor propagator built")

        monkeypatch.setattr(spectral, "taylor_propagator", fail)
        cfg = write_json(tmp_path, "h.json",
                         {"A": [[-0.3, 0.0], [0.0, -0.1]], "x0": [1.0, 0.5],
                          "m": 6, "p": 3, "l": cli.MAX_TAYLOR_ORDER + 1,
                          "h": 0.05})
        out = tmp_path / "h.csv"
        code = cli.run(["ode-history", "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        err, = capsys.readouterr().err.strip().splitlines()
        assert err == ("config error: config key 'l' must be an integer >= 1 "
                       f"and <= {cli.MAX_TAYLOR_ORDER}, got "
                       f"{cli.MAX_TAYLOR_ORDER + 1}")
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value, minimum, bound, builder", [
        ("fermion-heat", "samples", 10**13, 2, "MAX_HEAT_SAMPLES",
         (np, "linspace")),
        ("rsep-sweep", "d", 10**6, 3, "MAX_RSEP_DIM",
         (rsep, "haar_unitary")),
        ("spectral-window", "J", 10**13 + 1, 3, "MAX_WINDOW_J",
         (spectral, "kaiser_window")),
    ])
    def test_size_keys_checked_before_allocating(
            self, tmp_path, capsys, monkeypatch, command, key, value,
            minimum, bound, builder, system_config):
        def fail(*args, **kwargs):
            raise AssertionError(f"{builder[1]} called")

        monkeypatch.setattr(*builder, fail)
        if command == "fermion-heat":
            cfg = system_config(2, [1.0, 2.0], [0.5, 0.7], **{key: value})
        elif command == "rsep-sweep":
            cfg = write_json(tmp_path, "r.json", {"points": [
                RSEP_POINT | {key: value, "seed": 1}]})
            key = f"points.{key}"
        else:
            cfg = write_json(tmp_path, "w.json", {key: value})
        out = tmp_path / "o.csv"
        code = cli.run([command, "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        err, = capsys.readouterr().err.strip().splitlines()
        limit = getattr(cli, bound)
        assert err == (f"config error: config key '{key}' must be an "
                       f"integer >= {minimum} and <= {limit}, got {value}")
        assert not out.exists()

    @pytest.mark.parametrize("grid, t_end, cells", [
        ("0.5:3.0:0.05", "300", 51**2),
        ("1:1000:1", "0.5", 1000**2),
        ("0.5:1.999:0.0015", "0.1", 1000**2),
    ])
    def test_scan_work_checked_before_any_flow(
            self, tmp_path, capsys, monkeypatch, grid, t_end, cells):
        # the last, 10^6 cells at the default --t-end, takes about 3.5 min
        def fail(*args, **kwargs):
            raise AssertionError("a flow ran")

        monkeypatch.setattr(population, "convergence_scan", fail)
        out = tmp_path / "o.csv"
        code = cli.run(["population-scan", "--out", str(out), "--grid", grid,
                        "--t-end", t_end])
        assert code == cli.EXIT_CONFIG
        err, = capsys.readouterr().err.strip().splitlines()
        seconds = cli._lift_seconds(3, nip.ROUTES, population.DEFAULT_ORDERS,
                                    float(t_end), cells)
        assert seconds > cli.MAX_LIFT_SECONDS
        assert err == (f"config error: flags --grid, --orders and --t-end ask "
                       f"for {cells} cells at orders 1 3 and t_end "
                       f"{float(t_end)!r}, about {seconds:.3g} s, above "
                       f"{cli.MAX_LIFT_SECONDS} s")
        assert not out.exists()

    def test_scan_work_bound_admits_the_default_grid(self, tmp_path,
                                                      monkeypatch):
        # the default 31 x 31 grid at the scan's largest --t-end reaches
        # the flow; a small grid at the bound runs, one past it does not
        seen = []

        def record(model, **kwargs):
            seen.append(kwargs)
            raise cli.NumericalError("recorded")

        monkeypatch.setattr(population, "convergence_scan", record)
        out = str(tmp_path / "o.csv")
        largest = cli._COMMANDS["population-scan"].max_t_end
        assert cli.run(["population-scan", "--out", out, "--t-end",
                        str(largest)]) == cli.EXIT_NUMERICAL
        axis = np.arange(0.5, 2.0 + 1e-9, 0.05)
        assert seen[0]["x2_range"].tobytes() == axis.tobytes()
        assert seen[0]["t_end"] == largest
        assert cli._lift_seconds(3, nip.ROUTES, population.DEFAULT_ORDERS,
                                 largest, axis.size**2) \
            <= cli.MAX_LIFT_SECONDS
        monkeypatch.setattr(cli, "MAX_LIFT_SECONDS", cli._lift_seconds(
            3, nip.ROUTES, population.DEFAULT_ORDERS, 0.25, 4))
        for t_end, want in (("0.25", cli.EXIT_NUMERICAL),
                            ("0.5", cli.EXIT_CONFIG)):
            assert cli.run(["population-scan", "--out", out, "--grid",
                            "1:1.1:0.1", "--t-end", t_end]) == want
        assert len(seen) == 2

    def test_dop853_scan_work_checked_before_any_flow(self, tmp_path,
                                                      capsys, monkeypatch):
        # an order whose lifts are integrated by DOP853 weighs on the
        # estimate: the default grid at --orders 2 8 reaches the flow, a
        # larger grid, a longer horizon or the top orders are refused
        # before it, and the larger grid at the top exactly stepped orders
        # is not
        seen = []

        def record(model, **kwargs):
            seen.append(kwargs["orders"])
            raise cli.NumericalError("recorded")

        monkeypatch.setattr(population, "convergence_scan", record)
        out = tmp_path / "o.csv"
        base = ["population-scan", "--out", str(out)]
        assert not carleman.steps_exactly(3, 8) \
            and carleman.steps_exactly(3, 7)
        assert cli.run(base + ["--orders", "2", "8"]) == cli.EXIT_NUMERICAL
        capsys.readouterr()
        for extra, cells, orders, t_end in (
                (["--grid", "0.5:2.0:0.02"], 76**2, (2, 8), 0.1),
                (["--t-end", "2"], 961, (2, 8), 2.0),
                ([], 961, (15, 16), 0.1)):
            assert cli.run(base + extra + ["--orders", *map(str, orders)]) \
                == cli.EXIT_CONFIG
            err, = capsys.readouterr().err.strip().splitlines()
            seconds = cli._lift_seconds(3, nip.ROUTES, orders, t_end, cells)
            assert seconds > cli.MAX_LIFT_SECONDS
            assert err == (
                f"config error: flags --grid, --orders and --t-end ask for "
                f"{cells} cells at orders {orders[0]} {orders[1]} and t_end "
                f"{t_end!r}, about {seconds:.3g} s, above "
                f"{cli.MAX_LIFT_SECONDS} s")
        assert cli.run(base + ["--grid", "0.5:2.0:0.02", "--orders", "6",
                               "7"]) == cli.EXIT_NUMERICAL
        assert seen == [(2, 8), (6, 7)]
        assert not out.exists()

    @pytest.mark.parametrize("command, flow, refused, admitted", [
        ("population-scan", (population, "convergence_scan"),
         ["--grid", "1.4:1.4:0.05", "--orders", "15", "16", "--t-end", "100"],
         ["--grid", "1.4:1.4:0.05", "--orders", "15", "16", "--t-end", "1"]),
        ("population-traj", (population, "trajectory_compare"),
         ["--orders", "16", "--t-end", "100"],
         ["--orders", "16", "--t-end", "10"]),
        ("carleman-error", (nip, "reference_y_trajectory"),
         ["--orders", "16", "--t-end", "100"],
         ["--orders", "16", "--t-end", "10"]),
        ("nip-error", (nip, "reference_y_trajectory"),
         ["--orders", "16", "16", "16", "--t-end", "100"],
         ["--orders", "16", "--t-end", "100"]),
    ])
    def test_lift_work_of_each_command_checked_before_any_flow(
            self, tmp_path, capsys, monkeypatch, command, flow, refused,
            admitted):
        # every lift command is estimated on its own routes and every order
        # given, each repeat of an order a run of its own; one above the
        # bound is refused before any flow, naming its flags
        def record(*args, **kwargs):
            raise cli.NumericalError("recorded")

        monkeypatch.setattr(*flow, record)
        out = tmp_path / "o.csv"
        base = [command, "--out", str(out)]
        assert cli.run(base + refused) == cli.EXIT_CONFIG
        err, = capsys.readouterr().err.strip().splitlines()
        assert err.startswith("config error: flags ")
        assert "--orders" in err and "--t-end" in err
        assert f"above {cli.MAX_LIFT_SECONDS} s" in err
        assert cli.run(base + admitted) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == "numerical failure: recorded\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, timed", [
        # seconds of `cli.run` in one process, 2 cores, one BLAS thread
        (["population-scan", "--grid", "1.4:1.4:0.05", "--t-end", "300"],
         0.85),
        (["population-scan", "--grid", "0.5:2.0:0.015"], 2.04),
        (["population-scan", "--grid", "0.5:1.985:0.015", "--t-end", "1"],
         4.68),
        (["population-scan", "--orders", "2", "5"], 0.244),
        (["population-scan", "--orders", "6", "7"], 0.629),
        (["population-traj", "--t-end", "1000"], 2.93),
        (["carleman-error", "--orders", "10", "--t-end", "300"], 55.9),
        (["carleman-error", "--orders", "16", "--t-end", "100"], 199.0),
        (["carleman-error", "--t-end", "100"], 0.253),
        (["nip-error", "--orders", "16", "--t-end", "100"], 24.1),
        (["nip-error", "--orders", "5", "--t-end", "1000"], 2.23),
        (["nip-error", "--orders", "7", "--t-end", "1000"], 2.04),
    ])
    def test_lift_work_estimate_covers_the_timed_runs(self, argv, timed):
        # no estimate falls below a timed run by more than a factor of 2
        args = cli.build_parser().parse_args(argv + ["--out", "o.csv"])
        cells, routes = 1, nip.ROUTES
        if argv[0] == "population-scan":
            cells = cli._parse_grid(args.grid).size**2
        elif argv[0] != "population-traj":
            routes = ("vacancy",) if argv[0] == "carleman-error" else ("mode",)
        estimate = cli._lift_seconds(3, routes, args.orders, args.t_end, cells)
        assert timed / 2 <= estimate <= 5 * timed

    @pytest.mark.parametrize("t_end, admitted", [("1", 100), ("0", 106),
                                                 ("1000", 1)])
    def test_sweep_work_checked_before_any_flow(
            self, tmp_path, capsys, monkeypatch, t_end, admitted):
        # points x (t_end + 15) up to MAX_RSEP_WORK reach the flows; one
        # more point is refused before any runs
        swept = []
        monkeypatch.setattr(rsep, "sweep", lambda params, t_end:
                            swept.append(len(params)) or [])
        codes = []
        for count in (admitted, admitted + 1):
            cfg = write_json(tmp_path, "r.json",
                             {"points": [RSEP_POINT] * count})
            codes.append(cli.run(["rsep-sweep", "--config", cfg, "--out",
                                  str(tmp_path / f"{count}.csv"),
                                  "--t-end", t_end]))
        assert codes == [cli.EXIT_OK, cli.EXIT_CONFIG]
        assert swept == [admitted]
        work = (admitted + 1) * (float(t_end) + 15)
        assert capsys.readouterr().err == (
            f"config error: config key 'points' and flag --t-end ask for "
            f"{admitted + 1} points x (t_end {float(t_end)!r} + 15) = "
            f"{work:.6g}, above {cli.MAX_RSEP_WORK}\n")

    def test_size_bounds_admit_the_largest_sizes(self, tmp_path):
        # the sizes the examples and the benchmark use are admitted, and a
        # window at the bound itself runs
        assert cli.MAX_HEAT_SAMPLES >= 129
        assert cli.MAX_RSEP_DIM >= 5
        assert cli.MAX_WINDOW_J >= 401 and cli.MAX_WINDOW_J % 2 == 1
        cfg = write_json(tmp_path, "w.json", {"J": cli.MAX_WINDOW_J})
        assert cli.run(["spectral-window", "--config", cfg,
                        "--out", str(tmp_path / "w.csv")]) == cli.EXIT_OK

    @pytest.mark.parametrize("command, want", [
        ("population-scan", "3 populations"),
        ("population-chaos", "at least 3 populations"),
    ])
    def test_model_dimension_names_the_key(self, tmp_path, capsys, command,
                                           want):
        cfg = write_json(tmp_path, "m.json", {"model": {
            "r": [1.0, 2.0], "X": [1.0, 1.0], "J": [[0, 0, 1, 0.5]]}})
        out = tmp_path / "o.csv"
        code = cli.run([command, "--config", cfg, "--out", str(out),
                        "--t-end", "0.01"])
        assert code == cli.EXIT_CONFIG
        err, = capsys.readouterr().err.strip().splitlines()
        assert err == (f"config error: config key 'model' must have {want} "
                       f"for {command}, got 2")
        assert not out.exists()

    @pytest.mark.parametrize("entry, cause", [
        ([1, 0, 5, 0.5], "column 5 out of range for dim 2"),
        ([-1, 0, 1, 0.5], "row -1 out of range for dim 2"),
        ([0, 10**26, 0, 0.5], f"index {10**26} out of range for dim 2"),
        ([0, 0, float("inf"), 0.5], "cannot convert float infinity to "
                                    "integer"),
    ])
    def test_model_index_out_of_range_is_named(self, tmp_path, capsys,
                                               entry, cause):
        cfg = write_json(tmp_path, "m.json", {"model": {
            "r": [1.0, 2.0], "X": [1.0, 1.0],
            "J": [[0, 0, 1, 0.5], entry]}, "x0": [1.0, 1.0]})
        out = tmp_path / "e.csv"
        code = cli.run(["nip-error", "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: bad 'model' entry: {cause}\n")
        assert not out.exists()

    # t_end and order are no command's keys: they are refused as unknown
    @pytest.mark.parametrize("command, payload, key", [
        ("population-scan", {"x1": [1]}, "x1"),
        ("population-scan", {"t_end": "a"}, "t_end"),
        ("population-traj", {"order": [2]}, "order"),
        ("population-traj", {"t_end": None}, "t_end"),
        ("population-chaos", {"t_end": -1.0}, "t_end"),
        ("spectral-window", {"theta": [0.4]}, "theta"),
        ("fermion-evolve", {"gamma0": [[None]]}, "gamma0"),
        ("rsep-sweep", {"points": 5}, "points"),
        ("rsep-sweep", {"points": [5]}, "points"),
        ("rsep-sweep", {"points": [RSEP_POINT | {"d": 3.7}]}, "points.d"),
        ("rsep-sweep", {"points": [RSEP_POINT | {"seed": 1.9}]},
         "points.seed"),
        ("rsep-sweep", {"points": [RSEP_POINT | {"beta": "2"}]},
         "points.beta"),
    ])
    def test_config_value_types_rejected(self, tmp_path, capsys, command,
                                         payload, key, system_config):
        if command.startswith("fermion"):
            cfg = system_config(1, [1.0], [0.5], **payload)
        else:
            cfg = write_json(tmp_path, "bad.json", payload)
        grid = ["--grid", "1:1:1"] if command == "population-scan" else []
        code = cli.run([command, "--config", cfg, *grid,
                        "--out", str(tmp_path / "o.csv")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"'{key}'" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("samples", [0, 1, 2.5, "5", None])
    def test_heat_samples_must_be_an_integer_from_two(self, tmp_path, capsys,
                                                      samples, system_config):
        # the grid np.linspace(0, t_end, samples) reaches t_end from 2 on
        cfg = system_config(2, [1.0, 2.0], [0.5, 0.7], samples=samples)
        out = tmp_path / "h.csv"
        code = cli.run(["fermion-heat", "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'samples'" in err and "integer >= 2" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, (flags, _, _) in README_TABLE.items()
        for flag in ALL_FLAGS if flag not in flags])
    def test_flag_a_command_does_not_read_is_rejected(self, tmp_path, capsys,
                                                      command, flag):
        out = tmp_path / "o.csv"
        argv = [command]
        if "--out" in README_TABLE[command][0]:
            argv += ["--out", str(out)]
        value = str(out) if flag == "--out" else FLAG_VALUES[flag]
        code = cli.run(argv + [flag, value])
        assert code == cli.EXIT_CONFIG
        err, = capsys.readouterr().err.strip().splitlines()
        assert flag in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [
        (name, key) for name, command in cli._COMMANDS.items()
        if "--config" in command.flags for key in CONFIG_KEYS
        if key in RETIRED_KEYS
        or key not in command.required + command.optional])
    def test_config_key_a_command_does_not_declare_is_refused(
            self, tmp_path, capsys, command, key):
        cfg = write_json(tmp_path, "k.json", {key: 1})
        out = tmp_path / "o.csv"
        code = cli.run([command, "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"config error: unknown config key: {key!r}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", sorted(README_TABLE))
    def test_undeclared_flag_names_the_command_and_its_flags(
            self, tmp_path, capsys, command):
        out = tmp_path / "o.csv"
        flags = README_TABLE[command][0]
        argv = [command] + (["--out", str(out)] if "--out" in flags else [])
        code = cli.run(argv + ["--frobnicate", "1"])
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        err, = captured.err.strip().splitlines()
        assert command in err and "--frobnicate 1" in err
        assert set(re.findall(r"--[\w-]+", err.split(";")[1])) == flags
        assert captured.out == "" and not out.exists()

    def test_population_chaos_seed_is_one_line(self, tmp_path, capsys):
        code = cli.run(["population-chaos", "--out", str(tmp_path / "x.csv"),
                        "--seed", "1"])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: population-chaos does not accept --seed 1; its "
            "flags are --config --out --t-end\n")

    @pytest.mark.parametrize("command", ["fermion-evolve", "fermion-heat",
                                         "fermion-decay", "spectral-sample",
                                         "fermion-oracle-check"])
    def test_negative_seed_names_the_flag(self, tmp_path, capsys, command):
        out = tmp_path / "o.csv"
        argv = [command, "--seed", "-1"]
        if command != "fermion-oracle-check":
            argv += ["--out", str(out)]
        code = cli.run(argv)
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: flag --seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, orders", [
        ("population-scan", ["0"]), ("population-scan", ["0", "3"]),
        ("nip-error", ["0"]), ("carleman-error", ["1", "0"]),
        ("population-traj", ["0"])])
    def test_nonpositive_order_names_the_flag(self, tmp_path, capsys,
                                              command, orders):
        out = tmp_path / "o.csv"
        code = cli.run([command, "--out", str(out), "--orders", *orders])
        assert code == cli.EXIT_CONFIG
        err, = capsys.readouterr().err.strip().splitlines()
        assert err.startswith("config error: flag --orders takes orders >= 1")
        assert not out.exists()

    @pytest.mark.parametrize("orders", [["3"], ["3", "1"], ["2", "2"]])
    def test_scan_orders_must_be_an_increasing_pair(self, tmp_path, capsys,
                                                    orders):
        out = tmp_path / "o.csv"
        code = cli.run(["population-scan", "--out", str(out),
                        "--grid", "1:1:1", "--orders", *orders])
        assert code == cli.EXIT_CONFIG
        err, = capsys.readouterr().err.strip().splitlines()
        assert err == (f"config error: flag --orders must be two orders LOW "
                       f"HIGH with LOW < HIGH, got {list(map(int, orders))}")
        assert not out.exists()

    def test_readme_command_table_matches_parser(self):
        assert {c: flags for c, (flags, _, _) in README_TABLE.items()} \
            == parser_flags()
        assert sum(len(flags) for flags in parser_flags().values()) == 49
        assert sum(len(command.required) + len(command.optional)
                   for command in cli._COMMANDS.values()) == 41
        for name, command in cli._COMMANDS.items():
            _, required, optional = README_TABLE[name]
            assert (set(command.required), set(command.optional)) \
                == (required, optional), name

    def test_traj_takes_one_order(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = cli.run(["population-traj", "--out", str(out),
                        "--orders", "2", "5", "--t-end", "0.02"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--orders" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_decay_rejects_t_end(self, tmp_path, capsys, system_config):
        cfg = system_config(2, [1.0, 2.0], [0.5, 0.7], t_end=0.5)
        out = tmp_path / "d.csv"
        code = cli.run(["fermion-decay", "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "'t_end'" in capsys.readouterr().err
        assert not out.exists()

    def test_gapless_steady_state_is_numerical(self, tmp_path, capsys,
                                               system_config):
        # the second mode has no loss: no unique steady state
        cfg = system_config(2, [1.0, 2.0], [0.5, 0.0])
        out = tmp_path / "s.csv"
        code = cli.run(["fermion-steady", "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_NUMERICAL
        assert "lambda_i + lambda_j" in capsys.readouterr().err
        assert not out.exists()

    def test_module_entry_point(self, tmp_path):
        def run(*argv):
            return run_python(["-m", "koopman_lab", *argv], tmp_path)

        ok = run("fermion-oracle-check", "--N", "1", "--trials", "1")
        assert ok.returncode == cli.EXIT_OK, ok.stderr
        assert "max_deviation=" in ok.stdout
        bad = run("fermion-oracle-check", "--trials", "0")
        assert bad.returncode == cli.EXIT_CONFIG
        assert "--trials" in bad.stderr

    def test_unwritable_output_names_the_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "scan.csv"
        code = cli.run(["population-scan", "--grid", "1:1:1",
                        "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(out) in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--trials", "--N"])
    def test_empty_oracle_check_rejected(self, capsys, flag):
        code = cli.run(["fermion-oracle-check", flag, "0"])
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"flag {flag} must be >= 1" in captured.err
        assert "max_deviation" not in captured.out

    @pytest.mark.parametrize("flag, limit", [
        ("--N", fermion.ORACLE_MAX_N), ("--trials", cli.MAX_ORACLE_TRIALS)])
    def test_oracle_check_bounds_refused_before_running(
            self, capsys, monkeypatch, flag, limit):
        # --N 5 used to exit 0 or 2 by seed, as the trials drew N <= 4 or
        # not; now every seed is refused, the flag named, before a trial
        def fail(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(fermion, "oracle_deviation", fail)
        for seed in range(4):
            code = cli.run(["fermion-oracle-check", flag, str(limit + 1),
                            "--seed", str(seed)])
            assert code == cli.EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.err == (f"config error: flag {flag} must be >= 1 "
                                    f"and <= {limit}, got {limit + 1}\n")
            assert captured.out == ""

    def test_oracle_check_bounds_admit_the_defaults(self):
        args = cli.build_parser().parse_args(["fermion-oracle-check"])
        assert args.N <= fermion.ORACLE_MAX_N
        assert args.trials <= cli.MAX_ORACLE_TRIALS

    def test_integrator_failure_is_numerical(self, tmp_path, capsys,
                                             monkeypatch):
        from koopman_lab import population
        from koopman_lab.polyflow import StepUnderflowError

        def fail(*args, **kwargs):
            raise StepUnderflowError("Required step size is less than\n"
                                     "spacing between numbers.")

        monkeypatch.setattr(population, "chaos_demo", fail)
        code = cli.run(["population-chaos", "--out",
                        str(tmp_path / "o.csv")])
        assert code == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "StepUnderflowError" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["population-traj",
                                         "population-chaos",
                                         "carleman-error", "nip-error"])
    def test_x0_length_names_the_key(self, tmp_path, capsys, command):
        cfg = write_json(tmp_path, "x0.json", {"x0": [1.0, 1.4]})
        out = tmp_path / "o.csv"
        code = cli.run([command, "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        err, = capsys.readouterr().err.strip().splitlines()
        assert err == ("config error: config key 'x0' must hold 3 numbers, "
                       "one per model coordinate, got 2")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectral-emulate",
                                         "spectral-sample"])
    @pytest.mark.parametrize("modes", [
        [], 5, [0.0, 0.7, 0.6, 0.0], [[0.0, 0.7, 0.6]],
        [[0.0, 0.7, 0.6, 0.0, 1.0]], [[0.0, 0.7, "0.6", 0.0]],
        [[0.0, 0.7, True, 0.0]], [[0.0, 0.7, 0.6, 0.0], [1.0]],
        [[0.0, 0.7, float("nan"), 0.0]]])
    def test_modes_shape_names_the_key(self, tmp_path, capsys, command,
                                       modes):
        cfg = write_json(tmp_path, "m.json", {"modes": modes})
        out = tmp_path / "o.csv"
        code = cli.run([command, "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        err, = capsys.readouterr().err.strip().splitlines()
        assert err.startswith("config error: config key 'modes' must be a "
                              "nonempty list of rows of 4 finite numbers")
        assert not out.exists()

    def test_zero_amplitudes_name_the_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "m.json", {"modes": [[0.5, 0.1, 0, 0]]})
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run(["spectral-emulate", "--config", cfg,
                            "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: config key 'modes' has all amplitudes (re_a, "
            "im_a) zero\n")
        assert not out.exists()

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_refused_runs_leave_the_next_run_as_a_fresh_one(
            self, tmp_path, capsys):
        # a run refused by the shared parser, either for an undeclared flag
        # or by argparse itself, does not change what the next run reads
        cfg = write_json(tmp_path, "s.json",
                         {"modes": SPECTRAL_MODES, "J": 65, "n_samples": 500})

        def sample(name, *flags):
            out = tmp_path / name
            code = cli.run(["spectral-sample", "--config", cfg,
                            "--out", str(out), *flags])
            return code, out.read_bytes() if out.exists() else None

        assert sample("bad.csv", "--seed", "5", "--frobnicate", "1") == \
            (cli.EXIT_CONFIG, None)
        assert sample("bad.csv", "--seed", "x") == (cli.EXIT_CONFIG, None)
        code, after_refusals = sample("after.csv")
        assert code == cli.EXIT_OK
        cli.build_parser.cache_clear()
        assert sample("fresh.csv") == (cli.EXIT_OK, after_refusals)
        capsys.readouterr()

    def test_entry_point_pins_blas_threads(self, tmp_path):
        # orders 8 to 14 run DOP853 on lifts of 164 to 679 coordinates,
        # whose dense-output products round differently with threaded BLAS
        argv = ["-m", "koopman_lab", "nip-error", "--out", "e.csv",
                "--orders", "8", "10", "12", "14"]
        runs = []
        for value in (None, "1"):
            cwd = tmp_path / str(value)
            cwd.mkdir()
            proc = run_python(argv, cwd,
                              **dict.fromkeys(BLAS_THREAD_VARS, value))
            assert proc.returncode == cli.EXIT_OK, proc.stderr
            runs.append((proc.stdout, (cwd / "e.csv").read_bytes()))
        assert runs[0] == runs[1]


COLD_START = """
import contextlib
import io
import sys
import numpy as np
from koopman_lab import cli, fermion, polyflow, rsep

def loaded():
    return [name in sys.modules
            for name in ("scipy.integrate", "scipy.sparse.linalg")]

states = loaded()
assert cli.run(["population-scan", "--grid", "1:1.5:0.5",
                "--out", "scan.csv"]) == 0
assert cli.run(["population-traj", "--out", "traj.csv"]) == 0
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["carleman-error", "--out", "carleman.csv"]) == 0
    assert cli.run(["nip-error", "--out", "nip.csv"]) == 0
assert cli.run(["population-scan", "--grid", "1:1.5:0.5", "--orders", "2",
                "5", "--out", "scan25.csv"]) == 0
assert cli.run(["fermion-steady", "--config", sys.argv[1],
                "--out", "steady.csv"]) == 0
fermion.oracle_deviation(2, 0, (1.0,))
rsep.lifted_flow_residual(rsep.RsepParams(4, 10.0, 20.0, 0.1), 1.0)
states += loaded()
assert cli.run(["population-chaos", "--out", "chaos.csv"]) == 0
states += loaded()
polyflow.integrate_rhs(lambda t, x: -x, np.ones(1), 1.0, 1e-8)
print(*states, *loaded())
"""

EAGER_CHAOS = """
import scipy.integrate
from koopman_lab import cli
assert cli.run(["population-chaos", "--out", "chaos.csv"]) == 0
"""


class TestColdStart:
    def test_only_a_dop853_run_loads_scipy_integrate(self, tmp_path,
                                                     system_config):
        cfg = system_config(2, [1.0, 2.0], [0.5, 0.7])
        lazy, eager = tmp_path / "lazy", tmp_path / "eager"
        lazy.mkdir()
        eager.mkdir()
        proc = run_python(["-c", COLD_START, cfg], lazy)
        assert proc.returncode == 0, proc.stderr
        chaos_printed, loaded = proc.stdout.splitlines()
        # (scipy.integrate, scipy.sparse.linalg) after the import; after a
        # 2 x 2 scan at orders 1 and 3, the default trajectory comparison,
        # both error profiles at their default orders 1, 3 and 6, a 2 x 2
        # scan at orders 2 and 5, the covariance steady state, the
        # density-matrix oracle and the rsep lift; after the chaos run,
        # whose eta flow is a Taylor flow; and after a DOP853 run.  Only
        # scipy.integrate's own import loads scipy.sparse.linalg.
        assert loaded.split() == ["False"] * 6 + ["True", "True"]
        assert len((lazy / "scan.csv").read_text().splitlines()) == 5
        assert len((lazy / "scan25.csv").read_text().splitlines()) == 5
        proc = run_python(["-c", EAGER_CHAOS], eager)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == chaos_printed + "\n"
        assert (lazy / "chaos.csv").read_bytes() == \
            (eager / "chaos.csv").read_bytes()


class TestPopulationCommands:
    def test_traj_schema(self, tmp_path):
        cfg = write_json(tmp_path, "t.json", {"x0": [1.0, 1.05, 0.95]})
        out = tmp_path / "traj.csv"
        assert cli.run(["population-traj", "--config", cfg, "--orders", "2",
                        "--t-end", "0.02", "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("t,x1_exact")
        assert "x3_nip" in header

    def test_scan_deterministic_across_threads(self, tmp_path):
        # 6 x 6 cells are two chunks, so at --threads 2 two workers each
        # step them by the order-5 exact stacks kept on the model
        assert population.SCAN_CHUNK < 36 <= 2 * population.SCAN_CHUNK
        assert carleman.steps_exactly(3, 5)
        outs = []
        for threads, name in ((1, "a.csv"), (2, "b.csv")):
            out = tmp_path / name
            assert cli.run(["population-scan", "--out", str(out),
                            "--grid", "1.0:1.25:0.05", "--orders", "2", "5",
                            "--t-end", "0.02",
                            "--threads", str(threads)]) == 0
            outs.append(out.read_bytes())
        assert len(outs[0].splitlines()) == 37
        assert outs[0] == outs[1]

    def test_scan_bytes_do_not_depend_on_the_workers(self, tmp_path):
        # 7 x 7 cells: a full chunk and a partial last one, one per worker
        # at --threads 2; the rows run x2 outer, x3 inner in both
        axis = cli._parse_grid("1.0:1.3:0.05").tolist()
        assert len(axis) == 7 and 49 // population.SCAN_CHUNK == 1 \
            and 49 % population.SCAN_CHUNK
        outs = []
        for threads in (1, 2):
            out = tmp_path / f"{threads}.csv"
            assert cli.run(["population-scan", "--out", str(out),
                            "--grid", "1.0:1.3:0.05", "--t-end", "0.02",
                            "--threads", str(threads)]) == cli.EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        rows = [line.split(",") for line in outs[0].decode().splitlines()[1:]]
        assert [(float(r[0]), float(r[1])) for r in rows] == [
            (x2, x3) for x2 in axis for x3 in axis]

    def test_chaos_zero_horizon(self, tmp_path, capsys):
        out = tmp_path / "chaos.csv"
        code = cli.run(["population-chaos", "--out", str(out),
                        "--t-end", "0"])
        assert code == cli.EXIT_OK
        rows = out.read_text().splitlines()
        assert rows[0] == "t,x2,x3"
        assert [float(r.split(",")[0]) for r in rows[1:]] == [0.0]

    @pytest.mark.parametrize("command", ["population-traj",
                                         "population-chaos"])
    @pytest.mark.parametrize("coupling, x0, fate, t_star", [
        (5.0, [0.5, 0.9, 0.9], "x1 reached 0 after", np.log(5 / 4)),
        (-5.0, [2.0, 1.0, 1.0], "x1 grew without bound by", np.log(4 / 3)),
    ])
    def test_population_leaving_names_the_cause(self, tmp_path, capsys,
                                                command, coupling, x0, fate,
                                                t_star):
        # x1 -> 0 at t = ln(5/4) and x1 -> infinity at t = ln(4/3) (see
        # test_population); the rational x-dynamics would integrate through
        # both.  The named time is a sample next to it, 0.5/128 apart in
        # the trajectory comparison and 0.5/2000 in the chaos run.
        spec = {"r": [1, 1, 1], "X": [1, 1, 1], "J": [[0, 0, 0, coupling]]}
        cfg = write_json(tmp_path, "m.json", {"model": spec, "x0": x0})
        out = tmp_path / "o.csv"
        code = cli.run([command, "--config", cfg, "--t-end", "0.5",
                        "--out", str(out)])
        assert code == cli.EXIT_NUMERICAL
        err, = capsys.readouterr().err.strip().splitlines()
        prefix = f"numerical failure: population {fate} t = "
        assert err.startswith(prefix)
        assert abs(float(err[len(prefix):]) - t_star) < 0.5 / 128
        assert not out.exists()
        model = nip.model_from_dict(spec)
        if command == "population-traj":
            traj, _, _ = population.trajectory_compare(model, x0, 3, 0.5)
        else:
            traj = population.chaos_demo(model, x0, 0.5).trajectory
        assert traj.diverged and np.all(traj.states.real > 0)

    @pytest.mark.parametrize("command", ["population-traj", "nip-error"])
    def test_an_overflowing_expansion_is_named(self, tmp_path, capsys,
                                               command):
        # r_1 = 1e300: the reference's first Taylor expansion overflows at
        # t = 0, which is named as that, not as a step that cannot advance
        spec = {"r": [1e300, 1, 1], "X": [1, 1, 1], "J": []}
        cfg = write_json(tmp_path, "m.json",
                         {"model": spec, "x0": [0.5, 1.4, 1.4]})
        out = tmp_path / "o.csv"
        code = cli.run([command, "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_NUMERICAL
        err, = capsys.readouterr().err.strip().splitlines()
        assert err == ("numerical failure (FloatingPointError): Taylor "
                       "flow: at t = 0 the expansion's coefficients "
                       "overflowed")
        assert not out.exists()

    def test_error_profile(self, tmp_path):
        out = tmp_path / "eps.csv"
        assert cli.run(["nip-error", "--out", str(out), "--orders", "1", "2",
                        "--t-end", "0.02"]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "t,eps_order_1,eps_order_2"

    @pytest.mark.parametrize("command", ["carleman-error", "nip-error"])
    def test_error_profile_zero_horizon_is_one_row(self, tmp_path, capsys,
                                                   command):
        # a zero horizon samples t = 0 alone, where every lift starts from
        # its reference's own first sample: eps is 0
        out = tmp_path / "eps.csv"
        assert cli.run([command, "--out", str(out), "--t-end", "0"]) \
            == cli.EXIT_OK
        header, *rows = out.read_text().splitlines()
        assert header == "t,eps_order_1,eps_order_3,eps_order_6"
        assert rows == ["0,0,0,0"]
        assert capsys.readouterr().out.split() == [
            "order=1", "eps_max=0", "order=3", "eps_max=0", "order=6",
            "eps_max=0"]

    def test_a_scan_cell_prints_the_eps_of_its_single_runs(self, tmp_path,
                                                           capsys):
        # the one cell (1, 1.4, 1.4) at orders 1 and 3, the error commands'
        # default x0: its eps_c_low, eps_c_high, eps_k_low and eps_k_high
        # are the eps_max strings carleman-error, then nip-error print
        cell = tmp_path / "cell.csv"
        assert cli.run(["population-scan", "--out", str(cell),
                        "--grid", "1.4:1.4:0.05"]) == cli.EXIT_OK
        capsys.readouterr()
        printed = []
        for command in ("carleman-error", "nip-error"):
            assert cli.run([command, "--out", str(tmp_path / "eps.csv"),
                            "--orders", "1", "3"]) == cli.EXIT_OK
            printed += [word.removeprefix("eps_max=")
                        for word in capsys.readouterr().out.split()
                        if word.startswith("eps_max=")]
        _, row = cell.read_text().splitlines()
        assert len(printed) == 4
        assert row.split(",")[4:8] == printed


class TestFermionCommands:
    def test_evolve_and_steady(self, fermion_config, tmp_path):
        out = tmp_path / "g.csv"
        assert cli.run(["fermion-evolve", "--config", fermion_config,
                        "--out", str(out), "--seed", "1",
                        "--t-end", "0.5"]) == 0
        assert out.read_text().splitlines()[0] == "i,j,value"
        assert cli.run(["fermion-steady", "--config", fermion_config,
                        "--out", str(tmp_path / "s.csv")]) == 0

    def test_decay_and_heat(self, fermion_config, tmp_path):
        assert cli.run(["fermion-decay", "--config", fermion_config,
                        "--out", str(tmp_path / "d.csv"), "--seed", "2"]) == 0
        assert cli.run(["fermion-heat", "--config", fermion_config,
                        "--out", str(tmp_path / "h.csv"), "--seed", "2",
                        "--t-end", "0.5"]) == 0

    def test_decay_of_a_free_system_prints_zero_rates(self, tmp_path,
                                                      capsys):
        # its rates are 0, which used to print as -0
        cfg = write_json(tmp_path, "free.json",
                         {"system": {"N": 1, "h": [], "jumps": []}})
        out = tmp_path / "d.csv"
        assert cli.run(["fermion-decay", "--config", cfg,
                        "--out", str(out)]) == cli.EXIT_OK
        assert capsys.readouterr().out == "gap=0\n"
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert rows[0] == ["k", "l", "rate", "weight"] and len(rows) == 5
        assert {row[2] for row in rows[1:]} == {"0"}

    def test_heat_zero_horizon_is_one_row(self, tmp_path, system_config):
        cfg = system_config(2, [1.0, 2.0], [0.5, 0.7], samples=5)
        out = tmp_path / "h.csv"
        assert cli.run(["fermion-heat", "--config", cfg, "--out", str(out),
                        "--seed", "2", "--t-end", "0"]) == cli.EXIT_OK
        assert out.read_text().splitlines()[1:] == ["0,0"]

    @pytest.mark.parametrize("command", ["fermion-evolve", "fermion-heat",
                                         "fermion-steady"])
    def test_outputs_identical_across_runs(self, tmp_path, command,
                                           system_config):
        cfg = system_config(3, [1.0, 2.0, 0.7], [0.4, 0.9, 0.6])
        seed = [] if command == "fermion-steady" else ["--seed", "3"]
        outs = []
        for run in range(3):
            out = tmp_path / f"{run}.csv"
            assert cli.run([command, "--config", cfg, "--out", str(out),
                            *seed]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_oracle_check_small(self, capsys):
        assert cli.run(["fermion-oracle-check", "--N", "1", "--trials", "2",
                        "--seed", "7"]) == 0
        assert "max_deviation" in capsys.readouterr().out

    def test_oracle_check_default_deviation(self, capsys):
        assert cli.run(["fermion-oracle-check"]) == 0
        assert float(capsys.readouterr().out.split("=")[1]) <= 1e-12

    def test_oracle_check_reproducible(self, capsys):
        # N = 4 draws: the oracle's dense expm of a 256 x 256 Liouvillian
        # draws nothing from numpy's global generator
        np.random.seed(11)
        state = np.random.get_state()
        printed = []
        for _ in range(2):
            assert cli.run(["fermion-oracle-check", "--N", "4",
                            "--trials", "3", "--seed", "10"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert float(printed[0].split("=")[1]) <= 1e-11
        after = np.random.get_state()
        assert after[0] == state[0] and after[2:] == state[2:]
        np.testing.assert_array_equal(after[1], state[1])


class TestRsepCommands:
    def test_sweep_schema(self, tmp_path):
        cfg = write_json(tmp_path, "p.json", {"points": [RSEP_POINT]})
        out = tmp_path / "sweep.csv"
        assert cli.run(["rsep-sweep", "--config", cfg, "--t-end", "0.5",
                        "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("beta,gamma,delta,d,R_x_lower_bound,"
                            "R_x,R_eta,equiv_residual")
        assert len(lines) == 2

    @pytest.mark.parametrize("delta", [0.0, 1e-17, 0.1])
    def test_unresolved_delta_refused_before_any_flow(
            self, tmp_path, capsys, monkeypatch, delta):
        # the x-side log-norm -delta is resolved only above 32 eps gamma:
        # at 0 the lower bound divided by zero, and at 1e-17 R_x fell below
        # it; a resolved delta sweeps, R_x at its bound or above
        sweep, swept = rsep.sweep, []
        monkeypatch.setattr(rsep, "sweep", lambda params, t_end:
                            swept.append(params) or sweep(params, t_end))
        point = {"d": 3, "beta": 2.0, "gamma": 3.0, "delta": delta,
                 "seed": 1}
        cfg = write_json(tmp_path, "p.json", {"points": [point]})
        out = tmp_path / "sweep.csv"
        code = cli.run(["rsep-sweep", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        floor = cli.RSEP_DELTA_ULPS * np.finfo(float).eps * 3.0
        if delta > floor:
            assert code == cli.EXIT_OK and len(swept) == 1
            row = out.read_text().splitlines()[1].split(",")
            assert float(row[5]) >= float(row[4])
        else:
            assert code == cli.EXIT_CONFIG and swept == []
            assert err == (
                f"config error: config key 'points.delta' is {delta!r}, not "
                f"above 32 eps gamma = {floor:.6g}, the resolution of the "
                f"x-side log-norm -delta\n")
            assert not out.exists()

    def test_r_x_holds_its_bound_up_to_the_rounding(self, tmp_path):
        # just above the delta floor the x-side log-norm -delta is resolved
        # to within 32 eps gamma, so R_x may miss its bound column by that
        # share of delta, as the README's points.delta row states; on which
        # side depends on how the BLAS kernel rounds (above it under
        # OpenBLAS's Prescott kernel, below it under the others)
        point = {"d": 3, "beta": 2.0, "gamma": 3.0, "delta": 1e-12,
                 "seed": 1}
        cfg = write_json(tmp_path, "p.json", {"points": [point]})
        out = tmp_path / "sweep.csv"
        assert cli.run(["rsep-sweep", "--config", cfg, "--out",
                        str(out)]) == cli.EXIT_OK
        header, line = out.read_text().splitlines()
        row = dict(zip(header.split(","), map(float, line.split(","))))
        bound, r_x = row["R_x_lower_bound"], row["R_x"]
        rounding = cli.RSEP_DELTA_ULPS * np.finfo(float).eps * 3.0 / 1e-12
        assert abs(r_x / bound - 1) <= rounding
        assert r_x >= bound * (1 - rounding)

    def test_zero_horizon_sweeps(self, tmp_path):
        # the flows sample t = 0 alone: one row per point, residual 0
        cfg = write_json(tmp_path, "p.json", {"points": [RSEP_POINT] * 2})
        out = tmp_path / "sweep.csv"
        assert cli.run(["rsep-sweep", "--config", cfg, "--t-end", "0",
                        "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2 and rows[0] == rows[1]
        assert rows[0].endswith(",0")


class TestSpectralCommands:
    def test_window(self, tmp_path):
        cfg = write_json(tmp_path, "w.json", {"J": 33, "sigma": 2.0,
                                              "theta": 0.4})
        out = tmp_path / "w.csv"
        assert cli.run(["spectral-window", "--config", cfg,
                        "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "ell,theta_hat,omega_hat,p"
        assert len(lines) == 34

    def test_emulate_schema(self, tmp_path):
        cfg = write_json(tmp_path, "e.json",
                         {"modes": SPECTRAL_MODES, "J": 65, "sigma": 2.5,
                          "dt": 1.0})
        out = tmp_path / "e.csv"
        assert cli.run(["spectral-emulate", "--config", cfg,
                        "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "ell,theta_hat,omega_hat,p_ideal,p_emulated,count"

    def test_sample_deterministic(self, tmp_path):
        cfg = write_json(tmp_path, "s.json",
                         {"modes": SPECTRAL_MODES, "J": 65, "sigma": 2.5,
                          "dt": 1.0, "n_samples": 5000})
        outs = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            assert cli.run(["spectral-sample", "--config", cfg,
                            "--out", str(out), "--seed", "9"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_largest_taylor_order_passes_and_is_built_once(
            self, tmp_path, capsys, monkeypatch):
        built = []

        def counted(*args):
            built.append(args[2])
            return taylor_propagator(*args)

        taylor_propagator = spectral.taylor_propagator
        monkeypatch.setattr(spectral, "taylor_propagator", counted)
        cfg = write_json(tmp_path, "h.json",
                         {"A": [[-0.3, 0.0], [0.0, -0.1]],
                          "x0": [1.0, 0.5], "m": 6, "p": 3,
                          "l": cli.MAX_TAYLOR_ORDER, "h": 0.05})
        assert cli.run(["ode-history", "--config", cfg,
                        "--out", str(tmp_path / "h.csv")]) == 0
        assert built == [cli.MAX_TAYLOR_ORDER]

    def test_ode_history(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "h.json",
                         {"A": [[-0.3, 0.0], [0.0, -0.1]],
                          "x0": [1.0, 0.5], "m": 6, "p": 3, "l": 6,
                          "h": 0.05})
        out = tmp_path / "h.csv"
        assert cli.run(["ode-history", "--config", cfg,
                        "--out", str(out)]) == 0
        assert "recurrence_residual" in capsys.readouterr().out


def declarations():
    """(name, domain) of every declared flag and config key, a key nested
    in an object as "object.key"."""
    for name, domain in cli._DOMAINS.items():
        yield name, domain
        for key, field in (domain.fields or {}).items():
            yield f"{name}.{key}", field


def readme_domain_table():
    """{name: (domain cell, default cell)} of the README's 3-column table of
    declared domains."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = {}
    for line in readme.read_text().splitlines():
        cells = [cell.strip() for cell in line.split("|")[1:-1]]
        if len(cells) == 3 and cells[0].startswith("`"):
            table[cells[0].strip("`")] = tuple(cells[1:])
    return table


FERMION_SYSTEM = {"N": 1, "h": [[0, 1, 1.0]], "jumps": [[[0.5, 0.0],
                                                          [0.0, 0.0]]]}
BAD_T_END = [(command, "1e308") for command in sorted(cli._COMMANDS)
             if "--t-end" in cli._COMMANDS[command].flags]


class TestDeclaredDomains:
    """Every flag and config key is declared once in `cli._DOMAINS`, and
    the one checker refuses what lies outside its domain by name."""

    def test_each_flag_and_key_declared_exactly_once(self):
        # a dict literal keeps the last of two equal keys: read the source
        tree = ast.parse(Path(cli.__file__).read_text())
        table, = (node.value for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["_DOMAINS"])
        names = [key.value for key in table.keys]
        nested = [[key.value for key in node.keys]
                  for node in ast.walk(table) if isinstance(node, ast.Dict)
                  and node is not table]
        for keys in [names] + nested:
            assert len(keys) == len(set(keys)), keys
        used = set()
        for command in cli._COMMANDS.values():
            used.update(command.flags, command.required, command.optional)
            # a command's own default is of a flag or key it reads
            assert set(command.defaults) <= set(command.flags) | set(
                command.optional)
        assert used == set(cli._DOMAINS)

    def test_value_at_each_bound_is_accepted(self):
        checked = 0
        for name, domain in declarations():
            name = name.rsplit(".", 1)[-1]
            if domain.kind not in ("number", "integer"):
                continue
            for bound, step in ((domain.low, -1), (domain.high, 1)):
                if bound is None:
                    continue
                past = (bound + step if domain.kind == "integer"
                        else float(np.nextafter(bound, step * np.inf)))
                if bound == domain.low and domain.open_low:
                    bound, past = float(np.nextafter(bound, 1.0)), bound
                assert cli._checked(name, bound, domain) == bound
                with pytest.raises(cli.ConfigError, match=re.escape(name)):
                    cli._checked(name, past, domain)
                checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("command", [
        name for name, spec in cli._COMMANDS.items() if spec.max_t_end])
    def test_largest_horizon_reaches_the_handler(self, tmp_path, capsys,
                                                 monkeypatch, command):
        spec = cli._COMMANDS[command]
        horizons = []
        monkeypatch.setitem(cli._COMMANDS, command, dataclasses.replace(
            spec, handler=lambda args, cfg: horizons.append(args.t_end)))
        config = {"system": {"system": FERMION_SYSTEM},
                  "points": {"points": [RSEP_POINT]}}
        argv = [command, "--out", str(tmp_path / "o.csv")]
        for key in spec.required:
            argv += ["--config", write_json(tmp_path, "c.json", config[key])]
        above = float(np.nextafter(spec.max_t_end, np.inf))
        for t_end in (float(spec.max_t_end), above):
            cli.run(argv + ["--t-end", repr(t_end)])
        assert horizons == [spec.max_t_end]
        assert capsys.readouterr().err == (
            f"config error: flag --t-end must be <= {spec.max_t_end} for "
            f"{command}, got {above!r}\n")

    def test_horizons_admit_every_horizon_in_use(self):
        # the defaults, the tests' and CI's horizons (at most 0.5 outside
        # population-chaos) and the largest fermion system's heat curve
        for spec in cli._COMMANDS.values():
            if spec.max_t_end is not None:
                default = spec.defaults.get(
                    "--t-end", cli._DOMAINS["--t-end"].default)
                assert spec.max_t_end >= max(default, 0.5)
        assert cli.GRID_SAMPLES * (2 * cli.MAX_FERMION_N) ** 2 * 8 \
            <= cli.MAX_HEAT_BYTES

    def test_readme_domain_table_matches_the_declarations(self):
        table = readme_domain_table()
        assert set(table) == {name for name, _ in declarations()}
        for name, domain in declarations():
            cell, default = table[name]
            assert cell.startswith("list" if domain.many else domain.kind)
            assert domain.kind in cell, name
            if domain.kind == "number":
                assert cli._range(domain).split(" ", 1)[1] in cell, name
            elif domain.kind == "integer":
                assert f">= {domain.low}" in cell, name
                if domain.high is not None:
                    assert f"<= {domain.high}" in cell, name
            for column in domain.columns:
                assert column in cell, name
            if domain.default is not None:
                assert f"`{json.dumps(domain.default)}`" in default, name

    @pytest.mark.parametrize("command, config, argv, named, code", [
        # a system entry outside the system's 2N, or not an integer
        ("fermion-steady", {"system": {"N": 1, "h": [[0, 5, 1.0]],
                                       "jumps": []}}, [], "'system'", 2),
        ("fermion-steady", {"system": {"N": 1, "h": [[-1, 0, 1.0]],
                                       "jumps": []}}, [], "'system'", 2),
        ("fermion-steady", {"system": {"N": 1, "h": [[0.5, 1, 1.0]],
                                       "jumps": []}}, [], "'system'", 2),
        ("fermion-steady", {"system": FERMION_SYSTEM | {"N": 1.5}}, [],
         "'system.N'", 2),
        ("fermion-steady", {"system": FERMION_SYSTEM | {"N": 100000}}, [],
         "'system.N'", 2),
        ("fermion-steady", {"system": FERMION_SYSTEM | {"h": [
            [0, 1, float("nan")]]}}, [], "'system.h'", 2),
        ("fermion-steady", {"system": FERMION_SYSTEM | {"h": [
            [0, 1, "1.0"]]}}, [], "'system.h'", 2),
        ("fermion-steady", {"system": FERMION_SYSTEM | {"jumps": [
            [[1e308, 0.0], [0.0, 0.0]]]}}, [], "'system'", 2),
        ("fermion-steady", {"system": FERMION_SYSTEM | {"jumps": [
            [[0.5, 0.0]]]}}, [], "'system'", 2),
        ("fermion-steady", {"system": FERMION_SYSTEM | {"jumps": [
            [[0.5, float("inf")], [0.0, 0.0]]]}}, [], "'system.jumps'", 2),
        ("fermion-steady", {"system": FERMION_SYSTEM | {"bogus": 1}}, [],
         "'system.bogus'", 2),
        ("fermion-steady", {"system": {"N": 1, "h": []}}, [],
         "'system.jumps'", 2),
        ("fermion-evolve", {"system": FERMION_SYSTEM, "gamma0": [
            [0.0, float("nan")], [0.0, 0.0]]}, [], "'gamma0'", 2),
        ("fermion-evolve", {"system": FERMION_SYSTEM, "gamma0": [
            [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}, [],
         "'gamma0'", 2),
        ("fermion-heat", {"system": {"N": 256, "h": [], "jumps": []},
                          "samples": 10000}, [], "'samples'", 2),
        # a model value that is not finite
        ("nip-error", {"model": {"r": [float("nan"), 1, 1], "X": [1, 1, 1],
                                 "J": []}}, [], "'model'", 2),
        ("population-traj", {"model": {"r": [1, 1, 1],
                                       "X": [1, float("inf"), 1],
                                       "J": []}}, [], "'model'", 2),
        ("population-chaos", {"model": {"r": [1, 1, 1], "X": [1, 1, 1],
                                        "J": [[0, 0, 1, float("nan")]]}},
         [], "'model'", 2),
        # a JSON integer past the float range, a bool for a number
        ("population-scan", {"x1": 10**400}, ["--grid", "1:1:1"], "'x1'", 2),
        ("population-traj", {"x0": [10**400, 1.4, 1.4]}, [], "'x0'", 2),
        ("spectral-window", {"sigma": True}, [], "'sigma'", 2),
        ("rsep-sweep", {"points": [RSEP_POINT | {"gamma": float("nan")}]},
         [], "'points.gamma'", 2),
        ("rsep-sweep", {"points": [RSEP_POINT | {"bogus": 1}]}, [],
         "'points.bogus'", 2),
        ("ode-history", {"A": [[float("nan")]], "x0": [1.0], "m": 2, "p": 1,
                         "l": 4, "h": 0.1}, [], "'A'", 2),
    ] + [(command, None, ["--t-end", t_end], "--t-end", 2)
         for command, t_end in BAD_T_END])
    def test_value_outside_its_domain_names_it(
            self, tmp_path, capsys, monkeypatch, command, config, argv,
            named, code):
        def fail(*args, **kwargs):
            raise AssertionError("a flow ran")

        monkeypatch.setattr(fermion, "evolve_covariance", fail)
        if config is not None:
            argv = argv + ["--config", write_json(tmp_path, "c.json", config)]
        if command == "rsep-sweep" and config is None:
            argv += ["--config", write_json(tmp_path, "r.json",
                                            {"points": [RSEP_POINT]})]
        if command.startswith("fermion") and config is None:
            argv += ["--config", write_json(tmp_path, "f.json",
                                            {"system": FERMION_SYSTEM})]
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cli.run([command, *argv, "--out", str(out)])
        assert got == code
        captured = capsys.readouterr()
        err, = captured.err.strip().splitlines()
        assert err.startswith("config error: ") and named in err
        assert captured.out == "" and not out.exists()

    def test_heat_bytes_at_the_bound_run(self, tmp_path, monkeypatch,
                                         fermion_system_dict):
        monkeypatch.setattr(cli, "MAX_HEAT_BYTES", 5 * 4 * 4 * 8)
        sys_ = fermion.FermionSystem(2, *fermion.commuting_example(
            2, [1.0, 2.0], [0.5, 0.7]))
        for samples, want in ((5, cli.EXIT_OK), (6, cli.EXIT_CONFIG)):
            cfg = write_json(tmp_path, "h.json", {
                "system": fermion_system_dict(sys_), "samples": samples})
            assert cli.run(["fermion-heat", "--config", cfg, "--out",
                            str(tmp_path / "h.csv")]) == want
