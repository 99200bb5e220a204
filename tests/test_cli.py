import argparse
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
from koopman_lab import cli, fermion, nip, population, rsep, spectral


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
    return system_config(2, [1.0, 2.0], [0.5, 0.7], t_end=0.5)


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
ALL_FLAGS = sorted(set().union(*(f for f, _, _ in README_TABLE.values())))
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

    def test_zero_tol_rejected(self, tmp_path, capsys):
        code = cli.run(["nip-error", "--out", str(tmp_path / "o.csv"),
                        "--tol", "0"])
        assert code == cli.EXIT_CONFIG
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    @pytest.mark.parametrize("command", ["population-scan", "population-traj",
                                         "carleman-error", "nip-error"])
    def test_non_finite_tol_rejected(self, tmp_path, capsys, command, tol):
        # an infinite tolerance used to leave the lift's integrator
        # stepping without end
        out = tmp_path / "o.csv"
        code = cli.run([command, "--out", str(out), "--tol", tol])
        assert code == cli.EXIT_CONFIG
        err, = capsys.readouterr().err.strip().splitlines()
        assert err == (f"config error: flag --tol must be finite and "
                       f"positive, got {tol}")
        assert not out.exists()

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

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_chaos_horizon_checked_before_the_flow(self, tmp_path, capsys,
                                                   monkeypatch, source):
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
            if source == "flag":
                argv = ["--t-end", repr(t_end)]
            else:
                argv = ["--config", write_json(tmp_path, "c.json",
                                               {"t_end": t_end})]
            assert cli.run(["population-chaos", *argv,
                            "--out", str(out)]) == want
        name = "flag --t-end" if source == "flag" else "config key 't_end'"
        assert capsys.readouterr().err.splitlines()[0] == (
            f"config error: {name} must be <= {cli.MAX_CHAOS_T_END} for "
            f"population-chaos, got {above!r}")
        # the bound itself reaches the flow
        assert calls == [bound]
        assert not out.exists()

    def test_zero_population_is_a_config_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "zero.json",
                         {"x0": [0.0, 1.0, 1.0], "order": 2, "t_end": 0.02})
        code = cli.run(["population-traj", "--config", cfg,
                        "--out", str(tmp_path / "o.csv")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "ValueError" in err and "positive" in err
        assert len(err.strip().splitlines()) == 1

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
        ("fermion-heat", "samples", 10**13, 1, "MAX_HEAT_SAMPLES",
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

    @pytest.mark.parametrize("orders", [5, [1, "a"]])
    @pytest.mark.parametrize("command", ["population-scan", "carleman-error",
                                         "nip-error"])
    def test_orders_must_be_a_list_of_integers(self, tmp_path, capsys,
                                               command, orders):
        cfg = write_json(tmp_path, "orders.json", {"orders": orders})
        grid = ["--grid", "1:1:1"] if command == "population-scan" else []
        code = cli.run([command, "--config", cfg, *grid,
                        "--out", str(tmp_path / "o.csv")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'orders'" in err and "list of integers" in err
        assert len(err.strip().splitlines()) == 1

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
        ("rsep-sweep", {"points": [RSEP_POINT | {"d": 3.7}]}, "d"),
        ("rsep-sweep", {"points": [RSEP_POINT | {"seed": 1.9}]}, "seed"),
        ("rsep-sweep", {"points": [RSEP_POINT | {"beta": "2"}]}, "beta"),
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

    @pytest.mark.parametrize("samples", [0, 2.5, "5", None])
    def test_heat_samples_must_be_a_positive_integer(self, tmp_path, capsys,
                                                     samples, system_config):
        cfg = system_config(2, [1.0, 2.0], [0.5, 0.7], samples=samples)
        out = tmp_path / "h.csv"
        code = cli.run(["fermion-heat", "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'samples'" in err and "integer >= 1" in err
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
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not out.exists()

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

    @pytest.mark.parametrize("orders, source", [
        (["3"], "flag --orders"), (["3", "1"], "flag --orders"),
        ([2, 2], "config key 'orders'")])
    def test_scan_orders_must_be_an_increasing_pair(self, tmp_path, capsys,
                                                    orders, source):
        out = tmp_path / "o.csv"
        if source.startswith("flag"):
            argv = ["--orders", *orders]
        else:
            argv = ["--config",
                    write_json(tmp_path, "o.json", {"orders": orders})]
        code = cli.run(["population-scan", "--out", str(out),
                        "--grid", "1:1:1", *argv])
        assert code == cli.EXIT_CONFIG
        err, = capsys.readouterr().err.strip().splitlines()
        assert f"{source} must be two orders LOW HIGH" in err
        assert not out.exists()

    def test_config_orders_must_be_positive(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "o.json", {"orders": [0, 3]})
        code = cli.run(["nip-error", "--config", cfg,
                        "--out", str(tmp_path / "o.csv")])
        assert code == cli.EXIT_CONFIG
        assert "config key 'orders' must be a nonempty list of integers " \
            ">= 1" in capsys.readouterr().err

    def test_readme_command_table_matches_parser(self):
        assert {c: flags for c, (flags, _, _) in README_TABLE.items()} \
            == parser_flags()
        assert sum(len(flags) for flags in parser_flags().values()) == 53
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
assert cli.run(["fermion-steady", "--config", sys.argv[1],
                "--out", "steady.csv"]) == 0
fermion.oracle_deviation(2, 0, 1.0)
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
        # the covariance steady state, the density-matrix oracle and the
        # rsep lift; after the chaos run, whose eta flow is a Taylor flow;
        # and after a DOP853 run.  Only scipy.integrate's own import loads
        # scipy.sparse.linalg.
        assert loaded.split() == ["False"] * 6 + ["True", "True"]
        assert len((lazy / "scan.csv").read_text().splitlines()) == 5
        proc = run_python(["-c", EAGER_CHAOS], eager)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == chaos_printed + "\n"
        assert (lazy / "chaos.csv").read_bytes() == \
            (eager / "chaos.csv").read_bytes()


class TestPopulationCommands:
    def test_traj_schema(self, tmp_path):
        cfg = write_json(tmp_path, "t.json",
                         {"x0": [1.0, 1.05, 0.95], "order": 2,
                          "t_end": 0.02})
        out = tmp_path / "traj.csv"
        assert cli.run(["population-traj", "--config", cfg,
                        "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("t,x1_exact")
        assert "x3_nip" in header

    def test_scan_deterministic_across_threads(self, tmp_path):
        outs = []
        for threads, name in ((1, "a.csv"), (2, "b.csv")):
            out = tmp_path / name
            assert cli.run(["population-scan", "--out", str(out),
                            "--grid", "0.95:1.05:0.1", "--t-end", "0.02",
                            "--threads", str(threads)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

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
        cfg = write_json(tmp_path, "m.json",
                         {"model": spec, "x0": x0, "t_end": 0.5})
        out = tmp_path / "o.csv"
        code = cli.run([command, "--config", cfg, "--out", str(out)])
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


class TestFermionCommands:
    def test_evolve_and_steady(self, fermion_config, tmp_path):
        out = tmp_path / "g.csv"
        assert cli.run(["fermion-evolve", "--config", fermion_config,
                        "--out", str(out), "--seed", "1"]) == 0
        assert out.read_text().splitlines()[0] == "i,j,value"
        out2 = tmp_path / "s.csv"
        assert cli.run(["fermion-steady", "--config", fermion_config,
                        "--out", str(out2)]) == cli.EXIT_CONFIG  # extra key
        cfg = write_json(tmp_path, "sys_only.json",
                         {"system": json.loads(
                             open(fermion_config).read())["system"]})
        assert cli.run(["fermion-steady", "--config", cfg,
                        "--out", str(out2)]) == 0

    def test_decay_and_heat(self, fermion_config, tmp_path):
        system_only = write_json(tmp_path, "system_only.json", {
            "system": json.loads(open(fermion_config).read())["system"]})
        assert cli.run(["fermion-decay", "--config", system_only,
                        "--out", str(tmp_path / "d.csv"), "--seed", "2"]) == 0
        assert cli.run(["fermion-heat", "--config", fermion_config,
                        "--out", str(tmp_path / "h.csv"), "--seed", "2"]) == 0

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
        cfg = write_json(tmp_path, "p.json", {"points": [RSEP_POINT],
                                              "t_end": 0.5})
        out = tmp_path / "sweep.csv"
        assert cli.run(["rsep-sweep", "--config", cfg,
                        "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("beta,gamma,delta,d,R_x_lower_bound,"
                            "R_x,R_eta,equiv_residual")
        assert len(lines) == 2


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
