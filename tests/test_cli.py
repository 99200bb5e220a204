import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import koopman_lab
from koopman_lab import cli, fermion


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def fermion_config(tmp_path):
    h, jumps = fermion.commuting_example(2, [1.0, 2.0], [0.5, 0.7])
    sys = fermion.FermionSystem(2, h, jumps)
    payload = {"system": json.loads(fermion.system_to_json(sys)),
               "t_end": 0.5}
    return write_json(tmp_path, "fermion.json", payload)


def system_config(tmp_path, N, omegas, gammas, **extra):
    sys_ = fermion.FermionSystem(
        N, *fermion.commuting_example(N, omegas, gammas))
    payload = {"system": json.loads(fermion.system_to_json(sys_)), **extra}
    return write_json(tmp_path, "system.json", payload)


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

    def test_zero_population_is_a_config_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "zero.json",
                         {"x0": [0.0, 1.0, 1.0], "order": 2, "t_end": 0.02})
        code = cli.run(["population-traj", "--config", cfg,
                        "--out", str(tmp_path / "o.csv")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "ValueError" in err and "positive" in err
        assert len(err.strip().splitlines()) == 1

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
                                         payload, key):
        if command.startswith("fermion"):
            cfg = system_config(tmp_path, 1, [1.0], [0.5], **payload)
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
                                                     samples):
        cfg = system_config(tmp_path, 2, [1.0, 2.0], [0.5, 0.7],
                            samples=samples)
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

    def test_decay_rejects_t_end(self, tmp_path, capsys):
        cfg = system_config(tmp_path, 2, [1.0, 2.0], [0.5, 0.7], t_end=0.5)
        out = tmp_path / "d.csv"
        code = cli.run(["fermion-decay", "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "'t_end'" in capsys.readouterr().err
        assert not out.exists()

    def test_gapless_steady_state_is_numerical(self, tmp_path, capsys):
        # the second mode has no loss: no unique steady state
        cfg = system_config(tmp_path, 2, [1.0, 2.0], [0.5, 0.0])
        out = tmp_path / "s.csv"
        code = cli.run(["fermion-steady", "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_NUMERICAL
        assert "lambda_i + lambda_j" in capsys.readouterr().err
        assert not out.exists()

    def test_module_entry_point(self, tmp_path):
        src = str(Path(koopman_lab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "koopman_lab", *argv], cwd=tmp_path,
                env=env, capture_output=True, text=True, timeout=120)

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

    def test_error_profile(self, tmp_path):
        out = tmp_path / "eps.csv"
        assert cli.run(["nip-error", "--out", str(out), "--orders", "1", "2",
                        "--t-end", "0.02"]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "t,eps_order_1,eps_order_2"


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

    @pytest.mark.parametrize("command", ["fermion-evolve", "fermion-heat",
                                         "fermion-steady"])
    def test_outputs_identical_across_runs(self, tmp_path, command):
        cfg = system_config(tmp_path, 3, [1.0, 2.0, 0.7], [0.4, 0.9, 0.6])
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
        # the two N = 4 draws at t_end = 1 take expm_multiply's randomized
        # 1-norm estimate
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

    def test_ode_history(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "h.json",
                         {"A": [[-0.3, 0.0], [0.0, -0.1]],
                          "x0": [1.0, 0.5], "m": 6, "p": 3, "l": 6,
                          "h": 0.05})
        out = tmp_path / "h.csv"
        assert cli.run(["ode-history", "--config", cfg,
                        "--out", str(out)]) == 0
        assert "recurrence_residual" in capsys.readouterr().out
