"""Command-line entry point.

One table, `_COMMANDS`, gives each subcommand its handler, the flags it
reads and the JSON config keys it requires or allows; the parser is built
from it and the config is checked against it before the handler runs, so
any other flag or key is refused.  Every subcommand runs deterministically
under the given seed and writes CSV/JSON outputs formatted with 17
significant digits so reruns are byte-identical.  Exit codes: 0 success, 2
config error (the diagnostic names the offending key or flag), 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fermion, nip, population, rsep, spectral

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    pass


class NumericalError(Exception):
    pass


def _load_config(path, allowed, required=()):
    if path is None:
        data = {}
    else:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown config key: {key!r}")
    for key in required:
        if key not in data:
            raise ConfigError(f"missing config key: {key!r}")
    return data


def _write_csv(path, header, rows):
    def fmt(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, complex) or isinstance(v, np.complexfloating):
            raise NumericalError("refusing to write complex value to CSV")
        return f"{float(v):.17g}"

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([fmt(v) for v in row])


def _population_model(data):
    if "model" in data and data["model"] is not None:
        try:
            return nip.model_from_json(json.dumps(data["model"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad 'model' entry: {exc}")
    return population.paper_model()


def _number(data, key, default):
    """Config value `key` (default if absent) as a float; a JSON number."""
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(
            f"config key {key!r} must be a number, got {value!r}")
    return float(value)


def _integer(data, key, default, minimum):
    """Config value `key` (default if absent); a JSON integer >= minimum."""
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or \
            value < minimum:
        raise ConfigError(f"config key {key!r} must be an integer >= "
                          f"{minimum}, got {value!r}")
    return value


def _vector(data, key, default):
    """Config value `key` (default if absent); a nonempty list of numbers."""
    value = data.get(key, default)
    if not (isinstance(value, list) and value and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in value)):
        raise ConfigError(f"config key {key!r} must be a nonempty list of "
                          f"numbers, got {value!r}")
    return np.asarray(value, dtype=float)


def _t_end(args, data, default):
    """--t-end, else the config's "t_end", else default."""
    if args.t_end is not None:
        return args.t_end
    t_end = _number(data, "t_end", default)
    if not 0 <= t_end < np.inf:
        raise ConfigError(f"config key 't_end' must be finite and "
                          f"nonnegative, got {t_end!r}")
    return t_end


def _check_flags(args):
    """Range checks of the flags a command declares; absent ones are None."""
    threads = getattr(args, "threads", None)
    if threads is not None and threads < 1:
        raise ConfigError(f"flag --threads must be >= 1, got {threads}")
    tol = getattr(args, "tol", None)
    if tol is not None and not tol > 0:
        raise ConfigError(f"flag --tol must be positive, got {tol}")
    t_end = getattr(args, "t_end", None)
    if t_end is not None and not 0 <= t_end < np.inf:
        raise ConfigError(
            f"flag --t-end must be finite and nonnegative, got {t_end}")
    for flag in ("trials", "N"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise ConfigError(f"flag --{flag} must be >= 1, got {value}")


def _orders(args, data, default):
    """Lift orders from --orders, else the config's "orders", else default."""
    if args.orders is not None:
        return list(args.orders)
    orders = data.get("orders", default)
    if not (isinstance(orders, (list, tuple)) and orders and all(
            isinstance(n, int) and not isinstance(n, bool) for n in orders)):
        raise ConfigError(
            f"config key 'orders' must be a nonempty list of integers, "
            f"got {orders!r}")
    return list(orders)


def _parse_grid(text):
    try:
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise ConfigError("flag --grid expects LO:HI:STEP")
    if step <= 0 or hi < lo:
        raise ConfigError("flag --grid needs LO <= HI and STEP > 0")
    return np.arange(lo, hi + 1e-9 * step, step)


# ---------------------------------------------------------------------------
# population / carleman subcommands

def _cmd_population_scan(args, data):
    model = _population_model(data)
    grid = _parse_grid(args.grid) if args.grid else None
    orders = tuple(_orders(args, data, population.DEFAULT_ORDERS))
    res = population.convergence_scan(
        model, x1_fixed=_number(data, "x1", 1.0),
        x2_range=grid, x3_range=grid, orders=orders,
        t_end=_t_end(args, data, population.DEFAULT_T_END),
        tol=args.tol, threads=args.threads)
    population.scan_to_csv(res, args.out)
    return EXIT_OK


def _cmd_population_traj(args, data):
    model = _population_model(data)
    x0 = _vector(data, "x0", [1.0, 1.4, 1.4])
    if args.orders is None:
        order = _integer(data, "order", 3, minimum=1)
    elif len(args.orders) == 1:
        order = args.orders[0]
    else:
        raise ConfigError(f"flag --orders takes one order here, got "
                          f"{len(args.orders)}")
    t_end = _t_end(args, data, population.DEFAULT_T_END)
    exact, carl, mode = population.trajectory_compare(
        model, x0, order, t_end, tol=args.tol)
    if exact.diverged:
        raise NumericalError("reference trajectory diverged")
    header = ["t"] + [f"x{i+1}_exact" for i in range(model.dim)] \
        + [f"x{i+1}_carleman" for i in range(model.dim)] \
        + [f"x{i+1}_nip" for i in range(model.dim)]
    rows = []
    n = min(exact.times.size, carl.times.size, mode.times.size)
    for s in range(n):
        rows.append([exact.times[s]]
                    + list(exact.states[s].real)
                    + list(carl.states[s].real)
                    + list(mode.states[s].real))
    _write_csv(args.out, header, rows)
    return EXIT_OK


def _cmd_population_chaos(args, data):
    model = _population_model(data)
    x0 = _vector(data, "x0", [0.05, 1.3, 0.025])
    t_end = _t_end(args, data, population.CHAOS_T_END)
    res = population.chaos_demo(model, x0, t_end)
    if res.trajectory.diverged:
        raise NumericalError("chaos trajectory diverged")
    _write_csv(args.out, ["t", "x2", "x3"], res.projection)
    print(f"settled={res.settled} final_distance={res.final_distance:.17g}")
    return EXIT_OK


def _error_profile_cmd(args, data, evolve):
    model = _population_model(data)
    x0 = _vector(data, "x0", [1.0, 1.4, 1.4])
    orders = _orders(args, data, [1, 3, 6])
    t_end = _t_end(args, data, population.DEFAULT_T_END)
    sample_times = np.linspace(0.0, t_end, 129)
    reference = nip.reference_y_trajectory(model, x0, t_end,
                                           sample_times=sample_times)
    runs = [evolve(model, x0, n, t_end, args.tol,
                   sample_times, reference) for n in orders]
    header = ["t"] + [f"eps_order_{n}" for n in orders]
    rows = []
    for s in range(sample_times.size):
        row = [sample_times[s]]
        for run in runs:
            v = run.eps[s] if s < run.eps.size else np.inf
            row.append(v if np.isfinite(v) else np.inf)
        rows.append(row)
    _write_csv(args.out, header, rows)
    for n, run in zip(orders, runs):
        print(f"order={n} eps_max={run.eps_max:.17g}")
    return EXIT_OK


def _cmd_carleman_error(args, data):
    return _error_profile_cmd(args, data, nip.vacancy_evolve)


def _cmd_nip_error(args, data):
    return _error_profile_cmd(args, data, nip.nip_evolve)


# ---------------------------------------------------------------------------
# fermion subcommands

def _fermion_system(data):
    try:
        return fermion.system_from_json(json.dumps(data["system"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad 'system' entry: {exc}")


def _fermion_setup(args, data):
    """The config's system and initial covariance: "gamma0", else a random
    antisymmetric matrix drawn with --seed."""
    sys_ = _fermion_system(data)
    if "gamma0" in data:
        try:
            gamma0 = fermion.CovarianceState(np.asarray(data["gamma0"],
                                                        dtype=float))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad 'gamma0' entry: {exc}")
    else:
        rng = np.random.default_rng(args.seed)
        gamma0 = fermion.CovarianceState(
            fermion.random_antisymmetric(2 * sys_.N, rng))
    return sys_, gamma0


def _cmd_fermion_evolve(args, data):
    sys_, gamma0 = _fermion_setup(args, data)
    t_end = _t_end(args, data, 1.0)
    final, _, _ = fermion.evolve_covariance(sys_, gamma0, t_end)
    rows = [(i, j, final.Gamma[i, j])
            for i in range(2 * sys_.N) for j in range(i + 1, 2 * sys_.N)]
    _write_csv(args.out, ["i", "j", "value"], rows)
    return EXIT_OK


def _cmd_fermion_heat(args, data):
    sys_, gamma0 = _fermion_setup(args, data)
    t_end = _t_end(args, data, 1.0)
    times = np.linspace(0.0, t_end, _integer(data, "samples", 129, minimum=1))
    _, ts, gammas = fermion.evolve_covariance(sys_, gamma0, t_end,
                                              sample_times=times)
    e0 = fermion.energy(sys_.h, gamma0)
    rows = [(t, (e0 - fermion.energy(sys_.h, g)) / sys_.N)
            for t, g in zip(ts, gammas)]
    _write_csv(args.out, ["t", "heat_per_fermion"], rows)
    return EXIT_OK


def _cmd_fermion_decay(args, data):
    sys_, gamma0 = _fermion_setup(args, data)
    try:
        spec = fermion.decay_spectrum(sys_, gamma0)
    except fermion.SecularError as exc:
        raise NumericalError(str(exc))
    rows = [(k, l, rate, weight)
            for (k, l), rate, weight in zip(spec.pairs, spec.rates,
                                            spec.weights)]
    _write_csv(args.out, ["k", "l", "rate", "weight"], rows)
    print(f"gap={spec.gap:.17g}")
    return EXIT_OK


def _cmd_fermion_steady(args, data):
    sys_ = _fermion_system(data)
    try:
        steady = fermion.steady_state(sys_)
    except fermion.GaplessError as exc:
        raise NumericalError(str(exc))
    rows = [(i, j, steady.Gamma[i, j])
            for i in range(2 * sys_.N) for j in range(i + 1, 2 * sys_.N)]
    _write_csv(args.out, ["i", "j", "value"], rows)
    return EXIT_OK


def _cmd_fermion_oracle_check(args, data):
    worst = 0.0
    rng = np.random.default_rng(args.seed)
    for trial in range(args.trials):
        N = int(rng.integers(1, args.N + 1))
        seed = int(rng.integers(0, 2**31))
        for t_end in (0.1, 1.0):
            dev = fermion.oracle_deviation(N, seed, t_end)
            worst = max(worst, dev)
    print(f"max_deviation={worst:.17g}")
    if worst > 1e-6:
        raise NumericalError(f"oracle deviation {worst} exceeds 1e-6")
    return EXIT_OK


# ---------------------------------------------------------------------------
# rsep

def _cmd_rsep_sweep(args, data):
    points = data["points"]
    if not (isinstance(points, list) and points and
            all(isinstance(entry, dict) for entry in points)):
        raise ConfigError(f"config key 'points' must be a nonempty list of "
                          f"objects, got {points!r}")
    params = []
    for entry in points:
        for key in entry:
            if key not in {"d", "beta", "gamma", "delta", "seed"}:
                raise ConfigError(f"unknown sweep key: {key!r}")
        for key in ("d", "beta", "gamma", "delta"):
            if key not in entry:
                raise ConfigError(f"missing sweep key: {key!r}")
        d = _integer(entry, "d", None, minimum=3)
        A = None
        if "seed" in entry:
            A = rsep.haar_unitary(d, _integer(entry, "seed", None, minimum=0))
        try:
            params.append(rsep.RsepParams(d, _number(entry, "beta", None),
                                          _number(entry, "gamma", None),
                                          _number(entry, "delta", None),
                                          A=A))
        except ValueError as exc:
            raise ConfigError(f"bad sweep point: {exc}")
    t_end = _t_end(args, data, 1.0)
    try:
        rows = rsep.sweep(params, t_end)
    except rsep.PoleError as exc:
        raise NumericalError(str(exc))
    rsep.sweep_to_csv(rows, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# spectral

def _spectral_modes(data):
    try:
        arr = np.asarray(data["modes"], dtype=float)
        a = arr[:, 2] + 1j * arr[:, 3]
        a = a / np.linalg.norm(a)
        return spectral.NormalKoopman(arr[:, 0], arr[:, 1], a)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad 'modes' entry: {exc}")


def _spectral_window(data):
    try:
        return spectral.kaiser_window(_integer(data, "J", 401, minimum=3),
                                      _number(data, "sigma", 3.0))
    except ValueError as exc:
        raise ConfigError(f"bad window parameters: {exc}")


def _cmd_spectral_window(args, data):
    window = _spectral_window(data)
    dt = _number(data, "dt", 1.0)
    theta = _number(data, "theta", 0.0)
    p = spectral.qpe_distribution(window, theta)
    rows = []
    for ell in range(window.J):
        th, om = spectral.decode(ell, window.J, dt)
        rows.append((ell, th, om, p[ell]))
    _write_csv(args.out, ["ell", "theta_hat", "omega_hat", "p"], rows)
    return EXIT_OK


def _spectral_emulation(args, data, n_samples, seed):
    """Emulated and ideal outcome distributions of the config's modes, and
    `n_samples` outcomes drawn from the emulated one with `seed`."""
    modes = _spectral_modes(data)
    window = _spectral_window(data)
    dt = _number(data, "dt", 1.0)
    if "T1" in data:
        T1 = _number(data, "T1", None)
    else:
        try:
            T1 = spectral.suppression_time(modes.gap, 1e-3)
        except ValueError:
            T1 = 0.0
    try:
        p, tv = spectral.emulate_spectral_qka(modes, window, T1, dt)
        p_ideal = spectral.ideal_mode_distribution(modes, dt, window)
    except (spectral.AliasingError, ValueError) as exc:
        raise NumericalError(str(exc))
    counts = spectral.sample_outcomes(p, n_samples, seed) \
        if n_samples else np.zeros(window.J, dtype=int)
    rows = []
    for ell in range(window.J):
        th, om = spectral.decode(ell, window.J, dt)
        rows.append((ell, th, om, p_ideal[ell], p[ell], counts[ell]))
    _write_csv(args.out, ["ell", "theta_hat", "omega_hat", "p_ideal",
                          "p_emulated", "count"], rows)
    print(f"tv={tv:.17g}")
    return EXIT_OK


def _cmd_spectral_emulate(args, data):
    return _spectral_emulation(args, data, n_samples=0, seed=None)


def _cmd_spectral_sample(args, data):
    return _spectral_emulation(
        args, data, _integer(data, "n_samples", 0, minimum=0), args.seed)


def _cmd_ode_history(args, data):
    m = _integer(data, "m", None, minimum=1)
    p = _integer(data, "p", None, minimum=0)
    l = _integer(data, "l", None, minimum=1)
    h = _number(data, "h", None)
    try:
        A = np.asarray(data["A"], dtype=complex)
        x0 = np.asarray(data["x0"], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad 'A' or 'x0' entry: {exc}")
    try:
        hist = spectral.history_system(A, x0, m, p, l, h)
    except ValueError as exc:
        raise NumericalError(str(exc))
    resid, final_err = spectral.history_residuals(hist, x0)
    rows = [(s, i, hist.blocks[s, i].real, hist.blocks[s, i].imag)
            for s in range(hist.m + hist.p) for i in range(x0.size)]
    _write_csv(args.out, ["s", "i", "re", "im"], rows)
    print(f"recurrence_residual={resid:.17g} final_error={final_err:.17g}")
    return EXIT_OK


# ---------------------------------------------------------------------------

# Every flag a subcommand may declare, with its argparse settings.
_FLAGS = {
    "--config": dict(default=None),
    "--out": dict(required=True),
    "--seed": dict(type=int, default=0),
    "--threads": dict(type=int, default=None),
    "--tol": dict(type=float, default=1e-10),
    "--t-end": dict(dest="t_end", type=float, default=None),
    "--orders": dict(type=int, nargs="+", default=None),
    "--grid": dict(default=None),
    "--N": dict(type=int, default=3),
    "--trials": dict(type=int, default=20),
}


@dataclass(frozen=True)
class _Command:
    """A subcommand: its handler(args, config), the flags it reads, and the
    config keys it requires and those it also allows."""

    handler: Callable
    flags: tuple
    required: tuple = ()
    optional: tuple = ()


_IO = ("--config", "--out")
_LIFT = _IO + ("--orders", "--t-end", "--tol")
_POPULATION = ("model", "x0", "t_end")
_SPECTRAL = ("J", "sigma", "dt", "T1", "n_samples")

_COMMANDS = {
    "population-scan": _Command(
        _cmd_population_scan, _LIFT + ("--grid", "--threads"),
        optional=("model", "x1", "t_end", "orders")),
    "population-traj": _Command(
        _cmd_population_traj, _LIFT, optional=_POPULATION + ("order",)),
    "population-chaos": _Command(
        _cmd_population_chaos, _IO + ("--t-end",), optional=_POPULATION),
    "carleman-error": _Command(
        _cmd_carleman_error, _LIFT, optional=_POPULATION + ("orders",)),
    "nip-error": _Command(
        _cmd_nip_error, _LIFT, optional=_POPULATION + ("orders",)),
    "fermion-evolve": _Command(
        _cmd_fermion_evolve, _IO + ("--seed", "--t-end"), ("system",),
        ("gamma0", "t_end")),
    "fermion-heat": _Command(
        _cmd_fermion_heat, _IO + ("--seed", "--t-end"), ("system",),
        ("gamma0", "t_end", "samples")),
    "fermion-decay": _Command(
        _cmd_fermion_decay, _IO + ("--seed",), ("system",), ("gamma0",)),
    "fermion-steady": _Command(_cmd_fermion_steady, _IO, ("system",)),
    "fermion-oracle-check": _Command(
        _cmd_fermion_oracle_check, ("--seed", "--N", "--trials")),
    "rsep-sweep": _Command(
        _cmd_rsep_sweep, _IO + ("--t-end",), ("points",), ("t_end",)),
    "spectral-window": _Command(
        _cmd_spectral_window, _IO, optional=("J", "sigma", "theta", "dt")),
    # spectral-emulate draws no samples, yet it allows "n_samples" so that
    # one config file serves both it and spectral-sample, as the benchmark's
    # cli workload passes them.
    "spectral-emulate": _Command(
        _cmd_spectral_emulate, _IO, ("modes",), _SPECTRAL),
    "spectral-sample": _Command(
        _cmd_spectral_sample, _IO + ("--seed",), ("modes",), _SPECTRAL),
    "ode-history": _Command(
        _cmd_ode_history, _IO, ("A", "x0", "m", "p", "l", "h")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="koopman-lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in command.flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code != 0 else EXIT_OK
    command = _COMMANDS[args.command]
    try:
        _check_flags(args)
        data = _load_config(getattr(args, "config", None),
                            command.required + command.optional,
                            command.required)
        return command.handler(args, data)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config error", exc)
    except NumericalError as exc:
        return _fail(EXIT_NUMERICAL, "numerical failure", exc)
    except OSError as exc:
        # The config was read in _load_config, so a file that fails here is
        # an output.
        return _fail(EXIT_CONFIG, f"cannot write output {exc.filename}",
                     exc.strerror)
    except ValueError as exc:
        # DimensionError, OverflowGuardError, ConstantDriveError, bad inputs
        return _fail(EXIT_CONFIG, f"invalid input ({type(exc).__name__})",
                     exc)
    except (RuntimeError, FloatingPointError) as exc:
        # StepUnderflowError and other integrator failures
        return _fail(EXIT_NUMERICAL,
                     f"numerical failure ({type(exc).__name__})", exc)


def _fail(code, cause, exc):
    message = " ".join(str(exc).split())
    print(f"{cause}: {message}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
