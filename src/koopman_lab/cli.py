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
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fermion, nip, population, rsep, spectral
from .polyflow import GRID_SAMPLES, sample_grid, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
# Most cells `population-scan --grid` may ask for: the grid is its axis
# squared, about 1,000 times the 31 x 31 grid of the convergence criterion.
MAX_GRID_CELLS = 10**6
# Largest order (m + p) * len(x0) of an `ode-history` system, whose dense
# complex matrix then takes 64 MB.
MAX_HISTORY_ORDER = 2000
# Largest Taylor order `l` of an `ode-history` propagator, which takes l
# matrix products.  The step needs h <= 1/|A|, so term r of T_l(Ah) has
# norm at most 1/r!, below 1e-16 from r = 19 on.
MAX_TAYLOR_ORDER = 100
# Most samples of a `fermion-heat` curve, which keeps one (2N)^2 covariance
# per sample: 20 MB at N = 8.
MAX_HEAT_SAMPLES = 10**4
# Largest dimension d of an `rsep-sweep` point.  Its R-numbers take the
# spectral norm of a dense d x d^2 complex flattening, 16 MB at d = 100,
# where a point takes about 2 s and 0.1 GB; d = 200 takes 10 s and 0.3 GB.
MAX_RSEP_DIM = 100
# Largest horizon of `population-chaos`, whose Taylor flow takes time
# linear in it, about 4.7 ms per unit of t_end: 1.4 s at t_end = 200, 7.9 s
# at 1,600 and 56 s at 12,000 (2 cores, one BLAS thread), so the largest
# run accepted takes about 50 s.  Its 2001 samples keep the memory fixed.
MAX_CHAOS_T_END = 10**4
# Largest Kaiser window length J of the spectral commands, which write one
# CSV row per outcome and emulate one snapshot per window sample.
MAX_WINDOW_J = 10**5 + 1
# Most trials of `fermion-oracle-check`, each two covariance flows checked
# against the dense density-matrix oracle, whose `--N` is at most
# `fermion.ORACLE_MAX_N`.  At --N 4 a trial takes 34 ms on average (120 ms
# when it draws N = 4; 2 cores, one BLAS thread), so the limit is about
# 6 minutes.
MAX_ORACLE_TRIALS = 10**4


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


def _population_model(data):
    if "model" in data and data["model"] is not None:
        try:
            return nip.model_from_dict(data["model"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad 'model' entry: {exc}")
    return population.paper_model()


def _number(data, key, default):
    """Config value `key` (default if absent) as a float; a JSON number."""
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(
            f"config key {key!r} must be a number, got {value!r}")
    return float(value)


def _integer(data, key, default, minimum, maximum=None):
    """Config value `key` (default if absent); a JSON integer >= minimum
    and, when given, <= maximum."""
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or \
            value < minimum or (maximum is not None and value > maximum):
        bound = "" if maximum is None else f" and <= {maximum}"
        raise ConfigError(f"config key {key!r} must be an integer >= "
                          f"{minimum}{bound}, got {value!r}")
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


def _check_populations(model, name, x, value):
    """Refuse, naming `name` (a config key or a flag), populations x that
    the mode map `nip.x_to_eta` refuses: one not positive, or one at its
    pole."""
    try:
        nip.x_to_eta(model, x)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}, got {value!r}") from None


def _x0(data, model, default):
    """Config value "x0" (default if absent); one finite number per
    coordinate of the model, each a population the mode map takes."""
    x0 = _vector(data, "x0", default)
    if not np.isfinite(x0).all():
        raise ConfigError(f"config key 'x0' must hold finite numbers, got "
                          f"{x0.tolist()!r}")
    if x0.size != model.dim:
        raise ConfigError(f"config key 'x0' must hold {model.dim} numbers, "
                          f"one per model coordinate, got {x0.size}")
    _check_populations(model, "config key 'x0'", x0, x0.tolist())
    return x0


def _t_end(args, default):
    """--t-end, else the command's default."""
    return default if args.t_end is None else args.t_end


def _check_flags(args):
    """Range checks of the flags a command declares; absent ones are None."""
    for flag, minimum, maximum in (("threads", 1, None), ("seed", 0, None),
                                   ("trials", 1, MAX_ORACLE_TRIALS),
                                   ("N", 1, fermion.ORACLE_MAX_N)):
        value = getattr(args, flag, None)
        if value is not None and (value < minimum or (
                maximum is not None and value > maximum)):
            bound = "" if maximum is None else f" and <= {maximum}"
            raise ConfigError(
                f"flag --{flag} must be >= {minimum}{bound}, got {value}")
    orders = getattr(args, "orders", None)
    if orders is not None and min(orders) < 1:
        raise ConfigError(f"flag --orders takes orders >= 1, got "
                          f"{' '.join(map(str, orders))}")
    tol = getattr(args, "tol", None)
    if tol is not None and not 0 < tol < np.inf:
        raise ConfigError(f"flag --tol must be finite and positive, got {tol}")
    t_end = getattr(args, "t_end", None)
    if t_end is not None and not 0 <= t_end < np.inf:
        raise ConfigError(
            f"flag --t-end must be finite and nonnegative, got {t_end}")


def _orders(args, default):
    """Lift orders from --orders, else the command's default."""
    return list(default if args.orders is None else args.orders)


def _parse_grid(text):
    """The axis LO, LO + STEP, ... up to HI (within 1e-9 STEP) of --grid,
    the values np.arange takes: LO, LO + STEP, then LO + k ((LO + STEP) -
    LO).  The scan takes its square, so its length is checked before it is
    allocated."""
    try:
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise ConfigError("flag --grid expects LO:HI:STEP")
    if not (all(map(math.isfinite, (lo, hi, step))) and lo <= hi
            and step > 0):
        raise ConfigError("flag --grid needs finite LO <= HI and STEP > 0")
    # steps past LO; counted, since HI + 1e-9 STEP rounds to HI at large HI
    steps = (hi - lo) / step + 1e-9
    if not steps < math.isqrt(MAX_GRID_CELLS):
        raise ConfigError(f"flag --grid {text} has more than "
                          f"{math.isqrt(MAX_GRID_CELLS)} points, "
                          f"{MAX_GRID_CELLS} cells")
    n = int(steps) + 1
    axis = np.arange(n) * ((lo + step) - lo) + lo
    axis[:2] = (lo, lo + step)[:n]
    if not np.all(np.diff(axis) > 0):
        raise ConfigError(f"flag --grid {text} repeats a value: STEP is "
                          f"below the spacing of floats near LO")
    return axis


# ---------------------------------------------------------------------------
# population / carleman subcommands

def _cmd_population_scan(args, data):
    model = _population_model(data)
    if model.dim != 3:  # the scan's cells are (x1, x2, x3)
        raise ConfigError(f"config key 'model' must have 3 populations for "
                          f"population-scan, got {model.dim}")
    grid = None
    if args.grid:
        grid = _parse_grid(args.grid)
        # each value as x2 and as x3, beside x1 at its capacity
        _check_populations(model, "flag --grid",
                           np.c_[np.full(grid.size, model.X[0]), grid, grid],
                           args.grid)
    orders = tuple(_orders(args, population.DEFAULT_ORDERS))
    if len(orders) != 2 or orders[0] >= orders[1]:
        raise ConfigError(f"flag --orders must be two orders LOW HIGH with "
                          f"LOW < HIGH, got {list(orders)}")
    x1 = _number(data, "x1", 1.0)
    if not math.isfinite(x1):
        raise ConfigError(f"config key 'x1' must be finite, got {x1!r}")
    # x1 beside the other populations at their capacities, eta = 0
    _check_populations(model, "config key 'x1'", np.r_[x1, model.X[1:]], x1)
    res = population.convergence_scan(
        model, x1_fixed=x1, x2_range=grid, x3_range=grid, orders=orders,
        t_end=_t_end(args, population.DEFAULT_T_END),
        tol=args.tol, threads=args.threads)
    population.scan_to_csv(res, args.out)
    return EXIT_OK


def _cmd_population_traj(args, data):
    model = _population_model(data)
    x0 = _x0(data, model, [1.0, 1.4, 1.4])
    order, *rest = _orders(args, [3])
    if rest:
        raise ConfigError(f"flag --orders takes one order here, got "
                          f"{len(args.orders)}")
    t_end = _t_end(args, population.DEFAULT_T_END)
    exact, carl, mode = population.trajectory_compare(
        model, x0, order, t_end, tol=args.tol)
    if exact.diverged:
        raise NumericalError(exact.cause)
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
    write_csv(args.out, header, rows)
    return EXIT_OK


def _cmd_population_chaos(args, data):
    model = _population_model(data)
    if model.dim < 3:  # it writes the (x2, x3) projection
        raise ConfigError(f"config key 'model' must have at least 3 "
                          f"populations for population-chaos, got "
                          f"{model.dim}")
    x0 = _x0(data, model, [0.05, 1.3, 0.025])
    t_end = _t_end(args, population.CHAOS_T_END)
    if t_end > MAX_CHAOS_T_END:
        raise ConfigError(f"flag --t-end must be <= {MAX_CHAOS_T_END} for "
                          f"population-chaos, got {t_end!r}")
    res = population.chaos_demo(model, x0, t_end)
    if res.trajectory.diverged:
        raise NumericalError(res.trajectory.cause)
    write_csv(args.out, ["t", "x2", "x3"], res.projection)
    print(f"settled={res.settled} final_distance={res.final_distance:.17g}")
    return EXIT_OK


def _error_profile_cmd(args, data, evolve):
    model = _population_model(data)
    x0 = _x0(data, model, [1.0, 1.4, 1.4])
    orders = _orders(args, [1, 3, 6])
    t_end = _t_end(args, population.DEFAULT_T_END)
    sample_times = sample_grid(t_end)
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
    write_csv(args.out, header, rows)
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
        return fermion.system_from_dict(data["system"])
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
    t_end = _t_end(args, 1.0)
    final, _, _ = fermion.evolve_covariance(sys_, gamma0, t_end)
    rows = [(i, j, final.Gamma[i, j])
            for i in range(2 * sys_.N) for j in range(i + 1, 2 * sys_.N)]
    write_csv(args.out, ["i", "j", "value"], rows)
    return EXIT_OK


def _cmd_fermion_heat(args, data):
    sys_, gamma0 = _fermion_setup(args, data)
    t_end = _t_end(args, 1.0)
    times = np.linspace(0.0, t_end, _integer(
        data, "samples", GRID_SAMPLES, minimum=2, maximum=MAX_HEAT_SAMPLES))
    _, ts, gammas = fermion.evolve_covariance(sys_, gamma0, t_end,
                                              sample_times=times)
    e0 = fermion.energy(sys_.h, gamma0)
    rows = [(t, (e0 - fermion.energy(sys_.h, g)) / sys_.N)
            for t, g in zip(ts, gammas)]
    write_csv(args.out, ["t", "heat_per_fermion"], rows)
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
    write_csv(args.out, ["k", "l", "rate", "weight"], rows)
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
    write_csv(args.out, ["i", "j", "value"], rows)
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
        d = _integer(entry, "d", None, minimum=3, maximum=MAX_RSEP_DIM)
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
    t_end = _t_end(args, 1.0)
    try:
        rows = rsep.sweep(params, t_end)
    except rsep.PoleError as exc:
        raise NumericalError(str(exc))
    write_csv(args.out, ["beta", "gamma", "delta", "d", "R_x_lower_bound",
                         "R_x", "R_eta", "equiv_residual"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# spectral

def _spectral_modes(data):
    """Config key "modes": rows [mu, omega, re a, im a], amplitudes not all
    zero; the amplitudes are normalized."""
    modes = data["modes"]
    if not (isinstance(modes, list) and modes and all(
            isinstance(row, list) and len(row) == 4 and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v) for v in row)
            for row in modes)):
        raise ConfigError(f"config key 'modes' must be a nonempty list of "
                          f"rows of 4 finite numbers [mu, omega, re_a, "
                          f"im_a], got {modes!r}")
    arr = np.asarray(modes, dtype=float)
    a = arr[:, 2] + 1j * arr[:, 3]
    norm = np.linalg.norm(a)
    if norm == 0:
        raise ConfigError("config key 'modes' has all amplitudes (re_a, "
                          "im_a) zero")
    try:
        return spectral.NormalKoopman(arr[:, 0], arr[:, 1], a / norm)
    except ValueError as exc:
        raise ConfigError(f"bad 'modes' entry: {exc}")


def _spectral_window(data):
    try:
        return spectral.kaiser_window(
            _integer(data, "J", 401, minimum=3, maximum=MAX_WINDOW_J),
            _number(data, "sigma", 3.0))
    except ValueError as exc:
        raise ConfigError(f"bad window parameters: {exc}")


def _spectral_dt(data):
    """Config value "dt" (default 1): finite and positive, and large enough
    that every decoded frequency, of magnitude below pi / dt, is finite."""
    dt = _number(data, "dt", 1.0)
    if not 0 < dt < np.inf:
        raise ConfigError(
            f"config key 'dt' must be finite and positive, got {dt!r}")
    if not math.isfinite(math.pi / dt):
        raise ConfigError(f"config key 'dt' is so small that the decoded "
                          f"frequency pi / dt overflows, got {dt!r}")
    return dt


def _cmd_spectral_window(args, data):
    window = _spectral_window(data)
    dt = _spectral_dt(data)
    theta = _number(data, "theta", 0.0)
    if not -math.pi <= theta <= math.pi:  # the phases the bins decode
        raise ConfigError(
            f"config key 'theta' must lie in [-pi, pi], got {theta!r}")
    p = spectral.qpe_distribution(window, theta)
    rows = []
    for ell in range(window.J):
        th, om = spectral.decode(ell, window.J, dt)
        rows.append((ell, th, om, p[ell]))
    write_csv(args.out, ["ell", "theta_hat", "omega_hat", "p"], rows)
    return EXIT_OK


def _spectral_emulation(args, data, n_samples, seed):
    """Emulated and ideal outcome distributions of the config's modes, and
    `n_samples` outcomes drawn from the emulated one with `seed`."""
    modes = _spectral_modes(data)
    window = _spectral_window(data)
    dt = _spectral_dt(data)
    if "T1" in data:
        T1 = _number(data, "T1", None)
        if not 0 <= T1 < np.inf:
            raise ConfigError(f"config key 'T1' must be finite and "
                              f"nonnegative, got {T1!r}")
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
    write_csv(args.out, ["ell", "theta_hat", "omega_hat", "p_ideal",
                          "p_emulated", "count"], rows)
    print(f"tv={tv:.17g}")
    return EXIT_OK


def _cmd_spectral_emulate(args, data):
    return _spectral_emulation(args, data, n_samples=0, seed=None)


def _cmd_spectral_sample(args, data):
    return _spectral_emulation(
        args, data, _integer(data, "n_samples", 0, minimum=0,
                             maximum=np.iinfo(np.int64).max), args.seed)


def _cmd_ode_history(args, data):
    m = _integer(data, "m", None, minimum=1)
    p = _integer(data, "p", None, minimum=0)
    l = _integer(data, "l", None, minimum=1, maximum=MAX_TAYLOR_ORDER)
    h = _number(data, "h", None)
    if not 0 < h < np.inf:
        raise ConfigError(
            f"config key 'h' must be finite and positive, got {h!r}")
    try:
        A = np.asarray(data["A"], dtype=complex)
        x0 = np.asarray(data["x0"], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad 'A' or 'x0' entry: {exc}")
    if x0.ndim != 1 or x0.size == 0 or A.shape != (x0.size, x0.size):
        raise ConfigError(f"config key 'x0' must be a nonempty list and 'A' "
                          f"a square matrix of its size, got shapes "
                          f"{x0.shape} and {A.shape}")
    if (m + p) * x0.size > MAX_HISTORY_ORDER:
        raise ConfigError(f"config keys 'm', 'p' and 'x0' give a history "
                          f"system of order ({m} + {p}) * {x0.size}, above "
                          f"{MAX_HISTORY_ORDER}")
    try:
        hist = spectral.history_system(A, x0, m, p, l, h)
    except ValueError as exc:
        raise NumericalError(str(exc))
    resid, final_err = spectral.history_residuals(hist, x0)
    rows = [(s, i, hist.blocks[s, i].real, hist.blocks[s, i].imag)
            for s in range(hist.m + hist.p) for i in range(x0.size)]
    write_csv(args.out, ["s", "i", "re", "im"], rows)
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
_POPULATION = ("model", "x0")
_SPECTRAL = ("J", "sigma", "dt", "T1", "n_samples")

_COMMANDS = {
    "population-scan": _Command(
        _cmd_population_scan, _LIFT + ("--grid", "--threads"),
        optional=("model", "x1")),
    "population-traj": _Command(
        _cmd_population_traj, _LIFT, optional=_POPULATION),
    "population-chaos": _Command(
        _cmd_population_chaos, _IO + ("--t-end",), optional=_POPULATION),
    "carleman-error": _Command(
        _cmd_carleman_error, _LIFT, optional=_POPULATION),
    "nip-error": _Command(
        _cmd_nip_error, _LIFT, optional=_POPULATION),
    "fermion-evolve": _Command(
        _cmd_fermion_evolve, _IO + ("--seed", "--t-end"), ("system",),
        ("gamma0",)),
    "fermion-heat": _Command(
        _cmd_fermion_heat, _IO + ("--seed", "--t-end"), ("system",),
        ("gamma0", "samples")),
    "fermion-decay": _Command(
        _cmd_fermion_decay, _IO + ("--seed",), ("system",), ("gamma0",)),
    "fermion-steady": _Command(_cmd_fermion_steady, _IO, ("system",)),
    "fermion-oracle-check": _Command(
        _cmd_fermion_oracle_check, ("--seed", "--N", "--trials")),
    "rsep-sweep": _Command(
        _cmd_rsep_sweep, _IO + ("--t-end",), ("points",)),
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
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
        args, extra = parser.parse_known_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code != 0 else EXIT_OK
    command = _COMMANDS[args.command]
    if extra:
        return _fail(EXIT_CONFIG, "config error",
                     f"{args.command} does not accept {' '.join(extra)}; "
                     f"its flags are {' '.join(command.flags)}")
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
