"""Command-line entry point.

One table, `_COMMANDS`, gives each subcommand its handler, the flags it
reads and the JSON config keys it requires or allows; the parser is built
from it, and any other flag or key is refused.  Another, `_DOMAINS`, holds
what each flag and key may take, and one checker reads every value against
it before the handler runs.  Every subcommand runs deterministically under
the given seed and writes CSV outputs with 17 significant digits, so reruns
are byte-identical.  Exit codes: 0 success, 2 config error (the diagnostic
names the offending key or flag), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import fermion, nip, population, rsep, spectral
from .carleman import monomial_count, steps_exactly
from .polyflow import GRID_SAMPLES, sample_grid, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
# Most cells `population-scan --grid` may ask for: the grid is its axis
# squared, about 1,000 times the 31 x 31 grid of the convergence criterion.
MAX_GRID_CELLS = 10**6
# Most estimated seconds of the lifted runs of one `population-scan`,
# `population-traj`, `carleman-error` or `nip-error` (`_lift_seconds`): the
# default 31 x 31 grid at the default orders takes about 50 s at its largest
# --t-end, and at --orders 2 8 about 23 s at the default --t-end.
MAX_LIFT_SECONDS = 60
# DOP853 seconds per unit of t_end of one run of a route's lift at order n
# with D monomials, n (a + b D n^k), as (a, b, k): the vacancy lift's
# triplets per monomial grow with the order, the mode lift's barely do.
_DOP853_RATES = {"vacancy": (1.5e-3, 7.9e-6, 1), "mode": (2.4e-3, 14.5e-6, 0)}
# Largest order (m + p) * len(x0) of an `ode-history` system, whose dense
# complex matrix then takes 64 MB.
MAX_HISTORY_ORDER = 2000
# Largest Taylor order `l` of an `ode-history` propagator, which takes l
# matrix products.  The step needs h <= 1/|A|, so term r of T_l(Ah) has
# norm at most 1/r!, below 1e-16 from r = 19 on.
MAX_TAYLOR_ORDER = 100
# Most samples of a `fermion-heat` curve, and most bytes of them: each is
# one (2N)^2 float64 covariance, 10^4 take 20 MB at N = 8.
MAX_HEAT_SAMPLES = 10**4
MAX_HEAT_BYTES = 2**31
# Largest N of a fermion `system`.  At N = 512, with a dense random h and
# two jumps, `fermion-steady` takes 23 s and 0.4 GB and `fermion-evolve`,
# whose 129 (2N)^2 samples take 1.1 GB, 25 s and 1.5 GB (2 cores, one BLAS).
MAX_FERMION_N = 512
# Largest dimension d of an `rsep-sweep` point.  Its R-numbers take the
# spectral norm of a dense d x d^2 complex flattening, 16 MB at d = 100,
# where a point takes about 2 s and 0.1 GB; d = 200 takes 10 s and 0.3 GB.
MAX_RSEP_DIM = 100
# Most points x (--t-end + 15) of one `rsep-sweep`.  A d = 100 point takes
# about 17 ms per unit of t_end after a set-up worth about 15 units: 0.20 s
# at --t-end 0, 0.34 s at 1, 0.55 s at 10 and 2.1 s at 100 (2 cores, one
# BLAS thread).  The bound admits 100 points at the default --t-end 1,
# about 35 s at d = 100, and one at --t-end 1000, about 18 s.
MAX_RSEP_WORK = 100 * (1 + 15)
# The x-side log-norm -delta of an `rsep-sweep` point errs by a few ulps of
# |F1| = gamma: R_x is not resolved at delta <= RSEP_DELTA_ULPS eps gamma.
RSEP_DELTA_ULPS = 32
# Largest --t-end of `population-chaos`, as `_COMMANDS` gives the others.
MAX_CHAOS_T_END = 10**4
# Largest Kaiser window length J of the spectral commands, which write one
# CSV row per outcome and emulate one snapshot per window sample.
MAX_WINDOW_J = 10**5 + 1
# Most trials of `fermion-oracle-check`, each two covariance flows checked
# against the dense density-matrix oracle, whose `--N` is at most
# `fermion.ORACLE_MAX_N`.  At --N 4 a trial takes 18 ms on average (65 ms
# when it draws N = 4; 2 cores, one BLAS thread), so the limit is about
# 3 minutes.
MAX_ORACLE_TRIALS = 10**4


class ConfigError(Exception):
    pass


class NumericalError(Exception):
    pass


@dataclass(frozen=True)
class _Domain:
    """The values of a flag or config key: its `kind` ("number", always
    finite, "integer", "list" of finite numbers, "matrix" of equal rows of
    finite numbers, named by `columns` when fixed, "object" read by `parse`
    from its `fields`, or the flag kinds "integers" and "text"), a list of
    them when `many`, bounds low <= value <= high (low < value when
    `open_low`; a list's low bounds its length), its `default`,
    and whether it is `required`."""

    kind: str
    default: object = None
    low: float | None = None
    high: float | None = None
    open_low: bool = False
    required: bool = False
    many: bool = False
    columns: tuple = ()
    fields: dict | None = None
    parse: Callable | None = None


def _is_number(value, types=(int, float)):
    return isinstance(value, types) and not isinstance(value, bool)


def _finite(value):
    """A nested list of numbers as a float array, None unless finite."""
    try:
        array = np.asarray(value, dtype=float)
    except OverflowError:  # an integer past the float range
        return None
    return array if np.isfinite(array).all() else None


def _within(d, value):
    return ((d.low is None or value > d.low or value == d.low
             and not d.open_low) and (d.high is None or value <= d.high))


def _range(d):
    """A number's bounds as a message states them (low is 0 or -pi)."""
    if d.high is not None:
        name = {math.pi: "pi", -math.pi: "-pi"}
        return f"lie in [{name[d.low]}, {name[d.high]}]"
    return "be finite" + ("" if d.low is None else " and positive"
                          if d.open_low else " and nonnegative")


def _checked(name, value, d):
    """Flag or key `name`'s value as its handler reads it, if it lies in
    domain `d`; else a ConfigError that names `name` and states `d`."""
    label = f"flag {name}" if name[0] == "-" else f"config key {name!r}"
    if d.many:
        if not (isinstance(value, list) and len(value) >= (d.low or 0)):
            raise ConfigError(f"{label} must be a {'nonempty ' * bool(d.low)}"
                              f"list, got {value!r}")
        entry = replace(d, many=False, low=None)
        return [_checked(name, v, entry) for v in value]
    if d.kind == "number":
        if not _is_number(value):
            raise ConfigError(f"{label} must be a number, got {value!r}")
        if isinstance(value, int) and abs(value) >= 2**1024:
            value = math.inf  # past the float range
        value = float(value)
        if not (math.isfinite(value) and _within(d, value)):
            raise ConfigError(f"{label} must {_range(d)}, got {value!r}")
    elif d.kind == "integer":
        if not (_is_number(value, int) and _within(d, value)):
            kind = "" if name[0] == "-" else "an integer "  # a flag is typed
            high = "" if d.high is None else f" and <= {d.high}"
            raise ConfigError(
                f"{label} must be {kind}>= {d.low}{high}, got {value!r}")
    elif d.kind == "integers":
        if min(value) < d.low:
            raise ConfigError(f"{label} takes {name[2:]} >= {d.low}, got "
                              f"{' '.join(map(str, value))}")
    elif d.kind == "list":
        if not (isinstance(value, list) and all(map(_is_number, value))):
            raise ConfigError(
                f"{label} must be a list of numbers, got {value!r}")
        if (array := _finite(value)) is None:
            raise ConfigError(
                f"{label} must hold finite numbers, got {value!r}")
        value = array
    elif d.kind == "matrix":
        width = len(d.columns) or (len(value[0]) if isinstance(
            value, list) and value and isinstance(value[0], list) else 0)
        if not (isinstance(value, list) and len(value) >= (d.low or 0)
                and all(isinstance(row, list) and len(row) == width
                        and all(map(_is_number, row)) for row in value)
                and (array := _finite(value)) is not None):
            rows = (f"rows of {len(d.columns)} finite numbers "
                    f"[{', '.join(d.columns)}]"
                    if d.columns else "equal rows of finite numbers")
            raise ConfigError(f"{label} must be a {'nonempty ' * bool(d.low)}"
                              f"list of {rows}, got {value!r}")
        value = array
    elif d.kind == "object":
        if d.fields is not None:
            if not isinstance(value, dict):
                raise ConfigError(f"{label} must be an object, got {value!r}")
            value = _values(value, d.fields, f"{name}.")
        try:
            value = d.parse(value) if d.parse else value
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad {name!r} entry: {exc}")
    return value


def _values(data, fields, prefix=""):
    """`_checked` of each key of JSON object `data`, named `prefix` + key,
    at its `fields` default when absent (a parser makes its own from None)."""
    for key in data:
        if key not in fields:
            raise ConfigError(f"unknown config key: {prefix + key!r}")
    for key, d in fields.items():
        if d.required and key not in data:
            raise ConfigError(f"missing config key: {prefix + key!r}")
    return {key: _checked(prefix + key, data.get(key, d.default), d)
            if key in data or d.default is not None or d.parse else None
            for key, d in fields.items()}


def _load_config(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


def _check_populations(model, name, x, value):
    """Refuse, naming `name` (a config key or a flag), populations x that
    the mode map `nip.x_to_eta` refuses: not positive, or at its pole."""
    try:
        nip.x_to_eta(model, x)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}, got {value!r}") from None


def _x0(x0, model):
    """x0: a population per model coordinate, each one the mode map takes."""
    if x0.size != model.dim:
        raise ConfigError(f"config key 'x0' must hold {model.dim} numbers, "
                          f"one per model coordinate, got {x0.size}")
    _check_populations(model, "config key 'x0'", x0, x0.tolist())
    return x0


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

def _lift_seconds(dim, routes, orders, t_end, cells=1) -> float:
    """About how long the paper model's lifted runs from `cells` initial
    conditions take, each on every route's lift at every order over t_end
    (2 cores, one BLAS thread).

    The cells run in chunks of `population.SCAN_CHUNK`, each one batched
    Taylor reference: 10 ms, then per chunk 4 ms + 2.7 ms t_end, and per
    cell 0.08 ms + 0.09 ms t_end.  A lift of at most DENSE_LIMIT monomials
    (`carleman.steps_exactly`) takes the exact step: 5 ns D^3 for its expm
    and stack, D its monomial count, and per chunk 0.35 us D^2 for its span
    products.  A larger lift is integrated by DOP853 cell by cell instead:
    0.25 s once, to load scipy.integrate, then per cell 5 ms + t_end n (a +
    b D n^k) at order n, (a, b, k) its route's `_DOP853_RATES`.
    Timed as `run` in one process: `population-scan` at the default
    orders on 1, 25, 36 and 10,000 cells took 14 ms, 16 ms, 20 ms and 2.2 s
    at --t-end 0.1, 18 ms, 28 ms, 45 ms and 4.7 s at 1, and the first
    three 0.85, 1.5 and 2.1 s at 300, and on its default grid 0.24 and
    0.63 s at --orders 2 5 and 6 7; `carleman-error` took 0.25 s at its
    default orders and --t-end 100, 0.29, 1.0, 18 and 56 s at --orders 10
    and --t-end 1, 10, 100 and 300, and 0.63, 11 and 199 s at --orders 16
    and 1, 10 and 100; `nip-error` 2.2 and 2.0 s at --orders 5 and 7 and
    --t-end 1000, 0.63, 6.4 and 19 s at --orders 10 and 10, 100 and 300,
    and 1.6 and 24 s at --orders 16 and 10 and 100."""
    chunks = -(-cells // population.SCAN_CHUNK)
    seconds = 0.01 + chunks * (4e-3 + 2.7e-3 * t_end) \
        + cells * (8e-5 + 9e-5 * t_end)
    if not all(steps_exactly(dim, n) for n in orders):
        seconds += 0.25
    for route in routes:
        for n in orders:
            monomials = monomial_count(dim, n)
            if steps_exactly(dim, n):
                seconds += 5e-9 * monomials**3 \
                    + chunks * 3.5e-7 * monomials**2
            else:
                a, b, k = _DOP853_RATES[route]
                seconds += cells * (5e-3 + t_end * n
                                    * (a + b * monomials * n**k))
    return seconds


def _check_lift_seconds(flags, dim, routes, orders, t_end, cells=1):
    """Refuse, naming `flags`, lifted runs estimated above MAX_LIFT_SECONDS,
    before any of them."""
    seconds = _lift_seconds(dim, routes, orders, t_end, cells)
    if seconds > MAX_LIFT_SECONDS:
        raise ConfigError(
            f"flags {flags} ask for {cells} cell{'s' * (cells > 1)} at "
            f"orders {' '.join(map(str, orders))} and t_end {t_end!r}, "
            f"about {seconds:.3g} s, above {MAX_LIFT_SECONDS} s")


def _cmd_population_scan(args, cfg):
    model = cfg["model"]
    if model.dim != 3:  # the scan's cells are (x1, x2, x3)
        raise ConfigError(f"config key 'model' must have 3 populations for "
                          f"population-scan, got {model.dim}")
    grid = _parse_grid(args.grid)
    # each value as x2 and as x3, beside x1 at its capacity
    _check_populations(model, "flag --grid",
                       np.c_[np.full(grid.size, model.X[0]), grid, grid],
                       args.grid)
    orders = tuple(args.orders)
    if len(orders) != 2 or orders[0] >= orders[1]:
        raise ConfigError(f"flag --orders must be two orders LOW HIGH with "
                          f"LOW < HIGH, got {list(orders)}")
    _check_lift_seconds("--grid, --orders and --t-end", model.dim,
                        nip.ROUTES, orders, args.t_end, grid.size**2)
    x1 = cfg["x1"]
    # x1 beside the other populations at their capacities, eta = 0
    _check_populations(model, "config key 'x1'", np.r_[x1, model.X[1:]], x1)
    res = population.convergence_scan(
        model, x1_fixed=x1, x2_range=grid, x3_range=grid, orders=orders,
        t_end=args.t_end, threads=args.threads)
    population.scan_to_csv(res, args.out)
    return EXIT_OK


def _cmd_population_traj(args, cfg):
    model = cfg["model"]
    x0 = _x0(cfg["x0"], model)
    order, *rest = args.orders
    if rest:
        raise ConfigError(f"flag --orders takes one order here, got "
                          f"{len(args.orders)}")
    _check_lift_seconds("--orders and --t-end", model.dim, nip.ROUTES,
                        (order,), args.t_end)
    exact, carl, mode = population.trajectory_compare(model, x0, order,
                                                      args.t_end)
    if exact.diverged:
        raise NumericalError(exact.cause)
    routes = ("exact", "carleman", "nip")
    header = ["t"] + [f"x{i+1}_{r}" for r in routes for i in range(model.dim)]
    # the samples all three runs reach
    n = min(exact.times.size, carl.states.shape[0], mode.states.shape[0])
    write_csv(args.out, header, [exact.times[:n]] + [
        x for traj in (exact, carl, mode) for x in traj.states[:n].real.T])
    return EXIT_OK


def _cmd_population_chaos(args, cfg):
    model = cfg["model"]
    if model.dim < 3:  # it writes the (x2, x3) projection
        raise ConfigError(f"config key 'model' must have at least 3 "
                          f"populations for population-chaos, got {model.dim}")
    x0 = _x0(cfg["x0"], model)
    res = population.chaos_demo(model, x0, args.t_end)
    if res.trajectory.diverged:
        raise NumericalError(res.trajectory.cause)
    write_csv(args.out, ["t", "x2", "x3"], res.projection.T)
    print(f"settled={res.settled} final_distance={res.final_distance:.17g}")
    return EXIT_OK


def _error_profile_cmd(args, cfg, route, evolve):
    model = cfg["model"]
    x0 = _x0(cfg["x0"], model)
    _check_lift_seconds("--orders and --t-end", model.dim, (route,),
                        args.orders, args.t_end)
    sample_times = sample_grid(args.t_end)
    reference = nip.reference_y_trajectory(model, x0, args.t_end,
                                           sample_times=sample_times)
    runs = [evolve(model, x0, n, args.t_end, sample_times=sample_times,
                   reference=reference) for n in args.orders]
    header = ["t"] + [f"eps_order_{n}" for n in args.orders]
    # a run cut at its blow-up, or not finite, reads inf from there on
    columns = [sample_times]
    for run in runs:
        eps = np.full(sample_times.size, np.inf)
        eps[:run.eps.size] = run.eps
        eps[~np.isfinite(eps)] = np.inf
        columns.append(eps)
    write_csv(args.out, header, columns)
    for n, run in zip(args.orders, runs):
        print(f"order={n} eps_max={run.eps_max:.17g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fermion subcommands

def _fermion_setup(args, cfg):
    """The config's system and initial covariance: "gamma0", of the
    system's size, else a random antisymmetric matrix drawn with --seed."""
    sys_, gamma0 = cfg["system"], cfg["gamma0"]
    n2 = 2 * sys_.N
    if gamma0 is None:
        rng = np.random.default_rng(args.seed)
        gamma0 = fermion.random_antisymmetric(n2, rng)
    elif gamma0.shape != (n2, n2):
        raise ConfigError(f"config key 'gamma0' must be {n2} x {n2} for the "
                          f"system's N = {sys_.N}, got {gamma0.shape}")
    try:
        return sys_, fermion.CovarianceState(gamma0)
    except ValueError as exc:
        raise ConfigError(f"bad 'gamma0' entry: {exc}")


def _cmd_fermion_evolve(args, cfg):
    sys_, gamma0 = _fermion_setup(args, cfg)
    final, _, _ = fermion.evolve_covariance(sys_, gamma0, args.t_end)
    _write_upper_triangle(args.out, final.Gamma)
    return EXIT_OK


def _cmd_fermion_heat(args, cfg):
    samples, n2 = cfg["samples"], 2 * cfg["system"].N
    if samples * n2 * n2 * 8 > MAX_HEAT_BYTES:
        raise ConfigError(f"config key 'samples' asks for {samples} {n2} x "
                          f"{n2} covariances, over {MAX_HEAT_BYTES} bytes")
    sys_, gamma0 = _fermion_setup(args, cfg)
    times = np.linspace(0.0, args.t_end, samples)
    _, ts, gammas = fermion.evolve_covariance(sys_, gamma0, args.t_end,
                                              sample_times=times)
    e0 = fermion.energy(sys_.h, gamma0)
    # fermion.energy of each sample, read off the stack as it is
    energies = -np.trace(sys_.h @ gammas.stack, axis1=1, axis2=2) / 4.0
    write_csv(args.out, ["t", "heat_per_fermion"],
              [ts, (e0 - energies) / sys_.N])
    return EXIT_OK


def _cmd_fermion_decay(args, cfg):
    sys_, gamma0 = _fermion_setup(args, cfg)
    try:
        spec = fermion.decay_spectrum(sys_, gamma0)
    except fermion.SecularError as exc:
        raise NumericalError(str(exc))
    k, l = np.array(spec.pairs, dtype=np.int64).reshape(-1, 2).T
    write_csv(args.out, ["k", "l", "rate", "weight"],
              [k, l, spec.rates, spec.weights])
    print(f"gap={spec.gap:.17g}")
    return EXIT_OK


def _cmd_fermion_steady(args, cfg):
    sys_ = cfg["system"]
    try:
        steady = fermion.steady_state(sys_)
    except fermion.GaplessError as exc:
        raise NumericalError(str(exc))
    _write_upper_triangle(args.out, steady.Gamma)
    return EXIT_OK


def _write_upper_triangle(path, Gamma):
    """The entries i < j of a covariance, row by row."""
    i, j = np.triu_indices(Gamma.shape[0], 1)
    write_csv(path, ["i", "j", "value"], [i, j, Gamma[i, j]])


def _cmd_fermion_oracle_check(args, cfg):
    worst = 0.0
    rng = np.random.default_rng(args.seed)
    for trial in range(args.trials):
        N = int(rng.integers(1, args.N + 1))
        seed = int(rng.integers(0, 2**31))
        worst = max(worst, fermion.oracle_deviation(N, seed, (0.1, 1.0)))
    print(f"max_deviation={worst:.17g}")
    if worst > 1e-6:
        raise NumericalError(f"oracle deviation {worst} exceeds 1e-6")
    return EXIT_OK


# ---------------------------------------------------------------------------
# rsep

def _cmd_rsep_sweep(args, cfg):
    points = cfg["points"]
    if (work := len(points) * (args.t_end + 15)) > MAX_RSEP_WORK:
        raise ConfigError(
            f"config key 'points' and flag --t-end ask for {len(points)} "
            f"points x (t_end {args.t_end!r} + 15) = {work:.6g}, above "
            f"{MAX_RSEP_WORK}")
    params = []
    for point in points:
        d, seed = point["d"], point["seed"]
        A = None if seed is None else rsep.haar_unitary(d, seed)
        try:
            params.append(rsep.RsepParams(d, point["beta"], point["gamma"],
                                          point["delta"], A=A))
        except ValueError as exc:
            raise ConfigError(f"bad sweep point: {exc}")
        floor = RSEP_DELTA_ULPS * np.finfo(float).eps * point["gamma"]
        if not point["delta"] > floor:
            raise ConfigError(
                f"config key 'points.delta' is {point['delta']!r}, not above "
                f"{RSEP_DELTA_ULPS} eps gamma = {floor:.6g}, the resolution "
                f"of the x-side log-norm -delta")
    try:
        rows = rsep.sweep(params, args.t_end)
    except rsep.PoleError as exc:
        raise NumericalError(str(exc))
    header = ["beta", "gamma", "delta", "d", "R_x_lower_bound", "R_x",
              "R_eta", "equiv_residual"]
    write_csv(args.out, header,
              [[row[k] for row in rows] for k in range(len(header))])
    return EXIT_OK


# ---------------------------------------------------------------------------
# spectral

def _spectral_window(cfg):
    """The config's window, and its dt, large enough that every decoded
    frequency, of magnitude below pi / dt, is finite."""
    try:
        window = spectral.kaiser_window(cfg["J"], cfg["sigma"])
    except ValueError as exc:
        raise ConfigError(f"bad window parameters: {exc}")
    if not math.isfinite(math.pi / cfg["dt"]):
        raise ConfigError(f"config key 'dt' is so small that the decoded "
                          f"frequency pi / dt overflows, got {cfg['dt']!r}")
    return window, cfg["dt"]


def _cmd_spectral_window(args, cfg):
    window, dt = _spectral_window(cfg)
    p = spectral.qpe_distribution(window, cfg["theta"])
    ell = np.arange(window.J)
    write_csv(args.out, ["ell", "theta_hat", "omega_hat", "p"],
              [ell, *spectral.decode(ell, window.J, dt), p])
    return EXIT_OK


def _spectral_emulation(args, cfg, draw):
    """Emulated and ideal outcome distributions of the config's modes, and
    when `draw`, "n_samples" outcomes drawn from the emulated one."""
    mu, omega, re_a, im_a = cfg["modes"].T
    # scaled by the power of two that puts every part below 1, which is
    # exact and leaves a / |a| as it is, so that |a| does not overflow
    _, e = np.frexp(np.max(np.abs(cfg["modes"][:, 2:])))
    a = np.ldexp(re_a, -e) + 1j * np.ldexp(im_a, -e)
    if not np.linalg.norm(a):
        raise ConfigError("config key 'modes' has all amplitudes (re_a, "
                          "im_a) zero")
    try:
        modes = spectral.NormalKoopman(mu, omega, a / np.linalg.norm(a))
    except ValueError as exc:
        raise ConfigError(f"bad 'modes' entry: {exc}")
    if modes.oscillatory.size and not modes.w_S:
        raise ConfigError("config key 'modes' gives the oscillatory modes "
                          "amplitudes whose squares, beside the others', "
                          "underflow to 0")
    window, dt = _spectral_window(cfg)
    T1 = cfg["T1"]
    if T1 is None:
        try:
            T1 = spectral.suppression_time(modes.gap, 1e-3)
        except ValueError:
            T1 = 0.0
    try:
        p, tv = spectral.emulate_spectral_qka(modes, window, T1, dt)
        p_ideal = spectral.ideal_mode_distribution(modes, dt, window)
    except (spectral.AliasingError, ValueError) as exc:
        raise NumericalError(str(exc))
    counts = spectral.sample_outcomes(p, cfg["n_samples"], args.seed) \
        if draw and cfg["n_samples"] else np.zeros(window.J, dtype=int)
    ell = np.arange(window.J)
    write_csv(args.out, ["ell", "theta_hat", "omega_hat", "p_ideal",
                          "p_emulated", "count"],
              [ell, *spectral.decode(ell, window.J, dt), p_ideal, p, counts])
    print(f"tv={tv:.17g}")
    return EXIT_OK


def _cmd_ode_history(args, cfg):
    m, p, l = cfg["m"], cfg["p"], cfg["l"]
    A = np.asarray(cfg["A"], dtype=complex)
    x0 = np.asarray(cfg["x0"], dtype=complex)
    if x0.size == 0 or A.shape != (x0.size, x0.size):
        raise ConfigError(f"config key 'x0' must be a nonempty list and 'A' "
                          f"a square matrix of its size, got shapes "
                          f"{x0.shape} and {A.shape}")
    if (m + p) * x0.size > MAX_HISTORY_ORDER:
        raise ConfigError(f"config keys 'm', 'p' and 'x0' give a history "
                          f"system of order ({m} + {p}) * {x0.size}, above "
                          f"{MAX_HISTORY_ORDER}")
    # the system is linear in x0, so a large enough x0 overflows it; that
    # shows as a block or residual that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            hist = spectral.history_system(A, x0, m, p, l, cfg["h"])
        except ValueError as exc:
            raise NumericalError(str(exc))
        resid, final_err = spectral.history_residuals(hist, x0)
    if not (np.isfinite(hist.blocks).all() and math.isfinite(resid)
            and math.isfinite(final_err)):
        raise NumericalError(f"the history system of config key 'x0' "
                             f"overflows the float range, got "
                             f"{cfg['x0'].tolist()}")
    steps, dim = hist.blocks.shape
    write_csv(args.out, ["s", "i", "re", "im"],
              [np.repeat(np.arange(steps), dim), np.tile(np.arange(dim), steps),
               hist.blocks.real.ravel(), hist.blocks.imag.ravel()])
    print(f"recurrence_residual={resid:.17g} final_error={final_err:.17g}")
    return EXIT_OK


# ---------------------------------------------------------------------------

# Every flag and config key, with its domain (a key of "system" or of a
# "points" entry in its `fields`); the README lists the checks between them.
_DOMAINS = {
    "--config": _Domain("text"),
    "--out": _Domain("text", required=True),
    "--seed": _Domain("integer", 0, low=0),
    "--threads": _Domain("integer", low=1),
    "--t-end": _Domain("number", population.DEFAULT_T_END, low=0),
    "--orders": _Domain("integers", (1, 3, 6), low=1),
    "--grid": _Domain("text", "0.5:2.0:0.05"),
    "--N": _Domain("integer", 3, low=1, high=fermion.ORACLE_MAX_N),
    "--trials": _Domain("integer", 20, low=1, high=MAX_ORACLE_TRIALS),
    "model": _Domain("object", parse=lambda spec: population.paper_model()
                     if spec is None else nip.model_from_dict(spec)),
    "x0": _Domain("list", [1.0, 1.4, 1.4]),
    "x1": _Domain("number", 1.0),
    "system": _Domain("object", parse=fermion.system_from_dict, fields={
        "N": _Domain("integer", low=1, high=MAX_FERMION_N, required=True),
        "h": _Domain("matrix", columns=("i", "j", "value"), required=True),
        "jumps": _Domain("matrix", columns=("re", "im"), required=True,
                         many=True),
    }),
    "gamma0": _Domain("matrix"),
    "samples": _Domain("integer", GRID_SAMPLES, low=2, high=MAX_HEAT_SAMPLES),
    "points": _Domain("object", low=1, fields={
        "d": _Domain("integer", low=3, high=MAX_RSEP_DIM, required=True),
        "beta": _Domain("number", required=True),
        "gamma": _Domain("number", required=True),
        "delta": _Domain("number", required=True),
        "seed": _Domain("integer", low=0),
    }, many=True),
    "modes": _Domain("matrix", low=1,
                     columns=("mu", "omega", "re_a", "im_a")),
    "J": _Domain("integer", 401, low=3, high=MAX_WINDOW_J),
    "sigma": _Domain("number", 3.0, low=0, open_low=True),
    "theta": _Domain("number", 0.0, low=-math.pi, high=math.pi),
    "dt": _Domain("number", 1.0, low=0, open_low=True),
    "T1": _Domain("number", low=0),
    "n_samples": _Domain("integer", 0, low=0, high=np.iinfo(np.int64).max),
    "A": _Domain("matrix"),
    "m": _Domain("integer", low=1),
    "p": _Domain("integer", low=0),
    "l": _Domain("integer", low=1, high=MAX_TAYLOR_ORDER),
    "h": _Domain("number", low=0, open_low=True),
}

# argparse's reading of each kind of flag
_ARGPARSE = {"integer": dict(type=int), "number": dict(type=float),
             "integers": dict(type=int, nargs="+"), "text": {}}


@dataclass(frozen=True)
class _Command:
    """A subcommand: its handler(args, config values), the flags it reads,
    the config keys it requires and those it also allows, its defaults of
    shared flags and keys, and its largest --t-end."""

    handler: Callable
    flags: tuple
    required: tuple = ()
    optional: tuple = ()
    defaults: dict = field(default_factory=dict)
    max_t_end: float | None = None


_IO = ("--config", "--out")
_LIFT = _IO + ("--orders", "--t-end")
_POPULATION = ("model", "x0")
_SPECTRAL = ("J", "sigma", "dt", "T1", "n_samples")


# Each command's largest --t-end, so that its largest run takes a minute at
# most: per unit of t_end `population-scan` takes 0.18 s on its 31 x 31
# grid, `population-traj` 2.6 ms, `population-chaos` 2.0 ms (its 2001
# samples keep the memory fixed), `carleman-error` and `nip-error` 3.1 ms
# at their default orders and `rsep-sweep` 20 ms per d = 100 point (2
# cores, one BLAS thread).  The fermion flows' one exact step overflows to
# nan from t_end ~ 1e50.
_COMMANDS = {
    "population-scan": _Command(
        _cmd_population_scan, _LIFT + ("--grid", "--threads"),
        optional=("model", "x1"),
        defaults={"--orders": population.DEFAULT_ORDERS}, max_t_end=300),
    "population-traj": _Command(
        _cmd_population_traj, _LIFT, optional=_POPULATION,
        defaults={"--orders": (3,)}, max_t_end=10**4),
    "population-chaos": _Command(
        _cmd_population_chaos, _IO + ("--t-end",), optional=_POPULATION,
        defaults={"--t-end": population.CHAOS_T_END,
                  "x0": [0.05, 1.3, 0.025]},
        max_t_end=MAX_CHAOS_T_END),
    "carleman-error": _Command(
        functools.partial(_error_profile_cmd, route="vacancy",
                          evolve=nip.vacancy_evolve),
        _LIFT, optional=_POPULATION, max_t_end=10**3),
    "nip-error": _Command(
        functools.partial(_error_profile_cmd, route="mode",
                          evolve=nip.nip_evolve),
        _LIFT, optional=_POPULATION, max_t_end=10**3),
    "fermion-evolve": _Command(
        _cmd_fermion_evolve, _IO + ("--seed", "--t-end"), ("system",),
        ("gamma0",), defaults={"--t-end": 1.0}, max_t_end=10**6),
    "fermion-heat": _Command(
        _cmd_fermion_heat, _IO + ("--seed", "--t-end"), ("system",),
        ("gamma0", "samples"), defaults={"--t-end": 1.0}, max_t_end=10**6),
    "fermion-decay": _Command(
        _cmd_fermion_decay, _IO + ("--seed",), ("system",), ("gamma0",)),
    "fermion-steady": _Command(_cmd_fermion_steady, _IO, ("system",)),
    "fermion-oracle-check": _Command(
        _cmd_fermion_oracle_check, ("--seed", "--N", "--trials")),
    "rsep-sweep": _Command(
        _cmd_rsep_sweep, _IO + ("--t-end",), ("points",),
        defaults={"--t-end": 1.0}, max_t_end=10**3),
    "spectral-window": _Command(
        _cmd_spectral_window, _IO, optional=("J", "sigma", "theta", "dt")),
    # spectral-emulate draws no samples, yet it allows "n_samples" so that
    # one config file serves both it and spectral-sample, as the benchmark's
    # cli workload passes them.
    "spectral-emulate": _Command(
        functools.partial(_spectral_emulation, draw=False), _IO,
        ("modes",), _SPECTRAL),
    "spectral-sample": _Command(
        functools.partial(_spectral_emulation, draw=True),
        _IO + ("--seed",), ("modes",), _SPECTRAL),
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
            d = _DOMAINS[flag]
            p.add_argument(flag, **_ARGPARSE[d.kind], required=d.required,
                           default=command.defaults.get(flag, d.default))
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
        given = vars(args)
        for flag in command.flags:
            dest = flag[2:].replace("-", "_")
            if given[dest] is not None:
                given[dest] = _checked(flag, given[dest], _DOMAINS[flag])
        if command.max_t_end is not None and args.t_end > command.max_t_end:
            raise ConfigError(f"flag --t-end must be <= {command.max_t_end} "
                              f"for {args.command}, got {args.t_end!r}")
        fields = {key: replace(_DOMAINS[key], required=key in command.required,
                               default=command.defaults.get(
                                   key, _DOMAINS[key].default))
                  for key in command.required + command.optional}
        path = getattr(args, "config", None)
        cfg = _values(_load_config(path) if path else {}, fields)
        return command.handler(args, cfg)
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
