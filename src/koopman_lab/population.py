"""Concrete three-population chaotic model: convergence-region scans,
trajectory comparisons, and the chaos demonstration.  Exact population
curves are the quadratic mode (eta) flow mapped to x = X/(1 + eta).

The model constants below are entered verbatim; coupling columns are ordered
(j, k) in {(0,0), (0,1), (0,2), (1,0), (1,1), (1,2), (2,0), (2,1), (2,2)}.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .carleman import exact_step
from .nip import (
    ROUTES,
    PopulationModel,
    eta_to_x,
    koopman_system,
    nip_evolve,  # noqa: F401 (test_uninstall_restores_every_site reads it)
    reference_y_samples,
    route_lift,
    route_runs,
    x_to_eta,
    y_to_x,
)
from .polyflow import (
    DIVERGENCE_NORM,
    SparseTensor,
    Trajectory,
    sample_grid,
    taylor_samples,
    write_csv,
)

_R = (95.4912, 48.8281, 30.1714)
_J_ROWS = (
    (-0.264803, -13.6839, 0.931878, 0.0, 983.541, 69.1103, 0.0, 0.0, 1.26601),
    (0.00120019, -1.26625, -0.00141069, 0.0, 46.6796, 2.29013, 0.0, 0.0,
     0.000420895),
    (-1.10445, 42.4425, 0.203853, 0.0, -477.852, 17.3411, 0.0, 0.0, 1.28499),
)

DEFAULT_T_END = 0.1
DEFAULT_ORDERS = (1, 3)
CHAOS_T_END = 2.0
EQUILIBRIUM_TOL = 0.1
# Cells per batch of the convergence scan: one batched reference flow and
# one block per lift, and one task of the pool.  It changes no bits.
SCAN_CHUNK = 32


def paper_model() -> PopulationModel:
    """The three-population instance with chaotic interacting dynamics."""
    d = 3
    J_rows = np.array(_J_ROWS)
    i, col = np.nonzero(J_rows)
    J = SparseTensor.from_arrays(2, d, i, np.column_stack(np.divmod(col, d)),
                                 J_rows[i, col])
    return PopulationModel(d, np.array(_R), np.ones(d), J)


def worker_count(threads: int, n_jobs: int) -> int:
    """Worker processes for n_jobs tasks: min(threads, cpu count, n_jobs),
    at least 1.  The cpu count is read only when that could exceed 1."""
    wanted = min(threads, n_jobs)
    if wanted <= 1:
        return 1
    return min(wanted, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# convergence scan

@dataclass
class ScanResult:
    """Gridded convergence verdicts for both linearization routes."""

    x2_values: np.ndarray
    x3_values: np.ndarray
    carleman_verdict: np.ndarray  # (n2, n3) of str
    nip_verdict: np.ndarray
    eps_c_low: np.ndarray         # (n2, n3) real, +inf on blow-up
    eps_c_high: np.ndarray
    eps_k_low: np.ndarray
    eps_k_high: np.ndarray
    meta: dict = field(default_factory=dict)


def _verdict(low, high):
    """Verdict of the low- and high-order runs of one cell, or of each cell
    when their `eps_max` and `pole_invalid` are arrays."""
    finite = np.isfinite(low.eps_max) & np.isfinite(high.eps_max)
    # errors at machine-zero (fixed point) count as converged
    better = (high.eps_max <= 1e-8) | (high.eps_max < low.eps_max)
    pole = np.logical_or(low.pole_invalid, high.pole_invalid)
    return np.select([finite & better, finite, pole],
                     ["converged", "diverged", "pole-invalid"], "diverged")


def _route_cells(X0s, route, model, orders, t_end, sample_times, references):
    """Verdicts, low-order and high-order errors of one route at the cells
    of a chunk, each lift stepped as one block."""
    low, high = (route_runs(model, X0s, route, n, t_end, sample_times,
                            references) for n in orders)
    return _verdict(low, high), low.eps_max, high.eps_max


def _scan_chunk(X0s, model, orders, t_end, sample_times):
    """Cells of one chunk: one batched reference, mapped to y once, then
    each route's lifts.  A route's lifted samples are dropped before the
    next route runs.  Returns the carleman and nip verdicts, then eps_c low
    and high and eps_k low and high, each an array over the cells."""
    references = reference_y_samples(model, X0s, t_end,
                                     sample_times=sample_times)
    (c_verdict, c_low, c_high), (k_verdict, k_low, k_high) = (
        _route_cells(X0s, route, model, orders, t_end, sample_times,
                     references) for route in ROUTES)
    return c_verdict, k_verdict, c_low, c_high, k_low, k_high


# Inputs every chunk of one scan shares, set once in each worker process.
_shared = None


def _set_shared(shared):
    global _shared
    _shared = shared


def _pooled_chunk(X0s):
    return _scan_chunk(X0s, *_shared)


def convergence_scan(model: PopulationModel, x1_fixed: float = 1.0,
                     x2_range=None, x3_range=None,
                     orders=DEFAULT_ORDERS, t_end: float = DEFAULT_T_END,
                     threads: int = None) -> ScanResult:
    """Per-cell verdicts over initial conditions (x1_fixed, x2, x3).

    A route converges at a cell when the error at the higher lift order is
    strictly smaller than at the lower order, both finite.  The mode system
    of the references (`nip.koopman_system`) and the monomial lift of each
    (route, order) (`nip.route_lift`) are kept on the model, each lift
    with its exact step stack on the grid (`carleman.exact_step`), built by
    the first call that needs them, and every cell shares them.  The cells,
    in grid order, are cut into chunks of SCAN_CHUNK, and each chunk is one
    batch (`_scan_chunk`); with several workers the pool maps chunks, the
    lifts and steps built first so that forked workers inherit them (a
    spawned one builds each once).  A cell's
    numbers do not depend on its chunk's other cells: they are the bits
    of `nip_evolve` and `vacancy_evolve` at its x0 alone.  The chunks'
    arrays are joined in grid order, so the result does not depend on the
    thread count.  `threads` None runs in this process, as 1 does.  The
    process pool is imported only when a scan starts more than one worker.
    """
    if x2_range is None:
        x2_range = np.arange(0.5, 2.0 + 1e-9, 0.05)
    if x3_range is None:
        x3_range = np.arange(0.5, 2.0 + 1e-9, 0.05)
    x2_range = np.asarray(x2_range, dtype=float)
    x3_range = np.asarray(x3_range, dtype=float)
    if x2_range.size == 0 or x3_range.size == 0:
        raise ValueError("scan ranges must be nonempty")
    if len(orders) != 2 or orders[0] >= orders[1]:
        raise ValueError("orders must be (low, high) with low < high")
    sample_times = sample_grid(t_end)
    shared = (model, tuple(orders), t_end, sample_times)
    # x3 running fastest, as `scan_to_csv` writes the cells
    n2, n3 = x2_range.size, x3_range.size
    points = np.column_stack([np.full(n2 * n3, x1_fixed, dtype=float),
                              np.repeat(x2_range, n3), np.tile(x3_range, n2)])
    chunks = [points[i:i + SCAN_CHUNK]
              for i in range(0, len(points), SCAN_CHUNK)]
    workers = 1 if threads is None else worker_count(threads, len(chunks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        for route in ROUTES:
            for n in orders:
                exact_step(route_lift(model, route, n), t_end, sample_times)
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_set_shared,
                                 initargs=(shared,)) as pool:
            done = list(pool.map(_pooled_chunk, chunks))
    else:
        done = [_scan_chunk(chunk, *shared) for chunk in chunks]
    c_verdict, k_verdict, c_low, c_high, k_low, k_high = (
        np.concatenate(part).reshape(n2, n3) for part in zip(*done))
    return ScanResult(
        x2_values=x2_range, x3_values=x3_range,
        carleman_verdict=c_verdict.astype(object),
        nip_verdict=k_verdict.astype(object),
        eps_c_low=c_low, eps_c_high=c_high, eps_k_low=k_low,
        eps_k_high=k_high,
        meta={"x1": x1_fixed, "orders": tuple(orders), "t_end": t_end})


def scan_to_csv(res: ScanResult, path) -> None:
    """One row per cell, x3 running fastest, as the grid is scanned."""
    n2, n3 = res.x2_values.size, res.x3_values.size
    write_csv(path, ["x2", "x3", "carleman_verdict", "nip_verdict",
                     "eps_c_low", "eps_c_high", "eps_k_low", "eps_k_high"],
              [np.repeat(res.x2_values, n3), np.tile(res.x3_values, n2)]
              + [a.ravel() for a in (
                  res.carleman_verdict, res.nip_verdict, res.eps_c_low,
                  res.eps_c_high, res.eps_k_low, res.eps_k_high)])


# ---------------------------------------------------------------------------
# trajectories

def _populations(model: PopulationModel, traj: Trajectory,
                 to_x) -> Trajectory:
    """x(t) = to_x(model, state) of an eta- or y-trajectory, ended before
    its first sample with a population that is not positive and finite or a
    norm above DIVERGENCE_NORM, and then marked diverged.

    A population turns negative only through infinity (the pole eta_i = -1)
    and reaches 0 only as eta_i grows without bound, which ends the eta flow
    itself; `cause` names the population and the time.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = to_x(model, traj.states)
        ok = np.all(np.isfinite(x) & (x > 0), axis=1) \
            & (np.linalg.norm(x, axis=1) <= DIVERGENCE_NORM)
    keep = ok.size if ok.all() else int(np.argmin(ok))
    if keep < ok.size:  # the non-positive, else the largest, population
        i = np.argmax(np.where(x[keep] > 0, x[keep], np.inf))
        fate = f"grew without bound by t = {traj.times[keep]:.6g}"
    elif traj.diverged:  # the smallest population against its capacity
        i = np.argmin(x[-1] / model.X)
        fate = f"reached 0 after t = {traj.times[-1]:.6g}"
    else:
        return Trajectory(traj.times, x)
    return Trajectory(traj.times[:keep], x[:keep], diverged=True,
                      cause=f"population x{i + 1} {fate}")


def exact_x_trajectory(model: PopulationModel, x0, t_end: float,
                       sample_times=None) -> Trajectory:
    """Reference populations from x0: the exact quadratic eta flow
    (`nip.koopman_system`), a Taylor flow at `polyflow.TAYLOR_TOL`
    (`polyflow.taylor_samples`), mapped to x = X/(1+eta) and ended where a
    population leaves (0, DIVERGENCE_NORM]."""
    times, eta, kept, diverged = taylor_samples(
        koopman_system(model), x_to_eta(model, x0)[None, :], t_end,
        sample_times)
    return _populations(model, Trajectory(times[:kept[0]], eta[:kept[0], 0],
                                          diverged=bool(diverged[0])),
                        eta_to_x)


def trajectory_compare(model: PopulationModel, x0, order: int,
                       t_end: float = DEFAULT_T_END):
    """(exact, vacancy-lift, mode-lift) trajectories in x coordinates; the
    exact one is the lifts' Taylor reference, cut as `exact_x_trajectory`,
    and each lift is `nip.route_runs` against it, a batch of one.  All
    three sample the default grid of `polyflow.sample_grid`."""
    ref = reference_y_samples(model, [x0], t_end)
    reference = Trajectory(ref.times[:ref.kept[0]], ref.y[0, :ref.kept[0]],
                           diverged=bool(ref.diverged[0]))

    def lifted(route):
        run = route_runs(model, [x0], route, order, t_end, ref.times, ref)
        return Trajectory(ref.times[:run.kept[0]],
                          y_to_x(model, run.y[0, :run.kept[0]]),
                          diverged=bool(run.diverged[0]))

    return (_populations(model, reference, y_to_x), *map(lifted, ROUTES))


@dataclass
class ChaosResult:
    trajectory: Trajectory
    projection: np.ndarray      # columns (t, x2, x3)
    final_distance: float       # from the all-capacity equilibrium at t_end
    settled: bool


def chaos_demo(model: PopulationModel, x0,
               t_end: float = CHAOS_T_END) -> ChaosResult:
    """Reference trajectory plus the (x2, x3) projection of the attractor.

    "Settled" means the state sits within 0.1 of the all-capacity
    equilibrium at t_end — a deliberately qualitative criterion.
    """
    traj = exact_x_trajectory(model, x0, t_end,
                              sample_times=np.linspace(0.0, t_end, 2001))
    proj = np.column_stack([traj.times, traj.states[:, 1:3]])
    dist = float(np.linalg.norm(traj.final - model.X))
    return ChaosResult(traj, proj, dist,
                       settled=dist <= EQUILIBRIUM_TOL and not traj.diverged)
