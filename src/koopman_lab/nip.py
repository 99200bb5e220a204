"""Interaction-picture coordinates for the interacting logistic population
model.

The model is dx_i/dt = r_i x_i (1 - x_i/X_i) - x_i^2 sum_{jk} J_{i,jk}
eta_j eta_k with eta_j = (X_j - x_j)/x_j.  Two linearization routes are
provided:

* vacancy route: y_i = 1 - x_i/X_i obeys a rational ODE whose Taylor
  truncation at the lift order gives polynomial tensors F_1..F_{N_C};
* mode route: eta obeys an exactly quadratic ODE (G_1, G_2), so the only
  error source is the lift truncation itself.

Both truncation errors are measured in y coordinates against a reference
obtained by integrating the exact quadratic eta dynamics.  The reference is
the batched Taylor-series flow `polyflow.taylor_samples` at REFERENCE_TOL:
each row picks every step so that its expansion's coefficient tail stays
under a fraction `polyflow.TAYLOR_TAIL` of REFERENCE_TOL * max(1, |eta|).
A batch of initial conditions is one call, mapped to y once as arrays
(`reference_y_samples`).  Lifts run on the symmetric-monomial basis
(`carleman.MonomialLift`), stepped as the columns of one block whose errors
are measured as one array against those arrays (`route_runs`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .carleman import (
    MonomialLift,
    build_monomial_lift,
    evolve_lifted,  # noqa: F401 (perfbench's tracer test looks it up here)
    exact_step,
    lifted_samples,
)
from .polyflow import (
    DimensionError,
    PolySystem,
    SparseTensor,
    Trajectory,
    quadratic_r_number,
    spectral_norm,
    taylor_samples,
)

REFERENCE_TOL = 1e-12
POLE_TOL = 1e-9


@dataclass
class PopulationModel:
    """Interacting logistic populations (growth r, capacity X, couplings J)."""

    dim: int
    r: np.ndarray
    X: np.ndarray
    J: SparseTensor  # degree 2; entry (i, (j, k)) couples eta_j eta_k into i

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.X = np.asarray(self.X, dtype=float)
        if self.r.shape != (self.dim,) or self.X.shape != (self.dim,):
            raise DimensionError("r and X must be length-d vectors")
        if np.any(self.r <= 0) or np.any(self.X <= 0):
            raise ValueError("growth rates and capacities must be positive")
        if self.J.degree != 2 or self.J.dim != self.dim:
            raise DimensionError("J must be a degree-2 tensor of matching dim")


# ---------------------------------------------------------------------------
# coordinate maps

def x_to_eta(model: PopulationModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("populations must be positive for the mode map")
    return (model.X - x) / x


def eta_to_x(model: PopulationModel, eta: np.ndarray) -> np.ndarray:
    eta = np.asarray(eta)
    return model.X / (1.0 + eta)


def x_to_y(model: PopulationModel, x: np.ndarray) -> np.ndarray:
    return 1.0 - np.asarray(x) / model.X


def y_to_x(model: PopulationModel, y: np.ndarray) -> np.ndarray:
    return model.X * (1.0 - np.asarray(y))


def y_to_eta(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y)
    return y / (1.0 - y)


def _back_map(g1: np.ndarray):
    """g_i / (1 + g_i), unchecked, and where g_i lies within POLE_TOL of
    the pole at -1."""
    den = 1.0 + g1
    with np.errstate(divide="ignore", invalid="ignore"):
        return g1 / den, np.abs(den) < POLE_TOL


def eta_to_y_back(g1: np.ndarray) -> np.ndarray:
    """Back map y~_i = g_i / (1 + g_i); poles at g_i = -1 raise."""
    y, pole = _back_map(np.asarray(g1))
    if np.any(pole):
        raise ValueError("back map pole: component at -1")
    return y


def _eta_to_y_rows(g1: np.ndarray) -> np.ndarray:
    """Back map of block-1 rows (last axis d); rows at a pole become NaN."""
    y, pole = _back_map(g1)
    y[np.any(pole, axis=-1)] = np.nan
    return y


# ---------------------------------------------------------------------------
# tensor generation

def vacancy_taylor_tensors(model: PopulationModel, order: int) -> PolySystem:
    """Degree-truncated tensors of the vacancy dynamics.

    dy_i/dt = -r_i y_i (1 - y_i)
              + X_i sum_{jk} J_{i,jk} [ sum_{m,n>=1} y_j^m y_k^n
                                        - 2 y_i sum y_j^m y_k^n
                                        + y_i^2 sum y_j^m y_k^n ],
    with the three geometric sums cut at total degree order, order-1 and
    order-2 respectively so every kept monomial has degree <= order.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    d = model.dim
    tensors = [None] + [SparseTensor(k, d) for k in range(1, order + 1)]
    for i in range(d):
        tensors[1].add(i, (i,), -model.r[i])
        if order >= 2:
            tensors[2].add(i, (i, i), model.r[i])
    for i, (j, k), val in model.J.entries():
        coeff = model.X[i] * val
        for m in range(1, order):
            for n in range(1, order - m + 1):
                cols = (j, k) + (j,) * (m - 1) + (k,) * (n - 1)
                tensors[m + n].add(i, cols, coeff)
                if m + n + 1 <= order:
                    tensors[m + n + 1].add(i, (j, k, i) + cols[2:], -2 * coeff)
                if m + n + 2 <= order:
                    tensors[m + n + 2].add(i, (j, k, i, i) + cols[2:], coeff)
    return PolySystem(d, tensors)


def koopman_tensors(model: PopulationModel):
    """Exact quadratic mode dynamics: G1 = diag(-r), [G2]_{i,(j,k)} = X_i J_{i,jk}."""
    G1 = np.diag(-model.r).astype(complex)
    G2 = SparseTensor(2, model.dim)
    for i, (j, k), val in model.J.entries():
        G2.add(i, (j, k), model.X[i] * val)
    return G1, G2


def koopman_system(model: PopulationModel) -> PolySystem:
    G1, G2 = koopman_tensors(model)
    t1 = SparseTensor.from_dense_flat(1, G1)
    return PolySystem(model.dim, [None, t1, G2])


def r_number_nip(model: PopulationModel, eta0: np.ndarray) -> float:
    """Convergence number |G2| |eta0| / min_i r_i of the mode dynamics."""
    G1, G2 = koopman_tensors(model)
    return quadratic_r_number(None, G1, G2, np.asarray(eta0, dtype=complex))


def guaranteed_radius(model: PopulationModel) -> float:
    """Largest |eta(0)| with a convergence guarantee: min_i r_i / |G2|."""
    _, G2 = koopman_tensors(model)
    nG2 = spectral_norm(G2.dense_flat())
    if nG2 == 0:
        return np.inf
    return float(np.min(model.r)) / nG2


def guaranteed_radius_squared(model: PopulationModel) -> float:
    rad = guaranteed_radius(model)
    return rad * rad


# ---------------------------------------------------------------------------
# reference flow and truncation-error runs

@dataclass
class ReferenceSamples:
    """Reference y samples from c initial conditions on one grid of n
    samples.  Row j's samples are meaningful before kept[j] and NaN
    after."""

    times: np.ndarray     # (n,)
    y: np.ndarray         # (c, n, d)
    kept: np.ndarray      # (c,)
    diverged: np.ndarray  # (c,)


def reference_y_samples(model: PopulationModel, X0s, t_end: float,
                        tol: float = REFERENCE_TOL,
                        sample_times=None) -> ReferenceSamples:
    """Reference y(t) from each row of X0s: the exact quadratic eta flow,
    integrated as one batch by `polyflow.taylor_samples`, mapped through
    eta/(1+eta) as one array."""
    etas = x_to_eta(model, np.asarray(X0s, dtype=float))
    times, eta, kept, diverged = taylor_samples(
        koopman_system(model), etas.astype(complex), t_end, tol,
        sample_times)
    y, _ = _back_map(eta.transpose(1, 0, 2))
    return ReferenceSamples(times, y, kept, diverged)


def reference_y_trajectories(model: PopulationModel, X0s, t_end: float,
                             tol: float = REFERENCE_TOL,
                             sample_times=None) -> list:
    """`reference_y_samples`, one Trajectory per row of X0s."""
    ref = reference_y_samples(model, X0s, t_end, tol, sample_times)
    return [Trajectory(ref.times[:k], ref.y[row, :k], diverged=bool(cut))
            for row, (k, cut) in enumerate(zip(ref.kept.tolist(),
                                               ref.diverged.tolist()))]


def reference_y_trajectory(model: PopulationModel, x0, t_end: float,
                           tol: float = REFERENCE_TOL,
                           sample_times=None) -> Trajectory:
    """Reference y(t) from x0: `reference_y_trajectories` on a batch of one."""
    return reference_y_trajectories(model, [x0], t_end, tol,
                                    sample_times)[0]


@dataclass
class TruncationRun:
    """One lifted evolution measured against the reference in y coordinates."""

    y_approx: Trajectory
    eps: np.ndarray       # per-sample error; NaN at pole-invalid samples
    eps_max: float        # +inf when either trajectory diverged
    pole_invalid: bool


@dataclass
class RouteErrors:
    """Truncation errors of one route from c initial conditions, measured
    in y coordinates against their references on one grid of n samples.

    Column j's entries are meaningful before kept[j], the samples its lift
    and its reference share.
    """

    y: np.ndarray             # (c, n, d) back-mapped block 1
    eps: np.ndarray           # (c, n) error; NaN at pole-invalid samples
    kept: np.ndarray          # (c,)
    diverged: np.ndarray      # (c,) the lift diverged
    eps_max: np.ndarray       # (c,) +inf where either run was cut short
    pole_invalid: np.ndarray  # (c,)


ROUTES = ("vacancy", "mode")


def route_system(model: PopulationModel, route: str,
                 order: int) -> PolySystem:
    """The polynomial system route "vacancy" or "mode" lifts at `order`:
    the Taylor-truncated vacancy tensors, or the exact mode tensors."""
    if route == "vacancy":
        return vacancy_taylor_tensors(model, order)
    if route == "mode":
        return koopman_system(model)
    raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")


@dataclass
class RouteLift:
    """One route's lifted generator at one order and, for a small lift, the
    stack of its exact steps on one sample grid (see `carleman.exact_step`).

    It does not depend on the initial condition, so one instance serves
    every run of that route and order on that grid.
    """

    op: MonomialLift
    step: np.ndarray | None


def route_lift(model: PopulationModel, route: str, order: int,
               t_end: float, sample_times) -> RouteLift:
    """The lift of route "vacancy" or "mode" at `order` on the grid."""
    op = build_monomial_lift(route_system(model, route, order), order)
    return RouteLift(op, exact_step(op, t_end, sample_times))


def _route_errors(references: ReferenceSamples, g1, kept, diverged,
                  back_map) -> RouteErrors:
    """Errors of the (c, n, d) lifted block-1 samples g1, of which column j
    keeps kept[j], against the c references, all at once."""
    n = g1.shape[1]
    shared = np.minimum(kept, references.kept)
    valid = np.arange(n) < shared[:, None]
    # samples past a column's end may hold inf or NaN; they are masked
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y = g1 if back_map is None else back_map(g1)
        eps = np.linalg.norm(references.y[:, :n] - y, axis=2)
    finite = valid & np.isfinite(eps)
    eps_max = np.max(np.where(finite, eps, -np.inf), axis=1)
    eps_max[~finite.any(axis=1)] = np.nan
    eps_max[references.diverged | diverged
            | (shared < np.maximum(kept, references.kept))] = np.inf
    return RouteErrors(y, eps, shared, diverged, eps_max,
                       np.any(valid & np.isnan(eps), axis=1))


def route_runs(model: PopulationModel, X0s, route: str, t_end: float,
               tol: float, sample_times, references: ReferenceSamples,
               lift: RouteLift, width: int = 0) -> RouteErrors:
    """Truncation errors of `route` from each row of X0s, measured against
    the matching row of `references`, all on the shared `lift`.

    The lifts start as the columns of one block, propagated by
    `carleman.lifted_samples` (stepped exactly, at least `width` columns
    wide, or integrated column by column), and block 1 and the kept
    samples of every column come from its one sample array.
    """
    X0s = np.asarray(X0s, dtype=float)
    if route == "vacancy":
        Z0, back_map = x_to_y(model, X0s), None
    else:
        Z0, back_map = x_to_eta(model, X0s), _eta_to_y_rows
    G0 = lift.op.initial_lift(Z0).T
    _, samples, kept, diverged = lifted_samples(
        lift.op, G0, t_end, tol, sample_times, lift.step, width)
    return _route_errors(references, samples[:, :model.dim].transpose(2, 0, 1),
                         kept, diverged, back_map)


def _route_run(model, x0, route, order, t_end, tol, sample_times, reference,
               lift) -> TruncationRun:
    if sample_times is None:
        sample_times = np.linspace(0.0, t_end, 129)
    if reference is None:
        reference = reference_y_trajectory(model, x0, t_end,
                                           sample_times=sample_times)
    if lift is None:
        lift = route_lift(model, route, order, t_end, sample_times)
    # room for every sample, t = 0 too where the grid lacks it
    k = reference.times.size
    y = np.full((1, np.size(sample_times) + 1, model.dim), np.nan,
                dtype=np.complex128)
    y[0, :k] = reference.states
    runs = route_runs(model, [x0], route, t_end, tol, sample_times,
                      ReferenceSamples(reference.times, y, np.array([k]),
                                       np.array([reference.diverged])),
                      lift)
    kept = int(runs.kept[0])
    y = Trajectory(reference.times[:kept], runs.y[0, :kept],
                   diverged=bool(runs.diverged[0]))
    return TruncationRun(y, runs.eps[0, :kept], float(runs.eps_max[0]),
                         bool(runs.pole_invalid[0]))


def vacancy_evolve(model: PopulationModel, x0, order: int, t_end: float,
                   tol: float = 1e-10, sample_times=None,
                   reference: Trajectory = None,
                   lift: RouteLift = None) -> TruncationRun:
    """Lift y(0) through the Taylor-truncated vacancy tensors; eps_C run.

    `lift`, when given, is `route_lift(model, "vacancy", order, t_end,
    sample_times)`, shared across initial conditions.  `tol` is the DOP853
    tolerance of lifts whose Kronecker layout has more than
    `carleman.DENSE_LIMIT` coordinates, run on the monomial coordinates
    under the Kronecker-weighted norm; smaller lifts are propagated
    exactly.
    """
    return _route_run(model, x0, "vacancy", order, t_end, tol, sample_times,
                      reference, lift)


def nip_evolve(model: PopulationModel, x0, order: int, t_end: float,
               tol: float = 1e-10, sample_times=None,
               reference: Trajectory = None,
               lift: RouteLift = None) -> TruncationRun:
    """Lift eta(0) through the exact quadratic mode tensors; eps_K run.

    `lift`, when given, is `route_lift(model, "mode", order, t_end,
    sample_times)`, shared across initial conditions.  `tol` is the DOP853
    tolerance of lifts whose Kronecker layout has more than
    `carleman.DENSE_LIMIT` coordinates, run on the monomial coordinates
    under the Kronecker-weighted norm; smaller lifts are propagated
    exactly.
    """
    return _route_run(model, x0, "mode", order, t_end, tol, sample_times,
                      reference, lift)


# ---------------------------------------------------------------------------
# serialization

def model_to_json(model: PopulationModel) -> str:
    return json.dumps({
        "r": list(model.r),
        "X": list(model.X),
        "J": [[i, j, k, val.real]
              for i, (j, k), val in model.J.entries()],
    })


def model_from_json(text: str) -> PopulationModel:
    data = json.loads(text)
    r = np.asarray(data["r"], dtype=float)
    X = np.asarray(data["X"], dtype=float)
    if r.size != X.size:
        raise DimensionError("r and X lengths differ")
    J = SparseTensor(2, r.size)
    for i, j, k, val in data["J"]:
        J.add(int(i), (int(j), int(k)), float(val))
    return PopulationModel(r.size, r, X, J)
