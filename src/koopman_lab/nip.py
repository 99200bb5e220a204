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
the batched Taylor-series flow `polyflow.taylor_samples`: each row picks
every step so that its expansion's coefficient tail stays under a
fraction `polyflow.TAYLOR_TAIL` of `polyflow.TAYLOR_TOL` * max(1, |eta|).
A batch of initial conditions is one call, mapped to y once as arrays
(`reference_y_samples`).  Lifts run on the symmetric-monomial basis
(`carleman.MonomialLift`), stepped as the columns of one block whose errors
are measured as one array against those arrays (`route_runs`).
`_route_errors` is the one measurement of a lift's truncation error: the
per-sample eps, eps_max and whether a sample met the back map's pole.
The mode system, each route's system and each lift depend on the model
alone, so each is built once and kept on the model for the calls that
follow (`PopulationModel._memo`): each a frozen value, found by its name
(route, order), never passed beside it; a lift keeps its own exact step
(`carleman.exact_step`).  The model is real, so the reference, the lifts,
their exact-step stacks and the errors are all float64 arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .carleman import (
    MonomialLift,
    build_monomial_lift,
    evolve_lifted,  # noqa: F401 (perfbench's tracer test looks it up here)
    lifted_samples,
)
from .polyflow import (
    DimensionError,
    PolySystem,
    SparseTensor,
    Trajectory,
    quadratic_r_number,
    sample_grid,
    spectral_norm,
    taylor_samples,
)

POLE_TOL = 1e-9


@dataclass(frozen=True)
class PopulationModel:
    """Interacting logistic populations (growth r, capacity X, couplings J).

    A model is a value: r and X are read-only float copies of the arrays
    given, J is a `SparseTensor`, itself a value, and no field can be
    rebound.  A pickled model is rebuilt through the constructor, so it is
    a value in another process too; what it kept is built there anew."""

    dim: int
    r: np.ndarray
    X: np.ndarray
    J: SparseTensor  # degree 2; entry (i, (j, k)) couples eta_j eta_k into i
    # what is built from the model is kept here, its one mutable field:
    # values found by name (the mode system, a route's system, a lift)
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        for name in ("r", "X"):
            values = np.array(getattr(self, name), dtype=float)  # a copy
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        if self.r.shape != (self.dim,) or self.X.shape != (self.dim,):
            raise DimensionError("r and X must be length-d vectors")
        if not (np.all(0 < self.r) and np.all(self.r < np.inf)
                and np.all(0 < self.X) and np.all(self.X < np.inf)):
            raise ValueError(
                "growth rates and capacities must be finite and positive")
        if self.J.degree != 2 or self.J.dim != self.dim:
            raise DimensionError("J must be a degree-2 tensor of matching dim")

    def __reduce__(self):
        return PopulationModel, (self.dim, self.r, self.X, self.J)


# ---------------------------------------------------------------------------
# coordinate maps

def x_to_eta(model: PopulationModel, x: np.ndarray) -> np.ndarray:
    """eta = (X - x)/x of positive populations off the pole, X_i/x_i >=
    POLE_TOL; others raise ValueError."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("populations must be positive for the mode map")
    if np.any(model.X / x < POLE_TOL):
        raise ValueError(f"populations must satisfy X_i / x_i >= POLE_TOL = "
                         f"{POLE_TOL:g}, off the mode map's pole")
    return (model.X - x) / x


def eta_to_x(model: PopulationModel, eta: np.ndarray) -> np.ndarray:
    eta = np.asarray(eta)
    return model.X / (1.0 + eta)


def y_to_x(model: PopulationModel, y: np.ndarray) -> np.ndarray:
    return model.X * (1.0 - np.asarray(y))


def _back_map(g1: np.ndarray):
    """g_i / (1 + g_i), unchecked, and where g_i lies within POLE_TOL of
    the pole at -1."""
    den = 1.0 + g1
    with np.errstate(divide="ignore", invalid="ignore"):
        return g1 / den, np.abs(den) < POLE_TOL


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

    Term t = 0, 1, 2 of the bracket at powers (m, n) has degree m + n + t
    and multi-index (j, k, i^t, j^(m-1), k^(n-1)).  The entries of every
    degree are formed as arrays for all J entries at once, in the order of
    the sums: the -r_i y_i (1 - y_i) entries first, then J entry by J
    entry, m ascending and, within m, n ascending.  A key met more than
    once sums in that order (`polyflow.PolySystem.from_arrays`).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    d = model.dim
    i, jk, val = model.J.sorted_arrays()
    coeff = model.X[i] * val
    # per term: degree, t, and the multi-index in the symbols 0, 1, 2 of
    # j, k, i, padded to `order` columns
    terms = [(m + n + t, t, [0, 1] + [2] * t + [0] * (m - 1) + [1] * (n - 1)
              + [0] * (order - m - n - t))
             for m in range(1, order) for n in range(1, order - m + 1)
             for t in range(3) if m + n + t <= order]
    term_degree = np.array([deg for deg, _, _ in terms], dtype=np.int64)
    term_t = np.array([t for _, t, _ in terms], dtype=np.int64)
    symbols = np.array([s for _, _, s in terms],
                       dtype=np.int64).reshape(len(terms), order)
    # the -r_i y_i entries, the r_i y_i^2 ones (order >= 2), then the
    # terms of each J entry
    kinds = min(order, 2)
    lead = np.tile(np.arange(d), kinds)
    degrees = np.concatenate([np.repeat([1, 2][:kinds], d),
                              np.tile(term_degree, i.size)])
    rows = np.concatenate([lead, np.repeat(i, len(terms))])
    cols = np.concatenate([np.repeat(lead[:, None], order, axis=1),
                           np.column_stack([jk, i])[:, symbols]
                           .reshape(-1, order)])
    vals = np.concatenate([-model.r, model.r][:kinds]
                          + [np.stack([coeff, -2 * coeff, coeff])[term_t].T
                             .reshape(-1)])
    return PolySystem.from_arrays(d, order, degrees, rows, cols, vals)


def koopman_tensors(model: PopulationModel):
    """Exact quadratic mode dynamics: G1 = diag(-r), [G2]_{i,(j,k)} = X_i J_{i,jk}."""
    return np.diag(-model.r), koopman_system(model).tensors[2]


def koopman_system(model: PopulationModel) -> PolySystem:
    """The mode dynamics d eta/dt = G1 eta + G2 (eta (x) eta) as one system,
    G1 and G2 sorted at once, kept on the model."""
    memo = model._memo
    if "mode" not in memo:
        memo["mode"] = _koopman_system(model)
    return memo["mode"]


def _koopman_system(model: PopulationModel) -> PolySystem:
    d = model.dim
    i, jk, val = model.J.sorted_arrays()
    diag = np.arange(d)
    return PolySystem.from_arrays(
        d, 2, np.repeat([1, 2], [d, i.size]),
        np.concatenate([diag, i]),
        np.concatenate([np.column_stack([diag, diag]), jk]),
        np.concatenate([-model.r, model.X[i] * val]))


def r_number_nip(model: PopulationModel, eta0: np.ndarray) -> float:
    """Convergence number |G2| |eta0| / min_i r_i of the mode dynamics."""
    G1, G2 = koopman_tensors(model)
    return quadratic_r_number(None, G1, G2, eta0)


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
                        sample_times=None) -> ReferenceSamples:
    """Reference y(t) from each row of X0s: the exact quadratic eta flow
    (`koopman_system`), integrated as one batch by
    `polyflow.taylor_samples`, mapped through eta/(1+eta) as one array.
    The model is real, so every array is float64."""
    etas = x_to_eta(model, np.asarray(X0s, dtype=float))
    times, eta, kept, diverged = taylor_samples(koopman_system(model), etas,
                                                t_end, sample_times)
    y, _ = _back_map(eta.transpose(1, 0, 2))
    return ReferenceSamples(times, y, kept, diverged)


def reference_y_trajectory(model: PopulationModel, x0, t_end: float,
                           sample_times=None) -> Trajectory:
    """Reference y(t) from x0: `reference_y_samples` on a batch of one, its
    kept samples and whether it diverged."""
    ref = reference_y_samples(model, [x0], t_end, sample_times)
    kept = ref.kept[0]
    return Trajectory(ref.times[:kept], ref.y[0, :kept],
                      diverged=bool(ref.diverged[0]))


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
    the Taylor-truncated vacancy tensors, or the exact mode tensors, each
    kept on the model."""
    if route == "vacancy":
        memo = model._memo
        if ("vacancy", order) not in memo:
            memo["vacancy", order] = vacancy_taylor_tensors(model, order)
        return memo["vacancy", order]
    if route == "mode":
        return koopman_system(model)
    raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")


def route_lift(model: PopulationModel, route: str,
               order: int) -> MonomialLift:
    """The lift of `route_system(model, route, order)` at `order`, kept on
    the model for the route and order.  It keeps its own exact step
    (`carleman.exact_step`), so a call on a new grid builds no lift."""
    memo = model._memo
    if ("lift", route, order) not in memo:
        memo["lift", route, order] = build_monomial_lift(
            route_system(model, route, order), order)
    return memo["lift", route, order]


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


def route_runs(model: PopulationModel, X0s, route: str, order: int,
               t_end: float, sample_times,
               references: ReferenceSamples) -> RouteErrors:
    """Truncation errors of `route` at `order` from each row of X0s,
    measured against the matching row of `references`, all on the one lift
    of that route and order kept on the model (`route_lift`).

    The lifts start as the columns of one block, propagated by
    `carleman.lifted_samples` (stepped exactly, or integrated column by
    column), and block 1 and the kept samples of every column come from its
    one sample array.  A vacancy lift starts from y(0) = eta/(1+eta),
    formed as `reference_y_samples` forms it, so its error at t = 0 is 0.
    """
    eta = x_to_eta(model, np.asarray(X0s, dtype=float))
    if route == "vacancy":
        (Z0, _), back_map = _back_map(eta), None
    else:
        Z0, back_map = eta, _eta_to_y_rows
    lift = route_lift(model, route, order)
    _, samples, kept, diverged = lifted_samples(
        lift, lift.initial_lift(Z0).T, t_end, sample_times)
    return _route_errors(references, samples[:, :model.dim].transpose(2, 0, 1),
                         kept, diverged, back_map)


def _route_run(model, x0, route, order, t_end, sample_times,
               reference) -> TruncationRun:
    """One `route_runs` run against `reference`, else
    `reference_y_samples`."""
    sample_times = sample_grid(t_end, sample_times)
    if reference is None:
        references = reference_y_samples(model, [x0], t_end,
                                         sample_times=sample_times)
    else:
        k = reference.times.size
        if not np.array_equal(reference.times, sample_times[:k]):
            raise DimensionError("the reference must be sampled on a leading "
                                 "part of the run's grid")
        y = np.full((1, sample_times.size, model.dim), np.nan,
                    dtype=reference.states.dtype)
        y[0, :k] = reference.states
        references = ReferenceSamples(reference.times, y, np.array([k]),
                                      np.array([reference.diverged]))
    runs = route_runs(model, [x0], route, order, t_end, sample_times,
                      references)
    kept = int(runs.kept[0])
    y = Trajectory(references.times[:kept], runs.y[0, :kept],
                   diverged=bool(runs.diverged[0]))
    return TruncationRun(y, runs.eps[0, :kept], float(runs.eps_max[0]),
                         bool(runs.pole_invalid[0]))


def vacancy_evolve(model: PopulationModel, x0, order: int, t_end: float,
                   tol=None, sample_times=None,
                   reference: Trajectory = None) -> TruncationRun:
    """Lift y(0) through the Taylor-truncated vacancy tensors; eps_C run.

    The run is `route_runs` on one initial condition, with the same bits
    as in a batch.  `tol` does not apply (DOP853 runs at
    `carleman.LIFT_TOL`); ROADMAP item 2 removes the slot.
    """
    return _route_run(model, x0, "vacancy", order, t_end, sample_times,
                      reference)


def nip_evolve(model: PopulationModel, x0, order: int, t_end: float,
               tol=None, sample_times=None,
               reference: Trajectory = None) -> TruncationRun:
    """Lift eta(0) through the exact quadratic mode tensors; eps_K run,
    as `vacancy_evolve` runs eps_C, and its `tol` does not apply either."""
    return _route_run(model, x0, "mode", order, t_end, sample_times,
                      reference)


# ---------------------------------------------------------------------------
# configuration

def model_from_dict(data) -> PopulationModel:
    """A model from its parsed JSON form {"r": [...], "X": [...],
    "J": [[i, j, k, value], ...]}, J's entries kept as listed."""
    r = np.asarray(data["r"], dtype=float)
    X = np.asarray(data["X"], dtype=float)
    if r.size != X.size:
        raise DimensionError("r and X lengths differ")
    entries = [(int(i), int(j), int(k), float(val))
               for i, j, k, val in data["J"]]
    if not all(math.isfinite(e[3]) for e in entries):
        raise ValueError("J values must be finite")
    try:
        ijk = np.array([e[:3] for e in entries], dtype=np.int64)
    except OverflowError:  # an index past int64, so out of range too
        n = next(n for e in entries for n in e[:3] if abs(n) >= 2**63)
        raise DimensionError(f"index {n} out of range for dim {r.size}") \
            from None
    ijk = ijk.reshape(-1, 3)
    J = SparseTensor.from_arrays(2, r.size, ijk[:, 0], ijk[:, 1:],
                                 [e[3] for e in entries])
    return PopulationModel(r.size, r, X, J)
