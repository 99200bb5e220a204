"""Truncated lifting of a polynomial system to the linear dynamics of its
monomial blocks, applied matrix-free.

The lifted generator is block upper-triangular: block i couples to block
i+j through position sums of the degree-(j+1) tensor.  The hot apply kernel
has a compiled implementation (Cython) and a numpy fallback; the compiled one
is selected at import when available.  Set KOOPMAN_LAB_FORCE_PY=1 to force
the fallback (used by the benchmark).

The lifted flow dg/dt = C g is linear and C does not depend on the initial
condition.  A small lift sampled on a uniform grid is therefore propagated
exactly, one dense step P = expm(C h) per sample (scaling and squaring,
Al-Mohy & Higham 2009); larger lifts are integrated matrix-free with DOP853.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from . import _carleman_py
from .polyflow import (
    DIVERGENCE_NORM,
    DimensionError,
    OverflowGuardError,
    PolySystem,
    Trajectory,
    integrate_rhs,
    kron_power,
)

try:
    from . import _carleman_cy
except ImportError:  # pragma: no cover - build-environment dependent
    _carleman_cy = None

USE_COMPILED = _carleman_cy is not None and \
    os.environ.get("KOOPMAN_LAB_FORCE_PY", "") != "1"

DIM_LIMIT = 10**8
# Largest lift propagated by the exact dense step.  Measured with one BLAS
# thread, operator and step built per run: at D = 120 (paper model, order 4)
# the dense path takes 15-21 ms against 47-49 ms for DOP853; at D = 363
# (order 5) it takes 126-146 ms against 51-116 ms.
DENSE_LIMIT = 120


def carleman_dimension(d: int, order: int) -> int:
    """Total lifted dimension sum_{k=1}^{order} d^k."""
    if d < 1 or order < 1:
        raise ValueError("d and order must be positive")
    total = sum(d**k for k in range(1, order + 1))
    if total > DIM_LIMIT:
        raise OverflowGuardError(f"lifted dimension {total} exceeds guard")
    return total


class ConstantDriveError(ValueError):
    """The lift requires a zero constant term in the source system."""


@dataclass
class CarlemanOperator:
    """Matrix-free block upper-triangular lifted generator."""

    dim: int
    order: int
    degrees: np.ndarray       # tensor degrees present, ascending
    offsets: np.ndarray       # block k starts at offsets[k-1], k = 1..order
    total_dim: int
    _rows: list = None        # per-degree entry arrays
    _cols: list = None
    _vals: list = None
    _flats: list = None       # per-degree dense (d, d^k) flattenings

    def block_slice(self, k: int) -> slice:
        if not 1 <= k <= self.order:
            raise DimensionError(f"block {k} out of range")
        start = int(self.offsets[k - 1])
        return slice(start, start + self.dim**k)

    def apply(self, g: np.ndarray) -> np.ndarray:
        g = np.ascontiguousarray(g, dtype=np.complex128)
        if g.shape != (self.total_dim,):
            raise DimensionError("lifted vector has wrong length")
        out = np.zeros(self.total_dim, dtype=np.complex128)
        if USE_COMPILED:
            _carleman_cy.apply_blocks_sparse(
                out, g, self.dim, self.order, self.offsets, self.degrees,
                self._rows, self._cols, self._vals)
        else:
            _carleman_py.apply_blocks(
                out, g, self.dim, self.order, self.offsets,
                [int(k) for k in self.degrees], self._flats)
        return out

    def dense(self) -> np.ndarray:
        """Dense materialization, one apply per column; guarded by size.

        Input of the exact small-lift step (`exact_step`) and the test oracle
        of the apply kernel.
        """
        if self.total_dim > 2000:
            raise OverflowGuardError("dense oracle limited to small lifts")
        eye = np.eye(self.total_dim, dtype=np.complex128)
        return np.column_stack([self.apply(eye[:, j])
                                for j in range(self.total_dim)])


@dataclass
class LiftedState:
    """Stacked monomial blocks g = [g^(1), ..., g^(order)]."""

    dim: int
    order: int
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.shape != (carleman_dimension(self.dim, self.order),):
            raise DimensionError("lifted data has wrong length")

    def block(self, k: int) -> np.ndarray:
        if not 1 <= k <= self.order:
            raise DimensionError(f"block {k} out of range")
        start = sum(self.dim**j for j in range(1, k))
        return self.data[start:start + self.dim**k]


def build_carleman(sys: PolySystem, order: int) -> CarlemanOperator:
    """Lifted generator of a polynomial system with no constant term.

    Tensors of degree above the truncation order are ignored; missing degrees
    simply contribute no blocks.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if sys.has_constant_term():
        raise ConstantDriveError(
            "constant drive is not supported by the monomial lift")
    d = sys.dim
    total = carleman_dimension(d, order)
    offsets = np.zeros(order, dtype=np.int64)
    for k in range(2, order + 1):
        offsets[k - 1] = offsets[k - 2] + d**(k - 1)

    degrees, rows, cols, vals, flats = [], [], [], [], []
    for k in range(1, min(sys.max_degree, order) + 1):
        t = sys.tensor(k)
        if t is None or t.nnz == 0:
            continue
        r, c, v = t.arrays()
        degrees.append(k)
        rows.append(np.ascontiguousarray(r))
        cols.append(np.ascontiguousarray(c))
        vals.append(np.ascontiguousarray(v))
        flats.append(t.dense_flat())
    return CarlemanOperator(
        dim=d, order=order, degrees=np.array(degrees, dtype=np.int64),
        offsets=offsets, total_dim=total, _rows=rows, _cols=cols,
        _vals=vals, _flats=flats)


def apply_carleman(op: CarlemanOperator, g: LiftedState) -> LiftedState:
    if (g.dim, g.order) != (op.dim, op.order):
        raise DimensionError("operator/state dims mismatch")
    return LiftedState(op.dim, op.order, op.apply(g.data))


def initial_lift(z0: np.ndarray, order: int) -> LiftedState:
    """g(0) = [z0, z0^(tensor 2), ..., z0^(tensor order)]."""
    z0 = np.asarray(z0, dtype=np.complex128)
    d = z0.size
    total = carleman_dimension(d, order)
    data = np.empty(total, dtype=np.complex128)
    start = 0
    for k in range(1, order + 1):
        data[start:start + d**k] = kron_power(z0, k)
        start += d**k
    return LiftedState(d, order, data)


def exact_step(op: CarlemanOperator, t_end: float, sample_times):
    """One-sample propagator expm(C h) of a small lift, or None.

    It applies when the lift has at most DENSE_LIMIT coordinates and the
    samples are the uniform grid np.linspace(0, t_end, n) with n >= 2 and
    t_end > 0; then h = t_end / (n - 1).  Otherwise the result is None and
    the lift is integrated instead.
    """
    times = np.asarray(sample_times, dtype=float)
    n = times.size
    if op.total_dim > DENSE_LIMIT or n < 2 or not t_end > 0:
        return None
    h = t_end / (n - 1)
    if np.max(np.abs(times - h * np.arange(n))) > 1e-12 * t_end:
        return None
    return expm(op.dense() * h)


def _stepped(step: np.ndarray, g0: np.ndarray, times: np.ndarray):
    """Samples step^s g0, cut before the first whose norm exceeds
    DIVERGENCE_NORM (the trajectory is then marked diverged)."""
    states = np.empty((times.size, g0.size), dtype=np.complex128)
    states[0] = g0
    for s in range(1, times.size):
        np.dot(step, states[s - 1], out=states[s])
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(states[1:], axis=1)
    over = np.flatnonzero(~(norms <= DIVERGENCE_NORM))
    if over.size == 0:
        return Trajectory(times, states)
    kept = over[0] + 1
    return Trajectory(times[:kept], states[:kept], diverged=True)


def evolve_lifted(op: CarlemanOperator, g0: LiftedState, t_end: float,
                  tol: float, sample_times=None, step=None) -> Trajectory:
    """Trajectory of dg/dt = C g from g0, sampled on the grid.

    A small lift on a uniform grid is stepped exactly by P = expm(C h) from
    `exact_step`; pass that `step` to share one P across initial conditions.
    Any other lift is integrated matrix-free with DOP853 at `tol`.  On both
    paths the trajectory ends at divergence (norm above DIVERGENCE_NORM).
    """
    if (g0.dim, g0.order) != (op.dim, op.order):
        raise DimensionError("operator/state dims mismatch")
    if sample_times is None:
        sample_times = np.linspace(0.0, t_end, 129)
    if step is None:
        step = exact_step(op, t_end, sample_times)
    if step is None:
        return integrate_rhs(lambda t, g: op.apply(g), g0.data, t_end, tol,
                             sample_times)
    if step.shape != (op.total_dim, op.total_dim):
        raise DimensionError("step does not match the operator")
    return _stepped(step, g0.data, np.asarray(sample_times, dtype=float))


def block1_error(reference: Trajectory, lifted: Trajectory, dim: int,
                 order: int, back_map=None):
    """Distance between the reference flow and back-mapped block 1.

    Compares the samples both trajectories share, all at once: `back_map`
    takes the (n, dim) block-1 rows and returns the mapped rows, NaN where
    it cannot map.  Returns (mapped rows, per-sample distance, cut), where
    cut says that either trajectory diverged or ended before the other.
    """
    if lifted.states.shape[1] != carleman_dimension(dim, order):
        raise DimensionError("lifted data has wrong length")
    n = min(reference.times.size, lifted.times.size)
    g1 = lifted.states[:n, :dim]
    mapped = g1 if back_map is None else back_map(g1)
    eps = np.linalg.norm(reference.states[:n, :dim] - mapped, axis=1)
    cut = reference.diverged or lifted.diverged or \
        n < max(reference.times.size, lifted.times.size)
    return mapped, eps, cut


def truncation_error(reference: Trajectory, lifted: Trajectory,
                     dim: int, order: int, back_map=None):
    """Per-sample distance between the reference flow and back-mapped block 1.

    Both trajectories must share a time grid up to the point where either
    diverged; a divergent comparison reports max = +inf.  `back_map` maps
    block-1 rows as in `block1_error`.
    """
    n = min(reference.times.size, lifted.times.size)
    if not np.allclose(reference.times[:n], lifted.times[:n], atol=1e-12):
        raise DimensionError("trajectories sampled on different time grids")
    _, profile, cut = block1_error(reference, lifted, dim, order, back_map)
    max_err = float(np.max(profile)) if n else 0.0
    if cut:
        max_err = np.inf
    return profile, max_err
