"""Truncated lifting of a polynomial system to the linear dynamics of its
monomial blocks, applied matrix-free.

The lifted generator is block upper-triangular: block i couples to block
i+j through position sums of the degree-(j+1) tensor.  One numpy kernel,
`CarlemanOperator.apply`, applies it: each position term is a contraction of
a reshaped source block with the dense (d, d^k) flattening of one tensor, so
no block of the operator is ever formed.

The lifted flow dg/dt = C g is linear and C does not depend on the initial
condition.  A small lift sampled on a uniform grid is therefore propagated
exactly, one dense step P = expm(C h) per sample (scaling and squaring,
Al-Mohy & Higham 2009), for a whole (D, c) block of initial lifts at once;
larger lifts are integrated matrix-free with DOP853.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .polyflow import (
    DIVERGENCE_NORM,
    DimensionError,
    OverflowGuardError,
    PolySystem,
    Trajectory,
    integrate_rhs,
    uniform_spacing,
)

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


def block_offsets(d: int, order: int) -> np.ndarray:
    """Start of each monomial block: block k begins at offsets[k-1], the
    sum of d^j over j < k."""
    offsets = np.zeros(order, dtype=np.int64)
    for k in range(2, order + 1):
        offsets[k - 1] = offsets[k - 2] + d**(k - 1)
    return offsets


def _block_slice(d: int, order: int, offsets: np.ndarray, k: int) -> slice:
    if not 1 <= k <= order:
        raise DimensionError(f"block {k} out of range")
    start = int(offsets[k - 1])
    return slice(start, start + d**k)


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
    _flats: list              # per-degree dense (d, d^k) flattenings

    def block_slice(self, k: int) -> slice:
        return _block_slice(self.dim, self.order, self.offsets, k)

    def apply(self, g: np.ndarray) -> np.ndarray:
        """C g, matrix-free, for a lifted vector or a (D, m) block of them.

        Output block i gathers, for each tensor degree k, source block
        i+k-1 through the position sum of I^(pos-1) (x) F_k (x) I^(i-pos),
        pos = 1..i.  Each position term views the source block as
        (left, d^k, right m) with left = d^(pos-1), right = d^(i-pos), and
        contracts the middle axis with the dense (d, d^k) flattening of F_k;
        the m columns of a block ride along with the right factor.
        """
        g = np.ascontiguousarray(g, dtype=np.complex128)
        if g.shape[:1] != (self.total_dim,) or g.ndim > 2:
            raise DimensionError("lifted vector has wrong length")
        m = g.size // self.total_dim
        d, offsets = self.dim, self.offsets
        out = np.zeros(g.shape, dtype=np.complex128)
        for k, fmat in zip(self.degrees.tolist(), self._flats):
            dk = d**k
            for i in range(1, self.order - k + 2):  # output block index
                src = i + k - 1
                v = g[offsets[src - 1]:offsets[src - 1] + d**src]
                dst = out[offsets[i - 1]:offsets[i - 1] + d**i]
                for pos in range(1, i + 1):
                    left = d**(pos - 1)
                    right = d**(i - pos) * m
                    block = v.reshape(left, dk, right)
                    # (d, dk) @ (dk, left*right) -> (d, left, right)
                    contracted = fmat @ block.transpose(1, 0, 2).reshape(
                        dk, left * right)
                    dst += contracted.reshape(d, left, right).transpose(
                        1, 0, 2).reshape(dst.shape)
        return out

    def dense(self) -> np.ndarray:
        """Dense materialization, one block apply over the identity; guarded
        by size.

        Input of the exact small-lift step (`exact_step`) and the test oracle
        of the apply kernel.
        """
        if self.total_dim > 2000:
            raise OverflowGuardError("dense oracle limited to small lifts")
        return self.apply(np.eye(self.total_dim, dtype=np.complex128))


@dataclass
class LiftedState:
    """Stacked monomial blocks g = [g^(1), ..., g^(order)]."""

    dim: int
    order: int
    data: np.ndarray
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.shape != (carleman_dimension(self.dim, self.order),):
            raise DimensionError("lifted data has wrong length")
        self.offsets = block_offsets(self.dim, self.order)

    def block(self, k: int) -> np.ndarray:
        return self.data[_block_slice(self.dim, self.order, self.offsets, k)]


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
    degrees, flats = [], []
    for k in range(1, min(sys.max_degree, order) + 1):
        t = sys.tensor(k)
        if t is None or t.nnz == 0:
            continue
        degrees.append(k)
        flats.append(t.dense_flat())
    return CarlemanOperator(
        dim=d, order=order, degrees=np.array(degrees, dtype=np.int64),
        offsets=block_offsets(d, order), total_dim=total, _flats=flats)


def initial_lift(z0: np.ndarray, order: int):
    """g(0) = [z0, z0^(tensor 2), ..., z0^(tensor order)].

    One initial condition gives a LiftedState.  A (c, d) array of them gives
    the (c, D) array of their lifts, built a degree at a time for all rows:
    block k is the row-wise outer product of block k-1 with z0, flattened
    row-major, which is `polyflow.kron_power` to the bit.
    """
    z0 = np.asarray(z0, dtype=np.complex128)
    if z0.ndim > 2:
        raise DimensionError("initial conditions must be a vector or rows")
    rows = np.atleast_2d(z0)
    c, d = rows.shape
    data = np.empty((c, carleman_dimension(d, order)), dtype=np.complex128)
    block = rows
    for k, start in enumerate(block_offsets(d, order).tolist(), start=1):
        if k > 1:
            block = (block[:, :, None] * rows[:, None, :]).reshape(c, -1)
        data[:, start:start + d**k] = block
    return LiftedState(d, order, data[0]) if z0.ndim < 2 else data


def exact_step(op: CarlemanOperator, t_end: float, sample_times):
    """One-sample propagator expm(C h) of a small lift, or None.

    It applies when the lift has at most DENSE_LIMIT coordinates and the
    samples are the uniform grid np.linspace(0, t_end, n) with n >= 2 and
    t_end > 0 (`uniform_spacing`); then h = t_end / (n - 1).  Otherwise the
    result is None and the lift is integrated instead.
    """
    if op.total_dim > DENSE_LIMIT:
        return None
    h = uniform_spacing(sample_times, t_end)
    return None if h is None else expm(op.dense() * h)


def _stepped(step: np.ndarray, G0: np.ndarray, times: np.ndarray,
             width: int = 0) -> list:
    """Samples step^s G0 of a (D, c) block of lifts, one Trajectory per
    column, each cut before its first sample whose norm exceeds
    DIVERGENCE_NORM (that trajectory is then marked diverged).

    The block is stepped zero-padded to `width` columns when it is
    narrower; only the c columns' samples are kept, each column's samples
    contiguous.
    """
    size, count = G0.shape
    block = np.zeros((2, size, max(count, width)), dtype=np.complex128)
    block[0, :, :count] = G0
    states = np.empty((count, times.size, size), dtype=np.complex128)
    states[:, 0] = G0.T
    for s in range(1, times.size):
        np.matmul(step, block[(s - 1) % 2], out=block[s % 2])
        states[:, s] = block[s % 2, :, :count].T
    parts = states[:, 1:].view(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.einsum("csk,csk->cs", parts, parts))
    out = []
    for col in range(count):
        over = np.flatnonzero(~(norms[col] <= DIVERGENCE_NORM))
        kept = times.size if over.size == 0 else over[0] + 1
        out.append(Trajectory(times[:kept], states[col, :kept],
                              diverged=over.size > 0))
    return out


def evolve_lifted_block(op: CarlemanOperator, G0: np.ndarray, t_end: float,
                        tol: float, sample_times=None, step=None,
                        width: int = 0) -> list:
    """Trajectories of dg/dt = C g from each column of the (D, c) block G0.

    A small lift on a uniform grid is stepped exactly by P = expm(C h) from
    `exact_step`, the whole block at once, states[s] = P states[s-1]; pass
    that `step` to share one P across calls.  A block narrower than `width`
    is stepped zero-padded to that many columns: BLAS may round a column
    of a product differently in a narrower block, so a fixed width keeps
    each column's bits independent of how many columns share its block.
    Any other lift integrates each column matrix-free with DOP853 at
    `tol`.  On both paths a trajectory ends at divergence (norm above
    DIVERGENCE_NORM).
    """
    G0 = np.asarray(G0, dtype=np.complex128)
    if G0.ndim != 2 or G0.shape[0] != op.total_dim:
        raise DimensionError("operator/state dims mismatch")
    if sample_times is None:
        sample_times = np.linspace(0.0, t_end, 129)
    if step is None:
        step = exact_step(op, t_end, sample_times)
    if step is None:
        return [integrate_rhs(lambda t, g: op.apply(g), g0, t_end, tol,
                              sample_times) for g0 in G0.T]
    if step.shape != (op.total_dim, op.total_dim):
        raise DimensionError("step does not match the operator")
    return _stepped(step, G0, np.asarray(sample_times, dtype=float), width)


def evolve_lifted(op: CarlemanOperator, g0: LiftedState, t_end: float,
                  tol: float, sample_times=None, step=None) -> Trajectory:
    """Trajectory of dg/dt = C g from g0: `evolve_lifted_block` on a block
    of one."""
    if (g0.dim, g0.order) != (op.dim, op.order):
        raise DimensionError("operator/state dims mismatch")
    return evolve_lifted_block(op, g0.data[:, None], t_end, tol,
                               sample_times, step)[0]


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
