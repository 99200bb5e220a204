"""Truncated lifting of a polynomial system to the linear dynamics of its
monomials.

The lifted flow dg/dt = C g is linear and C does not depend on the initial
condition.  Two bases carry it:

* the Kronecker layout stacks the blocks x, x (x) x, ..., one coordinate per
  ordered multi-index.  Its generator is block upper-triangular: block i
  couples to block i+j through position sums of the degree-(j+1) tensor,
  and one numpy kernel, `CarlemanOperator.apply`, applies it matrix-free.
  It is the tests' oracle of the monomial generator and its flow.
* the symmetric-monomial basis keeps one coordinate x^alpha per multiset
  alpha, 1 <= |alpha| <= order (`MonomialLift`): 285 coordinates at d = 3,
  order 10, where the Kronecker layout repeats each one |alpha|!/alpha!
  times, 88,572 in all.  Its generator is built from
  d/dt x^alpha = sum_i alpha_i x^(alpha - e_i) f_i(x) (Kowalski & Steeb
  1991; Forets & Pouly, arXiv:1711.02552) for every tensor entry at once,
  and kept as its (row, column, value) triplets.  The library runs every
  lift on it.

`lifted_samples` propagates a `MonomialLift`.  A lift of at most
DENSE_LIMIT monomials (`steps_exactly`: orders 1 to 7 of three variables),
on its uniform grid, is stepped exactly by the powers P, P^2, ..., P^K of
the one-sample step P = expm(C h) (scaling and squaring, Al-Mohy & Higham
2009) of its dense generator, the triplets added into a matrix; the powers
are filled by doubling, kept by the lift for its last grid, and a (D, c)
block of initial lifts takes one product per span of K samples and
STEP_COLUMNS columns, whatever its width (`step_block`).  Larger lifts are
integrated by DOP853 at LIFT_TOL (`integrate_rhs`, which loads
scipy.integrate on its first run) under the norm of the Kronecker layout,
so they take the Kronecker run's steps; their applies multiply by a CSR
matrix of the triplets, which a lift, a frozen value, builds once.

A `MonomialLift` keeps the dtype of its system's values: float64 for a
real system, such as the population strand's, whose triplets, exact-step
stacks (a real `expm`) and samples are then all float64, and complex128
for a complex one.  A block of initial lifts is stepped in the dtype of
its lift and its values together (`polyflow.value_dtype`).  The Kronecker
layout, the tests' oracle, stays complex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np
from scipy.linalg import expm
from scipy.sparse import csr_matrix

from .polyflow import (
    DIVERGENCE_NORM,
    DimensionError,
    OverflowGuardError,
    PolySystem,
    Trajectory,
    as_values,
    entry_plan,
    integrate_rhs,
    kron_power,
    sample_grid,
    value_dtype,
)

DIM_LIMIT = 10**8
# Largest lift, counted in monomials (`MonomialLift.total_dim`), propagated
# by the exact dense step.  Measured on the monomial basis, one BLAS thread,
# the paper model's lifts on both routes, each built on a fresh model and
# run once over the default 129-sample grid: the exact step's build (system,
# generator, expm, stack) and run took 0.9-1.4 + 0.9 ms at D = 55 (d = 3,
# order 5), 1.7-2.6 + 1.7-2.0 ms at D = 83 (order 6) and 5.2-7.8 + 4.7-6.1
# ms at D = 119 (order 7), against 0.4-0.8 + 5.3-5.8, 0.5-1.4 + 4.9-7.9 and
# 0.6-1.8 + 5.3-8.0 ms for DOP853, whose first run also loads
# scipy.integrate (0.25 s, 20 MiB).  So one run costs about the same on
# both paths at D = 119, the largest lift under the limit.
DENSE_LIMIT = 120
# DOP853 tolerance of every lift above DENSE_LIMIT.
LIFT_TOL = 1e-10
# Sample intervals per span of the exact step: `exact_step` stacks P^1 ..
# P^K, K = min(n - 1, STEP_SPAN), in K D^2 8 bytes for a real lift (16 for
# a complex one), at most 3.7 MB for a real lift under DENSE_LIMIT.
STEP_SPAN = 32
# Columns of every exact-step product (`step_block`): BLAS may round a
# column differently in a product of another width.  A multiple of the BLAS
# kernels' column tiling, so that no column falls in a partial tile.
STEP_COLUMNS = 32


def carleman_dimension(d: int, order: int) -> int:
    """Total lifted dimension sum_{k=1}^{order} d^k."""
    if d < 1 or order < 1:
        raise ValueError("d and order must be positive")
    total = sum(d**k for k in range(1, order + 1))
    if total > DIM_LIMIT:
        raise OverflowGuardError(f"lifted dimension {total} exceeds guard")
    return total


def monomial_count(d: int, order: int) -> int:
    """Monomials of degree 1 to `order` in d variables: a lift's total_dim."""
    return comb(d + order, d) - 1


def steps_exactly(d: int, order: int) -> bool:
    """Whether the lift of a d-variable system at `order` takes the exact
    step (`exact_step`): it has at most DENSE_LIMIT monomials
    (`monomial_count`).  A larger lift is integrated by DOP853.  The
    Kronecker dimension is guarded as in `build_monomial_lift`."""
    carleman_dimension(d, order)
    return monomial_count(d, order) <= DENSE_LIMIT


def block_offsets(d: int, order: int) -> np.ndarray:
    """Start of each monomial block: block k begins at offsets[k-1], the
    sum of d^j over j < k."""
    offsets = np.zeros(order, dtype=np.int64)
    for k in range(2, order + 1):
        offsets[k - 1] = offsets[k - 2] + d**(k - 1)
    return offsets


class ConstantDriveError(ValueError):
    """The lift requires a zero constant term in the source system."""


@dataclass
class CarlemanOperator:
    """Matrix-free block upper-triangular lifted generator on the Kronecker
    layout."""

    dim: int
    order: int
    degrees: np.ndarray       # tensor degrees present, ascending
    offsets: np.ndarray       # block k starts at offsets[k-1], k = 1..order
    total_dim: int
    _flats: list              # per-degree dense (d, d^k) flattenings

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

        The tests' oracle of the apply kernel, of the monomial generator
        and, through `expm`, of the lifted flow.
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
        if not 1 <= k <= self.order:
            raise DimensionError(f"block {k} out of range")
        start = int(self.offsets[k - 1])
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


def initial_lift(z0: np.ndarray, order: int) -> LiftedState:
    """g(0) = [z0, z0^(tensor 2), ..., z0^(tensor order)] on the Kronecker
    layout, block k the `polyflow.kron_power` of z0."""
    z0 = np.asarray(z0, dtype=np.complex128)
    if z0.ndim != 1:
        raise DimensionError("the initial condition must be a vector")
    carleman_dimension(z0.size, order)  # the size guard, before allocating
    return LiftedState(z0.size, order, np.concatenate(
        [kron_power(z0, k) for k in range(1, order + 1)]))


@dataclass(eq=False, frozen=True)
class MonomialLift:
    """Lifted generator on the symmetric-monomial basis.

    Coordinate a is the monomial x^alpha with alpha = exponents[a].  The
    coordinates run by degree, 1 to order, and within a degree in the
    lexicographic order of the sorted multi-indices, so the first `dim` are
    x_0 .. x_(d-1), block 1 of the Kronecker layout.  Monomial a stands for
    multiplicities[a] = |alpha|! / alpha! Kronecker coordinates, kron_dim
    in all.  Monomial a of degree k >= 2 is monomial parents[a] of degree
    k - 1 times x_(factors[a]), its largest index.

    The generator is held as its (row, column, value) triplets, a
    duplicate position summing its values.  It has two views, each built
    from the triplets when asked for: `dense()`, which the exact step
    reads, adds them into a dense matrix; `apply`, which only the lifts
    integrated by DOP853 call, multiplies by a CSR matrix of them, built on
    the first apply and kept (`_csr`), as `exact_step` keeps the stack of
    its last grid (`_step`).  A lift is a value: its fields cannot be
    rebound and its arrays are read-only.
    """

    dim: int
    order: int
    rows: np.ndarray          # (nnz,) generator triplets
    cols: np.ndarray
    vals: np.ndarray          # float64, complex128 for a complex system
    exponents: np.ndarray     # (D, dim) int
    multiplicities: np.ndarray  # (D,) float
    kron_dim: int
    offsets: np.ndarray       # degree k starts at offsets[k-1]; D at the end
    parents: np.ndarray
    factors: np.ndarray
    # {(t_end, n): stack} of the last grid stepped exactly (`exact_step`)
    _step: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for name in ("rows", "cols", "vals", "exponents", "multiplicities",
                     "offsets", "parents", "factors"):
            getattr(self, name).flags.writeable = False

    @property
    def total_dim(self) -> int:
        return self.exponents.shape[0]

    @cached_property
    def _csr(self) -> csr_matrix:
        size = self.total_dim
        return csr_matrix((self.vals, (self.rows, self.cols)),
                          shape=(size, size))

    def apply(self, g: np.ndarray) -> np.ndarray:
        """C g for a lifted vector or a (D, m) block of them."""
        return self._csr @ g

    def dense(self) -> np.ndarray:
        """C as a dense (D, D) matrix, the triplets added in order."""
        out = np.zeros((self.total_dim,) * 2, dtype=self.vals.dtype)
        np.add.at(out, (self.rows, self.cols), self.vals)
        return out

    def initial_lift(self, z0: np.ndarray) -> np.ndarray:
        """z0^alpha for every coordinate: a vector for one initial
        condition, the (c, D) array of lifts for a (c, d) array of them.

        Each monomial is its parent times one factor, its largest, so its
        value is that of its sorted multi-index in the Kronecker blocks of
        `initial_lift`, to the bit.
        """
        z0 = as_values(z0)
        rows = np.atleast_2d(z0)
        if z0.ndim > 2 or rows.shape[1] != self.dim:
            raise DimensionError("initial conditions must be a vector or rows "
                                 "of the system's dimension")
        data = np.empty((rows.shape[0], self.total_dim), dtype=z0.dtype)
        data[:, :self.dim] = rows
        for lo, hi in zip(self.offsets[1:-1].tolist(),
                          self.offsets[2:].tolist()):
            data[:, lo:hi] = data[:, self.parents[lo:hi]] \
                * rows[:, self.factors[lo:hi]]
        return data[0] if z0.ndim < 2 else data


def monomial_index(exponents: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Coordinate of each row alpha of `exponents` (1 <= |alpha| <= order)
    in the `MonomialLift` ordering with degree offsets `offsets`.

    Within degree k the order is descending lexicographic on alpha, and the
    number of exponents of degree k that come before alpha is
    sum_{i < d-1} C(T_i + d - i - 2, d - i - 1), T_i = sum_{j > i} alpha_j.
    """
    d = exponents.shape[1]
    # ahead[T, i] = C(T + d - i - 2, d - i - 1), T = 0 .. order
    ahead = np.array([[comb(T + d - i - 2, d - i - 1) for i in range(d - 1)]
                      for T in range(len(offsets))],
                     dtype=np.int64).reshape(len(offsets), d - 1)
    tails = np.cumsum(exponents[:, ::-1], axis=1)[:, ::-1]
    return offsets[tails[:, 0] - 1] \
        + ahead[tails[:, 1:], np.arange(d - 1)].sum(axis=1)


def build_monomial_lift(sys: PolySystem, order: int) -> MonomialLift:
    """Lifted generator of a polynomial system with no constant term on the
    symmetric-monomial basis.

    Row alpha holds d/dt x^alpha = sum_i alpha_i x^(alpha - e_i) f_i(x):
    each entry (i, multi-index c, v) of a degree-k tensor adds alpha_i v at
    column alpha - e_i + beta(c), beta(c) the exponent of c, for every
    alpha with alpha_i > 0 and |alpha| + k - 1 <= order; higher degrees are
    dropped, as the Kronecker layout drops blocks above the order.  The
    triplets run by the entry's degree, then by alpha, then by entry.  The
    Kronecker dimension is guarded as in `build_carleman`.  Every array of
    the lift is read-only.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if sys.has_constant_term():
        raise ConstantDriveError(
            "constant drive is not supported by the monomial lift")
    d = sys.dim
    kron_dim = carleman_dimension(d, order)
    eye = np.eye(d, dtype=np.int64)
    exps, parents, factors, mults = [eye], [np.full(d, -1)], \
        [np.arange(d)], [np.ones(d, dtype=np.int64)]
    offsets = [0, d]
    for k in range(2, order + 1):
        # a child appends a factor no smaller than its parent's largest
        parent, factor = np.nonzero(factors[-1][:, None] <= np.arange(d))
        mults.append(mults[-1][parent] * k
                     // (exps[-1][parent, factor] + 1))
        exps.append(exps[-1][parent] + eye[factor])
        parents.append(parent + offsets[-2])
        factors.append(factor)
        offsets.append(offsets[-1] + parent.size)
    exponents = np.vstack(exps)
    offsets = np.array(offsets, dtype=np.int64)
    # the entries of every kept degree at once, in degree order (an empty
    # degree-1 set when there are none)
    plan = [p for p in entry_plan(sys) if 1 <= p[0] <= order] or [
        (1, np.empty(0, dtype=np.int64), np.empty((0, 1), dtype=np.int64),
         np.empty(0))]
    degree = np.repeat([k for k, *_ in plan], [r.size for _, r, _, _ in plan])
    tensor_rows = np.concatenate([r for _, r, _, _ in plan])
    values = np.concatenate([v for *_, v in plan])
    beta = np.concatenate([(c[:, :, None] == np.arange(d)).sum(axis=1)
                           for _, _, c, _ in plan])
    # source alpha, entry e: alpha_i > 0 and |alpha| + k - 1 <= order,
    # ordered by the entry's degree, then alpha, then e
    src, entry = np.nonzero((exponents[:, tensor_rows] > 0)
                            & (exponents.sum(axis=1)[:, None] + degree
                               <= order + 1))
    by_degree = np.argsort(degree[entry], kind="stable")
    src, entry = src[by_degree], entry[by_degree]
    i = tensor_rows[entry]
    arrays = dict(
        rows=src, cols=monomial_index(exponents[src] - eye[i] + beta[entry],
                                      offsets),
        vals=exponents[src, i] * values[entry], exponents=exponents,
        multiplicities=np.concatenate(mults).astype(float), offsets=offsets,
        parents=np.concatenate(parents), factors=np.concatenate(factors))
    return MonomialLift(dim=d, order=order, kron_dim=kron_dim, **arrays)


def exact_step(lift: MonomialLift, t_end: float, sample_times):
    """Powers P^1, ..., P^K of the one-sample step P = expm(C h) of a small
    `MonomialLift`, as a (K, D, D) stack, or None.

    The step applies when the lift has at most DENSE_LIMIT monomials
    (`steps_exactly`) and the n samples of `polyflow.sample_grid(t_end,
    sample_times)` are more than t = 0 alone;
    then h = t_end / (n - 1), K = min(n - 1, STEP_SPAN), and the stack
    is filled by doubling: P^(m+i) = P^i P^m for i <= m, one (m D, D) @
    (D, D) product per doubling.  The stack is read-only, and the lift
    keeps it, named by t_end and n, until it steps another grid exactly.
    Otherwise the result is None and the lift is integrated instead.
    """
    n = sample_grid(t_end, sample_times).size
    if not steps_exactly(lift.dim, lift.order) or n < 2:
        return None
    if (t_end, n) in lift._step:
        return lift._step[t_end, n]
    span = min(n - 1, STEP_SPAN)
    size = lift.total_dim
    stack = np.empty((span, size, size), dtype=lift.vals.dtype)
    stack[0] = expm(lift.dense() * (t_end / (n - 1)))
    # doubling: P^(m+1) .. P^(2m) are P^1 .. P^m times P^m, one product
    done = 1
    while done < span:
        new = min(done, span - done)
        np.matmul(stack[:new].reshape(new * size, size), stack[done - 1],
                  out=stack[done:done + new].reshape(new * size, size))
        done += new
    stack.flags.writeable = False
    lift._step.clear()
    lift._step[t_end, n] = stack
    return stack


def step_block(stack: np.ndarray, G0: np.ndarray, n: int,
               weights: np.ndarray):
    """Samples 0 .. n-1 of a (D, c) block of lifts stepped by the stack of
    `exact_step`, and how many of them each column keeps.

    Sample jK + i is P^i times sample jK, so a span of K samples is one
    (K D, D) @ (D, STEP_COLUMNS) product, shorter for a partial last span.
    A block of at most STEP_COLUMNS columns is zero-padded to that width; a
    wider one is stepped STEP_COLUMNS columns at a time.  So each column
    has the bits it has when stepped alone.  Returns the (n, D, c) samples
    and, per column, the samples before its first one whose norm
    sqrt(sum_a weights[a] |g_a|^2) exceeds DIVERGENCE_NORM (n when none
    does); the samples after that are not meaningful.
    """
    count = G0.shape[1]
    if count > STEP_COLUMNS:
        parts = [step_block(stack, G0[:, lo:lo + STEP_COLUMNS], n, weights)
                 for lo in range(0, count, STEP_COLUMNS)]
        return (np.concatenate([samples for samples, _ in parts], axis=2),
                np.concatenate([kept for _, kept in parts]))
    span, size = stack.shape[:2]
    # every sample after the first is written by the products below
    samples = np.empty((n, size, STEP_COLUMNS), dtype=value_dtype(stack, G0))
    samples[0, :, count:] = 0.0
    samples[0, :, :count] = G0
    # each sample's weighted squares of its float64 parts (a complex
    # column's real and imaginary parts side by side), formed per span on
    # the product just written, so that no temporary of the whole block is
    # allocated: one cost about 4,400 page faults per benchmark scan pass
    squares = np.empty((n - 1, samples[0].view(np.float64).shape[1]))
    powers = stack.reshape(span * size, size)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n - 1, span):
            k = min(span, n - 1 - start)
            block = samples[start + 1:start + 1 + k]
            np.matmul(powers[:k * size], samples[start],
                      out=block.reshape(k * size, STEP_COLUMNS))
            np.matmul(weights, np.square(block.view(np.float64)),
                      out=squares[start:start + k])
        norms = np.sqrt(squares.reshape(n - 1, STEP_COLUMNS, -1).sum(axis=2))
    over = ~(norms[:, :count] <= DIVERGENCE_NORM)
    kept = np.where(over.any(axis=0), over.argmax(axis=0) + 1, n)
    return samples[:, :, :count], kept


def lifted_samples(lift: MonomialLift, G0: np.ndarray, t_end: float,
                   sample_times=None):
    """Samples of dg/dt = C g of a `MonomialLift` from each column of the
    (D, c) block G0, as arrays, at the times of
    `polyflow.sample_grid(t_end, sample_times)`.

    A lift of at most DENSE_LIMIT monomials (`steps_exactly`) is stepped
    exactly by the stack of powers of P = expm(C h) from `exact_step`, one
    product per span and STEP_COLUMNS columns (`step_block`), so a column's
    samples do not depend on its block, and the lift keeps that stack.  Any
    larger lift integrates each column with DOP853 at LIFT_TOL
    (`polyflow.integrate_rhs`).  On both paths the norm is that of the
    Kronecker layout, each monomial weighted by `lift.multiplicities`, and
    a column ends at divergence (that norm above DIVERGENCE_NORM).

    Returns (times, samples, kept, diverged): the n sample times, the
    (n, D, c) samples, how many leading samples each column keeps (the
    samples after them are not meaningful) and whether it diverged.
    """
    G0 = as_values(G0, lift.vals)
    if G0.ndim != 2 or G0.shape[0] != lift.total_dim:
        raise DimensionError("lift/state dims mismatch")
    times = sample_grid(t_end, sample_times)
    if (step := exact_step(lift, t_end, times)) is not None:
        samples, kept = step_block(step, G0, times.size, lift.multiplicities)
        return times, samples, kept, kept < times.size
    trajs = [integrate_rhs(lambda t, g: lift.apply(g), g0, t_end,
                           LIFT_TOL, times, weights=lift.multiplicities)
             for g0 in G0.T]
    samples = np.full((times.size,) + G0.shape, np.nan, dtype=G0.dtype)
    for col, traj in enumerate(trajs):
        samples[:traj.times.size, :, col] = traj.states
    kept = np.array([traj.times.size for traj in trajs], dtype=np.int64)
    return times, samples, kept, np.array([traj.diverged for traj in trajs])


def evolve_lifted(lift: MonomialLift, g0, t_end: float,
                  sample_times=None) -> Trajectory:
    """Trajectory of dg/dt = C g of a `MonomialLift` from the lifted vector
    g0, such as `lift.initial_lift(z0)`: `lifted_samples` on a block of
    one, its kept samples and whether it diverged."""
    times, samples, kept, diverged = lifted_samples(
        lift, np.asarray(g0)[:, None], t_end, sample_times)
    return Trajectory(times[:kept[0]], samples[:kept[0], :, 0],
                      diverged=bool(diverged[0]))
