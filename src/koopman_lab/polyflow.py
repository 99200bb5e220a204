"""Polynomial vector fields, reference integration, the matrix norms used
by every other module, and the one CSV formatter of the command outputs.

A system dx/dt = sum_k F_k x^(tensor k) is stored as a tuple of sparse
coefficient tensors, each built once from arrays of entries
(`SparseTensor.from_arrays`).  The degree-0 tensor is a plain vector
(constant drive), degree 1 a matrix, and degree k maps the k-fold Kronecker
power of x back to d components.

Systems of degree <= 2 flow by `taylor_samples`: each row takes one
expansion of order TAYLOR_ORDER per step, picks the step from the
expansion's last two coefficients at the one tolerance TAYLOR_TOL, and
one Horner pass over the coefficients gives every sample inside the step
(Taylor's step control and dense output, Jorba & Zou, Exp. Math. 14(1),
2005): about 6 expansions per 128 sample intervals of a criterion-04
cell, within roundoff of the exact flow.  The expansion's recurrence
takes two stacked per-row products per order: the Cauchy sums of the
coefficients' outer products, then their contraction with one dense
bilinear tensor of the system (`_QuadraticTaylor`).  Every flow of the
package samples the uniform grid of `sample_grid`, np.linspace(0, t_end,
n), with n = GRID_SAMPLES when it is given no sample times.
Every flow runs in the dtype of its system and initial states
(`value_dtype`): float64 when they are real, complex128 otherwise.

`integrate_rhs` is the package's adaptive integrator, a DOP853 run.  Its
solver lives in `_dop853`, the one module that imports scipy.integrate,
and is imported on the first call: the polynomial flows
(`taylor_samples`) never load it, and linear flows given as a matrix are
one `expm` in the module that owns them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

DIVERGENCE_NORM = 1e9
KRON_SIZE_LIMIT = 10**8
# Samples of the default grid np.linspace(0, t_end, GRID_SAMPLES).
GRID_SAMPLES = 129
# Largest N of the fermion strand's density-matrix oracle, whose
# Liouvillian is 4^N x 4^N: `fermion.ORACLE_MAX_N`, kept here, beside the
# grid, so that the command table reads it without loading the fermion
# module and scipy.
ORACLE_MAX_N = 4
# Order of each Taylor expansion of `taylor_samples`, its tolerance, and
# the bound on the expansion's last two coefficients over a step, as a
# fraction of TAYLOR_TOL max(1, |x|), that picks the step.  On criterion
# 04's 961-cell grid (t_end 0.1, 129 samples), against a 30-digit mpmath
# flow, the reference's largest error relative to max(1, |eta|) at order
# 27 is 7.6e-13 at a bound of 1, 6.7e-15 at 0.02 and 1.4e-15, roundoff
# (6 ulp), at 0.005, which 0.002 does not lower.  At 0.005 a reference
# takes about 6 expansions per 128 sample intervals.
#
# The order is the fastest one whose error stays at roundoff.  Jorba &
# Zou's rule, which counts order^2 operations per step, gives about 19 at
# this tolerance; but at the scan's batch sizes each order of an expansion
# is a fixed number of array calls, so a step costs in proportion to the
# order, and fewer, longer steps cost less.  For 8 rows, order 20 took 3.0
# ms and 9.3 expansions per 128 intervals, order 27 2.3 ms, and 128 or 512
# rows took the same time at both (one BLAS thread).  The grid's largest
# error grows with the order, 9.3e-16 at 20, 1.1e-15 at 24, 1.9e-15 at 28
# and 2.8e-15 at 32; on the five cells of the tests' 30-digit check,
# order 27 stays within 7.8e-16 under OpenBLAS's SkylakeX, Haswell,
# Sandybridge and Prescott kernels, where order 28, no more than a few per
# cent faster, reaches 1.3e-15.
TAYLOR_ORDER = 27
TAYLOR_TOL = 1e-12
TAYLOR_TAIL = 0.005


class DimensionError(ValueError):
    """Shape or dimension mismatch between operands."""


class OverflowGuardError(ValueError):
    """A requested tensor-power object would exceed the size guard."""


class StepUnderflowError(RuntimeError):
    """The adaptive integrator could not take a step at the requested tolerance."""


def value_dtype(*arrays) -> np.dtype:
    """The dtype a flow of `arrays` runs in: float64 when every one is
    real, complex128 when one is complex (`np.result_type`, at least
    float64)."""
    return np.result_type(*arrays, np.float64)


def as_values(a, *others) -> np.ndarray:
    """`a` as an array of `value_dtype(a, *others)`: float64, or complex128
    when `a` or one of the others is complex."""
    a = np.asarray(a)
    return a.astype(value_dtype(a, *others), copy=False)


def _canonical(keys: np.ndarray, vals: np.ndarray):
    """The distinct rows of `keys` in lexicographic order, each with the
    sum of its values taken from zero in input order.  Both results are
    read-only."""
    # lexsort is stable, so each key's values stay in input order
    order = np.lexsort(keys.T[::-1])
    keys, vals = keys[order], vals[order]
    repeat = (keys[1:] == keys[:-1]).all(axis=1)
    if repeat.any():
        first = np.concatenate([[True], ~repeat])
        sums = np.zeros(keys.shape[0] - np.count_nonzero(repeat),
                        dtype=vals.dtype)
        np.add.at(sums, np.cumsum(first) - 1, vals)
        keys, vals = keys[first], sums
    else:
        vals = vals + 0.0  # summed from zero as well: -0.0 parts become 0.0
    keys.flags.writeable = vals.flags.writeable = False
    return keys, vals


def _entry_keys(dim: int, rows, cols, vals, width: int):
    """(rows, cols) as one checked (nnz, 1 + width) key array, and the
    values; the first index out of range is named."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = as_values(vals)
    if rows.ndim != 1 or vals.shape != rows.shape \
            or cols.shape != (rows.size, width):
        raise DimensionError(
            f"entries need rows (nnz,), cols (nnz, {width}) and vals (nnz,), "
            f"got {rows.shape}, {cols.shape} and {vals.shape}")
    keys = np.concatenate([rows[:, None], cols], axis=1)
    bad = np.argwhere((keys < 0) | (keys >= dim))
    if bad.size:
        e, i = bad[0]
        raise DimensionError(f"{'column' if i else 'row'} {keys[e, i]} out "
                             f"of range for dim {dim}")
    return keys, vals


@dataclass(eq=False, frozen=True)
class SparseTensor:
    """Degree-k coefficient tensor held as (row, multi-index, value) entries.

    The entries are canonical arrays: each key (row, multi-index) once, in
    lexicographic order, which makes iteration and serialization
    deterministic.  A tensor is built once, by `from_arrays` (or
    `PolySystem.from_arrays`, several degrees at once), which sorts arrays
    of entries and sums a repeated key from zero in input order with a
    fixed number of numpy operations.  `SparseTensor(degree, dim)` is the
    empty tensor; the constructor takes `keys` and `vals` only as the
    builders make them, canonical.  A tensor is a value: its fields cannot
    be rebound and its arrays are read-only, also in another process, as a
    pickled tensor is rebuilt through the constructor.

    The values keep the dtype they arrive in: float64 while every value
    is real (floats, integers, real arrays), complex128 once one is
    complex.  A real system so flows in real arithmetic, and a complex one
    in complex, on the same code (`value_dtype`).
    """

    degree: int
    dim: int
    keys: np.ndarray = field(default=None, repr=False)  # (nnz, 1 + degree)
    vals: np.ndarray = field(default=None, repr=False)  # (nnz,)

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        if self.keys is None:
            keys, vals = _canonical(
                np.empty((0, self.degree + 1), dtype=np.int64), np.empty(0))
            object.__setattr__(self, "keys", keys)
            object.__setattr__(self, "vals", vals)
        self.keys.flags.writeable = self.vals.flags.writeable = False

    def __reduce__(self):
        return SparseTensor, (self.degree, self.dim, self.keys, self.vals)

    @classmethod
    def from_arrays(cls, degree: int, dim: int, rows, cols,
                    vals) -> "SparseTensor":
        """Tensor of the entries (rows[e], cols[e], vals[e]): rows and vals
        of length nnz, cols of shape (nnz, degree)."""
        return cls(degree, dim, *_canonical(
            *_entry_keys(dim, rows, cols, vals, degree)))

    def sorted_arrays(self):
        """(rows, (nnz, degree) multi-indices, values) in key order,
        read-only."""
        return self.keys[:, 0], self.keys[:, 1:], self.vals

    def entries(self):
        """Sorted (row, cols, value) triples, zero-valued entries included."""
        rows, cols, vals = self.sorted_arrays()
        return zip(rows.tolist(), map(tuple, cols.tolist()), vals.tolist())

    @property
    def nnz(self) -> int:
        return self.vals.size

    def arrays(self):
        """Entry data as (rows, flat_cols, values) numpy arrays."""
        if self.dim**self.degree > np.iinfo(np.int64).max:
            raise OverflowGuardError("flat column index exceeds int64")
        rows, cols, vals = self.sorted_arrays()
        flat = np.zeros(rows.size, dtype=np.int64)
        for c in cols.T:
            flat = flat * self.dim + c
        return rows, flat, vals

    def dense_flat(self) -> np.ndarray:
        """Dense (d, d^k) flattening of the tensor."""
        ncols = self.dim**self.degree
        if self.dim * ncols > KRON_SIZE_LIMIT:
            raise OverflowGuardError("dense flattening exceeds size guard")
        rows, flat, vals = self.arrays()
        out = np.zeros((self.dim, ncols), dtype=vals.dtype)
        out[rows, flat] = vals
        return out

    @classmethod
    def from_dense_flat(cls, degree: int, mat: np.ndarray) -> "SparseTensor":
        mat = as_values(mat)
        d = mat.shape[0]
        if mat.shape[1] != d**degree:
            raise DimensionError("flattened shape inconsistent with degree")
        rows, flat = np.nonzero(mat)
        cols = flat[:, None] // d ** np.arange(degree - 1, -1, -1) % d
        return cls.from_arrays(degree, d, rows, cols, mat[rows, flat])


@dataclass(eq=False, frozen=True)
class PolySystem:
    """dx/dt = sum_k F_k x^(tensor k), tensors indexed by degree 0..N.
    A value: the tensors, given as any sequence, are kept as a tuple."""

    dim: int
    tensors: tuple  # SparseTensor or None per degree; index = degree

    def __post_init__(self):
        object.__setattr__(self, "tensors", tuple(self.tensors))
        for k, t in enumerate(self.tensors):
            if t is None:
                continue
            if t.dim != self.dim or t.degree != k:
                raise DimensionError(
                    f"tensor at slot {k} has degree {t.degree}, dim {t.dim}")

    @classmethod
    def from_arrays(cls, dim: int, order: int, degrees, rows, cols,
                    vals) -> "PolySystem":
        """System of the entries (degrees[e], rows[e], cols[e], vals[e]),
        all degrees sorted and summed at once.  cols is (nnz, order), and an
        entry of degree k reads its first k columns.  Every degree 1..order
        gets a tensor, empty when it has no entries; degree 0 gets one only
        when it has entries.  Each tensor equals `SparseTensor.from_arrays`
        of its degree's entries in input order, to the bit."""
        degrees = np.asarray(degrees, dtype=np.int64)
        if degrees.ndim != 1 or np.shape(cols) != (degrees.size, order):
            raise DimensionError(
                f"entries need degrees (nnz,) and cols (nnz, {order}), got "
                f"{degrees.shape} and {np.shape(cols)}")
        if degrees.size and (degrees.min() < 0 or degrees.max() > order):
            raise DimensionError(f"entry degrees must lie in 0..{order}")
        # keys (degree, row, multi-index padded with zeros)
        keys, vals = _entry_keys(
            dim, rows, np.where(np.arange(order) < degrees[:, None], cols, 0),
            vals, order)
        keys, vals = _canonical(
            np.concatenate([degrees[:, None], keys], axis=1), vals)
        bounds = np.searchsorted(keys[:, 0], np.arange(order + 2)).tolist()
        tensors = [SparseTensor(k, dim, keys[lo:hi, 1:k + 2], vals[lo:hi])
                   for k, lo, hi in zip(range(order + 1), bounds, bounds[1:])]
        if not tensors[0].nnz:
            tensors[0] = None
        return cls(dim, tensors)

    @property
    def dtype(self) -> np.dtype:
        """float64 when every value of the system is real, else
        complex128."""
        return value_dtype(*(t.sorted_arrays()[2] for t in self.tensors
                             if t is not None))

    @property
    def max_degree(self) -> int:
        return len(self.tensors) - 1

    def tensor(self, degree: int):
        if degree < len(self.tensors):
            return self.tensors[degree]
        return None

    def has_constant_term(self) -> bool:
        t0 = self.tensor(0)
        if t0 is None:
            return False
        return bool(np.any(np.abs(t0.sorted_arrays()[2]) > 0))


@dataclass
class Trajectory:
    """Sampled solution with divergence bookkeeping, on the times of
    `sample_grid` or a leading part of them."""

    times: np.ndarray
    states: np.ndarray  # (len(times), dim), float64 or complex128
    diverged: bool = False
    cause: str = ""  # why a diverged trajectory ended, where it is known

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = as_values(self.states)
        if self.times.ndim != 1 or self.states.shape[0] != self.times.size:
            raise DimensionError("times/states length mismatch")

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def eval_rhs(sys: PolySystem, x: np.ndarray) -> np.ndarray:
    """Evaluate sum_k F_k x^(tensor k) without materializing x^(tensor k)."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (sys.dim,):
        raise DimensionError(f"state length {x.shape} != dim {sys.dim}")
    out = np.zeros(sys.dim, dtype=np.complex128)
    for k, t in enumerate(sys.tensors):
        if t is None:
            continue
        for row, cols, val in t.entries():
            term = val
            for c in cols:
                term = term * x[c]
            out[row] += term
    return out


def entry_plan(sys: PolySystem) -> list:
    """(degree, rows, (nnz, degree) column indices, values) per degree
    that has entries, the tensors' sorted arrays as they are."""
    return [(k, *t.sorted_arrays()) for k, t in enumerate(sys.tensors)
            if t is not None and t.nnz]


def vectorized_rhs(sys: PolySystem):
    """Vectorized right-hand side closure (t, x) -> sum_k F_k x^(tensor k).

    The package's one evaluator of a polynomial field; `eval_rhs` is its
    per-entry test oracle.
    """
    plan = entry_plan(sys)
    dim, dtype = sys.dim, sys.dtype

    def rhs(t, x):
        out = np.zeros(dim, dtype=np.result_type(x, dtype))
        for k, rows, col_idx, vals in plan:
            terms = vals.astype(out.dtype)
            for m in range(k):
                terms *= x[col_idx[:, m]]
            np.add.at(out, rows, terms)
        return out

    return rhs


def integrate_reference(sys: PolySystem, x0: np.ndarray, t_end: float,
                        tol: float, sample_times=None) -> Trajectory:
    """Adaptive embedded Runge-Kutta integration of the polynomial system.

    The library's polynomial flows run on `taylor_samples`; this DOP853 run
    is their independent oracle in the tests, as `eval_rhs` is the RHS's.
    Divergence (state norm above 1e9) is recorded on the trajectory, not
    raised; the samples past the divergence time are dropped.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x0 = as_values(x0, sys.dtype)
    if x0.shape != (sys.dim,):
        raise DimensionError("initial state has wrong length")
    return integrate_rhs(vectorized_rhs(sys), x0, t_end, tol, sample_times)


def integrate_rhs(rhs, x0: np.ndarray, t_end: float, tol: float,
                  sample_times=None, weights=None) -> Trajectory:
    """Shared adaptive integrator: DOP853 pair with mixed abs/rel control.

    Every run is `_dop853.WeightedDOP853`: component i counts as
    weights[i] equal components in the error estimate, the initial step
    and the divergence norm sqrt(sum_i w_i |x_i|^2), and without `weights`
    as one, which is scipy's DOP853 to the bit.  The samples are
    `sample_grid(t_end, sample_times)`, and a grid of t = 0 alone takes no
    step.  The solver module, and with it scipy.integrate, is imported on
    the first call.  The states are float64 for a real x0 (and rhs),
    complex128 for a complex one.
    """
    x0 = as_values(x0)
    times = sample_grid(t_end, sample_times)
    if times.size == 1:
        return Trajectory(times, x0[None, :])
    from . import _dop853
    sol = _dop853.solve(rhs, x0, t_end, tol, times, weights)
    diverged = sol.status == 1  # terminated by the norm event
    if sol.status == -1:
        if "step size" in sol.message.lower() or "required" in sol.message.lower():
            raise StepUnderflowError(sol.message)
        raise RuntimeError(sol.message)
    return Trajectory(sol.t, sol.y.T, diverged=diverged)


class _QuadraticTaylor:
    """Taylor expansions of dx/dt = F0 + F1 x + F2 (x (x) x), row by row.

    With the constant coordinate appended, z = (x, 1), every term is a
    product v z_j z_k: a linear entry (i, j) becomes (i, j, d) and a
    constant one (i, d, d).  The coefficients of z(t0 + s h) in powers of
    s then follow one Cauchy-product recurrence,
        a_{n+1}[i] = h / (n + 1) sum_{j <= k} S_n[j, k] T[(j, k), i],
        S_n = sum_{m <= n} a_m a_{n-m}^T,
    while the constant coordinate keeps the coefficients (1, 0, 0, ...).
    S_n is symmetric, so the system is one dense bilinear tensor T over
    the unordered pairs j <= k, shape ((d + 1)(d + 2) / 2, d): T[(j, k), i]
    is the sum of the values of row i's terms z_j z_k and z_k z_j.  Each
    order is one stacked product for S_n, one for the contraction of its
    upper triangle with T and one scale.  Both products are formed row by
    row at a shape that does not depend on the batch, so a row's bits do
    not depend on the other rows of its batch.  T and the coefficients
    are of the flow's dtype: float64 for a real system and real states,
    complex128 otherwise (`value_dtype`).
    """

    def __init__(self, sys: PolySystem, dtype):
        d = sys.dim
        # pair (j, k) is coded j (d + 1) + k, which sorts as the pairs do
        j, k = np.triu_indices(d + 1)
        self.pairs = j * (d + 1) + k
        self.T = np.zeros((self.pairs.size, d), dtype=dtype)
        for degree, rows, cols, vals in entry_plan(sys):
            if degree > 2:
                raise ValueError(f"the Taylor flow needs degree <= 2, the "
                                 f"system has {degree}")
            # factors padded with the constant coordinate, in sorted order
            j, k = np.sort(np.hstack(
                [cols, np.full((rows.size, 2 - degree), d)]), axis=1).T
            np.add.at(self.T, (np.searchsorted(self.pairs, j * (d + 1) + k),
                               rows), vals)

    def series(self, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Coefficients a_0..a_p of z(t0 + s h[r]) from each row x[r],
        shape (p + 1, c, d + 1)."""
        c, d = x.shape
        p = TAYLOR_ORDER
        coef = np.zeros((c, p + 1, d + 1), dtype=self.T.dtype)
        coef[:, 0, :d] = x
        coef[:, 0, d] = 1.0
        scale = (h / np.arange(1, p + 1)[:, None])[:, :, None]
        zt = coef.transpose(0, 2, 1)
        for n in range(p):
            cauchy = zt[:, :, :n + 1] @ coef[:, n::-1]
            upper = cauchy.reshape(c, 1, -1).take(self.pairs, axis=2)
            np.multiply((upper @ self.T)[:, 0], scale[n],
                        out=coef[:, n + 1, :d])
        return coef.transpose(1, 0, 2)

    def step(self, x: np.ndarray, guess: np.ndarray, room: np.ndarray):
        """(coefficients of x(t0 + s guess), shape (p + 1, c, d); each
        row's step, at most its room).

        The step is the largest h whose rescaled tail coefficients
        a_p (h / guess)^p and a_{p-1} (h / guess)^(p-1) each stay within
        TAYLOR_TAIL TAYLOR_TOL max(1, |x|) / 2 (Jorba & Zou 2005, section
        3), so the guess sets only the scale the coefficients are formed at.  A
        coefficient that overflows gives a step of 0 or, once the
        contraction with T meets the overflow, NaN; one that is NaN a NaN
        step.
        """
        p = TAYLOR_ORDER
        # contiguous, so that each dense-output operation on one order's
        # coefficients of x (z's last coordinate dropped) is one block
        coef = np.ascontiguousarray(self.series(x, guess)[:, :, :-1])
        # the norms of a_0 = x, a_{p-1} and a_p
        norm = np.linalg.norm(coef[[0, -2, -1]], axis=2)
        budget = 0.5 * TAYLOR_TAIL * TAYLOR_TOL * np.maximum(1.0, norm[0])
        grow = np.minimum((budget / norm[2]) ** (1.0 / p),
                          (budget / norm[1]) ** (1.0 / (p - 1)))
        return coef, np.minimum(guess * grow, room)


def taylor_samples(sys: PolySystem, X0: np.ndarray, t_end: float,
                   sample_times=None):
    """Flow of a polynomial system of degree <= 2 from each row of X0, as
    arrays.

    Each row steps on its own: one Taylor expansion of order TAYLOR_ORDER
    about the row's current time, a step picked from its last two
    coefficients at TAYLOR_TOL (`_QuadraticTaylor.step`), and one Horner
    pass over the coefficients at every sample inside the step and at its
    end, in units of the guess the expansion was formed at (Taylor's dense
    output, Jorba & Zou, Exp. Math. 14(1), 2005).  The first expansion is
    formed at a guess of the whole horizon, each later one at the row's
    previous step.  Rows keep their own times and steps, so a
    row's bits do not depend on its batch.  A step that no longer advances
    a row's time raises FloatingPointError when the row's expansion
    overflowed, else StepUnderflowError.  Divergence is a check on
    samples and step ends: a row ends before its first sample past
    DIVERGENCE_NORM and is marked diverged, as it is when a step end
    passes the norm, between samples or after the last one.

    Returns (times, states, kept, diverged): the n sample times of
    `sample_grid(t_end, sample_times)`, the (n, c, dim) states (float64
    for a real system and real X0, else complex128), how many
    leading samples each row keeps (the states after them are NaN) and
    whether it diverged.  A grid of t = 0 alone takes no step.
    """
    X0 = as_values(X0)
    if X0.ndim != 2 or X0.shape[1] != sys.dim:
        raise DimensionError("initial states must form a (c, dim) array")
    dtype = value_dtype(X0, sys.dtype)
    flow = _QuadraticTaylor(sys, dtype)
    c = X0.shape[0]
    times = sample_grid(t_end, sample_times)
    if times.size == 1:
        return (times, X0[None].astype(dtype), np.ones(c, dtype=np.int64),
                np.zeros(c, dtype=bool))
    n = times.size
    states = np.full((n, c, sys.dim), np.nan, dtype=dtype)
    states[0] = X0
    kept = np.full(c, n, dtype=np.int64)
    diverged = np.zeros(c, dtype=bool)
    # the rows still stepping: their time, first sample not yet reached,
    # state and step guess
    rows, t, nxt = np.arange(c), np.zeros(c), np.ones(c, dtype=np.int64)
    x, guess = X0, np.full(c, float(t_end))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while rows.size:
            room = t_end - t
            coef, h = flow.step(x, guess, room)
            end = t + h
            if not np.all(end > t):
                r = np.argmin(end > t)
                if not np.isfinite(coef[:, r]).all():
                    raise FloatingPointError(
                        f"Taylor flow: at t = {t[r]:.6g} the expansion's "
                        f"coefficients overflowed")
                raise StepUnderflowError(
                    f"Taylor flow: at t = {t[r]:.6g} a step of {h[r]:.3g} "
                    f"no longer advances the time at tol {TAYLOR_TOL:g}")
            done = h >= room
            end[done] = t_end
            upto = np.searchsorted(times, end, side="right")
            count = upto - nxt
            # Horner at each row's samples in (t, end], then at end itself,
            # on the float64 parts of the coefficients (real and imaginary
            # parts side by side for a complex flow), which s scales alike;
            # s is repeated to the parts' shape, since a broadcast s halves
            # the speed of numpy's loops over these short rows
            m = np.arange(count.max() + 1)[:, None]
            inner = m < count
            s = (np.where(inner, times[np.minimum(nxt + m, n - 1)], end)
                 - t) / guess
            parts = coef.view(np.float64)
            s = np.repeat(s[:, :, None], parts.shape[2], axis=2)
            y = parts[-1] * s
            y += parts[-2]
            for a in parts[-3::-1]:
                y *= s
                y += a
            outside = ~(np.square(y).sum(axis=2) <= DIVERGENCE_NORM ** 2)
            y = y.view(dtype)
            past = inner & outside
            cut = np.where(past.any(axis=0), past.argmax(axis=0), count)
            mi, ri = np.nonzero(m < cut)
            states[nxt[ri] + mi, rows[ri]] = y[mi, ri]
            stop = (cut < count) | outside[-1]
            kept[rows[stop]] = nxt[stop] + cut[stop]
            diverged[rows[stop]] = True
            go = ~(stop | done)
            rows, t, nxt = rows[go], end[go], upto[go]
            x, guess = y[-1, go], h[go]
    return times, states, kept, diverged


def sample_grid(t_end: float, sample_times=None) -> np.ndarray:
    """The samples of every flow, the uniform grid np.linspace(0, t_end, n):
    n = GRID_SAMPLES when no times are given, else the given times' count,
    and t = 0 alone when t_end is 0.  Raises ValueError unless t_end is
    finite and nonnegative and the given times are that grid, n >= 2 when
    t_end > 0, each sample within 1e-12 t_end of its place."""
    if not 0 <= t_end < np.inf:
        raise ValueError(f"t_end must be finite and nonnegative, got {t_end}")
    if sample_times is None:
        grid = np.linspace(0.0, t_end, GRID_SAMPLES)
    else:
        times = np.asarray(sample_times, dtype=float)
        grid = np.linspace(0.0, t_end, times.size)
        if times.ndim != 1 or times.size < 1 + (t_end > 0) or not np.max(
                np.abs(times - grid)) <= 1e-12 * t_end:
            raise ValueError("sample times must be the grid np.linspace(0, "
                             "t_end, n), n >= 2 when t_end > 0")
    # at t_end = 0 every sample is t = 0
    return grid if t_end > 0 else grid[:1]


def log_norm(M: np.ndarray) -> float:
    """Logarithmic norm: largest eigenvalue of the Hermitian part."""
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError("log_norm requires a square matrix")
    return float(np.linalg.eigvalsh((M + M.conj().T) / 2.0)[-1])


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value."""
    M = np.asarray(M, dtype=np.complex128)
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def kron_power(v: np.ndarray, k: int) -> np.ndarray:
    """k-fold Kronecker power of v, row-major multi-index order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    v = np.asarray(v, dtype=np.complex128)
    d = v.size
    if d**k > KRON_SIZE_LIMIT:
        raise OverflowGuardError(f"d^k = {d}^{k} exceeds size guard")
    out = v
    for _ in range(k - 1):
        out = np.kron(out, v)
    return out


class NonDissipativeError(ValueError):
    """The linear part is not strictly dissipative (log-norm >= 0)."""


def quadratic_r_number(F0, F1, F2: SparseTensor, z0) -> float:
    """Convergence number (|F2||z0| + |F0|/|z0|) / |mu(F1)| of a quadratic system.

    |F2| is the spectral norm of the d x d^2 flattening; mu is the log-norm.
    """
    z0 = np.asarray(z0, dtype=np.complex128)
    nz0 = float(np.linalg.norm(z0))
    if nz0 == 0:
        raise ValueError("initial state must be nonzero")
    mu = log_norm(np.asarray(F1, dtype=np.complex128))
    if mu >= 0:
        raise NonDissipativeError(f"log-norm of linear part is {mu} >= 0")
    nF0 = float(np.linalg.norm(np.asarray(F0, dtype=np.complex128))) \
        if F0 is not None else 0.0
    nF2 = spectral_norm(F2.dense_flat()) if F2 is not None else 0.0
    return (nF2 * nz0 + nF0 / nz0) / abs(mu)


def _formatted(column) -> list:
    """The CSV fields of one column: a float array's values with 17
    significant digits and an integer array's in decimal, each formatted in
    one pass; any other sequence value by value, strings as they are,
    integers in decimal and other numbers with 17 significant digits.  A
    complex value raises ValueError."""
    if isinstance(column, np.ndarray) and column.ndim == 1:
        if column.dtype.kind == "f":
            return list(map("{:.17g}".format,
                            column.astype(np.float64, copy=False).tolist()))
        if column.dtype.kind in "iu":
            return list(map(str, column.tolist()))
        if column.dtype.kind == "c":
            raise ValueError(f"refusing to write complex column of dtype "
                             f"{column.dtype} to CSV")

    def fmt(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (complex, np.complexfloating)):
            raise ValueError(f"refusing to write complex value {v!r} to CSV")
        return f"{float(v):.17g}"

    return [fmt(v) for v in column]


def write_csv(path, header, columns) -> None:
    """CSV of equal-length `columns` under `header`, one row per index, so
    that reruns write the same bytes: floats with 17 significant digits,
    integers in decimal and strings as they are (`_formatted`).  When every
    column is a 1-D float or integer array, each row is formatted by one
    `%` operation instead, to the same bytes.  Columns not one per header
    name, ragged columns and complex values are refused (ValueError)
    before the file is opened."""
    if len(columns) != len(header):
        raise ValueError(f"refusing to write {len(columns)} columns under "
                         f"{len(header)} header names to CSV")
    if len({len(column) for column in columns}) > 1:
        raise ValueError(f"refusing to write ragged columns of lengths "
                         f"{[len(column) for column in columns]} to CSV")
    kinds = [column.dtype.kind if isinstance(column, np.ndarray)
             and column.ndim == 1 else None for column in columns]
    if all(kind in ("f", "i", "u") for kind in kinds):
        # "%.17g" and "%d" give the fields `_formatted` gives, which the
        # csv writer never quotes
        row = ",".join("%.17g" if kind == "f" else "%d"
                       for kind in kinds) + "\r\n"
        lists = [column.astype(np.float64, copy=False).tolist()
                 if kind == "f" else column.tolist()
                 for column, kind in zip(columns, kinds)]
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(header)
            fh.writelines(row % values for values in zip(*lists))
        return
    fields = [_formatted(column) for column in columns]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*fields))
