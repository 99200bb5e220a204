"""Polynomial vector fields, reference integration, the matrix norms used
by every other module, and the one CSV formatter of the command outputs.

A system dx/dt = sum_k F_k x^(tensor k) is stored as a list of sparse
coefficient tensors.  The degree-0 tensor is a plain vector (constant drive),
degree 1 a matrix, and degree k maps the k-fold Kronecker power of x back to
d components.

Systems of degree <= 2 flow by `taylor_flow`: each row takes one
expansion of order TAYLOR_ORDER per step, picks the step from the
expansion's last two coefficients, and one Horner pass over the
coefficients gives every sample inside the step (Taylor's step control and
dense output, Jorba & Zou, Exp. Math. 14(1), 2005).

`integrate_rhs` is the package's adaptive integrator, a DOP853 run.  Its
solver lives in `_dop853`, the one module that imports scipy.integrate,
and is imported on the first call: the polynomial flows (`taylor_flow`)
never load it, and linear flows given as a matrix are one `expm` in the
module that owns them.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

DIVERGENCE_NORM = 1e9
KRON_SIZE_LIMIT = 10**8
# Order of each Taylor expansion of `taylor_flow`, and the bound on the
# expansion's last two coefficients over a step, as a fraction of the
# flow's tolerance times max(1, |x|), that picks the step.  On criterion
# 04's 961-cell grid, against a long-double Taylor flow, the reference's
# largest error relative to max(1, |eta|) is 1.7e-13 at a bound of 1,
# 3.0e-15 at 0.02 and 9.0e-16, roundoff, at 0.005, which 0.002 does not
# lower.  At 0.005 a reference takes about 10 expansions per 128 sample
# intervals.
TAYLOR_ORDER = 20
TAYLOR_TAIL = 0.005


class DimensionError(ValueError):
    """Shape or dimension mismatch between operands."""


class OverflowGuardError(ValueError):
    """A requested tensor-power object would exceed the size guard."""


class StepUnderflowError(RuntimeError):
    """The adaptive integrator could not take a step at the requested tolerance."""


@dataclass
class SparseTensor:
    """Degree-k coefficient tensor held as (row, multi-index, value) entries.

    Entries are kept keyed by (row, multi-index); inserting a duplicate key
    sums the values.  Iteration order is lexicographic in the key, which makes
    serialization deterministic.
    """

    degree: int
    dim: int
    _entries: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.dim <= 0:
            raise ValueError("dim must be positive")

    def add(self, row: int, cols: tuple, value: complex) -> None:
        cols = tuple(int(c) for c in cols)
        if len(cols) != self.degree:
            raise DimensionError(
                f"multi-index length {len(cols)} != degree {self.degree}")
        if not 0 <= row < self.dim:
            raise DimensionError(f"row {row} out of range for dim {self.dim}")
        for c in cols:
            if not 0 <= c < self.dim:
                raise DimensionError(f"column {c} out of range for dim {self.dim}")
        key = (int(row), cols)
        self._entries[key] = self._entries.get(key, 0.0) + complex(value)

    def entries(self):
        """Sorted (row, cols, value) triples, zero-valued entries included."""
        for key in sorted(self._entries):
            yield key[0], key[1], self._entries[key]

    @property
    def nnz(self) -> int:
        return len(self._entries)

    def col_flat(self, cols: tuple) -> int:
        """Row-major flattening of a multi-index (first index most significant)."""
        idx = 0
        for c in cols:
            idx = idx * self.dim + c
        return idx

    def arrays(self):
        """Entry data as (rows, flat_cols, values) numpy arrays."""
        keys = sorted(self._entries)
        rows = np.array([k[0] for k in keys], dtype=np.int64)
        cols = np.array([self.col_flat(k[1]) for k in keys], dtype=np.int64)
        vals = np.array([self._entries[k] for k in keys], dtype=np.complex128)
        return rows, cols, vals

    def dense_flat(self) -> np.ndarray:
        """Dense (d, d^k) flattening of the tensor."""
        ncols = self.dim**self.degree
        if self.dim * ncols > KRON_SIZE_LIMIT:
            raise OverflowGuardError("dense flattening exceeds size guard")
        out = np.zeros((self.dim, ncols), dtype=np.complex128)
        for row, cols, val in self.entries():
            out[row, self.col_flat(cols)] += val
        return out

    @classmethod
    def from_dense_flat(cls, degree: int, mat: np.ndarray) -> "SparseTensor":
        mat = np.asarray(mat, dtype=np.complex128)
        d = mat.shape[0]
        if mat.shape[1] != d**degree:
            raise DimensionError("flattened shape inconsistent with degree")
        t = cls(degree, d)
        for row in range(d):
            for flat in np.nonzero(mat[row])[0]:
                cols = []
                rem = int(flat)
                for _ in range(degree):
                    cols.append(rem % d)
                    rem //= d
                t.add(row, tuple(reversed(cols)), mat[row, flat])
        return t


@dataclass
class PolySystem:
    """dx/dt = sum_k F_k x^(tensor k), tensors indexed by degree 0..N."""

    dim: int
    tensors: list  # SparseTensor per degree; index = degree

    def __post_init__(self):
        for k, t in enumerate(self.tensors):
            if t is None:
                continue
            if t.dim != self.dim or t.degree != k:
                raise DimensionError(
                    f"tensor at slot {k} has degree {t.degree}, dim {t.dim}")

    @property
    def max_degree(self) -> int:
        return len(self.tensors) - 1

    def tensor(self, degree: int):
        if degree < len(self.tensors):
            return self.tensors[degree]
        return None

    def has_constant_term(self) -> bool:
        t0 = self.tensor(0)
        return t0 is not None and any(abs(v) > 0 for _, _, v in t0.entries())


@dataclass
class Trajectory:
    """Sampled solution with divergence bookkeeping."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), dim), complex
    diverged: bool = False
    cause: str = ""  # why a diverged trajectory ended, where it is known

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=np.complex128)
        if self.times.ndim != 1 or self.states.shape[0] != self.times.size:
            raise DimensionError("times/states length mismatch")
        if self.times.size > 1 and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

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
    that has entries."""
    plan = []
    for k, t in enumerate(sys.tensors):
        if t is None or t.nnz == 0:
            continue
        rows, _, vals = t.arrays()
        col_idx = np.array([list(c) for _, c, _ in t.entries()],
                           dtype=np.int64).reshape(t.nnz, k)
        plan.append((k, rows, col_idx, vals))
    return plan


def vectorized_rhs(sys: PolySystem):
    """Vectorized right-hand side closure (t, x) -> sum_k F_k x^(tensor k).

    The package's one evaluator of a polynomial field; `eval_rhs` is its
    per-entry test oracle.
    """
    plan = entry_plan(sys)
    dim = sys.dim

    def rhs(t, x):
        out = np.zeros(dim, dtype=np.complex128)
        for k, rows, col_idx, vals in plan:
            terms = vals.copy()
            for m in range(k):
                terms *= x[col_idx[:, m]]
            np.add.at(out, rows, terms)
        return out

    return rhs


def integrate_reference(sys: PolySystem, x0: np.ndarray, t_end: float,
                        tol: float, sample_times=None) -> Trajectory:
    """Adaptive embedded Runge-Kutta integration of the polynomial system.

    The library's polynomial flows run on `taylor_flow`; this DOP853 run is
    their independent oracle in the tests, as `eval_rhs` is the RHS's.
    Divergence (state norm above 1e9) is recorded on the trajectory, not
    raised; the samples past the divergence time are dropped.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    x0 = np.asarray(x0, dtype=np.complex128)
    if x0.shape != (sys.dim,):
        raise DimensionError("initial state has wrong length")
    return integrate_rhs(vectorized_rhs(sys), x0, t_end, tol, sample_times)


def integrate_rhs(rhs, x0: np.ndarray, t_end: float, tol: float,
                  sample_times=None, weights=None) -> Trajectory:
    """Shared adaptive integrator: DOP853 pair with mixed abs/rel control.

    With `weights`, component i counts as weights[i] equal components in
    the error estimate (`_dop853.WeightedDOP853`), the initial step and
    the divergence norm sqrt(sum_i w_i |x_i|^2); without, every component
    counts once.  The solver module, and with it scipy.integrate, is
    imported on the first call.
    """
    x0 = np.asarray(x0, dtype=np.complex128)
    if t_end == 0:
        return Trajectory(np.array([0.0]), x0[None, :])
    if sample_times is None:
        sample_times = np.linspace(0.0, t_end, 129)
    sample_times = np.asarray(sample_times, dtype=float)
    from . import _dop853
    sol = _dop853.solve(rhs, x0, t_end, tol, sample_times, weights)
    diverged = sol.status == 1  # terminated by the norm event
    if sol.status == -1:
        if "step size" in sol.message.lower() or "required" in sol.message.lower():
            raise StepUnderflowError(sol.message)
        raise RuntimeError(sol.message)
    times = sol.t
    states = sol.y.T
    if times.size == 0 or times[0] != 0.0:
        times = np.concatenate(([0.0], times))
        states = np.vstack([x0, states])
    return Trajectory(times, states, diverged=diverged)


class _QuadraticTaylor:
    """Taylor expansions of dx/dt = F0 + F1 x + F2 (x (x) x), row by row.

    With the constant coordinate appended, z = (x, 1), every term is a
    product v_e z_j z_k: a linear entry (i, j) becomes (i, j, d) and a
    constant one (i, d, d).  The coefficients of z(t0 + s h) in powers of s
    then follow one Cauchy-product recurrence,
        a_{n+1}[i] = h / (n + 1) sum_{e in row i} v_e
                     sum_{m <= n} a_m[j_e] a_{n-m}[k_e],
    while the constant coordinate keeps the coefficients (1, 0, 0, ...).
    Every operation acts on each row alone, so a row's bits do not depend
    on the other rows of its batch.
    """

    def __init__(self, sys: PolySystem, order: int, tol: float):
        d = sys.dim
        # one zero entry per row, so that each row owns a segment of terms
        rows, pairs, vals = [np.arange(d)], [np.full((d, 2), d)], [np.zeros(d)]
        for k, r, cols, v in entry_plan(sys):
            if k > 2:
                raise ValueError(
                    f"the Taylor flow needs degree <= 2, the system has {k}")
            rows.append(r)
            pairs.append(np.hstack([cols, np.full((r.size, 2 - k), d)]))
            vals.append(v)
        rows = np.concatenate(rows)
        by_row = np.argsort(rows, kind="stable")
        # each distinct factor pair's Cauchy sum is formed once per order
        uniq, pair_of = np.unique(np.vstack(pairs)[by_row], axis=0,
                                  return_inverse=True)
        self.pair_of = pair_of.reshape(-1)
        self.jk = np.concatenate([uniq[:, 0], uniq[:, 1]])
        self.vals = np.concatenate(vals).astype(np.complex128)[by_row]
        self.starts = np.flatnonzero(np.diff(rows[by_row], prepend=-1))
        self.dim, self.order, self.tol = d, order, tol

    def series(self, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Coefficients a_0..a_p of z(t0 + s h[r]) from each row x[r],
        shape (p + 1, c, d + 1)."""
        c, d = x.shape
        p, npair = self.order, self.jk.size // 2
        coef = np.zeros((p + 1, c, d + 1), dtype=np.complex128)
        coef[0, :, :d] = x
        coef[0, :, d] = 1.0
        # per order, z_j of every factor pair, then z_k of every pair
        zjk = np.empty((p + 1, c, 2 * npair), dtype=np.complex128)
        coef[0].take(self.jk, axis=1, out=zjk[0])
        scaled = self.vals * (h / np.arange(1, p + 1)[:, None])[:, :, None]
        for n in range(p):
            cauchy = np.add.reduce(
                zjk[:n + 1, :, :npair] * zjk[n::-1, :, npair:], axis=0)
            terms = cauchy.take(self.pair_of, axis=1)
            terms *= scaled[n]
            np.add.reduceat(terms, self.starts, axis=1,
                            out=coef[n + 1, :, :d])
            coef[n + 1].take(self.jk, axis=1, out=zjk[n + 1])
        return coef

    def step(self, x: np.ndarray, guess: np.ndarray, room: np.ndarray):
        """(coefficients of x(t0 + s guess), shape (p + 1, c, d); each
        row's step, at most its room).

        The step is the largest h whose rescaled tail coefficients
        a_p (h / guess)^p and a_{p-1} (h / guess)^(p-1) each stay within
        TAYLOR_TAIL tol max(1, |x|) / 2 (Jorba & Zou 2005, section 3), so
        the guess sets only the scale the coefficients are formed at.  A
        coefficient that overflows gives a step of 0, one that is NaN a
        NaN step.
        """
        p = self.order
        coef = self.series(x, guess)[:, :, :self.dim]
        budget = 0.5 * TAYLOR_TAIL * self.tol * np.maximum(
            1.0, np.linalg.norm(x, axis=1))
        grow = np.minimum(
            (budget / np.linalg.norm(coef[-1], axis=1)) ** (1.0 / p),
            (budget / np.linalg.norm(coef[-2], axis=1)) ** (1.0 / (p - 1)))
        return coef, np.minimum(guess * grow, room)


def taylor_samples(sys: PolySystem, X0: np.ndarray, t_end: float,
                   tol: float, sample_times=None):
    """Flow of a polynomial system of degree <= 2 from each row of X0, as
    arrays.

    Each row steps on its own: one Taylor expansion of order TAYLOR_ORDER
    about the row's current time, a step picked from its last two
    coefficients (`_QuadraticTaylor.step`), and one Horner pass over the
    coefficients at every sample inside the step and at its end, in units
    of the guess the expansion was formed at (Taylor's dense output, Jorba
    & Zou, Exp. Math. 14(1), 2005).  The first
    expansion is formed at a guess of the whole horizon, each later one at
    the row's previous step.  Rows keep their own times and steps, so a
    row's bits do not depend on its batch.  A step that no longer advances
    a row's time raises StepUnderflowError.  Divergence is a check on
    samples and step ends: a row ends before its first sample past
    DIVERGENCE_NORM and is marked diverged, as it is when a step end
    passes the norm, between samples or after the last one.

    Returns (times, states, kept, diverged): the n sample times (t = 0
    prepended when the grid does not start there), the (n, c, dim) states,
    how many leading samples each row keeps (the states after them are
    NaN) and whether it diverged.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    X0 = np.asarray(X0, dtype=np.complex128)
    if X0.ndim != 2 or X0.shape[1] != sys.dim:
        raise DimensionError("initial states must form a (c, dim) array")
    flow = _QuadraticTaylor(sys, TAYLOR_ORDER, tol)
    c = X0.shape[0]
    if t_end == 0:
        return (np.array([0.0]), X0[None].copy(), np.ones(c, dtype=np.int64),
                np.zeros(c, dtype=bool))
    if sample_times is None:
        sample_times = np.linspace(0.0, t_end, 129)
    times = np.asarray(sample_times, dtype=float)
    if times.size == 0 or times[0] != 0.0:
        times = np.concatenate(([0.0], times))
    if np.any(np.diff(times) <= 0) or times[-1] > t_end:
        raise ValueError("sample times must increase within [0, t_end]")
    n = times.size
    states = np.full((n, c, sys.dim), np.nan, dtype=np.complex128)
    states[0] = X0
    kept = np.full(c, n, dtype=np.int64)
    diverged = np.zeros(c, dtype=bool)
    # the rows still stepping: their time, first sample not yet reached,
    # state and step guess
    rows, t, nxt = np.arange(c), np.zeros(c), np.ones(c, dtype=np.int64)
    x, guess = X0, np.full(c, float(t_end))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while rows.size:
            coef, h = flow.step(x, guess, t_end - t)
            end = t + h
            if not np.all(end > t):
                r = np.argmin(end > t)
                raise StepUnderflowError(
                    f"Taylor flow: at t = {t[r]:.6g} a step of {h[r]:.3g} "
                    f"no longer advances the time at tol {tol:g}")
            done = h >= t_end - t
            end[done] = t_end
            upto = np.searchsorted(times, end, side="right")
            count = upto - nxt
            # Horner at each row's samples in (t, end], then at end itself,
            # on the real and imaginary parts, which s scales alike
            m = np.arange(count.max() + 1)[:, None]
            inner = m < count
            s = (np.where(inner, times[np.minimum(nxt + m, n - 1)], end)
                 - t) / guess
            s = np.repeat(s[:, :, None], 2 * sys.dim, axis=2)
            parts = coef.view(np.float64)
            y = np.repeat(parts[-1][None], m.size, axis=0)
            for a in parts[-2::-1]:
                y *= s
                y += a
            y = y.view(np.complex128)
            outside = ~(np.linalg.norm(y, axis=2) <= DIVERGENCE_NORM)
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


def taylor_flow(sys: PolySystem, X0: np.ndarray, t_end: float, tol: float,
                sample_times=None) -> list:
    """One Trajectory per row of the (c, dim) array X0, from
    `taylor_samples`: its kept samples and whether it diverged."""
    times, states, kept, diverged = taylor_samples(sys, X0, t_end, tol,
                                                   sample_times)
    return [Trajectory(times[:k], states[:k, r], diverged=bool(cut))
            for r, (k, cut) in enumerate(zip(kept.tolist(),
                                             diverged.tolist()))]


def uniform_spacing(sample_times, t_end: float):
    """Spacing h of the grid np.linspace(0, t_end, n), or None for other grids.

    The samples form that grid when n >= 2, t_end > 0 and every sample lies
    within 1e-12 t_end of s h, h = t_end / (n - 1).  The exact linear-flow
    propagators build one step for such a grid.
    """
    times = np.asarray(sample_times, dtype=float)
    n = times.size
    if n < 2 or not t_end > 0:
        return None
    h = t_end / (n - 1)
    if not np.max(np.abs(times - h * np.arange(n))) <= 1e-12 * t_end:
        return None
    return h


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


def frobenius_norm(M: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(M)))


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


# ---------------------------------------------------------------------------
# serialization

def system_to_json(sys: PolySystem) -> str:
    tensors = []
    for k, t in enumerate(sys.tensors):
        if t is None:
            continue
        tensors.append({
            "degree": k,
            "entries": [[row, list(cols), val.real, val.imag]
                        for row, cols, val in t.entries()],
        })
    return json.dumps({"dim": sys.dim, "tensors": tensors})


def system_from_json(text: str) -> PolySystem:
    data = json.loads(text)
    dim = int(data["dim"])
    max_deg = max((int(t["degree"]) for t in data["tensors"]), default=0)
    tensors = [SparseTensor(k, dim) for k in range(max_deg + 1)]
    for tdata in data["tensors"]:
        k = int(tdata["degree"])
        for row, cols, re, im in tdata["entries"]:
            tensors[k].add(int(row), tuple(cols), complex(re, im))
    return PolySystem(dim, tensors)


def write_csv(path, header, rows) -> None:
    """CSV of strings as they are, integers in decimal and other numbers
    with 17 significant digits, so that reruns write the same bytes.  A
    complex value is refused (ValueError) before the file is opened."""
    def fmt(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (complex, np.complexfloating)):
            raise ValueError(f"refusing to write complex value {v!r} to CSV")
        return f"{float(v):.17g}"

    lines = [[fmt(v) for v in row] for row in rows]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(lines)
