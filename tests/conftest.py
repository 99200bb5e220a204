"""Oracles and probes shared between test modules, handed out as
fixtures."""

import numpy as np
import pytest
from scipy.linalg import expm

from koopman_lab.carleman import carleman_dimension
from koopman_lab.fermion import assemble, master_equation
from koopman_lab import polyflow
from koopman_lab.polyflow import integrate_rhs


def _dense_lift_oracle(F_list, d, order):
    """Independent dense construction: C[i, i+j-1] = position sums of F_j."""
    total = carleman_dimension(d, order)
    C = np.zeros((total, total), dtype=complex)
    offsets = np.cumsum([0] + [d**k for k in range(1, order)])
    for i in range(1, order + 1):
        for deg, F in F_list:
            src = i + deg - 1
            if src > order:
                continue
            block = np.zeros((d**i, d**src), dtype=complex)
            for pos in range(1, i + 1):
                block += np.kron(np.kron(np.eye(d**(pos - 1)), F),
                                 np.eye(d**(i - pos)))
            r0, c0 = offsets[i - 1], offsets[src - 1]
            C[r0:r0 + d**i, c0:c0 + d**src] += block
    return C


@pytest.fixture
def dense_lift_oracle():
    return _dense_lift_oracle


def _kronecker_generator(B):
    """kron(B, I) + kron(I, B): the covariance generator acting on the
    row-major vec of Gamma."""
    eye = np.eye(B.shape[0])
    return np.kron(B, eye) + np.kron(eye, B)


def _covariance_oracle(sys, gamma0, t_end, sample_times, kronecker=False):
    """Gamma(t) of dGamma/dt = B Gamma + Gamma B^T + Y at the sample times,
    np.linspace(0, t_end, n); returns (times, Gammas).

    The matrix form integrates the right-hand side, evaluated directly, by
    DOP853 at tol 1e-13, one sample interval at a time, each run started
    from the previous sample and ending on the next.  One run over all the
    samples reads them off DOP853's dense output, which strayed from the
    exact form by 1.0e-8 on a stiff draw (`STIFF_FLOWS` in
    tests/test_fermion.py); run interval by interval, it stays within
    6.2e-13 of the exact form over 300 random draws (2.8e-11 at tol
    1e-12).  The Kronecker form is exact: each sample is
    expm(A t) (vec Gamma0, 1) of the augmented vectorized generator
    A = [[B (x) I + I (x) B, vec Y], [0, 0]], taken from t = 0.
    """
    n2 = 2 * sys.N
    g0 = np.asarray(gamma0, dtype=float).reshape(-1)
    times = np.asarray(sample_times, dtype=float)
    if not kronecker:
        def rhs(t, g):
            G = g.reshape(n2, n2)
            return (sys.B @ G + G @ sys.B.T + sys.Y).reshape(-1)

        states = [g0.astype(complex)]
        for h in np.diff(times):
            states.append(integrate_rhs(rhs, states[-1], h, 1e-13,
                                        [0.0, h]).final)
        return times, [g.real.reshape(n2, n2) for g in states]
    A = np.zeros((n2 * n2 + 1,) * 2)
    A[:-1, :-1] = _kronecker_generator(sys.B)
    A[:-1, -1] = sys.Y.reshape(-1)
    start = np.append(g0, 1.0)
    return times, [(expm(A * t) @ start)[:-1].reshape(n2, n2) for t in times]


def _kronecker_steady_state(sys):
    """Dense solve of the vectorized Lyapunov equation, kron-sum g = -vec Y."""
    n2 = 2 * sys.N
    g = np.linalg.solve(_kronecker_generator(sys.B), -sys.Y.reshape(-1))
    return g.reshape(n2, n2)


@pytest.fixture
def covariance_oracle():
    return _covariance_oracle


@pytest.fixture
def kronecker_steady_state():
    return _kronecker_steady_state


def _dop853_density(h, jumps, rho0, t_end):
    """rho(t_end) of the master equation integrated by DOP853 at tol 1e-12,
    the right-hand side evaluated as matrix products on rho."""
    sys = assemble(h, jumps)
    H, Ls = master_equation(sys)
    dim = H.shape[0]

    def rhs(t, flat):
        rho = flat.reshape(dim, dim)
        out = -1j * (H @ rho - rho @ H)
        for L in Ls:
            ldl = L.conj().T @ L
            out += L @ rho @ L.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
        return out.reshape(-1)

    traj = integrate_rhs(rhs, np.asarray(rho0, dtype=complex).reshape(-1),
                         t_end, 1e-12, sample_times=[0.0, t_end])
    return traj.final.reshape(dim, dim)


@pytest.fixture
def dop853_density():
    return _dop853_density


class _PerEntryTensors:
    """Per-entry builders of the population model's tensors, the oracles of
    the array builders: entries are summed one at a time into dicts keyed
    by (degree, row, multi-index), starting from 0.0, in the order of the
    model's sums.  `tensors` returns each degree's sorted (row, cols,
    value) triples."""

    @staticmethod
    def _add(out, degree, row, cols, value):
        key = (degree, row, tuple(cols))
        out[key] = out.get(key, 0.0) + complex(value)

    @staticmethod
    def tensors(out):
        by_degree = {}
        for (k, row, cols), val in sorted(out.items()):
            by_degree.setdefault(k, []).append((row, cols, val))
        return by_degree

    @classmethod
    def vacancy(cls, model, order):
        out = {}
        for i in range(model.dim):
            cls._add(out, 1, i, (i,), -model.r[i])
            if order >= 2:
                cls._add(out, 2, i, (i, i), model.r[i])
        for i, (j, k), val in model.J.entries():
            coeff = model.X[i] * val
            for m in range(1, order):
                for n in range(1, order - m + 1):
                    cols = (j, k) + (j,) * (m - 1) + (k,) * (n - 1)
                    cls._add(out, m + n, i, cols, coeff)
                    if m + n + 1 <= order:
                        cls._add(out, m + n + 1, i, (j, k, i) + cols[2:],
                                 -2 * coeff)
                    if m + n + 2 <= order:
                        cls._add(out, m + n + 2, i, (j, k, i, i) + cols[2:],
                                 coeff)
        return cls.tensors(out)

    @classmethod
    def mode(cls, model):
        out = {}
        G1 = np.diag(-model.r).astype(complex)
        for i in range(model.dim):
            for j in np.nonzero(G1[i])[0]:
                cls._add(out, 1, i, (int(j),), G1[i, j])
        for i, (j, k), val in model.J.entries():
            cls._add(out, 2, i, (j, k), model.X[i] * val)
        return cls.tensors(out)

    @classmethod
    def dense_flat(cls, degree, mat):
        mat = np.asarray(mat, dtype=np.complex128)
        d = mat.shape[0]
        out = {}
        for row in range(d):
            for flat in np.nonzero(mat[row])[0]:
                cols, rem = [], int(flat)
                for _ in range(degree):
                    cols.append(rem % d)
                    rem //= d
                cls._add(out, degree, row, tuple(reversed(cols)),
                         mat[row, flat])
        return cls.tensors(out).get(degree, [])


@pytest.fixture(scope="session")
def per_entry_tensors():
    return _PerEntryTensors


@pytest.fixture
def taylor_expansions(monkeypatch):
    """The (states, step guesses) of every Taylor expansion
    `taylor_samples` takes, one row per row of its batch."""
    expansions = []
    series = polyflow._QuadraticTaylor.series

    def counted(self, x, h):
        expansions.append((x.copy(), np.array(h, copy=True)))
        return series(self, x, h)

    monkeypatch.setattr(polyflow._QuadraticTaylor, "series", counted)
    return expansions


def _fermion_system_dict(sys):
    """A fermion system in the config form `fermion.system_from_dict`
    reads: h's upper-triangle nonzeros and each jump's [re, im] pairs."""
    entries = [[i, j, sys.h[i, j]]
               for i in range(2 * sys.N) for j in range(i + 1, 2 * sys.N)
               if sys.h[i, j] != 0.0]
    jumps = [[[v.real, v.imag] for v in l] for l in sys.jumps]
    return {"N": sys.N, "h": entries, "jumps": jumps}


@pytest.fixture(scope="session")
def fermion_system_dict():
    return _fermion_system_dict


def _population_model_dict(model):
    """A population model in the config form `nip.model_from_dict`
    reads."""
    return {"r": list(model.r), "X": list(model.X),
            "J": [[i, j, k, val.real]
                  for i, (j, k), val in model.J.entries()]}


@pytest.fixture(scope="session")
def population_model_dict():
    return _population_model_dict
