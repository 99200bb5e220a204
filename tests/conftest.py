"""Oracles and probes shared between test modules, handed out as
fixtures."""

import numpy as np
import pytest

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


def _dop853_covariance(sys, gamma0, t_end, sample_times, kronecker=False):
    """DOP853 integration of dGamma/dt = B Gamma + Gamma B^T + Y at tol 1e-12.

    The matrix form evaluates the right-hand side directly; the Kronecker
    form applies the dense vectorized generator.  Returns (times, Gammas).
    """
    n2 = 2 * sys.N
    if kronecker:
        BB = _kronecker_generator(sys.B)
        vy = sys.Y.reshape(-1)

        def rhs(t, g):
            return BB @ g + vy
    else:
        def rhs(t, g):
            G = g.reshape(n2, n2)
            return (sys.B @ G + G @ sys.B.T + sys.Y).reshape(-1)

    traj = integrate_rhs(rhs, np.asarray(gamma0, dtype=complex).reshape(-1),
                         t_end, 1e-12, sample_times)
    return traj.times, [row.real.reshape(n2, n2) for row in traj.states]


def _kronecker_steady_state(sys):
    """Dense solve of the vectorized Lyapunov equation, kron-sum g = -vec Y."""
    n2 = 2 * sys.N
    g = np.linalg.solve(_kronecker_generator(sys.B), -sys.Y.reshape(-1))
    return g.reshape(n2, n2)


@pytest.fixture
def dop853_covariance():
    return _dop853_covariance


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
                         t_end, 1e-12, sample_times=[t_end])
    return traj.final.reshape(dim, dim)


@pytest.fixture
def dop853_density():
    return _dop853_density


@pytest.fixture
def taylor_expansions(monkeypatch):
    """The (states, step guesses) of every Taylor expansion `taylor_flow`
    takes, one row per row of its batch."""
    expansions = []
    series = polyflow._QuadraticTaylor.series

    def counted(self, x, h):
        expansions.append((x.copy(), np.array(h, copy=True)))
        return series(self, x, h)

    monkeypatch.setattr(polyflow._QuadraticTaylor, "series", counted)
    return expansions
