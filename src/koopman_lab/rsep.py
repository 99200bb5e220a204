"""A parametric family of quadratic systems whose convergence number depends
strongly on coordinates.

The dynamics dx/dt = Fx + v - x(c^dag x + alpha) lifts to a linear flow of
(u, w) with x = u/w under H_x = [[F, v], [c^dag, alpha]].  The change of
variables eta = Ax/(b^dag x + 1) is the linear map P = [[A, 0], [b^dag, 1]]
on the lift, giving an eta-system of the same quadratic shape with
transformed coefficients.  The parameters are chosen so the eta variables
are eigenmodes of the unperturbed (delta = 0) flow, making the eta-side
convergence number 2/(beta+1) while the x-side number grows like
gamma*beta/delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .polyflow import (
    DimensionError,
    PolySystem,
    SparseTensor,
    quadratic_r_number,
    taylor_samples,
)

CLOSED_FORM_TOL = 1e-10
# The residuals compare flows at SAMPLES times np.linspace(0, t_end, SAMPLES);
# the x and eta flows are Taylor flows that pick each step so that its
# coefficient tail stays under `polyflow.TAYLOR_TAIL` `polyflow.TAYLOR_TOL`
# max(1, |z|).
SAMPLES = 65


class PoleError(RuntimeError):
    """The trajectory approached the pole b^dag x + 1 = 0."""


def haar_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-random unitary from the QR decomposition of a Ginibre matrix."""
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


@dataclass
class RsepParams:
    d: int
    beta: float
    gamma: float
    delta: float
    lambdas: np.ndarray = None   # middle eigenvalues, default 1 - 2*beta
    A: np.ndarray = None         # unitary, default identity

    def __post_init__(self):
        if self.d < 3:
            raise ValueError("d must be >= 3")
        if not self.beta > 1:
            raise ValueError("beta must exceed 1")
        if not self.gamma > self.beta:
            raise ValueError("gamma must exceed beta")
        if not 0 <= self.delta < 1:
            raise ValueError("delta must lie in [0, 1)")
        if self.lambdas is None:
            self.lambdas = np.full(self.d - 2, 1.0 - 2.0 * self.beta)
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        if self.lambdas.shape != (self.d - 2,):
            raise DimensionError("need d-2 middle eigenvalues")
        if np.any(self.lambdas > 1.0 - 2.0 * self.beta):
            raise ValueError("middle eigenvalues must be <= 1 - 2*beta")
        if self.A is None:
            self.A = np.eye(self.d, dtype=complex)
        self.A = np.asarray(self.A, dtype=complex)
        if self.A.shape != (self.d, self.d):
            raise DimensionError("A must be d x d")
        if np.max(np.abs(self.A.conj().T @ self.A - np.eye(self.d))) > 1e-12:
            raise ValueError("A must be unitary")

    def D(self) -> np.ndarray:
        return np.diag(np.concatenate(([1.0 - self.delta], self.lambdas,
                                       [1.0 - self.gamma]))).astype(complex)


@dataclass
class RsepSystems:
    """Both coordinate representations plus the lift-level transform."""

    params: RsepParams
    F: np.ndarray
    v: np.ndarray
    c: np.ndarray
    alpha: complex
    Ft: np.ndarray
    vt: np.ndarray
    ct: np.ndarray
    alphat: complex
    Hx: np.ndarray
    Heta: np.ndarray
    P: np.ndarray
    Pinv: np.ndarray
    b: np.ndarray
    closed_form_residual: float = field(default=0.0)


def _embed(F, v, c, alpha) -> np.ndarray:
    d = v.size
    H = np.zeros((d + 1, d + 1), dtype=complex)
    H[:d, :d] = F
    H[:d, d] = v
    H[d, :d] = c.conj()
    H[d, d] = alpha
    return H


def build_rsep(params: RsepParams) -> RsepSystems:
    d, beta, delta = params.d, params.beta, params.delta
    A = params.A
    Ainv = A.conj().T
    e1 = np.zeros(d, dtype=complex)
    e1[0] = 1.0
    ed = np.zeros(d, dtype=complex)
    ed[-1] = 1.0

    b = beta * (Ainv @ ed)
    F = Ainv @ params.D() @ A
    v = delta * (Ainv @ ed)
    c = -F.conj().T @ b + (b @ v.conj() + 1.0) * b + delta * (Ainv @ e1)
    alpha = 1.0 + 0.0j

    # transform formulas
    Ft = A @ (F - np.outer(v, b.conj())) @ Ainv
    vt = A @ v
    ct_dag = (b.conj() @ F + c.conj() - (b.conj() @ v + alpha) * b.conj()) \
        @ Ainv
    ct = ct_dag.conj()
    alphat = b.conj() @ v + alpha

    # closed forms, checked against the transform route
    Ft_cf = params.D() - beta * delta * np.outer(ed, ed.conj())
    resid = max(
        float(np.max(np.abs(Ft - Ft_cf))),
        float(np.max(np.abs(vt - delta * ed))),
        float(np.max(np.abs(ct - delta * e1))),
        float(abs(alphat - (1.0 + beta * delta))),
    )

    Hx = _embed(F, v, c, alpha)
    P = np.zeros((d + 1, d + 1), dtype=complex)
    P[:d, :d] = A
    P[d, :d] = b.conj()
    P[d, d] = 1.0
    Pinv = np.zeros_like(P)
    Pinv[:d, :d] = Ainv
    Pinv[d, :d] = -(b.conj() @ Ainv)
    Pinv[d, d] = 1.0
    Heta = P @ Hx @ Pinv
    resid = max(resid, float(np.max(np.abs(Heta - _embed(Ft, vt, ct,
                                                         alphat)))))
    if resid > CLOSED_FORM_TOL:
        raise ValueError(f"transform/closed-form residual {resid}")
    return RsepSystems(params, F, v, c, alpha, Ft, vt, ct, alphat,
                       Hx, Heta, P, Pinv, b, resid)


def quadratic_tensors(F, v, c, alpha):
    """(F0, F1, F2) of dz/dt = v + (F - alpha I) z - (I (x) c^dag) z^(x)2."""
    d = v.size
    F0 = np.asarray(v, dtype=complex)
    F1 = np.asarray(F, dtype=complex) - alpha * np.eye(d)
    c = np.asarray(c)
    k = np.flatnonzero(c)
    i = np.repeat(np.arange(d), k.size)
    F2 = SparseTensor.from_arrays(2, d, i, np.column_stack([i, np.tile(k, d)]),
                                  np.tile(-np.conj(c[k]), d))
    return F0, F1, F2


def quadratic_system(F, v, c, alpha) -> PolySystem:
    F0, F1, F2 = quadratic_tensors(F, v, c, alpha)
    d = F0.size
    t0 = SparseTensor.from_dense_flat(0, F0[:, None])  # F0's nonzeros
    t1 = SparseTensor.from_dense_flat(1, F1)
    return PolySystem(d, [t0, t1, F2])


def rsep_r_numbers(params: RsepParams):
    """(R_x, R_eta) at the canonical initial state x0 = A^dag e1, eta0 = e1."""
    systems = build_rsep(params)
    e1 = np.zeros(params.d, dtype=complex)
    e1[0] = 1.0
    z0_x = params.A.conj().T @ e1
    z0_eta = (params.A @ z0_x) / (systems.b.conj() @ z0_x + 1.0)

    R_x = quadratic_r_number(*quadratic_tensors(systems.F, systems.v,
                                                systems.c, systems.alpha),
                             z0_x)
    R_eta = quadratic_r_number(*quadratic_tensors(systems.Ft, systems.vt,
                                                  systems.ct, systems.alphat),
                               z0_eta)
    return R_x, R_eta


def r_x_lower_bound(params: RsepParams) -> float:
    return params.gamma * params.beta / params.delta + params.beta**2 + 1.0


def quadratic_flow(F, v, c, alpha, z0, t_end: float) -> np.ndarray:
    """z(t) of `quadratic_system(F, v, c, alpha)` from z0 at the SAMPLES
    times np.linspace(0, t_end, SAMPLES), one row per time.

    The flow is the batched Taylor flow at `polyflow.TAYLOR_TOL`; a
    trajectory that passes `polyflow.DIVERGENCE_NORM` has met the pole of
    the coordinate map.
    """
    _, z, _, diverged = taylor_samples(
        quadratic_system(F, v, c, alpha),
        np.asarray(z0, dtype=complex)[None, :], t_end,
        np.linspace(0.0, t_end, SAMPLES))
    if diverged[0]:
        raise PoleError("the quadratic flow diverged at a pole")
    return z[:, 0]


def _canonical_x_flow(params: RsepParams, t_end: float):
    """(systems, x(t)) from the canonical initial state x0 = A^dag e1."""
    systems = build_rsep(params)
    x0 = params.A.conj().T[:, 0]
    return systems, quadratic_flow(systems.F, systems.v, systems.c,
                                   systems.alpha, x0, t_end)


def equivalence_residual(params: RsepParams, t_end: float) -> float:
    """max_t || A x(t) / (b^dag x(t) + 1) - eta(t) || over the shared grid,
    with eta flowed from eta0 = A x0 = e1."""
    systems, x = _canonical_x_flow(params, t_end)
    eta = quadratic_flow(systems.Ft, systems.vt, systems.ct, systems.alphat,
                         np.eye(params.d)[0], t_end)
    denom = x @ systems.b.conj() + 1.0
    if np.min(np.abs(denom)) < 1e-6:
        raise PoleError("trajectory approached b^dag x + 1 = 0")
    eta_from_x = (x @ params.A.T) / denom[:, None]
    return float(np.max(np.linalg.norm(eta_from_x - eta, axis=1)))


def lifted_flow_residual(params: RsepParams, t_end: float) -> float:
    """max_t || u(t)/w(t) - x(t) || for the linear lift against the flow.

    The lift (u, w) = e^{H_x t} (x0, 1) takes one dense `expm` per time of
    the shared grid.
    """
    from scipy.linalg import expm

    systems, x = _canonical_x_flow(params, t_end)
    d = params.d
    lift = np.array([expm(systems.Hx * t) @ np.append(x[0], 1.0)
                     for t in np.linspace(0.0, t_end, SAMPLES)])
    w = lift[:, d]
    if np.min(np.abs(w)) < 1e-6:
        raise PoleError("lift denominator w approached zero")
    x_from_lift = lift[:, :d] / w[:, None]
    return float(np.max(np.linalg.norm(x_from_lift - x, axis=1)))


def sweep(param_list, t_end: float = 1.0):
    """Rows (beta, gamma, delta, d, bound, R_x, R_eta, residual) per draw."""
    rows = []
    for p in param_list:
        R_x, R_eta = rsep_r_numbers(p)
        rows.append((p.beta, p.gamma, p.delta, p.d, r_x_lower_bound(p),
                     R_x, R_eta, equivalence_residual(p, t_end)))
    return rows

