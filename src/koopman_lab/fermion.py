"""Open free-fermion dynamics at the covariance-matrix level.

A system of N modes is specified by a real antisymmetric 2N x 2N matrix h
(Hamiltonian coefficients) and complex length-2N jump vectors l_mu.  The
covariance matrix Gamma obeys the driven linear equation

    dGamma/dt = B Gamma + Gamma B^T + Y,   B = h - X,

with X = 2 sum_mu Re(l_mu^dag l_mu) and Y = -4 sum_mu Im(l_mu^dag l_mu).
The flow is linear, so it is propagated exactly: over an interval h,

    Gamma(t + h) = Phi Gamma(t) Phi^T + Q,   Phi = e^{B h},
    Q = int_0^h e^{B s} Y e^{B^T s} ds,

with (Phi, Q) read off one block exponential (Van Loan 1978).  The samples
of a flow are the rows of one read-only array, and a `CovarianceState` of
one is built only when asked for (`CovarianceSamples`).  The steady
state solves the Lyapunov equation B Gamma + Gamma B^T = -Y by
Bartels-Stewart.  An exact small-N density-matrix oracle built from
Jordan-Wigner Majorana operators validates the derivation; its master
equation is linear too, and rho(t) is one matrix exponential of its
Liouvillian applied to rho(0).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import expm, schur, solve_continuous_lyapunov

from .polyflow import DimensionError, sample_grid

ANTISYM_TOL = 1e-12
ORACLE_MAX_N = 4
# steady_state requires |lambda_i + lambda_j| > GAP_TOL * max(1, |lambda|max)
# over the eigenvalues of B; otherwise the Lyapunov operator is singular.
GAP_TOL = 1e-10


class SecularError(ValueError):
    """[h, X] != 0: decay rates are not well defined mode-pair sums."""


class GaplessError(ValueError):
    """The dissipative part has a zero mode; no unique steady state."""


@dataclass
class FermionSystem:
    """(h, {l_mu}) with the derived dissipation matrices."""

    N: int
    h: np.ndarray
    jumps: list
    X: np.ndarray = field(init=False)
    Y: np.ndarray = field(init=False)
    B: np.ndarray = field(init=False)

    def __post_init__(self):
        n2 = 2 * self.N
        self.h = np.asarray(self.h, dtype=float)
        if self.h.shape != (n2, n2):
            raise DimensionError("h must be 2N x 2N")
        if np.max(np.abs(self.h + self.h.T)) > ANTISYM_TOL:
            raise ValueError("h must be antisymmetric")
        self.jumps = [np.asarray(l, dtype=complex).reshape(n2)
                      for l in self.jumps]
        X = np.zeros((n2, n2))
        Y = np.zeros((n2, n2))
        with np.errstate(over="ignore", invalid="ignore"):
            for l in self.jumps:
                outer = np.outer(l.conj(), l)
                X += 2.0 * outer.real
                Y += -4.0 * outer.imag
        if not (np.isfinite(self.h).all() and np.isfinite(X).all()
                and np.isfinite(Y).all()):
            raise ValueError("h and the jumps' products l_i* l_j must be "
                             "finite")
        self.X, self.Y, self.B = X, Y, self.h - X


def assemble(h, jumps) -> FermionSystem:
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] % 2:
        raise DimensionError("h must be square with even size")
    return FermionSystem(h.shape[0] // 2, h, list(jumps))


@dataclass
class CovarianceState:
    """Real antisymmetric second-moment matrix."""

    Gamma: np.ndarray

    def __post_init__(self):
        self.Gamma = np.asarray(self.Gamma, dtype=float)
        n = self.Gamma.shape[0]
        if self.Gamma.shape != (n, n) or n % 2:
            raise DimensionError("Gamma must be square with even size")
        if np.max(np.abs(self.Gamma + self.Gamma.T)) > 1e-10:
            raise ValueError("Gamma must be antisymmetric")

    def is_physical(self, tol: float = 1e-8) -> bool:
        """Eigenvalues of i*Gamma within [-1, 1] (opt-in check)."""
        eigs = np.linalg.eigvalsh(1j * self.Gamma)
        return bool(np.all(np.abs(eigs) <= 1.0 + tol))


def random_antisymmetric(n2: int, rng) -> np.ndarray:
    M = rng.normal(size=(n2, n2))
    return (M - M.T) / 2.0


def covariance_step(sys: FermionSystem, h: float):
    """(Phi, Q) of one interval h: Gamma(t + h) = Phi Gamma(t) Phi^T + Q.

    expm([[-B, Y], [0, B^T]] h) has lower-right block Phi^T and upper-right
    block e^{-B h} Q (Van Loan 1978).  That block grows like e^{|X| h}, and Q
    loses digits with it, so the exponential is taken over h / 2^m with
    |X|_2 h / 2^m <= 1 and the step is then doubled m times:
    Q <- Phi Q Phi^T + Q, Phi <- Phi^2.
    """
    n2 = 2 * sys.N
    growth = np.linalg.norm(sys.X, 2) * h
    m = int(np.ceil(np.log2(growth))) if growth > 1.0 else 0
    hs = h / 2**m
    M = np.zeros((2 * n2, 2 * n2))
    M[:n2, :n2] = -sys.B * hs
    M[:n2, n2:] = sys.Y * hs
    M[n2:, n2:] = sys.B.T * hs
    E = expm(M)
    phi = E[n2:, n2:].T
    Q = phi @ E[:n2, n2:]
    for _ in range(m):
        Q = phi @ Q @ phi.T + Q
        phi = phi @ phi
    return phi, Q


class CovarianceSamples(Sequence):
    """The samples of a covariance flow, read-only.  They are kept as one
    (n, 2N, 2N) float64 array `stack`; item k is CovarianceState(stack[k]),
    a view built only when asked for."""

    def __init__(self, stack: np.ndarray):
        self.stack = stack

    def __len__(self) -> int:
        return len(self.stack)

    def __getitem__(self, k) -> CovarianceState:
        return CovarianceState(self.stack[k])


def evolve_covariance(sys: FermionSystem, state: CovarianceState,
                      t_end: float, tol: float = 1e-10, sample_times=None):
    """Propagate the covariance flow exactly to the times of
    `polyflow.sample_grid(t_end, sample_times)`; returns (final state,
    times, samples), the samples a `CovarianceSamples`.

    Each sample follows from the previous one by Gamma <- Phi Gamma Phi^T + Q
    with the one step (Phi, Q) of the grid's spacing (`covariance_step`),
    and is re-antisymmetrized into its row of one read-only stack.  The
    final state holds a copy of the last row, so it does not keep the stack
    alive.  `tol` does not apply: no step is adaptive.
    """
    n2 = 2 * sys.N
    if state.Gamma.shape != (n2, n2):
        raise DimensionError("state size does not match system")
    times = sample_grid(t_end, sample_times)
    stack = np.empty((times.size, n2, n2))
    G = state.Gamma
    np.subtract(G, G.T, out=stack[0])
    stack[0] *= 0.5
    if times.size > 1:
        phi, Q = covariance_step(sys, t_end / (times.size - 1))
        # two buffers serve every sample's products; * 0.5 is / 2 to the bit
        left, G = np.empty((n2, n2)), np.empty((n2, n2))
        for prev, row in zip(stack, stack[1:]):
            np.matmul(phi, prev, out=left)
            np.matmul(left, phi.T, out=G)
            G += Q
            np.subtract(G, G.T, out=row)
            row *= 0.5
    stack.flags.writeable = False
    return CovarianceState(stack[-1].copy()), times, CovarianceSamples(stack)


# ---------------------------------------------------------------------------
# exact density-matrix oracle

@lru_cache(maxsize=8)
def majorana_operators(N: int):
    """Jordan-Wigner Majoranas: c_{2k-1} = Z^(k-1) X I..., c_{2k} = Z^(k-1) Y I...

    The anticommutation {c_i, c_j} = 2 delta_ij is asserted exactly.
    """
    if N > ORACLE_MAX_N:
        raise DimensionError(f"oracle limited to N <= {ORACLE_MAX_N}")
    I2 = np.eye(2, dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    cs = []
    for k in range(N):
        for tail in (sx, sy):
            op = np.eye(1, dtype=complex)
            for pos in range(N):
                factor = sz if pos < k else (tail if pos == k else I2)
                op = np.kron(op, factor)
            cs.append(op)
    dim = 2**N
    for i, ci in enumerate(cs):
        for j, cj in enumerate(cs):
            anti = ci @ cj + cj @ ci
            target = 2.0 * np.eye(dim) if i == j else np.zeros((dim, dim))
            assert np.array_equal(anti, target) or \
                np.max(np.abs(anti - target)) < 1e-13
    return tuple(cs)


def covariance_from_density(rho: np.ndarray, N: int) -> CovarianceState:
    """Gamma_kl = (i/2) Tr(rho [c_k, c_l])."""
    cs = majorana_operators(N)
    n2 = 2 * N
    G = np.zeros((n2, n2))
    for k in range(n2):
        for l in range(k + 1, n2):
            val = 0.5j * np.trace(rho @ (cs[k] @ cs[l] - cs[l] @ cs[k]))
            G[k, l] = val.real
            G[l, k] = -val.real
    return CovarianceState(G)


def master_equation(sys: FermionSystem):
    """(H, Ls) on the 2^N-dimensional Fock space: H = (i/4) sum_ij h_ij c_i c_j
    and one L_mu = sum_i l_mu,i c_i per jump vector, as dense matrices."""
    cs = np.array(majorana_operators(sys.N))
    H = 0.25j * np.matmul(cs, np.tensordot(sys.h, cs, axes=1)).sum(axis=0)
    Ls = [np.tensordot(l, cs, axes=1) for l in sys.jumps]
    return H, Ls


def _liouvillian(sys: FermionSystem) -> np.ndarray:
    """Dense generator of d rho/dt = -i[H, rho] + sum_mu D[L_mu] rho acting
    on the row-major vec of rho, vec(A rho B) = (A kron B^T) vec rho.

    With K = -iH - (1/2) sum_mu L_mu^dag L_mu the master equation reads
    K rho + rho K^dag + sum_mu L_mu rho L_mu^dag, so the generator is
    K kron I + I kron conj(K) + sum_mu L_mu kron conj(L_mu), a 4^N x 4^N
    matrix (256 x 256 at ORACLE_MAX_N).
    """
    H, Ls = master_equation(sys)
    K = -1j * H - 0.5 * sum((L.conj().T @ L for L in Ls),
                            np.zeros_like(H))
    eye = np.eye(H.shape[0])
    gen = np.kron(K, eye) + np.kron(eye, K.conj())
    for L in Ls:
        gen += np.kron(L, L.conj())
    return gen


def lindblad_density(h, jumps, rho0: np.ndarray, t_end: float) -> np.ndarray:
    """rho(t_end) of the full master equation: e^{t_end L} vec rho0, one
    dense `expm` of the Liouvillian L (`_liouvillian`) applied to rho0."""
    if not 0 <= t_end < np.inf:
        raise ValueError(f"t_end must be finite and nonnegative, got {t_end}")
    sys = assemble(h, jumps)
    if sys.N > ORACLE_MAX_N:
        raise DimensionError(f"oracle limited to N <= {ORACLE_MAX_N}")
    rho0 = np.asarray(rho0, dtype=complex)
    dim = 2**sys.N
    if rho0.shape != (dim, dim):
        raise DimensionError("rho0 has wrong shape")
    if np.max(np.abs(rho0 - rho0.conj().T)) > 1e-10 or \
            abs(np.trace(rho0) - 1.0) > 1e-10 or \
            np.min(np.linalg.eigvalsh((rho0 + rho0.conj().T) / 2)) < -1e-10:
        raise ValueError("rho0 must be a trace-1 PSD density matrix")
    flat = expm(_liouvillian(sys) * t_end) @ rho0.reshape(-1)
    return flat.reshape(dim, dim)


def exact_lindblad_oracle(h, jumps, rho0: np.ndarray,
                          t_end: float) -> CovarianceState:
    """Gamma read off rho(t_end) of the full master equation
    (`lindblad_density`)."""
    rho_t = lindblad_density(h, jumps, rho0, t_end)
    return covariance_from_density(rho_t, np.shape(h)[0] // 2)


def random_instance(N: int, rng, n_jumps: int = 2):
    """Random instance: antisymmetric h, scaled jump vectors, pure rho0."""
    n2 = 2 * N
    h = random_antisymmetric(n2, rng)
    jumps = [0.5 * (rng.normal(size=n2) + 1j * rng.normal(size=n2))
             for _ in range(n_jumps)]
    dim = 2**N
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    rho0 = np.outer(psi, psi.conj())
    return h, jumps, rho0


def oracle_deviation(N: int, seed: int, t_end: float) -> float:
    """Max elementwise gap between the covariance ODE and the exact oracle."""
    rng = np.random.default_rng(seed)
    h, jumps, rho0 = random_instance(N, rng)
    sys = FermionSystem(N, h, jumps)
    g0 = covariance_from_density(rho0, N)
    final, _, _ = evolve_covariance(sys, g0, t_end, sample_times=[0, t_end])
    oracle = exact_lindblad_oracle(h, jumps, rho0, t_end)
    return float(np.max(np.abs(final.Gamma - oracle.Gamma)))


# ---------------------------------------------------------------------------
# observables

def energy(h: np.ndarray, state: CovarianceState) -> float:
    """E = -Tr[h Gamma] / 4."""
    return float(-np.trace(np.asarray(h) @ state.Gamma).real / 4.0)


def heat_per_fermion(sys: FermionSystem, state: CovarianceState,
                     t_end: float) -> float:
    """Dissipated heat per mode: (E(0) - E(t)) / N."""
    final, _, _ = evolve_covariance(sys, state, t_end, sample_times=[0, t_end])
    return (energy(sys.h, state) - energy(sys.h, final)) / sys.N


# ---------------------------------------------------------------------------
# spectrum and steady state

@dataclass
class DecaySpectrum:
    """Pairwise decay rates nu_k + nu_l with spectral weights |a_kl(0)|^2."""

    rates: np.ndarray
    weights: np.ndarray
    pairs: list
    gap: float
    nus: np.ndarray


def _normal_eigenbasis(sys: FermionSystem):
    """Orthonormal eigenbasis of B; requires the secular condition [h, X] = 0."""
    comm = sys.h @ sys.X - sys.X @ sys.h
    if np.max(np.abs(comm)) > 1e-10:
        raise SecularError("h and X do not commute; B is not normal")
    T, Q = schur(sys.B.astype(complex), output="complex")
    # normal matrix: the Schur form is diagonal and Q is an orthonormal basis
    lam = np.diag(T)
    return lam, Q


def decay_spectrum(sys: FermionSystem, state: CovarianceState) -> DecaySpectrum:
    lam, Q = _normal_eigenbasis(sys)
    nus = 0.0 - lam.real  # a zero rate is 0.0, not -0.0; the rest negated
    if np.min(nus) < -1e-12:
        raise ValueError("growing mode: decay rates must be nonnegative")
    # a_kl = <q_k (x) q_l | vec(Gamma0)> = (Q^dag Gamma0 conj(Q))_{kl}
    a = Q.conj().T @ state.Gamma @ Q.conj()
    n2 = 2 * sys.N
    # pair (k, l) at k n2 + l; |a_kl|^2 through libm's hypot and pow, as
    # the scalar abs(a_kl) ** 2 takes them (np.abs and ** 2 round
    # differently in some last bits)
    sums = nus[:, None] + nus[None, :]
    weights = np.float_power(np.hypot(a.real, a.imag), 2).ravel()
    order = np.argsort(weights)[::-1]
    k, l = np.divmod(order, n2)
    gap = sums[np.triu_indices(n2, 1)].min()
    return DecaySpectrum(sums.ravel()[order], weights[order],
                         list(zip(k.tolist(), l.tolist())), float(gap), nus)


def lindblad_gap(sys: FermionSystem) -> float:
    """Smallest decay rate on the antisymmetric (covariance) subspace."""
    lam, _ = _normal_eigenbasis(sys)
    nus = np.sort(-lam.real)
    if nus[0] <= 1e-12:
        raise GaplessError("non-dissipative mode present")
    return float(nus[0] + nus[1])


def steady_state(sys: FermionSystem) -> CovarianceState:
    """Solve B Gamma + Gamma B^T = -Y by Bartels-Stewart.

    The Lyapunov operator has eigenvalues lambda_i + lambda_j over the
    eigenvalues of B; GaplessError is raised when one of them is zero to
    within GAP_TOL, since the steady state is then not unique.
    """
    lam = np.linalg.eigvals(sys.B)
    pair = np.min(np.abs(lam[:, None] + lam[None, :]))
    if not pair > GAP_TOL * max(1.0, np.max(np.abs(lam))):
        raise GaplessError(
            f"B has eigenvalues with lambda_i + lambda_j = {pair:.3g}")
    G = solve_continuous_lyapunov(sys.B, -sys.Y)
    G = (G - G.T) / 2.0
    resid = np.max(np.abs(sys.B @ G + G @ sys.B.T + sys.Y))
    if not resid <= 1e-10:
        raise GaplessError(f"Lyapunov residual {resid} too large")
    return CovarianceState(G)


# ---------------------------------------------------------------------------
# structured instance

def chain_example(N: int, hopping: float, boundary_rates=(0.0, 0.0)):
    """Nearest-neighbor hopping chain with jump vectors on the end sites."""
    if N < 2:
        raise ValueError("chain needs N >= 2")
    n2 = 2 * N
    h = np.zeros((n2, n2))
    for s in range(N - 1):
        # J (a_s^dag a_{s+1} + h.c.) in Majorana pairs (2s, 2s+1), (2s+2, 2s+3)
        h[2 * s, 2 * s + 3] = hopping
        h[2 * s + 3, 2 * s] = -hopping
        h[2 * s + 1, 2 * s + 2] = -hopping
        h[2 * s + 2, 2 * s + 1] = hopping
    jumps = []
    gamma_l, gamma_r = boundary_rates
    if gamma_l > 0:
        l = np.zeros(n2, dtype=complex)
        l[0], l[1] = 0.5 * np.sqrt(gamma_l), 0.5j * np.sqrt(gamma_l)
        jumps.append(l)
    if gamma_r > 0:
        l = np.zeros(n2, dtype=complex)
        l[n2 - 2] = 0.5 * np.sqrt(gamma_r)
        l[n2 - 1] = 0.5j * np.sqrt(gamma_r)
        jumps.append(l)
    return h, jumps


def commuting_example(N: int, omegas, gammas):
    """Per-mode precession h and per-mode loss jumps, built so [h, X] = 0.

    Each mode contributes a 2x2 antisymmetric h block omega_k [[0,1],[-1,0]]
    and a jump (sqrt(gamma_k)/2)(e_{2k} + i e_{2k+1}) whose X block is
    (gamma_k/2) I, commuting with the h block.
    """
    omegas = np.asarray(omegas, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    if omegas.size != N or gammas.size != N:
        raise DimensionError("need one omega and one gamma per mode")
    n2 = 2 * N
    h = np.zeros((n2, n2))
    jumps = []
    for k in range(N):
        h[2 * k, 2 * k + 1] = omegas[k]
        h[2 * k + 1, 2 * k] = -omegas[k]
        if gammas[k] > 0:
            l = np.zeros(n2, dtype=complex)
            l[2 * k] = 0.5 * np.sqrt(gammas[k])
            l[2 * k + 1] = 0.5j * np.sqrt(gammas[k])
            jumps.append(l)
    return h, jumps


# ---------------------------------------------------------------------------
# configuration

def system_from_dict(data) -> FermionSystem:
    """A system from its parsed JSON form {"N": N, "h": [[i, j, h_ij], ...]
    with integer indices 0 <= i < j < 2N, "jumps": [[[re, im], ...], ...]
    with 2N pairs each}."""
    N = data["N"]
    n2 = 2 * N
    i, j, values = np.asarray(data["h"], dtype=float).reshape(-1, 3).T
    bad = np.flatnonzero(~((i == np.floor(i)) & (0 <= i) & (i < j)
                           & (j < n2)))
    if bad.size:
        raise ValueError(f"h entries must have integer indices 0 <= i < j "
                         f"< 2N = {n2}, got i = {i[bad[0]]:g}, j = "
                         f"{j[bad[0]]:g}")
    h = np.zeros((n2, n2))
    h[i.astype(int), j.astype(int)] = values
    h[j.astype(int), i.astype(int)] = -values
    jumps = []
    for l in data["jumps"]:
        pairs = np.ascontiguousarray(l, dtype=float).reshape(-1, 2)
        if len(pairs) != n2:
            raise ValueError(f"each jump must hold 2N = {n2} [re, im] "
                             f"pairs, got {len(pairs)}")
        jumps.append(pairs.view(complex)[:, 0])  # complex(re, im) each
    return FermionSystem(N, h, jumps)
