"""Windowed spectral estimation for normal-mode dynamics.

The estimator prepares a Kaiser-window superposition of snapshots of a
decaying/oscillating mode vector, Fourier-transforms the snapshot index,
and reads a frequency from the signed bin decoding.  Everything here is an
exact statevector-level emulation: distributions are computed in closed
form, and the only randomness is the final seeded sampling step.

The module also contains the block-bidiagonal linear-system embedding of a
linear ODE (truncated-Taylor propagator recurrence with padded copies of
the final state) and its uniform-size family for multiple read-out times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .polyflow import DimensionError, log_norm, spectral_norm

NYQUIST_MARGIN = 0.1 * np.pi
OSCILLATORY_TOL = 1e-12

# Window sizes achieving sup-over-theta tail mass <= delta at phase accuracy
# eps_phase on the margin interval, found by the offline sweep in
# benchmarks/calibrate_window.py and frozen here.
KAISER_CALIBRATION = {
    # (eps_phase, delta): (J, sigma)
    (0.05, 1e-4): (401, 3.0),
}


class AliasingError(ValueError):
    """A mode frequency falls outside the Nyquist-margin interval."""


@dataclass
class WindowSpec:
    J: int
    sigma: float
    beta: np.ndarray

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        if self.J % 2 == 0 or self.J < 3:
            raise ValueError("J must be odd and >= 3")
        if self.beta.shape != (self.J,):
            raise DimensionError("coefficient length must equal J")
        if abs(np.sum(self.beta**2) - 1.0) > 1e-12:
            raise ValueError("window must have unit 2-norm")


def kaiser_window(J: int, sigma: float) -> WindowSpec:
    """beta_j proportional to I0(pi*sigma*sqrt(1 - ((2j-(J-1))/(J-1))^2))."""
    if J % 2 == 0 or J < 3:
        raise ValueError("J must be odd and >= 3")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    j = np.arange(J)
    with np.errstate(over="ignore", invalid="ignore"):
        arg = np.pi * sigma * np.sqrt(1.0 - ((2 * j - (J - 1)) / (J - 1))**2)
        beta = np.i0(arg) / np.i0(np.pi * sigma)
    if not np.all(np.isfinite(beta)):
        raise ValueError(f"sigma = {sigma:g} overflows the window's "
                         f"I0(pi sigma)")
    beta /= np.linalg.norm(beta)
    return WindowSpec(J, sigma, beta)


def uniform_window(J: int) -> WindowSpec:
    if J % 2 == 0 or J < 3:
        raise ValueError("J must be odd and >= 3")
    return WindowSpec(J, 0.0, np.full(J, 1.0 / np.sqrt(J)))


def qpe_amplitudes(window: WindowSpec, theta: float) -> np.ndarray:
    """gamma_ell(theta) = (1/sqrt J) sum_j beta_j e^{i j (theta - 2 pi ell/J)}."""
    j = np.arange(window.J)
    return np.fft.fft(window.beta * np.exp(1j * j * theta)) / np.sqrt(window.J)


def qpe_distribution(window: WindowSpec, theta: float) -> np.ndarray:
    return np.abs(qpe_amplitudes(window, theta))**2


def decode(ell, J: int, dt: float = 1.0):
    """Signed bin decoding: (theta_hat, omega_hat = theta_hat/dt) of an
    outcome ell, or arrays of them for an array of outcomes.  theta_hat is
    2 pi ell / J, less 2 pi above (J - 1) // 2."""
    ell = np.asarray(ell)
    if not np.all((0 <= ell) & (ell <= J - 1)):
        raise ValueError("outcome index out of range")
    if J % 2 == 0:
        raise ValueError("J must be odd")
    theta = 2.0 * np.pi * ell / J
    theta = np.where(ell > (J - 1) // 2, theta - 2.0 * np.pi, theta)[()]
    return theta, theta / dt


def decoded_thetas(J: int) -> np.ndarray:
    return decode(np.arange(J), J)[0]


def tail_mass(window: WindowSpec, theta: float, eps_phase: float) -> float:
    """Probability outside the eps_phase ball of theta under signed decoding."""
    if not -np.pi + NYQUIST_MARGIN <= theta <= np.pi - NYQUIST_MARGIN:
        raise AliasingError("theta outside the Nyquist-margin interval")
    p = qpe_distribution(window, theta)
    thetas = decoded_thetas(window.J)
    return float(np.sum(p[np.abs(thetas - theta) > eps_phase]))


def suppression_time(Delta: float, eps1: float) -> float:
    """Time after which decaying modes are damped below eps1: ln(1/eps1)/Delta."""
    if Delta <= 0:
        raise ValueError("Delta must be positive")
    if not 0 < eps1 <= 1:
        raise ValueError("eps1 must lie in (0, 1]")
    return math.log(1.0 / eps1) / Delta


@dataclass
class NormalKoopman:
    """Modes lambda_k = -mu_k + i omega_k with amplitudes a_k, sum|a|^2 = 1."""

    mus: np.ndarray
    omegas: np.ndarray
    a: np.ndarray
    oscillatory: np.ndarray = field(init=False)  # indices with mu ~ 0
    decaying: np.ndarray = field(init=False)

    def __post_init__(self):
        self.mus = np.asarray(self.mus, dtype=float)
        self.omegas = np.asarray(self.omegas, dtype=float)
        self.a = np.asarray(self.a, dtype=complex)
        M = self.mus.size
        if self.omegas.shape != (M,) or self.a.shape != (M,):
            raise DimensionError("mode arrays must share one length")
        if np.min(self.mus) < -1e-12:
            raise ValueError("decay rates must be nonnegative")
        if abs(np.sum(np.abs(self.a)**2) - 1.0) > 1e-9:
            raise ValueError("amplitudes must be normalized")
        self.oscillatory = np.nonzero(self.mus <= OSCILLATORY_TOL)[0]
        self.decaying = np.nonzero(self.mus > OSCILLATORY_TOL)[0]

    @property
    def w_S(self) -> float:
        return float(np.sum(np.abs(self.a[self.oscillatory])**2))

    @property
    def gap(self) -> float:
        if self.decaying.size == 0:
            raise ValueError("no decaying modes")
        return float(np.min(self.mus[self.decaying]))

    def g(self, t) -> np.ndarray:
        """The mode vector at time t, or one row per time of an array t."""
        lam = -self.mus + 1j * self.omegas
        return self.a * np.exp(lam * np.asarray(t, dtype=float)[..., None])

    def g_norm(self, t: float) -> float:
        return float(np.linalg.norm(self.g(t)))


def check_nyquist(modes: NormalKoopman, dt: float) -> None:
    thetas = modes.omegas * dt
    if np.any(np.abs(thetas) > np.pi - NYQUIST_MARGIN):
        raise AliasingError("a mode frequency violates the Nyquist margin")


def ideal_mode_distribution(modes: NormalKoopman, dt: float,
                            window: WindowSpec) -> np.ndarray:
    """Mixture of windowed bin distributions at the oscillatory frequencies."""
    if modes.oscillatory.size == 0:
        raise ValueError("no oscillatory modes")
    check_nyquist(modes, dt)
    w_S = modes.w_S
    p = np.zeros(window.J)
    for k in modes.oscillatory:
        weight = abs(modes.a[k])**2 / w_S
        p += weight * qpe_distribution(window, modes.omegas[k] * dt)
    return p


def emulate_spectral_qka(modes: NormalKoopman, window: WindowSpec,
                         T1: float, dt: float):
    """Exact outcome distribution of the windowed snapshot estimator.

    Builds sum_j beta_j |j> (x) gbar(T1 + j dt) with gbar the normalized
    mode vector, inverse-Fourier-transforms the snapshot register, and
    returns (p, total variation distance to the ideal mixture).
    """
    check_nyquist(modes, dt)
    if modes.oscillatory.size == 0:
        raise ValueError("no oscillatory modes")
    J = window.J
    # a mode whose mu t overflows to inf has decayed to exactly 0
    with np.errstate(over="ignore"):
        g = modes.g(T1 + np.arange(J) * dt)
        # np.linalg.norm row by row: a vectorized norm rounds otherwise
        norms = np.array([np.linalg.norm(row) for row in g])
        snaps = window.beta[:, None] * (g / norms[:, None])
    amp = np.fft.fft(snaps, axis=0) / np.sqrt(J)
    p = np.sum(np.abs(amp)**2, axis=1)
    p /= np.sum(p)
    p_ideal = ideal_mode_distribution(modes, dt, window)
    tv = 0.5 * float(np.sum(np.abs(p - p_ideal)))
    return p, tv


def sample_outcomes(dist: np.ndarray, n: int, seed: int) -> np.ndarray:
    """n seeded multinomial draws; identical inputs give identical counts."""
    dist = np.asarray(dist, dtype=float)
    if abs(np.sum(dist) - 1.0) > 1e-9 or np.min(dist) < -1e-12:
        raise ValueError("not a probability distribution")
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    rng = np.random.default_rng(seed)
    return rng.multinomial(n, np.clip(dist, 0.0, None) / np.sum(dist))


# ---------------------------------------------------------------------------
# linear-system embedding of a linear ODE

def taylor_propagator(A: np.ndarray, h: float, l: int) -> np.ndarray:
    """T_l(Ah) = sum_{r<=l} (Ah)^r / r!."""
    if l < 1:
        raise ValueError("Taylor order must be >= 1")
    A = np.asarray(A, dtype=complex)
    term = np.eye(A.shape[0], dtype=complex)
    out = term.copy()
    for r in range(1, l + 1):
        term = term @ A * (h / r)
        out += term
    return out


@dataclass
class HistorySystem:
    m: int
    p: int
    l: int
    h: float
    A: np.ndarray
    T: np.ndarray        # T_l(Ah), the subdiagonal block of the first m steps
    C: np.ndarray
    b: np.ndarray
    blocks: np.ndarray   # (m+p, dim) solution blocks y_s


def history_system(A: np.ndarray, x0: np.ndarray, m: int, p: int, l: int,
                   h: float) -> HistorySystem:
    """Assemble and solve the block-bidiagonal history system.

    Diagonal identity blocks; subdiagonal -T_l(Ah) for the first m steps and
    -I for the padded steps, so y_s = T_l(Ah)^min(s, m) x0.
    """
    A = np.asarray(A, dtype=complex)
    x0 = np.asarray(x0, dtype=complex)
    dim = x0.size
    if A.shape != (dim, dim):
        raise DimensionError("A and x0 sizes differ")
    if log_norm(A) > 1e-10:
        raise ValueError("generator must have nonpositive log-norm")
    if m < 1 or p < 0:
        raise ValueError("need m >= 1 steps and p >= 0 padding")
    if h > 1.0 / max(spectral_norm(A), 1e-300):
        raise ValueError("step size must satisfy h <= 1/|A|")
    T = taylor_propagator(A, h, l)
    if spectral_norm(T) > 1.5:
        raise ValueError("unstable Taylor propagator: |T_l(Ah)| > 1.5")
    n = m + p
    C = np.eye(n * dim, dtype=complex)
    for s in range(n - 1):
        sub = -T if s < m else -np.eye(dim, dtype=complex)
        C[(s + 1) * dim:(s + 2) * dim, s * dim:(s + 1) * dim] = sub
    b = np.zeros(n * dim, dtype=complex)
    b[:dim] = x0
    y = np.linalg.solve(C, b)
    return HistorySystem(m, p, l, h, A, T, C, b, y.reshape(n, dim))


def _norm(v) -> float:
    """np.linalg.norm of a vector whose squares may overflow.  A vector
    with an entry of magnitude 2^500 or more is first scaled by the power
    of two that puts its parts below 1, which is exact, and the norm scaled
    back; any other is not scaled."""
    v = np.asarray(v)
    if not np.max(np.abs(v)) >= 2.0**500:
        return float(np.linalg.norm(v))
    _, e = np.frexp(max(np.max(np.abs(v.real)), np.max(np.abs(v.imag))))
    return float(np.ldexp(np.linalg.norm(v * np.ldexp(1.0, -e)), e))


def history_residuals(hist: HistorySystem, x0: np.ndarray):
    """(max block-recurrence residual, |y_m - e^{Amh} x0|)."""
    from scipy.linalg import expm
    resid = 0.0
    power = np.asarray(x0, dtype=complex)
    for s in range(hist.m + hist.p):
        if s > 0:
            power = hist.T @ power if s <= hist.m else power
        resid = max(resid, _norm(hist.blocks[s] - power))
    exact = expm(hist.A * hist.m * hist.h) @ np.asarray(x0, dtype=complex)
    final_err = _norm(hist.blocks[hist.m if hist.p > 0 else -1] - exact)
    return resid, final_err


# ---------------------------------------------------------------------------
# uniform-size family

def uniform_family(a: int, c: int, J: int):
    """Index triples (m_j, p_j, d_j) with j-independent m+p and m+d."""
    if a < 1 or c < 1 or J < 1:
        raise ValueError("a, c, J must be positive")
    triples = []
    for j in range(J):
        m_j = a + j * c
        p_j = a + (2 * J - 2 - j) * c
        d_j = (J - 1 - j) * c
        assert m_j + p_j == 2 * (a + (J - 1) * c)
        assert m_j + d_j == a + (J - 1) * c
        triples.append((m_j, p_j, d_j))
    return triples


def post_selection_probabilities(modes: NormalKoopman, a: int, c: int,
                                 J: int, h: float) -> np.ndarray:
    """Success probability of keeping the padded blocks, per time branch.

    T1 = a*h and dt = c*h; branch j reads out t_j = T1 + j*dt.
    """
    probs = np.empty(J)
    for j, (m_j, p_j, d_j) in enumerate(uniform_family(a, c, J)):
        t_j = (a + j * c) * h
        nt = modes.g_norm(t_j)**2
        hist = sum(modes.g_norm(s * h)**2 for s in range(m_j))
        probs[j] = (p_j - d_j) * nt / (hist + p_j * nt)
    return probs
