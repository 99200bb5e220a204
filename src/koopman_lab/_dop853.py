"""The DOP853 runs behind `polyflow.integrate_rhs`.

This is the package's one importer of scipy.integrate, which pulls in
scipy.optimize, scipy.special and more.  `integrate_rhs` imports this module
on its first call, so a process that never runs DOP853 never loads them.
"""

from __future__ import annotations

import gc

import numpy as np
from scipy.integrate import DOP853, solve_ivp

from .polyflow import DIVERGENCE_NORM


class WeightedDOP853(DOP853):
    """DOP853 whose error norm counts component i as weights[i] equal
    components: the RMS norm sqrt(sum_i w_i |v_i|^2 / sum_i w_i).

    A lift on the symmetric-monomial basis, with each monomial weighted by
    the number of Kronecker coordinates it stands for, then controls the
    same error as its Kronecker layout.  Weights of ones give scipy's
    DOP853.
    """

    def __init__(self, fun, t0, y0, t_bound, weights, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self.root_weights = np.sqrt(weights)
        self.total_weight = float(np.sum(weights))

    def _estimate_error_norm(self, K, h, scale):
        # scipy's DOP853 estimate, each component scaled by its root weight
        err5 = np.dot(K.T, self.E5) / scale * self.root_weights
        err3 = np.dot(K.T, self.E3) / scale * self.root_weights
        err5_norm_2 = np.linalg.norm(err5)**2
        err3_norm_2 = np.linalg.norm(err3)**2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        return np.abs(h) * err5_norm_2 / np.sqrt(denom * self.total_weight)


def _initial_step(rhs, y0, t_end, tol, weights):
    """Hairer's initial step (Hairer, Norsett & Wanner, Sec. II.4), as
    scipy's DOP853 chooses it, under the RMS norm of `WeightedDOP853`."""
    root, count = np.sqrt(weights), np.sqrt(np.sum(weights))

    def norm(v):
        return np.linalg.norm(root * v) / count

    f0 = rhs(0.0, y0)
    scale = tol + np.abs(y0) * tol
    d0, d1 = norm(y0 / scale), norm(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = rhs(h0, y0 + h0 * f0)
    d2 = norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (DOP853.error_estimator_order + 1))
    return min(100 * h0, h1, t_end)


def solve(rhs, x0: np.ndarray, t_end: float, tol: float, sample_times,
          weights=None):
    """scipy's `solve_ivp` result for `WeightedDOP853` from x0 over [0,
    t_end] at rtol = atol = tol, its first step `_initial_step`, stopped by
    a terminal event when the norm sqrt(sum_i w_i |x_i|^2) passes
    DIVERGENCE_NORM (status 1).  `weights` None counts every component
    once, which gives scipy's DOP853 to the bit."""
    weights = np.ones(np.shape(x0)) if weights is None \
        else np.asarray(weights, dtype=float)
    root = np.sqrt(weights)

    def blow_up(t, y):
        return np.linalg.norm(root * y) - DIVERGENCE_NORM

    blow_up.terminal = True
    blow_up.direction = 1

    sol = solve_ivp(rhs, (0.0, t_end), x0, method=WeightedDOP853, rtol=tol,
                    atol=tol, t_eval=sample_times, events=blow_up,
                    dense_output=False, weights=weights,
                    first_step=_initial_step(rhs, x0, t_end, tol, weights))
    # scipy's solver keeps itself in a reference cycle (its `fun` closure),
    # which holds the run's stages and `rhs` with whatever it closes over,
    # such as a lift's generator.  Code that allocates few Python objects
    # between runs triggers the cyclic collector rarely, and that garbage
    # piles up; the youngest generation, which holds it, is freed here.
    gc.collect(0)
    return sol
