"""Offline sweep that produced the frozen window-calibration table.

For each candidate (J, sigma), computes the supremum over theta in the
Nyquist-margin interval of the tail mass outside the eps_phase = 0.05 ball,
and reports pairs meeting the delta = 1e-4 target.  The chosen pair is
stored in koopman_lab.spectral.KAISER_CALIBRATION.
Run as: python3 benchmarks/calibrate_window.py (the checkout's src/ is put
first on the import path, so no install is needed).
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from koopman_lab import spectral  # noqa: E402

EPS_PHASE = 0.05
DELTA = 1e-4


def sup_tail(J, sigma, n_theta=401):
    window = spectral.kaiser_window(J, sigma)
    thetas = np.linspace(-0.9 * np.pi, 0.9 * np.pi, n_theta)
    return max(spectral.tail_mass(window, th, EPS_PHASE) for th in thetas)


def main():
    for J in (201, 301, 401, 501):
        for sigma in (2.0, 2.5, 3.0, 4.0):
            worst = sup_tail(J, sigma)
            mark = "  <-- meets target" if worst <= DELTA else ""
            print(f"J={J:4d} sigma={sigma:.1f} sup_tail={worst:.3e}{mark}")
    frozen = spectral.KAISER_CALIBRATION[(EPS_PHASE, DELTA)]
    print(f"frozen table entry: {frozen}")


if __name__ == "__main__":
    main()
