"""`python -m koopman_lab <command>` and the `koopman-lab` script.

BLAS is pinned to one thread before `cli`, and so numpy, is imported,
unless the environment already sets a count.  Threaded BLAS gains nothing
on the small products of the lifted flows, and its rounding depends on
the thread count, so the pin keeps the printed bits the same on every
machine.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .cli import main  # noqa: E402  (after the pin)

if __name__ == "__main__":
    main()
