"""Re-record `outputs.json`, the manifest of the commands' output bytes.

Each case is one command line run through `cli.run` in this process.  The
manifest keeps its argv, its exit code and the sha256 of its standard
output and of its CSV (null when it writes none), with the numpy, scipy
and BLAS versions they were recorded under; `constraints.txt` pins the
first two for CI's install.  tests/test_outputs.py runs every case and
compares.  Re-record only on purpose, and list each case whose hashes
change, with the reason, in CHANGES.md:

    PYTHONPATH=src python tests/data/record_outputs.py

With --print the record goes to standard output instead, and no file is
written.  BLAS runs on one thread, as `python -m koopman_lab` pins it, since
its rounding depends on the thread count.

A config name in an argv (`*.json`) is read from `configs/` beside this
file; the --out name is written into a scratch directory.  The configs
`fermion`, `commuting`, `rsep`, `spectral` and `history` are the
benchmark's cli workload's inputs at seed 0; `diverging` is a coupled
model whose x1 grows without bound at t = ln(4/3).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402  (after the pin)
import scipy  # noqa: E402

from koopman_lab import cli  # noqa: E402

DATA = Path(__file__).resolve().parent
CONFIGS = DATA / "configs"
MANIFEST = DATA / "outputs.json"
CONSTRAINTS = DATA / "constraints.txt"

_OUT = ["--out", "out.csv"]

# name: argv
CASES = {
    # the 15 commands as the benchmark's cli workload runs them at seed 0
    "population-scan": ["population-scan", "--grid", "1.3:1.45:0.05",
                        "--threads", "1", *_OUT],
    "population-traj": ["population-traj", *_OUT],
    "population-chaos": ["population-chaos", *_OUT],
    "carleman-error": ["carleman-error", *_OUT],
    "nip-error": ["nip-error", *_OUT],
    "fermion-evolve": ["fermion-evolve", "--config", "fermion.json",
                       "--seed", "0", *_OUT],
    "fermion-heat": ["fermion-heat", "--config", "fermion.json",
                     "--seed", "0", *_OUT],
    "fermion-decay": ["fermion-decay", "--config", "commuting.json",
                      "--seed", "0", *_OUT],
    "fermion-steady": ["fermion-steady", "--config", "fermion.json", *_OUT],
    "fermion-oracle-check": ["fermion-oracle-check"],
    "rsep-sweep": ["rsep-sweep", "--config", "rsep.json", *_OUT],
    "spectral-window": ["spectral-window", *_OUT],
    "spectral-emulate": ["spectral-emulate", "--config", "spectral.json",
                         *_OUT],
    "spectral-sample": ["spectral-sample", "--config", "spectral.json",
                        "--seed", "0", *_OUT],
    "ode-history": ["ode-history", "--config", "history.json", *_OUT],
    # the default 31 x 31 scan in one process and in two
    "population-scan-default-threads-1": ["population-scan", "--threads",
                                          "1", *_OUT],
    "population-scan-default-threads-2": ["population-scan", "--threads",
                                          "2", *_OUT],
    "nip-error-orders-8-10": ["nip-error", "--orders", "8", "10", *_OUT],
    "carleman-error-orders-1-3-6": ["carleman-error", "--orders", "1", "3",
                                    "6", *_OUT],
    "population-scan-orders-2-5": ["population-scan", "--grid",
                                   "1.0:1.1:0.05", "--orders", "2", "5",
                                   *_OUT],
    "fermion-oracle-check-N-4": ["fermion-oracle-check", "--N", "4",
                                 "--trials", "5"],
    # exit 3, naming x1 and its time, and no CSV
    "population-traj-diverging": ["population-traj", "--config",
                                  "diverging.json", "--t-end", "1", *_OUT],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv, workdir):
    """(exit code, stdout sha256, CSV sha256 or None) of `argv`, its
    configs read from CONFIGS and its --out written into `workdir`."""
    args = [str(CONFIGS / a) if a.endswith(".json") else a for a in argv]
    out = None
    if "--out" in args:
        k = args.index("--out") + 1
        out = Path(workdir) / args[k]
        args[k] = str(out)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(args)
    written = _sha(out.read_bytes()) if out and out.exists() else None
    return code, _sha(stdout.getvalue().encode()), written


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def record() -> dict:
    cases = {}
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as workdir:
            code, stdout, csv = run_case(argv, workdir)
        cases[name] = {"argv": argv, "exit": code, "stdout": stdout,
                       "csv": csv}
    return {"versions": versions(), "cases": cases}


def main() -> None:
    manifest = record()
    if "--print" in sys.argv[1:]:
        print(json.dumps(manifest))
        return
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    CONSTRAINTS.write_text("".join(
        f"{name}=={manifest['versions'][name]}\n"
        for name in ("numpy", "scipy")))
    print(f"recorded {len(manifest['cases'])} cases to {MANIFEST}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
