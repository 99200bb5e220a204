"""Re-record `outputs.json`, the manifest of the commands' output bytes.

Each case is one command line run through `cli.run` in this process.  The
manifest keeps its argv, its exit code and the sha256 of its standard
output and of its CSV (null when it writes none), with the numpy, scipy
and BLAS versions they were recorded under and the kernel OpenBLAS picked
for the CPU, which sets the order in which BLAS sums; `constraints.txt`
pins the first two for CI's install.  tests/test_outputs.py runs every case and
compares.  Re-record only on purpose, and list each case whose hashes
change, with the reason, in CHANGES.md:

    PYTHONPATH=src python tests/data/record_outputs.py

With --print the record goes to standard output instead, and no file is
written.  BLAS runs on one thread, as `python -m koopman_lab` pins it, since
its rounding depends on the thread count.

To say how much a re-record moves, dump the outputs themselves before and
after the change, and compare the two dumps:

    PYTHONPATH=src python tests/data/record_outputs.py --dump DIR
    python tests/data/record_outputs.py --compare OLD_DIR NEW_DIR

--dump writes, per case, NAME.exit (the exit code), NAME.stdout and, when
the case writes one, NAME.csv.  --compare prints one line per case:
"identical", or the number of changed fields, the largest absolute and
relative change of a numeric one, and then every changed field that is
not a number (a verdict, an exit code, a written or missing CSV).

A config name in an argv (`*.json`) is read from `configs/` beside this
file; the --out name is written into a scratch directory.  The configs
`fermion`, `commuting`, `rsep`, `spectral` and `history` are the
benchmark's cli workload's inputs at seed 0; `diverging` is a coupled
model whose x1 grows without bound at t = ln(4/3).
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402  (after the pin)
import scipy  # noqa: E402

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
    """(exit code, stdout bytes, CSV bytes or None) of `argv`, its configs
    read from CONFIGS and its --out written into `workdir`."""
    from koopman_lab import cli

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
    written = out.read_bytes() if out and out.exists() else None
    return code, stdout.getvalue().encode(), written


def blas_kernel() -> str:
    """The core OpenBLAS dispatched to for this CPU, read from numpy's copy
    of the library, else from scipy's; "unknown" when neither names it."""
    for module, pattern, symbol in (
            (np, "libscipy_openblas64_*.so", "scipy_openblas_get_corename64_"),
            (scipy, "libscipy_openblas*.so", "scipy_openblas_get_corename")):
        libs = Path(module.__file__).resolve().parents[1] \
            / f"{module.__name__}.libs"
        for path in sorted(libs.glob(pattern)):
            try:
                corename = getattr(ctypes.CDLL(str(path)), symbol)
            except (OSError, AttributeError):
                continue
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_kernel": blas_kernel()}


def outputs():
    """(name, exit code, stdout bytes, CSV bytes or None) of every case."""
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as workdir:
            yield name, *run_case(argv, workdir)


def record() -> dict:
    cases = {}
    for name, code, stdout, csv in outputs():
        cases[name] = {"argv": CASES[name], "exit": code,
                       "stdout": _sha(stdout),
                       "csv": None if csv is None else _sha(csv)}
    return {"versions": versions(), "cases": cases}


def dump(directory) -> None:
    """Each case's NAME.exit, NAME.stdout and, when written, NAME.csv in
    `directory`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, code, stdout, csv in outputs():
        (directory / f"{name}.exit").write_text(f"{code}\n")
        (directory / f"{name}.stdout").write_bytes(stdout)
        if csv is not None:
            (directory / f"{name}.csv").write_bytes(csv)


def _fields(path: Path):
    """The fields of a dumped file: its runs of characters other than
    whitespace, commas and "=" (so "eps_max=1e-3" is two), or None when
    the file was not written."""
    if not path.exists():
        return None
    return re.findall(r"[^\s,=]+", path.read_text())


def _number(field: str):
    try:
        value = float(field)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def compare_case(old: Path, new: Path, name: str) -> list:
    """The lines that say how case `name` differs between the dumps `old`
    and `new`: its name and "identical", or how many of its fields
    changed, with the largest absolute and relative change of a numeric
    one (the change over the larger magnitude), and then one line per
    changed exit code or field that is not a number, with its file and
    place."""
    total, changed, big_abs, big_rel, notes = 0, 0, 0.0, 0.0, []
    for suffix in ("exit", "stdout", "csv"):
        a, b = _fields(old / f"{name}.{suffix}"), \
            _fields(new / f"{name}.{suffix}")
        total += len(b or a or ())
        if a is None or b is None:
            if (a is None) != (b is None):
                changed += 1
                notes.append(f"  {suffix}: "
                             f"{'none' if a is None else 'written'} -> "
                             f"{'none' if b is None else 'written'}")
            continue
        if len(a) != len(b):
            changed += 1
            notes.append(f"  {suffix}: {len(a)} fields -> {len(b)}")
            continue
        for place, (x, y) in enumerate(zip(a, b)):
            if x == y:
                continue
            changed += 1
            u, v = _number(x), _number(y)
            if u is None or v is None or suffix == "exit":
                notes.append(f"  {suffix} field {place}: {x} -> {y}")
                continue
            big_abs = max(big_abs, abs(u - v))
            big_rel = max(big_rel, abs(u - v) / max(abs(u), abs(v)))
    if not changed:
        return [f"{name}: identical"]
    return [f"{name}: {changed} of {total} fields changed, max abs "
            f"{big_abs:.3g}, max rel {big_rel:.3g}", *notes]


def compare(old, new) -> list:
    """`compare_case` of every case dumped in `old` or `new`, in name
    order; a case dumped in one of them only is named so."""
    old, new = Path(old), Path(new)
    in_old = {p.stem for p in old.glob("*.exit")}
    in_new = {p.stem for p in new.glob("*.exit")}
    lines = []
    for name in sorted(in_old | in_new):
        if name in in_old and name in in_new:
            lines.extend(compare_case(old, new, name))
        else:
            lines.append(f"{name}: only in {old if name in in_old else new}")
    return lines


def main() -> None:
    args = sys.argv[1:]
    if args[:1] == ["--compare"] and len(args) == 3:
        print("\n".join(compare(*args[1:])))
        return
    if args[:1] == ["--dump"] and len(args) == 2:
        dump(args[1])
        return
    manifest = record()
    if "--print" in args:
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
