"""koopman-lab benchmark: one workload, measured for a fixed time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 0 --seconds 15 --trace 0

The library is imported from the checkout's `src/`.  BLAS is pinned to one
thread before numpy is imported.  With `--trace 0` the run reports the
end-to-end metrics; with `--trace 1` it alternates untraced and traced
passes and reports the per-layer metrics.  The last line of standard output
is the result JSON; the line before it records the environment and every
raw time the metrics were computed from.

Pass times are calibrated.  The host this benchmark was built on runs
other tenants' work on the same cores, and the speed of identical code
drifts by 20-30 % over tens of seconds and up to 2x over minutes.  Fixed
calibration kernels, independent of koopman_lab and chosen per workload,
are timed before the first pass, between operations whenever
CAL_INTERVAL_S have passed since the last sample, and after the last pass.
Each operation's time is rescaled by the kernels' nominal time
(CAL_NOMINAL_S each) over the mean of the samples just before and just
after it, i.e. to the speed at which the kernels take their nominal time.
Set-up is timed between two runs of a pure-Python loop and rescaled the
same way (see `spin`).
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 4
CAL_NOMINAL_S = 0.075    # per calibration kernel
SPIN_NOMINAL_S = 0.05
CAL_INTERVAL_S = 1.0
# calibration kernels per workload: the mix whose samples, bracketing each
# operation, gave the smallest quartile spread of wall_s over 8 seeds on the
# host described in README.md (see Calibration for what each kernel does)
CAL_KERNELS = {"scan": ("loop", "stream"), "lift": ("stream",),
               "fermion": ("stream",), "cli": ("loop", "solve")}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "ok_frac": "ratio"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("scan", "lift", "fermion", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set the workload up and print the set-up time")
    return p.parse_args(argv)


def setup(name, seed, workdir):
    """Import the stack, build the seeded workload; returns (workload, s)."""
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import koopman_lab
    if Path(koopman_lab.__file__).resolve().parent != SRC / "koopman_lab":
        raise ImportError(f"koopman_lab imported from {koopman_lab.__file__}"
                          f", not from {SRC}")
    import workloads
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)
    wl = workloads.WORKLOADS[name](seed, reference, workdir)
    return wl, time.perf_counter() - t0


def spin() -> float:
    """Seconds taken by a fixed pure-Python loop, which needs no imports.

    Set-up is timed between two spins and rescaled by SPIN_NOMINAL_S over
    their mean, the way operations are rescaled by the calibration kernels.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(400_000):
        s += i * i % 7
    return time.perf_counter() - t0


def probe_setup(args):
    """Set-up times of fresh interpreters (imports happen once per process).

    Returns (calibrated, raw) lists.
    """
    times, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds", "0",
             "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        calibrated, seconds = proc.stdout.split()[-2:]
        times.append(float(calibrated))
        raw.append(float(seconds))
    return times, raw


class Calibration:
    """Fixed kernels whose time tracks the speed the host gives this process.

    Contention from other tenants slows different kinds of work by different
    amounts, so each workload is calibrated with its own mix of kernels
    (CAL_KERNELS): "loop" is a Python loop over small numpy operations, like
    the integrators' stepping; "stream" streams megabyte-sized complex
    arrays, like the lifted apply at high order and the fermion flow on
    (2N)^2-long vectors; "solve" factors small dense matrices, like the
    density-matrix oracle.
    """

    def __init__(self, kinds):
        import numpy as np
        rng = np.random.default_rng(0)
        self.kernels = [getattr(self, f"_{kind}") for kind in kinds]
        self.nominal = CAL_NOMINAL_S * len(kinds)
        self.x0 = np.linspace(0.1, 1.0, 39).astype(complex)
        self.A = -0.5 * np.eye(39, dtype=complex)
        if "stream" in kinds:
            self.big = rng.normal(size=(27, 9840)) + 0j
            self.flat = rng.normal(size=(3, 27)) + 0j
        if "solve" in kinds:
            self.M = rng.normal(size=(160, 160))
        self.samples = []
        self._starts, self._ends = [], []
        self.last = time.perf_counter()

    def due(self) -> None:
        """Take a sample if CAL_INTERVAL_S have passed since the last one."""
        if time.perf_counter() - self.last >= CAL_INTERVAL_S:
            self()

    def __call__(self) -> float:
        t0 = time.perf_counter_ns()
        for kernel in self.kernels:
            kernel()
        t1 = time.perf_counter_ns()
        self.last = time.perf_counter()
        seconds = (t1 - t0) * 1e-9
        self.samples.append(seconds)
        self._starts.append(t0)
        self._ends.append(t1)
        return seconds

    def calibrate(self, intervals) -> float:
        """Sum of op times, each at the speed the samples around it show.

        Needs a sample before the first interval and one after the last.
        """
        total = 0.0
        for t0, t1 in intervals:
            before = self.samples[bisect.bisect_right(self._ends, t0) - 1]
            after = self.samples[bisect.bisect_left(self._starts, t1)]
            total += (t1 - t0) * 1e-9 * self.nominal / (0.5 * (before + after))
        return total

    def _loop(self):
        import numpy as np
        x = self.x0
        for _ in range(7000):
            x = x + 1e-3 * (self.A @ x)
            np.linalg.norm(x)

    def _stream(self):
        for _ in range(60):
            self.flat @ self.big
            self.big.T.copy()

    def _solve(self):
        import numpy as np
        for _ in range(40):
            np.linalg.solve(self.M, self.M)


def environment(args):
    import numpy as np
    import scipy
    from koopman_lab import carleman
    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads_pinned": BLAS_THREADS,
        "compiled_apply": getattr(carleman, "USE_COMPILED", None),
        "apply_kernel": "_carleman_cy.apply_blocks_sparse"
        if getattr(carleman, "USE_COMPILED", False)
        else "_carleman_py.apply_blocks",
        "commit": commit,
        "calibration_kernels": list(CAL_KERNELS[args.workload]),
        "calibration_nominal_s": CAL_NOMINAL_S
        * len(CAL_KERNELS[args.workload]),
    }


class Measurement:
    """Op intervals, item counts and per-pass tracers of one run."""

    def __init__(self):
        self.intervals = {False: [], True: []}   # keyed by "traced"
        self.tracers = []
        self.attempted = self.failed = 0
        self.messages = []


def measure(wl, seconds, trace, cal):
    """Run passes until `seconds` have elapsed, sampling the kernels between.

    Untraced runs time every pass.  Traced runs alternate an untraced and a
    traced pass, at least one of each, so the overhead is measured in one
    process; each traced pass gets its own tracer.
    """
    m = Measurement()
    start = time.perf_counter()
    cal()
    while True:
        traced = bool(trace) and \
            len(m.intervals[True]) < len(m.intervals[False])
        if traced:
            import tracing
            tracer = tracing.Tracer()
            m.tracers.append(tracer)
            tracer.install()
            wl.tracer = tracer
        try:
            intervals, n, bad, msgs = wl.run_pass(between=cal.due)
        finally:
            if traced:
                tracer.uninstall()
                wl.tracer = None
        m.intervals[traced].append(intervals)
        m.attempted += n
        m.failed += bad
        m.messages += msgs
        done = time.perf_counter() - start >= seconds
        if done and (not trace or m.intervals[True]):
            cal()
            return m


def per_layer(m, passes):
    """Median over traced passes of each per-layer metric.

    Each traced pass's times are scaled by that pass's calibration factor
    (calibrated over raw pass time).
    """
    import tracing
    per_pass = []
    for tracer, raw, wall in zip(m.tracers, passes["raw"][True],
                                 passes["wall"][True]):
        metrics = tracer.metrics(passes=1)
        per_pass.append({
            k: v * wall / raw if tracing.PER_LAYER[k][0] == "s" else v
            for k, v in metrics.items()})
    out = {k: statistics.median(p[k] for p in per_pass)
           for k in per_pass[0]}
    out["trace.overhead_s"] = statistics.median(passes["wall"][True]) - \
        statistics.median(passes["wall"][False])
    return {k: {"value": out[k], "unit": unit}
            for k, (unit, _) in tracing.PER_LAYER.items()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "koopman_lab" / "__init__.py").is_file():
        print(f"error: no koopman_lab sources under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    before = spin()
    wl, setup_raw = setup(args.workload, args.seed, workdir)
    setup_s = setup_raw * SPIN_NOMINAL_S / (0.5 * (before + spin()))
    try:
        if args.setup_probe:
            print(f"{setup_s:.9f} {setup_raw:.9f}")
            return 0
        probed, probed_raw = probe_setup(args)
        setup_times = [setup_s] + probed
        setup_raw_times = [setup_raw] + probed_raw
        cal = Calibration(CAL_KERNELS[args.workload])
        m = measure(wl, args.seconds, args.trace, cal)
    finally:
        wl.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for msg in m.messages[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    env = environment(args)
    passes = {
        "raw": {t: [sum(b - a for a, b in iv) * 1e-9 for iv in m.intervals[t]]
                for t in (False, True)},
        "wall": {t: [cal.calibrate(iv) for iv in m.intervals[t]]
                 for t in (False, True)},
    }
    env.update(pass_s=passes["raw"][False], wall_s=passes["wall"][False],
               traced_pass_s=passes["raw"][True],
               traced_wall_s=passes["wall"][True], setup_s=setup_times,
               setup_raw_s=setup_raw_times,
               calibration_s=cal.samples, attempted=m.attempted,
               failed=m.failed)
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        metrics = per_layer(m, passes)
        env["trace_missing"] = m.tracers[0].missing
        for name in m.tracers[0].missing:
            print(f"trace hook missing: {name}", file=sys.stderr)
        _write_spans(args, m.tracers)
    else:
        values = {
            "wall_s": statistics.median(passes["wall"][False]),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (m.attempted - m.failed) / m.attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"environment": env, "metrics": metrics}, indent=1))
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": m.failed == 0, "attempted": m.attempted,
                      "failed": m.failed, "metrics": metrics}))
    return 0


def _write_spans(args, tracers):
    import numpy as np
    arrays = {}
    for i, tracer in enumerate(tracers):
        arrays[f"pass{i}_names"] = np.array(tracer.names)
        for key, value in tracer.spans().items():
            arrays[f"pass{i}_{key}"] = value
    np.savez(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz",
             **arrays)


if __name__ == "__main__":
    sys.exit(main())
