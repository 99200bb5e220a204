"""Record the reference values the benchmark checks outputs against.

Run from the root of a checkout, on the commit whose outputs are the
reference:

    KOOPMAN_LAB_THREADS=2 python3 perfbench/make_reference.py

KOOPMAN_LAB_THREADS sets the library's worker processes for the full-grid
scan (one when unset).

It writes perfbench/reference.json with:

* scan: verdicts, the four eps values and the in-ball flag of every cell of
  criterion 04's 31 x 31 grid, so every seed's cells are covered;
* lift: eps_max of each lift run at the demo point and at each point of the
  seeded pool.  The pool holds the points [1, 1.4, x3] whose three lift runs
  take exactly as many lifted applies as at the demo point, so the seed
  changes the inputs but not the work of a pass;
* cli: printed values, row count and last CSV row of each subcommand whose
  inputs do not depend on the seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run  # pins BLAS before numpy is imported

HERE = run.HERE
POOL_X2 = 1.4
POOL_X3 = (1.0, 1.8)


def scan_reference():
    import numpy as np
    from koopman_lab import nip, population
    from workloads import AXIS, ORDERS, T_END
    model = population.paper_model()
    res = population.convergence_scan(model, orders=ORDERS, t_end=T_END,
                                      x2_range=AXIS, x3_range=AXIS,
                                      threads=None)
    rad = np.sqrt(nip.guaranteed_radius_squared(model))
    in_ball = [[bool(np.linalg.norm(nip.x_to_eta(model, [1.0, x2, x3]))
                     <= rad) for x3 in AXIS] for x2 in AXIS]
    out = {"in_ball": in_ball}
    for key in ("carleman_verdict", "nip_verdict", "eps_c_low",
                "eps_c_high", "eps_k_low", "eps_k_high"):
        out[key] = getattr(res, key).tolist()
    return out


def lift_point(x0):
    """eps_max and lifted-apply count of each lift run at x0."""
    import numpy as np
    import tracing
    from koopman_lab import nip, population
    from workloads import LIFT_RUNS, T_END
    model = population.paper_model()
    sample_times = np.linspace(0.0, T_END, 129)
    ref = nip.reference_y_trajectory(model, x0, T_END,
                                     sample_times=sample_times)
    point, applies = {"x0": list(x0)}, []
    for route, order in LIFT_RUNS:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run_ = getattr(nip, f"{route}_evolve")(
                model, np.array(x0), order, T_END, 1e-10, sample_times, ref)
        finally:
            tracer.uninstall()
        point[f"{route}{order}"] = float(run_.eps_max)
        applies.append(tracer.metrics(1)["carleman.apply.calls"])
    return point, applies


def lift_reference():
    from workloads import AXIS, DEMO_X0
    demo, want = lift_point(DEMO_X0)
    pool = []
    for x3 in AXIS:
        x0 = (1.0, POOL_X2, float(x3))
        if not POOL_X3[0] <= x3 <= POOL_X3[1] + 1e-9 or \
                abs(x3 - DEMO_X0[2]) < 1e-9:
            continue
        point, applies = lift_point(x0)
        print(f"lift pool candidate {x0}: applies {applies}", file=sys.stderr)
        if applies == want:
            pool.append(point)
    return {"demo": demo, "pool": pool, "applies": want}


def cli_reference():
    import workloads
    workdir = run.ROOT / ".bench_work" / f"reference-{os.getpid()}"
    wl = workloads.CliWorkload(0, None, workdir)
    out = {}
    try:
        for op in wl.ops:
            if op.label in workloads.DETERMINISTIC:
                cmd, code, text, path = op.call()
                if code != 0:
                    raise RuntimeError(f"{cmd} exited with {code}")
                out[cmd] = wl.summary(workloads.parse_printed(text), path)
    finally:
        wl.close()
    return out


def main():
    sys.path[:0] = [str(run.SRC), str(HERE)]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    reference = {"commit": commit, "cli": cli_reference(),
                 "lift": lift_reference(),
                 "scan": scan_reference()}
    with open(HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
