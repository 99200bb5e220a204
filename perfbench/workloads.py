"""The four benchmark workloads: seeded inputs, operations and output checks.

A workload is a fixed list of operations built from the seed at set-up.  One
pass runs them in order, each starting when the previous one returns (a
closed loop driven by one process), and times only the library calls.  Every
output is checked after the pass, outside the timed region, against
reference values recorded from this tree by `make_reference.py` or against
a closed form the checker computes itself.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov

from koopman_lab import cli, fermion, nip, population

# criterion 04's initial-condition axis, 0.5:2.0:0.05
AXIS = np.arange(0.5, 2.0 + 1e-9, 0.05)
SCAN_SIDE = 8
ORDERS = (1, 3)
T_END = 0.1
DEMO_X0 = (1.0, 1.4, 1.4)
LIFT_RUNS = (("nip", 8), ("nip", 10), ("vacancy", 8))
FERMION_NS = (8, 16, 24)
FERMION_SYSTEMS = 3
CLI_GRID = "1.3:1.45:0.05"

REL_TOL = 1e-6
ABS_TOL = 1e-9
GAMMA_TOL = 1e-8
LYAPUNOV_TOL = 1e-10
CONVERGED_FLOOR = 1e-8   # population._verdict: errors at machine zero


def close(value, ref, rel=REL_TOL, floor=ABS_TOL) -> bool:
    """Equal within rel relative tolerance and an absolute floor; inf == inf."""
    value, ref = float(value), float(ref)
    if math.isnan(ref) or math.isinf(ref):
        return value == ref or (math.isnan(value) and math.isnan(ref))
    return abs(value - ref) <= max(rel * abs(ref), floor)


def near_tie(low, high) -> bool:
    """The reference verdict sits within tolerance of flipping."""
    if not (math.isfinite(low) and math.isfinite(high)):
        return False
    tol = max(REL_TOL * max(abs(low), abs(high)), ABS_TOL)
    return abs(high - low) <= tol or abs(high - CONVERGED_FLOOR) <= tol


def scan_cell_failures(ref, a, b, verdicts, eps) -> list:
    """Check one scan cell against the reference grid at axis indices (a, b).

    verdicts is (carleman, nip); eps is (c_low, c_high, k_low, k_high).
    """
    bad = []
    keys = ("eps_c_low", "eps_c_high", "eps_k_low", "eps_k_high")
    for key, value in zip(keys, eps):
        if not close(value, ref[key][a][b]):
            bad.append(f"{key} {value!r} != {ref[key][a][b]!r}")
    for route, value, lo, hi in (
            ("carleman", verdicts[0], "eps_c_low", "eps_c_high"),
            ("nip", verdicts[1], "eps_k_low", "eps_k_high")):
        want = ref[f"{route}_verdict"][a][b]
        if value != want and not near_tie(ref[lo][a][b], ref[hi][a][b]):
            bad.append(f"{route} verdict {value} != {want}")
    if ref["in_ball"][a][b] and verdicts[1] != "converged":
        bad.append(f"in-ball cell verdict {verdicts[1]}")
    if not bad:
        return []
    return [f"cell ({AXIS[a]:.2f}, {AXIS[b]:.2f}): " + "; ".join(bad)]


@dataclass
class Op:
    """One timed library call; check(output) lists failures over `items`."""

    label: str
    call: object
    check: object
    items: int = 1


class Workload:
    """A seeded operation list; `run_pass` times it and checks the outputs."""

    name = ""

    def __init__(self):
        self.ops: list = []
        self.tracer = None

    def run_pass(self, between=None):
        """Returns (op intervals, attempted, failed, messages).

        The intervals are the (start, end) perf_counter_ns of each library
        call, in order.  `between()`, when given, is called after each
        operation, outside the timed region.  An item fails once however
        many of its checks fail.
        """
        outputs, intervals = [], []
        for op in self.ops:
            t0 = perf_counter_ns()
            try:
                out, err = op.call(), None
            except Exception as exc:  # a raising operation counts as failed
                out, err = None, f"{type(exc).__name__}: {exc}"
            intervals.append((t0, perf_counter_ns()))
            outputs.append((out, err))
            if between is not None:
                between()
        attempted, failed, messages = 0, 0, []
        for op, (out, err) in zip(self.ops, outputs):
            attempted += op.items
            if err is None:
                try:
                    bad = op.check(out)
                except Exception as exc:  # a malformed output is a failure
                    bad, err = [], f"check raised {exc!r}"
            if err is not None:
                bad = [err] * op.items
            failed += min(len(bad), op.items)
            messages += [f"{op.label}: {msg}" for msg in bad]
        return intervals, attempted, failed, messages

    def close(self):
        pass


# ---------------------------------------------------------------------------
# scan

def stratified_indices(rng):
    """One axis index from each of SCAN_SIDE contiguous strata of the axis.

    Cell cost varies across the grid (diverged runs stop early), and a plain
    draw without replacement lets the seed move the pass time by about 11 %
    (quartile spread over seeds); one draw per stratum brings it to about
    4 %, so the seed changes which cells run, not how much work a pass is.
    """
    edges = np.linspace(0, AXIS.size, SCAN_SIDE + 1).astype(int)
    return np.array([rng.integers(lo, hi)
                     for lo, hi in zip(edges[:-1], edges[1:])])


class ScanWorkload(Workload):
    """Criterion 04's convergence scan on a seeded 8 x 8 subset of its grid."""

    name = "scan"

    def __init__(self, seed, reference, workdir):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.ia = stratified_indices(rng)
        self.ib = stratified_indices(rng)
        self.ref = reference["scan"]
        model = population.paper_model()
        x3 = AXIS[self.ib]
        # one call per x2 row: the same 64 cells, with room between calls
        # for the run's speed calibration to sample the host about once a
        # second instead of once per 8 s pass
        for a in self.ia:
            def call(x2=AXIS[[a]]):
                return population.convergence_scan(
                    model, x2_range=x2, x3_range=x3, orders=ORDERS,
                    t_end=T_END, threads=1)

            self.ops.append(Op(f"convergence_scan x2={AXIS[a]:.2f}", call,
                               lambda res, a=a: self.check(a, res),
                               items=SCAN_SIDE))

    def check(self, a, res):
        bad = []
        for j, b in enumerate(self.ib):
            bad += scan_cell_failures(
                self.ref, a, b,
                (res.carleman_verdict[0, j], res.nip_verdict[0, j]),
                (res.eps_c_low[0, j], res.eps_c_high[0, j],
                 res.eps_k_low[0, j], res.eps_k_high[0, j]))
        return bad


# ---------------------------------------------------------------------------
# lift

class LiftWorkload(Workload):
    """High-order lifts at the demo point and one seeded point of the pool."""

    name = "lift"

    def __init__(self, seed, reference, workdir):
        super().__init__()
        rng = np.random.default_rng(seed)
        ref = reference["lift"]
        pool = ref["pool"]
        points = [ref["demo"], pool[int(rng.integers(len(pool)))]]
        model = population.paper_model()
        sample_times = np.linspace(0.0, T_END, 129)
        shared = {}
        for p, point in enumerate(points):
            x0 = np.array(point["x0"])

            def reference_call(x0=x0, p=p):
                shared[p] = nip.reference_y_trajectory(
                    model, x0, T_END, sample_times=sample_times)
                return shared[p]

            self.ops.append(Op(f"reference {point['x0']}", reference_call,
                               self.check_reference))
            for route, order in LIFT_RUNS:
                # looked up at call time, so traced passes see the wrapper
                def call(x0=x0, p=p, name=f"{route}_evolve", order=order):
                    return getattr(nip, name)(model, x0, order, T_END, 1e-10,
                                              sample_times, shared[p]).eps_max

                want = point[f"{route}{order}"]
                self.ops.append(Op(
                    f"{route}_evolve order {order} at {point['x0']}", call,
                    lambda eps, want=want: [] if close(eps, want)
                    else [f"eps_max {eps!r} != {want!r}"]))

    @staticmethod
    def check_reference(traj):
        if traj.diverged or traj.times.size != 129 or \
                not np.all(np.isfinite(traj.states)):
            return ["reference trajectory incomplete"]
        return []


# ---------------------------------------------------------------------------
# fermion

def random_system(N, rng):
    """Random antisymmetric h with one random complex jump vector per mode."""
    n2 = 2 * N
    M = rng.normal(size=(n2, n2))
    h = (M - M.T) / 2.0
    jumps = [0.5 * (rng.normal(size=n2) + 1j * rng.normal(size=n2))
             for _ in range(N)]
    return fermion.FermionSystem(N, h, jumps)


def random_pure_covariance(N, rng):
    """Q (+)_k [[0, 1], [-1, 0]] Q^T for a random orthogonal Q."""
    Q, _ = np.linalg.qr(rng.normal(size=(2 * N, 2 * N)))
    J = np.kron(np.eye(N), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    G = Q @ J @ Q.T
    return (G - G.T) / 2.0


def closed_form_gamma(B, Y, gamma0, t):
    """e^{Bt}(Gamma0 - Gamma_ss)e^{B^T t} + Gamma_ss, Gamma_ss from Lyapunov."""
    ss = solve_continuous_lyapunov(B, -Y)
    E = expm(B * t)
    return E @ (gamma0 - ss) @ E.T + ss


def gamma_failures(G, want, label="Gamma"):
    bad = []
    if np.max(np.abs(G + G.T)) > 1e-12:
        bad.append(f"{label} not antisymmetric")
    gap = float(np.max(np.abs(G - want)))
    if gap > GAMMA_TOL:
        bad.append(f"{label} off the closed form by {gap:.3e}")
    return bad


def energy(h, G):
    return -float(np.trace(h @ G)) / 4.0


def decay_failures(gammas, gamma0, gap, rates, weights):
    """Commuting system: nu = gamma_k / 2 twice per mode, gap = min gamma."""
    bad = []
    nus = np.repeat(np.asarray(gammas) / 2.0, 2)
    want_rates = np.sort((nus[:, None] + nus[None, :]).ravel())
    if not close(gap, np.min(gammas), rel=1e-10, floor=1e-12):
        bad.append(f"gap {gap!r} != {np.min(gammas)!r}")
    if np.max(np.abs(np.sort(rates) - want_rates)) > 1e-10:
        bad.append("rates differ from nu_k + nu_l")
    if abs(np.sum(weights) - np.sum(gamma0**2)) > 1e-10:
        bad.append("weights do not sum to |Gamma0|_F^2")
    return bad


class FermionWorkload(Workload):
    """Covariance evolution, steady state, heat and decay at N = 8, 16, 24."""

    name = "fermion"

    def __init__(self, seed, reference, workdir):
        super().__init__()
        rng = np.random.default_rng(seed)
        for N in FERMION_NS:
            for s in range(FERMION_SYSTEMS):
                self._add_system(random_system(N, rng),
                                 random_pure_covariance(N, rng), f"N={N}#{s}")
            omegas = rng.uniform(0.5, 2.0, size=N)
            gammas = rng.uniform(0.5, 1.5, size=N)
            comm = fermion.FermionSystem(
                N, *fermion.commuting_example(N, omegas, gammas))
            g0 = random_pure_covariance(N, rng)
            state = fermion.CovarianceState(g0)

            def decay(comm=comm, state=state):
                spec = fermion.decay_spectrum(comm, state)
                return spec.gap, spec.rates, spec.weights

            self.ops.append(Op(
                f"decay_spectrum N={N}", decay,
                lambda out, gammas=gammas, g0=g0: decay_failures(
                    gammas, g0, *out)))

    def _add_system(self, sys_, g0, label):
        state = fermion.CovarianceState(g0)
        closed = {}

        def want():
            if not closed:
                closed["G1"] = closed_form_gamma(sys_.B, sys_.Y, g0, 1.0)
                closed["ss"] = solve_continuous_lyapunov(sys_.B, -sys_.Y)
            return closed

        def check_evolve(G):
            return gamma_failures(G, want()["G1"])

        def check_steady(G):
            bad = gamma_failures(G, want()["ss"], "steady state")
            resid = float(np.max(np.abs(sys_.B @ G + G @ sys_.B.T + sys_.Y)))
            if resid > LYAPUNOV_TOL:
                bad.append(f"Lyapunov residual {resid:.3e}")
            return bad

        def check_heat(heat):
            target = (energy(sys_.h, g0) - energy(sys_.h, want()["G1"])) \
                / sys_.N
            return [] if close(heat, target, floor=GAMMA_TOL) \
                else [f"heat {heat!r} != {target!r}"]

        self.ops += [
            Op(f"evolve_covariance {label}",
               lambda: fermion.evolve_covariance(sys_, state, 1.0)[0].Gamma,
               check_evolve),
            Op(f"steady_state {label}",
               lambda: fermion.steady_state(sys_).Gamma, check_steady),
            Op(f"heat_per_fermion {label}",
               lambda: fermion.heat_per_fermion(sys_, state, 1.0),
               check_heat),
        ]


# ---------------------------------------------------------------------------
# cli

SPECTRAL_MODES = [[0.0, 0.7, 0.6, 0.0], [0.0, -1.3, 0.5, 0.0],
                  [1.0, 0.1, 0.4, 0.0], [2.0, 0.2, 0.3, 0.0],
                  [3.0, 0.3, 0.2, 0.0]]

# commands whose inputs do not depend on the seed; their printed values and
# last CSV row are compared with reference.json
DETERMINISTIC = ("population-traj", "population-chaos", "carleman-error",
                 "nip-error", "fermion-oracle-check", "spectral-window",
                 "spectral-emulate")


def fermion_json(sys_):
    n2 = 2 * sys_.N
    return {"N": sys_.N,
            "h": [[i, j, float(sys_.h[i, j])]
                  for i in range(n2) for j in range(i + 1, n2)
                  if sys_.h[i, j] != 0.0],
            "jumps": [[[float(v.real), float(v.imag)] for v in l]
                      for l in sys_.jumps]}


def parse_printed(text):
    """`key=value` tokens of a command's standard output, in order."""
    return [list(token.partition("=")[::2]) for token in text.split()
            if "=" in token]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def upper_triangle(rows, n2):
    G = np.zeros((n2, n2))
    for i, j, value in rows[1:]:
        G[int(i), int(j)] = float(value)
        G[int(j), int(i)] = -float(value)
    return G


def replicate_random_antisymmetric(n2, seed):
    """The CLI's seeded initial covariance, rebuilt independently."""
    M = np.random.default_rng(seed).normal(size=(n2, n2))
    return (M - M.T) / 2.0


class CliWorkload(Workload):
    """All 15 subcommands once per pass, in-process through `cli.run`."""

    name = "cli"

    def __init__(self, seed, reference, workdir):
        super().__init__()
        self.seed = int(seed)
        self.ref = reference
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.digests = {}
        rng = np.random.default_rng(seed)
        self.fsys = random_system(8, rng)
        self.gammas = rng.uniform(0.5, 1.5, size=4)
        comm = fermion.FermionSystem(
            4, *fermion.commuting_example(4, rng.uniform(0.5, 2.0, size=4),
                                          self.gammas))
        self.points = [{"d": int(rng.integers(3, 6)),
                        "beta": float(rng.uniform(2.0, 10.0)),
                        "gamma": 0.0, "delta": float(rng.uniform(0.05, 0.3)),
                        "seed": int(rng.integers(1, 2**31))}
                       for _ in range(3)]
        for point in self.points:
            point["gamma"] = point["beta"] * float(rng.uniform(1.5, 3.0))
        lam = -0.5 * rng.random(4) - 0.1
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        self.A = Q @ np.diag(lam) @ Q.T
        self.A = (self.A + self.A.T) / 2.0
        self.x0 = rng.normal(size=4)
        self.hist = {"A": self.A.tolist(), "x0": self.x0.tolist(), "m": 8,
                     "p": 8, "l": 10, "h": float(0.9 / np.max(np.abs(lam)))}
        configs = {
            "fermion.json": {"system": fermion_json(self.fsys)},
            "commuting.json": {"system": fermion_json(comm)},
            "rsep.json": {"points": self.points},
            "spectral.json": {"modes": SPECTRAL_MODES, "n_samples": 1000},
            "history.json": self.hist,
        }
        for name, payload in configs.items():
            (self.dir / name).write_text(json.dumps(payload))
        s = str(self.seed)
        commands = [
            ("population-scan", ["--grid", CLI_GRID, "--threads", "1"]),
            ("population-traj", []),
            ("population-chaos", []),
            ("carleman-error", []),
            ("nip-error", []),
            ("fermion-evolve", ["--config", "fermion.json", "--seed", s]),
            ("fermion-heat", ["--config", "fermion.json", "--seed", s]),
            ("fermion-decay", ["--config", "commuting.json", "--seed", s]),
            ("fermion-steady", ["--config", "fermion.json"]),
            ("fermion-oracle-check", None),
            ("rsep-sweep", ["--config", "rsep.json"]),
            ("spectral-window", []),
            ("spectral-emulate", ["--config", "spectral.json"]),
            ("spectral-sample", ["--config", "spectral.json", "--seed", s]),
            ("ode-history", ["--config", "history.json"]),
        ]
        for cmd, extra in commands:
            argv = [cmd]
            out = None
            if extra is not None:
                out = str(self.dir / f"{cmd}.csv")
                argv += ["--out", out] + [
                    str(self.dir / a) if a.endswith(".json") else a
                    for a in extra]
            check = getattr(self, "check_" + cmd.replace("-", "_"),
                            self.check_default)
            self.ops.append(Op(cmd, self._caller(argv, out), check))

    def _caller(self, argv, out):
        def call():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(argv)
            size = os.path.getsize(out) if out and os.path.exists(out) else 0
            if self.tracer is not None:
                self.tracer.count("cli.out_bytes", size)
            return argv[0], code, stdout.getvalue(), out
        return call

    @staticmethod
    def summary(printed, out):
        """Printed values and last CSV row, the record kept as reference."""
        rows = read_csv(out) if out else []
        return {"printed": printed, "rows": len(rows),
                "last_row": rows[-1] if rows else []}

    def _common(self, result):
        cmd, code, text, out = result
        if code != 0:
            return None, [f"exit code {code}"]
        bad = []
        if out:
            digest = hashlib.sha256(Path(out).read_bytes()).hexdigest()
            if self.digests.setdefault(cmd, digest) != digest:
                bad.append("output bytes differ from the first pass")
        printed = parse_printed(text)
        if cmd in DETERMINISTIC:
            want = self.ref["cli"][cmd]
            got = self.summary(printed, out)
            if got["rows"] != want["rows"]:
                bad.append(f"{got['rows']} CSV rows, want {want['rows']}")
            if len(printed) != len(want["printed"]) or not all(
                    k == wk and _values_close(v, wv) for (k, v), (wk, wv)
                    in zip(printed, want["printed"])):
                bad.append(f"printed {printed} != {want['printed']}")
            if not all(_values_close(a, b) for a, b in
                       zip(got["last_row"], want["last_row"])):
                bad.append(f"last row {got['last_row']} != "
                           f"{want['last_row']}")
        return printed, bad

    def _checked(self, result, extra=None):
        printed, bad = self._common(result)
        if printed is not None and extra is not None and not bad:
            bad += extra(dict(printed), result[3])
        return bad

    # -- per-command checks ----------------------------------------------------

    def check_population_scan(self, result):
        def cells(printed, out):
            bad = []
            for row in read_csv(out)[1:]:
                a = int(round((float(row[0]) - AXIS[0]) / 0.05))
                b = int(round((float(row[1]) - AXIS[0]) / 0.05))
                bad += scan_cell_failures(self.ref["scan"], a, b, row[2:4],
                                          [float(v) for v in row[4:8]])
            return bad
        return self._checked(result, cells)

    def check_fermion_evolve(self, result):
        def gamma(printed, out):
            n2 = 2 * self.fsys.N
            g0 = replicate_random_antisymmetric(n2, self.seed)
            want = closed_form_gamma(self.fsys.B, self.fsys.Y, g0, 1.0)
            return gamma_failures(upper_triangle(read_csv(out), n2), want)
        return self._checked(result, gamma)

    def check_fermion_heat(self, result):
        def heat(printed, out):
            sys_ = self.fsys
            g0 = replicate_random_antisymmetric(2 * sys_.N, self.seed)
            rows = read_csv(out)[1:]
            worst = 0.0
            for t, value in rows:
                G = closed_form_gamma(sys_.B, sys_.Y, g0, float(t))
                want = (energy(sys_.h, g0) - energy(sys_.h, G)) / sys_.N
                worst = max(worst, abs(float(value) - want))
            if len(rows) != 129 or worst > GAMMA_TOL:
                return [f"heat curve off the closed form by {worst:.3e}"]
            return []
        return self._checked(result, heat)

    def check_fermion_decay(self, result):
        def decay(printed, out):
            rows = read_csv(out)[1:]
            g0 = replicate_random_antisymmetric(8, self.seed)
            return decay_failures(self.gammas, g0, float(printed["gap"]),
                                  [float(r[2]) for r in rows],
                                  [float(r[3]) for r in rows])
        return self._checked(result, decay)

    def check_fermion_steady(self, result):
        def steady(printed, out):
            sys_ = self.fsys
            G = upper_triangle(read_csv(out), 2 * sys_.N)
            bad = gamma_failures(
                G, solve_continuous_lyapunov(sys_.B, -sys_.Y), "steady state")
            resid = float(np.max(np.abs(sys_.B @ G + G @ sys_.B.T + sys_.Y)))
            if resid > LYAPUNOV_TOL:
                bad.append(f"Lyapunov residual {resid:.3e}")
            return bad
        return self._checked(result, steady)

    def check_rsep_sweep(self, result):
        def sweep(printed, out):
            bad = []
            for row, point in zip(read_csv(out)[1:], self.points):
                beta, gamma, delta = point["beta"], point["gamma"], \
                    point["delta"]
                r_x, r_eta, resid = (float(v) for v in row[5:8])
                if abs(r_eta - 2.0 / (beta + 1.0)) > 1e-10:
                    bad.append(f"R_eta {r_eta!r} != 2/(beta+1)")
                if r_x < gamma * beta / delta + beta**2 + 1.0:
                    bad.append(f"R_x {r_x!r} below its lower bound")
                if not resid <= 1e-8:
                    bad.append(f"equivalence residual {resid!r}")
            return bad
        return self._checked(result, sweep)

    def check_spectral_sample(self, result):
        def counts(printed, out):
            # same modes as spectral-emulate; only the sampled counts differ
            bad = []
            tv = dict(self.ref["cli"]["spectral-emulate"]["printed"])["tv"]
            if not _values_close(printed["tv"], tv):
                bad.append(f"tv {printed['tv']} != {tv}")
            total = sum(int(r[5]) for r in read_csv(out)[1:])
            if total != 1000:
                bad.append(f"{total} samples, want 1000")
            return bad
        return self._checked(result, counts)

    def check_ode_history(self, result):
        def history(printed, out):
            h, m, l = self.hist["h"], self.hist["m"], self.hist["l"]
            T = np.eye(4)
            term = np.eye(4)
            for r in range(1, l + 1):
                term = term @ self.A * (h / r)
                T = T + term
            y = np.linalg.matrix_power(T, m) @ self.x0
            want = float(np.linalg.norm(y - expm(self.A * m * h) @ self.x0))
            bad = []
            if not float(printed["recurrence_residual"]) <= 1e-10:
                bad.append("recurrence residual above 1e-10")
            if not close(float(printed["final_error"]), want, rel=1e-6,
                         floor=1e-14):
                bad.append(f"final_error {printed['final_error']} != {want}")
            return bad
        return self._checked(result, history)

    def check_default(self, result):
        return self._checked(result)

    def close(self):
        for path in self.dir.iterdir():
            path.unlink()
        self.dir.rmdir()


def _values_close(got, want) -> bool:
    """Printed/CSV strings: numbers within tolerance, other tokens equal."""
    try:
        return close(float(got), float(want))
    except ValueError:
        return got == want


WORKLOADS = {w.name: w for w in (ScanWorkload, LiftWorkload, FermionWorkload,
                                 CliWorkload)}
