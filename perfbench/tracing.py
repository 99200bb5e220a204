"""Span tracer that measures koopman_lab's layers from outside the library.

`Tracer.install()` replaces each traced public function with a wrapper that
records one span (name, start, end, parent) per call.  The replacement is
made at every place the function is looked up: its defining module and each
koopman_lab module that imported the name, e.g. `carleman.integrate_rhs` as
well as `polyflow.integrate_rhs`, and the class attribute for methods such
as `CarlemanOperator.apply`.  `Tracer.uninstall()` restores the originals.
A hook whose function no longer exists is listed in `Tracer.missing` and
skipped, so a renamed function shows up as missing rather than crashing.

Spans are appended to preallocated integer arrays and turned into metrics
only by `Tracer.metrics()`, after the timed passes.  Self time is a span's
duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter_ns

import numpy as np

RHS = "polyflow.rhs"
INTEGRATE = "polyflow.integrate"
APPLY = "carleman.apply"

# (span name, module, attribute path) for every traced public function.
# Functions sharing a span name are one layer boundary: for example both
# lifting routes count as `nip.evolve`.
HOOKS = (
    (INTEGRATE, "polyflow", "integrate_rhs"),
    (INTEGRATE, "polyflow", "integrate_reference"),
    (APPLY, "carleman", "CarlemanOperator.apply"),
    ("carleman.build", "carleman", "build_carleman"),
    ("nip.reference", "nip", "reference_y_trajectory"),
    ("nip.evolve", "nip", "nip_evolve"),
    ("nip.evolve", "nip", "vacancy_evolve"),
    ("population.scan", "population", "convergence_scan"),
    ("population.chaos", "population", "chaos_demo"),
    ("population.traj", "population", "trajectory_compare"),
    ("fermion.evolve", "fermion", "evolve_covariance"),
    ("fermion.steady", "fermion", "steady_state"),
    ("fermion.decay", "fermion", "decay_spectrum"),
    ("fermion.heat", "fermion", "heat_per_fermion"),
    ("fermion.heat", "fermion", "energy"),
    ("fermion.oracle", "fermion", "oracle_deviation"),
    ("fermion.oracle", "fermion", "exact_lindblad_oracle"),
    ("rsep.sweep", "rsep", "sweep"),
    ("rsep.sweep", "rsep", "haar_unitary"),
    ("rsep.residual", "rsep", "equivalence_residual"),
    ("rsep.residual", "rsep", "lifted_flow_residual"),
    ("spectral.window", "spectral", "kaiser_window"),
    ("spectral.window", "spectral", "qpe_distribution"),
    ("spectral.window", "spectral", "ideal_mode_distribution"),
    ("spectral.window", "spectral", "decode"),
    ("spectral.window", "spectral", "sample_outcomes"),
    ("spectral.emulate", "spectral", "emulate_spectral_qka"),
    ("spectral.history", "spectral", "history_system"),
    ("spectral.history", "spectral", "history_residuals"),
    ("cli", "cli", "run"),
)

MODULES = ("polyflow", "carleman", "nip", "population", "fermion", "rsep",
           "spectral", "cli")

CLI_COMMANDS = (
    "population-scan", "population-traj", "population-chaos",
    "carleman-error", "nip-error", "fermion-evolve", "fermion-heat",
    "fermion-decay", "fermion-steady", "fermion-oracle-check", "rsep-sweep",
    "spectral-window", "spectral-emulate", "spectral-sample", "ode-history",
)

VERDICTS = ("converged", "diverged", "pole-invalid")

COMPLEX_BYTES = 16
INDEX_BYTES = 8


def _per_layer():
    table = {
        "polyflow.integrate.calls": ("count", "lower"),
        "polyflow.integrate.self_s": ("s", "lower"),
        "polyflow.integrate.diverged": ("count", "lower"),
        "polyflow.rhs.calls": ("count", "lower"),
        "polyflow.rhs.s": ("s", "lower"),
        "carleman.build.calls": ("count", "lower"),
        "carleman.build.s": ("s", "lower"),
        "carleman.apply.calls": ("count", "lower"),
        "carleman.apply.s": ("s", "lower"),
        "carleman.apply.flop": ("flop", "lower"),
        "carleman.apply.bytes": ("B", "lower"),
        "carleman.lift_dim.max": ("count", "lower"),
        "nip.reference.calls": ("count", "lower"),
        "nip.reference.s": ("s", "lower"),
        "nip.evolve.calls": ("count", "lower"),
        "nip.evolve.s": ("s", "lower"),
        "nip.evolve.self_s": ("s", "lower"),
        "population.scan.s": ("s", "lower"),
        "population.cells": ("count", "higher"),
    }
    for route in ("carleman", "nip"):
        for verdict in VERDICTS:
            table[f"population.verdict.{route}.{verdict}"] = (
                "count", "higher" if verdict == "converged" else "lower")
    table.update({
        "population.chaos.s": ("s", "lower"),
        "population.traj.s": ("s", "lower"),
        "fermion.evolve.calls": ("count", "lower"),
        "fermion.evolve.s": ("s", "lower"),
        "fermion.evolve.rhs_calls": ("count", "lower"),
        "fermion.steady.s": ("s", "lower"),
        "fermion.decay.s": ("s", "lower"),
        "fermion.heat.s": ("s", "lower"),
        "fermion.oracle.calls": ("count", "lower"),
        "fermion.oracle.s": ("s", "lower"),
        "rsep.sweep.s": ("s", "lower"),
        "rsep.residual.calls": ("count", "lower"),
        "rsep.residual.s": ("s", "lower"),
        "spectral.window.s": ("s", "lower"),
        "spectral.emulate.calls": ("count", "lower"),
        "spectral.emulate.s": ("s", "lower"),
        "spectral.history.s": ("s", "lower"),
    })
    for cmd in CLI_COMMANDS:
        table[f"cli.{cmd}.s"] = ("s", "lower")
    table.update({
        "cli.self_s": ("s", "lower"),
        "cli.out_bytes": ("B", "lower"),
        "trace.overhead_s": ("s", "lower"),
        "trace.missing": ("count", "lower"),
    })
    return table


# per-layer metric name -> (unit, which direction is better); every traced
# run reports all of them, 0 where the workload does not reach the layer
PER_LAYER = _per_layer()


def apply_cost(dim: int, order: int, degrees, nnz=None) -> tuple:
    """Computed (flop, bytes) of one apply of the lifted operator.

    With `nnz` None this is the numpy kernel: for tensor degree k, output
    block i and each of its i positions, it contracts the (d, d^k)
    flattening with a (d^k, d^(i-1)) view of source block i+k-1 and adds the
    d^i result into the output block.  Bytes count one read of the source
    block and the flattening, and one read and one write of the output
    block, per position.

    With `nnz` (entries per degree) this is the compiled sparse kernel: per
    degree, block and position it reads each entry's row, column and value
    once and makes d^(i-1) multiply-adds, each reading one source element
    and reading and writing one output element.

    Complex multiply-adds count 8 real flops, complex adds 2.  Both kernels
    also zero the output vector.
    """
    d = dim
    flop = 0
    nbytes = COMPLEX_BYTES * sum(d**b for b in range(1, order + 1))
    for t, k in enumerate(degrees):
        for i in range(1, order - k + 2):
            if nnz is None:
                flop += i * (8 * d**(k + 1) * d**(i - 1) + 2 * d**i)
                nbytes += i * COMPLEX_BYTES * (d**(i + k - 1) + d**(k + 1)
                                               + 2 * d**i)
            else:
                terms = nnz[t] * d**(i - 1)
                flop += i * 8 * terms
                nbytes += i * (nnz[t] * (2 * INDEX_BYTES + COMPLEX_BYTES)
                               + 3 * COMPLEX_BYTES * terms)
    return flop, nbytes


def op_apply_cost(op, compiled: bool) -> tuple:
    """`apply_cost` of a CarlemanOperator for the kernel that runs it."""
    nnz = [int(r.shape[0]) for r in op._rows] if compiled else None
    return apply_cost(int(op.dim), int(op.order),
                      [int(k) for k in op.degrees], nnz)


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent's interval first, so overlapping or
    overhanging child spans are never subtracted twice.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    kids = np.nonzero(parent >= 0)[0]
    if kids.size == 0:
        return dur.astype(float)
    p = parent[kids]
    s = np.maximum(start[kids], start[p])
    e = np.maximum(np.minimum(end[kids], end[p]), s)
    order = np.lexsort((s, p))
    p, s, e = p[order], s[order], e[order]
    first = np.ones(p.size, dtype=bool)
    first[1:] = p[1:] != p[:-1]
    # running maximum of earlier ends within each parent's group: lift each
    # group above the previous one so the maximum never crosses groups
    group = np.cumsum(first) - 1
    base = start.min()
    offset = group * (int(end.max() - base) + 1)
    running = np.maximum.accumulate((e - base) + offset)
    prev_end = np.full(p.size, np.iinfo(np.int64).min)
    prev_end[1:] = running[:-1] - offset[1:] + base
    prev_end[first] = np.iinfo(np.int64).min
    covered = np.maximum(e - np.maximum(s, prev_end), 0)
    cover = np.zeros(dur.size, dtype=np.int64)
    np.add.at(cover, p, covered)
    return (dur - cover).astype(float)


class Tracer:
    """In-memory span recorder with patch-based hooks."""

    def __init__(self, capacity: int = 1 << 16):
        self.names: list = []
        self._ids: dict = {}
        self.n = 0
        self._cap = capacity
        self.nid = array("q", bytes(8 * capacity))
        self.t0 = array("q", bytes(8 * capacity))
        self.t1 = array("q", bytes(8 * capacity))
        self.par = array("q", bytes(8 * capacity))
        self.stack = [-1]
        self.counters: dict = {}
        self.applied_ops: list = []
        self.missing: list = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _grow(self) -> None:
        pad = bytes(8 * self._cap)
        for arr in (self.nid, self.t0, self.t1, self.par):
            arr.frombytes(pad)
        self._cap *= 2

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name, post=None):
        """Span-recording wrapper; `name` may be a callable of the arguments."""
        tr = self
        fixed = None if callable(name) else tr.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tr.n
            if i == tr._cap:
                tr._grow()
            tr.n = i + 1
            stack = tr.stack
            tr.par[i] = stack[-1]
            tr.nid[i] = fixed if fixed is not None else \
                tr.intern(name(args, kwargs))
            stack.append(i)
            tr.t0[i] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.t1[i] = perf_counter_ns()
                stack.pop()
            if post is not None:
                post(args, out)
            return out

        return traced

    # -- hooks ---------------------------------------------------------------

    def _hook(self, name: str, attr: str, original):
        if attr == "integrate_rhs":
            rhs_wrap = self.wrap

            def with_counted_rhs(rhs, *args, **kwargs):
                return original(rhs_wrap(rhs, RHS), *args, **kwargs)

            functools.update_wrapper(with_counted_rhs, original)
            return self.wrap(with_counted_rhs, INTEGRATE,
                             post=self._post_integrate)
        posts = {
            APPLY: self._post_apply,
            "carleman.build": self._post_build,
            "population.scan": self._post_scan,
        }
        if name == "cli":
            return self.wrap(original, _cli_span_name)
        return self.wrap(original, name, post=posts.get(name))

    def _post_integrate(self, args, traj):
        if getattr(traj, "diverged", False):
            self.count("polyflow.integrate.diverged")

    def _post_apply(self, args, out):
        self.applied_ops.append(args[0])

    def _post_build(self, args, op):
        dim = int(op.total_dim)
        if dim > self.counters.get("carleman.lift_dim.max", 0):
            self.counters["carleman.lift_dim.max"] = dim

    def _post_scan(self, args, res):
        self.count("population.cells", int(res.nip_verdict.size))
        for route, grid in (("carleman", res.carleman_verdict),
                            ("nip", res.nip_verdict)):
            for verdict in VERDICTS:
                self.count(f"population.verdict.{route}.{verdict}",
                           int(np.count_nonzero(grid == verdict)))

    def install(self) -> None:
        """Patch every hook at its defining module and all import sites."""
        if self._patches:
            return
        modules = {m: importlib.import_module(f"koopman_lab.{m}")
                   for m in MODULES}
        for name, mod, path in HOOKS:
            owner = modules[mod]
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{mod}.{path}")
                continue
            wrapped = self._hook(name, attr, original)
            sites = [owner] if outer else [
                m for m in modules.values()
                if getattr(m, attr, None) is original]
            for site in sites:
                self._patches.append((site, attr, original))
                setattr(site, attr, wrapped)

    def uninstall(self) -> None:
        for site, attr, original in reversed(self._patches):
            setattr(site, attr, original)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def spans(self) -> dict:
        n = self.n
        return {
            "name_id": np.frombuffer(self.nid, dtype=np.int64)[:n].copy(),
            "start_ns": np.frombuffer(self.t0, dtype=np.int64)[:n].copy(),
            "end_ns": np.frombuffer(self.t1, dtype=np.int64)[:n].copy(),
            "parent": np.frombuffer(self.par, dtype=np.int64)[:n].copy(),
        }

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics, each divided by the number of traced passes."""
        sp = self.spans()
        nid, parent = sp["name_id"], sp["parent"]
        dur = (sp["end_ns"] - sp["start_ns"]) * 1e-9
        own = self_times(sp["start_ns"], sp["end_ns"], parent) * 1e-9 \
            if nid.size else dur
        ids = {name: i for i, name in enumerate(self.names)}

        def mask(name):
            return nid == ids.get(name, -1)

        def outermost(m):
            # spans of a name not nested directly in a span of the same name
            up = np.where(parent >= 0, parent, 0)
            return m & ~((parent >= 0) & m[up])

        def under(m):
            # spans with an ancestor (or themselves) in m
            flag = m.copy()
            up = np.where(parent >= 0, parent, np.arange(parent.size))
            while True:
                nxt = flag | flag[up]
                if np.array_equal(nxt, flag):
                    return flag
                flag = nxt

        out = {}

        def layer(name, calls=True, total=True, self_s=False, key=None):
            key = key or name
            m = mask(name)
            top = outermost(m)
            if calls:
                out[f"{key}.calls"] = int(np.count_nonzero(top))
            if total:
                out[f"{key}.s"] = float(dur[top].sum())
            if self_s:
                out[f"{key}.self_s"] = float(own[m].sum())

        layer(INTEGRATE, total=False, self_s=True)
        rhs = mask(RHS)
        out[f"{RHS}.calls"] = int(np.count_nonzero(rhs))
        out[f"{RHS}.s"] = float(own[rhs].sum())
        layer("carleman.build")
        layer(APPLY)
        layer("nip.reference")
        layer("nip.evolve", self_s=True)
        layer("population.scan", calls=False)
        layer("population.chaos", calls=False)
        layer("population.traj", calls=False)
        layer("fermion.evolve")
        out["fermion.evolve.rhs_calls"] = int(np.count_nonzero(
            rhs & under(mask("fermion.evolve"))))
        layer("fermion.steady", calls=False)
        layer("fermion.decay", calls=False)
        layer("fermion.heat", calls=False)
        layer("fermion.oracle")
        layer("rsep.sweep", calls=False)
        layer("rsep.residual")
        layer("spectral.window", calls=False)
        layer("spectral.emulate")
        layer("spectral.history", calls=False)
        cli_ids = [i for i, name in enumerate(self.names)
                   if name.startswith("cli.")]
        cli = np.isin(nid, cli_ids)
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}.s"] = float(dur[mask(f"cli.{cmd}")].sum())
        out["cli.self_s"] = float(own[cli].sum())

        # the kernel is chosen once, when koopman_lab.carleman is imported
        compiled = bool(getattr(importlib.import_module(
            "koopman_lab.carleman"), "USE_COMPILED", False))
        flop = nbytes = 0
        costs = {}
        for op in self.applied_ops:
            key = id(op)
            if key not in costs:
                costs[key] = op_apply_cost(op, compiled)
            flop += costs[key][0]
            nbytes += costs[key][1]
        out["carleman.apply.flop"] = flop
        out["carleman.apply.bytes"] = nbytes
        for key in ("polyflow.integrate.diverged", "carleman.lift_dim.max",
                    "population.cells", "cli.out_bytes"):
            out[key] = self.counters.get(key, 0)
        for route in ("carleman", "nip"):
            for verdict in VERDICTS:
                key = f"population.verdict.{route}.{verdict}"
                out[key] = self.counters.get(key, 0)
        out = {k: (v / passes if k != "carleman.lift_dim.max" else v)
               for k, v in out.items()}
        out["trace.missing"] = len(self.missing)
        return out


def _cli_span_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv", ())
    return f"cli.{argv[0]}" if argv else "cli.none"
