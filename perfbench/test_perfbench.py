"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from koopman_lab import carleman, nip, polyflow, population  # noqa: E402


@pytest.fixture()
def tracer():
    tr = tracing.Tracer(capacity=4)  # small, so the storage has to grow
    yield tr
    tr.uninstall()


def test_self_time_of_a_synthetic_nest():
    # root [0, 100] holds A [10, 40] and B [30, 60], which overlap, and C
    # [90, 120], which overhangs the root; A holds D [15, 20]
    start = [0, 10, 15, 30, 90]
    end = [100, 40, 20, 60, 120]
    parent = [-1, 0, 1, 0, 0]
    own = tracing.self_times(start, end, parent)
    # root: 100 - |[10, 60] u [90, 100]| = 40
    assert own.tolist() == [40.0, 25.0, 5.0, 30.0, 30.0]


def test_self_time_of_two_roots_with_disjoint_children():
    start = [0, 1, 3, 10, 11]
    end = [5, 2, 4, 20, 19]
    parent = [-1, 0, 0, -1, 3]
    assert tracing.self_times(start, end, parent).tolist() == \
        [3.0, 1.0, 1.0, 2.0, 8.0]


def test_calibration_rescales_each_operation_by_its_own_samples():
    cal = run.Calibration(())
    cal.nominal = 1.0
    # samples of 1 s, 2 s and 4 s taken at [0, 10], [100, 110], [300, 310] ns
    cal.samples, cal._starts, cal._ends = [1.0, 2.0, 4.0], [0, 100, 300], \
        [10, 110, 310]
    # [20, 60] lies between the first two samples, [120, 280] and
    # [290, 295] between the last two
    ops = [(20, 60), (120, 280), (290, 295)]
    want = (40 / 1.5 + 160 / 3.0 + 5 / 3.0) * 1e-9
    assert cal.calibrate(ops) == pytest.approx(want, rel=1e-12)


def test_apply_cost_matches_hand_count_at_order_3(tracer):
    op = carleman.build_carleman(nip.koopman_system(population.paper_model()),
                                 3)
    assert (op.dim, op.order, list(op.degrees)) == (3, 3, [1, 2])
    # flop per position: 8 d^(k+1) d^(i-1) + 2 d^i, times i positions
    #   k=1: i=1: 1*(72+6)  i=2: 2*(216+18)  i=3: 3*(648+54)
    #   k=2: i=1: 1*(216+6) i=2: 2*(648+18)
    flop = 78 + 468 + 2106 + 222 + 1332
    # bytes: zeroing 16*39, then per position 16*(src + flat + 2*dst)
    #   k=1: 1*16*(3+9+6)  2*16*(9+9+18)  3*16*(27+9+54)
    #   k=2: 1*16*(9+27+6) 2*16*(27+27+18)
    nbytes = 624 + 288 + 1152 + 4320 + 672 + 2304
    assert tracing.apply_cost(3, 3, [1, 2]) == (flop, nbytes)
    tracer.install()
    g = carleman.initial_lift(np.array([0.1, 0.2, 0.3]), 3).data
    op.apply(g)
    op.apply(g)
    m = tracer.metrics(passes=2)
    assert m["carleman.apply.calls"] == 1
    assert (m["carleman.apply.flop"], m["carleman.apply.bytes"]) == \
        (flop, nbytes)


def test_compiled_apply_cost_matches_hand_count_at_order_3(tracer,
                                                         monkeypatch):
    op = carleman.build_carleman(nip.koopman_system(population.paper_model()),
                                 3)
    nnz = [int(r.shape[0]) for r in op._rows]
    assert nnz == [3, 18]
    # multiply-adds nnz_k d^(i-1) per position, times i positions
    #   k=1: i=1: 1*3   i=2: 2*9    i=3: 3*27
    #   k=2: i=1: 1*18  i=2: 2*54
    terms = 3 + 18 + 81 + 18 + 108
    # bytes: zeroing 16*39, 48 per multiply-add (source read, output read
    # and write), 32 per entry per position (row, column, value)
    nbytes = 16 * 39 + 48 * terms + 32 * (6 * 3 + 3 * 18)
    assert tracing.apply_cost(3, 3, [1, 2], nnz) == (8 * terms, nbytes)
    tracer.install()
    op.apply(carleman.initial_lift(np.array([0.1, 0.2, 0.3]), 3).data)
    # the cost follows the kernel the library selected at import
    monkeypatch.setattr(carleman, "USE_COMPILED", True)
    m = tracer.metrics(passes=1)
    assert (m["carleman.apply.flop"], m["carleman.apply.bytes"]) == \
        (8 * terms, nbytes)


CLI_SLICE = ("nip-error", "fermion-evolve", "rsep-sweep", "spectral-sample")


def _outputs(traced, workdir):
    """Library outputs of a small slice of the workloads, traced or not."""
    tr = tracing.Tracer()
    cli = workloads.CliWorkload(3, None, workdir)
    if traced:
        tr.install()
        cli.tracer = tr
    try:
        rng = np.random.default_rng(3)
        x2 = workloads.AXIS[workloads.stratified_indices(rng)[:2]]
        x3 = workloads.AXIS[workloads.stratified_indices(rng)[-2:]]
        res = population.convergence_scan(
            population.paper_model(), x2_range=x2, x3_range=x3,
            orders=workloads.ORDERS, t_end=workloads.T_END, threads=1)
        fer = workloads.FermionWorkload(3, None, None)
        fer_out = [op.call() for op in fer.ops[:9]]  # N = 8 systems
        out = [res.carleman_verdict, res.nip_verdict, res.eps_c_low,
               res.eps_c_high, res.eps_k_low, res.eps_k_high] + fer_out
        for op in cli.ops:
            if op.label in CLI_SLICE:
                cmd, code, text, path = op.call()
                out += [code, text, Path(path).read_bytes()]
    finally:
        tr.uninstall()
        cli.close()
    return out, tr


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    plain, _ = _outputs(traced=False, workdir=tmp_path / "plain")
    traced, tr = _outputs(traced=True, workdir=tmp_path / "traced")
    assert len(plain) == len(traced) == 6 + 9 + 3 * len(CLI_SLICE)
    for a, b in zip(plain, traced):
        if isinstance(a, (bytes, str, int)):
            assert a == b
            continue
        a, b = np.asarray(a), np.asarray(b)
        if a.dtype == object:
            assert a.tolist() == b.tolist()
        else:
            assert np.array_equal(a, b, equal_nan=True)
    m = tr.metrics(passes=1)
    assert m["population.cells"] == 4
    assert m["carleman.apply.calls"] > 1000
    assert m["fermion.evolve.calls"] == 7 and m["fermion.evolve.rhs_calls"] > 0
    assert m["rsep.residual.calls"] == 3 and m["cli.out_bytes"] > 0
    assert m["polyflow.rhs.calls"] > m["carleman.apply.calls"]
    assert sum(m[f"population.verdict.nip.{v}"]
               for v in tracing.VERDICTS) == 4


def test_uninstall_restores_every_site(tracer):
    before = (polyflow.integrate_rhs, carleman.integrate_rhs,
              nip.evolve_lifted, carleman.CarlemanOperator.apply,
              population.nip_evolve)
    tracer.install()
    assert carleman.integrate_rhs is not before[1]
    assert nip.evolve_lifted is before[2]  # not a traced function
    assert population.nip_evolve is nip.nip_evolve is not before[4]
    tracer.uninstall()
    assert (polyflow.integrate_rhs, carleman.integrate_rhs,
            nip.evolve_lifted, carleman.CarlemanOperator.apply,
            population.nip_evolve) == before


def test_missing_hook_is_reported_not_fatal(tracer, monkeypatch):
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (
        ("nip.evolve", "nip", "renamed_evolve"),
        ("carleman.apply", "carleman", "GoneOperator.apply")))
    tracer.install()
    assert tracer.missing == ["nip.renamed_evolve",
                              "carleman.GoneOperator.apply"]
    m = tracer.metrics(passes=1)
    assert m["trace.missing"] == 2


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert listed == tracing.PER_LAYER
    produced = tracing.Tracer().metrics(passes=1)
    assert set(produced) | {"trace.overhead_s"} == set(listed)
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)


def test_checks_reject_wrong_outputs():
    ref = json.loads((HERE / "reference.json").read_text())["scan"]
    a, b = 10, 20
    eps = [ref[k][a][b] for k in ("eps_c_low", "eps_c_high", "eps_k_low",
                                  "eps_k_high")]
    verdicts = (ref["carleman_verdict"][a][b], ref["nip_verdict"][a][b])
    assert workloads.scan_cell_failures(ref, a, b, verdicts, eps) == []
    worse = list(eps)
    worse[3] = worse[3] * (1 + 1e-5) + 1e-8
    assert workloads.scan_cell_failures(ref, a, b, verdicts, worse)
    flipped = ("diverged" if verdicts[0] == "converged" else "converged",
               verdicts[1])
    if not workloads.near_tie(eps[0], eps[1]):
        assert workloads.scan_cell_failures(ref, a, b, flipped, eps)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
