import csv
from pathlib import Path

import numpy as np
import pytest

from koopman_lab import carleman, nip, population
from koopman_lab.nip import PopulationModel, nip_evolve, vacancy_evolve
from koopman_lab.polyflow import SparseTensor, eval_rhs, integrate_reference
from koopman_lab.population import (
    chaos_demo,
    convergence_scan,
    exact_x_trajectory,
    paper_model,
    scan_to_csv,
    trajectory_compare,
)


VERDICTS = Path(__file__).parent / "data" / "criterion04_verdicts.csv"


@pytest.fixture(scope="module")
def model():
    return paper_model()


class TestModelConstants:
    def test_shapes_and_sign_structure(self, model):
        assert model.dim == 3
        np.testing.assert_allclose(model.X, np.ones(3))
        assert np.all(model.r > 0)
        # zero columns (1,0), (2,0), (2,1) carry no entries
        for _, (j, k), _ in model.J.entries():
            assert (j, k) not in {(1, 0), (2, 0), (2, 1)}

    def test_equilibrium_at_capacity(self, model):
        # x = X is a fixed point of the full rational dynamics
        traj = exact_x_trajectory(model, np.ones(3), 0.05)
        np.testing.assert_allclose(traj.final.real, np.ones(3), atol=1e-9)


class TestScan:
    def test_small_scan_verdicts(self, model):
        res = convergence_scan(model, x2_range=[1.0, 1.4],
                               x3_range=[1.0, 1.4], t_end=0.05)
        # the capacity fixed point must be converged on both routes
        assert res.nip_verdict[0, 0] == "converged"
        assert res.carleman_verdict[0, 0] == "converged"
        assert res.eps_k_high[0, 0] <= 1e-8

    def test_parallel_merge_deterministic(self, model, tmp_path):
        # 35 cells: two chunks, so two workers each take one
        kw = dict(x2_range=[0.9, 1.0, 1.1, 1.2, 1.3],
                  x3_range=[0.6, 0.8, 0.9, 1.0, 1.1, 1.4, 1.9], t_end=0.05)
        assert population.SCAN_CHUNK < 35 <= 2 * population.SCAN_CHUNK
        res1 = convergence_scan(model, threads=1, **kw)
        res2 = convergence_scan(model, threads=2, **kw)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        scan_to_csv(res1, p1)
        scan_to_csv(res2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_cell_alone_matches_its_full_chunk(self, model):
        # a full chunk of SCAN_CHUNK cells, then cells at spread positions
        # scanned alone: eps values and verdicts are bit-identical
        x2 = np.array([0.55, 0.9, 1.4, 1.95])
        x3 = np.array([0.5, 0.7, 0.95, 1.1, 1.3, 1.6, 1.8, 2.0])
        assert x2.size * x3.size == population.SCAN_CHUNK
        full = convergence_scan(model, x2_range=x2, x3_range=x3, threads=1)
        keys = ("carleman_verdict", "nip_verdict", "eps_c_low", "eps_c_high",
                "eps_k_low", "eps_k_high")
        for idx in (0, 3, 7, 12, 18, 25, 31):
            a, b = divmod(idx, x3.size)
            alone = convergence_scan(model, x2_range=x2[[a]],
                                     x3_range=x3[[b]], threads=1)
            for key in keys:
                assert getattr(alone, key)[0, 0] == getattr(full, key)[a, b]

    def test_scan_cell_matches_single_runs(self, model):
        grid = np.linspace(0.0, 0.1, 129)
        res = convergence_scan(model, x2_range=[0.6, 1.4],
                               x3_range=[0.5, 1.4], threads=1)
        for a, x2 in enumerate(res.x2_values):
            for b, x3 in enumerate(res.x3_values):
                x0 = np.array([1.0, x2, x3])
                for n, level in zip(res.meta["orders"], ("low", "high")):
                    for evolve, key in ((vacancy_evolve, "eps_c"),
                                        (nip_evolve, "eps_k")):
                        run = evolve(model, x0, n, 0.1, sample_times=grid)
                        assert getattr(res, f"{key}_{level}")[a, b] == \
                            run.eps_max

    def test_csv_schema(self, model, tmp_path):
        res = convergence_scan(model, x2_range=[1.0], x3_range=[1.0],
                               t_end=0.02)
        path = tmp_path / "scan.csv"
        scan_to_csv(res, path)
        header = path.read_text().splitlines()[0]
        assert header == ("x2,x3,carleman_verdict,nip_verdict,"
                          "eps_c_low,eps_c_high,eps_k_low,eps_k_high")

    def test_csv_bytes_with_infinite_and_nan_errors(self, tmp_path):
        # the bytes the scan wrote through its own .17g formatter
        res = population.ScanResult(
            np.array([0.55, 1.0]), np.array([0.1]),
            np.array([["converged"], ["diverged"]]),
            np.array([["pole-invalid"], ["diverged"]]),
            np.array([[1e-3], [np.inf]]), np.array([[np.nan], [2.5]]),
            np.array([[1 / 3], [np.inf]]), np.array([[0.0], [np.nan]]))
        path = tmp_path / "scan.csv"
        scan_to_csv(res, path)
        assert path.read_bytes() == (
            b"x2,x3,carleman_verdict,nip_verdict,"
            b"eps_c_low,eps_c_high,eps_k_low,eps_k_high\r\n"
            b"0.55000000000000004,0.10000000000000001,converged,pole-invalid,"
            b"0.001,nan,0.33333333333333331,0\r\n"
            b"1,0.10000000000000001,diverged,diverged,inf,2.5,inf,nan\r\n")

    def test_full_grid_reproduces_the_recorded_verdicts(self, model,
                                                        tmp_path):
        # criterion 04's 961 cells, against tests/data; see its header
        recorded = list(csv.reader(
            line for line in VERDICTS.read_text().splitlines()
            if not line.startswith("#")))
        scan_to_csv(convergence_scan(model, threads=1), tmp_path / "s.csv")
        with open(tmp_path / "s.csv", newline="") as fh:
            got = [row[:4] for row in csv.reader(fh)]
        assert len(recorded) == 962
        assert got == recorded

    def test_scan_builds_no_csr(self, model, monkeypatch):
        # the exact path reads each lift's triplets densely
        def refuse(*args, **kwargs):
            raise AssertionError("a scan at orders (1, 3) built a CSR")

        monkeypatch.setattr(carleman, "csr_matrix", refuse)
        res = convergence_scan(model, x2_range=[0.6, 1.4],
                               x3_range=[0.9, 1.7], orders=(1, 3), threads=1)
        assert res.carleman_verdict.shape == (2, 2)

    def test_bad_orders_rejected(self, model):
        with pytest.raises(ValueError):
            convergence_scan(model, x2_range=[1.0], x3_range=[1.0],
                             orders=(3, 1))

    def test_single_order_rejected(self, model):
        with pytest.raises(ValueError):
            convergence_scan(model, x2_range=[1.0], x3_range=[1.0],
                             orders=(3,))

    def test_empty_grid_rejected(self, model):
        with pytest.raises(ValueError):
            convergence_scan(model, x2_range=[], x3_range=[1.0])


class TestVerdict:
    def test_tiny_high_error_is_converged(self):
        class Run:
            def __init__(self, eps_max, pole=False):
                self.eps_max = eps_max
                self.pole_invalid = pole

        assert population._verdict(Run(0.0), Run(0.0)) == "converged"
        assert population._verdict(Run(0.5), Run(0.1)) == "converged"
        assert population._verdict(Run(0.1), Run(0.5)) == "diverged"
        assert population._verdict(Run(np.inf), Run(0.1)) == "diverged"
        assert population._verdict(Run(np.inf, pole=True),
                                   Run(0.1)) == "pole-invalid"


class TestTrajectories:
    def test_x_rhs_matches_the_model_constants(self, model):
        # dx_i/dt = r_i x_i (1 - x_i) - x_i^2 sum_jk J_i,(j,k) eta_j eta_k,
        # eta = (1 - x) / x, summed entry by entry from the raw tables; the
        # exact flow runs on eta, whose rate is -x^-2 dx/dt (X = 1)
        x = np.array([0.7, 1.3, 0.45])
        eta = (1.0 - x) / x
        dx = np.array([
            population._R[i] * x[i] * (1.0 - x[i]) - x[i] ** 2 * sum(
                population._J_ROWS[i][3 * j + k] * eta[j] * eta[k]
                for j in range(3) for k in range(3))
            for i in range(3)])
        np.testing.assert_allclose(
            eval_rhs(nip.koopman_system(model), eta), -dx / x**2,
            rtol=1e-13)

    @pytest.mark.parametrize("coupling, x0, fate", [
        (5.0, [0.5, 0.9, 0.9], "x1 reached 0 after t = 0.223"),
        (-5.0, [2.0, 1.0, 1.0], "x1 grew without bound by t = 0.288"),
    ])
    def test_exact_flow_ends_where_a_population_leaves(self, coupling, x0,
                                                       fate):
        # eta_1' = -eta_1 + c eta_1^2, so u = 1/eta_1 = c + (u0 - c) e^t:
        # from eta_1 = 1 (c = 5) eta_1 blows up at t = ln(5/4) = 0.2231;
        # from -1/2 (c = -5) it crosses the pole -1 at t = ln(4/3) = 0.2877
        one_j = SparseTensor.from_arrays(2, 3, [0], [[0, 0]], [coupling])
        blow = PopulationModel(3, np.ones(3), np.ones(3), one_j)
        grid = np.linspace(0.0, 2.0, 2001)
        traj = exact_x_trajectory(blow, np.array(x0), 2.0, sample_times=grid)
        assert traj.diverged
        assert traj.cause == f"population {fate}"
        assert np.all(traj.states.real > 0)
        u = coupling + (x0[0] / (1.0 - x0[0]) - coupling) * np.exp(traj.times)
        np.testing.assert_allclose(traj.states[:, 0].real, u / (u + 1.0),
                                   rtol=1e-8)

    @pytest.mark.parametrize("x1", [0.0, 1e308])
    def test_exact_positivity_guard(self, model, x1):
        # 1e308 puts eta on the back map's pole: chaos_demo used to end in
        # an IndexError on a flow that kept no sample
        x0 = np.array([x1, 1.0, 1.0])
        with pytest.raises(ValueError):
            exact_x_trajectory(model, x0, 0.1)
        with pytest.raises(ValueError):
            chaos_demo(model, x0)

    def test_compare_integrates_one_reference(self, model, monkeypatch):
        # every reference trajectory, batched or single, goes through this
        # function
        calls = []
        batch = nip.reference_y_samples

        def counted(*args, **kwargs):
            calls.append(args)
            return batch(*args, **kwargs)

        monkeypatch.setattr(nip, "reference_y_samples", counted)
        trajectory_compare(model, np.array([1.0, 1.4, 1.4]), 2, 0.02)
        assert len(calls) == 1

    def test_compare_near_equilibrium(self, model):
        exact, carl, mode = trajectory_compare(
            model, np.array([1.0, 1.02, 0.99]), order=3, t_end=0.05)
        n = min(exact.times.size, mode.times.size)
        gap = np.max(np.linalg.norm(
            exact.states[:n].real - mode.states[:n].real, axis=1))
        assert gap < 1e-3
        assert carl.states.shape[1] == 3

    def test_worker_count_clamps(self, monkeypatch):
        monkeypatch.setattr(population.os, "cpu_count", lambda: 8)
        assert population.worker_count(1, 100) == 1
        assert population.worker_count(4, 100) == 4
        assert population.worker_count(10**6, 100) == 8
        assert population.worker_count(10**6, 3) == 3
        assert population.worker_count(0, 100) == 1
        assert population.worker_count(4, 0) == 1
        monkeypatch.setattr(population.os, "cpu_count", lambda: None)
        assert population.worker_count(4, 100) == 1

    def test_threads_env_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv("KOOPMAN_LAB_THREADS", "many")
        with pytest.raises(ValueError, match="KOOPMAN_LAB_THREADS"):
            population.default_threads()

    def test_threads_env(self, monkeypatch):
        monkeypatch.setenv("KOOPMAN_LAB_THREADS", "3")
        assert population.default_threads() == 3
        monkeypatch.delenv("KOOPMAN_LAB_THREADS")
        assert population.default_threads() == 1


class TestChaos:
    def test_chaos_flow_matches_dop853(self, model):
        # the chaos run's eta flow is a Taylor flow; DOP853 is its oracle
        x0 = np.array([0.05, 1.3, 0.025])
        grid = np.linspace(0.0, population.CHAOS_T_END, 2001)
        traj = exact_x_trajectory(model, x0, population.CHAOS_T_END,
                                  sample_times=grid)
        eta = integrate_reference(nip.koopman_system(model),
                                  nip.x_to_eta(model, x0),
                                  population.CHAOS_T_END, 1e-12, grid)
        assert not traj.diverged and not eta.diverged
        np.testing.assert_array_equal(traj.times, eta.times)
        np.testing.assert_allclose(traj.states,
                                   nip.eta_to_x(model, eta.states),
                                   rtol=1e-9)

    def test_settling_point_reaches_capacity(self, model):
        res = chaos_demo(model, np.array([0.05, 1.3, 0.025]))
        assert res.settled
        assert res.final_distance <= population.EQUILIBRIUM_TOL
        assert res.projection.shape[1] == 3

    def test_nearby_point_stays_chaotic(self, model):
        res = chaos_demo(model, np.array([0.048, 1.3, 0.025]))
        assert not res.settled
        assert not res.trajectory.diverged
