import dataclasses
import pickle

import numpy as np
import pytest
from scipy.linalg import expm

from koopman_lab import carleman, nip, population
from koopman_lab.carleman import (
    LIFT_TOL,
    STEP_SPAN,
    build_carleman,
    build_monomial_lift,
    evolve_lifted,
    exact_step,
    initial_lift,
    lifted_samples,
    step_block,
)
from koopman_lab.nip import (
    POLE_TOL,
    ROUTES,
    PopulationModel,
    ReferenceSamples,
    _back_map,
    _eta_to_y_rows,
    _route_errors,
    eta_to_x,
    guaranteed_radius,
    guaranteed_radius_squared,
    koopman_system,
    koopman_tensors,
    model_from_dict,
    nip_evolve,
    r_number_nip,
    reference_y_samples,
    reference_y_trajectory,
    route_lift,
    route_runs,
    route_system,
    vacancy_evolve,
    vacancy_taylor_tensors,
    x_to_eta,
    y_to_x,
)
from koopman_lab.polyflow import (
    DIVERGENCE_NORM,
    DimensionError,
    PolySystem,
    SparseTensor,
    Trajectory,
    eval_rhs,
    integrate_reference,
    integrate_rhs,
    sample_grid,
)
from koopman_lab.population import convergence_scan, paper_model
from koopman_lab.rsep import RsepParams, build_rsep, quadratic_flow

DEMO_X0 = np.array([1.0, 1.4, 1.4])
DEMO_T_END = 0.1


def small_model(seed=0, coupling=0.2):
    rng = np.random.default_rng(seed)
    d = 3
    vals = coupling * rng.normal(size=(d, d, d))
    i, j, k = np.nonzero(np.abs(vals) > 0.05)
    J = SparseTensor.from_arrays(2, d, i, np.column_stack([j, k]),
                                 vals[i, j, k])
    return PopulationModel(d, 1.0 + rng.random(d), 1.0 + rng.random(d), J)


def x_to_y(model, x):
    """The vacancy coordinates y = 1 - x/X of populations x: the oracle of
    the library's y = eta/(1 + eta), eta = (X - x)/x."""
    return 1.0 - np.asarray(x) / model.X


def assert_system_bitwise(sys, want):
    """Each degree's tensor holds the entries want[degree], keys equal and
    values equal to the bit; degrees absent from `want` hold none."""
    for k, t in enumerate(sys.tensors):
        got = [] if t is None else list(t.entries())
        expected = want.get(k, [])
        assert [e[:2] for e in got] == [e[:2] for e in expected], k
        np.testing.assert_array_equal(
            np.array([e[2] for e in got], dtype=complex).view(np.int64),
            np.array([e[2] for e in expected], dtype=complex).view(np.int64))
    assert max(want) <= sys.max_degree


def exact_y_rhs(model, y):
    """Un-truncated vacancy dynamics via the eta representation."""
    eta = y / (1.0 - y)
    _, G2 = koopman_tensors(model)
    inter = np.zeros(model.dim, dtype=complex)
    for i, (j, k), val in G2.entries():
        inter[i] += val * eta[j] * eta[k]
    deta = -model.r * eta + inter
    return deta / (1.0 + eta) ** 2


class TestCoordinateMaps:
    def test_roundtrips(self):
        model = small_model()
        x = np.array([0.7, 1.3, 0.9])
        np.testing.assert_allclose(eta_to_x(model, x_to_eta(model, x)), x)
        np.testing.assert_allclose(y_to_x(model, x_to_y(model, x)), x)
        y = x_to_y(model, x)
        np.testing.assert_allclose(y / (1.0 - y), x_to_eta(model, x),
                                   atol=1e-14)

    def test_nonpositive_population_rejected(self):
        model = small_model()
        with pytest.raises(ValueError):
            x_to_eta(model, np.array([1.0, -0.1, 0.5]))

    @pytest.mark.parametrize("x", [1e308, 2e9])
    def test_population_at_the_pole_rejected(self, x):
        # X/x below POLE_TOL: eta starts within POLE_TOL of -1, or on it
        model = small_model()
        with pytest.raises(ValueError, match="mode map's pole"):
            x_to_eta(model, np.array([1.0, x, 0.5]))
        with pytest.raises(ValueError, match="mode map's pole"):
            nip_evolve(model, np.array([1.0, x, 0.5]), 2, 0.01)
        # twice POLE_TOL away from the pole is taken
        x_to_eta(model, model.X / (2.0 * POLE_TOL))

    def test_back_map_pole(self):
        _, pole = _back_map(np.array([0.2, -1.0 + 1e-12]))
        assert pole.tolist() == [False, True]

    def test_back_map_inverts_forward(self):
        eta = np.array([0.3, -0.2, 0.05])
        y, pole = _back_map(eta)
        assert not pole.any()
        np.testing.assert_allclose(y / (1.0 - y), eta, atol=1e-14)


class TestModelValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            PopulationModel(2, np.array([1.0, -1.0]), np.ones(2),
                            SparseTensor(2, 2))

    def test_wrong_tensor_degree(self):
        with pytest.raises(DimensionError):
            PopulationModel(2, np.ones(2), np.ones(2), SparseTensor(1, 2))


class TestVacancyTensors:
    def test_logistic_part(self):
        model = small_model()
        sys = vacancy_taylor_tensors(model, 2)
        # decoupled logistic check: J-free model
        model_free = PopulationModel(model.dim, model.r, model.X,
                                     SparseTensor(2, model.dim))
        sys_free = vacancy_taylor_tensors(model_free, 2)
        y = np.array([0.1, -0.2, 0.05])
        np.testing.assert_allclose(eval_rhs(sys_free, y),
                                   -model.r * y * (1.0 - y), atol=1e-13)
        assert sys.max_degree == 2

    @pytest.mark.parametrize("order", [3, 5, 7])
    def test_taylor_converges_to_exact_rhs(self, order):
        # the truncated polynomial rhs approaches the exact rational rhs
        model = small_model()
        y = np.array([0.05, -0.04, 0.06])
        exact = exact_y_rhs(model, y)
        approx = eval_rhs(vacancy_taylor_tensors(model, order), y)
        # geometric remainder: error scale |y|^(order+1)
        assert np.linalg.norm(approx - exact) < \
            20.0 * np.max(np.abs(y)) ** (order + 1)

    def test_degrees_capped_at_order(self):
        sys = vacancy_taylor_tensors(small_model(), 4)
        assert sys.max_degree <= 4

    @pytest.mark.parametrize("order", range(1, 11))
    @pytest.mark.parametrize("make", [paper_model, small_model])
    def test_matches_per_entry_oracle_to_the_bit(self, make, order,
                                                 per_entry_tensors):
        model = make()
        assert_system_bitwise(vacancy_taylor_tensors(model, order),
                              per_entry_tensors.vacancy(model, order))


class TestKoopmanTensors:
    @pytest.mark.parametrize("make", [paper_model, small_model])
    def test_matches_per_entry_oracle_to_the_bit(self, make,
                                                 per_entry_tensors):
        model = make()
        want = per_entry_tensors.mode(model)
        assert_system_bitwise(koopman_system(model), want)
        _, G2 = koopman_tensors(model)
        assert_system_bitwise(PolySystem(model.dim, [None, None, G2]),
                              {2: want[2]})

    def test_quadratic_rhs_exact(self):
        model = small_model()
        eta = np.array([0.3, -0.1, 0.2])
        G1, G2 = koopman_tensors(model)
        inter = np.zeros(model.dim, dtype=complex)
        for i, (j, k), val in G2.entries():
            inter[i] += val * eta[j] * eta[k]
        np.testing.assert_allclose(eval_rhs(koopman_system(model), eta),
                                   G1 @ eta + inter, atol=1e-14)

    def test_r_number_closed_form(self):
        from koopman_lab.polyflow import spectral_norm
        model = small_model()
        eta0 = np.array([0.1, 0.05, -0.02])
        _, G2 = koopman_tensors(model)
        expected = spectral_norm(G2.dense_flat()) * np.linalg.norm(eta0) \
            / np.min(model.r)
        assert r_number_nip(model, eta0) == pytest.approx(expected, rel=1e-12)

    def test_guaranteed_radius(self):
        model = small_model()
        rad = guaranteed_radius(model)
        assert guaranteed_radius_squared(model) == pytest.approx(rad * rad)
        # R-number at the ball boundary is exactly 1
        eta0 = np.array([rad, 0.0, 0.0])
        assert r_number_nip(model, eta0) == pytest.approx(1.0, rel=1e-10)


class TestReference:
    def test_reference_matches_direct_y_integration(self):
        model = small_model()
        x0 = np.array([0.95, 1.05, 0.98])
        grid = np.linspace(0.0, 0.5, 33)
        ref = reference_y_trajectory(model, x0, 0.5, sample_times=grid)
        direct = integrate_rhs(
            lambda t, y: exact_y_rhs(model, y),
            x_to_y(model, x0).astype(complex), 0.5, 1e-12, grid)
        np.testing.assert_allclose(ref.states, direct.states, atol=1e-9)


def mpmath_y_flow(model, x0, times, dps):
    """y(t) of the exact quadratic eta flow, solved by mpmath's
    arbitrary-precision Taylor integrator at `dps` digits."""
    mpmath = pytest.importorskip("mpmath")
    r = [float(v) for v in model.r]
    _, G2 = koopman_tensors(model)
    entries = [(i, j, k, float(v.real)) for i, (j, k), v in G2.entries()]

    def rhs(t, eta):
        out = [-r[i] * eta[i] for i in range(model.dim)]
        for i, j, k, v in entries:
            out[i] += v * eta[j] * eta[k]
        return out

    with mpmath.workdps(dps):
        eta0 = [mpmath.mpf(float(e)) for e in x_to_eta(model, x0)]
        flow = mpmath.odefun(rhs, 0, eta0)
        return np.array([[float(e / (1 + e)) for e in flow(mpmath.mpf(t))]
                         for t in times])


class TestTaylorReference:
    # At (1, 0.6, 0.5) the former DOP853 reference (tol 1e-12) sat 1.2e-9
    # from this oracle; the Taylor flow sits 1.1e-10 from it.
    @pytest.mark.parametrize("x0", [(1.0, 0.6, 0.5), (1.0, 0.5, 0.6),
                                    (1.0, 1.4, 1.4)])
    def test_scan_reference_matches_mpmath(self, x0):
        model = paper_model()
        grid = np.linspace(0.0, DEMO_T_END, 129)
        ref = reference_y_trajectory(model, x0, DEMO_T_END,
                                     sample_times=grid)
        every = slice(None, None, 8)   # 17 samples
        oracle = mpmath_y_flow(model, np.array(x0), grid[every], dps=25)
        assert not ref.diverged and oracle.shape == (17, 3)
        np.testing.assert_array_equal(ref.states.imag, 0.0)
        np.testing.assert_allclose(ref.states[every].real, oracle, rtol=0,
                                   atol=1e-9)

    def test_batch_rows_are_the_single_references(self):
        model = paper_model()
        grid = np.linspace(0.0, DEMO_T_END, 129)
        X0s = [(1.0, 0.6, 0.5), DEMO_X0, (1.0, 2.0, 0.5), (1.0, 1.0, 1.0)]
        batch = reference_y_samples(model, X0s, DEMO_T_END,
                                    sample_times=grid)
        for row, x0 in enumerate(X0s):
            single = reference_y_trajectory(model, x0, DEMO_T_END,
                                            sample_times=grid)
            kept = batch.kept[row]
            np.testing.assert_array_equal(batch.times[:kept], single.times)
            np.testing.assert_array_equal(batch.y[row, :kept], single.states)
            assert batch.diverged[row] == single.diverged


    def test_demo_reference_spans_eight_intervals(self, taylor_expansions):
        # 128 sample intervals in 10 steps, each picked from its own
        # expansion: more than eight intervals per expansion
        ref = reference_y_trajectory(paper_model(), DEMO_X0, DEMO_T_END,
                                     sample_times=np.linspace(
                                         0.0, DEMO_T_END, 129))
        assert ref.times.size == 129 and not ref.diverged
        assert len(taylor_expansions) <= 10


class TestEvolutions:
    def test_nip_error_shrinks_with_order(self):
        model = small_model()
        x0 = np.array([0.95, 1.08, 0.97])
        runs = [nip_evolve(model, x0, n, 0.5) for n in (1, 3)]
        assert runs[1].eps_max < runs[0].eps_max

    def test_vacancy_error_shrinks_with_order_inside_ball(self):
        model = small_model()
        x0 = np.array([0.99, 1.01, 0.995])
        runs = [vacancy_evolve(model, x0, n, 0.5) for n in (1, 3)]
        assert runs[1].eps_max < runs[0].eps_max

    def test_error_profile_starts_at_zero(self):
        model = small_model()
        run = nip_evolve(model, np.array([0.95, 1.05, 0.98]), 2, 0.3)
        assert run.eps[0] == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(run.eps_max)


@pytest.fixture(scope="module")
def demo():
    """Paper model, sample grid and reference at the acceptance demo point."""
    model = paper_model()
    grid = np.linspace(0.0, DEMO_T_END, 129)
    ref = reference_y_trajectory(model, DEMO_X0, DEMO_T_END,
                                 sample_times=grid)
    return model, grid, ref


class TestPaperVacancyRoute:
    # The vacancy-route error stalls at the demo point (acceptance
    # criterion 03); these pin that the stall belongs to the lift itself.

    def test_order6_lift_matches_dense_oracle(self, dense_lift_oracle):
        sys = vacancy_taylor_tensors(paper_model(), 6)
        op = build_carleman(sys, 6)
        assert op.total_dim == 1092
        F_list = [(k, sys.tensor(k).dense_flat()) for k in range(1, 7)]
        np.testing.assert_allclose(op.dense(), dense_lift_oracle(F_list, 3, 6),
                                   rtol=1e-13, atol=1e-13)

    def test_unlifted_taylor_flow_converges_at_demo_point(self, demo):
        model, grid, ref = demo
        y0 = x_to_y(model, DEMO_X0).astype(complex)
        errors = []
        for order in (1, 3, 6):
            traj = integrate_reference(vacancy_taylor_tensors(model, order),
                                       y0, DEMO_T_END, 1e-12, grid)
            assert not traj.diverged
            assert traj.states.shape == ref.states.shape
            errors.append(np.max(np.linalg.norm(traj.states - ref.states,
                                                axis=1)))
        assert errors[0] > errors[1] > errors[2]

    @pytest.mark.parametrize("order", [5, 6, 8])
    def test_lifted_error_is_the_truncation_error(self, demo, order):
        # orders 5 and 6 take the exact step, order 8 runs DOP853 at
        # LIFT_TOL; the printed eps_max is that of the Kronecker lift
        # integrated at 1e-12, so it is the truncation error and not the
        # integrator's (order 8 fails with LIFT_TOL loosened to 1e-5)
        model, grid, ref = demo
        run = vacancy_evolve(model, DEMO_X0, order, DEMO_T_END,
                             sample_times=grid, reference=ref)
        oracle = kronecker_oracle(model, "vacancy", DEMO_X0, order, grid,
                                  tol=1e-12)
        assert not oracle.diverged and oracle.times.size == grid.size
        eps = np.linalg.norm(ref.states - oracle.states[:, :3], axis=1)
        assert abs(run.eps_max - np.max(eps)) <= 1e-6


IN_BALL_X0 = np.array([1.0, 1.01, 0.99])   # |eta0| = 0.014 < 0.0275


def route_start(model, route, x0):
    """The route's initial condition: y(0) on the vacancy route, eta(0) on
    the mode route."""
    return x_to_y(model, x0) if route == "vacancy" else x_to_eta(model, x0)


def kronecker_oracle(model, route, x0, order, grid, tol=1e-12):
    """The route's lift on the Kronecker layout, integrated matrix-free by
    DOP853 from `initial_lift`."""
    op = build_carleman(route_system(model, route, order), order)
    g0 = initial_lift(route_start(model, route, x0), order)
    return integrate_rhs(lambda t, g: op.apply(g), g0.data, grid[-1], tol,
                         grid)


def monomial_run(model, route, x0, order, grid):
    """The production lift of the route, stepped by `evolve_lifted`."""
    lift = route_lift(model, route, order)
    g0 = lift.initial_lift(route_start(model, route, x0))
    return lift, evolve_lifted(lift, g0, grid[-1], grid)


class TestExactPropagation:
    @pytest.mark.parametrize("x0", [IN_BALL_X0, DEMO_X0],
                             ids=["in-ball", "out-of-ball"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("route", ROUTES)
    def test_dense_path_matches_dop853(self, route, order, x0):
        model = paper_model()
        grid = np.linspace(0.0, DEMO_T_END, 129)
        lift, dense = monomial_run(model, route, x0, order, grid)
        assert exact_step(lift, DEMO_T_END, grid) is not None
        oracle = kronecker_oracle(model, route, x0, order, grid)
        assert not dense.diverged and not oracle.diverged
        np.testing.assert_allclose(dense.states[:, :3], oracle.states[:, :3],
                                   rtol=0, atol=1e-8)

    @pytest.mark.parametrize("order", [5, 6])
    @pytest.mark.parametrize("route", ROUTES)
    def test_block1_matches_kronecker_expm_steps(self, route, order):
        # lifts of 55 and 83 monomials take the exact step; block 1 is that
        # of the Kronecker lift (363 and 1,092 coordinates) stepped sample
        # by sample by its own expm, to roundoff
        model = paper_model()
        grid = np.linspace(0.0, DEMO_T_END, 129)
        lift = route_lift(model, route, order)
        assert exact_step(lift, DEMO_T_END, grid) is not None
        assert lift.total_dim <= carleman.DENSE_LIMIT < lift.kron_dim
        X0s = [IN_BALL_X0, DEMO_X0]
        G0 = lift.initial_lift(np.array(
            [route_start(model, route, x0) for x0 in X0s])).T
        _, samples, kept, diverged = lifted_samples(
            lift, G0, DEMO_T_END, grid)
        assert kept.tolist() == [grid.size] * 2 and not diverged.any()
        C = build_carleman(route_system(model, route, order), order).dense()
        assert C.shape[0] <= 1092 and not C.imag.any()
        P = expm(C.real * (DEMO_T_END / (grid.size - 1)))
        oracle = [np.column_stack([initial_lift(
            route_start(model, route, x0), order).data.real for x0 in X0s])]
        for _ in range(grid.size - 1):
            oracle.append(P @ oracle[-1])
        oracle = np.array(oracle)[:, :3]
        scale = np.max(np.abs(oracle), axis=(0, 1))
        assert np.all(np.max(np.abs(samples[:, :3] - oracle), axis=(0, 1))
                      <= 1e-13 * scale)

    def test_diverging_scan_cell_matches_event_path(self):
        # far from capacity the order-4 mode lift passes the divergence norm
        model = paper_model()
        x0 = np.array([1.0, 0.01, 0.05])
        res = convergence_scan(model, x2_range=[0.01], x3_range=[0.05],
                               orders=(3, 4), t_end=DEMO_T_END, threads=1)
        assert res.eps_k_high[0, 0] == np.inf
        assert res.nip_verdict[0, 0] == "diverged"
        grid = np.linspace(0.0, DEMO_T_END, 129)
        lift, dense = monomial_run(model, "mode", x0, 4, grid)
        assert exact_step(lift, DEMO_T_END, grid) is not None
        event = kronecker_oracle(model, "mode", x0, 4, grid, tol=1e-10)
        assert dense.diverged and event.diverged
        assert 1 < dense.times.size == event.times.size < grid.size
        np.testing.assert_array_equal(dense.times, event.times)

    def test_shared_lift_gives_the_same_run(self, demo):
        # a run on its own lift and the same cell on a shared one, beside
        # another cell, give the same bits
        model, grid, ref = demo
        references = reference_y_samples(model, [DEMO_X0, IN_BALL_X0],
                                         DEMO_T_END, sample_times=grid)
        for route, evolve in (("vacancy", vacancy_evolve),
                              ("mode", nip_evolve)):
            # the inert fifth slot, tol, as perfbench passes it
            own = evolve(model, DEMO_X0, 3, DEMO_T_END, 1e-10, grid, ref)
            shared = route_runs(model, [DEMO_X0, IN_BALL_X0], route, 3,
                                DEMO_T_END, grid, references)
            np.testing.assert_array_equal(own.eps, shared.eps[0])
            assert own.eps_max == shared.eps_max[0]

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError, match="route"):
            route_lift(small_model(), "bogus", 2)


def sequential_steps(lift, step, G0, n):
    """The oracle of span stepping: samples[s] = P samples[s-1], one
    product per sample, and the samples each column keeps before its norm
    first exceeds DIVERGENCE_NORM."""
    P = step[0]
    samples = [G0]
    for _ in range(n - 1):
        samples.append(P @ samples[-1])
    samples = np.array(samples)
    norms = np.sqrt(np.einsum("skc,k->cs", np.abs(samples) ** 2,
                              lift.multiplicities))
    kept = [int(np.argmax(row > DIVERGENCE_NORM)) if np.any(
        row > DIVERGENCE_NORM) else n for row in norms]
    return samples, kept


class TestSpanStepping:
    # two full spans and a partial third
    N_SAMPLES = 2 * STEP_SPAN + 8

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("route", ROUTES)
    def test_spans_match_single_steps_and_expm(self, route, order):
        model = paper_model()
        n = self.N_SAMPLES
        grid = np.linspace(0.0, DEMO_T_END, n)
        lift = route_lift(model, route, order)
        step = exact_step(lift, DEMO_T_END, grid)
        D = lift.total_dim
        assert step.shape == (STEP_SPAN, D, D)
        np.testing.assert_allclose(
            step[-1], np.linalg.matrix_power(step[0], STEP_SPAN),
            rtol=1e-12, atol=1e-14)
        X0s = np.array([IN_BALL_X0, DEMO_X0, [1.0, 0.8, 1.2]])
        G0 = lift.initial_lift(np.array(
            [route_start(model, route, x0) for x0 in X0s])).T
        samples, kept = step_block(step, G0, n, lift.multiplicities)
        assert samples.shape == (n, D, 3)
        assert kept.tolist() == [n, n, n]
        oracle, oracle_kept = sequential_steps(lift, step, G0, n)
        assert oracle_kept == [n, n, n]
        C = lift.dense()
        scale = np.max(np.abs(oracle), axis=(0, 1))
        for s, t in enumerate(grid):
            for want in (oracle[s], expm(C * t) @ G0):
                assert np.all(np.max(np.abs(samples[s] - want), axis=0)
                              <= 1e-13 * scale)

    def test_diverging_column_cut_where_single_steps_cut_it(self):
        # far from capacity the order-4 mode lift passes the divergence
        # norm; the settled column beside it runs to the end
        model = paper_model()
        n = self.N_SAMPLES
        grid = np.linspace(0.0, DEMO_T_END, n)
        lift = route_lift(model, "mode", 4)
        step = exact_step(lift, DEMO_T_END, grid)
        X0s = np.array([[1.0, 0.01, 0.05], IN_BALL_X0])
        G0 = lift.initial_lift(x_to_eta(model, X0s)).T
        samples, kept = step_block(step, G0, n, lift.multiplicities)
        _, oracle_kept = sequential_steps(lift, step, G0, n)
        assert kept.tolist() == oracle_kept
        assert 1 < kept[0] < n and kept[1] == n
        _, lifted, lifted_kept, diverged = lifted_samples(
            lift, G0, DEMO_T_END, grid)
        assert diverged.tolist() == [True, False]
        assert lifted_kept.tolist() == oracle_kept
        np.testing.assert_array_equal(lifted[:kept[0], :, 0],
                                      samples[:kept[0], :, 0])

    def test_short_grid_takes_a_short_stack(self):
        grid = np.linspace(0.0, DEMO_T_END, 6)
        lift = route_lift(paper_model(), "mode", 2)
        assert exact_step(lift, DEMO_T_END, grid).shape[0] == 5


class TestWeightedDop853Path:
    # Lifts above DENSE_LIMIT run DOP853 on the monomial coordinates under
    # the norm of the Kronecker layout; the Kronecker run at the same tol,
    # LIFT_TOL, is the oracle.  DENSE_LIMIT is 0 here, so that orders 5
    # and 6, which take the exact step, keep an oracle of their DOP853 run.
    @pytest.fixture(autouse=True)
    def no_exact_step(self, monkeypatch):
        monkeypatch.setattr(carleman, "DENSE_LIMIT", 0)

    @pytest.mark.parametrize("x0", [IN_BALL_X0, DEMO_X0],
                             ids=["in-ball", "out-of-ball"])
    @pytest.mark.parametrize("order", [5, 6, 8])
    @pytest.mark.parametrize("route", ROUTES)
    def test_matches_the_kronecker_run(self, route, order, x0):
        model = paper_model()
        grid = np.linspace(0.0, DEMO_T_END, 129)
        lift, run = monomial_run(model, route, x0, order, grid)
        assert exact_step(lift, DEMO_T_END, grid) is None
        oracle = kronecker_oracle(model, route, x0, order, grid,
                                  tol=LIFT_TOL)
        assert not run.diverged and not oracle.diverged
        np.testing.assert_array_equal(run.times, oracle.times)
        np.testing.assert_allclose(run.states[:, :3], oracle.states[:, :3],
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("x0, order", [((1.0, 0.03, 0.05), 5),
                                           ((1.0, 0.05, 0.1), 6)])
    def test_diverging_far_cell_stops_where_the_kronecker_run_does(
            self, x0, order):
        model = paper_model()
        grid = np.linspace(0.0, DEMO_T_END, 129)
        lift, run = monomial_run(model, "mode", np.array(x0), order, grid)
        assert exact_step(lift, DEMO_T_END, grid) is None
        event = kronecker_oracle(model, "mode", np.array(x0), order, grid,
                                 tol=LIFT_TOL)
        assert run.diverged and event.diverged
        assert 2 < run.times.size == event.times.size < grid.size
        np.testing.assert_array_equal(run.times, event.times)


class TestErrorRun:
    def test_pole_rows_marked_invalid(self):
        # block 1 of a mode lift meets the back map's pole, -1 + 1e-12 in
        # component 0, at sample 2 of 5; any reference will do
        references = ReferenceSamples(np.linspace(0.0, 0.01, 5),
                                      np.zeros((1, 5, 3)), np.array([5]),
                                      np.array([False]))
        g1 = np.full((1, 5, 3), 0.1)
        g1[0, 2, 0] = -1.0 + 1e-12
        runs = _route_errors(references, g1, np.array([5]),
                             np.array([False]), _eta_to_y_rows)
        assert runs.pole_invalid[0]
        assert np.isnan(runs.eps[0, 2])
        assert np.all(np.isnan(runs.y[0, 2]))
        assert np.all(np.isfinite(np.delete(runs.eps[0], 2)))
        assert runs.eps_max[0] == np.nanmax(runs.eps[0])

    @pytest.mark.parametrize("grid", [np.linspace(0.0, 0.1, 65),
                                      np.linspace(0.0, 0.05, 129)],
                             ids=["coarser", "shorter"])
    def test_reference_off_the_run_grid_is_refused(self, grid):
        # copied onto the default grid, such a reference read as a run cut
        # short: eps_max = inf
        model = paper_model()
        ref = reference_y_trajectory(model, DEMO_X0, grid[-1],
                                     sample_times=grid)
        with pytest.raises(DimensionError, match="leading part"):
            nip_evolve(model, DEMO_X0, 3, DEMO_T_END, reference=ref)

    def test_reference_cut_short_is_a_leading_part(self):
        # a diverged reference keeps fewer samples of the run's grid
        model = paper_model()
        grid = sample_grid(DEMO_T_END)
        ref = reference_y_trajectory(model, DEMO_X0, DEMO_T_END, grid)
        cut = Trajectory(ref.times[:40], ref.states[:40], diverged=True)
        run = nip_evolve(model, DEMO_X0, 3, DEMO_T_END, reference=cut)
        assert run.eps_max == np.inf
        assert run.eps.size == 40


class TestRealArithmetic:
    """The population strand is real, so it runs in float64 throughout."""

    def test_reference_lifts_and_errors_are_float64(self):
        model = paper_model()
        grid = sample_grid(DEMO_T_END)
        X0s = [DEMO_X0, IN_BALL_X0]
        references = reference_y_samples(model, X0s, DEMO_T_END, grid)
        assert references.y.dtype == np.float64
        for route in ROUTES:
            lift = route_lift(model, route, 3)
            assert lift.vals.dtype == np.float64
            assert exact_step(lift, DEMO_T_END, grid).dtype == np.float64
            runs = route_runs(model, X0s, route, 3, DEMO_T_END, grid,
                              references)
            assert runs.y.dtype == runs.eps.dtype == np.float64

    def test_a_scan_allocates_no_complex_arrays(self, monkeypatch):
        seen = []

        def recorded(fn, *fields):
            # a field None records the result itself
            def call(*args, **kwargs):
                out = fn(*args, **kwargs)
                for name in fields:
                    value = out if name is None else getattr(out, name)
                    seen.append((fn.__name__, name, np.asarray(value).dtype))
                return out
            return call

        monkeypatch.setattr(population, "reference_y_samples", recorded(
            population.reference_y_samples, "y"))
        monkeypatch.setattr(nip, "route_lift", recorded(
            nip.route_lift, "vals"))
        monkeypatch.setattr(carleman, "exact_step", recorded(
            carleman.exact_step, None))
        monkeypatch.setattr(population, "route_runs", recorded(
            population.route_runs, "y", "eps", "eps_max"))
        convergence_scan(paper_model(), x2_range=[1.0, 1.4],
                         x3_range=[0.8, 1.4], threads=1)
        assert len(seen) == 1 + 4 + 4 + 3 * 4
        assert all(dtype == np.float64 for *_, dtype in seen), seen

    def test_rsep_flow_stays_complex(self):
        params = RsepParams(4, 10.0, 20.0, 0.1)
        systems = build_rsep(params)
        z = quadratic_flow(systems.F, systems.v, systems.c, systems.alpha,
                           params.A.conj().T[:, 0], 0.1)
        assert z.dtype == np.complex128


def bitwise(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


LIFT_FIELDS = ("rows", "cols", "vals", "exponents", "multiplicities",
               "offsets", "parents", "factors")


class TestKeptOnTheModel:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("route", ROUTES)
    def test_kept_lift_is_a_fresh_build(self, route, order):
        # the model's second call finds the one lift, which has the bits of
        # a fresh build; its step, the grid given or not, is the one stack
        # with the bits of a fresh lift's step
        model = paper_model()
        grid = sample_grid(DEMO_T_END)
        lift = route_lift(model, route, order)
        assert route_lift(model, route, order) is lift
        system = vacancy_taylor_tensors(model, order) \
            if route == "vacancy" else nip._koopman_system(model)
        op = build_monomial_lift(system, order)
        step = exact_step(op, DEMO_T_END, grid)
        for name in LIFT_FIELDS:
            assert bitwise(getattr(lift, name), getattr(op, name)), name
        kept = exact_step(lift, DEMO_T_END, grid)
        assert exact_step(lift, DEMO_T_END, None) is kept
        assert (kept is None) == (step is None) == (order > 4)
        assert step is None or bitwise(kept, step)

    def test_content_names_a_lift_and_its_grid_a_step(self):
        # grids A -> B -> A find the one lift of a route and order, whose
        # step on each grid has the bits of a fresh lift's step there
        model = paper_model()
        lift = route_lift(model, "mode", 3)
        system = koopman_system(model)
        grids = ((DEMO_T_END, None), (0.2, None),
                 (DEMO_T_END, np.linspace(0.0, DEMO_T_END, 65)),
                 (DEMO_T_END, None))
        steps = []
        for t_end, times in grids:
            assert route_lift(model, "mode", 3) is lift
            fresh = build_monomial_lift(nip._koopman_system(model), 3)
            steps.append(exact_step(lift, t_end, times))
            assert bitwise(steps[-1], exact_step(fresh, t_end, times))
        assert koopman_system(model) is system
        assert not bitwise(steps[1], steps[0])
        assert not bitwise(steps[2], steps[0])
        # a model cannot change in place; one built from changed values
        # builds its own
        with pytest.raises(ValueError, match="read-only"):
            model.r[0] *= 2.0
        model = PopulationModel(model.dim, model.r * [2.0, 1.0, 1.0],
                                model.X, model.J)
        changed = route_lift(model, "mode", 3)
        assert changed is not lift and koopman_system(model) is not system
        fresh = build_monomial_lift(nip._koopman_system(model), 3)
        assert bitwise(changed.vals, fresh.vals)
        assert not bitwise(changed.vals, lift.vals)
        assert bitwise(exact_step(changed, DEMO_T_END, None),
                       exact_step(fresh, DEMO_T_END, None))

    def test_a_lift_keeps_the_step_of_its_last_grid(self):
        # a step on another grid replaces the one its lift kept, and leaves
        # the lift and the other routes' and orders' lifts; no name on the
        # model holds a grid, and a second model builds its own lifts
        model = paper_model()
        first, other_order, other_route = (
            route_lift(model, route, order)
            for route, order in (("mode", 2), ("mode", 3), ("vacancy", 2)))
        step = exact_step(first, 0.1, None)
        second = exact_step(first, 0.2, None)
        assert exact_step(first, 0.2, None) is second
        again = exact_step(first, 0.1, None)
        assert again is not step and bitwise(again, step)
        assert route_lift(model, "mode", 2) is first
        assert route_lift(model, "mode", 3) is other_order
        assert route_lift(model, "vacancy", 2) is other_route
        lifts = [key for key in model._memo if key[0] == "lift"]
        assert sorted(lifts) == [("lift", "mode", 2), ("lift", "mode", 3),
                                 ("lift", "vacancy", 2)]
        assert set(model._memo) == {*lifts, "mode", ("vacancy", 2)}
        other = paper_model()
        own = route_lift(other, "mode", 2)
        assert own is not first
        own_step = exact_step(own, 0.1, None)
        assert own_step is not again and bitwise(own_step, again)
        assert exact_step(first, 0.1, None) is again

    def test_alternating_grids_build_each_lift_once(self, monkeypatch):
        # a model that moves between two horizons keeps its lifts; only
        # the step of a lift's last grid is replaced
        builds = []

        def build(system, order):
            builds.append(order)
            return build_monomial_lift(system, order)

        monkeypatch.setattr(nip, "build_monomial_lift", build)
        model = paper_model()
        runs = {}
        for _ in range(2):
            for t_end in (0.1, 0.2):
                for order in (3, 7):
                    run = nip_evolve(model, DEMO_X0, order, t_end)
                    runs.setdefault((t_end, order), run)
                    assert bitwise(run.eps, runs[t_end, order].eps)
        assert builds == [3, 7]

    def test_kept_arrays_are_read_only(self):
        model = paper_model()
        lift = route_lift(model, "vacancy", 3)
        for array in [getattr(lift, name) for name in LIFT_FIELDS] \
                + [exact_step(lift, DEMO_T_END, None)]:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            lift._step = None

    def test_a_model_and_what_it_builds_refuse_writes(self):
        # each builder freezes what it made: a fresh lift and step stack, a
        # tensor and a model's r and X, which are copies of the arrays
        # given, so the caller's own arrays stay writable; and nothing the
        # model keeps, a system or a lift, can be rebound, nor a system's
        # tensor replaced
        r, X = np.array(population._R), np.ones(3)
        model = PopulationModel(3, r, X, paper_model().J)
        system = koopman_system(model)
        kept = route_lift(model, "mode", 3)
        op = build_monomial_lift(system, 3)
        step = exact_step(op, DEMO_T_END, None)
        empty = SparseTensor(2, 3)
        for array in [getattr(op, name) for name in LIFT_FIELDS] + [
                step, model.r, model.X, empty.keys, empty.vals,
                *model.J.sorted_arrays()]:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            model.r[0] *= 2.0
        r[0] *= 2.0
        X[...] = 2.0
        assert model.r[0] == population._R[0] and np.all(model.X == 1.0)
        for target, name in ((model, "r"), (model, "X"), (model, "J"),
                             (model.J, "vals"), (empty, "keys"),
                             (system, "tensors"), (system, "dim"),
                             (op, "vals"), (kept, "vals"),
                             (kept, "_csr"), (kept, "_step")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(target, name, None)
        with pytest.raises(TypeError):
            system.tensors[2] = None
        # the CSR matrix of `apply` is built once per lift and kept
        assert op._csr is op._csr
        assert koopman_system(model) is system
        assert route_lift(model, "mode", 3) is kept

    def test_an_unpickled_model_refuses_writes(self):
        # a scan worker started by spawn or forkserver receives the model
        # pickled: it is rebuilt through its constructor, a value again,
        # keeps nothing built in the parent and builds the parent's lifts
        model = paper_model()
        lift = route_lift(model, "vacancy", 3)
        back = pickle.loads(pickle.dumps(model))
        arrays = [back.r, back.X, *back.J.sorted_arrays()]
        want = [model.r, model.X, *model.J.sorted_arrays()]
        for array, original in zip(arrays, want):
            assert bitwise(array, original)
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        assert back._memo == {}
        rebuilt = route_lift(back, "vacancy", 3)
        assert rebuilt is not lift
        assert bitwise(exact_step(rebuilt, DEMO_T_END, None),
                       exact_step(lift, DEMO_T_END, None))

    def test_rows_one_call_each_equal_the_scan_at_once(self):
        # the benchmark's pattern: one call per x2 row on one model, its
        # lifts built by the first and kept for the next, and a second
        # pass, against one call at once on the same model and on a new one
        model = paper_model()
        axis = np.arange(1.0, 1.35 + 1e-9, 0.05)

        def scan(x2, model=model):
            return convergence_scan(model, x2_range=x2, x3_range=axis,
                                    threads=1)

        def joined(results):
            return [np.concatenate([getattr(res, name) for res in results])
                    for name in ("eps_c_low", "eps_c_high", "eps_k_low",
                                 "eps_k_high", "carleman_verdict",
                                 "nip_verdict")]

        runs = [joined([scan(axis[[a]]) for a in range(axis.size)])
                for _ in range(2)]
        runs.append(joined([scan(axis)]))
        runs.append(joined([scan(axis, paper_model())]))
        want = runs[0]
        assert want[0].shape == (axis.size, axis.size)
        for run in runs[1:]:
            assert all(bitwise(a, b) for a, b in zip(run[:4], want[:4]))
            assert [a.tolist() for a in run[4:]] \
                == [b.tolist() for b in want[4:]]


class TestSerialization:
    def test_roundtrip(self, population_model_dict):
        model = small_model()
        back = model_from_dict(population_model_dict(model))
        np.testing.assert_allclose(back.r, model.r)
        np.testing.assert_allclose(back.X, model.X)
        assert list(back.J.entries()) == list(model.J.entries())

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            model_from_dict({"r": [1.0], "X": [1.0, 2.0], "J": []})
