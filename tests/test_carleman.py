import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from koopman_lab import carleman
from koopman_lab.carleman import (
    DENSE_LIMIT,
    CarlemanOperator,
    ConstantDriveError,
    LiftedState,
    build_carleman,
    carleman_dimension,
    evolve_lifted,
    exact_step,
    initial_lift,
    truncation_error,
)
from koopman_lab.polyflow import (
    DimensionError,
    OverflowGuardError,
    PolySystem,
    SparseTensor,
    integrate_reference,
    integrate_rhs,
    kron_power,
)


def random_quadratic(d, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    F1 = rng.normal(size=(d, d)) - 1.5 * np.eye(d)
    F2 = scale * rng.normal(size=(d, d * d))
    return PolySystem(d, [None, SparseTensor.from_dense_flat(1, F1),
                          SparseTensor.from_dense_flat(2, F2)]), F1, F2


class TestDimension:
    def test_geometric_sum(self):
        assert carleman_dimension(3, 10) == sum(3**k for k in range(1, 11))
        assert carleman_dimension(2, 1) == 2

    def test_guard(self):
        with pytest.raises(OverflowGuardError):
            carleman_dimension(10, 9)


class TestBuild:
    def test_constant_term_rejected(self):
        t0 = SparseTensor(0, 2)
        t0.add(0, (), 1.0)
        sys = PolySystem(2, [t0])
        with pytest.raises(ConstantDriveError):
            build_carleman(sys, 2)

    def test_dense_matches_kron_oracle(self, dense_lift_oracle):
        d, order = 2, 4
        sys, F1, F2 = random_quadratic(d, seed=4)
        op = build_carleman(sys, order)
        oracle = dense_lift_oracle([(1, F1), (2, F2)], d, order)
        np.testing.assert_allclose(op.dense(), oracle, atol=1e-13)

    def test_cubic_tensor_included(self, dense_lift_oracle):
        d, order = 2, 3
        rng = np.random.default_rng(5)
        F1 = rng.normal(size=(d, d)) - np.eye(d)
        F3 = 0.1 * rng.normal(size=(d, d**3))
        sys = PolySystem(d, [None, SparseTensor.from_dense_flat(1, F1),
                             SparseTensor(2, d),
                             SparseTensor.from_dense_flat(3, F3)])
        op = build_carleman(sys, order)
        oracle = dense_lift_oracle([(1, F1), (3, F3)], d, order)
        np.testing.assert_allclose(op.dense(), oracle, atol=1e-13)

    def test_block_slice(self):
        sys, _, _ = random_quadratic(3, seed=6)
        op = build_carleman(sys, 3)
        assert op.block_slice(1) == slice(0, 3)
        assert op.block_slice(2) == slice(3, 12)
        with pytest.raises(DimensionError):
            op.block_slice(4)


class TestApply:
    def test_apply_matches_dense(self):
        sys, _, _ = random_quadratic(3, seed=7)
        op = build_carleman(sys, 4)
        rng = np.random.default_rng(8)
        g = rng.normal(size=op.total_dim) + 1j * rng.normal(size=op.total_dim)
        np.testing.assert_allclose(op.apply(g), op.dense() @ g, atol=1e-12)

    def test_wrong_length_rejected(self):
        sys, _, _ = random_quadratic(2, seed=11)
        op = build_carleman(sys, 2)
        with pytest.raises(DimensionError):
            op.apply(np.zeros(op.total_dim + 1))

    def test_dense_guarded(self):
        sys, _, _ = random_quadratic(3, seed=12)
        op = build_carleman(sys, 8)
        with pytest.raises(OverflowGuardError):
            op.dense()

    # The fixture is a pure function, so sharing it across examples is safe.
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(d=st.integers(1, 3), order=st.integers(1, 4),
           degrees=st.sets(st.integers(1, 3), min_size=1),
           seed=st.integers(0, 2**32 - 1))
    def test_apply_is_the_linear_oracle_map(self, dense_lift_oracle, d, order,
                                            degrees, seed):
        rng = np.random.default_rng(seed)
        F = {k: rng.normal(size=(d, d**k)) for k in sorted(degrees)}
        tensors = [None] * (max(F) + 1)
        for k, Fk in F.items():
            tensors[k] = SparseTensor.from_dense_flat(k, Fk)
        op = build_carleman(PolySystem(d, tensors), order)
        oracle = dense_lift_oracle(list(F.items()), d, order)

        def vec():
            return rng.normal(size=op.total_dim) \
                + 1j * rng.normal(size=op.total_dim)

        g, h = vec(), vec()
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        np.testing.assert_allclose(op.apply(g), oracle @ g, rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(op.apply(a * g + b * h),
                                   a * op.apply(g) + b * op.apply(h),
                                   rtol=0, atol=1e-12)
        # a (D, m) block is applied column by column
        G = np.column_stack([vec() for _ in range(3)])
        block = op.apply(G)
        np.testing.assert_allclose(
            block, np.column_stack([op.apply(col) for col in G.T]), rtol=0,
            atol=1e-12)
        np.testing.assert_allclose(block, oracle @ G, rtol=0, atol=1e-12)


class TestLift:
    def test_initial_lift_blocks(self):
        z0 = np.array([0.5, -0.25, 1.0 + 0.5j])
        g0 = initial_lift(z0, 3)
        for k in (1, 2, 3):
            np.testing.assert_allclose(g0.block(k), kron_power(z0, k),
                                       atol=1e-15)

    @pytest.mark.parametrize("order", [1, 3, 6])
    def test_batched_initial_lift_is_kron_power_to_the_bit(self, order):
        rows = np.random.default_rng(order).normal(size=(32, 3)) \
            * np.array([1.0, 1.0 + 0.5j, -0.7j])
        lifts = initial_lift(rows, order)
        assert lifts.shape == (32, carleman_dimension(3, order))
        for z0, lift in zip(rows, lifts):
            np.testing.assert_array_equal(
                lift, np.concatenate([kron_power(z0, k)
                                      for k in range(1, order + 1)]))
            np.testing.assert_array_equal(initial_lift(z0, order).data, lift)

    def test_first_block_derivative_matches_rhs(self):
        # at t = 0 the lifted derivative of block 1 is the polynomial rhs
        # truncated to degrees <= order
        from koopman_lab.polyflow import eval_rhs
        sys, _, _ = random_quadratic(3, seed=14)
        z0 = np.array([0.2, -0.1, 0.15])
        op = build_carleman(sys, 4)
        dg = op.apply(initial_lift(z0, 4).data)
        np.testing.assert_allclose(dg[:3], eval_rhs(sys, z0), atol=1e-13)


class TestEvolve:
    def test_linear_system_exact_in_blocks(self):
        # for a purely linear system each block evolves by expm(position sum)
        d = 2
        rng = np.random.default_rng(15)
        M = rng.normal(size=(d, d)) - 2.0 * np.eye(d)
        sys = PolySystem(d, [None, SparseTensor.from_dense_flat(1, M)])
        op = build_carleman(sys, 2)
        z0 = np.array([0.4, -0.3])
        traj = evolve_lifted(op, initial_lift(z0, 2), 1.0, 1e-12)
        final = LiftedState(d, 2, traj.final)
        zT = expm(M) @ z0
        np.testing.assert_allclose(final.block(1), zT, atol=1e-9)
        np.testing.assert_allclose(final.block(2), np.kron(zT, zT),
                                   atol=1e-9)

    def test_truncation_error_converges_inside_ball(self):
        sys, _, _ = random_quadratic(2, seed=16, scale=0.1)
        z0 = np.array([0.1, -0.05])
        grid = np.linspace(0.0, 1.0, 33)
        ref = integrate_reference(sys, z0, 1.0, 1e-12, grid)
        errs = []
        for order in (1, 3, 5):
            op = build_carleman(sys, order)
            traj = evolve_lifted(op, initial_lift(z0, order), 1.0, 1e-11,
                                 grid)
            _, eps_max = truncation_error(ref, traj, 2, order)
            errs.append(eps_max)
        assert errs[0] > errs[1] > errs[2]

    def test_truncation_error_grid_mismatch(self):
        ref = integrate_reference(random_quadratic(2, 17)[0],
                                  np.array([0.1, 0.1]), 1.0, 1e-10,
                                  np.linspace(0, 1, 5))
        shifted = integrate_reference(random_quadratic(2, 17)[0],
                                      np.array([0.1, 0.1]), 1.0, 1e-10,
                                      np.linspace(0, 1, 5) ** 2)
        with pytest.raises(DimensionError):
            truncation_error(ref, shifted, 2, 1)


def linear_system(F1):
    d = F1.shape[0]
    return PolySystem(d, [None, SparseTensor.from_dense_flat(1, F1)])


class TestExactStep:
    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 3), order=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), t_end=st.floats(0.05, 2.0))
    def test_dissipative_linear_system_lifts_exactly(self, d, order, seed,
                                                     t_end):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(d, d))
        F1 = A - (np.linalg.norm(A, 2) + 0.5) * np.eye(d)  # log-norm < 0
        op = build_carleman(linear_system(F1), order)
        z0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        grid = np.linspace(0.0, t_end, 33)
        assert exact_step(op, t_end, grid) is not None
        traj = evolve_lifted(op, initial_lift(z0, order), t_end, 1e-10, grid)
        want = np.array([expm(F1 * t) @ z0 for t in grid])
        assert not traj.diverged
        np.testing.assert_allclose(traj.states[:, :d], want, rtol=0,
                                   atol=1e-12)

    def test_zero_horizon_is_the_initial_sample(self):
        sys, _, _ = random_quadratic(2, seed=18)
        op = build_carleman(sys, 3)
        g0 = initial_lift(np.array([0.1, -0.2]), 3)
        traj = evolve_lifted(op, g0, 0.0, 1e-10)
        want = integrate_rhs(lambda t, g: op.apply(g), g0.data, 0.0, 1e-10)
        np.testing.assert_array_equal(traj.times, want.times)
        np.testing.assert_array_equal(traj.states, want.states)
        assert traj.diverged == want.diverged is False

    @pytest.mark.parametrize("d, dense", [(DENSE_LIMIT, True),
                                          (DENSE_LIMIT + 1, False)])
    def test_dense_limit_selects_the_path(self, d, dense, monkeypatch):
        op = build_carleman(linear_system(-np.eye(d)), 1)
        grid = np.linspace(0.0, 0.5, 17)
        calls = []
        integrate = carleman.integrate_rhs

        def counted(*args, **kwargs):
            calls.append(1)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(carleman, "integrate_rhs", counted)
        traj = evolve_lifted(op, initial_lift(np.ones(d), 1), 0.5, 1e-10,
                             grid)
        assert (exact_step(op, 0.5, grid) is not None) is dense
        assert bool(calls) is not dense
        np.testing.assert_allclose(traj.states,
                                   np.exp(-grid)[:, None] * np.ones(d),
                                   rtol=0, atol=1e-8)

    def test_block_columns_are_single_runs(self):
        # an expanding lift: the largest start passes the divergence norm
        rng = np.random.default_rng(21)
        F1 = 2.0 * np.eye(2) + 0.1 * rng.normal(size=(2, 2))
        F2 = 0.3 * rng.normal(size=(2, 4))
        sys = PolySystem(2, [None, SparseTensor.from_dense_flat(1, F1),
                             SparseTensor.from_dense_flat(2, F2)])
        op = build_carleman(sys, 3)
        grid = np.linspace(0.0, 2.0, 33)
        step = exact_step(op, 2.0, grid)
        lifts = [initial_lift(scale * rng.normal(size=2), 3)
                 for scale in (0.1, 1.0, 30.0)]
        G0 = np.column_stack([g.data for g in lifts])
        singles = [evolve_lifted(op, g0, 2.0, 1e-10, grid, step)
                   for g0 in lifts]
        assert [t.diverged for t in singles] == [False, False, True]
        for width in (0, 8):
            block = carleman.evolve_lifted_block(op, G0, 2.0, 1e-10, grid,
                                                 step, width)
            assert len(block) == len(lifts)
            for traj, single in zip(block, singles):
                assert traj.diverged == single.diverged
                np.testing.assert_array_equal(traj.times, single.times)
                np.testing.assert_allclose(traj.states, single.states,
                                           rtol=1e-13)

    def test_block_off_the_grid_integrates_each_column(self):
        sys, _, _ = random_quadratic(2, seed=23)
        op = build_carleman(sys, 2)
        grid = np.array([0.0, 0.1, 0.3, 0.6])
        lifts = [initial_lift(z0, 2) for z0 in ([0.1, 0.2], [0.3, -0.1])]
        block = carleman.evolve_lifted_block(
            op, np.column_stack([g.data for g in lifts]), 0.6, 1e-10, grid)
        for traj, g0 in zip(block, lifts):
            single = evolve_lifted(op, g0, 0.6, 1e-10, grid)
            np.testing.assert_array_equal(traj.states, single.states)

    def test_non_uniform_grid_is_integrated(self):
        op = build_carleman(random_quadratic(2, seed=19)[0], 2)
        assert exact_step(op, 1.0, np.linspace(0.0, 1.0, 9) ** 2) is None
        assert exact_step(op, 1.0, np.linspace(0.0, 1.0, 9)) is not None

    def test_truncation_error_maps_block1_rows(self):
        sys, _, _ = random_quadratic(2, seed=20)
        z0 = np.array([0.1, -0.05])
        grid = np.linspace(0.0, 0.5, 9)
        ref = integrate_reference(sys, z0, 0.5, 1e-12, grid)
        op = build_carleman(sys, 3)
        traj = evolve_lifted(op, initial_lift(z0, 3), 0.5, 1e-10, grid)
        profile, eps_max = truncation_error(ref, traj, 2, 3,
                                            back_map=lambda g: 2.0 * g)
        want = [np.linalg.norm(ref.states[s] - 2.0 * traj.states[s, :2])
                for s in range(grid.size)]
        np.testing.assert_allclose(profile, want, rtol=1e-14)
        assert eps_max == np.max(profile)
        with pytest.raises(DimensionError):
            truncation_error(ref, traj, 2, 2)

    def test_truncation_error_infinite_on_divergence(self):
        op = build_carleman(linear_system(np.array([[400.0]])), 1)
        grid = np.linspace(0.0, 0.1, 11)
        traj = evolve_lifted(op, initial_lift(np.array([1.0]), 1), 0.1,
                             1e-10, grid)
        assert traj.diverged and traj.times.size < grid.size
        ref = integrate_rhs(lambda t, x: -x, np.array([1.0 + 0j]), 0.1,
                            1e-10, grid)
        _, eps_max = truncation_error(ref, traj, 1, 1)
        assert eps_max == np.inf
