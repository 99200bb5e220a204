import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from koopman_lab import polyflow
from koopman_lab.polyflow import (
    DimensionError,
    NonDissipativeError,
    OverflowGuardError,
    PolySystem,
    SparseTensor,
    StepUnderflowError,
    eval_rhs,
    frobenius_norm,
    integrate_reference,
    integrate_rhs,
    kron_power,
    log_norm,
    quadratic_r_number,
    spectral_norm,
    system_from_json,
    system_to_json,
    taylor_flow,
    taylor_samples,
    vectorized_rhs,
    write_csv,
)


def linear_system(M):
    d = M.shape[0]
    return PolySystem(d, [None, SparseTensor.from_dense_flat(1, M)])


class TestSparseTensor:
    def test_duplicate_entries_sum(self):
        t = SparseTensor(2, 3)
        t.add(0, (1, 2), 1.5)
        t.add(0, (1, 2), 2.5)
        assert list(t.entries()) == [(0, (1, 2), 4.0)]

    def test_col_flat_row_major(self):
        t = SparseTensor(3, 4)
        assert t.col_flat((1, 2, 3)) == 1 * 16 + 2 * 4 + 3

    def test_dense_flat_roundtrip(self):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(3, 9)) + 1j * rng.normal(size=(3, 9))
        mat[rng.random(size=mat.shape) < 0.5] = 0.0
        t = SparseTensor.from_dense_flat(2, mat)
        np.testing.assert_allclose(t.dense_flat(), mat, atol=1e-15)

    def test_bad_multi_index_length(self):
        t = SparseTensor(2, 3)
        with pytest.raises(DimensionError):
            t.add(0, (1,), 1.0)

    def test_out_of_range(self):
        t = SparseTensor(1, 2)
        with pytest.raises(DimensionError):
            t.add(2, (0,), 1.0)
        with pytest.raises(DimensionError):
            t.add(0, (2,), 1.0)


class TestEvalRhs:
    def test_matches_dense_contraction(self):
        rng = np.random.default_rng(1)
        d = 3
        F1 = rng.normal(size=(d, d))
        F2 = rng.normal(size=(d, d * d))
        sys = PolySystem(d, [None, SparseTensor.from_dense_flat(1, F1),
                             SparseTensor.from_dense_flat(2, F2)])
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        expected = F1 @ x + F2 @ np.kron(x, x)
        np.testing.assert_allclose(eval_rhs(sys, x), expected, atol=1e-13)

    def test_constant_term(self):
        t0 = SparseTensor(0, 2)
        t0.add(0, (), 3.0)
        sys = PolySystem(2, [t0])
        np.testing.assert_allclose(eval_rhs(sys, np.zeros(2)), [3.0, 0.0])
        assert sys.has_constant_term()

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 3),
           degrees=st.sets(st.integers(0, 3), min_size=1),
           seed=st.integers(0, 2**32 - 1))
    def test_vectorized_matches_per_entry_oracle(self, d, degrees, seed):
        rng = np.random.default_rng(seed)
        tensors = [None] * (max(degrees) + 1)
        for k in degrees:
            tensors[k] = SparseTensor.from_dense_flat(
                k, rng.normal(size=(d, d**k)))
        sys = PolySystem(d, tensors)
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        np.testing.assert_allclose(vectorized_rhs(sys)(0.0, x),
                                   eval_rhs(sys, x), rtol=1e-13, atol=1e-13)


class TestIntegration:
    def test_linear_matches_expm(self):
        rng = np.random.default_rng(2)
        M = rng.normal(size=(4, 4)) - 2.0 * np.eye(4)
        x0 = rng.normal(size=4)
        traj = integrate_reference(linear_system(M), x0, 1.0, 1e-12)
        np.testing.assert_allclose(traj.final, expm(M) @ x0, atol=1e-9)
        assert not traj.diverged

    def test_divergence_flagged_not_raised(self):
        # dx/dt = x^2 from x0 = 2 blows up at t = 0.5
        t2 = SparseTensor(2, 1)
        t2.add(0, (0, 0), 1.0)
        sys = PolySystem(1, [None, None, t2])
        traj = integrate_reference(sys, np.array([2.0]), 1.0, 1e-10)
        assert traj.diverged
        assert traj.times[-1] < 1.0

    def test_t_end_zero(self):
        traj = integrate_rhs(lambda t, y: -y, np.array([1.0 + 0j]), 0.0, 1e-10)
        assert traj.times.size == 1
        np.testing.assert_allclose(traj.final, [1.0])

    def test_sample_grid_respected(self):
        grid = np.linspace(0.0, 1.0, 17)
        traj = integrate_rhs(lambda t, y: -y, np.array([1.0 + 0j]), 1.0,
                             1e-10, grid)
        np.testing.assert_allclose(traj.times, grid)
        np.testing.assert_allclose(traj.states[:, 0], np.exp(-grid),
                                   atol=1e-9)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            integrate_reference(linear_system(-np.eye(2)), np.ones(2), 1.0, 0)


def counted(rhs):
    """rhs, counting its calls in `.calls`."""
    def wrapped(t, y):
        wrapped.calls += 1
        return rhs(t, y)

    wrapped.calls = 0
    return wrapped


class TestWeightedIntegration:
    @pytest.mark.parametrize("x0", [[0.3, -0.2], [1.5, 0.4]],
                             ids=["bounded", "blows-up"])
    def test_unit_weights_are_scipys_dop853(self, x0):
        # the weighted error norm and initial step reduce to scipy's own
        rhs = vectorized_rhs(blow_up_system())
        grid = np.linspace(0.0, 3.0, 33)
        x0 = np.array(x0, dtype=complex)
        plain, ones = counted(rhs), counted(rhs)
        want = integrate_rhs(plain, x0, 3.0, 1e-10, grid)
        got = integrate_rhs(ones, x0, 3.0, 1e-10, grid, weights=np.ones(2))
        assert got.diverged == want.diverged
        np.testing.assert_array_equal(got.times, want.times)
        np.testing.assert_array_equal(got.states, want.states)
        # the initial step is chosen outside the solver, which evaluates
        # the first derivative again
        assert ones.calls == plain.calls + 1

    @pytest.mark.parametrize("shift", [-3.0, 5.0], ids=["decays",
                                                        "diverges"])
    def test_weights_count_components_as_repeated(self, shift):
        # component i repeated m_i times: the unweighted run on the
        # repeated vector takes the steps of the weighted run
        rng = np.random.default_rng(3)
        m = np.array([1, 3, 2])
        A = rng.normal(size=(3, 3)) + shift * np.eye(3)
        first = np.concatenate(([0], np.cumsum(m)[:-1]))
        big, small = counted(lambda t, z: np.repeat(A @ z[first], m)), \
            counted(lambda t, y: A @ y)
        y0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        grid = np.linspace(0.0, 5.0, 65)
        want = integrate_rhs(big, np.repeat(y0, m), 5.0, 1e-10, grid)
        got = integrate_rhs(small, y0, 5.0, 1e-10, grid, weights=m)
        assert got.diverged == want.diverged is (shift > 0)
        np.testing.assert_array_equal(got.times, want.times)
        np.testing.assert_allclose(got.states, want.states[:, first],
                                   rtol=1e-13)
        assert small.calls == big.calls + 1


def driven_quadratic(d, seed):
    """A dissipative quadratic system with a constant drive."""
    rng = np.random.default_rng(seed)
    F0 = SparseTensor(0, d)
    for i in range(d):
        F0.add(i, (), rng.normal())
    F1 = rng.normal(size=(d, d)) - 3.0 * np.eye(d)
    F2 = 0.3 * rng.normal(size=(d, d * d))
    return PolySystem(d, [F0, SparseTensor.from_dense_flat(1, F1),
                          SparseTensor.from_dense_flat(2, F2)])


def blow_up_system():
    """x0' = x0^2 - x0, x1' = 0.5 x0 - 2 x1 + 0.3 x0 x1: x0 blows up in
    finite time from x0 > 1."""
    F1 = SparseTensor(1, 2)
    F1.add(0, (0,), -1.0)
    F1.add(1, (0,), 0.5)
    F1.add(1, (1,), -2.0)
    F2 = SparseTensor(2, 2)
    F2.add(0, (0, 0), 1.0)
    F2.add(1, (0, 1), 0.3)
    return PolySystem(2, [None, F1, F2])


class TestTaylorFlow:
    def test_t_end_zero_is_the_initial_sample(self):
        sys = driven_quadratic(3, seed=1)
        X0 = np.random.default_rng(2).normal(size=(2, 3)) + 0j
        for x0, traj in zip(X0, taylor_flow(sys, X0, 0.0, 1e-12)):
            oracle = integrate_rhs(vectorized_rhs(sys), x0, 0.0, 1e-12)
            np.testing.assert_array_equal(traj.times, oracle.times)
            np.testing.assert_array_equal(traj.states, oracle.states)
            assert not traj.diverged

    def test_non_uniform_grid_matches_dop853(self):
        sys = driven_quadratic(3, seed=3)
        rng = np.random.default_rng(4)
        grid = np.concatenate(([0.0], np.sort(rng.uniform(0, 1.0, 20)),
                               [1.0]))
        X0 = rng.normal(size=(3, 3))
        for x0, traj in zip(X0, taylor_flow(sys, X0, 1.0, 1e-13, grid)):
            oracle = integrate_reference(sys, x0, 1.0, 1e-13, grid)
            np.testing.assert_array_equal(traj.times, oracle.times)
            np.testing.assert_allclose(traj.states, oracle.states, rtol=0,
                                       atol=1e-9)

    def test_linear_flow_matches_expm(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(4, 4)) - 2.0 * np.eye(4)
        x0 = rng.normal(size=4)
        traj, = taylor_flow(linear_system(M), x0[None, :], 1.0, 1e-13)
        np.testing.assert_allclose(traj.final, expm(M) @ x0, rtol=0,
                                   atol=1e-12)

    def test_degree_three_rejected(self):
        t3 = SparseTensor(3, 1)
        t3.add(0, (0, 0, 0), -1.0)
        with pytest.raises(ValueError, match="degree"):
            taylor_flow(PolySystem(1, [None, None, None, t3]),
                        np.ones((1, 1)), 1.0, 1e-12)

    def test_bad_inputs_rejected(self):
        sys = linear_system(-np.eye(2))
        with pytest.raises(ValueError):
            taylor_flow(sys, np.ones((1, 2)), 1.0, 0.0)
        with pytest.raises(DimensionError):
            taylor_flow(sys, np.ones(2), 1.0, 1e-12)
        with pytest.raises(ValueError, match="sample times"):
            taylor_flow(sys, np.ones((1, 2)), 1.0, 1e-12, [0.0, 0.5, 2.0])

    def test_divergence_matches_the_event_path(self):
        # rows 0 and 2 pass DIVERGENCE_NORM at different samples, row 1
        # settles; each keeps the samples and flag of the DOP853 event run
        sys = blow_up_system()
        grid = np.linspace(0.0, 0.1, 129)
        X0 = np.array([[20.0, 1.0], [0.5, 0.2], [30.0, -1.0]])
        flows = taylor_flow(sys, X0, 0.1, 1e-12, grid)
        for x0, traj in zip(X0, flows):
            event = integrate_reference(sys, x0, 0.1, 1e-12, grid)
            assert traj.diverged == event.diverged
            np.testing.assert_array_equal(traj.times, event.times)
            np.testing.assert_allclose(traj.states, event.states, rtol=1e-9)
        assert [traj.diverged for traj in flows] == [True, False, True]
        assert flows[0].times.size != flows[2].times.size

    def test_divergence_after_the_last_sample_is_flagged(self):
        # x0 = 20 blows up near t = 0.05; the samples stop at 0.04
        sys = blow_up_system()
        traj, = taylor_flow(sys, np.array([[20.0, 1.0]]), 0.1, 1e-12,
                            [0.0, 0.02, 0.04])
        assert traj.diverged and traj.times.size == 3

    def test_rows_do_not_depend_on_their_batch(self, taylor_expansions):
        # two settling rows, two diverging rows that step down to their
        # poles, and a row that shortens its steps but stays within the
        # norm: each row alone gives the same bits as in the batch
        sys = blow_up_system()
        grid = np.linspace(0.0, 0.1, 33)
        X0 = np.array([[20.0, 1.0], [0.5, 0.2], [30.0, -1.0], [0.9, 4.0],
                       [8.0, 0.0]])
        batch = taylor_flow(sys, X0, 0.1, 1e-12, grid)
        in_batch = list(taylor_expansions)
        alone_total = 0
        for x0, traj in zip(X0, batch):
            taylor_expansions.clear()
            alone, = taylor_flow(sys, x0[None, :], 0.1, 1e-12, grid)
            np.testing.assert_array_equal(alone.times, traj.times)
            np.testing.assert_array_equal(alone.states, traj.states)
            # the same expansions alone as in the batch: the row's state
            # and step guess of each one are a row of the batch's
            assert len(taylor_expansions) <= len(in_batch)
            for (x, h), (xb, hb) in zip(taylor_expansions, in_batch):
                assert np.any(np.all(xb == x, axis=1) & (hb == h))
            alone_total += len(taylor_expansions)
        assert alone_total == sum(x.shape[0] for x, _ in in_batch)
        assert not batch[4].diverged

    def test_sample_arrays_hold_each_rows_trajectory(self):
        # one (n, c, d) array: each row's kept samples, then NaN
        sys = blow_up_system()
        grid = np.linspace(0.0, 0.1, 33)
        X0 = np.array([[20.0, 1.0], [0.5, 0.2], [30.0, -1.0]])
        times, states, kept, diverged = taylor_samples(sys, X0, 0.1, 1e-12,
                                                       grid)
        np.testing.assert_array_equal(times, grid)
        assert states.shape == (33, 3, 2)
        for r, traj in enumerate(taylor_flow(sys, X0, 0.1, 1e-12, grid)):
            assert kept[r] == traj.times.size
            assert diverged[r] == traj.diverged
            np.testing.assert_array_equal(states[:kept[r], r], traj.states)
            assert np.isnan(states[kept[r]:, r]).all()
        assert kept.tolist() == [17, 33, 11]

    def test_blow_up_rows_step_to_their_poles(self, taylor_expansions):
        # x0' = x0^2 - x0 has its pole near t = 1/x0; each step ends a
        # fixed fraction of the way there, so the rows reach the norm in
        # 96 and 93 expansions
        sys = blow_up_system()
        grid = np.linspace(0.0, 0.1, 33)
        for x0, samples in (([20.0, 1.0], 17), ([30.0, -1.0], 11)):
            taylor_expansions.clear()
            traj, = taylor_flow(sys, np.array([x0]), 0.1, 1e-12, grid)
            assert traj.diverged and traj.times.size == samples
            assert len(taylor_expansions) <= 100

    def test_stiff_interval_is_halved(self):
        # lambda h = 50 over one interval is far outside one order-20
        # expansion's reach, so the steps fall inside the intervals; the
        # tail bound is absolute below |x| = 1
        sys = linear_system(np.array([[-100.0]]))
        traj, = taylor_flow(sys, np.ones((1, 1)), 1.0, 1e-12, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(traj.states[:, 0],
                                   np.exp([0.0, -50.0, -100.0]), rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("grid", [
        np.linspace(0.0, 1.0, 131),
        np.concatenate(([0.0], np.geomspace(1e-4, 1.0, 42))),
    ], ids=["partial-last-span", "geometric"])
    def test_spanned_flow_matches_dop853(self, grid):
        sys = driven_quadratic(3, seed=6)
        X0 = np.random.default_rng(7).normal(size=(3, 3))
        for x0, traj in zip(X0, taylor_flow(sys, X0, 1.0, 1e-13, grid)):
            oracle = integrate_reference(sys, x0, 1.0, 1e-13, grid)
            assert not traj.diverged
            np.testing.assert_array_equal(traj.times, oracle.times)
            np.testing.assert_allclose(traj.states, oracle.states, rtol=0,
                                       atol=1e-9)

    def test_spanned_blow_up_matches_dop853(self):
        # 130 intervals; rows 0 and 2 leave the norm between samples,
        # row 1 settles
        sys = blow_up_system()
        grid = np.linspace(0.0, 0.1, 131)
        X0 = np.array([[20.0, 1.0], [0.5, 0.2], [12.0, -1.0]])
        flows = taylor_flow(sys, X0, 0.1, 1e-12, grid)
        for x0, traj in zip(X0, flows):
            event = integrate_reference(sys, x0, 0.1, 1e-12, grid)
            assert traj.diverged == event.diverged
            np.testing.assert_array_equal(traj.times, event.times)
            np.testing.assert_allclose(traj.states, event.states, rtol=1e-9)
        assert [traj.diverged for traj in flows] == [True, False, True]

    def test_step_that_cannot_advance_raises(self, monkeypatch):
        # with no norm to stop it, the blow-up row's steps shrink with its
        # distance to the pole until a step no longer changes its time
        monkeypatch.setattr(polyflow, "DIVERGENCE_NORM", np.inf)
        with pytest.raises(StepUnderflowError, match="no longer advances"):
            taylor_flow(blow_up_system(), np.array([[20.0, 1.0]]), 0.1,
                        1e-12)


class TestNorms:
    def test_log_norm_hermitian_part(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert log_norm(M) == pytest.approx(0.5)

    def test_spectral_norm(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(3, 7))
        assert spectral_norm(M) == pytest.approx(np.linalg.norm(M, 2))

    def test_frobenius(self):
        M = np.ones((2, 2))
        assert frobenius_norm(M) == pytest.approx(2.0)

    def test_kron_power(self):
        v = np.array([1.0, 2.0])
        np.testing.assert_allclose(kron_power(v, 2), [1, 2, 2, 4])
        with pytest.raises(OverflowGuardError):
            kron_power(np.ones(10), 9)


class TestRNumber:
    def test_scalar_closed_form(self):
        # dx/dt = -x + x^2: R = |F2||z0| / 1
        F2 = SparseTensor(2, 1)
        F2.add(0, (0, 0), 1.0)
        R = quadratic_r_number(None, np.array([[-1.0]]), F2,
                               np.array([0.25]))
        assert R == pytest.approx(0.25)

    def test_constant_term_contributes(self):
        F2 = SparseTensor(2, 1)
        R = quadratic_r_number(np.array([0.5]), np.array([[-2.0]]), F2,
                               np.array([0.25]))
        assert R == pytest.approx((0.5 / 0.25) / 2.0)

    def test_non_dissipative_rejected(self):
        F2 = SparseTensor(2, 1)
        with pytest.raises(NonDissipativeError):
            quadratic_r_number(None, np.array([[0.0]]), F2, np.array([1.0]))

    def test_zero_state_rejected(self):
        F2 = SparseTensor(2, 1)
        with pytest.raises(ValueError):
            quadratic_r_number(None, np.array([[-1.0]]), F2, np.zeros(1))


class TestSerialization:
    def test_json_roundtrip(self):
        t1 = SparseTensor(1, 2)
        t1.add(0, (1,), 1.0 + 2.0j)
        t2 = SparseTensor(2, 2)
        t2.add(1, (0, 1), -0.5)
        sys = PolySystem(2, [None, t1, t2])
        back = system_from_json(system_to_json(sys))
        assert back.dim == 2
        x = np.array([0.3, -0.7])
        np.testing.assert_allclose(eval_rhs(back, x), eval_rhs(sys, x),
                                   atol=1e-15)

    def test_csv_formats_every_value_type(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["s", "i", "x"],
                  [("a", 3, 0.1), ("b", np.int64(-2), np.float64(np.inf))])
        assert path.read_text().splitlines() == [
            "s,i,x", "a,3,0.10000000000000001", "b,-2,inf"]

    @pytest.mark.parametrize("value", [1.0 + 2j, np.complex128(0.5)])
    def test_csv_refuses_complex_values(self, tmp_path, value):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="complex"):
            write_csv(path, ["x"], [(0.0,), (value,)])
        assert not path.exists()
