import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from koopman_lab import carleman, fermion, nip, polyflow, population, rsep
from koopman_lab.carleman import (
    build_monomial_lift,
    exact_step,
    lifted_samples,
)
from koopman_lab.polyflow import (
    DimensionError,
    NonDissipativeError,
    OverflowGuardError,
    PolySystem,
    SparseTensor,
    StepUnderflowError,
    eval_rhs,
    integrate_reference,
    integrate_rhs,
    kron_power,
    log_norm,
    quadratic_r_number,
    sample_grid,
    spectral_norm,
    taylor_samples,
    vectorized_rhs,
    write_csv,
)


def linear_system(M):
    d = M.shape[0]
    return PolySystem(d, [None, SparseTensor.from_dense_flat(1, M)])


def tensor_of(degree, dim, *entries):
    """The tensor of the (row, cols, value) entries, built by
    `from_arrays`."""
    rows, cols, vals = zip(*entries)
    return SparseTensor.from_arrays(
        degree, dim, rows, np.reshape(cols, (len(rows), degree)), vals)


def assert_entries_bitwise(tensor, want):
    """The tensor's entries are `want`'s (row, cols, value) triples, keys
    equal and values equal to the bit."""
    got = list(tensor.entries())
    assert [e[:2] for e in got] == [e[:2] for e in want]
    np.testing.assert_array_equal(
        np.array([e[2] for e in got], dtype=complex).view(np.int64),
        np.array([e[2] for e in want], dtype=complex).view(np.int64))


class TestSparseTensor:
    def test_col_flat_row_major(self):
        t = tensor_of(3, 4, (0, (1, 2, 3), 1.0))
        assert t.arrays()[1].tolist() == [1 * 16 + 2 * 4 + 3]

    def test_dense_flat_roundtrip(self):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(3, 9)) + 1j * rng.normal(size=(3, 9))
        mat[rng.random(size=mat.shape) < 0.5] = 0.0
        t = SparseTensor.from_dense_flat(2, mat)
        np.testing.assert_allclose(t.dense_flat(), mat, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(degree=st.integers(0, 3), d=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_from_dense_flat_matches_per_entry_oracle(self, degree, d, seed,
                                                      per_entry_tensors):
        # zeros, signed zeros and real entries included
        rng = np.random.default_rng(seed)
        mat = rng.normal(size=(d, d**degree)) \
            + 1j * rng.normal(size=(d, d**degree))
        mat[rng.random(mat.shape) < 0.3] = 0.0
        mat[rng.random(mat.shape) < 0.2] = -0.0
        mat.imag[rng.random(mat.shape) < 0.3] = -0.0
        assert_entries_bitwise(SparseTensor.from_dense_flat(degree, mat),
                               per_entry_tensors.dense_flat(degree, mat))

    @settings(max_examples=40, deadline=None)
    @given(degree=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_from_arrays_sums_repeated_keys_like_add(self, degree, seed):
        # few distinct keys, so most repeat; values of mixed magnitude
        rng = np.random.default_rng(seed)
        n, d = 40, 2
        rows = rng.integers(0, d, n)
        cols = rng.integers(0, d, (n, degree))
        vals = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n) \
            + 1j * rng.normal(size=n)
        vals[rng.random(n) < 0.2] = -0.0
        bulk = SparseTensor.from_arrays(degree, d, rows, cols, vals)
        # the oracle sums each key's values one at a time, from 0.0, in
        # input order
        oracle = {}
        for row, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            key = (row, tuple(c))
            oracle[key] = oracle.get(key, 0.0) + complex(v)
        want = [(row, c, oracle[row, c]) for row, c in sorted(oracle)]
        assert_entries_bitwise(bulk, want)

    def test_sorted_arrays_are_read_only(self):
        rows, cols, vals = SparseTensor.from_dense_flat(
            1, np.eye(2)).sorted_arrays()
        for a in (rows, cols, vals):
            with pytest.raises(ValueError):
                a[...] = 0

    def test_from_arrays_checks_shapes_and_range(self):
        with pytest.raises(DimensionError):
            SparseTensor.from_arrays(2, 3, [0], [[1]], [1.0])
        with pytest.raises(DimensionError):
            SparseTensor.from_arrays(1, 3, [0, 1], [[1], [2]], [1.0])
        # the first entry with an index out of range is named, its row
        # before its columns
        with pytest.raises(DimensionError,
                           match="^row 3 out of range for dim 3$"):
            SparseTensor.from_arrays(1, 3, [0, 3], [[1], [0]], [1.0, 2.0])
        with pytest.raises(DimensionError,
                           match="^column -1 out of range for dim 3$"):
            SparseTensor.from_arrays(1, 3, [0], [[-1]], [1.0])
        with pytest.raises(DimensionError,
                           match="^column 5 out of range for dim 3$"):
            SparseTensor.from_arrays(2, 3, [1, 4], [[0, 5], [7, 0]],
                                     [1.0, 2.0])
        empty = SparseTensor.from_arrays(2, 3, [], np.empty((0, 2)), [])
        assert empty.nnz == 0 and list(empty.entries()) == []


class TestPolySystemFromArrays:
    def test_each_degree_is_its_tensor_from_arrays(self):
        rng = np.random.default_rng(5)
        d, order, n = 3, 4, 60
        degrees = rng.integers(1, order + 1, n)
        rows = rng.integers(0, d, n)
        cols = rng.integers(0, 2, (n, order))  # repeated keys
        vals = rng.normal(size=n) + 1j * rng.normal(size=n)
        sys = PolySystem.from_arrays(d, order, degrees, rows, cols, vals)
        assert sys.tensors[0] is None and sys.max_degree == order
        for k in range(1, order + 1):
            pick = degrees == k
            want = SparseTensor.from_arrays(k, d, rows[pick],
                                            cols[pick, :k], vals[pick])
            assert_entries_bitwise(sys.tensors[k], list(want.entries()))

    def test_empty_degrees_get_tensors_and_constants_are_kept(self):
        sys = PolySystem.from_arrays(2, 3, [0, 3], [1, 0],
                                     [[0, 0, 0], [1, 1, 0]], [2.0, 1.0])
        assert sys.tensors[0].nnz == 1 and sys.has_constant_term()
        assert [t.nnz for t in sys.tensors[1:]] == [0, 0, 1]
        assert list(sys.tensors[3].entries()) == [(0, (1, 1, 0), 1.0)]

    def test_degrees_and_shapes_checked(self):
        with pytest.raises(DimensionError):
            PolySystem.from_arrays(2, 2, [3], [0], [[0, 0]], [1.0])
        with pytest.raises(DimensionError):
            PolySystem.from_arrays(2, 2, [1], [0], [[0]], [1.0])


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
        sys = PolySystem(2, [tensor_of(0, 2, (0, (), 3.0))])
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
        sys = PolySystem(1, [None, None, tensor_of(2, 1, (0, (0, 0), 1.0))])
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


GRID_KINDS = ("none", "uniform", "jittered", "zero alone", "non-uniform",
              "decreasing", "repeated", "not from zero", "before t_end",
              "past t_end", "2-D", "empty")
BAD_GRIDS = GRID_KINDS[4:]
FLOWS = ("sample_grid", "taylor_samples", "integrate_rhs", "lifted_samples",
         "evolve_covariance", "nip_evolve")


def bad_grid(kind, scale, n):
    """np.linspace(0, scale, n), n >= 3, broken as `kind` says."""
    grid = np.linspace(0.0, scale, n)
    if kind == "non-uniform":
        grid[1] /= 2
    elif kind == "decreasing":
        grid = grid[::-1]
    elif kind == "repeated":
        grid[1] = grid[2]
    elif kind == "not from zero":
        grid = np.linspace(scale / 64, scale, n)
    elif kind == "before t_end":
        grid = np.linspace(0.0, scale / 2, n)
    elif kind == "past t_end":
        grid = np.linspace(0.0, 2.0 * scale, n)
    elif kind == "2-D":
        grid = grid[None, :]
    elif kind == "empty":
        grid = grid[:0]
    return grid


@st.composite
def horizons_and_grids(draw):
    """(t_end, kind, sample times) over good and bad horizons and grids of
    3 to 9 samples: np.linspace(0, t_end, n), the same with each sample
    moved by less than 1e-13 t_end, t = 0 alone, and grids broken from
    np.linspace(0, scale, n), scale t_end (1 when t_end is not positive
    and finite)."""
    t_end = draw(st.one_of(st.just(0.0), st.floats(0.01, 3.0),
                           st.sampled_from([-0.5, np.inf, np.nan])))
    kind = draw(st.sampled_from(GRID_KINDS))
    n = draw(st.integers(3, 9))
    span = t_end if 0 <= t_end < np.inf else 1.0
    if kind == "none":
        return t_end, kind, None
    if kind == "zero alone":
        return t_end, kind, [0.0]
    if kind == "uniform":
        return t_end, kind, np.linspace(0.0, span, n).tolist()
    if kind == "jittered":
        jitter = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
        return t_end, kind, (np.linspace(0.0, span, n)
                             + 1e-13 * span * np.array(jitter)).tolist()
    return t_end, kind, bad_grid(kind, span or 1.0, n).tolist()


def flow_times(flow, t_end, grid):
    """The sample times `flow` returns at (t_end, grid), the stack of
    "exact_step", or the ValueError it raises."""
    x0 = np.array([1.0 + 0j])
    decay = linear_system(-np.eye(1))
    try:
        if flow == "sample_grid":
            return sample_grid(t_end, grid)
        if flow == "taylor_samples":
            return taylor_samples(decay, x0[None], t_end, grid)[0]
        if flow == "integrate_rhs":
            return integrate_rhs(lambda t, x: -x, x0, t_end, 1e-10,
                                 grid).times
        if flow == "lifted_samples":
            lift = build_monomial_lift(decay, 2)
            return lifted_samples(lift, lift.initial_lift(x0)[:, None],
                                  t_end, grid)[0]
        if flow == "exact_step":
            return exact_step(build_monomial_lift(decay, 2), t_end, grid)
        if flow == "nip_evolve":
            # at the capacities, the equilibrium eta = 0
            return nip.nip_evolve(population.paper_model(), np.ones(3), 1,
                                  t_end, sample_times=grid).y_approx.times
        h, jumps = fermion.commuting_example(1, [1.0], [0.5])
        return fermion.evolve_covariance(
            fermion.FermionSystem(1, h, jumps),
            fermion.CovarianceState(np.zeros((2, 2))), t_end,
            sample_times=grid)[1]
    except ValueError as exc:
        return exc


class TestSampleGrid:
    @settings(max_examples=80, deadline=None)
    @given(case=horizons_and_grids())
    def test_every_flow_samples_the_one_grid(self, case):
        t_end, kind, grid = case
        # one sample reaches t_end only at t_end = 0
        bad = not 0 <= t_end < np.inf or kind in BAD_GRIDS or (
            kind == "zero alone" and t_end > 0)
        if bad:
            want = None
        elif t_end == 0:
            want = [0.0]
        else:
            want = np.linspace(0.0, t_end, polyflow.GRID_SAMPLES
                               if grid is None else len(grid))
        for flow in FLOWS:
            got = flow_times(flow, t_end, grid)
            if bad:
                assert isinstance(got, ValueError), flow
            else:
                np.testing.assert_array_equal(got, want, err_msg=flow)

    @pytest.mark.parametrize("t_end", [-1.0, np.inf, np.nan])
    def test_horizon_must_be_finite_and_nonnegative(self, t_end):
        with pytest.raises(ValueError, match="t_end must be finite"):
            sample_grid(t_end)

    @pytest.mark.parametrize("kind", BAD_GRIDS)
    @pytest.mark.parametrize("flow", FLOWS + ("exact_step",))
    def test_bad_grids_name_the_rule(self, flow, kind):
        got = flow_times(flow, 1.0, bad_grid(kind, 1.0, 5))
        assert isinstance(got, ValueError), flow
        assert "sample times must be the grid np.linspace(0, t_end, n)" \
            in str(got)

    def test_zero_alone_is_the_grid_of_a_zero_horizon(self):
        for grid in ([0.0], np.zeros(5)):
            np.testing.assert_array_equal(sample_grid(0.0, grid), [0.0])
        with pytest.raises(ValueError, match="n >= 2 when t_end > 0"):
            sample_grid(1.0, [0.0])


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
        # the weighted error norm and initial step reduce to scipy's own:
        # unit weights, or none, against scipy's DOP853 stopped by the norm
        from scipy.integrate import solve_ivp

        def blow_up(t, y):
            return np.linalg.norm(y) - polyflow.DIVERGENCE_NORM

        blow_up.terminal, blow_up.direction = True, 1
        rhs = vectorized_rhs(blow_up_system())
        grid = np.linspace(0.0, 3.0, 33)
        x0 = np.array(x0, dtype=complex)
        plain, none, ones = counted(rhs), counted(rhs), counted(rhs)
        want = solve_ivp(plain, (0.0, 3.0), x0, method="DOP853", rtol=1e-10,
                         atol=1e-10, t_eval=grid, events=blow_up)
        for fn, weights in ((none, None), (ones, np.ones(2))):
            got = integrate_rhs(fn, x0, 3.0, 1e-10, grid, weights=weights)
            assert got.diverged == (want.status == 1)
            np.testing.assert_array_equal(got.times, want.t)
            np.testing.assert_array_equal(got.states, want.y.T)
            # the initial step is chosen outside the solver, which
            # evaluates the first derivative again
            assert fn.calls == plain.calls + 1

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
        assert small.calls == big.calls


def driven_quadratic(d, seed):
    """A dissipative quadratic system with a constant drive."""
    rng = np.random.default_rng(seed)
    F0 = SparseTensor.from_arrays(0, d, np.arange(d), np.empty((d, 0)),
                                  rng.normal(size=d))
    F1 = rng.normal(size=(d, d)) - 3.0 * np.eye(d)
    F2 = 0.3 * rng.normal(size=(d, d * d))
    return PolySystem(d, [F0, SparseTensor.from_dense_flat(1, F1),
                          SparseTensor.from_dense_flat(2, F2)])


def blow_up_system():
    """x0' = x0^2 - x0, x1' = 0.5 x0 - 2 x1 + 0.3 x0 x1: x0 blows up in
    finite time from x0 > 1."""
    F1 = tensor_of(1, 2, (0, (0,), -1.0), (1, (0,), 0.5), (1, (1,), -2.0))
    F2 = tensor_of(2, 2, (0, (0, 0), 1.0), (1, (0, 1), 0.3))
    return PolySystem(2, [None, F1, F2])


def assert_rows_match_dop853(sys, X0, t_end, tol, grid, **close):
    """Each row of `taylor_samples` keeps the samples and divergence flag
    of its own DOP853 run (`integrate_reference` at `tol`), its states
    within `close`; returns the rows' divergence flags."""
    times, states, kept, diverged = taylor_samples(sys, X0, t_end, grid)
    for r, x0 in enumerate(X0):
        oracle = integrate_reference(sys, x0, t_end, tol, grid)
        assert diverged[r] == oracle.diverged
        np.testing.assert_array_equal(times[:kept[r]], oracle.times)
        np.testing.assert_allclose(states[:kept[r], r], oracle.states,
                                   **close)
    return diverged


class TestTaylorFlow:
    def test_t_end_zero_is_the_initial_sample(self):
        sys = driven_quadratic(3, seed=1)
        X0 = np.random.default_rng(2).normal(size=(2, 3)) + 0j
        times, states, kept, diverged = taylor_samples(sys, X0, 0.0)
        assert kept.tolist() == [1, 1] and not diverged.any()
        for r, x0 in enumerate(X0):
            oracle = integrate_rhs(vectorized_rhs(sys), x0, 0.0, 1e-12)
            np.testing.assert_array_equal(times, oracle.times)
            np.testing.assert_array_equal(states[:, r], oracle.states)

    def test_linear_flow_matches_expm(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(4, 4)) - 2.0 * np.eye(4)
        x0 = rng.normal(size=4)
        _, states, _, _ = taylor_samples(linear_system(M), x0[None, :], 1.0)
        np.testing.assert_allclose(states[-1, 0], expm(M) @ x0, rtol=0,
                                   atol=1e-12)

    def test_degree_three_rejected(self):
        t3 = tensor_of(3, 1, (0, (0, 0, 0), -1.0))
        with pytest.raises(ValueError, match="degree"):
            taylor_samples(PolySystem(1, [None, None, None, t3]),
                           np.ones((1, 1)), 1.0)

    def test_bad_inputs_rejected(self):
        sys = linear_system(-np.eye(2))
        with pytest.raises(DimensionError):
            taylor_samples(sys, np.ones(2), 1.0)
        with pytest.raises(ValueError, match="sample times"):
            taylor_samples(sys, np.ones((1, 2)), 1.0, [0.0, 0.5, 2.0])

    def test_divergence_matches_the_event_path(self):
        # rows 0 and 2 pass DIVERGENCE_NORM at different samples, row 1
        # settles; each keeps the samples and flag of the DOP853 event run
        sys = blow_up_system()
        grid = np.linspace(0.0, 0.1, 129)
        X0 = np.array([[20.0, 1.0], [0.5, 0.2], [30.0, -1.0]])
        diverged = assert_rows_match_dop853(sys, X0, 0.1, 1e-12, grid,
                                            rtol=1e-9)
        assert diverged.tolist() == [True, False, True]
        _, _, kept, _ = taylor_samples(sys, X0, 0.1, grid)
        assert kept[0] != kept[2]

    def test_divergence_after_the_last_sample_is_flagged(self):
        # x0 = 20 blows up near t = 0.05, between the samples 0.04 and
        # 0.08: a step end passes the norm before the row reaches 0.08
        sys = blow_up_system()
        _, _, kept, diverged = taylor_samples(
            sys, np.array([[20.0, 1.0]]), 0.08, [0.0, 0.04, 0.08])
        assert diverged[0] and kept[0] == 2

    def test_rows_do_not_depend_on_their_batch(self, taylor_expansions):
        # two settling rows, two diverging rows that step down to their
        # poles, and a row that shortens its steps but stays within the
        # norm: each row alone gives the same bits as in the batch
        sys = blow_up_system()
        grid = np.linspace(0.0, 0.1, 33)
        X0 = np.array([[20.0, 1.0], [0.5, 0.2], [30.0, -1.0], [0.9, 4.0],
                       [8.0, 0.0]])
        _, batch, batch_kept, batch_diverged = taylor_samples(sys, X0, 0.1,
                                                              grid)
        in_batch = list(taylor_expansions)
        alone_total = 0
        for r, x0 in enumerate(X0):
            taylor_expansions.clear()
            _, alone, kept, diverged = taylor_samples(sys, x0[None, :], 0.1,
                                                      grid)
            assert (kept[0], diverged[0]) == (batch_kept[r],
                                              batch_diverged[r])
            np.testing.assert_array_equal(alone[:, 0], batch[:, r])
            # the same expansions alone as in the batch: the row's state
            # and step guess of each one are a row of the batch's
            assert len(taylor_expansions) <= len(in_batch)
            for (x, h), (xb, hb) in zip(taylor_expansions, in_batch):
                assert np.any(np.all(xb == x, axis=1) & (hb == h))
            alone_total += len(taylor_expansions)
        assert alone_total == sum(x.shape[0] for x, _ in in_batch)
        assert not batch_diverged[4]

    def test_sample_arrays_hold_each_rows_trajectory(self):
        # one (n, c, d) array: each row's kept samples, then NaN
        sys = blow_up_system()
        grid = np.linspace(0.0, 0.1, 33)
        X0 = np.array([[20.0, 1.0], [0.5, 0.2], [30.0, -1.0]])
        times, states, kept, diverged = taylor_samples(sys, X0, 0.1, grid)
        np.testing.assert_array_equal(times, grid)
        assert states.shape == (33, 3, 2)
        for r in range(3):
            assert np.isfinite(states[:kept[r], r]).all()
            assert np.isnan(states[kept[r]:, r]).all()
        assert kept.tolist() == [17, 33, 11]
        assert diverged.tolist() == [True, False, True]

    def test_blow_up_rows_step_to_their_poles(self, taylor_expansions):
        # x0' = x0^2 - x0 has its pole near t = 1/x0; each step ends a
        # fixed fraction of the way there, so the rows reach the norm in
        # 96 and 93 expansions
        sys = blow_up_system()
        grid = np.linspace(0.0, 0.1, 33)
        for x0, samples in (([20.0, 1.0], 17), ([30.0, -1.0], 11)):
            taylor_expansions.clear()
            _, _, kept, diverged = taylor_samples(sys, np.array([x0]), 0.1,
                                                  grid)
            assert diverged[0] and kept[0] == samples
            assert len(taylor_expansions) <= 100

    def test_stiff_interval_is_halved(self):
        # lambda h = 50 over one interval is far outside one order-20
        # expansion's reach, so the steps fall inside the intervals; the
        # tail bound is absolute below |x| = 1
        sys = linear_system(np.array([[-100.0]]))
        _, states, _, _ = taylor_samples(sys, np.ones((1, 1)), 1.0,
                                         [0.0, 0.5, 1.0])
        np.testing.assert_allclose(states[:, 0, 0],
                                   np.exp([0.0, -50.0, -100.0]), rtol=0,
                                   atol=1e-12)

    def test_spanned_flow_matches_dop853(self):
        sys = driven_quadratic(3, seed=6)
        grid = np.linspace(0.0, 1.0, 131)
        X0 = np.random.default_rng(7).normal(size=(3, 3))
        diverged = assert_rows_match_dop853(sys, X0, 1.0, 1e-13, grid,
                                            rtol=0, atol=1e-9)
        assert not diverged.any()

    def test_spanned_blow_up_matches_dop853(self):
        # 130 intervals; rows 0 and 2 leave the norm between samples,
        # row 1 settles
        sys = blow_up_system()
        grid = np.linspace(0.0, 0.1, 131)
        X0 = np.array([[20.0, 1.0], [0.5, 0.2], [12.0, -1.0]])
        diverged = assert_rows_match_dop853(sys, X0, 0.1, 1e-12, grid,
                                            rtol=1e-9)
        assert diverged.tolist() == [True, False, True]

    def test_step_that_cannot_advance_raises(self, monkeypatch):
        # with no norm to stop it, the blow-up row's steps shrink with its
        # distance to the pole until a step no longer changes its time
        monkeypatch.setattr(polyflow, "DIVERGENCE_NORM", np.inf)
        with pytest.raises(StepUnderflowError, match="no longer advances"):
            taylor_samples(blow_up_system(), np.array([[20.0, 1.0]]), 0.1)

    def test_overflowing_expansion_is_named(self):
        # x' = -1e300 x: the first expansion's second coefficient, formed
        # at a guess of the whole horizon, overflows; it is named as that,
        # not as a step that cannot advance, whichever row of the batch
        sys = linear_system(np.array([[-1e300]]))
        for X0 in ([[0.5]], [[0.0], [0.5]]):
            with pytest.raises(FloatingPointError,
                               match="at t = 0 the expansion's coefficients "
                                     "overflowed"):
                taylor_samples(sys, np.array(X0), 0.1)


def taylor_series(sys, X, h, dtype):
    """The coefficients of one Taylor expansion from each row of X at
    steps h, shape (TAYLOR_ORDER + 1, c, dim + 1)."""
    flow = polyflow._QuadraticTaylor(sys, dtype)
    return flow.series(np.asarray(X, dtype=dtype), np.asarray(h))


def assert_rows_alone_are_the_batch(sys, X0, t_end, grid=None):
    """Each row of X0 flowed alone gives the bits, kept samples and
    divergence flag of its row in the batch."""
    _, batch, kept, diverged = taylor_samples(sys, X0, t_end, grid)
    for r, x0 in enumerate(X0):
        _, alone, k, dv = taylor_samples(sys, x0[None, :], t_end, grid)
        assert (k[0], dv[0]) == (kept[r], diverged[r])
        np.testing.assert_array_equal(alone[:, 0], batch[:, r])


class TestTaylorKernel:
    """`_QuadraticTaylor.series` against closed-form coefficients, and the
    batched flow's rows against the same rows flowed alone."""

    @pytest.mark.parametrize("dtype, X, h", [
        (np.float64, [[0.7], [-1.2], [0.3]], [0.3, 0.1, 1.0]),
        (np.complex128, [[0.5 + 0.4j], [-0.2 + 1.1j]], [0.3, 0.5]),
    ], ids=["real", "complex"])
    def test_square_flow_coefficients(self, dtype, X, h):
        # x' = x^2 from x0: x(t0 + s h) = x0 / (1 - x0 h s), so that
        # a_n = x0^(n + 1) h^n
        F2 = tensor_of(2, 1, (0, (0, 0), dtype(1.0)))
        coef = taylor_series(PolySystem(1, [None, None, F2]), X, h, dtype)
        assert coef.dtype == dtype
        n = np.arange(polyflow.TAYLOR_ORDER + 1)[:, None]
        x0, h = np.asarray(X, dtype=dtype)[:, 0], np.asarray(h)
        np.testing.assert_allclose(coef[:, :, 0], x0 ** (n + 1) * h ** n,
                                   rtol=1e-13, atol=0)
        # the constant coordinate keeps the coefficients (1, 0, 0, ...)
        assert np.all(coef[0, :, 1] == 1) and np.all(coef[1:, :, 1] == 0)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128],
                             ids=["real", "complex"])
    def test_linear_flow_coefficients(self, dtype):
        # x' = M x from x0: a_n = (h M)^n x0 / n!
        rng = np.random.default_rng(11)
        M = rng.normal(size=(4, 4)) - np.eye(4)
        X = rng.normal(size=(3, 4))
        if dtype is np.complex128:
            M = M + 1j * rng.normal(size=(4, 4))
            X = X + 1j * rng.normal(size=(3, 4))
        h = np.array([0.2, 0.05, 0.4])
        coef = taylor_series(linear_system(M), X, h, dtype)
        want = X.astype(dtype)
        for n in range(polyflow.TAYLOR_ORDER + 1):
            np.testing.assert_allclose(coef[n, :, :4], want, rtol=0,
                                       atol=1e-15 * np.abs(X).max())
            want = h[:, None] * (want @ M.T) / (n + 1)

    def test_complex_rows_do_not_depend_on_their_batch(self):
        # rsep's complex quadratic system at d = 10, from six states about
        # its canonical one
        params = rsep.RsepParams(10, 4.0, 10.0, 0.1,
                                 A=rsep.haar_unitary(10, 7))
        systems = rsep.build_rsep(params)
        sys = rsep.quadratic_system(systems.F, systems.v, systems.c,
                                    systems.alpha)
        rng = np.random.default_rng(12)
        X0 = params.A.conj().T[:, 0] + 0.3 * (
            rng.normal(size=(6, 10)) + 1j * rng.normal(size=(6, 10)))
        assert_rows_alone_are_the_batch(sys, X0, 1.0,
                                        np.linspace(0.0, 1.0, 17))

    @pytest.mark.parametrize("rows", [8, 32])
    def test_mode_rows_do_not_depend_on_their_batch(self, rows):
        # the paper's mode system from scan cells drawn off criterion 04's
        # axis, at the scan's horizon and tolerance
        model = population.paper_model()
        axis = np.arange(0.5, 2.0 + 1e-9, 0.05)
        rng = np.random.default_rng(rows)
        X = np.column_stack([np.ones(rows), rng.choice(axis, rows),
                             rng.choice(axis, rows)])
        assert_rows_alone_are_the_batch(
            nip.koopman_system(model), nip.x_to_eta(model, X), 0.1)


def real_and_typed_complex(seed):
    """A dissipative quadratic system of real values, the same entries
    typed complex, and two real initial states."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    F1 = rng.normal(size=(d, d)) - 3.0 * np.eye(d)
    F2 = 0.3 * rng.normal(size=(d, d * d))
    F2[rng.random(F2.shape) < 0.4] = 0.0
    real, typed = (
        PolySystem(d, [None, SparseTensor.from_dense_flat(1, F1.astype(dt)),
                       SparseTensor.from_dense_flat(2, F2.astype(dt))])
        for dt in (float, complex))
    return real, typed, 0.5 * rng.normal(size=(2, d))


def assert_real_parts_agree(real, typed, rtol, axis):
    """`real` is float64 and `typed` complex128 with imaginary parts 0; on
    each sample (a slice along `axis`) they differ by at most rtol times
    the sample's norm, NaN where the other is NaN."""
    assert real.dtype == np.float64 and typed.dtype == np.complex128
    np.testing.assert_array_equal(np.isnan(real), np.isnan(typed))
    real, typed = np.nan_to_num(real), np.nan_to_num(typed)
    assert np.all(typed.imag == 0)
    scale = np.linalg.norm(real, axis=axis, keepdims=True)
    assert np.all(np.abs(real - typed.real) <= rtol * scale)


ULP = np.finfo(float).eps


class TestRealArithmetic:
    """A real system flows in float64, and the same entries typed complex
    flow in complex128 on the same code, to roundoff.  Not to the bit:
    numpy sums a complex reduction pairwise over twice as many parts,
    `expm` solves with complex LAPACK, and DOP853 picks its steps from
    an error norm that carries those last bits.  Over 3,000 systems drawn
    like these the largest gaps were 4.7 (Taylor) and 12.9 (exact step)
    units in the last place of the sample's norm, and 8.8e-13 of it on
    DOP853 at tol 1e-10; the bounds leave room above those."""

    def test_values_keep_their_dtype(self):
        real = ((0, (1, 1), 2), (1, (0, 1), 0.5))
        t = tensor_of(2, 2, *real)
        assert t.sorted_arrays()[2].dtype == np.float64
        t = tensor_of(2, 2, *real, (1, (0, 0), 1j))
        assert t.sorted_arrays()[2].dtype == np.complex128
        ints = SparseTensor.from_arrays(1, 2, [0], [[1]], [3])
        assert ints.sorted_arrays()[2].dtype == np.float64
        real, typed, _ = real_and_typed_complex(0)
        assert (real.dtype, typed.dtype) == (np.float64, np.complex128)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_taylor_flow(self, seed):
        real, typed, X0 = real_and_typed_complex(seed)
        grid = np.linspace(0.0, 0.5, 17)
        _, a, a_kept, a_diverged = taylor_samples(real, X0, 0.5, grid)
        _, b, b_kept, b_diverged = taylor_samples(typed, X0 + 0j, 0.5, grid)
        np.testing.assert_array_equal(a_kept, b_kept)
        np.testing.assert_array_equal(a_diverged, b_diverged)
        assert_real_parts_agree(a, b, 64 * ULP, axis=2)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 3),
           path=st.sampled_from(["exact step", "DOP853"]))
    def test_lifted_flow(self, seed, order, path):
        real, typed, X0 = real_and_typed_complex(seed)
        lift, typed_lift = (build_monomial_lift(s, order)
                            for s in (real, typed))
        np.testing.assert_array_equal(lift.vals, typed_lift.vals)
        G0 = lift.initial_lift(X0).T
        np.testing.assert_array_equal(typed_lift.initial_lift(X0 + 0j).T, G0)
        grid = np.linspace(0.0, 0.5, 17)
        with pytest.MonkeyPatch.context() as patch:
            if path == "DOP853":  # above the dense limit, no exact step
                patch.setattr(carleman, "DENSE_LIMIT", 0)
            a = lifted_samples(lift, G0, 0.5, grid)
            b = lifted_samples(typed_lift, G0 + 0j, 0.5, grid)
        for got, want in zip(a[2:], b[2:]):
            np.testing.assert_array_equal(got, want)
        assert_real_parts_agree(
            a[1], b[1], 64 * ULP if path == "exact step" else 1e-11, axis=1)


class TestNorms:
    def test_log_norm_hermitian_part(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert log_norm(M) == pytest.approx(0.5)

    def test_spectral_norm(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(3, 7))
        assert spectral_norm(M) == pytest.approx(np.linalg.norm(M, 2))

    def test_kron_power(self):
        v = np.array([1.0, 2.0])
        np.testing.assert_allclose(kron_power(v, 2), [1, 2, 2, 4])
        with pytest.raises(OverflowGuardError):
            kron_power(np.ones(10), 9)


class TestRNumber:
    def test_scalar_closed_form(self):
        # dx/dt = -x + x^2: R = |F2||z0| / 1
        F2 = tensor_of(2, 1, (0, (0, 0), 1.0))
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


def per_row_csv(path, header, rows) -> None:
    """The per-value row writer that `write_csv` replaced, kept as its
    oracle: strings as they are, integers in decimal, other numbers with 17
    significant digits."""
    def fmt(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return f"{float(v):.17g}"

    lines = [[fmt(v) for v in row] for row in rows]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(lines)


CSV_FLOATS = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
                     1e308, -1e308, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True))
CSV_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)


def csv_column(n):
    """A column of n values as a handler may build it: a float or integer
    array, or a list of Python or numpy numbers, strings, or a mix."""
    def values(strategy):
        return st.lists(strategy, min_size=n, max_size=n)

    return st.one_of(
        values(CSV_FLOATS).map(lambda v: np.array(v, dtype=np.float64)),
        values(CSV_FLOATS).map(lambda v: [np.float64(x) for x in v]),
        values(CSV_FLOATS),
        values(st.integers(-2**63, 2**63 - 1)).map(
            lambda v: np.array(v, dtype=np.int64)),
        values(st.integers(0, 2**64 - 1)).map(
            lambda v: np.array(v, dtype=np.uint64)),
        values(st.integers(-2**31, 2**31 - 1)).map(
            lambda v: [np.int32(x) for x in v]),
        values(st.integers()),
        values(CSV_TEXT),
        values(CSV_TEXT).map(lambda v: np.array(v, dtype=object)),
        values(st.one_of(CSV_FLOATS, st.integers(), CSV_TEXT)))


class TestSerialization:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_columns_write_the_bytes_of_the_per_value_rows(self, tmp_path,
                                                           data):
        n = data.draw(st.integers(0, 12))
        columns = data.draw(st.lists(csv_column(n), min_size=1, max_size=5))
        header = [f"c{k}" for k in range(len(columns))]
        write_csv(tmp_path / "columns.csv", header, columns)
        per_row_csv(tmp_path / "rows.csv", header, zip(*columns))
        assert (tmp_path / "columns.csv").read_bytes() \
            == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("columns", [
        [np.zeros(2), np.zeros(3)], [["a"], []], [np.zeros(1), [0.5, 1.5]],
        [np.array([0.5, 1.0 + 2j])], [np.zeros(2, dtype=np.complex64)]])
    def test_ragged_or_complex_columns_are_refused_before_writing(
            self, tmp_path, columns):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="ragged|complex"):
            write_csv(path, [f"c{k}" for k in range(len(columns))], columns)
        assert not path.exists()

    def test_csv_formats_every_value_type(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["s", "i", "x"],
                  [("a", "b"), (3, np.int64(-2)), (0.1, np.float64(np.inf))])
        assert path.read_text().splitlines() == [
            "s,i,x", "a,3,0.10000000000000001", "b,-2,inf"]

    @pytest.mark.parametrize("value", [1.0 + 2j, np.complex128(0.5)])
    def test_csv_refuses_complex_values(self, tmp_path, value):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="complex"):
            write_csv(path, ["x", "y"], [(0.0,), (value,)])
        assert not path.exists()

    @pytest.mark.parametrize("header, columns", [
        (["x"], [(0.0,), (1.0,)]), (["x", "y", "z"], [(0.0,), (1.0,)]),
        (["x"], []), ([], [(0.0,)])])
    def test_csv_refuses_columns_not_one_per_name(self, tmp_path, header,
                                                  columns):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=f"{len(columns)} columns under "
                           f"{len(header)} header names"):
            write_csv(path, header, columns)
        assert not path.exists()
