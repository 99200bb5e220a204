import gc
import itertools
import weakref
from math import factorial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse import csr_matrix

from koopman_lab import carleman
from koopman_lab.carleman import (
    DENSE_LIMIT,
    STEP_COLUMNS,
    ConstantDriveError,
    LiftedState,
    block_offsets,
    build_carleman,
    build_monomial_lift,
    carleman_dimension,
    evolve_lifted,
    exact_step,
    initial_lift,
    lifted_samples,
    step_block,
)
from koopman_lab.nip import ReferenceSamples, _route_errors, route_system
from koopman_lab.polyflow import (
    DimensionError,
    OverflowGuardError,
    PolySystem,
    SparseTensor,
    integrate_reference,
    integrate_rhs,
    kron_power,
)
from koopman_lab.population import paper_model


def lift_errors(ref, lift, z0, t_end, grid, back_map=None):
    """The monomial lift of z0, measured against the reference Trajectory
    on its grid by the package's one truncation-error routine
    (`nip._route_errors`)."""
    _, samples, kept, diverged = lifted_samples(
        lift, lift.initial_lift(z0)[:, None], t_end, grid)
    references = ReferenceSamples(ref.times, ref.states[None],
                                  np.array([ref.times.size]),
                                  np.array([ref.diverged]))
    return _route_errors(references,
                         samples[:, :lift.dim].transpose(2, 0, 1), kept,
                         diverged, back_map)


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
        t0 = SparseTensor.from_arrays(0, 2, [0], np.empty((1, 0)), [1.0])
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
        g = initial_lift(np.arange(1.0, 4.0), 3)
        np.testing.assert_array_equal(g.block(1), g.data[0:3])
        np.testing.assert_array_equal(g.block(2), g.data[3:12])
        with pytest.raises(DimensionError):
            g.block(4)


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


def random_system(d, degrees, rng, F1=None):
    """Random dense tensors of the given degrees, F1 when given; returns
    the system and its (degree, flattening) list."""
    F = {k: rng.normal(size=(d, d**k)) for k in sorted(degrees)}
    if F1 is not None:
        F[1] = F1
    tensors = [None] * (max(F) + 1)
    for k, Fk in F.items():
        tensors[k] = SparseTensor.from_dense_flat(k, Fk)
    return PolySystem(d, tensors), sorted(F.items())


def expansion(lift):
    """The 0/1 map E from monomial coordinates to Kronecker coordinates:
    row p, a multi-index of the Kronecker layout, has its 1 at the
    monomial of the multi-index's multiset."""
    d = lift.dim
    index = {tuple(alpha): a for a, alpha in enumerate(lift.exponents)}
    cols = [index[tuple(np.bincount(multi, minlength=d))]
            for k in range(1, lift.order + 1)
            for multi in itertools.product(range(d), repeat=k)]
    E = np.zeros((len(cols), lift.total_dim))
    E[np.arange(len(cols)), cols] = 1.0
    return E


class TestMonomialLift:
    # The fixture is a pure function, so sharing it across examples is safe.
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(d=st.integers(1, 3), order=st.integers(1, 4),
           degrees=st.sets(st.integers(1, 3), min_size=1),
           seed=st.integers(0, 2**32 - 1))
    def test_generator_is_the_kronecker_generator_on_multisets(
            self, dense_lift_oracle, d, order, degrees, seed):
        # E C_sym = C_kron E, with C_kron from the kernel and the oracle
        sys, F = random_system(d, degrees, np.random.default_rng(seed))
        lift = build_monomial_lift(sys, order)
        E = expansion(lift)
        assert lift.kron_dim == E.shape[0] == carleman_dimension(d, order)
        lifted = E @ lift.dense()
        np.testing.assert_allclose(lifted, build_carleman(sys, order).dense()
                                   @ E, rtol=0, atol=1e-12)
        np.testing.assert_allclose(lifted, dense_lift_oracle(F, d, order) @ E,
                                   rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 3), order=st.integers(1, 4),
           degrees=st.sets(st.integers(2, 3)),
           seed=st.integers(0, 2**32 - 1))
    def test_spectrum_is_the_sums_of_eigenvalues(self, d, order, degrees,
                                                 seed):
        # block upper-triangular by degree, with diagonal blocks fixed by
        # F1 alone: spec(C_sym) = {alpha . lambda : 1 <= |alpha| <= N}
        rng = np.random.default_rng(seed)
        # no two sums alpha . lambda coincide; V's condition number is <= 2
        lam = -np.sqrt([2.0, 3.0, 5.0])[:d]
        U, W = (np.linalg.qr(rng.normal(size=(d, d)))[0] for _ in range(2))
        V = U @ np.diag(1.0 + rng.random(d)) @ W
        F1 = V @ np.diag(lam) @ np.linalg.inv(V)
        sys, _ = random_system(d, degrees, rng, F1=F1)
        lift = build_monomial_lift(sys, order)
        want = np.sort([lam[list(multi)].sum()
                        for k in range(1, order + 1)
                        for multi in itertools.combinations_with_replacement(
                            range(d), k)])
        got = np.linalg.eigvals(lift.dense())
        assert got.size == want.size == lift.total_dim
        np.testing.assert_allclose(np.sort(got.real), want, rtol=0,
                                   atol=1e-10)
        np.testing.assert_allclose(got.imag, 0.0, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("d, order", [(1, 5), (2, 6), (3, 10), (5, 4)])
    def test_multiplicities_count_kronecker_coordinates(self, d, order):
        lift = build_monomial_lift(linear_system(-np.eye(d)), order)
        degree = lift.exponents.sum(axis=1)
        for k in range(1, order + 1):
            assert lift.multiplicities[degree == k].sum() == d**k
        for alpha, m in zip(lift.exponents, lift.multiplicities):
            assert m == factorial(alpha.sum()) / np.prod(
                [factorial(a) for a in alpha])
        assert lift.kron_dim == carleman_dimension(d, order)

    def test_coordinates_run_by_degree_then_sorted_multi_index(self):
        lift = build_monomial_lift(linear_system(-np.eye(3)), 4)
        assert lift.total_dim == 34
        np.testing.assert_array_equal(lift.exponents[:3], np.eye(3))
        want = [multi for k in range(1, 5) for multi in
                itertools.combinations_with_replacement(range(3), k)]
        got = [tuple(np.repeat(np.arange(3), alpha))
               for alpha in lift.exponents]
        assert got == want
        np.testing.assert_array_equal(
            carleman.monomial_index(lift.exponents, lift.offsets),
            np.arange(lift.total_dim))

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 3), order=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_initial_lift_expands_to_kron_powers(self, d, order, seed):
        rng = np.random.default_rng(seed)
        lift = build_monomial_lift(linear_system(-np.eye(d)), order)
        E = expansion(lift)
        rows = rng.normal(size=(4, d)) + 1j * rng.normal(size=(4, d))
        lifts = lift.initial_lift(rows)
        assert lifts.shape == (4, lift.total_dim)
        for z0, g in zip(rows, lifts):
            np.testing.assert_array_equal(lift.initial_lift(z0), g)
            np.testing.assert_allclose(
                E @ g, np.concatenate([kron_power(z0, k)
                                       for k in range(1, order + 1)]),
                rtol=1e-14, atol=0)

    @pytest.mark.parametrize("order", [1, 3, 6])
    def test_batched_initial_lift_is_the_kronecker_entries_to_the_bit(
            self, order):
        # monomial alpha holds the Kronecker entry of its sorted multi-index
        d = 3
        rows = np.random.default_rng(order).normal(size=(32, d)) \
            * np.array([1.0, 1.0 + 0.5j, -0.7j])
        lift = build_monomial_lift(linear_system(-np.eye(d)), order)
        offsets = block_offsets(d, order)
        sorted_entry = [offsets[alpha.sum() - 1] + np.ravel_multi_index(
            np.repeat(np.arange(d), alpha), (d,) * alpha.sum())
            for alpha in lift.exponents]
        lifts = lift.initial_lift(rows)
        assert lifts.shape == (32, lift.total_dim)
        for z0, g in zip(rows, lifts):
            np.testing.assert_array_equal(
                g, initial_lift(z0, order).data[sorted_entry])
            np.testing.assert_array_equal(lift.initial_lift(z0), g)

    def test_constant_term_rejected(self):
        t0 = SparseTensor.from_arrays(0, 2, [0], np.empty((1, 0)), [1.0])
        with pytest.raises(ConstantDriveError):
            build_monomial_lift(PolySystem(2, [t0]), 2)

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 3), order=st.integers(1, 5),
           degrees=st.sets(st.integers(1, 3), min_size=1),
           seed=st.integers(0, 2**32 - 1))
    def test_dense_is_the_csr_of_its_triplets(self, d, order, degrees, seed):
        # the triplets repeat positions, and two orders of summing m terms
        # differ by at most m - 1 ulps of the summed magnitudes
        sys, _ = random_system(d, degrees, np.random.default_rng(seed))
        lift = build_monomial_lift(sys, order)
        size = lift.total_dim
        want = csr_matrix((lift.vals, (lift.rows, lift.cols)),
                          shape=(size, size)).toarray()
        magnitude, terms = np.zeros((2, size, size))
        np.add.at(magnitude, (lift.rows, lift.cols), np.abs(lift.vals))
        np.add.at(terms, (lift.rows, lift.cols), 1.0)
        got = lift.dense()
        for part in (np.real, np.imag):
            assert np.all(np.abs(part(got) - part(want))
                          <= np.maximum(terms - 1, 0) * np.spacing(magnitude))
        block = np.random.default_rng(seed).normal(size=(size, 5)) + 0j
        applied = lift.apply(block)
        np.testing.assert_array_equal(lift.apply(block), applied)
        np.testing.assert_allclose(applied, want @ block, rtol=0,
                                   atol=1e-13 * np.abs(want).sum()
                                   * np.abs(block).max())

    def test_paper_lifts_dense_is_the_csr_of_its_triplets(self):
        # within one ulp of the summed magnitudes
        model = paper_model()
        for route in ("vacancy", "mode"):
            for order in range(1, 9):
                lift = build_monomial_lift(
                    route_system(model, route, order), order)
                size = lift.total_dim
                want = csr_matrix((lift.vals, (lift.rows, lift.cols)),
                                  shape=(size, size)).toarray()
                magnitude = np.zeros((size, size))
                np.add.at(magnitude, (lift.rows, lift.cols),
                          np.abs(lift.vals))
                assert np.all(np.abs(lift.dense() - want)
                              <= np.spacing(magnitude))

    def test_kronecker_dimension_guarded(self):
        # 165 monomials, but 10^9 Kronecker coordinates
        with pytest.raises(OverflowGuardError):
            build_monomial_lift(linear_system(-np.eye(10)), 9)

    @pytest.mark.parametrize("d, order", [(d, n) for d in range(1, 6)
                                          for n in range(1, 9)]
                             + [(2, 13), (2, 14), (2, 15)])
    def test_dense_limit_counts_monomials(self, d, order):
        # the rule reads the lift's own coordinate count, not the Kronecker
        # one: at d = 2, 119 monomials at order 14, 135 at order 15
        lift = build_monomial_lift(linear_system(-np.eye(d)), order)
        assert carleman.steps_exactly(d, order) \
            is (lift.total_dim <= DENSE_LIMIT)
        grid = np.linspace(0.0, 0.5, 3)
        assert (exact_step(lift, 0.5, grid) is not None) \
            is carleman.steps_exactly(d, order)

    @pytest.mark.parametrize("order, exact", [(7, True), (8, False)])
    def test_dense_limit_selects_the_path_by_monomials(self, order, exact,
                                                       monkeypatch):
        # d = 3: 119 monomials stand for 3,279 Kronecker coordinates at
        # order 7, 164 for 9,840 at order 8
        sys, _, _ = random_quadratic(3, seed=24, scale=0.1)
        lift = build_monomial_lift(sys, order)
        grid = np.linspace(0.0, 0.5, 17)
        assert (exact_step(lift, 0.5, grid) is not None) is exact
        calls = []
        integrate = carleman.integrate_rhs

        def recorded(rhs, y0, t_end, tol, *args, **kwargs):
            calls.append((tol, kwargs["weights"]))
            return integrate(rhs, y0, t_end, tol, *args, **kwargs)

        monkeypatch.setattr(carleman, "integrate_rhs", recorded)
        z0 = np.array([0.1, -0.05, 0.08])
        traj = evolve_lifted(lift, lift.initial_lift(z0), 0.5, grid)
        assert bool(calls) is not exact
        if calls:
            # the one lift tolerance, under the Kronecker-weighted norm
            tol, weights = calls[0]
            assert tol == carleman.LIFT_TOL == 1e-10
            assert weights is lift.multiplicities
        oracle = integrate_reference(sys, z0, 0.5, 1e-12, grid)
        np.testing.assert_allclose(traj.states[:, :3], oracle.states,
                                   rtol=0, atol=1e-6)


class TestLift:
    def test_initial_lift_blocks(self):
        z0 = np.array([0.5, -0.25, 1.0 + 0.5j])
        g0 = initial_lift(z0, 3)
        for k in (1, 2, 3):
            np.testing.assert_allclose(g0.block(k), kron_power(z0, k),
                                       atol=1e-15)

    def test_initial_lift_takes_one_vector(self):
        with pytest.raises(DimensionError):
            initial_lift(np.ones((2, 3)), 2)

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
        # for a purely linear system each block evolves by expm(position
        # sum): the monomial flow, expanded to the Kronecker layout, is the
        # Kronecker generator's exponential and the powers of expm(M) z0
        d = 2
        rng = np.random.default_rng(15)
        M = rng.normal(size=(d, d)) - 2.0 * np.eye(d)
        sys = PolySystem(d, [None, SparseTensor.from_dense_flat(1, M)])
        lift = build_monomial_lift(sys, 2)
        z0 = np.array([0.4, -0.3])
        traj = evolve_lifted(lift, lift.initial_lift(z0), 1.0)
        final = LiftedState(d, 2, expansion(lift) @ traj.final)
        np.testing.assert_allclose(
            final.data, expm(build_carleman(sys, 2).dense())
            @ initial_lift(z0, 2).data, rtol=0, atol=1e-12)
        zT = expm(M) @ z0
        np.testing.assert_allclose(final.block(1), zT, atol=1e-9)
        np.testing.assert_allclose(final.block(2), np.kron(zT, zT),
                                   atol=1e-9)

    def test_truncation_error_converges_inside_ball(self):
        sys, _, _ = random_quadratic(2, seed=16, scale=0.1)
        z0 = np.array([0.1, -0.05])
        grid = np.linspace(0.0, 1.0, 33)
        ref = integrate_reference(sys, z0, 1.0, 1e-12, grid)
        errs = [lift_errors(ref, build_monomial_lift(sys, order), z0, 1.0,
                            grid).eps_max[0]
                for order in (1, 3, 5)]
        assert errs[0] > errs[1] > errs[2]


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
        lift = build_monomial_lift(linear_system(F1), order)
        z0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        grid = np.linspace(0.0, t_end, 33)
        assert exact_step(lift, t_end, grid) is not None
        traj = evolve_lifted(lift, lift.initial_lift(z0), t_end, grid)
        want = np.array([expm(F1 * t) @ z0 for t in grid])
        assert not traj.diverged
        np.testing.assert_allclose(traj.states[:, :d], want, rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("route", ["vacancy", "mode"])
    @pytest.mark.parametrize("order, n", [(1, 129), (3, 129), (4, 20),
                                          (3, 2)])
    def test_doubled_stack_is_the_sequential_powers(self, route, order, n):
        # P^k from doubling against P times P^(k-1) and expm(C k h)
        lift = build_monomial_lift(
            route_system(paper_model(), route, order), order)
        h = 0.1 / (n - 1)
        stack = exact_step(lift, 0.1, np.linspace(0.0, 0.1, n))
        assert stack.shape[0] == min(n - 1, carleman.STEP_SPAN)
        C = lift.dense()
        power = stack[0]
        for k, got in enumerate(stack, start=1):
            scale = np.linalg.norm(got)
            assert np.linalg.norm(got - power) <= 1e-14 * scale
            assert np.linalg.norm(got - expm(C * (k * h))) <= 1e-14 * scale
            power = stack[0] @ power

    def test_zero_horizon_is_the_initial_sample(self):
        sys, _, _ = random_quadratic(2, seed=18)
        lift = build_monomial_lift(sys, 3)
        g0 = lift.initial_lift(np.array([0.1, -0.2]))
        traj = evolve_lifted(lift, g0, 0.0)
        want = integrate_rhs(lambda t, g: lift.apply(g), g0, 0.0,
                             carleman.LIFT_TOL)
        np.testing.assert_array_equal(traj.times, [0.0])
        np.testing.assert_array_equal(traj.times, want.times)
        np.testing.assert_array_equal(traj.states, want.states)
        np.testing.assert_array_equal(traj.states, g0[None])
        assert traj.diverged == want.diverged is False

    @pytest.mark.parametrize("d, dense", [(DENSE_LIMIT, True),
                                          (DENSE_LIMIT + 1, False)])
    def test_dense_limit_selects_the_path(self, d, dense, monkeypatch):
        # a linear order-1 lift has d coordinates, Kronecker and monomial
        op = build_monomial_lift(linear_system(-np.eye(d)), 1)
        assert op.kron_dim == op.total_dim == d
        grid = np.linspace(0.0, 0.5, 17)
        calls = []
        integrate = carleman.integrate_rhs

        def counted(*args, **kwargs):
            calls.append(1)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(carleman, "integrate_rhs", counted)
        traj = evolve_lifted(op, op.initial_lift(np.ones(d)), 0.5, grid)
        assert (exact_step(op, 0.5, grid) is not None) is dense \
            is carleman.steps_exactly(d, 1)
        assert bool(calls) is not dense
        np.testing.assert_allclose(traj.states,
                                   np.exp(-grid)[:, None] * np.ones(d),
                                   rtol=0, atol=1e-8)

    def test_integrated_run_frees_its_lift(self, monkeypatch):
        # scipy's solver sits in a reference cycle that holds the lift; the
        # run frees it without waiting for the automatic collector
        monkeypatch.setattr(carleman, "DENSE_LIMIT", 0)
        sys, _, _ = random_quadratic(3, seed=24, scale=0.1)
        lift = build_monomial_lift(sys, 5)
        grid = np.linspace(0.0, 0.5, 17)
        assert exact_step(lift, 0.5, grid) is None
        g0 = lift.initial_lift(np.array([0.1, -0.05, 0.08]))
        alive = weakref.ref(lift)
        gc.disable()
        try:
            evolve_lifted(lift, g0, 0.5, grid)
            del lift
            assert alive() is None
        finally:
            gc.enable()

    def test_block_columns_are_single_runs(self):
        # an expanding lift: the largest start passes the divergence norm
        rng = np.random.default_rng(21)
        F1 = 2.0 * np.eye(2) + 0.1 * rng.normal(size=(2, 2))
        F2 = 0.3 * rng.normal(size=(2, 4))
        sys = PolySystem(2, [None, SparseTensor.from_dense_flat(1, F1),
                             SparseTensor.from_dense_flat(2, F2)])
        op = build_monomial_lift(sys, 3)
        grid = np.linspace(0.0, 2.0, 33)
        step = exact_step(op, 2.0, grid)
        lifts = [op.initial_lift(scale * rng.normal(size=2))
                 for scale in (0.1, 1.0, 30.0)]
        G0 = np.column_stack(lifts)
        singles = [evolve_lifted(op, g0, 2.0, grid) for g0 in lifts]
        assert [t.diverged for t in singles] == [False, False, True]
        times, samples, kept, diverged = lifted_samples(op, G0, 2.0, grid)
        assert exact_step(op, 2.0, grid) is step
        assert samples.shape[2] == len(lifts)
        for col, single in enumerate(singles):
            assert diverged[col] == single.diverged
            np.testing.assert_array_equal(times[:kept[col]], single.times)
            np.testing.assert_array_equal(samples[:kept[col], :, col],
                                          single.states)

    def test_wide_block_columns_are_stepped_alone(self):
        # a block wider than STEP_COLUMNS is stepped STEP_COLUMNS columns
        # at a time, so each column keeps the bits it has alone
        rng = np.random.default_rng(24)
        op = build_monomial_lift(route_system(paper_model(), "mode", 3), 3)
        grid = np.linspace(0.0, 0.1, 129)
        step = exact_step(op, 0.1, grid)
        x0s = rng.uniform(0.8, 1.5, size=(STEP_COLUMNS + 8, 3))
        G0 = op.initial_lift((1.0 - x0s) / x0s).T
        samples, kept = step_block(step, G0, grid.size, op.multiplicities)
        assert samples.shape == (grid.size, op.total_dim, G0.shape[1])
        for col in range(G0.shape[1]):
            alone, alone_kept = step_block(step, G0[:, [col]], grid.size,
                                           op.multiplicities)
            assert kept[col] == alone_kept[0]
            np.testing.assert_array_equal(samples[:, :, col], alone[:, :, 0])

    def test_block_off_the_grid_integrates_each_column(self, monkeypatch):
        # a lift above DENSE_LIMIT takes no exact step
        monkeypatch.setattr(carleman, "DENSE_LIMIT", 0)
        sys, _, _ = random_quadratic(2, seed=23)
        op = build_monomial_lift(sys, 2)
        grid = np.linspace(0.0, 0.6, 4)
        lifts = [op.initial_lift(z0) for z0 in ([0.1, 0.2], [0.3, -0.1])]
        _, samples, kept, _ = lifted_samples(
            op, np.column_stack(lifts), 0.6, grid)
        for col, g0 in enumerate(lifts):
            single = evolve_lifted(op, g0, 0.6, grid)
            np.testing.assert_array_equal(samples[:kept[col], :, col],
                                          single.states)

    def test_integrated_samples_pack_each_run(self, monkeypatch):
        # off the exact path, above DENSE_LIMIT, each column's DOP853 run
        # lands in the (n, D, c) sample array to the bit, a diverged one
        # cut where its run stopped
        monkeypatch.setattr(carleman, "DENSE_LIMIT", 0)
        rng = np.random.default_rng(21)
        F1 = 2.0 * np.eye(2) + 0.1 * rng.normal(size=(2, 2))
        F2 = 0.3 * rng.normal(size=(2, 4))
        sys = PolySystem(2, [None, SparseTensor.from_dense_flat(1, F1),
                             SparseTensor.from_dense_flat(2, F2)])
        op = build_monomial_lift(sys, 3)
        grid = np.linspace(0.0, 2.0, 13)
        G0 = np.column_stack([op.initial_lift(scale * rng.normal(size=2))
                              for scale in (0.1, 30.0)])
        times, samples, kept, diverged = carleman.lifted_samples(
            op, G0, 2.0, grid)
        np.testing.assert_array_equal(times, grid)
        assert samples.shape == (times.size, op.total_dim, 2)
        assert diverged.tolist() == [False, True]
        assert kept[0] == times.size and kept[1] < times.size
        for col in range(2):
            run = integrate_rhs(lambda t, g: op.apply(g), G0[:, col], 2.0,
                                carleman.LIFT_TOL, grid,
                                weights=op.multiplicities)
            assert kept[col] == run.times.size
            np.testing.assert_array_equal(samples[:kept[col], :, col],
                                          run.states)
        assert np.all(np.isnan(samples[kept[1]:, :, 1]))

    def test_truncation_error_maps_block1_rows(self):
        sys, _, _ = random_quadratic(2, seed=20)
        z0 = np.array([0.1, -0.05])
        grid = np.linspace(0.0, 0.5, 9)
        ref = integrate_reference(sys, z0, 0.5, 1e-12, grid)
        op = build_monomial_lift(sys, 3)
        traj = evolve_lifted(op, op.initial_lift(z0), 0.5, grid)
        errors = lift_errors(ref, op, z0, 0.5, grid,
                             back_map=lambda g: 2.0 * g)
        want = [np.linalg.norm(ref.states[s] - 2.0 * traj.states[s, :2])
                for s in range(grid.size)]
        np.testing.assert_allclose(errors.eps[0], want, rtol=1e-14)
        assert errors.eps_max[0] == np.max(errors.eps[0])
        assert not errors.pole_invalid[0]

    def test_truncation_error_infinite_on_divergence(self):
        op = build_monomial_lift(linear_system(np.array([[400.0]])), 1)
        grid = np.linspace(0.0, 0.1, 11)
        ref = integrate_rhs(lambda t, x: -x, np.array([1.0 + 0j]), 0.1,
                            1e-10, grid)
        errors = lift_errors(ref, op, np.array([1.0]), 0.1, grid)
        assert errors.diverged[0] and errors.kept[0] < grid.size
        assert errors.eps_max[0] == np.inf
