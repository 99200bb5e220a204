import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, solve_continuous_lyapunov

from koopman_lab import fermion
from koopman_lab.fermion import (
    CovarianceState,
    FermionSystem,
    GaplessError,
    SecularError,
    assemble,
    chain_example,
    commuting_example,
    covariance_from_density,
    decay_spectrum,
    energy,
    evolve_covariance,
    exact_lindblad_oracle,
    heat_per_fermion,
    lindblad_gap,
    majorana_operators,
    oracle_deviation,
    random_antisymmetric,
    steady_state,
    system_from_dict,
)
from koopman_lab.polyflow import DimensionError


def commuting_system(N=3, omegas=(1.0, 2.0, 0.7), gammas=(0.4, 0.9, 0.6)):
    h, jumps = commuting_example(N, omegas[:N], gammas[:N])
    return FermionSystem(N, h, jumps)


def random_system(N, n_jumps, h_scale, jump_scale, rng):
    """Random antisymmetric h and n_jumps random complex jump vectors."""
    n2 = 2 * N
    jumps = [jump_scale * (rng.normal(size=n2) + 1j * rng.normal(size=n2))
             for _ in range(n_jumps)]
    return FermionSystem(N, h_scale * random_antisymmetric(n2, rng), jumps)


def physical_covariance(N, purity, rng):
    """purity * O J O^T for a random orthogonal O: a pure Gaussian state
    (purity 1) mixed toward the maximally mixed one (Gamma = 0)."""
    O, _ = np.linalg.qr(rng.normal(size=(2 * N, 2 * N)))
    J = np.kron(np.eye(N), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    G = purity * (O @ J @ O.T)
    return CovarianceState((G - G.T) / 2.0)


def closed_form(sys, gamma0, t):
    """e^{Bt}(Gamma0 - Gamma_ss)e^{B^T t} + Gamma_ss of a gapped system."""
    ss = solve_continuous_lyapunov(sys.B, -sys.Y)
    E = expm(sys.B * t)
    return E @ (gamma0 - ss) @ E.T + ss


def drawn_flow(seed, N, n_jumps, h_scale, jump_scale, purity, t_end, n):
    """The flow `covariance_flows` makes of these drawn values."""
    rng = np.random.default_rng(seed)
    sys = random_system(N, n_jumps, h_scale, jump_scale, rng)
    gamma0 = physical_covariance(N, purity, rng)
    return sys, gamma0, t_end, np.linspace(0.0, t_end, n)


@st.composite
def covariance_flows(draw):
    """(system, Gamma0, t_end, grid): N = 1..4 with 0..2 jumps (0 = closed),
    on the grid np.linspace(0, t_end, n), n = 2..17."""
    return drawn_flow(draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 4)),
                      draw(st.integers(0, 2)), draw(st.floats(0.1, 3.0)),
                      draw(st.floats(0.1, 1.0)), draw(st.floats(0.0, 1.0)),
                      draw(st.floats(0.05, 3.0)), draw(st.integers(2, 17)))


# Stiff flows drawn by `covariance_flows`, on 12 samples, whose fastest mode
# of B decays at rate 15.7 over t = 2.86 and at rate 22.2 over t = 2.95.
# A DOP853 run over all the samples, read off its dense output, strays from
# the exact flow by 5.6e-8 and 1.1e-7 at tol 1e-12, and by 2.5e-10 and
# 1.0e-8 at 1e-13; the oracle, run one interval at a time at 1e-13, stays
# within 2.5e-14 on both.
STIFF_FLOWS = [
    (692918594, 2, 1, 1.2136447136247985, 0.9886954084446584,
     0.40598877214889817, 2.8599631084875625, 12),
    (68, 2, 2, 0.7338356944361653, 0.980586681792712, 0.7530458916599427,
     2.9530604235583833, 12),
]


class TestMajoranas:
    def test_anticommutation(self):
        for N in (1, 2, 3):
            cs = majorana_operators(N)
            dim = 2**N
            for i, ci in enumerate(cs):
                for j, cj in enumerate(cs):
                    anti = ci @ cj + cj @ ci
                    target = 2.0 * np.eye(dim) if i == j else 0.0
                    assert np.max(np.abs(anti - target)) < 1e-13

    def test_hermitian(self):
        for c in majorana_operators(2):
            assert np.max(np.abs(c - c.conj().T)) < 1e-13

    def test_size_guard(self):
        with pytest.raises(DimensionError):
            majorana_operators(5)


class TestSystemAssembly:
    def test_non_antisymmetric_rejected(self):
        with pytest.raises(ValueError):
            FermionSystem(1, np.eye(2), [])

    def test_dissipation_matrices(self):
        rng = np.random.default_rng(0)
        l = rng.normal(size=4) + 1j * rng.normal(size=4)
        sys = FermionSystem(2, random_antisymmetric(4, rng), [l])
        outer = np.outer(l.conj(), l)
        np.testing.assert_allclose(sys.X, 2.0 * outer.real, atol=1e-14)
        np.testing.assert_allclose(sys.Y, -4.0 * outer.imag, atol=1e-14)
        np.testing.assert_allclose(sys.B, sys.h - sys.X, atol=1e-14)

    def test_assemble_odd_size_rejected(self):
        with pytest.raises(DimensionError):
            assemble(np.zeros((3, 3)), [])



class TestEvolution:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(flow=covariance_flows(), kronecker=st.booleans())
    @example(flow=drawn_flow(*STIFF_FLOWS[0]), kronecker=False)
    @example(flow=drawn_flow(*STIFF_FLOWS[1]), kronecker=False)
    def test_exact_flow_matches_dop853_oracles(self, covariance_oracle,
                                               flow, kronecker):
        # the matrix form's oracle is DOP853 run interval by interval, the
        # Kronecker form's an exact exponential of the vectorized flow
        # (`covariance_oracle`)
        sys, gamma0, t_end, grid = flow
        _, times, gammas = evolve_covariance(sys, gamma0, t_end,
                                             sample_times=grid)
        want_t, want = covariance_oracle(sys, gamma0.Gamma, t_end, grid,
                                         kronecker)
        np.testing.assert_array_equal(times, want_t)
        for g, w in zip(gammas, want):
            assert np.max(np.abs(g.Gamma - w)) < 1e-8

    @settings(max_examples=60, deadline=None)
    @given(flow=covariance_flows())
    def test_samples_stay_physical(self, flow):
        sys, gamma0, t_end, grid = flow
        _, _, gammas = evolve_covariance(sys, gamma0, t_end,
                                         sample_times=grid)
        for g in gammas:
            assert np.array_equal(g.Gamma, -g.Gamma.T)
            assert g.is_physical()

    def test_samples_are_one_stack(self, monkeypatch):
        # the samples are rows of one read-only array, a state is built for
        # the final sample alone, and it holds a copy of the last row
        built = []
        post_init = CovarianceState.__post_init__

        def counted(state):
            built.append(state)
            post_init(state)

        sys, g0, t_end, grid = drawn_flow(21, 3, 2, 1.0, 0.5, 0.8, 1.5, 40)
        monkeypatch.setattr(CovarianceState, "__post_init__", counted)
        final, times, gammas = evolve_covariance(sys, g0, t_end,
                                                 sample_times=grid)
        assert len(built) <= 1
        monkeypatch.undo()
        stack = gammas.stack
        assert stack.shape == (40, 6, 6) and stack.dtype == np.float64
        assert not stack.flags.writeable
        assert len(gammas) == times.size == 40
        for k, g in enumerate(gammas):
            assert g.Gamma.tobytes() == stack[k].tobytes()
        assert final.Gamma.tobytes() == stack[-1].tobytes()
        assert not np.shares_memory(final.Gamma, stack)

    def test_long_interval_matches_closed_form(self):
        # |X| h is about 300 on the single interval: the block exponential
        # over all of it would lose every digit of Q
        rng = np.random.default_rng(12)
        sys = random_system(3, 3, 1.0, 2.0, rng)
        g0 = physical_covariance(3, 1.0, rng)
        for grid in ([0.0, 30.0], np.linspace(0.0, 30.0, 3)):
            final, _, _ = evolve_covariance(sys, g0, 30.0, sample_times=grid)
            assert np.max(np.abs(final.Gamma
                                 - closed_form(sys, g0.Gamma, 30.0))) < 1e-12

    def test_zero_horizon_is_the_initial_sample(self):
        rng = np.random.default_rng(13)
        g0 = CovarianceState(random_antisymmetric(6, rng))
        final, times, gammas = evolve_covariance(commuting_system(), g0, 0.0)
        assert times.tolist() == [0.0] and len(gammas) == 1
        np.testing.assert_array_equal(final.Gamma, g0.Gamma)

    @pytest.mark.parametrize("grid", [[0.5, 0.2], [0.0, 1.5], [[0.5]], []])
    def test_bad_sample_times_rejected(self, grid):
        g0 = CovarianceState(np.zeros((6, 6)))
        with pytest.raises(ValueError, match="sample times"):
            evolve_covariance(commuting_system(), g0, 1.0, sample_times=grid)

    def test_antisymmetry_preserved(self):
        rng = np.random.default_rng(3)
        sys = commuting_system()
        g0 = CovarianceState(random_antisymmetric(6, rng))
        final, _, gammas = evolve_covariance(sys, g0, 1.0)
        for g in gammas:
            assert np.max(np.abs(g.Gamma + g.Gamma.T)) < 1e-12

    def test_wrong_size_rejected(self):
        rng = np.random.default_rng(4)
        sys = commuting_system()
        with pytest.raises(DimensionError):
            evolve_covariance(sys, CovarianceState(random_antisymmetric(4, rng)),
                              1.0)


def pair_loop_covariance(rho, N):
    """Gamma_kl = (i/2) Tr(rho [c_k, c_l]) pair by pair, as
    `covariance_from_density` took it before it read the commutators as one
    stack, kept as its oracle."""
    cs = majorana_operators(N)
    n2 = 2 * N
    G = np.zeros((n2, n2))
    for k in range(n2):
        for l in range(k + 1, n2):
            val = 0.5j * np.trace(rho @ (cs[k] @ cs[l] - cs[l] @ cs[k]))
            G[k, l] = val.real
            G[l, k] = -val.real
    return G


def one_horizon_deviation(N, seed, t_end):
    """`oracle_deviation` at one time, its instance built anew, as the CLI
    took it once per horizon, kept as its oracle."""
    h, jumps, rho0 = fermion.random_instance(N, np.random.default_rng(seed))
    g0 = CovarianceState(pair_loop_covariance(rho0, N))
    final, _, _ = evolve_covariance(FermionSystem(N, h, jumps), g0, t_end,
                                    sample_times=[0, t_end])
    oracle = pair_loop_covariance(
        fermion.lindblad_density(h, jumps, rho0, t_end), N)
    return float(np.max(np.abs(final.Gamma - oracle)))


class TestOracle:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 4))
    def test_covariance_from_density_matches_the_pair_loop(self, seed, N):
        rng = np.random.default_rng(seed)
        dim = 2**N
        rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = rho @ rho.conj().T
        rho /= np.trace(rho)
        got = covariance_from_density(rho, N).Gamma
        assert got.tobytes() == pair_loop_covariance(rho, N).tobytes()

    @pytest.mark.parametrize("N, seed", [(1, 3), (2, 5), (3, 11), (4, 0)])
    def test_deviation_over_horizons_is_the_largest_one_horizon_run(
            self, N, seed):
        want = max(one_horizon_deviation(N, seed, t) for t in (0.1, 1.0))
        assert oracle_deviation(N, seed, (0.1, 1.0)) == want
        assert oracle_deviation(N, seed, (1.0,)) \
            == one_horizon_deviation(N, seed, 1.0)

    def test_oracle_matches_covariance_ode(self):
        # small spot check; the acceptance suite runs the 20-instance batch
        dev = oracle_deviation(2, seed=5, t_ends=(0.5,))
        assert dev < 1e-8

    def test_covariance_from_pure_vacuum(self):
        # |0><0| for one mode: (i/2)<[c1, c2]> = -<Z> = -1
        rho = np.diag([1.0, 0.0]).astype(complex)
        g = covariance_from_density(rho, 1)
        assert g.Gamma[0, 1] == pytest.approx(-1.0)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 4),
           n_jumps=st.integers(0, 2),
           t_end=st.floats(0.0, 3.0, exclude_min=True))
    def test_liouvillian_action_matches_dop853(self, dop853_density, seed, N,
                                               n_jumps, t_end):
        h, jumps, rho0 = fermion.random_instance(
            N, np.random.default_rng(seed), n_jumps)
        rho = fermion.lindblad_density(h, jumps, rho0, t_end)
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        got = exact_lindblad_oracle(h, jumps, rho0, t_end).Gamma
        want = covariance_from_density(
            dop853_density(h, jumps, rho0, t_end), N).Gamma
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_oracle_validates_rho(self):
        h, jumps = commuting_example(1, [1.0], [0.5])
        bad = np.eye(2, dtype=complex)  # trace 2
        with pytest.raises(ValueError):
            exact_lindblad_oracle(h, jumps, bad, 0.1)

    @pytest.mark.parametrize("t_end", [-1.0, np.inf, np.nan])
    def test_density_time_must_be_finite_and_nonnegative(self, t_end):
        h, jumps = commuting_example(1, [1.0], [0.5])
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="t_end"):
            fermion.lindblad_density(h, jumps, rho0, t_end)


class TestObservables:
    def test_closed_system_conserves_energy(self):
        rng = np.random.default_rng(6)
        h = random_antisymmetric(6, rng)
        sys = FermionSystem(3, h, [])
        g0 = CovarianceState(random_antisymmetric(6, rng))
        assert abs(heat_per_fermion(sys, g0, 1.0)) < 1e-10

    def test_heat_positive_for_relaxation(self):
        sys = commuting_system()
        rng = np.random.default_rng(7)
        g0 = CovarianceState(random_antisymmetric(6, rng))
        q = heat_per_fermion(sys, g0, 2.0)
        assert np.isfinite(q)

    def test_energy_formula(self):
        rng = np.random.default_rng(8)
        h = random_antisymmetric(4, rng)
        g = CovarianceState(random_antisymmetric(4, rng))
        assert energy(h, g) == pytest.approx(
            -np.trace(h @ g.Gamma).real / 4.0)


class TestSpectrumAndSteady:
    def test_secular_violation_rejected(self):
        rng = np.random.default_rng(9)
        h = random_antisymmetric(4, rng)
        l = rng.normal(size=4) + 1j * rng.normal(size=4)
        sys = FermionSystem(2, h, [l])
        g0 = CovarianceState(random_antisymmetric(4, rng))
        with pytest.raises(SecularError):
            decay_spectrum(sys, g0)

    def test_decay_rates_and_weights(self):
        sys = commuting_system()
        rng = np.random.default_rng(10)
        g0 = CovarianceState(random_antisymmetric(6, rng))
        spec = decay_spectrum(sys, g0)
        # weights exhaust the vectorized initial state
        assert np.sum(spec.weights) == pytest.approx(
            np.linalg.norm(g0.Gamma) ** 2, rel=1e-10)
        # gap is the sum of the two smallest per-mode rates
        nus = np.sort(spec.nus)
        assert spec.gap == pytest.approx(nus[0] + nus[1])

    @pytest.mark.parametrize("N", [1, 3, 8])
    def test_spectrum_matches_the_per_pair_loop(self, N):
        # the scalar loop over the (2N)^2 pairs, k-major, bit for bit
        rng = np.random.default_rng(N)
        sys = FermionSystem(N, *commuting_example(
            N, rng.uniform(0.5, 2.0, N), rng.uniform(0.5, 1.5, N)))
        g0 = CovarianceState(random_antisymmetric(2 * N, rng))
        lam, Q = fermion._normal_eigenbasis(sys)
        nus = -lam.real
        a = Q.conj().T @ g0.Gamma @ Q.conj()
        pairs = [(k, l) for k in range(2 * N) for l in range(2 * N)]
        weights = np.array([abs(a[k, l]) ** 2 for k, l in pairs])
        order = np.argsort(weights)[::-1]
        spec = decay_spectrum(sys, g0)
        assert spec.pairs == [pairs[i] for i in order]
        np.testing.assert_array_equal(spec.weights.view(np.int64),
                                      weights[order].view(np.int64))
        np.testing.assert_array_equal(
            spec.rates, np.array([nus[k] + nus[l] for k, l in pairs])[order])
        assert spec.gap == min(nus[k] + nus[l] for k in range(2 * N)
                               for l in range(k + 1, 2 * N))

    def test_zero_rates_are_positive_zero(self):
        # B = 0: every rate is 0, which -Re(lambda) made -0.0, printed as
        # -0; a nonzero rate keeps the bits of -Re(lambda)
        free = decay_spectrum(FermionSystem(1, np.zeros((2, 2)), []),
                              CovarianceState(np.zeros((2, 2))))
        assert not np.signbit(free.nus).any()
        assert not np.signbit(free.rates).any()
        assert free.gap == 0.0 and not np.signbit(free.gap)
        sys = commuting_system()
        lam, _ = fermion._normal_eigenbasis(sys)
        spec = decay_spectrum(sys, CovarianceState(np.zeros((6, 6))))
        assert np.all(lam.real != 0)
        np.testing.assert_array_equal(spec.nus.view(np.int64),
                                      (-lam.real).view(np.int64))

    def test_lindblad_gap(self):
        sys = commuting_system()
        assert lindblad_gap(sys) == pytest.approx(decay_spectrum(
            sys, CovarianceState(np.zeros((6, 6)))).gap)

    def test_gapless_rejected(self):
        h, jumps = commuting_example(2, [1.0, 2.0], [0.5, 0.0])
        sys = FermionSystem(2, h, jumps)  # second mode undamped
        with pytest.raises(GaplessError):
            lindblad_gap(sys)

    @pytest.mark.parametrize("gammas", [(0.5, 0.0), (0.0, 0.0)])
    def test_steady_state_gapless_rejected(self, gammas):
        # one lossless mode, then a closed system: B has the eigenvalue pair
        # +-2i, so the Lyapunov operator is singular
        h, jumps = commuting_example(2, [1.0, 2.0], gammas)
        with pytest.raises(GaplessError, match="lambda_i"):
            steady_state(FermionSystem(2, h, jumps))

    def test_steady_state_nan_residual_rejected(self, monkeypatch):
        monkeypatch.setattr(fermion, "solve_continuous_lyapunov",
                            lambda B, Q: np.full_like(B, np.nan))
        with pytest.raises(GaplessError, match="residual nan"):
            steady_state(commuting_system())

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 4),
           n_jumps=st.integers(1, 3), h_scale=st.floats(0.1, 3.0),
           jump_scale=st.floats(0.1, 1.0))
    def test_steady_state_matches_kronecker_solve(
            self, kronecker_steady_state, seed, N, n_jumps, h_scale,
            jump_scale):
        sys = random_system(N, n_jumps, h_scale, jump_scale,
                            np.random.default_rng(seed))
        lam = np.linalg.eigvals(sys.B)
        assume(np.min(np.abs(lam[:, None] + lam[None, :])) > 0.05)
        steady = steady_state(sys)
        assert np.max(np.abs(steady.Gamma
                             - kronecker_steady_state(sys))) < 1e-10

    def test_steady_state_lyapunov(self):
        sys = commuting_system()
        steady = steady_state(sys)
        resid = np.max(np.abs(sys.B @ steady.Gamma
                              + steady.Gamma @ sys.B.T + sys.Y))
        assert resid <= 1e-10

    def test_trajectory_approaches_steady_state(self):
        sys = commuting_system()
        steady = steady_state(sys)
        rng = np.random.default_rng(11)
        g0 = CovarianceState(random_antisymmetric(6, rng))
        # slowest pair decays at 2 * min(gamma)/2 = 0.4, so t = 50 leaves
        # a residual of order e^-20
        final, _, _ = evolve_covariance(sys, g0, 50.0)
        assert np.max(np.abs(final.Gamma - steady.Gamma)) < 1e-6


class TestExamples:
    def test_chain_antisymmetric(self):
        h, jumps = chain_example(4, 1.0, (0.5, 0.3))
        assert np.max(np.abs(h + h.T)) == 0.0
        assert len(jumps) == 2

    def test_commuting_example_secular(self):
        sys = commuting_system()
        comm = sys.h @ sys.X - sys.X @ sys.h
        assert np.max(np.abs(comm)) < 1e-12


class TestSerialization:
    def test_roundtrip(self, fermion_system_dict):
        sys = commuting_system()
        back = system_from_dict(fermion_system_dict(sys))
        np.testing.assert_allclose(back.h, sys.h, atol=1e-15)
        assert len(back.jumps) == len(sys.jumps)
        for a, b in zip(back.jumps, sys.jumps):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_lower_triangle_rejected(self):
        with pytest.raises(ValueError):
            system_from_dict({"N": 1, "h": [[1, 0, 2.0]], "jumps": []})
