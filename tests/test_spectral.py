import numpy as np
import pytest
from scipy.special import i0 as scipy_i0

from koopman_lab import spectral
from koopman_lab.spectral import (
    AliasingError,
    NormalKoopman,
    WindowSpec,
    decode,
    emulate_spectral_qka,
    history_residuals,
    history_system,
    ideal_mode_distribution,
    kaiser_window,
    post_selection_probabilities,
    qpe_distribution,
    sample_outcomes,
    suppression_time,
    tail_mass,
    uniform_family,
    uniform_window,
)


def five_mode_instance():
    """Two oscillatory and three decaying modes with unit gap."""
    mus = np.array([0.0, 0.0, 1.0, 2.0, 3.0])
    omegas = np.array([0.7, -1.3, 0.1, 0.2, 0.3])
    a = np.array([0.6, 0.5, 0.4, 0.3, 0.2], dtype=complex)
    return NormalKoopman(mus, omegas, a / np.linalg.norm(a))


class TestWindow:
    def test_matches_closed_form(self):
        for J, sigma in ((3, 0.5), (65, 3.0), (401, 3.0), (501, 4.0)):
            x = (2 * np.arange(J) - (J - 1)) / (J - 1)
            want = scipy_i0(np.pi * sigma * np.sqrt(1.0 - x**2))
            want /= np.linalg.norm(want)
            np.testing.assert_allclose(kaiser_window(J, sigma).beta, want,
                                       rtol=1e-13, atol=0.0)

    def test_unit_norm_and_symmetry(self):
        w = kaiser_window(65, 3.0)
        assert np.sum(w.beta**2) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(w.beta, w.beta[::-1], atol=1e-15)

    def test_endpoints_smallest(self):
        w = kaiser_window(33, 2.0)
        assert w.beta[0] == np.min(w.beta)
        assert np.argmax(w.beta) == 16

    def test_sigma_zero_limit_uniform(self):
        w = kaiser_window(11, 1e-12)
        np.testing.assert_allclose(w.beta, np.full(11, 1 / np.sqrt(11)),
                                   atol=1e-10)

    def test_even_J_rejected(self):
        with pytest.raises(ValueError):
            kaiser_window(64, 3.0)
        with pytest.raises(ValueError):
            uniform_window(4)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WindowSpec(5, 1.0, np.ones(5))  # not unit norm


class TestDistribution:
    def test_parseval_random_theta(self):
        rng = np.random.default_rng(0)
        w = kaiser_window(101, 2.5)
        for theta in rng.uniform(-np.pi, np.pi, 100):
            assert np.sum(qpe_distribution(w, theta)) == pytest.approx(
                1.0, abs=1e-12)

    def test_uniform_on_grid_point_mass(self):
        w = uniform_window(7)
        p = qpe_distribution(w, 2 * np.pi * 3 / 7)
        assert p[3] == pytest.approx(1.0, abs=1e-12)

    def test_theta_zero_symmetric(self):
        w = kaiser_window(31, 2.0)
        p = qpe_distribution(w, 0.0)
        assert np.argmax(p) == 0
        np.testing.assert_allclose(p[1:], p[1:][::-1], atol=1e-13)


class TestDecode:
    def test_examples(self):
        assert decode(0, 5)[0] == 0.0
        assert decode(2, 5)[0] == pytest.approx(4 * np.pi / 5)
        assert decode(4, 5)[0] == pytest.approx(-2 * np.pi / 5)

    def test_omega_scaling(self):
        theta, omega = decode(1, 5, dt=0.25)
        assert omega == pytest.approx(theta / 0.25)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            decode(5, 5)


class TestTailMass:
    def test_on_grid_uniform_zero(self):
        w = uniform_window(9)
        assert tail_mass(w, 2 * np.pi * 2 / 9, 0.01) == pytest.approx(
            0.0, abs=1e-12)

    def test_giant_ball_zero(self):
        w = kaiser_window(33, 2.0)
        assert tail_mass(w, 0.3, 2 * np.pi) == pytest.approx(0.0, abs=1e-15)

    def test_nyquist_margin_rejected(self):
        w = kaiser_window(33, 2.0)
        with pytest.raises(AliasingError):
            tail_mass(w, np.pi - 0.01, 0.05)

    def test_calibrated_pair_documented(self):
        J, sigma = spectral.KAISER_CALIBRATION[(0.05, 1e-4)]
        w = kaiser_window(J, sigma)
        worst = max(tail_mass(w, th, 0.05)
                    for th in np.linspace(-0.8 * np.pi, 0.8 * np.pi, 50))
        assert worst <= 1e-4


class TestSuppression:
    def test_values(self):
        assert suppression_time(1.0, np.exp(-3.0)) == pytest.approx(3.0)
        assert suppression_time(1.0, 1.0) == 0.0
        with pytest.raises(ValueError):
            suppression_time(0.0, 0.5)

    def test_two_mode_closed_form(self):
        a = np.array([np.sqrt(0.8), np.sqrt(0.2)], dtype=complex)
        modes = NormalKoopman([0.0, 1.0], [0.5, 0.0], a)
        eps1 = 1e-2
        T1 = suppression_time(1.0, eps1)
        g = modes.g(T1)
        g_osc = np.array([a[0] * np.exp(0.5j * T1), 0.0])
        assert np.linalg.norm(g - g_osc) == pytest.approx(
            abs(a[1]) * eps1, rel=1e-12)


class TestModes:
    def test_partition_and_weight(self):
        m = five_mode_instance()
        assert list(m.oscillatory) == [0, 1]
        assert m.gap == 1.0
        assert m.w_S == pytest.approx((0.36 + 0.25) / 0.90)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            NormalKoopman([0.0], [1.0], np.array([0.5 + 0j]))

    def test_growing_mode_rejected(self):
        with pytest.raises(ValueError):
            NormalKoopman([-0.1], [1.0], np.array([1.0 + 0j]))


class TestIdealDistribution:
    def test_single_mode_equals_qpe(self):
        w = kaiser_window(65, 2.0)
        m = NormalKoopman([0.0], [0.9], np.array([1.0 + 0j]))
        np.testing.assert_allclose(ideal_mode_distribution(m, 1.0, w),
                                   qpe_distribution(w, 0.9), atol=1e-14)

    def test_mixture_weights(self):
        w = kaiser_window(65, 2.0)
        a = np.array([0.5, np.sqrt(0.75)], dtype=complex)
        m = NormalKoopman([0.0, 0.0], [0.4, -1.1], a)
        p = ideal_mode_distribution(m, 1.0, w)
        expected = 0.25 * qpe_distribution(w, 0.4) \
            + 0.75 * qpe_distribution(w, -1.1)
        np.testing.assert_allclose(p, expected, atol=1e-13)

    def test_aliasing_rejected(self):
        w = kaiser_window(65, 2.0)
        m = NormalKoopman([0.0], [3.3], np.array([1.0 + 0j]))
        with pytest.raises(AliasingError):
            ideal_mode_distribution(m, 1.0, w)

    def test_no_oscillatory_rejected(self):
        w = kaiser_window(65, 2.0)
        m = NormalKoopman([1.0], [0.1], np.array([1.0 + 0j]))
        with pytest.raises(ValueError):
            ideal_mode_distribution(m, 1.0, w)


class TestEmulation:
    def test_no_decaying_modes_zero_tv(self):
        w = kaiser_window(65, 2.0)
        a = np.array([0.6, 0.8], dtype=complex)
        m = NormalKoopman([0.0, 0.0], [0.4, -1.1], a)
        _, tv = emulate_spectral_qka(m, w, 0.0, 1.0)
        assert tv <= 1e-12

    def test_tv_nonincreasing_in_T1(self):
        w = kaiser_window(65, 2.5)
        m = five_mode_instance()
        tvs = [emulate_spectral_qka(m, w, T1, 1.0)[1]
               for T1 in (0.0, 1.0, 2.0, 4.0, 8.0)]
        for lo, hi in zip(tvs[1:], tvs[:-1]):
            assert lo <= hi + 1e-12

    def test_five_mode_bound(self):
        m = five_mode_instance()
        eps1 = 1e-3
        T1 = suppression_time(m.gap, eps1)
        _, tv = emulate_spectral_qka(m, kaiser_window(129, 3.0), T1, 1.0)
        assert tv <= 4 * eps1 / np.sqrt(m.w_S)


class TestSampling:
    def test_deterministic(self):
        p = np.full(4, 0.25)
        a = sample_outcomes(p, 1000, seed=3)
        b = sample_outcomes(p, 1000, seed=3)
        np.testing.assert_array_equal(a, b)
        assert a.sum() == 1000

    def test_point_mass(self):
        counts = sample_outcomes(np.array([0.0, 1.0, 0.0]), 50, seed=0)
        np.testing.assert_array_equal(counts, [0, 50, 0])

    def test_n_zero(self):
        assert sample_outcomes(np.array([1.0]), 0, seed=0).sum() == 0

    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            sample_outcomes(np.array([0.5, 0.4]), 10, seed=0)

    def test_uniform_within_binomial_bands(self):
        n = 100_000
        counts = sample_outcomes(np.full(4, 0.25), n, seed=42)
        sd = np.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - n / 4) <= 5 * sd)


class TestHistorySystem:
    def test_scalar_exponential(self):
        hist = history_system(np.array([[-1.0]]), np.array([1.0]),
                              m=4, p=2, l=20, h=0.5)
        assert abs(hist.blocks[4, 0] - np.exp(-2.0)) < 1e-10

    def test_padded_blocks_copy_final(self):
        A = np.diag([-0.4, -0.2])
        hist = history_system(A, np.array([1.0, 2.0]), m=5, p=3, l=6, h=0.3)
        for s in range(5, 8):
            np.testing.assert_allclose(hist.blocks[s], hist.blocks[5],
                                       atol=1e-12)

    def test_recurrence_residual(self):
        rng = np.random.default_rng(1)
        lam = -rng.random(4) + 1j * rng.normal(size=4)
        Q = np.linalg.qr(rng.normal(size=(4, 4))
                         + 1j * rng.normal(size=(4, 4)))[0]
        A = Q @ np.diag(lam) @ Q.conj().T
        x0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        hist = history_system(A, x0, m=8, p=8, l=10, h=0.2)
        resid, final_err = history_residuals(hist, x0)
        assert resid <= 1e-10
        assert final_err < 1e-8

    def test_positive_lognorm_rejected(self):
        with pytest.raises(ValueError):
            history_system(np.array([[0.5]]), np.array([1.0]), 2, 1, 4, 0.1)

    def test_large_step_rejected(self):
        with pytest.raises(ValueError):
            history_system(np.array([[-2.0]]), np.array([1.0]), 2, 1, 4, 1.0)


class TestUniformFamily:
    def test_invariants(self):
        for a, c, J in ((3, 2, 4), (1, 1, 7), (5, 3, 2)):
            triples = uniform_family(a, c, J)
            mp = {m + p for m, p, _ in triples}
            md = {m + d for m, _, d in triples}
            assert mp == {2 * (a + (J - 1) * c)}
            assert md == {a + (J - 1) * c}

    def test_first_triple(self):
        m0, p0, d0 = uniform_family(3, 2, 4)[0]
        assert (m0, p0, d0) == (3, 3 + 6 * 2, 3 * 2)

    def test_postselection_j_independent_for_oscillatory(self):
        a_amp = np.array([0.6, 0.8], dtype=complex)
        m = NormalKoopman([0.0, 0.0], [0.4, -1.1], a_amp)
        probs = post_selection_probabilities(m, a=4, c=2, J=5, h=0.1)
        assert np.max(probs) - np.min(probs) <= 1e-12


def test_scaled_norm_keeps_the_bits_of_the_norm():
    # the power-of-two scaling is exact, so wherever the plain norm is
    # finite the scaled one has its bits, and past that it stays finite
    rng = np.random.default_rng(3)
    for scale in (1e-3, 1.0, 3.0, 1e10, 1e150):
        v = scale * (rng.normal(size=7) + 1j * rng.normal(size=7))
        for w in (v, v.real):
            assert spectral._norm(w) == np.linalg.norm(w)
    assert spectral._norm(np.array([3e307, 4e307])) == 5e307
    assert spectral._norm(np.array([3.0, 4.0j]) * 2.0**600) == 5 * 2.0**600
