import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopman_lab.polyflow import (
    NonDissipativeError,
    eval_rhs,
    integrate_reference,
)
from koopman_lab.rsep import (
    CLOSED_FORM_TOL,
    SAMPLES,
    RsepParams,
    build_rsep,
    equivalence_residual,
    haar_unitary,
    lifted_flow_residual,
    quadratic_flow,
    quadratic_system,
    quadratic_tensors,
    r_x_lower_bound,
    rsep_r_numbers,
)

CANON = dict(d=4, beta=10.0, gamma=20.0, delta=0.1)
STIFF = dict(d=6, beta=50.0, gamma=250.0, delta=1e-3)
EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def systems():
    return build_rsep(RsepParams(**CANON))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RsepParams(2, 10.0, 20.0, 0.1)       # d too small
        with pytest.raises(ValueError):
            RsepParams(4, 0.5, 20.0, 0.1)        # beta <= 1
        with pytest.raises(ValueError):
            RsepParams(4, 10.0, 5.0, 0.1)        # gamma <= beta
        with pytest.raises(ValueError):
            RsepParams(4, 10.0, 20.0, 1.0)       # delta out of range
        with pytest.raises(ValueError):
            RsepParams(4, 10.0, 20.0, 0.1,
                       lambdas=np.array([0.0, 0.0]))  # above 1 - 2 beta

    def test_haar_unitary(self):
        U = haar_unitary(5, seed=3)
        np.testing.assert_allclose(U.conj().T @ U, np.eye(5), atol=1e-12)
        np.testing.assert_allclose(haar_unitary(5, 3), U, atol=0.0)

    def test_non_unitary_A_rejected(self):
        with pytest.raises(ValueError):
            RsepParams(4, 10.0, 20.0, 0.1, A=2.0 * np.eye(4))


class TestClosedForms:
    def test_residual_small(self, systems):
        assert systems.closed_form_residual <= 1e-10

    def test_tilded_coefficients(self, systems):
        d, beta, delta = CANON["d"], CANON["beta"], CANON["delta"]
        ed = np.zeros(d)
        ed[-1] = 1.0
        e1 = np.zeros(d)
        e1[0] = 1.0
        D = systems.params.D()
        np.testing.assert_allclose(
            systems.Ft, D - beta * delta * np.outer(ed, ed), atol=1e-12)
        np.testing.assert_allclose(systems.vt, delta * ed, atol=1e-12)
        np.testing.assert_allclose(systems.ct, delta * e1, atol=1e-12)
        assert systems.alphat == pytest.approx(1.0 + beta * delta)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(3, 6), beta=st.floats(1.0, 50.0, exclude_min=True),
           gap=st.floats(1e-6, 200.0),
           delta=st.floats(0.0, 1.0, exclude_max=True),
           seed=st.integers(0, 2**32 - 1))
    def test_closed_forms_hold_for_random_unitary(self, d, beta, gap, delta,
                                                  seed):
        params = RsepParams(d, beta, beta + gap, delta,
                            A=haar_unitary(d, seed))
        assert build_rsep(params).closed_form_residual <= CLOSED_FORM_TOL
        # The x-side log-norm is -delta, computed with an absolute error of
        # a few ulps of |F1| = gamma; the bound is tight as delta -> 0, so
        # R_x is held to it up to that rounding, and below it delta is not
        # resolved: R_x is unbounded (no dissipation) or at least
        # gamma beta / (64 eps gamma) = beta / (64 eps).
        rounding = 32 * EPS * params.gamma
        try:
            r_x, _ = rsep_r_numbers(params)
        except NonDissipativeError:
            assert delta <= rounding
            return
        if delta > rounding:
            assert r_x >= r_x_lower_bound(params) * (1 - rounding / delta)
        else:
            assert r_x >= beta / (64 * EPS)

    def test_similarity_transform(self, systems):
        np.testing.assert_allclose(systems.P @ systems.Pinv,
                                   np.eye(CANON["d"] + 1), atol=1e-12)
        np.testing.assert_allclose(
            systems.Heta, systems.P @ systems.Hx @ systems.Pinv, atol=1e-10)


class TestQuadraticForm:
    def test_tensors_reproduce_rhs(self, systems):
        rng = np.random.default_rng(12)
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        rhs = eval_rhs(quadratic_system(systems.F, systems.v, systems.c,
                                        systems.alpha), z)
        expected = systems.F @ z + systems.v \
            - z * (systems.c.conj() @ z + systems.alpha)
        np.testing.assert_allclose(rhs, expected, atol=1e-12)

    def test_f1_lognorm_is_minus_delta(self, systems):
        from koopman_lab.polyflow import log_norm
        _, F1, _ = quadratic_tensors(systems.F, systems.v, systems.c,
                                     systems.alpha)
        assert log_norm(F1) == pytest.approx(-CANON["delta"], rel=1e-10)
        _, F1t, _ = quadratic_tensors(systems.Ft, systems.vt, systems.ct,
                                      systems.alphat)
        assert log_norm(F1t) == pytest.approx(
            -(CANON["beta"] + 1.0) * CANON["delta"], rel=1e-10)


class TestRNumbers:
    def test_eta_side_closed_form(self):
        for beta in (3.0, 10.0, 25.0):
            params = RsepParams(4, beta, 2.0 * beta, 0.1)
            _, R_eta = rsep_r_numbers(params)
            assert abs(R_eta - 2.0 / (beta + 1.0)) <= 1e-12

    def test_x_side_lower_bound(self):
        for seed, delta in ((1, 0.1), (2, 0.05), (3, 0.3)):
            params = RsepParams(4, 10.0, 20.0, delta,
                                A=haar_unitary(4, seed))
            R_x, _ = rsep_r_numbers(params)
            assert R_x >= r_x_lower_bound(params)

    def test_separation_grows_as_delta_shrinks(self):
        ratios = []
        for delta in (0.2, 0.1, 0.05):
            R_x, R_eta = rsep_r_numbers(RsepParams(4, 10.0, 20.0, delta))
            ratios.append(R_x / R_eta)
        assert ratios[0] < ratios[1] < ratios[2]


class TestDynamics:
    def test_equivalence_residual(self):
        assert equivalence_residual(RsepParams(**CANON), 1.0) <= 1e-8

    def test_lifted_flow(self):
        assert lifted_flow_residual(RsepParams(**CANON), 1.0) <= 1e-8

    @pytest.mark.parametrize("point", [CANON, STIFF])
    def test_taylor_flows_match_dop853(self, point):
        systems = build_rsep(RsepParams(**point))
        times = np.linspace(0.0, 1.0, SAMPLES)
        x0 = np.eye(point["d"])[0]
        for coeffs in ((systems.F, systems.v, systems.c, systems.alpha),
                       (systems.Ft, systems.vt, systems.ct, systems.alphat)):
            got = quadratic_flow(*coeffs, x0, 1.0)
            want = integrate_reference(quadratic_system(*coeffs), x0, 1.0,
                                       1e-13, times)
            np.testing.assert_array_equal(want.times, times)
            assert np.max(np.abs(got - want.states)) <= 1e-9

