"""Semiclassical amplitude and linearized-Gaussian noise analysis.

The stationary amplitude is checked as a root of the classical flow, the
stationary noise moments as a fixed point of the linearized moment equations,
and every closed-form Gaussian scalar against direct sums over the geometric
eigenweights and against the matrix-based measures on an explicitly
assembled diagonal state.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kerrosc.errors import (
    UnphysicalMoments,
    UnstableLinearization,
    VacuumLimitWarning,
)
from kerrosc.fock import DensityMatrix, FockCutoff, OscillatorParams
from kerrosc.gaussian import (
    GaussianState,
    LinearizedCoeffs,
    classical_steady_amplitude,
    gaussian_S_F,
    gaussian_entropy_purity,
    gaussian_squeeze_S,
    gaussian_vs_exact_report,
    gaussian_weights,
    gaussian_x,
    linearized_coeffs,
    steady_mean_estimate,
    steady_noise_moments,
    strong_pump_estimates,
)
from kerrosc.measures import linear_entropy_and_purity, von_neumann_entropy

stable_coeffs = st.builds(
    lambda mag, ratio, ph1, ph2: LinearizedCoeffs(
        gamma_eff=mag * cmath.exp(1j * ph1),
        delta_eff=mag * ratio * cmath.exp(1j * ph2),
    ),
    mag=st.floats(min_value=0.5, max_value=5.0),
    ratio=st.floats(min_value=0.0, max_value=0.95),
    ph1=st.floats(min_value=-math.pi, max_value=math.pi),
    ph2=st.floats(min_value=-math.pi, max_value=math.pi),
)


class TestClassicalSteadyAmplitude:
    @given(
        p=st.floats(min_value=0.1, max_value=10.0),
        phase=st.floats(min_value=-math.pi, max_value=math.pi),
        kerr=st.floats(min_value=0.01, max_value=2.0),
        loss=st.floats(min_value=0.0, max_value=3.0),
    )
    def test_is_root_of_classical_flow(self, p, phase, kerr, loss):
        params = OscillatorParams(pump=p * cmath.exp(1j * phase), kerr=kerr, loss=loss)
        alpha = classical_steady_amplitude(params)
        residual = (
            params.pump - 2j * kerr * abs(alpha) ** 2 * alpha - loss * alpha
        )
        assert abs(residual) < 1e-10 * max(1.0, abs(params.pump))

    def test_reference_point(self, ref_params):
        assert classical_steady_amplitude(ref_params) == pytest.approx(
            1.0 - 2.0j, abs=1e-10
        )

    def test_zero_pump(self, ref_params):
        params = OscillatorParams(pump=0.0j, kerr=0.2, loss=1.0)
        assert classical_steady_amplitude(params) == 0.0 + 0.0j

    def test_kerr_free_limit(self):
        params = OscillatorParams(pump=0.6 + 0.9j, kerr=0.0, loss=1.5)
        assert classical_steady_amplitude(params) == pytest.approx(
            (0.6 + 0.9j) / 1.5, abs=1e-14
        )

    def test_no_fixed_point_without_damping_or_kerr(self):
        params = OscillatorParams(pump=1.0 + 0.0j, kerr=0.0, loss=0.0)
        with pytest.raises(UnstableLinearization):
            classical_steady_amplitude(params)

    def test_tiny_kerr_gives_the_linear_loss_limit(self):
        # 4 G^2 underflows to 0 at G = 1e-300
        params = OscillatorParams(pump=2.0 + 1.0j, kerr=1e-300, loss=0.5)
        assert classical_steady_amplitude(params) == pytest.approx(4.0 + 2.0j, abs=1e-14)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_intensity_is_scale_free(self, ref_params, scale):
        # scaling p, G and gamma0 together leaves alpha unchanged, though
        # every square of a rate under- or overflows
        params = OscillatorParams(
            pump=ref_params.pump * scale, kerr=ref_params.kerr * scale,
            loss=ref_params.loss * scale,
        )
        assert classical_steady_amplitude(params) == pytest.approx(
            classical_steady_amplitude(ref_params), rel=1e-13
        )

    @pytest.mark.parametrize("kerr,loss", [(0.0, 1e-320), (1.0, 0.0)])
    def test_intensity_past_the_double_range_is_typed(self, kerr, loss):
        params = OscillatorParams(pump=1e200 if loss == 0.0 else 1.0, kerr=kerr, loss=loss)
        with pytest.raises(UnstableLinearization, match="double range"):
            classical_steady_amplitude(params)


class TestSteadyMeanEstimate:
    @pytest.mark.parametrize("pump", [0.0j, 5.0 + 0.0j, 2.0 - 3.0j])
    @pytest.mark.parametrize("kerr", [0.0, 0.2, -1.0])
    @pytest.mark.parametrize("loss", [0.0, 1.0])
    def test_classical_intensity_where_one_exists(self, pump, kerr, loss):
        # the rule `kerrosc steady`, the runner and cutoff_convergence.py share
        params = OscillatorParams(pump=pump, kerr=kerr, loss=loss)
        if kerr == 0.0 and loss == 0.0:
            expected = 0.0
        else:
            expected = abs(classical_steady_amplitude(params)) ** 2
        assert steady_mean_estimate(params) == expected


class TestLinearizedCoeffs:
    def test_reference_point_rates(self, ref_params):
        coeffs = linearized_coeffs(1.0 - 2.0j, ref_params)
        assert coeffs.gamma_eff == pytest.approx(1.0 + 4.0j, abs=1e-14)
        assert coeffs.delta_eff == pytest.approx(1.6 - 1.2j, abs=1e-14)
        assert coeffs.stable

    def test_rates_at_computed_steady_amplitude(self, ref_params):
        alpha = classical_steady_amplitude(ref_params)
        coeffs = linearized_coeffs(alpha, ref_params)
        assert coeffs.gamma_eff == pytest.approx(1.0 + 4.0j, abs=1e-9)
        assert coeffs.delta_eff == pytest.approx(1.6 - 1.2j, abs=1e-9)

    def test_stability_flag(self):
        assert LinearizedCoeffs(gamma_eff=2.0 + 0j, delta_eff=1.0 + 0j).stable
        assert not LinearizedCoeffs(gamma_eff=1.0 + 0j, delta_eff=1.0 + 0j).stable


class TestSteadyNoiseMoments:
    def test_reference_point_moments(self, ref_params):
        coeffs = LinearizedCoeffs(gamma_eff=1.0 + 4.0j, delta_eff=1.6 - 1.2j)
        gs = steady_noise_moments(coeffs, alpha=1.0 - 2.0j)
        assert gs.B == pytest.approx(2.0 / 13.0, abs=1e-14)
        assert gs.C == pytest.approx((1.6 + 3.8j) / 13.0, abs=1e-14)
        assert abs(gs.C) == pytest.approx(math.sqrt(17.0) / 13.0, abs=1e-14)

    @given(coeffs=stable_coeffs)
    def test_is_fixed_point_of_moment_equations(self, coeffs):
        gs = steady_noise_moments(coeffs)
        gam, dlt = coeffs.gamma_eff, coeffs.delta_eff
        db = -(gam + np.conj(gam)) * gs.B - (np.conj(dlt) * gs.C + dlt * np.conj(gs.C))
        dc = -dlt * (1.0 + 2.0 * gs.B) - 2.0 * gam * gs.C
        scale = max(1.0, abs(dlt))
        assert abs(db) < 1e-10 * scale
        assert abs(dc) < 1e-10 * scale

    def test_unstable_rates_rejected(self):
        with pytest.raises(UnstableLinearization):
            steady_noise_moments(LinearizedCoeffs(gamma_eff=1.0 + 0j, delta_eff=2.0 + 0j))

    @given(coeffs=stable_coeffs)
    def test_squeeze_identity(self, coeffs):
        # |gamma|/(|gamma|+|delta|) equals 1 + 2(B - |C|) at the fixed point
        gs = steady_noise_moments(coeffs)
        assert gaussian_squeeze_S(coeffs) == pytest.approx(
            1.0 + 2.0 * (gs.B - abs(gs.C)), abs=1e-12
        )


class TestGaussianStateValidation:
    def test_negative_b_rejected(self):
        with pytest.raises(UnphysicalMoments):
            GaussianState(alpha=0.0j, B=-0.01, C=0.0j)

    def test_uncertainty_bound_enforced(self):
        with pytest.raises(UnphysicalMoments):
            GaussianState(alpha=0.0j, B=0.0, C=0.6 + 0.0j)

    def test_nonfinite_rejected(self):
        with pytest.raises(UnphysicalMoments):
            GaussianState(alpha=0.0j, B=math.inf, C=0.0j)

    def test_pure_squeezed_boundary_allowed(self):
        gs = GaussianState(alpha=0.0j, B=0.1, C=math.sqrt(0.6**2 - 0.25) + 0.0j)
        assert gs.B == 0.1


class TestGaussianScalars:
    def test_reference_point_x(self, ref_params):
        coeffs = LinearizedCoeffs(gamma_eff=1.0 + 4.0j, delta_eff=1.6 - 1.2j)
        gs = steady_noise_moments(coeffs, alpha=1.0 - 2.0j)
        assert gaussian_x(gs) == pytest.approx(
            math.sqrt(17.0 / 52.0) - 0.5, abs=1e-14
        )

    def test_reference_point_s_and_f(self):
        coeffs = LinearizedCoeffs(gamma_eff=1.0 + 4.0j, delta_eff=1.6 - 1.2j)
        gs = steady_noise_moments(coeffs, alpha=1.0 - 2.0j)
        s, f = gaussian_S_F(gs)
        assert s == pytest.approx(math.sqrt(17.0) / (math.sqrt(17.0) + 2.0), abs=1e-14)
        assert s == pytest.approx(gaussian_squeeze_S(coeffs), abs=1e-14)
        assert f == pytest.approx(619.0 / 871.0, abs=1e-14)

    def test_vacuum_fano_warns(self):
        gs = GaussianState(alpha=0.0j, B=0.0, C=0.0j)
        with pytest.warns(VacuumLimitWarning):
            s, f = gaussian_S_F(gs)
        assert s == 1.0 and f == 1.0

    def test_x_vanishes_for_pure_states(self):
        assert gaussian_x(GaussianState(alpha=1.0 + 0j, B=0.0, C=0.0j)) == 0.0

    def test_weights_are_geometric_and_normalized(self):
        x = 0.25
        w = gaussian_weights(x, 40)
        ratio = x / (1.0 + x)
        np.testing.assert_allclose(w[1:] / w[:-1], ratio, atol=1e-14)
        assert float(np.sum(w)) == pytest.approx(1.0 - ratio**41, rel=1e-12)

    def test_weight_validation(self):
        with pytest.raises(UnphysicalMoments):
            gaussian_weights(-0.1, 3)
        with pytest.raises(ValueError):
            gaussian_weights(0.1, -1)

    def test_entropy_purity_against_direct_weight_sums(self):
        for x in (0.01, 0.0717718748968657, 0.3, 1.5):
            entropy, purity = gaussian_entropy_purity(x)
            w = gaussian_weights(x, 600)
            w = w[w > 0]
            assert entropy == pytest.approx(float(-np.sum(w * np.log(w))), rel=1e-12)
            assert purity == pytest.approx(float(np.sum(w**2)), rel=1e-12)

    def test_entropy_purity_pure_limit(self):
        assert gaussian_entropy_purity(0.0) == (0.0, 1.0)
        with pytest.raises(UnphysicalMoments):
            gaussian_entropy_purity(-0.01)

    def test_matches_matrix_measures_on_diagonal_state(self):
        # assemble the eigenweight mixture explicitly and push it through the
        # matrix-based entropy/purity route
        x = 0.0717718748968657
        w = gaussian_weights(x, 25)
        rho = DensityMatrix(np.diag(w).astype(complex))
        entropy, purity = gaussian_entropy_purity(x)
        assert von_neumann_entropy(rho) == pytest.approx(entropy, abs=1e-9)
        lin, pur = linear_entropy_and_purity(rho)
        assert pur == pytest.approx(purity, abs=1e-12)
        assert lin == pytest.approx(1.0 - purity, abs=1e-12)


class TestStrongPumpEstimates:
    def test_exact_closed_forms(self):
        est = strong_pump_estimates()
        assert est.squeeze_S == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert est.fano_F == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert est.x == pytest.approx(1.0 / math.sqrt(3.0) - 0.5, abs=1e-15)
        assert est.linear_entropy == pytest.approx(1.0 - math.sqrt(3.0) / 2.0, abs=1e-14)
        assert est.entropy == pytest.approx(0.27823866770789274, abs=1e-13)

    def test_weights(self):
        est = strong_pump_estimates()
        x = est.x
        assert est.weights[0] == pytest.approx(1.0 / (1.0 + x), abs=1e-14)
        assert est.weights[1] == pytest.approx(x / (1.0 + x) ** 2, abs=1e-14)
        assert est.weights[2] == pytest.approx(x**2 / (1.0 + x) ** 3, abs=1e-14)

    def test_corresponds_to_rate_ratio_two(self):
        # the limit is |gamma| = 2|delta|: the generic formulas reduce to it
        coeffs = LinearizedCoeffs(gamma_eff=2.0 + 0j, delta_eff=-1.0 + 0j)
        est = strong_pump_estimates()
        assert gaussian_squeeze_S(coeffs) == pytest.approx(est.squeeze_S, abs=1e-14)
        gs = steady_noise_moments(coeffs)
        assert gaussian_x(gs) == pytest.approx(est.x, abs=1e-14)


class TestGaussianVsExactReport:
    def test_report_structure_and_frozen_values(self, ref_params):
        columns, rows = gaussian_vs_exact_report(ref_params, FockCutoff(40))
        assert columns == ["quantity", "exact", "gaussian", "abs_diff"]
        assert [r[0] for r in rows] == [
            "entropy",
            "linear_entropy",
            "squeeze_S",
            "fano_F",
            "mean_n",
            "p0",
            "p1",
            "p2",
            "p3",
            "p4",
            "p5",
        ]
        by_label = {r[0]: r[2] for r in rows}
        assert by_label["entropy"] == pytest.approx(0.26335394304673099, rel=1e-10)
        assert by_label["linear_entropy"] == pytest.approx(0.12552536780479384, rel=1e-10)
        assert by_label["mean_n"] == pytest.approx(67.0 / 13.0, rel=1e-10)
        assert by_label["p0"] == pytest.approx(0.93303437365925268, rel=1e-10)
        assert by_label["p1"] == pytest.approx(0.062481231229538706, rel=1e-10)
        assert by_label["p2"] == pytest.approx(0.0041840947838271197, rel=1e-10)

    def test_exact_column_matches_measures(self, ref_params, steady_rho):
        _, rows = gaussian_vs_exact_report(ref_params, FockCutoff(40))
        by_label = {r[0]: r[1] for r in rows}
        assert by_label["entropy"] == pytest.approx(
            von_neumann_entropy(steady_rho), rel=1e-12
        )
        assert by_label["mean_n"] == pytest.approx(5.1307108173266318, rel=1e-10)

    def test_abs_diff_is_elementwise(self, ref_params):
        _, rows = gaussian_vs_exact_report(ref_params, FockCutoff(40))
        for _, e, g, d in rows:
            assert d == abs(e - g)
        # the approximation tracks the exact state to a few percent here
        assert max(r[3] for r in rows) < 0.05
