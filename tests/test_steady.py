"""Closed-form steady state and its special-function stack.

The from-scratch complex Gamma and 0F2 implementations are cross-checked
against classical identities, exact rational partial sums, and mpmath at high
working precision; the assembled density matrix against its factorial-moment
formula and frozen reference values.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kerrosc import steady
from kerrosc.errors import (
    CutoffTooSmall,
    DriftTooLarge,
    GammaOverflow,
    KerrOscError,
    KerrZero,
    LossZero,
    NonconvergenceWithinMaxTerms,
    PoleAtNonpositiveInteger,
)
from kerrosc.fock import FockCutoff, OscillatorParams, annihilation_matrix
from kerrosc.measures import moments, photon_distribution
from kerrosc.steady import (
    SteadyParams,
    complex_gamma,
    complex_lgamma,
    hyper_0f2,
    hyper_0f2_diagnostic,
    steady_density,
    steady_moment,
)


class TestComplexGamma:
    @given(st.floats(min_value=0.1, max_value=20.0))
    def test_matches_math_gamma_on_positive_reals(self, x):
        assert complex_gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)

    def test_integer_and_half_integer_values(self):
        assert complex_gamma(1.0) == pytest.approx(1.0, rel=1e-13)
        assert complex_gamma(6.0) == pytest.approx(120.0, rel=1e-13)
        assert complex_gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    @pytest.mark.parametrize("y", [0.25, 0.5, 1.0, 2.0, 5.0])
    def test_imaginary_axis_modulus_identity(self, y):
        # |Gamma(1 + iy)|^2 = pi y / sinh(pi y)
        value = complex_gamma(1.0 + 1j * y)
        assert abs(value) ** 2 == pytest.approx(
            math.pi * y / math.sinh(math.pi * y), rel=1e-12
        )

    @given(
        st.complex_numbers(
            min_magnitude=0.1, max_magnitude=8.0, allow_nan=False, allow_infinity=False
        ).filter(lambda z: abs(z.imag) > 0.05)
    )
    def test_recurrence(self, z):
        assert complex_gamma(z + 1.0) == pytest.approx(z * complex_gamma(z), rel=1e-10)

    def test_reflection_formula(self):
        z = 0.3 + 0.4j
        lhs = complex_gamma(z) * complex_gamma(1.0 - z)
        assert lhs == pytest.approx(math.pi / cmath.sin(math.pi * z), rel=1e-12)

    def test_conjugation_symmetry(self):
        z = 2.5 - 1.5j
        assert complex_gamma(np.conj(z)) == pytest.approx(
            np.conj(complex_gamma(z)), rel=1e-13
        )

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -7.0])
    def test_poles_raise(self, z):
        with pytest.raises(PoleAtNonpositiveInteger):
            complex_gamma(z)

    def test_negative_noninteger_real(self):
        # Gamma(-0.5) = -2 sqrt(pi) via reflection
        assert complex_gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-12)

    @pytest.mark.parametrize("x", [150.0, 171.0])
    def test_large_real_arguments_up_to_the_double_range(self, x):
        assert complex_gamma(x) == pytest.approx(math.gamma(x), rel=1e-11)

    def test_overflow_is_typed(self):
        # |Gamma(180 - 5i)| is about 1e327, past the largest double
        with pytest.raises(GammaOverflow):
            complex_gamma(180.0 - 5.0j)

    @pytest.mark.parametrize("z", [-0.5 + 300.0j, -0.5 - 300.0j, 0.2 + 150.0j])
    def test_reflection_far_off_the_real_axis(self, z):
        # sin(pi z) overflows from |Im z| of about 226, but |Gamma(-0.5 + 300i)|
        # is a finite 1.8e-207
        with mpmath.workdps(30):
            oracle = complex(mpmath.gamma(mpmath.mpc(z)))
        assert complex_gamma(z) == pytest.approx(oracle, rel=1e-11)


class TestComplexLgamma:
    @pytest.mark.parametrize(
        "z",
        [0.5, 3.0, 1.0 + 0.1j, 0.3 + 5.0j, 5.0j, -5.0j, 7.5j, -0.5, -2.5 + 1.0j,
         -3.3 - 0.2j, 10.0 - 3.0j, 40.0 + 5.0j],
    )
    def test_exponential_matches_complex_gamma(self, z):
        # complex_gamma is exp(complex_lgamma), so hold it to mpmath instead
        with mpmath.workdps(30):
            oracle = complex(mpmath.gamma(mpmath.mpc(z)))
        assert complex_gamma(z) == pytest.approx(oracle, rel=1e-13)

    @pytest.mark.parametrize("n", [0, 1, 45, 144, 180, 300])
    def test_matches_mpmath_past_gamma_overflow(self, n):
        # the closed form's arguments lam + n at the bundled point, lam = -5i
        z = -5.0j + n
        with mpmath.workdps(30):
            oracle = complex(mpmath.loggamma(mpmath.mpc(z)))
        diff = complex_lgamma(z) - oracle
        # equal up to a multiple of 2 pi i
        winding = round(diff.imag / (2.0 * math.pi))
        assert abs(diff - 2j * math.pi * winding) <= 1e-14 * max(1.0, abs(oracle))

    @pytest.mark.parametrize("z", [-0.5 + 300.0j, -3.3 - 101.0j, 0.3 + 2000.0j])
    def test_reflection_matches_mpmath_far_off_the_real_axis(self, z):
        with mpmath.workdps(30):
            oracle = complex(mpmath.loggamma(mpmath.mpc(z)))
        diff = complex_lgamma(z) - oracle
        winding = round(diff.imag / (2.0 * math.pi))
        assert abs(diff - 2j * math.pi * winding) <= 1e-14 * abs(oracle)

    def test_finite_past_double_overflow(self):
        value = complex_lgamma(180.0 - 5.0j)
        assert cmath.isfinite(value)
        assert value.real > math.log(sys.float_info.max)  # |Gamma| is not a double

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0])
    def test_poles_raise(self, z):
        with pytest.raises(PoleAtNonpositiveInteger):
            complex_lgamma(z)


def fraction_0f2(a: Fraction, b: Fraction, z: Fraction, terms: int) -> Fraction:
    """Exact rational partial sum of sum_k z^k / (k! (a)_k (b)_k)."""
    total = Fraction(1)
    term = Fraction(1)
    for k in range(terms):
        term = term * z / ((k + 1) * (a + k) * (b + k))
        total += term
    return total


def legacy_0f2(a: complex, b: complex, z: float) -> tuple[complex, float, int]:
    """Per-element reference for the 0F2 series, in Python complex
    arithmetic: value, max |term| and the number of terms it took."""
    total, comp, term = 1.0 + 0.0j, 0.0j, 1.0 + 0.0j
    max_term, small, k = 1.0, 0, 0
    while small < 3:
        term = term * z / ((k + 1) * (a + k) * (b + k))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        max_term = max(max_term, abs(term))
        k += 1
        small = small + 1 if abs(term) < 1e-16 * abs(total) else 0
    return total, max_term, k


def legacy_density(params: OscillatorParams, cutoff: FockCutoff) -> np.ndarray:
    """Per-element reference for the closed-form density, hermitized and
    renormalized: one scalar series and one exp per matrix element, with the
    normalization through complex_gamma."""
    eps = -1j * params.pump / params.kerr
    lam = -1j * params.loss / params.kerr
    f0 = legacy_0f2(np.conj(lam), lam, 2.0 * abs(eps) ** 2)[0]
    ln_c = cmath.log(complex_gamma(np.conj(lam)) * complex_gamma(lam) / f0)
    ln_eps = cmath.log(eps)
    dim = cutoff.dim
    lgam = [math.lgamma(k + 1) for k in range(dim)]
    ln_gamma_col = [complex_lgamma(np.conj(lam) + m) for m in range(dim)]
    ln_gamma_row = [complex_lgamma(lam + n) for n in range(dim)]
    el = np.empty((dim, dim), dtype=complex)
    for n in range(dim):
        for m in range(dim):
            ln_pref = (
                ln_c
                + n * ln_eps
                + m * np.conj(ln_eps)
                - 0.5 * (lgam[n] + lgam[m])
                - ln_gamma_col[m]
                - ln_gamma_row[n]
            )
            el[n, m] = cmath.exp(ln_pref) * legacy_0f2(
                np.conj(lam) + m, lam + n, abs(eps) ** 2
            )[0]
    sym = 0.5 * (el + el.conj().T)
    return sym / np.trace(sym).real


class TestHyper0F2:
    def test_zero_argument(self):
        assert hyper_0f2(1.5 + 2.0j, 0.7, 0.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "a,b,z",
        [
            (Fraction(3, 2), Fraction(7, 3), Fraction(5, 2)),
            (Fraction(1), Fraction(1), Fraction(10)),
            (Fraction(1, 4), Fraction(9, 5), Fraction(25)),
        ],
    )
    def test_matches_exact_rational_partial_sums(self, a, b, z):
        oracle = float(fraction_0f2(a, b, z, terms=60))
        assert hyper_0f2(float(a), float(b), float(z)) == pytest.approx(
            oracle, rel=1e-12
        )

    @pytest.mark.parametrize(
        "a,b,z",
        [
            (2.0 + 1.0j, 3.0 - 0.5j, 7.5),
            (5.0j, -5.0j + 1.0, 40.0),
            (0.5 - 5.0j, 0.5 + 5.0j, 625.0),
        ],
    )
    def test_matches_mpmath_high_precision(self, a, b, z):
        with mpmath.workdps(40):
            oracle = mpmath.hyper([], [mpmath.mpc(a), mpmath.mpc(b)], mpmath.mpf(z))
            oracle = complex(oracle)
        assert hyper_0f2(a, b, z) == pytest.approx(oracle, rel=1e-11)

    def test_parameter_pole_raises(self):
        with pytest.raises(PoleAtNonpositiveInteger):
            hyper_0f2(0.0, 1.0, 1.0)
        with pytest.raises(PoleAtNonpositiveInteger):
            hyper_0f2(1.0, -3.0, 1.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            hyper_0f2(1.0, 1.0, -0.5)

    def test_nonconvergence_guard(self):
        with pytest.raises(NonconvergenceWithinMaxTerms):
            hyper_0f2(1.0, 1.0, 1e40)

    def test_diagnostic_consistent_with_value(self):
        # nonnegative real parameters: the sum dominates every single term
        value_tame, ratio_tame = hyper_0f2_diagnostic(1.0, 1.0, 2.0)
        assert 0.0 < ratio_tame <= 1.0
        assert value_tame == hyper_0f2(1.0, 1.0, 2.0)
        value, ratio = hyper_0f2_diagnostic(5.0j, -5.0j + 0.0, 625.0)
        assert np.isfinite(abs(value))
        assert ratio > 0.0
        assert value == hyper_0f2(5.0j, -5.0j + 0.0, 625.0)


    @pytest.mark.parametrize("z", [25.0, 625.0])
    def test_array_matches_per_element_calls(self, z):
        # a grid whose elements stop after different numbers of terms
        a = (0.5 - 5.0j) + np.arange(24)[None, :]
        b = (0.5 + 5.0j) + 3.0 * np.arange(16)[:, None]
        values, ratios = hyper_0f2_diagnostic(a, b, z)
        assert values.shape == ratios.shape == (16, 24)
        np.testing.assert_array_equal(hyper_0f2(a, b, z), values)
        counts = set()
        for i in range(16):
            for j in range(24):
                value, ratio = hyper_0f2_diagnostic(a[0, j], b[i, 0], z)
                assert isinstance(value, complex) and isinstance(ratio, float)
                assert values[i, j] == pytest.approx(value, rel=1e-15, abs=0.0)
                assert ratios[i, j] == pytest.approx(ratio, rel=1e-15, abs=0.0)
                old_value, old_max, terms = legacy_0f2(a[0, j], b[i, 0], z)
                # the same operations in the same order as Python complex math
                assert values[i, j] == pytest.approx(old_value, rel=1e-15, abs=0.0)
                assert ratios[i, j] == pytest.approx(
                    old_max / abs(old_value), rel=2e-15, abs=0.0
                )
                counts.add(terms)
        assert len(counts) > 3

    def test_array_pole_anywhere_raises(self):
        with pytest.raises(PoleAtNonpositiveInteger):
            hyper_0f2(np.array([1.5, 2.5, -2.0]), 1.0, 1.0)

class TestSteadyParams:
    def test_reference_point_reduced_parameters(self, ref_params):
        sp = SteadyParams.from_params(ref_params)
        assert sp.epsilon == pytest.approx(-25.0j, abs=1e-10)
        assert sp.lam == pytest.approx(-5.0j, abs=1e-10)

    def test_norm_constant_definition(self, ref_params):
        sp = SteadyParams.from_params(ref_params)
        f0 = hyper_0f2(np.conj(sp.lam), sp.lam, 2.0 * abs(sp.epsilon) ** 2)
        expected = complex_gamma(np.conj(sp.lam)) * complex_gamma(sp.lam) / f0
        assert sp.norm_c == pytest.approx(expected, rel=1e-12)

    def test_log_norm_finite_where_gamma_underflows(self):
        # Gamma(+-1000i) underflows to 0 at G = 1e-3; its log does not
        sp = SteadyParams.from_params(OscillatorParams(pump=5.0 + 0j, kerr=1e-3, loss=1.0))
        assert cmath.isfinite(sp.ln_norm_c)
        assert sp.ln_norm_c.real < math.log(sys.float_info.min)

    def test_kerr_zero_rejected(self):
        with pytest.raises(KerrZero):
            SteadyParams.from_params(OscillatorParams(pump=1.0 + 0j, kerr=0.0, loss=1.0))


class TestSteadyDensity:
    def test_frozen_reference_scalars(self, steady_rho):
        from kerrosc.measures import (
            fano,
            linear_entropy_and_purity,
            squeezing,
            von_neumann_entropy,
        )

        m = moments(steady_rho)
        assert m.mean_n == pytest.approx(5.1307108173266318, rel=1e-10)
        assert von_neumann_entropy(steady_rho) == pytest.approx(
            0.27754484267486274, rel=1e-9
        )
        assert linear_entropy_and_purity(steady_rho)[0] == pytest.approx(
            0.13491815821428721, rel=1e-10
        )
        assert squeezing(steady_rho) == pytest.approx(0.71617106223217819, rel=1e-10)
        assert fano(steady_rho) == pytest.approx(0.68997433118145557, rel=1e-10)

    def test_frozen_reference_eigenweights(self, steady_rho):
        from kerrosc.measures import spectral_decomposition

        weights = spectral_decomposition(steady_rho).weights
        assert weights[0] == pytest.approx(0.92760529776227962, rel=1e-10)
        assert weights[1] == pytest.approx(0.067912581240054629, rel=1e-10)
        assert weights[2] == pytest.approx(0.0042527820673080611, rel=1e-10)

    def test_photon_distribution_normalization(self, steady_rho):
        probs = photon_distribution(steady_rho)
        assert float(np.sum(probs)) == pytest.approx(1.0, abs=1e-12)
        assert float(np.min(probs)) >= 0.0

    def test_pump_free_steady_state_is_vacuum(self):
        params = OscillatorParams(pump=0.0j, kerr=0.3, loss=1.0)
        rho = steady_density(params, FockCutoff(8))
        expected = np.zeros((9, 9))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho.elements, expected, atol=1e-15)

    def test_kerr_zero_rejected(self):
        with pytest.raises(KerrZero):
            steady_density(OscillatorParams(pump=1.0 + 0j, kerr=0.0, loss=1.0), FockCutoff(8))

    @pytest.mark.parametrize("pump", [0.0j, 5.0 + 0j])
    def test_loss_zero_names_the_cause(self, pump):
        # lam = 0 is a Gamma pole; the guard reports the physics instead
        params = OscillatorParams(pump=pump, kerr=0.2, loss=0.0)
        for call in (
            lambda: steady_density(params, FockCutoff(8)),
            lambda: steady_moment(1, 1, params),
            lambda: SteadyParams.from_params(params),
        ):
            with pytest.raises(LossZero, match="no stationary state"):
                call()
        assert issubclass(LossZero, KerrOscError)

    def test_insufficient_cutoff_rejected(self, ref_params):
        # at n_cut = 15 the basis misses weight: the tail check runs before
        # the trace check, so the cutoff is blamed, not the special functions
        with pytest.raises(CutoffTooSmall, match="diagonal tail"):
            steady_density(ref_params, FockCutoff(15))

    @pytest.mark.parametrize(
        "params,n_cut",
        [(OscillatorParams(pump=5.0 + 0j, kerr=0.2, loss=1.0), 12),
         (OscillatorParams(pump=200.0 + 0j, kerr=0.2, loss=1.0), 60)],
    )
    def test_small_cutoff_blames_the_cutoff(self, params, n_cut):
        with pytest.raises(CutoffTooSmall):
            steady_density(params, FockCutoff(n_cut))

    def test_drift_still_checked_after_the_tail(self, ref_params, monkeypatch):
        # spoil only the (dim, dim) series: the tail passes, the trace does not
        exact = steady.hyper_0f2
        monkeypatch.setattr(
            steady, "hyper_0f2", lambda a, b, z: exact(a, b, z) * (1.01 if np.ndim(a) else 1.0)
        )
        with pytest.raises(DriftTooLarge, match="drift"):
            steady_density.__wrapped__(ref_params, FockCutoff(40))

    @pytest.mark.parametrize("kerr", [0.2, 1.0])
    @pytest.mark.parametrize("n_cut", [45, 100])
    def test_matches_per_element_assembly(self, kerr, n_cut):
        params = OscillatorParams(pump=5.0 * cmath.exp(0.7j), kerr=kerr, loss=1.0)
        reference = legacy_density(params, FockCutoff(n_cut))
        rho = steady_density(params, FockCutoff(n_cut))
        scale = float(np.max(np.abs(reference)))
        assert float(np.max(np.abs(rho.elements - reference))) <= 1e-13 * scale

    def test_weak_kerr_where_gamma_underflows(self):
        # lam = -1000i: Gamma(lam) is 0 in doubles, the log-space norm is not
        params = OscillatorParams(pump=5.0 + 0j, kerr=1e-3, loss=1.0)
        mean_n = steady_moment(1, 1, params)
        assert mean_n.real == pytest.approx(24.936748347, rel=1e-9)
        rho = steady_density(params, FockCutoff(80))
        assert moments(rho).mean_n == pytest.approx(mean_n.real, abs=1e-9)

    def test_results_are_cached(self, ref_params, steady_rho):
        assert steady_density(ref_params, FockCutoff(40)) is steady_rho

    def test_independent_of_global_pump_phase_populations(self, ref_params):
        rotated = OscillatorParams(
            pump=ref_params.pump * np.exp(0.7j), kerr=ref_params.kerr, loss=ref_params.loss
        )
        rho_rot = steady_density(rotated, FockCutoff(40))
        rho_ref = steady_density(ref_params, FockCutoff(40))
        np.testing.assert_allclose(
            photon_distribution(rho_rot), photon_distribution(rho_ref), atol=1e-12
        )


class TestSteadyDensityLargeCutoff:
    """Cutoffs past n ~ 143, where Gamma(lam + n) overflows a double."""

    def test_bundled_point_at_cutoff_160(self, ref_params, steady_rho_45):
        rho = steady_density(ref_params, FockCutoff(160))
        assert rho.dim == 161
        # the extra levels carry no weight: the low block matches n_cut 45
        np.testing.assert_allclose(
            rho.elements[:46, :46], steady_rho_45.elements, rtol=0.0, atol=1e-12
        )

    def test_strong_pump_at_cutoff_180(self):
        params = OscillatorParams(pump=20.0 + 0j, kerr=0.2, loss=1.0)
        rho = steady_density(params, FockCutoff(180))
        assert moments(rho).mean_n == pytest.approx(steady_moment(1, 1, params).real, rel=1e-10)


class TestSteadyMoment:
    def test_zeroth_moment_is_one(self, ref_params):
        assert steady_moment(0, 0, ref_params) == 1.0 + 0.0j

    def test_pump_free_moments_vanish(self):
        params = OscillatorParams(pump=0.0j, kerr=0.3, loss=1.0)
        assert steady_moment(2, 1, params) == 0.0 + 0.0j

    def test_validation(self, ref_params):
        with pytest.raises(ValueError):
            steady_moment(-1, 0, ref_params)
        with pytest.raises(KerrZero):
            steady_moment(1, 1, OscillatorParams(pump=1.0 + 0j, kerr=0.0, loss=1.0))

    def test_conjugation_symmetry(self, ref_params):
        assert steady_moment(2, 1, ref_params) == pytest.approx(
            np.conj(steady_moment(1, 2, ref_params)), rel=1e-12
        )

    def test_matches_matrix_traces_up_to_fourth_order(self, ref_params, steady_rho_45):
        # <(a^dag)^m a^n> from the formula vs. Tr[rho (a^dag)^m a^n]
        a = annihilation_matrix(FockCutoff(45))
        ad = a.conj().T
        el = steady_rho_45.elements
        for m in range(3):
            for n in range(3):
                if m + n == 0 or m + n > 4:
                    continue
                op = np.linalg.matrix_power(ad, m) @ np.linalg.matrix_power(a, n)
                trace_val = complex(np.trace(el @ op))
                assert steady_moment(m, n, ref_params) == pytest.approx(
                    trace_val, rel=1e-6
                ), (m, n)

    def test_mean_photon_number_agrees_with_density(self, ref_params, steady_rho):
        assert steady_moment(1, 1, ref_params).real == pytest.approx(
            moments(steady_rho).mean_n, rel=1e-9
        )

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 0), (2, 2)])
    def test_weak_kerr_past_the_double_range_matches_mpmath(self, m, n):
        # <n> ~ 300: both 0F2 at 2|eps|^2 = 8e8 peak near e^600, past the
        # double range, so they are summed scaled
        params = OscillatorParams(pump=20.0 + 0j, kerr=1e-3, loss=1.0)
        eps, lam = -1j * 20.0 / 1e-3, -1j * 1.0 / 1e-3
        with mpmath.workdps(30):
            e, l = mpmath.mpc(eps), mpmath.mpc(lam)
            lc = mpmath.conj(l)
            z = 2 * abs(e) ** 2
            oracle = complex(
                mpmath.conj(e) ** m * e**n
                * mpmath.gamma(lc) * mpmath.gamma(l)
                / (mpmath.gamma(lc + m) * mpmath.gamma(l + n))
                * mpmath.hyper([], [lc + m, l + n], z)
                / mpmath.hyper([], [lc, l], z)
            )
        assert steady_moment(m, n, params) == pytest.approx(oracle, rel=1e-10)

    def test_scaled_normalization_matches_the_unscaled_series(self, ref_params):
        # at the bundled point the series never rescales, so nothing moves
        sp = SteadyParams.from_params(ref_params)
        f0 = hyper_0f2(np.conj(sp.lam), sp.lam, 2.0 * abs(sp.epsilon) ** 2)
        plain = complex_lgamma(np.conj(sp.lam)) + complex_lgamma(sp.lam) - cmath.log(f0)
        assert sp.ln_norm_c == plain


class TestScaledSeries:
    def test_value_past_the_double_range_is_typed(self):
        # 0F2(1, 1; 1e9) is near e^3000: the scaled sum is fine, the value not
        with pytest.raises(NonconvergenceWithinMaxTerms):
            hyper_0f2(1.0, 1.0, 1e9)

    def test_scaled_value_matches_mpmath_in_log(self):
        value, _, exp2 = steady._hyper_0f2_series(1.0, 1.0, 1e9)
        assert exp2 > 1024
        ln_value = cmath.log(complex(value)) + float(exp2) * math.log(2.0)
        with mpmath.workdps(30):
            oracle = complex(mpmath.log(mpmath.hyper([], [1, 1], 1e9)))
        assert ln_value == pytest.approx(oracle, rel=1e-13)

    def test_rescaled_value_in_range_is_returned(self):
        # near e^300: rescaled on the way, back in the double range at the end
        a, b, z = 3.0 - 2.0j, 3.0 + 2.0j, 1e6
        assert steady._hyper_0f2_series(a, b, z)[2] > 0
        value, ratio = hyper_0f2_diagnostic(a, b, z)
        assert 0.0 < ratio <= 1.0  # conjugate parameters: positive terms
        with mpmath.workdps(30):
            oracle = complex(mpmath.hyper([], [a, b], z))
        assert value == pytest.approx(oracle, rel=1e-12)
