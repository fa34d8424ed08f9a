"""Evolution engines against closed-form oracles.

The master-equation integrator is checked against exact special cases (pure
Kerr phases, driven-damped coherent states), the classical ODE against its
pump-free closed form, and the linearized noise ODE against its algebraic
fixed point.  The Liouvillian stencil, bound to a chain buffer, is checked
against 2-d slices, dense matrix products and its own two-row application.
The degree-13 Krylov step is checked for its order, stability
radius, imaginary-axis bound and error weights, against its polynomial in
dense powers of L and against exp(Lambda t) at its samples, for a step
sequence that does not depend on the output grid, for its RHS and rejection
counts, and against a run at tight tolerances.  The integrated block is
checked against runs at a larger cutoff and at the declared cutoff, and
lossless starts pass the eigenvalue floor on a block below the cutoff.  The
output guards reject a non-positive sample with a typed error.  Starts that broke
the eigenvalue floor under the RMS error norm, at the bundled cutoff and
above, are regression tests.  The exact unpumped map is checked against DP5
at tight tolerances, the Kerr phase map and the damping distributions, also
past the bundled cutoff.  Complete-positivity invariants run under
hypothesis.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import kerrosc.dynamics as dynamics
from kerrosc.dynamics import (
    _KRYLOV_C,
    _KRYLOV_E,
    SemiclassicalPath,
    TimeGrid,
    Trajectory,
    _adaptive_rk,
    _guarded_stream,
    _initial_step,
    _linear_krylov,
    _project,
    classical_path,
    evolve,
    kerr_lossless_evolve,
    linear_damping_amplitude,
    linearized_noise_path,
    liouvillian_apply,
    liouvillian_generator,
    unpumped_evolve,
)
from kerrosc.analytics import coherent_damped_distribution, fock_damping_distribution
from kerrosc.errors import CutoffExceeded, KerrOscError, PositivityLost, PumpNotZero
from kerrosc.fock import (
    DensityMatrix,
    FockCutoff,
    OscillatorParams,
    StateVector,
    annihilation_matrix,
    coherent_state,
    density_from_pure,
    fock_state,
    coherent_superposition,
)
from kerrosc.gaussian import (
    classical_steady_amplitude,
    linearized_coeffs,
    steady_noise_moments,
)
from kerrosc.measures import bures_distance, moments, photon_distribution


class TestTimeGrid:
    def test_uniform_endpoints(self):
        grid = TimeGrid.uniform(2.0, 5)
        np.testing.assert_allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_times_read_only(self):
        grid = TimeGrid.uniform(1.0, 3)
        with pytest.raises(ValueError):
            grid.times[0] = 5.0

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.5, 1.0]))

    def test_must_increase(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 2.0, 1.0]))

    def test_single_origin_point_allowed(self):
        assert TimeGrid(np.array([0.0])).times.shape == (1,)

    def test_uniform_rejects_degenerate(self):
        with pytest.raises(ValueError):
            TimeGrid.uniform(1.0, 1)
        with pytest.raises(ValueError):
            TimeGrid.uniform(0.0, 5)


class TestKerrLosslessEvolve:
    def test_full_period_revival(self):
        # k(k-1) is even, so t = pi/G restores every phase exactly
        kerr = 0.7
        psi0 = coherent_state(2.0 + 1.0j, FockCutoff(30))
        psi = kerr_lossless_evolve(psi0, kerr, math.pi / kerr)
        overlap = abs(np.vdot(psi0.amplitudes, psi.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_half_period_two_component_cat(self):
        # at T/2 the coherent state splits into (e^{-i pi/4}|i alpha> +
        # e^{i pi/4}|-i alpha>)/sqrt(2)
        kerr, alpha = 1.0, 2.0 + 0.0j
        cutoff = FockCutoff(30)
        psi = kerr_lossless_evolve(coherent_state(alpha, cutoff), kerr, math.pi / 2)
        cat = coherent_superposition(
            [
                (np.exp(-1j * math.pi / 4), 1j * alpha),
                (np.exp(1j * math.pi / 4), -1j * alpha),
            ],
            cutoff,
        )
        assert abs(np.vdot(cat.amplitudes, psi.amplitudes)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_norm_preserved(self):
        psi = kerr_lossless_evolve(coherent_state(1.5, FockCutoff(20)), 0.3, 2.7)
        assert float(np.sum(np.abs(psi.amplitudes) ** 2)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_matches_master_equation_without_pump_or_loss(self):
        kerr = 1.0
        cutoff = FockCutoff(30)
        psi0 = coherent_state(2.0, cutoff)
        params = OscillatorParams(pump=0.0j, kerr=kerr, loss=0.0)
        grid = TimeGrid.uniform(0.4, 3)
        # lossless runs need tight tolerances: with nothing to contract them,
        # integration errors of order rtol show up as negative eigenvalues
        traj = evolve(density_from_pure(psi0), params, grid, rtol=1e-10, atol=1e-12)
        for t, rho in zip(grid.times, traj.states):
            psi = kerr_lossless_evolve(psi0, kerr, float(t))
            fidelity = float(
                np.vdot(psi.amplitudes, rho.elements @ psi.amplitudes).real
            )
            assert fidelity == pytest.approx(1.0, abs=1e-7)


class TestLinearDampingAmplitude:
    def test_closed_form_values(self):
        params = OscillatorParams(pump=0.8 + 0.2j, kerr=0.0, loss=0.7)
        t = 1.3
        decay = math.exp(-0.7 * t)
        expected = (1.0 + 0.5j) * decay + ((0.8 + 0.2j) / 0.7) * (1.0 - decay)
        got = linear_damping_amplitude(1.0 + 0.5j, params, t)
        assert got == pytest.approx(expected, abs=1e-15)

    def test_lossless_limit_is_linear_growth(self):
        params = OscillatorParams(pump=0.3 - 0.1j, kerr=0.0, loss=0.0)
        assert linear_damping_amplitude(1.0j, params, 2.0) == pytest.approx(
            1.0j + 2.0 * (0.3 - 0.1j), abs=1e-15
        )

    def test_negative_time_rejected(self):
        params = OscillatorParams(pump=0.0j, kerr=0.0, loss=1.0)
        with pytest.raises(ValueError):
            linear_damping_amplitude(1.0, params, -0.1)

    def test_matches_classical_ode_when_kerr_vanishes(self):
        params = OscillatorParams(pump=0.6 + 0.3j, kerr=0.0, loss=0.9)
        grid = TimeGrid.uniform(3.0, 7)
        path = classical_path(0.5 - 0.2j, params, grid)
        for t, alpha in zip(grid.times, path.alpha):
            assert alpha == pytest.approx(
                linear_damping_amplitude(0.5 - 0.2j, params, float(t)), abs=1e-9
            )


class TestEvolveDrivenDamped:
    def test_coherent_state_stays_coherent_without_kerr(self):
        # linear drive + loss maps coherent states to coherent states exactly
        params = OscillatorParams(pump=0.8 + 0.0j, kerr=0.0, loss=0.7)
        cutoff = FockCutoff(25)
        alpha0 = 1.0 + 0.0j
        grid = TimeGrid.uniform(2.0, 5)
        traj = evolve(
            density_from_pure(coherent_state(alpha0, cutoff)),
            params,
            grid,
            rtol=1e-10,
            atol=1e-12,
        )
        for t, rho in zip(grid.times, traj.states):
            alpha_t = linear_damping_amplitude(alpha0, params, float(t))
            target = density_from_pure(coherent_state(alpha_t, cutoff))
            assert moments(rho).mean_a == pytest.approx(alpha_t, abs=1e-7)
            assert bures_distance(rho, target) == pytest.approx(0.0, abs=1e-5)

    def test_vacuum_fills_to_pump_over_loss(self):
        params = OscillatorParams(pump=0.5 + 0.0j, kerr=0.0, loss=1.0)
        cutoff = FockCutoff(15)
        grid = TimeGrid.uniform(30.0, 3)
        traj = evolve(density_from_pure(fock_state(0, cutoff)), params, grid)
        final = moments(traj.states[-1])
        assert final.mean_a == pytest.approx(0.5 + 0.0j, abs=1e-6)
        assert final.mean_n == pytest.approx(0.25, abs=1e-6)

    def test_pure_loss_decays_mean_photon_number(self):
        params = OscillatorParams(pump=0.0j, kerr=0.0, loss=0.5)
        cutoff = FockCutoff(14)
        grid = TimeGrid.uniform(1.0, 4)
        traj = evolve(density_from_pure(fock_state(6, cutoff)), params, grid)
        for t, rho in zip(grid.times, traj.states):
            assert moments(rho).mean_n == pytest.approx(
                6.0 * math.exp(-2.0 * 0.5 * float(t)), rel=1e-6
            )


class TestEvolveDiagnostics:
    def test_trajectory_shapes_and_step_monotonicity(self):
        params = OscillatorParams(pump=1.0 + 0.0j, kerr=0.2, loss=1.0)
        grid = TimeGrid.uniform(0.5, 6)
        traj = evolve(density_from_pure(fock_state(0, FockCutoff(20))), params, grid)
        assert isinstance(traj, Trajectory)
        assert len(traj.states) == 6 and len(traj.diagnostics) == 6
        steps = [d.steps for d in traj.diagnostics]
        assert steps[0] == 0
        assert all(b >= a for a, b in zip(steps, steps[1:]))
        assert all(d.trace_error >= 0.0 for d in traj.diagnostics)
        assert all(d.tail_mass < 1e-6 for d in traj.diagnostics)

    def test_initial_state_is_returned_at_t_zero(self):
        params = OscillatorParams(pump=0.0j, kerr=0.1, loss=0.2)
        rho0 = density_from_pure(coherent_state(1.0, FockCutoff(15)))
        traj = evolve(rho0, params, TimeGrid.uniform(0.1, 2))
        np.testing.assert_allclose(traj.states[0].elements, rho0.elements, atol=1e-14)

    def test_tolerance_validation(self):
        params = OscillatorParams(pump=0.0j, kerr=0.0, loss=1.0)
        rho0 = density_from_pure(fock_state(0, FockCutoff(5)))
        with pytest.raises(ValueError):
            evolve(rho0, params, TimeGrid.uniform(1.0, 2), rtol=0.0)
        with pytest.raises(ValueError):
            evolve(rho0, params, TimeGrid.uniform(1.0, 2), atol=-1.0)

    def test_escaping_population_raises_cutoff_exceeded(self):
        # strong pump drives the vacuum far past a 10-level truncation
        params = OscillatorParams(pump=5.0 + 0.0j, kerr=0.2, loss=1.0)
        rho0 = density_from_pure(fock_state(0, FockCutoff(10)))
        with pytest.raises(CutoffExceeded):
            evolve(rho0, params, TimeGrid.uniform(5.0, 11))

    def test_tail_mass_is_checked_before_positivity(self):
        # at n_cut 33 the first output both breaks the eigenvalue floor and
        # carries tail mass 4e-4: the missing headroom is the cause to report
        params = OscillatorParams(pump=5.0 + 0.0j, kerr=0.0, loss=1.0)
        rho0 = density_from_pure(coherent_state(3.0, FockCutoff(33)))
        with pytest.raises(CutoffExceeded):
            evolve(rho0, params, TimeGrid.uniform(5.0, 11))

    def test_positivity_loss_is_typed(self):
        # a sample source whose second output is the projection of
        # diag(1 + 1e-6, -1e-6, 0, ...): unit trace and no tail mass, so the
        # eigenvalue check is the guard that fires
        rho0 = density_from_pure(coherent_state(2.0, FockCutoff(45)))
        grid = TimeGrid.uniform(1.0, 3)
        bad = np.zeros((46, 46), dtype=complex)
        bad[0, 0], bad[1, 1] = 1.0 + 1e-6, -1e-6
        seen: list[float] = []

        samples = (
            (*_project(y), counts)
            for y, counts in [(np.array(rho0.elements), (1, 0, 14, 46, 0)), (bad, (2, 0, 27, 46, 0))]
        )

        with pytest.raises(PositivityLost, match="minimum eigenvalue -1.000e-06") as info:
            _guarded_stream(rho0, grid, samples, lambda t, state, diag: seen.append(t))
        assert seen == [0.0, 0.5]
        assert str(info.value).endswith("at t = 1")
        assert isinstance(info.value, KerrOscError)
        assert isinstance(info.value.__cause__, ValueError)


def _min_eigenvalue(traj: Trajectory) -> float:
    return min(float(state.spectrum[0]) for state in traj.states)


class TestEigenvalueFloorRegressions:
    """Starts that broke the -1e-9 floor when the step error was an RMS.

    The RMS over all dim^2 entries let the nearly empty tail dilute the
    error on the populated block, more so the larger the cutoff.  Under the
    max norm each start below keeps its minimum eigenvalue within 2e-10 of
    zero, at the bundled cutoff and above it.
    """

    bundled = OscillatorParams(pump=5.0 + 0.0j, kerr=0.2, loss=1.0)

    @pytest.mark.parametrize("n", [0, 1])
    def test_low_fock_starts_at_the_bundled_cutoff(self, n):
        rho0 = density_from_pure(fock_state(n, FockCutoff(45)))
        traj = evolve(rho0, self.bundled, TimeGrid.uniform(5.0, 251))
        assert _min_eigenvalue(traj) > -5e-10

    @pytest.mark.parametrize("n_cut", [60, 70])
    def test_coherent_start_above_the_bundled_cutoff(self, n_cut):
        rho0 = density_from_pure(coherent_state(3.0, FockCutoff(n_cut)))
        traj = evolve(rho0, self.bundled, TimeGrid.uniform(10.0, 101))
        assert _min_eigenvalue(traj) > -5e-10


small_amp = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


class TestEvolveCompletePositivity:
    @settings(max_examples=10, deadline=None)
    @given(
        c0=small_amp,
        c1=small_amp,
        pump=st.floats(min_value=0.0, max_value=1.5),
        kerr=st.floats(min_value=0.0, max_value=0.5),
        loss=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_trace_hermiticity_positivity_preserved(self, c0, c1, pump, kerr, loss):
        dim = 18
        amp = np.zeros(dim, dtype=complex)
        amp[0], amp[1], amp[2] = 1.0 + c0, c1, 0.3
        amp /= np.linalg.norm(amp)
        rho0 = density_from_pure(StateVector(amp))
        params = OscillatorParams(pump=complex(pump), kerr=kerr, loss=loss)
        traj = evolve(rho0, params, TimeGrid.uniform(0.3, 2))
        el = traj.states[-1].elements
        assert abs(np.trace(el) - 1.0) < 1e-9
        assert float(np.max(np.abs(el - el.conj().T))) < 1e-10
        assert float(np.min(np.linalg.eigvalsh(el))) > -1e-9


class TestClassicalPath:
    def test_pump_free_closed_form(self):
        # d alpha/dt = -2iG|alpha|^2 alpha - g0 alpha conserves |alpha| e^{g0 t},
        # giving alpha(t) = alpha0 e^{-g0 t} e^{-i (G I0/g0)(1 - e^{-2 g0 t})}
        alpha0 = 1.3 - 0.4j
        params = OscillatorParams(pump=0.0j, kerr=0.6, loss=0.8)
        grid = TimeGrid.uniform(2.5, 6)
        path = classical_path(alpha0, params, grid)
        i0 = abs(alpha0) ** 2
        for t, alpha in zip(grid.times, path.alpha):
            t = float(t)
            phase = -(params.kerr * i0 / params.loss) * (1.0 - math.exp(-2 * params.loss * t))
            expected = alpha0 * math.exp(-params.loss * t) * np.exp(1j * phase)
            assert alpha == pytest.approx(expected, abs=1e-9)

    def test_lossless_pump_free_rotation(self):
        alpha0 = 0.9 + 0.5j
        params = OscillatorParams(pump=0.0j, kerr=1.1, loss=0.0)
        grid = TimeGrid.uniform(1.0, 3)
        path = classical_path(alpha0, params, grid)
        i0 = abs(alpha0) ** 2
        for t, alpha in zip(grid.times, path.alpha):
            expected = alpha0 * np.exp(-2j * params.kerr * i0 * float(t))
            assert alpha == pytest.approx(expected, abs=1e-9)

    def test_converges_to_steady_amplitude(self, ref_params):
        grid = TimeGrid.uniform(30.0, 4)
        path = classical_path(0.0j, ref_params, grid)
        assert path.alpha[-1] == pytest.approx(
            classical_steady_amplitude(ref_params), abs=1e-8
        )
        assert path.noise_B is None and path.noise_C is None

    def test_tolerance_validation(self):
        params = OscillatorParams(pump=0.0j, kerr=0.1, loss=0.1)
        with pytest.raises(ValueError):
            classical_path(1.0, params, TimeGrid.uniform(1.0, 2), rtol=-1e-8)

    @pytest.mark.parametrize("tol", [{"rtol": 0.0}, {"atol": 0.0}, {"atol": -1e-12}])
    def test_nonpositive_tolerances_rejected(self, tol):
        params = OscillatorParams(pump=0.0j, kerr=0.1, loss=0.1)
        with pytest.raises(ValueError, match="rtol and atol must be > 0"):
            classical_path(1.0, params, TimeGrid.uniform(1.0, 2), **tol)


class TestLinearizedNoisePath:
    def test_converges_to_algebraic_fixed_point(self, ref_params):
        alpha_ss = classical_steady_amplitude(ref_params)
        grid = TimeGrid.uniform(25.0, 6)
        path = linearized_noise_path(alpha_ss, 0.0, 0.0j, ref_params, grid)
        coeffs = linearized_coeffs(alpha_ss, ref_params)
        target = steady_noise_moments(coeffs)
        assert path.noise_B[-1] == pytest.approx(target.B, abs=1e-8)
        assert path.noise_C[-1] == pytest.approx(target.C, abs=1e-8)

    def test_fixed_point_is_stationary(self, ref_params):
        alpha_ss = classical_steady_amplitude(ref_params)
        coeffs = linearized_coeffs(alpha_ss, ref_params)
        target = steady_noise_moments(coeffs)
        grid = TimeGrid.uniform(5.0, 3)
        path = linearized_noise_path(alpha_ss, target.B, target.C, ref_params, grid)
        np.testing.assert_allclose(path.noise_B, target.B, atol=1e-8)
        np.testing.assert_allclose(path.noise_C, target.C, atol=1e-8)
        np.testing.assert_allclose(path.alpha, alpha_ss, atol=1e-8)

    def test_vacuum_noise_stays_nonnegative(self, ref_params):
        grid = TimeGrid.uniform(3.0, 31)
        path = linearized_noise_path(0.0j, 0.0, 0.0j, ref_params, grid)
        assert float(np.min(path.noise_B)) >= -1e-12

    def test_negative_initial_noise_rejected(self, ref_params):
        with pytest.raises(ValueError):
            linearized_noise_path(0.0j, -0.1, 0.0j, ref_params, TimeGrid.uniform(1.0, 2))

    @pytest.mark.parametrize(
        "tol", [{"rtol": -1e-8}, {"rtol": 0.0}, {"atol": 0.0}, {"atol": -1e-12}]
    )
    def test_nonpositive_tolerances_rejected(self, ref_params, tol):
        # a typed ValueError, not a complex comparison's TypeError or the
        # NaN warnings of a zero error scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="rtol and atol must be > 0"):
                linearized_noise_path(
                    0.5j, 0.0, 0.0j, ref_params, TimeGrid.uniform(1.0, 2), **tol
                )


class TestSemiclassicalPathValidation:
    def test_alpha_length_mismatch(self):
        grid = TimeGrid.uniform(1.0, 3)
        with pytest.raises(ValueError):
            SemiclassicalPath(
                times=grid, alpha=np.zeros(2, complex), noise_B=None, noise_C=None
            )

    def test_negative_noise_rejected(self):
        grid = TimeGrid.uniform(1.0, 3)
        with pytest.raises(ValueError):
            SemiclassicalPath(
                times=grid,
                alpha=np.zeros(3, complex),
                noise_B=np.array([0.0, -1e-6, 0.0]),
                noise_C=np.zeros(3, complex),
            )


class TestLiouvillianApply:
    def test_hermitian_and_traceless(self, ref_params, rng):
        from conftest import random_density

        rho = random_density(rng, dim=12)
        deriv = liouvillian_apply(rho, ref_params)
        assert float(np.max(np.abs(deriv - deriv.conj().T))) < 1e-12
        assert abs(np.trace(deriv)) < 1e-12

    def test_steady_state_is_stationary(self, ref_params, steady_rho):
        deriv = liouvillian_apply(steady_rho, ref_params)
        assert float(np.max(np.abs(deriv))) < 1e-6

    def test_matches_finite_difference_of_evolve(self):
        params = OscillatorParams(pump=0.5 + 0.0j, kerr=0.3, loss=0.4)
        rho0 = density_from_pure(coherent_state(1.0, FockCutoff(18)))
        deriv = liouvillian_apply(rho0, params)
        dt = 1e-5
        traj = evolve(
            rho0, params, TimeGrid(np.array([0.0, dt])), rtol=1e-12, atol=1e-14
        )
        fd = (traj.states[-1].elements - rho0.elements) / dt
        assert float(np.max(np.abs(fd - deriv))) < 1e-4


def dense_liouvillian(params: OscillatorParams, r: np.ndarray) -> np.ndarray:
    """-i[H, r] + gamma0 (2 a r a^dag - a^dag a r - r a^dag a) by matrix products."""
    dim = r.shape[0]
    a = annihilation_matrix(FockCutoff(dim - 1))
    ad = a.conj().T
    h = 1j * (params.pump * ad - np.conj(params.pump) * a)
    h = h + params.kerr * (ad @ ad @ a @ a)
    num = ad @ a
    return -1j * (h @ r - r @ h) + params.loss * (
        2.0 * (a @ r @ ad) - num @ r - r @ num
    )


def apply_stencil(params: OscillatorParams, r: np.ndarray) -> np.ndarray:
    """L r from the generator bound to a two-row chain buffer holding r."""
    chain = np.empty((2,) + r.shape, dtype=complex)
    chain[0] = r
    liouvillian_generator(params, chain)(1)
    return chain[1]


def banded_liouvillian_2d(
    params: OscillatorParams, dim: int
) -> Callable[[np.ndarray], np.ndarray]:
    """The RHS as shifted slices of the (dim, dim) array, band by band.

    Adds the same terms in the same order as the flat stencil, so the two
    must agree bit for bit.
    """
    levels = np.arange(dim, dtype=float)
    kerr_energy = levels * (levels - 1.0)
    diag = -1j * params.kerr * (
        kerr_energy[:, None] - kerr_energy[None, :]
    ) - params.loss * (levels[:, None] + levels[None, :])
    root = np.sqrt(levels[1:])
    pump = params.pump
    row_from_above = (pump * root)[:, None]
    row_from_below = (-np.conj(pump) * root)[:, None]
    col_from_right = -pump * root
    col_from_left = np.conj(pump) * root
    jump = (2.0 * params.loss * np.outer(root, root)).astype(complex)

    def rhs(r: np.ndarray) -> np.ndarray:
        out = diag * r
        out[1:] += row_from_above * r[:-1]
        out[:-1] += row_from_below * r[1:]
        out[:, :-1] += col_from_right * r[:, 1:]
        out[:, 1:] += col_from_left * r[:, :-1]
        out[:-1, :-1] += jump * r[1:, 1:]
        return out

    return rhs


class TestFlatStencil:
    @pytest.mark.parametrize("dim", [2, 3, 46, 101])
    @pytest.mark.parametrize(
        "params",
        [
            OscillatorParams(pump=5.0, kerr=0.2, loss=1.0),
            OscillatorParams(pump=1.3 - 2.1j, kerr=0.7, loss=0.35),
        ],
        ids=["bundled", "complex-pump"],
    )
    def test_bitwise_equal_to_2d_slices(self, dim, params):
        rng = np.random.default_rng(1000 + dim)
        r = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        got = apply_stencil(params, r)
        assert np.array_equal(got, banded_liouvillian_2d(params, dim)(r))

    @pytest.mark.parametrize("dim", [2, 46])
    def test_keeps_shape_and_leaves_input_unmodified(self, dim):
        rng = np.random.default_rng(dim)
        r = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        before = r.copy()
        got = apply_stencil(OscillatorParams(5.0, 0.2, 1.0), r)
        assert got.shape == (dim, dim)
        assert np.array_equal(r, before)

    @pytest.mark.parametrize(
        "chain",
        [
            np.zeros((1, 4, 4), dtype=complex),
            np.zeros((2, 4, 5), dtype=complex),
            np.zeros((2, 4, 4)),
            np.zeros((2, 8, 8), dtype=complex)[:, ::2, ::2],
        ],
        ids=["one-row", "not-square", "real", "strided"],
    )
    def test_rejects_a_chain_it_cannot_bind(self, chain):
        # a strided chain would make the flat rows copies, and step(j)
        # would write into them instead of the chain
        with pytest.raises(ValueError, match="chain must be"):
            liouvillian_generator(OscillatorParams(5.0, 0.2, 1.0), chain)

    @pytest.mark.parametrize("state", ["d12", "d34", "ncut90-block"])
    def test_bound_chain_equals_repeated_two_row_applications(self, state):
        # a chain filled by step(j) through its bound views holds exactly
        # what 14 separate two-row applications give, byte for byte
        params = OscillatorParams(pump=5.0, kerr=0.2, loss=1.0)
        if state == "ncut90-block":
            rho = density_from_pure(coherent_state(3.0 * np.exp(0.4j), FockCutoff(90)))
            d = dynamics._block_size(rho.elements.diagonal().real, 91)
            assert d < 91
            start = rho.elements[:d, :d]
        else:
            d = int(state[1:])
            rng = np.random.default_rng(d)
            start = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        chain = np.empty((dynamics._CHAIN, d, d), dtype=complex)
        chain[0] = start
        step = liouvillian_generator(params, chain)
        for j in range(1, dynamics._CHAIN):
            step(j)
        ref = start
        for j in range(1, dynamics._CHAIN):
            ref = apply_stencil(params, ref)
            assert chain[j].tobytes() == ref.tobytes()


class TestBandedLiouvillian:
    @pytest.mark.parametrize("dim", [2, 3, 46, 101])
    @pytest.mark.parametrize(
        "params",
        [
            OscillatorParams(pump=5.0, kerr=0.2, loss=1.0),
            OscillatorParams(pump=1.3 - 2.1j, kerr=0.7, loss=0.0),
            OscillatorParams(pump=-0.4 + 0.9j, kerr=0.0, loss=0.35),
        ],
        ids=["bundled", "complex-pump-lossless", "kerr-free"],
    )
    def test_matches_dense_matrix_products(self, dim, params):
        rng = np.random.default_rng(dim)
        # a general (non-Hermitian) input: RK stage inputs are Hermitian
        # only up to round-off
        r = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        ref = dense_liouvillian(params, r)
        got = apply_stencil(params, r)
        assert float(np.max(np.abs(got - ref))) <= 1e-13 * float(np.max(np.abs(ref)))


class TestAdaptiveRK:
    @pytest.mark.parametrize(
        "lam, y0",
        [
            (np.array([-0.7 + 2.0j]), np.array([1.0 + 0.5j])),
            (
                np.array([-1.0, 0.3 - 1.5j, -0.05 + 4.0j]),
                np.array([2.0 + 0.0j, -1.0 + 1.0j, 0.5j]),
            ),
        ],
        ids=["scalar", "3-vector"],
    )
    def test_linear_ode_matches_exponential(self, lam, y0):
        rtol, atol = 1e-9, 1e-12
        times = np.array([0.0, 0.013, 0.4, 0.41, 1.7, 2.5])
        samples = list(_adaptive_rk(lambda y: lam * y, y0, times, rtol, atol))
        assert len(samples) == times.shape[0] - 1
        for t, y in zip(times[1:], samples):
            np.testing.assert_allclose(y, y0 * np.exp(lam * t), rtol=20 * rtol, atol=atol)

    def test_samples_end_steps_and_carry_the_derivative(self):
        # one f call for the start, then six per trial step: no segment
        # re-evaluates f at a sample, however many samples there are
        calls = 0

        def f(y):
            nonlocal calls
            calls += 1
            return -0.5 * y

        times = np.linspace(0.0, 1.0, 41)
        samples = list(_adaptive_rk(f, np.array([1.0 + 0.0j]), times, 1e-9, 1e-12))
        assert (calls - 1) % 6 == 0
        assert calls - 1 < 6 * 2 * len(samples)
        np.testing.assert_allclose(
            np.concatenate(samples), np.exp(-0.5 * times[1:]), rtol=1e-8
        )


def _dense_generator(params: OscillatorParams, d: int) -> np.ndarray:
    """L at size d as a dense (d^2, d^2) matrix on the flattened rho, column by column."""
    units = np.eye(d * d, dtype=complex)
    return np.stack([apply_stencil(params, unit.reshape(d, d)).ravel() for unit in units], 1)


def _stable_radius(coeffs: np.ndarray, degrees: float) -> float:
    """First r on a 1e-3 grid with |p(r e^{i theta})| > 1."""
    r = np.arange(1, 12001) * 1e-3
    z = r * np.exp(1j * math.radians(degrees))
    p = np.polyval(coeffs[::-1], z)
    return float(r[np.argmax(np.abs(p) > 1.0)])


class TestKrylovDP5:
    def test_step_polynomial_coefficients(self):
        # ninth order and degree 13: the Taylor coefficients of exp up to
        # z^9, exactly
        assert _KRYLOV_C.shape == (14,)
        taylor = [1.0 / math.factorial(j) for j in range(10)]
        assert list(_KRYLOV_C[:10]) == taylor
        # stable well past DP5 on the ray of the bundled point's extreme
        # eigenvalue, -45-396i, and a radius of at least 8 on every ray from
        # 91 to 100 degrees
        dp5 = np.array(taylor[:6] + [1.0 / 600.0, 0.0])
        ray = math.degrees(math.atan2(396.0, -45.0))
        assert _stable_radius(dp5, ray) == pytest.approx(2.733, abs=2e-3)
        assert _stable_radius(_KRYLOV_C, ray) == pytest.approx(8.718, abs=2e-3)
        assert all(_stable_radius(_KRYLOV_C, deg) >= 8.0 for deg in range(91, 101))
        # nearly contractive on the imaginary axis, where the whole spectrum
        # of a lossless L lies
        y = np.linspace(0.0, 5.70, 5701)
        assert float(np.max(np.abs(np.polyval(_KRYLOV_C[::-1], 1j * y)))) <= 1.0 + 4.3e-7
        # the error reference is the Taylor polynomial of degree 8, so the
        # error weights are zero below h^9 and p's own from there on
        assert np.all(_KRYLOV_E[:9] == 0.0)
        assert np.array_equal(_KRYLOV_E[9:], _KRYLOV_C[9:])
        assert dynamics._KRYLOV_EXPONENT == -1.0 / 9.0

    def test_one_step_matches_stage_form(self):
        # one accepted step and a sample inside it on the populated block of
        # a state at n_cut 90, each against sum_j c_j (sL)^j y0 from powers
        # of the dense L, the matrix the stencil applies
        params = OscillatorParams(pump=5.0 + 0.0j, kerr=0.2, loss=1.0)
        rho0 = density_from_pure(coherent_state(1.0, FockCutoff(90)))
        d = dynamics._block_size(rho0.elements.diagonal().real, 91)
        assert d < 91
        y0 = rho0.elements[:d, :d]
        lmat = _dense_generator(params, d)
        rtol, atol = 1e-8, 1e-10
        # grid end at the first trial step: one step, with a sample inside it
        h = _initial_step(y0, (lmat @ y0.ravel()).reshape(d, d), 1.0, rtol, atol)
        times = np.array([0.0, h / 3, h])
        out = list(_linear_krylov(params, rho0.elements, times, rtol, atol))
        assert [counts[0] for _, _, counts in out] == [0, 1]
        assert all(counts[3] == d for _, _, counts in out)
        for (got, _, _), t in zip(out, times[1:]):
            ref, power = 0.0, y0.ravel()
            for c in _KRYLOV_C:
                ref, power = ref + c * power, float(t) * (lmat @ power)
            assert got.shape == (d, d)
            assert float(np.max(np.abs(got.ravel() - ref))) <= 1e-13 * float(np.max(np.abs(ref)))

    def test_samples_match_exponential(self):
        # at n_cut 10 the block is the whole matrix, so exp(tL) of the dense
        # L is the exact reference at every sample: on the uniform grid,
        # y0 times successive powers of exp(L dt)
        params = OscillatorParams(pump=1.0 - 0.5j, kerr=0.3, loss=0.4)
        rho0 = density_from_pure(coherent_state(0.8 + 0.4j, FockCutoff(10)))
        y0 = rho0.elements.ravel()
        lmat = _dense_generator(params, 11)
        rtol, atol = 1e-9, 1e-12
        times = np.linspace(0.0, 2.5, 101)
        out = list(_linear_krylov(params, rho0.elements, times, rtol, atol))
        assert len(out) == 100
        assert all(counts[3:] == (11, 0) for _, _, counts in out)
        step = scipy.linalg.expm(float(times[1]) * lmat)
        ref = y0
        for got, _, _ in out:
            ref = step @ ref
            np.testing.assert_allclose(got.ravel(), ref, rtol=20 * rtol, atol=atol)
        # samples do not cut steps: the same integration sampled only at
        # the end takes the same steps and ends in the same state
        (end, _, end_counts), = _linear_krylov(params, rho0.elements, times[[0, -1]], rtol, atol)
        assert out[-1][2] == end_counts
        assert np.array_equal(out[-1][0], end)
        counts = [c[0] for _, _, c in out]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_final_state_independent_of_sampling(self):
        params = OscillatorParams(pump=5.0 + 0.0j, kerr=0.2, loss=1.0)
        rho0 = density_from_pure(coherent_state(3.0, FockCutoff(45)))
        sparse = evolve(rho0, params, TimeGrid.uniform(2.0, 2))
        dense = evolve(rho0, params, TimeGrid.uniform(2.0, 201))
        assert np.array_equal(sparse.states[-1].elements, dense.states[-1].elements)
        assert sparse.diagnostics[-1].steps == dense.diagnostics[-1].steps

    def test_bundled_run_is_within_1e10_of_a_tight_run(self):
        # the bundled point from |alpha=3> to t = 10 at n_cut 45, every one of
        # 501 samples against rtol 1e-12, atol 1e-14 (the largest difference
        # is 1.1e-11)
        params = OscillatorParams(pump=5.0 + 0.0j, kerr=0.2, loss=1.0)
        rho0 = density_from_pure(coherent_state(3.0, FockCutoff(45)))
        grid = TimeGrid.uniform(10.0, 501)
        run = evolve(rho0, params, grid)
        tight = evolve(rho0, params, grid, rtol=1e-12, atol=1e-14)
        assert _max_element_diff(run, tight) <= 1e-10
        assert run.diagnostics[-1].steps < tight.diagnostics[-1].steps

    def test_thirteen_rhs_calls_per_step_and_free_rejections(self, monkeypatch):
        calls = 0
        norms: list[float] = []
        generator = dynamics.liouvillian_generator
        error_norm = dynamics._error_norm

        def counting_generator(params, chain):
            step = generator(params, chain)

            def counted(j):
                nonlocal calls
                calls += 1
                return step(j)

            return counted

        def recording_norm(*args):
            norms.append(error_norm(*args))
            return norms[-1]

        monkeypatch.setattr(dynamics, "liouvillian_generator", counting_generator)
        monkeypatch.setattr(dynamics, "_error_norm", recording_norm)
        params = OscillatorParams(pump=5.0 + 0.0j, kerr=0.2, loss=1.0)
        # the vacuum fills: its block grows from 12 levels, and a resize
        # restarts the chain at one RHS call
        rho0 = density_from_pure(fock_state(0, FockCutoff(45)))
        traj = evolve(rho0, params, TimeGrid.uniform(5.0, 51))
        steps = traj.diagnostics[-1].steps
        resizes = traj.diagnostics[-1].resizes
        rejected = sum(err > 1.0 for err in norms)
        assert rejected > 0 and resizes > 0
        assert len(norms) - steps == rejected
        assert calls == 1 + 13 * steps + resizes
        assert traj.diagnostics[-1].rejected == rejected
        assert traj.diagnostics[-1].rhs_calls == calls

    def test_diagnostics_count_rhs_calls_and_rejections(self):
        params = OscillatorParams(pump=5.0 + 0.0j, kerr=0.2, loss=1.0)
        rho0 = density_from_pure(coherent_state(3.0, FockCutoff(60)))
        traj = evolve(rho0, params, TimeGrid.uniform(5.0, 21))
        diags = traj.diagnostics
        assert (diags[0].steps, diags[0].rejected, diags[0].rhs_calls) == (0, 0, 0)
        assert (diags[0].block, diags[0].resizes) == (0, 0)
        # the last output ends the last step: 1 + 13 calls per accepted step,
        # plus 1 per resize
        assert diags[-1].rhs_calls == 1 + 13 * diags[-1].steps + diags[-1].resizes
        assert diags[-1].rejected > 0
        assert diags[-1].resizes > 0
        for a, b in zip(diags, diags[1:]):
            assert b.rejected >= a.rejected and b.rhs_calls >= a.rhs_calls
            assert b.resizes >= a.resizes
        # an output inside a step has paid for that step's chain already
        for d in diags[1:]:
            assert d.rhs_calls - d.resizes in (1 + 13 * d.steps, 1 + 13 * (d.steps + 1))
            assert 2 <= d.block <= 61
        # the exact map integrates nothing
        unpumped = OscillatorParams(pump=0.0j, kerr=0.2, loss=1.0)
        exact = unpumped_evolve(rho0, unpumped, TimeGrid.uniform(2.0, 21))
        assert all(
            (d.steps, d.rejected, d.rhs_calls, d.block, d.resizes) == (0, 0, 0, 0, 0)
            for d in exact.diagnostics
        )


def _full_cutoff(monkeypatch) -> None:
    """Integrate at the declared cutoff: every block is the whole matrix."""
    monkeypatch.setattr(dynamics, "_block_size", lambda pop, dim: dim)


class TestIntegrationBlock:
    bundled = OscillatorParams(pump=5.0 + 0.0j, kerr=0.2, loss=1.0)
    lossless = OscillatorParams(pump=0.5 + 0.0j, kerr=0.2, loss=0.0)

    def test_cost_follows_the_support_not_the_cutoff(self):
        grid = TimeGrid.uniform(10.0, 101)
        runs = {
            n_cut: evolve(
                density_from_pure(coherent_state(3.0, FockCutoff(n_cut))), self.bundled, grid
            )
            for n_cut in (45, 70, 130)
        }
        for a, b in zip(runs[45].states, runs[130].states):
            assert float(np.max(np.abs(b.elements[:46, :46] - a.elements))) <= 2e-9
        steps = {n_cut: run.diagnostics[-1].steps for n_cut, run in runs.items()}
        assert abs(steps[130] - steps[45]) <= 0.1 * steps[45]
        assert runs[70].diagnostics[-1].rejected <= 5
        # the relaxed state fills fewer levels than the bundled cutoff
        assert all(run.diagnostics[-1].block < 46 for run in runs.values())

    def test_growing_support_matches_the_full_cutoff(self, monkeypatch):
        # the vacuum fills towards the steady state: the block starts at
        # _HEADROOM + 1 levels and must grow
        rho0 = density_from_pure(fock_state(0, FockCutoff(45)))
        grid = TimeGrid.uniform(5.0, 51)
        first = dynamics._block_size(rho0.elements.diagonal().real, 46)
        assert first == dynamics._HEADROOM + 1
        blocked = evolve(rho0, self.bundled, grid)
        assert max(d.block for d in blocked.diagnostics) > first
        assert blocked.diagnostics[-1].resizes > 0
        _full_cutoff(monkeypatch)
        full = evolve(rho0, self.bundled, grid)
        assert all(d.block == 46 and d.resizes == 0 for d in full.diagnostics[1:])
        assert _max_element_diff(blocked, full) <= 2e-9

    @pytest.mark.parametrize(
        "rho0",
        [
            coherent_state(2.0, FockCutoff(45)),
            fock_state(3, FockCutoff(45)),
            fock_state(0, FockCutoff(45)),
        ],
        ids=["alpha2", "fock3", "fock0"],
    )
    def test_lossless_runs_pass_the_floor_on_the_block(self, rho0):
        # at loss 0 the whole spectrum of L lies on the imaginary axis, where
        # |p| exceeds 1 by at most 4.2e-7: each start passes the -1e-9 floor
        # with the block following its populated levels, below the declared
        # cutoff
        rho0 = density_from_pure(rho0)
        diags = evolve(rho0, self.lossless, TimeGrid.uniform(5.0, 101)).diagnostics
        assert all(d.min_eigenvalue > -1e-9 for d in diags)
        assert all(2 <= d.block < 46 for d in diags[1:])


def _max_element_diff(a: Trajectory, b: Trajectory) -> float:
    return max(
        float(np.max(np.abs(x.elements - y.elements))) for x, y in zip(a.states, b.states)
    )


class TestUnpumpedEvolve:
    @pytest.mark.parametrize("kerr,loss", [(0.2, 1.0), (0.3, 0.5)])
    def test_matches_dp5_at_tight_tolerances(self, kerr, loss):
        params = OscillatorParams(pump=0.0j, kerr=kerr, loss=loss)
        rho0 = density_from_pure(coherent_state(3.0 * np.exp(0.7j), FockCutoff(45)))
        grid = TimeGrid.uniform(1.5, 16)
        exact = unpumped_evolve(rho0, params, grid)
        integrated = evolve(rho0, params, grid, rtol=1e-11, atol=1e-13)
        assert _max_element_diff(exact, integrated) <= 1e-9

    @pytest.mark.parametrize("n_cut,alpha", [(45, 3.0), (100, 6.0 - 2.0j)])
    def test_lossless_is_the_kerr_phase_map(self, n_cut, alpha):
        kerr = 1.0
        params = OscillatorParams(pump=0.0j, kerr=kerr, loss=0.0)
        psi0 = coherent_state(alpha, FockCutoff(n_cut))
        grid = TimeGrid(np.array([0.0, math.pi / 8, math.pi / 3, math.pi / 2, 2.9]))
        traj = unpumped_evolve(density_from_pure(psi0), params, grid)
        for t, state in zip(grid.times, traj.states):
            oracle = density_from_pure(kerr_lossless_evolve(psi0, kerr, float(t)))
            assert float(np.max(np.abs(state.elements - oracle.elements))) <= 1e-13

    @pytest.mark.parametrize("kerr", [0.0, 0.2])
    def test_fock_diagonal_is_binomial(self, kerr):
        n, loss = 9, 1.0
        params = OscillatorParams(pump=0.0j, kerr=kerr, loss=loss)
        grid = TimeGrid.uniform(2.0, 21)
        traj = unpumped_evolve(density_from_pure(fock_state(n, FockCutoff(20))), params, grid)
        for t, state in zip(grid.times, traj.states):
            expected = fock_damping_distribution(n, loss, float(t))
            diag = state.elements.diagonal().real
            np.testing.assert_allclose(diag[: n + 1], expected, rtol=0.0, atol=1e-14)
            assert np.all(diag[n + 1 :] == 0.0)

    @pytest.mark.parametrize("n_cut,alpha", [(25, 1.5 + 0.5j), (100, 6.0)])
    def test_coherent_distribution_is_poisson(self, n_cut, alpha):
        loss = 0.8
        cutoff = FockCutoff(n_cut)
        params = OscillatorParams(pump=0.0j, kerr=0.4, loss=loss)
        grid = TimeGrid.uniform(2.0, 11)
        traj = unpumped_evolve(density_from_pure(coherent_state(alpha, cutoff)), params, grid)
        for t, state in zip(grid.times, traj.states):
            expected = coherent_damped_distribution(alpha, loss, float(t), cutoff)
            np.testing.assert_allclose(photon_distribution(state), expected, rtol=0.0, atol=1e-13)

    def test_hermitian_unit_trace_and_no_steps(self):
        params = OscillatorParams(pump=0.0j, kerr=0.2, loss=1.0)
        components = [(1.0 + 0.0j, 3.0 * np.exp(2j * math.pi * k / 3)) for k in range(3)]
        rho0 = density_from_pure(coherent_superposition(components, FockCutoff(45)))
        traj = unpumped_evolve(rho0, params, TimeGrid.uniform(5.0, 51))
        # every output after the start is projected onto Hermitian matrices
        for state, diag in zip(traj.states[1:], traj.diagnostics[1:]):
            el = state.elements
            assert np.array_equal(el, el.conj().T)
            assert abs(complex(np.trace(el)) - 1.0) <= 1e-14
            assert diag.steps == 0
            assert diag.trace_error <= 1e-13

    def test_raising_the_cutoff_keeps_the_leading_block(self):
        # population only moves down, so levels above the start play no part
        params = OscillatorParams(pump=0.0j, kerr=0.2, loss=1.0)
        grid = TimeGrid.uniform(1.0, 11)
        small = unpumped_evolve(density_from_pure(fock_state(9, FockCutoff(14))), params, grid)
        large = unpumped_evolve(density_from_pure(fock_state(9, FockCutoff(120))), params, grid)
        for a, b in zip(small.states, large.states):
            np.testing.assert_allclose(b.elements[:15, :15], a.elements, rtol=0.0, atol=1e-15)

    def test_pump_is_rejected(self):
        rho0 = density_from_pure(coherent_state(1.0, FockCutoff(20)))
        params = OscillatorParams(pump=0.5 + 0.0j, kerr=0.2, loss=1.0)
        with pytest.raises(PumpNotZero):
            unpumped_evolve(rho0, params, TimeGrid.uniform(1.0, 3))
        assert issubclass(PumpNotZero, KerrOscError)

    def test_tail_guard_is_shared_with_evolve(self):
        # all population on the top level: the tail-mass guard fires at the
        # first output, as it does for the integrator
        rho0 = density_from_pure(fock_state(12, FockCutoff(12)))
        params = OscillatorParams(pump=0.0j, kerr=0.2, loss=0.1)
        with pytest.raises(CutoffExceeded):
            unpumped_evolve(rho0, params, TimeGrid.uniform(0.1, 3))
