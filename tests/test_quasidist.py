"""Phase-space quasidistributions against closed forms and brute-force sums.

Laguerre polynomials are checked against their explicit finite sums and
scipy; the grid evaluator against the single-element routine, both as a
double sum over all elements and one element at a time; coherent and
thermal states against the Gaussian closed form; and Husimi grids against direct
coherent-state sandwiches.  A numeric RuntimeWarning (overflow, invalid
value) fails a test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special

from conftest import random_density
from kerrosc.errors import (
    ImaginaryResidue,
    InvalidOrder,
    KerrOscError,
    NegativeHusimi,
    NonpositiveKs,
    SParamOutOfRange,
)
from kerrosc.fock import (
    DensityMatrix,
    FockCutoff,
    coherent_state,
    density_from_pure,
    fock_state,
)
from kerrosc.gaussian import GaussianState
from kerrosc.quasidist import (
    QuasiGrid,
    associated_laguerre,
    cg_matrix_element,
    gaussian_quasidistribution,
    quasidistribution,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def laguerre_finite_sum(n: int, k: int, x: float) -> float:
    """L_n^k(x) = sum_i (-1)^i C(n+k, n-i) x^i / i! with exact rationals."""
    total = Fraction(0)
    xf = Fraction(x)
    for i in range(n + 1):
        total += Fraction((-1) ** i * math.comb(n + k, n - i), math.factorial(i)) * xf**i
    return float(total)


class TestAssociatedLaguerre:
    @pytest.mark.parametrize(
        "n,k,x", [(0, 0, 2.0), (1, 3, 0.5), (3, 2, 1.5), (7, 1, 4.25), (12, 5, 9.5)]
    )
    def test_matches_finite_sum(self, n, k, x):
        assert associated_laguerre(n, k, x) == pytest.approx(
            laguerre_finite_sum(n, k, x), rel=1e-12
        )

    def test_explicit_value(self):
        # L_3^2(3/2) = 10 - 10 x + 5 x^2/2 - x^3/6 at x = 3/2 equals 1/16
        assert associated_laguerre(3, 2, 1.5) == pytest.approx(0.0625, abs=1e-13)

    def test_matches_scipy_on_array(self):
        x = np.linspace(0.0, 12.0, 25)
        got = associated_laguerre(6, 3, x)
        expected = scipy.special.eval_genlaguerre(6, 3, x)
        np.testing.assert_allclose(got, expected, rtol=1e-10)
        assert got.shape == x.shape

    def test_negative_k_allowed_when_sum_is(self):
        # n + k >= 0 keeps the polynomial well defined (scipy declines here)
        assert associated_laguerre(3, -2, 2.0) == pytest.approx(
            laguerre_finite_sum(3, -2, 2.0), rel=1e-12
        )

    def test_invalid_orders_rejected(self):
        with pytest.raises(InvalidOrder):
            associated_laguerre(-1, 0, 1.0)
        with pytest.raises(InvalidOrder):
            associated_laguerre(1, -3, 1.0)


class TestCgMatrixElement:
    def test_hermiticity(self):
        beta, s = 0.7 - 0.4j, -0.3
        for n, m in [(0, 2), (1, 1), (3, 5), (4, 2)]:
            assert cg_matrix_element(n, m, beta, s) == pytest.approx(
                np.conj(cg_matrix_element(m, n, beta, s)), abs=1e-14
            )

    def test_husimi_branch_is_coherent_projector(self):
        beta = 1.2 + 0.8j
        b2 = abs(beta) ** 2
        for n, m in [(0, 0), (1, 3), (2, 2), (5, 1)]:
            expected = (
                math.exp(-b2)
                * beta**n
                * np.conj(beta) ** m
                / math.sqrt(math.factorial(n) * math.factorial(m))
            )
            assert cg_matrix_element(n, m, beta, -1.0) == pytest.approx(
                expected, abs=1e-14
            )

    def test_matches_textbook_formula_at_moderate_s(self):
        beta, s = 0.9 - 0.6j, -0.25
        b2 = abs(beta) ** 2
        for n, m in [(0, 0), (1, 4), (3, 3), (2, 6)]:
            k = m - n
            expected = (
                math.sqrt(math.factorial(n) / math.factorial(m))
                * (2.0 / (1.0 - s)) ** (k + 1)
                * ((s + 1.0) / (s - 1.0)) ** n
                * np.conj(beta) ** k
                * math.exp(-2.0 * b2 / (1.0 - s))
                * scipy.special.eval_genlaguerre(n, k, 4.0 * b2 / (1.0 - s * s))
            )
            assert cg_matrix_element(n, m, beta, s) == pytest.approx(expected, rel=1e-11)

    def test_continuous_at_the_husimi_limit(self):
        beta = 1.5 + 0.5j
        for n, m in [(0, 0), (2, 4), (6, 6)]:
            near = cg_matrix_element(n, m, beta, -1.0 + 1e-10)
            exact = cg_matrix_element(n, m, beta, -1.0)
            assert near == pytest.approx(exact, rel=1e-7, abs=1e-12)

    def test_vacuum_wigner_element(self):
        # <0|T^{(0)}(beta)|0> = 2 exp(-2|beta|^2)
        assert cg_matrix_element(0, 0, 0.0j, 0.0) == pytest.approx(2.0, abs=1e-14)
        assert cg_matrix_element(0, 0, 1.0 + 0j, 0.0) == pytest.approx(
            2.0 * math.exp(-2.0), abs=1e-14
        )

    def test_parity_at_origin(self):
        # T^{(0)}(0) is twice the parity operator
        for n in range(5):
            assert cg_matrix_element(n, n, 0.0j, 0.0) == pytest.approx(
                2.0 * (-1.0) ** n, abs=1e-13
            )

    def test_validation(self):
        with pytest.raises(InvalidOrder):
            cg_matrix_element(-1, 0, 0.0j, 0.0)
        with pytest.raises(SParamOutOfRange):
            cg_matrix_element(0, 0, 0.0j, 1.0)
        with pytest.raises(SParamOutOfRange):
            cg_matrix_element(0, 0, 0.0j, -1.0001)


small_axis = np.linspace(-1.0, 1.0, 5)


class TestQuasidistributionGrid:
    @pytest.mark.parametrize("s", [-1.0, -0.5, 0.0])
    def test_coherent_state_matches_gaussian_closed_form(self, s):
        alpha = 1.0 - 0.5j
        rho = density_from_pure(coherent_state(alpha, FockCutoff(35)))
        re = np.linspace(-3.0, 4.0, 41)
        im = np.linspace(-4.0, 3.0, 41)
        grid = quasidistribution(rho, s, re, im)
        closed = gaussian_quasidistribution(
            GaussianState(alpha=alpha, B=0.0, C=0.0j), s, re, im
        )
        np.testing.assert_allclose(grid.values, closed.values, atol=1e-8)

    @pytest.mark.parametrize("s", [-1.0, -0.5, 0.0])
    def test_thermal_state_matches_gaussian_closed_form(self, s):
        mean_n = 0.6
        dim = 40
        k = np.arange(dim)
        weights = mean_n**k / (1.0 + mean_n) ** (k + 1)
        rho = DensityMatrix(np.diag(weights).astype(complex))
        re = np.linspace(-3.0, 3.0, 31)
        im = np.linspace(-3.0, 3.0, 31)
        grid = quasidistribution(rho, s, re, im)
        closed = gaussian_quasidistribution(
            GaussianState(alpha=0.0j, B=mean_n, C=0.0j), s, re, im
        )
        np.testing.assert_allclose(grid.values, closed.values, atol=1e-8)

    def test_matches_elementwise_double_sum(self, rng):
        # vectorized grid evaluation against the scalar matrix-element route
        rho = random_density(rng, dim=6)
        re = np.linspace(-1.0, 1.0, 3)
        im = np.linspace(-1.0, 1.0, 3)
        for s in (-0.6, 0.0):
            grid = quasidistribution(rho, s, re, im)
            for i, y in enumerate(im):
                for j, x in enumerate(re):
                    beta = complex(x, y)
                    total = 0.0j
                    for n in range(6):
                        for m in range(6):
                            total += rho.elements[m, n] * cg_matrix_element(
                                n, m, beta, s
                            )
                    assert grid.values[i, j] == pytest.approx(
                        total.real / math.pi, abs=1e-12
                    )

    def test_husimi_is_coherent_expectation(self, rng):
        rho = random_density(rng, dim=7)
        re = np.linspace(-1.5, 1.5, 7)
        im = np.linspace(-1.5, 1.5, 7)
        grid = quasidistribution(rho, -1.0, re, im)
        for i, y in enumerate(im):
            for j, x in enumerate(re):
                beta = complex(x, y)
                v = np.array(
                    [beta**m / math.sqrt(math.factorial(m)) for m in range(7)]
                )
                sandwich = float(
                    (np.conj(v) @ rho.elements @ v).real * math.exp(-abs(beta) ** 2)
                )
                assert grid.values[i, j] == pytest.approx(sandwich / math.pi, abs=1e-12)
        assert float(np.min(grid.values)) >= 0.0

    @pytest.mark.parametrize("s", [-0.999, -0.6, 0.0, 0.5])
    def test_dim101_matches_elementwise_double_sum(self, rng, s):
        # every diagonal band of a full-support state at dim 101; for s > 0
        # the T^{(s)} elements grow like ((1+s)/(1-s))^n, so the tolerance is
        # 1e-12 of the grid scale once that exceeds 1
        dim = 101
        rho = random_density(rng, dim=dim)
        axis = np.linspace(-1.0, 1.0, 3)
        grid = quasidistribution(rho, s, axis, axis)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(grid.values))))
        for i, y in enumerate(axis):
            for j, x in enumerate(axis):
                beta = complex(x, y)
                # rho_nm <m|T|n> is the conjugate of rho_mn <n|T|m>
                total = 0.0
                for n in range(dim):
                    total += (rho.elements[n, n] * cg_matrix_element(n, n, beta, s)).real
                    for m in range(n + 1, dim):
                        term = rho.elements[m, n] * cg_matrix_element(n, m, beta, s)
                        total += 2.0 * term.real
                assert abs(grid.values[i, j] - total / math.pi) <= tol

    @pytest.mark.parametrize("s", [-1.0, -0.5, 0.0])
    def test_sub_grid_matches_full_grid(self, rng, s):
        # the sub-grid shares no symmetry with the full one, and its tables
        # cover other points
        rho = random_density(rng, dim=30)
        re = np.linspace(-3.0, 3.0, 41)
        im = np.linspace(-3.0, 3.0, 41)
        full = quasidistribution(rho, s, re, im)
        sub = quasidistribution(rho, s, re[5:17], im[22:39])
        np.testing.assert_allclose(
            sub.values, full.values[22:39, 5:17], rtol=0.0, atol=1e-13
        )

    def test_husimi_partial_block_is_coherent_expectation(self, rng):
        # 33 x 37 = 1221 points on an asymmetric grid
        dim = 20
        rho = random_density(rng, dim=dim)
        re = np.linspace(-2.5, 2.0, 37)
        im = np.linspace(-2.0, 2.5, 33)
        grid = quasidistribution(rho, -1.0, re, im)
        norms = np.sqrt([math.factorial(m) for m in range(dim)])
        for i, y in enumerate(im):
            for j, x in enumerate(re):
                beta = complex(x, y)
                v = beta ** np.arange(dim) / norms
                sandwich = (np.conj(v) @ rho.elements @ v).real * math.exp(-abs(beta) ** 2)
                assert grid.values[i, j] == pytest.approx(sandwich / math.pi, abs=1e-12)

    def test_vacuum_wigner_peak(self):
        rho = density_from_pure(fock_state(0, FockCutoff(6)))
        grid = quasidistribution(rho, 0.0, small_axis, small_axis)
        assert grid.values[2, 2] == pytest.approx(2.0 / math.pi, abs=1e-12)

    def test_single_photon_wigner_is_negative_at_origin(self):
        rho = density_from_pure(fock_state(1, FockCutoff(6)))
        grid = quasidistribution(rho, 0.0, small_axis, small_axis)
        assert grid.values[2, 2] == pytest.approx(-2.0 / math.pi, abs=1e-12)

    def test_wigner_normalization_by_trapezoid(self):
        rho = density_from_pure(coherent_state(1.0 + 0.5j, FockCutoff(30)))
        axis = np.linspace(-4.5, 6.0, 106)
        grid = quasidistribution(rho, 0.0, axis, axis)
        integral = np.trapezoid(np.trapezoid(grid.values, axis), axis)
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_s_validation(self):
        rho = density_from_pure(fock_state(0, FockCutoff(4)))
        with pytest.raises(SParamOutOfRange):
            quasidistribution(rho, 1.0, small_axis, small_axis)
        with pytest.raises(SParamOutOfRange):
            quasidistribution(rho, -1.2, small_axis, small_axis)


class TestSingleElementGrids:
    # The grid of each element |m><n| against cg_matrix_element.  The states
    # are the projectors on |m> + e^{i theta}|n> for theta = 0 and pi/2, so
    # that Husimi grids stay nonnegative; their grids are
    # (<m|T|m> + <n|T|n> + 2 Re(e^{-i theta} <n|T|m>)) / pi.  The grid is
    # off-centre and asymmetric, and reaches |beta| = 7.
    RE = np.linspace(-2.5, 5.0, 11)
    IM = np.linspace(-1.0, 4.9, 9)

    @pytest.mark.parametrize("s", [-1.0, -0.999, -0.5, 0.0, 0.5])
    @pytest.mark.parametrize(
        "dim, levels", [(12, tuple(range(12))), (101, (0, 1, 50, 99, 100))]
    )
    def test_matches_cg_matrix_element(self, s, dim, levels):
        pairs = [(m, n) for m in levels for n in levels if m <= n]
        phases = (1.0, 1j)
        states = []
        for m, n in pairs:
            for phase in phases:
                v = np.zeros(dim, dtype=complex)
                v[m] += 1.0
                v[n] += phase
                states.append(SimpleNamespace(dim=dim, elements=np.outer(v, np.conj(v))))
        grids = quasidistribution(states, s, self.RE, self.IM).values
        element = {
            (m, n): np.array(
                [[cg_matrix_element(n, m, complex(x, y), s) for x in self.RE] for y in self.IM]
            )
            for m, n in pairs
        }
        for k, (m, n) in enumerate(pairs):
            for phase, got in zip(phases, grids[2 * k : 2 * k + 2]):
                diagonal = element[m, m].real + element[n, n].real
                want = (diagonal + 2.0 * (np.conj(phase) * element[m, n]).real) / math.pi
                tol = 1e-12 * max(1.0, float(np.max(np.abs(got))))
                np.testing.assert_allclose(
                    got, want, rtol=0.0, atol=tol, err_msg=f"m = {m}, n = {n}, phase {phase}"
                )


def batch_states(rng, dim: int) -> list[DensityMatrix]:
    """Mixed and pure states of one dimension, for the batched evaluations."""
    cutoff = FockCutoff(dim - 1)
    return [
        random_density(rng, dim=dim),
        density_from_pure(coherent_state(1.5 - 0.7j, cutoff)),
        random_density(rng, dim=dim, rank=3),
        density_from_pure(fock_state(2, cutoff)),
    ]


class TestBatchedGrid:
    # the symmetric bundled grid at the bundled dimension, and an asymmetric
    # grid (few repeated |beta|^2) at dim 101
    GRIDS = {
        "121x121_dim46": (46, np.linspace(-4.5, 4.5, 121), np.linspace(-4.5, 4.5, 121)),
        "121x97_dim101": (101, np.linspace(-4.0, 5.0, 121), np.linspace(-3.5, 2.5, 97)),
    }

    @pytest.mark.parametrize("grid_name", sorted(GRIDS))
    @pytest.mark.parametrize("s", [-1.0, -0.5, 0.0, 0.5])
    def test_batch_equals_one_at_a_time(self, rng, grid_name, s):
        dim, re, im = self.GRIDS[grid_name]
        states = batch_states(rng, dim)
        batch = quasidistribution(states, s, re, im)
        assert batch.values.shape == (len(states), im.shape[0], re.shape[0])
        assert batch.values.size == len(states) * re.shape[0] * im.shape[0]
        for j, state in enumerate(states):
            single = quasidistribution(state, s, re, im).values
            np.testing.assert_array_equal(batch.values[j], single)

    @pytest.mark.parametrize("s", [-1.0, 0.0])
    def test_batch_of_one_is_a_plain_grid(self, rng, s):
        rho = random_density(rng, dim=12)
        re = np.linspace(-2.0, 2.0, 9)
        im = np.linspace(-1.5, 2.5, 7)
        single = quasidistribution(rho, s, re, im)
        batch = quasidistribution([rho], s, re, im)
        assert isinstance(batch, QuasiGrid)
        assert batch.values.shape == (7, 9)
        np.testing.assert_array_equal(batch.values, single.values)

    def test_more_states_than_points(self, rng):
        # more grids than points per grid
        states = [random_density(rng, dim=5) for _ in range(11)]
        axis = np.linspace(-1.0, 1.0, 3)
        batch = quasidistribution(states, 0.0, axis, axis)
        for j, state in enumerate(states):
            np.testing.assert_array_equal(
                batch.values[j], quasidistribution(state, 0.0, axis, axis).values
            )

    def test_rejects_empty_and_mixed_dimensions(self, rng):
        with pytest.raises(ValueError):
            quasidistribution([], 0.0, small_axis, small_axis)
        mixed = [random_density(rng, dim=4), random_density(rng, dim=5)]
        with pytest.raises(ValueError):
            quasidistribution(mixed, 0.0, small_axis, small_axis)


class TestQuasiGridValidation:
    def test_batch_values(self):
        grid = QuasiGrid(
            s=0.0, re_axis=small_axis, im_axis=small_axis, values=np.zeros((3, 5, 5))
        )
        assert grid.values.shape == (3, 5, 5)
        with pytest.raises(ValueError):
            QuasiGrid(
                s=0.0, re_axis=small_axis, im_axis=small_axis,
                values=np.zeros((2, 3, 5, 5)),
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            QuasiGrid(s=0.0, re_axis=small_axis, im_axis=small_axis, values=np.zeros((4, 5)))

    def test_nonuniform_axis(self):
        with pytest.raises(ValueError):
            QuasiGrid(
                s=0.0,
                re_axis=np.array([0.0, 1.0, 3.0]),
                im_axis=small_axis,
                values=np.zeros((5, 3)),
            )

    def test_decreasing_axis(self):
        with pytest.raises(ValueError):
            QuasiGrid(
                s=0.0,
                re_axis=np.array([1.0, 0.0]),
                im_axis=small_axis,
                values=np.zeros((5, 2)),
            )

    @pytest.mark.parametrize(
        "axis", [[0.0, np.nan, 1.0], [-np.inf, 0.0, np.inf], [0.0, 1.0, np.inf]]
    )
    def test_nonfinite_axis(self, axis):
        rho = density_from_pure(fock_state(0, FockCutoff(4)))
        gs = GaussianState(alpha=0.0j, B=0.5, C=0.0j)
        with pytest.raises(ValueError, match="finite"):
            quasidistribution(rho, 0.0, axis, small_axis)
        with pytest.raises(ValueError, match="finite"):
            gaussian_quasidistribution(gs, 0.0, small_axis, axis)
        with pytest.raises(ValueError, match="finite"):
            QuasiGrid(s=0.0, re_axis=axis, im_axis=small_axis, values=np.zeros((5, 3)))

    def test_husimi_negativity_guard(self):
        vals = np.zeros((5, 5))
        vals[0, 0] = -1e-6
        with pytest.raises(NegativeHusimi):
            QuasiGrid(s=-1.0, re_axis=small_axis, im_axis=small_axis, values=vals)

    def test_negative_husimi_of_an_accepted_state_is_typed(self):
        # (1+e)|3><3| - e|-3><-3| passes the -1e-9 eigenvalue floor of
        # DensityMatrix, yet its Husimi value at beta = -3 is about -e/pi
        eps = 5e-10
        cutoff = FockCutoff(45)
        plus = density_from_pure(coherent_state(3.0, cutoff)).elements
        minus = density_from_pure(coherent_state(-3.0, cutoff)).elements
        rho = DensityMatrix((1.0 + eps) * plus - eps * minus)
        assert rho.spectrum[0] < -1e-10
        axis = np.linspace(-4.5, 4.5, 121)
        with pytest.raises(NegativeHusimi, match="nonnegative") as info:
            quasidistribution(rho, -1.0, axis, axis)
        assert isinstance(info.value, KerrOscError)

    def test_imaginary_residue_is_typed(self):
        # a stand-in with a skew part far beyond what DensityMatrix admits
        skewed = SimpleNamespace(dim=2, elements=np.array([[0.5, 0.1j], [0.1j, 0.5]]))
        with pytest.raises(ImaginaryResidue):
            quasidistribution([skewed], 0.0, small_axis, small_axis)

    def test_values_read_only(self):
        grid = QuasiGrid(
            s=0.0, re_axis=small_axis, im_axis=small_axis, values=np.zeros((5, 5))
        )
        with pytest.raises(ValueError):
            grid.values[0, 0] = 1.0


class TestGaussianQuasidistribution:
    def test_normalization(self):
        gs = GaussianState(alpha=0.5 + 0.2j, B=0.3, C=0.1 - 0.2j)
        axis = np.linspace(-6.0, 7.0, 131)
        grid = gaussian_quasidistribution(gs, 0.0, axis, axis)
        integral = np.trapezoid(np.trapezoid(grid.values, axis), axis)
        assert integral == pytest.approx(1.0, abs=1e-8)

    def test_peak_location_at_mean_amplitude(self):
        gs = GaussianState(alpha=1.0 + 1.0j, B=0.2, C=0.0j)
        axis = np.linspace(-3.0, 3.0, 61)
        grid = gaussian_quasidistribution(gs, 0.0, axis, axis)
        i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        assert axis[j] == pytest.approx(1.0, abs=0.1)
        assert axis[i] == pytest.approx(1.0, abs=0.1)

    def test_squeezed_state_has_no_p_function(self):
        with pytest.raises(NonpositiveKs):
            gaussian_quasidistribution(
                GaussianState(alpha=0.0j, B=0.1, C=0.3 + 0.0j),
                1.0,
                small_axis,
                small_axis,
            )

    def test_thermal_state_has_p_function(self):
        grid = gaussian_quasidistribution(
            GaussianState(alpha=0.0j, B=0.5, C=0.0j), 1.0, small_axis, small_axis
        )
        assert float(np.min(grid.values)) > 0.0

    def test_s_validation(self):
        gs = GaussianState(alpha=0.0j, B=0.5, C=0.0j)
        with pytest.raises(SParamOutOfRange):
            gaussian_quasidistribution(gs, 1.5, small_axis, small_axis)
