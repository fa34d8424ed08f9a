"""State measures against independent linear-algebra oracles.

Entropies and distances are cross-checked with scipy matrix functions, the
analytic squeezing minimum against a brute-force quadrature-angle scan, and
the reference mixed-state families against their defining sums.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st

from conftest import REF_PARAMS, random_density
from kerrosc.errors import (
    DimensionMismatch,
    NegativeDiagonal,
    SupportMismatch,
    VacuumLimitWarning,
)
from kerrosc.fock import (
    LOG_FLOOR,
    DensityMatrix,
    FockCutoff,
    annihilation_matrix,
    coherent_state,
    density_from_pure,
    fock_state,
)
from kerrosc.measures import (
    MomentSet,
    bures_distance,
    chaotic_reference,
    fano,
    linear_entropy_and_purity,
    max_linear_entropy_bound,
    moments,
    photon_distribution,
    relative_entropy,
    spectral_decomposition,
    squeezing,
    von_neumann_entropy,
)
from kerrosc.steady import steady_density


def embedded(rho: DensityMatrix, dim: int) -> DensityMatrix:
    """Zero-pad a density matrix into a larger space (same physical state)."""
    el = np.zeros((dim, dim), dtype=complex)
    el[: rho.dim, : rho.dim] = rho.elements
    return DensityMatrix(el)


def quadrature_variance(rho: DensityMatrix, theta: float) -> float:
    """Var(a e^{-i theta} + a^dag e^{i theta}) straight from operator algebra.

    The matrix product x @ x is only faithful when the state support sits
    well below the cutoff, so callers must embed states into a larger space.
    """
    a = annihilation_matrix(FockCutoff(rho.dim - 1))
    x = np.exp(-1j * theta) * a + np.exp(1j * theta) * a.conj().T
    el = rho.elements
    mean = np.trace(el @ x).real
    mean_sq = np.trace(el @ x @ x).real
    return mean_sq - mean**2


def scanned_min_variance(rho: DensityMatrix) -> float:
    """Minimum quadrature variance by dense scan plus bounded refinement."""
    thetas = np.linspace(0.0, math.pi, 361)
    values = [quadrature_variance(rho, t) for t in thetas]
    best = int(np.argmin(values))
    lo = thetas[max(best - 1, 0)]
    hi = thetas[min(best + 1, len(thetas) - 1)]
    result = scipy.optimize.minimize_scalar(
        lambda t: quadrature_variance(rho, t),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(min(result.fun, min(values)))


class TestMoments:
    def test_coherent_state_moments(self):
        alpha = 1.4 - 0.6j
        rho = density_from_pure(coherent_state(alpha, FockCutoff(40)))
        m = moments(rho)
        assert m.mean_a == pytest.approx(alpha, abs=1e-10)
        assert m.mean_n == pytest.approx(abs(alpha) ** 2, abs=1e-10)
        assert m.B == pytest.approx(0.0, abs=1e-10)
        assert abs(m.C) == pytest.approx(0.0, abs=1e-10)

    def test_fock_state_moments(self):
        rho = density_from_pure(fock_state(9, FockCutoff(20)))
        m = moments(rho)
        assert m.mean_a == 0.0
        assert m.mean_n == pytest.approx(9.0)
        assert m.mean_n2 == pytest.approx(81.0)

    def test_momentset_rejects_unphysical(self):
        with pytest.raises(ValueError):
            MomentSet(mean_a=0.0j, mean_n=-0.5, mean_n2=0.0, B=0.0, C=0.0j)
        with pytest.raises(ValueError):
            MomentSet(mean_a=0.0j, mean_n=4.0, mean_n2=1.0, B=0.0, C=0.0j)


class TestFanoAndSqueezing:
    def test_coherent_state_is_poissonian_and_unsqueezed(self):
        rho = density_from_pure(coherent_state(2.0 + 0.5j, FockCutoff(45)))
        assert fano(rho) == pytest.approx(1.0, abs=1e-9)
        assert squeezing(rho) == pytest.approx(1.0, abs=1e-9)

    def test_fock_state_values(self):
        rho = density_from_pure(fock_state(9, FockCutoff(20)))
        assert fano(rho) == pytest.approx(0.0, abs=1e-12)
        assert squeezing(rho) == pytest.approx(19.0, abs=1e-12)

    def test_vacuum_fano_warns_and_returns_one(self):
        rho = density_from_pure(fock_state(0, FockCutoff(3)))
        with pytest.warns(VacuumLimitWarning):
            assert fano(rho) == 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_squeezing_matches_theta_scan(self, seed):
        rho = random_density(np.random.default_rng(seed), dim=12)
        padded = embedded(rho, 26)
        assert squeezing(rho) == pytest.approx(scanned_min_variance(padded), abs=1e-8)

    def test_squeezing_matches_theta_scan_for_kerr_cat(self):
        from kerrosc.dynamics import kerr_lossless_evolve

        psi = kerr_lossless_evolve(coherent_state(2.0, FockCutoff(30)), 1.0, 0.1)
        rho = density_from_pure(psi)
        assert squeezing(rho) == pytest.approx(scanned_min_variance(rho), abs=1e-8)


class TestEntropies:
    def test_pure_state_entropies_vanish(self):
        rho = density_from_pure(coherent_state(1.5, FockCutoff(25)))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-9)
        lin, purity = linear_entropy_and_purity(rho)
        assert lin == pytest.approx(0.0, abs=1e-10)
        assert purity == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_von_neumann_matches_logm(self, seed):
        rho = random_density(np.random.default_rng(seed), dim=9)
        log_rho = scipy.linalg.logm(rho.elements)
        oracle = float(-np.trace(rho.elements @ log_rho).real)
        assert von_neumann_entropy(rho) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("seed", [20, 21])
    def test_purity_matches_matrix_square(self, seed):
        rho = random_density(np.random.default_rng(seed), dim=11)
        _, purity = linear_entropy_and_purity(rho)
        assert purity == pytest.approx(
            float(np.trace(rho.elements @ rho.elements).real), abs=1e-12
        )

    def test_two_level_mixture(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
        assert von_neumann_entropy(rho) == pytest.approx(
            -(0.75 * math.log(0.75) + 0.25 * math.log(0.25)), abs=1e-14
        )
        lin, _ = linear_entropy_and_purity(rho)
        assert lin == pytest.approx(1.0 - (0.75**2 + 0.25**2), abs=1e-14)


class TestPhotonDistribution:
    def test_matches_diagonal(self):
        rho = density_from_pure(coherent_state(1.0, FockCutoff(20)))
        np.testing.assert_allclose(
            photon_distribution(rho), rho.elements.diagonal().real, atol=1e-12
        )

    def test_negative_diagonal_rejected(self):
        el = np.diag([1.1, -2e-10, -0.1 + 2e-10]).astype(complex)
        # keep the matrix a valid DensityMatrix? it is not; bypass via direct call
        class Fake:
            elements = el
            dim = 3

        with pytest.raises(NegativeDiagonal):
            photon_distribution(Fake())


class TestSpectralDecomposition:
    def test_reconstructs_matrix(self, rng):
        rho = random_density(rng, dim=10)
        dec = spectral_decomposition(rho)
        rebuilt = np.zeros((10, 10), dtype=complex)
        for w, psi in zip(dec.weights, dec.eigenstates):
            rebuilt += w * np.outer(psi.amplitudes, psi.amplitudes.conj())
        np.testing.assert_allclose(rebuilt, rho.elements, atol=1e-10)

    def test_weights_descending_and_normalized(self, rng):
        dec = spectral_decomposition(random_density(rng, dim=8))
        assert np.all(np.diff(dec.weights) <= 1e-15)
        assert float(np.sum(dec.weights)) == pytest.approx(1.0, abs=1e-10)


class TestChaoticReference:
    def test_mean_one_values(self):
        weights, entropy, lin = chaotic_reference(1.0)
        assert entropy == pytest.approx(math.log(4.0), abs=1e-12)
        assert lin == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert float(np.sum(weights)) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=0.05, max_value=20.0))
    def test_formulas_match_weight_sums(self, mean_n):
        weights, entropy, lin = chaotic_reference(mean_n)
        assert float(np.sum(weights)) == pytest.approx(1.0, abs=1e-10)
        assert float(np.sum(np.arange(weights.size) * weights)) == pytest.approx(
            mean_n, rel=1e-9
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            direct_e = float(-np.sum(weights[weights > 0] * np.log(weights[weights > 0])))
        assert entropy == pytest.approx(direct_e, rel=1e-9)
        assert lin == pytest.approx(1.0 - float(np.sum(weights**2)), rel=1e-9)

    def test_vacuum_reference(self):
        weights, entropy, lin = chaotic_reference(0.0)
        assert list(weights) == [1.0] and entropy == 0.0 and lin == 0.0


class TestMaxLinearEntropyBound:
    def test_mean_one_is_seven_tenths(self):
        l_max, _ = max_linear_entropy_bound(1.0)
        assert l_max == pytest.approx(0.7, abs=1e-12)

    @pytest.mark.parametrize("mean_n", [1.0 / 3.0, 1.0, 2.0, 7.0 / 3.0, 5.0])
    def test_weights_realize_the_bound(self, mean_n):
        l_max, weights = max_linear_entropy_bound(mean_n)
        assert float(np.sum(weights)) == pytest.approx(1.0, rel=1e-12)
        assert float(np.sum(np.arange(weights.size) * weights)) == pytest.approx(
            mean_n, rel=1e-12
        )
        assert 1.0 - float(np.sum(weights**2)) == pytest.approx(l_max, rel=1e-12)

    def test_dominates_chaotic_linear_entropy(self):
        for mean_n in (0.5, 1.0, 3.0, 9.0):
            _, _, l_chaot = chaotic_reference(mean_n)
            l_max, _ = max_linear_entropy_bound(mean_n)
            assert l_max > l_chaot


class TestDistances:
    def test_zero_at_equal_states(self, rng):
        rho = random_density(rng, dim=7)
        assert bures_distance(rho, rho) == pytest.approx(0.0, abs=1e-7)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("seed", [30, 31])
    def test_bures_matches_scipy_sqrtm(self, seed):
        gen = np.random.default_rng(seed)
        rho, sigma = random_density(gen, dim=8), random_density(gen, dim=8)
        s_root = scipy.linalg.sqrtm(sigma.elements)
        inner = s_root @ rho.elements @ s_root
        fid_root = float(np.trace(scipy.linalg.sqrtm(inner)).real)
        oracle = 2.0 - 2.0 * fid_root
        assert bures_distance(rho, sigma) == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("seed", [40, 41])
    def test_relative_entropy_matches_scipy_logm(self, seed):
        gen = np.random.default_rng(seed)
        rho, sigma = random_density(gen, dim=8), random_density(gen, dim=8)
        oracle = float(
            np.trace(
                rho.elements
                @ (scipy.linalg.logm(rho.elements) - scipy.linalg.logm(sigma.elements))
            ).real
        )
        assert relative_entropy(rho, sigma) == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("n_cut", [45, 90])
    def test_relative_entropy_of_the_steady_state_with_itself(self, n_cut):
        # the bundled stationary state has eigenvalues below LOG_FLOOR (38 at
        # n_cut 45); the self and cross terms floor them alike, so the
        # distance is 0 to round-off, not the 2.09e-11 their weight times
        # -ln(LOG_FLOOR) gave when the self term dropped them
        sigma = steady_density(REF_PARAMS, FockCutoff(n_cut))
        assert np.count_nonzero(sigma.spectrum < LOG_FLOOR) > 0
        assert abs(relative_entropy(sigma, sigma)) <= 1e-14

    def test_relative_entropy_nonnegative(self, rng):
        rho, sigma = random_density(rng, dim=6), random_density(rng, dim=6)
        assert relative_entropy(rho, sigma) >= 0.0

    def test_bures_symmetry_and_range(self, rng):
        rho, sigma = random_density(rng, dim=6), random_density(rng, dim=6)
        d1, d2 = bures_distance(rho, sigma), bures_distance(sigma, rho)
        assert d1 == pytest.approx(d2, abs=1e-9)
        assert 0.0 <= d1 <= 2.0

    def test_support_mismatch(self):
        cutoff = FockCutoff(5)
        rho = density_from_pure(fock_state(3, cutoff))
        sigma = density_from_pure(fock_state(0, cutoff))
        with pytest.raises(SupportMismatch):
            relative_entropy(rho, sigma)

    def test_dimension_mismatch(self, rng):
        # a smaller state is read on the target's leading levels, zero beyond
        rho, sigma = random_density(rng, 4), random_density(rng, 5)
        padded = embedded(rho, 5)
        assert bures_distance(rho, sigma) == pytest.approx(
            bures_distance(padded, sigma), abs=1e-12
        )
        assert relative_entropy(rho, sigma) == pytest.approx(
            relative_entropy(padded, sigma), abs=1e-12
        )
        # a larger one does not fit
        with pytest.raises(DimensionMismatch):
            bures_distance(random_density(rng, 5), random_density(rng, 4))
        with pytest.raises(DimensionMismatch):
            relative_entropy(random_density(rng, 5), random_density(rng, 4))

    def test_orthogonal_pure_states_are_maximally_distant(self):
        cutoff = FockCutoff(4)
        rho = density_from_pure(fock_state(0, cutoff))
        sigma = density_from_pure(fock_state(1, cutoff))
        assert bures_distance(rho, sigma) == pytest.approx(2.0, abs=1e-10)


class TestCrossModuleConsistency:
    def test_pure_state_measures_match_densities(self):
        # <n>, F, S computed from the pure amplitudes agree with the matrix route
        cutoff = FockCutoff(40)
        psi = coherent_state(1.7 + 1.1j, cutoff)
        rho = density_from_pure(psi)
        n = np.arange(cutoff.dim)
        probs = np.abs(psi.amplitudes) ** 2
        mean_direct = float(np.sum(n * probs))
        m = moments(rho)
        assert m.mean_n == pytest.approx(mean_direct, abs=1e-12)
        var_direct = float(np.sum(n**2 * probs)) - mean_direct**2
        assert fano(rho) == pytest.approx(var_direct / mean_direct, abs=1e-10)

    def test_steady_state_fano_consistency(self, steady_rho):
        # two routes to F: moments dataclass vs. dedicated call
        m = moments(steady_rho)
        assert fano(steady_rho) == pytest.approx(
            (m.mean_n2 - m.mean_n**2) / m.mean_n, abs=1e-14
        )


def test_warning_filter_hygiene():
    # measure calls above must not leave warning state dirty
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = density_from_pure(coherent_state(1.0, FockCutoff(15)))
        fano(rho)


class TestBandMoments:
    @pytest.mark.parametrize("dim", [2, 3, 12, 46])
    def test_band_sums_match_dense_trace(self, rng, dim):
        rho = random_density(rng, dim=dim)
        a = annihilation_matrix(FockCutoff(dim - 1))
        el = rho.elements
        m = moments(rho)
        assert abs(m.mean_a - np.trace(el @ a)) < 1e-12
        assert abs(m.C + m.mean_a**2 - np.trace(el @ a @ a)) < 1e-12


class TestCachedTargetDecomposition:
    def test_matches_fresh_decomposition_bit_for_bit(self, rng):
        sigma = random_density(rng, dim=10)
        for _ in range(3):
            rho = random_density(rng, dim=10)
            # a fresh copy decomposes sigma anew; the reused one reads its cache
            fresh = DensityMatrix(sigma.elements)
            assert bures_distance(rho, sigma) == bures_distance(rho, fresh)
            assert relative_entropy(rho, sigma) == relative_entropy(rho, fresh)
        w, v = np.linalg.eigh(sigma.elements)
        assert np.array_equal(sigma.eigenpairs[0], w)
        assert np.array_equal(sigma.eigenpairs[1], v)
        assert sigma.eigenpairs is sigma.eigenpairs
        assert not sigma.eigenpairs[0].flags.writeable
        assert not sigma.eigenpairs[1].flags.writeable

    def test_root_is_built_once_per_target(self, rng, monkeypatch):
        builds = []
        build = DensityMatrix.root.func

        def counted(self):
            builds.append(self)
            return build(self)

        root = functools.cached_property(counted)
        root.__set_name__(DensityMatrix, "root")
        monkeypatch.setattr(DensityMatrix, "root", root)
        sigma = random_density(rng, dim=10)
        first = bures_distance(random_density(rng, dim=10), sigma)
        second = bures_distance(random_density(rng, dim=10), sigma)
        assert builds == [sigma]
        assert first != second

    def test_root_matches_the_uncached_formula_bit_for_bit(self, rng):
        sigma = random_density(rng, dim=10)
        w, v = sigma.eigenpairs
        assert np.array_equal(sigma.root, (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)
        assert sigma.root is sigma.root
        assert not sigma.root.flags.writeable

    def test_dimension_mismatch(self, rng):
        sigma = random_density(rng, dim=4)
        sigma.eigenpairs  # decomposed before the mismatched call
        rho = random_density(rng, dim=5)
        with pytest.raises(DimensionMismatch):
            bures_distance(rho, sigma)
        with pytest.raises(DimensionMismatch):
            relative_entropy(rho, sigma)


def _nuclear_norm_bures(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """2 - 2 ||sqrt(rho) sqrt(sigma)||_1 with rho zero-padded to sigma's size.

    Singular values keep the padded null space at round-off, where the
    eigenvalue route takes square roots of round-off eigenvalues (about 1e-8
    each at these sizes).
    """
    w, v = rho.eigenpairs
    root = np.zeros(sigma.elements.shape, dtype=complex)
    root[: rho.dim, : rho.dim] = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    singular = np.linalg.svd(root @ sigma.root, compute_uv=False)
    return 2.0 - 2.0 * float(np.sum(singular))


class TestBlockSupportedStates:
    """A state on the leading levels of the target's basis, as evolution outputs are."""

    @pytest.mark.parametrize("dim", [46, 91])
    def test_distances_equal_the_zero_padded_state(self, rng, dim):
        sigma = random_density(rng, dim)
        for d in (2, 12, 34, dim - 1, dim):
            rho = random_density(rng, d)
            padded = embedded(rho, dim)
            assert relative_entropy(rho, sigma) == pytest.approx(
                relative_entropy(padded, sigma), abs=1e-12
            )
            assert bures_distance(rho, sigma) == pytest.approx(
                _nuclear_norm_bures(padded, sigma), abs=1e-10
            )

    def test_block_roots_are_cached_per_size(self, rng):
        sigma = random_density(rng, 12)
        bures_distance(random_density(rng, 7), sigma)
        bures_distance(random_density(rng, 9), sigma)
        first = sigma.leading_root(7)
        assert sigma.leading_root(7) is first
        assert sigma.leading_root(12) is sigma.root
        assert not first.flags.writeable
        w, v = np.linalg.eigh(sigma.elements[:7, :7])
        assert np.array_equal(first, (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)

    def test_support_mismatch_is_read_on_the_block(self):
        # the target's null space starts above level 3: a block state on
        # levels 0-3 fits, one with weight on level 5 does not
        weights = np.array([0.4, 0.3, 0.2, 0.1, 0.0, 0.0, 0.0, 0.0])
        sigma = DensityMatrix(np.diag(weights).astype(complex))
        inside = DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
        expected = 0.5 * math.log(0.5 / 0.4) + 0.5 * math.log(0.5 / 0.3)
        assert relative_entropy(inside, sigma) == pytest.approx(expected, abs=1e-12)
        outside = DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.0, 0.0, 0.5]).astype(complex))
        with pytest.raises(SupportMismatch):
            relative_entropy(outside, sigma)
