"""Fock-basis primitives: constructors, operators, validation guards."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_density
from kerrosc.errors import (
    CutoffTooSmall,
    DimensionMismatch,
    EigSolverFailure,
    IndexOutOfRange,
    ZeroNorm,
)
from kerrosc.fock import (
    DensityMatrix,
    FockCutoff,
    OscillatorParams,
    StateVector,
    annihilation_matrix,
    coherent_overlap,
    coherent_state,
    coherent_superposition,
    default_cutoff,
    density_from_pure,
    fock_state,
    hermitian_eigh,
    tail_mass,
)

moderate_alpha = st.complex_numbers(
    max_magnitude=2.5, allow_nan=False, allow_infinity=False
)


class TestFockCutoff:
    def test_dim_is_cut_plus_one(self):
        assert FockCutoff(7).dim == 8

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "4"])
    def test_rejects_non_integer_or_small(self, bad):
        with pytest.raises(ValueError):
            FockCutoff(bad)


class TestOscillatorParams:
    def test_coerces_to_plain_types(self):
        p = OscillatorParams(pump=1, kerr=np.float64(0.5), loss=0)
        assert isinstance(p.pump, complex) and isinstance(p.kerr, float)

    def test_rejects_negative_loss(self):
        with pytest.raises(ValueError):
            OscillatorParams(pump=0j, kerr=0.1, loss=-0.5)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            OscillatorParams(pump=complex("inf"), kerr=0.1, loss=0.0)


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0]))

    def test_amplitudes_are_read_only(self):
        psi = fock_state(0, FockCutoff(3))
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0

    def test_overlap_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fock_state(0, FockCutoff(3)).overlap(fock_state(0, FockCutoff(4)))

    def test_overlap_orthonormal_basis(self):
        cutoff = FockCutoff(5)
        assert fock_state(2, cutoff).overlap(fock_state(2, cutoff)) == 1.0
        assert fock_state(2, cutoff).overlap(fock_state(3, cutoff)) == 0.0


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        el = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermiticity"):
            DensityMatrix(el)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(3, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        el = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(el)

    def test_accepts_tiny_negative_eigenvalue(self):
        el = np.diag([1.0 + 1e-10, -1e-10]).astype(complex)
        assert DensityMatrix(el).dim == 2

    @pytest.mark.parametrize(
        "diagonal",
        [[1.0, 1.0, 1.0], [1.0 + 2e-9, 0.0, 0.0], [1.5, -0.5, 0.0], [1.0 + 2e-9, -2e-9, 0.0]],
        ids=["trace3", "trace_off_2e-9", "eigenvalue-0.5", "eigenvalue-2e-9"],
    )
    def test_trusted_path_runs_the_same_checks(self, diagonal):
        # the trusted path skips the copy and the Hermiticity scan, not the
        # trace and eigenvalue checks: the same input fails with the same
        # message on both paths
        el = np.diag(diagonal).astype(complex)
        with pytest.raises(ValueError) as checked:
            DensityMatrix(el)
        with pytest.raises(ValueError) as trusted:
            DensityMatrix(el.copy(), hermitian=True)
        assert str(trusted.value) == str(checked.value)
        assert ("trace" in str(checked.value)) != ("eigenvalue" in str(checked.value))

    @pytest.mark.parametrize(
        "where,hermitian,message",
        [
            ((2, 2), False, "Hermiticity"),
            ((2, 2), True, "trace"),
            ((0, 1), False, "Hermiticity"),
            ((0, 1), True, "eigenvalue"),
        ],
        ids=["diagonal-checked", "diagonal-trusted", "off_diagonal-checked",
             "off_diagonal-trusted"],
    )
    def test_rejects_nan(self, where, hermitian, message):
        # NaN fails each check it reaches; LAPACK reads a NaN diagonal entry
        # as the spectrum [0, -0, 1/3], which passes the eigenvalue floor
        el = np.eye(3, dtype=complex) / 3.0
        el[where] = el[where[::-1]] = np.nan
        with pytest.raises(ValueError, match=message):
            DensityMatrix(el, hermitian=hermitian)

    @pytest.mark.filterwarnings("error")
    def test_infinite_entries_are_typed(self):
        el = np.eye(3, dtype=complex) / 3.0
        el[0, 1] = el[1, 0] = np.inf
        with pytest.raises(ValueError, match="Hermiticity"):
            DensityMatrix(el)
        with pytest.raises(EigSolverFailure):
            DensityMatrix(el, hermitian=True)

    def test_solver_failures_are_typed(self, rng, monkeypatch):
        # every eigensolver call of a state goes through `hermitian_eigh`
        from kerrosc.measures import bures_distance

        rho, sigma = random_density(rng, dim=6), random_density(rng, dim=6)

        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        for call in (
            lambda: hermitian_eigh(rho.elements),
            lambda: DensityMatrix(rho.elements),
            lambda: rho.eigenpairs,
            lambda: rho.leading_root(4),
            lambda: bures_distance(rho, sigma),
        ):
            with pytest.raises(EigSolverFailure, match="did not converge"):
                call()

    def test_trusted_path_keeps_the_array(self, rng):
        el = np.array(random_density(rng, dim=12).elements)
        trusted = DensityMatrix(el, hermitian=True)
        assert trusted.elements is el and not el.flags.writeable
        checked = DensityMatrix(el)
        assert checked.elements is not el
        assert np.array_equal(trusted.spectrum, checked.spectrum)

    def test_spectrum_is_ascending_eigenvalues(self, rng):
        rho = random_density(rng, dim=30)
        np.testing.assert_allclose(
            rho.spectrum, np.linalg.eigvalsh(rho.elements), rtol=0.0, atol=1e-13
        )
        assert np.all(np.diff(rho.spectrum) >= 0.0)
        with pytest.raises(ValueError):
            rho.spectrum[0] = 0.0


class TestCoherentState:
    def test_poissonian_probabilities(self):
        alpha = 1.3 - 0.4j
        psi = coherent_state(alpha, FockCutoff(30))
        nbar = abs(alpha) ** 2
        expected = np.array(
            [math.exp(-nbar) * nbar**k / math.factorial(k) for k in range(10)]
        )
        np.testing.assert_allclose(np.abs(psi.amplitudes[:10]) ** 2, expected, atol=1e-12)

    def test_mean_photon_number(self):
        psi = coherent_state(2.0 + 1.0j, FockCutoff(40))
        n = np.arange(psi.dim)
        mean = float(np.sum(n * np.abs(psi.amplitudes) ** 2))
        assert mean == pytest.approx(5.0, abs=1e-9)

    def test_cutoff_too_small(self):
        with pytest.raises(CutoffTooSmall):
            coherent_state(4.0, FockCutoff(18))

    @given(alpha=moderate_alpha, beta=moderate_alpha)
    def test_overlap_matches_truncated_inner_product(self, alpha, beta):
        cutoff = FockCutoff(45)
        exact = coherent_overlap(alpha, beta)
        num = coherent_state(alpha, cutoff).overlap(coherent_state(beta, cutoff))
        assert abs(num - exact) < 1e-9

    @given(alpha=moderate_alpha, beta=moderate_alpha)
    def test_overlap_magnitude_identity(self, alpha, beta):
        # |<alpha|beta>|^2 = exp(-|alpha - beta|^2)
        assert abs(coherent_overlap(alpha, beta)) ** 2 == pytest.approx(
            math.exp(-abs(alpha - beta) ** 2), rel=1e-12
        )


class TestFockState:
    def test_unit_amplitude(self):
        psi = fock_state(4, FockCutoff(6))
        assert psi.amplitudes[4] == 1.0
        assert float(np.sum(np.abs(psi.amplitudes))) == 1.0

    @pytest.mark.parametrize("n", [-1, 7])
    def test_out_of_range(self, n):
        with pytest.raises(IndexOutOfRange):
            fock_state(n, FockCutoff(6))


class TestSuperposition:
    def test_norm_includes_mutual_overlaps(self):
        cutoff = FockCutoff(40)
        comps = [(1.0 + 0.0j, 1.5 + 0.0j), (0.5j, -1.5 + 0.0j)]
        psi = coherent_superposition(comps, cutoff)
        # brute-force Gram normalization of the same truncated vectors
        vecs = [w * np.exp(-0.5 * abs(a) ** 2)
                * np.array([a**k / math.sqrt(math.factorial(k)) for k in range(cutoff.dim)])
                for w, a in comps]
        raw = np.sum(vecs, axis=0)
        np.testing.assert_allclose(
            psi.amplitudes, raw / np.linalg.norm(raw), atol=1e-12
        )

    def test_cancelling_components_raise(self):
        with pytest.raises(ZeroNorm):
            coherent_superposition(
                [(1.0 + 0.0j, 1.0 + 0.0j), (-1.0 + 0.0j, 1.0 + 0.0j)],
                FockCutoff(20),
            )

    def test_component_tail_guard(self):
        with pytest.raises(CutoffTooSmall):
            coherent_superposition([(1.0 + 0.0j, 4.5 + 0.0j)], FockCutoff(20))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coherent_superposition([], FockCutoff(10))

    def test_single_component_is_coherent_state(self):
        cutoff = FockCutoff(30)
        psi = coherent_superposition([(2.0 + 0.0j, 1.2 - 0.3j)], cutoff)
        ref = coherent_state(1.2 - 0.3j, cutoff)
        assert abs(psi.overlap(ref)) == pytest.approx(1.0, abs=1e-12)


class TestOperators:
    def test_annihilation_action(self):
        cutoff = FockCutoff(6)
        a = annihilation_matrix(cutoff)
        for n in range(1, cutoff.dim):
            target = a @ fock_state(n, cutoff).amplitudes
            expected = math.sqrt(n) * fock_state(n - 1, cutoff).amplitudes
            np.testing.assert_allclose(target, expected, atol=1e-15)

    def test_commutator_identity_away_from_corner(self):
        a = annihilation_matrix(FockCutoff(9))
        comm = a @ a.conj().T - a.conj().T @ a
        np.testing.assert_allclose(comm[:-1, :-1], np.eye(9), atol=1e-13)

    def test_coherent_is_eigenvector_of_a(self):
        cutoff = FockCutoff(45)
        alpha = 1.1 + 0.8j
        psi = coherent_state(alpha, cutoff).amplitudes
        residual = annihilation_matrix(cutoff) @ psi - alpha * psi
        assert float(np.linalg.norm(residual[:-1])) < 1e-9


class TestDensityHelpers:
    def test_density_from_pure_is_projector(self):
        rho = density_from_pure(coherent_state(1.0, FockCutoff(20)))
        el = rho.elements
        np.testing.assert_allclose(el @ el, el, atol=1e-12)

    def test_tail_mass(self):
        rho = density_from_pure(fock_state(3, FockCutoff(4)))
        assert tail_mass(rho, 2) == pytest.approx(1.0)
        assert tail_mass(rho, 1) == pytest.approx(0.0)
        with pytest.raises(ValueError):
            tail_mass(rho, 0)


class TestDefaultCutoff:
    @given(st.floats(min_value=0.0, max_value=12.0))
    def test_coherent_tail_is_negligible(self, mean_n):
        cutoff = default_cutoff(mean_n)
        psi = coherent_state(math.sqrt(mean_n), cutoff)  # raises if tail >= 1e-8
        assert psi.dim == cutoff.dim

    def test_monotone(self):
        cuts = [default_cutoff(v).n_cut for v in (0.0, 1.0, 4.0, 9.0)]
        assert cuts == sorted(cuts)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            default_cutoff(-0.1)
