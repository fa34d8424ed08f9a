"""Scalar diagnostics of truncated-Fock states.

Photon statistics (mean, Fano factor), quadrature squeezing, entropies and
purity, thermal/chaotic reference values and bounds, and distance measures
between density matrices (Bures, relative entropy).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeDiagonal,
    SupportMismatch,
    VacuumLimitWarning,
)
from .fock import LOG_FLOOR, DensityMatrix, StateVector, hermitian_eigh


@dataclass(frozen=True, eq=False)
class MomentSet:
    """First and second moments of a state.

    mean_a  : <a>
    mean_n  : <a^dag a>
    mean_n2 : <(a^dag a)^2>
    B       : <a^dag a> - |<a>|^2   (symmetric noise moment)
    C       : <a^2> - <a>^2         (anomalous noise moment)
    """

    mean_a: complex
    mean_n: float
    mean_n2: float
    B: float
    C: complex

    def __post_init__(self) -> None:
        if self.mean_n < -1e-10:
            raise ValueError(f"mean_n = {self.mean_n} negative")
        if self.mean_n2 < self.mean_n**2 - 1e-8 * max(1.0, self.mean_n2):
            raise ValueError("mean_n2 < mean_n^2 beyond tolerance")
        if self.B < -1e-12:
            raise ValueError(f"B = {self.B} below -1e-12")

    def fano(self) -> float:
        """Fano factor (<n^2> - <n>^2)/<n>; 1 is Poissonian, < 1 sub-Poissonian.

        At the vacuum the ratio is taken in the limit sense and the
        conventional value 1 is returned with a `VacuumLimitWarning`.
        """
        if self.mean_n < 1e-12:
            warnings.warn(
                "Fano factor at vacuum: returning limit value 1", VacuumLimitWarning
            )
            return 1.0
        return (self.mean_n2 - self.mean_n**2) / self.mean_n

    def squeezing(self) -> float:
        """Minimum over theta of Var(a e^{-i theta} + a^dag e^{i theta}).

        The variance is 1 + 2B + 2|C| cos(2 theta + arg C), so the minimum is
        reached analytically at S = 1 + 2(B - |C|); values below 1 certify
        quadrature squeezing.
        """
        return 1.0 + 2.0 * (self.B - abs(self.C))


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenweights (descending) and orthonormal eigenstates of a density matrix."""

    weights: np.ndarray
    eigenstates: tuple[StateVector, ...]

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if abs(float(np.sum(w)) - 1.0) > 1e-9:
            raise ValueError("eigenweights do not sum to 1 within 1e-9")
        if float(np.min(w)) < -1e-10:
            raise ValueError("negative eigenweight beyond -1e-10")
        basis = np.column_stack([s.amplitudes for s in self.eigenstates])
        gram = basis.conj().T @ basis
        if float(np.max(np.abs(gram - np.eye(gram.shape[0])))) > 1e-9:
            raise ValueError("eigenstates not orthonormal within 1e-9")


@functools.lru_cache(maxsize=64)
def _ladders(dim: int) -> tuple[np.ndarray, ...]:
    """n, sqrt(n) for n >= 1, n^2 and sqrt(n(n-1)) for n >= 2, at this dimension.

    Read-only: every `moments` call at this dimension shares them.
    """
    n = np.arange(dim, dtype=float)
    ladders = (n, np.sqrt(n[1:]), n**2, np.sqrt(n[2:] * n[1:-1]))
    for arr in ladders:
        arr.setflags(write=False)
    return ladders


def moments(rho: DensityMatrix) -> MomentSet:
    """Trace moments against the truncated a, a^dag a, (a^dag a)^2, a^2.

    a is bidiagonal, so Tr(rho a) and Tr(rho a^2) read only the first and
    second subdiagonals: <a> = sum_n sqrt(n) rho_{n,n-1} and
    <a^2> = sum_n sqrt(n(n-1)) rho_{n,n-2}.
    """
    el = rho.elements
    n_diag, root_n, n_sq, root_n2 = _ladders(rho.dim)
    diag = el.diagonal().real
    mean_a = complex((root_n * el.diagonal(-1)).sum())
    mean_n = float((n_diag * diag).sum())
    mean_n2 = float((n_sq * diag).sum())
    mean_a2 = complex((root_n2 * el.diagonal(-2)).sum())
    B = mean_n - abs(mean_a) ** 2
    if -1e-10 < B < 0.0:  # round-off; B >= 0 for any physical state
        B = 0.0
    C = mean_a2 - mean_a**2
    return MomentSet(
        mean_a=mean_a,
        mean_n=max(mean_n, 0.0),
        mean_n2=max(mean_n2, 0.0),
        B=B,
        C=C,
    )


def fano(rho: DensityMatrix) -> float:
    """Fano factor of rho; see `MomentSet.fano` (warns at the vacuum)."""
    return moments(rho).fano()


def squeezing(rho: DensityMatrix) -> float:
    """Minimum quadrature variance S of rho; see `MomentSet.squeezing`."""
    return moments(rho).squeezing()


def photon_distribution(rho: DensityMatrix) -> np.ndarray:
    """Diagonal photon-number distribution, clipped at zero and renormalized."""
    diag = rho.elements.diagonal().real.copy()
    if float(diag.min()) < -1e-10:
        raise NegativeDiagonal(f"diagonal entry {diag.min():.3e} below -1e-10")
    np.clip(diag, 0.0, None, out=diag)
    return diag / diag.sum()


def spectral_decomposition(rho: DensityMatrix) -> SpectralDecomposition:
    """Eigendecomposition with weights sorted descending and clipped to [0, 1]."""
    w, v = rho.eigenpairs
    order = np.argsort(w)[::-1]
    w = np.clip(w[order], 0.0, 1.0)
    states = tuple(StateVector(v[:, k]) for k in order)
    return SpectralDecomposition(weights=w, eigenstates=states)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """E = -sum p_k ln p_k over the spectrum, with 0 ln 0 = 0."""
    w = rho.spectrum[rho.spectrum > LOG_FLOOR]
    return max(float(-np.sum(w * np.log(w))), 0.0)


def linear_entropy_and_purity(rho: DensityMatrix) -> tuple[float, float]:
    """(L, P) with P = Tr rho^2 = sum |rho_mn|^2 and L = 1 - P."""
    p = float(np.sum(np.abs(rho.elements) ** 2))
    return 1.0 - p, p


def chaotic_reference(mean_n: float) -> tuple[np.ndarray, float, float]:
    """Geometric (thermal/chaotic) reference at the given mean photon number.

    Returns (weights, E_chaot, L_chaot) with
      p_k = <n>^k / (1+<n>)^{1+k},
      E   = (1+<n>) ln(1+<n>) - <n> ln <n>,
      L   = 2<n> / (1+2<n>).
    The weights array is truncated once the remaining mass is negligible.
    """
    if mean_n < 0:
        raise ValueError("mean_n must be >= 0")
    if mean_n == 0.0:
        return np.array([1.0]), 0.0, 0.0
    ratio = mean_n / (1.0 + mean_n)
    weights = [1.0 / (1.0 + mean_n)]
    while weights[-1] > 1e-18 and len(weights) < 100000:
        weights.append(weights[-1] * ratio)
    e_chaot = (1.0 + mean_n) * math.log(1.0 + mean_n) - mean_n * math.log(mean_n)
    l_chaot = 2.0 * mean_n / (1.0 + 2.0 * mean_n)
    return np.array(weights), e_chaot, l_chaot


def max_linear_entropy_bound(mean_n: float) -> tuple[float, np.ndarray]:
    """Largest linear entropy reachable at fixed mean photon number.

    L_max = 1 - (1+2<n>) / [(1+3<n>)(1+3<n>/2)], attained by the descending
    arithmetic weight sequence p_k = 2/(2+3<n>) * (1 - k/(1+3<n>)), truncated
    at its zero crossing k = 1+3<n> so the weights stay nonnegative.
    """
    if mean_n < 0:
        raise ValueError("mean_n must be >= 0")
    if mean_n == 0.0:
        return 0.0, np.array([1.0])
    l_max = 1.0 - (1.0 + 2.0 * mean_n) / ((1.0 + 3.0 * mean_n) * (1.0 + 1.5 * mean_n))
    k_top = int(math.floor(1.0 + 3.0 * mean_n))
    k = np.arange(k_top + 1, dtype=float)
    weights = (2.0 / (2.0 + 3.0 * mean_n)) * (1.0 - k / (1.0 + 3.0 * mean_n))
    return l_max, np.clip(weights, 0.0, None)


def _on_target(rho: DensityMatrix, sigma: DensityMatrix) -> None:
    """Raise `DimensionMismatch` unless rho fits on the leading levels of sigma's basis."""
    if rho.dim > sigma.dim:
        raise DimensionMismatch(f"state dim {rho.dim} exceeds target dim {sigma.dim}")


def _trace_product(op: np.ndarray, rho: DensityMatrix) -> float:
    """Tr(op rho) for a Hermitian op, with rho zero beyond its leading block."""
    d = rho.dim
    return float(np.vdot(op[:d, :d], rho.elements).real)


def bures_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Bures distance D_B = 2 - 2 Tr{[sqrt(sigma) rho sqrt(sigma)]^{1/2}}.

    rho may be smaller than sigma: it is read on the leading rho.dim levels
    of sigma's basis and as zero beyond them.  For rho supported on the
    leading d levels, sqrt(sigma) rho sqrt(sigma) has the nonzero spectrum of
    sqrt(sigma_d) rho sqrt(sigma_d), sigma_d the leading d x d block of
    sigma, so the distance is exact at size d.  Both square roots go through
    Hermitian eigendecompositions with eigenvalues clipped at zero; the
    result is clamped into [0, 2].  sqrt(sigma_d) is sigma's cached
    `leading_root(d)` (its `root` at d = sigma.dim), so comparing many states
    against one target decomposes and roots the target once per size.
    """
    _on_target(rho, sigma)
    s_root = sigma.leading_root(rho.dim)
    inner = s_root @ rho.elements @ s_root
    w = hermitian_eigh(0.5 * (inner + inner.conj().T), values_only=True)
    fidelity_root = float(np.sum(np.sqrt(np.clip(w, 0.0, None))))
    return min(max(2.0 - 2.0 * fidelity_root, 0.0), 2.0)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Quantum relative entropy Tr{rho (ln rho - ln sigma)}.

    rho may be smaller than sigma, read as zero beyond its leading block as
    in `bures_distance`.  The cross term Tr(rho ln sigma) is one inner
    product with sigma's cached `log_matrix`, its eigenvalues floored at
    1e-12.  If rho puts more than 1e-6 of its weight on sigma's eigenvectors
    below the floor, Tr(rho P) with sigma's cached `null_projector` P, the
    quantity is effectively infinite and a SupportMismatch is raised.  Past
    the target's first call, the cost is O(dim^2) plus rho's own spectrum.
    """
    _on_target(rho, sigma)
    outside = _trace_product(sigma.null_projector, rho)
    if outside > 1e-6:
        raise SupportMismatch(
            f"rho weight {outside:.3e} on near-null sigma subspace (> 1e-6)"
        )
    cross = _trace_product(sigma.log_matrix, rho)
    rw = rho.spectrum[rho.spectrum > LOG_FLOOR]
    self_term = float(np.sum(rw * np.log(rw)))
    d = self_term - cross
    return 0.0 if -1e-9 < d < 0.0 else d
