"""Fock-basis primitives for a single bosonic mode.

States live in the truncated basis |0>, ..., |n_cut>.  Pure states are
amplitude vectors c_k, mixed states are Hermitian unit-trace matrices
rho_mn = <m|rho|n>.  Everything downstream (evolution, measures,
quasidistributions) is built on the constructors and operator matrices
defined here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CutoffTooSmall,
    DimensionMismatch,
    EigSolverFailure,
    IndexOutOfRange,
    ZeroNorm,
)

_NORM_TOL = 1e-12
_HERM_TOL = 1e-10
_TRACE_TOL = 1e-9
_EIG_TOL = 1e-9
# eigenvalue floor of the logarithms in the entropy and the relative entropy
LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class FockCutoff:
    """Truncation of the Fock basis at |n_cut| (dimension n_cut + 1)."""

    n_cut: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_cut, (int, np.integer)) or self.n_cut < 1:
            raise ValueError(f"n_cut must be an integer >= 1, got {self.n_cut!r}")

    @property
    def dim(self) -> int:
        return self.n_cut + 1


@dataclass(frozen=True)
class OscillatorParams:
    """Physical constants of the pumped dissipative Kerr oscillator.

    pump : complex drive amplitude p
    kerr : Kerr coefficient G of the a^dag^2 a^2 interaction
    loss : amplitude decay rate gamma0 (photon number decays at 2*gamma0)
    """

    pump: complex
    kerr: float
    loss: float

    def __post_init__(self) -> None:
        pump = complex(self.pump)
        kerr = float(self.kerr)
        loss = float(self.loss)
        if not (cmath.isfinite(pump) and math.isfinite(kerr) and math.isfinite(loss)):
            raise ValueError("pump, kerr and loss must all be finite")
        if loss < 0:
            raise ValueError(f"loss must be >= 0, got {loss}")
        object.__setattr__(self, "pump", pump)
        object.__setattr__(self, "kerr", kerr)
        object.__setattr__(self, "loss", loss)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def hermitian_eigh(a: np.ndarray, values_only: bool = False):
    """`np.linalg.eigh(a)`, or `eigvalsh(a)` if `values_only`: ascending
    eigenvalues (and eigenvectors) of a Hermitian matrix, with a solver
    failure raised as `EigSolverFailure`."""
    try:
        return np.linalg.eigvalsh(a) if values_only else np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigSolverFailure(str(exc)) from exc


def _root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The matrix square root from eigenpairs, eigenvalues clipped at 0."""
    return _read_only((v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state: amplitudes c_k over the truncated Fock basis."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.array(self.amplitudes, dtype=complex, copy=True)
        if amp.ndim != 1 or amp.shape[0] < 2:
            raise ValueError("amplitudes must be a 1-d array of length >= 2")
        norm2 = float(np.sum(np.abs(amp) ** 2))
        if abs(norm2 - 1.0) > _NORM_TOL:
            raise ValueError(f"|psi|^2 = {norm2!r} deviates from 1 beyond {_NORM_TOL}")
        object.__setattr__(self, "amplitudes", _read_only(amp))

    @property
    def dim(self) -> int:
        return int(self.amplitudes.shape[0])

    def overlap(self, other: "StateVector") -> complex:
        """<self|other>."""
        if self.dim != other.dim:
            raise DimensionMismatch(f"dims {self.dim} != {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite (to tolerance) matrix.

    `spectrum` holds the ascending eigenvalues found by the positivity
    check, read-only, so the spectral measures need not decompose again.
    `eigenpairs` is the full decomposition and `root` the matrix square root
    built from it; `leading_root(d)` roots the leading d x d block, and
    `log_matrix` and `null_projector` are ln(rho) with the eigenvalues
    floored at `LOG_FLOOR` and the projector on the eigenvectors below it.
    Each is computed on first use and kept, so a state compared against many
    others is decomposed and rooted once.

    `DensityMatrix(el, hermitian=True)` is the trusted path for a fresh,
    exactly Hermitian complex array that nothing else will write, as the
    evolution guards' projected samples are: el is kept as it is, without
    the copy and the Hermiticity scan, and passes the same trace and
    eigenvalue checks with the same messages.
    """

    elements: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False)
    hermitian: InitVar[bool] = False

    def __post_init__(self, hermitian: bool) -> None:
        el = self.elements if hermitian else np.array(self.elements, dtype=complex, copy=True)
        if el.ndim != 2 or el.shape[0] != el.shape[1] or el.shape[0] < 2:
            raise ValueError("elements must be a square matrix of dimension >= 2")
        # each check is written so that NaN fails it, the NaN of inf - inf too
        with np.errstate(invalid="ignore"):
            herm = 0.0 if hermitian else float(np.max(np.abs(el - el.conj().T)))
        if not herm <= _HERM_TOL:
            raise ValueError(f"Hermiticity defect {herm:.3e} exceeds {_HERM_TOL}")
        tr = complex(np.trace(el))
        if not abs(tr - 1.0) <= _TRACE_TOL:
            raise ValueError(f"trace {tr!r} deviates from 1 beyond {_TRACE_TOL}")
        # an exactly Hermitian input, as every projected sample is, is its
        # own symmetrization
        spectrum = hermitian_eigh(
            el if herm == 0.0 else 0.5 * (el + el.conj().T), values_only=True
        )
        w_min = float(spectrum[0])
        if not w_min >= -_EIG_TOL:
            raise ValueError(f"minimum eigenvalue {w_min:.3e} below -{_EIG_TOL}")
        object.__setattr__(self, "elements", _read_only(el))
        object.__setattr__(self, "spectrum", _read_only(spectrum))

    @property
    def dim(self) -> int:
        return int(self.elements.shape[0])

    @cached_property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvectors, as `np.linalg.eigh` gives."""
        w, v = hermitian_eigh(self.elements)
        return _read_only(w), _read_only(v)

    @cached_property
    def root(self) -> np.ndarray:
        """sqrt(rho) from `eigenpairs`, with the eigenvalues clipped at 0."""
        return _root(*self.eigenpairs)

    @cached_property
    def _leading_roots(self) -> dict[int, np.ndarray]:
        return {}

    def leading_root(self, d: int) -> np.ndarray:
        """sqrt of the leading d x d block of rho, eigenvalues clipped at 0; `root` at dim."""
        if d == self.dim:
            return self.root
        roots = self._leading_roots
        if d not in roots:
            roots[d] = _root(*hermitian_eigh(self.elements[:d, :d]))
        return roots[d]

    @cached_property
    def log_matrix(self) -> np.ndarray:
        """ln(rho) from `eigenpairs`, with the eigenvalues floored at `LOG_FLOOR`."""
        w, v = self.eigenpairs
        return _read_only((v * np.log(np.clip(w, LOG_FLOOR, None))) @ v.conj().T)

    @cached_property
    def null_projector(self) -> np.ndarray:
        """Projector on the eigenvectors with eigenvalue below `LOG_FLOOR`."""
        w, v = self.eigenpairs
        null = v[:, w < LOG_FLOOR]
        return _read_only(null @ null.conj().T)


def default_cutoff(mean_n_init: float) -> FockCutoff:
    """Default truncation for an initial state of given mean photon number.

    n_cut = ceil(<n> + 10*sqrt(<n>+1) + 10) keeps the tail mass below 1e-8
    for every scenario shipped with the package (<n> <= 9 initially, pumped
    steady state around <n> ~ 5).
    """
    if mean_n_init < 0:
        raise ValueError("mean photon number must be >= 0")
    return FockCutoff(int(math.ceil(mean_n_init + 10.0 * math.sqrt(mean_n_init + 1.0) + 10.0)))


def _poisson_tail(alpha: complex, n_cut: int) -> float:
    """Probability mass of |alpha> beyond index n_cut (summed term by term)."""
    nbar = abs(alpha) ** 2
    if nbar == 0.0:
        return 0.0
    # walk the Poisson weights up to the cutoff, then sum the tail until the
    # terms stop mattering
    w = math.exp(-nbar)
    for k in range(n_cut):
        w *= nbar / (k + 1)
    tail = 0.0
    k = n_cut
    while True:
        w *= nbar / (k + 1)
        tail += w
        k += 1
        if w < 1e-30 and k > nbar:
            return tail
        if k > n_cut + 100000:  # unreachable for sane arguments
            return tail


def _require_coherent_fits(alpha: complex, cutoff: FockCutoff) -> None:
    """Raise `CutoffTooSmall` unless |alpha> has < 1e-8 of its mass past the cutoff."""
    tail = _poisson_tail(alpha, cutoff.n_cut)
    if tail >= 1e-8:
        raise CutoffTooSmall(
            f"coherent amplitude {alpha} has tail mass {tail:.3e} beyond "
            f"n_cut = {cutoff.n_cut} (needs < 1e-8)"
        )


def _coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Unnormalized truncated coherent amplitudes by stable recurrence."""
    c = np.empty(dim, dtype=complex)
    c[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for k in range(dim - 1):
        c[k + 1] = c[k] * alpha / math.sqrt(k + 1)
    return c


def coherent_state(alpha: complex, cutoff: FockCutoff) -> StateVector:
    """Coherent state |alpha> truncated at the cutoff and renormalized.

    The recurrence c_{k+1} = c_k * alpha / sqrt(k+1) starting from
    c_0 = exp(-|alpha|^2/2) avoids factorial overflow.
    """
    _require_coherent_fits(alpha, cutoff)
    c = _coherent_amplitudes(alpha, cutoff.dim)
    return StateVector(c / np.linalg.norm(c))


def fock_state(n: int, cutoff: FockCutoff) -> StateVector:
    """Photon-number eigenstate |n> in the truncated basis."""
    if not 0 <= n <= cutoff.n_cut:
        raise IndexOutOfRange(f"n={n} outside [0, {cutoff.n_cut}]")
    c = np.zeros(cutoff.dim, dtype=complex)
    c[n] = 1.0
    return StateVector(c)


def coherent_overlap(alpha: complex, beta: complex) -> complex:
    """Exact overlap <alpha|beta> = exp(-(|alpha|^2+|beta|^2)/2 + alpha* beta)."""
    return cmath.exp(-0.5 * (abs(alpha) ** 2 + abs(beta) ** 2) + np.conj(alpha) * beta)


def coherent_superposition(
    components: list[tuple[complex, complex]], cutoff: FockCutoff
) -> StateVector:
    """Normalized superposition sum_i w_i |alpha_i>.

    The normalization constant includes the mutual (non-zero) overlaps of the
    coherent components; it is evaluated from the exact overlap formula so
    that near-cancelling superpositions are detected before truncation noise
    takes over.
    """
    if not components:
        raise ValueError("superposition needs at least one component")
    for _, alpha in components:
        _require_coherent_fits(alpha, cutoff)
    norm2 = 0.0
    for wi, ai in components:
        for wk, ak in components:
            norm2 += (np.conj(wi) * wk * coherent_overlap(ai, ak)).real
    if norm2 <= 1e-24:
        raise ZeroNorm(f"components cancel: exact |psi|^2 = {norm2:.3e}")
    vec = np.zeros(cutoff.dim, dtype=complex)
    for w, alpha in components:
        vec += w * _coherent_amplitudes(alpha, cutoff.dim)
    nrm = float(np.linalg.norm(vec))
    if nrm <= 1e-12:
        raise ZeroNorm("truncated components cancel to numerical zero")
    return StateVector(vec / nrm)


def density_from_pure(psi: StateVector) -> DensityMatrix:
    """Projector |psi><psi| as a density matrix."""
    return DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()))


def annihilation_matrix(cutoff: FockCutoff) -> np.ndarray:
    """Annihilation operator a with (a)_{n-1,n} = sqrt(n) on the truncated basis."""
    return np.diag(np.sqrt(np.arange(1, cutoff.dim, dtype=float)), 1).astype(complex)


def leading_block(x: np.ndarray, d: int) -> np.ndarray:
    """The leading d x d block of the square array x, zero-padded where x is smaller.

    x itself when it is d x d already, so the result must not be written to.
    """
    if x.shape[0] == d:
        return x
    out = np.zeros((d, d), dtype=complex)
    k = min(d, x.shape[0])
    out[:k, :k] = x[:k, :k]
    return out


def tail_mass(rho: DensityMatrix | np.ndarray, margin: int) -> float:
    """Probability in the last `margin` diagonal entries (truncation monitor).

    Takes a `DensityMatrix` or a raw square array.  The evolution guards do
    not call it: they read the tail at the declared cutoff of a block state.
    """
    el = rho.elements if isinstance(rho, DensityMatrix) else rho
    dim = el.shape[0]
    if not 0 < margin < dim:
        raise ValueError(f"margin must be in (0, {dim})")
    return float(np.sum(el.diagonal().real[-margin:]))
