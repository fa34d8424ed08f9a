"""Closed-form decoherence and damping benchmarks.

These are the analytic references the full master-equation evolution is
checked against: pairwise decoherence times tau_ik = 1/(2 gamma0
|alpha_i - alpha_k|^2) of a coherent superposition, the short-time linear
entropy of the three-component cat, the binomial photon distribution of a
damped Fock state, its maximal linear entropy, and the Poisson distribution
of a damped coherent state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroSeparation
from .fock import FockCutoff, _require_coherent_fits


@dataclass(frozen=True, eq=False)
class DecoherenceEstimate:
    """Pairwise decoherence times plus the approximate linear-entropy curve."""

    tau_pairwise: np.ndarray
    L_approx_curve: np.ndarray

    def __post_init__(self) -> None:
        tau = np.array(self.tau_pairwise, dtype=float, copy=True)
        curve = np.array(self.L_approx_curve, dtype=float, copy=True)
        if tau.ndim != 2 or tau.shape[0] != tau.shape[1] or tau.shape[0] < 2:
            raise ValueError("tau_pairwise must be a square matrix of size >= 2")
        off = ~np.eye(tau.shape[0], dtype=bool)
        if not np.allclose(tau, tau.T, rtol=0.0, atol=1e-12):
            raise ValueError("tau_pairwise must be symmetric")
        if np.min(tau[off]) <= 0.0:
            raise ValueError("off-diagonal decoherence times must be positive")
        if curve.ndim != 1:
            raise ValueError("L_approx_curve must be 1-d")
        tau.setflags(write=False)
        curve.setflags(write=False)
        object.__setattr__(self, "tau_pairwise", tau)
        object.__setattr__(self, "L_approx_curve", curve)


def decoherence_times(alphas, loss: float) -> np.ndarray:
    """Pairwise tau_ik = 1/(2 loss |alpha_i - alpha_k|^2), infinite diagonal."""
    if loss <= 0:
        raise ValueError("loss must be > 0")
    amps = np.asarray(alphas, dtype=complex)
    if amps.ndim != 1 or amps.shape[0] < 2:
        raise ValueError("need at least two component amplitudes")
    count = amps.shape[0]
    tau = np.full((count, count), np.inf)
    for i in range(count):
        for k in range(i + 1, count):
            sep = abs(amps[i] - amps[k]) ** 2
            if sep == 0.0:
                raise ZeroSeparation(
                    f"components {i} and {k} coincide at alpha = {amps[i]}"
                )
            tau[i, k] = tau[k, i] = 1.0 / (2.0 * loss * sep)
    return tau


def kitten_linear_entropy_approx(alpha_mag: float, loss: float, t: float) -> float:
    """Short-time linear entropy of the three-component cat under pure loss.

    L(t) ~ (2/3)[1 - e^{-6 gamma0 |alpha|^2 t}]: each of the three pairwise
    coherences decays at the rate 2 gamma0 |alpha_i - alpha_k|^2 =
    6 gamma0 |alpha|^2 of equally spaced components on a circle.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    return (2.0 / 3.0) * -math.expm1(-6.0 * loss * alpha_mag**2 * t)


def kitten_decoherence(alpha_mag: float, loss: float, times) -> DecoherenceEstimate:
    """Decoherence summary for the three-component cat of radius alpha_mag."""
    if alpha_mag <= 0:
        raise ZeroSeparation("cat components coincide for alpha_mag = 0")
    amps = alpha_mag * np.exp(2j * math.pi * np.arange(3) / 3.0)
    tau = decoherence_times(amps, loss)
    curve = np.array(
        [kitten_linear_entropy_approx(alpha_mag, loss, t) for t in np.asarray(times)]
    )
    return DecoherenceEstimate(tau_pairwise=tau, L_approx_curve=curve)


def fock_damping_distribution(n: int, loss: float, t: float) -> np.ndarray:
    """Photon distribution of an initial |n> under pure loss at time t.

    Binomial: p(k) = C(n, k) q^k (1-q)^{n-k} with survival probability
    q = e^{-2 gamma0 t}; independent of the Kerr strength.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if t < 0:
        raise ValueError("t must be >= 0")
    q = math.exp(-2.0 * loss * t)
    return np.array(
        [math.comb(n, k) * q**k * (1.0 - q) ** (n - k) for k in range(n + 1)]
    )


def fock_max_linear_entropy(n: int, loss: float = 1.0) -> tuple[float, float, float]:
    """Maximal linear entropy of a damped |n> and when it occurs.

    Returns (exact, stirling, t_star): the exact central-binomial value
    1 - (2n)!/(2^n n!)^2 evaluated in log space, its Stirling approximation
    1 - 1/sqrt(pi n), and the time t* = ln 2 / (2 loss) at which the survival
    probability passes 1/2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if loss <= 0:
        raise ValueError("loss must be > 0")
    log_ratio = (
        math.lgamma(2 * n + 1) - 2.0 * n * math.log(2.0) - 2.0 * math.lgamma(n + 1)
    )
    exact = 1.0 - math.exp(log_ratio)
    stirling = 1.0 - 1.0 / math.sqrt(math.pi * n)
    t_star = math.log(2.0) / (2.0 * loss)
    return exact, stirling, t_star


def coherent_damped_distribution(
    alpha: complex, loss: float, t: float, cutoff: FockCutoff
) -> np.ndarray:
    """Photon distribution of an initial |alpha> under pure loss at time t.

    Poisson with mean |alpha|^2 e^{-2 gamma0 t}; its Fano factor is exactly 1,
    whatever the Kerr strength.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    mean = abs(alpha) ** 2 * math.exp(-2.0 * loss * t)
    _require_coherent_fits(math.sqrt(mean), cutoff)
    if mean <= 0.0:
        out = np.zeros(cutoff.dim)
        out[0] = 1.0
        return out
    k = np.arange(cutoff.dim, dtype=float)
    lgam = np.array([math.lgamma(i + 1) for i in range(cutoff.dim)])
    return np.exp(-mean + k * math.log(mean) - lgam)
