"""Semiclassical and linearized-Gaussian analysis.

The classical amplitude obeys d alpha/dt = p - 2iG|alpha|^2 alpha - gamma0
alpha, whose stationary intensity I = |alpha|^2 solves the monotone cubic
(gamma0^2 + 4 G^2 I^2) I = |p|^2.  Fluctuations around a fixed amplitude are
governed by the effective rates gamma = gamma0 + 4iG|alpha|^2 and
delta = 2iG alpha^2; their stationary second moments define a Gaussian state
(alpha, B, C) from which entropy, purity, eigenweights, squeezing and the
Fano factor all follow in closed form through the single parameter
x = sqrt((B + 1/2)^2 - |C|^2) - 1/2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    UnphysicalMoments,
    UnstableLinearization,
    VacuumLimitWarning,
)
from .fock import FockCutoff, OscillatorParams, density_from_pure
from .measures import (
    linear_entropy_and_purity,
    moments,
    spectral_decomposition,
    squeezing,
    von_neumann_entropy,
)
from .steady import steady_density


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state of the oscillator: mean amplitude plus second moments.

    alpha = <a>, B = <a^dag a> - |alpha|^2 (symmetric noise), and
    C = <a^2> - alpha^2 (anomalous noise).
    """

    alpha: complex
    B: float
    C: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "B", float(self.B))
        object.__setattr__(self, "C", complex(self.C))
        if not (
            math.isfinite(self.B)
            and math.isfinite(abs(self.alpha))
            and math.isfinite(abs(self.C))
        ):
            raise UnphysicalMoments("moments must be finite")
        if self.B < 0.0:
            raise UnphysicalMoments(f"B = {self.B} must be >= 0")
        bound = (self.B + 0.5) ** 2 - abs(self.C) ** 2
        if bound < 0.25 - 1e-12:
            raise UnphysicalMoments(
                f"(B + 1/2)^2 - |C|^2 = {bound:.6g} violates the uncertainty "
                "bound 1/4"
            )


@dataclass(frozen=True)
class LinearizedCoeffs:
    """Effective rates of the fluctuation dynamics around a mean amplitude."""

    gamma_eff: complex
    delta_eff: complex

    @property
    def stable(self) -> bool:
        """True when |gamma| > |delta|, i.e. a stationary noise state exists."""
        return abs(self.gamma_eff) > abs(self.delta_eff)


def classical_steady_amplitude(params: OscillatorParams) -> complex:
    """Stationary solution of d alpha/dt = p - 2iG|alpha|^2 alpha - gamma0 alpha.

    The stationary intensity I = |alpha|^2 is the unique non-negative root of
    the monotone cubic (gamma0^2 + 4 G^2 I^2) I = |p|^2, after which
    alpha = p / (gamma0 + 2iG I).
    """
    p, g, g0 = params.pump, params.kerr, params.loss
    if p == 0:
        return 0.0 + 0.0j
    if g == 0.0 and g0 == 0.0:
        raise UnstableLinearization(
            "no stationary amplitude exists for zero loss and zero kerr "
            "with a nonzero pump"
        )
    # I is scale-free, so it is found in units of the larger rate: there
    # a = gamma0/s and b = 2|G|/s, one of them 1, and no square underflows
    # at tiny rates.  q = |p|/s is taken as mantissa ratio and exponent, so
    # it neither rounds away nor overflows, and the same cubic is solved for
    # J = I / 4^j, q scaled by 8^-j into [0.5, 4) and a by 4^-j (exact
    # powers of two): q^2 stays in range.  Scaling up (j < 0) stops before a
    # passes 1, so a <= 1 always and the bracket below stays >= q^2, which
    # is 0 only if q^2 underflows; then a ~ 1 makes J <= 16 q^2, and
    # I = 4^j J is below the double range.
    s = max(g0, 2.0 * abs(g))
    a0 = g0 / s
    (p_mant, p_exp), (s_mant, s_exp) = math.frexp(abs(p)), math.frexp(s)
    mant, e = p_mant / s_mant, p_exp - s_exp
    j = (math.frexp(mant)[1] + e) // 3
    if j < 0 and a0 > 0.0:
        j = max(j, min(0, -(-math.frexp(a0)[1] // 2)))
    a, b, q = math.ldexp(a0, -2 * j), 2.0 * abs(g) / s, math.ldexp(mant, e - 3 * j)
    target = q * q
    # f(J) = (a^2 + b^2 J^2) J - q^2 is strictly increasing, and >= 0 both
    # at (q/a)^2 and at (q/b)^(2/3): the smaller one brackets the root
    ratio = q / a if a > 0.0 else math.inf
    hi = ratio * ratio
    if b > 0.0:
        hi = min(hi, (q / b) ** (2.0 / 3.0))
    if b == 0.0 or not math.isfinite(hi):
        intensity = hi
    else:
        # bisect the bracket and polish with Newton
        def f(i: float) -> float:
            return (a * a + (b * i) * (b * i)) * i - target

        lo = 0.0
        while f(hi) < 0.0:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) < 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-14 * hi:
                break
        intensity = 0.5 * (lo + hi)
        for _ in range(4):
            deriv = a * a + 3.0 * (b * intensity) * (b * intensity)
            intensity -= f(intensity) / deriv
    try:
        intensity = math.ldexp(intensity, 2 * j)
    except OverflowError:
        intensity = math.inf
    if not math.isfinite(intensity):
        raise UnstableLinearization(
            f"the stationary intensity at pump {p}, kerr {g} and loss {g0} "
            "exceeds the double range"
        )
    return p / (g0 + 2j * g * intensity)


def steady_mean_estimate(params: OscillatorParams) -> float:
    """Photon number to size a basis for the pumped stationary state.

    |alpha|^2 of the classical stationary amplitude; 0 without pump, and 0
    where no stationary amplitude exists (no loss and no Kerr).
    """
    if params.pump == 0 or (params.loss == 0.0 and params.kerr == 0.0):
        return 0.0
    return abs(classical_steady_amplitude(params)) ** 2


def linearized_coeffs(alpha: complex, params: OscillatorParams) -> LinearizedCoeffs:
    """Effective rates gamma = gamma0 + 4iG|alpha|^2, delta = 2iG alpha^2."""
    gamma = params.loss + 4j * params.kerr * abs(alpha) ** 2
    delta = 2j * params.kerr * alpha * alpha
    return LinearizedCoeffs(gamma_eff=complex(gamma), delta_eff=complex(delta))


def steady_noise_moments(
    coeffs: LinearizedCoeffs, alpha: complex = 0.0 + 0.0j
) -> GaussianState:
    """Stationary noise moments of the linearized fluctuation equations.

    2B = |delta|^2 / (|gamma|^2 - |delta|^2) and
    2C = -delta gamma* / (|gamma|^2 - |delta|^2); requires |gamma| > |delta|.
    """
    gam, dlt = coeffs.gamma_eff, coeffs.delta_eff
    denom = abs(gam) ** 2 - abs(dlt) ** 2
    if denom <= 0.0:
        raise UnstableLinearization(
            f"|gamma| = {abs(gam):.6g} must exceed |delta| = {abs(dlt):.6g} "
            "for a stationary noise state"
        )
    b = 0.5 * abs(dlt) ** 2 / denom
    c = -0.5 * dlt * np.conj(gam) / denom
    return GaussianState(alpha=alpha, B=b, C=complex(c))


def gaussian_squeeze_S(coeffs: LinearizedCoeffs) -> float:
    """Stationary squeezing S = |gamma| / (|gamma| + |delta|).

    Identical to 1 + 2(B - |C|) evaluated at the stationary noise moments.
    """
    gam, dlt = abs(coeffs.gamma_eff), abs(coeffs.delta_eff)
    return gam / (gam + dlt)


def gaussian_x(gs: GaussianState) -> float:
    """Thermal-like parameter x = sqrt((B + 1/2)^2 - |C|^2) - 1/2 (>= 0)."""
    # the uncertainty bound arg >= 1/4 is checked by GaussianState
    arg = (gs.B + 0.5) ** 2 - abs(gs.C) ** 2
    return max(0.0, math.sqrt(max(arg, 0.0)) - 0.5)


def gaussian_weights(x: float, k_max: int) -> np.ndarray:
    """Eigenweights p_k = x^k / (1+x)^(1+k) for k = 0..k_max."""
    if x < 0:
        raise UnphysicalMoments(f"x = {x} must be >= 0")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    ratio = x / (1.0 + x)
    out = np.empty(k_max + 1)
    out[0] = 1.0 / (1.0 + x)
    for k in range(1, k_max + 1):
        out[k] = out[k - 1] * ratio
    return out


def gaussian_entropy_purity(x: float) -> tuple[float, float]:
    """Entropy E = (1+x)ln(1+x) - x ln x and purity P = 1/(1+2x) of the state.

    x = 0 is the removable pure-state limit (E = 0, P = 1).
    """
    if x < -1e-12:
        raise UnphysicalMoments(f"x = {x} must be >= 0")
    if x <= 0.0:
        return 0.0, 1.0
    entropy = (1.0 + x) * math.log1p(x) - x * math.log(x)
    return entropy, 1.0 / (1.0 + 2.0 * x)


def gaussian_S_F(gs: GaussianState) -> tuple[float, float]:
    """Squeezing S = 1 + 2(B - |C|) and Fano factor of the Gaussian state.

    F = 1 + 2B + 2 Re(C alpha*^2) / (|alpha|^2 + B); the vacuum limit
    |alpha|^2 + B -> 0 returns F = 1 with a VacuumLimitWarning.
    """
    s = 1.0 + 2.0 * (gs.B - abs(gs.C))
    denom = abs(gs.alpha) ** 2 + gs.B
    if denom < 1e-12:
        warnings.warn(
            "Fano factor is indeterminate in the vacuum limit; returning 1",
            VacuumLimitWarning,
            stacklevel=2,
        )
        return s, 1.0
    f = 1.0 + 2.0 * gs.B + 2.0 * (gs.C * np.conj(gs.alpha) ** 2).real / denom
    return s, f


@dataclass(frozen=True)
class StrongPumpEstimates:
    """Crude strong-pump limit |gamma| = 2|delta| of the stationary state."""

    squeeze_S: float
    fano_F: float
    x: float
    linear_entropy: float
    entropy: float
    weights: tuple[float, float, float]


def strong_pump_estimates() -> StrongPumpEstimates:
    """Closed-form stationary estimates in the strong-pump limit.

    For |alpha| large the rates satisfy |gamma| = 2|delta|, giving
    S = F = 2/3, x = 1/sqrt(3) - 1/2 and L = 1 - sqrt(3)/2 exactly.
    """
    x = 1.0 / math.sqrt(3.0) - 0.5
    entropy, purity = gaussian_entropy_purity(x)
    w = gaussian_weights(x, 2)
    return StrongPumpEstimates(
        squeeze_S=2.0 / 3.0,
        fano_F=2.0 / 3.0,
        x=x,
        linear_entropy=1.0 - purity,
        entropy=entropy,
        weights=(float(w[0]), float(w[1]), float(w[2])),
    )


def steady_record(
    params: OscillatorParams, cutoff: FockCutoff
) -> tuple[dict[str, float], dict[str, float]]:
    """The closed-form state against the linearization around the classical
    stationary amplitude: the one builder of the exact-versus-Gaussian pairing.

    Returns the (exact, gaussian) scalars by name. Both hold mean_n, entropy,
    linear_entropy, squeeze_S, fano_F and the descending eigenweights p0..p9;
    x is Gaussian only, and leading_eig_squeeze (squeezing of the leading
    eigenvector) exact only.
    """
    rho = steady_density(params, cutoff)
    mom = moments(rho)
    dec = spectral_decomposition(rho)
    exact = {
        "mean_n": mom.mean_n,
        "entropy": von_neumann_entropy(rho),
        "linear_entropy": linear_entropy_and_purity(rho)[0],
        "squeeze_S": mom.squeezing(),
        "fano_F": mom.fano(),
        "leading_eig_squeeze": squeezing(density_from_pure(dec.eigenstates[0])),
    }
    alpha = classical_steady_amplitude(params)
    gs = steady_noise_moments(linearized_coeffs(alpha, params), alpha=alpha)
    x = gaussian_x(gs)
    entropy, purity = gaussian_entropy_purity(x)
    squeeze, fano = gaussian_S_F(gs)
    gauss = {
        "mean_n": float(abs(alpha) ** 2 + gs.B),
        "entropy": entropy,
        "linear_entropy": 1.0 - purity,
        "squeeze_S": squeeze,
        "fano_F": fano,
        "x": x,
    }
    w_gauss = gaussian_weights(x, 9)
    for k in range(10):
        exact[f"p{k}"] = float(dec.weights[k]) if k < dec.weights.shape[0] else 0.0
        gauss[f"p{k}"] = float(w_gauss[k])
    return exact, gauss


def steady_table(
    params: OscillatorParams, cutoff: FockCutoff
) -> tuple[list[str], list[list]]:
    """Rows (label, exact, gaussian, crude) for the steady-state report.

    The exact and Gaussian columns come from `steady_record`, the crude
    column from the strong-pump limit; entries without a counterpart are None.
    """
    exact, gauss = steady_record(params, cutoff)
    est = strong_pump_estimates()
    crude = {"entropy": est.entropy, "linear_entropy": est.linear_entropy,
             "squeeze_S": est.squeeze_S, "fano_F": est.fano_F, "x": est.x}
    crude.update((f"p{k}", w) for k, w in enumerate(est.weights))
    labels = ["mean_n", "entropy", "linear_entropy", "squeeze_S", "fano_F", "x",
              "leading_eig_squeeze"] + [f"p{k}" for k in range(10)]
    rows = [[q, exact.get(q), gauss.get(q), crude.get(q)] for q in labels]
    return ["quantity", "exact", "gaussian", "crude"], rows


# Keeps its name and module as the `gaussian.report` hook target of
# perfbench/layertrace.py; moving this view to `runner` needs that hook retargeted.
def gaussian_vs_exact_report(
    params: OscillatorParams, cutoff: FockCutoff
) -> tuple[list[str], list[list]]:
    """Rows (label, exact, gaussian, abs_diff) for the exact-versus-Gaussian report.

    Reports (E, L, S, F, <n>, p0..p5) from `steady_record`; eigenweights
    are paired by descending order.
    """
    exact, gauss = steady_record(params, cutoff)
    labels = ["entropy", "linear_entropy", "squeeze_S", "fano_F", "mean_n"] + [
        f"p{k}" for k in range(6)
    ]
    rows = [[q, exact[q], gauss[q], abs(exact[q] - gauss[q])] for q in labels]
    return ["quantity", "exact", "gaussian", "abs_diff"], rows
