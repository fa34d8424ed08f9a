"""Exact steady state of the pumped dissipative Kerr oscillator.

The closed-form density matrix

    rho_mn = C (eps*)^m eps^n 0F2(lam*+m, lam+n; |eps|^2)
             / [sqrt(m! n!) Gamma(lam*+m) Gamma(lam+n)]

with eps = -i p / G, lam = -i gamma0 / G and the normalization constant
C = Gamma(lam*) Gamma(lam) / 0F2(lam*, lam; 2|eps|^2), together with the
matching factorial-moment formula.  The required special functions (complex
Gamma, generalized hypergeometric 0F2) are implemented here from scratch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    CutoffTooSmall,
    DriftTooLarge,
    GammaOverflow,
    KerrZero,
    NonconvergenceWithinMaxTerms,
    PoleAtNonpositiveInteger,
)
from .fock import DensityMatrix, FockCutoff, OscillatorParams, _hermitize

# Lanczos approximation, g = 7, 9 coefficients: relative error around 1e-13
# over the right half plane.
_LANCZOS_G = 7.0
_LANCZOS_P = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LOG_PI = math.log(math.pi)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_HALF_I = complex(-math.log(2.0), 0.5 * math.pi)  # log(i/2)

_MAX_TERMS = 100000


def _nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real)


def _lanczos_sum(z: complex) -> complex:
    acc = _LANCZOS_P[0]
    for i, p in enumerate(_LANCZOS_P[1:], start=1):
        acc += p / (z + i)
    return acc


def complex_gamma(z: complex) -> complex:
    """Gamma function for complex argument: the exponential of `complex_lgamma`.

    Raises `GammaOverflow` where |Gamma(z)| exceeds the double range (from
    about Re z = 171 on the real axis).
    """
    log_gamma = complex_lgamma(z)
    try:
        return cmath.exp(log_gamma)
    except OverflowError as exc:
        raise GammaOverflow(f"|Gamma({complex(z)})| exceeds the double range") from exc


def _log_sin_pi(z: complex) -> complex:
    """A logarithm of sin(pi z), finite where sin(pi z) itself overflows.

    For Im z > 0, sin(w) = (i/2) e^{-iw} (1 - e^{2iw}) with w = pi z; past
    |Im z| = 100 the last factor is 1 to double precision, so the log is
    taken term by term (sin(pi z) overflows from |Im z| of about 226).
    Im z < 0 follows by conjugation.  Up to a multiple of 2 pi i.
    """
    if abs(z.imag) <= 100.0:
        return cmath.log(cmath.sin(math.pi * z))
    if z.imag < 0.0:
        return _log_sin_pi(z.conjugate()).conjugate()
    w = math.pi * z
    return -1j * w + cmath.log(1.0 - cmath.exp(2j * w)) + _LOG_HALF_I


def complex_lgamma(z: complex) -> complex:
    """A logarithm of Gamma(z) for complex z, finite far past Gamma's overflow.

    The Lanczos approximation taken term by term in log space, with
    reflection for Re z < 0.5.  The imaginary part may differ from the
    principal log Gamma by a multiple of 2 pi, so exp(complex_lgamma(z)) is
    Gamma(z).
    """
    z = complex(z)
    if _nonpositive_integer(z):
        raise PoleAtNonpositiveInteger(f"Gamma pole at z = {z}")
    if z.real < 0.5:
        # reflection: log Gamma(z) = log pi - log sin(pi z) - log Gamma(1-z)
        return _LOG_PI - _log_sin_pi(z) - complex_lgamma(1.0 - z)
    z -= 1.0
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_2PI + (z + 0.5) * cmath.log(t) - t + cmath.log(_lanczos_sum(z))


def _hyper_0f2_raw(a: complex, b: complex, z: float) -> tuple[complex, float]:
    """0F2(a, b; z) series value and the max |term| seen (for diagnostics).

    Terms are built from running Pochhammer products (no Gamma ratios) and
    accumulated with compensated (Kahan) summation: for complex parameters
    the terms rotate in phase and can grow large before decaying.
    """
    if _nonpositive_integer(a) or _nonpositive_integer(b):
        raise PoleAtNonpositiveInteger(f"series parameter pole: a={a}, b={b}")
    if z < 0:
        raise ValueError(f"series argument must be >= 0, got {z}")
    total = 1.0 + 0.0j
    comp = 0.0 + 0.0j  # Kahan compensation
    term = 1.0 + 0.0j
    max_term = 1.0
    consecutive_small = 0
    k = 0
    while consecutive_small < 3:
        if k >= _MAX_TERMS:
            raise NonconvergenceWithinMaxTerms(
                f"0F2({a}, {b}; {z}) did not converge within {_MAX_TERMS} terms"
            )
        term = term * z / ((k + 1) * (a + k) * (b + k))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        max_term = max(max_term, abs(term))
        k += 1
        if abs(term) < 1e-16 * abs(total):
            consecutive_small += 1
        else:
            consecutive_small = 0
    return total, max_term


def hyper_0f2(a: complex, b: complex, z: float) -> complex:
    """Generalized hypergeometric 0F2(a, b; z) = sum_k z^k / (k! (a)_k (b)_k)."""
    return _hyper_0f2_raw(complex(a), complex(b), float(z))[0]


def hyper_0f2_diagnostic(a: complex, b: complex, z: float) -> tuple[complex, float]:
    """(value, max|term|/|value|): large ratios flag double-precision strain."""
    value, max_term = _hyper_0f2_raw(complex(a), complex(b), float(z))
    return value, max_term / abs(value)


def _require_kerr(params: OscillatorParams) -> None:
    if params.kerr == 0.0:
        raise KerrZero(
            "closed-form steady state needs kerr != 0; for kerr = 0 the "
            "steady state is the coherent state with amplitude pump/loss"
        )


@dataclass(frozen=True)
class SteadyParams:
    """Reduced parameters of the closed-form steady state.

    epsilon = -i pump / kerr, lam = -i loss / kerr, and the normalization
    constant norm_c = Gamma(lam*) Gamma(lam) / 0F2(lam*, lam; 2|epsilon|^2).
    """

    epsilon: complex
    lam: complex
    norm_c: complex

    @classmethod
    def from_params(cls, params: OscillatorParams) -> "SteadyParams":
        _require_kerr(params)
        eps = -1j * params.pump / params.kerr
        lam = -1j * params.loss / params.kerr
        f0 = hyper_0f2(np.conj(lam), lam, 2.0 * abs(eps) ** 2)
        norm_c = complex_gamma(np.conj(lam)) * complex_gamma(lam) / f0
        return cls(epsilon=eps, lam=lam, norm_c=norm_c)


@lru_cache(maxsize=16)
def steady_density(params: OscillatorParams, cutoff: FockCutoff) -> DensityMatrix:
    """Assemble the closed-form steady-state density matrix.

    Elements are built in log space (factorials by `math.lgamma`, Gamma
    prefactors by `complex_lgamma`, exponentiated once) so the assembly stays
    finite well beyond the n ~ 145 point where Gamma(lam + n) overflows.  The result is hermitized and
    renormalized inside a strict drift budget; the pre-renormalization trace
    sitting at 1 is an end-to-end check of the special-function stack and is
    enforced here.
    """
    _require_kerr(params)
    dim = cutoff.dim
    if params.pump == 0:
        el = np.zeros((dim, dim), dtype=complex)
        el[0, 0] = 1.0
        return DensityMatrix(el)
    sp = SteadyParams.from_params(params)
    eps, lam = sp.epsilon, sp.lam
    ln_c = cmath.log(sp.norm_c)
    ln_eps = cmath.log(eps)
    z1 = abs(eps) ** 2
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
            el[n, m] = cmath.exp(ln_pref) * hyper_0f2(
                np.conj(lam) + m, lam + n, z1
            )
    trace_dev = abs(complex(np.trace(el)) - 1.0)
    herm_dev = float(np.max(np.abs(el - el.conj().T)))
    if trace_dev > 1e-8 or herm_dev > 1e-8:
        raise DriftTooLarge(
            f"steady assembly drift: |Tr-1| = {trace_dev:.3e}, "
            f"Hermiticity defect = {herm_dev:.3e} (budget 1e-8)"
        )
    el = _hermitize(el)
    diag_tail = float(np.sum(el.diagonal().real[-3:]))
    if diag_tail > 1e-8:
        raise CutoffTooSmall(
            f"steady-state diagonal tail {diag_tail:.3e} at n_cut={cutoff.n_cut}"
        )
    return DensityMatrix(el)


def steady_moment(m: int, n: int, params: OscillatorParams) -> complex:
    """Normally ordered steady-state moment <(a^dag)^m a^n>.

    <(a^dag)^m a^n> = (eps*)^m eps^n
                      * Gamma(lam*) Gamma(lam) / [Gamma(lam*+m) Gamma(lam+n)]
                      * 0F2(lam*+m, lam+n; 2|eps|^2) / 0F2(lam*, lam; 2|eps|^2)
    """
    if params.kerr == 0.0:
        raise KerrZero("moment formula needs kerr != 0")
    if m < 0 or n < 0:
        raise ValueError("moment orders must be >= 0")
    if m == 0 and n == 0:
        return 1.0 + 0.0j
    if params.pump == 0:
        return 0.0 + 0.0j
    sp = SteadyParams.from_params(params)
    eps, lam = sp.epsilon, sp.lam
    z2 = 2.0 * abs(eps) ** 2
    ln_eps = cmath.log(eps)
    ln_pref = (
        cmath.log(sp.norm_c)
        + n * ln_eps
        + m * np.conj(ln_eps)
        - complex_lgamma(np.conj(lam) + m)
        - complex_lgamma(lam + n)
    )
    return cmath.exp(ln_pref) * hyper_0f2(np.conj(lam) + m, lam + n, z2)
