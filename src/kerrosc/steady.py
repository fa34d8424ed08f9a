"""Exact steady state of the pumped dissipative Kerr oscillator.

The closed-form density matrix

    rho_mn = C (eps*)^m eps^n 0F2(lam*+m, lam+n; |eps|^2)
             / [sqrt(m! n!) Gamma(lam*+m) Gamma(lam+n)]

with eps = -i p / G, lam = -i gamma0 / G and the normalization constant
C = Gamma(lam*) Gamma(lam) / 0F2(lam*, lam; 2|eps|^2), together with the
matching factorial-moment formula.  The special functions are implemented
here from scratch: a complex log Gamma, and one 0F2 series that runs
elementwise over arrays, so the density matrix takes a single call.  C and
every prefactor stay in log space, since Gamma(lam) underflows at weak Kerr
and Gamma(lam + n) overflows at large n.
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
    LossZero,
    NonconvergenceWithinMaxTerms,
    PoleAtNonpositiveInteger,
)
from .fock import DensityMatrix, FockCutoff, OscillatorParams

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
# a series term past this is rescaled, with its power of two carried apart
_RESCALE_AT = 2.0**256
# a scale past 2^_MAX_EXP2 (about e^45000) is out of reach of every caller: the
# steady-state normalization gets there only near <n> = 22000
_MAX_EXP2 = 1 << 16
_LN_2 = math.log(2.0)


def _nonpositive_integer(z):
    """Whether z (a scalar, or elementwise over an array) is 0, -1, -2, ..."""
    return (np.imag(z) == 0.0) & (np.real(z) <= 0.0) & (np.real(z) == np.round(np.real(z)))


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
    if z.imag == 0.0 and _nonpositive_integer(z):  # the cheap test first
        raise PoleAtNonpositiveInteger(f"Gamma pole at z = {z}")
    if z.real < 0.5:
        # reflection: log Gamma(z) = log pi - log sin(pi z) - log Gamma(1-z)
        return _LOG_PI - _log_sin_pi(z) - complex_lgamma(1.0 - z)
    z -= 1.0
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_2PI + (z + 0.5) * cmath.log(t) - t + cmath.log(_lanczos_sum(z))


def _hyper_0f2_series(a, b, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """0F2(a, b; z) as value * 2^exp2, and the max |term| seen on the same scale.

    Elementwise over broadcast arrays.  Each element runs its own series:
    terms from running Pochhammer products (no Gamma ratios), compensated
    (Kahan) summation, since for complex parameters the terms rotate in
    phase and can grow large before decaying, and a stop after three
    consecutive terms below 1e-16 of the sum.  Only the elements still
    running are carried on, so a stopped one is final.  Once a term passes
    `_RESCALE_AT`, that element's term, sum, compensation and max term are
    divided by the power of two nearest below the term, exactly, and the
    power goes into exp2: the sum stays in range however large the series
    gets, and an element that never rescales (exp2 = 0) is summed exactly
    as without scaling.
    """
    a, b, z = np.broadcast_arrays(
        np.asarray(a, dtype=complex), np.asarray(b, dtype=complex), np.asarray(z, dtype=float)
    )
    shape, a, b, z = a.shape, a.ravel(), b.ravel(), z.ravel()
    if _nonpositive_integer(a).any() or _nonpositive_integer(b).any():
        raise PoleAtNonpositiveInteger("0F2 series parameter at a pole 0, -1, -2, ...")
    if (z < 0).any():
        raise ValueError(f"series argument must be >= 0, got {float(z.min())}")
    value, max_term = np.empty(a.size, dtype=complex), np.empty(a.size)
    exp2 = np.zeros(a.size, dtype=int)
    live = np.arange(a.size)
    total, term = np.ones(a.size, dtype=complex), np.ones(a.size, dtype=complex)
    comp = np.zeros(a.size, dtype=complex)  # Kahan compensation
    peak, small = np.ones(a.size), np.zeros(a.size, dtype=int)
    shift = np.zeros(a.size, dtype=int)
    k = 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # raises below
        while live.size:
            term = term * z / ((k + 1) * (a + k) * (b + k))
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            k += 1
            mag = np.abs(term)
            peak = np.maximum(peak, mag)
            big = mag > _RESCALE_AT
            out_of_range = False
            if big.any():
                up = np.where(big, np.frexp(mag)[1] - 1, 0)
                scale = np.ldexp(1.0, -up)
                term, total, comp, peak, mag = (
                    x * scale for x in (term, total, comp, peak, mag)
                )
                shift = shift + up
                out_of_range = shift.max() > _MAX_EXP2
            if k > _MAX_TERMS or out_of_range or not np.isfinite(total).all():
                raise NonconvergenceWithinMaxTerms(
                    f"0F2 series did not converge: past {_MAX_TERMS} terms or out of "
                    f"range even scaled after {k} (z = {float(z.max())})"
                )
            small = np.where(mag < 1e-16 * np.abs(total), small + 1, 0)
            done = small >= 3
            if done.any():
                stop = live[done]
                value[stop], max_term[stop], exp2[stop] = total[done], peak[done], shift[done]
                live, a, b, z, total, comp, term, peak, small, shift = (
                    x[~done] for x in (live, a, b, z, total, comp, term, peak, small, shift)
                )
    return value.reshape(shape), max_term.reshape(shape), exp2.reshape(shape)


def _unscaled(value: np.ndarray, exp2: np.ndarray, z) -> np.ndarray:
    """value * 2^exp2; `NonconvergenceWithinMaxTerms` where it leaves the double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = value * np.ldexp(1.0, exp2)
    if not np.isfinite(value).all():
        raise NonconvergenceWithinMaxTerms(
            f"0F2 value out of the double range (z = {float(np.max(z))})"
        )
    return value


def hyper_0f2(a, b, z):
    """Generalized hypergeometric 0F2(a, b; z) = sum_k z^k / (k! (a)_k (b)_k).

    Broadcasts over array arguments; scalar arguments return a `complex`.
    """
    value, _, exp2 = _hyper_0f2_series(a, b, z)
    value = _unscaled(value, exp2, z)
    return complex(value) if value.ndim == 0 else value


def hyper_0f2_diagnostic(a, b, z):
    """(value, max|term|/|value|): large ratios flag double-precision strain."""
    value, max_term, exp2 = _hyper_0f2_series(a, b, z)
    ratio = max_term / np.abs(value)
    value = _unscaled(value, exp2, z)
    return (complex(value), float(ratio)) if value.ndim == 0 else (value, ratio)


def _require_closed_form(params: OscillatorParams) -> None:
    if params.kerr == 0.0:
        raise KerrZero(
            "closed-form steady state needs kerr != 0; for kerr = 0 the "
            "steady state is the coherent state with amplitude pump/loss"
        )
    if params.loss == 0.0:
        raise LossZero(
            "closed-form steady state needs loss > 0; without loss nothing "
            "damps the oscillator and there is no stationary state"
        )


@dataclass(frozen=True)
class SteadyParams:
    """Reduced parameters of the closed-form steady state.

    epsilon = -i pump / kerr, lam = -i loss / kerr, and the log of the
    normalization constant C = Gamma(lam*) Gamma(lam) / 0F2(lam*, lam; 2|epsilon|^2),
    kept as a log because Gamma(lam) underflows at weak Kerr.  The 0F2 is
    summed scaled (`_hyper_0f2_series`), its log scale carried into ln_norm_c:
    its largest term grows like e^(2<n>) and leaves the double range once
    <n> passes about 350.
    """

    epsilon: complex
    lam: complex
    ln_norm_c: complex

    @property
    def norm_c(self) -> complex:
        return cmath.exp(self.ln_norm_c)

    @classmethod
    def from_params(cls, params: OscillatorParams) -> "SteadyParams":
        _require_closed_form(params)
        eps = -1j * params.pump / params.kerr
        lam = -1j * params.loss / params.kerr
        # the product is inf where |eps|^2 leaves the double range, which the
        # series reports as a typed failure; ** would raise OverflowError
        f0, _, exp2 = _hyper_0f2_series(lam.conjugate(), lam, 2.0 * abs(eps) * abs(eps))
        ln_norm_c = (
            complex_lgamma(lam.conjugate()) + complex_lgamma(lam)
            - cmath.log(complex(f0)) - float(exp2) * _LN_2
        )
        return cls(epsilon=eps, lam=lam, ln_norm_c=ln_norm_c)


@lru_cache(maxsize=16)
def steady_density(params: OscillatorParams, cutoff: FockCutoff) -> DensityMatrix:
    """Assemble the closed-form steady-state density matrix.

    All dim^2 series run as one array call of `hyper_0f2`; the prefactors
    are an outer sum of log-space row and column vectors, exponentiated once,
    so the assembly stays finite far past the n ~ 145 where Gamma(lam + n)
    overflows.  Before hermitizing, a diagonal tail above 1e-8 is
    `CutoffTooSmall`; only then is a trace or Hermiticity defect above 1e-8
    `DriftTooLarge`, an end-to-end check of the special functions.
    """
    _require_closed_form(params)
    dim = cutoff.dim
    if params.pump == 0:
        el = np.zeros((dim, dim), dtype=complex)
        el[0, 0] = 1.0
        return DensityMatrix(el)
    sp = SteadyParams.from_params(params)
    lam_c, ln_eps = sp.lam.conjugate(), cmath.log(sp.epsilon)
    # row n: C eps^n / [sqrt(n!) Gamma(lam+n)]; column m: the same in lam*, eps*
    ln_row = np.array([sp.ln_norm_c + n * ln_eps - 0.5 * math.lgamma(n + 1)
                       - complex_lgamma(sp.lam + n) for n in range(dim)])
    ln_col = np.array([m * ln_eps.conjugate() - 0.5 * math.lgamma(m + 1)
                       - complex_lgamma(lam_c + m) for m in range(dim)])
    k = np.arange(dim)
    series = hyper_0f2(lam_c + k[None, :], sp.lam + k[:, None], abs(sp.epsilon) ** 2)
    el = np.exp(ln_row[:, None] + ln_col[None, :]) * series
    diag_tail = float(np.sum(el.diagonal().real[-3:]))
    if diag_tail > 1e-8:
        raise CutoffTooSmall(
            f"steady-state diagonal tail {diag_tail:.3e} at n_cut={cutoff.n_cut}"
        )
    trace_dev = abs(complex(np.trace(el)) - 1.0)
    herm_dev = float(np.max(np.abs(el - el.conj().T)))
    if not (trace_dev <= 1e-8 and herm_dev <= 1e-8):  # NaN fails too
        raise DriftTooLarge(
            f"steady assembly drift: |Tr-1| = {trace_dev:.3e}, "
            f"Hermiticity defect = {herm_dev:.3e} (budget 1e-8)"
        )
    # (el + el^dag)/2 is exactly Hermitian, so it takes the trusted path
    sym = 0.5 * (el + el.conj().T)
    return DensityMatrix(sym / np.trace(sym).real, hermitian=True)


def steady_moment(m: int, n: int, params: OscillatorParams) -> complex:
    """Normally ordered steady-state moment <(a^dag)^m a^n>.

    <(a^dag)^m a^n> = (eps*)^m eps^n
                      * Gamma(lam*) Gamma(lam) / [Gamma(lam*+m) Gamma(lam+n)]
                      * 0F2(lam*+m, lam+n; 2|eps|^2) / 0F2(lam*, lam; 2|eps|^2)

    Both 0F2 are summed scaled, their log scales added to the log prefactor,
    so the ratio stays finite where each series alone leaves the double range.
    """
    _require_closed_form(params)
    if m < 0 or n < 0:
        raise ValueError("moment orders must be >= 0")
    if m == 0 and n == 0:
        return 1.0 + 0.0j
    if params.pump == 0:
        return 0.0 + 0.0j
    sp = SteadyParams.from_params(params)
    lam_c, ln_eps = sp.lam.conjugate(), cmath.log(sp.epsilon)
    ln_pref = sp.ln_norm_c + n * ln_eps + m * ln_eps.conjugate()
    ln_pref -= complex_lgamma(lam_c + m) + complex_lgamma(sp.lam + n)
    value, _, exp2 = _hyper_0f2_series(lam_c + m, sp.lam + n, 2.0 * abs(sp.epsilon) ** 2)
    return cmath.exp(ln_pref + float(exp2) * _LN_2) * complex(value)
