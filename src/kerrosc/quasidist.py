"""s-parametrized quasidistributions on phase-space grids.

W^{(s)}(beta) = (1/pi) Tr[rho T^{(s)}(beta)] is assembled from the
number-basis matrix elements of the operator T^{(s)}; for m >= n

    <n|T^{(s)}(beta)|m> = sqrt(n!/m!) (2/(1-s))^{m-n+1} ((s+1)/(s-1))^n
                          (beta*)^{m-n} e^{-2|beta|^2/(1-s)}
                          L_n^{m-n}(4|beta|^2/(1-s^2)),

with the m < n elements given by Hermitian conjugation and the s = -1
(Husimi) limit by the exact coherent-projector form
e^{-|beta|^2} beta^n (beta*)^m / sqrt(n! m!).  The Laguerre factor is
accumulated pre-multiplied by ((s+1)/(s-1))^n so every intermediate stays
bounded even as s -> -1.

Grids are evaluated as matrix products.  The Husimi grid is
Q = e^{-|beta|^2} v^H rho v with the coherent-vector table
v_m(beta) = beta^m / sqrt(m!), built and contracted for blocks of at most
1024 points at a time to bound memory.  For s > -1 the k-th diagonal band
of rho contributes e^{-2|beta|^2/(1-s)} [(beta*)^k A_k + beta^k B_k], where
A_k and B_k are sums over n of the prefactor-weighted sub- and
superdiagonal of rho against the scaled Laguerre factors.  Those factors
depend on beta only through |beta|^2, so they are tabulated once per
distinct |beta|^2 on the grid (a symmetric grid repeats each value up to
eight times), both sums are one product with that table, and the results
are gathered back onto the points.  The two sums stay separate so the
imaginary residue of the grid still measures round-off.

Gaussian states admit the closed form

    W^{(s)} = 1/(pi sqrt(K_s)) exp[(-a|u|^2 + Re(C* u^2))/K_s],
    u = beta - alpha,  a = (1-s)/2 + B,  K_s = a^2 - |C|^2,

valid while K_s > 0; K_1 <= 0 certifies nonclassicality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidOrder, NonpositiveKs, SParamOutOfRange
from .fock import DensityMatrix
from .gaussian import GaussianState

_S_MAX = 1.0 - 1e-9  # largest ordering parameter s; `config` validates against it too
_BLOCK = 1024  # grid points per coherent-vector table in the Husimi branch


@dataclass(frozen=True, eq=False)
class QuasiGrid:
    """Real quasidistribution values on a uniform rectangular phase-space grid.

    values[i, j] = W^{(s)}(re_axis[j] + 1i * im_axis[i]).
    """

    s: float
    re_axis: np.ndarray
    im_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        re = _checked_axis("re_axis", self.re_axis)
        im = _checked_axis("im_axis", self.im_axis)
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.shape != (im.shape[0], re.shape[0]):
            raise ValueError(
                f"values shape {vals.shape} does not match "
                f"(len(im_axis), len(re_axis)) = ({im.shape[0]}, {re.shape[0]})"
            )
        if self.s == -1.0 and float(np.min(vals)) < -1e-12:
            raise ValueError(
                f"Husimi values must be nonnegative, found {np.min(vals):.3e}"
            )
        for name, arr in (("re_axis", re), ("im_axis", im), ("values", vals)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "s", float(self.s))


def _checked_axis(name: str, axis: np.ndarray) -> np.ndarray:
    arr = np.array(axis, dtype=float, copy=True)
    if arr.ndim != 1 or arr.shape[0] < 2:
        raise ValueError(f"{name} must be 1-d with at least two points")
    steps = np.diff(arr)
    if np.min(steps) <= 0:
        raise ValueError(f"{name} must be strictly increasing")
    if np.max(steps) - np.min(steps) > 1e-9 * np.max(steps):
        raise ValueError(f"{name} must be uniformly spaced")
    return arr


def _check_s(s: float) -> float:
    s = float(s)
    if not (-1.0 <= s <= _S_MAX):
        raise SParamOutOfRange(
            f"s = {s} outside [-1, 1 - 1e-9]; s = 1 is excluded "
            "(no regular function exists there for these states)"
        )
    return s


def associated_laguerre(n: int, k: int, x):
    """Associated Laguerre polynomial L_n^k(x) by upward recurrence in degree.

    Accepts scalar or ndarray x; requires n >= 0 and n + k >= 0.
    """
    if n < 0 or n + k < 0:
        raise InvalidOrder(f"need n >= 0 and n + k >= 0, got n = {n}, k = {k}")
    prev = np.ones_like(np.asarray(x, dtype=float)) if np.ndim(x) else 1.0
    if n == 0:
        return prev
    cur = 1.0 + k - x
    for i in range(1, n):
        prev, cur = cur, ((2 * i + k + 1 - x) * cur - (i + k) * prev) / (i + 1)
    return cur


def _scaled_laguerre_seq(n_max: int, k: int, c: float, cx):
    """Yield M_n = c^n L_n^k(x) for n = 0..n_max given cx = c*x.

    The recurrence is written entirely in terms of c and cx, which stay
    bounded as s -> -1 where c -> 0 and x -> infinity.
    """
    prev = None
    cur = np.ones_like(cx) if np.ndim(cx) else 1.0
    for i in range(n_max + 1):
        yield cur
        nxt = (2 * i + k + 1) * c - cx
        nxt *= cur
        if prev is not None:
            nxt -= c * c * (i + k) * prev
        nxt /= i + 1
        prev, cur = cur, nxt


def cg_matrix_element(n: int, m: int, beta: complex, s: float) -> complex:
    """Number-basis matrix element <n|T^{(s)}(beta)|m>."""
    if n < 0 or m < 0:
        raise InvalidOrder(f"need n, m >= 0, got n = {n}, m = {m}")
    s = _check_s(s)
    if m < n:
        return complex(np.conj(cg_matrix_element(m, n, beta, s)))
    beta = complex(beta)
    b2 = abs(beta) ** 2
    k = m - n
    if s == -1.0:
        log_pref = -0.5 * (math.lgamma(n + 1) + math.lgamma(m + 1))
        return math.exp(-b2 + log_pref) * beta**n * np.conj(beta) ** m
    c = (s + 1.0) / (s - 1.0)
    cx = -4.0 * b2 / (1.0 - s) ** 2
    scaled = None
    for scaled in _scaled_laguerre_seq(n, k, c, cx):
        pass
    pref = math.exp(
        0.5 * (math.lgamma(n + 1) - math.lgamma(m + 1))
        - 2.0 * b2 / (1.0 - s)
        + (k + 1) * math.log(2.0 / (1.0 - s))
    )
    return pref * np.conj(beta) ** k * scaled


def quasidistribution(
    rho: DensityMatrix, s: float, re_axis, im_axis
) -> QuasiGrid:
    """Evaluate W^{(s)}(beta) = (1/pi) sum_{mn} rho_mn <n|T^{(s)}|m> on a grid."""
    s = _check_s(s)
    re = _checked_axis("re_axis", np.asarray(re_axis))
    im = _checked_axis("im_axis", np.asarray(im_axis))
    beta = re[None, :] + 1j * im[:, None]
    r = rho.elements
    dim = rho.dim
    if s == -1.0:
        w = _husimi_grid(r, dim, beta)
    else:
        w = _general_grid(r, dim, beta, s)
    scale = float(np.max(np.abs(w.real)))
    residue = float(np.max(np.abs(w.imag)))
    if residue > 1e-10 * max(scale, 1e-300):
        raise ValueError(
            f"imaginary residue {residue:.3e} exceeds 1e-10 of grid max {scale:.3e}"
        )
    vals = w.real / math.pi
    if s == -1.0:
        vals = np.where((vals < 0.0) & (vals > -1e-12), 0.0, vals)
    return QuasiGrid(s=s, re_axis=re, im_axis=im, values=vals)


def _husimi_grid(r: np.ndarray, dim: int, beta: np.ndarray) -> np.ndarray:
    # <beta|rho|beta> = e^{-|beta|^2} v^H r v with unnormalized coherent
    # vectors v_m = beta^m/sqrt(m!), one (dim, B) table per block of points
    flat = beta.ravel()
    w = np.empty(flat.shape, dtype=complex)
    for start in range(0, flat.shape[0], _BLOCK):
        b = flat[start : start + _BLOCK]
        v = np.empty((dim, b.shape[0]), dtype=complex)
        v[0] = 1.0
        for mm in range(1, dim):
            v[mm] = v[mm - 1] * b / math.sqrt(mm)
        quad = np.einsum("ig,ig->g", np.conj(v), r @ v)
        w[start : start + _BLOCK] = quad * np.exp(-np.abs(b) ** 2)
    return w.reshape(beta.shape)


def _general_grid(r: np.ndarray, dim: int, beta: np.ndarray, s: float) -> np.ndarray:
    # The k-th diagonal contributes e^{-2|beta|^2/(1-s)} times
    #   (beta*)^k sum_n pref_n rho_{n+k,n} M_n^k + beta^k sum_n pref_n rho_{n,n+k} M_n^k
    # with M_n^k real and a function of |beta|^2 alone: evaluate M once per
    # distinct |beta|^2, take both sums in one product and gather them back.
    b2, inv = np.unique(np.abs(beta.ravel()) ** 2, return_inverse=True)
    c = (s + 1.0) / (s - 1.0)
    cx = -4.0 * b2 / (1.0 - s) ** 2
    log2f = math.log(2.0 / (1.0 - s))
    lgam = np.array([math.lgamma(i + 1) for i in range(dim)])
    lag = np.empty((dim, b2.shape[0]))
    conj_beta = np.conj(beta.ravel())
    power = np.exp(-2.0 * b2 / (1.0 - s))[inv].astype(complex)
    # subdiagonal terms, and the complex conjugate of the superdiagonal ones
    sub = np.zeros(conj_beta.shape, dtype=complex)
    sup = np.zeros(conj_beta.shape, dtype=complex)
    term = np.empty(conj_beta.shape, dtype=complex)
    for k in range(dim):
        size = dim - k
        for n, scaled in enumerate(_scaled_laguerre_seq(size - 1, k, c, cx)):
            lag[n] = scaled
        pref = np.exp(0.5 * (lgam[:size] - lgam[k:]) + (k + 1) * log2f)
        bands = np.stack([np.diagonal(r, -k), np.conj(np.diagonal(r, k))], axis=1)
        bands *= pref[:, None]
        # one real (U, size) @ (size, 4) product, read back as (U, 2) complex
        sums = (lag[:size].T @ bands.view(float)).view(complex)
        if k:  # the main diagonal has no separate superdiagonal
            power *= conj_beta
            np.take(sums[:, 1], inv, out=term)
            term *= power
            sup += term
        np.take(sums[:, 0], inv, out=term)
        term *= power
        sub += term
    return (sub + np.conj(sup)).reshape(beta.shape)


def gaussian_quasidistribution(
    gs: GaussianState, s: float, re_axis, im_axis
) -> QuasiGrid:
    """Closed-form W^{(s)} of a Gaussian state on a grid.

    Requires K_s = ((1-s)/2 + B)^2 - |C|^2 > 0; a nonpositive K_s (possible
    for s near 1 on squeezed states) signals nonclassicality at this ordering.
    """
    s = float(s)
    if not (-1.0 <= s <= 1.0):
        raise SParamOutOfRange(f"s = {s} outside [-1, 1]")
    re = _checked_axis("re_axis", np.asarray(re_axis))
    im = _checked_axis("im_axis", np.asarray(im_axis))
    a = 0.5 * (1.0 - s) + gs.B
    k_s = a * a - abs(gs.C) ** 2
    if k_s <= 0.0 or a <= 0.0:
        raise NonpositiveKs(
            f"K_s = {k_s:.6g} at s = {s}: no regular Gaussian quasidistribution "
            "exists at this ordering (nonclassical state)"
        )
    u = re[None, :] + 1j * im[:, None] - gs.alpha
    expo = (-a * np.abs(u) ** 2 + (np.conj(gs.C) * u * u).real) / k_s
    vals = np.exp(expo) / (math.pi * math.sqrt(k_s))
    return QuasiGrid(s=s, re_axis=re, im_axis=im, values=vals)
