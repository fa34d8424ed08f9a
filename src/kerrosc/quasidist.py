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

Grids are evaluated as matrix products, for a batch of R states on one grid
in one pass: every table that depends only on (s, axes, dim) is built once
and contracted with all R states together.  The Husimi grid is
Q = e^{-|beta|^2} v^H rho v with the coherent-vector table
v_m(beta) = beta^m / sqrt(m!), built once per block of 1024 points and
contracted with the stacked states in (R*dim, dim) @ (dim, 1024 // R)
products, so no product holds more values than one state's.  For s > -1
the k-th diagonal band of rho contributes e^{-2|beta|^2/(1-s)}
[(beta*)^k A_k + beta^k B_k], where A_k and B_k are sums over n of the
prefactor-weighted sub- and superdiagonal of rho against the scaled
Laguerre factors.  Those factors depend on beta only through |beta|^2, so
they are tabulated once per distinct |beta|^2 on the grid (a symmetric grid
repeats each value up to eight times), and the sums of all R states are one
(U, size) @ (size, 4R) product with that table.  The points are swept in
R blocks in order of |beta|^2, so each block needs only a slice of the
table and the batch's accumulators hold as many values as one grid's; each
block's values and imaginary residue are written out before the next one
starts.  The sub- and superdiagonal sums stay separate so the imaginary
residue of each grid still measures round-off.  A state's grid does not
depend on the batch it is in: the s > -1 values are bitwise the same, the
Husimi ones agree to round-off.

Gaussian states admit the closed form

    W^{(s)} = 1/(pi sqrt(K_s)) exp[(-a|u|^2 + Re(C* u^2))/K_s],
    u = beta - alpha,  a = (1-s)/2 + B,  K_s = a^2 - |C|^2,

valid while K_s > 0; K_1 <= 0 certifies nonclassicality.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    ImaginaryResidue,
    InvalidOrder,
    NegativeHusimi,
    NonpositiveKs,
    SParamOutOfRange,
)
from .fock import DensityMatrix
from .gaussian import GaussianState

_S_MAX = 1.0 - 1e-9  # largest ordering parameter s; `config` validates against it too
_BLOCK = 1024  # grid points per coherent-vector table (Husimi branch)


@dataclass(frozen=True, eq=False)
class QuasiGrid:
    """Real quasidistribution values on a uniform rectangular phase-space grid.

    values[..., i, j] = W^{(s)}(re_axis[j] + 1i * im_axis[i]); a leading
    axis, if any, runs over the states of a batch.
    """

    s: float
    re_axis: np.ndarray
    im_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        re = _checked_axis("re_axis", self.re_axis)
        im = _checked_axis("im_axis", self.im_axis)
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.ndim not in (2, 3) or vals.shape[-2:] != (im.shape[0], re.shape[0]):
            raise ValueError(
                f"values shape {vals.shape} does not end in "
                f"(len(im_axis), len(re_axis)) = ({im.shape[0]}, {re.shape[0]})"
            )
        if self.s == -1.0 and float(np.min(vals)) < -1e-12:
            raise NegativeHusimi(
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


def _scaled_laguerre_rows(out: np.ndarray, k: int, c: float, cx: np.ndarray) -> None:
    """Fill out[n] with M_n = c^n L_n^k(x) for n = 0..len(out)-1 given cx = c*x.

    The recurrence is written entirely in terms of c and cx, which stay
    bounded as s -> -1 where c -> 0 and x -> infinity.  Each row is built
    in place from the two before it.
    """
    out[0] = 1.0
    if out.shape[0] > 1:
        np.subtract((k + 1) * c, cx, out=out[1])
    scratch = np.empty_like(cx)
    for i in range(1, out.shape[0] - 1):
        row = out[i + 1]
        np.subtract((2 * i + k + 1) * c, cx, out=row)
        row *= out[i]
        np.multiply(out[i - 1], c * c * (i + k), out=scratch)
        row -= scratch
        row /= i + 1


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
    scaled, prev = 1.0, 0.0  # the recurrence of _scaled_laguerre_rows, in scalars
    for i in range(n):
        scaled, prev = (
            ((2 * i + k + 1) * c - cx) * scaled - c * c * (i + k) * prev
        ) / (i + 1), scaled
    pref = math.exp(
        0.5 * (math.lgamma(n + 1) - math.lgamma(m + 1))
        - 2.0 * b2 / (1.0 - s)
        + (k + 1) * math.log(2.0 / (1.0 - s))
    )
    return pref * np.conj(beta) ** k * scaled


def quasidistribution(
    rho: DensityMatrix | Sequence[DensityMatrix], s: float, re_axis, im_axis
) -> QuasiGrid:
    """Evaluate W^{(s)}(beta) = (1/pi) sum_{mn} rho_mn <n|T^{(s)}|m> on a grid.

    `rho` is one DensityMatrix or a sequence of them of one dimension; the
    tables the grid needs are built once for the whole sequence.  One state,
    or a sequence of one, gives values of shape (len(im_axis), len(re_axis));
    R > 1 states give shape (R, len(im_axis), len(re_axis)) in sequence order.
    """
    s = _check_s(s)
    re = _checked_axis("re_axis", np.asarray(re_axis))
    im = _checked_axis("im_axis", np.asarray(im_axis))
    states = [rho] if isinstance(rho, DensityMatrix) else list(rho)
    if not states:
        raise ValueError("need at least one state")
    dim = states[0].dim
    if any(state.dim != dim for state in states):
        raise ValueError("all states of a batch must have one dimension")
    count = len(states)
    r = np.stack([state.elements for state in states])
    vals = np.empty((count, im.shape[0] * re.shape[0]))
    scale = np.zeros(count)
    residue = np.zeros(count)
    blocks = _husimi_blocks(r, re, im) if s == -1.0 else _band_blocks(r, re, im, s)
    for points, w in blocks:
        np.maximum(scale, np.max(np.abs(w.real), axis=1), out=scale)
        np.maximum(residue, np.max(np.abs(w.imag), axis=1), out=residue)
        vals[:, points] = w.real / math.pi
    for j in range(count):
        if residue[j] > 1e-10 * max(scale[j], 1e-300):
            raise ImaginaryResidue(
                f"imaginary residue {residue[j]:.3e} exceeds 1e-10 of grid max "
                f"{scale[j]:.3e}" + (f" (state {j})" if count > 1 else "")
            )
    if s == -1.0:
        vals[(vals < 0.0) & (vals > -1e-12)] = 0.0
    shape = (im.shape[0], re.shape[0])
    vals = vals.reshape(shape if count == 1 else (count,) + shape)
    return QuasiGrid(s=s, re_axis=re, im_axis=im, values=vals)


def _husimi_blocks(r: np.ndarray, re: np.ndarray, im: np.ndarray):
    # <beta|rho|beta> = e^{-|beta|^2} v^H rho v with unnormalized coherent
    # vectors v_m = beta^m/sqrt(m!), contracted with all states at once
    count, dim = r.shape[0], r.shape[1]
    beta = (re[None, :] + 1j * im[:, None]).ravel()
    stacked = r.reshape(count * dim, dim)
    step = max(1, _BLOCK // count)
    table = np.empty((dim, min(_BLOCK, beta.shape[0])), dtype=complex)
    for block in range(0, beta.shape[0], _BLOCK):
        b = beta[block : block + _BLOCK]
        v = table[:, : b.shape[0]]
        v[0] = 1.0
        for mm in range(1, dim):
            np.multiply(v[mm - 1], b, out=v[mm])
            v[mm] /= math.sqrt(mm)
        for start in range(0, b.shape[0], step):
            vs = v[:, start : start + step]
            rv = (stacked @ vs).reshape(count, dim, vs.shape[1])
            quad = np.einsum("ig,rig->rg", np.conj(vs), rv)
            del rv  # not held while the next product is built
            points = slice(block + start, block + start + vs.shape[1])
            yield points, quad * np.exp(-np.abs(b[start : start + step]) ** 2)


def _band_blocks(r: np.ndarray, re: np.ndarray, im: np.ndarray, s: float):
    # The k-th diagonal contributes e^{-2|beta|^2/(1-s)} times
    #   (beta*)^k sum_n pref_n rho_{n+k,n} M_n^k + beta^k sum_n pref_n rho_{n,n+k} M_n^k
    # with M_n^k real and a function of |beta|^2 alone.  Points are taken in
    # order of |beta|^2, so a block's distinct values are one slice of the
    # sorted distinct ones.
    count, dim = r.shape[0], r.shape[1]
    beta = (re[None, :] + 1j * im[:, None]).ravel()
    b2_points = np.abs(beta) ** 2
    order = np.argsort(b2_points, kind="stable")
    conj_beta = np.conj(beta[order])
    b2, inv = np.unique(b2_points[order], return_inverse=True)
    del beta, b2_points
    c = (s + 1.0) / (s - 1.0)
    cx = -4.0 * b2 / (1.0 - s) ** 2
    gauss = np.exp(-2.0 * b2 / (1.0 - s))
    log2f = math.log(2.0 / (1.0 - s))
    lgam = np.array([math.lgamma(i + 1) for i in range(dim)])
    # per band, the prefactor-weighted subdiagonals of all states, then their
    # conjugated superdiagonals: a real (size, 4R) view of (size, 2R) values
    bands = []
    for k in range(dim):
        size = dim - k
        pref = np.exp(0.5 * (lgam[:size] - lgam[k:]) + (k + 1) * log2f)
        band = np.empty((size, 2 * count), dtype=complex)
        band[:, :count] = np.diagonal(r, -k, axis1=1, axis2=2).T
        band[:, count:] = np.conj(np.diagonal(r, k, axis1=1, axis2=2)).T
        band *= pref[:, None]
        bands.append(band.view(float))
    # R blocks, so the batch's accumulators hold as many values as one
    # grid's; the block buffers are allocated once, for the longest block
    # and the widest span of distinct values
    total = order.shape[0]
    step = -(-total // count)
    starts = range(0, total, step)
    spans = []  # the slice of distinct |beta|^2 values each block needs
    for start in starts:
        lo, hi = int(inv[start]), int(inv[min(start + step, total) - 1]) + 1
        if hi - lo == 1 and b2.shape[0] > 1:
            # a one-row product would go through a matrix-vector kernel that
            # rounds differently, so take a neighbouring value along
            lo = min(lo, b2.shape[0] - 2)
            hi = lo + 2
        spans.append((lo, hi))
    lag_buf = np.empty((dim, max(hi - lo for lo, hi in spans)))
    # acc[0]: the subdiagonal terms of each state, acc[1]: the complex
    # conjugate of its superdiagonal ones
    acc_buf = np.empty((2, count, step), dtype=complex)
    term_buf = np.empty((count, step), dtype=complex)
    for start, (lo, hi) in zip(starts, spans):
        stop = min(start + step, total)
        local = inv[start:stop]
        local -= lo
        power = gauss[lo:hi][local].astype(complex)
        lag = lag_buf[:, : hi - lo]
        acc = acc_buf[:, :, : stop - start]
        term = term_buf[:, : stop - start]
        acc.fill(0.0)
        for k in range(dim):
            size = dim - k
            _scaled_laguerre_rows(lag[:size], k, c, cx[lo:hi])
            # one real (U, size) @ (size, 4R) product, read back as (U, 2R) complex
            sums = (lag[:size].T @ bands[k]).view(complex)
            if k:  # the main diagonal has no separate superdiagonal
                power *= conj_beta[start:stop]
                np.take(sums[:, count:].T, local, axis=1, out=term)
                term *= power
                acc[1] += term
            np.take(sums[:, :count].T, local, axis=1, out=term)
            term *= power
            acc[0] += term
        np.conjugate(acc[1], out=acc[1])
        acc[0] += acc[1]
        yield order[start:stop], acc[0]


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
