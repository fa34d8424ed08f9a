"""s-parametrized quasidistributions on phase-space grids.

W^{(s)}(beta) = (1/pi) Tr[rho T^{(s)}(beta)]; for m >= n the number-basis
matrix elements of T^{(s)} are

    <n|T^{(s)}(beta)|m> = sqrt(n!/m!) (2/(1-s))^{m-n+1} ((s+1)/(s-1))^n
                          (beta*)^{m-n} e^{-2|beta|^2/(1-s)}
                          L_n^{m-n}(4|beta|^2/(1-s^2)),

with the m < n elements given by Hermitian conjugation and the s = -1
(Husimi) limit by the exact coherent-projector form
e^{-|beta|^2} beta^n (beta*)^m / sqrt(n! m!).  `cg_matrix_element` evaluates
one element this way; its Laguerre factor is accumulated pre-multiplied by
((s+1)/(s-1))^n so every intermediate stays bounded even as s -> -1.

Grids are evaluated in a Hermite-Gaussian basis of the quadratures
X = 2 Re beta and Y = 2 Im beta, in which every order s is the same kernel:

* At s = 0, <n|T^{(0)}|m> / pi is 2/sqrt(pi) times the wave function of the
  two-mode state P_+^n P_-^m / sqrt(n! m!) |0,0>, a Laguerre-Gaussian mode,
  with P_+- = (A_X^dag +- i A_Y^dag) / sqrt(2) (Beijersbergen et al.,
  Opt. Commun. 96, 123 (1993)).  That state lies in the level a + b = m + n
  of the product states |a, b>, whose wave functions are h_a(X) h_b(Y) with
  the Hermite functions h_a, and its component along |a, b> is i^b times a
  real number.
* Any order s < 1 is the s = 0 function smoothed by a Gaussian of variance
  t = -s in X and in Y separately (Cahill & Glauber, Phys. Rev. 177, 1882
  (1969); for s > 0 the smoothing is inverted).  It takes h_a to phi_a with

      phi_0(X) = (1+t)^{-1/2} pi^{-1/4} e^{-X^2/(2(1+t))},
      phi_{a+1} = sqrt(2/(a+1)) X/(1+t) phi_a - q sqrt(a/(a+1)) phi_{a-1},
      q = (1-t)/(1+t).

  At s = -1, q = 0 and the rows are Gaussian-weighted monomials, so the
  recurrence stays bounded there.

So W^{(s)}(beta) = sum_ab K_ab phi_a(X) phi_b(Y), where K is the
(2 dim - 1)^2 matrix of components of 2/sqrt(pi) sum_mn rho_mn
P_+^n P_-^m / sqrt(n! m!) |0,0>, and a grid is Phi_im^T K^T Phi_re with one
(2 dim - 1, points) table Phi per axis.  The two-mode states of one level
N = m + n are built from those of level N - 1 with the symmetric recurrence
N |n, m> = sqrt(n) P_+ |n-1, m> + sqrt(m) P_- |n, m-1>.  They depend only on
dim, so they are built once per dim and cached, and each level is contracted
with the anti-diagonal m + n = N of every state.  The coefficients are kept packed by level, and each state's K is
unpacked only for its own products.  The cost per state is O(dim^3) plus its products with the two
tables.  Every product takes one state at a time with the same shapes, so
a state's grid does not depend on the batch it is in.  For a Hermitian state K is real; its imaginary part is carried
through the same products into the imaginary residue of each grid, which
measures round-off.

Gaussian states admit the closed form

    W^{(s)} = 1/(pi sqrt(K_s)) exp[(-a|u|^2 + Re(C* u^2))/K_s],
    u = beta - alpha,  a = (1-s)/2 + B,  K_s = a^2 - |C|^2,

valid while K_s > 0; K_1 <= 0 certifies nonclassicality.
"""

from __future__ import annotations

import functools
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
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
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
    # c^n L_n^k(x) by upward recurrence in n, written in c and cx = c x alone
    scaled, prev = 1.0, 0.0
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
    size = 2 * dim - 1
    coeffs = _hermite_coefficients(np.stack([state.elements for state in states]))
    # each packed coefficient of level N goes to row b and column N - b of K^T
    level = np.repeat(np.arange(size), np.arange(1, size + 1))
    row = np.arange(level.shape[0]) - level * (level + 1) // 2
    col = level - row
    kt = np.zeros((2, size, size))  # the real part of K^T over its imaginary part
    table = _smoothed_hermite_rows(2.0 * np.concatenate((re, im)), -s, size)
    phi_re, phi_im = table[:, : re.shape[0]], table[:, re.shape[0] :].T
    vals = np.empty((count, im.shape[0], re.shape[0]))
    residue = np.empty((im.shape[0], re.shape[0]))
    for j in range(count):
        kt[:, row, col] = coeffs[j]
        # K^T Phi_re for the real and the imaginary part of K in one product
        half = kt.reshape(2 * size, size) @ phi_re
        np.matmul(phi_im, half[:size], out=vals[j])
        np.matmul(phi_im, half[size:], out=residue)
        scale, imag = float(np.max(np.abs(vals[j]))), float(np.max(np.abs(residue)))
        if imag > 1e-10 * max(scale, 1e-300):
            raise ImaginaryResidue(
                f"imaginary residue {imag:.3e} exceeds 1e-10 of grid max "
                f"{scale:.3e}" + (f" (state {j})" if count > 1 else "")
            )
    del coeffs  # not held while QuasiGrid copies the values
    if s == -1.0:
        vals[(vals < 0.0) & (vals > -1e-12)] = 0.0
    return QuasiGrid(s=s, re_axis=re, im_axis=im, values=vals[0] if count == 1 else vals)


def _smoothed_hermite_rows(x: np.ndarray, t: float, count: int) -> np.ndarray:
    """Rows phi_a(x), a < count: Hermite functions smoothed by a Gaussian of variance t."""
    out = np.empty((count, x.shape[0]))
    width = 1.0 + t
    q = (1.0 - t) / width
    u = x / width
    np.multiply(x, -0.5 * u, out=out[0])
    np.exp(out[0], out=out[0])
    out[0] *= math.pi**-0.25 / math.sqrt(width)
    np.multiply(u, math.sqrt(2.0) * out[0], out=out[1])
    scratch = np.empty_like(x)
    for a in range(1, count - 1):
        row = out[a + 1]
        np.multiply(u, out[a], out=row)
        row *= math.sqrt(2.0 / (a + 1))
        np.multiply(out[a - 1], q * math.sqrt(a / (a + 1)), out=scratch)
        row -= scratch
    return out


@functools.lru_cache(maxsize=4)
def _level_vectors(dim: int) -> tuple[np.ndarray, ...]:
    """The two-mode states of each level N < 2 dim - 1 at this dim, read-only.

    vectors[N][n - lo, a] is the real factor of the component of |n, N - n>
    along |a, N - a>, for n = lo..hi with lo = max(0, N - dim + 1) and
    hi = min(N, dim - 1).  They depend only on dim, so each dim builds them
    once: 0.78 MB at dim 46 and 6.0 MB at dim 91.
    """
    size = 2 * dim - 1
    root = np.sqrt(np.arange(size))
    levels = []
    # padded[1 + n - lo, a]: vectors[N] between one zero row above and one below
    padded = np.array([[0.0], [1.0], [0.0]])
    lo = 0
    for total in range(size):
        new_lo, hi = max(0, total - dim + 1), min(total, dim - 1)
        if total:
            n = np.arange(new_lo, hi + 1)
            # sqrt(2) P_+- w = shifted + straight or shifted - straight, with
            # shifted[a] = sqrt(a) w[a-1] and straight[a] = sqrt(total - a) w[a]
            shifted = np.zeros((padded.shape[0], total + 1))
            np.multiply(padded, root[1 : total + 1], out=shifted[:, 1:])
            straight = np.zeros_like(shifted)
            np.multiply(padded, root[total:0:-1], out=straight[:, :-1])
            plus, minus = shifted + straight, shifted - straight
            first = new_lo - lo  # the row of |n - 1, total - n> for n = new_lo
            weight = total * math.sqrt(2.0)
            padded = np.zeros((n.shape[0] + 2, total + 1))
            inner = padded[1:-1]
            np.multiply(plus[first : first + n.shape[0]], (root[n] / weight)[:, None], out=inner)
            inner += minus[first + 1 : first + 1 + n.shape[0]] * (root[total - n] / weight)[:, None]
            lo = new_lo
        vectors = np.array(padded[1:-1])
        vectors.setflags(write=False)
        levels.append(vectors)
    return tuple(levels)


def _hermite_coefficients(r: np.ndarray) -> np.ndarray:
    """The coefficients K of each of the (R, dim, dim) states r, packed by level.

    out[j, 0, N (N + 1) / 2 + b] + 1j * out[j, 1, N (N + 1) / 2 + b] is the
    coefficient of h_{N-b}(X) h_b(Y) in 2/sqrt(pi) sum_mn r[j, m, n] |n, m>,
    where |n, m> = P_+^n P_-^m / sqrt(n! m!) |0,0>, for N < 2 dim - 1.
    """
    count, dim = r.shape[0], r.shape[1]
    size = 2 * dim - 1
    out = np.empty((count, 2, size * (size + 1) // 2))
    # i^b, with the normalization 2/sqrt(pi) of the s = 0 function
    phase = (2.0 / math.sqrt(math.pi)) * np.array([1.0, 1j, -1.0, -1j])[np.arange(size) % 4]
    for total, vectors in enumerate(_level_vectors(dim)):
        n = np.arange(max(0, total - dim + 1), min(total, dim - 1) + 1)
        anti = np.ascontiguousarray(r[:, total - n, n]).view(float).reshape(count, -1, 2)
        # one (total + 1, rows) @ (rows, 2) product per state, whatever the batch
        sums = np.matmul(vectors.T, anti).view(complex)[..., 0]
        terms = sums[:, ::-1] * phase[: total + 1]  # b = 0..total
        start = total * (total + 1) // 2
        out[:, 0, start : start + total + 1] = terms.real
        out[:, 1, start : start + total + 1] = terms.imag
    return out


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
