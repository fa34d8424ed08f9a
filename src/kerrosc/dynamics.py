"""Time evolution engines.

The full quantum evolution integrates the zero-temperature master equation

    d rho / dt = -i [H, rho] + gamma0 (2 a rho a^dag - a^dag a rho - rho a^dag a),
    H = i (p a^dag - p* a) + G a^dag^2 a^2,

with an adaptive ninth-order Krylov stepper on the truncated density matrix,
hermitizing and renormalizing after every accepted step.  H is
tridiagonal and a bidiagonal in the Fock basis, so the right-hand side is a
stencil on the flattened rho, flat index m*dim + n: a diagonal factor plus five
bands, each one elementwise product with a contiguous shifted slice (offsets
-dim, +dim, +1, -1 and dim+1), with the coefficients zeroed where a column shift
would wrap into the next row.  There are no dense matrix products.  The
stencil is bound to the buffer it works in: `liouvillian_generator(params,
chain)` builds the bands and the flat views of each pair of rows once per
chain buffer, and the RHS call `step(j)` writes chain[j] = L chain[j-1].

The master equation is linear and autonomous, d rho/dt = L rho, so an explicit
Runge-Kutta step of size h is a polynomial in hL (Hairer, Norsett & Wanner,
Solving ODEs I, II.6 and IV.2).  `evolve` builds its step directly as one:
p(z) = sum_{j<=9} z^j/j! + c10 z^10 + ... + c13 z^13, ninth order and
degree 13, with c10..c13 chosen for a large stability region next to the
imaginary axis, where the Kerr frequencies put the spectrum of L (Ketcheson &
Ahmadia, CAMCoS 7 (2012)).  Its stable radius is 8.72 along the ray of
the bundled point's extreme eigenvalue (96.5 degrees) against 2.73 for the
Dormand-Prince 5(4) step, and |p(iy)| <= 1 + 4.2e-7 for y <= 5.70: at
loss 0, where the spectrum of L lies on the imaginary axis, a step with
h |lambda| <= 5.70 grows no mode by more than that factor.  Per accepted
step the chain v_j = L^j y, j = 0..14, costs thirteen RHS calls (v_1 is the
previous step's first-same-as-last derivative); the new state
sum_j c_j h^j v_j, the error vector and the next derivative L y_new are one
weighted sum over the chain.  The error vector is p(hL) y minus the Taylor
polynomial of degree 8, whose weights start at h^9, so the controller scales
the step by err^(-1/9).  It is measured in the max norm over entries, so the
tolerance binds on every populated entry whatever the cutoff.  A rejected
step re-weights the same chain with the smaller h and calls no RHS.  Output samples never cut a
step short: a sample time t + s inside an accepted step [t, t + h] is read off
the same polynomial as sum_j c_j s^j v_j, the step of size s from y, so the
step sequence and the final state do not depend on the output grid.

The integration covers only the leading d x d block of rho, the levels the
state populates, not the declared cutoff: the empty top levels would set the
stable step through their Kerr frequencies, about G n_cut^2, and the
tolerance would bind on their integration noise.  d is chosen from the
populations at t = 0 and again after every accepted step (`_block_size`):
it keeps `_HEADROOM` levels above the last level with population at least
1e-14, grows by 8 levels when one of the block's top `_TAIL_MARGIN`
populations exceeds 1e-13, and shrinks only by 4 levels or more.  A block
of a positive state is positive.  One rule serves every loss, 0 included.

Without pump the master equation has an exact solution, each diagonal of rho
evolving on its own; `unpumped_evolve` evaluates it at the sample times, in
blocks of `_MAP_BLOCK` times, with no integration.

Each engine is a plain iterator of `_project`ed samples in time order, each
with the trace drift removed since the previous one and its step counts.
One driver, `_guarded_stream`, runs the drift, tail-mass and positivity
guards on each in time order and hands it to a per-sample callback.  It
reads the samples ahead in stacks of `_SPECTRA_BATCH` of one block size,
and one worker thread computes each stack's spectra, the positivity
check's decomposition, in one stacked `eigvalsh` while the main thread
integrates the next stack; each spectrum is bit for bit the one a
decomposition of its own gives.  The driver holds at most two stacks, not
one sample, so its memory does not grow with the sample count.  An
integrator output stays at the block that reached it, d x d on the leading
levels of the declared basis: the guards, and whatever the callback measures, cost what the
populated levels cost, and the tail mass at the declared cutoff reads 0
while d <= dim - 5.  `stream_evolution`, the scenario runner's entry, picks
the engine (the exact map at pump 0) and leaves the keeping, and any
padding back to the declared cutoff, to its callback, so a run's memory
need not grow with its sample count.  `evolve` and `unpumped_evolve` pad
every output to the declared cutoff before its checks and collect them into
a `Trajectory`.

Alongside them live the closed-form maps used as oracles and cheap
approximations: the lossless Kerr phase map, the linear-damping amplitude, and
the nonlinear classical amplitude and linearized noise-moment ODEs.  Those two
share one loop, `_adaptive_rk`: the stage form of the Dormand-Prince 5(4)
tableau under the same step-size controller, one integration over the whole
grid.  Its steps cannot be read off a polynomial, so a step that would pass
the next sample is cut to end exactly on it; the step size and the
first-same-as-last derivative carry on across samples.
"""

from __future__ import annotations

import math
import queue
import threading
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import (
    CutoffExceeded,
    DriftTooLarge,
    PositivityLost,
    PumpNotZero,
    StepSizeUnderflow,
)
from .fock import (
    DensityMatrix,
    FockCutoff,
    OscillatorParams,
    StateVector,
    leading_block,
)

# Dormand-Prince 5(4) tableau (first-same-as-last).
_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
# difference between the 5th- and the embedded 4th-order weights
_DP_ERR = np.array((
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
))
# _DP_A as a square array: row i holds the stage-i weights, zero-padded
_DP_A_MAT = np.array([row + (0.0,) * (7 - len(row)) for row in _DP_A])

# The Krylov step.  For a linear autonomous f(y) = L y every explicit RK step
# of size h is a polynomial in hL.  The step is p(z) = sum_{j<=9} z^j/j! +
# c10 z^10 + ... + c13 z^13: ninth order, degree 13 (Ketcheson & Ahmadia,
# CAMCoS 7 (2012), for stability polynomials under order constraints).
# c10..c13 give a stable radius (the first r with |p(r e^{i theta})| > 1) of
# at least 8 on the rays theta = 91, 92, ..., 100 degrees, with
# |p(iy)| <= 1 + 1e-6 for y <= 5.  Those rays are where the
# Kerr frequencies, about G n^2 against a loss of gamma0 n, put the extreme
# eigenvalues of L: at the bundled point and n_cut 45 they are -45 -+ 396i,
# on the rays at -+96.5 degrees (|p| is symmetric under conjugation).  The
# radius is 8.72 there, against 2.73 for DP5, and |p(iy)| <= 1 + 4.2e-7 for
# y <= 5.70, so the step barely amplifies the imaginary-axis modes of a
# lossless run.
_KRYLOV_C = np.array(
    [1.0 / math.factorial(j) for j in range(10)]
    + [2.53133613311336e-07, 2.214680489876813e-08, 1.1448598567167368e-09, 7.383238209173668e-11]
)
# The error reference is the Taylor polynomial of degree 8, so the error
# vector p(hL) y minus it has weights that start at h^9, and the controller
# scales the step by err^(-1/9).
_KRYLOV_E = _KRYLOV_C.copy()
_KRYLOV_E[:9] = 0.0
_KRYLOV_EXPONENT = -1.0 / 9.0
# One trial step is one (3, 15) @ (15, 2N) product over the chain v_0..v_14:
# row 0 the new state sum_j c_j h^j v_j, row 1 the error vector, row 2 the
# derivative L y_new = sum_j c_j h^j v_(j+1) that the next step reuses.
# Weight [i, j] is _KRYLOV_W[i, j] * h ** _KRYLOV_W_EXP[i, j].
_CHAIN = _KRYLOV_C.shape[0] + 1
_KRYLOV_W = np.zeros((3, _CHAIN))
_KRYLOV_W[0, :-1] = _KRYLOV_C
_KRYLOV_W[1, :-1] = _KRYLOV_E
_KRYLOV_W[2, 1:] = _KRYLOV_C
_KRYLOV_POWERS = np.arange(float(_KRYLOV_C.shape[0]))
_KRYLOV_W_EXP = np.zeros((3, _CHAIN))
_KRYLOV_W_EXP[:2, :-1] = _KRYLOV_POWERS
_KRYLOV_W_EXP[2, 1:] = _KRYLOV_POWERS

# levels below the truncation edge whose population the tail guard watches
_TAIL_MARGIN = 5
# the rule of `_block_size` for the block `_linear_krylov` integrates
_FILLED = 1e-14
_HEADROOM = _TAIL_MARGIN + 6
_GROW_AT = 1e-13
_GROW_BY = 8
_SHRINK_BY = 4
# sample times per `_unpumped_map` call, so an exact run holds at most this
# many raw states whatever its sample count
_MAP_BLOCK = 64
# samples per stacked `eigvalsh` of `_guarded_stream`'s read-ahead: 8 lost to
# the hand-off latency, 16, 32 and 64 gained 15, 23 and 23% on `trajectory`
_SPECTRA_BATCH = 32
# a sample source: (sample, trace drift since the previous sample, (steps,
# rejected, rhs_calls, block, resizes)) in time order
_Samples = Iterator[tuple[np.ndarray, float, tuple[int, int, int, int, int]]]
# default master-equation tolerances of `evolve`, echoed in every artifact header
RTOL = 1e-8
ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing output times, starting at 0."""

    times: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.times, dtype=float, copy=True)
        if t.ndim != 1 or t.shape[0] < 1:
            raise ValueError("times must be a 1-d array with at least one entry")
        if t[0] != 0.0:
            raise ValueError(f"times must start at 0, got {t[0]}")
        if t.shape[0] > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)

    @classmethod
    def uniform(cls, t_max: float, count: int) -> "TimeGrid":
        if count < 2 or t_max <= 0:
            raise ValueError("need count >= 2 and t_max > 0")
        return cls(np.linspace(0.0, t_max, count))


@dataclass(frozen=True)
class StepDiagnostics:
    """Per-output-time integration diagnostics.

    trace_error : accumulated |trace change| before renormalization over the
                  segment ending at this output time: the accepted steps that
                  end in it, plus the output sample itself
    tail_mass   : population in the last `_TAIL_MARGIN` diagonal entries of
                  the declared cutoff at this time; exactly 0 while the
                  integrated block is at most dim - 5
    steps       : accepted steps completed at or before this time since t = 0
    rejected    : rejected trial steps since t = 0
    rhs_calls   : right-hand-side evaluations since t = 0, including those
                  of a step still in progress at this time: 1 + 13 per
                  accepted step + 1 per resize
    block       : the dimension integrated to reach this output
    resizes     : block resizes since t = 0
    min_eigenvalue : the smallest eigenvalue of the checked output, its
                  `DensityMatrix.spectrum[0]`: the margin to the -1e-9 floor

    Every count is 0 at t = 0 and for the exact map of `unpumped_evolve`.
    """

    trace_error: float
    tail_mass: float
    steps: int
    rejected: int
    rhs_calls: int
    block: int
    resizes: int
    min_eigenvalue: float


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Density matrices and diagnostics on a time grid."""

    times: TimeGrid
    states: tuple[DensityMatrix, ...]
    diagnostics: tuple[StepDiagnostics, ...]

    def __post_init__(self) -> None:
        n = self.times.times.shape[0]
        if len(self.states) != n or len(self.diagnostics) != n:
            raise ValueError("one state and one diagnostics record per time point")


@dataclass(frozen=True, eq=False)
class SemiclassicalPath:
    """Classical amplitude alpha(t) with optional linearized noise moments."""

    times: TimeGrid
    alpha: np.ndarray
    noise_B: np.ndarray | None
    noise_C: np.ndarray | None

    def __post_init__(self) -> None:
        n = self.times.times.shape[0]
        if self.alpha.shape != (n,):
            raise ValueError("alpha must have one entry per time point")
        if self.noise_B is not None:
            if self.noise_B.shape != (n,) or float(np.min(self.noise_B)) < -1e-12:
                raise ValueError("noise_B must stay >= -1e-12 at all times")


def _initial_step(
    y: np.ndarray, dy: np.ndarray, span: float, rtol: float, atol: float
) -> float:
    """First trial step from the scaled sizes of y and dy/dt, at most `span` (rtol, atol > 0)."""
    if rtol <= 0 or atol <= 0:
        raise ValueError("rtol and atol must be > 0")
    sc = atol + rtol * np.abs(y)
    d0 = math.sqrt(float(np.mean(np.abs(y / sc) ** 2)))
    d1 = math.sqrt(float(np.mean(np.abs(dy / sc) ** 2)))
    if d0 > 1e-300 and d1 > 1e-300:
        h = 0.01 * d0 / d1
    elif d1 <= 1e-300:
        # derivative negligible: start with a coarse step
        h = 0.1 * span
    else:
        # state at (or near) zero but moving: start tiny and let the
        # controller grow the step
        h = 1e-6 * span
    return min(h, span)


def _error_norm(
    err_vec: np.ndarray,
    abs_y: np.ndarray,
    y_new: np.ndarray,
    rtol: float,
    atol: float,
    work: np.ndarray | None = None,
) -> float:
    """Max over entries of |err| / (atol + rtol * max(|y|, |y_new|)).

    A maximum, not an RMS: the few populated entries of a density matrix
    must each meet the tolerance, however many nearly empty tail entries
    the cutoff adds to the mean.  `work`, if given, is a real (2,) + abs_y.shape
    buffer the two intermediate arrays are written into.
    """
    sc, ratio = np.empty((2,) + abs_y.shape) if work is None else work
    np.abs(y_new, out=sc)
    np.maximum(abs_y, sc, out=sc)
    sc *= rtol
    sc += atol
    np.abs(err_vec, out=ratio)
    ratio /= sc
    return float(ratio.max())


def _step_factor(err: float, exponent: float = -0.2) -> float:
    """Step-size factor 0.9 err^exponent after a trial step with error norm `err`, in [0.2, 5].

    The exponent is -1/(q + 1) for an error estimate of order q: -1/5 for
    DP5's, `_KRYLOV_EXPONENT` for the Krylov step's.
    """
    if err == 0.0:
        return 5.0
    return min(5.0, max(0.2, 0.9 * err ** exponent))


def _adaptive_rk(
    f: Callable[[np.ndarray], np.ndarray],
    y: np.ndarray,
    times: np.ndarray,
    rtol: float,
    atol: float,
) -> Iterator[np.ndarray]:
    """Integrate dy/dt = f(y) with embedded 5(4) step control, sampled at times[1:].

    The stage form, for the nonlinear semiclassical ODEs.  One integration
    runs from times[0] to times[-1] and yields y at each of times[1:] in
    order: a step that would pass the next sample is cut to end exactly on
    it, and the step size and the first-same-as-last derivative carry on
    into the next segment.
    """
    n = times.shape[0]
    if n < 2:
        return
    t = float(times[0])
    h_min = 1e-14 * max(1.0, abs(float(times[-1])))
    k0 = f(y)
    # the seven stage derivatives, flattened so each stage input and the
    # error vector are one weighted sum over the leading axis
    k = np.empty((7,) + k0.shape, dtype=np.result_type(y, k0))
    k[0] = k0
    k_flat = k.reshape(7, -1)
    h = _initial_step(y, k0, float(times[1]) - t, rtol, atol)
    idx = 1
    while idx < n:
        t_next = float(times[idx])
        cut = h >= t_next - t
        if cut:
            h = t_next - t
        if h < h_min:
            raise StepSizeUnderflow(f"step size {h:.3e} underflow at t = {t:.6g}")
        # cast once so the stage products run in the state's own dtype
        ha = (h * _DP_A_MAT).astype(k.dtype)
        for i in range(1, 7):
            yi = y + (ha[i, :i] @ k_flat[:i]).reshape(y.shape)
            k[i] = f(yi)
        y_new = yi  # stage 7 input is the 5th-order solution
        err_vec = ((h * _DP_ERR).astype(k.dtype) @ k_flat).reshape(y.shape)
        err = _error_norm(err_vec, np.abs(y), y_new, rtol, atol)
        if err <= 1.0:
            t = t_next if cut else t + h
            y = y_new
            k[0] = k[6]  # first-same-as-last
            if cut:
                yield y
                idx += 1
        h *= _step_factor(err)


def _block_size(pop: np.ndarray, dim: int) -> int:
    """The block to integrate next, from the populations `pop` of the current one.

    Grows by `_GROW_BY` levels (at most to dim) when one of the top
    `_TAIL_MARGIN` populations exceeds `_GROW_AT`.  Otherwise it is the
    smallest block that keeps `_HEADROOM` levels above the last level with
    population at least `_FILLED`, taken only when that drops at least
    `_SHRINK_BY` levels.  Populations, not coherences: those of empty levels
    stay clean to about 1e-18, while coherences near the edge carry about
    3e-12 of integration noise whatever the block.
    """
    d = pop.shape[0]
    if (pop[-_TAIL_MARGIN:] > _GROW_AT).any():
        return min(d + _GROW_BY, dim)
    # levels up to and including the last filled one
    filled = d - int((pop[::-1] >= _FILLED).argmax())
    fit = min(filled + _HEADROOM, dim)
    return fit if fit <= d - _SHRINK_BY else d


def _project(y: np.ndarray) -> tuple[np.ndarray, float]:
    """(y + y^dag) / (2 tr y), fresh and exactly Hermitian, and the drift |tr y - 1|."""
    tr = y.trace().real
    out = np.conjugate(y.T, order="C")
    out += y
    out *= 0.5 / tr
    return out, abs(tr - 1.0)


def _linear_krylov(
    params: OscillatorParams,
    rho: np.ndarray,
    times: np.ndarray,
    rtol: float,
    atol: float,
) -> _Samples:
    """The degree-13 Krylov step for d rho/dt = L rho, sampled at times[1:].

    Integrates from times[0] to times[-1] with the step polynomial
    `_KRYLOV_C`, the error weights `_KRYLOV_E` and the controller of
    `_adaptive_rk` at the exponent `_KRYLOV_EXPONENT`, cutting only the last
    step to end at times[-1].  Each accepted step costs 13 RHS calls, for
    v_2..v_14 of the chain v_j = L^j y.  Every accepted state and every
    sample read off a step polynomial goes through `_project`; a sample at
    the end of a step is the accepted state itself.  Yields (sample, drift,
    (steps, rejected, rhs_calls, block, resizes)) in time order: the drift
    `_project` removed since the previous sample, this one's included, the
    accepted steps completed at or before the sample, the rejected trial
    steps and RHS calls made so far, the size integrated and the resizes.

    Only the leading d x d block of the dim x dim density matrix rho is
    integrated, d from `_block_size` at t = 0 and again after every accepted
    step but the last.  The chain buffer is allocated at the start and at
    each resize, and L is built once per buffer, by
    `liouvillian_generator(params, chain)`: the RHS call `f(j)` writes
    chain[j] = L chain[j-1] through views bound to it.  A principal block
    of a positive state is positive, and growing pads with zeros.  A resize
    restarts the chain at one RHS call.  Samples are d x d, the block that
    reached them; padding them back to dim is the caller's choice.  Resizes
    look only at accepted states, so the steps do not depend on the grid.
    |y|, the weighted sums over the chain and the error norm work in
    buffers allocated once per block.
    """
    n = times.shape[0]
    if n < 2:
        return
    t, t_end = float(times[0]), float(times[-1])
    h_min = 1e-14 * max(1.0, abs(t_end))
    dim = rho.shape[0]

    def restart(x: np.ndarray) -> tuple[np.ndarray, ...]:
        # chain[j] = L^j x, complex, with f(j) = L bound to it; its real view
        # makes every weighted sum over the chain one real product with
        # (_CHAIN, 2N) rows.  With it come the buffers of this size: |x|, the
        # (3, 2N) product and the error norm's two rows.
        chain = np.empty((_CHAIN,) + x.shape, dtype=complex)
        chain[0] = x
        f = liouvillian_generator(params, chain)
        f(1)
        flat = chain.view(float).reshape(_CHAIN, -1)
        prod = np.empty((3, flat.shape[1]))
        return chain, flat, f, np.empty(x.shape), prod, np.empty((2,) + x.shape)

    y = leading_block(rho, _block_size(rho.diagonal().real, dim))
    d = y.shape[0]
    chain, flat, f, abs_y, prod, work = restart(y)
    calls = 1
    h = _initial_step(y, chain[1], t_end - t, rtol, atol)
    weights = np.empty_like(_KRYLOV_W)

    steps = rejected = resizes = 0
    drift = 0.0
    idx = 1
    stale = True
    while t < t_end:
        remaining = t_end - t
        last = h >= remaining
        if last:
            h = remaining
        if h < h_min:
            raise StepSizeUnderflow(f"step size {h:.3e} underflow at t = {t:.6g}")
        if stale:
            for j in range(2, _CHAIN):
                f(j)
            calls += _CHAIN - 2
            np.abs(chain[0], out=abs_y)
            stale = False
        np.power(h, _KRYLOV_W_EXP, out=weights)
        weights *= _KRYLOV_W
        np.matmul(weights, flat, out=prod)
        y_new, err_vec, fsal = prod.view(complex).reshape(3, d, d)
        err = _error_norm(err_vec, abs_y, y_new, rtol, atol, work)
        if err <= 1.0:
            t_new = t_end if last else t + h
            while idx < n and times[idx] < t_new:
                s = float(times[idx]) - t
                sample = ((_KRYLOV_C * s**_KRYLOV_POWERS) @ flat[:-1]).view(complex)
                sample, trace_error = _project(sample.reshape(d, d))
                yield sample, drift + trace_error, (steps, rejected, calls, d, resizes)
                drift = 0.0
                idx += 1
            y, trace_error = _project(y_new)
            drift += trace_error
            steps += 1
            t = t_new
            stale = True
            if idx < n and times[idx] == t:
                yield y, drift, (steps, rejected, calls, d, resizes)
                drift = 0.0
                idx += 1
            size = _block_size(y.diagonal().real, dim) if t < t_end else d
            if size == d:
                chain[0] = y
                chain[1] = fsal
            else:
                d = size
                chain, flat, f, abs_y, prod, work = restart(leading_block(y, d))
                calls += 1
                resizes += 1
        else:
            rejected += 1
        h *= _step_factor(err, _KRYLOV_EXPONENT)


def liouvillian_generator(
    params: OscillatorParams, chain: np.ndarray
) -> Callable[[int], None]:
    """The master-equation right-hand side L, bound to a chain buffer.

    `chain` is a C-contiguous complex (rows, dim, dim) array, rows >= 2.
    The returned `step(j)`, 1 <= j < rows, writes chain[j] = L chain[j-1]
    and returns None.  With H tridiagonal and a bidiagonal, each entry couples
    only to its neighbours:

        d rho_mn/dt = {-iG[m(m-1) - n(n-1)] - gamma0 (m + n)} rho_mn
                      + p sqrt(m) rho_{m-1,n} - p* sqrt(m+1) rho_{m+1,n}
                      - p sqrt(n+1) rho_{m,n+1} + p* sqrt(n) rho_{m,n-1}
                      + 2 gamma0 sqrt((m+1)(n+1)) rho_{m+1,n+1},

    where terms reaching past the truncation edge are dropped, exactly as in
    the truncated-matrix products -i[H, rho] + gamma0(2 a rho a^dag - ...).

    The stencil works on each flattened row, flat index i = m*dim + n, where
    each neighbour is one contiguous shifted slice: rho_{m-1,n} and
    rho_{m+1,n} sit at offsets -dim and +dim, rho_{m,n+1} and rho_{m,n-1} at
    +1 and -1, and rho_{m+1,n+1} at dim+1.  Each band has one coefficient per
    output entry.  Where a +-1 or dim+1 shift would wrap into the neighbouring
    row (column n = dim-1 for +1 and dim+1, n = 0 for -1), the coefficient is
    exactly 0, so every entry receives the same nonzero terms, in the same
    order, as a (dim, dim) slice formulation would give it.  The flat input
    and output rows and their ten shifted slices are built here once per
    row pair, so a call only multiplies and adds.
    """
    rows, dim = chain.shape[:2]
    if chain.shape != (rows, dim, dim) or rows < 2 or chain.dtype != complex \
            or not chain.flags.c_contiguous:
        raise ValueError(
            f"chain must be a C-contiguous complex (rows >= 2, dim, dim) array, got {chain.shape}"
        )
    FockCutoff(dim - 1)  # rejects dim < 2 like every other basis constructor
    levels = np.arange(dim, dtype=float)
    kerr_energy = levels * (levels - 1.0)
    diag = (
        -1j * params.kerr * (kerr_energy[:, None] - kerr_energy[None, :])
        - params.loss * (levels[:, None] + levels[None, :])
    ).ravel()
    # sqrt(m) is 0 at m = 0, which zeroes the -1 shift's wrap; sqrt(m+1) is
    # set to 0 at m = dim-1 to zero the wraps of the +1 and dim+1 shifts
    root = np.sqrt(levels)
    root_up = np.sqrt(levels + 1.0)
    root_up[-1] = 0.0
    pump = params.pump
    # per-row factors are repeated along a row, per-column ones tiled over rows
    above = np.repeat(pump * root, dim)[dim:]  # p sqrt(m) on rho_{m-1,n}
    below = np.repeat(-np.conj(pump) * root_up, dim)[:-dim]  # -p* sqrt(m+1) on rho_{m+1,n}
    right = np.tile(-pump * root_up, dim)[:-1]  # -p sqrt(n+1) on rho_{m,n+1}
    left = np.tile(np.conj(pump) * root, dim)[1:]  # p* sqrt(n) on rho_{m,n-1}
    # complex like the other bands, so no product casts on every call
    jump = (2.0 * params.loss * np.outer(root_up, root_up)).astype(complex).ravel()
    jump = jump[: -dim - 1]  # 2 gamma0 sqrt((m+1)(n+1)) on rho_{m+1,n+1}

    flat = chain.reshape(rows, -1)
    # views[j]: row j-1 (v), row j (res), then each band's output and input slice
    views = [()] + [
        (v, res, res[dim:], v[:-dim], res[:-dim], v[dim:], res[:-1], v[1:],
         res[1:], v[:-1], res[: -dim - 1], v[dim + 1 :])
        for v, res in zip(flat[:-1], flat[1:])
    ]

    def step(j: int) -> None:
        v, res, out_a, in_a, out_b, in_b, out_r, in_r, out_l, in_l, out_jump, in_jump = views[j]
        np.multiply(diag, v, out=res)
        out_a += above * in_a
        out_b += below * in_b
        out_r += right * in_r
        out_l += left * in_l
        out_jump += jump * in_jump

    return step


def liouvillian_apply(rho: DensityMatrix, params: OscillatorParams) -> np.ndarray:
    """d rho/dt for the master equation; Hermitian and traceless to round-off."""
    chain = np.empty((2, rho.dim, rho.dim), dtype=complex)
    chain[0] = rho.elements
    liouvillian_generator(params, chain)(1)
    return chain[1]


def _stacks(
    samples: _Samples, count: int, dim: int | None
) -> Iterator[tuple[np.ndarray, list, bool]]:
    """The samples of a source in stacks of up to `_SPECTRA_BATCH` of one size.

    Yields (stack, rest, last): the (n, d, d) samples, copied in (zero-padded
    to `dim` when it is given); their (drift, counts); and whether the
    source has nothing after them.  A resize, the end of the source or its
    exception closes a stack early.  A stack is allocated when its first
    sample arrives, for at most `_SPECTRA_BATCH` of the `count` samples
    still to come.  An exception of the source is raised once the stack it
    interrupted has been handed on, as the last.
    """
    stack, rest, failure = None, [], None
    try:
        for y, drift, counts in samples:
            d = dim or y.shape[0]
            if rest and (len(rest) == stack.shape[0] or d != stack.shape[1]):
                yield stack[: len(rest)], rest, False
                count -= len(rest)
                stack, rest = None, []
            if stack is None:
                stack = np.zeros((min(_SPECTRA_BATCH, count), d, d), dtype=complex)
            stack[len(rest), : y.shape[0], : y.shape[0]] = y
            rest.append((drift, counts))
    except Exception as exc:
        failure = exc
    if rest:
        yield stack[: len(rest)], rest, True
    if failure is not None:
        raise failure


def _spectra_worker(jobs: queue.SimpleQueue, done: queue.SimpleQueue) -> None:
    """The read-ahead thread: the spectra of each stack from `jobs` onto `done`.

    The exception of `eigvalsh` goes in place of its spectra; None stops the
    thread.  It calls numpy only, never a function of this package, so a
    tracer that wraps the package's functions sees the main thread alone.
    """
    while (stack := jobs.get()) is not None:
        try:
            spectra = np.linalg.eigvalsh(stack)
        except Exception as exc:
            spectra = exc
        del stack
        done.put(spectra)


def _spectra_ahead(
    stacks: Iterator[tuple[np.ndarray, list, bool]],
) -> Iterator[tuple[np.ndarray, list, np.ndarray | None]]:
    """Each stack of `_stacks` with its ascending spectra, in order.

    The spectra of a full stack with more after it are one stacked
    `eigvalsh` on a worker thread, started with the first such stack, while
    the next stack is read.  Those of a stack that a resize or the end of
    the source closed early are computed here, with nothing left to
    overlap, so a source that fits one stack starts no thread.  At most two
    stacks are held: the one handed on and the one whose spectra are
    computed.  The spectra are None where `eigvalsh` raised `LinAlgError`,
    so each sample of that stack is decomposed on its own and the first bad
    one fails as it would alone.  The worker is joined on every exit, the
    generator's close included.
    """
    jobs = done = worker = None
    ahead = None
    try:
        for stack, rest, last in stacks:
            overlap = not last and len(rest) == _SPECTRA_BATCH
            if overlap:
                if worker is None:
                    jobs, done = queue.SimpleQueue(), queue.SimpleQueue()
                    worker = threading.Thread(
                        target=_spectra_worker, args=(jobs, done), daemon=True
                    )
                    worker.start()
                jobs.put(stack)
            if ahead is not None:
                spectra = done.get()
                if isinstance(spectra, np.linalg.LinAlgError):
                    spectra = None
                elif isinstance(spectra, Exception):
                    raise spectra
                yield *ahead, spectra
                ahead = None
            if overlap:
                ahead = stack, rest
                continue
            try:
                spectra = np.linalg.eigvalsh(stack)
            except np.linalg.LinAlgError:
                spectra = None
            yield stack, rest, spectra
    finally:
        if worker is not None:
            jobs.put(None)
            worker.join()


def _guarded_stream(
    rho0: DensityMatrix,
    grid: TimeGrid,
    samples: _Samples,
    on_sample: Callable[[float, DensityMatrix, StepDiagnostics], None],
    pad: bool = False,
) -> StepDiagnostics:
    """Pass rho0 and the samples at grid.times[1:] through the output guards.

    The one driver of every evolution: `on_sample(t, state, diagnostics)`
    sees each output in time order, and the last `StepDiagnostics` is
    returned.  `samples` is a plain iterator of (sample, drift, (steps,
    rejected, rhs_calls, block, resizes)) in time order, one per grid time
    after 0: a `_project` output, the |trace - 1| that `_project` removed
    over the segment since the previous sample (for the integrator, each
    accepted step as well as the sample), and the counts of
    `StepDiagnostics`.  A sample is a d x d array on the leading d levels of
    rho0's basis, d <= rho0.dim; with `pad` it is zero-padded to rho0.dim
    before the checks, otherwise it is checked and handed on at its own
    size, so the per-sample work follows the integrated block.

    The samples are read ahead in stacks of `_SPECTRA_BATCH` of one size
    (`_stacks`), and each stack's spectra are computed by one stacked
    `eigvalsh` on one worker thread while the next stack is integrated
    (`_spectra_ahead`); stacked, each spectrum is bit for bit the one a
    decomposition of its own gives.  The checks themselves run here, on
    each sample in time order, as if nothing were read ahead: an exception
    of the source is raised only after every earlier sample is checked and
    handed on.  Each sample becomes a `DensityMatrix` on the trusted path
    with its spectrum, a read-only view of its stack; nothing else is kept
    here, so memory is bounded by two stacks, not by the sample count,
    unless `on_sample` keeps states (a kept state keeps its stack).

    At each output, in time order: the drift must stay below 1e-8 per unit
    time (else `DriftTooLarge`), the population within `_TAIL_MARGIN`
    entries of the declared truncation edge below 1e-6 (else
    `CutoffExceeded`; 0 while d <= dim - `_TAIL_MARGIN`), and the sample
    must then pass the `DensityMatrix` check (else `PositivityLost`).  The
    t = 0 output is rho0 itself.
    """
    dim = rho0.dim
    edge = dim - min(_TAIL_MARGIN, dim - 1)

    def tail(y: np.ndarray) -> float:
        # the diagonal from the declared edge on; exactly 0 for a block
        # that ends before it
        if y.shape[0] <= edge:
            return 0.0
        return float(np.sum(y.diagonal().real[edge:]))

    times = grid.times
    diag = StepDiagnostics(0.0, tail(rho0.elements), 0, 0, 0, 0, 0, float(rho0.spectrum[0]))
    on_sample(float(times[0]), rho0, diag)
    idx = 0
    stacks = _stacks(samples, times.shape[0] - 1, dim if pad else None)
    with closing(_spectra_ahead(stacks)) as batches:
        for stack, rest, spectra in batches:
            for k, (drift, counts) in enumerate(rest):
                idx += 1
                ta, tb = float(times[idx - 1]), float(times[idx])
                budget = 1e-8 * max(1.0, tb - ta)
                if drift > budget:
                    raise DriftTooLarge(
                        f"trace drift {drift:.3e} over [{ta:.6g}, {tb:.6g}] "
                        f"exceeds budget {budget:.3e}"
                    )
                # a basis without headroom also breaks positivity, so report
                # the tail first
                tm = tail(stack[k])
                if tm > 1e-6:
                    raise CutoffExceeded(
                        f"tail mass {tm:.3e} at t = {tb:.6g} (n_cut = {dim - 1} too small)"
                    )
                try:
                    state = DensityMatrix(
                        stack[k], hermitian=True,
                        eigenvalues=None if spectra is None else spectra[k],
                    )
                except ValueError as exc:
                    raise PositivityLost(f"{exc} at t = {tb:.6g}") from exc
                diag = StepDiagnostics(drift, tm, *counts, float(state.spectrum[0]))
                on_sample(tb, state, diag)
            # let the stack go before the next one is allocated
            del stack, state
    return diag


def _collect(rho0: DensityMatrix, grid: TimeGrid, samples: _Samples) -> Trajectory:
    """Every output of `_guarded_stream`, zero-padded to rho0.dim, kept as a `Trajectory`."""
    states: list[DensityMatrix] = []
    diags: list[StepDiagnostics] = []

    def keep(t: float, state: DensityMatrix, diag: StepDiagnostics) -> None:
        states.append(state)
        diags.append(diag)

    _guarded_stream(rho0, grid, samples, keep, pad=True)
    return Trajectory(times=grid, states=tuple(states), diagnostics=tuple(diags))


def evolve(
    rho0: DensityMatrix,
    params: OscillatorParams,
    grid: TimeGrid,
    rtol: float = RTOL,
    atol: float = ATOL,
) -> Trajectory:
    """Master-equation evolution of rho0 recorded at the grid times.

    One adaptive integration with the degree-13 Krylov step runs from 0 to the
    last grid time; the grid only says where to sample it.  A sample inside a
    step is the step from the step's start to the sample time, read off the
    step polynomial, so samples are ninth order and never shorten a step: the
    step sequence and the final state do not depend on how densely the grid
    samples.  Every accepted step and every sample is hermitized and
    renormalized, and each output passes the drift, tail-mass and positivity
    guards of `_guarded_stream` (`DriftTooLarge`, `CutoffExceeded`,
    `PositivityLost`).  Only the leading block of populated levels is
    integrated, and each output is zero-padded back to the declared cutoff
    before the guards: the states are those `stream_evolution` hands on,
    padded.  `StepDiagnostics` counts the
    accepted steps completed at or before the output time, the rejected
    steps, the RHS calls (1 + 13 per accepted step + 1 per resize) and the
    block resizes made so far, and gives the block integrated.  Every state is kept, so
    memory grows with the sample count; `stream_evolution` keeps none.
    """
    return _collect(rho0, grid, _linear_krylov(params, rho0.elements, grid.times, rtol, atol))


def _unpumped_map(
    rho0: np.ndarray, params: OscillatorParams, times: np.ndarray
) -> np.ndarray:
    """Exact rho(t) without pump at each of `times`, shape (len(times), dim, dim).

    Each diagonal k = n - m evolves on its own (Milburn & Holmes, PRL 56,
    2237 (1986)).  With x_m = rho_{m,m+k}, lam_m = iGk(2m+k-1) - gamma0(2m+k)
    and beta_k = gamma0 (1 - exp(-2(gamma0 - iGk)t)) / (gamma0 - iGk),

        x_m(t) = exp(lam_m t) sum_j w_mj beta_k^j x_{m+j}(0),
        w_mj = sqrt(C(m+j, m) C(m+j+k, m+k)).

    For each k one (samples, L) @ (L, L) product of the powers beta_k^j with
    the weighted start values w_mj x_{m+j}(0) covers every sample time; the
    lower triangle is its conjugate.  exp(lam_m t) = a_m a*_{m+k} with
    a_m = exp(-t(iG m(m-1) + gamma0 m)) then scales the whole matrix, as in
    the lossless Kerr map, which is the case beta_k = 0 (gamma0 = 0).  The
    square-root binomials come from lgamma and stay finite up to n_cut about
    2000; a weighted start value, at most about 2^n |rho_nn|, stays finite
    while the populated levels n stay below about 1000.  |beta_k| <= 1 -
    exp(-2 gamma0 t), so each term is bounded by its pure-loss counterpart
    and the sum does not cancel.
    """
    dim = rho0.shape[0]
    kerr, loss = params.kerr, params.loss
    t = np.asarray(times, dtype=float)
    levels = np.arange(dim)
    # root_binom[a, j] = sqrt(C(a + j, j)) for a + j < dim, else 0, so that
    # w_mj = root_binom[m, j] root_binom[m + k, j] vanishes past the edge
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(2 * dim - 1)])
    a_plus_j = levels[:, None] + levels[None, :]
    log_root = 0.5 * (log_fact[a_plus_j] - log_fact[:dim, None] - log_fact[None, :dim])
    root_binom = np.exp(np.where(a_plus_j < dim, log_root, -np.inf))
    # start[k, m, j] = rho0[m + j, m + j + k], zero past the edge: a strided
    # view of a zero-padded copy
    padded = np.zeros((2 * dim, 2 * dim), dtype=complex)
    padded[:dim, :dim] = rho0
    row, col = padded.strides
    start = np.lib.stride_tricks.as_strided(
        padded, shape=(dim, dim, dim), strides=(col, row + col, row + col),
        writeable=False,
    )
    # beta[s, k] = beta_k(t_s); 0 without loss (rate 0 on k = 0 there)
    beta = np.zeros((t.shape[0], dim), dtype=complex)
    if loss:
        rate = loss - 1j * kerr * levels
        beta = -loss * np.expm1(-2.0 * np.outer(t, rate)) / rate
    out = np.empty((t.shape[0], dim, dim), dtype=complex)
    flat = out.reshape(t.shape[0], dim * dim)
    for k in range(dim):
        size = dim - k
        # start values first: an empty level zeroes its weight before the
        # second factor can overflow it
        weighted = root_binom[:size, :size] * start[k, :size, :size] * root_binom[k:, :size]
        # powers[s, j] = beta[s, k]^j
        powers = np.ones((t.shape[0], size), dtype=complex)
        powers[:, 1:] = beta[:, k, None]
        np.multiply.accumulate(powers, axis=1, out=powers)
        x = powers @ weighted.T
        # flat indices of rho_{m+k,m} and rho_{m,m+k}; on k = 0 the second wins
        flat[:, k * dim :: dim + 1] = x.conj()
        flat[:, k : k + size * (dim + 1) : dim + 1] = x
    phase = np.exp(np.outer(t, -1j * kerr * levels * (levels - 1.0) - loss * levels))
    out *= phase[:, :, None]
    out *= phase.conj()[:, None, :]
    return out


def _unpumped_samples(rho0: DensityMatrix, params: OscillatorParams, grid: TimeGrid) -> _Samples:
    """The exact-map sample source: `_unpumped_map` in blocks of sample times.

    Yields each `_project`ed state at grid.times[1:] with its drift and
    zero counts.  At most `_MAP_BLOCK` raw states are held at once, whatever
    the sample count.
    """
    times = grid.times[1:]
    for first in range(0, times.shape[0], _MAP_BLOCK):
        for y in _unpumped_map(rho0.elements, params, times[first : first + _MAP_BLOCK]):
            sample, drift = _project(y)
            yield sample, drift, (0, 0, 0, 0, 0)


def unpumped_evolve(
    rho0: DensityMatrix,
    params: OscillatorParams,
    grid: TimeGrid,
) -> Trajectory:
    """Exact evolution of rho0 at the grid times for an oscillator without pump.

    The closed form of `_unpumped_map` replaces the integrator; each output
    is hermitized, renormalized and checked exactly as in `evolve`, and
    every `StepDiagnostics` count is 0.  Raises `PumpNotZero` for pump != 0.
    """
    if params.pump != 0:
        raise PumpNotZero(f"the exact map needs pump = 0, got {params.pump}")
    return _collect(rho0, grid, _unpumped_samples(rho0, params, grid))


def stream_evolution(
    rho0: DensityMatrix,
    params: OscillatorParams,
    grid: TimeGrid,
    on_sample: Callable[[float, DensityMatrix, StepDiagnostics], None],
) -> StepDiagnostics:
    """Evolve rho0 over the grid, handing each output to `on_sample`; keep nothing.

    The engine rule of a scenario run: without pump the exact map of
    `unpumped_evolve`, otherwise the Krylov integration of `evolve` at the
    default tolerances.  Either engine is a plain iterator of samples, read
    by `_guarded_stream`: each output passes the same guards and raises the
    same errors as there, reaches `on_sample(t, state, diagnostics)` in time
    order, and the last `StepDiagnostics` is returned.  The spectra of the
    positivity check are computed one stack of `_SPECTRA_BATCH` samples
    ahead on one worker thread, so memory is bounded by two stacks, not one
    sample; it does not grow with the sample count unless `on_sample` keeps
    the states, and a kept state keeps its stack.

    The t = 0 output is rho0 itself.  Every later state is the integrated
    block: `state.dim` is `diagnostics.block`, rho on the leading levels of
    rho0's basis and zero beyond them (the exact map keeps the whole
    matrix).  The state at the declared cutoff is its zero-padded
    copy, `DensityMatrix(fock.leading_block(state.elements, rho0.dim))`,
    which is what `evolve` keeps; `measures.bures_distance` and
    `measures.relative_entropy` take the block state against a target at
    the declared cutoff as it is.
    """
    if params.pump == 0:
        samples = _unpumped_samples(rho0, params, grid)
    else:
        samples = _linear_krylov(params, rho0.elements, grid.times, RTOL, ATOL)
    return _guarded_stream(rho0, grid, samples, on_sample)


def kerr_lossless_evolve(psi0: StateVector, kerr: float, t: float) -> StateVector:
    """Pure Kerr evolution: c_k -> c_k exp(-i k(k-1) G t).

    The map is periodic with period T = pi/G: k(k-1) is always even, so at
    t = T every phase is an exact multiple of 2 pi.
    """
    k = np.arange(psi0.dim, dtype=float)
    phases = np.exp(-1j * kerr * t * k * (k - 1.0))
    return StateVector(psi0.amplitudes * phases)


def linear_damping_amplitude(
    alpha0: complex, params: OscillatorParams, t: float
) -> complex:
    """Coherent amplitude under pump and linear loss (valid for kerr = 0).

    alpha(t) = alpha0 e^{-gamma0 t} + (p/gamma0)(1 - e^{-gamma0 t}); the
    gamma0 = 0 limit is alpha0 + p t.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if params.loss == 0.0:
        return complex(alpha0) + params.pump * t
    decay = math.exp(-params.loss * t)
    return complex(alpha0) * decay + (params.pump / params.loss) * (1.0 - decay)


def _alpha_rate(alpha: complex, params: OscillatorParams) -> complex:
    """d alpha/dt = p - 2iG|alpha|^2 alpha - gamma0 alpha."""
    p, g, g0 = params.pump, params.kerr, params.loss
    return p - 2j * g * abs(alpha) ** 2 * alpha - g0 * alpha


def classical_path(
    alpha0: complex,
    params: OscillatorParams,
    grid: TimeGrid,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> SemiclassicalPath:
    """Integrate d alpha/dt = p - 2iG|alpha|^2 alpha - gamma0 alpha on the grid."""

    def rhs(y: np.ndarray) -> np.ndarray:
        return np.array([_alpha_rate(y[0], params)])

    y0 = np.array([complex(alpha0)])
    samples = _adaptive_rk(rhs, y0, grid.times, rtol, atol)
    alpha = np.array([y0[0]] + [y[0] for y in samples])
    return SemiclassicalPath(times=grid, alpha=alpha, noise_B=None, noise_C=None)


def linearized_noise_path(
    alpha0: complex,
    B0: float,
    C0: complex,
    params: OscillatorParams,
    grid: TimeGrid,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> SemiclassicalPath:
    """Joint integration of the classical amplitude and linearized noise moments.

    Along alpha(t) the fluctuation operator picks up the effective rates
    gamma = gamma0 + 4iG|alpha|^2 and delta = 2iG alpha^2, and the symmetric
    and anomalous second moments obey

        dB/dt = -(gamma + gamma*) B - (delta* C + delta C*),
        dC/dt = -delta (1 + 2B) - 2 gamma C.
    """
    if B0 < 0:
        raise ValueError("B0 must be >= 0")

    p, g, g0 = params.pump, params.kerr, params.loss

    def rhs(y: np.ndarray) -> np.ndarray:
        # Python scalars: the rates of `gaussian.linearized_coeffs` and
        # `_alpha_rate`, with the same operations in the same order
        alpha, b, c = y.tolist()
        intensity = abs(alpha) ** 2
        gam = g0 + 4j * g * intensity
        dlt = 2j * g * alpha * alpha
        d_b = -(gam + gam.conjugate()) * b - (dlt.conjugate() * c + dlt * c.conjugate())
        d_c = -dlt * (1.0 + 2.0 * b) - 2.0 * gam * c
        return np.array([p - 2j * g * intensity * alpha - g0 * alpha, d_b, d_c])

    y0 = np.array([complex(alpha0), complex(B0), complex(C0)])
    ys = np.array([y0] + list(_adaptive_rk(rhs, y0, grid.times, rtol, atol)))
    return SemiclassicalPath(
        times=grid, alpha=ys[:, 0], noise_B=ys[:, 1].real, noise_C=ys[:, 2]
    )
