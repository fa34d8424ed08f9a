"""Time evolution engines.

The full quantum evolution integrates the zero-temperature master equation

    d rho / dt = -i [H, rho] + gamma0 (2 a rho a^dag - a^dag a rho - rho a^dag a),
    H = i (p a^dag - p* a) + G a^dag^2 a^2,

with an adaptive fifth-order Krylov stepper on the truncated density matrix,
hermitizing and renormalizing after every accepted step.  H is
tridiagonal and a bidiagonal in the Fock basis, so the right-hand side is a
stencil on the flattened rho, flat index m*dim + n: a diagonal factor plus five
bands, each one elementwise product with a contiguous shifted slice (offsets
-dim, +dim, +1, -1 and dim+1), with the coefficients zeroed where a column shift
would wrap into the next row.  There are no dense matrix products.

The master equation is linear and autonomous, d rho/dt = L rho, so an explicit
Runge-Kutta step of size h is a polynomial in hL (Hairer, Norsett & Wanner,
Solving ODEs I, II.6 and IV.2).  `evolve` builds its step directly as one:
p(z) = sum_{j<=5} z^j/j! + c6 z^6 + c7 z^7, fifth order and degree 7, with
c6 = 9e-4 and c7 = 1.25e-4 chosen for a large stability region next to the
imaginary axis, where the Kerr frequencies put the spectrum of L.  Its stable
radius is 5.38 along the ray of the bundled point's extreme eigenvalue
(96.5 degrees) against 2.73 for the Dormand-Prince 5(4) step, and larger than
DP5's on every ray from 91 to 180 degrees, so the step size that stability
allows is about twice DP5's.  Per accepted step the chain v_j = L^j y, j = 0..8,
costs seven RHS calls (v_1 is the previous step's first-same-as-last
derivative); the new state sum_j c_j h^j v_j, the error vector and the next
derivative L y_new are one weighted sum over the chain.  The error vector is
p(hL) y minus DP5's embedded 4th-order solution, whose weights start at h^5,
and it is measured in the max norm over entries, so the tolerance binds on
every populated entry whatever the cutoff.  A rejected step re-weights the
same chain with the smaller h and calls no RHS.  Output samples never cut a
step short: a sample time t + s inside an accepted step [t, t + h] is read off
the same polynomial as sum_j c_j s^j v_j, the step of size s from y, so the
step sequence and the final state do not depend on the output grid.

Without pump the master equation has an exact solution, each diagonal of rho
evolving on its own; `unpumped_evolve` evaluates it at the sample times with
no integration and passes every output through the same guards as `evolve`.
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
    tail_mass,
)
from .gaussian import linearized_coeffs

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
# of size h is a polynomial in hL.  Instead of DP5's own (1, 1, 1/2, ..., 1/120,
# 1/600, 0), the step is p(z) = sum_{j<=5} z^j/j! + c6 z^6 + c7 z^7: fifth
# order, degree 7.  c6 and c7 maximise the mean stable radius (the first r
# with |p(r e^{i theta})| > 1) over the rays theta = 91, 92, ..., 100 degrees,
# on a grid of c6 in steps of 5e-5 and c7 in steps of 1.25e-5.  Those rays
# are where the Kerr frequencies, about G n^2 against a loss of gamma0 n, put
# the extreme eigenvalues of L: at the bundled point and n_cut 45 they are
# -45 -+ 396i, on the rays at -+96.5 degrees (|p| is symmetric under
# conjugation).  The radius is 5.38 there against 2.73 for DP5, 4.90 at 100
# degrees, and larger than DP5's on every ray from 91 to 180 degrees.
_KRYLOV_C = np.array(
    (1.0, 1.0, 1.0 / 2.0, 1.0 / 6.0, 1.0 / 24.0, 1.0 / 120.0, 9e-4, 1.25e-4)
)
# The error reference is DP5's embedded 4th-order solution, which for y' = L y
# is this polynomial (b* A^(j-1) 1 for the tableau's 4th-order weights b*).
# The error vector p(hL) y minus it has weights that start at h^5.
_DP5_EMBEDDED = np.array((
    1.0, 1.0, 1.0 / 2.0, 1.0 / 6.0, 1.0 / 24.0,
    1097.0 / 120000.0, 161.0 / 120000.0, 1.0 / 24000.0,
))
_KRYLOV_E = _KRYLOV_C - _DP5_EMBEDDED
# One trial step is one (3, 9) @ (9, 2N) product over the chain v_0..v_8:
# row 0 the new state sum_j c_j h^j v_j, row 1 the error vector, row 2 the
# derivative L y_new = sum_j c_j h^j v_(j+1) that the next step reuses.
# Weight [i, j] is _KRYLOV_W[i, j] * h ** _KRYLOV_W_EXP[i, j].
_KRYLOV_W = np.zeros((3, 9))
_KRYLOV_W[0, :8] = _KRYLOV_C
_KRYLOV_W[1, :8] = _KRYLOV_E
_KRYLOV_W[2, 1:] = _KRYLOV_C
_KRYLOV_POWERS = np.arange(8.0)
_KRYLOV_W_EXP = np.zeros((3, 9))
_KRYLOV_W_EXP[:2, :8] = _KRYLOV_POWERS
_KRYLOV_W_EXP[2, 1:] = _KRYLOV_POWERS

# levels below the truncation edge whose population the tail guard watches
_TAIL_MARGIN = 5
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
    tail_mass   : population in the last diagonal entries at this time
    steps       : accepted steps completed at or before this time since t = 0
    rejected    : rejected trial steps since t = 0
    rhs_calls   : right-hand-side evaluations since t = 0, including those
                  of a step still in progress at this time

    The three counts are 0 for the exact map of `unpumped_evolve`.
    """

    trace_error: float
    tail_mass: float
    steps: int
    rejected: int
    rhs_calls: int


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
    """First trial step from the scaled sizes of y and dy/dt, at most `span`."""
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
    err_vec: np.ndarray, abs_y: np.ndarray, y_new: np.ndarray, rtol: float, atol: float
) -> float:
    """Max over entries of |err| / (atol + rtol * max(|y|, |y_new|)).

    A maximum, not an RMS: the few populated entries of a density matrix
    must each meet the tolerance, however many nearly empty tail entries
    the cutoff adds to the mean.
    """
    sc = atol + rtol * np.maximum(abs_y, np.abs(y_new))
    return float(np.max(np.abs(err_vec) / sc))


def _step_factor(err: float) -> float:
    """Step-size factor after a trial step with error norm `err`."""
    if err == 0.0:
        return 5.0
    return min(5.0, max(0.2, 0.9 * err ** -0.2))


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
    if rtol <= 0 or atol <= 0:
        raise ValueError("rtol and atol must be > 0")
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


def _linear_krylov(
    f: Callable[..., np.ndarray],
    y: np.ndarray,
    times: np.ndarray,
    rtol: float,
    atol: float,
    project: Callable[[np.ndarray], np.ndarray],
) -> Iterator[tuple[np.ndarray, tuple[int, int, int]]]:
    """The degree-7 Krylov step for a linear autonomous f, sampled at times[1:].

    `f(x, out=row)` writes L x into `row`.  Integrates from times[0] to
    times[-1] with the step polynomial `_KRYLOV_C`, the error weights
    `_KRYLOV_E` and the controller of `_adaptive_rk`, cutting only the last
    step to end at times[-1].  Yields (sample, (steps, rejected, rhs_calls))
    in time order: the accepted steps completed at or before the sample, and
    the rejected trial steps and RHS calls made so far.  `project` maps
    every accepted state and every sample read off a step polynomial (for
    evolve: hermitize and renormalize); a sample at the end of a step is the
    accepted state itself.
    """
    n = times.shape[0]
    if n < 2:
        return
    t, t_end = float(times[0]), float(times[-1])
    h_min = 1e-14 * max(1.0, abs(t_end))
    shape = y.shape
    # chain[j] = L^j y, complex; its real view makes every weighted sum over
    # the chain one real product with (9, 2N) rows
    chain = np.empty((9,) + shape, dtype=complex)
    flat = chain.view(float).reshape(9, -1)
    chain[0] = y
    f(chain[0], out=chain[1])
    calls = 1
    h = _initial_step(y, chain[1], t_end - t, rtol, atol)

    steps = rejected = 0
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
            for j in range(2, 9):
                f(chain[j - 1], out=chain[j])
            calls += 7
            abs_y = np.abs(chain[0])
            stale = False
        y_new, err_vec, fsal = (
            (_KRYLOV_W * h**_KRYLOV_W_EXP) @ flat
        ).view(complex).reshape((3,) + shape)
        err = _error_norm(err_vec, abs_y, y_new, rtol, atol)
        if err <= 1.0:
            t_new = t_end if last else t + h
            while idx < n and times[idx] < t_new:
                s = float(times[idx]) - t
                sample = (_KRYLOV_C * s**_KRYLOV_POWERS) @ flat[:8]
                yield project(sample.view(complex).reshape(shape)), (steps, rejected, calls)
                idx += 1
            y = project(y_new)
            steps += 1
            t = t_new
            chain[0] = y
            chain[1] = fsal
            stale = True
            if idx < n and times[idx] == t:
                yield y, (steps, rejected, calls)
                idx += 1
        else:
            rejected += 1
        h *= _step_factor(err)


def liouvillian_generator(
    params: OscillatorParams, dim: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Right-hand side r -> d rho/dt for the master equation at this dimension.

    With H tridiagonal and a bidiagonal, each entry couples only to its
    neighbours:

        d rho_mn/dt = {-iG[m(m-1) - n(n-1)] - gamma0 (m + n)} rho_mn
                      + p sqrt(m) rho_{m-1,n} - p* sqrt(m+1) rho_{m+1,n}
                      - p sqrt(n+1) rho_{m,n+1} + p* sqrt(n) rho_{m,n-1}
                      + 2 gamma0 sqrt((m+1)(n+1)) rho_{m+1,n+1},

    where terms reaching past the truncation edge are dropped, exactly as in
    the truncated-matrix products -i[H, rho] + gamma0(2 a rho a^dag - ...).

    The closure, `rhs(r)` or `rhs(r, out=buffer)` to write into a buffer,
    works on the flattened state, flat index i = m*dim + n, where
    each neighbour is one contiguous shifted slice: rho_{m-1,n} and
    rho_{m+1,n} sit at offsets -dim and +dim, rho_{m,n+1} and rho_{m,n-1} at
    +1 and -1, and rho_{m+1,n+1} at dim+1.  Each band has one coefficient per
    output entry.  Where a +-1 or dim+1 shift would wrap into the neighbouring
    row (column n = dim-1 for +1 and dim+1, n = 0 for -1), the coefficient is
    exactly 0, so every entry receives the same nonzero terms, in the same
    order, as a (dim, dim) slice formulation would give it.
    """
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

    def rhs(r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        v = r.reshape(-1)
        # `out`, if given, is a contiguous complex array of r's size
        res = np.multiply(diag, v, out=None if out is None else out.reshape(-1))
        res[dim:] += above * v[:-dim]
        res[:-dim] += below * v[dim:]
        res[:-1] += right * v[1:]
        res[1:] += left * v[:-1]
        res[: -dim - 1] += jump * v[dim + 1 :]
        return res.reshape(r.shape)

    return rhs


def liouvillian_apply(rho: DensityMatrix, params: OscillatorParams) -> np.ndarray:
    """d rho/dt for the master equation; Hermitian and traceless to round-off."""
    return liouvillian_generator(params, rho.dim)(np.array(rho.elements))


def _guarded_trajectory(
    rho0: DensityMatrix,
    grid: TimeGrid,
    samples: Callable[
        [Callable[[np.ndarray], np.ndarray]],
        Iterator[tuple[np.ndarray, tuple[int, int, int]]],
    ],
) -> Trajectory:
    """Record rho0 and the samples at grid.times[1:] behind the output guards.

    `samples(project)` yields (sample, (steps, rejected, rhs_calls)) in time
    order, the counts of `StepDiagnostics`.  `project` hermitizes and
    renormalizes a raw state and adds its |trace - 1| to the drift of the
    current output segment; every state a source produces (for the
    integrator, each accepted step as well as each sample) goes through it.
    At each output, in time order: the drift since the previous output must
    stay below 1e-8 per unit time (else `DriftTooLarge`), the population
    within `_TAIL_MARGIN` entries of the truncation edge below 1e-6 (else
    `CutoffExceeded`), and the sample must then pass the `DensityMatrix`
    check (else `PositivityLost`).
    """
    dim = rho0.dim
    margin = min(_TAIL_MARGIN, dim - 1)
    drift_acc = 0.0

    def project(y: np.ndarray) -> np.ndarray:
        nonlocal drift_acc
        tr = np.trace(y).real
        drift_acc += abs(tr - 1.0)
        return (0.5 / tr) * (y + y.conj().T)

    states = [rho0]
    diags = [StepDiagnostics(0.0, tail_mass(rho0, margin), 0, 0, 0)]
    times = grid.times
    for idx, (y, counts) in enumerate(samples(project), start=1):
        ta, tb = float(times[idx - 1]), float(times[idx])
        budget = 1e-8 * max(1.0, tb - ta)
        if drift_acc > budget:
            raise DriftTooLarge(
                f"trace drift {drift_acc:.3e} over [{ta:.6g}, {tb:.6g}] "
                f"exceeds budget {budget:.3e}"
            )
        # a basis without headroom also breaks positivity, so report the
        # tail first
        tm = tail_mass(y, margin)
        if tm > 1e-6:
            raise CutoffExceeded(
                f"tail mass {tm:.3e} at t = {tb:.6g} (n_cut = {dim - 1} too small)"
            )
        try:
            state = DensityMatrix(y)
        except ValueError as exc:
            raise PositivityLost(f"{exc} at t = {tb:.6g}") from exc
        states.append(state)
        diags.append(StepDiagnostics(drift_acc, tm, *counts))
        drift_acc = 0.0
    return Trajectory(times=grid, states=tuple(states), diagnostics=tuple(diags))


def evolve(
    rho0: DensityMatrix,
    params: OscillatorParams,
    grid: TimeGrid,
    rtol: float = RTOL,
    atol: float = ATOL,
) -> Trajectory:
    """Master-equation evolution of rho0 recorded at the grid times.

    One adaptive integration with the degree-7 Krylov step runs from 0 to the
    last grid time; the grid only says where to sample it.  A sample inside a
    step is the step from the step's start to the sample time, read off the
    step polynomial, so samples are fifth order and never shorten a step: the
    step sequence and the final state do not depend on how densely the grid
    samples.  Every accepted step and every sample is hermitized and
    renormalized, and each output passes the drift, tail-mass and positivity
    guards of `_guarded_trajectory` (`DriftTooLarge`, `CutoffExceeded`,
    `PositivityLost`).  `StepDiagnostics` counts the accepted steps completed
    at or before the output time, and the rejected steps and RHS calls
    (1 + 7 per accepted step) made so far.
    """
    if rtol <= 0 or atol <= 0:
        raise ValueError("rtol and atol must be > 0")
    rhs = liouvillian_generator(params, rho0.dim)
    y0 = np.array(rho0.elements, dtype=complex)
    return _guarded_trajectory(
        rho0,
        grid,
        lambda project: _linear_krylov(rhs, y0, grid.times, rtol, atol, project),
    )


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
    raw = _unpumped_map(rho0.elements, params, grid.times[1:])
    return _guarded_trajectory(
        rho0, grid, lambda project: ((project(y), (0, 0, 0)) for y in raw)
    )


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

    def rhs(y: np.ndarray) -> np.ndarray:
        alpha, b, c = y
        coeffs = linearized_coeffs(alpha, params)
        gam, dlt = coeffs.gamma_eff, coeffs.delta_eff
        d_b = -(gam + np.conj(gam)) * b - (np.conj(dlt) * c + dlt * np.conj(c))
        d_c = -dlt * (1.0 + 2.0 * b) - 2.0 * gam * c
        return np.array([_alpha_rate(alpha, params), d_b, d_c])

    y0 = np.array([complex(alpha0), complex(B0), complex(C0)])
    ys = np.array([y0] + list(_adaptive_rk(rhs, y0, grid.times, rtol, atol)))
    return SemiclassicalPath(
        times=grid, alpha=ys[:, 0], noise_B=ys[:, 1].real, noise_C=ys[:, 2]
    )
