"""Scenario execution: run validated configs and write the declared artifacts.

All files are deterministic for a fixed config and version: CSV with LF line
endings and 17-significant-digit floats, phase-space grids as header lines
followed by row-major values, and an optional portable greymap rendering.
Every file opens with a '#' header block echoing version, scenario name,
parameters, cutoff, and tolerances.

Every value of a grid file is `_FMT % v` byte for byte, but the grid text is
made in one numpy pass (`_grid_text`): the 17 digits of every value come
from a double-double product with an exact power of ten, and are laid out
as `%g` does.  Values whose rounding that pass cannot be certain of (within
1e-6 of a tie, |v| < 1e-290, |v| >= 1e16, nan, inf) go through `_FMT`
itself, which stays the one statement of the format.  Each file is written
with one write.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .config import (
    ClassicalPathOutput,
    CoherentInit,
    DistanceToSteadyOutput,
    FockInit,
    GaussianReportOutput,
    QuasiGridOutput,
    ScenarioConfig,
    SteadyReportOutput,
    TimeseriesOutput,
)
from .dynamics import (
    ATOL,
    RTOL,
    StepDiagnostics,
    TimeGrid,
    classical_path,
    linearized_noise_path,
    stream_evolution,
)
from .errors import (
    CutoffExceeded,
    DriftTooLarge,
    IntegrationFailure,
    IoError,
    PositivityLost,
    StepSizeUnderflow,
    SupportMismatch,
)
from .fock import (
    DensityMatrix,
    FockCutoff,
    OscillatorParams,
    StateVector,
    coherent_state,
    coherent_superposition,
    default_cutoff,
    density_from_pure,
    fock_state,
    leading_block,
)
from .gaussian import gaussian_vs_exact_report, steady_mean_estimate, steady_table
from .measures import (
    MomentSet,
    bures_distance,
    linear_entropy_and_purity,
    moments,
    relative_entropy,
    spectral_decomposition,
    von_neumann_entropy,
)
from .quasidist import QuasiGrid, quasidistribution
from .steady import steady_density
from .version import __version__

_FMT = "%.17g"


@dataclass(frozen=True)
class RunReport:
    """What a scenario run produced."""

    scenario: str
    files: tuple[str, ...]
    summary: dict
    steps: int


def _fmt(value: float) -> str:
    return _FMT % (value,)


def _fmt_complex(z: complex) -> str:
    return f"{_fmt(z.real)},{_fmt(z.imag)}"


# Grid text (`_grid_text`).  Each value becomes a 32-byte record, NUL where a
# character is absent: byte 0 the sign, 1-5 the "0.000" lead of
# 1e-4 <= |v| < 0.1, 6 the first digit, 7 the point, 8-23 the other 16
# digits, 24-28 "e-XX", 31 the separator.  Dropping the NULs leaves the text.
# Words are little-endian on any host.
_TEXT_BLOCK = 4096  # values per block: the temporaries of one block stay in cache
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter of a double into 26-bit halves


@lru_cache(maxsize=None)
def _text_tables() -> tuple[np.ndarray, ...]:
    """The tables of `_grid_text`, built on first use:

    - 10**k for k = 0..308 as a double-double hi + lo, from the exact
      integer, with hi split in halves for the exact product;
    - the four ASCII digits of each of 0..9999 as one uint32;
    - for chunk j = 0..3 of the 16 digits after the first, the position of
      its last nonzero digit among them (0 for a zero chunk);
    - per layout class (exponent -4..16 of the fixed form, then the
      exponent form) and significant digits 0..17, the first word of a
      record (lead and point) and the masks of its two digit words;
    - the exponent word "e-XX" for XX = 5..308 (0 for no exponent).
    """
    powers = np.empty((309, 4))
    for k in range(309):
        exact = 10**k
        hi = float(exact)
        mant, exp = math.frexp(hi)
        t = _SPLIT * mant
        mant_hi = t - (t - mant)
        powers[k] = (
            hi, float(exact - int(hi)), math.ldexp(mant_hi, exp),
            math.ldexp(mant - mant_hi, exp),
        )
    chunk = np.arange(10000)
    quad = (chunk[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    zeros = (chunk % 10 == 0).astype(int) + (chunk % 100 == 0) + (chunk % 1000 == 0)
    last = np.where(chunk > 0, 4 * np.arange(1, 5)[:, None] - zeros, 0).astype(np.uint8)
    words = []
    for cls in range(22):
        x = cls - 4 if cls < 21 else -5
        before = x + 1 if x >= 0 else (0 if x >= -4 else 1)  # digits before the point
        lead = b"0.000"[: 1 - x] if -4 <= x < 0 else b""
        for nd in range(18):
            shown = max(nd, before)
            point = b"." if before == 1 and shown > 1 else b"\0"
            digits = (b"\xff" * (shown - 1)).ljust(16, b"\0")
            words.append(b"\0" + lead.ljust(6, b"\0") + point + digits)
    layout = np.frombuffer(b"".join(words), "<u8").reshape(-1, 3).T.copy()
    expo = b"".join((b"e-%02d" % x if x >= 5 else b"").ljust(8, b"\0") for x in range(309))
    return powers, quad.view("<u4").ravel(), last, layout, np.frombuffer(expo, "<u8")


def _scaled(
    a: np.ndarray, k: np.ndarray, powers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Integer part and fraction of a * 10**k, for 1e-290 <= a < 1e16.

    The product is a double-double (Dekker, Numer. Math. 18, 224 (1971)),
    exact to about 1e-32 relative, so the fraction is good to about 1e-15
    wherever the integer part has 17 digits.
    """
    hi, lo, hi_hi, hi_lo = powers.take(k, axis=0).T
    p = a * hi
    t = a * _SPLIT
    a_hi = t - (t - a)
    a_lo = a - a_hi
    err = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo + a * lo
    s = p + err
    rem = err - (s - p)
    floor = np.floor(rem)
    return s.astype(np.int64) + floor.astype(np.int64), rem - floor


def _text_block(v: np.ndarray, sep: np.ndarray) -> bytes:
    """`_FMT` text of the values `v`, each followed by its byte of `sep`."""
    powers, quad, last, layout, expo = _text_tables()
    a = np.abs(v)
    direct = (a >= 1e-290) & (a < 1e16)
    zero = a == 0.0
    a[~direct] = 1.0  # keeps the arithmetic finite; `_FMT` formats these
    # 17 digits are the integer part of |v| * 10**(16 - x) for x the decimal
    # exponent; floor(log10) misses it by one next to a power of ten, which
    # only the unrounded integer part shows
    x = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(a, 16 - x, powers)
    off = np.flatnonzero((whole < 10**16) | (whole >= 10**17))
    if off.size:
        x[off] += np.where(whole[off] < 10**16, -1, 1)
        whole[off], frac[off] = _scaled(a[off], 16 - x[off], powers)
    # within 1e-6 of a half the rounding is not certain
    slow = np.flatnonzero((~direct & ~zero) | (np.abs(frac - 0.5) < 1e-6))
    num = whole + (frac > 0.5)
    carry = num == 10**17
    num[carry] = 10**16
    x += carry
    num[zero] = 0
    x[zero] = 0
    # the digits: the first one, then four chunks of four (`//` by a
    # constant is far cheaper than `%` in numpy)
    first = num // 10**16
    rest = num - first * 10**16
    top = rest // 10**8
    bottom = rest - top * 10**8
    top_hi, bottom_hi = top // 10**4, bottom // 10**4
    chunks = (top_hi, top - top_hi * 10**4, bottom_hi, bottom - bottom_hi * 10**4)
    nd = 1 + np.maximum(
        np.maximum(last[0][chunks[0]], last[1][chunks[1]]),
        np.maximum(last[2][chunks[2]], last[3][chunks[3]]),
    )
    exponent_form = x < -4
    idx = np.where(exponent_form, 21, x + 4) * 18 + nd
    rec = np.empty((v.shape[0], 4), "<u8")
    chars = rec.view(np.uint8)
    rec[:, 0] = layout[0][idx]
    chars[:, 0] = np.signbit(v) * np.uint8(ord("-"))
    chars[:, 6] = first + ord("0")
    for j, c in enumerate(chunks):
        rec.view("<u4")[:, 2 + j] = quad[c]
    rec[:, 1] &= layout[1][idx]
    rec[:, 2] &= layout[2][idx]
    rec[:, 3] = expo[np.where(exponent_form, -x, 0)] | sep
    # 10 <= |v| < 1e16 with a fraction: the point follows digit x + 1
    shift = np.flatnonzero((x >= 1) & (nd > x + 1))
    if shift.size:
        for p in np.unique(x[shift] + 1):
            rows = shift[x[shift] == p - 1]
            chars[rows, 7 : 6 + p] = chars[rows, 8 : 7 + p]
            chars[rows, 6 + p] = ord(".")
    for i in slow:
        token = (_FMT % float(v[i])).encode("ascii")
        chars[i, :31] = 0
        chars[i, : len(token)] = np.frombuffer(token, np.uint8)
    return rec.tobytes().translate(None, b"\0")


def _grid_text(values: np.ndarray) -> bytes:
    """The rows of `values` as `_FMT` text: values joined by spaces, each row
    ended by LF, byte for byte what `_FMT % v` gives for each value v."""
    cols = values.shape[1]
    flat = np.ascontiguousarray(values, dtype=float).ravel()
    step = max(1, _TEXT_BLOCK // cols) * cols  # whole rows per block
    sep = np.full(min(step, flat.size), ord(" ") << 56, "<u8")  # byte 31
    sep[cols - 1 :: cols] = ord("\n") << 56
    return b"".join(
        _text_block(flat[i : i + step], sep[: flat.size - i])
        for i in range(0, flat.size, step)
    )


def _header_lines(name: str, params: OscillatorParams, n_cut: int) -> list[str]:
    return [
        f"# kerrosc {__version__}",
        f"# scenario: {name}",
        f"# params: pump={_fmt_complex(params.pump)} kerr={_fmt(params.kerr)} "
        f"loss={_fmt(params.loss)}",
        f"# cutoff: {n_cut}",
        f"# rtol: {_fmt(RTOL)} atol: {_fmt(ATOL)}",
    ]


def _write_text(path: Path, lines: list[str], body: bytes = b"") -> None:
    """Write ASCII `lines`, each ended by LF, then `body` as it is."""
    text = ("\n".join(lines) + "\n").encode("ascii") + body
    try:
        with open(path, "wb") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return _fmt(value)


def _write_csv(
    path: Path,
    header: list[str],
    columns: list[str],
    rows: list[list],
) -> None:
    body = [",".join(columns)]
    for row in rows:
        body.append(",".join(_cell(v) for v in row))
    _write_text(path, header + body)


def _initial_vector(config: ScenarioConfig, cutoff: FockCutoff) -> StateVector:
    state = config.initial_state
    if isinstance(state, CoherentInit):
        return coherent_state(state.alpha, cutoff)
    if isinstance(state, FockInit):
        return fock_state(state.n, cutoff)
    return coherent_superposition(list(state.components), cutoff)


def _estimated_mean_n(config: ScenarioConfig) -> float:
    state = config.initial_state
    if isinstance(state, CoherentInit):
        est = abs(state.alpha) ** 2
    elif isinstance(state, FockInit):
        est = float(state.n)
    else:
        est = max(abs(a) ** 2 for _, a in state.components)
    return max(est, steady_mean_estimate(config.params))


def _scenario_cutoff(config: ScenarioConfig) -> FockCutoff:
    if config.cutoff is not None:
        return FockCutoff(config.cutoff)
    return default_cutoff(_estimated_mean_n(config))


_MERGE_ULPS = 4  # a snapshot time this close to a sample time is that time


def _snapshot_times(config: ScenarioConfig) -> list[float]:
    """The snapshot times as sampled, in config order.

    A snapshot time within a few ulps of a `linspace` sample time is moved
    onto it: two samples a rounding step apart would leave the adaptive
    stepper a step too short to take.
    """
    base = np.linspace(0.0, config.time.t_max, config.time.sample_count)
    snaps = np.asarray(config.time.snapshot_times, dtype=float)
    if snaps.size:
        near = base[np.abs(base[:, None] - snaps).argmin(axis=0)]
        close = np.abs(near - snaps) <= _MERGE_ULPS * np.spacing(np.abs(snaps))
        snaps = np.where(close, near, snaps)
    return [float(t) for t in snaps]


def _union_grid(config: ScenarioConfig) -> TimeGrid:
    base = np.linspace(0.0, config.time.t_max, config.time.sample_count)
    return TimeGrid(np.unique(np.concatenate([base, _snapshot_times(config)])))


def _timeseries_row(
    t: float, state: DensityMatrix, diag: StepDiagnostics, mom: MomentSet
) -> list:
    lin, purity = linear_entropy_and_purity(state)
    return [
        t,
        mom.mean_n,
        mom.mean_a.real,
        mom.mean_a.imag,
        von_neumann_entropy(state),
        lin,
        purity,
        mom.fano(),
        mom.squeezing(),
        diag.trace_error,
        diag.tail_mass,
        float(diag.steps),
    ]


def _distance_row(t: float, state: DensityMatrix, target: DensityMatrix) -> list:
    try:
        rel = relative_entropy(state, target)
    except SupportMismatch:
        # the state still has weight outside the numerical support of the
        # stationary state, so the relative entropy is effectively
        # infinite; leave the cell empty
        rel = None
    return [t, bures_distance(state, target), rel]


@dataclass
class _Kept:
    """What a run keeps of its evolution: rows, not states, except where named.

    A list is None when no output asks for it.  `snapshots` maps snapshot
    times (each one a time of the union grid) to their states, and `final`
    is the last state.
    """

    timeseries: list[list] | None
    mean_a: list[complex] | None
    distance: list[list] | None
    snapshots: dict[float, DensityMatrix]
    first_moments: MomentSet | None = None
    final: DensityMatrix | None = None
    steps: int = 0


def _consume_evolution(
    config: ScenarioConfig,
    psi0: StateVector,
    grid: TimeGrid,
    target: DensityMatrix | None,
) -> _Kept:
    """Run the evolution once, feeding every output that needs the state.

    Each sample adds a timeseries row, <a> for the classical path and a row
    of distances to `target` (the stationary state, None without a distance
    output), all from the state at its integrated block size; states are
    kept only at snapshot times, zero-padded to the declared cutoff, plus
    the last one for the summary.  Evolution failures become
    `IntegrationFailure`.
    """
    specs = config.outputs
    kept = _Kept(
        timeseries=[] if any(isinstance(s, TimeseriesOutput) for s in specs) else None,
        mean_a=[] if any(isinstance(s, ClassicalPathOutput) for s in specs) else None,
        distance=[] if target is not None else None,
        snapshots={},
    )
    wanted = set()
    if any(isinstance(s, QuasiGridOutput) and s.target == "snapshots" for s in specs):
        wanted = set(_snapshot_times(config))

    def on_sample(t: float, state: DensityMatrix, diag: StepDiagnostics) -> None:
        if kept.timeseries is not None or kept.mean_a is not None:
            mom = moments(state)
            if kept.first_moments is None:
                kept.first_moments = mom
            if kept.timeseries is not None:
                kept.timeseries.append(_timeseries_row(t, state, diag, mom))
            if kept.mean_a is not None:
                kept.mean_a.append(mom.mean_a)
        if kept.distance is not None:
            kept.distance.append(_distance_row(t, state, target))
        if t in wanted:
            kept.snapshots[t] = (
                state if state.dim == psi0.dim
                else DensityMatrix(leading_block(state.elements, psi0.dim))
            )
        kept.final = state

    try:
        last = stream_evolution(density_from_pure(psi0), config.params, grid, on_sample)
    except (
        StepSizeUnderflow, DriftTooLarge, CutoffExceeded, PositivityLost
    ) as exc:
        raise IntegrationFailure(f"evolution failed: {exc}") from exc
    kept.steps = last.steps
    return kept


_TIMESERIES_COLUMNS = [
    "t",
    "mean_n",
    "re_mean_a",
    "im_mean_a",
    "entropy",
    "linear_entropy",
    "purity",
    "fano",
    "squeeze_S",
    "trace_error",
    "tail_mass",
    "steps",
]


def _write_grid_file(
    path: Path,
    header: list[str],
    grid: QuasiGrid,
    values: np.ndarray,
    time_label: str,
) -> None:
    """Write one state's values of `grid` with the grid's axes and s."""
    lines = list(header)
    lines.append(f"# s: {_fmt(grid.s)}")
    lines.append(
        f"# re_axis: {_fmt(grid.re_axis[0])} {_fmt(grid.re_axis[-1])} "
        f"{grid.re_axis.shape[0]}"
    )
    lines.append(
        f"# im_axis: {_fmt(grid.im_axis[0])} {_fmt(grid.im_axis[-1])} "
        f"{grid.im_axis.shape[0]}"
    )
    lines.append(f"# time: {time_label}")
    _write_text(path, lines, _grid_text(values))


def _write_grids(
    config: ScenarioConfig,
    spec: QuasiGridOutput,
    oi: int,
    kept: _Kept | None,
    cutoff: FockCutoff,
    header: list[str],
    emit,
) -> None:
    """Write the grid files of one quasi_grid output from one batched evaluation.

    A snapshot output evaluates every snapshot state, a steady output the
    stationary state and its leading eigenvectors, so the grid's tables are
    built once per output.
    """
    if spec.target == "snapshots":
        times = _snapshot_times(config)
        states = [kept.snapshots[t] for t in times]
        names = [(f"t{si}", _fmt(t)) for si, t in enumerate(times)]
    else:
        rho_ss = steady_density(config.params, cutoff)  # cached across outputs
        states = [rho_ss]
        names = [("steady", "steady")]
        if spec.eigenvectors:
            dec = spectral_decomposition(rho_ss)
            for j in range(min(spec.eigenvectors, len(dec.eigenstates))):
                states.append(density_from_pure(dec.eigenstates[j]))
                names.append((f"steady_eig{j}", f"steady_eig{j}"))
    re_axis = np.linspace(spec.re_min, spec.re_max, spec.points)
    im_axis = np.linspace(spec.im_min, spec.im_max, spec.points)
    grid = quasidistribution(states, spec.s, re_axis, im_axis)
    frames = grid.values.reshape(len(states), *grid.values.shape[-2:])
    for (suffix, label), values in zip(names, frames):
        _write_grid_file(
            emit(f"{config.name}_grid{oi}_{suffix}.grid"), header, grid, values, label
        )


def run_scenario(config: ScenarioConfig, out_dir) -> RunReport:
    """Run one validated scenario, writing its artifacts under out_dir.

    The evolution, if any output needs it, runs once and its samples are
    consumed as they come (`_consume_evolution`): only the rows of the
    outputs and the states at snapshot times are kept, so memory does not
    grow with the sample count.  A distance output's stationary target is
    built before the evolution starts.  Files are written after it ends, so
    a failed evolution leaves no partial file.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out}: {exc}") from exc

    params = config.params
    cutoff = _scenario_cutoff(config)
    header = _header_lines(config.name, params, cutoff.n_cut)
    psi0 = _initial_vector(config, cutoff)
    grid = _union_grid(config)
    kept = None
    if any(spec.needs_evolution for spec in config.outputs):
        # cached across outputs, so its decomposition is too
        target = (
            steady_density(params, cutoff)
            if any(isinstance(s, DistanceToSteadyOutput) for s in config.outputs)
            else None
        )
        kept = _consume_evolution(config, psi0, grid, target)

    files: list[str] = []

    def emit(name: str) -> Path:
        path = out / name
        files.append(str(path))
        return path

    for oi, spec in enumerate(config.outputs):
        if isinstance(spec, TimeseriesOutput):
            _write_csv(
                emit(f"{config.name}_timeseries.csv"),
                header,
                _TIMESERIES_COLUMNS,
                kept.timeseries,
            )
        elif isinstance(spec, ClassicalPathOutput):
            mom0 = kept.first_moments
            if spec.with_noise:
                path = linearized_noise_path(
                    mom0.mean_a, mom0.B, mom0.C, params, grid
                )
            else:
                path = classical_path(mom0.mean_a, params, grid)
            columns = ["t", "re_alpha", "im_alpha", "re_mean_a", "im_mean_a"]
            rows = []
            for i, t in enumerate(grid.times):
                q = kept.mean_a[i]
                row = [float(t), path.alpha[i].real, path.alpha[i].imag, q.real, q.imag]
                if spec.with_noise:
                    row += [
                        float(path.noise_B[i]),
                        path.noise_C[i].real,
                        path.noise_C[i].imag,
                    ]
                rows.append(row)
            if spec.with_noise:
                columns += ["noise_B", "re_noise_C", "im_noise_C"]
            _write_csv(emit(f"{config.name}_classical.csv"), header, columns, rows)
        elif isinstance(spec, SteadyReportOutput):
            _write_csv(emit(f"{config.name}_steady_report.csv"), header,
                       *steady_table(params, cutoff))
        elif isinstance(spec, GaussianReportOutput):
            _write_csv(emit(f"{config.name}_gaussian_report.csv"), header,
                       *gaussian_vs_exact_report(params, cutoff))
        elif isinstance(spec, DistanceToSteadyOutput):
            _write_csv(
                emit(f"{config.name}_distance.csv"),
                header,
                ["t", "bures", "relative_entropy"],
                kept.distance,
            )
        elif isinstance(spec, QuasiGridOutput):
            _write_grids(config, spec, oi, kept, cutoff, header, emit)

    summary: dict = {"cutoff": cutoff.n_cut, "dim": cutoff.dim}
    steps = 0
    if kept is not None:
        steps = kept.steps
        final = kept.final
        mom = moments(final)
        lin, purity = linear_entropy_and_purity(final)
        summary.update(
            {
                "t_final": float(grid.times[-1]),
                "mean_n": mom.mean_n,
                "entropy": von_neumann_entropy(final),
                "linear_entropy": lin,
                "purity": purity,
                "fano": mom.fano(),
                "squeeze_S": mom.squeezing(),
                "steps": steps,
            }
        )
    return RunReport(
        scenario=config.name, files=tuple(files), summary=summary, steps=steps
    )


def render_grid(grid_path, out_path=None) -> str:
    """Convert a grid file to an 8-bit ASCII portable greymap (PGM).

    Values are linearly mapped so the file minimum is black and the maximum
    is white; a constant grid renders black.
    """
    src = Path(grid_path)
    try:
        text = src.read_text(encoding="ascii")
    except OSError as exc:
        raise IoError(f"cannot read {src}: {exc}") from exc
    rows = []
    width = None
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        try:
            vals = [float(tok) for tok in line.split()]
        except ValueError as exc:
            raise IoError(f"{src}: non-numeric grid value ({exc})") from exc
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise IoError(f"{src}: ragged grid row (expected {width} values)")
        rows.append(vals)
    if not rows or not width:
        raise IoError(f"{src}: no grid values found")
    data = np.array(rows)
    lo, hi = float(np.min(data)), float(np.max(data))
    if hi > lo:
        pixels = np.rint((data - lo) / (hi - lo) * 255.0).astype(int)
    else:
        pixels = np.zeros(data.shape, dtype=int)
    dst = Path(out_path) if out_path is not None else src.with_suffix(".pgm")
    lines = [
        "P2",
        f"# kerrosc {__version__} rendering of {src.name}",
        f"{data.shape[1]} {data.shape[0]}",
        "255",
    ]
    lines += [" ".join(str(v) for v in row) for row in pixels]
    _write_text(dst, lines)
    return str(dst)
