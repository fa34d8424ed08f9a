"""Scenario execution: run validated configs and write the declared artifacts.

All files are deterministic for a fixed config and version: CSV with LF line
endings and 17-significant-digit floats, phase-space grids as header lines
followed by row-major values, and an optional portable greymap rendering.
Every file opens with a '#' header block echoing version, scenario name,
parameters, cutoff, and tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .gaussian import (
    gaussian_vs_exact_report,
    steady_mean_estimate,
    steady_record,
    strong_pump_estimates,
)
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


def _header_lines(name: str, params: OscillatorParams, n_cut: int) -> list[str]:
    return [
        f"# kerrosc {__version__}",
        f"# scenario: {name}",
        f"# params: pump={_fmt_complex(params.pump)} kerr={_fmt(params.kerr)} "
        f"loss={_fmt(params.loss)}",
        f"# cutoff: {n_cut}",
        f"# rtol: {_fmt(RTOL)} atol: {_fmt(ATOL)}",
    ]


def _write_text(path: Path, lines: list[str]) -> None:
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
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


def _needs_trajectory(config: ScenarioConfig) -> bool:
    for out in config.outputs:
        if isinstance(
            out, (TimeseriesOutput, ClassicalPathOutput, DistanceToSteadyOutput)
        ):
            return True
        if isinstance(out, QuasiGridOutput) and out.target == "snapshots":
            return True
    return False


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


def steady_table(
    params: OscillatorParams, cutoff: FockCutoff
) -> tuple[list[str], list[list]]:
    """Rows (label, exact, gaussian, crude) for the steady-state report.

    The exact and Gaussian columns come from `steady_record`, the crude
    column from the strong-pump limit; entries without a counterpart are None.
    """
    record = steady_record(params, cutoff)
    est = strong_pump_estimates()
    crude = {"entropy": est.entropy, "linear_entropy": est.linear_entropy,
             "squeeze_S": est.squeeze_S, "fano_F": est.fano_F, "x": est.x}
    crude.update((f"p{k}", w) for k, w in enumerate(est.weights))
    labels = ["mean_n", "entropy", "linear_entropy", "squeeze_S", "fano_F", "x",
              "leading_eig_squeeze"] + [f"p{k}" for k in range(10)]
    rows = [[q, record.exact.get(q), record.gaussian.get(q), crude.get(q)] for q in labels]
    return ["quantity", "exact", "gaussian", "crude"], rows


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
    row_fmt = " ".join([_FMT] * values.shape[1])
    for row in values:
        lines.append(row_fmt % tuple(row.tolist()))
    _write_text(path, lines)


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
    if _needs_trajectory(config):
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
            cols, rows = steady_table(params, cutoff)
            _write_csv(emit(f"{config.name}_steady_report.csv"), header, cols, rows)
        elif isinstance(spec, GaussianReportOutput):
            report = gaussian_vs_exact_report(params, cutoff)
            rows = [
                [label, e, g, d]
                for label, e, g, d in zip(
                    report.labels, report.exact, report.gaussian, report.abs_diff
                )
            ]
            _write_csv(
                emit(f"{config.name}_gaussian_report.csv"),
                header,
                ["quantity", "exact", "gaussian", "abs_diff"],
                rows,
            )
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
