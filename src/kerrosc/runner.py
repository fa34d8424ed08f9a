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
    TimeGrid,
    Trajectory,
    classical_path,
    evolve,
    linearized_noise_path,
    unpumped_evolve,
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
    FockCutoff,
    OscillatorParams,
    StateVector,
    coherent_state,
    coherent_superposition,
    default_cutoff,
    density_from_pure,
    fock_state,
)
from .gaussian import (
    gaussian_vs_exact_report,
    steady_mean_estimate,
    steady_record,
    strong_pump_estimates,
)
from .measures import (
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


def _union_grid(config: ScenarioConfig) -> TimeGrid:
    base = np.linspace(0.0, config.time.t_max, config.time.sample_count)
    times = np.unique(np.concatenate([base, np.asarray(config.time.snapshot_times)]))
    return TimeGrid(times)


def _compute_trajectory(
    config: ScenarioConfig, psi0: StateVector, grid: TimeGrid
) -> Trajectory:
    # Without pump the evolution is the exact map; only pumped runs integrate.
    params = config.params
    rho0 = density_from_pure(psi0)
    try:
        if params.pump == 0:
            return unpumped_evolve(rho0, params, grid)
        return evolve(rho0, params, grid)
    except (
        StepSizeUnderflow, DriftTooLarge, CutoffExceeded, PositivityLost
    ) as exc:
        raise IntegrationFailure(f"evolution failed: {exc}") from exc


def _needs_trajectory(config: ScenarioConfig) -> bool:
    for out in config.outputs:
        if isinstance(
            out, (TimeseriesOutput, ClassicalPathOutput, DistanceToSteadyOutput)
        ):
            return True
        if isinstance(out, QuasiGridOutput) and out.target == "snapshots":
            return True
    return False


def _snapshot_index(grid: TimeGrid, t: float) -> int:
    idx = int(np.searchsorted(grid.times, t))
    if idx >= grid.times.shape[0] or grid.times[idx] != t:
        raise ValueError(f"snapshot time {t} missing from the evolution grid")
    return idx


def _timeseries_rows(traj: Trajectory) -> list[list]:
    rows = []
    for t, state, diag in zip(traj.times.times, traj.states, traj.diagnostics):
        mom = moments(state)
        entropy = von_neumann_entropy(state)
        lin, purity = linear_entropy_and_purity(state)
        rows.append(
            [
                float(t),
                mom.mean_n,
                mom.mean_a.real,
                mom.mean_a.imag,
                entropy,
                lin,
                purity,
                mom.fano(),
                mom.squeezing(),
                diag.trace_error,
                diag.tail_mass,
                float(diag.steps),
            ]
        )
    return rows


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
    time_label: str,
) -> None:
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
    row_fmt = " ".join([_FMT] * grid.values.shape[1])
    for row in grid.values:
        lines.append(row_fmt % tuple(row.tolist()))
    _write_text(path, lines)


def run_scenario(config: ScenarioConfig, out_dir) -> RunReport:
    """Run one validated scenario, writing its artifacts under out_dir."""
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
    traj = (
        _compute_trajectory(config, psi0, grid)
        if _needs_trajectory(config)
        else None
    )

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
                _timeseries_rows(traj),
            )
        elif isinstance(spec, ClassicalPathOutput):
            moms = [moments(state) for state in traj.states]
            mom0 = moms[0]
            if spec.with_noise:
                path = linearized_noise_path(
                    mom0.mean_a, mom0.B, mom0.C, params, grid
                )
            else:
                path = classical_path(mom0.mean_a, params, grid)
            columns = ["t", "re_alpha", "im_alpha", "re_mean_a", "im_mean_a"]
            rows = []
            for i, t in enumerate(grid.times):
                q = moms[i].mean_a
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
            # cached across outputs, so its decomposition is too
            rho_ss = steady_density(params, cutoff)
            rows = []
            for t, state in zip(grid.times, traj.states):
                try:
                    rel = relative_entropy(state, rho_ss)
                except SupportMismatch:
                    # the state still has weight outside the numerical
                    # support of the stationary state, so the relative
                    # entropy is effectively infinite; leave the cell empty
                    rel = None
                rows.append([float(t), bures_distance(state, rho_ss), rel])
            _write_csv(
                emit(f"{config.name}_distance.csv"),
                header,
                ["t", "bures", "relative_entropy"],
                rows,
            )
        elif isinstance(spec, QuasiGridOutput):
            re_axis = np.linspace(spec.re_min, spec.re_max, spec.points)
            im_axis = np.linspace(spec.im_min, spec.im_max, spec.points)
            if spec.target == "snapshots":
                for si, t in enumerate(config.time.snapshot_times):
                    state = traj.states[_snapshot_index(grid, t)]
                    g = quasidistribution(state, spec.s, re_axis, im_axis)
                    _write_grid_file(
                        emit(f"{config.name}_grid{oi}_t{si}.grid"),
                        header,
                        g,
                        _fmt(t),
                    )
            else:
                rho_ss = steady_density(params, cutoff)  # cached across outputs
                g = quasidistribution(rho_ss, spec.s, re_axis, im_axis)
                _write_grid_file(
                    emit(f"{config.name}_grid{oi}_steady.grid"), header, g, "steady"
                )
                if spec.eigenvectors:
                    dec = spectral_decomposition(rho_ss)
                    for j in range(min(spec.eigenvectors, len(dec.eigenstates))):
                        gj = quasidistribution(
                            density_from_pure(dec.eigenstates[j]),
                            spec.s,
                            re_axis,
                            im_axis,
                        )
                        _write_grid_file(
                            emit(f"{config.name}_grid{oi}_steady_eig{j}.grid"),
                            header,
                            gj,
                            f"steady_eig{j}",
                        )

    summary: dict = {"cutoff": cutoff.n_cut, "dim": cutoff.dim}
    steps = 0
    if traj is not None:
        steps = traj.diagnostics[-1].steps
        final = traj.states[-1]
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
        vals = [float(tok) for tok in line.split()]
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
