"""The runner's single pass over the evolution samples.

`run_scenario` consumes each sample as it comes and keeps only rows and the
states at snapshot times.  Its files must equal those built from the
materialized `evolve` / `unpumped_evolve` trajectory, its memory must not
grow with the sample count, and the exact map's sample blocks must not move
a bit.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from kerrosc.config import ScenarioConfig, validate_config
from kerrosc.dynamics import (
    _MAP_BLOCK,
    TimeGrid,
    _unpumped_map,
    evolve,
    linearized_noise_path,
    stream_evolution,
    unpumped_evolve,
)
from kerrosc.errors import PumpNotZero, SupportMismatch
from kerrosc.fock import (
    FockCutoff,
    OscillatorParams,
    coherent_state,
    density_from_pure,
    leading_block,
)
from kerrosc.measures import (
    bures_distance,
    linear_entropy_and_purity,
    moments,
    relative_entropy,
    von_neumann_entropy,
)
from kerrosc.quasidist import quasidistribution
from kerrosc.runner import (
    _TIMESERIES_COLUMNS,
    _fmt,
    _header_lines,
    _union_grid,
    _write_csv,
    _write_grid_file,
    run_scenario,
)
from kerrosc.steady import steady_density

STREAM_YAML = """
name: stream
initial_state:
  kind: coherent
  alpha: [1.0, -2.0]
params:
  pump: [{pump}, 0.0]
  kerr: 0.2
  loss: 1.0
cutoff: 24
time:
  t_max: 1.5
  snapshot_times: [0.125, 0.71]
  sample_count: {samples}
outputs:
  - kind: timeseries
  - kind: classical_path
    with_noise: true
  - kind: distance_to_steady
  - kind: quasi_grid
    s: 0.0
    re_min: -2.0
    re_max: 2.0
    im_min: -3.0
    im_max: 1.0
    points: 7
"""


def stream_config(pump: float, samples: int) -> ScenarioConfig:
    config = validate_config(STREAM_YAML.format(pump=pump, samples=samples))
    assert isinstance(config, ScenarioConfig)
    return config


def files_from_trajectory(config: ScenarioConfig, out) -> dict[str, bytes]:
    """The four sample-fed files, built from a fully kept trajectory."""
    params, cutoff = config.params, FockCutoff(config.cutoff)
    header = _header_lines(config.name, params, cutoff.n_cut)
    grid = _union_grid(config)
    rho0 = density_from_pure(coherent_state(config.initial_state.alpha, cutoff))
    if params.pump == 0:
        traj = unpumped_evolve(rho0, params, grid)
    else:
        traj = evolve(rho0, params, grid)
    times = [float(t) for t in grid.times]
    moms = [moments(state) for state in traj.states]

    rows = []
    for t, state, diag, mom in zip(times, traj.states, traj.diagnostics, moms):
        lin, purity = linear_entropy_and_purity(state)
        rows.append([t, mom.mean_n, mom.mean_a.real, mom.mean_a.imag,
                     von_neumann_entropy(state), lin, purity, mom.fano(),
                     mom.squeezing(), diag.trace_error, diag.tail_mass,
                     float(diag.steps)])
    _write_csv(out / "timeseries.csv", header, _TIMESERIES_COLUMNS, rows)

    path = linearized_noise_path(moms[0].mean_a, moms[0].B, moms[0].C, params, grid)
    rows = [
        [t, path.alpha[i].real, path.alpha[i].imag, moms[i].mean_a.real,
         moms[i].mean_a.imag, float(path.noise_B[i]), path.noise_C[i].real,
         path.noise_C[i].imag]
        for i, t in enumerate(times)
    ]
    _write_csv(out / "classical.csv", header,
               ["t", "re_alpha", "im_alpha", "re_mean_a", "im_mean_a",
                "noise_B", "re_noise_C", "im_noise_C"], rows)

    target = steady_density(params, cutoff)
    rows = []
    for t, state in zip(times, traj.states):
        try:
            rel = relative_entropy(state, target)
        except SupportMismatch:
            rel = None
        rows.append([t, bures_distance(state, target), rel])
    _write_csv(out / "distance.csv", header, ["t", "bures", "relative_entropy"], rows)

    spec = config.outputs[3]
    re_axis = np.linspace(spec.re_min, spec.re_max, spec.points)
    im_axis = np.linspace(spec.im_min, spec.im_max, spec.points)
    for si, t in enumerate(config.time.snapshot_times):
        state = traj.states[times.index(t)]
        g = quasidistribution(state, spec.s, re_axis, im_axis)
        _write_grid_file(out / f"grid_t{si}.grid", header, g, g.values, _fmt(t))

    return {p.name: p.read_bytes() for p in out.iterdir()}


class TestStreamMatchesTrajectory:
    # 101 unpumped samples span two blocks of the exact map
    @pytest.mark.parametrize("pump, samples", [(5.0, 31), (0.0, 2 * _MAP_BLOCK - 27)])
    def test_files_equal_the_materialized_trajectory(self, tmp_path, pump, samples):
        config = stream_config(pump, samples)
        run_scenario(config, tmp_path / "run")
        (tmp_path / "ref").mkdir()
        expected = files_from_trajectory(config, tmp_path / "ref")
        got = {
            "timeseries.csv": "stream_timeseries.csv",
            "classical.csv": "stream_classical.csv",
            "distance.csv": "stream_distance.csv",
            "grid_t0.grid": "stream_grid3_t0.grid",
            "grid_t1.grid": "stream_grid3_t1.grid",
        }
        assert sorted(expected) == sorted(got)
        for ref_name, run_name in got.items():
            assert (tmp_path / "run" / run_name).read_bytes() == expected[ref_name], ref_name

    def test_stream_hands_over_what_evolve_keeps(self):
        rho0 = density_from_pure(coherent_state(1.0 - 2.0j, FockCutoff(24)))
        grid = TimeGrid.uniform(0.8, 9)
        config = stream_config(5.0, 9)
        seen = []
        last = stream_evolution(rho0, config.params, grid,
                                lambda t, state, diag: seen.append((t, state, diag)))
        traj = evolve(rho0, config.params, grid)
        assert [t for t, _, _ in seen] == [float(t) for t in grid.times]
        assert last == traj.diagnostics[-1] == seen[-1][2]
        for (_, state, diag), kept, kept_diag in zip(seen, traj.states, traj.diagnostics):
            assert np.array_equal(state.elements, kept.elements)
            assert diag == kept_diag


class TestExactMapBlocks:
    def test_blocks_equal_one_call_bit_for_bit(self):
        config = stream_config(0.0, 3)
        rho0 = density_from_pure(coherent_state(1.0 - 2.0j, FockCutoff(24)))
        times = np.linspace(0.0, 1.5, 2 * _MAP_BLOCK + 12)[1:]
        whole = _unpumped_map(rho0.elements, config.params, times)
        blocks = np.concatenate([
            _unpumped_map(rho0.elements, config.params, times[i : i + _MAP_BLOCK])
            for i in range(0, times.shape[0], _MAP_BLOCK)
        ])
        assert np.array_equal(whole, blocks)

    def test_pumped_params_rejected_before_any_sample(self):
        rho0 = density_from_pure(coherent_state(1.0, FockCutoff(15)))
        with pytest.raises(PumpNotZero):
            unpumped_evolve(rho0, stream_config(5.0, 3).params, TimeGrid.uniform(1.0, 3))


class TestMemory:
    def test_peak_does_not_grow_with_the_sample_count(self, tmp_path):
        # 2001 states at n_cut 45 would hold 2001 * 46^2 * 16 B = 68 MB
        text = STREAM_YAML.format(pump=5.0, samples=2001)
        text = text[: text.index("  - kind: classical_path")]
        for old, new in (("cutoff: 24", "cutoff: 45"), ("t_max: 1.5", "t_max: 0.5"),
                         ("[0.125, 0.71]", "[]")):
            text = text.replace(old, new)
        config = validate_config(text)
        assert isinstance(config, ScenarioConfig)
        states_bytes = 2001 * 46 * 46 * 16
        tracemalloc.start()
        try:
            run_scenario(config, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < states_bytes / 4


class TestBlockOutputs:
    """Stream outputs keep the integrated block; `evolve` pads them."""

    bundled = OscillatorParams(pump=5.0 + 0.0j, kerr=0.2, loss=1.0)

    def test_outputs_at_a_large_cutoff_are_block_sized(self):
        # the relaxed state fills about 35 levels of the 131 declared
        rho0 = density_from_pure(coherent_state(3.0 * np.exp(0.4j), FockCutoff(130)))
        seen = []
        last = stream_evolution(rho0, self.bundled, TimeGrid.uniform(10.0, 501),
                                lambda t, state, diag: seen.append((state, diag)))
        assert seen[0][0] is rho0 and seen[0][1].block == 0
        assert last.resizes > 0
        for state, diag in seen[1:]:
            assert state.dim == diag.block < 60
            assert diag.tail_mass == 0.0
        for state, diag in seen:
            assert diag.min_eigenvalue == state.spectrum[0]
            assert diag.min_eigenvalue >= -1e-9

    def test_evolve_states_are_the_padded_stream_states(self):
        rho0 = density_from_pure(coherent_state(3.0, FockCutoff(60)))
        grid = TimeGrid.uniform(5.0, 51)
        seen = []
        stream_evolution(rho0, self.bundled, grid,
                         lambda t, state, diag: seen.append((state, diag)))
        traj = evolve(rho0, self.bundled, grid)
        assert any(diag.block < rho0.dim for _, diag in seen[1:])
        for (state, diag), kept, kept_diag in zip(seen, traj.states, traj.diagnostics):
            assert kept.dim == rho0.dim
            assert np.array_equal(leading_block(state.elements, rho0.dim), kept.elements)
            # the counts and the guards' readings agree; the spectrum of the
            # padded state adds the zeros of the padding
            assert replace(diag, min_eigenvalue=0.0) == replace(kept_diag, min_eigenvalue=0.0)
            assert kept_diag.min_eigenvalue == kept.spectrum[0]

    def test_snapshot_grids_use_the_padded_state(self, tmp_path):
        # at cutoff 45 the block shrinks below the declared cutoff, and the
        # grids are those of the zero-padded states that evolve keeps
        config = validate_config(
            STREAM_YAML.format(pump=5.0, samples=31)
            .replace("cutoff: 24", "cutoff: 45")
            .replace("[0.125, 0.71]", "[0.125, 1.5]")
        )
        assert isinstance(config, ScenarioConfig)
        run_scenario(config, tmp_path / "run")
        (tmp_path / "ref").mkdir()
        expected = files_from_trajectory(config, tmp_path / "ref")
        for si in range(2):
            got = (tmp_path / "run" / f"stream_grid3_t{si}.grid").read_bytes()
            assert got == expected[f"grid_t{si}.grid"]
