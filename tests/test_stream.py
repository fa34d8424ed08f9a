"""The runner's single pass over the evolution samples.

`run_scenario` consumes each sample as it comes and keeps only rows and the
states at snapshot times.  Its files must equal those built from the
materialized `evolve` / `unpumped_evolve` trajectory, its memory must not
grow with the sample count, and the exact map's sample blocks must not move
a bit.  The guards read the samples ahead in stacks, and must still check
them in time order, leave no thread running and keep every spectrum bit for
bit.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from kerrosc.config import ScenarioConfig, validate_config
from kerrosc.dynamics import (
    _MAP_BLOCK,
    _SPECTRA_BATCH,
    TimeGrid,
    _guarded_stream,
    _project,
    _unpumped_map,
    evolve,
    linearized_noise_path,
    stream_evolution,
    unpumped_evolve,
)
from kerrosc.errors import (
    DriftTooLarge,
    EigSolverFailure,
    PositivityLost,
    PumpNotZero,
    StepSizeUnderflow,
    SupportMismatch,
)
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


    def test_stream_peak_does_not_grow_with_the_sample_count(self):
        # the read-ahead holds two stacks of `_SPECTRA_BATCH` samples; ten
        # times the samples may add less than two stacks at the largest block
        rho0 = density_from_pure(coherent_state(3.0, FockCutoff(45)))
        params = OscillatorParams(pump=5.0 + 0.0j, kerr=0.2, loss=1.0)
        peaks = []
        for samples in (201, 2001):
            tracemalloc.start()
            try:
                stream_evolution(rho0, params, TimeGrid.uniform(0.5, samples),
                                 lambda t, state, diag: None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2 * _SPECTRA_BATCH * 46 * 46 * 16


class TestReadAhead:
    """The guards read samples ahead in stacks, yet check them in time order.

    Each source below is a plain iterator of the projected leading 20 x 20
    block of |alpha=1> at n_cut 45, `count` samples long (three stacks and
    more), with one sample replaced or the source failing part way.
    """

    count = 3 * _SPECTRA_BATCH + 5
    rho0 = density_from_pure(coherent_state(1.0, FockCutoff(45)))
    # sample i at t = i
    grid = TimeGrid.uniform(float(count), count + 1)

    def good(self, d=20):
        return _project(np.array(self.rho0.elements[:d, :d]))[0]

    def below_floor(self):
        # unit trace and no tail mass, with one eigenvalue at -1e-6
        bad = np.zeros((20, 20), dtype=complex)
        bad[0, 0], bad[1, 1] = 1.0 + 1e-6, -1e-6
        return _project(bad)[0]

    def source(self, at=None, sample=None, drift=0.0, fail_at=None):
        good = self.good()
        for i in range(1, self.count + 1):
            if i == fail_at:
                raise StepSizeUnderflow(f"step size underflow before sample {i}")
            y, d = (sample, drift) if i == at else (good, 0.0)
            yield y, d, (i, 0, 0, 20, 0)

    def run(self, samples, seen, on_sample=None):
        def keep(t, state, diag):
            seen.append(t)
            if on_sample is not None:
                on_sample(t, state, diag)

        return _guarded_stream(self.rho0, self.grid, samples, keep)

    def test_a_guard_failure_precedes_a_later_source_failure(self):
        # sample 40 breaks the drift budget; the source fails more than a
        # stack later, after both were read
        at = _SPECTRA_BATCH + 8
        seen = []
        samples = self.source(at=at, sample=self.good(), drift=1.0,
                              fail_at=at + _SPECTRA_BATCH + 8)
        with pytest.raises(DriftTooLarge, match=rf"over \[{at - 1}, {at}\]"):
            self.run(samples, seen)
        assert seen == [float(t) for t in self.grid.times[:at]]

    def test_a_source_failure_waits_for_every_earlier_sample(self):
        fail_at = 2 * _SPECTRA_BATCH + 16
        seen = []
        with pytest.raises(StepSizeUnderflow, match=f"before sample {fail_at}$"):
            self.run(self.source(fail_at=fail_at), seen)
        assert seen == [float(t) for t in self.grid.times[:fail_at]]

    @pytest.mark.parametrize("entry, error, message", [
        ((3, 3), PositivityLost, r"^trace \(nan\+0j\) deviates from 1 beyond 1e-09 at t = 45$"),
        ((2, 5), EigSolverFailure, r"^Eigenvalues did not converge$"),
    ])
    def test_a_nan_sample_fails_at_its_own_time(self, entry, error, message):
        # mid-stack: its stacked `eigvalsh` fails, and each sample of the
        # stack is then checked on its own, as without read-ahead; a NaN off
        # the diagonal fails the decomposition itself
        at = _SPECTRA_BATCH + 13
        bad = self.good()
        bad[entry] = bad[entry[::-1]] = np.nan
        seen = []
        with pytest.raises(error, match=message):
            self.run(self.source(at=at, sample=bad), seen)
        assert seen == [float(t) for t in self.grid.times[:at]]

    def test_a_sample_below_the_floor_fails_mid_stack(self):
        # the eigenvalue check fires, with the message of a decomposition of
        # its own
        at = _SPECTRA_BATCH + 17
        seen = []
        with pytest.raises(PositivityLost) as info:
            self.run(self.source(at=at, sample=self.below_floor()), seen)
        assert str(info.value) == "minimum eigenvalue -1.000e-06 below -1e-09 at t = 49"
        assert isinstance(info.value.__cause__, ValueError)
        assert seen == [float(t) for t in self.grid.times[:at]]

    def test_no_thread_outlives_a_stream(self):
        at = _SPECTRA_BATCH + 3

        def interrupt(t, state, diag):
            if t == self.grid.times[at]:
                raise RuntimeError("stop")

        before = threading.active_count()
        cases = [
            (self.source(), None, None),
            (self.source(at=at, sample=self.good(), drift=1.0), None, DriftTooLarge),
            (self.source(at=at, sample=self.below_floor()), None, PositivityLost),
            (self.source(fail_at=at), None, StepSizeUnderflow),
            (self.source(), interrupt, RuntimeError),
        ]
        for samples, on_sample, error in cases:
            threads = []

            def watch(t, state, diag, on_sample=on_sample):
                threads.append(threading.active_count())
                if on_sample is not None:
                    on_sample(t, state, diag)

            if error is None:
                self.run(samples, [], watch)
            else:
                with pytest.raises(error):
                    self.run(samples, [], watch)
            # the worker ran: each stream was read past its first stack
            assert max(threads) == before + 1
            assert threading.active_count() == before

    @pytest.mark.parametrize("resizing", [False, True])
    def test_a_stream_within_one_stack_starts_no_thread(self, resizing):
        # resizing: the block alternates between 20 and 24 levels, so each
        # sample closes a stack early
        good = self.good()
        other = self.good(24) if resizing else good
        samples = ((other if i % 2 else good, 0.0, (i, 0, 0, 20, 0))
                   for i in range(1, _SPECTRA_BATCH + 1))
        before = threading.active_count()
        counts = []
        _guarded_stream(self.rho0, TimeGrid.uniform(1.0, _SPECTRA_BATCH + 1), samples,
                        lambda t, state, diag: counts.append((state.dim, threading.active_count())))
        assert len(counts) == _SPECTRA_BATCH + 1
        assert {n for _, n in counts} == {before}
        assert counts[-1][0] == 20 and counts[-2][0] == (24 if resizing else 20)

    def test_min_eigenvalues_are_those_of_a_decomposition_alone(self):
        # with the interpreter switching threads every 10 us, so the worker
        # and the main thread interleave as finely as they can
        rho0 = density_from_pure(coherent_state(3.0, FockCutoff(45)))
        params = OscillatorParams(pump=5.0 + 0.0j, kerr=0.2, loss=1.0)
        mismatched = []

        def check(t, state, diag):
            alone = np.linalg.eigvalsh(np.array(state.elements))
            if not (diag.min_eigenvalue == alone[0] and np.array_equal(state.spectrum, alone)):
                mismatched.append(t)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            last = stream_evolution(rho0, params, TimeGrid.uniform(2.0, 2001), check)
        finally:
            sys.setswitchinterval(interval)
        assert last.resizes > 0 and mismatched == []


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
