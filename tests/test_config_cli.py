"""Scenario configuration, runner artifacts, and the command-line interface.

Covers schema validation messages, canonical-serialization idempotence,
byte-level determinism of run artifacts, file header structure, greymap
rendering, and the CLI exit-code contract.
"""

from __future__ import annotations

import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import kerrosc
import kerrosc.runner
from kerrosc.cli import main
from kerrosc.config import (
    CoherentInit,
    FockInit,
    QuasiGridOutput,
    ScenarioConfig,
    SuperpositionInit,
    TimeseriesOutput,
    canonical_dict,
    canonical_text,
    validate_config,
)
from kerrosc.errors import IntegrationFailure, IoError
from kerrosc.fock import FockCutoff, OscillatorParams, coherent_state
from kerrosc.gaussian import gaussian_vs_exact_report
from kerrosc.quasidist import QuasiGrid
from kerrosc.steady import steady_density
from kerrosc.runner import (
    RunReport,
    _grid_text,
    _write_grid_file,
    render_grid,
    run_scenario,
    steady_table,
)
from kerrosc.version import __version__

# The smoke scenario starts a coherent state at the classical steady
# amplitude of the pumped oscillator so every output is well conditioned:
# the distance file gets finite relative-entropy cells within t <= 1 while
# the first two rows exercise the empty-cell (undefined) branch.
GOOD_YAML = """
name: smoke
initial_state:
  kind: coherent
  alpha: [1.0, -2.0]
params:
  pump: [5.0, 0.0]
  kerr: 0.2
  loss: 1.0
cutoff: 30
time:
  t_max: 1.0
  snapshot_times: [0.125]
  sample_count: 3
outputs:
  - kind: timeseries
  - kind: classical_path
    with_noise: true
  - kind: quasi_grid
    s: 0.0
    re_min: -2.0
    re_max: 2.0
    im_min: -2.0
    im_max: 2.0
    points: 9
  - kind: distance_to_steady
  - kind: steady_report
  - kind: gaussian_report
"""

LOSSLESS_PUMPED_YAML = """
name: lossless
initial_state:
  kind: coherent
  alpha: [2.0, 0.0]
params:
  pump: [0.5, 0.0]
  kerr: 0.2
  loss: 0.0
cutoff: 45
time:
  t_max: 5.0
  snapshot_times: []
  sample_count: 101
outputs:
  - kind: timeseries
"""


# `kerrosc.cli` with the integrator's sample source wrapped so that its
# fourth sample is the projection of diag(1 + 1e-6, -1e-6, 0, ...): unit
# trace, no tail mass, and a minimum eigenvalue of -1e-6
FAILING_SOURCE_RUN = """
import sys
import numpy as np
import kerrosc.dynamics as dynamics
from kerrosc.cli import main

krylov_samples = dynamics._krylov_samples


def failing(*args):
    source = krylov_samples(*args)

    def samples(project):
        for index, (y, counts) in enumerate(source(project)):
            if index == 3:
                bad = np.zeros_like(y)
                bad[0, 0], bad[1, 1] = 1.0 + 1e-6, -1e-6
                y = project(bad)
            yield y, counts

    return samples


dynamics._krylov_samples = failing
sys.exit(main(sys.argv[1:]))
"""


def good_config() -> ScenarioConfig:
    config = validate_config(GOOD_YAML)
    assert isinstance(config, ScenarioConfig)
    return config


# 0.7 is one rounding step off the linspace point 0.7000000000000001
NEAR_SAMPLE_YAML = """
name: near
initial_state:
  kind: coherent
  alpha: [2.0, 0.0]
params:
  pump: [5.0, 0.0]
  kerr: 0.2
  loss: 1.0
cutoff: 30
time:
  t_max: 1.5
  snapshot_times: [0.7]
  sample_count: 31
outputs:
  - kind: classical_path
  - kind: timeseries
  - kind: quasi_grid
    s: 0.0
    re_min: -2.0
    re_max: 2.0
    im_min: -2.0
    im_max: 2.0
    points: 5
"""


class TestValidateConfig:
    def test_happy_path(self):
        config = good_config()
        assert config.name == "smoke"
        assert config.initial_state == CoherentInit(alpha=1.0 - 2.0j)
        assert config.params == OscillatorParams(pump=5.0 + 0.0j, kerr=0.2, loss=1.0)
        assert config.cutoff == 30
        assert config.time.t_max == 1.0
        assert config.time.snapshot_times == (0.125,)
        assert len(config.outputs) == 6

    def test_bare_number_complex_accepted(self):
        config = validate_config(
            GOOD_YAML.replace("alpha: [1.0, -2.0]", "alpha: 1.0")
        )
        assert isinstance(config, ScenarioConfig)
        assert config.initial_state == CoherentInit(alpha=1.0 + 0.0j)

    def test_fock_and_superposition_states(self):
        config = validate_config(
            GOOD_YAML.replace(
                "  kind: coherent\n  alpha: [1.0, -2.0]", "  kind: fock\n  n: 3"
            )
        )
        assert isinstance(config, ScenarioConfig)
        assert config.initial_state == FockInit(n=3)

        sup = (
            "  kind: superposition\n"
            "  components:\n"
            "    - {weight: [1.0, 0.0], alpha: [2.0, 0.0]}\n"
            "    - {weight: [1.0, 0.0], alpha: [-2.0, 0.0]}"
        )
        config = validate_config(
            GOOD_YAML.replace("  kind: coherent\n  alpha: [1.0, -2.0]", sup)
        )
        assert isinstance(config, ScenarioConfig)
        assert isinstance(config.initial_state, SuperpositionInit)
        assert len(config.initial_state.components) == 2

    def test_yaml_syntax_error_reported(self):
        errors = validate_config("name: [unclosed")
        assert isinstance(errors, list)
        assert len(errors) == 1 and errors[0].startswith("<yaml>:")

    @pytest.mark.parametrize(
        "mutation,fragment",
        [
            (lambda t: t.replace("name: smoke\n", ""), "name:"),
            (lambda t: t.replace("name: smoke", "name: a/b"), "name:"),
            (lambda t: t.replace("  pump: [5.0, 0.0]\n", ""), "params.pump: required"),
            (lambda t: t.replace("loss: 1.0", "loss: -1.0"), "params.loss"),
            (lambda t: t.replace("t_max: 1.0", "t_max: -2.0"), "time.t_max"),
            (
                lambda t: t.replace("snapshot_times: [0.125]", "snapshot_times: [1.5]"),
                "outside [0, t_max",
            ),
            (lambda t: t.replace("sample_count: 3", "sample_count: 1"), "sample_count"),
            (lambda t: t.replace("kind: timeseries", "kind: nonsense"), "kind"),
            (
                lambda t: t.replace("kind: timeseries", "kind: [timeseries]"),
                "outputs[0].kind: must be one of",
            ),
            (lambda t: t.replace("    s: 0.0", "    s: 1.0"), "[-1, 1 - 1e-9]"),
            (lambda t: t.replace("cutoff: 30", "cutoff: 0"), "cutoff"),
            (
                lambda t: t.replace("  kind: coherent\n  alpha: [1.0, -2.0]",
                                    "  kind: fock\n  n: 35"),
                "exceeds cutoff",
            ),
        ],
    )
    def test_error_paths_name_the_field(self, mutation, fragment):
        errors = validate_config(mutation(GOOD_YAML))
        assert isinstance(errors, list) and errors
        assert any(fragment in e for e in errors), errors

    def test_unknown_field_reported(self):
        errors = validate_config(GOOD_YAML.replace("cutoff: 30", "cutoff: 30\nbogus: 1"))
        assert isinstance(errors, list)
        assert any("bogus" in e and "unknown field" in e for e in errors)

    def test_steady_outputs_need_kerr(self):
        errors = validate_config(GOOD_YAML.replace("kerr: 0.2", "kerr: 0.0"))
        assert isinstance(errors, list)
        assert any("requires kerr != 0" in e for e in errors)

    def test_steady_outputs_need_loss(self):
        errors = validate_config(GOOD_YAML.replace("loss: 1.0", "loss: 0.0"))
        assert isinstance(errors, list)
        # distance_to_steady, steady_report and gaussian_report
        assert sum("requires loss > 0" in e for e in errors) == 3
        # the lossless evolution alone is a valid scenario
        lossless = GOOD_YAML.replace("loss: 1.0", "loss: 0.0").split(
            "  - kind: distance_to_steady"
        )[0]
        assert isinstance(validate_config(lossless), ScenarioConfig)

    def test_quasi_snapshots_need_snapshot_times(self):
        errors = validate_config(
            GOOD_YAML.replace("snapshot_times: [0.125]", "snapshot_times: []")
        )
        assert isinstance(errors, list)
        assert any("requires" in e and "snapshot_times" in e for e in errors)

    def test_eigenvectors_need_steady_target(self):
        text = GOOD_YAML.replace("    points: 9", "    points: 9\n    eigenvectors: 2")
        errors = validate_config(text)
        assert isinstance(errors, list)
        assert any("eigenvectors" in e for e in errors)

    def test_never_raises_on_garbage(self):
        for text in ("", "42", "- 1\n- 2", "null"):
            result = validate_config(text)
            assert isinstance(result, list) and result

    def test_exponent_floats_without_a_dot(self):
        # YAML 1.2 floats: PyYAML's 1.1 rule would read 2e-1 as a string
        from importlib.resources import files

        text = (files("kerrosc") / "scenarios" / "fig10_coherent.yaml").read_text(
            encoding="ascii"
        )
        spelled = text.replace("kerr: 0.2", "kerr: 2e-1").replace("t_max: 20.0", "t_max: 2E+1")
        assert spelled != text
        config = validate_config(spelled)
        assert isinstance(config, ScenarioConfig), config
        assert canonical_text(config) == canonical_text(validate_config(text))
        assert isinstance(config.params.kerr, float) and config.time.t_max == 20.0

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("kerr: 0.2", "kerr: fast", "params.kerr: must be a finite number"),
            ("  kerr: 0.2\n", "", "params.kerr: required"),
            ("loss: 1.0", "loss: -1.0", "params.loss: must be >= 0"),
            ("t_max: 1.0", "t_max: soon", "time.t_max: must be a finite number"),
            ("t_max: 1.0", "t_max: -2.0", "time.t_max: must be > 0"),
            ("re_min: -2.0", "re_min: left", "outputs[2].re_min: must be a finite number"),
            ("cutoff: 30", "cutoff: 0", "cutoff: must be an integer >= 1"),
        ],
    )
    def test_one_message_per_bad_field(self, old, new, message):
        # a bad value stands in as one that passes every later check, so
        # the steady outputs, snapshot times and grid ranges add nothing
        text = GOOD_YAML.replace(old, new, 1)
        if old == "cutoff: 30":
            text = text.replace("  kind: coherent\n  alpha: [1.0, -2.0]", "  kind: fock\n  n: 3")
        assert validate_config(text) == [message]


class TestCanonicalForm:
    def test_field_order(self):
        data = canonical_dict(good_config())
        assert list(data.keys()) == [
            "name",
            "initial_state",
            "params",
            "cutoff",
            "time",
            "outputs",
        ]

    def test_complex_values_are_pairs(self):
        data = canonical_dict(good_config())
        assert data["params"]["pump"] == [5.0, 0.0]
        assert data["initial_state"]["alpha"] == [1.0, -2.0]

    def test_output_entries_are_pinned(self):
        # every output kind's entry, its keys in canonical order; the two
        # added outputs take every default but quasi_grid's s and target
        text = GOOD_YAML.replace(
            "  - kind: timeseries\n",
            "  - kind: timeseries\n  - kind: classical_path\n  - kind: quasi_grid\n"
            "    s: -1.0\n    target: steady\n    eigenvectors: 2\n",
        )
        canon = canonical_text(validate_config(text))
        assert canon[canon.index("outputs:\n"):] == (
            "outputs:\n"
            "- kind: timeseries\n"
            "- kind: classical_path\n  with_noise: false\n"
            "- kind: quasi_grid\n  s: -1.0\n  re_min: -6.0\n  re_max: 6.0\n"
            "  im_min: -6.0\n  im_max: 6.0\n  points: 121\n  target: steady\n"
            "  eigenvectors: 2\n"
            "- kind: classical_path\n  with_noise: true\n"
            "- kind: quasi_grid\n  s: 0.0\n  re_min: -2.0\n  re_max: 2.0\n"
            "  im_min: -2.0\n  im_max: 2.0\n  points: 9\n  target: snapshots\n"
            "  eigenvectors: 0\n"
            "- kind: distance_to_steady\n"
            "- kind: steady_report\n"
            "- kind: gaussian_report\n"
        )

    def test_serialization_is_idempotent(self):
        text1 = canonical_text(good_config())
        config2 = validate_config(text1)
        assert isinstance(config2, ScenarioConfig)
        assert canonical_text(config2) == text1

    def test_canonical_text_is_parseable_yaml(self):
        parsed = yaml.safe_load(canonical_text(good_config()))
        assert parsed["name"] == "smoke"


class TestBundledScenarios:
    def test_all_bundled_scenarios_validate_and_round_trip(self):
        from importlib.resources import files

        scenario_dir = files("kerrosc") / "scenarios"
        names = sorted(
            entry.name for entry in scenario_dir.iterdir() if entry.name.endswith(".yaml")
        )
        assert len(names) == 17
        for name in names:
            text = (scenario_dir / name).read_text(encoding="utf-8")
            config = validate_config(text)
            assert isinstance(config, ScenarioConfig), (name, config)
            canon = canonical_text(config)
            config2 = validate_config(canon)
            assert isinstance(config2, ScenarioConfig)
            assert canonical_text(config2) == canon


@pytest.fixture(scope="module")
def run_once(tmp_path_factory):
    out = tmp_path_factory.mktemp("run1")
    report = run_scenario(good_config(), out)
    return out, report


class TestRunScenario:
    def test_report_structure(self, run_once):
        _, report = run_once
        assert isinstance(report, RunReport)
        assert report.scenario == "smoke"
        assert report.steps > 0
        assert report.summary["cutoff"] == 30
        assert report.summary["dim"] == 31
        assert report.summary["t_final"] == 1.0

    def test_expected_files(self, run_once):
        out, report = run_once
        names = sorted(p.split("/")[-1] for p in report.files)
        assert names == [
            "smoke_classical.csv",
            "smoke_distance.csv",
            "smoke_gaussian_report.csv",
            "smoke_grid2_t0.grid",
            "smoke_steady_report.csv",
            "smoke_timeseries.csv",
        ]
        for path in report.files:
            assert (out / path.split("/")[-1]).exists()

    def test_header_block(self, run_once):
        out, _ = run_once
        lines = (out / "smoke_timeseries.csv").read_text().splitlines()
        assert lines[0] == f"# kerrosc {__version__}"
        assert lines[1] == "# scenario: smoke"
        assert lines[2] == "# params: pump=5,0 kerr=0.20000000000000001 loss=1"
        assert lines[3] == "# cutoff: 30"
        assert lines[4] == "# rtol: 1e-08 atol: 1e-10"
        assert lines[5].startswith("t,mean_n,re_mean_a,")

    def test_distance_decomposes_the_stationary_state_once(self, tmp_path, monkeypatch):
        # every sampled state is compared against the one cached steady state,
        # whose eigendecomposition is kept with it
        text = GOOD_YAML.split("outputs:")[0] + "outputs:\n  - kind: distance_to_steady\n"
        config = validate_config(text)
        # a fresh cache, so no earlier test has decomposed the target yet
        fresh = functools.lru_cache(maxsize=16)(steady_density.__wrapped__)
        monkeypatch.setattr(kerrosc.runner, "steady_density", fresh)
        decomposed = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            decomposed.append(np.array(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        run_scenario(config, tmp_path)
        rho_ss = fresh(config.params, FockCutoff(config.cutoff))
        assert len(decomposed) == 1
        assert np.array_equal(decomposed[0], rho_ss.elements)
        rows = (tmp_path / "smoke_distance.csv").read_text().splitlines()[6:]
        assert len(rows) == 4  # t = 0, 0.125, 0.5 and 1

    def test_timeseries_rows(self, run_once):
        out, _ = run_once
        lines = (out / "smoke_timeseries.csv").read_text().splitlines()
        columns = lines[5].split(",")
        assert columns == [
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
        # union of the 3 uniform samples and the t = 0.125 snapshot
        rows = lines[6:]
        assert len(rows) == 4
        assert [float(r.split(",")[0]) for r in rows] == [0.0, 0.125, 0.5, 1.0]

    def test_classical_csv_has_noise_columns(self, run_once):
        out, _ = run_once
        lines = (out / "smoke_classical.csv").read_text().splitlines()
        assert lines[5].split(",") == [
            "t",
            "re_alpha",
            "im_alpha",
            "re_mean_a",
            "im_mean_a",
            "noise_B",
            "re_noise_C",
            "im_noise_C",
        ]

    def test_distance_csv_columns_and_decay(self, run_once):
        out, _ = run_once
        lines = (out / "smoke_distance.csv").read_text().splitlines()
        assert lines[5] == "t,bures,relative_entropy"
        rows = [r.split(",") for r in lines[6:]]
        assert all(len(r) == 3 for r in rows)
        # early states sit partly outside the numerical support of the
        # stationary state, so those relative-entropy cells stay empty
        assert rows[0][2] == "" and rows[1][2] == ""
        assert float(rows[3][2]) < float(rows[2][2])
        # Bures distance is always defined and shrinks toward the target
        bures = [float(r[1]) for r in rows]
        assert bures[-1] < 0.02 * bures[0]

    def test_grid_file_structure(self, run_once):
        out, _ = run_once
        lines = (out / "smoke_grid2_t0.grid").read_text().splitlines()
        assert lines[5] == "# s: 0"
        assert lines[6] == "# re_axis: -2 2 9"
        assert lines[7] == "# im_axis: -2 2 9"
        assert lines[8] == "# time: 0.125"
        body = lines[9:]
        assert len(body) == 9
        assert all(len(row.split()) == 9 for row in body)

    def test_byte_determinism(self, run_once, tmp_path):
        out1, report = run_once
        out2 = tmp_path / "again"
        run_scenario(good_config(), out2)
        for path in report.files:
            name = path.split("/")[-1]
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_grid_rows_match_per_value_format(self, tmp_path):
        def around(x):
            return [np.nextafter(x, 0.0), x, np.nextafter(x, math.inf)]

        cut = 1e-290  # below it the grid text falls back to per-value formatting
        values = [
            -0.0, 0.0, 5e-324, -5e-324, np.nextafter(2.2250738585072014e-308, 0.0),
            1e300, -1e-17, 0.1, -2.5, 1.0 / 3.0, 123456.789, -1e-300,
            2.0 / math.pi, 7.0, 10.5, -99.99, 1234567890123456.7,
            math.nan, math.inf, -math.inf,
        ]
        values += around(cut) + [-v for v in around(cut)]
        for x in (1e-5, 1e-4, 1e16, 1e17):  # where %g changes form
            values += around(x) + [-v for v in around(x)]
        for k in range(1, 309):
            values += around(float(f"1e-{k}"))
        for k in range(17):
            values += around(float(f"1e{k}"))
        for j in range(81):
            values += [m * 2.0**-j for m in (1, 3, 5, 2**53 - 1)]
        cols = 7
        values = np.array(values + [0.0] * (-len(values) % cols)).reshape(-1, cols)
        grid = QuasiGrid(
            s=0.0,
            re_axis=np.linspace(-1.0, 1.0, cols),
            im_axis=np.linspace(-1.0, 1.0, values.shape[0]),
            values=values,
        )
        path = tmp_path / "rows.grid"
        _write_grid_file(path, ["# header"], grid, grid.values, "0")
        body = path.read_text().splitlines()[5:]
        assert body == [" ".join("%.17g" % (v,) for v in row) for row in values.tolist()]

    @settings(max_examples=200)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 9)),
            elements=st.floats() | st.floats(-1.0, 1.0),
        )
    )
    def test_grid_text_is_the_per_value_format(self, values):
        body = _grid_text(values).decode("ascii")
        assert body == "".join(
            " ".join("%.17g" % (v,) for v in row) + "\n" for row in values.tolist()
        )
        back = np.array([float(token) for token in body.split()])
        flat = values.ravel()
        nan = np.isnan(flat)
        np.testing.assert_array_equal(np.isnan(back), nan)
        np.testing.assert_array_equal(back[~nan].view(np.int64), flat[~nan].view(np.int64))

    def test_failed_grid_write_is_an_io_error(self, tmp_path, capsys):
        # a directory in the grid file's place: the write fails even as root
        path = tmp_path / "s.yaml"
        path.write_text(GOOD_YAML)
        out = tmp_path / "out"
        (out / "smoke_grid2_t0.grid").mkdir(parents=True)
        with pytest.raises(IoError, match="smoke_grid2_t0.grid"):
            run_scenario(good_config(), out)
        assert main(["run", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("io error: cannot write") and err.count("\n") == 1


UNPUMPED_YAML = """
name: unpumped
initial_state:
  kind: coherent
  alpha: [2.0, 1.0]
params:
  pump: [0.0, 0.0]
  kerr: 0.5
  loss: 0.3
cutoff: 30
time:
  t_max: 2.0
  snapshot_times: []
  sample_count: 5
outputs:
  - kind: timeseries
"""


class TestUnpumpedRun:
    def test_exact_map_takes_no_steps(self, tmp_path):
        config = validate_config(UNPUMPED_YAML)
        report = run_scenario(config, tmp_path)
        assert report.steps == 0
        lines = (tmp_path / "unpumped_timeseries.csv").read_text().splitlines()[6:]
        for line in lines:
            cells = [float(c) for c in line.split(",")]
            t, mean_n, steps = cells[0], cells[1], cells[-1]
            assert steps == 0.0
            assert mean_n == pytest.approx(5.0 * math.exp(-0.6 * t), rel=1e-12)

    def test_guard_failure_is_an_integration_failure(self, tmp_path):
        text = UNPUMPED_YAML.replace(
            "  kind: coherent\n  alpha: [2.0, 1.0]", "  kind: fock\n  n: 30"
        )
        config = validate_config(text)
        assert isinstance(config, ScenarioConfig)
        with pytest.raises(IntegrationFailure, match="tail mass"):
            run_scenario(config, tmp_path)

    def test_lossless_run_reports_measured_guards(self, tmp_path):
        # loss 0 is the exact map with beta = 0: populations stay put, so
        # every row carries the start state's tail mass in levels 26-30
        config = validate_config(UNPUMPED_YAML.replace("  loss: 0.3", "  loss: 0.0"))
        assert run_scenario(config, tmp_path).steps == 0
        psi0 = coherent_state(2.0 + 1.0j, FockCutoff(30))
        tail0 = float(np.sum(np.abs(psi0.amplitudes[26:]) ** 2))
        assert tail0 == pytest.approx(3.05e-11, rel=1e-3)
        lines = (tmp_path / "unpumped_timeseries.csv").read_text().splitlines()[6:]
        assert len(lines) == 5
        for line in lines:
            cells = [float(c) for c in line.split(",")]
            mean_n, trace_error, tail, steps = cells[1], cells[-3], cells[-2], cells[-1]
            assert mean_n == pytest.approx(5.0, rel=1e-12)
            assert 0.0 <= trace_error <= 1e-14
            assert tail == pytest.approx(tail0, rel=1e-12)
            assert steps == 0.0

    def test_lossless_tail_guard_checks_the_start_state(self, tmp_path):
        # the coherent state fits n_cut 22 (tail beyond it < 1e-8), but 5.4e-6
        # of it sits in the top five levels, past the 1e-6 tail guard
        text = UNPUMPED_YAML.replace("  loss: 0.3", "  loss: 0.0")
        config = validate_config(text.replace("cutoff: 30", "cutoff: 22"))
        with pytest.raises(IntegrationFailure, match="tail mass 5.41"):
            run_scenario(config, tmp_path)


class TestSteadyTable:
    def test_structure(self, ref_params):
        columns, rows = steady_table(ref_params, FockCutoff(40))
        assert columns == ["quantity", "exact", "gaussian", "crude"]
        labels = [r[0] for r in rows]
        assert labels == [
            "mean_n",
            "entropy",
            "linear_entropy",
            "squeeze_S",
            "fano_F",
            "x",
            "leading_eig_squeeze",
        ] + [f"p{k}" for k in range(10)]
        by_label = {r[0]: r for r in rows}
        assert by_label["mean_n"][3] is None
        assert by_label["x"][1] is None
        assert by_label["leading_eig_squeeze"][1] == pytest.approx(
            0.60293920923843103, rel=1e-9
        )
        assert by_label["mean_n"][1] == pytest.approx(5.1307108173266318, rel=1e-10)

    def test_shares_its_values_with_the_gaussian_report(self, ref_params):
        # both tables read one exact-versus-Gaussian record
        _, rows = steady_table(ref_params, FockCutoff(40))
        by_label = {r[0]: r for r in rows}
        _, report = gaussian_vs_exact_report(ref_params, FockCutoff(40))
        for label, exact, gauss, _ in report:
            assert by_label[label][1:3] == [exact, gauss]

    def test_report_files_are_two_views_of_one_record(self, tmp_path):
        from importlib.resources import files

        text = (files("kerrosc") / "scenarios" / "fig12.yaml").read_text(encoding="ascii")
        run_scenario(validate_config(text), tmp_path)

        def table(name):
            lines = (tmp_path / f"fig12_{name}.csv").read_text().splitlines()
            body = [line.split(",") for line in lines if not line.startswith("#")]
            return body[0], body[1:]

        columns, steady = table("steady_report")
        assert columns == ["quantity", "exact", "gaussian", "crude"]
        assert [r[0] for r in steady] == [
            "mean_n", "entropy", "linear_entropy", "squeeze_S", "fano_F", "x",
            "leading_eig_squeeze",
        ] + [f"p{k}" for k in range(10)]
        columns, report = table("gaussian_report")
        assert columns == ["quantity", "exact", "gaussian", "abs_diff"]
        assert [r[0] for r in report] == [
            "entropy", "linear_entropy", "squeeze_S", "fano_F", "mean_n",
        ] + [f"p{k}" for k in range(6)]
        by_label = {r[0]: r for r in steady}
        for label, exact, gauss, diff in report:
            assert by_label[label][1:3] == [exact, gauss]
            assert diff == "%.17g" % abs(float(exact) - float(gauss))


class TestRenderGrid:
    def test_renders_pgm(self, tmp_path):
        out = tmp_path / "r"
        report = run_scenario(good_config(), out)
        grid_path = next(p for p in report.files if p.endswith(".grid"))
        dst = render_grid(grid_path)
        assert dst.endswith(".pgm")
        lines = (tmp_path / "r" / dst.split("/")[-1]).read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1].startswith("# kerrosc")
        assert lines[2] == "9 9"
        assert lines[3] == "255"
        pixels = [int(tok) for row in lines[4:] for tok in row.split()]
        assert len(pixels) == 81
        assert min(pixels) == 0 and max(pixels) == 255

    def test_constant_grid_renders_black(self, tmp_path):
        src = tmp_path / "flat.grid"
        src.write_text("# header\n1 1\n1 1\n")
        dst = render_grid(src, tmp_path / "flat.pgm")
        lines = (tmp_path / "flat.pgm").read_text().splitlines()
        assert lines[4:] == ["0 0", "0 0"]
        assert dst == str(tmp_path / "flat.pgm")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            render_grid(tmp_path / "absent.grid")

    def test_ragged_rows_rejected(self, tmp_path):
        src = tmp_path / "ragged.grid"
        src.write_text("1 2 3\n4 5\n")
        with pytest.raises(IoError):
            render_grid(src)

    def test_empty_grid_rejected(self, tmp_path):
        src = tmp_path / "empty.grid"
        src.write_text("# only a header\n")
        with pytest.raises(IoError):
            render_grid(src)


class TestCli:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"kerrosc {__version__}" in capsys.readouterr().out

    def test_validate_good_file(self, tmp_path, capsys):
        path = tmp_path / "s.yaml"
        path.write_text(GOOD_YAML)
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert yaml.safe_load(out)["name"] == "smoke"

    def test_validate_bad_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(GOOD_YAML.replace("kerr: 0.2", "kerr: 0.0"))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.yaml")]) == 1
        assert "io error:" in capsys.readouterr().err

    def test_run_writes_artifacts(self, tmp_path, capsys):
        path = tmp_path / "s.yaml"
        path.write_text(GOOD_YAML)
        out_dir = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out_dir)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.count("wrote ") == 6
        assert "mean_n:" in stdout
        assert (out_dir / "smoke_timeseries.csv").exists()

    def test_snapshot_an_ulp_off_a_sample_time_runs(self, tmp_path, capsys):
        # the snapshot merges onto the sample time instead of leaving two
        # samples 1.1e-16 apart, which the semiclassical paths cannot step
        path = tmp_path / "near.yaml"
        path.write_text(NEAR_SAMPLE_YAML)
        out_dir = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out_dir)]) == 0
        assert capsys.readouterr().out.count("wrote ") == 3
        classical = (out_dir / "near_classical.csv").read_text().splitlines()
        assert len([line for line in classical if not line.startswith("#")]) == 1 + 31
        grid = (out_dir / "near_grid2_t0.grid").read_text()
        assert "# time: 0.70000000000000007" in grid

    def test_run_numerical_failure_exits_3(self, tmp_path, capsys):
        # a strong pump against a 10-level cutoff overflows the truncation
        text = GOOD_YAML.replace("cutoff: 30", "cutoff: 10").replace(
            "t_max: 1.0", "t_max: 5.0"
        )
        path = tmp_path / "s.yaml"
        path.write_text(text)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        assert "numerical failure:" in capsys.readouterr().err

    def test_bundled_fig8_runs_at_the_default_cutoff(self, tmp_path, capsys):
        # without its cutoff line the scenario runs at the package's own
        # choice, n_cut 51; under the RMS step error it broke the floor there
        from importlib.resources import files

        text = (files("kerrosc") / "scenarios" / "fig8_coherent.yaml").read_text(
            encoding="utf-8"
        )
        path = tmp_path / "fig8.yaml"
        path.write_text("".join(
            line for line in text.splitlines(keepends=True)
            if not line.startswith("cutoff:")
        ))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert "cutoff: 51" in capsys.readouterr().out

    def test_bundled_fig8_at_cutoff_90_matches_the_bundled_run(self, tmp_path):
        # the integrated block follows the populated levels, so doubling the
        # declared cutoff changes neither the time series nor the step count
        from importlib.resources import files

        text = (files("kerrosc") / "scenarios" / "fig8_coherent.yaml").read_text(
            encoding="utf-8"
        )
        raised = text.replace("cutoff: 45", "cutoff: 90")
        assert raised != text
        tables, steps = [], []
        for name, scenario in (("bundled", text), ("raised", raised)):
            report = run_scenario(validate_config(scenario), tmp_path / name)
            lines = (tmp_path / name / "fig8_coherent_timeseries.csv").read_text().splitlines()
            rows = [line for line in lines if not line.startswith("#")][1:]
            tables.append(np.array([[float(c) for c in row.split(",")] for row in rows]))
            steps.append(report.steps)
        bundled, raised_table = tables
        # t and the measures; trace_error, tail_mass and steps are diagnostics
        assert float(np.max(np.abs(raised_table[:, :9] - bundled[:, :9]))) <= 1e-8
        assert abs(steps[1] - steps[0]) <= 0.1 * steps[0]

    def test_bundled_fig10_at_cutoff_90_matches_the_bundled_run(self, tmp_path):
        # block-sized samples against a target at dim 91: the distances read
        # the state on the target's leading levels
        from importlib.resources import files

        text = (files("kerrosc") / "scenarios" / "fig10_coherent.yaml").read_text(
            encoding="utf-8"
        )
        raised = text.replace("cutoff: 45", "cutoff: 90")
        assert raised != text
        tables, steps = [], []
        for name, scenario in (("bundled", text), ("raised", raised)):
            report = run_scenario(validate_config(scenario), tmp_path / name)
            lines = (tmp_path / name / "fig10_coherent_distance.csv").read_text().splitlines()
            rows = [line for line in lines if not line.startswith("#")][1:]
            # an empty relative-entropy cell: weight outside the target's support
            tables.append(np.array(
                [[float(c) if c else np.nan for c in row.split(",")] for row in rows]
            ))
            steps.append(report.steps)
        bundled, raised_table = tables
        empty = np.isnan(bundled)
        assert np.array_equal(np.isnan(raised_table), empty)
        assert empty.any() and not empty.all()
        assert float(np.max(np.abs(raised_table - bundled)[~empty])) <= 1e-7
        assert abs(steps[1] - steps[0]) <= 0.1 * steps[0]

    def test_run_lossless_pumped_passes_the_floor(self, tmp_path, capsys):
        # lossless and pumped from |alpha=2> at n_cut 45: the step keeps the
        # imaginary-axis modes within the -1e-9 floor on the populated block
        path = tmp_path / "s.yaml"
        path.write_text(LOSSLESS_PUMPED_YAML)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert "steps:" in capsys.readouterr().out

    def test_run_positivity_loss_exits_3_without_traceback(self, tmp_path):
        # the lossless pumped scenario with a sample source that hands the
        # guards a non-positive state at its fourth output, after the runner
        # has collected rows
        path = tmp_path / "s.yaml"
        path.write_text(LOSSLESS_PUMPED_YAML)
        src = Path(kerrosc.__file__).resolve().parent.parent
        path_env = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", FAILING_SOURCE_RUN, "run", str(path),
             "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path_env),
            timeout=120,
        )
        assert proc.returncode == 3, proc.stderr
        assert "numerical failure:" in proc.stderr
        assert "minimum eigenvalue" in proc.stderr
        assert "Traceback" not in proc.stderr
        # rows are collected while the evolution runs; files only after it
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_steady_at_loss_zero_names_the_cause(self, capsys):
        code = main(["steady", "--G", "0.2", "--gamma0", "0", "--p", "5,0"])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure:" in err
        assert "no stationary state" in err

    def test_steady_table_output(self, capsys):
        code = main(["steady", "--G", "0.2", "--gamma0", "1.0", "--p", "5,0", "--cutoff", "40"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == ["quantity", "exact", "gaussian", "crude"]
        mean_row = next(l for l in lines if l.startswith("mean_n"))
        assert "5.13071081733" in mean_row
        assert any(l.startswith("p0") for l in lines)

    def test_steady_accepts_literal_complex(self, capsys):
        code = main(["steady", "--G", "0.2", "--gamma0", "1.0", "--p", "5", "--cutoff", "40"])
        assert code == 0
        assert "mean_n" in capsys.readouterr().out

    def test_steady_numerical_failure_exits_3(self, capsys):
        code = main(["steady", "--G", "0.2", "--gamma0", "1.0", "--p", "5,0", "--cutoff", "15"])
        assert code == 3
        assert "numerical failure:" in capsys.readouterr().err

    def test_steady_small_cutoff_names_the_tail(self, capsys):
        code = main(["steady", "--G", "0.2", "--gamma0", "1", "--p", "5,0", "--cutoff", "12"])
        assert code == 3
        assert "diagonal tail" in capsys.readouterr().err

    def test_steady_weak_kerr(self, capsys):
        # Gamma(-1000i) underflows; the normalization is taken in log space
        code = main(["steady", "--G", "0.001", "--gamma0", "1", "--p", "5,0", "--cutoff", "80"])
        assert code == 0
        mean_row = next(
            l for l in capsys.readouterr().out.splitlines() if l.startswith("mean_n")
        )
        assert "24.9367483471" in mean_row

    def test_steady_past_gamma_overflow(self, capsys):
        # Gamma(lam + n) overflows near n = 145; the assembly works in log space
        code = main(["steady", "--G", "0.2", "--gamma0", "1", "--p", "20,0", "--cutoff", "180"])
        assert code == 0
        assert "mean_n" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "rates",
        [
            ["--G", "1e-300", "--gamma0", "1"],
            ["--G", "1e-300", "--gamma0", "1", "--cutoff", "40"],
            ["--G", "1", "--gamma0", "1e-320"],
        ],
        ids=["tiny_kerr", "tiny_kerr_cutoff_40", "tiny_loss"],
    )
    def test_steady_at_extreme_rates_exits_3(self, rates, capsys):
        # the basis is sized from the linear-loss limit p/gamma0; the series
        # argument 2|p/G|^2 or its first term is out of range, a typed failure
        # with no numpy warning before it
        assert main(["steady", "--p", "1"] + rates) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: 0F2 series")
        assert err.count("\n") == 1

    def test_run_at_tiny_kerr_sizes_the_basis(self, tmp_path, capsys):
        # no cutoff: the basis is sized from <n> = |p/gamma0|^2 = 25
        text = GOOD_YAML.replace("kerr: 0.2", "kerr: 1.0e-300").replace("cutoff: 30\n", "")
        path = tmp_path / "tiny.yaml"
        path.write_text(text.split("  - kind: classical_path")[0])
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert "cutoff: 86" in capsys.readouterr().out.splitlines()
        # the steady outputs need the series, out of range at this Kerr
        path.write_text(text)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("numerical failure:")

    @pytest.mark.parametrize(
        "flag,value", [("--gamma0", "-1"), ("--p", "nan"), ("--G", "inf"), ("--cutoff", "0")]
    )
    def test_steady_invalid_argument_is_a_config_error(self, flag, value, capsys):
        args = {"--G": "0.2", "--gamma0": "1", "--p": "5,0", flag: value}
        code = main(["steady"] + [tok for pair in args.items() for tok in pair])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert err.count("\n") == 1

    def test_render_non_numeric_grid_is_an_io_error(self, tmp_path, capsys):
        src = tmp_path / "g.grid"
        src.write_text("0 1\n2 three\n")
        assert main(["render", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("io error:") and "three" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "g.pgm").exists()

    def test_render_subcommand(self, tmp_path, capsys):
        src = tmp_path / "g.grid"
        src.write_text("0 1\n2 3\n")
        assert main(["render", str(src), "--out", str(tmp_path / "g.pgm")]) == 0
        assert "wrote" in capsys.readouterr().out
        assert (tmp_path / "g.pgm").read_text().startswith("P2\n")
