"""The benchmark workloads: seeded inputs, operations and output checks.

Every workload is a closed loop: one client, one process, and the next
operation starts only when the previous one has returned.  An operation
("op") is one `runner.run_scenario` call on a generated, validated scenario,
or a direct call into `steady`.  Every pass of seed `s` draws its inputs
from `random.Random(f"{workload}:{s}")`, so a seed fixes every input and all
passes of a run repeat the same ops: the op mix does not depend on how many
passes fit in the run.

The inputs stay inside the bundled scenario families: the pumped ops use the
bundled point (p=5, G=0.2, gamma0=1), and the grids use s=-1 (fig1, fig2)
or s=0 (fig5, fig11).

Library functions are looked up on their modules at call time, so the layer
tracer sees calls made from here as well as calls made inside the package.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from kerrosc import config, dynamics, fock, runner, steady

BUNDLED = fock.OscillatorParams(pump=5.0, kerr=0.2, loss=1.0)
CUTOFF = 45  # every bundled scenario runs at n_cut 45
GRID = {"re_min": -4.5, "re_max": 4.5, "im_min": -4.5, "im_max": 4.5, "points": 121}

# Output-check tolerances, fixed before measuring.
MEAN_N_REL_TOL_EVOLVED = 1e-4  # t >= 10 runs against steady_moment(1, 1)
MEAN_N_REL_TOL_CLOSED = 1e-9  # steady_report <n> against the moment formula
GRID_MASS_TOL = 0.05  # integral of a 121^2 grid over [-4.5, 4.5]^2
HUSIMI_EXACT_TOL = 1e-9  # t = 0 coherent Husimi against exp(-|b-a|^2)/pi
README_TOL = 5e-4  # README prints <n>, entropy and S to three decimals


@dataclass
class Op:
    """One timed operation: `run(out_dir)` is timed, `check(result)` is not."""

    kind: str
    work: float
    run: Callable[[Path], object]
    check: Callable[[object], dict]


class CheckFailed(Exception):
    """An operation's output did not pass its check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _polar(r: float, phi: float) -> list[float]:
    z = cmath.rect(r, phi)
    return [z.real, z.imag]


def _params_yaml(p: fock.OscillatorParams) -> dict:
    return {"pump": [p.pump.real, p.pump.imag], "kerr": p.kerr, "loss": p.loss}


def scenario_text(name, initial_state, params, time, outputs, cutoff=CUTOFF) -> str:
    doc = {"name": name, "initial_state": initial_state, "params": params, "cutoff": cutoff,
           "time": time, "outputs": outputs}
    return yaml.safe_dump(doc, sort_keys=False)


def validated(text: str) -> config.ScenarioConfig:
    cfg = config.validate_config(text)
    if isinstance(cfg, list):
        raise ValueError("generated scenario is invalid: " + "; ".join(cfg))
    return cfg


def scenario_op(kind: str, cfg, work: float, check: Callable) -> Op:
    return Op(kind, work, lambda out: runner.run_scenario(cfg, out), check)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def read_grid(path: str) -> np.ndarray:
    with open(path, encoding="ascii") as fh:
        rows = [line.split() for line in fh if line.strip() and not line.startswith("#")]
    return np.array(rows, dtype=float)


def read_csv_rows(path: str) -> dict[str, list[str]]:
    """First column to the remaining cells, for the report CSVs."""
    with open(path, encoding="ascii") as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    return {cells[0]: cells[1:] for cells in (line.split(",") for line in lines[1:])}


class Workload:
    name = ""
    work_unit = ""

    def __init__(self) -> None:
        # the tracer replaces steady_density by a wrapper without cache_clear
        self._cache_clear = getattr(steady.steady_density, "cache_clear", lambda: None)

    def cold(self) -> None:
        """Drop the steady_density cache so each op does the work of one process."""
        self._cache_clear()

    def rng(self, seed: int) -> random.Random:
        return random.Random(f"{self.name}:{seed}")

    def prepare_pass(self, seed: int, index: int) -> list[Op]:
        raise NotImplementedError

    def warm_up(self, out: Path) -> dict:
        """Untimed calls that load code paths; returns the checked scalars."""
        raise NotImplementedError

    def probes(self) -> list[tuple[str, Callable[[], object]]]:
        """Known-defect calls, attempted once per run and never timed."""
        return []


class Trajectory(Workload):
    """Pumped master-equation runs at n_cut 45 (fig8, fig9, fig10 and fig12 traffic)."""

    name = "trajectory"
    work_unit = "simulated time units/s"

    def __init__(self) -> None:
        super().__init__()
        self.m11 = None

    def _mean_n(self) -> float:
        """Stationary <n> at the bundled point, from the moment formula."""
        if self.m11 is None:
            self.m11 = steady.steady_moment(1, 1, BUNDLED).real
        return self.m11

    def _start(self, rng: random.Random, kind: str) -> dict:
        # Starts the pump drives past the vacuum (Fock n <= 4, coherent
        # states in the lower left half plane) break the -1e-9 eigenvalue
        # floor in `evolve` today; that defect is a probe, not a timed op.
        if kind == "coherent":
            return {"kind": "coherent", "alpha": _polar(rng.uniform(2.5, 3.5), rng.uniform(-math.pi / 3, math.pi / 3))}
        if kind == "fock":
            return {"kind": "fock", "n": rng.randint(6, 12)}
        r, phi = rng.uniform(2.0, 3.0), rng.uniform(0, 2 * math.pi)
        return {
            "kind": "superposition",
            "components": [
                {"weight": [1.0, 0.0], "alpha": _polar(r, phi + 2 * math.pi * k / 3)} for k in range(3)
            ],
        }

    def _check(self, report) -> dict:
        s = report.summary
        _require(_rel(s["mean_n"], self._mean_n()) < MEAN_N_REL_TOL_EVOLVED,
                 f"final <n> {s['mean_n']!r} vs steady_moment(1,1) {self._mean_n()!r}")
        return {k: s[k] for k in ("mean_n", "entropy", "squeeze_S", "fano", "steps")}

    @staticmethod
    def _moments_run(_out) -> dict:
        return {mn: steady.steady_moment(*mn, BUNDLED) for mn in ((1, 0), (1, 1), (2, 0), (2, 2))}

    @staticmethod
    def _moments_check(values) -> dict:
        m10, m11, m20, m22 = (values[k] for k in ((1, 0), (1, 1), (2, 0), (2, 2)))
        _require(m11.real > 0 and abs(m11.imag) < 1e-9 * m11.real, f"<a+a> = {m11!r}")
        _require(abs(m10) ** 2 <= m11.real * (1 + 1e-9), "|<a>|^2 exceeds <a+a>")
        _require(m22.real >= 0 and abs(m22.imag) < 1e-9 * m22.real, f"<a+2 a2> = {m22!r}")
        _require(abs(m20) ** 2 <= m22.real * (1 + 1e-9), "|<a2>|^2 exceeds <a+2 a2>")
        return {f"m{m}{n}": [v.real, v.imag] for (m, n), v in values.items()}

    def _report_check(self, report) -> dict:
        steady_rows = read_csv_rows(report.files[0])
        gauss_rows = read_csv_rows(report.files[1])
        exact = float(steady_rows["mean_n"][0])
        _require(_rel(exact, self._mean_n()) < MEAN_N_REL_TOL_CLOSED, f"steady_report <n> {exact!r}")
        _require(float(gauss_rows["mean_n"][0]) == exact, "gaussian_report and steady_report disagree on <n>")
        for key, readme in (("mean_n", 5.131), ("entropy", 0.278), ("squeeze_S", 0.716)):
            got = float(steady_rows[key][0])
            _require(abs(got - readme) < README_TOL, f"steady_report {key} {got!r} vs README {readme}")
        return {k: float(v[0]) for k, v in steady_rows.items() if v[0]}

    def prepare_pass(self, seed: int, index: int) -> list[Op]:
        rng = self.rng(seed)
        # every pass starts one op from each kind of state; the seed picks
        # which kind gets the long run and the state parameters
        kinds = ["coherent", "fock", "kitten"]
        rng.shuffle(kinds)
        plan = [
            ("distance", kinds[0], 20.0, 401, {"kind": "distance_to_steady"}),
            ("timeseries", kinds[1], 10.0, 501, {"kind": "timeseries"}),
            ("timeseries", kinds[2], 10.0, 501, {"kind": "timeseries"}),
            ("classical", rng.choice(kinds), 10.0, 1001, {"kind": "classical_path", "with_noise": True}),
        ]
        ops = []
        for j, (kind, start, t_max, samples, output) in enumerate(plan):
            text = scenario_text(
                f"traj{index}_{j}_{kind}", self._start(rng, start), _params_yaml(BUNDLED),
                {"t_max": t_max, "snapshot_times": [], "sample_count": samples}, [output],
            )
            ops.append(scenario_op(kind, validated(text), t_max, self._check))
        # the closed-form side of the same sweep: moment formulas and the
        # fig12 report; they integrate nothing, so they add no work units
        ops.append(Op("moments", 0.0, self._moments_run, self._moments_check))
        text = scenario_text(
            f"traj{index}_fig12", {"kind": "coherent", "alpha": [3.0, 0.0]}, _params_yaml(BUNDLED),
            {"t_max": 1.0, "snapshot_times": [], "sample_count": 2},
            [{"kind": "steady_report"}, {"kind": "gaussian_report"}],
        )
        ops.append(scenario_op("fig12", validated(text), 0.0, self._report_check))
        return ops

    def warm_up(self, out: Path) -> dict:
        text = scenario_text(
            "warmup", {"kind": "coherent", "alpha": [2.0, 0.0]}, _params_yaml(BUNDLED),
            {"t_max": 0.5, "snapshot_times": [], "sample_count": 6},
            [{"kind": "timeseries"}, {"kind": "distance_to_steady"}, {"kind": "steady_report"}],
        )
        report = runner.run_scenario(validated(text), out)
        return {"mean_n": report.summary["mean_n"]}

    def probes(self):
        def evolve_at(n_cut):
            rho0 = fock.density_from_pure(fock.coherent_state(3.0, fock.FockCutoff(n_cut)))
            return lambda: dynamics.evolve(rho0, BUNDLED, dynamics.TimeGrid.uniform(0.5, 6))

        def fock3():
            rho0 = fock.density_from_pure(fock.fock_state(3, fock.FockCutoff(CUTOFF)))
            return dynamics.evolve(rho0, BUNDLED, dynamics.TimeGrid.uniform(0.6, 31))

        return [
            ("evolve_alpha3_ncut60", evolve_at(60)),
            ("evolve_alpha3_ncut70", evolve_at(70)),
            ("evolve_fock3_ncut45", fock3),
            # steady_density overflows above about n_cut 145 at the bundled point
            ("steady_bundled_ncut160", lambda: steady.steady_density(BUNDLED, fock.FockCutoff(160))),
            ("steady_p20_ncut180",
             lambda: steady.steady_density(fock.OscillatorParams(20.0, 0.2, 1.0), fock.FockCutoff(180))),
        ]


class PhaseSpace(Workload):
    """Quasidistribution grids at 121^2 points (fig1, fig2, fig5 and fig11 traffic)."""

    name = "phase_space"
    work_unit = "grid points/s"

    def _grid_check(self, alpha0: complex | None):
        def check(report) -> dict:
            scalars = {}
            cell = ((GRID["re_max"] - GRID["re_min"]) / (GRID["points"] - 1)) ** 2
            for path in report.files:
                values = read_grid(path)
                _require(values.shape == (GRID["points"], GRID["points"]), f"{path}: shape {values.shape}")
                mass = float(values.sum()) * cell
                _require(abs(mass - 1.0) < GRID_MASS_TOL, f"{path}: grid integrates to {mass!r}")
                name = Path(path).name
                if alpha0 is not None:  # the Husimi ops
                    _require(float(values.min()) >= 0.0, f"{path}: negative Husimi value")
                    if name.endswith("_t0.grid"):
                        re = np.linspace(GRID["re_min"], GRID["re_max"], GRID["points"])
                        beta = re[None, :] + 1j * re[:, None]
                        exact = np.exp(-np.abs(beta - alpha0) ** 2) / math.pi
                        err = float(np.max(np.abs(values - exact)))
                        _require(err < HUSIMI_EXACT_TOL, f"{path}: t=0 Husimi off by {err:.3e}")
                scalars[name] = [mass, float(values.min()), float(values.max())]
            return scalars

        return check

    def _coherent(self, rng: random.Random, phases: tuple[float, float]) -> tuple[dict, complex]:
        alpha = _polar(rng.uniform(2.0, 3.0), rng.uniform(*phases))
        return {"kind": "coherent", "alpha": alpha}, complex(*alpha)

    def prepare_pass(self, seed: int, index: int) -> list[Op]:
        rng = self.rng(seed)
        n_grid = GRID["points"] ** 2
        half_period = math.pi / 2  # Kerr revival period pi/G at G = 1, halved
        ops = []
        for kind, loss in (("fig1", 0.0), ("fig2", 0.1)):
            start, alpha0 = self._coherent(rng, (0.0, 2 * math.pi))
            snaps = [0.0] + sorted(rng.uniform(0.0, half_period) for _ in range(4)) + [half_period]
            text = scenario_text(
                f"ps{index}_{kind}", start, {"pump": [0.0, 0.0], "kerr": 1.0, "loss": loss},
                {"t_max": half_period, "snapshot_times": snaps, "sample_count": 2},
                [{"kind": "quasi_grid", "s": -1.0, **GRID}],
            )
            cfg = validated(text)
            ops.append(scenario_op(kind, cfg, n_grid * len(cfg.time.snapshot_times), self._grid_check(alpha0)))

        text = scenario_text(
            f"ps{index}_fig11", {"kind": "coherent", "alpha": [3.0, 0.0]}, _params_yaml(BUNDLED),
            {"t_max": 1.0, "snapshot_times": [], "sample_count": 2},
            [{"kind": "quasi_grid", "s": 0.0, **GRID, "target": "steady", "eigenvectors": 3}],
        )
        ops.append(scenario_op("fig11", validated(text), 4 * n_grid, self._grid_check(None)))

        start, _ = self._coherent(rng, (-math.pi / 3, math.pi / 3))  # pumped: see Trajectory._start
        snaps = [0.0] + sorted(rng.uniform(0.0, 1.5) for _ in range(3)) + [5.0]
        text = scenario_text(
            f"ps{index}_fig5", start, _params_yaml(BUNDLED),
            {"t_max": 5.0, "snapshot_times": snaps, "sample_count": 2},
            [{"kind": "quasi_grid", "s": 0.0, **GRID}, {"kind": "quasi_grid", "s": 0.0, **GRID, "target": "steady"}],
        )
        cfg = validated(text)
        ops.append(scenario_op("fig5", cfg, n_grid * (len(cfg.time.snapshot_times) + 1), self._grid_check(None)))
        return ops

    def warm_up(self, out: Path) -> dict:
        small = dict(GRID, points=21)
        text = scenario_text(
            "warmup", {"kind": "coherent", "alpha": [2.0, 0.0]}, _params_yaml(BUNDLED),
            {"t_max": 0.2, "snapshot_times": [0.0, 0.2], "sample_count": 2},
            [{"kind": "quasi_grid", "s": -1.0, **small}, {"kind": "quasi_grid", "s": 0.0, **small},
             {"kind": "quasi_grid", "s": 0.0, **small, "target": "steady", "eigenvectors": 1}],
        )
        report = runner.run_scenario(validated(text), out)
        return {"files": len(report.files)}


WORKLOADS = {w.name: w for w in (Trajectory, PhaseSpace)}
