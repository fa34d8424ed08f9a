"""Scenario configuration: schema, validation, canonical serialization.

A scenario file is a single YAML mapping with the fixed field order
name, initial_state, params, cutoff, time, outputs.  Complex numbers are
written as two-element [re, im] lists (a bare number is accepted on input
and canonicalized).  Floats follow YAML 1.2, so an exponent needs no dot
(1e-3, 2E+5).  `validate_config` never raises on bad input; it returns
the list of "field.path: problem" messages instead, one per bad field: a
bad value is replaced by a stand-in that passes every later check.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Union

import yaml

from .fock import OscillatorParams
from .quasidist import _S_MAX


@dataclass(frozen=True)
class CoherentInit:
    """Initial coherent state |alpha>."""

    alpha: complex


@dataclass(frozen=True)
class FockInit:
    """Initial number state |n>."""

    n: int


@dataclass(frozen=True)
class SuperpositionInit:
    """Initial normalized superposition sum_k w_k |alpha_k>."""

    components: tuple[tuple[complex, complex], ...]  # (weight, alpha) pairs


InitialState = Union[CoherentInit, FockInit, SuperpositionInit]


@dataclass(frozen=True)
class TimeSpec:
    """Evolution window, snapshot times, and uniform sample count."""

    t_max: float
    snapshot_times: tuple[float, ...]
    sample_count: int


@dataclass(frozen=True)
class TimeseriesOutput:
    """Scalar measures versus time, one CSV."""


@dataclass(frozen=True)
class ClassicalPathOutput:
    """Classical amplitude (optionally with linearized noise) versus time."""

    with_noise: bool = False


@dataclass(frozen=True)
class QuasiGridOutput:
    """Phase-space grid of the s-parametrized quasidistribution."""

    s: float
    re_min: float = -6.0
    re_max: float = 6.0
    im_min: float = -6.0
    im_max: float = 6.0
    points: int = 121
    target: str = "snapshots"  # "snapshots" or "steady"
    eigenvectors: int = 0  # with target "steady": also render top-k eigenvectors


@dataclass(frozen=True)
class SteadyReportOutput:
    """Exact steady scalars, eigenweights, Gaussian and crude estimates."""


@dataclass(frozen=True)
class GaussianReportOutput:
    """Exact-versus-Gaussian comparison table."""


@dataclass(frozen=True)
class DistanceToSteadyOutput:
    """Bures and relative-entropy distance to the steady state versus time."""


OutputSpec = Union[
    TimeseriesOutput,
    ClassicalPathOutput,
    QuasiGridOutput,
    SteadyReportOutput,
    GaussianReportOutput,
    DistanceToSteadyOutput,
]


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully validated scenario."""

    name: str
    initial_state: InitialState
    params: OscillatorParams
    cutoff: int | None
    time: TimeSpec
    outputs: tuple[OutputSpec, ...]


class _Loader(yaml.SafeLoader):
    """The safe loader with YAML 1.2 floats: PyYAML's 1.1 rule reads 1e-3 as a string."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+.0123456789"),
)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _real(value: Any, path: str, errors: list[str], fallback: float) -> float:
    if not _is_number(value) or not math.isfinite(float(value)):
        errors.append(f"{path}: must be a finite number")
        return fallback
    return float(value)


def _complex_value(value: Any, path: str, errors: list[str]) -> complex:
    if _is_number(value):
        return complex(float(value))
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(_is_number(v) for v in value)
        and all(math.isfinite(float(v)) for v in value)
    ):
        return complex(float(value[0]), float(value[1]))
    errors.append(f"{path}: must be a number or a two-element [re, im] list")
    return 0.0j


def _integer(value: Any, path: str, errors: list[str], minimum: int, fallback: Any) -> Any:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        errors.append(f"{path}: must be an integer >= {minimum}")
        return fallback
    return value


def _mapping(value: Any, path: str, errors: list[str], allowed: tuple[str, ...]):
    if not isinstance(value, dict):
        errors.append(f"{path}: must be a mapping")
        return None
    for key in value:
        if key not in allowed:
            errors.append(f"{path}.{key}: unknown field")
    return value


def _parse_initial_state(raw: Any, errors: list[str]) -> InitialState:
    fallback = CoherentInit(alpha=0.0j)
    node = _mapping(
        raw, "initial_state", errors, ("kind", "alpha", "n", "components")
    )
    if node is None:
        return fallback
    kind = node.get("kind")
    if kind == "coherent":
        if "alpha" not in node:
            errors.append("initial_state.alpha: required for kind coherent")
            return fallback
        return CoherentInit(alpha=_complex_value(node["alpha"], "initial_state.alpha", errors))
    if kind == "fock":
        if "n" not in node:
            errors.append("initial_state.n: required for kind fock")
            return fallback
        return FockInit(n=_integer(node["n"], "initial_state.n", errors, 0, 0))
    if kind == "superposition":
        comps = node.get("components")
        if not isinstance(comps, list) or not comps:
            errors.append(
                "initial_state.components: must be a non-empty list for "
                "kind superposition"
            )
            return fallback
        parsed = []
        for i, comp in enumerate(comps):
            sub = _mapping(
                comp, f"initial_state.components[{i}]", errors, ("weight", "alpha")
            )
            if sub is None:
                continue
            path = f"initial_state.components[{i}]"
            if "weight" not in sub or "alpha" not in sub:
                errors.append(f"{path}: needs both weight and alpha")
                continue
            parsed.append(
                (
                    _complex_value(sub["weight"], f"{path}.weight", errors),
                    _complex_value(sub["alpha"], f"{path}.alpha", errors),
                )
            )
        if parsed and all(w == 0 for w, _ in parsed):
            errors.append("initial_state.components: all weights are zero")
        return SuperpositionInit(components=tuple(parsed))
    errors.append(
        "initial_state.kind: must be one of coherent, fock, superposition"
    )
    return fallback


def _parse_params(raw: Any, errors: list[str]) -> OscillatorParams:
    # the stand-ins kerr = loss = 1 pass the steady-state checks
    node = _mapping(raw, "params", errors, ("pump", "kerr", "loss"))
    if node is None:
        return OscillatorParams(pump=0.0j, kerr=1.0, loss=1.0)
    pump = _complex_value(node.get("pump", 0.0), "params.pump", errors)
    kerr = _real(node.get("kerr", 1.0), "params.kerr", errors, 1.0)
    loss = _real(node.get("loss", 1.0), "params.loss", errors, 1.0)
    if "pump" not in node:
        errors.append("params.pump: required")
    if "kerr" not in node:
        errors.append("params.kerr: required")
    if "loss" not in node:
        errors.append("params.loss: required")
    if loss < 0:
        errors.append("params.loss: must be >= 0")
        loss = 1.0
    return OscillatorParams(pump=pump, kerr=kerr, loss=loss)


def _parse_time(raw: Any, errors: list[str]) -> TimeSpec:
    node = _mapping(raw, "time", errors, ("t_max", "snapshot_times", "sample_count"))
    if node is None:
        return TimeSpec(t_max=1.0, snapshot_times=(), sample_count=2)
    # the stand-in t_max = inf keeps every snapshot time in range
    t_max = math.inf
    if "t_max" not in node:
        errors.append("time.t_max: required")
    else:
        t_max = _real(node["t_max"], "time.t_max", errors, math.inf)
        if t_max <= 0:
            errors.append("time.t_max: must be > 0")
            t_max = math.inf
    snaps_raw = node.get("snapshot_times", [])
    snaps: list[float] = []
    if not isinstance(snaps_raw, list):
        errors.append("time.snapshot_times: must be a list of times")
    else:
        for i, t in enumerate(snaps_raw):
            tv = _real(t, f"time.snapshot_times[{i}]", errors, 0.0)
            if not 0.0 <= tv <= t_max:
                errors.append(
                    f"time.snapshot_times[{i}]: {tv} outside [0, t_max = {t_max}]"
                )
            else:
                snaps.append(tv)
    count = _integer(node.get("sample_count", 2), "time.sample_count", errors, 2, 2)
    if "sample_count" not in node:
        errors.append("time.sample_count: required")
    return TimeSpec(
        t_max=t_max, snapshot_times=tuple(sorted(set(snaps))), sample_count=count
    )


_OUTPUT_FIELDS = {
    "timeseries": (),
    "classical_path": ("with_noise",),
    "quasi_grid": (
        "s",
        "re_min",
        "re_max",
        "im_min",
        "im_max",
        "points",
        "target",
        "eigenvectors",
    ),
    "steady_report": (),
    "gaussian_report": (),
    "distance_to_steady": (),
}


def _parse_output(raw: Any, path: str, errors: list[str]) -> OutputSpec | None:
    if not isinstance(raw, dict) or "kind" not in raw:
        errors.append(f"{path}: must be a mapping with a kind field")
        return None
    kind = raw["kind"]
    if kind not in _OUTPUT_FIELDS:
        errors.append(
            f"{path}.kind: must be one of {', '.join(sorted(_OUTPUT_FIELDS))}"
        )
        return None
    _mapping(raw, path, errors, ("kind",) + _OUTPUT_FIELDS[kind])
    if kind == "timeseries":
        return TimeseriesOutput()
    if kind == "classical_path":
        with_noise = raw.get("with_noise", False)
        if not isinstance(with_noise, bool):
            errors.append(f"{path}.with_noise: must be true or false")
            with_noise = False
        return ClassicalPathOutput(with_noise=with_noise)
    if kind == "steady_report":
        return SteadyReportOutput()
    if kind == "gaussian_report":
        return GaussianReportOutput()
    if kind == "distance_to_steady":
        return DistanceToSteadyOutput()
    if "s" not in raw:
        errors.append(f"{path}.s: required for quasi_grid")
    s = _real(raw.get("s", 0.0), f"{path}.s", errors, 0.0)
    if not -1.0 <= s <= _S_MAX:
        errors.append(f"{path}.s: must lie in [-1, 1 - 1e-9]")
    # infinite stand-ins keep the range checks quiet
    re_min = _real(raw.get("re_min", -6.0), f"{path}.re_min", errors, -math.inf)
    re_max = _real(raw.get("re_max", 6.0), f"{path}.re_max", errors, math.inf)
    im_min = _real(raw.get("im_min", -6.0), f"{path}.im_min", errors, -math.inf)
    im_max = _real(raw.get("im_max", 6.0), f"{path}.im_max", errors, math.inf)
    if re_min >= re_max:
        errors.append(f"{path}.re_min: must be < re_max")
    if im_min >= im_max:
        errors.append(f"{path}.im_min: must be < im_max")
    points = _integer(raw.get("points", 121), f"{path}.points", errors, 2, 2)
    target = raw.get("target", "snapshots")
    if target not in ("snapshots", "steady"):
        errors.append(f"{path}.target: must be snapshots or steady")
        target = "snapshots"
    eig = _integer(raw.get("eigenvectors", 0), f"{path}.eigenvectors", errors, 0, 0)
    if eig and target != "steady":
        errors.append(
            f"{path}.eigenvectors: only meaningful with target steady"
        )
    return QuasiGridOutput(
        s=s,
        re_min=re_min,
        re_max=re_max,
        im_min=im_min,
        im_max=im_max,
        points=points,
        target=target,
        eigenvectors=eig,
    )


def validate_config(text: str) -> ScenarioConfig | list[str]:
    """Parse and validate scenario text; returns the config or the error list."""
    errors: list[str] = []
    try:
        raw = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        return [f"<yaml>: {exc}"]
    top = _mapping(
        raw, "<root>", errors,
        ("name", "initial_state", "params", "cutoff", "time", "outputs"),
    )
    if top is None:
        return errors
    name = top.get("name")
    if not isinstance(name, str) or not name or "/" in name or name != name.strip():
        errors.append("name: must be a non-empty path-safe string")
        name = "scenario"
    for field in ("initial_state", "params", "time", "outputs"):
        if field not in top:
            errors.append(f"{field}: required")
    state = _parse_initial_state(top.get("initial_state", {}), errors)
    params = _parse_params(top.get("params", {}), errors)
    cutoff = top.get("cutoff")
    if cutoff is not None:
        # a bad cutoff stands in as None, which no initial state exceeds
        cutoff = _integer(cutoff, "cutoff", errors, 1, None)
    time_spec = _parse_time(top.get("time", {}), errors)
    outputs_raw = top.get("outputs", [])
    outputs: list[OutputSpec] = []
    if not isinstance(outputs_raw, list) or not outputs_raw:
        errors.append("outputs: must be a non-empty list")
    else:
        for i, raw_out in enumerate(outputs_raw):
            parsed = _parse_output(raw_out, f"outputs[{i}]", errors)
            if parsed is not None:
                outputs.append(parsed)
    for i, out in enumerate(outputs):
        if isinstance(out, QuasiGridOutput) and out.target == "snapshots":
            if not time_spec.snapshot_times:
                errors.append(
                    f"outputs[{i}]: quasi_grid over snapshots requires "
                    "time.snapshot_times"
                )
        needs_steady = isinstance(
            out, (SteadyReportOutput, GaussianReportOutput, DistanceToSteadyOutput)
        ) or (isinstance(out, QuasiGridOutput) and out.target == "steady")
        if needs_steady and params.kerr == 0.0:
            errors.append(
                f"outputs[{i}]: requires kerr != 0 (the steady state of the "
                "linear oscillator is the coherent state pump/loss)"
            )
        if needs_steady and params.loss == 0.0:
            errors.append(
                f"outputs[{i}]: requires loss > 0 (without loss there is no "
                "stationary state)"
            )
    if isinstance(state, FockInit) and cutoff is not None and state.n > cutoff:
        errors.append(f"initial_state.n: {state.n} exceeds cutoff {cutoff}")
    if errors:
        return errors
    return ScenarioConfig(
        name=name,
        initial_state=state,
        params=params,
        cutoff=cutoff,
        time=time_spec,
        outputs=tuple(outputs),
    )


def _complex_repr(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def canonical_dict(config: ScenarioConfig) -> dict:
    """Plain-data form of the config with the canonical field order."""
    state: dict[str, Any]
    if isinstance(config.initial_state, CoherentInit):
        state = {"kind": "coherent", "alpha": _complex_repr(config.initial_state.alpha)}
    elif isinstance(config.initial_state, FockInit):
        state = {"kind": "fock", "n": config.initial_state.n}
    else:
        state = {
            "kind": "superposition",
            "components": [
                {"weight": _complex_repr(w), "alpha": _complex_repr(a)}
                for w, a in config.initial_state.components
            ],
        }
    out: dict[str, Any] = {"name": config.name, "initial_state": state}
    out["params"] = {
        "pump": _complex_repr(config.params.pump),
        "kerr": float(config.params.kerr),
        "loss": float(config.params.loss),
    }
    if config.cutoff is not None:
        out["cutoff"] = config.cutoff
    out["time"] = {
        "t_max": config.time.t_max,
        "snapshot_times": list(config.time.snapshot_times),
        "sample_count": config.time.sample_count,
    }
    rendered = []
    for spec in config.outputs:
        if isinstance(spec, TimeseriesOutput):
            rendered.append({"kind": "timeseries"})
        elif isinstance(spec, ClassicalPathOutput):
            rendered.append({"kind": "classical_path", "with_noise": spec.with_noise})
        elif isinstance(spec, SteadyReportOutput):
            rendered.append({"kind": "steady_report"})
        elif isinstance(spec, GaussianReportOutput):
            rendered.append({"kind": "gaussian_report"})
        elif isinstance(spec, DistanceToSteadyOutput):
            rendered.append({"kind": "distance_to_steady"})
        else:
            rendered.append(
                {
                    "kind": "quasi_grid",
                    "s": spec.s,
                    "re_min": spec.re_min,
                    "re_max": spec.re_max,
                    "im_min": spec.im_min,
                    "im_max": spec.im_max,
                    "points": spec.points,
                    "target": spec.target,
                    "eigenvectors": spec.eigenvectors,
                }
            )
    out["outputs"] = rendered
    return out


def canonical_text(config: ScenarioConfig) -> str:
    """Canonical YAML serialization; identical configs give identical bytes."""
    return yaml.safe_dump(canonical_dict(config), sort_keys=False)
