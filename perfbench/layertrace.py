"""Layer tracing from outside the program.

The tracer replaces public functions of the `kerrosc` modules with timing
wrappers.  A hook names its target by module and attribute path, and the
wrapper is installed in every `kerrosc` module namespace that holds the same
object, so calls through `from .x import f` references are seen too.  A
target that no longer exists after a refactor is recorded as absent, and the
metrics that need it are left out of the report instead of failing the run.

Three kinds of hook:

- span:  records a span (name, start, end, parent, op) kept in memory;
- leaf:  hot calls with no traced callees (one RHS, one 0F2 series); their
         time and count are accumulated without a span object;
- count: counts calls only, their time stays with the caller.

A layer's self time is its spans' durations minus the time covered by their
traced children; leaf time counts as self time of the leaf's own layer.  An
exception is counted when it leaves the package to the benchmark, as typed
(`KerrOscError`) or untyped, and charged to the layer whose traced function
raised it.  Exceptions the package handles itself are not counted.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

LAYERS = ("dynamics", "fock", "measures", "steady", "gaussian", "quasidist", "config", "runner")
OP_LAYERS = tuple(layer for layer in LAYERS if layer != "config")


@dataclass(frozen=True)
class Hook:
    name: str  # metric prefix, "<layer>.<what>"
    module: str
    attr: str  # attribute path inside the module, e.g. "DensityMatrix.__post_init__"
    kind: str = "span"  # span | leaf | count | factory (wraps the returned callable as a leaf)
    work: Callable | None = None  # (args, result) -> work units of one call
    only_inside: str | None = None  # record only when this span is the innermost open one

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _grid_kind(args, kwargs) -> str:
    s = args[1] if len(args) > 1 else kwargs.get("s")
    return "quasidist.husimi" if float(s) == -1.0 else "quasidist.wigner"


HOOKS = (
    Hook("runner.run_scenario", "kerrosc.runner", "run_scenario",
         work=lambda a, r: sum(os.path.getsize(p) for p in r.files)),
    Hook("config.validate", "kerrosc.config", "validate_config"),
    Hook("dynamics.evolve", "kerrosc.dynamics", "evolve",
         work=lambda a, r: r.diagnostics[-1].steps),
    Hook("dynamics.rhs", "kerrosc.dynamics", "liouvillian_generator", kind="factory"),
    Hook("dynamics.semiclassical", "kerrosc.dynamics", "classical_path"),
    Hook("dynamics.semiclassical", "kerrosc.dynamics", "linearized_noise_path"),
    Hook("fock.density_check", "kerrosc.fock", "DensityMatrix.__post_init__",
         kind="leaf", only_inside="dynamics.evolve"),
    Hook("measures.distance", "kerrosc.measures", "bures_distance"),
    Hook("measures.distance", "kerrosc.measures", "relative_entropy"),
    Hook("measures.scalars", "kerrosc.measures", "moments"),
    Hook("measures.scalars", "kerrosc.measures", "fano"),
    Hook("measures.scalars", "kerrosc.measures", "squeezing"),
    Hook("measures.scalars", "kerrosc.measures", "von_neumann_entropy"),
    Hook("measures.scalars", "kerrosc.measures", "linear_entropy_and_purity"),
    Hook("measures.spectral", "kerrosc.measures", "spectral_decomposition"),
    Hook("steady.density", "kerrosc.steady", "steady_density",
         work=lambda a, r: r.dim * r.dim),
    Hook("steady.hyper_0f2", "kerrosc.steady", "hyper_0f2", kind="leaf"),
    Hook("steady.complex_gamma", "kerrosc.steady", "complex_gamma", kind="count"),
    Hook("steady.moment", "kerrosc.steady", "steady_moment"),
    Hook("gaussian.report", "kerrosc.gaussian", "gaussian_vs_exact_report"),
    Hook("quasidist.grid", "kerrosc.quasidist", "quasidistribution",
         work=lambda a, r: r.values.size),
)


class _Span:
    __slots__ = ("sid", "name", "layer", "start", "end", "parent", "op", "child")

    def __init__(self, sid, name, layer, start, parent, op):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.start = start
        self.end = 0.0
        self.parent = parent
        self.op = op
        self.child = 0.0


class Tracer:
    """Installs the hooks and accumulates spans, counts and failures."""

    def __init__(self) -> None:
        self.absent: list[str] = []
        self.present: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._active = False
        self._stack: list[_Span] = []
        self._open = defaultdict(int)  # name -> open spans of that name
        self._op = 0
        self._current_op = None
        self._typed: type | tuple = ()
        self.spans: list[_Span] = []
        self.reset()
        self.fails = {(layer, kind): 0 for layer in LAYERS for kind in ("typed", "untyped")}

    def reset(self) -> None:
        """Clear the counters that are reported per pass (not failures or spans)."""
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.work = defaultdict(float)
        self.self_time = defaultdict(float)
        self.op_wall = 0.0

    # -- installation -------------------------------------------------

    def install(self) -> None:
        try:
            from kerrosc.errors import KerrOscError

            self._typed = KerrOscError
        except ImportError:
            self.absent.append("kerrosc.errors.KerrOscError")
        for hook in HOOKS:
            try:
                owner, leaf = self._resolve(hook)
                orig = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{hook.module}.{hook.attr}")
                continue
            self.present.add(hook.name)
            wrapper = self._wrap(hook, orig)
            if isinstance(owner, type):
                self._patch(owner, leaf, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "kerrosc" or mod_name.startswith("kerrosc.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapper)
        if "quasidist.grid" in self.present:
            self.present |= {"quasidist.husimi", "quasidist.wigner"}

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    @staticmethod
    def _resolve(hook: Hook):
        owner = importlib.import_module(hook.module)
        *path, leaf = hook.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, leaf

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- recording ----------------------------------------------------

    @contextmanager
    def op(self):
        """Root span around one timed operation; its time is the op wall time."""
        self._op += 1
        self._current_op = self._op
        self._active = True
        span = self._open_span("bench.op", "bench")
        try:
            yield
        finally:
            self._close_span(span)
            self._active = False
            self._current_op = None
            self.op_wall += span.end - span.start

    @contextmanager
    def active(self):
        """Trace calls made outside an op (config validation, probes)."""
        self._active = True
        try:
            yield
        finally:
            self._active = False

    def _open_span(self, name: str, layer: str) -> _Span:
        parent = self._stack[-1].sid if self._stack else None
        span = _Span(len(self.spans), name, layer, time.perf_counter(), parent, self._current_op)
        self.spans.append(span)
        self._stack.append(span)
        self._open[name] += 1
        return span

    def _close_span(self, span: _Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self._open[span.name] -= 1
        dur = span.end - span.start
        self.self_time[span.layer] += dur - span.child
        self.calls[span.name] += 1
        if self._open[span.name] == 0:  # outermost span of this name
            self.busy[span.name] += dur
        if self._stack:
            self._stack[-1].child += dur

    def _uncount(self, span: _Span) -> None:
        """Move a cache hit's time to its caller: the hit did none of the layer's work."""
        dur = span.end - span.start
        self.calls[span.name] -= 1
        if self._open[span.name] == 0:
            self.busy[span.name] -= dur
        self.self_time[span.layer] -= dur
        self.self_time[self._stack[-1].layer if self._stack else "bench"] += dur

    def _fail(self, layer: str, exc: BaseException, outer: _Span | None) -> None:
        """Count an exception once it leaves the package, charged to the layer that raised it.

        `outer` is the innermost traced span around the wrapper that saw the
        exception; the package is left when that is the benchmark's op span
        or nothing.  Exceptions the package catches itself are not counted.
        """
        origin = getattr(exc, "_layertrace_origin", None)
        if origin is None:
            origin = layer
            exc._layertrace_origin = layer
        if outer is None or outer.name == "bench.op":
            kind = "typed" if isinstance(exc, self._typed) else "untyped"
            self.fails[(origin, kind)] += 1

    def _wrap(self, hook: Hook, orig):
        tracer = self
        layer = hook.layer
        name = hook.name

        if hook.kind == "count":
            def counted(*args, **kwargs):
                if tracer._active:
                    tracer.calls[name] += 1
                    try:
                        return orig(*args, **kwargs)
                    except Exception as exc:
                        tracer._fail(layer, exc, tracer._stack[-1] if tracer._stack else None)
                        raise
                return orig(*args, **kwargs)

            return counted

        if hook.kind == "factory":
            leaf_hook = Hook(name, hook.module, hook.attr, kind="leaf")

            def factory(*args, **kwargs):
                fn = orig(*args, **kwargs)
                return tracer._wrap(leaf_hook, fn)

            return factory

        if hook.kind == "leaf":
            inside = hook.only_inside

            def leaf(*args, **kwargs):
                stack = tracer._stack
                if not tracer._active or (inside and (not stack or stack[-1].name != inside)):
                    return orig(*args, **kwargs)
                t0 = time.perf_counter()
                try:
                    return orig(*args, **kwargs)
                except Exception as exc:
                    tracer._fail(layer, exc, stack[-1] if stack else None)
                    raise
                finally:
                    dt = time.perf_counter() - t0
                    tracer.calls[name] += 1
                    tracer.busy[name] += dt
                    tracer.self_time[layer] += dt
                    if stack:
                        stack[-1].child += dt

            return leaf

        cache_info = getattr(orig, "cache_info", None)

        def span(*args, **kwargs):
            if not tracer._active:
                return orig(*args, **kwargs)
            hits = cache_info().hits if cache_info else 0
            sname = _grid_kind(args, kwargs) if name == "quasidist.grid" else name
            s = tracer._open_span(sname, layer)
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                stack = tracer._stack
                tracer._fail(layer, exc, stack[-2] if len(stack) > 1 else None)
                raise
            finally:
                tracer._close_span(s)
            if cache_info and cache_info().hits > hits:
                tracer._uncount(s)
            elif hook.work is not None:
                tracer.work[sname] += hook.work(args, result)
            return result

        return span

    # -- reporting ----------------------------------------------------

    def write_spans(self, path) -> None:
        """Write every recorded span as one JSON line: name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.sid, s.name, s.start, s.end, s.parent, s.op]) + "\n")

    def layer_metrics(self, passes: int, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Per-pass layer metrics; a metric whose hook is absent is left out."""
        c, b, w, st = self.calls, self.busy, self.work, self.self_time
        per = 1.0 / max(passes, 1)

        def ratio(num, den):
            return num / den if den else 0.0

        want = {
            "dynamics.evolve.calls": ("dynamics.evolve", c["dynamics.evolve"] * per, "count/pass"),
            "dynamics.evolve.busy_s": ("dynamics.evolve", b["dynamics.evolve"] * per, "s/pass"),
            "dynamics.rhs.calls": ("dynamics.rhs", c["dynamics.rhs"] * per, "count/pass"),
            "dynamics.rhs.busy_s": ("dynamics.rhs", b["dynamics.rhs"] * per, "s/pass"),
            "dynamics.rhs.us_per_call": (
                "dynamics.rhs", 1e6 * ratio(b["dynamics.rhs"], c["dynamics.rhs"]), "us"),
            "dynamics.rk_self_s": (
                "dynamics.evolve",
                (b["dynamics.evolve"] - b["dynamics.rhs"] - b["fock.density_check"]) * per,
                "s/pass"),
            "dynamics.accepted_steps": ("dynamics.evolve", w["dynamics.evolve"] * per, "count/pass"),
            "dynamics.rhs_per_step": (
                "dynamics.rhs", ratio(c["dynamics.rhs"], w["dynamics.evolve"]), "ratio"),
            "dynamics.semiclassical.busy_s": (
                "dynamics.semiclassical", b["dynamics.semiclassical"] * per, "s/pass"),
            "fock.density_check.calls": ("fock.density_check", c["fock.density_check"] * per, "count/pass"),
            "fock.density_check.busy_s": ("fock.density_check", b["fock.density_check"] * per, "s/pass"),
            "measures.distance.calls": ("measures.distance", c["measures.distance"] * per, "count/pass"),
            "measures.distance.busy_s": ("measures.distance", b["measures.distance"] * per, "s/pass"),
            "measures.scalars.busy_s": ("measures.scalars", b["measures.scalars"] * per, "s/pass"),
            "measures.spectral.busy_s": ("measures.spectral", b["measures.spectral"] * per, "s/pass"),
            "steady.density.calls": ("steady.density", c["steady.density"] * per, "count/pass"),
            "steady.density.busy_s": ("steady.density", b["steady.density"] * per, "s/pass"),
            "steady.density.us_per_elem": (
                "steady.density", 1e6 * ratio(b["steady.density"], w["steady.density"]), "us"),
            "steady.hyper_0f2.calls": ("steady.hyper_0f2", c["steady.hyper_0f2"] * per, "count/pass"),
            "steady.hyper_0f2.busy_s": ("steady.hyper_0f2", b["steady.hyper_0f2"] * per, "s/pass"),
            "steady.complex_gamma.calls": (
                "steady.complex_gamma", c["steady.complex_gamma"] * per, "count/pass"),
            "steady.moment.busy_s": ("steady.moment", b["steady.moment"] * per, "s/pass"),
            "gaussian.report.busy_s": ("gaussian.report", b["gaussian.report"] * per, "s/pass"),
            "quasidist.wigner.calls": ("quasidist.wigner", c["quasidist.wigner"] * per, "count/pass"),
            "quasidist.wigner.busy_s": ("quasidist.wigner", b["quasidist.wigner"] * per, "s/pass"),
            "quasidist.husimi.calls": ("quasidist.husimi", c["quasidist.husimi"] * per, "count/pass"),
            "quasidist.husimi.busy_s": ("quasidist.husimi", b["quasidist.husimi"] * per, "s/pass"),
            "quasidist.points_per_s": (
                "quasidist.grid",
                ratio(w["quasidist.husimi"] + w["quasidist.wigner"],
                      b["quasidist.husimi"] + b["quasidist.wigner"]),
                "1/s"),
            "config.validate.busy_s": ("config.validate", b["config.validate"] * per, "s/pass"),
            "runner.bytes_written": ("runner.run_scenario", w["runner.run_scenario"] * per, "B/pass"),
        }
        out = {k: (v, unit) for k, (hook, v, unit) in want.items() if hook in self.present}
        layer_sum = 0.0
        for layer in OP_LAYERS:
            out[f"{layer}.self_s"] = (st[layer] * per, "s/pass")
            layer_sum += st[layer]
        for (layer, kind), n in self.fails.items():
            out[f"{layer}.fail.{kind}"] = (float(n), "count")
        out["trace.op_wall_s"] = (self.op_wall * per, "s/pass")
        out["trace.self_sum_ratio"] = (ratio(layer_sum, self.op_wall), "ratio")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out
