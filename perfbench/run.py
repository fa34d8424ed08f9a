"""kerrosc benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, never from an installed copy.  With `--trace 0` the last stdout line
is a JSON object whose metrics are the end-to-end ones (`setup_s`,
`throughput`, `op_s_p50`, `peak_rss_mb`); with `--trace 1` they are the
per-layer ones from the layer tracer, per traced pass.  The lines before it
give the same numbers for a reader, the fail ratio with the known-defect
probes, and the environment.  The full record (environment, per-op times and
checked scalars, artifact digests, spans) goes to `.bench_out/`.
"""

from __future__ import annotations

import os
import time

_T0 = time.perf_counter()

# Pinned before numpy is imported, so every run uses the same BLAS threading
# and the caller's shell cannot change grid evaluation.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("KERROSC_GRID_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 11  # this process plus ten fresh child processes


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="kerrosc benchmark")
    parser.add_argument("--workload", required=True, choices=("trajectory", "phase_space"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    if not (SRC / "kerrosc" / "__init__.py").is_file():
        sys.exit(f"no kerrosc sources under {SRC}: run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import kerrosc

    if Path(kerrosc.__file__).resolve().parent != SRC / "kerrosc":
        sys.exit(f"imported kerrosc from {kerrosc.__file__}, not from {SRC}")
    return kerrosc


def set_up(workload_name: str, seed: int):
    """Import, input generation and validation of the first pass."""
    import_package()
    import workloads

    wl = workloads.WORKLOADS[workload_name]()
    first = wl.prepare_pass(seed, 0)
    return wl, first


def setup_seconds(args, own: float) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": int(BLAS_THREADS),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Run:
    """Runs passes of one workload and keeps a record of every op."""

    def __init__(self, wl, work_dir: Path, tracer=None) -> None:
        self.wl = wl
        self.work_dir = work_dir
        self.tracer = tracer
        self.records: list[dict] = []
        self.digests: dict[str, str] = {}

    def run_pass(self, ops, index: int, traced: bool) -> float:
        """Run one pass; returns the summed op wall time."""
        out = self.work_dir / f"pass{index}{'t' if traced else ''}"
        wall_sum = 0.0
        for j, op in enumerate(ops):
            self.wl.cold()
            op_dir = out / f"op{j}"
            rec = {"pass": index, "traced": traced, "kind": op.kind, "work": op.work}
            t = time.perf_counter()
            try:
                if traced:
                    with self.tracer.op():
                        result = op.run(op_dir)
                else:
                    result = op.run(op_dir)
                rec["wall_s"] = time.perf_counter() - t
                rec["scalars"] = op.check(result)
                rec["ok"] = True
            except Exception as exc:  # an op that raises or fails its check counts as failed
                rec.setdefault("wall_s", time.perf_counter() - t)
                rec["ok"] = False
                rec["error"] = f"{type(exc).__name__}: {exc}"
            wall_sum += rec["wall_s"]
            self.records.append(rec)
        if not self.digests:
            self.digests = {
                str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.rglob("*")) if p.is_file()
            }
        shutil.rmtree(out, ignore_errors=True)
        return wall_sum

    def loop(self, seed: int, seconds: float, first_ops, traced: bool, prepare) -> int:
        """Run whole passes while one more would end nearer to `seconds` than stopping now.

        Returns the number of passes.  Whole passes keep the op mix of every
        run the same, so the run length, not the mix, follows the speed.
        """
        t_loop = time.perf_counter()
        ops, durations = first_ops, []
        while True:
            t = time.perf_counter()
            self.run_pass(ops, len(durations), traced)
            durations.append(time.perf_counter() - t)
            elapsed = time.perf_counter() - t_loop
            if elapsed + statistics.fmean(durations) / 2 >= seconds:
                return len(durations)
            ops = prepare(seed, len(durations))


def run_probes(probes) -> list[dict]:
    from kerrosc.errors import KerrOscError

    results = []
    for name, call in probes:
        rec = {"name": name, "outcome": "passed"}
        try:
            call()
        except KerrOscError as exc:
            rec.update(outcome="typed", error=f"{type(exc).__name__}: {exc}")
        except Exception as exc:
            rec.update(outcome="untyped", error=f"{type(exc).__name__}: {exc}")
        results.append(rec)
    return results


def measure(args, wl, run: Run, first_ops, own_setup: float):
    """Untraced run: set-up samples, probes, then the timed passes.

    Returns the pass count, the probe outcomes, the end-to-end metrics and
    the set-up samples.
    """
    setup = setup_seconds(args, own_setup)
    probes = run_probes(wl.probes())
    wl.cold()
    passes = run.loop(args.seed, args.seconds, first_ops, False, wl.prepare_pass)
    op_walls = [r["wall_s"] for r in run.records]
    per_pass: dict[int, tuple[float, float]] = {}
    for r in run.records:
        work, wall = per_pass.get(r["pass"], (0.0, 0.0))
        per_pass[r["pass"]] = (work + r["work"], wall + r["wall_s"])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput": (statistics.median(work / wall for work, wall in per_pass.values()), "work/s"),
        "op_s_p50": (statistics.median(op_walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return passes, probes, metrics, setup


def measure_traced(args, wl, run: Run, first_ops):
    """Pass 0 untraced, then traced passes with the hooks installed; returns layer metrics."""
    tracer = run.tracer
    untraced = run.run_pass(first_ops, 0, traced=False)
    tracer.install()
    try:
        with tracer.active():
            probes = run_probes(wl.probes())
        wl.cold()
        tracer.reset()

        def prepare(seed, index):
            with tracer.active():
                return wl.prepare_pass(seed, index)

        passes = run.loop(args.seed, args.seconds - untraced, prepare(args.seed, 0), True, prepare)
    finally:
        tracer.uninstall()
    traced = sum(r["wall_s"] for r in run.records if r["traced"] and r["pass"] == 0)
    tracer.write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
    return passes, probes, tracer.layer_metrics(passes, traced / untraced), None


def main(argv=None) -> int:
    args = parse_args(argv)
    wl, first_ops = set_up(args.workload, args.seed)
    own_setup = time.perf_counter() - _T0
    if args.setup_probe:
        print(repr(own_setup))
        return 0

    import layertrace

    work_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    warm = {"ok": True}
    try:
        warm["scalars"] = wl.warm_up(work_dir / "warmup")
    except Exception as exc:
        warm = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    wl.cold()

    tracer = layertrace.Tracer() if args.trace else None
    run = Run(wl, work_dir, tracer)
    try:
        if tracer:
            passes, probes, metrics, setup = measure_traced(args, wl, run, first_ops)
        else:
            passes, probes, metrics, setup = measure(args, wl, run, first_ops, own_setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed_ops = sum(not r["ok"] for r in run.records)
    failed_probes = sum(p["outcome"] != "passed" for p in probes)
    typed = sum(p["outcome"] == "typed" for p in probes)
    attempted = len(run.records)
    env = environment(args)
    record = {
        "env": env,
        "warm_up": warm,
        "passes": passes,
        "probes": probes,
        "ops": run.records,
        "artifact_sha256": run.digests,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if tracer:
        record["absent_hooks"] = tracer.absent
    else:
        record["setup_samples_s"] = setup
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  ops {attempted}  "
          f"trace {args.trace}  record {record_path.relative_to(ROOT)}")
    if tracer:
        if tracer.absent:
            print("absent hooks (their metrics are left out): " + ", ".join(tracer.absent))
        for name, (value, unit) in metrics.items():
            print(f"  {name:32s} {value:14.6g} {unit}")
    else:
        print(f"  setup_s      {metrics['setup_s'][0]:.4f} s (median of {len(setup)})")
        print(f"  throughput   {metrics['throughput'][0]:.6g} {wl.work_unit}")
        print(f"  op_s_p50     {metrics['op_s_p50'][0]:.4f} s (n={attempted})")
    print(f"  fail_ratio   {(failed_ops + failed_probes) / (attempted + len(probes)):.4f} "
          f"({failed_ops} of {attempted} ops, {failed_probes} of {len(probes)} probes: "
          f"{typed} typed, {failed_probes - typed} untyped)")
    if not args.trace:
        print(f"  peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MB")
    for rec in [r for r in run.records if not r["ok"]] + ([warm] if not warm["ok"] else []):
        print(f"  FAILED {rec.get('kind', 'warm-up')}: {rec['error']}")
    # The known-defect probes go on the line before the result: the result
    # line keeps exactly the keys correct, attempted, failed and metrics.
    print(json.dumps({"env": env, "probes": {
        "attempted": len(probes), "failed": failed_probes, "typed": typed, "untyped": failed_probes - typed}}))
    print(json.dumps({
        "correct": failed_ops == 0 and warm["ok"],
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
