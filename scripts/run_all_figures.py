#!/usr/bin/env python3
"""Run every bundled scenario and collect the outputs under one directory.

Each bundled scenario reproduces one figure-style artifact (time series,
phase-space grids, or report tables).  Grids are also rendered to portable
greymaps unless --no-render is given.  The pumped evolutions to t = 10..20
dominate the runtime; with --no-render the sweep takes about 10 s on a
2-vCPU machine.
"""

from __future__ import annotations

import argparse
import sys
import time
from importlib import resources
from pathlib import Path

from kerrosc.config import ScenarioConfig, validate_config
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
    failures = 0
    for file_name, text in bundled_scenarios():
        if args.only and args.only not in file_name:
            continue
        config = validate_config(text)
        if not isinstance(config, ScenarioConfig):
            print(f"{file_name}: invalid bundled config: {config}", file=sys.stderr)
            failures += 1
            continue
        start = time.perf_counter()
        report = run_scenario(config, args.out)
        elapsed = time.perf_counter() - start
        print(f"{config.name}: {len(report.files)} file(s), "
              f"{report.steps} step(s), {elapsed:.1f} s")
        if not args.no_render:
            for path in report.files:
                if path.endswith(".grid"):
                    render_grid(path)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
