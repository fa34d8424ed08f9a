#!/usr/bin/env python3
"""Compare two artifact directories written by `run_all_figures.py --no-render`.

    python scripts/artifact_diff.py DIR_A DIR_B

Lists the files present on only one side and the files whose bytes differ.
For each differing file it prints, per column, the largest absolute change
and the largest relative change.  `#` header lines are skipped.  CSV columns
are named by the file's column line; every other file (the grids) is one
block of whitespace-separated numbers reported as the column `values`.  The
relative change is taken only over cells where DIR_A's value has
|x| >= 1e-6: the near-zero tails of the grids and distributions would
otherwise turn round-off into meaningless ratios.

Exit status: 0 if the directories hold the same bytes, 1 if they differ,
2 on a usage or read error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

_REL_FLOOR = 1e-6


def _table(path: Path) -> tuple[list[str], list[list[str]]]:
    """(column names, rows of cell strings) with `#` lines dropped."""
    lines = [
        ln for ln in path.read_text(encoding="ascii").splitlines()
        if ln and not ln.startswith("#")
    ]
    if path.suffix == ".csv":
        if not lines:
            return [], []
        return lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    return ["values"], [[cell] for ln in lines for cell in ln.split()]


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def compare_file(path_a: Path, path_b: Path) -> list[tuple[str, float, float, int]]:
    """Per column: (name, max |b - a|, max |b - a|/|a| over |a| >= 1e-6, cells
    that are not comparable numbers on both sides yet differ as text)."""
    cols_a, rows_a = _table(path_a)
    cols_b, rows_b = _table(path_b)
    if cols_a != cols_b or len(rows_a) != len(rows_b):
        return [("<shape>", math.inf, math.inf, abs(len(rows_a) - len(rows_b)))]
    stats = {name: [0.0, 0.0, 0] for name in cols_a}
    for row_a, row_b in zip(rows_a, rows_b):
        for name, ca, cb in zip(cols_a, row_a, row_b):
            if ca == cb:
                continue
            entry = stats[name]
            xa, xb = _number(ca), _number(cb)
            if xa is None or xb is None:
                entry[2] += 1
                continue
            diff = abs(xb - xa)
            entry[0] = max(entry[0], diff)
            if abs(xa) >= _REL_FLOOR:
                entry[1] = max(entry[1], diff / abs(xa))
    return [
        (name, a, r, n) for name, (a, r, n) in stats.items() if a > 0.0 or n > 0
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2

    names_a = {p.name for p in args.dir_a.iterdir() if p.is_file()}
    names_b = {p.name for p in args.dir_b.iterdir() if p.is_file()}
    differs = False
    for name in sorted(names_a ^ names_b):
        side = args.dir_a if name in names_a else args.dir_b
        print(f"only in {side}: {name}")
        differs = True

    worst: tuple[float, str] = (0.0, "")
    try:
        for name in sorted(names_a & names_b):
            path_a, path_b = args.dir_a / name, args.dir_b / name
            if path_a.read_bytes() == path_b.read_bytes():
                continue
            differs = True
            print(f"differs: {name}")
            for col, abs_max, rel_max, text in compare_file(path_a, path_b):
                line = f"  {col}: max_abs {abs_max:.3e} max_rel {rel_max:.3e}"
                if text:
                    line += f" non_numeric {text}"
                print(line)
                if abs_max > worst[0]:
                    worst = (abs_max, f"{name}:{col}")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read: {exc}", file=sys.stderr)
        return 2
    if not differs:
        print("identical")
        return 0
    if worst[1]:
        print(f"largest absolute change: {worst[0]:.3e} in {worst[1]}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
