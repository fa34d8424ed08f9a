"""Command-line interface.

Subcommands: `run` executes a scenario file, `steady` prints the
steady-state report for given parameters, `validate` checks a scenario file
and echoes its canonical form, `render` converts a grid file to a portable
greymap.  Exit codes: 0 success, 1 I/O failure, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import canonical_text, validate_config
from .errors import ConfigInvalid, IoError, KerrOscError
from .fock import FockCutoff, OscillatorParams, default_cutoff
from .gaussian import steady_mean_estimate, steady_table
from .runner import render_grid, run_scenario
from .version import __version__


def _complex_arg(text: str) -> complex:
    """Parse 'a,b' as a+bi or fall back to the Python complex literal form."""
    raw = text.strip()
    if "," in raw:
        parts = raw.split(",")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(f"cannot parse complex value {text!r}")
        try:
            return complex(float(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"cannot parse complex value {text!r}"
            ) from exc
    try:
        return complex(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex value {text!r}") from exc


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def _cmd_run(args: argparse.Namespace) -> int:
    config = validate_config(_read_text(args.config))
    if isinstance(config, list):
        for message in config:
            print(f"config error: {message}", file=sys.stderr)
        return 2
    report = run_scenario(config, args.out)
    for path in report.files:
        print(f"wrote {path}")
    for key, value in report.summary.items():
        print(f"{key}: {value}")
    return 0


def _cmd_steady(args: argparse.Namespace) -> int:
    try:
        params = OscillatorParams(pump=args.p, kerr=args.G, loss=args.gamma0)
        cutoff = None if args.cutoff is None else FockCutoff(args.cutoff)
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc
    if cutoff is None:
        cutoff = default_cutoff(steady_mean_estimate(params))
    columns, rows = steady_table(params, cutoff)
    widths = [22, 24, 24, 24]
    print("".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip())
    for row in rows:
        cells = [row[0]] + [
            "" if v is None else f"{v:.12g}" for v in row[1:]
        ]
        print("".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    config = validate_config(_read_text(args.config))
    if isinstance(config, list):
        for message in config:
            print(f"config error: {message}", file=sys.stderr)
        return 2
    sys.stdout.write(canonical_text(config))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    print(f"wrote {render_grid(args.grid, args.out)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrosc",
        description=(
            "Truncated-basis simulator and analysis toolkit for the pumped "
            "dissipative Kerr oscillator."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"kerrosc {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file and write its artifacts")
    p_run.add_argument("config", help="scenario file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_steady = sub.add_parser(
        "steady", help="print the exact/Gaussian/crude steady-state table"
    )
    p_steady.add_argument("--G", type=float, required=True, help="Kerr strength")
    p_steady.add_argument("--gamma0", type=float, required=True, help="loss rate")
    p_steady.add_argument(
        "--p", type=_complex_arg, required=True, help="pump amplitude, 're,im'"
    )
    p_steady.add_argument("--cutoff", type=int, default=None, help="basis cutoff")
    p_steady.set_defaults(func=_cmd_steady)

    p_val = sub.add_parser(
        "validate", help="validate a scenario file and echo its canonical form"
    )
    p_val.add_argument("config", help="scenario file")
    p_val.set_defaults(func=_cmd_validate)

    p_render = sub.add_parser("render", help="convert a grid file to an ASCII PGM")
    p_render.add_argument("grid", help="grid file produced by run")
    p_render.add_argument("--out", default=None, help="output image path")
    p_render.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IoError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except KerrOscError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
