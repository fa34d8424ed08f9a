#!/usr/bin/env python3
"""Check how the stationary-state scalars converge with the basis cutoff.

For a range of photon-number cutoffs this prints the stationary mean photon
number, entropies, Fano factor, squeezing parameter, the residual of the
generator applied to the stationary matrix, and the mass in the last five
basis states.  The scalars should settle to fixed digits well before the
default cutoff, and the reported tail mass shows the truncation headroom.
"""

from __future__ import annotations

import argparse

import numpy as np

from kerrosc.dynamics import liouvillian_apply
from kerrosc.errors import KerrOscError
from kerrosc.fock import FockCutoff, OscillatorParams, default_cutoff, tail_mass
from kerrosc.gaussian import steady_mean_estimate
from kerrosc.measures import (
    fano,
    linear_entropy_and_purity,
    moments,
    squeezing,
    von_neumann_entropy,
)
from kerrosc.steady import steady_density


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pump-re", type=float, default=5.0)
    parser.add_argument("--pump-im", type=float, default=0.0)
    parser.add_argument("--kerr", type=float, default=0.2)
    parser.add_argument("--loss", type=float, default=1.0)
    parser.add_argument("--min-cutoff", type=int, default=15)
    parser.add_argument("--max-cutoff", type=int, default=60)
    parser.add_argument("--step", type=int, default=5)
    args = parser.parse_args(argv)

    params = OscillatorParams(
        pump=complex(args.pump_re, args.pump_im), kerr=args.kerr, loss=args.loss
    )
    suggested = default_cutoff(steady_mean_estimate(params))
    print(f"# pump={params.pump} kerr={params.kerr} loss={params.loss}")
    print(f"# default cutoff (as kerrosc steady picks it): {suggested.n_cut}")
    header = ("cutoff", "mean_n", "E", "L", "F", "S", "generator_resid", "tail5")
    print(("{:>7} " + "{:>13} " * 7).format(*header))
    for n_cut in range(args.min_cutoff, args.max_cutoff + 1, args.step):
        try:
            rho = steady_density(params, FockCutoff(n_cut))
        except KerrOscError as exc:
            print(f"{n_cut:>7} rejected: {exc}")
            continue
        resid = float(np.max(np.abs(liouvillian_apply(rho, params))))
        row = (
            moments(rho).mean_n,
            von_neumann_entropy(rho),
            linear_entropy_and_purity(rho)[0],
            fano(rho),
            squeezing(rho),
            resid,
            tail_mass(rho, 5),
        )
        print(f"{n_cut:>7} " + " ".join(f"{v:13.6e}" for v in row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
