#!/usr/bin/env python3
"""Shrink-noise sweep: mean independence ratio vs eta.

Runs the expectation-steered solver with shrink-only noise advice
(alpha = sigma = 0) over a shared instance set for each eta on the grid and
prints one line per eta.  With --sigma > 0 the per-cone random offsets are
switched on as well, reseeded per (eta, instance).
"""

import dataclasses
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qgreedy.bench import solver_config  # noqa: E402
from qgreedy.cli import (  # noqa: E402
    _Parser,
    bias,
    count,
    nonnegative,
    run_command,
    shrink,
    spread,
)
from qgreedy.engines import ExpectationCache  # noqa: E402
from qgreedy.graph import generate_regular  # noqa: E402
from qgreedy.noise import NoiseParams  # noqa: E402
from qgreedy.solver import solve_quantum_greedy  # noqa: E402


def sweep(args) -> None:
    base = solver_config(args.depth, 3, 1.0, advice="noise", delta=0.0,
                         noise=NoiseParams(args.eta_max, args.alpha, args.sigma))
    cache = ExpectationCache(base.schedule)
    graphs = [
        generate_regular(args.n, 3, seed=args.seed + i)
        for i in range(args.instances)
    ]
    print(f"N={args.n} depth={args.depth} instances={args.instances}")
    for k in range(args.eta_steps):
        eta = args.eta_max * k / (args.eta_steps - 1) if args.eta_steps > 1 else 0.0
        ratios = []
        for i, g in enumerate(graphs):
            noise = dataclasses.replace(base.noise, eta=eta,
                                        seed=k * args.instances + i)
            cfg = dataclasses.replace(base, noise=noise, seed=args.seed + i)
            ratios.append(solve_quantum_greedy(g, cfg, cache).ratio)
        mean = float(np.mean(ratios))
        sem = (float(np.std(ratios, ddof=1) / np.sqrt(len(ratios)))
               if len(ratios) > 1 else 0.0)  # one instance: 0, as in bench
        print(f"eta {eta:5.3f}  mean_r {mean:.5f}  sem {sem:.5f}")


def main(argv=None) -> int:
    ap = _Parser(description=__doc__)  # usage errors exit 1, as in the CLI
    ap.add_argument("--n", type=count, default=200)
    ap.add_argument("--depth", type=count, default=3)
    ap.add_argument("--instances", type=count, default=20)
    ap.add_argument("--eta-max", type=shrink)
    ap.add_argument("--eta-steps", type=count, default=11)
    ap.add_argument("--alpha", type=bias, default=0.0)
    ap.add_argument("--sigma", type=spread, default=0.0)
    ap.add_argument("--seed", type=nonnegative, default=0)
    args = ap.parse_args(argv)
    if args.eta_max is not None and args.eta_steps == 1:
        ap.error("--eta-max is not read with --eta-steps 1")  # eta is 0.0
    args.eta_max = 0.1 if args.eta_max is None else args.eta_max
    return run_command(sweep, args)


if __name__ == "__main__":
    sys.exit(main())
