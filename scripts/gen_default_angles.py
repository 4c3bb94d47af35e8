#!/usr/bin/env python3
"""Regenerate the angle files shipped in qgreedy/data/angles.

Optimizes depth by depth, feeding each optimum forward as the warm start for
the next, and writes one file per depth.  Deterministic for a fixed version
of the package, but a rerun does not reproduce the shipped files bit for
bit: at p=1 and p=2 it writes the same energies, to the last digit, with
angles that differ by up to 1e-8 and 2e-8.  The tree energy is that flat
near its minimum, so an ulp of change in the engines moves the point where
Nelder-Mead (xatol 1e-8) stops.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qgreedy import angles  # noqa: E402
from qgreedy.cli import (  # noqa: E402
    RUNTIME_ERRORS,
    _Parser,
    count,
    nonnegative,
    penalty,
)

DATA_DIR = pathlib.Path(__file__).resolve().parents[1] / "src/qgreedy/data/angles"
# diminishing returns past a few restarts once the padded start is available
RESTARTS = {1: 8, 2: 8, 3: 4, 4: 2}


def generate(args) -> None:
    args.out_dir.mkdir(parents=True, exist_ok=True)
    prev = None
    for depth in range(1, args.max_depth + 1):
        t0 = time.time()
        opt = angles.optimize_tree_angles(
            depth,
            args.degree,
            args.lam,
            seed=args.seed,
            restarts=RESTARTS.get(depth, 2),
            warm_start=prev,
        )
        path = args.out_dir / angles.angle_file_name(depth, args.degree, args.lam)
        angles.write_angle_file(path, opt)
        print(
            f"p={depth}: energy {opt.energy:+.12f}  "
            f"({time.time() - t0:.1f}s)  -> {path.name}",
            flush=True,
        )
        prev = opt.schedule


def main() -> int:
    ap = _Parser(description=__doc__)  # usage errors exit 1, as in the CLI
    ap.add_argument("--max-depth", type=count, default=4)
    ap.add_argument("--degree", type=nonnegative, default=3)
    ap.add_argument("--lambda", dest="lam", type=penalty, default=1.0)
    ap.add_argument("--seed", type=nonnegative, default=0)
    ap.add_argument("--out-dir", type=pathlib.Path, default=DATA_DIR)
    args = ap.parse_args()
    try:
        generate(args)
    except RUNTIME_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
