#!/usr/bin/env python3
"""Run a benchmark plan and summarize the depth trend.

`--plan desk` and `--plan extended` resolve to the files in scripts/plans;
anything else is treated as a path.  After the sweep, the mean ratio of the
largest size is fitted against depth with both shipped trend models and
printed next to the classical asymptote and the prioritized-search
reference value.
"""

import dataclasses
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qgreedy.bench import (  # noqa: E402
    GREEDY_ASYMPTOTE,
    PRIORITIZED_SEARCH_RATIO,
    fit_curve,
    load_plan,
    run_plan,
)
from qgreedy.cli import RUNTIME_ERRORS, _Parser, count  # noqa: E402

PLANS = pathlib.Path(__file__).resolve().parent / "plans"


def run(args) -> None:
    path = PLANS / f"{args.plan}.plan"
    if not path.exists():
        path = pathlib.Path(args.plan)
    plan = load_plan(path)
    if args.workers is not None:
        plan = dataclasses.replace(plan, workers=args.workers)

    report = run_plan(plan)
    for row in report.rows:
        print(
            f"size {row.size:5d}  {row.solver:7s} depth {row.depth}  "
            f"mean_r {row.mean_r:.5f}  3sem {row.sem3:.5f}"
        )
    print(f"\nclassical asymptote        {GREEDY_ASYMPTOTE:.6f}")
    print(f"prioritized-search ratio   {PRIORITIZED_SEARCH_RATIO:.6f}")

    biggest = max(plan.sizes)
    points = [
        (row.depth, row.mean_r)
        for row in report.rows
        if row.size == biggest and row.solver == "qgreedy"
    ]
    if len(points) >= 2:
        inv = fit_curve(points, "a/p+b")
        pow_ = fit_curve(points, "c*p^d")
        a, b = inv.params
        c, d = pow_.params
        print(f"\ndepth trend at N={biggest}:")
        print(f"  a/p+b : a={a:+.4f} b={b:.4f}  (resid {inv.residual_norm:.2e})")
        print(f"  c*p^d : c={c:.4f} d={d:+.4f}  (resid {pow_.residual_norm:.2e})")
    print(f"\nwrote {plan.out}")


def main() -> int:
    ap = _Parser(description=__doc__)  # usage errors exit 1, as in the CLI
    ap.add_argument("--plan", default="desk")
    ap.add_argument("--workers", type=count, default=None,
                    help="override the plan's worker count")
    args = ap.parse_args()
    try:
        run(args)
    except RUNTIME_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
