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
from dataclasses import dataclass

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qgreedy.bench import (  # noqa: E402
    GREEDY_ASYMPTOTE,
    PRIORITIZED_SEARCH_RATIO,
    load_plan,
    run_plan,
)
from qgreedy.cli import RUNTIME_ERRORS, _Parser, count  # noqa: E402

PLANS = pathlib.Path(__file__).resolve().parent / "plans"


@dataclass(frozen=True)
class CurveFit:
    model: str  # "a/p+b" | "c*p^d"
    params: tuple[float, ...]
    residual_norm: float


def fit_curve(points, model: str) -> CurveFit:
    """Least-squares fit of value-vs-depth points to one of two small models.

    a/p+b is linear in 1/p and solved directly.  c*p^d is solved by a scan
    over the exponent with the closed-form optimal c at each candidate,
    then a local bisection refinement around the best exponent.
    """
    pts = [(float(p), float(v)) for p, v in points]
    if len(pts) < 2:
        raise ValueError("need at least 2 points")
    ps = np.array([p for p, _ in pts])
    ys = np.array([v for _, v in pts])
    if model == "a/p+b":
        if np.any(ps == 0):
            raise ValueError("a/p+b undefined at p=0")
        design = np.column_stack([1.0 / ps, np.ones_like(ps)])
        params, *_ = np.linalg.lstsq(design, ys, rcond=None)
        resid = design @ params - ys
        return CurveFit("a/p+b", (float(params[0]), float(params[1])),
                        float(np.linalg.norm(resid)))
    if model == "c*p^d":
        if np.any(ps <= 0):
            raise ValueError("c*p^d needs positive p")

        def best_c(d):
            basis = ps**d
            denom = float(basis @ basis)
            c = float(basis @ ys) / denom
            return c, float(np.linalg.norm(c * basis - ys))

        grid = np.arange(-4.0, 4.0 + 1e-9, 1e-3)
        scores = [best_c(d)[1] for d in grid]
        i = int(np.argmin(scores))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, len(grid) - 1)]
        for _ in range(60):  # bisect the bracket down to ~1e-19 width
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            if best_c(m1)[1] <= best_c(m2)[1]:
                hi = m2
            else:
                lo = m1
        d = (lo + hi) / 2
        c, resid = best_c(d)
        return CurveFit("c*p^d", (c, float(d)), resid)
    raise ValueError(f"unknown model {model!r}")


def run(args) -> None:
    path = PLANS / f"{args.plan}.plan"
    if not path.exists():
        path = pathlib.Path(args.plan)
    plan = load_plan(path)
    if args.workers is not None:
        plan = dataclasses.replace(plan, workers=args.workers)

    rows = run_plan(plan)
    for row in rows:
        print(
            f"size {row.size:5d}  {row.solver:7s} depth {row.depth}  "
            f"mean_r {row.mean_r:.5f}  3sem {row.sem3:.5f}"
        )
    print(f"\nclassical asymptote        {GREEDY_ASYMPTOTE:.6f}")
    print(f"prioritized-search ratio   {PRIORITIZED_SEARCH_RATIO:.6f}")

    biggest = max(plan.sizes)
    points = [
        (row.depth, row.mean_r)
        for row in rows
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
