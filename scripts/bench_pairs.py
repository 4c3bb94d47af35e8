#!/usr/bin/env python3
"""Before/after numbers for one perfbench workload: a base revision against
the working tree, run in alternating pairs.

    python3 scripts/bench_pairs.py --workload classical --base HEAD~1 \\
        --pairs 5 --seconds 20 --seed 1 --label classical

The base revision is extracted with ``git archive`` into a temporary
directory: no worktree is made and nothing under .git changes.  Pair k runs
``perfbench/run.py --trace 0`` of both copies with seed ``--seed + k``; the
copy that runs first alternates from pair to pair, so a drift in machine
speed does not favour one side.  The runs of each side go to
``BENCH_<label>-base.json`` and ``BENCH_<label>-change.json`` in the root of
the working tree.  Each file holds every run's final JSON line, the median
of each metric over the runs, and the host facts: nproc, Python and numpy
versions, commit id, seeds and ``--seconds``.  The change-side file also
holds a ``comparison`` of each end-to-end metric of ``BENCHMARK.json``,
printed one line per metric: the pairs the change won and tied, both
medians, the base side's interquartile range, the signed relative change
of the medians next to the metric's bound, and two verdicts.  ``gain``: the
change won at least 9 of 10 pairs and its median is better than the base
median by more than the base IQR.  ``regressed``: its median is worse than
the base median by more than the bound times the base median.

Exit status: 0 on success, 1 on a usage error (a revision git does not know
included), 2 when a run fails or reports a failed check.
"""

import io
import json
import math
import os
import pathlib
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile

import numpy

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from qgreedy.cli import _Parser, count, nonnegative, ranged  # noqa: E402

SIDES = ("base", "change")


class RunFailed(Exception):
    """A perfbench run exited non-zero or reported a failed check."""


seconds = ranged("a finite number > 0",
                 lambda v: math.isfinite(v) and v > 0, name="seconds")


def label(text: str) -> str:
    """--label value: letters, digits, '.', '_' and '-', as in a file name."""
    if not re.fullmatch(r"[A-Za-z0-9._-]+", text):
        raise ValueError(text)
    return text


def final_line(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a perfbench run."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise RunFailed("the run printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise RunFailed(f"last line is not JSON: {lines[-1]!r}") from exc
    if not isinstance(result, dict) or result.get("correct") is not True:
        raise RunFailed(f"the run reports a failed check: {lines[-1]}")
    return result


def summarize(results: list[dict]) -> dict:
    """Median of each metric over the runs that report it."""
    values: dict[str, list[float]] = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {name: statistics.median(vs) for name, vs in values.items()}


def compare(base: list[dict], change: list[dict],
            end_to_end: list[dict]) -> dict:
    """Each end-to-end metric, over the pairs whose runs both report it.

    ``base[k]`` and ``change[k]`` are pair k's final lines.  A pair is won
    when the change's value is better in the metric's ``better`` direction,
    and tied when the values are equal.  The relative change is
    (change median - base median) / |base median|, None at a base of 0.
    ``gain`` and ``regressed`` are the verdicts the module docstring names.
    """
    out = {}
    for metric in end_to_end:
        name = metric["name"]
        pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                 for b, c in zip(base, change)
                 if name in b["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        sign = -1 if metric["better"] == "lower" else 1
        olds = [b for b, _ in pairs]
        old = statistics.median(olds)
        new = statistics.median(c for _, c in pairs)
        q1, _, q3 = (statistics.quantiles(olds, n=4) if len(olds) > 1
                     else [old] * 3)
        won = sum(sign * (c - b) > 0 for b, c in pairs)
        out[name] = {
            "better": metric["better"], "bound": metric["bound"],
            "pairs": len(pairs),
            "won": won,
            "ties": sum(c == b for b, c in pairs),
            "base_median": old, "change_median": new, "base_iqr": q3 - q1,
            "relative_change": (new - old) / abs(old) if old else None,
            "gain": 10 * won >= 9 * len(pairs)
                    and sign * (new - old) > q3 - q1,
            "regressed": -sign * (new - old) > metric["bound"] * abs(old),
        }
    return out


def comparison_line(name: str, c: dict) -> str:
    change = c["relative_change"]
    change = "n/a" if change is None else f"{change:+.1%}"
    return (f"{name}: change won {c['won']}/{c['pairs']} pairs "
            f"({c['ties']} tied, {c['better']} is better), median "
            f"{c['base_median']:.6g} -> {c['change_median']:.6g} ({change}, "
            f"bound {c['bound']:.0%}), base IQR {c['base_iqr']:.6g}, "
            f"gain {c['gain']}, regressed {c['regressed']}")


def git(*args: str) -> str:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError as exc:
        raise ValueError(f"cannot run git: {exc}") from exc
    if done.returncode:
        raise ValueError(done.stderr.strip() or f"git {args[0]} failed")
    return done.stdout.strip()


def extract(commit: str, dest: pathlib.Path) -> None:
    """The files of ``commit`` under ``dest``, by ``git archive``."""
    data = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def run_once(tree: pathlib.Path, workload: str, run_seed: int,
             run_seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(run_seed), "--seconds", repr(run_seconds),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode:
        raise RunFailed(f"perfbench exited {done.returncode} in {tree}: "
                        f"{done.stderr.strip()[-500:]}")
    return final_line(done.stdout)


def main(argv=None) -> int:
    ap = _Parser(description=__doc__.split("\n\n")[0])  # usage errors exit 1
    ap.add_argument("--workload", required=True)
    ap.add_argument("--base", required=True, help="git revision to compare")
    ap.add_argument("--pairs", type=count, required=True)
    ap.add_argument("--seconds", type=seconds, required=True)
    ap.add_argument("--seed", type=nonnegative, required=True)
    ap.add_argument("--label", type=label, required=True)
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    workloads = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in workloads:
        ap.error(f"--workload must be one of {', '.join(workloads)}")
    try:
        base = git("rev-parse", "--verify", "--quiet", args.base + "^{commit}")
    except ValueError:
        ap.error(f"--base: git knows no commit {args.base!r}")
    commits = {"base": base, "change": git("rev-parse", "HEAD")}
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    seeds = [args.seed + k for k in range(args.pairs)]
    results = {side: [] for side in SIDES}
    try:
        with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
            trees = {"base": pathlib.Path(tmp), "change": ROOT}
            extract(base, trees["base"])
            for k, run_seed in enumerate(seeds):
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    result = run_once(trees[side], args.workload, run_seed,
                                      args.seconds)
                    results[side].append({"seed": run_seed, "result": result})
                    op_s = result["metrics"].get("op_s", {}).get("value")
                    print(f"pair {k + 1}/{args.pairs} seed {run_seed} {side:6} "
                          f"op_s {op_s}", flush=True)
    except (RunFailed, subprocess.CalledProcessError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    host = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}
    finals = [[r["result"] for r in results[side]] for side in SIDES]
    comparison = compare(*finals, benchmark["end_to_end"])
    for side in SIDES:
        medians = summarize([r["result"] for r in results[side]])
        record = {
            "label": args.label, "side": side, "workload": args.workload,
            "commit": commits[side], "host": host, "seconds": args.seconds,
            "seeds": seeds, "runs": results[side], "median": medians,
        }
        if side == "change":
            record["uncommitted_changes"] = dirty
            record["comparison"] = comparison
        path = ROOT / f"BENCH_{args.label}-{side}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}: " + ", ".join(
            f"{name} {value:.6g}" for name, value in sorted(medians.items())))
    for name, c in comparison.items():
        print(comparison_line(name, c))
    return 0


if __name__ == "__main__":
    sys.exit(main())
