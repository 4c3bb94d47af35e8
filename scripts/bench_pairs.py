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
versions, commit id, seeds and ``--seconds``.

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

from qgreedy.cli import _Parser, count, seed  # noqa: E402

SIDES = ("base", "change")


class RunFailed(Exception):
    """A perfbench run exited non-zero or reported a failed check."""


def seconds(text: str) -> float:
    """--seconds value: a finite number > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(text)
    return value


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
    ap.add_argument("--seed", type=seed, required=True)
    ap.add_argument("--label", type=label, required=True)
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
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
    for side in SIDES:
        medians = summarize([r["result"] for r in results[side]])
        record = {
            "label": args.label, "side": side, "workload": args.workload,
            "commit": commits[side], "host": host, "seconds": args.seconds,
            "seeds": seeds, "runs": results[side], "median": medians,
        }
        if side == "change":
            record["uncommitted_changes"] = dirty
        path = ROOT / f"BENCH_{args.label}-{side}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}: " + ", ".join(
            f"{name} {value:.6g}" for name, value in sorted(medians.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
