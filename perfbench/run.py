#!/usr/bin/env python3
"""Benchmark of the qgreedy package through its public library API.

    python3 perfbench/run.py --workload warm-p2 --seed 1 --seconds 20 --trace 0

Workloads: cold-p3, warm-p2, classical, sweep-shots (see README.md here).
The run sets its workload up several times, then repeats whole passes of
ops until ``--seconds`` have passed, checking every op's output.  It prints
one line per metric and, last, one JSON line with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics,
from a run that times every op once plain and once traced.

Exit status: 0 on success, 1 when a check fails, 2 when the package source
under src/ is missing.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported: einsum with
# optimize=True may otherwise take every core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# A persisted expectation cache would make the cold workload warm.
os.environ.pop("QGREEDY_CACHE_DIR", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from speed import probed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
NAMES = ("cold-p3", "warm-p2", "classical", "sweep-shots")

sys.path.insert(0, str(SRC))


def _median_or_none(values):
    return statistics.median(values) if values else None


def import_seconds() -> float:
    """Scaled time to import the package in a fresh interpreter.

    A module imports once per process, so each repeat of this part of the
    set-up needs its own interpreter.
    """
    probe = "import speed; print(speed.probed(__import__, 'qgreedy')[2])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return float(done.stdout)


def measure(workload, seed: int, seconds: float, tracer) -> dict:
    """Set up, then run ops over the inputs, cycling, until ``seconds`` have
    passed and every input has run at least once.

    Op times are kept in pairs (wall, scaled); set-up times are scaled by
    speed.probed.  mean_ratio comes from the first pass alone, so it does
    not depend on how many ops fit in the time.  With a tracer each op runs twice in a row on the same input,
    plain and then traced; both must return the same text.
    """
    from workloads import CheckFailed

    setups = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        imported = 0.0 if tracer else import_seconds()
        with tracer.active("setup") if tracer else nullcontext():
            items, _, took = probed(workload.setup, seed)
        setups.append(imported + took)

    refs = [workload.reference(item) for item in items]
    ratios = [None] * len(items)
    plain, traced, overhead = [], [], []
    attempted = failed = op = passes = 0
    modes = (None, tracer) if tracer else (None,)
    start = perf_counter()
    while perf_counter() - start < seconds or passes == 0:
        for i, item in enumerate(items):
            if passes and perf_counter() - start >= seconds:
                break
            pair = []
            for mode in modes:
                attempted += workload.units_per_op
                out = workload.run(item, mode, op)
                op += 1
                if out.failed:
                    failed += out.failed
                    continue
                if refs[i] is None:
                    refs[i] = out.text
                elif out.text != refs[i]:
                    raise CheckFailed(
                        f"input {i}: output differs from its first run"
                        + (" (traced)" if mode else "")
                    )
                if not passes:
                    ratios[i] = out.ratio
                pair.append(out.scaled)
                (traced if mode else plain).append((out.seconds, out.scaled))
            if len(pair) == 2:
                overhead.append(pair[1] - pair[0])
        passes += 1
    done = [r for r in ratios if r is not None]
    return dict(
        setups=setups, plain=plain, traced=traced, overhead=overhead,
        attempted=attempted, failed=failed, passes=passes, inputs=len(items),
        mean_ratio=statistics.fmean(done) if done else None,
    )


def end_to_end(workload, m: dict) -> dict:
    """Metrics under the names the issue tracker uses, plus op_s."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    n = len(m["plain"])
    wall = [w for w, _ in m["plain"]]
    scaled = [s for _, s in m["plain"]]
    op_s = _median_or_none(scaled)
    what = "sweep_s" if workload.name == "sweep-shots" else "solve_s"
    note = f"median of {n} ops over {m['inputs']} inputs, scaled; wall "
    out = {
        "setup_s": (statistics.median(m["setups"]), "s",
                    f"median of {len(m['setups'])} set-ups, scaled"),
        "op_s": (op_s, "s", f"the {what} below"),
        what: (op_s, "s", note + _fmt(_median_or_none(wall))),
        "peak_rss_mb": (max(self_kb, child_kb) / 1024.0, "MB",
                        "ru_maxrss of this process or its largest child"),
        "failed_frac": (m["failed"] / m["attempted"], "ratio",
                        f"{m['failed']} of {m['attempted']}"),
        "mean_ratio": (m["mean_ratio"], "ratio", "mean set size / N per input"),
    }
    if n >= 100:  # the 90th percentile then has at least ten samples past it
        out[f"{what}_p90"] = (statistics.quantiles(scaled, n=10)[-1], "s",
                              f"90th percentile of {n} ops, scaled; wall "
                              + _fmt(statistics.quantiles(wall, n=10)[-1]))
    return out


def per_layer(tracer, m: dict) -> tuple[dict, dict]:
    from tracing import layer_metrics, scope_of

    ops = len(m["traced"])
    layers = layer_metrics(tracer, "ops", ops) if ops else {}
    layers["trace.overhead_s"] = (_median_or_none(m["overhead"]), "s")
    spans = sum(1 for s in tracer.spans if scope_of(s[4]) == "ops")
    layers["trace.spans"] = (spans / ops if ops else None, "count")
    setup = layer_metrics(tracer, "setup", 1)
    return layers, setup


def _fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, str):
        return value
    return f"{value:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "qgreedy" / "__init__.py").is_file():
        print(f"perfbench: no qgreedy source under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    import numpy
    import scipy

    import qgreedy
    import tracing
    import workloads
    if Path(qgreedy.__file__).resolve().parent != SRC / "qgreedy":
        print(f"perfbench: qgreedy imported from {qgreedy.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"# env nproc {os.cpu_count()} python {platform.python_version()} "
          f"numpy {numpy.__version__} scipy {scipy.__version__} "
          f"blas_threads {os.environ['OMP_NUM_THREADS']}")
    OUT.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, str(OUT))
    tracer = tracing.Tracer() if args.trace else None
    try:
        m = measure(workload, args.seed, args.seconds, tracer)
    except workloads.CheckFailed as err:
        print(f"# CHECK FAILED: {err}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1
    print(f"# {m['passes']} passes (the last may be partial) over {m['inputs']} inputs, "
          f"{m['attempted']} attempted, {m['failed']} failed")

    if tracer is None:
        noted = end_to_end(workload, m)
        for name, (value, unit, note) in noted.items():
            print(f"{name:<34} {_fmt(value):>12} {unit:<6} {note}")
        report = {name: (value, unit) for name, (value, unit, _) in noted.items()}
        wanted = spec["end_to_end"]
    else:
        report, setup = per_layer(tracer, m)
        for name, (value, unit) in report.items():
            print(f"{name:<34} {_fmt(value):>12} {unit}  per op")
        for name, (value, unit) in setup.items():
            if value:
                print(f"setup.{name:<28} {_fmt(value):>12} {unit}  per set-up")
        path = OUT / f"spans-{args.workload}-s{args.seed}.csv.gz"
        tracer.write(path)
        print(f"# {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
        wanted = spec["per_layer"]

    metrics = {}
    for entry in wanted:
        value, unit = report.get(entry["name"], (None, entry["unit"]))
        if isinstance(value, (int, float)):
            metrics[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": True, "attempted": m["attempted"],
                      "failed": m["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
