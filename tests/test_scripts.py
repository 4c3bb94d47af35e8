"""Smoke tests for the experiment scripts: each runs as a subprocess on a
tiny input, exits 0 and prints its expected lines."""

import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from helpers import ROOT, load_bench_pairs, load_noise_sweep

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *args: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "Warning" not in done.stderr, done.stderr
    return done.stdout.splitlines()


def test_noise_sweep():
    lines = run_script("noise_sweep.py", "--n", "20", "--depth", "1",
                       "--instances", "2", "--eta-steps", "2")
    assert lines[0] == "N=20 depth=1 instances=2"
    assert len(lines) == 3
    for line, eta in zip(lines[1:], ("0.000", "0.100")):
        assert re.fullmatch(rf"eta {eta}  mean_r 0\.\d{{5}}  sem \d\.\d{{5}}",
                            line), line
    # one instance has no spread: sem 0, as bench reports it
    lines = run_script("noise_sweep.py", "--n", "20", "--depth", "1",
                       "--instances", "1", "--eta-steps", "1")
    assert re.fullmatch(r"eta 0\.000  mean_r 0\.\d{5}  sem 0\.00000", lines[1]), lines


def test_noise_sweep_reseeds_every_cell(monkeypatch):
    # the seed was 1000 * k + i, so cells (0, 1000) and (1, 0) shared one
    sweep = load_noise_sweep()
    seeds = []

    def solve(g, cfg, cache):
        seeds.append(cfg.noise.seed)
        return SimpleNamespace(ratio=0.5)

    monkeypatch.setattr(sweep, "solve_quantum_greedy", solve)
    monkeypatch.setattr(sys, "argv", [
        "noise_sweep.py", "--n", "4", "--depth", "1", "--instances", "1001",
        "--eta-steps", "2", "--sigma", "0.1",
    ])
    assert sweep.main() == 0
    assert len(seeds) == 2002
    assert len(set(seeds)) == 2002


def run_failing(name: str, *args: str) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=300,
    )
    assert "Traceback" not in done.stderr, done.stderr
    return done


def test_noise_sweep_negative_seed_is_a_usage_error():
    done = run_failing("noise_sweep.py", "--seed", "-1")
    assert done.returncode == 1, done.stderr
    assert "error: argument --seed: must be an integer >= 0" in done.stderr


@pytest.mark.parametrize("flag", ["--instances", "--eta-steps", "--depth", "--n"])
def test_noise_sweep_empty_grid_is_a_usage_error(flag):
    # no instance, grid point, circuit layer or graph node: nothing to run
    done = run_failing("noise_sweep.py", flag, "0")
    assert done.returncode == 1, done.stderr
    assert f"error: argument {flag}: must be an integer >= 1" in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("args, why", [
    (("--n", "21"), "n*d must be even"),
    (("--eta-max", "2"), "eta must lie in [0, 1)"),
])
def test_noise_sweep_bad_run_is_a_runtime_error(args, why):
    done = run_failing("noise_sweep.py", "--depth", "1", *args)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and why in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("value", ["x", "0"])
def test_run_bench_bad_workers_is_a_usage_error(value):
    done = run_failing("run_bench.py", "--workers", value)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("usage: ")
    assert "error: argument --workers:" in done.stderr


@pytest.mark.parametrize("args, why", [
    (("--degree", "x"), "argument --degree: invalid nonnegative value: 'x'"),
    (("--max-depth", "0"), "argument --max-depth: must be an integer >= 1"),
    (("--seed", "-1"), "argument --seed: must be an integer >= 0"),
    (("--lambda", "nan"), "argument --lambda: must be a finite number >= 1"),
    # this wrote p1_d-2_lam1.txt
    (("--max-depth", "1", "--degree", "-2"),
     "argument --degree: must be an integer >= 0"),
], ids=["degree", "max-depth", "seed", "lambda", "negative-degree"])
def test_gen_default_angles_bad_flag_is_a_usage_error(tmp_path, args, why):
    # parsing fails before the optimizer runs or any file is written
    done = run_failing("gen_default_angles.py", "--out-dir", str(tmp_path),
                       *args)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("usage: ")
    assert f"error: {why}" in done.stderr
    assert done.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_run_bench_missing_plan_is_a_runtime_error(tmp_path):
    missing = str(tmp_path / "missing.plan")
    done = run_failing("run_bench.py", "--plan", missing)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and "missing.plan" in done.stderr


def test_run_bench(tmp_path):
    out = tmp_path / "bench.csv"
    plan = tmp_path / "tiny.plan"
    plan.write_text(
        "sizes = 20\ninstances = 2\nsolvers = greedy qgreedy\n"
        f"depths = 1 2\nadvice = ideal\nworkers = 1\nout = {out}\n"
    )
    lines = run_script("run_bench.py", "--plan", str(plan))
    rows = [line.split() for line in lines if line.startswith("size ")]
    assert [(r[1], r[2], r[4]) for r in rows] == [
        ("20", "greedy", "0"), ("20", "qgreedy", "1"), ("20", "qgreedy", "2"),
    ]
    # at p=1 the steered loop picks exactly the min-degree vertices
    assert rows[0][6] == rows[1][6]
    assert any(line.startswith("depth trend at N=20:") for line in lines)
    assert lines[-1] == f"wrote {out}"
    assert out.exists()


BENCH_ARGS = {"--workload": "classical", "--base": "HEAD", "--pairs": "1",
              "--seconds": "1", "--seed": "1", "--label": "usage-check"}


@pytest.mark.parametrize("flag, value, why", [
    ("--workload", "nope", "--workload must be one of cold-p3, warm-p2"),
    ("--base", "no-such-revision", "--base: git knows no commit"),
    ("--pairs", "0", "argument --pairs: must be an integer >= 1"),
    ("--seconds", "nan", "argument --seconds: invalid seconds value"),
    ("--seconds", "0", "argument --seconds: invalid seconds value"),
    ("--seed", "-1", "argument --seed: must be an integer >= 0"),
    ("--label", "a/b", "argument --label: invalid label value"),
    ("--label", None, "the following arguments are required: --label"),
])
def test_bench_pairs_bad_flag_is_a_usage_error(flag, value, why):
    # refused before any revision is extracted or perfbench runs
    args = dict(BENCH_ARGS, **{flag: value})
    argv = [a for k, v in args.items() if v is not None for a in (k, v)]
    done = run_failing("bench_pairs.py", *argv)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("usage: ")
    assert f"error: {why}" in done.stderr
    assert done.stdout == ""
    assert not list(ROOT.glob("BENCH_usage-check-*.json"))


def _perfbench_stdout(op_s, rss, correct=True):
    """What perfbench/run.py prints: comment and metric lines, then JSON."""
    final = {"correct": correct, "attempted": 300, "failed": 0, "metrics": {
        "op_s": {"value": op_s, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }}
    return ("# workload classical seed 1 seconds 5 trace 0\n"
            f"op_s {op_s} s the solve_s below\n\n{json.dumps(final)}\n")


def test_bench_pairs_summarizes_final_lines():
    bench_pairs = load_bench_pairs()
    runs = [bench_pairs.final_line(_perfbench_stdout(op_s, rss))
            for op_s, rss in ((0.0190, 119.0), (0.0160, 121.0), (0.0170, 118.0))]
    assert runs[1]["metrics"]["op_s"] == {"value": 0.0160, "unit": "s"}
    assert bench_pairs.summarize(runs) == {"op_s": 0.0170, "peak_rss_mb": 119.0}
    # an even count takes the mean of the middle two
    assert bench_pairs.summarize(runs[:2]) == {"op_s": 0.0175,
                                               "peak_rss_mb": 120.0}


@pytest.mark.parametrize("stdout", [
    "",
    "# workload classical seed 1 seconds 5 trace 0\nop_s 0.0186 s\n",
    _perfbench_stdout(0.0186, 119.0, correct=False),
], ids=["empty", "no-json", "failed-check"])
def test_bench_pairs_refuses_a_failed_run(stdout):
    bench_pairs = load_bench_pairs()
    with pytest.raises(bench_pairs.RunFailed):
        bench_pairs.final_line(stdout)


def _final(**values):
    """A perfbench final line reporting ``values``."""
    return {"correct": True,
            "metrics": {name: {"value": v} for name, v in values.items()}}


def test_bench_pairs_compares_each_end_to_end_metric():
    # synthetic runs, no perfbench: op_s is better lower and mean_ratio
    # higher; setup_s is reported by no run and gets no entry
    bench_pairs = load_bench_pairs()
    end_to_end = [
        {"name": "op_s", "better": "lower", "bound": 0.25},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
        {"name": "mean_ratio", "better": "higher", "bound": 0.03},
    ]
    base_op = [1.0 + k / 10 for k in range(10)]
    change_op = [b - 0.5 for b in base_op[:9]] + [base_op[9]]  # last tied
    change_r = [0.41] * 9 + [0.39]  # the last pair lost
    base = [_final(op_s=b, mean_ratio=0.40) for b in base_op]
    change = [_final(op_s=c, mean_ratio=r) for c, r in zip(change_op, change_r)]
    got = bench_pairs.compare(base, change, end_to_end)
    assert sorted(got) == ["mean_ratio", "op_s"]
    op, ratio = got["op_s"], got["mean_ratio"]
    assert (op["pairs"], op["won"], op["ties"]) == (10, 9, 1)
    assert (ratio["pairs"], ratio["won"], ratio["ties"]) == (10, 9, 0)
    assert op["base_median"] == pytest.approx(1.45)
    assert op["change_median"] == pytest.approx(0.95)
    assert op["base_iqr"] == pytest.approx(1.725 - 1.175)  # exclusive method
    assert op["relative_change"] == pytest.approx(-0.5 / 1.45)
    assert (op["better"], op["bound"]) == ("lower", 0.25)
    assert ratio["base_iqr"] == 0.0
    assert ratio["relative_change"] == pytest.approx(0.025)
    line = bench_pairs.comparison_line("op_s", op)
    assert line.startswith("op_s: change won 9/10 pairs (1 tied, lower is "
                           "better), median 1.45 -> 0.95 (-34.5%, bound 25%)")
    # one pair has no quartiles: its IQR reads 0
    one = bench_pairs.compare(base[:1], change[:1], end_to_end)
    assert one["op_s"]["base_iqr"] == 0.0 and one["op_s"]["won"] == 1
