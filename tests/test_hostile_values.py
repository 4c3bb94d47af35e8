"""Hostile values at every entry point: each numeric flag of each ``qgreedy``
subcommand and of the four scripts, given NaN, infinities, negatives, zero,
an empty string, a word, a subnormal and, where the run stays tiny, 2**64.
Every run exits 0, 1 or 2 without a traceback, and a failed run's last
stderr line is its ``error:`` line.  The runs are in-process, through each
``main(argv)``, at tiny sizes; values that ask for large work or memory (a
huge ``--n``, ``--degree``, ``--depth``, ``--instances``, ``--eta-steps``,
``--restarts``, ``--max-depth`` or ``--workers``) are left out."""

import pytest

import qgreedy.cli
from helpers import (
    load_bench_pairs,
    load_gen_default_angles,
    load_noise_sweep,
    load_run_bench,
)

VALUES = ["nan", "inf", "-inf", "-1", "0", "", "x", "1e-320"]
BIG = str(2**64)
TINY_PLAN = ("sizes = 10\ninstances = 1\nsolvers = greedy\nworkers = 1\n"
             "stamp = false\nout = {tmp}/bench.csv\n")

# entry point -> (the argv of a tiny run, its numeric flags); a flag in a
# tuple also takes 2**64.  {tmp} stands for the test's own directory.
SOLVE = ["solve", "--n", "10", "--depth", "1"]
NOISE = [*SOLVE, "--advice", "noise"]
CASES = {
    "qgreedy": [
        (["generate", "--n", "10"], ["--n", "--degree", ("--seed",)]),
        (["angles", "--depth", "1", "--restarts", "1", "--out", "{tmp}/a.txt"],
         ["--depth", "--degree", ("--lambda",), "--restarts", ("--seed",)]),
        (SOLVE, ["--n", "--depth", "--degree", ("--seed",), ("--lambda",),
                 ("--delta",)]),
        ([*SOLVE, "--advice", "shots"], [("--shots",)]),
        (NOISE, ["--eta", ("--alpha",), ("--sigma",), ("--noise-seed",)]),
        (["solve", "--n", "10", "--solver", "exact"], [("--node-limit",)]),
        (["census"], [("--depth",)]),
        (["shots", "--n", "10", "--eps", "0.05", "--gap", "0.5"],
         [("--n",), ("--eps",), ("--gap",)]),
    ],
    "gen_default_angles": [
        (["--max-depth", "1", "--out-dir", "{tmp}"],
         ["--max-depth", "--degree", ("--lambda",), ("--seed",)]),
    ],
    "noise_sweep": [
        (["--n", "10", "--depth", "1", "--instances", "1", "--eta-steps", "1"],
         ["--n", "--depth", "--instances", ("--eta-max",), "--eta-steps",
          ("--alpha",), ("--sigma",), ("--seed",)]),
    ],
    "run_bench": [
        (["--plan", "{tmp}/tiny.plan"], ["--workers"]),
    ],
    # an unknown workload ends the run before perfbench starts
    "bench_pairs": [
        (["--workload", "nosuch", "--base", "HEAD", "--pairs", "1",
          "--seconds", "1", "--seed", "1", "--label", "hostile"],
         [("--pairs",), ("--seconds",), ("--seed",)]),
    ],
}
MAINS = {
    "qgreedy": qgreedy.cli.main,
    "gen_default_angles": load_gen_default_angles().main,
    "noise_sweep": load_noise_sweep().main,
    "run_bench": load_run_bench().main,
    "bench_pairs": load_bench_pairs().main,
}


def _runs():
    for entry, tiny in CASES.items():
        for argv, flags in tiny:
            for flag in flags:
                big = isinstance(flag, tuple)
                flag = flag[0] if big else flag
                for value in VALUES + [BIG] * big:
                    command = [a for a in argv[:1] if a[0] != "-"]
                    name = "-".join([entry, *command, flag.lstrip("-"),
                                     value or "empty"])
                    yield pytest.param(entry, argv, flag, value, id=name)


@pytest.mark.parametrize("entry, argv, flag, value", _runs())
def test_hostile_value_exits_cleanly(tmp_path, monkeypatch, capsys, entry,
                                     argv, flag, value):
    monkeypatch.chdir(tmp_path)  # a run that writes, writes here
    (tmp_path / "tiny.plan").write_text(TINY_PLAN.format(tmp=tmp_path))
    argv = [a.format(tmp=tmp_path) for a in argv] + [f"{flag}={value}"]
    try:
        code = MAINS[entry](argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code:
        assert err.splitlines()[-1].startswith("error:"), err
