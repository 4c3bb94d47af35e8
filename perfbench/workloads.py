"""The four workloads: set-up, one op, and the checks on each op's output.

Every op's output is reduced to a text (``format_trace`` or the sweep CSV).
The runner requires the text of one input to be the same on every repeat,
plain or traced, so a change in results shows as a failed check.  The
reasons for each workload are in README.md next to this file.
"""

from __future__ import annotations

import csv
import io
import os
import pickle
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import qgreedy
import qgreedy.angles
import qgreedy.bench
import qgreedy.graph
import qgreedy.solver
from qgreedy.bench import ExperimentPlan
from qgreedy.engines import ExpectationCache
from qgreedy.errors import QGreedyError
from qgreedy.graph import is_independent
from qgreedy.solver import SolverConfig, format_trace

from speed import probed, timed
from tracing import Tracer


class CheckFailed(Exception):
    """An op returned a wrong or changed result."""


@dataclass
class Outcome:
    seconds: float  # wall time
    scaled: float  # wall time scaled to the reference speed (speed.py)
    text: str  # the op's output, compared across repeats of one input
    ratio: float  # set size / N, or the sweep's mean of mean_r
    failed: int  # units that raised QGreedyError (0 when text is set)


def derive(*entropy) -> int:
    """Independent seed for one input, from the run's seed and a tag."""
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def check_maximal_independent(g, trace) -> None:
    chosen = frozenset(trace.order)
    if len(chosen) != len(trace.order):
        raise CheckFailed("a node was chosen twice")
    if not is_independent(g, chosen):  # a frozenset, see ROADMAP item 4
        raise CheckFailed("chosen set is not independent")
    for v in g.alive_nodes():
        if v not in chosen and not any(u in chosen for u in g.neighbors_alive(v)):
            raise CheckFailed(f"set is not maximal: node {v} could be added")


class SolvePool:
    """Ops are solves over a pool of graphs made in set-up.

    ``solve(item)`` returns a SolveTrace; ``graph(item)`` the input graph.
    """

    units_per_op = 1
    timer = staticmethod(timed)

    def graph(self, item):
        return item[0]

    def reference(self, item):
        """The text every op on this input must return; None: its first."""
        return None

    def run(self, item, tracer: Tracer | None, op) -> Outcome:
        try:
            with tracer.active(op) if tracer else nullcontext():
                trace, wall, scaled = self.timer(self.solve, item)
        except QGreedyError:
            return Outcome(0.0, 0.0, "", 0.0, 1)
        check_maximal_independent(self.graph(item), trace)
        return Outcome(wall, scaled, format_trace(trace), trace.ratio, 0)


class ColdP3(SolvePool):
    """p=3 solves, each with a fresh ExpectationCache, of small graphs."""

    name = "cold-p3"
    N, POOL = 14, 200

    def setup(self, seed):
        schedule = qgreedy.angles.load_default_angles(3).schedule
        return [
            (
                qgreedy.graph.generate_regular(self.N, 3, derive(seed, 1, i)),
                SolverConfig(schedule=schedule, seed=derive(seed, 2, i)),
            )
            for i in range(self.POOL)
        ]

    def solve(self, item):
        g, cfg = item
        cache = ExpectationCache(cfg.schedule)
        return qgreedy.solver.solve_quantum_greedy(g, cfg, cache)


class WarmP2(SolvePool):
    """p=2 re-solves of one large graph through a cache filled in set-up."""

    name = "warm-p2"
    N = 10000
    timer = staticmethod(probed)  # ops of seconds; see speed.py

    def setup(self, seed):
        schedule = qgreedy.angles.load_default_angles(2).schedule
        g = qgreedy.graph.generate_regular(self.N, 3, derive(seed, 1))
        cfg = SolverConfig(schedule=schedule, delta=0.0, seed=derive(seed, 2))
        cache = ExpectationCache(schedule)
        fill = qgreedy.solver.solve_quantum_greedy(g, cfg, cache)
        return [(g, cfg, cache, format_trace(fill))]

    def solve(self, item):
        g, cfg, cache, _ = item
        return qgreedy.solver.solve_quantum_greedy(g, cfg, cache)

    def reference(self, item):
        # every warm op must reproduce the fill solve byte for byte
        return item[3]


class Classical(SolvePool):
    """Classical min-degree greedy over a pool of mid-size graphs."""

    name = "classical"
    N, POOL = 2000, 100

    def setup(self, seed):
        return [
            (
                qgreedy.graph.generate_regular(self.N, 3, derive(seed, 1, i)),
                derive(seed, 2, i),
            )
            for i in range(self.POOL)
        ]

    def solve(self, item):
        g, solver_seed = item
        return qgreedy.solver.solve_classical_greedy(g, seed=solver_seed)


# -- sweep -------------------------------------------------------------------

SWEEP_PLAN = dict(
    sizes=(500, 2000),
    instances=2,
    solvers=("greedy", "qgreedy"),
    depths=(1, 2),
    advice="shots",
    shots=991,
    workers=1,
    stamp=False,
)


def _sweep_child(plan_fields: dict, out_dir: str, op) -> dict:
    """One run_plan call in a fresh process, with a fresh out path.

    A fresh process starts with bench's module-level cache empty, and a
    fresh path has no .partial file to resume from, so every op does the
    whole sweep.  ``op`` is None for a plain run, else the span op id.
    """
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        plan = ExperimentPlan(out=os.path.join(tmp, "sweep.csv"), **plan_fields)
        tracer = None if op is None else Tracer()
        result = {"failed": False}
        try:
            with tracer.active(op) if tracer else nullcontext():
                _, wall, scaled = probed(qgreedy.bench.run_plan, plan)
        except QGreedyError:
            result["failed"] = True
            return result
        result["wall"], result["scaled"] = wall, scaled
        with open(plan.out) as fh:
            result["csv"] = fh.read()
        if tracer is not None:
            partial = os.path.getsize(plan.out + ".partial")
            tracer.counters["ops"]["partial_bytes"] += partial
            result["trace"] = (tracer.spans, tracer.counters, sorted(tracer.absent))
    return result


def check_sweep_csv(text: str, plan_fields: dict) -> float:
    """Every (size, solver, depth) row present once with all instances."""
    rows = list(csv.DictReader(io.StringIO(text)))
    expected = {
        (size, solver, depth)
        for size in plan_fields["sizes"]
        for solver in plan_fields["solvers"]
        for depth in (plan_fields["depths"] if solver == "qgreedy" else (0,))
    }
    got = [(int(r["size"]), r["solver"], int(r["depth"])) for r in rows]
    if sorted(got) != sorted(expected):
        raise CheckFailed(f"sweep rows {sorted(got)} != {sorted(expected)}")
    for r in rows:
        if int(r["instances"]) != plan_fields["instances"]:
            raise CheckFailed(f"row {r} lacks instances")
        if not 0.0 < float(r["mean_r"]) <= 0.5:
            raise CheckFailed(f"row {r} has an impossible mean ratio")
    return float(np.mean([float(r["mean_r"]) for r in rows]))


class SweepShots:
    """One op is one bench.run_plan call on a small shot-advice plan."""

    name = "sweep-shots"

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.units_per_op = (
            len(SWEEP_PLAN["sizes"])
            * SWEEP_PLAN["instances"]
            * (len(SWEEP_PLAN["depths"]) + 1)
        )

    def setup(self, seed):
        # schedules are loaded inside run_plan; set-up only fixes the plan
        return [dict(SWEEP_PLAN, seed=seed)]

    def reference(self, item):
        return None

    def run(self, item, tracer: Tracer | None, op) -> Outcome:
        args = (item, self.out_dir, None if tracer is None else op)
        src = os.path.dirname(os.path.dirname(qgreedy.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, __file__], input=pickle.dumps(args),
                              stdout=subprocess.PIPE, env=env, check=True)
        result = pickle.loads(done.stdout)  # written by _sweep_child below
        if result["failed"]:
            return Outcome(0.0, 0.0, "", 0.0, self.units_per_op)
        if tracer is not None:
            tracer.merge(*result["trace"])
        ratio = check_sweep_csv(result["csv"], item)
        return Outcome(result["wall"], result["scaled"], result["csv"], ratio, 0)


def make(name: str, out_dir: str):
    if name == "sweep-shots":
        return SweepShots(out_dir)
    return {"cold-p3": ColdP3, "warm-p2": WarmP2, "classical": Classical}[name]()


if __name__ == "__main__":
    # one sweep op, run by SweepShots.run in a fresh interpreter
    args = pickle.loads(sys.stdin.buffer.read())
    sys.stdout.buffer.write(pickle.dumps(_sweep_child(*args)))
