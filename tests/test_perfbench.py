"""The names the traced benchmark rebinds must still exist, and the
benchmark runs.

``perfbench/tracing.py`` wraps library functions by module attribute, and a
name it cannot find turns its per-layer metrics into "absent".  These tests
load the tracer by path and only read it.  The smoke test runs
``perfbench/run.py`` as a subprocess; it may create the git-ignored
``perfbench/out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import qgreedy.solver
from helpers import complete, load_tracing, reference_ball
from qgreedy import engines
from qgreedy.angles import vertex_cone
from qgreedy.cones import extract_lightcone
from qgreedy.engines import ExpectationCache
from qgreedy.graph import generate_regular
from qgreedy.solver import SolverConfig


ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tracing():
    return load_tracing()


def test_every_target_resolves(tracing):
    targets = [(m, path) for m, path, _, _ in tracing.SPAN_TARGETS]
    targets.append(tracing.CACHE_TARGET)
    assert [t for t in targets if tracing._resolve(*t) is None] == []


def test_key_spans_read_the_cone(tracing, sched_p2):
    # the key span is named from canonical_key's first argument, a LightCone
    tracer = tracing.Tracer()
    cyclic = extract_lightcone(complete(4), 0, 2)
    with tracer.active(0):
        for cone in (cyclic, vertex_cone(2, 3)):
            engines.evaluate_cone(cone, ExpectationCache(sched_p2))
    names = [span[0] for span in tracer.spans]
    assert "cones.key_cyclic" in names and "cones.key_tree" in names


def test_traced_solve_reports_every_layer(tracing, sched_p2):
    tracer = tracing.Tracer()
    cfg = SolverConfig(schedule=sched_p2)
    with tracer.active(0):
        qgreedy.solver.solve_quantum_greedy(
            generate_regular(12, 3, 1), cfg, ExpectationCache(sched_p2)
        )
    assert tracer.absent == set()
    names = {span[0] for span in tracer.spans}
    assert {"solver.quantum", "engines.evaluate", "engines.contract"} <= names
    metrics = tracing.layer_metrics(tracer, "ops", 1)
    assert [n for n, (value, _) in metrics.items() if value == "absent"] == []


def test_traced_cold_solve_counts_each_miss_once(tracing, sched_p2):
    # a tree cone is evaluated from the key read off the graph: it is not
    # extracted, keyed again or looked up twice, so every miss fills one
    # cache entry
    cache = ExpectationCache(sched_p2)
    tracer = tracing.Tracer()
    with tracer.active(0):
        qgreedy.solver.solve_quantum_greedy(
            generate_regular(200, 3, 1), SolverConfig(schedule=sched_p2, seed=1),
            cache,
        )
    names = [span[0] for span in tracer.spans]
    assert tracer.counters["ops"]["cache_misses"] == len(cache) > 0
    assert "cones.key_tree" not in names and "cones.key_cyclic" in names


def test_traced_warm_resolve_counts_the_tree_path(tracing, sched_p2,
                                                  monkeypatch):
    # tree hits skip extraction but still read the cache, so a warm solve
    # counts one hit per score and extracts only nodes not yet known to
    # have a tree cone
    g = generate_regular(200, 3, 2)
    cfg = SolverConfig(schedule=sched_p2, seed=2)
    cache = ExpectationCache(sched_p2)
    fill = qgreedy.solver.solve_quantum_greedy(g, cfg, cache)
    extracted = []

    def extract(work, i, depth):
        cone = extract_lightcone(work, i, depth)
        extracted.append((i, cone.is_tree))
        return cone

    monkeypatch.setattr(qgreedy.solver, "extract_lightcone", extract)
    tracer = tracing.Tracer()
    with tracer.active(0):
        warm = qgreedy.solver.solve_quantum_greedy(g, cfg, cache)
    assert warm.steps == fill.steps
    # scores: every node once, then the alive part of each pick's ball
    work, scores = g.copy(), g.n
    for pick in warm.order:
        ball = reference_ball(work, pick, cfg.depth + 1)
        work.remove_closed_neighborhood(pick)
        scores += sum(1 for v, _ in ball if work.alive[v])
    counters = tracer.counters["ops"]
    assert counters["cache_hits"] == scores and counters["cache_misses"] == 0
    spans = [span for span in tracer.spans if span[0] == "cones.extract"]
    assert len(spans) == len(extracted) < scores
    known = set()
    for i, tree in extracted:
        assert i not in known
        if tree:
            known.add(i)


@pytest.mark.slow
@pytest.mark.parametrize(
    "workload", ["cold-p3", "warm-p2", "classical", "sweep-shots"]
)
def test_benchmark_smoke(workload):
    # the benchmark's result is the last stdout line: one JSON object with
    # every end-to-end metric that BENCHMARK.json names
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in declared["end_to_end"]:
        value = result["metrics"][metric["name"]]["value"]
        assert isinstance(value, (int, float)) and value == value, metric
