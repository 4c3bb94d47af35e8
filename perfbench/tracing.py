"""Per-layer spans for the traced run, recorded from outside the package.

The tracer rebinds the names that library call sites look up at call time:
module globals such as ``qgreedy.solver.evaluate_cone`` and methods such as
``Graph.ball``.  Each call then records a span (name, start, end, parent,
op id) in memory.  Nothing under ``src/`` changes, and a plain run installs
nothing, so tracing costs nothing when off.  A target that a later version
of the package no longer has is listed as absent, and the metrics that
depend on it are reported as absent instead of zero.
"""

from __future__ import annotations

import gzip
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from qgreedy.errors import ContractionBudgetExceeded


def _key_span(args):
    return "cones.key_tree" if args[0].is_tree else "cones.key_cyclic"


def _note_statevector(counters, args, result, exc):
    n = args[0].n_qubits
    counters["statevector_bytes"] += 16 << n  # complex128 amplitudes, computed
    counters["statevector_max_qubits"] = max(counters["statevector_max_qubits"], n)


def _note_contract(counters, args, result, exc):
    if isinstance(exc, ContractionBudgetExceeded):
        counters["contract_over_budget"] += 1


def _note_steps(kind):
    def note(counters, args, result, exc):
        if result is not None:
            counters[kind] += len(result.steps)

    return note


# (module, attribute path, span name or namer, counting hook)
SPAN_TARGETS = [
    ("qgreedy.graph", "generate_regular", "graph.generate", None),
    ("qgreedy.bench", "generate_regular", "graph.generate", None),
    ("qgreedy.graph", "Graph.remove_closed_neighborhood", "graph.remove", None),
    ("qgreedy.graph", "Graph.ball", "graph.ball", None),
    ("qgreedy.solver", "extract_lightcone", "cones.extract", None),
    ("qgreedy.engines", "canonical_key", _key_span, None),
    ("qgreedy.engines", "build_circuit", "circuits.build", None),
    ("qgreedy.solver", "evaluate_cone", "engines.evaluate", None),
    ("qgreedy.engines", "expectation_statevector", "engines.statevector",
     _note_statevector),
    ("qgreedy.engines", "expectation_contract", "engines.contract", _note_contract),
    ("qgreedy.engines", "expectation_p1_analytic", "engines.analytic", None),
    ("qgreedy.solver", "sample_shots", "engines.shots", None),
    ("qgreedy.solver", "solve_quantum_greedy", "solver.quantum",
     _note_steps("quantum_steps")),
    ("qgreedy.bench", "solve_quantum_greedy", "solver.quantum",
     _note_steps("quantum_steps")),
    ("qgreedy.solver", "solve_classical_greedy", "solver.classical",
     _note_steps("classical_steps")),
    ("qgreedy.bench", "solve_classical_greedy", "solver.classical",
     _note_steps("classical_steps")),
    ("qgreedy.angles", "delta_cutoff", "angles.delta_cutoff", None),
    ("qgreedy.angles", "load_default_angles", "angles.load", None),
    ("qgreedy.bench", "load_default_angles", "angles.load", None),
    ("qgreedy.bench", "run_plan", "bench.run_plan", None),
]
CACHE_TARGET = ("qgreedy.engines", "ExpectationCache.get")

KEY_SPANS = ("cones.key_tree", "cones.key_cyclic")


def scope_of(op) -> str:
    return "setup" if op == "setup" else "ops"


def _resolve(module: str, path: str):
    """(owner, attribute name, current value), or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    """Spans and counters of the traced ops of one process."""

    def __init__(self):
        self.spans: list = []
        # counters kept apart for set-up and for the ops, like the spans
        self.counters = {"setup": Counter(), "ops": Counter()}
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._op = None
        self._saved: list = []

    def _span(self, name, fn, note, counters):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, parent, self._op)
                if note is not None:
                    note(counters, args, result, exc)

        return traced

    @staticmethod
    def _cache_get(fn, counters):
        def counted(cache, key_data):
            record = fn(cache, key_data)
            counters["cache_misses" if record is None else "cache_hits"] += 1
            return record

        return counted

    @contextmanager
    def active(self, op):
        """Rebind every target for the duration of one op (or set-up)."""
        self._op = op
        counters = self.counters[scope_of(op)]
        found: dict[str, bool] = {}
        for module, path, name, note in SPAN_TARGETS:
            target = _resolve(module, path)
            for label in (KEY_SPANS if callable(name) else (name,)):
                found[label] = found.get(label, False) or target is not None
            if target is not None:
                owner, attr, fn = target
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._span(name, fn, note, counters))
        target = _resolve(*CACHE_TARGET)
        found["engines.cache"] = target is not None
        if target is not None:
            owner, attr, fn = target
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._cache_get(fn, counters))
        self.absent = {label for label, ok in found.items() if not ok}
        try:
            yield self
        finally:
            while self._saved:
                owner, attr, fn = self._saved.pop()
                setattr(owner, attr, fn)
            self._op = None

    def merge(self, spans, counters, absent) -> None:
        """Append the spans and counters a child process recorded."""
        offset = len(self.spans)
        for name, start, end, parent, op in spans:
            self.spans.append(
                (name, start, end, parent + offset if parent >= 0 else -1, op)
            )
        for scope, counts in counters.items():
            mine = self.counters[scope]
            for key, value in counts.items():
                if key == "statevector_max_qubits":
                    mine[key] = max(mine[key], value)
                else:
                    mine[key] += value
        self.absent |= set(absent)

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("op,id,parent,name,start_s,end_s\n")
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{op},{idx},{parent},{name},{start:.9f},{end:.9f}\n")


# -- per-layer metrics -------------------------------------------------------

def _layer_table():
    def total(*names):
        return lambda a: sum(a.total[n] for n in names)

    def calls(*names):
        return lambda a: sum(a.calls[n] for n in names)

    def self_time(*names):
        return lambda a: sum(a.self[n] for n in names)

    def counted(*keys):
        return lambda a: sum(a.counters[k] for k in keys)

    def ratio(num, den):
        return lambda a: num(a) / den(a) if den(a) else None

    hits, misses = counted("cache_hits"), counted("cache_misses")
    return [
        # name, unit, spans it needs, value, divided by the ops it covers
        ("graph.generate_s", "s", ("graph.generate",), total("graph.generate"), True),
        ("graph.remove_s", "s", ("graph.remove",), total("graph.remove"), True),
        ("graph.remove_calls", "count", ("graph.remove",), calls("graph.remove"), True),
        ("graph.ball_s", "s", ("graph.ball",), total("graph.ball"), True),
        ("graph.ball_calls", "count", ("graph.ball",), calls("graph.ball"), True),
        ("cones.extract_s", "s", ("cones.extract",), total("cones.extract"), True),
        ("cones.extract_calls", "count", ("cones.extract",),
         calls("cones.extract"), True),
        ("cones.key_tree_s", "s", KEY_SPANS, total("cones.key_tree"), True),
        ("cones.key_cyclic_s", "s", KEY_SPANS, total("cones.key_cyclic"), True),
        ("cones.key_calls", "count", KEY_SPANS, calls(*KEY_SPANS), True),
        ("circuits.build_s", "s", ("circuits.build",), total("circuits.build"), True),
        ("engines.evaluate_self_s", "s", ("engines.evaluate",),
         self_time("engines.evaluate"), True),
        ("engines.cache_hits", "count", ("engines.cache",), hits, True),
        ("engines.cache_misses", "count", ("engines.cache",), misses, True),
        ("engines.hit_ratio", "ratio", ("engines.cache",),
         ratio(hits, lambda a: hits(a) + misses(a)), False),
        ("engines.statevector_s", "s", ("engines.statevector",),
         total("engines.statevector"), True),
        ("engines.statevector_calls", "count", ("engines.statevector",),
         calls("engines.statevector"), True),
        ("engines.statevector_max_qubits", "qubits", ("engines.statevector",),
         counted("statevector_max_qubits"), False),
        ("engines.statevector_mb", "MB", ("engines.statevector",),
         lambda a: a.counters["statevector_bytes"] / 1e6, True),
        ("engines.contract_s", "s", ("engines.contract",),
         total("engines.contract"), True),
        ("engines.contract_calls", "count", ("engines.contract",),
         calls("engines.contract"), True),
        ("engines.contract_over_budget", "count", ("engines.contract",),
         counted("contract_over_budget"), True),
        ("engines.analytic_calls", "count", ("engines.analytic",),
         calls("engines.analytic"), True),
        ("engines.shots_s", "s", ("engines.shots",), total("engines.shots"), True),
        ("engines.shots_calls", "count", ("engines.shots",),
         calls("engines.shots"), True),
        ("solver.quantum_self_s", "s", ("solver.quantum",),
         self_time("solver.quantum"), True),
        ("solver.classical_self_s", "s", ("solver.classical",),
         self_time("solver.classical"), True),
        ("solver.self_s", "s", ("solver.quantum", "solver.classical"),
         self_time("solver.quantum", "solver.classical"), True),
        ("solver.steps", "count", ("solver.quantum", "solver.classical"),
         counted("quantum_steps", "classical_steps"), True),
        ("solver.evals_per_step", "ratio", ("cones.extract", "solver.quantum"),
         ratio(calls("cones.extract"), counted("quantum_steps")), False),
        ("angles.delta_cutoff_s", "s", ("angles.delta_cutoff",),
         total("angles.delta_cutoff"), True),
        ("angles.load_s", "s", ("angles.load",), total("angles.load"), True),
        ("bench.self_s", "s", ("bench.run_plan",), self_time("bench.run_plan"), True),
        ("bench.partial_bytes", "bytes", ("bench.run_plan",),
         counted("partial_bytes"), True),
    ]


LAYER_METRICS = _layer_table()


class _Aggregates:
    def __init__(self, spans, counters, scope):
        self.total: defaultdict = defaultdict(float)
        self.self: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters = counters
        covered = [0.0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent >= 0:
                covered[parent] += end - start
        # self time: duration minus the part its child spans cover
        for (name, start, end, _parent, op), inner in zip(spans, covered):
            if scope_of(op) == scope:
                self.total[name] += end - start
                self.self[name] += end - start - inner
                self.calls[name] += 1


def layer_metrics(tracer: Tracer, scope: str, runs: int) -> dict:
    """name -> (value, unit) per op, or per set-up for scope "setup".

    The value is "absent" where a target it needs is gone, and None where
    a ratio has no base.
    """
    agg = _Aggregates(tracer.spans, tracer.counters[scope], scope)
    out = {}
    for name, unit, needs, value, per_run in LAYER_METRICS:
        if any(n in tracer.absent for n in needs):
            out[name] = ("absent", unit)
            continue
        v = value(agg)
        if v is not None and per_run:
            v = v / runs
        out[name] = (v, unit)
    return out
