"""Greedy MIS solvers: expectation-steered, classical min-degree, and exact.

The quantum-enhanced loop repeatedly evaluates <Z_i> on the depth-p cone of
every live vertex, picks the maximum (values within delta of the max count
as tied), adds the winner to the set, and deletes its closed neighborhood.
Deleting a neighborhood only disturbs cones within distance p+1 of the pick,
so later passes recompute just that neighborhood; everything else keeps its
cached value.  The construction never adds two adjacent vertices, so the
output is an independent set no matter how wrong the advice values are.

Selection reads an index instead of scanning every live value: a bucket of
live nodes per distinct advice value, plus those values in ascending order
(kept with bisect).  A step walks down from the top value while values stay
within delta of it and sorts the union of those buckets, so a step costs
its recomputed cones and the tie window, not the graph size.  Advice takes
few distinct values (one per cone class, or per shot outcome), so the
walk is short.

Tie-breaking draws exactly one random index per step in both the quantum
and classical solvers.  With matched seeds and optimized p=1 angles the two
therefore produce identical selection sequences, since at p=1 the argmax
candidates are exactly the minimum-degree vertices.

Trace equality between solvers means equal selection sequences and removal
counts; the recorded per-step value is solver-specific (an expectation for
the quantum loop, the chosen vertex degree for the classical one, which
records cone key "-").
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field

import numpy as np

from .circuits import AngleSchedule
from .cones import extract_lightcone, key_digest
from .engines import ExpectationCache, evaluate_cone, sample_shots
from .errors import NodeLimitExceeded
from .graph import Graph, is_independent
from .noise import NoiseParams, NoiseRealization, apply_noise

_DEAD_DEGREE = 1 << 30


@dataclass(frozen=True)
class TraceStep:
    step: int
    node: int
    value: float
    key_hex: str
    removed: int


@dataclass
class SolveTrace:
    n: int
    steps: list[TraceStep] = field(default_factory=list)

    @property
    def order(self) -> list[int]:
        return [s.node for s in self.steps]

    @property
    def chosen(self) -> frozenset:
        return frozenset(s.node for s in self.steps)

    @property
    def set_size(self) -> int:
        return len(self.steps)

    @property
    def ratio(self) -> float:
        return len(self.steps) / self.n


@dataclass(frozen=True)
class SolverConfig:
    schedule: AngleSchedule
    delta: float | None = 0.0  # None = auto (0 ideal, delta_cutoff otherwise)
    advice: str = "ideal"  # ideal | shots | noise
    shots: int = 0
    noise: NoiseParams | None = None
    seed: int = 0
    tie_break: str = "random"  # random | lowest
    full_recompute: bool = False
    include_isolated: bool = False  # opt-in fast path, off for reported numbers

    def __post_init__(self):
        if self.advice not in ("ideal", "shots", "noise"):
            raise ValueError(f"unknown advice source {self.advice!r}")
        if self.advice == "shots" and self.shots < 1:
            raise ValueError("shot advice needs shots >= 1")
        if self.advice == "noise" and self.noise is None:
            raise ValueError("noise advice needs NoiseParams")
        if self.delta is not None and not self.delta >= 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if self.tie_break not in ("random", "lowest"):
            raise ValueError(f"unknown tie break {self.tie_break!r}")

    @property
    def depth(self) -> int:
        return self.schedule.depth


def resolve_delta(cfg: SolverConfig) -> float:
    if cfg.delta is not None:
        return cfg.delta
    if cfg.advice == "ideal":
        return 0.0
    from .angles import delta_cutoff

    return delta_cutoff(cfg.schedule)


def _make_advice(cfg: SolverConfig):
    """Map (node, record, key) to the value the argmax actually sees.

    Shot draws are seeded per (node, cone key): a value that is not
    recomputed (its cone was untouched) equals what a recomputation would
    have produced, which is what makes incremental and full recomputation
    agree even with finite shots.  Noise offsets are seeded per cone key
    alone, so isomorphic cones share an offset.
    """
    if cfg.advice == "ideal":
        return lambda node, record, key: record.value
    if cfg.advice == "shots":
        def shot_advice(node, record, key):
            ideal = min(1.0, max(-1.0, record.value))
            rng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, node, key_digest(key.data)])
            )
            return sample_shots(ideal, cfg.shots, rng)

        return shot_advice
    realization = NoiseRealization(cfg.noise)

    def noisy_advice(node, record, key):
        ideal = min(1.0, max(-1.0, record.value))
        return apply_noise(
            ideal, record.cone_size, cfg.noise, realization.offset(key.data)
        )

    return noisy_advice


def solve_quantum_greedy(
    g: Graph, cfg: SolverConfig, cache: ExpectationCache | None = None
) -> SolveTrace:
    if g.alive_count == 0:
        raise ValueError("graph has no alive nodes")
    if cache is None:
        cache = ExpectationCache(cfg.schedule)
    work = g.copy()
    depth = cfg.depth
    delta = resolve_delta(cfg)
    advice = _make_advice(cfg)
    rng = np.random.default_rng(cfg.seed)
    trace = SolveTrace(n=work.alive_count)

    values: dict[int, float] = {}
    keys: dict[int, str] = {}
    # selection index: advice value -> live nodes holding it, and the
    # distinct values in ascending order
    buckets: dict[float, set[int]] = {}
    levels: list[float] = []

    def forget(i: int) -> None:
        v = values.pop(i)
        bucket = buckets[v]
        bucket.remove(i)
        if not bucket:
            del buckets[v]
            del levels[bisect_left(levels, v)]

    pending = work.alive_nodes()
    step = 0
    while work.alive_count:
        for i in pending:
            cone = extract_lightcone(work, i, depth)
            record, key = evaluate_cone(cone, cfg.schedule, cache)
            if i in values:
                forget(i)
            v = values[i] = advice(i, record, key)
            keys[i] = key.data.hex()
            bucket = buckets.get(v)
            if bucket is None:
                bucket = buckets[v] = set()
                insort(levels, v)
            bucket.add(i)
        candidates = None
        if cfg.include_isolated:
            isolated = sorted(i for i in values if work.degree(i) == 0)
            if isolated:
                candidates = isolated
        if candidates is None:
            floor = levels[-1] - delta
            tied: list[int] = []
            for v in reversed(levels):
                if v < floor:
                    break
                tied.extend(buckets[v])
            candidates = sorted(tied)
        if cfg.tie_break == "lowest":
            pick = candidates[0]
        else:
            pick = candidates[int(rng.integers(len(candidates)))]
        # neighborhood whose cones the deletion can touch, taken pre-deletion
        affected = [node for node, _ in work.ball(pick, depth + 1)]
        chosen_value, chosen_key = values[pick], keys[pick]
        removed = work.remove_closed_neighborhood(pick)
        for r in removed:
            forget(r)
            del keys[r]
        trace.steps.append(
            TraceStep(step, pick, chosen_value, chosen_key, len(removed))
        )
        step += 1
        if cfg.full_recompute:
            pending = work.alive_nodes()
        else:
            pending = [x for x in affected if work.alive[x]]
    return trace


def solve_classical_greedy(
    g: Graph, seed: int = 0, tie_break: str = "random"
) -> SolveTrace:
    """Repeatedly pick uniformly among minimum-degree vertices."""
    if g.alive_count == 0:
        raise ValueError("graph has no alive nodes")
    if tie_break not in ("random", "lowest"):
        raise ValueError(f"unknown tie break {tie_break!r}")
    work = g.copy()
    rng = np.random.default_rng(seed)
    trace = SolveTrace(n=work.alive_count)
    degs = np.full(work.n, _DEAD_DEGREE, dtype=np.int64)
    for i in work.alive_nodes():
        degs[i] = work.degree(i)
    step = 0
    while work.alive_count:
        dmin = int(degs.min())
        candidates = np.flatnonzero(degs == dmin)  # ascending ids
        if tie_break == "lowest":
            pick = int(candidates[0])
        else:
            pick = int(candidates[int(rng.integers(candidates.size))])
        removed = work.remove_closed_neighborhood(pick)
        degs[removed] = _DEAD_DEGREE
        for r in removed:
            for x in work.adj[r]:
                if work.alive[x]:
                    degs[x] = work.degree(x)
        trace.steps.append(TraceStep(step, pick, float(dmin), "-", len(removed)))
        step += 1
    return trace


def worst_case_bound(d: int) -> float:
    """Greedy's worst-case approximation ratio 3/(d+2) on degree-d graphs."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return 3.0 / (d + 2.0)


def _reachable(seed: int, nodes: frozenset, adj) -> frozenset:
    seen = {seed}
    stack = [seed]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w in nodes and w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def _mis(nodes: frozenset, adj, need: int):
    """Largest independent set within `nodes` if one of size > need exists,
    else None.  Branch and bound: include any vertex of degree <= 1 outright,
    split components, branch on a maximum-degree vertex, prune by the
    remaining-vertex count."""
    if len(nodes) <= need:
        return None
    if not nodes:
        return []
    order = sorted(nodes)
    for v in order:
        if len(adj[v] & nodes) <= 1:
            sub = _mis(nodes - ({v} | adj[v]), adj, need - 1)
            return None if sub is None else [v] + sub
    comp = _reachable(order[0], nodes, adj)
    if len(comp) < len(nodes):
        first = _mis(comp, adj, -1)
        rest = _mis(nodes - comp, adj, need - len(first))
        return None if rest is None else first + rest
    w = max(order, key=lambda v: len(adj[v] & nodes))
    incl = _mis(nodes - ({w} | adj[w]), adj, need - 1)
    best = None if incl is None else [w] + incl
    floor = need if best is None else len(best)
    excl = _mis(nodes - {w}, adj, floor)
    return excl if excl is not None else best


def solve_exact(g: Graph, node_limit: int = 40) -> set:
    """A maximum independent set of the alive subgraph, by branch and bound."""
    nodes = g.alive_nodes()
    if len(nodes) > node_limit:
        raise NodeLimitExceeded(len(nodes), node_limit)
    adj = {v: frozenset(g.neighbors_alive(v)) for v in nodes}
    result = _mis(frozenset(nodes), adj, -1)
    assert is_independent(g, result)
    return set(result)


# -- trace text round trip ---------------------------------------------------


def format_trace(trace: SolveTrace) -> str:
    lines = [
        f"{s.step} {s.node} {s.value:.17g} {s.key_hex}" for s in trace.steps
    ]
    lines.append(f"set_size {trace.set_size} ratio {trace.ratio:.17g}")
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> dict:
    order, values, keys = [], [], []
    set_size = ratio = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "set_size":
            if len(parts) != 4 or parts[2] != "ratio":
                raise ValueError(f"malformed trace footer: {line!r}")
            set_size, ratio = int(parts[1]), float(parts[3])
        else:
            if len(parts) != 4:
                raise ValueError(f"malformed trace line: {line!r}")
            order.append(int(parts[1]))
            values.append(float(parts[2]))
            keys.append(parts[3])
    if set_size is None or set_size != len(order):
        raise ValueError("trace footer missing or inconsistent")
    return {
        "order": order,
        "values": values,
        "keys": keys,
        "set_size": set_size,
        "ratio": ratio,
    }
