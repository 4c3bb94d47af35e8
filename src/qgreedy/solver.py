"""Greedy MIS solvers: expectation-steered, classical min-degree, and exact.

Both greedy solvers run one loop and differ only in how they score a live
vertex: the quantum-enhanced score is the advice value of <Z_i> on the
depth-p cone of i, the classical one is minus the degree of i (depth 1).
Each step picks the top score (scores within delta of it count as tied),
adds the winner to the set and deletes its closed neighborhood.  That
only disturbs scores within distance depth+1 of the pick, so the loop
rescores the live nodes within depth of a removed vertex, walking out
from them after the deletion.  These are exactly the live part of the
pick's depth+1 ball: a path of length at most depth+1 from the pick to a
survivor leaves the removed vertices at most depth steps before its end,
and every removed vertex is the pick or one of its neighbours.
The loop never adds two adjacent vertices, so the output is independent
no matter how wrong the scores are.

Selection reads an index, not every live score: an ascending list of live
nodes per distinct rank, and the ranks in ascending order.  The first pass
scores in ascending id order, so it appends to each list and sorts the
ranks once; a rescore moves a node between lists with bisect.  The
candidates are the lists of the ranks within delta of the top (the top
list as it stands when it is alone), so a step costs its rescored
vertices and the tie window, not the graph size.

Each score first asks ``tree_key`` for the node's key, read straight off
the alive graph, and takes the value from the cache's
:meth:`~qgreedy.engines.ExpectationCache.value`, which evaluates a missed
class on the cone its key describes.  Once a node's cone has been a tree
it stays one, so the node is flagged and later keyed by the walk that
checks nothing.  Only a cyclic cone (``tree_key`` gives None) is extracted
and keyed, by ``evaluate_cone``.  The cache's angle schedule is checked
once, before the first score; every value then comes from that cache.

Tie-breaking draws one random index per step over the candidates in
ascending id order, and none when there is one candidate (a draw over one
value would not move the generator either).  With matched seeds and
optimized p=1 angles the two greedy solvers therefore make identical
selections, since at p=1 the argmax candidates are exactly the
minimum-degree vertices.  The recorded per-step value is solver-specific:
an advice value for the quantum loop, the chosen degree (with cone key "-")
for the classical one.  Scores carry the cone key as bytes; only the
picked node's key is turned into hex, once per step, when the step is
recorded.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .circuits import AngleSchedule
from .cones import extract_lightcone, key_digest, key_size, tree_key
from .engines import MAX_SHOTS, ExpectationCache, evaluate_cone, sample_shots
from .errors import NodeLimitExceeded
from .graph import Graph, is_independent
from .noise import NoiseParams, apply_noise, noise_offset


class TraceStep(NamedTuple):
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
    def set_size(self) -> int:
        return len(self.steps)

    @property
    def ratio(self) -> float:
        return len(self.steps) / self.n


def check_advice(advice: str, shots: int, noise: NoiseParams | None) -> None:
    """Raise ValueError unless the advice source has what it reads."""
    if advice not in ("ideal", "shots", "noise"):
        raise ValueError(f"unknown advice source {advice!r}")
    if advice == "shots" and not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shot advice needs 1 <= shots <= MAX_SHOTS = {MAX_SHOTS}")
    if advice == "noise" and noise is None:
        raise ValueError("noise advice needs NoiseParams")


@dataclass(frozen=True)
class SolverConfig:
    schedule: AngleSchedule
    delta: float | None = None  # None = auto (0 ideal, delta_cutoff otherwise)
    advice: str = "ideal"  # ideal | shots | noise
    shots: int = 0
    noise: NoiseParams | None = None
    seed: int = 0

    def __post_init__(self):
        check_advice(self.advice, self.shots, self.noise)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0: {self.seed}")
        if self.delta is not None and not 0 <= self.delta < math.inf:
            raise ValueError(f"delta must be finite, >= 0: {self.delta}")

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
    """Map (node, ideal value, key bytes) to the value the argmax actually
    sees; None for ideal advice, which is the ideal value itself.

    Both sources draw from :func:`key_digest`, a keyed hash and so a
    counter-based random source (Salmon et al., "Parallel random numbers: as
    easy as 1, 2, 3", SC 2011) with no state between draws: a value that is
    not recomputed (its cone was untouched) equals what a recomputation
    would have produced, which is what makes incremental and full
    recomputation agree.  A shot draw hashes (seed, node, cone key),
    encoded as ``b"{seed}:{node}:" + key bytes`` (injective, since decimal
    digits hold no colon), and :func:`sample_shots` turns the word into a
    shot count by inverting the binomial CDF.  A noise offset is a function
    of (noise seed, cone key) alone, so isomorphic cones share an offset, and
    the noise's cone size is read off the key.
    """
    if cfg.advice == "ideal":
        return None
    if cfg.advice == "shots":
        prefix = b"%d:" % cfg.seed
        shots = cfg.shots

        def shot_advice(node, value, key):
            ideal = min(1.0, max(-1.0, value))
            return sample_shots(ideal, shots, key_digest(prefix + b"%d:" % node + key))

        return shot_advice
    noise = cfg.noise

    def noisy_advice(node, value, key):
        ideal = min(1.0, max(-1.0, value))
        return apply_noise(ideal, key_size(key), noise, noise_offset(noise, key))

    return noisy_advice


def _greedy(g: Graph, depth: int, score, delta: float, seed: int) -> SolveTrace:
    """The greedy loop.  ``score(work, i)`` gives (rank, value, key bytes)
    of live node i from the alive nodes within ``depth`` of it, with key
    None when there is no cone; the loop picks by rank and records value
    and key hex ("-" for None), converting only the picked node's key."""
    if g.alive_count == 0:
        raise ValueError("graph has no alive nodes")
    work = g.copy()
    alive = work.alive
    rng = np.random.default_rng(seed)
    trace = SolveTrace(n=work.alive_count)
    # (rank, value, key) by node id; a removed node's entry stays in place
    scored: list[tuple[float, float, bytes | None] | None] = [None] * work.n
    # selection index: rank -> live nodes holding it in ascending id order,
    # and the distinct ranks in ascending order
    buckets: dict[float, list[int]] = {}
    for i in work.alive_nodes():  # ascending ids: each list stays sorted
        scored[i] = result = score(work, i)
        buckets.setdefault(result[0], []).append(i)
    levels = sorted(buckets)
    while work.alive_count:
        lo = bisect_left(levels, levels[-1] - delta)  # first tied rank
        if lo == len(levels) - 1:
            candidates = buckets[levels[-1]]
        else:
            candidates = sorted(i for v in levels[lo:] for i in buckets[v])
        if len(candidates) == 1:
            pick = candidates[0]
        else:
            pick = candidates[int(rng.integers(len(candidates)))]
        _, value, key = scored[pick]
        removed = work.remove_closed_neighborhood(pick)
        # the live nodes whose scores the deletion can touch
        pending = work.ball(removed, depth)
        trace.steps.append(TraceStep(len(trace.steps), pick, value,
                                     "-" if key is None else key.hex(),
                                     len(removed)))
        # every removed and pending node is scored: take its old rank out,
        # and give a live one its new rank
        for i in removed + pending:
            rank = scored[i][0]
            bucket = buckets[rank]
            del bucket[bisect_left(bucket, i)]
            if not bucket:
                del buckets[rank]
                del levels[bisect_left(levels, rank)]
            if alive[i]:
                scored[i] = result = score(work, i)
                rank = result[0]
                bucket = buckets.get(rank)
                if bucket is None:
                    buckets[rank] = [i]
                    insort(levels, rank)
                else:
                    insort(bucket, i)
    return trace


def solve_quantum_greedy(
    g: Graph, cfg: SolverConfig, cache: ExpectationCache | None = None
) -> SolveTrace:
    schedule = cfg.schedule
    if cache is None:
        cache = ExpectationCache(schedule)
    cache.check_schedule(schedule)
    advice = _make_advice(cfg)
    depth = cfg.depth
    # one bytes object per key class, shared by the scores that hold it
    keys: dict[bytes, bytes] = {}
    # nodes whose cone was a tree; deletions never shorten a distance, so
    # a cone only loses causal edges and a tree stays a tree
    tree = bytearray(g.n)

    def score(work: Graph, i: int) -> tuple[float, float, bytes]:
        key = tree_key(work, i, depth, tree[i])
        if key is None:
            cone = extract_lightcone(work, i, depth)
            ideal, key = evaluate_cone(cone, cache)
        else:
            tree[i] = 1
            key = keys.setdefault(key, key)
            ideal = cache.value(key)
        value = ideal if advice is None else advice(i, ideal, key)
        return value, value, key

    return _greedy(g, depth, score, resolve_delta(cfg), cfg.seed)


def solve_classical_greedy(g: Graph, seed: int = 0) -> SolveTrace:
    """Repeatedly pick uniformly among minimum-degree vertices."""

    def score(work: Graph, i: int) -> tuple[int, float, None]:
        d = work._deg[i]
        return -d, float(d), None

    # a deletion changes degrees only at the removed vertices' live
    # neighbours, which the depth-1 loop's walk from them rescores
    return _greedy(g, 1, score, 0, seed)


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
    if not nodes:
        raise ValueError("graph has no alive nodes")
    if len(nodes) > node_limit:
        raise NodeLimitExceeded(len(nodes), node_limit)
    adj = {v: frozenset(g.neighbors_alive(v)) for v in nodes}
    result = _mis(frozenset(nodes), adj, -1)
    assert is_independent(g, result)
    return set(result)


# -- trace text format -------------------------------------------------------


def format_trace(trace: SolveTrace) -> str:
    lines = [
        f"{s.step} {s.node} {s.value:.17g} {s.key_hex}" for s in trace.steps
    ]
    lines.append(f"set_size {trace.set_size} ratio {trace.ratio:.17g}")
    return "\n".join(lines) + "\n"
