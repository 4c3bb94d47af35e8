"""Shared test utilities: small named graphs, random graph draws, the
one- and two-root cones of a vertex, a brute-force rooted-isomorphism
oracle for canonical-key checks, a digest of a census's key set, the
plain frontier-list cone BFS as an oracle for the shell-indexed one, the
unpruned cone circuit (the dense oracle's input and pruning's reference),
closed-form oracles (the depth-1 edge expectation, the occupation- and
spin-basis costs, the tree ball size), the greedy loop as it stood before
its per-step rework (also the full-recompute oracle), a reader of the
solver's trace text, and source files outside the package (the
benchmark's tracer, ``scripts/run_bench.py``, ``scripts/bench_pairs.py``,
``scripts/noise_sweep.py``) loaded by path."""

import hashlib
import importlib.util
import math
from bisect import bisect_left, insort
from contextlib import contextmanager
from functools import partial
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import qgreedy.solver
from qgreedy.circuits import AngleSchedule, ConeCircuit
from qgreedy.cones import (
    LightCone,
    canonical_key,
    extract_lightcone,
    extract_lightcone_multi,
)
from qgreedy.graph import Graph, IsingParams
from qgreedy.solver import SolveTrace, TraceStep


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def complete(n: int) -> Graph:
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def complete_bipartite(m: int) -> Graph:
    """K_{m,m}: sides 0..m-1 and m..2m-1."""
    return Graph(2 * m, [(a, m + b) for a in range(m) for b in range(m)])


def k33() -> Graph:
    return complete_bipartite(3)


def prism() -> Graph:
    """The triangular prism: 3-regular on 6 nodes, like K3,3."""
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                     (0, 3), (1, 4), (2, 5)])


def hypercube(k: int) -> Graph:
    n = 1 << k
    return Graph(n, [(v, v | (1 << b)) for v in range(n) for b in range(k)
                     if not v & (1 << b)])


def pentagon_flower(petals: int) -> Graph:
    """``petals`` 5-cycles sharing node 0 and nothing else."""
    edges = []
    for c in range(petals):
        ring = [0, *range(1 + 4 * c, 5 + 4 * c)]
        edges += [(ring[j], ring[j + 1]) for j in range(4)] + [(0, ring[4])]
    return Graph(1 + 4 * petals, edges)


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def random_graph(rng, n: int, p: float = 0.3) -> Graph:
    edges = [
        (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_degree3_graph(rng, n: int) -> Graph:
    """Random graph with all degrees <= 3 (not regular): greedy edge fill."""
    deg = [0] * n
    edges = []
    seen = set()
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rng.shuffle(pairs)
    for a, b in pairs:
        if deg[a] < 3 and deg[b] < 3 and (a, b) not in seen and rng.random() < 0.7:
            seen.add((a, b))
            deg[a] += 1
            deg[b] += 1
            edges.append((a, b))
    return Graph(n, edges)


def root_cones(g: Graph, root: int, depth: int) -> list[LightCone]:
    """The depth-``depth`` cone of ``root`` and, when it has a neighbour,
    the two-root cone of ``root`` and its lowest neighbour: the solver
    measures one root, the angle optimizer the two ends of an edge."""
    cones = [extract_lightcone(g, root, depth)]
    nbrs = g.neighbors_alive(root)
    if nbrs:
        cones.append(extract_lightcone_multi(g, (root, nbrs[0]), depth))
    return cones


def relabel_cone(cone: LightCone, rng) -> LightCone:
    """Random root-preserving relabeling (local ids permuted, id 0 fixed)."""
    n = cone.size
    perm = [0] + (1 + rng.permutation(n - 1)).tolist() if n > 1 else [0]
    # perm maps old local id -> new local id
    new_dists = [0] * n
    for old, new in enumerate(perm):
        new_dists[new] = cone.dists[old]
    new_edges = []
    for u, v in cone.edges:
        a, b = perm[u], perm[v]
        new_edges.append((a, b) if a < b else (b, a))
    return LightCone(
        depth=cone.depth, dists=tuple(new_dists), edges=tuple(sorted(new_edges))
    )


def rooted_isomorphic(c1: LightCone, c2: LightCone) -> bool:
    """Exhaustive shell-by-shell search for a root-fixing isomorphism."""
    if c1.depth != c2.depth or c1.size != c2.size:
        return False
    if len(c1.edges) != len(c2.edges):
        return False
    shells1: dict[int, list[int]] = {}
    shells2: dict[int, list[int]] = {}
    for v in range(c1.size):
        shells1.setdefault(c1.dists[v], []).append(v)
    for v in range(c2.size):
        shells2.setdefault(c2.dists[v], []).append(v)
    if sorted(shells1) != sorted(shells2):
        return False
    if any(len(shells1[k]) != len(shells2[k]) for k in shells1):
        return False
    edgeset2 = {frozenset(e) for e in c2.edges}
    levels = sorted(shells1)

    def extend(li: int, mapping: dict[int, int]) -> bool:
        if li == len(levels):
            return all(
                frozenset((mapping[u], mapping[v])) in edgeset2
                for u, v in c1.edges
            )
        lv = levels[li]
        src = shells1[lv]
        for perm in permutations(shells2[lv]):
            m2 = dict(mapping)
            for a, b in zip(src, perm):
                m2[a] = b
            ok = True
            for u, v in c1.edges:
                # check edges as soon as both endpoints are mapped
                if u in m2 and v in m2 and max(c1.dists[u], c1.dists[v]) == lv:
                    if frozenset((m2[u], m2[v])) not in edgeset2:
                        ok = False
                        break
            if ok and extend(li + 1, m2):
                return True
        return False

    return extend(0, {})


def census_digest(cones) -> str:
    """SHA-256 of the sorted canonical keys of ``cones``: equal for two
    censuses exactly when they hold the same classes (up to collisions)."""
    keys = sorted(canonical_key(cone) for cone in cones)
    return hashlib.sha256(repr(keys).encode()).hexdigest()


# The cone BFS as it stood before shells became local-id ranges, kept
# verbatim: cones._extract must return the same dists, edges and
# source ids.
def reference_extract(g: Graph, roots: tuple[int, ...], depth: int) -> LightCone:
    """BFS from the roots, recording causal edges as they are seen.

    Expanding u at shell k-1 sees each causal edge once: to new and earlier
    found shell-k vertices, and to shell-(k-1) vertices with a larger graph
    id.  The depth-p shell is never expanded, so edges joining two of its
    vertices are never recorded.
    """
    if depth < 1:
        raise ValueError("cone depth must be >= 1")
    for r in roots:
        if not g.alive[r]:
            raise ValueError(f"node {r} is not alive")
    adj, alive = g.adj, g.alive
    local = {r: idx for idx, r in enumerate(roots)}
    order = list(roots)
    dists = [0] * len(roots)
    edges = []
    frontier = list(roots)
    for k in range(1, depth + 1):
        nxt = []
        for u in frontier:
            a = local[u]
            for v in adj[u]:
                if not alive[v]:
                    continue
                b = local.get(v)
                if b is None:
                    b = local[v] = len(order)
                    order.append(v)
                    dists.append(k)
                    nxt.append(v)
                    edges.append((a, b))
                elif dists[b] == k:
                    edges.append((a, b))
                elif dists[b] == k - 1 and v > u:
                    edges.append((a, b) if a < b else (b, a))
        frontier = nxt
    edges.sort()
    return LightCone(
        depth=depth, dists=tuple(dists), edges=tuple(edges), source_ids=tuple(order)
    )


def unpruned_circuit(cone: LightCone, schedule: AngleSchedule) -> ConeCircuit:
    """The cone circuit with no gate pruned: every vertex keeps all p
    layers and every edge has a ZZ gate in every layer, in
    ``build_circuit``'s order, so the two differ only in the gates pruning
    drops."""
    if schedule.depth != cone.depth:
        raise ValueError(
            f"schedule depth {schedule.depth} != cone depth {cone.depth}"
        )
    ising = IsingParams(schedule.lam)
    layers = list(zip(schedule.gammas, schedule.betas))
    gates = tuple(
        tuple((ising.field(d) * gamma, beta) for gamma, beta in layers)
        for d in cone.in_degrees()
    )
    couplings = tuple(
        (u, v, k, ising.coupling * gamma)
        for k, gamma in enumerate(schedule.gammas)
        for u, v in cone.edges
        if ising.coupling * gamma != 0.0
    )
    roots = tuple(v for v, d in enumerate(cone.dists) if d == 0)
    return ConeCircuit(cone.size, schedule.depth, gates, couplings, roots)


def expectation_p1_edge(
    deg_u: int,
    deg_v: int,
    h_u: float,
    h_v: float,
    gamma: float,
    beta: float,
    lam: float = 1.0,
) -> float:
    """Single-layer <Z_u Z_v> for an edge whose endpoints share no neighbor.

    Valid on tree cones.
    """
    c = math.cos(2.0 * beta)
    s = math.sin(2.0 * beta)
    j2 = 2.0 * gamma * IsingParams(lam).coupling
    cu = math.cos(j2) ** (deg_u - 1)
    cv = math.cos(j2) ** (deg_v - 1)
    cross = (
        c
        * s
        * math.sin(j2)
        * (math.cos(2.0 * gamma * h_u) * cu + math.cos(2.0 * gamma * h_v) * cv)
    )
    both = (
        s
        * s
        * math.sin(2.0 * gamma * h_u)
        * math.sin(2.0 * gamma * h_v)
        * cu
        * cv
    )
    return cross + both


def energy(g: Graph, params: IsingParams, bits) -> float:
    """Occupation-basis cost over the alive subgraph.

    ``bits`` must assign 0/1 to every node id; entries for dead nodes are
    ignored.
    """
    if len(bits) != g.n:
        raise ValueError(f"assignment length {len(bits)} != node count {g.n}")
    occupied = 0
    conflicts = 0
    for i in range(g.n):
        if g.alive[i] and bits[i]:
            occupied += 1
    for u, v in g.edges_alive():
        if bits[u] and bits[v]:
            conflicts += 1
    return params.lam * conflicts - float(occupied)


def energy_pauli(g: Graph, params: IsingParams, spins) -> float:
    """Spin-basis cost; must agree with ``energy`` at s_i = 2 n_i - 1."""
    if len(spins) != g.n:
        raise ValueError(f"assignment length {len(spins)} != node count {g.n}")
    total = 0.0
    for u, v in g.edges_alive():
        total += params.coupling * spins[u] * spins[v]
    for i in range(g.n):
        if g.alive[i]:
            d = g._deg[i]
            total += params.field(d) * spins[i] + params.offset(d)
    return total


def tree_ball_size(depth: int, d: int) -> int:
    """Vertices within ``depth`` of a bulk vertex of the d-regular tree."""
    if d == 2:
        return 2 * depth + 1
    return 1 + d * ((d - 1) ** depth - 1) // (d - 2)


# the greedy loop as it stood before its per-step rework, kept verbatim as
# the oracle that the reworked loop's traces are compared against
def reference_greedy(g: Graph, depth: int, score, delta: float, seed: int,
            full_recompute: bool) -> SolveTrace:
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
    scored: dict[int, tuple[float, float, bytes | None]] = {}
    # selection index: rank -> live nodes holding it in ascending id order,
    # and the distinct ranks in ascending order
    buckets: dict[float, list[int]] = {}
    levels: list[float] = []

    def forget(i: int) -> None:
        rank = scored.pop(i)[0]
        bucket = buckets[rank]
        del bucket[bisect_left(bucket, i)]
        if not bucket:
            del buckets[rank]
            del levels[bisect_left(levels, rank)]

    pending = work.alive_nodes()
    while work.alive_count:
        for i in pending:
            if i in scored:
                forget(i)
            scored[i] = result = score(work, i)
            rank = result[0]
            bucket = buckets.get(rank)
            if bucket is None:
                buckets[rank] = [i]
                insort(levels, rank)
            else:
                insort(bucket, i)
        lo = bisect_left(levels, levels[-1] - delta)  # first tied rank
        if lo == len(levels) - 1:
            candidates = buckets[levels[-1]]
        else:
            candidates = sorted(i for v in levels[lo:] for i in buckets[v])
        if len(candidates) == 1:
            pick = candidates[0]
        else:
            pick = candidates[int(rng.integers(len(candidates)))]
        # neighborhood whose scores the deletion can touch, taken pre-deletion
        affected = work.ball(pick, depth + 1)
        _, value, key = scored[pick]
        removed = work.remove_closed_neighborhood(pick)
        for r in removed:
            forget(r)
        trace.steps.append(TraceStep(
            len(trace.steps), pick, value, "-" if key is None else key.hex(),
            len(removed),
        ))
        if full_recompute:
            pending = work.alive_nodes()
        else:
            pending = [x for x, _ in affected if alive[x]]
    return trace


@contextmanager
def reference_loop(full_recompute: bool):
    """Solves run ``reference_greedy`` in place of ``solver._greedy``; with
    ``full_recompute`` it rescores every live node after each step, not
    only the pick's ball."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qgreedy.solver, "_greedy",
                   partial(reference_greedy, full_recompute=full_recompute))
        yield


def parse_trace(text: str) -> dict:
    """The fields of ``solver.format_trace``'s text; raises ValueError on a
    malformed line or a footer that does not match the step count."""
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


ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
RUN_BENCH = ROOT / "scripts" / "run_bench.py"
BENCH_PAIRS = ROOT / "scripts" / "bench_pairs.py"
NOISE_SWEEP = ROOT / "scripts" / "noise_sweep.py"


def _load(path: Path, name: str):
    """A source file as a module, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    """``perfbench/tracing.py`` as a module."""
    return _load(TRACING, "perfbench_tracing")


def load_run_bench():
    """``scripts/run_bench.py`` as a module; its ``main`` is not run."""
    return _load(RUN_BENCH, "run_bench")


def load_bench_pairs():
    """``scripts/bench_pairs.py`` as a module; its ``main`` is not run."""
    return _load(BENCH_PAIRS, "bench_pairs")


def load_noise_sweep():
    """``scripts/noise_sweep.py`` as a module; its ``main`` is not run."""
    return _load(NOISE_SWEEP, "noise_sweep")
