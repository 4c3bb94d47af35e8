"""Shared test utilities: small named graphs, random graph draws, a
brute-force rooted-isomorphism oracle for canonical-key checks, the plain
frontier-list cone BFS as an oracle for the shell-indexed one, and the
benchmark's tracer loaded by path."""

import importlib.util
from itertools import permutations
from pathlib import Path

from qgreedy.cones import LightCone
from qgreedy.graph import Graph


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


TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """``perfbench/tracing.py`` as a module, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
