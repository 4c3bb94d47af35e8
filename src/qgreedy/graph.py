"""Graph core: mutable bounded-degree graphs, the Ising coefficients of
the MIS cost function, and random regular instance generation.

Graphs keep stable integer node ids for their whole life.  Greedy reductions
never renumber: deletion flips an alive flag and updates cached degrees, so
traces and expectation caches can refer to nodes by id at any point of a run.

The cost function on a graph G = (V, E) with occupation bits n_i in {0, 1} is

    E(n) = lam * sum_{(i,j) in E} n_i n_j - sum_i n_i

For lam >= 1 the minimum is attained on maximum independent sets (for
lam > 1 exclusively on them).  The equivalent spin form used by the circuit
layer, with s_i = 2 n_i - 1,

    E(s) = (lam/4) sum_{(i,j)} s_i s_j + sum_i h_i s_i + sum_i (lam d_i - 4)/8,
    h_i = (lam d_i - 2) / 4,

is exposed through :class:`IsingParams` so that every consumer derives fields
from the same place.  Degrees d_i are always current alive degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RestartBudgetExceeded


@dataclass(frozen=True)
class IsingParams:
    """Penalty weight and derived Ising coefficients for the MIS cost."""

    lam: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 1.0:
            raise ValueError(f"penalty weight must satisfy lam >= 1, got {self.lam}")

    @property
    def coupling(self) -> float:
        """ZZ coefficient on every edge."""
        return self.lam / 4.0

    def field(self, degree: int) -> float:
        """Z coefficient h_i for a node of alive degree ``degree``."""
        return (self.lam * degree - 2.0) / 4.0

    def offset(self, degree: int) -> float:
        """Constant energy contribution of a node of alive degree ``degree``."""
        return (self.lam * degree - 4.0) / 8.0


class Graph:
    """Undirected simple graph with an alive mask for greedy reductions."""

    __slots__ = ("n", "adj", "alive", "_deg", "_alive_count")

    def __init__(self, n: int, edges):
        if n < 0:
            raise ValueError("node count must be nonnegative")
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            self.adj[u].append(v)
            self.adj[v].append(u)
        for nbrs in self.adj:
            nbrs.sort()
        self.alive = [True] * n
        self._deg = [len(nbrs) for nbrs in self.adj]
        self._alive_count = n

    # -- queries ------------------------------------------------------------

    @property
    def alive_count(self) -> int:
        return self._alive_count

    def alive_nodes(self) -> list[int]:
        return [i for i in range(self.n) if self.alive[i]]

    def neighbors_alive(self, i: int) -> list[int]:
        return [j for j in self.adj[i] if self.alive[j]]

    def edges_alive(self):
        for u in range(self.n):
            if not self.alive[u]:
                continue
            for v in self.adj[u]:
                if v > u and self.alive[v]:
                    yield (u, v)

    def copy(self) -> "Graph":
        g = Graph.__new__(Graph)
        g.n = self.n
        g.adj = self.adj            # immutable after construction, share
        g.alive = list(self.alive)
        g._deg = list(self._deg)
        g._alive_count = self._alive_count
        return g

    # -- mutation -----------------------------------------------------------

    def remove_closed_neighborhood(self, i: int) -> list[int]:
        """Delete node i and its alive neighbors; returns the removed ids."""
        if not self.alive[i]:
            raise ValueError(f"node {i} is not alive")
        adj, alive, deg = self.adj, self.alive, self._deg
        removed = [i] + [j for j in adj[i] if alive[j]]
        for r in removed:
            alive[r] = False
        for r in removed:
            for nbr in adj[r]:
                if alive[nbr]:
                    deg[nbr] -= 1
        self._alive_count -= len(removed)
        return removed

    # -- traversal ----------------------------------------------------------

    def ball(self, i: int, radius: int) -> list[tuple[int, int]]:
        """Alive nodes within ``radius`` of i as (node, distance), BFS order."""
        if not self.alive[i]:
            raise ValueError(f"node {i} is not alive")
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        adj, alive = self.adj, self.alive
        seen = {i}
        order = [(i, 0)]
        frontier = [i]
        for r in range(1, radius + 1):
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if alive[v] and v not in seen:
                        seen.add(v)
                        order.append((v, r))
                        nxt.append(v)
            if not nxt:
                break
            frontier = nxt
        return order


def is_independent(g: Graph, nodes) -> bool:
    """True iff no edge of the original graph joins two of the given nodes."""
    nodes = list(nodes)  # read an iterator once
    chosen = set(nodes)
    if len(chosen) != len(nodes):
        return False
    return all(0 <= u < g.n and chosen.isdisjoint(g.adj[u]) for u in chosen)


def check_regular(n: int, d: int) -> None:
    """Raise ValueError unless a simple d-regular graph on n nodes exists."""
    if d < 0 or n <= d:
        raise ValueError(f"need 0 <= d < n, got n={n} d={d}")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n} d={d}")


RESTART_BUDGET = 2000  # configuration-model draws before generate_regular gives up


def generate_regular(n: int, d: int, seed: int) -> Graph:
    """Sample a uniform random simple d-regular graph via the configuration
    model, restarting from scratch on any self-loop or repeated edge.

    Deterministic for a fixed (n, d, seed).
    """
    check_regular(n, d)
    if d == 0:
        return Graph(n, [])
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(RESTART_BUDGET):
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        u = pairs[:, 0]
        v = pairs[:, 1]
        if np.any(u == v):
            continue
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        keys = lo.astype(np.int64) * n + hi
        keys.sort()  # np.unique would import numpy.ma, ~10 ms on first use
        if np.any(keys[1:] == keys[:-1]):
            continue
        return Graph(n, zip(lo.tolist(), hi.tolist()))
    raise RestartBudgetExceeded(n, d, RESTART_BUDGET)


# -- edge-list text format --------------------------------------------------
#
# line 1: "N M", then M lines "u v" with 0-based ids, LF line endings.

def write_edge_list(g: Graph) -> str:
    """Serialize the alive subgraph; each undirected edge appears once."""
    edges = list(g.edges_alive())
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Graph:
    """Parse the edge-list format; rejects duplicate and self-loop edges."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"malformed header line: {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line: {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph(n, edges)
