"""Light cones: extraction, canonical keys, and the bounded-degree census.

The depth-p light cone of a node is everything that can influence its
single-qubit expectation after p alternating-layer steps: all alive vertices
within graph distance p of the root, plus the causal edges, i.e. edges whose
nearer endpoint is at distance <= p-1.  Edges joining two distance-p vertices
are dropped; gates on them provably commute past the observable.  Fields are
taken from in-cone degrees.  For every vertex closer than the outermost shell
the in-cone degree equals the alive degree; outermost-shell fields do not
affect the root expectation, which is what makes the cone self-contained.

Extraction is one BFS pass.  Local ids are handed out in BFS order, so each
shell is a contiguous range of ids and a neighbor's shell is read from its
id alone; causal edges are recorded as they are seen.  The greedy solver
extracts a cone for every rescore, so the cone object is also built without
the frozen dataclass ``__init__``, straight into its instance dict.

Canonical keys realize rooted-isomorphism equality as byte equality, with no
probabilistic hashing.  They are defined for single-root cones only (edge
cones of two roots are evaluated, never keyed).  Tree cones (the common case
during solver runs) use the classic sorted-subtree encoding, and
:func:`tree_key` is its one encoder: it holds the ``T`` header, the star
shortcut at depth 1 and the only outside call to the subtree walk, and
:func:`canonical_key` keys a tree cone by running it on the cone as a
graph.  General cones run color refinement seeded with (distance, degree),
then a backtracking search over color-class orderings with the root
pinned, pruned by discovered automorphisms.

:func:`tree_key` reads a tree cone's key straight off the alive graph,
with no cone built, and returns None for a cyclic cone.  Its depth-first
walk marks every vertex it reaches and stops at the first one it meets
twice; outermost-shell vertices are marked but not expanded, so the
non-causal edges between them are never seen.  The walk meets no vertex
twice exactly when the cone is a tree.  A node whose cone is known to be a
tree is keyed by a walk that marks nothing and stops one shell short of
the outermost: a vertex there has its parent and one edge per child, so
its code is read from a table by its alive degree (filled on first use, for
any degree), as the ``T`` header is by depth.  The knowledge cannot go
stale while the graph only loses vertices: a deletion never shortens a
distance, so a cone's causal edges only shrink, and a tree stays a tree.

The census (:func:`enumerate_cones`) lists the depth-p cone classes of max
degree 3 as a closure: starting from the root alone, it adds one vertex or
one edge at a time and keeps one cone per canonical key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .graph import Graph


@dataclass(frozen=True)
class LightCone:
    """Rooted causal neighborhood with local vertex ids.

    Local id 0 is the root (for multi-root cones, the roots take the first
    ids); remaining ids follow BFS order.  ``dists`` holds the distance label
    of every local vertex, ``edges`` the causal edges as (u, v) with u < v.
    ``source_ids`` maps local ids back to graph node ids when the cone was
    extracted from a graph; it is not part of the cone's identity.
    """

    depth: int
    dists: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    source_ids: tuple[int, ...] | None = field(default=None, compare=False)

    @property
    def size(self) -> int:
        return len(self.dists)

    @property
    def is_tree(self) -> bool:
        return len(self.edges) == self.size - 1

    def in_degrees(self) -> list[int]:
        deg = [0] * self.size
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.size)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for nbrs in adj:
            nbrs.sort()
        return adj


def extract_lightcone(g: Graph, root: int, depth: int) -> LightCone:
    """Depth-``depth`` causal cone of an alive node."""
    return _extract(g, (root,), depth)


def extract_lightcone_multi(g: Graph, roots, depth: int) -> LightCone:
    """Causal cone of a set of sources (used for edge observables)."""
    return _extract(g, tuple(roots), depth)


_new = object.__new__


def _extract(g: Graph, roots: tuple[int, ...], depth: int) -> LightCone:
    """BFS from the roots, recording causal edges as they are seen.

    Local ids are handed out in BFS order, so while shell k-1 is expanded
    it is the contiguous id range [start, end), and every id >= end is a
    shell-k vertex found in this pass.  Expanding u at shell k-1 thus reads
    a neighbor's shell from its id alone: id >= end is shell k (new or
    found earlier in this pass), start <= id < end is shell k-1, and a
    smaller id is further in.  It records each causal edge once: to shell-k
    vertices, and to shell-(k-1) vertices with a larger graph id.  The
    depth-p shell is never expanded, so edges joining two of its vertices
    are never recorded.
    """
    if depth < 1:
        raise ValueError("cone depth must be >= 1")
    adj, alive = g.adj, g.alive
    order = list(roots)
    local = {}
    n = 0
    for r in roots:
        if not alive[r]:
            raise ValueError(f"node {r} is not alive")
        local[r] = n
        n += 1
    dists = [0] * n
    edges: list[tuple[int, int]] = []
    record = edges.append
    start, end = 0, n
    for k in range(1, depth + 1):
        a = start
        for u in order[start:end]:
            for v in adj[u]:
                if alive[v]:
                    b = local.get(v)
                    if b is None:
                        local[v] = n
                        record((a, n))
                        order.append(v)
                        n += 1
                    elif b >= end:
                        record((a, b))
                    elif b >= start and v > u:
                        record((a, b) if a < b else (b, a))
            a += 1
        dists += [k] * (n - end)
        start, end = end, n
    edges.sort()
    # the frozen __init__ routes each field through object.__setattr__,
    # which takes longer than the rest of building a small cone
    cone = _new(LightCone)
    fields = cone.__dict__
    fields["depth"] = depth
    fields["dists"] = tuple(dists)
    fields["edges"] = tuple(edges)
    fields["source_ids"] = tuple(order)
    return cone


def tree_key(g: Graph, root: int, depth: int,
             known: bool = False) -> bytes | None:
    """``canonical_key(extract_lightcone(g, root, depth))`` when that cone
    is a tree, read off the alive graph; None when it is cyclic.

    With ``known`` the caller vouches that the cone is a tree (it was one at
    an earlier state of this graph, and deletions keep it one), and the
    walk checks nothing.
    """
    if depth == 1:  # a star, always a tree
        return b"T\x01(" + b"()" * g._deg[root] + b")"
    code = _tree_code(g.adj, g.alive, g._deg, root, -1, depth,
                      None if known else {root})
    return None if code is None else _TREE_HEADER[depth] + code


class _ShellCodes(dict):
    """Code of a vertex one shell inside the outermost of a known tree, by
    alive degree d: its d - 1 children are leaves.  Coded on first use."""
    def __missing__(self, d: int) -> bytes:
        code = self[d] = b"(" + b"()" * (d - 1) + b")"
        return code


_SHELL_CODE = _ShellCodes()
_TREE_HEADER = [b"T" + bytes([depth]) for depth in range(256)]


def _tree_code(adj, alive, deg, u: int, parent: int, k: int,
               seen: set | None) -> bytes | None:
    """Sorted-subtree code of u, a vertex k >= 2 shells inside the
    outermost.

    A set ``seen`` makes the walk a cycle check: it marks every vertex it
    reaches and returns None at the first one already marked.  Outermost
    vertices are marked but not expanded, so edges between them are never
    seen.  With ``seen`` None the cone must be a tree, and a vertex one
    shell inside the outermost is coded from its alive degree ``deg`` (by
    ``_SHELL_CODE``): its edges are its parent's and one per child, so the
    outermost shell is never visited.
    """
    if seen is None and k == 2:
        sub = [_SHELL_CODE[deg[v]] for v in adj[u] if alive[v] and v != parent]
    else:
        sub = []
        for v in adj[u]:
            if alive[v] and v != parent:
                if seen is not None:
                    if v in seen:
                        return None
                    seen.add(v)
                if k > 2:
                    code = _tree_code(adj, alive, deg, v, u, k - 1, seen)
                    if code is None:
                        return None
                else:  # checked, and v's children are outermost
                    leaves = 0
                    for w in adj[v]:
                        if alive[w] and w != u:
                            if w in seen:
                                return None
                            seen.add(w)
                            leaves += 1
                    code = b"(" + b"()" * leaves + b")"
                sub.append(code)
    sub.sort()
    return b"(" + b"".join(sub) + b")"


# -- canonical keys ---------------------------------------------------------


def key_digest(key_data: bytes) -> int:
    """The 64-bit BLAKE2b word of ``key_data``, little-endian: the package's
    one per-cone random source, keyed by seed for shot and noise advice."""
    return int.from_bytes(hashlib.blake2b(key_data, digest_size=8).digest(), "little")


def canonical_key(cone: LightCone) -> bytes:
    """Key equal between two same-depth cones iff root-preserving isomorphic.

    ``b"T"`` (tree) or ``b"G"`` (cyclic), the depth byte, the encoding.  The
    extraction depth is part of the key: structurally identical cones at
    different depths run different circuits, and everything keyed per cone
    (cache entries, noise offsets, shot streams) must not alias across
    depths.  Keys are defined for single-root cones only: unless local id 0
    is the one distance-0 vertex, this raises ValueError.  A ``G`` key
    stores the vertex count and each label in one byte, so a cyclic cone of
    more than 255 vertices raises ValueError too, before the search.
    """
    if cone.dists.count(0) != 1 or cone.dists[0] != 0:
        raise ValueError("canonical keys need exactly one root, at local id 0")
    if cone.is_tree:
        return tree_key(Graph(cone.size, cone.edges), 0, cone.depth, True)
    if cone.size > 255:
        raise ValueError("canonical keys of cyclic cones are limited to 255 "
                         f"vertices; this cone has {cone.size}")
    return b"G" + bytes([cone.depth]) + _search_encoding(cone)


def key_size(key: bytes) -> int:
    """Vertex count of a key's cone: a ``G`` key stores it after the
    header, and a ``T`` key opens one "(" per vertex."""
    return key[2] if key[:1] == b"G" else key.count(b"(", 2)


def cone_from_key(data: bytes) -> LightCone:
    """The cone a canonical key describes, labeled shell by shell.

    Isomorphic cones share a key, so whatever is computed on this cone is a
    function of the class alone.  A ``G`` key holds the size, the distance
    labels and the edges in canonical labels, which are already ordered by
    shell; a ``T`` key is parsed from its parentheses, each "(" opening a
    child of the innermost open vertex.
    """
    kind, depth = data[:1], data[1]
    if kind == b"G":
        n = data[2]
        pairs = data[3 + n:]
        edges = tuple(zip(pairs[::2], pairs[1::2]))
        return LightCone(depth=depth, dists=tuple(data[3:3 + n]), edges=edges)
    if kind != b"T":
        raise ValueError(f"not a canonical key: {data[:8]!r}")
    parent: list[int] = []
    dists: list[int] = []
    stack: list[int] = []
    for c in data[2:]:
        if c == ord("("):
            parent.append(stack[-1] if stack else -1)
            dists.append(len(stack))
            stack.append(len(dists) - 1)
        else:
            stack.pop()
    order = sorted(range(len(dists)), key=dists.__getitem__)
    label = [0] * len(order)
    for i, v in enumerate(order):
        label[v] = i
    edges = tuple(sorted((label[parent[v]], label[v]) for v in order[1:]))
    return LightCone(depth=depth, dists=tuple(sorted(dists)), edges=edges)


def _refine(n: int, adj: list[list[int]], colors: list[int]) -> list[int]:
    """1-dimensional color refinement to a stable partition."""
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[w] for w in adj[v]))) for v in range(n)
        ]
        order = {}
        for s in sorted(set(sigs)):
            order[s] = len(order)
        new = [order[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _search_encoding(cone: LightCone) -> bytes:
    """Canonical encoding by individualization-refinement.

    Explores orderings of the first non-singleton color class at each node
    and returns the minimum adjacency encoding over all discrete refinements
    reached.  Whenever two leaves produce the same encoding, the composed
    permutation is an automorphism; sibling branches equivalent under the
    subgroup of discovered automorphisms that fixes the already
    individualized vertices are skipped.  Restricting to that stabilizer is
    what keeps the pruning sound.
    """
    n = cone.size
    adj = cone.adjacency()
    deg = cone.in_degrees()
    init_pairs = sorted({(cone.dists[v], deg[v]) for v in range(n)})
    rank = {p: i for i, p in enumerate(init_pairs)}
    colors0 = _refine(n, adj, [rank[(cone.dists[v], deg[v])] for v in range(n)])

    best: list[bytes | None] = [None]
    best_label: list[list[int] | None] = [None]
    autos: list[tuple[int, ...]] = []

    def encode_discrete(colors: list[int]) -> tuple[bytes, list[int]]:
        label = colors  # discrete coloring is already a bijection to 0..n-1
        body = bytearray([n])
        inv = [0] * n
        for v in range(n):
            inv[label[v]] = v
        body.extend(cone.dists[inv[c]] for c in range(n))
        edges = sorted(
            (label[u], label[v]) if label[u] < label[v] else (label[v], label[u])
            for u, v in cone.edges
        )
        for a, b in edges:
            body.append(a)
            body.append(b)
        return bytes(body), list(label)

    def orbit_reps(members: list[int], fixed: list[int]) -> list[int]:
        gens = [
            phi for phi in autos if all(phi[x] == x for x in fixed)
        ]
        if not gens:
            return members
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for phi in gens:
            for v in range(n):
                rv, rp = find(v), find(phi[v])
                if rv != rp:
                    parent[rv] = rp
        reps = []
        seen = set()
        for v in members:
            r = find(v)
            if r not in seen:
                seen.add(r)
                reps.append(v)
        return reps

    def search(colors: list[int], fixed: list[int]) -> None:
        cell = None
        for c in sorted(set(colors)):
            members = [v for v in range(n) if colors[v] == c]
            if len(members) > 1:
                cell = members
                break
        if cell is None:
            enc, label = encode_discrete(colors)
            if best[0] is None or enc < best[0]:
                best[0] = enc
                best_label[0] = label
            elif enc == best[0]:
                prev = best_label[0]
                inv_prev = [0] * n
                for v in range(n):
                    inv_prev[prev[v]] = v
                phi = tuple(inv_prev[label[v]] for v in range(n))
                if any(phi[v] != v for v in range(n)):
                    autos.append(phi)
            return
        tried: list[int] = []
        for v in cell:
            # orbits are re-derived per sibling: exploring the first branch
            # usually surfaces the automorphisms that let us skip the rest
            if tried and v not in orbit_reps(tried + [v], fixed):
                continue
            tried.append(v)
            pivot = colors[v]
            nxt = list(colors)
            for w in range(n):
                if nxt[w] > pivot or (nxt[w] == pivot and w != v):
                    nxt[w] += 1
            search(_refine(n, adj, nxt), fixed + [v])

    search(colors0, [])
    assert best[0] is not None
    return best[0]


# -- census -----------------------------------------------------------------


@dataclass(frozen=True)
class CensusReport:
    depth: int
    total: int
    trees: int

    @property
    def nontrees(self) -> int:
        return self.total - self.trees


CENSUS_DEGREE = 3  # the census's degree bound


def enumerate_cones(depth: int) -> tuple[CensusReport, list[LightCone]]:
    """All realizable depth-``depth`` cones at max degree ``CENSUS_DEGREE``,
    up to rooted isomorphism, ordered by (size, edge count, key).

    A cone is any connected rooted graph with max degree <= 3, every vertex
    within ``depth`` of the root, and no edge joining two outermost-shell
    vertices.  The census is the closure of the root-only cone under the
    one-step augmentations of :func:`_augmentations`, deduplicated by
    canonical key; each class keeps the first member reached.
    """
    if depth not in (1, 2, 3):
        raise ValueError(f"census supported for depth 1..3, got {depth}")
    root = LightCone(depth=depth, dists=(0,), edges=())
    census = {canonical_key(root): root}
    work = [root]
    while work:
        for cone in _augmentations(work.pop()):
            key = canonical_key(cone)
            if key not in census:
                census[key] = cone
                work.append(cone)
    keys = sorted(census, key=lambda k: (census[k].size, len(census[k].edges), k))
    cones = [census[k] for k in keys]
    trees = sum(cone.is_tree for cone in cones)
    return CensusReport(depth=depth, total=len(cones), trees=trees), cones


def _augmentations(cone: LightCone):
    """The cones one vertex or one edge larger than ``cone``.

    Free vertices have degree below ``CENSUS_DEGREE``, and ``top`` is the
    largest distance.  A new vertex hangs off a free vertex at distance d,
    top - 1 <= d < depth; a new edge joins two free non-adjacent vertices
    in adjacent shells, or in one shell below the outermost.  The steps
    read only distances and degrees, so isomorphic cones grow into the
    same classes, and they keep ids ordered by shell.  Every cone is
    reached by adding its BFS tree shell by shell, then its other edges.
    """
    depth, dists, edges, n = cone.depth, cone.dists, cone.edges, cone.size
    deg = cone.in_degrees()
    free = [v for v in range(n) if deg[v] < CENSUS_DEGREE]
    top = dists[-1]
    for u in free:
        if top - 1 <= dists[u] < depth:
            yield LightCone(depth=depth, dists=dists + (dists[u] + 1,),
                            edges=tuple(sorted(edges + ((u, n),))))
    joined = set(edges)
    for i, u in enumerate(free):
        for v in free[i + 1:]:
            gap = dists[v] - dists[u]  # u < v, so u is not the further out
            causal = gap == 1 or (gap == 0 and dists[u] < depth)
            if causal and (u, v) not in joined:
                yield LightCone(depth=depth, dists=dists,
                                edges=tuple(sorted(edges + ((u, v),))))
