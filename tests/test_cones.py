import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgreedy.cones
from helpers import (
    census_digest,
    complete,
    complete_bipartite,
    hypercube,
    k33,
    path,
    pentagon_flower,
    petersen,
    prism,
    random_degree3_graph,
    random_graph,
    reference_extract,
    relabel_cone,
    rooted_isomorphic,
    tree_ball_size,
)
from qgreedy.cones import (
    LightCone,
    _extract,
    canonical_key,
    cone_from_key,
    enumerate_cones,
    extract_lightcone,
    extract_lightcone_multi,
    key_digest,
    key_size,
    tree_key,
)
from qgreedy.graph import Graph, generate_regular


class TestExtraction:
    def test_path_depth1(self):
        cone = extract_lightcone(path(5), 2, 1)
        assert cone.dists == (0, 1, 1)
        assert cone.edges == ((0, 1), (0, 2))
        assert cone.source_ids == (2, 1, 3)
        assert cone.is_tree

    def test_k4_depth1_drops_far_edges(self):
        # edges between two distance-1 vertices are acausal at depth 1
        cone = extract_lightcone(complete(4), 0, 1)
        assert cone.size == 4
        assert cone.edges == ((0, 1), (0, 2), (0, 3))
        assert cone.is_tree

    def test_k4_depth2_keeps_them(self):
        cone = extract_lightcone(complete(4), 0, 2)
        assert len(cone.edges) == 6
        assert not cone.is_tree

    def test_petersen_depth2_is_tree(self):
        # girth 5: no cycle closes within the radius-2 causal region
        cone = extract_lightcone(petersen(), 0, 2)
        assert cone.size == 10
        assert cone.is_tree

    def test_respects_alive_mask(self):
        g = path(5)
        g.remove_closed_neighborhood(2)
        cone = extract_lightcone(g, 0, 2)
        assert cone.size == 1
        assert cone.edges == ()

    def test_dead_root_rejected(self):
        g = path(3)
        g.remove_closed_neighborhood(1)
        with pytest.raises(ValueError):
            extract_lightcone(g, 1, 1)

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            extract_lightcone(path(3), 0, 0)

    def test_in_degrees(self):
        cone = extract_lightcone(complete(4), 0, 1)
        assert cone.in_degrees() == [3, 1, 1, 1]


def _brute_force_cone(g, roots, depth):
    """(dists by node, causal edges by node pair), straight from the
    definition: BFS distances, then every alive edge whose nearer endpoint
    is within depth-1."""
    dist = {r: 0 for r in roots}
    frontier = list(roots)
    for k in range(1, depth + 1):
        nxt = []
        for u in frontier:
            for v in g.neighbors_alive(u):
                if v not in dist:
                    dist[v] = k
                    nxt.append(v)
        frontier = nxt
    edges = {
        frozenset((u, v)) for u, v in g.edges_alive()
        if u in dist and v in dist and min(dist[u], dist[v]) <= depth - 1
    }
    return dist, edges


def test_extraction_matches_definition():
    rng = np.random.default_rng(17)
    checked = 0
    for trial in range(12):
        g = generate_regular(40, 3, 300 + trial)
        for _ in range(trial % 4):
            g.remove_closed_neighborhood(int(rng.choice(g.alive_nodes())))
        for depth in (1, 2, 3, 4):
            for v in g.alive_nodes()[::3]:
                for roots in [(v,)] + [(v, u) for u in g.neighbors_alive(v)[:1]]:
                    if len(roots) == 1:
                        cone = extract_lightcone(g, v, depth)
                    else:
                        cone = extract_lightcone_multi(g, roots, depth)
                    dist, edges = _brute_force_cone(g, roots, depth)
                    ids = cone.source_ids
                    assert ids[: len(roots)] == roots
                    assert sorted(ids) == sorted(dist)
                    assert cone.dists == tuple(dist[x] for x in ids)
                    # BFS order: shells never go back inward
                    assert list(cone.dists) == sorted(cone.dists)
                    assert list(cone.edges) == sorted(set(cone.edges))
                    assert all(a < b for a, b in cone.edges)
                    seen = {frozenset((ids[a], ids[b])) for a, b in cone.edges}
                    assert seen == edges
                    checked += 1
    assert checked > 1000


def test_multi_root_size():
    cone = extract_lightcone_multi(path(5), (1, 2), 1)
    assert sorted(cone.source_ids) == [0, 1, 2, 3]
    assert cone.dists == (0, 0, 1, 1)


def test_shell_indexed_bfs_matches_reference():
    # every alive vertex as one root and every alive edge as two adjacent
    # roots (both orders), on 3-regular graphs with 0-3 closed
    # neighbourhoods removed; each cone must also be the LightCone that the
    # dataclass __init__ builds from the same fields
    rng = np.random.default_rng(7)
    checked = 0
    for seed in range(3):
        g = generate_regular(40, 3, seed)
        for removals in range(4):
            work = g.copy()
            for _ in range(removals):
                work.remove_closed_neighborhood(int(rng.choice(work.alive_nodes())))
            roots = [(v,) for v in work.alive_nodes()]
            for u, v in work.edges_alive():
                roots += [(u, v), (v, u)]
            for depth in range(1, 5):
                for r in roots:
                    cone = _extract(work, r, depth)
                    ref = reference_extract(work, r, depth)
                    assert (cone.dists, cone.edges, cone.source_ids) == (
                        ref.dists, ref.edges, ref.source_ids
                    ), (seed, removals, depth, r)
                    plain = LightCone(depth=depth, dists=cone.dists,
                                      edges=cone.edges, source_ids=cone.source_ids)
                    assert type(cone) is LightCone
                    assert cone == plain and hash(cone) == hash(plain)
                    assert repr(cone) == repr(plain)
                    checked += 1
    assert checked > 5000
    # replace and the frozen fields behave as on any other LightCone
    for changes in ({}, {"source_ids": None}, {"depth": 3}, {"edges": ()}):
        a = dataclasses.replace(cone, **changes)
        b = dataclasses.replace(plain, **changes)
        assert type(a) is LightCone
        assert a == b and hash(a) == hash(b) and a.source_ids == b.source_ids
    assert dataclasses.replace(cone, source_ids=None) == cone
    with pytest.raises(dataclasses.FrozenInstanceError):
        cone.depth = 3


def _deletion_states(g, rng):
    """g and every state a random deletion sequence takes it through."""
    work = g.copy()
    yield work
    while work.alive_count:
        work.remove_closed_neighborhood(int(rng.choice(work.alive_nodes())))
        yield work


def _star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def _tree_key_graphs():
    rng = np.random.default_rng(11)
    graphs = [generate_regular(60, 3, seed) for seed in range(3)]
    sparse = [random_graph(rng, 50, 0.05) for _ in range(3)]
    assert all(any(not g.adj[v] for v in range(g.n)) for g in sparse)
    return graphs + sparse + [_star(90)]


class TestTreeKey:
    """tree_key reads a tree cone's key straight off the alive graph."""

    def test_equals_canonical_key_on_every_tree_cone(self):
        rng = np.random.default_rng(3)
        checked = [0] * 5
        cyclic = 0
        for g in _tree_key_graphs():
            for work in _deletion_states(g, rng):
                for depth in range(1, 5):
                    for v in work.alive_nodes():
                        cone = extract_lightcone(work, v, depth)
                        key = tree_key(work, v, depth)
                        assert (key is None) == (not cone.is_tree), (v, depth)
                        if cone.is_tree:
                            assert key == canonical_key(cone), (v, depth)
                            checked[depth] += 1
                        else:
                            cyclic += 1
        assert min(checked[1:]) > 1000 and cyclic > 1000
        # the star's hub seen from a leaf has 89 leaf children
        assert tree_key(_star(90), 1, 2) == b"T\x02((" + b"()" * 89 + b"))"

    def test_tree_cone_stays_a_tree(self):
        # deletions only shrink a cone, and what is left of a tree is a tree
        rng = np.random.default_rng(5)
        for g in _tree_key_graphs():
            for depth in range(1, 5):
                trees = set()
                for work in _deletion_states(g, rng):
                    for v in work.alive_nodes():
                        tree = extract_lightcone(work, v, depth).is_tree
                        assert tree or v not in trees, (v, depth)
                        if tree:
                            trees.add(v)
                assert trees

    def test_known_walk_on_every_cone_that_was_a_tree(self):
        # the solver flags a node once its cone is a tree, and keys it with
        # the unchecked walk at every later state
        rng = np.random.default_rng(7)
        checked = [0] * 5
        for g in _tree_key_graphs():
            for depth in range(1, 5):
                known = set()
                for work in _deletion_states(g, rng):
                    alive = work.alive_nodes()
                    for v in alive:
                        if v in known:
                            key = canonical_key(extract_lightcone(work, v, depth))
                            assert tree_key(work, v, depth, known=True) == key, (
                                v, depth)
                            checked[depth] += 1
                    known.update(v for v in alive
                                 if tree_key(work, v, depth) is not None)
        assert min(checked[1:]) > 1000

    @pytest.mark.parametrize("depth, root", [(2, 2), (3, 301)])
    def test_known_walk_codes_any_degree(self, depth, root):
        # a 300-leaf star with a tail 1-301: seen from leaf 2 at depth 2, or
        # from the tail's end at depth 3, the hub sits one shell inside the
        # outermost and is coded from its alive degree, 300
        g = Graph(302, [(0, i) for i in range(1, 301)] + [(1, 301)])
        key = b"T" + bytes([depth]) + b"(" * depth + b"()" * 299 + b")" * depth
        assert tree_key(g, root, depth, known=True) == key
        assert tree_key(g, root, depth) == key
        assert canonical_key(extract_lightcone(g, root, depth)) == key

    @pytest.mark.parametrize("edges, tree", [
        # two shell-1 vertices share an outermost one
        ([(0, 1), (0, 2), (1, 3), (2, 3)], False),
        # an edge joins two shell-1 vertices
        ([(0, 1), (0, 2), (1, 2)], False),
        # an edge joins two outermost vertices: not causal, still a tree
        ([(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)], True),
    ])
    def test_depth2_cycle_check(self, edges, tree):
        g = Graph(max(max(e) for e in edges) + 1, edges)
        key = tree_key(g, 0, 2)
        if tree:
            assert key == canonical_key(extract_lightcone(g, 0, 2))
        else:
            assert key is None


class TestKeySize:
    """key_size reads a cone's vertex count back from its key bytes."""

    def test_canonical_keys(self):
        # the census cones at p <= 2 (a01 checks p = 3) and cones a random
        # deletion run extracts at p = 1..4
        cones = [c for p in (1, 2) for c in enumerate_cones(p)[1]]
        rng = np.random.default_rng(4)
        for work in _deletion_states(generate_regular(30, 3, 4), rng):
            for depth in range(1, 5):
                cones += [extract_lightcone(work, v, depth)
                          for v in work.alive_nodes()]
        kinds = set()
        for cone in cones:
            key = canonical_key(cone)
            assert key_size(key) == cone.size, key
            kinds.add((cone.depth, key[:1]))
        assert kinds == {(1, b"T")} | {(p, kind) for p in (2, 3, 4)
                                        for kind in (b"T", b"G")}

    def test_tree_keys(self):
        rng = np.random.default_rng(6)
        checked = 0
        for g in (generate_regular(60, 3, 0), _star(90)):
            for work in _deletion_states(g, rng):
                for depth in range(1, 5):
                    for v in work.alive_nodes():
                        cone = extract_lightcone(work, v, depth)
                        if cone.is_tree:
                            key = tree_key(work, v, depth)
                            assert key_size(key) == cone.size, key
                            checked += 1
        assert checked > 500


class TestCanonicalKeys:
    def test_relabeling_invariance_tree(self):
        rng = np.random.default_rng(0)
        cone = extract_lightcone(petersen(), 0, 2)
        k0 = canonical_key(cone)
        for _ in range(10):
            k1 = canonical_key(relabel_cone(cone, rng))
            assert k1 == k0

    def test_relabeling_invariance_nontree(self):
        rng = np.random.default_rng(1)
        cone = extract_lightcone(complete(4), 0, 2)
        k0 = canonical_key(cone)
        assert k0[:1] == b"G"
        for _ in range(10):
            assert canonical_key(relabel_cone(cone, rng)) == k0

    def test_depth_disambiguates(self):
        # same underlying star, different extraction depth: keys must differ
        g = path(3)
        c1 = extract_lightcone(g, 1, 1)
        c2 = extract_lightcone(g, 1, 2)
        assert c1.dists == c2.dists and c1.edges == c2.edges
        assert canonical_key(c1) != canonical_key(c2)

    def test_distinguishes_shapes(self):
        g1 = path(5)
        g2 = path(3)
        k1 = canonical_key(extract_lightcone(g1, 2, 2))
        k2 = canonical_key(extract_lightcone(g2, 1, 2))
        assert k1 != k2

    def test_multi_root_rejected(self):
        # the tree encoder would follow root 0 only, so these three cones of
        # sizes 3, 4 and 5 would all share one key
        for cone in (
            LightCone(1, (0, 0, 1), ((0, 1), (0, 2))),
            LightCone(1, (0, 0, 1, 1), ((0, 1), (0, 2), (1, 3))),
            LightCone(1, (0, 0, 1, 1, 1), ((0, 1), (0, 2), (1, 3), (1, 4))),
            extract_lightcone_multi(complete(4), (0, 1), 2),
            LightCone(1, (1, 0), ((0, 1),)),  # root not at local id 0
        ):
            with pytest.raises(ValueError, match="root"):
                canonical_key(cone)

    def test_cyclic_cone_over_255_vertices_rejected(self):
        # a G key holds each label in one byte; the hub's depth-2 cone has
        # all 301 vertices and the leaf-leaf edge is causal
        g = Graph(301, [(0, i) for i in range(1, 301)] + [(1, 2)])
        with pytest.raises(ValueError, match="limited to 255 vertices"):
            canonical_key(extract_lightcone(g, 0, 2))
        assert tree_key(g, 0, 2) is None

    def test_key_is_kind_depth_and_encoding(self):
        cone = extract_lightcone(complete(4), 0, 2)
        k = canonical_key(cone)
        assert k[:2] == b"G\x02" and key_size(k) == 4

    def test_matches_brute_force_iso(self):
        rng = np.random.default_rng(5)
        cones = []
        for seed in range(30):
            g = random_degree3_graph(rng, 12)
            root = int(rng.integers(12))
            depth = int(rng.integers(1, 3))
            cones.append(extract_lightcone(g, root, depth))
        for i in range(len(cones)):
            for j in range(i, len(cones)):
                same_key = (
                    canonical_key(cones[i]) == canonical_key(cones[j])
                )
                assert same_key == rooted_isomorphic(cones[i], cones[j])

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_relabel_never_changes_key(self, seed):
        rng = np.random.default_rng(seed)
        g = random_degree3_graph(rng, 14)
        cone = extract_lightcone(g, int(rng.integers(14)), 2)
        assert canonical_key(relabel_cone(cone, rng)) == canonical_key(cone)


    def test_cone_from_key_round_trip(self):
        # the rebuilt cone is a member of the key's class, numbered shell by
        # shell with the root at local id 0
        rng = np.random.default_rng(6)
        cones = [c for d in (1, 2) for c in enumerate_cones(d)[1][::3]]
        for _ in range(40):
            g = random_degree3_graph(rng, 16)
            cones.append(extract_lightcone(g, int(rng.integers(16)),
                                           int(rng.integers(1, 4))))
        trees = 0
        for cone in cones:
            key = canonical_key(cone)
            rebuilt = cone_from_key(key)
            assert canonical_key(rebuilt) == key
            assert rooted_isomorphic(rebuilt, cone)
            assert list(rebuilt.dists) == sorted(rebuilt.dists)
            trees += cone.is_tree
        assert 0 < trees < len(cones)
        with pytest.raises(ValueError):
            cone_from_key(b"X\x02()")

# rooted at node 0; C5xk is k 5-cycles sharing the root
_SYMMETRIC = {
    "petersen": petersen(),
    "Q3": hypercube(3),
    "Q4": hypercube(4),
    "Q5": hypercube(5),
    "K33": complete_bipartite(3),
    "K44": complete_bipartite(4),
    "K55": complete_bipartite(5),
    "C5x4": pentagon_flower(4),
    "C5x5": pentagon_flower(5),
}


class TestHighSymmetryKeys:
    """Vertex-transitive and flower cores, where every branch of the key
    search looks alike and only automorphism pruning keeps it small."""

    # the most refinements one key may take: the pruned search needs at most
    # 68 (K55), the unpruned one 206 to 6331 on Q5, K44, K55 and the
    # flowers at depth 3; a count, unlike a time, holds on any machine
    MAX_REFINES = 100

    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("name", list(_SYMMETRIC))
    def test_relabel_keeps_key_and_search_stays_pruned(
        self, monkeypatch, name, depth
    ):
        cone = extract_lightcone(_SYMMETRIC[name], 0, depth)
        refines = []
        plain = qgreedy.cones._refine

        def refine(*args):
            refines.append(1)
            return plain(*args)

        monkeypatch.setattr(qgreedy.cones, "_refine", refine)
        key = canonical_key(cone)
        assert len(refines) <= self.MAX_REFINES
        rng = np.random.default_rng(depth)
        for _ in range(5):
            assert canonical_key(relabel_cone(cone, rng)) == key

    def test_k33_and_prism_differ(self):
        # both 3-regular on 6 nodes; the prism has triangles, K3,3 does not
        a = extract_lightcone(k33(), 0, 2)
        b = extract_lightcone(prism(), 0, 2)
        assert a.size == b.size and not a.is_tree and not b.is_tree
        assert canonical_key(a) != canonical_key(b)
        assert not rooted_isomorphic(a, b)


class TestKeyDigest:
    def test_deterministic_and_distinct(self):
        a = key_digest(b"abc")
        assert a == key_digest(b"abc")
        assert a != key_digest(b"abd")
        assert 0 <= a < 2**64


class TestCensus:
    def test_depth1_shapes(self):
        report, cones = enumerate_cones(1)
        assert (report.total, report.trees, report.nontrees) == (4, 4, 0)
        # the four cones are exactly the stars of root degree 0..3
        degs = sorted(c.in_degrees()[0] for c in cones)
        assert degs == [0, 1, 2, 3]

    def test_depth2_counts(self):
        report, cones = enumerate_cones(2)
        assert (report.total, report.trees, report.nontrees) == (75, 20, 55)
        keys = {canonical_key(c) for c in cones}
        assert len(keys) == 75  # all distinct

    def test_extracted_cones_are_enumerated(self):
        # every cone realized by a bounded-degree residual graph must appear
        report, cones = enumerate_cones(2)
        table = {canonical_key(c) for c in cones}
        rng = np.random.default_rng(9)
        for trial in range(40):
            g = generate_regular(24, 3, int(rng.integers(10**6)))
            for _ in range(int(rng.integers(0, 4))):
                g.remove_closed_neighborhood(int(rng.choice(g.alive_nodes())))
            for v in g.alive_nodes():
                cone = extract_lightcone(g, v, 2)
                assert canonical_key(cone) in table

    def test_unsupported_depth_rejected(self):
        with pytest.raises(ValueError):
            enumerate_cones(4)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_ids_are_numbered_shell_by_shell(self, depth):
        # the root is id 0 and no vertex is numbered before a nearer one
        for cone in enumerate_cones(depth)[1]:
            assert cone.dists[0] == 0
            assert list(cone.dists) == sorted(cone.dists), cone

    # census_digest of the p = 1 and p = 2 censuses together, pinned when
    # the census still grew shell by shell (a01 pins p = 3)
    CENSUS_DIGEST = (
        "0adf18f7adb1c160505e2040b2b45b1bc21be5d24f9a430ca514a6f5776465a0"
    )

    def test_classes_match_pinned_digest(self):
        cones = enumerate_cones(1)[1] + enumerate_cones(2)[1]
        assert census_digest(cones) == self.CENSUS_DIGEST


class TestTreeBallSize:
    def test_degree3_values(self):
        assert [tree_ball_size(p, 3) for p in (1, 2, 3, 4)] == [4, 10, 22, 46]

    def test_degree2_path(self):
        assert tree_ball_size(3, 2) == 7
