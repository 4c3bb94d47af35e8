import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgreedy
from helpers import (
    complete,
    energy,
    energy_pauli,
    path,
    petersen,
    random_graph,
    reference_ball,
)
from qgreedy.errors import RestartBudgetExceeded
from qgreedy.graph import (
    Graph,
    IsingParams,
    generate_regular,
    is_independent,
    read_edge_list,
    write_edge_list,
)


def brute_energy(g: Graph, lam: float, bits) -> float:
    """Independent re-derivation: count conflicts and occupied nodes directly."""
    occ = sum(1 for i in range(g.n) if g.alive[i] and bits[i])
    conf = sum(1 for u, v in g.edges_alive() if bits[u] and bits[v])
    return lam * conf - occ


class TestIsingParams:
    def test_coefficients(self):
        p = IsingParams(2.0)
        assert p.coupling == 0.5
        assert p.field(3) == 1.0
        assert p.field(0) == -0.5
        assert p.offset(3) == 0.25
        assert p.offset(2) == 0.0

    def test_lam_below_one_rejected(self):
        with pytest.raises(ValueError):
            IsingParams(0.5)
        with pytest.raises(ValueError):
            IsingParams(float("nan"))


class TestGraphConstruction:
    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 5)])

    def test_adjacency_sorted(self):
        g = Graph(4, [(0, 3), (0, 1), (0, 2)])
        assert g.adj[0] == [1, 2, 3]
        assert len(list(g.edges_alive())) == 3


class TestMutation:
    def test_remove_closed_neighborhood(self):
        g = petersen()
        removed = g.remove_closed_neighborhood(0)
        assert sorted(removed) == [0, 1, 4, 5]
        assert g.alive_count == 6
        assert len(list(g.edges_alive())) == 6  # 15 less the 9 it touched
        for v in g.alive_nodes():
            assert g._deg[v] == len(g.neighbors_alive(v))

    def test_remove_decreases_by_closed_degree(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 15)))
            v = int(rng.choice(g.alive_nodes()))
            before = g.alive_count
            deg = len(g.neighbors_alive(v))
            g.remove_closed_neighborhood(v)
            assert g.alive_count == before - 1 - deg

    def test_dead_node_rejected(self):
        g = complete(3)
        g.remove_closed_neighborhood(0)
        with pytest.raises(ValueError):
            g.remove_closed_neighborhood(1)

    def test_copy_isolates_mutation(self):
        g = petersen()
        h = g.copy()
        h.remove_closed_neighborhood(0)
        assert g.alive_count == 10
        assert h.alive_count == 6


def bounded_degree_graph(rng, n: int, max_degree: int, fill: float) -> Graph:
    """Random graph with every degree <= ``max_degree``: each pair, in a
    random order, becomes an edge with probability ``fill`` while both
    ends have room.  Isolated nodes are allowed."""
    deg = [0] * n
    edges = []
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    for k in rng.permutation(len(pairs)):
        a, b = pairs[k]
        if deg[a] < max_degree and deg[b] < max_degree and rng.random() < fill:
            deg[a] += 1
            deg[b] += 1
            edges.append((a, b))
    return Graph(n, edges)


class TestBall:
    # the pick's ball as the greedy loop took it before the deletion
    def test_path_radii(self):
        g = path(5)
        assert reference_ball(g, 2, 0) == [(2, 0)]
        assert reference_ball(g, 2, 1) == [(2, 0), (1, 1), (3, 1)]
        assert reference_ball(g, 2, 2) == [(2, 0), (1, 1), (3, 1), (0, 2), (4, 2)]
        # radius beyond the graph saturates
        assert len(reference_ball(g, 2, 50)) == 5

    def test_ball_respects_alive_mask(self):
        g = path(5)
        g.remove_closed_neighborhood(2)
        assert reference_ball(g, 0, 5) == [(0, 0)]

    # Graph.ball: the walk out from a set of sources
    def test_walk_radii(self):
        g = path(5)
        assert g.ball([2], 0) == []
        assert g.ball([2], 1) == [1, 3]
        assert g.ball([2], 2) == [1, 3, 0, 4]
        assert g.ball([2], 50) == [1, 3, 0, 4]
        assert g.ball([0, 4], 1) == [1, 3]
        # a source reached from another is not returned
        assert g.ball([0, 1], 2) == [2, 3]
        with pytest.raises(ValueError):
            g.ball([2], -1)

    def test_walk_from_dead_sources(self):
        g = path(5)
        removed = g.remove_closed_neighborhood(2)
        assert removed == [2, 1, 3]
        assert g.ball(removed, 0) == []
        assert g.ball(removed, 1) == [0, 4]
        # the walk steps through alive nodes only
        assert g.ball([2], 5) == []
        assert g.ball([1], 5) == [0]

    @given(
        n=st.integers(1, 40),
        max_degree=st.integers(0, 4),
        fill=st.floats(0.0, 1.0),
        depth=st.integers(1, 4),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_walk_from_removed_is_alive_part_of_pick_ball(
        self, n, max_degree, fill, depth, seed
    ):
        # the greedy loop rescores the walk out from the deletion in place
        # of the live part of the pick's depth+1 ball taken before it
        rng = np.random.default_rng(seed)
        g = bounded_degree_graph(rng, n, max_degree, fill)
        while g.alive_count:
            alive = g.alive_nodes()
            pick = alive[int(rng.integers(len(alive)))]
            ball = reference_ball(g, pick, depth + 1)
            removed = g.remove_closed_neighborhood(pick)
            walk = g.ball(removed, depth)
            assert len(set(walk)) == len(walk)
            assert set(walk).isdisjoint(removed)
            assert set(walk) == {v for v, _ in ball if g.alive[v]}


class TestEnergy:
    def test_k4_frozen_values(self):
        g = complete(4)
        p = IsingParams(1.0)
        assert energy(g, p, [1, 1, 1, 1]) == 2.0  # 6 conflicts - 4 occupied
        assert energy(g, p, [1, 0, 0, 0]) == -1.0
        assert energy(g, p, [0, 0, 0, 0]) == 0.0
        assert energy_pauli(g, p, [1, 1, 1, 1]) == pytest.approx(2.0, abs=1e-12)
        assert energy_pauli(g, p, [1, -1, -1, -1]) == pytest.approx(-1.0, abs=1e-12)

    def test_wrong_length_rejected(self):
        g = complete(3)
        with pytest.raises(ValueError):
            energy(g, IsingParams(), [0, 1])
        with pytest.raises(ValueError):
            energy_pauli(g, IsingParams(), [1, 1])

    @given(
        n=st.integers(2, 9),
        edge_seed=st.integers(0, 10**6),
        bits_seed=st.integers(0, 10**6),
        lam=st.floats(1.0, 3.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_two_bases_agree(self, n, edge_seed, bits_seed, lam):
        rng = np.random.default_rng(edge_seed)
        g = random_graph(rng, n)
        bits = np.random.default_rng(bits_seed).integers(0, 2, size=n).tolist()
        spins = [2 * b - 1 for b in bits]
        p = IsingParams(lam)
        assert energy(g, p, bits) == pytest.approx(
            energy_pauli(g, p, spins), abs=1e-12
        )
        assert energy(g, p, bits) == brute_energy(g, lam, bits)

    def test_agreement_survives_deletions(self):
        rng = np.random.default_rng(11)
        g = random_graph(rng, 12)
        g.remove_closed_neighborhood(int(rng.choice(g.alive_nodes())))
        p = IsingParams(1.5)
        for _ in range(30):
            bits = rng.integers(0, 2, size=12).tolist()
            spins = [2 * b - 1 for b in bits]
            assert energy(g, p, bits) == pytest.approx(
                energy_pauli(g, p, spins), abs=1e-12
            )


class TestIsIndependent:
    def test_empty_set_true(self):
        assert is_independent(complete(4), [])

    def test_adjacent_pair_false(self):
        assert not is_independent(complete(4), [0, 1])

    def test_duplicates_false(self):
        assert not is_independent(path(4), [0, 0])

    def test_out_of_range_false(self):
        assert not is_independent(path(4), [0, 9])

    def test_petersen_maximum(self):
        assert is_independent(petersen(), [0, 2, 8, 9])

    def test_generator_input(self):
        # a one-shot iterator must be read once, not once per check
        assert is_independent(path(4), (v for v in [0, 2]))
        assert not is_independent(path(4), (v for v in [0, 1]))


class TestGenerateRegular:
    def test_degrees_and_simplicity(self):
        for seed in range(5):
            g = generate_regular(20, 3, seed)
            assert all(len(g.neighbors_alive(v)) == 3 for v in range(20))
            seen = set()
            for u, v in g.edges_alive():
                assert u != v
                assert (u, v) not in seen
                seen.add((u, v))
            assert len(seen) == 30

    def test_deterministic(self):
        a = generate_regular(50, 3, 7)
        b = generate_regular(50, 3, 7)
        assert list(a.edges_alive()) == list(b.edges_alive())

    def test_zero_degree(self):
        g = generate_regular(5, 0, 0)
        assert list(g.edges_alive()) == []

    def test_parity_rejected(self):
        with pytest.raises(ValueError):
            generate_regular(5, 3, 0)

    def test_degree_bound_rejected(self):
        with pytest.raises(ValueError):
            generate_regular(3, 3, 0)

    def test_restart_budget(self, monkeypatch):
        monkeypatch.setattr(qgreedy.graph, "RESTART_BUDGET", 0)
        with pytest.raises(RestartBudgetExceeded) as exc:
            generate_regular(4, 3, 0)
        assert exc.value.restarts == 0

    # SHA-256 over write_edge_list of every graph in the grid below, pinned
    # when the duplicate check still used np.unique
    EDGE_DIGEST = (
        "2fe56606757a4cf3f25c1eeb8066c692d25090d2ede1b648b34149200346a4bf"
    )

    def test_edge_lists_pinned(self):
        h = hashlib.sha256()
        grid = itertools.product((6, 10, 20, 50, 100, 500), (1, 2, 3, 4), (0, 1, 7))
        for n, d, seed in grid:
            if (n * d) % 2 == 0:
                h.update(write_edge_list(generate_regular(n, d, seed)).encode())
        assert h.hexdigest() == self.EDGE_DIGEST

    def test_leaves_numpy_ma_unloaded(self):
        # numpy.ma costs about 10 ms to import, more than a small graph
        code = (
            "import sys, qgreedy; qgreedy.generate_regular(200, 3, 1); "
            "sys.exit('numpy.ma' in sys.modules)"
        )
        src = str(Path(qgreedy.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestEdgeListFormat:
    def test_round_trip(self):
        g = petersen()
        h = read_edge_list(write_edge_list(g))
        assert h.n == g.n
        assert list(h.edges_alive()) == list(g.edges_alive())

    def test_round_trip_after_deletion(self):
        g = petersen()
        g.remove_closed_neighborhood(0)
        text = write_edge_list(g)
        h = read_edge_list(text)
        assert sorted(h.edges_alive()) == sorted(g.edges_alive())

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError):
            read_edge_list("3 2\n0 1\n")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            read_edge_list("")

    def test_malformed_edge_rejected(self):
        with pytest.raises(ValueError):
            read_edge_list("3 1\n0 1 2\n")


def test_ground_state_is_mis_small():
    # every assignment of a few small graphs: the minimum of the occupation
    # cost is exactly -(MIS size), and some minimizer is independent
    from qgreedy.solver import solve_exact

    for g in (complete(4), path(5), petersen()):
        mis = len(solve_exact(g))
        for lam in (1.0, 2.0):
            p = IsingParams(lam)
            best = min(
                energy(g, p, bits)
                for bits in itertools.product((0, 1), repeat=g.n)
            )
            assert best == pytest.approx(-float(mis), abs=1e-12)
