import contextlib
import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

import qgreedy.solver
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    complete,
    k33,
    parse_trace,
    petersen,
    random_graph,
    reference_loop,
)
from qgreedy.angles import load_default_angles
from qgreedy.cones import canonical_key, extract_lightcone, tree_key
from qgreedy.engines import MAX_SHOTS, ExpectationCache
from qgreedy.errors import NodeLimitExceeded
from qgreedy.graph import Graph, generate_regular, is_independent
from qgreedy.noise import NoiseParams
from qgreedy.solver import (
    SolverConfig,
    _make_advice,
    format_trace,
    resolve_delta,
    solve_classical_greedy,
    solve_exact,
    solve_quantum_greedy,
    worst_case_bound,
)


class TestExact:
    def test_named_graphs(self):
        assert len(solve_exact(complete(4))) == 1
        assert len(solve_exact(k33())) == 3
        assert len(solve_exact(petersen())) == 4

    def test_outputs_are_independent(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(1, 16)))
            s = solve_exact(g)
            assert is_independent(g, s)

    def test_respects_alive_mask(self):
        g = petersen()
        g.remove_closed_neighborhood(0)
        s = solve_exact(g)
        assert is_independent(g, s)
        assert all(g.alive[v] for v in s)

    def test_node_limit(self):
        with pytest.raises(NodeLimitExceeded):
            solve_exact(generate_regular(50, 3, 0), node_limit=40)

    def test_beats_greedy_never(self):
        # greedy can never exceed the exact optimum
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = random_graph(rng, 14)
            exact = len(solve_exact(g))
            greedy = solve_classical_greedy(g, seed=1).set_size
            assert greedy <= exact


class TestClassicalGreedy:
    def test_star_collects_leaves(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        trace = solve_classical_greedy(g, seed=0)
        assert trace.set_size == 3
        assert 0 not in trace.order

    def test_single_node(self):
        trace = solve_classical_greedy(Graph(1, []), seed=0)
        assert trace.set_size == 1
        assert trace.ratio == 1.0

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            solve_classical_greedy(Graph(0, []))

    def test_seed_determinism(self):
        g = generate_regular(60, 3, 3)
        a = solve_classical_greedy(g, seed=5)
        b = solve_classical_greedy(g, seed=5)
        assert a.order == b.order

    def test_classical_values_are_degrees(self):
        g = generate_regular(20, 3, 1)
        trace = solve_classical_greedy(g, seed=0)
        assert trace.steps[0].value == 3.0
        assert all(s.key_hex == "-" for s in trace.steps)

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 25))
    @settings(max_examples=50, deadline=None)
    def test_output_valid_and_exhaustive(self, seed, n):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n)
        trace = solve_classical_greedy(g, seed=seed)
        assert is_independent(g, trace.order)
        # every node is removed exactly once across the run
        assert sum(s.removed for s in trace.steps) == n


class TestQuantumGreedy:
    def test_single_node(self, sched_p1):
        trace = solve_quantum_greedy(Graph(1, []), SolverConfig(schedule=sched_p1))
        assert trace.set_size == 1
        assert trace.ratio == 1.0

    def test_k4_p2_picks_one(self, sched_p2):
        trace = solve_quantum_greedy(complete(4), SolverConfig(schedule=sched_p2))
        assert trace.set_size == 1
        assert trace.ratio == 0.25
        assert trace.steps[0].removed == 4

    def test_p1_matches_classical_matched_seed(self, sched_p1):
        for seed in range(4):
            g = generate_regular(40, 3, seed + 100)
            q = solve_quantum_greedy(
                g, SolverConfig(schedule=sched_p1, seed=seed)
            )
            c = solve_classical_greedy(g, seed=seed)
            assert q.order == c.order
            assert [s.removed for s in q.steps] == [s.removed for s in c.steps]

    def test_incremental_equals_full(self, sched_p2, cache_p2):
        for seed in range(3):
            g = generate_regular(50, 3, seed + 7)
            inc = solve_quantum_greedy(
                g, SolverConfig(schedule=sched_p2, seed=seed), cache_p2
            )
            with reference_loop(full_recompute=True):
                full = solve_quantum_greedy(
                    g, SolverConfig(schedule=sched_p2, seed=seed), cache_p2
                )
            assert inc.order == full.order
            assert [s.value for s in inc.steps] == [s.value for s in full.steps]

    def test_shot_advice_deterministic(self, sched_p1):
        g = generate_regular(30, 3, 11)
        cfg = SolverConfig(schedule=sched_p1, advice="shots", shots=64, seed=3,
                           delta=None)
        a = solve_quantum_greedy(g, cfg)
        b = solve_quantum_greedy(g, cfg)
        assert a.order == b.order
        assert [s.value for s in a.steps] == [s.value for s in b.steps]

    def test_noise_advice_deterministic(self, sched_p1):
        g = generate_regular(30, 3, 12)
        noise = NoiseParams(eta=0.05, alpha=-0.02, sigma=0.03, seed=9)
        cfg = SolverConfig(schedule=sched_p1, advice="noise", noise=noise,
                           seed=3, delta=None)
        a = solve_quantum_greedy(g, cfg)
        b = solve_quantum_greedy(g, cfg)
        assert a.order == b.order

    def test_outputs_always_independent(self, sched_p1):
        rng = np.random.default_rng(21)
        for _ in range(15):
            g = random_graph(rng, int(rng.integers(1, 20)))
            cfg = SolverConfig(schedule=sched_p1, seed=int(rng.integers(100)))
            trace = solve_quantum_greedy(g, cfg)
            assert is_independent(g, trace.order)
            assert sum(s.removed for s in trace.steps) == g.n

    def test_trace_independent_of_cache_history(self, sched_p2):
        # a class's value is its own, not that of whichever isomorphic cone
        # reached a shared cache first (at delta 0 an ulp can flip a pick)
        g = generate_regular(40, 3, 42)
        cfg = SolverConfig(schedule=sched_p2, seed=0, delta=0.0)
        fresh = format_trace(
            solve_quantum_greedy(g, cfg, ExpectationCache(sched_p2))
        )
        filled = ExpectationCache(sched_p2)
        for seed in range(5):
            solve_quantum_greedy(generate_regular(60, 3, seed),
                                 SolverConfig(schedule=sched_p2, seed=seed),
                                 filled)
        assert format_trace(solve_quantum_greedy(g, cfg, filled)) == fresh

    def test_p4_solve_completes(self):
        # every cone here was over the contraction budget on its unpruned
        # circuit; pruned, p=4 contracts well inside it
        g = generate_regular(30, 3, 1)
        schedule = load_default_angles(4).schedule
        trace = solve_quantum_greedy(g, SolverConfig(schedule=schedule))
        assert is_independent(g, trace.order)
        chosen = set(trace.order)
        assert all(v in chosen or any(u in chosen for u in g.neighbors_alive(v))
                   for v in range(g.n))

    def test_trace_records_canonical_keys(self, sched_p1):
        from qgreedy.cones import canonical_key, extract_lightcone

        g = generate_regular(10, 3, 0)
        trace = solve_quantum_greedy(g, SolverConfig(schedule=sched_p1))
        first = trace.steps[0]
        expect = canonical_key(extract_lightcone(g, first.node, 1)).hex()
        assert first.key_hex == expect


def _grid_traces(sched_p1, sched_p2):
    """(advice source, trace) for p=1,2 x ideal/shot/noise x delta
    0/auto/0.05 x incremental/full, in that order; the full cells run the
    reference loop in its full-recompute mode."""
    noise = NoiseParams(eta=0.05, alpha=-0.02, sigma=0.03, seed=9)
    advice = [
        {},
        {"advice": "shots", "shots": 64},
        {"advice": "noise", "noise": noise},
    ]
    runs = {
        1: (sched_p1, None, generate_regular(60, 3, 41)),
        # one cache for the p=2 solves of the grid
        2: (sched_p2, ExpectationCache(sched_p2), generate_regular(40, 3, 42)),
    }
    grid = itertools.product(
        (1, 2), advice, (0.0, None, 0.05), (False, True)
    )
    for idx, (depth, extra, delta, full) in enumerate(grid):
        sched, cache, g = runs[depth]
        cfg = SolverConfig(schedule=sched, delta=delta, seed=idx, **extra)
        with (reference_loop(full_recompute=True) if full
              else contextlib.nullcontext()):
            trace = solve_quantum_greedy(g, cfg, cache)
        yield cfg.advice, trace


def _sparse_traces(sched_p1, sched_p2):
    """(advice source, trace) for classical solves, then quantum solves on
    sparse graphs; classical solves have source "classical"."""
    rng = np.random.default_rng(43)
    regular = [generate_regular(n, 3, 43 + n) for n in (40, 200)]
    sparse = [random_graph(rng, n, 2.0 / n) for n in (30, 60, 120)]
    # every sparse graph starts with degree-0 nodes, which rank by advice
    assert all(any(not s.adj[i] for i in range(s.n)) for s in sparse)
    for idx, g in enumerate(regular + sparse):
        yield "classical", solve_classical_greedy(g, seed=idx)
    noise = NoiseParams(eta=0.05, alpha=-0.02, sigma=0.03, seed=9)
    advice = [
        {},
        {"advice": "shots", "shots": 64},
        {"advice": "noise", "noise": noise},
    ]
    runs = {
        1: (sched_p1, None),
        2: (sched_p2, ExpectationCache(sched_p2)),  # see _grid_traces
    }
    grid = itertools.product((1, 2), advice, (0.0, None, 0.05), sparse)
    for idx, (depth, extra, delta, g) in enumerate(grid):
        sched, cache = runs[depth]
        cfg = SolverConfig(schedule=sched, delta=delta, seed=idx, **extra)
        yield cfg.advice, solve_quantum_greedy(g, cfg, cache)


def _picks(trace) -> str:
    """A trace without its values: node order, cone keys and set size."""
    lines = [f"{s.node} {s.key_hex}" for s in trace.steps]
    return "\n".join(lines) + f"\nset_size {trace.set_size}\n"


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def _by_mode(runs) -> dict:
    """{advice source: its traces in run order} from (source, trace) pairs."""
    groups = {}
    for mode, trace in runs:
        groups.setdefault(mode, []).append(trace)
    return groups


class TestTreeCones:
    """Tree cones are keyed off the alive graph; only cyclic ones are built."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_warm_resolve_extracts_under_half_of_its_cones(
        self, sched_p2, monkeypatch, seed
    ):
        g = generate_regular(2000, 3, seed)
        cfg = SolverConfig(schedule=sched_p2, seed=seed)
        cache = ExpectationCache(sched_p2)
        fill = solve_quantum_greedy(g, cfg, cache)
        extracted, read = [], []
        plain_get = ExpectationCache.get

        def extract(work, i, depth):
            cone = extract_lightcone(work, i, depth)
            extracted.append(cone)
            return cone

        def get(self, key_data):
            read.append(key_data)
            return plain_get(self, key_data)

        monkeypatch.setattr(qgreedy.solver, "extract_lightcone", extract)
        monkeypatch.setattr(ExpectationCache, "get", get)
        warm = solve_quantum_greedy(g, cfg, cache)
        assert format_trace(warm) == format_trace(fill)
        # a tree cone is never built, and trees are nearly all of them
        assert extracted and not any(cone.is_tree for cone in extracted)
        assert len(extracted) < 0.02 * len(read)

    @pytest.mark.parametrize("depth", [2, 3])
    def test_tree_cones_are_checked_once_per_node(self, monkeypatch, depth):
        # after the first tree key, a node is keyed by the unchecked walk
        g = generate_regular(400, 3, 2)
        cfg = SolverConfig(schedule=load_default_angles(depth).schedule)
        calls = []

        def key(work, i, d, known=False):
            found = tree_key(work, i, d, known)
            calls.append((i, bool(known), found is not None))
            return found

        monkeypatch.setattr(qgreedy.solver, "tree_key", key)
        solve_quantum_greedy(g, cfg)
        tree = set()
        for i, known, found in calls:
            assert known == (i in tree), i
            if found:
                tree.add(i)
        assert sum(known for _, known, _ in calls) > 0.4 * len(calls)

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("filled", [False, True])
    def test_cache_for_another_schedule_fails_before_any_pick(
        self, monkeypatch, depth, filled
    ):
        schedule = load_default_angles(depth).schedule
        other = dataclasses.replace(
            schedule, gammas=tuple(x + 0.1 for x in schedule.gammas)
        )
        g = generate_regular(30, 3, 4)
        cfg = SolverConfig(schedule=schedule)
        wrong = ExpectationCache(other)
        if filled:
            # holds every key the solve reads, so only the check can stop it
            right = ExpectationCache(schedule)
            solve_quantum_greedy(g, cfg, right)
            wrong._store.update(right._store)
        removed = []
        plain_remove = Graph.remove_closed_neighborhood

        def remove(self, i):
            removed.append(i)
            return plain_remove(self, i)

        monkeypatch.setattr(Graph, "remove_closed_neighborhood", remove)
        with pytest.raises(ValueError, match="different angle schedule"):
            solve_quantum_greedy(g, cfg, wrong)
        assert removed == []


class TestTraceDigest:
    """Selection is pinned byte for byte: any change to the loop, the advice
    sources or the cone layers that alters a pick, value or key shows here.
    The grid crosses depth, advice source, delta (0, auto, fixed) and
    incremental versus full recomputation.  Each advice source has its own
    digests, so a change that moves one source re-pins only its entry.  The
    pick digests leave the values out, so they hold across engine changes
    that move a value by an ulp but flip no pick."""

    # SHA-256 over each source's format_trace texts, in grid order
    DIGEST = {
        "ideal": "e06ab8e1ddb9ad40c71218f6169d9f2bf51d8b742222f02f916fa79c5abf5da7",
        "shots": "1484d480fb309584388a31414c81e4ea82ff123c34096cdc4ef8f1ccb558234d",
        "noise": "00f849656a0b4731de50c4328fa7634ebf8e580865b8d25c9b2dded99f38535e",
    }
    # SHA-256 over the same traces' picks (see _picks)
    PICK_DIGEST = {
        "ideal": "7e4baff774e85c5dc02d45a40d6911188e7d8bd39e2975a69bbb1f96f647c086",
        "shots": "b1e4ab7aa87d9ddcae160ea8e2c87082fccdfaaad7d78a84ef6d73ae3ab32b4e",
        "noise": "8a54440681cecf80259016d8d9984709e4e10babaedb7668b382784bacc820b7",
    }

    @pytest.fixture(scope="class")
    def grid(self, sched_p1, sched_p2):
        return _by_mode(_grid_traces(sched_p1, sched_p2))

    @pytest.fixture(scope="class")
    def sparse(self, sched_p1, sched_p2):
        return _by_mode(_sparse_traces(sched_p1, sched_p2))

    @pytest.mark.parametrize("mode", ["ideal", "shots", "noise"])
    def test_grid_digest(self, grid, mode):
        assert _digest(format_trace(t) for t in grid[mode]) == self.DIGEST[mode]

    @pytest.mark.parametrize("mode", ["ideal", "shots", "noise"])
    def test_grid_pick_digest(self, grid, mode):
        assert _digest(_picks(t) for t in grid[mode]) == self.PICK_DIGEST[mode]

    # the same over the classical texts and the sparse-graph quantum texts
    SPARSE_DIGEST = {
        "classical": "784f32edcf5f7f6633593cde51f858215c368aa904b7ddaba2f09d61c79b63c6",
        "ideal": "4a853e7c145f18f32c75cd7482740f10a3fd842a3fc2c2b87ea8b5e74b92fd0f",
        "shots": "bf02b9eb9cf899dd47b51d2e674bcbf0158a4a57718e399e117c0f2c6e014f94",
        "noise": "4071a218f93dfdc192386046ef0e3b96fea88aab14eb69d8f2bcb29f3da88cb2",
    }
    SPARSE_PICK_DIGEST = {
        "classical": "a05ab00f410b64fa6e1be694c7adbcddc84fa8ba4470dbcd51a478c195dcda25",
        "ideal": "ad9222973747a778bfa2d1b3cff424d00a6b0a34383f01ab92205c0dc97a7926",
        "shots": "08342a96c6e67024d69158d8028f17e9635dc038fb0e51702f7b07c72335a56a",
        "noise": "d2975fd80002b1398b3b73a3dfcc8598be65dc83bbef8564cb57746891c08a21",
    }

    @pytest.mark.parametrize("mode", ["classical", "ideal", "shots", "noise"])
    def test_classical_and_isolated_digest(self, sparse, mode):
        texts = (format_trace(t) for t in sparse[mode])
        assert _digest(texts) == self.SPARSE_DIGEST[mode]

    @pytest.mark.parametrize("mode", ["classical", "ideal", "shots", "noise"])
    def test_classical_and_isolated_pick_digest(self, sparse, mode):
        texts = (_picks(t) for t in sparse[mode])
        assert _digest(texts) == self.SPARSE_PICK_DIGEST[mode]


@st.composite
def bounded_graphs(draw, max_n=40, max_degree=4):
    """A graph of at most ``max_n`` nodes and degree at most ``max_degree``,
    isolated nodes allowed: drawn pairs that would break a bound are
    skipped."""
    n = draw(st.integers(1, max_n))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    deg = [0] * n
    edges = set()
    for a, b in pairs:
        a, b = min(a, b), max(a, b)
        if a != b and (a, b) not in edges and max(deg[a], deg[b]) < max_degree:
            edges.add((a, b))
            deg[a] += 1
            deg[b] += 1
    return Graph(n, sorted(edges))


class TestReferenceLoop:
    """The greedy loop gives the same trace as the loop it replaced
    (``helpers.reference_greedy``, kept verbatim), for either score, every
    advice source it was timed on and tie cutoffs, with the reference in
    either recompute mode."""

    @staticmethod
    def _both(solve, full=False):
        with reference_loop(full_recompute=full):
            reference = solve()
        trace = solve()
        assert format_trace(trace) == format_trace(reference)
        assert trace.steps == reference.steps  # the removed counts too

    @given(g=bounded_graphs(), seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_classical(self, g, seed):
        self._both(lambda: solve_classical_greedy(g, seed=seed))

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("advice", [{}, {"advice": "shots", "shots": 64}])
    @given(g=bounded_graphs(), seed=st.integers(0, 2**32),
           delta=st.sampled_from([0.0, 0.02, 0.3]), full=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_quantum(self, sched_p1, sched_p2, cache_p2, depth, advice, g,
                     seed, delta, full):
        sched, cache = (sched_p1, None) if depth == 1 else (sched_p2, cache_p2)
        cfg = SolverConfig(schedule=sched, delta=delta, seed=seed, **advice)
        self._both(lambda: solve_quantum_greedy(g, cfg, cache), full)


def _shot_advice(sched, seed, shots=64):
    cfg = SolverConfig(schedule=sched, advice="shots", shots=shots, seed=seed)
    return _make_advice(cfg)


class TestShotStream:
    """A shot draw depends on (seed, node, cone key) and nothing else: not
    on the draws before it, nor on which closure makes it."""

    @pytest.fixture(scope="class")
    def keys(self):
        g = generate_regular(40, 3, 5)
        keys = {canonical_key(extract_lightcone(g, i, 2)) for i in range(g.n)}
        g.remove_closed_neighborhood(0)
        keys |= {canonical_key(extract_lightcone(g, i, 2))
                 for i in g.alive_nodes()}
        return sorted(keys)

    def test_call_order_does_not_matter(self, sched_p1, keys):
        rng = np.random.default_rng(0)
        calls = [(int(rng.integers(1000)), float(rng.uniform(-1, 1)),
                  keys[int(rng.integers(len(keys)))]) for _ in range(300)]
        calls += calls[:20]  # a triple drawn twice by one closure
        fresh = [_shot_advice(sched_p1, 3)(*call) for call in calls]
        advice = _shot_advice(sched_p1, 3)
        order = rng.permutation(len(calls))
        shuffled = {int(i): advice(*calls[i]) for i in order}
        assert [shuffled[i] for i in range(len(calls))] == fresh

    def test_seed_node_and_key_each_move_the_draw(self, sched_p1, keys):
        shots = 2**20  # wide enough that two streams never agree by chance
        base = _shot_advice(sched_p1, 4, shots)
        other_seed = _shot_advice(sched_p1, 5, shots)
        for key, next_key in zip(keys, keys[1:]):
            draw = base(7, 0.0, key)
            assert draw != other_seed(7, 0.0, key)
            assert draw != base(8, 0.0, key)
            assert draw != base(7, 0.0, next_key)

    def test_field_boundaries_are_kept(self, sched_p1, keys):
        # triples that one naive concatenation of their digits would merge
        shots = 2**20
        key = keys[0]
        digit_key = b"3" + key
        one = _shot_advice(sched_p1, 1, shots)
        twelve = _shot_advice(sched_p1, 12, shots)
        x = 0.0
        assert one(23, x, key) != twelve(3, x, key)
        assert one(2, x, digit_key) != one(23, x, key)
        # seeds past 64 bits draw, and differ from their neighbours
        big = [_shot_advice(sched_p1, s, shots)(5, x, key)
               for s in (2**64 - 1, 2**64, 2**64 + 1, 2**100)]
        assert len(set(big)) == len(big)

    def test_seed_beyond_64_bits_solves(self, sched_p1):
        g = generate_regular(30, 3, 11)
        cfg = SolverConfig(schedule=sched_p1, advice="shots", shots=64,
                           seed=2**64 + 3)
        trace = solve_quantum_greedy(g, cfg)
        assert is_independent(g, trace.order)
        assert solve_quantum_greedy(g, cfg).steps == trace.steps

    def test_draws_are_unbiased_with_binomial_variance(self, sched_p1, keys):
        # at ideal 0 each draw has mean 0 and variance exactly 1/shots
        shots, n = 64, 2000
        advice = _shot_advice(sched_p1, 9, shots)
        errors = np.array([advice(node, 0.0, keys[node % len(keys)])
                           for node in range(n)])
        assert abs(errors.mean()) < 4 * math.sqrt(1 / (shots * n))
        assert 0.9 / shots <= errors.var() <= 1.1 / shots


class TestSolverConfig:
    def test_advice_validation(self, sched_p1):
        with pytest.raises(ValueError):
            SolverConfig(schedule=sched_p1, advice="psychic")
        with pytest.raises(ValueError):
            SolverConfig(schedule=sched_p1, advice="shots", shots=0)
        with pytest.raises(ValueError):
            SolverConfig(schedule=sched_p1, advice="noise")
        with pytest.raises(ValueError):
            SolverConfig(schedule=sched_p1, delta=-0.1)

    def test_shots_above_limit_rejected(self, sched_p1):
        # a shot count past MAX_SHOTS used to overflow inside the sampler
        assert SolverConfig(schedule=sched_p1, advice="shots",
                            shots=MAX_SHOTS).shots == MAX_SHOTS
        for shots in (MAX_SHOTS + 1, 10**20):
            with pytest.raises(ValueError, match=f"MAX_SHOTS = {MAX_SHOTS}"):
                SolverConfig(schedule=sched_p1, advice="shots", shots=shots)

    def test_nan_delta_rejected(self, sched_p1):
        # NaN passes a "< 0" check; with it every value would count as tied
        for delta in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="delta"):
                SolverConfig(schedule=sched_p1, delta=delta)

    def test_negative_seed_rejected(self, sched_p1):
        with pytest.raises(ValueError, match="seed"):
            SolverConfig(schedule=sched_p1, seed=-5)

    def test_delta_defaults_to_auto(self, sched_p1):
        assert SolverConfig(schedule=sched_p1).delta is None
        shots = SolverConfig(schedule=sched_p1, advice="shots", shots=16)
        assert resolve_delta(shots) == pytest.approx(0.23163617, abs=1e-6)

    def test_delta_auto_resolution(self, sched_p1):
        ideal = SolverConfig(schedule=sched_p1, delta=None)
        assert resolve_delta(ideal) == 0.0
        shots = SolverConfig(schedule=sched_p1, delta=None, advice="shots",
                             shots=16)
        assert resolve_delta(shots) == pytest.approx(0.23163617, abs=1e-6)
        fixed = SolverConfig(schedule=sched_p1, delta=0.125)
        assert resolve_delta(fixed) == 0.125

    def test_depth_property(self, sched_p2):
        assert SolverConfig(schedule=sched_p2).depth == 2


class TestWorstCaseBound:
    def test_frozen_values(self):
        assert worst_case_bound(3) == pytest.approx(0.6)
        assert worst_case_bound(1) == pytest.approx(1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            worst_case_bound(0)

    def test_greedy_respects_bound_on_regular(self):
        # the bound is relative to the optimum, not to the node count
        for seed in range(10):
            g = generate_regular(30, 3, seed)
            trace = solve_classical_greedy(g, seed=seed)
            opt = len(solve_exact(g))
            assert trace.set_size / opt >= worst_case_bound(3) - 1e-12


class TestTraceFormat:
    def test_round_trip_quantum(self, sched_p1):
        g = generate_regular(14, 3, 2)
        trace = solve_quantum_greedy(g, SolverConfig(schedule=sched_p1, seed=1))
        parsed = parse_trace(format_trace(trace))
        assert parsed["order"] == trace.order
        assert parsed["set_size"] == trace.set_size
        assert parsed["ratio"] == pytest.approx(trace.ratio)

    def test_round_trip_classical(self):
        trace = solve_classical_greedy(generate_regular(14, 3, 2), seed=1)
        parsed = parse_trace(format_trace(trace))
        assert parsed["keys"] == ["-"] * trace.set_size

    def test_footer_mismatch_rejected(self):
        with pytest.raises(ValueError):
            parse_trace("0 3 1.5 ab\nset_size 2 ratio 0.5\n")

    def test_missing_footer_rejected(self):
        with pytest.raises(ValueError):
            parse_trace("0 3 1.5 ab\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_trace("0 3 1.5\nset_size 1 ratio 0.5\n")
