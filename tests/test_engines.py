import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    complete,
    expectation_p1_edge,
    random_degree3_graph,
    relabel_cone,
    root_cones,
    unpruned_circuit,
)
from qgreedy import engines
from qgreedy.angles import edge_cone, load_default_angles, vertex_cone
from qgreedy.circuits import AngleSchedule, build_circuit
from qgreedy.cones import (
    canonical_key,
    cone_from_key,
    enumerate_cones,
    extract_lightcone,
    extract_lightcone_multi,
)
from qgreedy.engines import (
    MAX_SHOTS,
    ExpectationCache,
    evaluate_cone,
    expectation,
    expectation_contract,
    expectation_p1_analytic,
    expectation_statevector,
    sample_shots,
)
from qgreedy.errors import ContractionBudgetExceeded, StatevectorCapExceeded
from qgreedy.graph import Graph, IsingParams, generate_regular
from qgreedy.solver import SolverConfig, solve_quantum_greedy

def sched(gammas, betas, lam=1.0, degree=3):
    return AngleSchedule(
        depth=len(gammas), degree=degree, lam=lam,
        gammas=tuple(gammas), betas=tuple(betas),
    )


class TestClosedForms:
    # frozen from the shipped depth-1 optimum: advice strictly decreasing in
    # degree, which is what reduces the solver to min-degree greedy
    def test_star_values_at_shipped_optimum(self, sched_p1):
        g1, b1, lam = sched_p1.gammas[0], sched_p1.betas[0], sched_p1.lam
        vals = [
            expectation_p1_analytic(k, (lam * k - 2.0) / 4.0, g1, b1, lam)
            for k in range(4)
        ]
        assert vals[0] == pytest.approx(0.5991689338879815, abs=1e-12)
        assert vals[1] == pytest.approx(0.29958446694399077, abs=1e-12)
        assert vals[2] == pytest.approx(0.0, abs=1e-12)
        assert vals[3] == pytest.approx(-0.2316361722007347, abs=1e-12)
        assert vals == sorted(vals, reverse=True)

    @given(
        gamma=st.floats(-2.0, 2.0),
        beta=st.floats(-2.0, 2.0),
        lam=st.sampled_from([1.0, 2.0]),
        degree=st.integers(0, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_vertex_form_matches_statevector(self, gamma, beta, lam, degree):
        _, cones = enumerate_cones(1)
        cone = next(c for c in cones if c.in_degrees()[0] == degree)
        s = sched((gamma,), (beta,), lam=lam)
        dense = expectation_statevector(unpruned_circuit(cone, s))
        h = (lam * degree - 2.0) / 4.0
        closed = expectation_p1_analytic(degree, h, gamma, beta, lam)
        assert dense == pytest.approx(closed, abs=1e-10)

    @given(
        gamma=st.floats(-2.0, 2.0),
        beta=st.floats(-2.0, 2.0),
        du=st.integers(1, 3),
        dv=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_edge_form_matches_statevector(self, gamma, beta, du, dv):
        # tree cone around one edge with du-1 / dv-1 extra leaves
        edges = [(0, 1)]
        nxt = 2
        for _ in range(du - 1):
            edges.append((0, nxt))
            nxt += 1
        for _ in range(dv - 1):
            edges.append((1, nxt))
            nxt += 1
        from qgreedy.cones import LightCone

        dists = (0, 0) + (1,) * (nxt - 2)
        cone = LightCone(depth=1, dists=dists, edges=tuple(sorted(edges)))
        lam = 1.0
        s = sched((gamma,), (beta,), lam=lam)
        dense = expectation_statevector(unpruned_circuit(cone, s))
        closed = expectation_p1_edge(
            du, dv, (lam * du - 2.0) / 4.0, (lam * dv - 2.0) / 4.0,
            gamma, beta, lam,
        )
        assert dense == pytest.approx(closed, abs=1e-10)


class TestStatevector:
    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(engines, "STATEVECTOR_CAP", 3)
        cone = extract_lightcone(complete(4), 0, 2)
        with pytest.raises(StatevectorCapExceeded):
            expectation_statevector(
                unpruned_circuit(cone, sched((0.1, 0.1), (0.1, 0.1)))
            )

    def test_zero_angles_give_zero(self):
        # |+...+> state: <Z> = 0 exactly
        cone = extract_lightcone(complete(4), 0, 2)
        circ = unpruned_circuit(cone, sched((0.0, 0.0), (0.0, 0.0)))
        assert expectation_statevector(circ) == pytest.approx(0.0, abs=1e-15)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_degree3_graph(rng, 10)
            cone = extract_lightcone(g, 0, 2)
            s = sched(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2))
            v = expectation_statevector(unpruned_circuit(cone, s))
            assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12


class TestContraction:
    def test_agrees_with_statevector_census_sample(self, sched_p2):
        _, cones = enumerate_cones(2)
        for cone in cones[::4]:
            circ = unpruned_circuit(cone, sched_p2)
            assert expectation_contract(circ) == pytest.approx(
                expectation_statevector(circ), abs=1e-12
            )

    def test_edge_observable(self, sched_p2):
        cone = extract_lightcone_multi(complete(4), (0, 1), 2)
        circ = unpruned_circuit(cone, sched_p2)
        assert circ.observable == (0, 1)
        assert expectation_contract(circ) == pytest.approx(
            expectation_statevector(circ), abs=1e-12
        )

    def test_tree_beyond_statevector_cap(self, sched_p3):
        # the depth-3 bulk tree: 22 qubits, trivially contractable
        cone = vertex_cone(3, 3)
        circ = unpruned_circuit(cone, sched_p3)
        v = expectation_contract(circ)
        assert -1.0 <= v <= 1.0
        assert v == pytest.approx(expectation_statevector(circ), abs=1e-10)

    def test_budget_enforced(self, sched_p2, monkeypatch):
        monkeypatch.setattr(engines, "CONTRACTION_BUDGET", 16)
        cone = extract_lightcone(complete(4), 0, 2)
        circ = unpruned_circuit(cone, sched_p2)
        with pytest.raises(ContractionBudgetExceeded):
            expectation_contract(circ)

    def test_high_degree_cone(self, sched_p2):
        # more factors meet at the hub than one einsum takes operands; those
        # on the same variables are multiplied together as they arrive
        star = Graph(81, [(0, k) for k in range(1, 81)])
        for root in (0, 1):
            value = expectation(extract_lightcone(star, root, 2), sched_p2)
            assert -1.0 <= value <= 1.0

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_random_cone_agreement(self, seed):
        rng = np.random.default_rng(seed)
        g = random_degree3_graph(rng, 14)
        cone = extract_lightcone(g, int(rng.integers(14)), 2)
        s = sched(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2))
        circ = unpruned_circuit(cone, s)
        assert expectation_contract(circ) == pytest.approx(
            expectation_statevector(circ), abs=1e-10
        )

    def test_pruned_contraction_matches_dense_oracle(self):
        # the solver's path (contraction on the pruned circuit) against the
        # oracle (dense on the unpruned one), cyclic cones included
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 24:
            p = 2 + checked % 2
            g = random_degree3_graph(rng, 14)
            cones = root_cones(g, int(rng.integers(14)), p)
            s = sched(rng.uniform(-2, 2, p), rng.uniform(-2, 2, p))
            for cone in cones:
                pruned = build_circuit(cone, s)
                full = unpruned_circuit(cone, s)
                assert expectation_contract(pruned) == pytest.approx(
                    expectation_statevector(full), abs=1e-12
                ), (p, cone.dists, cone.edges)
            checked += 1

    # SHA-256 over repr of every value _contraction_values yields
    VALUE_DIGEST = "15d91a36efdcd288536488aeb4d04d401a693378147c6207d67841b094c52c5c"

    def test_value_digest(self):
        # contraction values are pinned bit for bit, on the solver's pruned
        # circuits and the oracle's unpruned ones, so a change to the circuit
        # format or the network built from it cannot move a value unseen
        h = hashlib.sha256()
        for value in _contraction_values():
            h.update(repr(value).encode())
        assert h.hexdigest() == self.VALUE_DIGEST


def _contraction_values():
    """Contraction values over p = 1..3 cones of an N = 30 graph (a
    subnormal gamma, whose couplings round to 0.0, included) and the p = 4
    tree vertex and edge cones, each pruned and unpruned, measuring the
    cone's roots."""
    cases = []
    for p in (1, 2, 3):
        g = generate_regular(30, 3, p)
        s = load_default_angles(p).schedule
        cases += [(extract_lightcone(g, root, p), s) for root in range(30)]
    tiny = dataclasses.replace(
        load_default_angles(2).schedule, gammas=(5e-324, 0.4)
    )
    g = generate_regular(30, 3, 7)
    cases += [(extract_lightcone(g, root, 2), tiny) for root in range(0, 30, 3)]
    s4 = load_default_angles(4).schedule
    cases += [(vertex_cone(4, 3), s4), (edge_cone(4, 3), s4)]
    for cone, s in cases:
        for build in (build_circuit, unpruned_circuit):
            yield expectation_contract(build(cone, s))


def _replay(nb, order):
    """(sum of 4^cluster, largest cluster) of eliminating ``order`` on the
    neighbourhood bitmasks ``nb``."""
    nb = list(nb)
    cost = widest = 0
    for x in order:
        nbrs = nb[x]
        cluster = nbrs.bit_count() + 1
        cost += 4**cluster
        widest = max(widest, cluster)
        for a in range(len(nb)):
            if nbrs >> a & 1:
                nb[a] = (nb[a] | nbrs) & ~(1 << a | 1 << x)
    return cost, widest


class TestEliminationOrder:
    def test_small_graphs(self):
        path = [0b10, 0b101, 0b1010, 0b100]
        assert engines._elimination_order(path) == ([0, 1, 2, 3], 2)
        cycle = [0b1010, 0b0101, 0b1010, 0b0101]
        assert engines._elimination_order(cycle) == ([0, 1, 2, 3], 3)
        # ties go to the lowest id; the input is left as it was
        star = [0b1110, 0b1, 0b1, 0b1]
        assert engines._elimination_order(star) == ([1, 2, 0, 3], 2)
        assert star == [0b1110, 0b1, 0b1, 0b1]

    def test_plan_quality_on_solver_cones(self, monkeypatch):
        # every cone that seeded solves contract; the bounds are this
        # order's measured values (numbering each vertex's slices forward
        # instead gives 8946308 and 8 at p=3, 80445104 and 10 at p=4)
        plans = []
        order = engines._elimination_order

        def recorded(nb):
            plans.append((nb, order(nb)))
            return plans[-1][1]

        monkeypatch.setattr(engines, "_elimination_order", recorded)
        for p, n, seeds, cones, bound, widest in (
            (3, 14, range(20), 597, 3_912_452, 7),
            (4, 60, [0], 432, 79_766_192, 10),
        ):
            plans.clear()
            schedule = load_default_angles(p).schedule
            for s in seeds:
                solve_quantum_greedy(
                    generate_regular(n, 3, s),
                    SolverConfig(schedule=schedule, seed=s),
                    ExpectationCache(schedule),
                )
            assert len(plans) == cones, p
            replayed = [(_replay(nb, o), m) for nb, (o, m) in plans]
            assert all(w == m for (_, w), m in replayed), p
            assert sum(c for (c, _), _ in replayed) <= bound, p
            assert max(m for _, m in replayed) <= widest, p

    def test_budget_checked_before_any_tensor(self, sched_p2, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("a tensor was built")

        monkeypatch.setattr(np, "einsum", built)
        monkeypatch.setattr(engines, "_vertex_factors", built)
        monkeypatch.setattr(engines, "_edge_kernel", built)
        monkeypatch.setattr(engines, "CONTRACTION_BUDGET", 16)
        for cone in root_cones(complete(4), 0, 2):
            circ = build_circuit(cone, sched_p2)
            with pytest.raises(ContractionBudgetExceeded) as err:
                expectation_contract(circ)
            assert err.value.entries > 16


def _words(rng, count):
    """``count`` uniform 64-bit words, the randomness of one shot draw each."""
    return [int(w) for w in rng.integers(2**64, size=count, dtype=np.uint64)]


def _binomial_pmf(shots, ideal):
    p = (1.0 + ideal) / 2.0
    return [math.comb(shots, k) * p**k * (1.0 - p) ** (shots - k)
            for k in range(shots + 1)]


def _counts_with_mass(shots, ideal):
    """Counts whose exact Binomial(shots, (1 + ideal)/2) mass exceeds 2**-64."""
    num, den = ((1.0 + ideal) / 2.0).as_integer_ratio()
    return [k for k in range(shots + 1)
            if math.comb(shots, k) * num**k * (den - num) ** (shots - k) * 2**64
            > den**shots]


class TestSampleShots:
    CASES = [(1, 0.3), (7, 0.9), (64, 0.25), (991, -0.6)]

    def test_extremes_are_exact(self):
        for word in (0, 12345, 2**64 - 1):
            assert sample_shots(1.0, 50, word) == 1.0
            assert sample_shots(-1.0, 50, word) == -1.0

    def test_seed_reproducible(self):
        a = sample_shots(0.3, 100, 42)
        assert a == sample_shots(0.3, 100, 42)
        assert -1.0 <= a <= 1.0

    def test_unbiased(self):
        rng = np.random.default_rng(0)
        draws = [sample_shots(0.25, 64, w) for w in _words(rng, 4000)]
        assert np.mean(draws) == pytest.approx(0.25, abs=0.01)

    @pytest.mark.parametrize("shots, ideal", CASES)
    def test_counts_follow_the_exact_pmf(self, shots, ideal):
        from scipy.stats import chi2

        draws = 20_000
        rng = np.random.default_rng(shots)
        counts = np.zeros(shots + 1)
        for w in _words(rng, draws):
            counts[round((sample_shots(ideal, shots, w) + 1) * shots / 2)] += 1
        # pool neighbouring counts until each bin expects at least 5 draws
        observed, expected, o, e = [], [], 0.0, 0.0
        for k, mass in enumerate(_binomial_pmf(shots, ideal)):
            o, e = o + counts[k], e + draws * mass
            if e >= 5:
                observed.append(o)
                expected.append(e)
                o = e = 0.0
        observed[-1] += o
        expected[-1] += e
        observed, expected = np.array(observed), np.array(expected)
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert chi2.sf(stat, len(expected) - 1) > 1e-3

    @pytest.mark.parametrize("shots, ideal", CASES + [(991, 0.0), (4096, 0.0)])
    def test_extreme_words_give_extreme_counts_with_mass(self, shots, ideal):
        ks = _counts_with_mass(shots, ideal)
        assert sample_shots(ideal, shots, 0) == (2 * ks[0] - shots) / shots
        last = sample_shots(ideal, shots, 2**64 - 1)
        assert last == (2 * ks[-1] - shots) / shots

    def test_table_grows_as_root_of_shots(self):
        shots = 2**20
        for ideal in (0.0, 0.3, -0.9):
            thresholds = engines._shot_table(ideal, shots)[1]
            assert len(thresholds) + 1 < 20 * math.sqrt(shots)
            assert list(thresholds) == sorted(set(thresholds))

    def test_memoized_tables_stay_under_64_mb(self):
        widest = engines._shot_table(0.0, MAX_SHOTS)[1]
        size = widest.itemsize * len(widest)
        assert engines._shot_table.cache_info().maxsize * size < 64 * 2**20

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            sample_shots(1.5, 10, 0)
        with pytest.raises(ValueError):
            sample_shots(0.0, 0, 0)
        with pytest.raises(ValueError, match=str(MAX_SHOTS)):
            sample_shots(0.0, MAX_SHOTS + 1, 0)
        for word in (-1, 2**64):
            with pytest.raises(ValueError, match="word"):
                sample_shots(0.0, 10, word)


def _labelled_copies(cone, rng, count):
    """``cone`` and distinct relabelled copies of it, ``count`` in all."""
    copies = {(cone.dists, cone.edges): cone}
    while len(copies) < count:
        twin = relabel_cone(cone, rng)
        copies.setdefault((twin.dists, twin.edges), twin)
    return list(copies.values())


def _cyclic_cone():
    """A cyclic depth-2 cone of at least 8 vertices."""
    rng = np.random.default_rng(3)
    while True:
        cone = extract_lightcone(random_degree3_graph(rng, 14), 0, 2)
        if not cone.is_tree and cone.size >= 8:
            return cone


class TestCacheAndRouting:
    def test_cache_round_trip(self, sched_p2):
        cache = ExpectationCache(sched_p2)
        cache._store[b"k"] = 0.5
        assert cache.get(b"k") == 0.5
        assert cache.value(b"k") == 0.5
        assert cache.get(b"other") is None
        assert len(cache) == 1

    def test_miss_is_evaluated_from_its_key_once(self, sched_p2, monkeypatch):
        # a miss computes the class's value on the cone its key describes
        # and stores it; the next read is a hit
        key = canonical_key(_cyclic_cone())
        routed = []
        plain = engines.expectation
        monkeypatch.setattr(engines, "expectation",
                            lambda *a: routed.append(a) or plain(*a))
        cache = ExpectationCache(sched_p2)
        value = cache.value(key)
        assert cache.value(key) == value == cache.get(key)
        assert len(routed) == 1 and len(cache) == 1
        assert routed[0][0] == cone_from_key(key)
        assert value == plain(cone_from_key(key), sched_p2)

    def test_cache_schedule_mismatch_rejected(self, sched_p1, sched_p2):
        cache = ExpectationCache(sched_p1)
        with pytest.raises(ValueError):
            cache.check_schedule(sched_p2)

    def test_equal_schedule_object_accepted(self, sched_p2):
        # the schedule check compares schedules by value, not identity
        cache = ExpectationCache(sched_p2)
        twin = dataclasses.replace(sched_p2)
        assert twin is not sched_p2
        cache.check_schedule(twin)

    def test_cache_hit_skips_recompute(self, sched_p2):
        cache = ExpectationCache(sched_p2)
        cone = extract_lightcone(complete(4), 0, 2)
        _, key = evaluate_cone(cone, cache)
        # poison the store; a hit must return the stored value untouched
        cache._store[key] = 123.0
        assert evaluate_cone(cone, cache) == (123.0, key)

    def test_depth1_star_matches_dense(self, sched_p1):
        cone = extract_lightcone(complete(4), 0, 1)
        value, _ = evaluate_cone(cone, ExpectationCache(sched_p1))
        circ = unpruned_circuit(cone, sched_p1)
        assert value == pytest.approx(expectation_statevector(circ), abs=1e-10)

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_depth1_star_contracts_to_closed_form(self, lam, monkeypatch):
        # a star contracts like every other cone, to the closed form's
        # value, and the closed form is never called
        closed = []
        form = engines.expectation_p1_analytic
        monkeypatch.setattr(engines, "expectation_p1_analytic",
                            lambda *a: closed.append(a) or form(*a))
        s = sched((0.37,), (-0.41,), lam=lam)
        ising = IsingParams(lam)
        for k in range(9):
            oracle = form(k, ising.field(k), 0.37, -0.41, lam)
            value = expectation(vertex_cone(1, k), s)
            assert value == pytest.approx(oracle, abs=1e-12)
        assert closed == []

    def test_small_nontree_routes_contraction(self, sched_p2):
        # a cyclic cone contracts, on its pruned circuit, to the value of
        # the unpruned circuit run dense
        cone = extract_lightcone(complete(4), 0, 2)
        value, _ = evaluate_cone(cone, ExpectationCache(sched_p2))
        assert value == pytest.approx(expectation(cone, sched_p2), abs=1e-12)
        for cone in root_cones(complete(4), 0, 2):
            value = expectation(cone, sched_p2)
            oracle = expectation_statevector(unpruned_circuit(cone, sched_p2))
            assert value == pytest.approx(oracle, abs=1e-12), cone.dists

    def test_large_tree_routes_contraction(self, sched_p3):
        cones = [vertex_cone(3, 3), edge_cone(3, 3)]
        assert [cone.size for cone in cones] == [22, 30]
        for cone in cones:
            value = expectation(cone, sched_p3)
            oracle = expectation_contract(unpruned_circuit(cone, sched_p3))
            assert value == pytest.approx(oracle, abs=1e-12), cone.size

    def test_isomorphic_cones_get_equal_values(self, sched_p2, sched_p3):
        # a class's value is computed on the cone its key describes, so any
        # member, first into a fresh cache, gives the same bits
        rng = np.random.default_rng(8)
        for schedule in (sched_p2, sched_p3):
            p = schedule.depth
            for _ in range(6):
                g = random_degree3_graph(rng, 12)
                cone = extract_lightcone(g, int(rng.integers(12)), p)
                values = {
                    evaluate_cone(c, ExpectationCache(schedule))[0]
                    for c in [cone] + [relabel_cone(cone, rng) for _ in range(3)]
                }
                assert len(values) == 1, (cone.dists, cone.edges)

    def test_returned_key_is_canonical(self, sched_p1):
        cone = extract_lightcone(complete(4), 0, 1)
        _, key = evaluate_cone(cone, ExpectationCache(sched_p1))
        assert key == canonical_key(cone)

    @pytest.mark.parametrize("kind", ["cyclic", "tree"])
    def test_relabelled_copies_share_key_and_value(self, kind, sched_p2):
        cone = _cyclic_cone() if kind == "cyclic" else vertex_cone(2, 3)
        assert cone.is_tree == (kind == "tree")
        copies = _labelled_copies(cone, np.random.default_rng(5), 6)
        cache = ExpectationCache(sched_p2)
        results = [evaluate_cone(c, cache) for c in copies * 2]
        assert len({key for _, key in results}) == 1
        assert len({value for value, _ in results}) == 1
        assert len(cache) == 1  # one value entry for the class
        for c, (_, key) in zip(copies, results):
            assert key == canonical_key(c)
