"""Whole-package acceptance runs.

Each test here is an end-to-end contract on the shipped behavior: exact
census counts, closed-form agreement of the engines, solver equivalences,
ensemble statistics, determinism, and noise/shot handling.  Tolerances are
stated inline next to the asserts.  One test, one verdict line.

Two long runs (the depth-3 census and the wide contraction sweep) are off
by default; set QGREEDY_EXTENDED=1 to include them.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest
from helpers import (
    census_digest,
    energy_pauli,
    random_degree3_graph,
    random_graph,
    reference_loop,
    relabel_cone,
    rooted_isomorphic,
)

from qgreedy.angles import load_default_angles, vertex_cone
from qgreedy.circuits import AngleSchedule, build_circuit
from qgreedy.cones import (
    canonical_key,
    enumerate_cones,
    extract_lightcone,
    key_size,
)
from qgreedy.engines import (
    ExpectationCache,
    evaluate_cone,
    expectation_contract,
    expectation_p1_analytic,
    expectation_statevector,
    sample_shots,
)
from qgreedy.graph import (
    IsingParams,
    energy,
    generate_regular,
    is_independent,
)
from qgreedy.noise import (
    NoiseParams,
    apply_noise,
    fit_noise,
    noise_offset,
    required_shots,
)
from qgreedy.solver import (
    SolverConfig,
    solve_classical_greedy,
    solve_exact,
    solve_quantum_greedy,
)

EXTENDED = os.environ.get("QGREEDY_EXTENDED") == "1"
needs_extended = pytest.mark.skipif(
    not EXTENDED, reason="set QGREEDY_EXTENDED=1 to run"
)


def test_a01_census_counts_are_exact_and_fast():
    t0 = time.perf_counter()
    r1, _ = enumerate_cones(1)
    r2, _ = enumerate_cones(2)
    elapsed = time.perf_counter() - t0
    assert (r1.total, r1.trees, r1.nontrees) == (4, 4, 0)
    assert (r2.total, r2.trees, r2.nontrees) == (75, 20, 55)
    assert elapsed < 10.0
    print(f"census depth 1+2 in {elapsed:.2f}s")


@needs_extended
@pytest.mark.extended
def test_a01_census_depth3_counts():
    t0 = time.perf_counter()
    r3, cones = enumerate_cones(3)
    elapsed = time.perf_counter() - t0
    assert (r3.total, r3.trees, r3.nontrees) == (44502, 286, 44216)
    assert elapsed < 3600.0
    print(f"census depth 3 in {elapsed:.1f}s")
    # pinned when the census still grew shell by shell
    assert census_digest(cones) == (
        "a1bdfc8d7c8567d1f9b32127e0aa41c34a43dd2bbd02752ff2a56770348cc759"
    )
    # noise advice reads the cone size off the key
    assert all(key_size(canonical_key(c)) == c.size for c in cones)


def test_a02_depth1_statevector_matches_closed_form():
    # 4 star cones x 50 random angle draws x two penalty weights
    rng = np.random.default_rng(2026)
    _, stars = enumerate_cones(1)
    assert len(stars) == 4
    worst = 0.0
    for cone in stars:
        d = cone.in_degrees()[0]
        for lam in (1.0, 2.0):
            for _ in range(50):
                gamma = float(rng.uniform(-math.pi, math.pi))
                beta = float(rng.uniform(-math.pi, math.pi))
                sched = AngleSchedule(1, 3, lam, (gamma,), (beta,))
                sv = expectation_statevector(build_circuit(cone, sched))
                closed = expectation_p1_analytic(
                    d, (lam * d - 2.0) / 4.0, gamma, beta, lam
                )
                worst = max(worst, abs(sv - closed))
    assert worst <= 1e-10
    print(f"worst |statevector - closed form| = {worst:.3e}")


def test_a03_cost_bases_agree_and_ground_state_is_maximum_independent_set():
    # exhaustive assignment sweep on 100 small graphs; the first strict
    # minimizer in enumeration order must be an optimum independent set
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(4, 13))
        g = random_graph(rng, n)
        mis = len(solve_exact(g))
        for lam in (1.0, 2.0):
            params = IsingParams(lam)
            best_e, best_bits = math.inf, None
            for k in range(1 << n):
                bits = [(k >> j) & 1 for j in range(n)]
                e = energy(g, params, bits)
                ep = energy_pauli(g, params, [2 * b - 1 for b in bits])
                assert abs(e - ep) <= 1e-12
                if e < best_e - 1e-15:
                    best_e, best_bits = e, bits
            chosen = [i for i in range(n) if best_bits[i]]
            assert is_independent(g, chosen)
            assert len(chosen) == mis
            assert best_e == pytest.approx(-mis, abs=1e-12)


def test_a04_depth1_argmax_equals_minimum_degree_at_every_step(sched_p1):
    cache = ExpectationCache(sched_p1)
    rng = np.random.default_rng(44)
    for i in range(50):
        n = int(rng.integers(10, 101)) * 2  # 20..200
        g = generate_regular(n, 3, seed=500 + i)

        work = g.copy()
        loop_rng = np.random.default_rng(800 + i)
        while work.alive_count:
            alive = work.alive_nodes()
            vals = {}
            for v in alive:
                value, _ = evaluate_cone(extract_lightcone(work, v, 1), cache)
                vals[v] = value
            vmax = max(vals.values())
            argmax = sorted(v for v, val in vals.items() if val >= vmax)
            dmin = min(work.degree(v) for v in alive)
            mindeg = sorted(v for v in alive if work.degree(v) == dmin)
            assert argmax == mindeg
            pick = argmax[int(loop_rng.integers(len(argmax)))]
            work.remove_closed_neighborhood(pick)

        # matched tie-break seeds: whole traces coincide
        q = solve_quantum_greedy(g, SolverConfig(schedule=sched_p1, seed=800 + i))
        c = solve_classical_greedy(g, seed=800 + i)
        assert q.order == c.order
        assert [s.removed for s in q.steps] == [s.removed for s in c.steps]


def test_a05_classical_greedy_mean_ratio_calibration():
    t0 = time.perf_counter()
    ratios = []
    for i in range(100):
        g = generate_regular(2000, 3, seed=900 + i)
        ratios.append(solve_classical_greedy(g, seed=i).ratio)
    elapsed = time.perf_counter() - t0
    mean = float(np.mean(ratios))
    assert abs(mean - 0.432) <= 0.01
    assert elapsed < 60.0
    print(f"mean r = {mean:.5f} over 100 instances of N=2000 in {elapsed:.1f}s")


@pytest.mark.slow
def test_a06_deeper_advice_improves_mean_ratio(sched_p2, sched_p3, cache_p2,
                                               cache_p3):
    graphs = [generate_regular(200, 3, seed=1300 + i) for i in range(100)]
    r_greedy, r_p2, r_p3 = [], [], []
    for i, g in enumerate(graphs):
        seed = 2000 + i
        r_greedy.append(solve_classical_greedy(g, seed=seed).ratio)
        r_p2.append(
            solve_quantum_greedy(
                g, SolverConfig(schedule=sched_p2, seed=seed), cache_p2
            ).ratio
        )
        r_p3.append(
            solve_quantum_greedy(
                g, SolverConfig(schedule=sched_p3, seed=seed), cache_p3
            ).ratio
        )
    d2 = np.array(r_p2) - np.array(r_greedy)
    d32 = np.array(r_p3) - np.array(r_p2)
    sem2 = float(np.std(d2, ddof=1)) / math.sqrt(len(d2))
    sem32 = float(np.std(d32, ddof=1)) / math.sqrt(len(d32))
    print(
        f"greedy {np.mean(r_greedy):.5f}  p2 {np.mean(r_p2):.5f} "
        f"(+{np.mean(d2):.5f} vs 2sem {2 * sem2:.5f})  p3 {np.mean(r_p3):.5f} "
        f"({np.mean(d32):+.5f} vs -sem {-sem32:.5f})"
    )
    assert float(np.mean(d2)) > 2.0 * sem2
    assert float(np.mean(d32)) >= -sem32


@pytest.mark.slow
def test_a07_every_run_returns_an_independent_set(sched_p1, sched_p2, cache_p2):
    rng = np.random.default_rng(77)
    noise_grid = [
        NoiseParams(e, a, s, seed=17 * k)
        for k, (e, a, s) in enumerate(
            (e, a, s)
            for e in (0.0, 0.05, 0.2)
            for a in (-0.1, 0.0, 0.1)
            for s in (0.0, 0.05, 0.2)
        )
    ]
    runs = 0

    def check(g, trace):
        nonlocal runs
        assert is_independent(g, trace.chosen)
        assert sum(s.removed for s in trace.steps) == g.alive_count
        runs += 1

    # classical baseline across three graph families
    for i in range(2000):
        g = random_graph(rng, int(rng.integers(5, 41)), p=float(rng.uniform(0.1, 0.5)))
        check(g, solve_classical_greedy(g, seed=10_000 + i))
    for i in range(2000):
        g = random_degree3_graph(rng, int(rng.integers(10, 61)))
        check(g, solve_classical_greedy(g, seed=20_000 + i))
    for i in range(2000):
        g = generate_regular(2 * int(rng.integers(5, 51)), 3, seed=30_000 + i)
        check(g, solve_classical_greedy(g, seed=40_000 + i))

    # depth-1 advice in every mode
    p1_shots = (8, 64, 991)
    for i in range(2500):
        g = random_degree3_graph(rng, int(rng.integers(8, 41)))
        if i < 900:
            cfg = SolverConfig(schedule=sched_p1, seed=50_000 + i)
        elif i < 1700:
            cfg = SolverConfig(
                schedule=sched_p1, advice="shots", shots=p1_shots[i % 3],
                delta=None, seed=50_000 + i,
            )
        else:
            cfg = SolverConfig(
                schedule=sched_p1, advice="noise",
                noise=noise_grid[i % len(noise_grid)], delta=None,
                seed=50_000 + i,
            )
        check(g, solve_quantum_greedy(g, cfg))

    # depth-2 advice in every mode, shared cache
    p2_shots = (16, 128)
    for i in range(1500):
        g = random_degree3_graph(rng, int(rng.integers(8, 31)))
        if i < 500:
            cfg = SolverConfig(schedule=sched_p2, seed=60_000 + i)
        elif i < 1000:
            cfg = SolverConfig(
                schedule=sched_p2, advice="shots", shots=p2_shots[i % 2],
                delta=None, seed=60_000 + i,
            )
        else:
            cfg = SolverConfig(
                schedule=sched_p2, advice="noise",
                noise=noise_grid[(7 * i) % len(noise_grid)], delta=None,
                seed=60_000 + i,
            )
        check(g, solve_quantum_greedy(g, cfg, cache_p2))

    assert runs == 10_000


def test_a08_incremental_recompute_reproduces_full_traces(sched_p2, cache_p2):
    for i in range(20):
        g = generate_regular(100, 3, seed=3100 + i)
        if i < 14:
            extra = {}
        elif i < 17:
            extra = {"advice": "shots", "shots": 64, "delta": None}
        else:
            extra = {
                "advice": "noise",
                "noise": NoiseParams(0.05, -0.02, 0.03, seed=i),
                "delta": None,
            }
        inc = solve_quantum_greedy(
            g, SolverConfig(schedule=sched_p2, seed=4200 + i, **extra), cache_p2
        )
        with reference_loop(full_recompute=True):
            full = solve_quantum_greedy(
                g, SolverConfig(schedule=sched_p2, seed=4200 + i, **extra), cache_p2
            )
        assert inc.steps == full.steps  # node, value, key, and removal count


def test_a09_canonical_keys_identify_isomorphic_cones(sched_p1, sched_p2):
    rng = np.random.default_rng(919)
    scheds = {1: sched_p1, 2: sched_p2}
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(6, 25))
        g = random_degree3_graph(rng, n)
        depth = int(rng.integers(1, 3))
        c1 = extract_lightcone(g, int(rng.integers(n)), depth)
        c2 = relabel_cone(c1, rng)
        assert canonical_key(c1) == canonical_key(c2)
        assert rooted_isomorphic(c1, c2)
        v1 = expectation_statevector(build_circuit(c1, scheds[depth]))
        v2 = expectation_statevector(build_circuit(c2, scheds[depth]))
        worst = max(worst, abs(v1 - v2))
    assert worst <= 1e-12

    # independently drawn pairs: key equality iff rooted isomorphism
    collisions = 0
    for _ in range(300):
        depth = int(rng.integers(1, 3))
        na, nb = int(rng.integers(5, 13)), int(rng.integers(5, 13))
        ca = extract_lightcone(
            random_degree3_graph(rng, na), int(rng.integers(na)), depth
        )
        cb = extract_lightcone(
            random_degree3_graph(rng, nb), int(rng.integers(nb)), depth
        )
        same_key = canonical_key(ca) == canonical_key(cb)
        assert same_key == rooted_isomorphic(ca, cb)
        collisions += same_key
    assert collisions > 0  # the iff check saw both outcomes
    print(f"worst relabeled |dZ| = {worst:.2e}, {collisions}/300 random pairs matched")


def test_a10a_uniform_bias_shift_leaves_selections_unchanged(sched_p2, cache_p2):
    for k in range(20):
        g = generate_regular(60, 3, seed=5100 + k)
        base = NoiseParams(eta=0.05, alpha=-0.03, sigma=0.04, seed=600 + k)
        shifted = dataclasses.replace(base, alpha=base.alpha + 0.1)
        t_base = solve_quantum_greedy(
            g,
            SolverConfig(schedule=sched_p2, advice="noise", noise=base,
                         delta=None, seed=700 + k),
            cache_p2,
        )
        t_shift = solve_quantum_greedy(
            g,
            SolverConfig(schedule=sched_p2, advice="noise", noise=shifted,
                         delta=None, seed=700 + k),
            cache_p2,
        )
        assert t_base.order == t_shift.order


def test_a10b_noise_fit_recovers_generator_parameters(sched_p2, cache_p2):
    # synthetic damp+bias+offset data over all 75 depth-2 cones, 20
    # realizations; the seed-averaged fit must land within (0.01, 0.01,
    # 0.015) of the generator.  Single-seed fits carry irreducible sampling
    # scatter (75 points, sigma=0.04), so per seed only 3x is asserted.
    _, cones2 = enumerate_cones(2)
    ideals, sizes, keys = [], [], []
    for cone in cones2:
        value, key = evaluate_cone(cone, cache_p2)
        ideals.append(value)
        sizes.append(cone.size)
        keys.append(key)
    truth = NoiseParams(eta=0.03, alpha=-0.05, sigma=0.04)
    fits = []
    for seed in range(20):
        real = dataclasses.replace(truth, seed=seed)
        triples = [
            (x, apply_noise(x, s, truth, noise_offset(real, k)), s)
            for x, s, k in zip(ideals, sizes, keys)
        ]
        fit = fit_noise(triples)
        assert abs(fit.eta - truth.eta) <= 0.03
        assert abs(fit.alpha - truth.alpha) <= 0.03
        assert abs(fit.sigma - truth.sigma) <= 0.045
        fits.append((fit.eta, fit.alpha, fit.sigma))
    mean_eta, mean_alpha, mean_sigma = np.mean(fits, axis=0)
    print(
        f"mean fit eta {mean_eta:.4f} alpha {mean_alpha:.4f} sigma {mean_sigma:.4f}"
    )
    assert abs(mean_eta - truth.eta) <= 0.01
    assert abs(mean_alpha - truth.alpha) <= 0.01
    assert abs(mean_sigma - truth.sigma) <= 0.015


@pytest.mark.slow
def test_a10c_shrink_sweep_stays_valid_and_zero_shrink_is_noiseless(
    sched_p3, cache_p3
):
    instances = [
        (generate_regular(200, 3, seed=6200 + i), 6300 + i) for i in range(8)
    ]
    base_ratios = []
    for g, seed in instances:
        t = solve_quantum_greedy(
            g, SolverConfig(schedule=sched_p3, delta=0.0, seed=seed), cache_p3
        )
        assert is_independent(g, t.chosen)
        base_ratios.append(t.ratio)
    means = {}
    for k in range(11):
        eta = round(0.01 * k, 2)
        ratios = []
        for g, seed in instances:
            cfg = SolverConfig(
                schedule=sched_p3, advice="noise", delta=0.0,
                noise=NoiseParams(eta, 0.0, 0.0), seed=seed,
            )
            t = solve_quantum_greedy(g, cfg, cache_p3)
            assert is_independent(g, t.chosen)
            ratios.append(t.ratio)
        means[eta] = float(np.mean(ratios))
    print("sweep means " + " ".join(f"{e:g}:{m:.4f}" for e, m in means.items()))
    assert means[0.0] == float(np.mean(base_ratios))


def test_a11_shot_budget_arithmetic_and_estimator_variance():
    assert required_shots(1000, 0.05, 0.1) == 991
    assert required_shots(1000, 0.01, 0.05) == 4606
    shots = 100
    for ideal in (0.0, 0.3):
        rng = np.random.default_rng(1111)
        words = rng.integers(2**64, size=10_000, dtype=np.uint64)
        draws = np.array([sample_shots(ideal, shots, int(w)) for w in words])
        assert float(draws.var(ddof=1)) <= 1.1 / shots
        assert abs(float(draws.mean()) - ideal) <= 0.005


@needs_extended
@pytest.mark.extended
def test_a12_contraction_agrees_with_statevector_and_fits_budget(
    sched_p1, sched_p2, sched_p3
):
    rng = np.random.default_rng(1212)
    scheds = {1: sched_p1, 2: sched_p2, 3: sched_p3}
    worst, checked = 0.0, 0
    while checked < 200:
        depth = int(rng.integers(1, 4))
        n = int(rng.integers(8, 41))
        g = random_degree3_graph(rng, n)
        cone = extract_lightcone(g, int(rng.integers(n)), depth)
        if cone.size > 20:
            continue
        circ = build_circuit(cone, scheds[depth])
        diff = abs(expectation_statevector(circ) - expectation_contract(circ))
        worst = max(worst, diff)
        checked += 1
    assert worst <= 1e-8
    print(f"worst |statevector - contraction| = {worst:.2e} over 200 cones")

    big = vertex_cone(4, 3)
    assert big.size == 46
    sched4 = load_default_angles(4).schedule
    circ = build_circuit(big, sched4)
    v1 = expectation_contract(circ)  # default budget; raises if it trips
    assert -1.0 <= v1 <= 1.0
    assert expectation_contract(circ) == v1
