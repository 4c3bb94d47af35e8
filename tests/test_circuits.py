import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    complete,
    petersen,
    random_degree3_graph,
    root_cones,
    unpruned_circuit,
)
from qgreedy.circuits import AngleSchedule, build_circuit
from qgreedy.cones import extract_lightcone, extract_lightcone_multi
from qgreedy.engines import expectation_statevector


def sched(gammas, betas, lam=1.0, degree=3):
    return AngleSchedule(
        depth=len(gammas), degree=degree, lam=lam,
        gammas=tuple(gammas), betas=tuple(betas),
    )


class TestAngleSchedule:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AngleSchedule(2, 3, 1.0, (0.1,), (0.2, 0.3))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            sched((math.nan,), (0.0,))

    def test_lam_rejected(self):
        with pytest.raises(ValueError):
            sched((0.1,), (0.2,), lam=0.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_nonfinite_lam_rejected(self, lam):
        with pytest.raises(ValueError, match="lam"):
            sched((0.1,), (0.2,), lam=lam)

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            AngleSchedule(0, 3, 1.0, (), ())

    def test_negative_degree_rejected(self):
        # no graph has one; the resolution cutoff indexed past its tree
        with pytest.raises(ValueError, match="degree must be >= 0: -2"):
            AngleSchedule(1, -2, 1.0, (0.1,), (0.2,))

    def test_fingerprint_identity(self):
        # the frozen dataclass's == and hash are the schedule's identity
        a = sched((0.1, 0.2), (0.3, 0.4))
        b = sched((0.1, 0.2), (0.3, 0.4))
        assert a == b and hash(a) == hash(b)
        assert a != sched((0.1, 0.2), (0.3, 0.5))
        assert a != sched((0.1, 0.2), (0.3, 0.4), lam=2.0)
        assert len({a, b}) == 1


class TestBuildCircuit:
    def test_star_weights(self):
        cone = extract_lightcone(complete(4), 0, 1)
        circ = build_circuit(cone, sched((0.5,), (0.25,), lam=2.0))
        # lam/4 * gamma on every causal edge, all in layer 0
        assert circ.couplings == (
            (0, 1, 0, 0.25), (0, 2, 0, 0.25), (0, 3, 0, 0.25)
        )
        # root in-cone degree 3: h = (2*3-2)/4 = 1; leaves: h = 0
        assert circ.gates[0] == ((1.0 * 0.5, 0.25),)
        for gates in circ.gates[1:]:
            assert gates == ((0.0, 0.25),)
        assert circ.observable == (0,)

    def test_depth_mismatch_rejected(self):
        cone = extract_lightcone(complete(4), 0, 1)
        with pytest.raises(ValueError):
            build_circuit(cone, sched((0.1, 0.2), (0.3, 0.4)))

    def test_reference_depth_mismatch_rejected(self):
        # the unpruned reference is as strict as the builder it checks
        cone = extract_lightcone(complete(4), 0, 1)
        with pytest.raises(ValueError, match="!= cone depth"):
            unpruned_circuit(cone, sched((0.1, 0.2), (0.3, 0.4)))

    def test_pruning_drops_outer_gates(self):
        cone = extract_lightcone(petersen(), 0, 2)
        full = unpruned_circuit(cone, sched((0.3, 0.7), (0.2, 0.4)))
        pruned = build_circuit(cone, sched((0.3, 0.7), (0.2, 0.4)))
        # layer 0 touches everything; layer 1 only what can reach the root
        def couplings(circ, k):
            return [c for c in circ.couplings if c[2] == k]

        def gated(circ, k):
            return [v for v, gates in enumerate(circ.gates) if len(gates) > k]

        assert len(couplings(pruned, 0)) == len(couplings(full, 0))
        assert len(couplings(pruned, 1)) < len(couplings(full, 1))
        assert len(gated(pruned, 1)) < len(gated(full, 1))

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_couplings_act_on_gated_layers(self, seed):
        # the contraction numbers slice k of v from v's gate count, so every
        # ZZ gate must sit in a layer that both its endpoints keep
        rng = np.random.default_rng(seed)
        g = random_degree3_graph(rng, 14)
        p = int(rng.integers(1, 4))
        cones = root_cones(g, int(rng.integers(14)), p)
        s = sched(rng.uniform(-1.5, 1.5, p), rng.uniform(-1.5, 1.5, p))
        for build in (unpruned_circuit, build_circuit):
            for cone in cones:
                circ = build(cone, s)
                assert all(1 <= len(gates) <= p for gates in circ.gates)
                layers = [k for _, _, k, _ in circ.couplings]
                assert layers == sorted(layers)
                for u, v, k, _ in circ.couplings:
                    assert k < min(len(circ.gates[u]), len(circ.gates[v]))

    def test_zero_couplings_left_out(self):
        # a subnormal gamma rounds the ZZ weight itself to 0.0
        cone = extract_lightcone(petersen(), 0, 2)
        circ = build_circuit(cone, sched((5e-324, 0.7), (0.2, 0.4)))
        assert circ.couplings
        assert all(k == 1 for _, _, k, _ in circ.couplings)
        assert circ.gates[0][0] == (0.0, 0.2)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_pruning_preserves_value(self, seed):
        rng = np.random.default_rng(seed)
        g = random_degree3_graph(rng, 12)
        root = int(rng.integers(12))
        cone = extract_lightcone(g, root, 2)
        angles = rng.uniform(-1.5, 1.5, size=4)
        s = sched(angles[:2], angles[2:])
        a = expectation_statevector(unpruned_circuit(cone, s))
        b = expectation_statevector(build_circuit(cone, s))
        assert a == pytest.approx(b, abs=1e-12)

    def test_observable_is_the_roots(self):
        s = sched((0.3, 0.7), (0.2, 0.4))
        for build in (unpruned_circuit, build_circuit):
            one = build(extract_lightcone(petersen(), 0, 2), s)
            two = build(extract_lightcone_multi(petersen(), (0, 1), 2), s)
            assert (one.observable, two.observable) == ((0,), (0, 1))

    def test_pruning_reads_root_distances(self):
        # a vertex at distance d >= 1 from the roots keeps layers 0..p-d,
        # and a root keeps all p
        for cone in root_cones(petersen(), 0, 2):
            circ = build_circuit(cone, sched((0.3, 0.7), (0.2, 0.4)))
            kept = [min(2, 3 - d) for d in cone.dists]
            assert [len(g) for g in circ.gates] == kept
