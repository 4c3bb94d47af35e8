import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import complete, petersen, random_degree3_graph
from qgreedy.circuits import AngleSchedule, build_circuit
from qgreedy.cones import extract_lightcone
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
        layer = circ.layers[0]
        # lam/4 * gamma on every causal edge
        assert layer.zz == ((0, 1, 0.25), (0, 2, 0.25), (0, 3, 0.25))
        # root in-cone degree 3: h = (2*3-2)/4 = 1; leaves: h = 0
        assert layer.z[0] == (0, 1.0 * 0.5)
        for v, w in layer.z[1:]:
            assert w == 0.0
        assert all(b == 0.25 for _, b in layer.x)
        assert circ.observable == (0,)

    def test_depth_mismatch_rejected(self):
        cone = extract_lightcone(complete(4), 0, 1)
        with pytest.raises(ValueError):
            build_circuit(cone, sched((0.1, 0.2), (0.3, 0.4)))

    def test_pruning_drops_outer_gates(self):
        cone = extract_lightcone(petersen(), 0, 2)
        full = build_circuit(cone, sched((0.3, 0.7), (0.2, 0.4)))
        pruned = build_circuit(
            cone, sched((0.3, 0.7), (0.2, 0.4)), prune_layers=True
        )
        # layer 0 touches everything; layer 1 only what can reach the root
        assert len(pruned.layers[0].zz) == len(full.layers[0].zz)
        assert len(pruned.layers[1].zz) < len(full.layers[1].zz)
        assert len(pruned.layers[1].x) < len(full.layers[1].x)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_pruning_preserves_value(self, seed):
        rng = np.random.default_rng(seed)
        g = random_degree3_graph(rng, 12)
        root = int(rng.integers(12))
        cone = extract_lightcone(g, root, 2)
        angles = rng.uniform(-1.5, 1.5, size=4)
        s = sched(angles[:2], angles[2:])
        a = expectation_statevector(build_circuit(cone, s))
        b = expectation_statevector(build_circuit(cone, s, prune_layers=True))
        assert a == pytest.approx(b, abs=1e-12)

    def test_custom_observable(self):
        cone = extract_lightcone(petersen(), 0, 1)
        circ = build_circuit(cone, sched((0.3,), (0.2,)), observable=(0, 1))
        assert circ.observable == (0, 1)
