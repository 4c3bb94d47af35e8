"""Angle schedules and cone circuits.

A depth-p schedule drives the alternating ansatz

    |gamma, beta> = e^{-i beta_p B} e^{-i gamma_p H} ... e^{-i beta_1 B}
                    e^{-i gamma_1 H} |+...+>,   B = sum_v X_v,

with H the Ising cost restricted to the cone: the coupling of
:class:`qgreedy.graph.IsingParams` as ZZ weight on every causal edge and its
field h_v for the vertex's in-cone degree as Z weight.  Gate "weight" w
means the gate exp(-i * w * P) for Pauli string P: gamma times the
coefficient for ZZ and Z, beta for the X mixer.

The circuit measures the product of Z over the cone's roots, its
distance-0 vertices: the root of a vertex cone, both ends of an edge cone.
Gates that cannot reach them are never built: counting layers k = 0..p-1
in application order, layer k holds ZZ gates on edges whose nearer
endpoint is within distance p-k-1 of the roots and single-qubit gates on
vertices within distance p-k, both read off ``cone.dists``.  So a vertex
keeps a prefix of the layers, at least layer 0, and a ZZ gate sits in a
layer both its endpoints keep.  Pruning preserves the value exactly, so
this pruned circuit is the only one the package builds; the unpruned
reference, with every gate in every layer, lives in ``tests/helpers.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cones import LightCone
from .graph import IsingParams


@dataclass(frozen=True)
class AngleSchedule:
    """Fixed angles for one (depth, degree, penalty) combination."""

    depth: int
    degree: int
    lam: float
    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("schedule depth must be >= 1")
        if self.degree < 0:
            raise ValueError(f"schedule degree must be >= 0: {self.degree}")
        if len(self.gammas) != self.depth or len(self.betas) != self.depth:
            raise ValueError(
                f"need {self.depth} angles per family, got "
                f"{len(self.gammas)} gammas / {len(self.betas)} betas"
            )
        for x in (*self.gammas, *self.betas):
            if not math.isfinite(x):
                raise ValueError("angles must be finite")
        IsingParams(self.lam)  # raises unless lam is finite and >= 1


@dataclass(frozen=True)
class ConeCircuit:
    """Gates of a depth-p cone circuit, per vertex and per edge.

    ``gates[v]`` holds v's (Z weight, mixer angle) for layers 0..len-1, the
    layers that act on v.  ``couplings`` holds (u, v, layer, ZZ weight) in
    layer order, edges in the cone's order within a layer; a ZZ gate of
    weight 0.0 is left out.  ``observable`` lists the measured qubits, the
    cone's roots.
    """

    n_qubits: int
    depth: int
    gates: tuple[tuple[tuple[float, float], ...], ...]
    couplings: tuple[tuple[int, int, int, float], ...]
    observable: tuple[int, ...]


def build_circuit(cone: LightCone, schedule: AngleSchedule) -> ConeCircuit:
    """Compile a cone and a schedule into the pruned per-vertex and
    per-edge gates that measure the cone's roots."""
    if schedule.depth != cone.depth:
        raise ValueError(
            f"schedule depth {schedule.depth} != cone depth {cone.depth}"
        )
    p = cone.depth
    ising = IsingParams(schedule.lam)
    coupling = ising.coupling
    fields = [ising.field(d) for d in cone.in_degrees()]
    dists = cone.dists
    layers = list(zip(schedule.gammas, schedule.betas))
    gates = tuple(
        tuple((h * gamma, beta) for gamma, beta in layers[: p + 1 - d])
        for h, d in zip(fields, dists)
    )
    couplings = tuple(
        (u, v, k, coupling * gamma)
        for k, gamma in enumerate(schedule.gammas)
        for u, v in cone.edges
        if k < p - min(dists[u], dists[v]) and coupling * gamma != 0.0
    )
    roots = tuple(v for v, d in enumerate(cone.dists) if d == 0)
    return ConeCircuit(cone.size, p, gates, couplings, roots)
