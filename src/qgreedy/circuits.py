"""Angle schedules and cone circuits.

A depth-p schedule drives the alternating ansatz

    |gamma, beta> = e^{-i beta_p B} e^{-i gamma_p H} ... e^{-i beta_1 B}
                    e^{-i gamma_1 H} |+...+>,   B = sum_v X_v,

with H the Ising cost restricted to the cone: the coupling of
:class:`qgreedy.graph.IsingParams` as ZZ weight on every causal edge and its
field h_v for the vertex's in-cone degree as Z weight.  Gate "weight" w
means the gate exp(-i * w * P) for Pauli string P.

Layer pruning drops gates that cannot reach the observable: counting layers
k = 0..p-1 in application order, layer k keeps ZZ gates on edges whose
nearer endpoint is within distance p-k-1 of the observable and
single-qubit gates on vertices within distance p-k.  The pruned circuit is
exactly value-preserving, and it is the one :func:`qgreedy.engines.expectation`
contracts; the unpruned circuit, with every gate in every layer, is the
input of the tests' dense oracle.
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
class Layer:
    """Gates of one (cost, mixer) step.

    zz: (u, v, weight); z: (v, weight); x: (v, angle).  Deterministic order:
    edges sorted, vertices ascending.
    """

    zz: tuple[tuple[int, int, float], ...]
    z: tuple[tuple[int, float], ...]
    x: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class ConeCircuit:
    n_qubits: int
    depth: int
    layers: tuple[Layer, ...]
    observable: tuple[int, ...] = (0,)


def build_circuit(
    cone: LightCone,
    schedule: AngleSchedule,
    prune_layers: bool = False,
    observable: tuple[int, ...] | None = None,
) -> ConeCircuit:
    """Compile a cone and a schedule into an explicit layered gate list."""
    if schedule.depth != cone.depth:
        raise ValueError(
            f"schedule depth {schedule.depth} != cone depth {cone.depth}"
        )
    p = cone.depth
    ising = IsingParams(schedule.lam)
    coupling = ising.coupling
    fields = [ising.field(d) for d in cone.in_degrees()]
    observable = (0,) if observable is None else tuple(observable)
    # distance to the observable through the cone's edges, capped at p; for
    # the roots it is cone.dists
    dists = [p] * cone.size
    frontier = set(observable)
    for q in frontier:
        dists[q] = 0
    adj = cone.adjacency()
    for d in range(1, p):
        frontier = {w for v in frontier for w in adj[v] if dists[w] > d}
        for w in frontier:
            dists[w] = d
    layers = []
    for k in range(p):
        gamma = schedule.gammas[k]
        beta = schedule.betas[k]
        edge_reach = p - k - 1 if prune_layers else p  # unpruned: every gate
        vert_reach = edge_reach + 1
        zz = tuple(
            (u, v, coupling * gamma)
            for u, v in cone.edges
            if min(dists[u], dists[v]) <= edge_reach
        )
        z = tuple(
            (v, fields[v] * gamma)
            for v in range(cone.size)
            if dists[v] <= vert_reach
        )
        x = tuple((v, beta) for v in range(cone.size) if dists[v] <= vert_reach)
        layers.append(Layer(zz=zz, z=z, x=x))
    return ConeCircuit(
        n_qubits=cone.size, depth=p, layers=tuple(layers), observable=observable
    )
