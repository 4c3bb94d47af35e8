"""Expectation-value engines for cone circuits.

Three independent routes compute <Z_root> (or a product of Z over the
observable set):

* a closed form for single-layer circuits,
* dense statevector evolution, capped by qubit count,
* a path-integral tensor contraction whose cost is set by the cone's
  treewidth, not its qubit count.

Each pair of routes agrees to tight tolerance on overlapping domains, which
is the main guard against a silent convention error in any one of them.

:func:`expectation` holds the one routing decision between the dense and
contraction routes.  It serves both the solver, through
:func:`evaluate_cone` (cache, then the closed form at depth 1), and the
tree-angle optimizer in :mod:`qgreedy.angles`.  The qubit cap and the
contraction budget are the module constants ``STATEVECTOR_CAP`` and
``CONTRACTION_BUDGET``; only the router's own parameters override them.

The contraction engine views the expectation as a classical partition
function on a time-expanded copy of the cone graph: the cost layers are
diagonal and the mixers factor per qubit, so after inserting a
computational basis between every layer, each (vertex, time slice) pair
carries one size-4 variable (its forward and backward spin at that
slice).  Mixer transfer matrices link consecutive slices of a vertex,
each causal edge couples same-slice neighbors with a 4x4 phase kernel,
and the shared measurement slice is summed into each vertex's last
factor up front.  Variables are then eliminated greedily by smallest
resulting cluster; on trees this collapses leaf chains first, keeping
the peak intermediate exponential in the layer count only.
"""

from __future__ import annotations

import math
import os
import json
import threading
from dataclasses import dataclass

import numpy as np

from .circuits import AngleSchedule, ConeCircuit, build_circuit
from .cones import LightCone, canonical_key
from .errors import ContractionBudgetExceeded, StatevectorCapExceeded
from .graph import IsingParams

STATEVECTOR_CAP = 24
CONTRACTION_BUDGET = 2**26  # max tensor entries per intermediate, ~1 GB
# persisted cache format; bump when the file layout or engine values change
CACHE_VERSION = 1


# -- closed forms for p = 1 -------------------------------------------------


def expectation_p1_analytic(
    degree: int, h: float, gamma: float, beta: float, lam: float = 1.0
) -> float:
    """Single-layer <Z_root> on a star cone of the given root degree.

    sin(2 beta) sin(2 gamma h) cos(2 gamma lam / 4)^degree.  The neighbor
    factor carries the edge coupling lam/4 of the cost Hamiltonian; with
    couplings normalized to 1 it collapses to cos(2 gamma)^degree.
    """
    return (
        math.sin(2.0 * beta)
        * math.sin(2.0 * gamma * h)
        * math.cos(2.0 * gamma * lam / 4.0) ** degree
    )


def expectation_p1_edge(
    deg_u: int,
    deg_v: int,
    h_u: float,
    h_v: float,
    gamma: float,
    beta: float,
    lam: float = 1.0,
) -> float:
    """Single-layer <Z_u Z_v> for an edge whose endpoints share no neighbor.

    Valid on tree cones; used by the grid-search oracle for depth-1 angle
    optimization.
    """
    c = math.cos(2.0 * beta)
    s = math.sin(2.0 * beta)
    j2 = 2.0 * gamma * lam / 4.0
    cu = math.cos(j2) ** (deg_u - 1)
    cv = math.cos(j2) ** (deg_v - 1)
    cross = (
        c
        * s
        * math.sin(j2)
        * (math.cos(2.0 * gamma * h_u) * cu + math.cos(2.0 * gamma * h_v) * cv)
    )
    both = (
        s
        * s
        * math.sin(2.0 * gamma * h_u)
        * math.sin(2.0 * gamma * h_v)
        * cu
        * cv
    )
    return cross + both


# -- dense statevector ------------------------------------------------------


def expectation_statevector(circ: ConeCircuit, cap: int = STATEVECTOR_CAP) -> float:
    """Evolve the full state and read off the observable.

    The expectation is computed from probabilities, so the returned value is
    exactly real by construction.
    """
    n = circ.n_qubits
    if n > cap:
        raise StatevectorCapExceeded(n, cap)
    shape = (2,) * n
    state = np.full(shape, 2.0 ** (-n / 2.0), dtype=np.complex128)

    spin_cache: dict[int, np.ndarray] = {}

    def spin_axis(q: int) -> np.ndarray:
        # +1 for |0>, -1 for |1> along qubit q, broadcastable to the state
        arr = spin_cache.get(q)
        if arr is None:
            arr = np.ones((1,) * q + (2,) + (1,) * (n - q - 1))
            arr = arr.copy()
            idx = [slice(None)] * n
            idx[q] = 1
            arr[tuple(idx)] = -1.0
            spin_cache[q] = arr
        return arr

    unit_diag = None
    if circ.uniform_layers:
        unit_diag = np.zeros(shape, dtype=np.float64)
        for u, v, w in circ.cost_zz:
            unit_diag += w * (spin_axis(u) * spin_axis(v))
        for v, w in circ.cost_z:
            unit_diag += w * spin_axis(v)

    for k, layer in enumerate(circ.layers):
        if unit_diag is not None:
            gamma = circ.gammas[k]
            if gamma != 0.0:
                state *= np.exp(-1j * gamma * unit_diag)
        else:
            diag = np.zeros(shape, dtype=np.float64)
            for u, v, w in layer.zz:
                diag += w * (spin_axis(u) * spin_axis(v))
            for v, w in layer.z:
                diag += w * spin_axis(v)
            state *= np.exp(-1j * diag)
        for q, beta in layer.x:
            if beta == 0.0:
                continue
            cb = math.cos(beta)
            sb = math.sin(beta)
            moved = np.moveaxis(state, q, 0)
            a0 = moved[0].copy()
            a1 = moved[1]
            moved[0] = cb * a0 - 1j * sb * a1
            moved[1] = -1j * sb * a0 + cb * a1

    probs = np.abs(state) ** 2
    sign = 1.0
    for q in circ.observable:
        sign = sign * spin_axis(q)
    return float(np.sum(probs * sign))


# -- path-integral contraction ----------------------------------------------


_TAU_F = 1.0 - 2.0 * (np.arange(4) & 1)  # forward spin per pair state
_TAU_B = 1.0 - 2.0 * (np.arange(4) >> 1 & 1)  # backward spin per pair state
_EDGE_DIFF = (
    _TAU_B[:, None] * _TAU_B[None, :] - _TAU_F[:, None] * _TAU_F[None, :]
)


def _vertex_profiles(circ: ConeCircuit, p: int):
    """Per-vertex (z weights, mixer angles, in-observable) tuples.

    In symmetric cones many vertices share a profile, and their local
    factors are identical; callers key a memo on the profile.
    """
    zw = [[0.0] * p for _ in range(circ.n_qubits)]
    xw: list[list[float | None]] = [[None] * p for _ in range(circ.n_qubits)]
    for k, layer in enumerate(circ.layers):
        for v, w in layer.z:
            zw[v][k] = w
        for v, b in layer.x:
            xw[v][k] = b
    obs = set(circ.observable)
    return [
        (tuple(zw[v]), tuple(xw[v]), v in obs) for v in range(circ.n_qubits)
    ]


def _vertex_factors(profile, p: int):
    """Mixer transfer chain plus the locally summed measurement slice.

    One size-4 variable per time slice 0..p-1 holds the vertex's forward
    and backward spin where the phase layers act.  The mixer after layer
    k links slice k to slice k+1; the mixer after the last layer lands on
    the shared measurement slice, which couples to nothing else and is
    summed out here.  Returns (p-1 transfer matrices, final slice weight).
    """
    zw, xw, observed = profile
    f, b = _TAU_F, _TAU_B
    diag = []
    for k in range(p):
        if zw[k] != 0.0:
            diag.append(np.exp(-1j * zw[k] * (f - b)))
        else:
            diag.append(np.ones(4, dtype=np.complex128))
    diag[0] = diag[0] * 0.5  # |+> overlap, both branches

    def transfer(bk, nxt_f, nxt_b):
        if bk is None:
            eq = (f[:, None] == nxt_f[None, :]) & (b[:, None] == nxt_b[None, :])
            return eq.astype(np.complex128)
        cb = math.cos(bk)
        sb = math.sin(bk)
        mf = np.where(f[:, None] == nxt_f[None, :], cb, -1j * sb)
        mb = np.where(b[:, None] == nxt_b[None, :], cb, 1j * sb)  # conjugate
        return mf * mb

    chain = [diag[k][:, None] * transfer(xw[k], f, b) for k in range(p - 1)]
    shared = np.array([1.0, -1.0])  # measurement slice, one bit per vertex
    last = transfer(xw[p - 1], shared, shared)
    if observed:
        last = last * shared[None, :]
    return chain, diag[p - 1] * last.sum(axis=1)


def _edge_slice_kernel(w: float) -> np.ndarray:
    """4x4 coupling for one edge in one layer: exp(i w (b b' - f f'))."""
    return np.exp(1j * w * _EDGE_DIFF)


def expectation_contract(
    circ: ConeCircuit, budget: int = CONTRACTION_BUDGET
) -> float:
    """Contract the cone's path-integral network.

    Variables live on (vertex, slice) pairs, so the accumulator cost is
    4^cluster regardless of depth.  Elimination order is greedy
    smallest-resulting-cluster with lexicographic variable-id tie-break;
    the projected peak intermediate size is checked against ``budget``
    before any tensor is built.
    """
    p = circ.depth
    n = circ.n_qubits

    def var(v: int, k: int) -> int:
        return v * p + k

    # same-slice couplings; zero-weight entries drop out of the network
    slice_edges: list[tuple[int, int, float]] = []
    for k, layer in enumerate(circ.layers):
        for u, v, w in layer.zz:
            if w != 0.0:
                slice_edges.append((var(u, k), var(v, k), w))

    # plan elimination on the time-expanded graph and check the budget first
    neighbors: dict[int, set[int]] = {x: set() for x in range(n * p)}
    for a, b, _ in slice_edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    for v in range(n):
        for k in range(p - 1):
            neighbors[var(v, k)].add(var(v, k + 1))
            neighbors[var(v, k + 1)].add(var(v, k))
    plan = []
    sim = {x: set(nb) for x, nb in neighbors.items()}
    remaining = set(range(n * p))
    max_cluster = 1
    while remaining:
        pick = min(remaining, key=lambda x: (len(sim[x]), x))
        max_cluster = max(max_cluster, len(sim[pick]) + 1)
        plan.append(pick)
        nbrs = sim[pick]
        for a in nbrs:
            sim[a].discard(pick)
        for a in nbrs:
            for b in nbrs:
                if a != b:
                    sim[a].add(b)
        remaining.discard(pick)
    entries = 4**max_cluster  # peak accumulator before summing the variable
    if entries > budget:
        raise ContractionBudgetExceeded(max_cluster - 1, entries, budget)

    # factors: (vars tuple, ndarray with one size-4 axis per var);
    # elimination never writes into factor arrays, so equal-profile vertices
    # share one set of chain arrays
    factors: list[tuple[tuple[int, ...], np.ndarray]] = []
    profiles = _vertex_profiles(circ, p)
    chain_cache: dict = {}
    for v in range(n):
        built = chain_cache.get(profiles[v])
        if built is None:
            built = _vertex_factors(profiles[v], p)
            chain_cache[profiles[v]] = built
        chain, last = built
        for k, mat in enumerate(chain):
            factors.append(((var(v, k), var(v, k + 1)), mat))
        factors.append(((var(v, p - 1),), last))
    kernel_cache: dict[float, np.ndarray] = {}
    for a, b, w in slice_edges:
        k_mat = kernel_cache.get(w)
        if k_mat is None:
            k_mat = _edge_slice_kernel(w)
            kernel_cache[w] = k_mat
        factors.append(((a, b), k_mat))

    for x in plan:
        group = [f for f in factors if x in f[0]]
        factors = [f for f in factors if x not in f[0]]
        out_vars: list[int] = []
        for fvars, _ in group:
            for y in fvars:
                if y != x and y not in out_vars:
                    out_vars.append(y)
        all_vars = [x] + out_vars
        letter = {y: chr(97 + i) for i, y in enumerate(all_vars)}
        eq = (
            ",".join("".join(letter[y] for y in fvars) for fvars, _ in group)
            + "->"
            + "".join(letter[y] for y in out_vars)
        )
        summed = np.einsum(eq, *(arr for _, arr in group), optimize=True)
        factors.append((tuple(out_vars), summed))

    total = 1.0 + 0.0j
    for _, arr in factors:
        total *= complex(arr)
    return float(total.real)


# -- finite-shot estimates --------------------------------------------------


def sample_shots(ideal: float, shots: int, seed) -> float:
    """Mean of ``shots`` simulated single-qubit Z measurements.

    ``seed`` may be an int, a numpy SeedSequence, or a Generator.  Unbiased;
    variance at most 1/shots.
    """
    if not -1.0 <= ideal <= 1.0:
        raise ValueError(f"expectation {ideal} outside [-1, 1]")
    if shots < 1:
        raise ValueError("need at least one shot")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    up = rng.binomial(shots, (1.0 + ideal) / 2.0)
    return (2.0 * up - shots) / shots


# -- cache and routing ------------------------------------------------------


@dataclass(frozen=True)
class ExpectationRecord:
    value: float
    engine: str  # analytic | statevector | contraction
    cone_size: int


class ExpectationCache:
    """Canonical-key keyed store of ideal cone expectations.

    One cache serves exactly one angle schedule; mixing schedules in a single
    store would alias values, so the schedule fingerprint is checked on
    every use.  Reads are lock-free; inserts serialize on a lock.  When a
    directory is given (or QGREEDY_CACHE_DIR is set), entries persist as one
    JSON file per schedule fingerprint; the file also holds the format
    version and the fingerprint, and loading one that differs raises.
    """

    def __init__(self, schedule: AngleSchedule, directory: str | None = None):
        self.schedule = schedule
        self._store: dict[bytes, ExpectationRecord] = {}
        self._lock = threading.Lock()
        if directory is None:
            directory = os.environ.get("QGREEDY_CACHE_DIR") or None
        self._path = None
        if directory:
            os.makedirs(directory, exist_ok=True)
            tag = "_".join(
                [
                    f"p{schedule.depth}",
                    f"d{schedule.degree}",
                    f"lam{schedule.lam:.6g}",
                    f"{abs(hash(schedule.fingerprint)) % 16**8:08x}",
                ]
            )
            self._path = os.path.join(directory, f"expectations_{tag}.json")
            self._load()

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key_data: bytes) -> ExpectationRecord | None:
        return self._store.get(key_data)

    def insert(self, key_data: bytes, record: ExpectationRecord) -> None:
        with self._lock:
            self._store[key_data] = record

    def _header(self) -> dict:
        # the fingerprint as JSON reads it back: tuples become lists
        fingerprint = json.loads(json.dumps(self.schedule.fingerprint))
        return {"version": CACHE_VERSION, "fingerprint": fingerprint}

    def _load(self) -> None:
        if self._path and os.path.exists(self._path):
            with open(self._path) as fh:
                raw = json.load(fh)
            if any(raw.get(k) != v for k, v in self._header().items()):
                raise ValueError(
                    f"{self._path}: not a version {CACHE_VERSION} cache of "
                    "this angle schedule"
                )
            for hx, (value, engine, size) in raw["entries"].items():
                self._store[bytes.fromhex(hx)] = ExpectationRecord(
                    value=value, engine=engine, cone_size=size
                )

    def save(self) -> None:
        if not self._path:
            return
        with self._lock:
            entries = {
                k.hex(): [r.value, r.engine, r.cone_size]
                for k, r in self._store.items()
            }
        raw = dict(self._header(), entries=entries)
        tmp = self._path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(raw, fh)
        os.replace(tmp, self._path)


# Tree cones contract in linear time at O(p) rank, so above this size the
# contraction engine wins over the dense route even well under the qubit cap.
TREE_CONTRACT_THRESHOLD = 16


def expectation(
    cone: LightCone,
    schedule: AngleSchedule,
    observable: tuple[int, ...] = (0,),
    statevector_cap: int = STATEVECTOR_CAP,
    contraction_budget: int = CONTRACTION_BUDGET,
) -> tuple[float, str]:
    """The one engine-routing decision: (<Z...> on ``observable``, engine).

    Larger tree cones contract; other cones run dense while they fit under
    the qubit cap and contract beyond it, falling back to dense if the
    contraction budget trips first.  Raises ContractionBudgetExceeded when
    no engine fits.
    """
    circ = build_circuit(cone, schedule, observable=observable)
    dense_ok = cone.size <= statevector_cap
    prefer_contract = cone.is_tree and cone.size > TREE_CONTRACT_THRESHOLD
    if dense_ok and not prefer_contract:
        return expectation_statevector(circ, cap=statevector_cap), "statevector"
    try:
        return expectation_contract(circ, budget=contraction_budget), "contraction"
    except ContractionBudgetExceeded:
        if not dense_ok:
            raise
        return expectation_statevector(circ, cap=statevector_cap), "statevector"


def evaluate_cone(
    cone: LightCone,
    schedule: AngleSchedule,
    cache: ExpectationCache | None = None,
):
    """Ideal <Z_root> for a cone, through the cache when one is given.

    Depth-1 cones use the closed form; deeper ones go through
    :func:`expectation`.  Returns (record, key).
    """
    if cache is not None and cache.schedule.fingerprint != schedule.fingerprint:
        raise ValueError("cache was built for a different angle schedule")
    key = canonical_key(cone)
    if cache is not None:
        hit = cache.get(key.data)
        if hit is not None:
            return hit, key
    if cone.depth == 1:
        deg = cone.in_degrees()[0]
        value = expectation_p1_analytic(
            deg, IsingParams(schedule.lam).field(deg),
            schedule.gammas[0], schedule.betas[0], schedule.lam,
        )
        engine = "analytic"
    else:
        value, engine = expectation(cone, schedule)
    record = ExpectationRecord(value=value, engine=engine, cone_size=cone.size)
    if cache is not None:
        cache.insert(key.data, record)
    return record, key
