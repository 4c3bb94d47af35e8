"""Expectation-value engines for cone circuits.

The solver and the angle optimizer compute <Z_root> (or a product of Z
over the observable set) by two routes:

* a closed form for single-layer circuits,
* a path-integral tensor contraction whose cost is set by the cone's
  treewidth, not its qubit count.

:func:`expectation` is the one routing decision: <Z_root> on a depth-1
cone takes the closed form, and every other cone contracts its pruned
circuit, raising ContractionBudgetExceeded when the plan's peak-entry
estimate trips ``CONTRACTION_BUDGET``.  The solver reaches it through
:func:`evaluate_cone`, which adds only the cache; the angle optimizer and
the resolution cutoff call it directly.
Dense statevector evolution, capped at ``STATEVECTOR_CAP`` qubits, is a
test oracle that no solve calls: each route agrees with it to tight
tolerance on overlapping domains, which guards against a silent convention
error.  It stays in this module because the benchmark tracer
(``perfbench/tracing.py``) names it as a span; the other oracles live with
the tests.

The contraction engine views the expectation as a classical partition
function on a time-expanded copy of the cone graph: the cost layers are
diagonal and the mixers factor per qubit, so after inserting a
computational basis between every layer, each (vertex, time slice) pair
where the vertex has a gate carries one size-4 variable (its forward and
backward spin at that slice); a pruned vertex has none for the slices
after its last gate.  Mixer transfer matrices link consecutive slices of
a vertex, each causal edge couples same-slice neighbors with a 4x4 phase
kernel, and the shared measurement slice is summed into each vertex's
last factor up front.  The elimination order is planned on bitmasks of
the time-expanded graph: greedy minimum degree, ties to the lowest vertex
and, within a vertex, to its latest slice, so a vertex's chain is
eliminated from its last slice back.  On trees this collapses leaf chains
first, keeping the peak intermediate exponential in the layer count only.
Each elimination is one einsum over its cluster.
"""

from __future__ import annotations

import functools
import heapq
import math

import numpy as np

from .circuits import AngleSchedule, ConeCircuit, build_circuit
from .cones import LightCone, canonical_key, cone_from_key
from .errors import ContractionBudgetExceeded, StatevectorCapExceeded
from .graph import IsingParams

STATEVECTOR_CAP = 24
CONTRACTION_BUDGET = 2**26  # max tensor entries per intermediate, ~1 GB


# -- closed forms for p = 1 -------------------------------------------------


def expectation_p1_analytic(
    degree: int, h: float, gamma: float, beta: float, lam: float = 1.0
) -> float:
    """Single-layer <Z_root> on a star cone of the given root degree.

    sin(2 beta) sin(2 gamma h) cos(2 gamma J)^degree, with J the edge
    coupling of :class:`qgreedy.graph.IsingParams`; with couplings
    normalized to 1 it collapses to cos(2 gamma)^degree.
    """
    return (
        math.sin(2.0 * beta)
        * math.sin(2.0 * gamma * h)
        * math.cos(2.0 * gamma * IsingParams(lam).coupling) ** degree
    )


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

    for layer in circ.layers:
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
_MEASURED = np.array([1.0, -1.0])  # measurement slice, one bit per vertex


def _transfer(beta: float, nxt_f: np.ndarray, nxt_b: np.ndarray) -> np.ndarray:
    """Mixer e^{-i beta X} on the forward branch, its conjugate on the back."""
    cb, sb = math.cos(beta), math.sin(beta)
    mf = np.where(_TAU_F[:, None] == nxt_f[None, :], cb, -1j * sb)
    mb = np.where(_TAU_B[:, None] == nxt_b[None, :], cb, 1j * sb)
    return mf * mb


@functools.lru_cache(maxsize=4096)
def _vertex_factors(profile):
    """Mixer transfer chain with the measurement slice summed in.

    ``profile`` is ((z weight, mixer angle) per gated slice, observed).  One
    size-4 variable per gated slice holds the vertex's forward and backward
    spin where that phase layer acts.  The mixer after a slice links it to
    the next gated one, since no gate acts on the vertex in between; the
    mixer after the last lands on the shared measurement slice, which
    couples to nothing else and is summed into the last slice's weight.
    Returns the chain from the last slice back: matrix j has axes (j-th
    latest slice, the slice before it), and the first carries the last
    slice's weight.  A vertex with one gated slice gets that weight alone,
    a vector.  Read-only, since calls share them.
    """
    steps, observed = profile
    diag = [np.exp(-1j * z * (_TAU_F - _TAU_B)) for z, _ in steps]
    diag[0] = diag[0] * 0.5  # |+> overlap, both branches
    chain = [
        (d[:, None] * _transfer(beta, _TAU_F, _TAU_B)).T
        for d, (_, beta) in zip(diag, steps[:-1])
    ][::-1]
    last = _transfer(steps[-1][1], _MEASURED, _MEASURED)
    if observed:
        last = last * _MEASURED[None, :]
    last = diag[-1] * last.sum(axis=1)
    if chain:
        chain[0] = last[:, None] * chain[0]
    else:
        chain = [last]
    for arr in chain:
        arr.flags.writeable = False
    return tuple(chain)


@functools.lru_cache(maxsize=4096)
def _edge_kernel(w: float) -> np.ndarray:
    """4x4 coupling for one edge in one layer: exp(i w (b b' - f f')).

    Read-only, since calls share it."""
    kernel = np.exp(1j * w * _EDGE_DIFF)
    kernel.flags.writeable = False
    return kernel


def _bits(mask: int) -> list[int]:
    """Set bit positions of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _elimination_order(nb: list[int]) -> tuple[list[int], int]:
    """Greedy min-degree elimination order and its largest cluster.

    ``nb[x]`` is the bitmask of variable x's neighbours.  Each step removes
    the variable of fewest remaining neighbours, lowest id first, and joins
    its neighbours into a clique; the cluster is the variable plus its
    neighbours at that moment.
    """
    nb = list(nb)
    heap = [(m.bit_count(), x) for x, m in enumerate(nb)]
    heapq.heapify(heap)
    done = [False] * len(nb)
    order = []
    max_cluster = 1
    while heap:
        size, pick = heapq.heappop(heap)
        if done[pick] or size != nb[pick].bit_count():
            continue  # stale entry: eliminated, or its cluster changed
        done[pick] = True
        order.append(pick)
        max_cluster = max(max_cluster, size + 1)
        nbrs = nb[pick]
        for a in _bits(nbrs):
            old = nb[a]
            new = (old | nbrs) & ~(1 << a | 1 << pick)
            nb[a] = new
            if new != old:
                heapq.heappush(heap, (new.bit_count(), a))
    return order, max_cluster


def expectation_contract(
    circ: ConeCircuit, budget: int = CONTRACTION_BUDGET
) -> float:
    """Contract the cone's path-integral network.

    Variables live on the (vertex, slice) pairs where the vertex has a gate,
    so the accumulator cost is 4^cluster regardless of depth.  They are
    numbered vertex by vertex, each vertex's from its last gated slice
    back, and eliminated in the min-degree order of
    :func:`_elimination_order`, so ties go to the lowest vertex and, within
    it, to its latest slice.  The projected peak intermediate size is
    checked against ``budget`` before any tensor is built.  Each elimination
    is one einsum over the cluster, with no path search.
    """
    n = circ.n_qubits
    # gated slices per vertex, in layer order: [z weight, mixer angle];
    # slice 0 always, so that a vertex without gates keeps one variable
    steps = [{0: [0.0, 0.0]} for _ in range(n)]
    couplings = []  # (u, v, slice, weight); zero weights drop out
    for k, layer in enumerate(circ.layers):
        for v, w in layer.z:
            steps[v].setdefault(k, [0.0, 0.0])[0] = w
        for v, beta in layer.x:
            steps[v].setdefault(k, [0.0, 0.0])[1] = beta
        for u, v, w in layer.zz:
            if w != 0.0:
                steps[u].setdefault(k, [0.0, 0.0])
                steps[v].setdefault(k, [0.0, 0.0])
                couplings.append((u, v, k, w))
    var: dict[tuple[int, int], int] = {}  # (vertex, slice) -> variable id
    first = []  # each vertex's last slice; its earlier slices follow
    for v in range(n):
        first.append(len(var))
        for k in reversed(steps[v]):
            var[v, k] = len(var)
    first.append(len(var))

    # plan elimination on the time-expanded graph and check the budget first
    nb = [0] * len(var)
    for v in range(n):
        for x in range(first[v], first[v + 1] - 1):
            nb[x] |= 1 << x + 1
            nb[x + 1] |= 1 << x
    edges = [(var[u, k], var[v, k], w) for u, v, k, w in couplings]
    for a, b, _ in edges:
        nb[a] |= 1 << b
        nb[b] |= 1 << a
    plan, max_cluster = _elimination_order(nb)
    entries = 4**max_cluster  # peak accumulator before summing the variable
    if entries > budget:
        raise ContractionBudgetExceeded(max_cluster - 1, entries, budget)

    # relabel the variables by their place in the plan; a factor then waits
    # in the bucket of its lowest variable, the first of them eliminated,
    # keyed by the bitmask of its variables (axes ascending), so two factors
    # on the same variables multiply into one
    rank = [0] * len(plan)
    for i, x in enumerate(plan):
        rank[x] = i
    buckets: list[dict[int, tuple[np.ndarray, list[int]]]] = [{} for _ in plan]

    def add(key: int, ys: list[int], arr: np.ndarray) -> None:
        bucket = buckets[ys[0]]
        if key in bucket:
            arr = bucket[key][0] * arr
        bucket[key] = arr, ys

    def add_pair(a: int, b: int, mat: np.ndarray) -> None:
        a, b = rank[a], rank[b]
        if a < b:
            add(1 << a | 1 << b, [a, b], mat)
        else:
            add(1 << a | 1 << b, [b, a], mat.T)

    observed = set(circ.observable)
    for v in range(n):
        gated = tuple(tuple(zx) for zx in steps[v].values())
        chain = _vertex_factors((gated, v in observed))
        if chain[0].ndim == 1:
            r = rank[first[v]]
            add(1 << r, [r], chain[0])
        else:
            for x, mat in enumerate(chain, first[v]):
                add_pair(x, x + 1, mat)
    for a, b, w in edges:
        add_pair(a, b, _edge_kernel(w))

    value = 1.0
    for x, group in enumerate(buckets):
        out = 0
        for key in group:
            out |= key
        out ^= 1 << x
        ys = _bits(out)
        axis = {y: i for i, y in enumerate(ys, 1)}
        axis[x] = 0
        operands = []
        for arr, fys in group.values():
            operands += (arr, [axis[y] for y in fys])
        arr = np.einsum(*operands, list(range(1, len(ys) + 1)))
        if ys:
            add(out, ys, arr)
        else:
            value = value * arr
    return float(complex(value).real)


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


class ExpectationCache:
    """Canonical-key keyed store of ideal cone expectations, as floats.

    One cache serves exactly one angle schedule; mixing schedules in a single
    store would alias values, so callers run :meth:`check_schedule` before
    use.  The store lives in memory only, and no cache is shared between
    threads: a sweep's workers are processes, each with its own.
    """

    def __init__(self, schedule: AngleSchedule):
        self.schedule = schedule
        self._store: dict[bytes, float] = {}

    def __len__(self) -> int:
        return len(self._store)

    def check_schedule(self, schedule: AngleSchedule) -> None:
        """Raise ValueError unless ``schedule`` is the one this cache serves."""
        if self.schedule is not schedule and self.schedule != schedule:
            raise ValueError("cache was built for a different angle schedule")

    def get(self, key: bytes) -> float | None:
        return self._store.get(key)

    def insert(self, key: bytes, value: float) -> None:
        self._store[key] = value


def expectation(
    cone: LightCone,
    schedule: AngleSchedule,
    observable: tuple[int, ...] = (0,),
) -> float:
    """<Z...> on ``observable``: the closed form for <Z_root> on a depth-1
    cone, else a contraction of the cone's pruned circuit.

    Raises ContractionBudgetExceeded when the plan trips the budget.
    """
    if cone.depth == 1 and tuple(observable) == (0,):
        deg = cone.in_degrees()[0]
        return expectation_p1_analytic(
            deg, IsingParams(schedule.lam).field(deg),
            schedule.gammas[0], schedule.betas[0], schedule.lam,
        )
    circ = build_circuit(cone, schedule, prune_layers=True, observable=observable)
    return expectation_contract(circ)


def evaluate_cone(
    cone: LightCone,
    schedule: AngleSchedule,
    cache: ExpectationCache | None = None,
) -> tuple[float, bytes]:
    """Ideal <Z_root> for a cone, through the cache when one is given.

    A miss evaluates the class's own cone, rebuilt from its key, with
    :func:`expectation`, so the value depends on the class alone.  Returns
    (value, canonical key).
    """
    key = canonical_key(cone)
    if cache is not None:
        cache.check_schedule(schedule)
        hit = cache.get(key)
        if hit is not None:
            return hit, key
    value = expectation(cone_from_key(key), schedule)
    if cache is not None:
        cache.insert(key, value)
    return value, key
