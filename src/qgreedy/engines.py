"""Expectation-value engines for cone circuits.

Every expectation measures the roots of one light cone: <Z_root> on a
vertex cone for the solver, and also <Z_u Z_v> on the two-root edge cone
for the angle optimizer.  There are two routes:

* a closed form for single-layer circuits,
* a path-integral tensor contraction whose cost is set by the cone's
  treewidth, not its qubit count.

:func:`expectation` is the one routing decision: a depth-1 cone of one
root takes the closed form, and every other cone contracts its pruned
circuit, raising ContractionBudgetExceeded when the plan's peak-entry
estimate trips ``CONTRACTION_BUDGET``.  The solver reaches it through
:meth:`ExpectationCache.value`, which evaluates a missed class on the cone
its key describes; a tree cone's key is read off the graph, and only a
cyclic cone is extracted and keyed by :func:`evaluate_cone`.  The angle
optimizer and the resolution cutoff call the router directly.
Dense statevector evolution, capped at ``STATEVECTOR_CAP`` qubits, is a
test oracle that no solve calls: each route agrees with it to tight
tolerance on overlapping domains, which guards against a silent convention
error.  It stays in this module because the benchmark tracer
(``perfbench/tracing.py``) names it as a span; the other oracles live with
the tests.

The contraction engine views the expectation as a classical partition
function on a time-expanded copy of the cone graph: the cost layers are
diagonal and the mixers factor per qubit, so after inserting a
computational basis between every layer, each vertex carries one size-4
variable (its forward and backward spin) per time slice in its gate list
``ConeCircuit.gates[v]``; a pruned vertex has none for the slices after
its last gate.  Mixer transfer matrices link consecutive slices of a
vertex, each entry of ``ConeCircuit.couplings`` links two same-slice
variables with a 4x4 phase kernel, and the shared measurement slice is
summed into each vertex's last factor up front.  The elimination order is
planned on bitmasks of the time-expanded graph: greedy minimum degree,
ties to the lowest vertex and, within a vertex, to its latest slice, so a
vertex's chain is eliminated from its last slice back.  On trees this
collapses leaf chains first, keeping the peak intermediate exponential in
the layer count only.  Each elimination is one einsum over its cluster.
"""

from __future__ import annotations

import functools
import heapq
import math
from array import array
from bisect import bisect_right
from itertools import accumulate

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


def expectation_statevector(circ: ConeCircuit) -> float:
    """Evolve the full state and read off the observable.

    The expectation is computed from probabilities, so the returned value is
    exactly real by construction.  Raises StatevectorCapExceeded above
    ``STATEVECTOR_CAP`` qubits.
    """
    n = circ.n_qubits
    if n > STATEVECTOR_CAP:
        raise StatevectorCapExceeded(n, STATEVECTOR_CAP)
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

    for k in range(circ.depth):
        diag = np.zeros(shape, dtype=np.float64)
        for u, v, layer, w in circ.couplings:
            if layer == k:
                diag += w * (spin_axis(u) * spin_axis(v))
        gated = [(v, g[k]) for v, g in enumerate(circ.gates) if k < len(g)]
        for v, (z, _) in gated:
            diag += z * spin_axis(v)
        state *= np.exp(-1j * diag)
        for q, (_, beta) in gated:
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

    ``profile`` is (``ConeCircuit.gates[v]``, observed): the (z weight,
    mixer angle) of each gated slice, and whether v is measured.  One
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
    gates, observed = profile
    diag = [np.exp(-1j * z * (_TAU_F - _TAU_B)) for z, _ in gates]
    diag[0] = diag[0] * 0.5  # |+> overlap, both branches
    chain = [
        (d[:, None] * _transfer(beta, _TAU_F, _TAU_B)).T
        for d, (_, beta) in zip(diag, gates[:-1])
    ][::-1]
    last = _transfer(gates[-1][1], _MEASURED, _MEASURED)
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


def expectation_contract(circ: ConeCircuit) -> float:
    """Contract the cone's path-integral network.

    Variables live on the slices of each vertex's gate list, so the
    accumulator cost is 4^cluster regardless of depth.  They are numbered
    vertex by vertex, each vertex's from its last gated slice back, so
    slice k of vertex v needs no table: it is ``first[v + 1] - 1 - k``
    (the circuit couples only slices that both endpoints keep).  The
    variables are eliminated in the min-degree order of
    :func:`_elimination_order`, so ties go to the lowest vertex and, within
    it, to its latest slice.  The projected peak intermediate size is
    checked against ``CONTRACTION_BUDGET`` before any tensor is built.
    Each elimination is one einsum over the cluster, with no path search.
    """
    # variables of vertex v: first[v] (its last slice) to first[v + 1] - 1
    first = [0, *accumulate(map(len, circ.gates))]

    # plan elimination on the time-expanded graph and check the budget first
    nb = [0] * first[-1]
    for start, end in zip(first, first[1:]):
        for x in range(start, end - 1):
            nb[x] |= 1 << x + 1
            nb[x + 1] |= 1 << x
    edges = [
        (first[u + 1] - 1 - k, first[v + 1] - 1 - k, w)
        for u, v, k, w in circ.couplings
    ]
    for a, b, _ in edges:
        nb[a] |= 1 << b
        nb[b] |= 1 << a
    plan, max_cluster = _elimination_order(nb)
    entries = 4**max_cluster  # peak accumulator before summing the variable
    if entries > CONTRACTION_BUDGET:
        raise ContractionBudgetExceeded(max_cluster - 1, entries,
                                        CONTRACTION_BUDGET)

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
    for v, gates in enumerate(circ.gates):
        chain = _vertex_factors((gates, v in observed))
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


MAX_SHOTS = 2**20  # largest shot count a solve may draw with
_WORD = 2**64  # shot draws read one uniform word in [0, 2**64)
_TINY = 2.0**-64  # a count of smaller mass can never be drawn
_LOG_WORD = 64 * math.log(2)


@functools.lru_cache(maxsize=512)
def _shot_table(ideal: float, shots: int) -> tuple[int, array]:
    """(lowest count, thresholds) that turn a uniform 64-bit word into a
    Binomial(shots, (1 + ideal)/2) count of +1 outcomes.

    Only the window of counts whose float64 mass exceeds 2**-64 is kept;
    no other count owns a word.  Threshold j is 2**64 times the
    probability of a count at most lowest + j, for all but the last count,
    so the count of a word is lowest + bisect_right(thresholds, word).  The
    weights come from the pmf-ratio recursion in float64, as running
    products out from the mode, and each threshold is summed from its own
    tail (the CDF below the mode, the survival function from it up), so a
    tail keeps its 64-bit resolution.

    A table costs O(sqrt(shots)) to build, in numpy passes over a window
    set by Hoeffding's bound: about 30 us at 991 shots and 170 us at
    ``MAX_SHOTS`` on a 2-core x86 box, where a draw from a memoized table
    is one bisect.  So shot advice is cheap where ideal values repeat (two
    p = 3 solves on N = 1000 draw each of their 446 values 27 times on
    average) and pays about one build per draw where they do not (at
    p = 4 most cone classes are drawn once or twice).  Memoized per (ideal, shots): the
    largest table, at ``MAX_SHOTS`` and ideal 0, holds about 8 900 words
    (71 kB), so the 512 memoized tables hold at most about 36 MB.
    Read-only, since calls share them.
    """
    p = (1.0 + ideal) / 2.0
    q = 1.0 - p
    mode = min(shots, math.floor((shots + 1) * p))
    # Hoeffding bounds the mass of the counts t or more from shots * p by
    # exp(-2 t**2 / shots), and the mode holds at least 1/(shots + 1), so a
    # count whose mass exceeds 2**-64 of the mode's lies within reach of it
    # (the 2 covers the mode's distance from shots * p, and rounding)
    bound = _LOG_WORD + math.log(shots + 1)
    reach = 2 + math.ceil(math.sqrt(shots / 2 * bound))
    lo = max(0, mode - reach)
    j = np.arange(lo, min(shots, mode + reach))
    m = mode - lo
    # pmf(j + 1) / pmf(j) = a / b; the walk up multiplies a / b from the
    # mode, the walk down b / a (the ratio pmf(j) / pmf(j + 1))
    a = (shots - j) * p
    b = (j + 1) * q
    above = np.cumprod(a[m:] / b[m:])
    below = np.cumprod(b[:m][::-1] / a[:m][::-1])
    total = 1.0 + above.sum() + below.sum()
    # both walks fall monotonically from the mode, so the counts of mass
    # above 2**-64 are a prefix of each
    cut = _TINY * total
    above = above[: np.count_nonzero(above > cut)]
    below = below[: np.count_nonzero(below > cut)]
    scale = _WORD / total
    cdf = np.rint(np.cumsum(below[::-1]) * scale).astype(np.uint64)
    sf = np.rint(np.cumsum(above[::-1]) * scale).astype(np.uint64)
    # every sf word is at least 1, so -sf is 2**64 - sf in uint64
    words = np.concatenate([cdf, -sf[::-1]])
    return mode - len(below), array("Q", words.tobytes())


def sample_shots(ideal: float, shots: int, word: int) -> float:
    """Mean of ``shots`` simulated single-qubit Z measurements.

    ``word`` is a uniform integer in [0, 2**64), the draw's only
    randomness.  The count of +1 outcomes is the Binomial(shots,
    (1 + ideal)/2) count whose CDF bracket holds word / 2**64, found by
    inversion with one bisect in a memoized table (:func:`_shot_table`), so
    equal arguments give equal draws.  Unbiased up to the 2**-64 mass
    left out of the table; variance at most 1/shots; ideal values of +-1
    are exact.
    """
    if not -1.0 <= ideal <= 1.0:
        raise ValueError(f"expectation {ideal} outside [-1, 1]")
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must lie in [1, MAX_SHOTS = {MAX_SHOTS}]: {shots}")
    if not 0 <= word < _WORD:
        raise ValueError(f"word {word} outside [0, 2**64)")
    lowest, thresholds = _shot_table(ideal, shots)
    up = lowest + bisect_right(thresholds, word)
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

    def value(self, key: bytes) -> float:
        """The class's value: stored, or on a miss computed with
        :func:`expectation` on the cone the key describes, and stored.  So
        the value depends on the class alone, not on the member that
        missed."""
        value = self.get(key)
        if value is None:
            value = expectation(cone_from_key(key), self.schedule)
            self._store[key] = value
        return value


def expectation(cone: LightCone, schedule: AngleSchedule) -> float:
    """The product of Z over the cone's roots: the closed form for a
    depth-1 cone of one root, else a contraction of its pruned circuit.

    Raises ContractionBudgetExceeded when the plan trips the budget.
    """
    if cone.depth == 1 and cone.dists.count(0) == 1:
        deg = cone.in_degrees()[0]
        return expectation_p1_analytic(
            deg, IsingParams(schedule.lam).field(deg),
            schedule.gammas[0], schedule.betas[0], schedule.lam,
        )
    return expectation_contract(build_circuit(cone, schedule, prune_layers=True))


def evaluate_cone(cone: LightCone, cache: ExpectationCache) -> tuple[float, bytes]:
    """(Ideal <Z_root>, canonical key) of a single-root cone, from the cache."""
    key = canonical_key(cone)
    return cache.value(key), key
