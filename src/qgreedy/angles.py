"""Fixed-angle schedules optimized on the regular tree.

On a d-regular graph with girth above 2p+1 every depth-p vertex cone is the
full depth-p tree and every edge cone is the two-root tree of an adjacent
pair, so the energy per vertex reduces to two tree expectations:

    e(gammas, betas) = (d/2) J <Z_u Z_v>_edge + h <Z_root>_vertex + offset

with J, h and offset the coupling, field and offset of
:class:`qgreedy.graph.IsingParams` at degree d.  Both expectations go
through :func:`qgreedy.engines.expectation`, the engine the solver uses.
Angles minimizing e on the tree are then reused on every instance of the
same degree bound.
The minimized energy can only improve with depth since a depth-p schedule
zero-padded to depth p+1 reproduces the same value.

Also provides the resolution cutoff delta_p: the expectation shift at the
root caused by the smallest structural change a depth-p cone can see (a
cross edge closing a cycle at the edge of the cone), used by solvers to
decide when two advice values should count as tied.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .circuits import AngleSchedule
from .cones import LightCone, extract_lightcone, extract_lightcone_multi
from .engines import expectation
from .graph import Graph, IsingParams


def _full_tree(depth: int, d: int) -> tuple[Graph, list[list[int]]]:
    """Rooted tree where the root has d children and everyone else d-1.

    Returns the graph and the shells (vertices grouped by distance from the
    root, vertex 0).
    """
    edges = []
    shells = [[0]]
    nxt = 1
    for level in range(depth):
        shell = []
        for v in shells[level]:
            fanout = d if level == 0 else d - 1
            for _ in range(fanout):
                edges.append((v, nxt))
                shell.append(nxt)
                nxt += 1
        shells.append(shell)
    return Graph(nxt, edges), shells


def vertex_cone(depth: int, d: int) -> LightCone:
    g, _ = _full_tree(depth, d)
    return extract_lightcone(g, 0, depth)


def edge_cone(depth: int, d: int) -> LightCone:
    # the root and its first child; at d = 0, which has no edge and whose
    # edge term has weight 0, the bare edge of the d = 1 tree stands in
    g, _ = _full_tree(depth + 1, max(d, 1))
    return extract_lightcone_multi(g, (0, 1), depth)


def _energy(schedule: AngleSchedule, vcone: LightCone, econe: LightCone) -> float:
    """Energy per vertex from <Z_root> and <Z_u Z_v> on prebuilt tree cones."""
    z = expectation(vcone, schedule)
    zz = expectation(econe, schedule)
    d, ising = schedule.degree, IsingParams(schedule.lam)
    return (d / 2.0) * ising.coupling * zz + ising.field(d) * z + ising.offset(d)


def normalize_schedule(schedule: AngleSchedule) -> AngleSchedule:
    """Fix the conjugation gauge: flip all signs so the first gamma is >= 0.

    (gammas, betas) -> (-gammas, -betas) conjugates the state and leaves
    every Z-string expectation unchanged.
    """
    if schedule.gammas[0] < 0:
        return AngleSchedule(
            schedule.depth,
            schedule.degree,
            schedule.lam,
            tuple(-g for g in schedule.gammas),
            tuple(-b for b in schedule.betas),
        )
    return schedule


@dataclass(frozen=True)
class AngleOptimum:
    schedule: AngleSchedule
    energy: float


def optimize_tree_angles(
    depth: int,
    d: int = 3,
    lam: float = 1.0,
    seed: int = 0,
    restarts: int = 6,
    warm_start: AngleSchedule | None = None,
) -> AngleOptimum:
    """Minimize the tree energy over 2*depth angles.

    Nelder-Mead from several starts: the zero-padded optimum of depth-1
    (found recursively, or supplied as ``warm_start`` to skip the
    recursion), plus ``restarts`` seeded random points in [-pi/2, pi/2]^{2p}.
    Raises ValueError when that leaves no start.  Deterministic for fixed
    inputs.
    """
    from scipy.optimize import minimize  # slow to import; only needed here

    if depth < 1:
        raise ValueError("depth must be >= 1")
    if warm_start is not None and (
        warm_start.depth != depth - 1
        or warm_start.degree != d
        or warm_start.lam != lam
    ):
        raise ValueError(
            "warm_start must be one level shallower with the same (d, lam)"
        )
    if restarts < 1 and warm_start is None:
        raise ValueError("need restarts >= 1 or a warm start")
    vcone = vertex_cone(depth, d)
    econe = edge_cone(depth, d)

    def objective(x: np.ndarray) -> float:
        sched = AngleSchedule(depth, d, lam, tuple(x[:depth]), tuple(x[depth:]))
        return _energy(sched, vcone, econe)

    rng = np.random.default_rng(seed)
    starts = []
    if depth > 1:
        prev = warm_start
        if prev is None:
            prev = optimize_tree_angles(
                depth - 1, d, lam, seed=seed, restarts=restarts
            ).schedule
        starts.append(
            np.array(list(prev.gammas) + [0.0] + list(prev.betas) + [0.0])
        )
    for _ in range(restarts):
        starts.append(rng.uniform(-math.pi / 2, math.pi / 2, size=2 * depth))

    best_x, best_e = None, math.inf
    for x0 in starts:
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "xatol": 1e-8,
                "fatol": 1e-12,
                "maxiter": 2000 * depth,
                "maxfev": 2000 * depth,
            },
        )
        if res.fun < best_e:
            best_e, best_x = res.fun, res.x
    sched = normalize_schedule(
        AngleSchedule(depth, d, lam, tuple(best_x[:depth]), tuple(best_x[depth:]))
    )
    return AngleOptimum(schedule=sched, energy=_energy(sched, vcone, econe))


@functools.cache
def delta_cutoff(schedule: AngleSchedule) -> float:
    """Smallest root-expectation shift a depth-p cone can resolve.

    Computed once per schedule; later calls return the memoized value.

    For p >= 2 and d >= 2: take the full tree cone and close a cycle across
    the edge of the cone with one cross edge between two last-shell-but-one
    vertices in different root branches, dropping one outer-shell child from
    each so the degree bound survives.  delta is the absolute change in
    <Z_root>.

    At p = 1, or below degree 2 at any depth, the only cones are stars
    classified by root degree alone (no cycle can close), so the cutoff is
    the minimum gap between distinct star expectations.
    """
    p, d = schedule.depth, schedule.degree
    if p == 1 or d < 2:
        values = sorted(expectation(vertex_cone(p, k), schedule)
                        for k in range(d + 1))
        gaps = [b - a for a, b in zip(values, values[1:]) if b > a]
        return min(gaps) if gaps else 0.0

    g, shells = _full_tree(p, d)
    base = extract_lightcone(g, 0, p)
    v_base = expectation(base, schedule)

    # first shell-(p-1) vertex under root child 0, first under root child 1
    per_branch = len(shells[p - 1]) // d
    a = shells[p - 1][0]
    b = shells[p - 1][per_branch]
    drop = {min(g.adj[a][1:]), min(g.adj[b][1:])}  # adj[.][0] is the parent
    edges = [
        (u, v)
        for u, nbrs in enumerate(g.adj)
        for v in nbrs
        if u < v and u not in drop and v not in drop
    ]
    edges.append((a, b))
    mod = Graph(g.n, edges)
    cone = extract_lightcone(mod, 0, p)
    v_mod = expectation(cone, schedule)
    return abs(v_base - v_mod)


# -- angle file round trip ---------------------------------------------------


def write_angle_file(path, optimum: AngleOptimum) -> None:
    sched = optimum.schedule
    with open(path, "w") as fh:
        fh.write("# fixed angles minimizing the per-vertex tree energy\n")
        fh.write(f"p={sched.depth}\n")
        fh.write(f"d={sched.degree}\n")
        fh.write(f"lambda={sched.lam:.17g}\n")
        fh.write(f"energy={optimum.energy:.17g}\n")
        fh.write("gamma " + " ".join(f"{g:.17g}" for g in sched.gammas) + "\n")
        fh.write("beta " + " ".join(f"{b:.17g}" for b in sched.betas) + "\n")


def parse_angle_text(text: str) -> AngleOptimum:
    fields: dict[str, str] = {}
    gammas = betas = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("gamma "):
            gammas = tuple(float(t) for t in line.split()[1:])
        elif line.startswith("beta "):
            betas = tuple(float(t) for t in line.split()[1:])
        elif "=" in line:
            key, _, val = line.partition("=")
            fields[key.strip()] = val.strip()
        else:
            raise ValueError(f"unrecognized angle file line: {line!r}")
    missing = {"p", "d", "lambda", "energy"} - set(fields)
    if missing or gammas is None or betas is None:
        raise ValueError(f"incomplete angle file (missing {sorted(missing)})")
    sched = AngleSchedule(
        int(fields["p"]), int(fields["d"]), float(fields["lambda"]),
        gammas, betas,
    )
    return AngleOptimum(schedule=sched, energy=float(fields["energy"]))


def read_angle_file(path) -> AngleOptimum:
    with open(path) as fh:
        return parse_angle_text(fh.read())


def angle_file_name(depth: int, d: int, lam: float) -> str:
    """File name of the (depth, degree, lambda) schedule, shipped or not."""
    return f"p{depth}_d{d}_lam{lam:g}.txt"


def load_default_angles(depth: int, d: int = 3, lam: float = 1.0) -> AngleOptimum:
    """Schedule shipped with the package, optimized by scripts/gen_default_angles.py."""
    name = angle_file_name(depth, d, lam)
    ref = resources.files("qgreedy").joinpath("data", "angles", name)
    try:
        text = ref.read_text()
    except FileNotFoundError:
        raise FileNotFoundError(
            f"no shipped angle file for depth={depth} d={d} lambda={lam:g}"
        ) from None
    return parse_angle_text(text)
