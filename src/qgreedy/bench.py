"""Ensemble benchmark harness.

A plan names sizes, solvers, depths, and an advice mode; run_plan generates
one shared instance set per size from the master seed and runs every
configured solver on every instance, so depth-to-depth and solver-to-solver
comparisons are paired.  It returns one ReportRow per (size, solver, depth),
sorted, and writes the same rows as CSV.  Per-instance results are flushed
to a sidecar file in the order the instances finish, and reruns skip rows
already present, so an interrupted run resumes where it stopped.  The
sidecar's first line holds a digest of the plan fields that decide the
results (all but ``workers``, ``out`` and ``stamp``) and of each depth's
resolved SolverConfig, angles included; a plan never resumes a sidecar
written by another plan or another angle schedule.  Angle files are read
and checked before the sidecar is opened.

Reference constants to read the aggregates against: the asymptotic mean
ratio of the classical min-degree greedy on large random 3-regular graphs,
6 ln(3/2) - 2, and the best known prioritized-search ratio 0.445330.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .angles import angle_file_name, load_default_angles, read_angle_file
from .engines import ExpectationCache
from .errors import AngleFileMismatch
from .graph import check_regular, generate_regular
from .noise import NoiseParams
from .solver import (
    SolverConfig,
    check_advice,
    solve_classical_greedy,
    solve_quantum_greedy,
)

GREEDY_ASYMPTOTE = 6.0 * math.log(1.5) - 2.0  # ~0.43283
PRIORITIZED_SEARCH_RATIO = 0.445330

CSV_COLUMNS = "size,solver,depth,instances,mean_r,sem,3sem,lambda,advice,seed"


@dataclass(frozen=True)
class ExperimentPlan:
    sizes: tuple[int, ...] = ()  # required: empty is rejected
    instances: int = 1
    solvers: tuple[str, ...] = ("greedy",)
    depths: tuple[int, ...] = ()
    lam: float = 1.0
    advice: str = "ideal"
    shots: int = 0
    noise: NoiseParams | None = None
    seed: int = 0
    degree: int = 3
    out: str = "bench.csv"
    angles_dir: str | None = None
    workers: int = 1
    stamp: bool = True

    def __post_init__(self):
        if not self.sizes:
            raise ValueError("sizes must be a nonempty list")
        for s in self.sizes:  # each size must have a degree-regular graph
            check_regular(s, self.degree)
        if self.instances < 1:
            raise ValueError("instances must be >= 1")
        for s in self.solvers:
            if s not in ("greedy", "qgreedy"):
                raise ValueError(f"unknown solver {s!r}")
        if "qgreedy" in self.solvers and not self.depths:
            raise ValueError("qgreedy requested but no depths given")
        if any(p < 1 for p in self.depths):
            raise ValueError(f"depths must be >= 1: {self.depths}")
        check_advice(self.advice, self.shots, self.noise)
        # a field that no cell reads is a mistake in the plan, not a no-op
        quantum = "qgreedy" in self.solvers
        for name, unread in [
            ("shots", self.shots and self.advice != "shots"),
            ("noise (eta, alpha, sigma, noise_seed)",
             self.noise is not None and self.advice != "noise"),
            ("depths", self.depths and not quantum),
            ("angles_dir", self.angles_dir is not None and not quantum),
            ("advice", self.advice != "ideal" and not quantum),
            ("lambda", self.lam != 1.0 and not quantum),
        ]:
            if unread:
                raise ValueError(f"{name} is set but no cell reads it (advice "
                                 f"{self.advice!r}, solvers {self.solvers})")
        for name in ("sizes", "solvers", "depths"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} holds a duplicate: {values}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0: {self.seed}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


_STAMP_TOKENS = {"true": True, "1": True, "yes": True,
                 "false": False, "0": False, "no": False}


def _words(text: str) -> tuple[str, ...]:
    return tuple(text.replace(",", " ").split())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in _words(text))


def _stamp(text: str) -> bool:
    token = text.lower()
    if token not in _STAMP_TOKENS:
        raise ValueError(f"stamp must be true/false, 1/0 or yes/no: {token!r}")
    return _STAMP_TOKENS[token]


# plan key -> (ExperimentPlan field, parser of its text); a key the text
# leaves out takes the field's default
_PLAN_FIELDS = {
    "sizes": ("sizes", _ints), "instances": ("instances", int),
    "solvers": ("solvers", _words), "depths": ("depths", _ints),
    "lambda": ("lam", float), "advice": ("advice", str),
    "shots": ("shots", int), "seed": ("seed", int), "degree": ("degree", int),
    "out": ("out", str), "angles_dir": ("angles_dir", str),
    "workers": ("workers", int), "stamp": ("stamp", _stamp),
}
# plan key -> (NoiseParams field, parser); an unset one reads 0
_NOISE_FIELDS = {
    "eta": ("eta", float), "alpha": ("alpha", float),
    "sigma": ("sigma", float), "noise_seed": ("seed", int),
}


def parse_plan(text: str) -> ExperimentPlan:
    """Line-oriented `key = value` plan text; '#' starts a comment."""
    raw: dict[str, str] = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"plan line is not key = value: {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _PLAN_FIELDS and key not in _NOISE_FIELDS:
            raise ValueError(f"unknown plan key {key!r}")
        if key in raw:
            raise ValueError(f"plan key {key!r} given twice")
        raw[key] = val.strip()
    fields = {name: parse(raw[key])
              for key, (name, parse) in _PLAN_FIELDS.items() if key in raw}
    if raw.keys() & _NOISE_FIELDS.keys():
        fields["noise"] = NoiseParams(**{
            name: parse(raw.get(key, "0"))
            for key, (name, parse) in _NOISE_FIELDS.items()
        })
    return ExperimentPlan(**fields)


def load_plan(path) -> ExperimentPlan:
    with open(path) as fh:
        return parse_plan(fh.read())


@dataclass(frozen=True)
class ReportRow:
    size: int
    solver: str
    depth: int  # 0 for the classical baseline
    instances: int
    mean_r: float
    sem: float
    sem3: float


def _derived_seed(*entropy) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def solver_config(depth, degree, lam, angles=None, **fields) -> SolverConfig:
    """The one SolverConfig builder: ``fields`` plus the shipped schedule for
    (depth, degree, lam) or the angle file ``angles``, whose header must agree
    with each value given (else AngleFileMismatch); None takes the file's."""
    if angles is None:
        # called through this module's global, which perfbench rebinds
        schedule = load_default_angles(depth, degree, lam).schedule
        angles = angle_file_name(depth, degree, lam)
    else:
        schedule = read_angle_file(angles).schedule
    for name, asked, found in [("depth", depth, schedule.depth),
                               ("degree", degree, schedule.degree),
                               ("lambda", lam, schedule.lam)]:
        if asked is not None and asked != found:
            raise AngleFileMismatch(angles, name, asked, found)
    return SolverConfig(schedule=schedule, **fields)


# per-process expectation caches, keyed by schedule
_WORKER_CACHES: dict = {}


def _cache_for(schedule) -> ExpectationCache:
    cache = _WORKER_CACHES.get(schedule)
    if cache is None:
        cache = ExpectationCache(schedule)
        _WORKER_CACHES[schedule] = cache
    return cache


def _run_instance(plan: ExperimentPlan, configs, size: int, index: int) -> list[tuple]:
    """All (solver, depth) ratios for one shared instance, from each depth's config."""
    g = generate_regular(size, plan.degree, _derived_seed(plan.seed, size, index))
    solver_seed = _derived_seed(plan.seed, size, index, 1)
    out = []
    for solver, depth in _cells(plan):
        if solver == "greedy":
            trace = solve_classical_greedy(g, seed=solver_seed)
        else:
            noise = configs[depth].noise
            if noise is not None:
                noise = dataclasses.replace(
                    noise, seed=_derived_seed(noise.seed, size, index)
                )
            cfg = dataclasses.replace(configs[depth], seed=solver_seed, noise=noise)
            trace = solve_quantum_greedy(g, cfg, _cache_for(cfg.schedule))
        out.append((size, solver, depth, index, trace.ratio))
    return out


def _partial_path(plan: ExperimentPlan) -> str:
    return plan.out + ".partial"


def _partial_header(plan: ExperimentPlan, configs) -> str:
    """First line of the sidecar: a digest of the plan's identity fields and
    of each depth's resolved SolverConfig, so a changed angle file counts."""
    identity = dataclasses.asdict(plan)
    for how_or_where in ("workers", "out", "stamp"):
        del identity[how_or_where]
    identity["configs"] = {depth: dataclasses.asdict(cfg)
                           for depth, cfg in configs.items()}
    text = json.dumps(identity, sort_keys=True)
    return f"# plan {hashlib.sha256(text.encode()).hexdigest()}\n"


def _load_partial(path, header: str) -> dict[tuple, float]:
    done = {}
    if os.path.exists(path) and os.path.getsize(path):
        with open(path) as fh:
            if fh.readline() != header:
                raise ValueError(
                    f"{path}: not written by this plan; move it away or "
                    "change out to start afresh"
                )
            for line in fh:
                parts = line.split()
                if len(parts) != 5:
                    continue
                size, solver, depth, index, r = parts
                done[(int(size), solver, int(depth), int(index))] = float(r)
    return done


def _cells(plan: ExperimentPlan) -> list[tuple[str, int]]:
    """The plan's (solver, depth) cells; depth 0 is the classical baseline."""
    return [
        (solver, depth)
        for solver in plan.solvers
        for depth in (plan.depths if solver == "qgreedy" else (0,))
    ]


def run_plan(plan: ExperimentPlan) -> tuple[ReportRow, ...]:
    configs = {}
    for depth in plan.depths if "qgreedy" in plan.solvers else ():
        name = angle_file_name(depth, plan.degree, plan.lam)
        angles = os.path.join(plan.angles_dir, name) if plan.angles_dir else None
        configs[depth] = solver_config(
            depth, plan.degree, plan.lam, angles,
            advice=plan.advice, shots=plan.shots, noise=plan.noise,
        )
    header = _partial_header(plan, configs)
    done = _load_partial(_partial_path(plan), header)
    todo = [
        (size, index)
        for size in plan.sizes
        for index in range(plan.instances)
        if any(
            (size, solver, depth, index) not in done
            for solver, depth in _cells(plan)
        )
    ]
    with open(_partial_path(plan), "a") as partial:
        if partial.tell() == 0:
            partial.write(header)

        def flush(rows):
            for size, solver, depth, index, r in rows:
                key = (size, solver, depth, index)
                if key not in done:
                    done[key] = r
                    partial.write(f"{size} {solver} {depth} {index} {r:.17g}\n")
            partial.flush()

        if plan.workers > 1 and len(todo) > 1:
            # never more workers than instances: under fork every one starts
            with ProcessPoolExecutor(min(plan.workers, len(todo))) as pool:
                futures = [
                    pool.submit(_run_instance, plan, configs, size, index)
                    for size, index in todo
                ]
                for fut in as_completed(futures):
                    flush(fut.result())
        else:
            for size, index in todo:
                flush(_run_instance(plan, configs, size, index))

    rows = []
    for size in sorted(plan.sizes):
        for solver, depth in sorted(_cells(plan)):
            rs = [done[size, solver, depth, i] for i in range(plan.instances)]
            mean = float(np.mean(rs))
            sem = float(np.std(rs, ddof=1) / math.sqrt(len(rs))) if len(rs) > 1 else 0.0
            rows.append(
                ReportRow(size, solver, depth, len(rs), mean, sem, 3.0 * sem)
            )
    write_csv(plan, rows)
    return tuple(rows)


def write_csv(plan: ExperimentPlan, rows) -> None:
    lines = []
    if plan.stamp:
        lines.append(f"# generated {datetime.now(timezone.utc).isoformat()}")
    lines.append(CSV_COLUMNS)
    for r in rows:
        lines.append(
            f"{r.size},{r.solver},{r.depth},{r.instances},"
            f"{r.mean_r:.17g},{r.sem:.17g},{r.sem3:.17g},"
            f"{plan.lam:.17g},{plan.advice},{plan.seed}"
        )
    with open(plan.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
