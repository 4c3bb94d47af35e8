"""Command-line interface, and the flag contract the scripts share.

Exit codes: 0 success, 1 usage error, 2 runtime error.

A flag that no run of its subcommand would read, given the other flags, is
a usage error, and so is a flag value that no run can use: the flag's type
decides that before anything runs (``--lambda`` takes only finite values
>= 1, ``--delta`` only "auto" or finite values >= 0, ``--depth`` only
integers >= 1, ``--degree`` only integers >= 0, ``--shots`` only integers
in [1, MAX_SHOTS], ``--eps`` only values in (0, 1), ``--gap`` only values in
(0, 2], ``--eta`` only values in [0, 1), ``--alpha`` only finite values and
``--sigma`` only finite values >= 0), and so does the subcommand where its
range is narrower (``census`` is tabulated for ``--depth`` 1..3).

The scripts under ``scripts/`` keep the same contract through the same two
pieces: every value type is made by :func:`ranged`, and every command runs
through :func:`run_command`, the one place a runtime error becomes an
``error:`` line and exit 2.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .angles import angle_file_name, optimize_tree_angles, write_angle_file
from .bench import load_plan, run_plan, solver_config
from .cones import enumerate_cones
from .engines import MAX_SHOTS
from .errors import AngleFileMismatch, QGreedyError
from .graph import generate_regular, read_edge_list, write_edge_list
from .noise import NoiseParams, fit_noise, required_shots
from .solver import (
    format_trace,
    solve_classical_greedy,
    solve_exact,
    solve_quantum_greedy,
)


RUNTIME_ERRORS = (QGreedyError, ValueError, OSError)  # exit 2, not usage (1)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def ranged(what: str, ok, kind=float, name: str | None = None):
    """The type function of a flag: it parses the text with ``kind`` and
    refuses a value that fails ``ok``.  argparse names the flag, and calls
    text that ``kind`` cannot parse an invalid ``name`` (default: the
    kind's) value."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):  # NaN fails every comparison
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    parse.__name__ = name or kind.__name__
    return parse


def _finite_at_least(low):
    return lambda v: math.isfinite(v) and v >= low


# --lambda: the MIS cost needs a finite penalty weight >= 1
penalty = ranged("a finite number >= 1", _finite_at_least(1), name="penalty")
# --seed, --noise-seed, --degree
nonnegative = ranged("an integer >= 0", lambda v: v >= 0, int, "nonnegative")
# --n, --depth, --restarts, --node-limit and the scripts' sizes
count = ranged("an integer >= 1", lambda v: v >= 1, int, "count")
shots = ranged(f"an integer in [1, {MAX_SHOTS}]",
               lambda v: 1 <= v <= MAX_SHOTS, int)
# the noise model's shrink rate eta, bias alpha and offset spread sigma
shrink = ranged("a number in [0, 1)", lambda v: 0 <= v < 1)
bias = ranged("a finite number", math.isfinite)
spread = ranged("a finite number >= 0", _finite_at_least(0))
_cutoff = ranged('"auto" or a finite number >= 0', _finite_at_least(0))


def cutoff(text: str) -> float | None:
    """--delta value: "auto" (None) or a finite number >= 0."""
    return None if text == "auto" else _cutoff(text)


def run_command(command, args) -> int:
    """Exit status of ``command(args)``: 0, or 2 after one ``error:`` line
    when it raises one of ``RUNTIME_ERRORS``."""
    try:
        command(args)
    except RUNTIME_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


def build_parser() -> _Parser:
    # shared flags are valid before and after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value given before it, and marks it as given
    shared = _Parser(add_help=False)
    shared.add_argument("--seed", type=nonnegative, default=argparse.SUPPRESS)
    shared.add_argument("--lambda", dest="lam", type=penalty,
                        default=argparse.SUPPRESS)
    shared.add_argument("--depth", type=count, default=argparse.SUPPRESS)
    shared.add_argument("--out", default=argparse.SUPPRESS)
    ap = _Parser(prog="qgreedy", description=__doc__, parents=[shared])
    ap.add_argument("--version", action="version", version=__version__)

    sub = ap.add_subparsers(dest="command", parser_class=_Parser)

    def add(name, **kw):
        parser = sub.add_parser(name, parents=[shared], **kw)
        # usage errors found after parsing print this subcommand's usage
        parser.set_defaults(parser=parser)
        return parser

    gen = add("generate", help="emit a random regular graph edge list")
    gen.add_argument("--n", type=count, required=True)
    gen.add_argument("--degree", type=nonnegative, default=3)

    ang = add("angles", help="optimize tree angles, write an angle file")
    ang.add_argument("--degree", type=nonnegative, default=3)
    ang.add_argument("--restarts", type=count, default=6)

    sol = add("solve", help="run one solver on one instance, print the trace")
    sol.add_argument("--in", dest="infile", default=None,
                     help="edge list file (else generate from --n/--seed)")
    sol.add_argument("--n", type=count, default=None)
    sol.add_argument("--solver", choices=("qgreedy", "greedy", "exact"),
                     default="qgreedy")
    # the flags below are read by some runs only; they stay unset unless
    # given, so that a flag the run would ignore is caught as a usage
    # error; _DEFAULTS fills in the rest
    unset = argparse.SUPPRESS
    sol.add_argument("--degree", type=nonnegative, default=unset,
                     help="of the generated graph and the shipped angles "
                          "(default: 3)")
    sol.add_argument("--angles", default=unset, help="angle file (default: shipped)")
    sol.add_argument("--advice", choices=("ideal", "shots", "noise"), default=unset)
    sol.add_argument("--shots", type=shots, default=unset)
    sol.add_argument("--delta", type=cutoff, default=unset,
                     help='cutoff; a number, or "auto" (default: auto for '
                          "shot/noise advice, 0 for ideal)")
    sol.add_argument("--eta", type=shrink, default=unset)
    sol.add_argument("--alpha", type=bias, default=unset)
    sol.add_argument("--sigma", type=spread, default=unset)
    sol.add_argument("--noise-seed", type=nonnegative, default=unset)
    sol.add_argument("--node-limit", type=count, default=unset)

    add("census", help="enumerate depth-p cones of max degree 3")

    ben = add("bench", help="run an experiment plan")
    ben.add_argument("--plan", required=True)

    fit = add("fit-noise", help="fit the noise model to (ideal, noisy, size) triples")
    fit.add_argument("--pairs", required=True,
                     help="file of 'ideal noisy cone_size' lines")

    sho = add("shots", help="Hoeffding shot budget")
    sho.add_argument("--n", type=count, required=True)
    sho.add_argument("--eps", required=True,
                     type=ranged("a number in (0, 1)", lambda v: 0 < v < 1))
    # two expectations in [-1, 1] are at most 2 apart
    sho.add_argument("--gap", required=True,
                     type=ranged("a number in (0, 2]", lambda v: 0 < v <= 2))
    return ap


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_generate(args) -> None:
    g = generate_regular(args.n, args.degree, args.seed)
    _emit(write_edge_list(g), args.out)


def _cmd_angles(args) -> None:
    opt = optimize_tree_angles(
        args.depth, args.degree, args.lam, seed=args.seed, restarts=args.restarts
    )
    out = args.out or angle_file_name(args.depth, args.degree, args.lam)
    write_angle_file(out, opt)
    print(f"wrote {out} energy {opt.energy:.17g}")


# values of unset flags; an unset --delta leaves SolverConfig's auto
_DEFAULTS = dict(
    seed=0, lam=1.0, depth=1, out=None, degree=3, angles=None, advice="ideal",
    shots=0, eta=0.0, alpha=0.0, sigma=0.0, noise_seed=0, node_limit=40,
)
_SHARED_FLAGS = ("seed", "lam", "depth", "out")
# the shared flags each subcommand reads; bench, fit-noise and shots read none
_SHARED_READ = {"generate": ("seed", "out"), "census": ("depth",),
                "angles": _SHARED_FLAGS, "solve": _SHARED_FLAGS}
_QUANTUM_FLAGS = ("angles", "advice", "shots", "delta", "depth", "lam",
                  "eta", "alpha", "sigma", "noise_seed")
_NOISE_FLAGS = ("eta", "alpha", "sigma", "noise_seed")


def _usage_error(args) -> str | None:
    """Why these flags cannot run as given, or None.

    A flag that the subcommand, or solve's chosen solver, advice source or
    graph source, does not read is an error rather than silently ignored.
    Solve's graph comes from exactly one of --in and --n.
    """
    command = args.command
    read = _SHARED_READ.get(command, ())
    if command == "census" and getattr(args, "depth", 1) > 3:
        return "census is tabulated for --depth 1..3"
    # flag dest -> the choice that does not read it
    unread = {d: f"qgreedy {command}" for d in _SHARED_FLAGS if d not in read}
    if command == "solve":
        if (args.infile is None) == (args.n is None):
            return "solve needs exactly one of --in and --n"
        solver = args.solver
        if solver != "exact":
            unread["node_limit"] = f"--solver {solver}"
        if args.infile is not None:  # the graph is not generated
            if solver == "exact":  # nor is anything drawn
                unread["seed"] = "--in and --solver exact"
            if solver != "qgreedy":
                unread["degree"] = f"--in and --solver {solver}"
            elif hasattr(args, "angles"):  # nor a shipped file chosen
                unread["degree"] = "--in and --angles"
        if solver != "qgreedy":
            unread.update(dict.fromkeys(_QUANTUM_FLAGS, f"--solver {solver}"))
        else:
            advice = getattr(args, "advice", _DEFAULTS["advice"])
            if advice == "shots" and not hasattr(args, "shots"):
                return "--advice shots needs --shots"
            if advice != "shots":
                unread["shots"] = f"--advice {advice}"
            if advice != "noise":
                unread.update(dict.fromkeys(_NOISE_FLAGS, f"--advice {advice}"))
    for dest, choice in unread.items():
        if hasattr(args, dest):
            flag = "lambda" if dest == "lam" else dest.replace("_", "-")
            return f"--{flag} is not read with {choice}"
    return None


def _cmd_solve(args) -> None:
    cfg = _solve_config(args) if args.solver == "qgreedy" else None
    if args.infile is not None:
        with open(args.infile) as fh:
            g = read_edge_list(fh.read())
    else:  # at the schedule's degree, which an unset --degree takes
        degree = args.degree if cfg is None else cfg.schedule.degree
        g = generate_regular(args.n, degree, args.seed)
    if args.solver == "exact":
        nodes = solve_exact(g, node_limit=args.node_limit)
        ratio = len(nodes) / g.alive_count
        _emit(
            "nodes " + " ".join(str(v) for v in sorted(nodes))
            + f"\nset_size {len(nodes)} ratio {ratio:.17g}\n",
            args.out,
        )
        return
    if args.solver == "greedy":
        trace = solve_classical_greedy(g, seed=args.seed)
    else:  # a vertex of higher degree has cones the angles were not fit to
        top = max(map(len, map(g.neighbors_alive, g.alive_nodes())), default=0)
        if top > cfg.schedule.degree:
            raise ValueError(f"the graph has maximum degree {top}, above the "
                             f"angle schedule's degree {cfg.schedule.degree}")
        trace = solve_quantum_greedy(g, cfg)
    _emit(format_trace(trace), args.out)


def _solve_config(args):
    """The quantum solver's config; with --angles, an unset --depth,
    --degree or --lambda is None here and takes the file's value."""
    noise = None
    if args.advice == "noise":
        noise = NoiseParams(args.eta, args.alpha, args.sigma, args.noise_seed)
    fields = dict(advice=args.advice, shots=args.shots, noise=noise, seed=args.seed)
    if hasattr(args, "delta"):
        fields["delta"] = args.delta
    try:
        return solver_config(args.depth, args.degree, args.lam, args.angles,
                             **fields)
    except AngleFileMismatch as exc:  # only a given flag can differ
        args.parser.error(f"--{exc.name} disagrees with {exc}")


def _cmd_census(args) -> None:
    report, _cones = enumerate_cones(args.depth)
    print(f"total {report.total} trees {report.trees} nontrees {report.nontrees}")


def _cmd_bench(args) -> None:
    plan = load_plan(args.plan)
    for r in run_plan(plan):
        print(
            f"size {r.size} solver {r.solver} depth {r.depth} "
            f"instances {r.instances} mean_r {r.mean_r:.6f} 3sem {r.sem3:.6f}"
        )
    print(f"wrote {plan.out}")


def _cmd_fit_noise(args) -> None:
    triples = []
    with open(args.pairs) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            x, y, s = line.split()
            triples.append((float(x), float(y), int(s)))
    params = fit_noise(triples)
    print(f"eta {params.eta:.17g} alpha {params.alpha:.17g} sigma {params.sigma:.17g}")


def _cmd_shots(args) -> None:
    print(required_shots(args.n, args.eps, args.gap))


_COMMANDS = {
    "generate": _cmd_generate,
    "angles": _cmd_angles,
    "solve": _cmd_solve,
    "census": _cmd_census,
    "bench": _cmd_bench,
    "fit-noise": _cmd_fit_noise,
    "shots": _cmd_shots,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    problem = _usage_error(args)
    if problem:
        args.parser.error(problem)
    # with --angles, an unset --depth, --degree or --lambda takes the file's
    from_file = (dict(depth=None, degree=None, lam=None)
                 if hasattr(args, "angles") else {})
    args = argparse.Namespace(**{**_DEFAULTS, **from_file, **vars(args)})
    return run_command(_COMMANDS[args.command], args)


if __name__ == "__main__":
    sys.exit(main())
