"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 runtime error.

A flag that no run of its subcommand would read, given the other flags, is
a usage error, and so is a flag value that no run can use: the flag's type
function decides that (``--lambda`` takes only finite values >= 1, ``--delta``
only "auto" or finite values >= 0, ``--depth`` only integers >= 1,
``--degree`` only integers >= 0), before anything runs, and so does the
subcommand where its range is narrower (``census`` is tabulated for
``--depth`` 1..3).
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


def cutoff(text: str) -> float | None:
    """--delta value: "auto" (None) or a finite number >= 0."""
    if text == "auto":
        return None
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be \"auto\" or a finite number >= 0, got {text!r}"
        )
    return value


def penalty(text: str) -> float:
    """--lambda value: a finite number >= 1, as the MIS cost needs."""
    value = float(text)
    if not (math.isfinite(value) and value >= 1):
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 1, got {text!r}")
    return value


def nonnegative(text: str) -> int:
    """An integer >= 0, such as --seed, --noise-seed or --degree."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


def count(text: str) -> int:
    """An integer >= 1, such as --n, --restarts or --depth."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


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
    sol.add_argument("--shots", type=int, default=unset)
    sol.add_argument("--delta", type=cutoff, default=unset,
                     help='cutoff; a number, or "auto" (default: auto for '
                          "shot/noise advice, 0 for ideal)")
    sol.add_argument("--eta", type=float, default=unset)
    sol.add_argument("--alpha", type=float, default=unset)
    sol.add_argument("--sigma", type=float, default=unset)
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
    sho.add_argument("--eps", type=float, required=True)
    sho.add_argument("--gap", type=float, required=True)
    return ap


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_generate(args) -> int:
    g = generate_regular(args.n, args.degree, args.seed)
    _emit(write_edge_list(g), args.out)
    return 0


def _cmd_angles(args) -> int:
    opt = optimize_tree_angles(
        args.depth, args.degree, args.lam, seed=args.seed, restarts=args.restarts
    )
    out = args.out or angle_file_name(args.depth, args.degree, args.lam)
    write_angle_file(out, opt)
    print(f"wrote {out} energy {opt.energy:.17g}")
    return 0


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
            shots = getattr(args, "shots", _DEFAULTS["shots"])
            if advice == "shots" and not 1 <= shots <= MAX_SHOTS:
                return f"--advice shots needs 1 <= --shots <= {MAX_SHOTS}"
            if advice != "shots":
                unread["shots"] = f"--advice {advice}"
            if advice != "noise":
                unread.update(dict.fromkeys(_NOISE_FLAGS, f"--advice {advice}"))
    for dest, choice in unread.items():
        if hasattr(args, dest):
            flag = "lambda" if dest == "lam" else dest.replace("_", "-")
            return f"--{flag} is not read with {choice}"
    return None


def _cmd_solve(args) -> int:
    if args.infile is not None:
        with open(args.infile) as fh:
            g = read_edge_list(fh.read())
    else:
        g = generate_regular(args.n, args.degree, args.seed)
    if args.solver == "exact":
        nodes = solve_exact(g, node_limit=args.node_limit)
        ratio = len(nodes) / g.alive_count
        _emit(
            "nodes " + " ".join(str(v) for v in sorted(nodes))
            + f"\nset_size {len(nodes)} ratio {ratio:.17g}\n",
            args.out,
        )
        return 0
    if args.solver == "greedy":
        trace = solve_classical_greedy(g, seed=args.seed)
        _emit(format_trace(trace), args.out)
        return 0
    noise = None
    if args.advice == "noise":
        noise = NoiseParams(args.eta, args.alpha, args.sigma, args.noise_seed)
    fields = dict(advice=args.advice, shots=args.shots, noise=noise, seed=args.seed)
    if hasattr(args, "delta"):
        fields["delta"] = args.delta
    degree = None if args.angles else args.degree  # else --degree is the graph's
    try:
        cfg = solver_config(args.depth, degree, args.lam, args.angles, **fields)
    except AngleFileMismatch as exc:  # only a given --depth or --lambda differs
        args.parser.error(f"--{exc.name} disagrees with {exc}")
    trace = solve_quantum_greedy(g, cfg)
    _emit(format_trace(trace), args.out)
    return 0


def _cmd_census(args) -> int:
    report, _cones = enumerate_cones(args.depth)
    print(f"total {report.total} trees {report.trees} nontrees {report.nontrees}")
    return 0


def _cmd_bench(args) -> int:
    plan = load_plan(args.plan)
    for r in run_plan(plan):
        print(
            f"size {r.size} solver {r.solver} depth {r.depth} "
            f"instances {r.instances} mean_r {r.mean_r:.6f} 3sem {r.sem3:.6f}"
        )
    print(f"wrote {plan.out}")
    return 0


def _cmd_fit_noise(args) -> int:
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
    return 0


def _cmd_shots(args) -> int:
    print(required_shots(args.n, args.eps, args.gap))
    return 0


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
    # with --angles, an unset --depth or --lambda takes the file's value
    from_file = dict(depth=None, lam=None) if hasattr(args, "angles") else {}
    args = argparse.Namespace(**{**_DEFAULTS, **from_file, **vars(args)})
    try:
        return _COMMANDS[args.command](args)
    except RUNTIME_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
