"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .angles import angle_file_name, optimize_tree_angles, write_angle_file
from .bench import load_plan, run_plan, solver_config
from .cones import enumerate_cones
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


def seed(text: str) -> int:
    """--seed or --noise-seed value: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


def count(text: str) -> int:
    """An integer >= 1, such as --restarts."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def build_parser() -> _Parser:
    # shared flags are valid before and after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value given before it, and marks it as given
    shared = _Parser(add_help=False)
    shared.add_argument("--seed", type=seed, default=argparse.SUPPRESS)
    shared.add_argument("--lambda", dest="lam", type=float, default=argparse.SUPPRESS)
    shared.add_argument("--depth", type=int, default=argparse.SUPPRESS)
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
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--degree", type=int, default=3)

    ang = add("angles", help="optimize tree angles, write an angle file")
    ang.add_argument("--degree", type=int, default=3)
    ang.add_argument("--restarts", type=count, default=6)

    sol = add("solve", help="run one solver on one instance, print the trace")
    sol.add_argument("--in", dest="infile", default=None,
                     help="edge list file (else generate from --n/--seed)")
    sol.add_argument("--n", type=int, default=None)
    sol.add_argument("--degree", type=int, default=3)
    sol.add_argument("--solver", choices=("qgreedy", "greedy", "exact"),
                     default="qgreedy")
    # the flags below are read by some solvers and advice sources only;
    # they stay unset unless given, so that a flag the run would ignore is
    # caught as a usage error; _DEFAULTS fills in the rest
    unset = argparse.SUPPRESS
    sol.add_argument("--angles", default=unset, help="angle file (default: shipped)")
    sol.add_argument("--advice", choices=("ideal", "shots", "noise"), default=unset)
    sol.add_argument("--shots", type=int, default=unset)
    sol.add_argument("--delta", type=cutoff, default=unset,
                     help='cutoff; a number, or "auto" (default: auto for '
                          "shot/noise advice, 0 for ideal)")
    sol.add_argument("--eta", type=float, default=unset)
    sol.add_argument("--alpha", type=float, default=unset)
    sol.add_argument("--sigma", type=float, default=unset)
    sol.add_argument("--noise-seed", type=seed, default=unset)
    sol.add_argument("--node-limit", type=int, default=unset)

    cen = add("census", help="enumerate depth-p cones of max degree d")
    cen.add_argument("--degree", type=int, default=3)

    ben = add("bench", help="run an experiment plan")
    ben.add_argument("--plan", required=True)

    fit = add("fit-noise", help="fit the noise model to (ideal, noisy, size) triples")
    fit.add_argument("--pairs", required=True,
                     help="file of 'ideal noisy cone_size' lines")

    sho = add("shots", help="Hoeffding shot budget")
    sho.add_argument("--n", type=int, required=True)
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
    seed=0, lam=1.0, depth=1, out=None, angles=None, advice="ideal", shots=0,
    eta=0.0, alpha=0.0, sigma=0.0, noise_seed=0, node_limit=40,
)
_QUANTUM_FLAGS = (
    "angles", "advice", "shots", "delta", "depth", "eta", "alpha", "sigma", "noise_seed"
)
_NOISE_FLAGS = ("eta", "alpha", "sigma", "noise_seed")


def _solve_usage_error(args) -> str | None:
    """Why these solve flags cannot run as given, or None.

    The graph comes from exactly one of --in and --n, and a flag that the
    chosen solver or advice source does not read is an error rather than
    silently ignored.
    """
    if (args.infile is None) == (args.n is None):
        return "solve needs exactly one of --in and --n"
    solver = args.solver
    unread = {}  # flag dest -> the choice that does not read it
    if solver != "exact":
        unread["node_limit"] = f"--solver {solver}"
    if solver != "qgreedy":
        unread.update(dict.fromkeys(_QUANTUM_FLAGS, f"--solver {solver}"))
    else:
        advice = getattr(args, "advice", _DEFAULTS["advice"])
        shots = getattr(args, "shots", _DEFAULTS["shots"])
        if advice == "shots" and shots < 1:
            return "--advice shots needs --shots >= 1"
        if advice != "shots":
            unread["shots"] = f"--advice {advice}"
        if advice != "noise":
            unread.update(dict.fromkeys(_NOISE_FLAGS, f"--advice {advice}"))
    for dest, choice in unread.items():
        if hasattr(args, dest):
            return f"--{dest.replace('_', '-')} is not read with {choice}"
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
    report, _cones = enumerate_cones(args.depth, args.degree)
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
    if args.command == "solve":
        problem = _solve_usage_error(args)
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
