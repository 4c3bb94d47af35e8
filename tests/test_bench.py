import dataclasses
import math
import time
from concurrent.futures import Future
from importlib import resources

import pytest

from helpers import load_run_bench
from qgreedy import bench
from qgreedy.angles import angle_file_name, load_default_angles, write_angle_file
from qgreedy.bench import (
    CSV_COLUMNS,
    GREEDY_ASYMPTOTE,
    PRIORITIZED_SEARCH_RATIO,
    ExperimentPlan,
    _derived_seed,
    load_plan,
    parse_plan,
    run_plan,
    solver_config,
)
from qgreedy.engines import MAX_SHOTS
from qgreedy.graph import generate_regular
from qgreedy.noise import NoiseParams
from qgreedy.solver import SolverConfig, solve_quantum_greedy

# the depth-trend fits live in their one caller
fit_curve = load_run_bench().fit_curve

SHOT_PLAN_TEXT = """\
# small comparison run
sizes = 50, 100
instances = 4
solvers = greedy qgreedy
depths = 1 2
lambda = 2.0
advice = shots
shots = 500
seed = 11
out = run.csv
stamp = false
"""

NOISE_PLAN_TEXT = """\
sizes = 50
solvers = qgreedy
depths = 3
advice = noise
eta = 0.02
noise_seed = 9
"""


class TestParsePlan:
    def test_fields(self):
        plan = parse_plan(SHOT_PLAN_TEXT)
        assert plan.sizes == (50, 100)
        assert plan.instances == 4
        assert plan.solvers == ("greedy", "qgreedy")
        assert plan.depths == (1, 2)
        assert plan.lam == 2.0
        assert plan.advice == "shots"
        assert plan.shots == 500
        assert plan.noise is None
        assert plan.seed == 11
        assert plan.out == "run.csv"
        assert plan.stamp is False
        plan = parse_plan(NOISE_PLAN_TEXT)
        assert plan.advice == "noise"
        assert plan.noise is not None and plan.noise.eta == 0.02
        assert plan.noise.seed == 9
        assert plan.noise.alpha == plan.noise.sigma == 0.0

    def test_defaults(self):
        plan = parse_plan("sizes = 10\n")
        assert plan.instances == 1
        assert plan.solvers == ("greedy",)
        assert plan.depths == ()
        assert plan.lam == 1.0
        assert plan.advice == "ideal"
        assert plan.noise is None
        assert plan.stamp is True

    @pytest.mark.parametrize("token", ["false", "0", "no", "False", "No"])
    def test_stamp_falsy_tokens(self, token):
        assert parse_plan(f"sizes = 10\nstamp = {token}\n").stamp is False

    @pytest.mark.parametrize("token", ["true", "1", "yes", "TRUE", "Yes"])
    def test_stamp_truthy_tokens(self, token):
        assert parse_plan(f"sizes = 10\nstamp = {token}\n").stamp is True

    @pytest.mark.parametrize("token", ["flase", "2", "off", "tru"])
    def test_stamp_other_tokens_rejected(self, token):
        with pytest.raises(ValueError, match="stamp"):
            parse_plan(f"sizes = 10\nstamp = {token}\n")

    def test_bad_line(self):
        with pytest.raises(ValueError):
            parse_plan("sizes 10\n")

    def test_unknown_key(self):
        # a misspelt key must not silently leave its field at the default
        with pytest.raises(ValueError, match="'instance'"):
            parse_plan("sizes = 10\ninstance = 50\n")

    def test_unknown_solver(self):
        with pytest.raises(ValueError):
            parse_plan("sizes = 10\nsolvers = annealer\n")

    def test_qgreedy_needs_depths(self):
        with pytest.raises(ValueError):
            parse_plan("sizes = 10\nsolvers = qgreedy\n")

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan(sizes=(), instances=1)
        with pytest.raises(ValueError):
            ExperimentPlan(sizes=(10,), instances=0)
        with pytest.raises(ValueError):
            ExperimentPlan(sizes=(10,), instances=1, workers=0)

    @pytest.mark.parametrize("depths", [(0,), (2, -1)])
    def test_depths_below_one_rejected(self, depths):
        with pytest.raises(ValueError, match="depths"):
            ExperimentPlan(sizes=(10,), instances=1, solvers=("qgreedy",),
                           depths=depths)

    @pytest.mark.parametrize("fields", [
        dict(advice="shots"),
        dict(advice="shots", shots=-3),
        dict(advice="shots", shots=MAX_SHOTS + 1),
        dict(advice="noise"),
        dict(advice="oracle"),
    ])
    def test_advice_rejected_as_solver_config_does(self, fields, sched_p1):
        with pytest.raises(ValueError) as config_error:
            SolverConfig(schedule=sched_p1, **fields)
        with pytest.raises(ValueError) as plan_error:
            ExperimentPlan(sizes=(10,), instances=1, solvers=("qgreedy",),
                           depths=(1,), **fields)
        assert str(plan_error.value) == str(config_error.value)

    @pytest.mark.parametrize("line", [
        "advice = shots", "depths = 0", "stamp = flase", "seed = -1",
        "noise_seed = -1", "sigma = nan", "alpha = inf",
        # no simple 3-regular graph on 7 or 3 nodes, nor a degree-(-1) one
        "sizes = 7", "sizes = 3", "degree = -1",
        # past MAX_SHOTS, which once overflowed inside the sampler mid-sweep
        "advice = shots\nshots = 99999999999999999999",
    ])
    def test_bad_plan_fails_before_any_work(self, tmp_path, line):
        out = tmp_path / "r.csv"
        path = tmp_path / "plan.txt"
        path.write_text(f"sizes = 10\nsolvers = greedy qgreedy\ndepths = 1\n"
                        f"out = {out}\n{line}\n")
        with pytest.raises(ValueError):
            run_plan(load_plan(path))
        assert list(tmp_path.iterdir()) == [path]

    def test_repeated_key_rejected(self, tmp_path):
        # the second value must not silently win
        out = tmp_path / "r.csv"
        path = tmp_path / "plan.txt"
        path.write_text(f"sizes = 10\nseed = 1\nout = {out}\nseed = 2\n")
        with pytest.raises(ValueError, match="'seed'"):
            run_plan(load_plan(path))
        assert list(tmp_path.iterdir()) == [path]

    def test_load_plan_round_trip(self, tmp_path):
        path = tmp_path / "plan.txt"
        for text in (SHOT_PLAN_TEXT, NOISE_PLAN_TEXT):
            path.write_text(text)
            assert load_plan(path) == parse_plan(text)

    def test_missing_sizes_is_value_error(self):
        with pytest.raises(ValueError, match="sizes"):
            parse_plan("instances = 2\nsolvers = greedy\n")

    QGREEDY = "solvers = greedy qgreedy\ndepths = 1\n"

    @pytest.mark.parametrize("lines, key", [
        (QGREEDY + "advice = ideal\nshots = 991", "shots"),
        (QGREEDY + "advice = noise\neta = 0.1\nshots = 991", "shots"),
        (QGREEDY + "advice = shots\nshots = 991\neta = 0.1", "noise"),
        (QGREEDY + "noise_seed = 3", "noise"),
        ("solvers = greedy\ndepths = 1 2", "depths"),
        ("solvers = greedy\nangles_dir = angles", "angles_dir"),
        ("solvers = greedy\nadvice = shots\nshots = 991", "advice"),
        ("solvers = greedy\nadvice = noise\neta = 0.1", "advice"),
        # the classical greedy reads no lambda, yet it went into every CSV row
        ("lambda = 2", "lambda"),
        ("solvers = greedy\nlambda = 0.5", "lambda"),
    ])
    def test_unread_key_rejected(self, lines, key):
        # a key that no cell reads must fail, not be silently ignored
        with pytest.raises(ValueError, match=f"^{key} "):
            parse_plan(f"sizes = 10\n{lines}\n")

    @pytest.mark.parametrize("lines, key", [
        ("sizes = 10, 10", "sizes"),
        ("sizes = 10 12 10", "sizes"),
        ("sizes = 10\nsolvers = greedy greedy", "solvers"),
        ("sizes = 10\nsolvers = qgreedy\ndepths = 1 1", "depths"),
    ])
    def test_duplicate_rejected(self, lines, key):
        # a repeated size, solver or depth would run every instance twice
        with pytest.raises(ValueError, match=f"^{key} holds a duplicate"):
            parse_plan(lines + "\n")


def test_derived_seed_deterministic():
    assert _derived_seed(3, 50, 2) == _derived_seed(3, 50, 2)
    assert _derived_seed(3, 50, 2) != _derived_seed(3, 50, 3)
    assert 0 <= _derived_seed(0) < 2**32


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "mini.csv"
    plan = ExperimentPlan(
        sizes=(12,),
        instances=3,
        solvers=("greedy", "qgreedy"),
        depths=(1,),
        seed=5,
        out=str(out),
        stamp=False,
    )
    return plan, run_plan(plan)


def _slow_first_instance(plan, configs, size, index):
    """Stands in for bench._run_instance: instance 0 fails after a second."""
    if index == 0:
        time.sleep(1.0)
        raise RuntimeError("instance 0 failed")
    return [(size, "greedy", 0, index, 0.5)]


class TestRunPlan:
    def test_rows_present(self, mini):
        _, rows = mini
        assert [(r.size, r.solver, r.depth, r.instances) for r in rows] == [
            (12, "greedy", 0, 3), (12, "qgreedy", 1, 3),
        ]

    def test_missing_row_raises(self, mini):
        # a depth the plan does not list gets no row
        _, rows = mini
        assert (12, "qgreedy", 2) not in {(r.size, r.solver, r.depth) for r in rows}

    def test_depth1_matches_classical(self, mini):
        # paired seeds and the min-degree equivalence at depth 1 make the two
        # solvers produce the same sets instance by instance
        _, (g, q) = mini
        assert q.mean_r == pytest.approx(g.mean_r, abs=1e-15)

    def test_csv_format(self, mini):
        plan, rows = mini
        lines = open(plan.out).read().splitlines()
        assert lines[0] == CSV_COLUMNS
        assert len(lines) == 1 + len(rows)
        first = lines[1].split(",")
        assert first[0] == "12"
        assert first[1] == "greedy"
        assert float(first[4]) == rows[0].mean_r

    def test_rerun_resumes_without_recompute(self, mini):
        plan, _ = mini
        partial = plan.out + ".partial"
        before_partial = open(partial, "rb").read()
        before_csv = open(plan.out, "rb").read()
        run_plan(plan)
        assert open(partial, "rb").read() == before_partial
        assert open(plan.out, "rb").read() == before_csv

    def test_partial_rows_parse(self, mini):
        plan, _ = mini
        header, *lines = open(plan.out + ".partial")
        assert header.startswith("# plan ")
        rows = [ln.split() for ln in lines]
        assert len(rows) == 6  # 3 instances x (greedy + qgreedy p1)
        for row in rows:
            assert len(row) == 5
            assert 0.0 < float(row[4]) <= 1.0


    def test_resume_refuses_another_plan(self, tmp_path):
        # same out, another seed: the old rows must not come back as new
        plan = ExperimentPlan(sizes=(10,), instances=2, seed=0,
                              out=str(tmp_path / "r.csv"), stamp=False)
        run_plan(plan)
        partial = tmp_path / "r.csv.partial"
        before = partial.read_bytes()
        reseeded = dataclasses.replace(plan, seed=99)
        with pytest.raises(ValueError, match="r.csv.partial"):
            run_plan(reseeded)
        assert partial.read_bytes() == before
        # a sidecar without the header is refused too
        partial.write_text(before.decode().split("\n", 1)[1])
        with pytest.raises(ValueError, match="r.csv.partial"):
            run_plan(plan)
        # how and where a plan runs is not part of its identity
        partial.write_bytes(before)
        run_plan(dataclasses.replace(plan, workers=2, stamp=True))
        assert partial.read_bytes() == before

    def test_rows_use_per_instance_seeds(self, tmp_path):
        # each instance reseeds the depth's config: graph, solver and noise
        noise = NoiseParams(0.05, 0.0, 0.5, seed=9)  # offsets that move picks
        plan = ExperimentPlan(sizes=(14,), instances=3, solvers=("qgreedy",),
                              depths=(2,), advice="noise", noise=noise, seed=7,
                              out=str(tmp_path / "n.csv"), stamp=False)
        run_plan(plan)
        _, *rows = open(plan.out + ".partial")
        for i, row in enumerate(rows):
            cfg = solver_config(
                2, 3, 1.0, advice="noise", seed=_derived_seed(7, 14, i, 1),
                noise=dataclasses.replace(noise, seed=_derived_seed(9, 14, i)),
            )
            g = generate_regular(14, 3, _derived_seed(7, 14, i))
            ratio = solve_quantum_greedy(g, cfg).ratio
            assert row.split() == ["14", "qgreedy", "2", str(i), f"{ratio:.17g}"]

    def test_shot_sweep_csv_independent_of_workers(self, tmp_path):
        # a shot draw depends on (seed, node, cone key), not on the process
        plan = ExperimentPlan(sizes=(12, 16), instances=2, solvers=("qgreedy",),
                              depths=(1, 2), advice="shots", shots=64, seed=4,
                              out=str(tmp_path / "w1.csv"), stamp=False)
        run_plan(plan)
        two = dataclasses.replace(plan, workers=2, out=str(tmp_path / "w2.csv"))
        run_plan(two)
        assert open(two.out, "rb").read() == open(plan.out, "rb").read()

    def test_leaked_cell_not_aggregated(self, tmp_path):
        # a row of a (solver, depth) the plan does not list stays out of
        # the report and the CSV
        plan = ExperimentPlan(sizes=(10,), instances=2, seed=3,
                              out=str(tmp_path / "l.csv"), stamp=False)
        run_plan(plan)
        clean = open(plan.out).read()
        with open(plan.out + ".partial", "a") as fh:
            fh.write("10 qgreedy 3 0 0.5\n")
        rows = run_plan(plan)
        assert [(r.solver, r.depth) for r in rows] == [("greedy", 0)]
        assert open(plan.out).read() == clean

    def test_pool_flushes_rows_as_workers_finish(self, tmp_path, monkeypatch):
        # instance 0 is slow and then fails: the rows of the instances
        # submitted after it must reach the sidecar anyway
        monkeypatch.setattr(bench, "_run_instance", _slow_first_instance)
        plan = ExperimentPlan(sizes=(10,), instances=4, workers=2,
                              out=str(tmp_path / "f.csv"), stamp=False)
        with pytest.raises(RuntimeError, match="instance 0"):
            run_plan(plan)
        _, *rows = open(plan.out + ".partial")
        assert sorted(row.split()[3] for row in rows) == ["1", "2", "3"]

    def test_pool_opens_no_more_workers_than_instances(
        self, tmp_path, monkeypatch
    ):
        # under fork a pool starts every worker at once, so workers=2**64
        # asked for that many processes; a recorder stands in for the pool
        opened = []

        class InlinePool:
            def __init__(self, max_workers=None):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(bench, "ProcessPoolExecutor", InlinePool)
        plan = ExperimentPlan(sizes=(10,), instances=3, workers=2**64,
                              out=str(tmp_path / "many.csv"), stamp=False)
        run_plan(plan)
        assert opened == [3]
        one = dataclasses.replace(plan, workers=1, out=str(tmp_path / "one.csv"))
        run_plan(one)
        assert opened == [3]
        assert open(plan.out).read() == open(one.out).read()


class TestAngleFiles:
    def test_builder_checks_the_header(self, tmp_path):
        path = tmp_path / "angles.txt"
        write_angle_file(path, load_default_angles(2))
        cfg = solver_config(None, None, None, path, seed=3)
        assert cfg.schedule == load_default_angles(2).schedule
        assert cfg.seed == 3 and cfg.delta is None
        assert solver_config(2, 3, 1.0, path).schedule == cfg.schedule
        for values in [(1, 3, 1.0), (2, 4, 1.0), (2, 3, 2.0)]:
            with pytest.raises(ValueError, match="angles.txt"):
                solver_config(*values, path)

    def test_mismatched_file_fails_before_any_work(self, tmp_path):
        # a depth-1 file that holds depth-2 angles
        write_angle_file(tmp_path / "p1_d3_lam1.txt", load_default_angles(2))
        plan = ExperimentPlan(sizes=(10,), instances=1, solvers=("qgreedy",),
                              depths=(1,), angles_dir=str(tmp_path),
                              out=str(tmp_path / "r.csv"), stamp=False)
        with pytest.raises(ValueError, match="p1_d3_lam1.txt"):
            run_plan(plan)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p1_d3_lam1.txt"]

    def test_missing_file_fails_before_any_work(self, tmp_path):
        plan = ExperimentPlan(sizes=(10,), instances=1, solvers=("qgreedy",),
                              depths=(1,), degree=4, out=str(tmp_path / "r.csv"),
                              stamp=False)
        with pytest.raises(FileNotFoundError, match="d=4"):
            run_plan(plan)
        assert list(tmp_path.iterdir()) == []
        # so the corrected plan starts afresh instead of meeting a sidecar
        run_plan(dataclasses.replace(plan, degree=3))

    @pytest.mark.parametrize("rewritten", [True, False])
    def test_resume_checks_the_angles(self, tmp_path, monkeypatch, rewritten):
        # a sweep stopped after instance 0, then its angle file rewritten:
        # the rerun kept instance 0's ratio and ran instance 1 on the new
        # angles under the old header
        path = tmp_path / angle_file_name(1, 3, 1.0)
        shipped = load_default_angles(1)
        write_angle_file(path, shipped)
        plan = ExperimentPlan(sizes=(10,), instances=2, solvers=("qgreedy",),
                              depths=(1,), angles_dir=str(tmp_path),
                              out=str(tmp_path / "r.csv"), stamp=False)
        plain = bench._run_instance
        ran = []

        def run(plan, configs, size, index):
            ran.append(index)
            if len(ran) == 2:
                raise RuntimeError("interrupted")
            return plain(plan, configs, size, index)

        monkeypatch.setattr(bench, "_run_instance", run)
        with pytest.raises(RuntimeError, match="interrupted"):
            run_plan(plan)
        partial = tmp_path / "r.csv.partial"
        before = partial.read_bytes()
        if rewritten:
            other = dataclasses.replace(shipped.schedule, gammas=tuple(
                g + 0.1 for g in shipped.schedule.gammas))
            write_angle_file(path, dataclasses.replace(shipped, schedule=other))
            with pytest.raises(ValueError, match="not written by this plan"):
                run_plan(plan)
            assert partial.read_bytes() == before
        else:
            run_plan(plan)
            assert ran == [0, 1, 1]  # instance 0 is not run again

    def test_angles_dir_copies_match_shipped(self, tmp_path):
        shipped = resources.files("qgreedy") / "data" / "angles"
        for depth in (1, 2):
            name = angle_file_name(depth, 3, 1.0)
            (tmp_path / name).write_text((shipped / name).read_text())
        plan = ExperimentPlan(sizes=(12,), instances=2,
                              solvers=("greedy", "qgreedy"), depths=(1, 2),
                              advice="shots", shots=200, seed=6,
                              out=str(tmp_path / "shipped.csv"), stamp=False)
        run_plan(plan)
        copied = dataclasses.replace(plan, angles_dir=str(tmp_path),
                                     out=str(tmp_path / "copied.csv"))
        run_plan(copied)
        assert open(copied.out).read() == open(plan.out).read()


class TestReportRow:
    def test_stamp_header(self, tmp_path):
        out = tmp_path / "stamped.csv"
        plan = ExperimentPlan(sizes=(8,), instances=2, out=str(out))
        run_plan(plan)
        first = open(out).read().splitlines()[0]
        assert first.startswith("# generated ")


def test_reference_constants():
    assert GREEDY_ASYMPTOTE == pytest.approx(6 * math.log(1.5) - 2, abs=0)
    assert GREEDY_ASYMPTOTE == pytest.approx(0.4327906486489863, abs=1e-15)
    assert PRIORITIZED_SEARCH_RATIO == 0.445330


class TestFitCurve:
    def test_inverse_depth_exact(self):
        a, b = -0.275, 0.435
        pts = [(p, a / p + b) for p in (1, 2, 3, 5)]
        fit = fit_curve(pts, "a/p+b")
        assert fit.model == "a/p+b"
        assert fit.params[0] == pytest.approx(a, abs=1e-12)
        assert fit.params[1] == pytest.approx(b, abs=1e-12)
        assert fit.residual_norm < 1e-12

    def test_power_law_exact(self):
        c, d = 0.683, -0.222
        pts = [(p, c * p**d) for p in (1, 2, 3, 4)]
        fit = fit_curve(pts, "c*p^d")
        assert fit.params[0] == pytest.approx(c, abs=1e-6)
        assert fit.params[1] == pytest.approx(d, abs=1e-6)
        assert fit.residual_norm < 1e-8

    def test_errors(self):
        with pytest.raises(ValueError):
            fit_curve([(1, 0.5)], "a/p+b")
        with pytest.raises(ValueError):
            fit_curve([(0, 0.5), (1, 0.6)], "a/p+b")
        with pytest.raises(ValueError):
            fit_curve([(0, 0.5), (1, 0.6)], "c*p^d")
        with pytest.raises(ValueError):
            fit_curve([(1, 0.5), (2, 0.6)], "banana")
