from importlib import resources

import pytest

from helpers import parse_trace
from qgreedy.angles import AngleOptimum, write_angle_file
from qgreedy.circuits import AngleSchedule
from qgreedy.cli import main
from qgreedy.graph import Graph, read_edge_list, write_edge_list

P2_FILE = str(resources.files("qgreedy") / "data" / "angles" / "p2_d3_lam1.txt")


class TestGenerate:
    def test_stdout(self, capsys):
        assert main(["generate", "--n", "20", "--seed", "3"]) == 0
        g = read_edge_list(capsys.readouterr().out)
        assert g.n == 20
        assert all(len(g.neighbors_alive(v)) == 3 for v in range(20))

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        assert main(["generate", "--n", "20", "--seed", "3",
                     "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        g = read_edge_list(path.read_text())
        assert g.n == 20

    def test_deterministic(self, capsys):
        main(["generate", "--n", "30", "--seed", "8"])
        first = capsys.readouterr().out
        main(["generate", "--n", "30", "--seed", "8"])
        assert capsys.readouterr().out == first


class TestCensus:
    def test_depth1(self, capsys):
        assert main(["census", "--depth", "1"]) == 0
        assert capsys.readouterr().out == "total 4 trees 4 nontrees 0\n"

    def test_global_flag_before_subcommand(self, capsys):
        # --depth is accepted on either side of the subcommand
        assert main(["--depth", "1", "census"]) == 0
        assert capsys.readouterr().out == "total 4 trees 4 nontrees 0\n"

    def test_depth2(self, capsys):
        assert main(["census", "--depth", "2"]) == 0
        assert capsys.readouterr().out == "total 75 trees 20 nontrees 55\n"


class TestSolve:
    def test_greedy(self, capsys):
        assert main(["solve", "--n", "24", "--seed", "2",
                     "--solver", "greedy"]) == 0
        trace = parse_trace(capsys.readouterr().out)
        assert trace["set_size"] == len(trace["order"])
        assert all(k == "-" for k in trace["keys"])

    def test_exact(self, capsys):
        assert main(["solve", "--n", "16", "--seed", "2",
                     "--solver", "exact"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("nodes ")
        assert "set_size" in out

    def test_qgreedy_depth1_equals_greedy(self, capsys):
        main(["solve", "--n", "24", "--seed", "2", "--solver", "greedy"])
        greedy = parse_trace(capsys.readouterr().out)
        main(["solve", "--n", "24", "--seed", "2", "--depth", "1"])
        quantum = parse_trace(capsys.readouterr().out)
        assert quantum["order"] == greedy["order"]
        assert any(k != "-" for k in quantum["keys"])

    def test_in_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        main(["generate", "--n", "20", "--seed", "4", "--out", str(path)])
        capsys.readouterr()
        assert main(["solve", "--in", str(path), "--solver", "greedy"]) == 0
        trace = parse_trace(capsys.readouterr().out)
        assert len(trace["order"]) == trace["set_size"]

    def test_delta_auto_is_default(self, capsys):
        # auto resolves to 0 for ideal advice, the default cutoff
        main(["solve", "--n", "20", "--seed", "1", "--depth", "1"])
        default = capsys.readouterr().out
        assert main(["solve", "--n", "20", "--seed", "1", "--depth", "1",
                     "--delta", "auto"]) == 0
        assert capsys.readouterr().out == default

    def test_node_limit_is_read(self, capsys):
        assert main(["solve", "--n", "16", "--solver", "exact",
                     "--node-limit", "10"]) == 2
        assert "limited to 10" in capsys.readouterr().err

    @pytest.mark.parametrize("advice", [
        ["--advice", "shots", "--shots", "50"],
        ["--advice", "noise", "--eta", "0.05", "--noise-seed", "3"],
    ])
    def test_advice_flags_are_read(self, capsys, advice):
        main(["solve", "--n", "20", "--seed", "1", "--depth", "2"])
        ideal = capsys.readouterr().out
        assert main(["solve", "--n", "20", "--seed", "1", "--depth", "2",
                     *advice]) == 0
        assert capsys.readouterr().out != ideal

    def test_angles_file_decides_or_agrees(self, capsys):
        main(["solve", "--n", "30", "--seed", "4", "--depth", "2"])
        shipped = capsys.readouterr().out
        for argv in (["solve", "--angles", P2_FILE],
                     ["solve", "--angles", P2_FILE, "--depth", "2", "--lambda", "1"],
                     ["--depth", "2", "solve", "--angles", P2_FILE]):
            assert main([*argv, "--n", "30", "--seed", "4"]) == 0
            assert capsys.readouterr().out == shipped

    def test_angles_file_sets_schedule_degree(self, tmp_path, capsys):
        # --degree shapes the generated graph; the file's degree is not checked
        path = tmp_path / "p1_d4.txt"
        sched = AngleSchedule(1, 4, 1.0, (0.5,), (-0.3,))
        write_angle_file(path, AngleOptimum(sched, 0.0))
        assert main(["solve", "--n", "20", "--angles", str(path)]) == 0
        assert parse_trace(capsys.readouterr().out)["set_size"] > 0

    def test_needs_input(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--solver", "greedy"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qgreedy solve ") and "--in and --n" in err

    def test_in_and_n_together_rejected(self, tmp_path, capsys):
        # --n must not be silently ignored in favour of the file
        path = tmp_path / "g10.txt"
        main(["generate", "--n", "10", "--out", str(path)])
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--in", str(path), "--n", "500", "--solver", "greedy"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qgreedy solve ") and "--in and --n" in err


class TestShots:
    def test_frozen(self, capsys):
        assert main(["shots", "--n", "1000", "--eps", "0.05",
                     "--gap", "0.1"]) == 0
        assert capsys.readouterr().out == "991\n"


class TestFitNoise:
    def test_recovers_synthetic(self, tmp_path, capsys):
        lines = ["# ideal noisy size"]
        vals = [0.6, -0.4, 0.2, 0.55, -0.1, 0.35, -0.6, 0.15]
        for i, x in enumerate(vals):
            s = 3 + i % 5
            lines.append(f"{x:.17g} {0.95**s * x + 0.1:.17g} {s}")
        path = tmp_path / "pairs.txt"
        path.write_text("\n".join(lines) + "\n")
        assert main(["fit-noise", "--pairs", str(path)]) == 0
        out = capsys.readouterr().out
        fields = dict(zip(out.split()[::2], map(float, out.split()[1::2])))
        assert fields["eta"] == pytest.approx(0.05, abs=1e-9)
        assert fields["alpha"] == pytest.approx(0.1, abs=1e-9)
        assert fields["sigma"] == pytest.approx(0.0, abs=1e-9)


class TestBench:
    def test_tiny_plan(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        plan = tmp_path / "plan.txt"
        plan.write_text(
            "sizes = 10\ninstances = 2\nsolvers = greedy\n"
            f"out = {out}\nstamp = false\n"
        )
        assert main(["bench", "--plan", str(plan)]) == 0
        printed = capsys.readouterr().out
        assert "size 10 solver greedy" in printed
        assert out.exists()


class TestExitCodes:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--solver", "dynamite"])
        assert exc.value.code == 1

    def test_bad_delta_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--n", "20", "--delta", "abc"])
        assert exc.value.code == 1
        assert "--delta" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "-0.1", "inf", "-inf"])
    def test_nonfinite_or_negative_delta_is_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--n", "20", "--delta", value])
        assert exc.value.code == 1
        assert "--delta" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["--seed", "-1", "solve", "--n", "20"], "--seed"),
        (["solve", "--n", "20", "--seed", "-1"], "--seed"),
        (["generate", "--n", "20", "--seed", "-7"], "--seed"),
        (["solve", "--n", "20", "--advice", "noise", "--noise-seed", "-2"],
         "--noise-seed"),
        # no graph has a negative degree; angles wrote p1_d-2_lam1.txt
        (["angles", "--depth", "1", "--degree", "-2"], "--degree"),
        (["generate", "--n", "10", "--degree", "-1"], "--degree"),
        (["solve", "--n", "10", "--degree", "-1", "--solver", "greedy"],
         "--degree"),
    ])
    def test_negative_seed_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                          argv, flag):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flag}: must be an integer >= 0" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["generate", "--n", "10"],
        ["solve", "--n", "10", "--solver", "greedy"],
        ["angles", "--depth", "1", "--restarts", "1"],
    ])
    def test_degree_zero_is_accepted(self, tmp_path, capsys, argv):
        # the edgeless graph, and its angles, whose edge term weighs 0
        out = tmp_path / "out.txt"
        assert main([*argv, "--degree", "0", "--out", str(out)]) == 0
        assert out.read_text()

    @pytest.mark.parametrize("depth", ["1", "2"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_restarts_below_one_is_usage_error(self, capsys, depth, value):
        # no start point at depth 1, where a deeper solve's recursion ends
        with pytest.raises(SystemExit) as exc:
            main(["angles", "--depth", depth, "--restarts", value])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qgreedy angles ")
        assert "argument --restarts: must be an integer >= 1" in err

    @pytest.mark.parametrize("argv, flag", [
        (["generate", "--n", "-3"], "--n"),
        (["solve", "--n", "0"], "--n"),
        (["shots", "--n", "0", "--eps", "0.1", "--gap", "0.1"], "--n"),
        (["solve", "--n", "12", "--solver", "exact", "--node-limit", "-1"],
         "--node-limit"),
    ])
    def test_count_below_one_is_usage_error(self, capsys, argv, flag):
        # no graph, shot budget or exact search has fewer than one node
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: qgreedy {argv[0]} ")
        assert f"argument {flag}: must be an integer >= 1" in err

    @pytest.mark.parametrize("argv, flag", [
        # flags the chosen solver or advice source would ignore
        (["--solver", "greedy", "--advice", "shots", "--shots", "5",
          "--depth", "3"], "--advice"),
        (["--solver", "greedy", "--depth", "3"], "--depth"),
        (["--solver", "exact", "--delta", "0.1"], "--delta"),
        (["--shots", "-3"], "--shots"),
        (["--advice", "noise", "--shots", "5"], "--shots"),
        (["--eta", "0.1"], "--eta"),
        (["--advice", "shots", "--shots", "5", "--noise-seed", "1"],
         "--noise-seed"),
        (["--node-limit", "30"], "--node-limit"),
        # shot advice without a usable shot count
        (["--advice", "shots"], "--shots"),
        (["--advice", "shots", "--shots", "0"], "--shots"),
        (["--advice", "shots", "--shots", "99999999999999999999"], "--shots"),
        # the classical and exact solvers read no lambda
        (["--solver", "greedy", "--lambda", "2"], "--lambda"),
        (["--solver", "exact", "--lambda", "2"], "--lambda"),
    ])
    def test_solve_flag_misuse_is_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--n", "20", *argv])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qgreedy solve ") and flag in err

    @pytest.mark.parametrize("argv, flag", [
        # shared flags a subcommand does not read, on either side of it
        (["shots", "--n", "10", "--eps", "0.1", "--gap", "0.5", "--depth", "4"],
         "--depth"),
        (["generate", "--n", "10", "--depth", "3", "--lambda", "5"], "--lambda"),
        (["generate", "--n", "10", "--depth", "3"], "--depth"),
        (["census", "--depth", "2", "--lambda", "5"], "--lambda"),
        (["census", "--depth", "2", "--seed", "9"], "--seed"),
        (["census", "--out", "x.txt"], "--out"),
        (["--seed", "1", "bench", "--plan", "p.plan"], "--seed"),
        (["fit-noise", "--pairs", "p.txt", "--out", "x.txt"], "--out"),
        (["--lambda", "2", "solve", "--n", "20", "--solver", "greedy"],
         "--lambda"),
    ])
    def test_unread_shared_flag_is_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        command = next(a for a in argv if a in ("shots", "generate", "census",
                                                "bench", "fit-noise", "solve"))
        assert err.startswith(f"usage: qgreedy {command} ")
        assert f"error: {flag} is not read" in err

    @pytest.mark.parametrize("argv, flag, choice", [
        # a graph read from a file is not generated: no run reads its
        # degree or, with nothing drawn by the exact solver, the seed
        (["--solver", "exact", "--seed", "5"], "--seed", "--solver exact"),
        (["--solver", "greedy", "--degree", "4"], "--degree", "--solver greedy"),
        (["--angles", P2_FILE, "--degree", "4"], "--degree", "--angles"),
    ])
    def test_unread_graph_flag_with_in_is_usage_error(self, tmp_path, capsys,
                                                      argv, flag, choice):
        path = tmp_path / "g.txt"
        path.write_text(write_edge_list(Graph(4, [(0, 1), (1, 2), (2, 3)])))
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--in", str(path), *argv])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: qgreedy solve ")
        assert f"error: {flag} is not read with --in and {choice}" in err

    @pytest.mark.parametrize("argv", [
        ["--n", "12", "--solver", "greedy", "--degree", "3"],
        ["--in", "{path}", "--degree", "3"],  # picks the shipped angles
    ])
    def test_read_degree_is_accepted(self, tmp_path, capsys, argv):
        path = tmp_path / "g.txt"
        path.write_text(write_edge_list(Graph(4, [(0, 1), (1, 2), (2, 3)])))
        argv = [a.format(path=path) for a in argv]
        assert main(["solve", *argv]) == 0
        assert parse_trace(capsys.readouterr().out)["set_size"] > 0

    @pytest.mark.parametrize("argv", [
        ["solve", "--n", "12", "--depth", "1", "--lambda", "nan"],
        ["solve", "--n", "12", "--depth", "1", "--lambda", "inf"],
        ["solve", "--n", "12", "--depth", "1", "--lambda", "0.5"],
        ["angles", "--depth", "1", "--lambda", "inf"],
    ])
    def test_unusable_lambda_is_usage_error(self, capsys, argv):
        # no MIS cost has a penalty weight that is not finite and >= 1
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: qgreedy {argv[0]} ")
        assert "argument --lambda: must be a finite number >= 1" in err

    @pytest.mark.parametrize("argv", [
        ["solve", "--n", "12", "--depth", "0"],
        ["solve", "--depth", "-1"],
        ["angles", "--depth", "0"],
        ["census", "--depth", "-2"],
        ["census", "--depth", "4"],
        ["--depth", "4", "census"],
    ])
    def test_unusable_depth_is_usage_error(self, capsys, argv):
        # no circuit has fewer than one layer, and the census stops at 3
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        command = next(a for a in argv if a in ("solve", "angles", "census"))
        assert err.startswith(f"usage: qgreedy {command} ")
        assert "--depth" in err.splitlines()[-1]

    def test_census_takes_no_degree(self, capsys):
        # the census is tabulated for degree bound 3 only
        with pytest.raises(SystemExit) as exc:
            main(["census", "--depth", "1", "--degree", "3"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --degree 3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag, found", [
        (["solve", "--depth", "3"], "--depth", "depth 2"),
        (["--depth", "1", "solve"], "--depth", "depth 2"),
        (["solve", "--lambda", "2"], "--lambda", "lambda 1"),
        (["--lambda", "1.5", "solve", "--depth", "2"], "--lambda", "lambda 1"),
    ])
    def test_angles_mismatch_is_usage_error(self, capsys, argv, flag, found):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--n", "20", "--angles", P2_FILE])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: qgreedy solve ")
        assert flag in err and found in err and "p2_d3_lam1.txt" in err

    def test_lambda_between_shipped_files_is_usage_error(self, capsys):
        # the shipped file's name rounds lambda with :g; its header does not
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--n", "20", "--lambda", "1.0000001"])
        assert exc.value.code == 1
        assert "--lambda" in capsys.readouterr().err

    def test_missing_angles_file_is_runtime_error(self, tmp_path, capsys):
        missing = str(tmp_path / "p2_d3_lam1.txt")
        assert main(["solve", "--n", "20", "--angles", missing]) == 2
        assert "p2_d3_lam1.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--sigma", "--alpha"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_noise_is_runtime_error(self, capsys, flag, value):
        argv = ["solve", "--n", "20", "--advice", "noise", flag, value]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and flag[2:] in err

    # 1e-300 and 1e-160 square to 0 and to a subnormal: no finite budget
    @pytest.mark.parametrize("gap", ["0", "3", "inf", "1e-300", "1e-160"])
    def test_shots_gap_outside_range_is_runtime_error(self, capsys, gap):
        argv = ["shots", "--n", "10", "--eps", "0.05", "--gap", gap]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: gap must be")

    def test_runtime_error(self, capsys):
        assert main(["solve", "--in", "/nonexistent/g.txt"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("solver", ["exact", "greedy"])
    def test_empty_graph_is_runtime_error(self, tmp_path, capsys, solver):
        # the exact solver divided by the alive count, 0, with a traceback
        path = tmp_path / "empty.txt"
        path.write_text("0 0\n")
        assert main(["solve", "--in", str(path), "--solver", solver]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: graph has no alive nodes\n"

    def test_cyclic_cone_over_255_vertices_is_runtime_error(self, tmp_path,
                                                            capsys):
        # a 300-leaf star with one leaf-leaf edge: the hub's depth-2 cone
        # is cyclic and has all 301 vertices
        path = tmp_path / "star.txt"
        edges = [(0, i) for i in range(1, 301)] + [(1, 2)]
        path.write_text(write_edge_list(Graph(301, edges)))
        assert main(["solve", "--in", str(path), "--depth", "2"]) == 2
        assert "limited to 255 vertices" in capsys.readouterr().err

    @pytest.mark.parametrize("degree", ["0", "1"])
    def test_shot_solve_on_low_degree_angles(self, tmp_path, capsys, degree):
        # the p = 2 shot cutoff divided by 0 at degree 0 and indexed past
        # the tree's shells at degree 1, each in a traceback
        path = tmp_path / "angles.txt"
        argv = ["angles", "--depth", "2", "--degree", degree, "--out", str(path)]
        assert main(argv) == 0
        capsys.readouterr()
        argv = ["solve", "--n", "10", "--angles", str(path), "--advice",
                "shots", "--shots", "10"]
        assert main(argv) == 0
        assert parse_trace(capsys.readouterr().out)["set_size"] > 0

    def test_negative_degree_angle_file_is_runtime_error(self, tmp_path,
                                                         capsys):
        # parsed without complaint, it indexed past the tree's shells
        path = tmp_path / "angles.txt"
        path.write_text("p=2\nd=-2\nlambda=1\nenergy=0\n"
                        "gamma 0.3 0.2\nbeta -0.4 -0.3\n")
        argv = ["solve", "--n", "10", "--angles", str(path), "--advice",
                "shots", "--shots", "10"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: schedule degree must be >= 0: -2\n"

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
