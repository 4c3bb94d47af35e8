import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qgreedy.angles
from qgreedy.angles import (
    AngleOptimum,
    delta_cutoff,
    edge_cone,
    load_default_angles,
    normalize_schedule,
    optimize_tree_angles,
    parse_angle_text,
    read_angle_file,
    tree_energy,
    tree_expectations,
    vertex_cone,
    write_angle_file,
)
from qgreedy.circuits import AngleSchedule
from qgreedy.cones import tree_ball_size


def sched(gammas, betas, lam=1.0, degree=3):
    return AngleSchedule(
        depth=len(gammas), degree=degree, lam=lam,
        gammas=tuple(gammas), betas=tuple(betas),
    )


class TestTreeCones:
    def test_vertex_cone_sizes(self):
        for p in (1, 2, 3, 4):
            assert vertex_cone(p, 3).size == tree_ball_size(p, 3)
            assert vertex_cone(p, 3).is_tree

    def test_edge_cone_sizes(self):
        # two roots, d-1 fresh branches per frontier vertex per level
        assert edge_cone(1, 3).size == 6
        assert edge_cone(2, 3).size == 14
        assert edge_cone(3, 3).size == 30
        assert edge_cone(1, 3).dists[:2] == (0, 0)


class TestShippedAngles:
    def test_all_depths_present(self):
        for p in (1, 2, 3, 4):
            opt = load_default_angles(p)
            assert opt.schedule.depth == p
            assert opt.schedule.degree == 3
            assert opt.schedule.lam == 1.0
            assert opt.schedule.gammas[0] > 0  # normalized gauge

    def test_missing_combination_raises(self):
        with pytest.raises(FileNotFoundError):
            load_default_angles(1, lam=7.0)

    def test_energies_monotone_in_depth(self):
        energies = [load_default_angles(p).energy for p in (1, 2, 3, 4)]
        assert energies[0] == pytest.approx(-0.2782726698989102, abs=1e-9)
        for a, b in zip(energies, energies[1:]):
            assert b < a

    def test_stored_energy_matches_recomputation(self):
        for p in (1, 2, 3, 4):
            opt = load_default_angles(p)
            assert tree_energy(opt.schedule) == pytest.approx(
                opt.energy, abs=1e-9
            )

    def test_p1_energy_against_closed_form(self, sched_p1):
        # independent route: energy from the two depth-1 closed forms
        from qgreedy.engines import expectation_p1_analytic, expectation_p1_edge

        g1, b1, lam, d = (
            sched_p1.gammas[0], sched_p1.betas[0], sched_p1.lam, sched_p1.degree,
        )
        h = (lam * d - 2.0) / 4.0
        z = expectation_p1_analytic(d, h, g1, b1, lam)
        zz = expectation_p1_edge(d, d, h, h, g1, b1, lam)
        e = (d / 2.0) * (lam / 4.0) * zz + h * z + (lam * d - 4.0) / 8.0
        assert e == pytest.approx(load_default_angles(1).energy, abs=1e-12)


class TestNormalization:
    def test_flips_negative_gamma(self):
        s = sched((-0.5, 0.3), (0.2, -0.1))
        ns = normalize_schedule(s)
        assert ns.gammas == (0.5, -0.3)
        assert ns.betas == (-0.2, 0.1)

    def test_keeps_positive_gamma(self):
        s = sched((0.5,), (0.2,))
        assert normalize_schedule(s) is s

    def test_expectations_invariant_under_flip(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1.5, 1.5, size=4)
        a = sched(x[:2], x[2:])
        b = sched(-x[:2], -x[2:])
        za, zza = tree_expectations(a)
        zb, zzb = tree_expectations(b)
        assert za == pytest.approx(zb, abs=1e-12)
        assert zza == pytest.approx(zzb, abs=1e-12)


class TestOptimizer:
    def test_depth1_recovers_shipped_optimum(self):
        opt = optimize_tree_angles(1, restarts=2)
        assert opt.energy == pytest.approx(-0.2782726698989102, abs=1e-8)
        assert opt.schedule.gammas[0] == pytest.approx(0.99275675599, abs=1e-4)

    def test_warm_start_validation(self, sched_p1):
        with pytest.raises(ValueError):
            optimize_tree_angles(3, warm_start=sched_p1)  # depth 1 != 3-1
        with pytest.raises(ValueError):
            optimize_tree_angles(2, lam=2.0, warm_start=sched_p1)

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("restarts", [0, -1])
    def test_no_start_point_rejected(self, depth, restarts):
        # depth 2 without a warm start recurses to depth 1 with no start
        with pytest.raises(ValueError, match="restarts"):
            optimize_tree_angles(depth, restarts=restarts)

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            optimize_tree_angles(0)


class TestDeltaCutoff:
    def test_p1_is_min_star_gap(self, sched_p1):
        # stars at the shipped optimum: min gap is the d=3 to d=2 distance
        assert delta_cutoff(sched_p1) == pytest.approx(
            0.2316361722007347, abs=1e-12
        )

    def test_decreasing_with_depth(self, sched_p1, sched_p2):
        d1 = delta_cutoff(sched_p1)
        d2 = delta_cutoff(sched_p2)
        assert d2 == pytest.approx(0.03379517395650555, abs=1e-9)
        assert 0 < d2 < d1

    def test_memoized_per_schedule(self, sched_p2, monkeypatch):
        # a schedule no other test uses, so the first call computes
        fresh = sched([g + 1e-3 for g in sched_p2.gammas], sched_p2.betas)
        first = delta_cutoff(fresh)

        def fail(*args, **kwargs):
            raise AssertionError("delta_cutoff re-evaluated a cone")

        monkeypatch.setattr(qgreedy.angles, "expectation", fail)
        assert delta_cutoff(fresh) == first
        assert delta_cutoff(sched(fresh.gammas, fresh.betas)) == first


def test_solver_import_skips_scipy_optimize():
    # only optimize_tree_angles needs scipy.optimize; it is slow to import
    code = (
        "import sys, qgreedy, qgreedy.solver; "
        "sys.exit('scipy.optimize' in sys.modules)"
    )
    src = str(Path(qgreedy.angles.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestAngleFiles:
    def test_round_trip(self, tmp_path, sched_p2):
        opt = AngleOptimum(
            schedule=sched_p2, energy=-0.325, vertex_expectation=0.1,
            edge_expectation=-0.2,
        )
        path = tmp_path / "angles.txt"
        write_angle_file(path, opt)
        back = read_angle_file(path)
        assert back.schedule == sched_p2
        assert back.energy == -0.325
        assert math.isnan(back.vertex_expectation)

    def test_comments_tolerated(self):
        text = (
            "# a comment\np=1\nd=3\nlambda=1\nenergy=-0.25\n"
            "gamma 0.9\nbeta -0.4\n"
        )
        opt = parse_angle_text(text)
        assert opt.schedule.gammas == (0.9,)

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="incomplete"):
            parse_angle_text("p=1\nd=3\ngamma 0.9\nbeta -0.4\n")

    def test_junk_line_rejected(self):
        with pytest.raises(ValueError, match="unrecognized"):
            parse_angle_text("p=1\nwhatever\n")
