import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import frontsteer
from conftest import optimize_in_fresh_process
from frontsteer import cli
from frontsteer.cli import DEFAULT_CONFIG, build_solver_config, load_config, main
from frontsteer.errors import ConfigError
from frontsteer.grid import ScalarField, TorusGrid, VecField, read_field, write_field
from frontsteer.hj import counterexample_instance
from frontsteer.model import FiniteControlsSpeed
from frontsteer.pdopt import SolverConfig


def write_config(path, **overrides):
    config = {
        "problem": {"dim": 1, "nx": [32], "nt": 33, "T": 1.0,
                    "speed": {"variant": "isotropic", "radius": 1.0},
                    "cost": {"p": 3.0, "kappa": 1.0},
                    "u_T": {"preset": "zero"}, "m0": {"preset": "uniform"}},
        "solver": {"max_iters": 4000, "tol_gap": 1e-3, "tol_cont": 1e-3},
        "outputs": {"directory": str(path.parent / "out")},
        "seed": 0,
    }
    for key, val in overrides.items():
        if isinstance(val, dict):
            config[key] = {**config.get(key, {}), **val}
        else:
            config[key] = val
    path.write_text(json.dumps(config))
    return config


class TestSolveHJ:
    def test_counterexample_obstacle_file(self, tmp_path):
        window = counterexample_instance(0.1, window_points=101, nt=51)
        grid = window.grid
        f = window.obstacle_field()
        f_path = tmp_path / "f.field"
        write_field(f_path, f)
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, problem={
            "dim": 1, "nx": [grid.nx[0]], "nt": grid.nt, "T": 1.0,
            "speed": {"variant": "isotropic", "radius": 0.25},
            "cost": {"p": 3.0, "kappa": 1.0},
            "u_T": {"preset": "zero"}, "m0": {"preset": "uniform"}})
        out = tmp_path / "hj_out"
        code = main(["solve-hj", "--config", str(cfg_path),
                     "--obstacle", str(f_path), "--out", str(out)])
        assert code == 0
        u = read_field(out / "u.field")
        worst = 0.0
        for k in range(grid.nt):
            mask = window.comparison_mask(k)
            diff = np.abs(window.window_values(u, k) - window.exact_window(k))
            if np.any(mask):
                worst = max(worst, float(np.max(diff[mask])))
        assert worst <= 0.05
        assert (out / "front.csv").exists()
        assert (out / "manifest.json").exists()

    def test_missing_obstacle_file_is_io_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        code = main(["solve-hj", "--config", str(cfg_path),
                     "--obstacle", str(tmp_path / "nope.field"),
                     "--out", str(tmp_path / "o")])
        assert code == 3

    def test_malformed_obstacle_file_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        obstacle = tmp_path / "f.field"
        obstacle.write_text("frontsteer-field v1 dim=1 nx=32 nt=33 T=1 kind=scalar "
                            "enc=text\n" + "x " * (32 * 33) + "\n")
        code = main(["solve-hj", "--config", str(cfg_path),
                     "--obstacle", str(obstacle), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "parameter error:" in capsys.readouterr().err

    def test_obstacle_without_encoding_token_exits_2(self, tmp_path, capsys):
        # "0.03125" with its separator is 8 bytes per value, the length of a
        # binary payload: only the header can tell the encoding
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        obstacle = tmp_path / "f.field"
        obstacle.write_text("frontsteer-field v1 dim=1 nx=32 nt=33 T=1 kind=scalar\n"
                            + (" ".join(["0.03125"] * 32) + "\n") * 33)
        code = main(["solve-hj", "--config", str(cfg_path),
                     "--obstacle", str(obstacle), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "lacks enc=" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestArguments:
    def test_refine_only_on_reproduce(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--refine", "1", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_bad_threads_environment_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRONTSTEER_THREADS", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2


class TestConfigErrors:
    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["optimize", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2

    def test_critical_exponent_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, problem={"cost": {"p": 2.0, "kappa": 1.0}})
        assert main(["optimize", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2

    def test_unknown_preset_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, problem={"u_T": {"preset": "sawtooth"}})
        assert main(["optimize", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2

    def _assert_config_error(self, tmp_path, capsys, **overrides):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, **overrides)
        assert main(["optimize", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_non_numeric_nt(self, tmp_path, capsys):
        self._assert_config_error(tmp_path, capsys, problem={"nt": "x"})

    def test_non_numeric_cost_exponent(self, tmp_path, capsys):
        self._assert_config_error(tmp_path, capsys,
                                  problem={"cost": {"p": "abc"}})

    def test_finite_speed_without_rest_inside(self, tmp_path, capsys):
        # the hull [0.5, 1] does not hold 0 strictly inside
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, problem={"speed": {
            "variant": "finite", "velocities": [[1.0], [0.5]]}})
        assert main(["optimize", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert "must hold 0 strictly inside" in capsys.readouterr().err

    def test_finite_speed_without_rest_at_some_grid_nodes(self, tmp_path, capsys,
                                                         monkeypatch):
        # maps 1 and -0.5 + 0.75 sin^2(16 pi x): their hull is [0.25, 1] at
        # the 16 nodes j = 2 (mod 4) of 64, and holds 0 at x = k/16
        maps = (lambda x: np.ones(np.shape(x)),
                lambda x: -0.5 + 0.75 * np.sin(16 * np.pi * x) ** 2)
        monkeypatch.setattr(cli, "build_speed",
                            lambda entry, grid: FiniteControlsSpeed(grid.dim, maps))
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, problem={"nx": [64], "nt": 9})
        assert main(["optimize", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert "must hold 0 strictly inside" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_radius_table_on_another_grid(self, tmp_path):
        # a radius table is read like a u_T / m0 slice: its grid is checked
        # as it is loaded, and the error names its file
        path = _field_file(tmp_path / "r.field", TorusGrid(1, (32,), 2, 1.0), 1.0)
        config = load_config(None)
        config["problem"]["speed"]["radius"] = {"file": path}
        with pytest.raises(ConfigError, match=f"field file {path} has space shape"):
            cli.build_problem(config)

    @pytest.mark.parametrize("radius", ["abc", {"path": "r.field"}])
    def test_malformed_speed_radius(self, tmp_path, capsys, radius):
        self._assert_config_error(tmp_path, capsys, problem={"speed": {
            "variant": "isotropic", "radius": radius}})

    def test_non_numeric_solver_setting(self, tmp_path, capsys):
        self._assert_config_error(tmp_path, capsys, solver={"max_iters": "many"})

    def test_non_numeric_reproduce_setting(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"reproduce": {"nt": "fine"}}))
        assert main(["reproduce", "--config", str(cfg_path),
                     "--out", str(tmp_path / "rep")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_non_numeric_reproduce_eps(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"reproduce": {"eps": ["abc"]}}))
        assert main(["reproduce", "--config", str(cfg_path),
                     "--out", str(tmp_path / "rep")]) == 2
        assert "reproduce eps must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("command,overrides,name", [
        ("optimize", {"solver": {"max_iters": math.inf}}, "max_iters"),
        ("optimize", {"solver": {"tol_gap": math.nan}}, "tol_gap"),
        ("reproduce", {"reproduce": {"eps": [math.nan]}}, "reproduce eps"),
        ("reproduce", {"reproduce": {"eps": [-math.inf]}}, "reproduce eps"),
        ("reproduce", {"reproduce": {"eps": [math.inf]}}, "reproduce eps"),
    ], ids=["max_iters-inf", "tol_gap-nan", "eps-nan", "eps-minus-inf", "eps-inf"])
    def test_non_finite_number(self, tmp_path, capsys, command, overrides, name):
        # Python's json reads NaN and Infinity; each exits 2 naming its key
        # before any output is written
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, **overrides)
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert f"{name} must be a number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_solver_keys(self, tmp_path, capsys):
        # a misspelt tolerance and an option that does not exist are refused,
        # not run with the defaults
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"solver": {"max_iters": 3, "over_relax": 0.5, "tol_gapp": 1e-9}}))
        assert main(["optimize", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "'over_relax'" in err and "'tol_gapp'" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides,key", [
        ({"outputs": {"dir": "o"}}, "'dir'"),
        ({"reproduc": {"nt": 11}}, "'reproduc'"),
        ({"solver": [1]}, "'solver' must be a JSON object"),
    ])
    def test_unknown_outputs_and_top_level_keys(self, tmp_path, capsys, overrides, key):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, **overrides)
        assert main(["optimize", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and key in err

    def _assert_unknown_keys(self, tmp_path, capsys, overrides, where, keys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, **overrides)
        assert main(["optimize", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"config error: unknown {where} key(s) {keys};" in err
        assert not (tmp_path / "o").exists()

    def test_sigma_is_an_unknown_solver_key(self, tmp_path, capsys):
        # the dual step is 0.96/tau, so a config that sets it is refused
        self._assert_unknown_keys(tmp_path, capsys, {"solver": {"tau": 8.0, "sigma": 0.12}},
                                  "solver", "'sigma'")

    def test_unknown_problem_keys(self, tmp_path, capsys):
        self._assert_unknown_keys(tmp_path, capsys, {"problem": {"Tend": 2.0, "nxx": [8]}},
                                  "problem", "'Tend', 'nxx'")

    @pytest.mark.parametrize("speed,where,keys", [
        ({"variant": "isotropic", "radious": 0.25}, "problem.speed (isotropic)",
         "'radious'"),
        ({"radious": 0.25}, "problem.speed (isotropic)", "'radious'"),
        ({"variant": "finite", "velocities": [[1.0], [-1.0]], "radius": 0.5},
         "problem.speed (finite)", "'radius'"),
        ({"radius": {"file": "r.field", "scale": 2.0}}, "problem.speed.radius", "'scale'"),
        ({"variant": "finite", "velocities": [[1.0], [-1.0]], "c0": 1.0},
         "problem.speed (finite)", "'c0'"),
        ({"variant": "finite", "velocities": [[1.0], [-1.0]], "c1": 1.0},
         "problem.speed (finite)", "'c1'"),
    ])
    def test_unknown_speed_keys(self, tmp_path, capsys, speed, where, keys):
        # the keys depend on the variant: a finite hull has no radius, nor
        # radii, which follow from its maps, and a tabulated radius names
        # only its file
        self._assert_unknown_keys(tmp_path, capsys, {"problem": {"speed": speed}},
                                  where, keys)

    def test_unknown_cost_keys(self, tmp_path, capsys):
        self._assert_unknown_keys(tmp_path, capsys,
                                  {"problem": {"cost": {"p": 3.0, "kapa": 9.0}}},
                                  "problem.cost", "'kapa'")

    @pytest.mark.parametrize("name", ["u_T", "m0"])
    def test_unknown_slice_keys(self, tmp_path, capsys, name):
        self._assert_unknown_keys(tmp_path, capsys,
                                  {"problem": {name: {"preset": "zero", "fiel": "x"}}},
                                  f"problem.{name}", "'fiel'")

    def test_unknown_reproduce_keys(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"reproduce": {"eps": [0.1], "tolerence": 0.5}}))
        assert main(["reproduce", "--config", str(cfg_path),
                     "--out", str(tmp_path / "rep")]) == 2
        assert ("config error: unknown reproduce key(s) 'tolerence';"
                in capsys.readouterr().err)
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("problem,where", [
        ({"speed": "isotropic"}, "'problem.speed'"),
        ({"cost": [3.0]}, "'problem.cost'"),
        ({"m0": "gaussian"}, "'problem.m0'"),
    ])
    def test_problem_sections_must_be_objects(self, tmp_path, capsys, problem, where):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, problem=problem)
        assert main(["optimize", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"config section {where} must be a JSON object" in capsys.readouterr().err

    def test_reproduce_eps_not_a_list(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"reproduce": {"eps": 0.1}}))
        assert main(["reproduce", "--config", str(cfg_path),
                     "--out", str(tmp_path / "rep")]) == 2
        assert "reproduce eps must be a list" in capsys.readouterr().err


class TestOptimize:
    def test_uniform_preset_converges_and_certifies(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg_path), "--out", str(out)]) == 0
        doc = json.loads((out / "certificates.json").read_text())
        assert doc["all_passed"]
        assert {c["name"] for c in doc["checks"]} == {
            "ibp_inequality", "weak_identity_from_start", "weak_identity_to_end",
            "pointwise_hj", "subsolution", "holder_bound", "duality_gap"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["converged"]
        for name in ("u.field", "f.field", "m.field", "w.field", "diagnostics.csv"):
            assert (out / name).exists()

    def test_iteration_cap_yields_math_failure_with_artifacts(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, solver={"max_iters": 1, "tol_gap": 1e-3,
                                       "tol_cont": 1e-3})
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert (out / "diagnostics.csv").exists()
        assert (out / "m.field").exists()
        # the duality_gap record is the certified gap of the last diagnostics row
        last = (out / "diagnostics.csv").read_text().splitlines()[-1].split(",")
        doc = json.loads((out / "certificates.json").read_text())
        gap = {c["name"]: c for c in doc["checks"]}["duality_gap"]
        assert last[0] == "1"
        assert gap["lhs"] == float(last[3])
        assert gap["slack"] == max(abs(float(last[1])), abs(float(last[2])))
        assert not gap["passed"]                   # a gap of one iteration is no optimum
        manifest = json.loads((out / "manifest.json").read_text())
        assert "max_iters reached without convergence" in manifest["notes"]

    def test_converged_run_records_the_certified_gap(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        config = write_config(cfg_path, problem={"u_T": {"preset": "cosine"},
                                                 "m0": {"preset": "gaussian"}})
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg_path), "--out", str(out)]) == 0
        doc = json.loads((out / "certificates.json").read_text())
        gap = {c["name"]: c for c in doc["checks"]}["duality_gap"]
        assert gap["passed"]
        assert 0.0 <= gap["lhs"] <= config["solver"]["tol_gap"] * gap["slack"]
        rows = [line.split(",") for line in
                (out / "diagnostics.csv").read_text().splitlines()[1:]]
        assert min(float(r[3]) for r in rows) >= -1e-12
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["final_gap"] == gap["lhs"]
        assert "operator_norm" not in manifest
        assert manifest["notes"] == []

    def test_diagnostics_deterministic_across_threads(self, tmp_path):
        # fresh processes at 1 and 2 BLAS threads
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out, threads in ((out_a, 1), (out_b, 2)):
            proc = optimize_in_fresh_process(cfg_path, out, threads)
            assert proc.returncode == 0, proc.stderr
        assert (out_a / "diagnostics.csv").read_bytes() \
            == (out_b / "diagnostics.csv").read_bytes()
        assert (out_a / "certificates.json").read_bytes() \
            == (out_b / "certificates.json").read_bytes()


@pytest.fixture(scope="module")
def gaussian_bundle(tmp_path_factory):
    """Config path and output directory of an optimize run on the 32x33
    Gaussian/cosine instance."""
    base = tmp_path_factory.mktemp("gaussian")
    cfg_path = base / "cfg.json"
    write_config(cfg_path, problem={"u_T": {"preset": "cosine"},
                                    "m0": {"preset": "gaussian"}})
    out = base / "out"
    assert main(["optimize", "--config", str(cfg_path), "--out", str(out)]) == 0
    return cfg_path, out


def test_diagnostics_iter_column(gaussian_bundle):
    # one row per certified iteration: every power of two up to the stop,
    # then the iterations that pass the residual test, ending at the stop
    _, out = gaussian_bundle
    its = [int(line.split(",")[0]) for line in
           (out / "diagnostics.csv").read_text().splitlines()[1:]]
    stop = json.loads((out / "manifest.json").read_text())["iterations"]
    assert all(later > earlier for earlier, later in zip(its, its[1:]))
    assert its[-1] == stop
    assert {2 ** k for k in range(stop.bit_length())} <= set(its)
    assert len(its) < stop


def test_diagnostics_tau_column_follows_the_step_changes(gaussian_bundle):
    # tau is the last column; each row's tau is the one in effect at its
    # iteration, a change taking effect after the iteration that made it;
    # the manifest holds the changes and the final step, tau only
    _, out = gaussian_bundle
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == "iter,A,B,gap,cont_residual,tau"
    manifest = json.loads((out / "manifest.json").read_text())
    changes = manifest["step_changes"]
    assert changes and all(it % 32 == 0 for it, _ in changes)
    for line in lines[1:]:
        it, tau = int(line.split(",")[0]), float(line.split(",")[-1])
        assert tau == next((t for c_it, t in reversed(changes) if c_it < it), 16.0)
    assert manifest["tau"] == changes[-1][1] and "sigma" not in manifest


def test_manifests_record_the_relative_gap(gaussian_bundle, tmp_path):
    # next to the absolute gap: optimize's final_rel_gap and certify's
    # gap_details.rel_gap, the (A + B) / max(|A|, |B|, 1e-10) tol_gap bounds
    cfg_path, out = gaussian_bundle
    manifest = json.loads((out / "manifest.json").read_text())
    last = (out / "diagnostics.csv").read_text().splitlines()[-1].split(",")
    a_val, b_val, gap = (float(s) for s in last[1:4])
    assert manifest["final_gap"] == gap
    assert manifest["final_rel_gap"] == gap / max(abs(a_val), abs(b_val), 1e-10)
    assert 0.0 <= manifest["final_rel_gap"] <= 1e-3
    assert main(["certify", "--config", str(cfg_path), "--bundle", str(out),
                 "--out", str(tmp_path / "recheck")]) == 0
    details = json.loads((tmp_path / "recheck" / "manifest.json").read_text())["gap_details"]
    assert details["rel_gap"] == manifest["final_rel_gap"]


def _copy_bundle(src, dst, names=("u", "f", "m", "w")):
    dst.mkdir()
    for name in names:
        (dst / f"{name}.field").write_bytes((src / f"{name}.field").read_bytes())
    return dst


class TestCertifyCommand:
    def test_recertify_stored_bundle(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg_path), "--out", str(out)]) == 0
        out2 = tmp_path / "recheck"
        code = main(["certify", "--config", str(cfg_path), "--bundle", str(out),
                     "--out", str(out2)])
        assert code == 0
        assert (out2 / "certificates.json").read_bytes() \
            == (out / "certificates.json").read_bytes()

    def test_recertify_gaussian_bundle(self, gaussian_bundle, tmp_path):
        cfg_path, out = gaussian_bundle
        for name in ("w_plus.field", "w_minus.field"):
            assert not np.any(read_field(out / name).values[-1])
        code = main(["certify", "--config", str(cfg_path), "--bundle", str(out),
                     "--out", str(tmp_path / "recheck")])
        assert code == 0
        assert (tmp_path / "recheck" / "certificates.json").read_bytes() \
            == (out / "certificates.json").read_bytes()
        checks = json.loads((out / "certificates.json").read_text())["checks"]
        assert len(checks) == 7 and all(
            list(c) == ["name", "passed", "lhs", "slack", "worst_location", "skipped"]
            for c in checks)
        details = json.loads((tmp_path / "recheck" / "manifest.json").read_text())["gap_details"]
        gap = checks[-1]
        assert details["A"] + details["B"] == gap["lhs"] and gap["passed"]
        assert not details["b_inf_without_rest"]

    def test_bundle_without_split_pair_is_split_by_sign(self, gaussian_bundle, tmp_path):
        cfg_path, out = gaussian_bundle
        bundle = _copy_bundle(out, tmp_path / "net")
        code = main(["certify", "--config", str(cfg_path), "--bundle", str(bundle),
                     "--out", str(tmp_path / "recheck")])
        checks = json.loads((tmp_path / "recheck" / "certificates.json").read_text())["checks"]
        assert code == (0 if all(c["passed"] for c in checks) else 1)
        gap = checks[-1]
        assert gap["name"] == "duality_gap" and np.isfinite(gap["lhs"]) and gap["lhs"] >= 0.0
        stored = json.loads((out / "certificates.json").read_text())["checks"]
        assert gap["lhs"] != stored[-1]["lhs"]
        # w's sign split is not the stored pair where both halves are nonzero:
        # only the two checks that read the momenta may differ
        moved = ("pointwise_hj", "duality_gap")
        assert [c for c in checks if c["name"] not in moved] \
            == [c for c in stored if c["name"] not in moved]
        hj = [c["name"] for c in checks].index("pointwise_hj")
        assert checks[hj]["passed"] and stored[hj]["passed"]

    def test_pointwise_hj_is_the_per_node_split_velocity_residual(self, gaussian_bundle):
        # the stored record, written out one node at a time: the residual of
        # u along the split velocities max(w_plus, 0)/m and min(w_minus, 0)/m
        # over the nodes with m > 1e-3 max(m)
        _, out = gaussian_bundle
        fields = {n: read_field(out / f"{n}.field") for n in ("u", "f", "m", "w_plus", "w_minus")}
        grid = fields["u"].grid
        u, f, m, wp, wm = (fields[n].values for n in ("u", "f", "m", "w_plus", "w_minus"))
        n, dx, dt = grid.nx[0], grid.dx[0], grid.dt
        threshold = max(1e-9, 1e-3 * float(np.max(m)))
        num = den = 0.0
        worst = (0.0, None)
        for k in range(grid.nt - 1):
            mask = m[k] > threshold
            res = np.zeros(n)
            for i in np.flatnonzero(mask):
                a = max(wp[k, i, 0], 0.0) / m[k, i]
                b = min(wm[k, i, 0], 0.0) / m[k, i]
                fwd = (u[k + 1, (i + 1) % n] - u[k + 1, i]) / dx
                bwd = (u[k + 1, i] - u[k + 1, i - 1]) / dx
                res[i] = -(u[k + 1, i] - u[k, i]) / dt - (a * fwd + b * bwd) - f[k, i]
                if abs(res[i]) > worst[0]:
                    worst = (abs(res[i]), [k, int(i)])
            if mask.any():
                num += float(np.sum(np.abs(res[mask])))
                den += float(np.sum(np.abs(f[k][mask])))
        stored = next(c for c in json.loads((out / "certificates.json").read_text())["checks"]
                      if c["name"] == "pointwise_hj")
        assert stored["lhs"] == num / den and stored["worst_location"] == worst[1]
        assert stored["passed"] and stored["slack"] == 0.1

    @pytest.mark.parametrize("speed", [
        {"variant": "isotropic", "radius": 1.0},
        {"variant": "finite",  # the diamond with rest
         "velocities": [[0.9, 0.0], [-0.9, 0.0], [0.0, 0.9], [0.0, -0.9], [0.0, 0.0]]},
    ], ids=["ball", "hull"])
    def test_nodal_bundle_certifies_like_its_split_pair(self, tmp_path, speed):
        # w alone, or w with the pair (max(w, 0), min(w, 0)) written beside it:
        # the certificate's per-block sign clip is that pair, bit for bit
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, problem={
            "dim": 2, "nx": [8, 8], "nt": 9, "speed": speed, "cost": {"p": 4.0},
            "u_T": {"preset": "cosine"}, "m0": {"preset": "gaussian"}})
        grid = TorusGrid(2, (8, 8), 9, 1.0)
        rng = np.random.default_rng(31)
        shape = (grid.nt, *grid.nx)
        m = rng.random(shape) * (rng.random(shape) > 0.2)
        w = VecField(grid, 2.0 * rng.standard_normal((*shape, 2)) * m[..., None])
        fields = {"u": ScalarField(grid, rng.standard_normal(shape)),
                  "f": ScalarField(grid, rng.random(shape)), "m": ScalarField(grid, m),
                  "w": w, "w_plus": VecField(grid, np.maximum(w.values, 0.0)),
                  "w_minus": VecField(grid, np.minimum(w.values, 0.0))}
        results = []
        for kind, names in (("nodal", "ufmw"), ("pair", list(fields))):
            bundle = tmp_path / kind
            bundle.mkdir()
            for name in names:
                write_field(bundle / f"{name}.field", fields[name])
            out = tmp_path / f"{kind}_out"
            code = main(["certify", "--config", str(cfg_path), "--bundle", str(bundle),
                         "--out", str(out)])
            manifest = json.loads((out / "manifest.json").read_text())
            results.append((code, (out / "certificates.json").read_bytes(),
                            manifest["gap_details"]))
        assert results[0] == results[1]
        assert results[0][2]["max_split_excess"] > 0.0

    def test_momenta_outside_the_split_set_fail_the_gap(self, gaussian_bundle, tmp_path):
        # w_plus doubled at every 4th node leaves the speed ball; the
        # certificate moves it back, which costs it the optimality of the
        # stored pair, and says how far it moved
        cfg_path, out = gaussian_bundle
        bundle = _copy_bundle(out, tmp_path / "doubled",
                              names=("u", "f", "m", "w", "w_plus", "w_minus"))
        w_plus = read_field(out / "w_plus.field")
        values = w_plus.values.copy()
        values[:, ::4] *= 2.0
        write_field(bundle / "w_plus.field", VecField(w_plus.grid, values))
        code = main(["certify", "--config", str(cfg_path), "--bundle", str(bundle),
                     "--out", str(tmp_path / "recheck")])
        assert code == 1
        gap = json.loads((tmp_path / "recheck" / "certificates.json").read_text())["checks"][-1]
        assert gap["name"] == "duality_gap" and not gap["passed"] and gap["lhs"] >= 0.0
        details = json.loads((tmp_path / "recheck" / "manifest.json").read_text())["gap_details"]
        assert details["max_split_excess"] > 0.0

    def test_bundle_on_another_grid_exits_2(self, gaussian_bundle, tmp_path, capsys):
        _, out = gaussian_bundle
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, problem={"nx": [16], "nt": 17})
        code = main(["certify", "--config", str(cfg_path), "--bundle", str(out),
                     "--out", str(tmp_path / "recheck")])
        assert code == 2
        assert "grid does not match" in capsys.readouterr().err

    def test_ragged_text_field_exits_2(self, gaussian_bundle, tmp_path, capsys):
        # the right number of values, but one time level split over two lines
        cfg_path, out = gaussian_bundle
        bundle = _copy_bundle(out, tmp_path / "ragged")
        write_field(bundle / "m.field", read_field(out / "m.field"))     # as text
        header, payload = (bundle / "m.field").read_bytes().split(b"\n", 1)
        first, rest = payload.split(b"\n", 1)
        head, tail = first.rsplit(b" ", 1)
        (bundle / "m.field").write_bytes(header + b"\n" + head + b"\n" + tail + b"\n" + rest)
        code = main(["certify", "--config", str(cfg_path), "--bundle", str(bundle),
                     "--out", str(tmp_path / "recheck")])
        assert code == 2
        assert "lines of 32 values" in capsys.readouterr().err

    def test_scalar_momentum_exits_2(self, gaussian_bundle, tmp_path, capsys):
        cfg_path, out = gaussian_bundle
        bundle = _copy_bundle(out, tmp_path / "scalar_w", names=("u", "f", "m"))
        write_field(bundle / "w.field", read_field(out / "u.field"))
        code = main(["certify", "--config", str(cfg_path), "--bundle", str(bundle),
                     "--out", str(tmp_path / "recheck")])
        assert code == 2
        assert "w.field must hold a VecField" in capsys.readouterr().err

    def test_negative_density_exits_2(self, gaussian_bundle, tmp_path, capsys):
        cfg_path, out = gaussian_bundle
        bundle = _copy_bundle(out, tmp_path / "negative_m")
        m = read_field(out / "m.field")
        values = m.values.copy()
        values[3, 5] = -1e-3
        write_field(bundle / "m.field", ScalarField(m.grid, values))
        code = main(["certify", "--config", str(cfg_path), "--bundle", str(bundle),
                     "--out", str(tmp_path / "recheck")])
        assert code == 2
        assert "density must be >= 0" in capsys.readouterr().err


class TestFieldOutputs:
    """Every field file the CLI writes is exact binary, enc=f64le."""

    @staticmethod
    def _recording(monkeypatch):
        written = []
        real = cli.write_field

        def record(path, field, binary=False):
            written.append((path, field))
            real(path, field, binary=binary)
        monkeypatch.setattr(cli, "write_field", record)
        return written

    @staticmethod
    def _assert_exact_binary(written, names):
        assert sorted(Path(path).name for path, _ in written) == sorted(names)
        for path, field in written:
            assert Path(path).read_bytes().split(b"\n", 1)[0].endswith(b" enc=f64le")
            back = read_field(path)
            assert type(back) is type(field) and back.grid == field.grid
            assert back.values.tobytes() == field.values.tobytes()

    def test_every_command_writes_f64le_that_reads_back_bit_for_bit(self, tmp_path,
                                                                   monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        config = write_config(cfg_path, problem={"u_T": {"preset": "cosine"},
                                                 "m0": {"preset": "gaussian"}})
        grid = cli.build_problem(config).grid
        written = self._recording(monkeypatch)
        assert main(["optimize", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        self._assert_exact_binary(written, [f"{n}.field" for n in
                                            ("u", "f", "m", "w", "w_plus", "w_minus")])
        written.clear()
        v_path = tmp_path / "v.field"
        x = grid.axis_coords(0)
        write_field(v_path, VecField(grid, np.broadcast_to(
            (0.3 * np.sin(2 * np.pi * x))[None, :, None], (grid.nt, *grid.nx, 1))))
        assert main(["solve-transport", "--config", str(cfg_path), "--velocity", str(v_path),
                     "--out", str(tmp_path / "t")]) == 0
        self._assert_exact_binary(written, ["m.field"])
        written.clear()
        obstacle = tmp_path / "f.field"
        write_field(obstacle, ScalarField(grid, np.broadcast_to(
            np.cos(2 * np.pi * x) ** 2, (grid.nt, *grid.nx))))
        assert main(["solve-hj", "--config", str(cfg_path), "--obstacle", str(obstacle),
                     "--out", str(tmp_path / "h")]) == 0
        self._assert_exact_binary(written, ["u.field"])

    def test_binary_bundle_certifies_like_its_text_copy(self, gaussian_bundle, tmp_path):
        cfg_path, out = gaussian_bundle
        text = tmp_path / "text"
        text.mkdir()
        for name in ("u", "f", "m", "w", "w_plus", "w_minus"):
            write_field(text / f"{name}.field", read_field(out / f"{name}.field"))
            assert (text / f"{name}.field").read_bytes().split(b"\n", 1)[0].endswith(
                b" enc=text")
        results = []
        for bundle in (out, text):
            recheck = tmp_path / f"recheck_{bundle.name}"
            assert main(["certify", "--config", str(cfg_path), "--bundle", str(bundle),
                         "--out", str(recheck)]) == 0
            results.append((recheck / "certificates.json").read_bytes())
        assert results[0] == results[1]


class TestSolveTransport:
    def test_constant_velocity_conserves_mass(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        config = write_config(cfg_path, problem={"nt": 65})
        from frontsteer.cli import build_problem
        problem = build_problem(config)
        grid = problem.grid
        from frontsteer.grid import VecField
        v = VecField(grid, np.full((grid.nt, *grid.nx, 1), 0.4))
        v_path = tmp_path / "v.field"
        write_field(v_path, v, binary=True)
        out = tmp_path / "out_t"
        code = main(["solve-transport", "--config", str(cfg_path),
                     "--velocity", str(v_path), "--out", str(out),
                     "--paths", "500"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mass_drift"] <= 1e-12
        rows = (out / "trajectories.csv").read_text().splitlines()[1:]
        assert len(rows) == 500 * grid.nt
        # every path carries mass / count, written to 17 digits, so exactly
        assert {float(row.rsplit(",", 1)[1]) for row in rows} == {problem.mass / 500}
        # the paths' histogram at T against m(T), next to its Monte-Carlo floor
        assert 0 < manifest["pushforward_floor"] < 1
        assert 0 <= manifest["pushforward_l1"] <= 3 * manifest["pushforward_floor"]


class TestReproduce:
    def test_small_grid_reproduction(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = {"reproduce": {"eps": [0.2, 0.1], "window_points": 101, "nt": 51,
                             "tolerance": 0.05},
               "outputs": {"directory": str(tmp_path / "rep")}}
        cfg_path.write_text(json.dumps(cfg))
        code = main(["reproduce", "--config", str(cfg_path),
                     "--out", str(tmp_path / "rep"), "--refine", "1"])
        assert code == 0
        lines = (tmp_path / "rep" / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3                  # header + two eps + limit row
        assert (tmp_path / "rep" / "slices.csv").exists()


def test_optimize_runs_without_scipy(tmp_path):
    """The package's runtime needs only numpy: a fresh interpreter that
    imports ``frontsteer.cli`` and runs ``optimize`` with its certification
    battery loads no scipy module.  (This process already holds scipy.)
    Its set-up, the import and ``build_problem``, loads neither scipy nor
    ``numpy.random``, whose import the battery's first generator pays for
    later in the run."""
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, problem={"nx": [16], "nt": 17, "u_T": {"preset": "cosine"},
                                    "m0": {"preset": "gaussian"}},
                 solver={"max_iters": 5})
    out = tmp_path / "out"
    script = (
        "import json, sys\n"
        "def loaded(*names):\n"
        "    return sorted(m for m in sys.modules for n in names\n"
        "                  if (m + '.').startswith(n + '.'))\n"
        "import frontsteer, frontsteer.cli\n"
        f"frontsteer.cli.build_problem(frontsteer.cli.load_config({str(cfg_path)!r}))\n"
        "setup = loaded('scipy', 'numpy.random')\n"
        f"code = frontsteer.cli.main(['optimize', '--config', {str(cfg_path)!r}, "
        f"'--out', {str(out)!r}])\n"
        "print(json.dumps({'code': code, 'setup': setup, 'scipy': loaded('scipy')}))\n")
    src = str(Path(frontsteer.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["code"] == 1                      # capped at 5 iterations
    checks = json.loads((out / "certificates.json").read_text())["checks"]
    assert "holder_bound" in {c["name"] for c in checks}
    assert result["setup"] == []
    assert result["scipy"] == []


def _field_file(path, grid, values):
    write_field(path, ScalarField(grid, np.broadcast_to(values, (grid.nt, *grid.nx))))
    return str(path)


class TestRefusedValues:
    """A value outside the type of its default exits 2 naming its key,
    before any output; so does a negative count."""

    @pytest.mark.parametrize("command,overrides,name", [
        ("optimize", {"seed": "abc"}, "seed"),
        ("optimize", {"seed": 1.7}, "seed"),
        ("optimize", {"seed": True}, "seed"),
        ("optimize", {"outputs": {"directory": 5}}, "outputs directory"),
        ("optimize", {"problem": {"nt": 17.5}}, "problem nt"),
        ("optimize", {"problem": {"nx": ["16"]}}, "problem nx"),
        ("optimize", {"solver": {"max_iters": 2.5}}, "solver max_iters"),
        ("optimize", {"solver": {"max_iters": True}}, "solver max_iters"),
        ("optimize", {"solver": {"tol_gap": "0.5"}}, "solver tol_gap"),
        ("reproduce", {"reproduce": {"eps": [0.2], "window_points": 41.7, "nt": 21}},
         "reproduce window_points"),
    ], ids=["seed-string", "seed-fraction", "seed-bool", "directory-number",
            "nt-fraction", "nx-string", "max_iters-fraction", "max_iters-bool",
            "tol_gap-string", "window_points-fraction"])
    def test_bad_value_exits_2(self, tmp_path, capsys, monkeypatch, command, overrides, name):
        # no --out: the configured directory is where output would go
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path / "cfg.json", **overrides)
        assert main([command, "--config", "cfg.json"]) == 2
        assert f"config error: {name} must be " in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("seed,flag", [(-1, []), (0, ["--seed", "-1"])],
                             ids=["config", "flag"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, seed, flag):
        # numpy's generators refuse it, once the solve is done
        write_config(tmp_path / "cfg.json", seed=seed, solver={"max_iters": 8})
        assert main(["optimize", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "o"), *flag]) == 2
        assert "config error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["u_T", "m0"])
    def test_preset_and_file_exits_2(self, tmp_path, capsys, name):
        # today's file would win over the preset without a word
        path = _field_file(tmp_path / "slice.field", TorusGrid(1, (32,), 2, 1.0), 1.0)
        write_config(tmp_path / "cfg.json",
                     problem={name: {"preset": "zero", "file": path}})
        assert main(["optimize", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "o")]) == 2
        assert (f"config error: problem.{name} takes one 'preset' or one 'file'"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_infinite_horizon_field_file_exits_2(self, tmp_path, capsys):
        # a u_T file whose header says T=inf would give a grid with dt = inf
        path = _field_file(tmp_path / "u_T.field", TorusGrid(1, (32,), 2, 1.0), 0.0)
        text = Path(path).read_text()
        Path(path).write_text(text.replace(" T=1 ", " T=inf ", 1))
        write_config(tmp_path / "cfg.json", problem={"u_T": {"file": path}})
        assert main(["optimize", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "o")]) == 2
        assert "horizon must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv,flag", [
        (["reproduce", "--refine", "-1"], "--refine"),
        (["solve-transport", "--velocity", "v.field", "--paths", "-5"], "--paths"),
    ], ids=["refine", "paths"])
    def test_negative_count_exits_2(self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"argument {flag}: must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestManifestConfig:
    """A manifest's ``config`` is the resolved configuration of the run: a
    fixed point of ``load_config`` that runs the same bits again."""

    @staticmethod
    def _rerun(tmp_path, argv, user):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(user))
        main([*argv, "--config", str(cfg_path), "--out", str(tmp_path / "first")])
        config = json.loads((tmp_path / "first" / "manifest.json").read_text())["config"]
        assert config["reproduce"] == {**DEFAULT_CONFIG["reproduce"], **user.get("reproduce", {})}
        again = tmp_path / "again.json"
        again.write_text(json.dumps(config))
        assert load_config(str(again)) == config
        main([*argv, "--config", str(again), "--out", str(tmp_path / "second")])
        return config

    @pytest.mark.parametrize("speed", [
        {"variant": "isotropic", "radius": 0.5},
        {"variant": "finite", "velocities": [[1.0], [-0.5]]},
        "tabulated",
    ], ids=["isotropic", "finite", "tabulated"])
    def test_optimize_speeds(self, tmp_path, speed):
        grid = TorusGrid(1, (16,), 17, 1.0)
        if speed == "tabulated":
            radius = 0.75 + 0.25 * np.cos(2 * np.pi * grid.axis_coords(0))
            speed = {"radius": {"file": _field_file(tmp_path / "r.field", grid, radius)}}
        user = {"problem": {"nx": [16], "nt": 17, "speed": speed,
                            "u_T": {"preset": "cosine"}, "m0": {"preset": "gaussian"}},
                "solver": {"max_iters": 64}}
        config = self._rerun(tmp_path, ["optimize"], user)
        assert config["problem"]["speed"] == {"variant": "isotropic", **speed}
        assert (tmp_path / "first" / "diagnostics.csv").read_bytes() \
            == (tmp_path / "second" / "diagnostics.csv").read_bytes()

    def test_file_slices(self, tmp_path):
        grid = TorusGrid(1, (16,), 2, 1.0)
        x = grid.axis_coords(0)
        files = {"u_T": _field_file(tmp_path / "u_T.field", grid, np.sin(2 * np.pi * x)),
                 "m0": _field_file(tmp_path / "m0.field", grid, 1.0 + 0.5 * np.cos(2 * np.pi * x))}
        user = {"problem": {"nx": [16], "nt": 17,
                            **{name: {"file": path} for name, path in files.items()}},
                "solver": {"max_iters": 64}}
        config = self._rerun(tmp_path, ["optimize"], user)
        assert {name: config["problem"][name] for name in files} \
            == {name: {"file": path} for name, path in files.items()}
        assert (tmp_path / "first" / "diagnostics.csv").read_bytes() \
            == (tmp_path / "second" / "diagnostics.csv").read_bytes()

    def test_reproduce(self, tmp_path):
        user = {"reproduce": {"eps": [0.2], "window_points": 41, "nt": 21}}
        self._rerun(tmp_path, ["reproduce"], user)
        for name in ("summary.csv", "slices.csv"):
            assert (tmp_path / "first" / name).read_bytes() \
                == (tmp_path / "second" / name).read_bytes()

    def test_seed_flag_is_the_recorded_seed(self, tmp_path):
        # --seed 7 runs the battery of a config whose seed is 7, and says so
        cfg_path = tmp_path / "cfg.json"
        runs = {}
        for name, seed, flag in (("flag", 0, ["--seed", "7"]), ("config", 7, [])):
            write_config(cfg_path, problem={"nx": [16], "nt": 17}, solver={"max_iters": 64},
                         seed=seed)
            main(["optimize", "--config", str(cfg_path), "--out", str(tmp_path / name), *flag])
            runs[name] = tmp_path / name
        assert json.loads((runs["flag"] / "manifest.json").read_text())["config"]["seed"] == 7
        assert (runs["flag"] / "certificates.json").read_bytes() \
            == (runs["config"] / "certificates.json").read_bytes()


def test_solver_table_is_the_solver_config_defaults():
    # one default per knob: the table's solver section, key by key, is
    # SolverConfig's, and a config without one builds SolverConfig()
    defaults = SolverConfig()
    table = DEFAULT_CONFIG["solver"]
    assert list(table) == [f.name for f in dataclasses.fields(SolverConfig)]
    for key, value in table.items():
        assert value == getattr(defaults, key) and type(value) is type(getattr(defaults, key))
    assert table["tol_cont"] == 1e-4
    assert build_solver_config(load_config(None)) == defaults


def test_readme_config_is_the_default(tmp_path):
    # the JSON example under README's "## CLI" is DEFAULT_CONFIG
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("\n## CLI\n", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    (tmp_path / "readme.json").write_text(example)
    assert load_config(str(tmp_path / "readme.json")) == load_config(None)


def test_readme_finite_speed_builds(tmp_path):
    # the finite-speed snippet of README's config notes loads and builds
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    snippet = re.search(r'`(\{"variant": "finite".*?\})`', readme, re.S).group(1)
    write_config(tmp_path / "cfg.json", problem={"speed": json.loads(snippet)})
    problem = cli.build_problem(load_config(str(tmp_path / "cfg.json")))
    assert isinstance(problem.speed, FiniteControlsSpeed)
    assert problem.speed.max_speed(problem.grid) == 1.0
