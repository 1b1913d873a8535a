import json

import numpy as np
import pytest

from frontsteer.cli import main
from frontsteer.grid import ScalarField, VecField, read_field, write_field
from frontsteer.hj import counterexample_instance


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

    def test_finite_speed_without_radii(self, tmp_path, capsys):
        self._assert_config_error(tmp_path, capsys, problem={"speed": {
            "variant": "finite", "velocities": [[1.0], [-1.0]]}})

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
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["optimize", "--config", str(cfg_path), "--out", str(out_a),
                     "--threads", "1"]) == 0
        assert main(["optimize", "--config", str(cfg_path), "--out", str(out_b),
                     "--threads", "4"]) == 0
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
        details = json.loads((tmp_path / "recheck" / "manifest.json").read_text())["gap_details"]
        gap = json.loads((out / "certificates.json").read_text())["checks"][-1]
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
        assert checks[:-1] == stored[:-1] and gap["lhs"] != stored[-1]["lhs"]

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
        assert (out / "trajectories.csv").exists()


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
