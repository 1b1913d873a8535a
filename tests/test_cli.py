import json

import numpy as np
import pytest

from frontsteer.cli import main
from frontsteer.grid import read_field, write_field
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


class TestCertifyCommand:
    def test_recertify_stored_bundle(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg_path), "--out", str(out)]) == 0
        out2 = tmp_path / "recheck"
        code = main(["certify", "--config", str(cfg_path), "--bundle", str(out),
                     "--out", str(out2)])
        assert (out2 / "certificates.json").exists()
        doc = json.loads((out2 / "certificates.json").read_text())
        names = {c["name"] for c in doc["checks"]}
        assert "duality_gap" in names
        assert code in (0, 1)


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
