"""The benchmark's workloads.

Each workload makes its inputs from the seed when it is constructed (before
any timing), runs one operation with ``run()`` and checks that operation's
outputs with ``gate()``, which returns the reasons it failed (empty when
correct).  Gates use exact or closed-form facts only.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

from frontsteer import certify, cli, grid, hj, model, pdopt, transport

CHECK_NAMES = {"ibp_inequality", "weak_identity_from_start", "weak_identity_to_end",
               "pointwise_hj", "subsolution", "holder_bound", "duality_gap"}
CHECKS_BY_CONSTRUCTION = ("ibp_inequality", "subsolution", "holder_bound")


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def bundle_certificate(problem, u, f, m, w) -> dict:
    """The feasibility-checked duality gap of a bundle (+inf when it is
    infeasible) and the two infeasibilities that make it +inf."""
    gap = certify.duality_gap(problem, u, f, m, w)
    excess = pdopt.subsolution_residual(problem, u.values) - f.values[:-1]
    rows = pdopt.continuity_residual_rows(problem, m.values, w.values)
    return {
        "certify.certified_gap": gap,
        "certify.primal_infeasibility": max(float(np.max(excess)), 0.0),
        "certify.dual_infeasibility": float(np.max(np.abs(rows)))
        * problem.grid.dt / (1.0 + float(np.max(m.values))),
    }


NO_BUNDLE = dict.fromkeys(("certify.certified_gap", "certify.primal_infeasibility",
                           "certify.dual_infeasibility"), 0.0)


class Workload:
    """Inputs live under ``work``; ``config`` is the run configuration the
    set-up probe loads.  ``warm_up`` asks for one untimed operation before
    timing starts, for workloads cheap enough to afford it."""

    name = ""
    warm_up = False

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.out = work / "out"
        work.mkdir(parents=True, exist_ok=True)

    def _cli(self, *argv) -> int:
        if self.out.exists():
            shutil.rmtree(self.out)
        return cli.main([*argv, "--out", str(self.out)])

    def bundle(self) -> dict:
        return NO_BUNDLE


class OptimizeGauss1D(Workload):
    """``frontsteer optimize`` on 1D 64x65, p = 3: CP solve, certify battery,
    bundle writing.  Seed 0 is acceptance criterion 4's instance (Gaussian
    m0 at x = 0.5, cosine u_T, both presets).  Other seeds translate the
    whole instance, m0 and u_T together, by a whole number of cells, so the
    Gaussian centre lies in [0.3, 0.7].  Every seed passes both as field
    files, so every run reads fields.  The translate does the same CP work:
    moving m0 alone changes the iteration count erratically (see
    README.md)."""

    name = "optimize-gauss-1d"
    max_iters = 25000
    tol_gap = 1e-3
    max_shift = 12          # cells of 1/64: centre 0.5 +- 0.1875

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        data = {"u_T": {"preset": "cosine"}, "m0": {"preset": "gaussian"}}
        problem = {"dim": 1, "nx": [64], "nt": 65, "T": 1.0,
                   "speed": {"variant": "isotropic", "radius": 1.0},
                   "cost": {"p": 3.0, "kappa": 1.0}, **data}
        self.shift = 0
        if seed != 0:
            self.shift = int(np.random.default_rng(seed).integers(
                -self.max_shift, self.max_shift + 1))
        base = cli.build_problem(cli.load_config(str(_write_json(
            work / "base.json", {"problem": problem}))))
        g = grid.TorusGrid(1, base.grid.nx, 2, 1.0)
        for name in data:
            row = np.roll(getattr(base, name), self.shift)
            path = work / f"{name}.field"
            grid.write_field(path, grid.ScalarField(g, np.stack([row, row])))
            data[name] = {"file": str(path)}
        self.config = _write_json(work / "config.json", {
            "problem": {**problem, **data},
            "solver": {"max_iters": self.max_iters, "tol_gap": self.tol_gap,
                       "tol_cont": 1e-3},
            "seed": seed,
        })

    def run(self) -> dict:
        return {"rc": self._cli("optimize", "--config", str(self.config))}

    def gate(self, result: dict) -> list[str]:
        errors = []
        if result["rc"] != cli.EXIT_OK:
            errors.append(f"optimize exit code {result['rc']}, expected 0")
        manifest = json.loads((self.out / "manifest.json").read_text())
        if manifest.get("converged") is not True:
            errors.append("optimize did not converge")
        last = (self.out / "diagnostics.csv").read_text().splitlines()[-1].split(",")
        a_val, b_val, gap = (float(s) for s in last[1:4])
        rel_gap = abs(gap) / max(abs(a_val), abs(b_val), 1e-10)
        if not rel_gap <= self.tol_gap:
            errors.append(f"relative gap {rel_gap:.3g} above tol_gap {self.tol_gap}")
        return errors

    def bundle(self) -> dict:
        problem = cli.build_problem(cli.load_config(str(self.config)))
        fields = (grid.read_field(self.out / f"{n}.field") for n in "ufmw")
        return bundle_certificate(problem, *fields)


class ReproduceRefine2(Workload):
    """``frontsteer reproduce --refine 2`` from 401x201: three seeded eps and
    eps = 0, each at 401x201, 801x401 and 1601x801."""

    name = "reproduce-refine2"
    warm_up = True
    tolerance = 0.05

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        if seed == 0:
            self.eps = [0.2, 0.1, 0.05]
        else:
            draws = np.random.default_rng(seed).uniform(0.05, 0.2, 3)
            self.eps = sorted((float(e) for e in draws), reverse=True)
        self.config = _write_json(work / "config.json", {
            "reproduce": {"eps": self.eps, "window_points": 401, "nt": 201,
                          "tolerance": self.tolerance},
            "seed": seed,
        })

    def run(self) -> dict:
        return {"rc": self._cli("reproduce", "--config", str(self.config),
                                "--refine", "2")}

    def gate(self, result: dict) -> list[str]:
        errors = []
        if result["rc"] != cli.EXIT_OK:
            errors.append(f"reproduce exit code {result['rc']}, expected 0")
        lines = (self.out / "summary.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        eps = [float(r[0]) for r in rows if r]
        if eps != self.eps + [0.0]:
            errors.append(f"summary.csv lists eps {eps}, expected {self.eps + [0.0]}")
        for row in rows:
            if len(row) != 5 or row[4] != "True":
                errors.append(f"summary.csv row not passed: {','.join(row)}")
            elif not float(row[1]) <= self.tolerance:
                errors.append(f"off-band error {row[1]} above {self.tolerance}")
        return errors


class Verify2D(Workload):
    """A seeded, non-optimal 2D 64^2x65 bundle (p = 4) written as text field
    files, then ``certify --bundle``, ``solve-transport`` and the
    superposition check (velocity recovery, 1e5 sampled paths, pushforward
    distance)."""

    name = "verify-2d"
    warm_up = True      # the first operation runs slowest (fresh memory, lazy imports)
    paths = 100_000
    cfl = 0.9

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.config = _write_json(work / "config.json", {
            "problem": {"dim": 2, "nx": [64, 64], "nt": 65, "T": 1.0,
                        "speed": {"variant": "isotropic", "radius": 1.0},
                        "cost": {"p": 4.0, "kappa": 1.0},
                        "u_T": {"preset": "cosine"}, "m0": {"preset": "gaussian"}},
            "seed": seed,
        })
        problem = self.problem = cli.build_problem(cli.load_config(str(self.config)))
        g = problem.grid
        v = certify.sample_admissible_field(problem.speed, g, np.random.default_rng(seed))
        load = g.dt * np.max(sum(np.abs(v.values[..., a]) / g.dx[a] for a in range(g.dim)))
        v = grid.VecField(g, v.values * (self.cfl / load))
        m = transport.solve_continuity(problem.m0, v)
        f = grid.ScalarField(g, model.cost_deriv_conj(problem.cost, m.values))
        u = hj.solve_value_function(problem, f)
        w = grid.VecField(g, m.values[..., None] * v.values)
        self.fields = {"u": u, "f": f, "m": m, "w": w}
        self.bundle_dir = work / "bundle"
        self.bundle_dir.mkdir(exist_ok=True)
        for name, field in {**self.fields, "v": v}.items():
            grid.write_field(self.bundle_dir / f"{name}.field", field)

    def run(self) -> dict:
        config = str(self.config)
        rc_certify = self._cli("certify", "--config", config, "--bundle", str(self.bundle_dir))
        certificates = json.loads((self.out / "certificates.json").read_text())
        rc_transport = self._cli("solve-transport", "--config", config,
                                 "--velocity", str(self.bundle_dir / "v.field"))
        m = grid.read_field(self.out / "m.field")
        v = pdopt.recover_velocity(m, self.fields["w"], floor=1e-9, speed=self.problem.speed)
        ens = transport.sample_trajectories(self.problem.m0, v, self.paths, seed=self.seed)
        transport.pushforward_distance(ens, m, m.grid.nt - 1)
        return {"rc_certify": rc_certify, "certificates": certificates,
                "rc_transport": rc_transport}

    def gate(self, result: dict) -> list[str]:
        errors = []
        if result["rc_certify"] != cli.EXIT_MATH:
            errors.append(f"certify exit code {result['rc_certify']}, expected 1 "
                          f"(the bundle is not optimal)")
        checks = {c["name"]: c for c in result["certificates"]["checks"]}
        if set(checks) != CHECK_NAMES or len(result["certificates"]["checks"]) != 7:
            errors.append(f"certify ran checks {sorted(checks)}, expected {sorted(CHECK_NAMES)}")
        for name in CHECKS_BY_CONSTRUCTION:
            if not checks.get(name, {}).get("passed"):
                errors.append(f"check {name} failed although it holds by construction")
        if result["rc_transport"] != cli.EXIT_OK:
            errors.append(f"solve-transport exit code {result['rc_transport']}, expected 0")
        m = grid.read_field(self.out / "m.field").values
        masses = np.sum(m, axis=(1, 2)) * self.problem.grid.cell_volume
        drift = float(np.max(np.abs(masses - self.problem.mass))) / self.problem.mass
        if not drift <= 1e-12:
            errors.append(f"transport mass drift {drift:.3g} above 1e-12 relative")
        if not np.min(m) >= 0:
            errors.append(f"transport density negative ({np.min(m):.3g})")
        return errors

    def bundle(self) -> dict:
        return bundle_certificate(self.problem, *self.fields.values())


WORKLOADS = {w.name: w for w in (OptimizeGauss1D, ReproduceRefine2, Verify2D)}
