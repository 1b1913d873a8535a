"""Command-line entry point: config parsing, problem assembly, orchestration.

Subcommands: solve-hj, solve-transport, optimize, certify, reproduce.
Exit codes: 0 success, 1 numerical target missed (non-converged solve or a
failed certification check; artifacts are still written), 2 config error,
3 I/O error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import certify as cert
from . import hj, pdopt, transport
from .errors import ConfigError, NumericError, ParameterError
from .grid import (DensityField, ScalarField, TorusGrid, VecField,
                   read_field, write_field)
from .model import CostModel, FiniteControlsSpeed, IsotropicSpeed

EXIT_OK = 0
EXIT_MATH = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

DEFAULT_CONFIG = {
    "problem": {
        "dim": 1,
        "nx": [64],
        "nt": 65,
        "T": 1.0,
        "speed": {"variant": "isotropic", "radius": 1.0},
        "cost": {"p": 3.0, "kappa": 1.0},
        "u_T": {"preset": "zero"},
        "m0": {"preset": "uniform"},
    },
    "solver": {"max_iters": 5000, "tol_gap": 1e-3, "tol_cont": 1e-4,
               "tau": None, "sigma": None, "over_relax": 1.0},
    "outputs": {"directory": "out", "emit_fields": True, "emit_csv": True,
                "emit_pgm": False},
    "seed": 0,
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return json.loads(json.dumps(DEFAULT_CONFIG))
    with open(path) as fh:
        try:
            user = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    return _merge(DEFAULT_CONFIG, user)


# -- presets -------------------------------------------------------------------


def _preset_u_T(name: str, grid: TorusGrid) -> np.ndarray:
    coords = grid.meshgrid()
    if name == "zero":
        return np.zeros(grid.nx)
    if name == "cosine":
        out = np.ones(grid.nx)
        for c in coords:
            out = out * np.cos(2 * np.pi * c)
        return out
    raise ConfigError(f"unknown u_T preset {name!r} (use zero|cosine or a file)")


def _preset_m0(name: str, grid: TorusGrid) -> np.ndarray:
    if name == "uniform":
        return np.ones(grid.nx)
    if name == "zero":
        return np.zeros(grid.nx)
    if name == "gaussian":
        sigma = 0.1
        out = np.ones(grid.nx)
        for c in grid.meshgrid():
            axis = np.zeros_like(c)
            for shift in range(-3, 4):
                axis += np.exp(-((c - 0.5 + shift) ** 2) / (2 * sigma ** 2))
            out = out * axis
        mass = np.sum(out) * grid.cell_volume
        return out / mass
    raise ConfigError(f"unknown m0 preset {name!r} (use uniform|gaussian|zero or a file)")


def _load_slice(entry: dict, grid: TorusGrid, presets) -> np.ndarray:
    if "file" in entry:
        field = read_field(entry["file"])
        if field.grid.nx != grid.nx:
            raise ConfigError(
                f"field file {entry['file']} has space shape {field.grid.nx}, "
                f"expected {grid.nx}")
        return np.array(field.values[0] if field.values.ndim > grid.dim else field.values)
    if "preset" in entry:
        return presets(entry["preset"], grid)
    raise ConfigError("u_T / m0 entries need a 'preset' or 'file' key")


def _number(value, what: str, kind=float):
    """``kind(value)``, or a ConfigError naming the offending entry."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc


def build_speed(entry: dict, grid: TorusGrid):
    variant = entry.get("variant", "isotropic")
    if variant == "isotropic":
        radius = entry.get("radius", 1.0)
        if isinstance(radius, dict):
            if "file" not in radius:
                raise ConfigError("a tabulated speed radius needs a 'file' key")
            field = read_field(radius["file"])
            radius = np.array(field.values[0])
        else:
            radius = _number(radius, "speed radius")
        return IsotropicSpeed(grid.dim, radius)
    if variant == "finite":
        vecs = entry.get("velocities")
        if not vecs:
            raise ConfigError("finite speed variant needs 'velocities'")
        missing = [key for key in ("c0", "c1") if key not in entry]
        if missing:
            raise ConfigError(f"finite speed variant needs {' and '.join(map(repr, missing))}")
        try:
            consts = [np.asarray(v, dtype=float) for v in vecs]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"finite speed velocities must be numbers: {exc}") from exc
        if any(v.shape != (grid.dim,) for v in consts):
            raise ConfigError(f"each velocity must have {grid.dim} components")
        maps = [(lambda x, vv=v: np.broadcast_to(vv, np.shape(x))) for v in consts]
        return FiniteControlsSpeed(grid.dim, tuple(maps), c0=_number(entry["c0"], "c0"),
                                   c1=_number(entry["c1"], "c1"))
    raise ConfigError(f"unknown speed variant {variant!r}")


def build_problem(config: dict) -> pdopt.ProblemInstance:
    prob = config["problem"]
    try:
        grid = TorusGrid(_number(prob["dim"], "dim", int), tuple(prob["nx"]),
                         _number(prob["nt"], "nt", int), _number(prob["T"], "T"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad problem geometry: {exc}") from exc
    speed = build_speed(prob.get("speed", {}), grid)
    cost_entry = prob.get("cost", {})
    cost = CostModel(p=_number(cost_entry.get("p", 3.0), "cost p"),
                     kappa=_number(cost_entry.get("kappa", 1.0), "cost kappa"))
    u_T = _load_slice(prob["u_T"], grid, _preset_u_T)
    m0 = _load_slice(prob["m0"], grid, _preset_m0)
    try:
        return pdopt.ProblemInstance(grid=grid, speed=speed, cost=cost, u_T=u_T, m0=m0)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def build_solver_config(config: dict) -> pdopt.SolverConfig:
    s = config["solver"]

    def optional(key):
        return None if s.get(key) is None else _number(s[key], key)

    return pdopt.SolverConfig(
        max_iters=_number(s["max_iters"], "max_iters", int),
        tol_gap=_number(s["tol_gap"], "tol_gap"),
        tol_cont=_number(s["tol_cont"], "tol_cont"),
        tau=optional("tau"), sigma=optional("sigma"),
        over_relax=_number(s.get("over_relax", 1.0), "over_relax"))


# -- output helpers ------------------------------------------------------------


def _outdir(config: dict, args) -> Path:
    out = Path(args.out if args.out else config["outputs"]["directory"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_manifest(out: Path, config: dict, extra: dict) -> None:
    doc = {"config": config, **extra}
    with open(out / "manifest.json", "w") as fh:
        json.dump(doc, fh, indent=2, default=float)
        fh.write("\n")


def write_front_csv(path: Path, u: ScalarField, level: float = 0.0) -> None:
    grid = u.grid
    with open(path, "w") as fh:
        cols = ",".join(f"i{a}" for a in range(grid.dim))
        fh.write(f"level,t,{cols}\n")
        for k in range(grid.nt):
            cells = sorted(hj.extract_front(u, k, level))
            t = k * grid.dt
            for cell in cells:
                fh.write(f"{k},{t:.17g}," + ",".join(str(i) for i in cell) + "\n")


def write_diagnostics_csv(path: Path, diag: pdopt.SolverDiagnostics) -> None:
    with open(path, "w") as fh:
        fh.write("iter,A,B,gap,cont_residual\n")
        for i, (a, b, g, c) in enumerate(zip(diag.a_history, diag.b_history,
                                             diag.gap_history, diag.cont_history), 1):
            fh.write(f"{i},{a:.17g},{b:.17g},{g:.17g},{c:.17g}\n")


def write_pgm(out: Path, stem: str, field: ScalarField) -> None:
    """Grayscale snapshots; values affinely mapped per frame with the min/max
    recorded alongside."""
    grid = field.grid
    ranges = {}
    frames = [field.values] if grid.dim == 1 else [field.values[k] for k in range(grid.nt)]
    for idx, frame in enumerate(frames):
        lo, hi = float(np.min(frame)), float(np.max(frame))
        span = hi - lo if hi > lo else 1.0
        img = np.clip((frame - lo) / span * 255.0, 0, 255).astype(np.uint8)
        if img.ndim == 1:
            img = img[None, :]
        name = f"{stem}.pgm" if grid.dim == 1 else f"{stem}_{idx:04d}.pgm"
        with open(out / name, "wb") as fh:
            fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
            fh.write(img.tobytes())
        ranges[name] = {"min": lo, "max": hi}
    with open(out / f"{stem}_pgm_ranges.json", "w") as fh:
        json.dump(ranges, fh, indent=2)
        fh.write("\n")


# -- subcommands ---------------------------------------------------------------


def _read_on_grid(path, kind, grid: TorusGrid):
    """The field file at ``path``, refused unless it holds a ``kind`` field on
    the problem grid."""
    field = read_field(path)
    if not isinstance(field, kind):
        raise ConfigError(f"{path} must hold a {kind.__name__}")
    if field.grid != grid:
        raise ConfigError(f"{path} grid does not match the problem grid")
    return field


def cmd_solve_hj(args) -> int:
    config = load_config(args.config)
    problem = build_problem(config)
    obstacle = _read_on_grid(args.obstacle, ScalarField, problem.grid)
    t0 = time.perf_counter()
    u = hj.solve_value_function(problem, obstacle)
    out = _outdir(config, args)
    write_field(out / "u.field", u)
    write_front_csv(out / "front.csv", u)
    if config["outputs"].get("emit_pgm"):
        write_pgm(out, "u", u)
    write_manifest(out, config, {"command": "solve-hj",
                                 "runtime_s": time.perf_counter() - t0})
    return EXIT_OK


def cmd_solve_transport(args) -> int:
    config = load_config(args.config)
    problem = build_problem(config)
    v = _read_on_grid(args.velocity, VecField, problem.grid)
    t0 = time.perf_counter()
    m = transport.solve_continuity(problem.m0, v)
    out = _outdir(config, args)
    write_field(out / "m.field", m)
    masses = [float(np.sum(m.values[k]) * problem.grid.cell_volume)
              for k in range(problem.grid.nt)]
    if args.paths:
        ens = transport.sample_trajectories(problem.m0, v, args.paths,
                                            seed=_seed(config, args))
        transport.write_trajectories(out / "trajectories.csv", ens)
    write_manifest(out, config, {
        "command": "solve-transport", "mass_per_level": masses,
        "mass_drift": max(abs(x - masses[0]) for x in masses),
        "runtime_s": time.perf_counter() - t0})
    return EXIT_OK


def _seed(config: dict, args) -> int:
    return int(args.seed if args.seed is not None else config.get("seed", 0))


def cmd_optimize(args) -> int:
    config = load_config(args.config)
    problem = build_problem(config)
    solver_cfg = build_solver_config(config)
    bundle = pdopt.optimize(problem, solver_cfg)
    grid = problem.grid
    # the split momenta, each with a zero last level like w
    last = np.zeros((1, *grid.nx, grid.dim))
    w_pair = tuple(VecField(grid, np.concatenate([part, last]))
                   for part in np.split(bundle.diagnostics.w_split, 2, axis=-1))
    out = _outdir(config, args)
    if config["outputs"].get("emit_fields", True):
        for name, fld in zip(("u", "f", "m", "w", "w_plus", "w_minus"),
                             (bundle.u, bundle.f, bundle.m, bundle.w, *w_pair)):
            write_field(out / f"{name}.field", fld)
    if config["outputs"].get("emit_csv", True):
        write_diagnostics_csv(out / "diagnostics.csv", bundle.diagnostics)
    if config["outputs"].get("emit_pgm"):
        write_pgm(out, "m", bundle.m)
    reports = cert.battery(problem, bundle.u, bundle.f, bundle.m, w_pair,
                           seed=_seed(config, args), tol_gap=solver_cfg.tol_gap)
    cert.reports_to_json(reports, out / "certificates.json")
    diag = bundle.diagnostics
    write_manifest(out, config, {
        "command": "optimize", "converged": diag.converged,
        "iterations": diag.iterations, "final_gap": diag.final_gap,
        "final_cont_residual": diag.cont_history[-1] if diag.cont_history else None,
        "tau": diag.tau, "sigma": diag.sigma,
        "wall_time_s": diag.wall_time, "notes": diag.notes,
        "all_checks_passed": all(r.passed for r in reports)})
    ok = diag.converged and all(r.passed for r in reports)
    return EXIT_OK if ok else EXIT_MATH


def cmd_certify(args) -> int:
    """The battery of ``optimize`` on stored fields: on the split momenta
    w_plus/w_minus when the bundle has them, else on w split by sign."""
    config = load_config(args.config)
    problem = build_problem(config)
    solver_cfg = build_solver_config(config)
    grid = problem.grid
    src = Path(args.bundle if args.bundle else config["outputs"]["directory"])
    u, f, m = (_read_on_grid(src / f"{name}.field", ScalarField, grid) for name in "ufm")
    if not isinstance(m, DensityField):
        m = DensityField(grid, m.values)
    if (src / "w_plus.field").exists():
        w = tuple(_read_on_grid(src / f"w_{part}.field", VecField, grid)
                  for part in ("plus", "minus"))
    else:
        w = cert.split_by_sign(_read_on_grid(src / "w.field", VecField, grid))
    details: dict = {}
    reports = cert.battery(problem, u, f, m, w, seed=_seed(config, args),
                           tol_gap=solver_cfg.tol_gap, details=details)
    out = _outdir(config, args)
    cert.reports_to_json(reports, out / "certificates.json")
    write_manifest(out, config, {"command": "certify", "gap_details": details,
                                 "all_checks_passed": all(r.passed for r in reports)})
    return EXIT_OK if all(r.passed for r in reports) else EXIT_MATH


def _reproduce_once(eps: float, window_points: int, nt: int):
    """Solve the blocking counterexample at one resolution; return the window
    object, computed field, and off-band errors."""
    window = hj.counterexample_instance(eps, window_points, nt)
    grid = window.grid
    problem = pdopt.ProblemInstance(
        grid=grid, speed=hj.counterexample_speed(window),
        cost=CostModel(p=3.0), u_T=np.zeros(grid.nx), m0=np.ones(grid.nx))
    u = hj.solve_value_function(problem, window.obstacle_field())
    max_err = 0.0
    l1_err = 0.0
    for k in range(grid.nt):
        mask = window.comparison_mask(k)
        diff = np.abs(window.window_values(u, k) - window.exact_window(k))
        if np.any(mask):
            max_err = max(max_err, float(np.max(diff[mask])))
            l1_err += float(np.sum(diff[mask])) * window.dx_window * grid.dt
    return window, u, max_err, l1_err


def cmd_reproduce(args) -> int:
    config = load_config(args.config)
    rep = config.get("reproduce", {})
    eps_list = rep.get("eps", [0.2, 0.1, 0.05])
    window_points = _number(rep.get("window_points", 401), "window_points", int)
    nt = _number(rep.get("nt", 201), "nt", int)
    tolerance = _number(rep.get("tolerance", 0.05), "tolerance")
    refine = args.refine
    out = _outdir(config, args)
    t0 = time.perf_counter()
    rows = []
    slices = []
    all_ok = True
    for eps in eps_list + [0.0]:
        window, u, max_err, l1_err = _reproduce_once(eps, window_points, nt)
        grid = window.grid
        orders = []
        errs = [l1_err]
        pts, ntk = window_points, nt
        for _ in range(refine):
            pts, ntk = 2 * pts - 1, 2 * ntk - 1
            _, _, _, l1_fine = _reproduce_once(eps, pts, ntk)
            errs.append(l1_fine)
            coarse, fine = errs[-2], errs[-1]
            if coarse < 1e-8 and fine < 1e-8:
                orders.append(float("inf"))    # both at round-off: converged
            else:
                orders.append(float(np.log2(max(coarse, 1e-300) / max(fine, 1e-300))))
        ok = max_err <= tolerance and all(o >= 0.8 for o in orders)
        all_ok = all_ok and ok
        rows.append((eps, max_err, l1_err, orders, ok))
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            k = round(frac * (grid.nt - 1))
            for x, val in zip(window.window_x(), window.window_values(u, k)):
                slices.append((eps, k * grid.dt, x, val))
        if eps == 0.0:
            # blocking: on the window, the burning region {u <= 0} minus the
            # active obstacle cells is empty at the final time
            obstacle = window.obstacle_field()
            burning = hj.extract_front(u, grid.nt - 1, 0.0) \
                - hj.extract_front(obstacle, grid.nt - 1, 0.0, mode="obstacle")
            in_window = {cell for cell in burning if cell[0] < window.window_points}
            front_empty = len(in_window) == 0
            all_ok = all_ok and front_empty
            rows[-1] = (eps, max_err, l1_err, orders, ok and front_empty)
    with open(out / "summary.csv", "w") as fh:
        fh.write("eps,max_err_offband,l1_err_offband,orders,passed\n")
        for eps, max_err, l1_err, orders, ok in rows:
            order_txt = ";".join(f"{o:.3g}" for o in orders)
            fh.write(f"{eps:.17g},{max_err:.17g},{l1_err:.17g},{order_txt},{ok}\n")
    with open(out / "slices.csv", "w") as fh:
        fh.write("eps,t,x,u\n")
        for eps, t, x, val in slices:
            fh.write(f"{eps:.17g},{t:.17g},{x:.17g},{val:.17g}\n")
    write_manifest(out, config, {"command": "reproduce",
                                 "runtime_s": time.perf_counter() - t0,
                                 "passed": all_ok})
    return EXIT_OK if all_ok else EXIT_MATH


# -- entry point ---------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frontsteer",
        description="Front propagation control: solvers and certification")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None)
        # a string default goes through type=int, so a bad value exits 2
        p.add_argument("--threads", type=int,
                       default=os.environ.get("FRONTSTEER_THREADS", "1"),
                       help="reserved; results never depend on it")

    p = sub.add_parser("solve-hj", help="solve the backward HJ equation")
    common(p)
    p.add_argument("--obstacle", required=True, help="obstacle field file")

    p = sub.add_parser("solve-transport", help="solve the continuity equation")
    common(p)
    p.add_argument("--velocity", required=True, help="velocity field file")
    p.add_argument("--paths", type=int, default=0,
                   help="also sample this many trajectories")

    p = sub.add_parser("optimize", help="solve the dual problem and certify")
    common(p)

    p = sub.add_parser("certify", help="re-run certification on stored fields")
    common(p)
    p.add_argument("--bundle", help="directory holding u/f/m/w (and w_plus/w_minus) field files")

    p = sub.add_parser("reproduce", help="blocking counterexample reproduction")
    common(p)
    p.add_argument("--refine", type=int, default=0,
                   help="grid-halving study depth")
    return parser


_DISPATCH = {
    "solve-hj": cmd_solve_hj,
    "solve-transport": cmd_solve_transport,
    "optimize": cmd_optimize,
    "certify": cmd_certify,
    "reproduce": cmd_reproduce,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, FileNotFoundError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
