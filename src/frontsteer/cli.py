"""Command-line entry point: config parsing, problem assembly, orchestration.

Subcommands: solve-hj, solve-transport, optimize, certify, reproduce.
Exit codes: 0 success, 1 numerical target missed (non-converged solve or a
failed certification check; artifacts are still written), 2 config error,
3 I/O error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
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

# The one table of the run configuration: every key, its default and, by the
# default's type, the values it takes (see ``load_config``); solver knobs
# take ``SolverConfig``'s defaults.
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
    "solver": dataclasses.asdict(pdopt.SolverConfig()),
    "outputs": {"directory": "out"},
    "reproduce": {"eps": [0.2, 0.1, 0.05], "window_points": 401, "nt": 201,
                  "tolerance": 0.05},
    "seed": 0,
}
# The forms a section takes in place of its default, which have no defaults:
# their values only give each key its type, and every key is required.  A
# finite speed, and a field file for a u_T / m0 slice or a speed radius.
FINITE_SPEED = {"variant": "finite", "velocities": [[0.0]]}
FIELD_FILE = {"file": ""}


def load_config(path: str | None) -> dict:
    """The run configuration: the JSON object at ``path`` (none: ``{}``)
    resolved against DEFAULT_CONFIG.  Each value must have the type of its
    default and each missing key takes its default; anything else is a
    ConfigError naming the key.  The result resolves to itself."""
    user = {}
    if path is not None:
        with open(path) as fh:
            try:
                user = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
    return _section(DEFAULT_CONFIG, user, "")


def _section(default: dict, user, where: str, required: bool = False) -> dict:
    """The section ``user`` at the dotted path ``where`` resolved against
    ``default``; with ``required``, no key may be missing.  A speed takes
    the keys of its variant, a u_T / m0 slice one preset or one file."""
    if not isinstance(user, dict):
        raise ConfigError(f"config section {where!r} must be a JSON object")
    label = where or "config"
    if where == "problem.speed":
        variant = user.get("variant", default["variant"])
        if variant == FINITE_SPEED["variant"]:
            default, required = FINITE_SPEED, True
        elif variant != default["variant"]:
            raise ConfigError(f"unknown speed variant {variant!r}")
        label = f"{where} ({variant})"
    elif where in ("problem.u_T", "problem.m0") and "file" in user:
        if "preset" in user:
            raise ConfigError(f"{where} takes one 'preset' or one 'file', not both")
        default, required = FIELD_FILE, True
    # a misspelt key would otherwise be ignored without a word
    unknown = sorted(set(user) - set(default))
    if unknown:
        raise ConfigError(f"unknown {label} key(s) {', '.join(map(repr, unknown))}; "
                          f"known: {', '.join(default)}")
    missing = [key for key in default if key not in user] if required else []
    if missing:
        raise ConfigError(f"{label} needs {' and '.join(map(repr, missing))}")
    # a missing key resolves its default, which makes a fresh copy of it
    return {key: _resolve(default[key], user.get(key, default[key]), where, key)
            for key in default}


def _resolve(default, value, where: str, key: str):
    """``value`` at ``key`` of the section ``where``, checked against the
    type of ``default``: a speed radius may be a field file."""
    path = f"{where}.{key}" if where else key
    if isinstance(default, dict):
        return _section(default, value, path)
    if path == "problem.speed.radius" and isinstance(value, dict):
        return _section(FIELD_FILE, value, path, required=True)
    return _value(default, value, f"{where} {key}" if where else key)


def _value(default, value, name: str):
    """``value`` checked against the type of ``default``, or a ConfigError
    naming it.  An int takes a whole number, a float any finite number
    (``bool`` is neither; Python's ``json`` reads ``NaN`` and ``Infinity``,
    which JSON itself has no numbers for), None null or a number, a string
    a string and a list a list of its first entry's type."""
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return [_value(default[0], entry, name) for entry in value]
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{name} must be a string, got {value!r}")
        return value
    if default is None and value is None:
        return None
    whole = isinstance(default, int)
    kind = ("a number (an integer)" if whole
            else "a number or null" if default is None else "a number")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    try:
        number = float(value)
    except OverflowError as exc:
        raise ConfigError(f"{name} must be {kind}, got {value!r}") from exc
    if not math.isfinite(number) or (whole and not number.is_integer()):
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    return int(value) if whole else number


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
        return np.array(field.values[0])
    return presets(entry["preset"], grid)


def build_speed(entry: dict, grid: TorusGrid):
    if entry["variant"] == "isotropic":
        radius = entry["radius"]
        if isinstance(radius, dict):
            radius = _load_slice(radius, grid, None)
        return IsotropicSpeed(grid.dim, radius)
    if not entry["velocities"]:
        raise ConfigError("finite speed variant needs 'velocities'")
    consts = [np.asarray(v, dtype=float) for v in entry["velocities"]]
    if any(v.shape != (grid.dim,) for v in consts):
        raise ConfigError(f"each velocity must have {grid.dim} components")
    maps = [(lambda x, vv=v: np.broadcast_to(vv, np.shape(x))) for v in consts]
    return FiniteControlsSpeed(grid.dim, tuple(maps))


def build_problem(config: dict) -> pdopt.ProblemInstance:
    prob = config["problem"]
    grid = TorusGrid(prob["dim"], tuple(prob["nx"]), prob["nt"], prob["T"])
    speed = build_speed(prob["speed"], grid)
    cost = CostModel(**prob["cost"])
    u_T = _load_slice(prob["u_T"], grid, _preset_u_T)
    m0 = _load_slice(prob["m0"], grid, _preset_m0)
    try:
        return pdopt.ProblemInstance(grid=grid, speed=speed, cost=cost, u_T=u_T, m0=m0)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def build_solver_config(config: dict) -> pdopt.SolverConfig:
    return pdopt.SolverConfig(**config["solver"])


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
    """One row per checked iteration; tau, the primal step the iteration
    took, comes last so the columns before it keep their places."""
    with open(path, "w") as fh:
        fh.write("iter,A,B,gap,cont_residual,tau\n")
        for i, a, b, g, c, t in zip(diag.iter_history, diag.a_history, diag.b_history,
                                    diag.gap_history, diag.cont_history, diag.tau_history):
            fh.write(f"{i},{a:.17g},{b:.17g},{g:.17g},{c:.17g},{t:.17g}\n")


# -- subcommands ---------------------------------------------------------------


def _run_config(args) -> dict:
    """The resolved config of a run, its seed replaced by ``--seed`` when
    given: the run and its manifest read one value."""
    config = load_config(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    if config["seed"] < 0:      # numpy's generators take no negative seed
        raise ConfigError(f"seed must be >= 0, got {config['seed']}")
    return config


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
    config = _run_config(args)
    problem = build_problem(config)
    obstacle = _read_on_grid(args.obstacle, ScalarField, problem.grid)
    t0 = time.perf_counter()
    u = hj.solve_value_function(problem, obstacle)
    out = _outdir(config, args)
    write_field(out / "u.field", u, binary=True)
    write_front_csv(out / "front.csv", u)
    write_manifest(out, config, {"command": "solve-hj",
                                 "runtime_s": time.perf_counter() - t0})
    return EXIT_OK


def cmd_solve_transport(args) -> int:
    config = _run_config(args)
    problem = build_problem(config)
    v = _read_on_grid(args.velocity, VecField, problem.grid)
    t0 = time.perf_counter()
    m = transport.solve_continuity(problem.m0, v)
    out = _outdir(config, args)
    write_field(out / "m.field", m, binary=True)
    masses = [float(np.sum(m.values[k]) * problem.grid.cell_volume)
              for k in range(problem.grid.nt)]
    extra = {}
    if args.paths:
        ens = transport.sample_trajectories(problem.m0, v, args.paths,
                                            seed=config["seed"])
        transport.write_trajectories(out / "trajectories.csv", ens)
        last = problem.grid.nt - 1
        extra = {"pushforward_l1": transport.pushforward_distance(ens, m, last),
                 "pushforward_floor": transport.pushforward_floor(m, last, args.paths)}
    write_manifest(out, config, {
        "command": "solve-transport", "mass_per_level": masses,
        "mass_drift": max(abs(x - masses[0]) for x in masses), **extra,
        "runtime_s": time.perf_counter() - t0})
    return EXIT_OK


def cmd_optimize(args) -> int:
    config = _run_config(args)
    problem = build_problem(config)
    solver_cfg = build_solver_config(config)
    bundle = pdopt.optimize(problem, solver_cfg)
    out = _outdir(config, args)
    for name in ("u", "f", "m", "w", "w_plus", "w_minus"):
        write_field(out / f"{name}.field", getattr(bundle, name), binary=True)
    write_diagnostics_csv(out / "diagnostics.csv", bundle.diagnostics)
    reports = cert.battery(problem, bundle.u, bundle.f, bundle.m,
                           (bundle.w_plus, bundle.w_minus),
                           seed=config["seed"], tol_gap=solver_cfg.tol_gap)
    cert.reports_to_json(reports, out / "certificates.json")
    diag = bundle.diagnostics
    write_manifest(out, config, {
        "command": "optimize", "converged": diag.converged,
        "iterations": diag.iterations, "final_gap": diag.final_gap,
        "final_rel_gap": diag.final_rel_gap,
        "final_cont_residual": diag.cont_history[-1] if diag.cont_history else None,
        "tau": diag.tau, "step_changes": diag.step_changes,
        "wall_time_s": diag.wall_time, "notes": diag.notes,
        "all_checks_passed": all(r.passed for r in reports)})
    ok = diag.converged and all(r.passed for r in reports)
    return EXIT_OK if ok else EXIT_MATH


def cmd_certify(args) -> int:
    """The battery of ``optimize`` on stored fields: on the split momenta
    w_plus/w_minus when the bundle has them, else on the nodal w as the pair
    (w, w)."""
    config = _run_config(args)
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
        w = (_read_on_grid(src / "w.field", VecField, grid),) * 2      # a nodal w is (w, w)
    details: dict = {}
    reports = cert.battery(problem, u, f, m, w, seed=config["seed"],
                           tol_gap=solver_cfg.tol_gap, details=details)
    out = _outdir(config, args)
    cert.reports_to_json(reports, out / "certificates.json")
    write_manifest(out, config, {"command": "certify", "gap_details": details,
                                 "all_checks_passed": all(r.passed for r in reports)})
    return EXIT_OK if all(r.passed for r in reports) else EXIT_MATH


def _reproduce_once(eps: float, window_points: int, nt: int):
    """Solve the blocking counterexample at one resolution; return the window
    object, the computed field with its obstacle, and off-band errors."""
    window = hj.counterexample_instance(eps, window_points, nt)
    grid = window.grid
    problem = pdopt.ProblemInstance(
        grid=grid, speed=hj.counterexample_speed(window),
        cost=CostModel(p=3.0), u_T=np.zeros(grid.nx), m0=np.ones(grid.nx))
    obstacle = window.obstacle_field()
    u = hj.solve_value_function(problem, obstacle)
    max_err = 0.0
    l1_err = 0.0
    for k in range(grid.nt):
        mask = window.comparison_mask(k)
        diff = np.abs(window.window_values(u, k) - window.exact_window(k))
        if np.any(mask):
            max_err = max(max_err, float(np.max(diff[mask])))
            l1_err += float(np.sum(diff[mask])) * window.dx_window * grid.dt
    return window, (u, obstacle), max_err, l1_err


def cmd_reproduce(args) -> int:
    config = _run_config(args)
    rep = config["reproduce"]
    window_points, nt, refine = rep["window_points"], rep["nt"], args.refine
    t0 = time.perf_counter()
    rows = []
    slices = []
    all_ok = True
    for eps in rep["eps"] + [0.0]:
        window, (u, obstacle), max_err, l1_err = _reproduce_once(eps, window_points, nt)
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
        ok = max_err <= rep["tolerance"] and all(o >= 0.8 for o in orders)
        if eps == 0.0:
            # blocking: on the window, the burning region {u <= 0} minus the
            # active obstacle cells is empty at the final time
            burning = hj.extract_front(u, grid.nt - 1, 0.0) \
                - hj.extract_front(obstacle, grid.nt - 1, 0.0, mode="obstacle")
            ok = ok and not any(cell[0] < window.window_points for cell in burning)
        all_ok = all_ok and ok
        rows.append((eps, max_err, l1_err, orders, ok))
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            k = round(frac * (grid.nt - 1))
            for x, val in zip(window.window_x(), window.window_values(u, k)):
                slices.append((eps, k * grid.dt, x, val))
    out = _outdir(config, args)
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


def _count(text: str) -> int:
    """A count argument: argparse exits 2 on anything but an int >= 0."""
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {count}")
    return count


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frontsteer",
        description="Front propagation control: solvers and certification")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed of the run (overrides config)")
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
    p.add_argument("--paths", type=_count, default=0,
                   help="also sample this many trajectories")

    p = sub.add_parser("optimize", help="solve the dual problem and certify")
    common(p)

    p = sub.add_parser("certify", help="re-run certification on stored fields")
    common(p)
    p.add_argument("--bundle", help="directory holding u/f/m/w (and w_plus/w_minus) field files")

    p = sub.add_parser("reproduce", help="blocking counterexample reproduction")
    common(p)
    p.add_argument("--refine", type=_count, default=0,
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
