"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from conftest import make_uniform_problem, optimize_in_fresh_process
from frontsteer import certify, transport
from frontsteer.cli import _reproduce_once
from frontsteer.grid import ScalarField, TorusGrid, VecField
from frontsteer.hj import (counterexample_instance, counterexample_speed,
                           extract_front, solve_value_function)
from frontsteer.model import CostModel, IsotropicSpeed, cost, cost_conj
from frontsteer.pdopt import (ProblemInstance, SolverConfig, _split_velocity, optimize,
                              recover_velocity)
from frontsteer.transport import march_split


def report(num: int, desc: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {desc}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="session")
def nontrivial_bundle():
    grid = TorusGrid(1, (64,), 65, 1.0)
    x = grid.axis_coords(0)
    sigma = 0.1
    m0 = np.zeros(64)
    for shift in range(-3, 4):
        m0 += np.exp(-((x - 0.5 + shift) ** 2) / (2 * sigma ** 2))
    m0 /= np.sum(m0) * grid.cell_volume
    problem = ProblemInstance(grid=grid, speed=IsotropicSpeed(1, 1.0),
                              cost=CostModel(3.0), u_T=np.cos(2 * np.pi * x),
                              m0=m0)
    config = SolverConfig(max_iters=25000, tol_gap=1e-3, tol_cont=1e-3)
    return problem, optimize(problem, config)


def test_criterion_1_counterexample_reproduction():
    t0 = time.perf_counter()
    _, _, max_err, l1_coarse = _reproduce_once(0.1, 401, 201)
    runtime = time.perf_counter() - t0
    _, _, _, l1_fine = _reproduce_once(0.1, 801, 401)
    if l1_coarse < 1e-8 and l1_fine < 1e-8:
        order = float("inf")        # both at round-off: exact reproduction
    else:
        order = float(np.log2(l1_coarse / l1_fine))
    ok = max_err <= 0.05 and order >= 0.8 and runtime <= 30.0
    report(1, "counterexample reproduction", ok,
           f"max_err={max_err:.2e} order={order} runtime={runtime:.1f}s")


def test_criterion_2_blocking_front_empty():
    window = counterexample_instance(0.0, 401, 201)
    grid = window.grid
    problem = ProblemInstance(grid=grid, speed=counterexample_speed(window),
                              cost=CostModel(3.0), u_T=np.zeros(grid.nx),
                              m0=np.ones(grid.nx))
    obstacle = window.obstacle_field()
    u = solve_value_function(problem, obstacle)
    burning = extract_front(u, grid.nt - 1, 0.0) \
        - extract_front(obstacle, grid.nt - 1, 0.0, mode="obstacle")
    in_window = {c for c in burning if c[0] < window.window_points}
    report(2, "blocking: front empty at t=1", len(in_window) == 0,
           f"{len(in_window)} burning window cells")


def test_criterion_3_uniform_duality(uniform_problem, uniform_bundle):
    d = uniform_bundle.diagnostics
    m_err = float(np.max(np.abs(uniform_bundle.m.values - 1.0)))
    a_val, b_val = d.a_history[-1], d.b_history[-1]
    rel_gap = abs(d.final_gap) / max(abs(a_val), abs(b_val))
    ok = (d.converged and m_err <= 1e-2
          and abs(b_val - 2.0 / 3.0) <= 1e-3
          and abs(a_val + 2.0 / 3.0) <= 1e-3
          and rel_gap <= 1e-3
          and d.iterations <= 5000 and d.wall_time <= 60.0)
    report(3, "uniform-instance duality", ok,
           f"m_err={m_err:.1e} A={a_val:+.5f} B={b_val:.5f} "
           f"rel_gap={rel_gap:.1e} iters={d.iterations} t={d.wall_time:.1f}s")


def test_criterion_4_optimality_coupling(uniform_problem, uniform_bundle,
                                         nontrivial_bundle):
    def defect_stats(problem, bundle):
        f, m = bundle.f.values, bundle.m.values
        d = np.abs(cost(problem.cost, f) + cost_conj(problem.cost, m) - f * m)
        scale = max(float(np.mean(np.abs(f * m))), 1e-12)
        return float(np.mean(d)), float(np.mean(d)) / scale

    mean_uni, _ = defect_stats(uniform_problem, uniform_bundle)
    problem_nt, bundle_nt = nontrivial_bundle
    _, rel_nt = defect_stats(problem_nt, bundle_nt)
    ok = mean_uni <= 1e-6 and rel_nt <= 5e-2 and bundle_nt.diagnostics.converged
    report(4, "Fenchel coupling f = k(m)", ok,
           f"uniform mean={mean_uni:.1e} nontrivial rel={rel_nt:.1e} "
           f"nontrivial converged={bundle_nt.diagnostics.converged}")


def test_criterion_5_mass_conservation():
    rng = np.random.default_rng(0)
    worst = 0.0
    runs = 0
    for dim, nx, nt in ((1, (64,), 65), (1, (48,), 97), (2, (16, 16), 33)):
        grid = TorusGrid(dim, nx, nt, 1.0)
        for _ in range(3):
            m0 = rng.random(nx) + 0.1
            cap = 0.9 / (dim * max(grid.nx)) / grid.dt / 2
            v = VecField(grid, rng.uniform(-1, 1, (nt, *nx, dim))
                         * min(cap, 0.45))
            m = transport.solve_continuity(m0, v)
            masses = m.values.reshape(nt, -1).sum(axis=1) * grid.cell_volume
            worst = max(worst, float(np.max(np.abs(masses - masses[0]))
                                     / masses[0]))
            runs += 1
    report(5, "mass conservation (all transport runs)", worst <= 1e-12,
           f"worst relative drift {worst:.1e} over {runs} runs")


def test_criterion_6_comparison_principle():
    problem = make_uniform_problem(nx=32, nt=33)
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(50):
        f1 = rng.random((problem.grid.nt, 32))
        f2 = f1 + rng.random((problem.grid.nt, 32))
        u1 = solve_value_function(problem, ScalarField(problem.grid, f1))
        u2 = solve_value_function(problem, ScalarField(problem.grid, f2))
        if np.any(u1.values > u2.values):
            violations += 1
    report(6, "comparison principle (50 pairs, exact)", violations == 0,
           f"{violations} violations")


def test_criterion_7_ibp_inequality_trials():
    grid = TorusGrid(1, (48,), 49, 1.0)
    speed = IsotropicSpeed(1, 0.9)
    rng = np.random.default_rng(7)
    hard_violations = 0
    worst_margin = np.inf
    for _ in range(20):
        v = certify.sample_admissible_field(speed, grid, rng)
        raw = certify._fourier_scalar(rng, grid)
        f = ScalarField(grid, raw ** 2 / (1.0 + np.max(raw ** 2)))
        u_T = 0.3 * certify._fourier_scalar(rng, grid)[0]
        problem = ProblemInstance(grid=grid, speed=speed, cost=CostModel(3.0),
                                  u_T=u_T, m0=np.ones(48))
        u = solve_value_function(problem, f)
        m = transport.solve_continuity(problem.m0, v)
        rep = certify.check_ibp_inequality(u, f, m, 0, grid.nt - 1)
        if not rep.passed:
            hard_violations += 1
        worst_margin = min(worst_margin, rep.lhs + rep.slack)
    report(7, "integration-by-parts inequality (20 trials)",
           hard_violations == 0,
           f"{hard_violations} hard violations, worst margin {worst_margin:.3f}")


def test_criterion_8_weak_solution_identities(uniform_problem, uniform_bundle):
    r1, r2 = certify.check_weak_solution(uniform_problem, uniform_bundle.u,
                                         uniform_bundle.f, uniform_bundle.m,
                                         n_levels=8, slack=1e-3)
    ok = r1.passed and r2.passed
    report(8, "weak-solution identities at uniform optimum", ok,
           f"defects {r1.lhs:.1e} / {r2.lhs:.1e} <= 1e-3")


def test_criterion_9_holder_bound():
    window = counterexample_instance(0.1, 401, 201)
    grid = window.grid
    problem = ProblemInstance(grid=grid, speed=counterexample_speed(window),
                              cost=CostModel(3.0), u_T=np.zeros(grid.nx),
                              m0=np.ones(grid.nx))
    f = window.obstacle_field()
    u = solve_value_function(problem, f)
    rep = certify.check_holder(u, f, 3.0, problem.speed, samples=1000, seed=9)
    report(9, "time-Hoelder / terminal upper bound (1000 pairs)", rep.passed,
           f"worst lhs-rhs = {rep.lhs:.3e}, slack {rep.slack:.3e}")


def test_criterion_10_superposition(uniform_problem, uniform_bundle):
    v = recover_velocity(uniform_bundle.m, uniform_bundle.w,
                         floor=1e-9, speed=uniform_problem.speed)
    m = transport.solve_continuity(uniform_problem.m0, v)
    ens = transport.sample_trajectories(uniform_problem.m0, v, 100_000, seed=11)
    dist = transport.pushforward_distance(ens, m, uniform_problem.grid.nt - 1)
    report(10, "superposition consistency (1e5 paths)", dist <= 0.05,
           f"histogram L1 distance {dist:.4f}")


def test_criterion_11_determinism(tmp_path):
    import json
    cfg = {"problem": {"nx": [32], "nt": 33},
           "solver": {"max_iters": 4000, "tol_gap": 1e-3, "tol_cont": 1e-3},
           "seed": 5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    # each run in a fresh process, so each BLAS pool starts at its own size
    outs = []
    for threads in (1, 2):
        out = tmp_path / f"threads-{threads}"
        proc = optimize_in_fresh_process(cfg_path, out, threads)
        assert proc.returncode == 0, proc.stderr
        outs.append((out / "diagnostics.csv").read_bytes())
    report(11, "byte-identical diagnostics at 1 and 2 BLAS threads",
           outs[0] == outs[1], f"{len(outs[0])} bytes compared")


def test_criterion_12_certified_gap_and_split_superposition(nontrivial_bundle):
    problem, bundle = nontrivial_bundle
    d = bundle.diagnostics
    grid = problem.grid
    rel_gap = d.final_gap / max(abs(d.a_history[-1]), abs(d.b_history[-1]))
    # the recovered split velocities w+/m, w-/m, marched from m0, give back m
    w = np.concatenate([bundle.w_plus.values[:-1], bundle.w_minus.values[:-1]], axis=-1)
    v, _ = _split_velocity(bundle.m.values[:-1], np.moveaxis(w, -1, 0), grid)
    marched = march_split(problem.m0, v, grid)
    l1 = float(np.max(np.sum(np.abs(marched - bundle.m.values), axis=1))
               * grid.cell_volume)
    ok = d.converged and 0.0 <= rel_gap <= 1e-3 and l1 <= 1e-2
    report(12, "certified gap and split superposition (nontrivial)", ok,
           f"relative certified gap {rel_gap:.1e}, march L1 per level {l1:.1e}")
