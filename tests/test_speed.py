"""Per-layer micro-benchmarks, each reported in ns per space-time node.

They need the pytest-benchmark plugin and are skipped without it.  The suite
runs each case once as a plain test; to time them:

    pytest tests/test_speed.py --benchmark-enable

Each case stores ``ns_per_node`` (mean time over the nodes it touches) in
its ``extra_info``, which ``--benchmark-json=FILE`` writes out; the field
file round trip stores ``MB_per_s`` instead (the field's 8-byte values
written and read back, over the mean time of both).
"""

import dataclasses

import numpy as np
import pytest

from conftest import make_gauss_problem, trial_speed
from frontsteer import certify, hj, pdopt, transport
from frontsteer.grid import ScalarField, VecField, read_field, write_field
from frontsteer.model import CostModel, cost_deriv_conj, prox_cost_conj_coned
from frontsteer.transport import march_split

pytest.importorskip("pytest_benchmark")


@pytest.fixture
def benchmark(benchmark, request):
    """The plugin's fixture, which calls its function once, untimed, unless
    ``--benchmark-enable`` is given."""
    if not request.config.getoption("benchmark_enable"):
        benchmark.disabled = True
    return benchmark


def _warm_workspace(problem, steps=20):
    """A workspace after ``steps`` iterations of optimize's schedule: plain,
    then relaxed."""
    ws = pdopt._Workspace(problem, pdopt._TAU)
    for it in range(1, steps + 1):
        ws.step(1.0 if it <= pdopt._PLAIN_ITERS else pdopt._RHO)
    return ws


def _timed(benchmark, nodes, fn, *args, **kwargs):
    result = benchmark(fn, *args, **kwargs)
    if not benchmark.disabled:
        benchmark.extra_info["ns_per_node"] = benchmark.stats.stats.mean * 1e9 / nodes
    return result


@pytest.mark.parametrize("dim,n,nt,p,kind", [(1, 64, 65, 3.0, "ball"), (2, 32, 33, 4.0, "ball"),
                                             (2, 16, 33, 4.0, "hull")],
                         ids=["1d-64x65", "2d-32^2x33", "2d-16^2x33-hull"])
def test_cp_iteration(benchmark, dim, n, nt, p, kind):
    # the hull case runs the four rotating controls of trial_speed('hull', 2)
    problem = make_gauss_problem(dim, n, nt, p)
    if kind == "hull":
        problem = dataclasses.replace(problem, speed=trial_speed("hull", dim))
    ws = _warm_workspace(problem)
    cont = _timed(benchmark, problem.grid.nt * problem.grid.n_space, ws.step, pdopt._RHO)
    # the relaxed iterate may leave the cone; the prox point may not
    assert np.isfinite(cont) and np.min(ws.m_prox) >= 0.0


def test_gram_solver_build(benchmark):
    # the closed-form time eigenbasis and the Sherman-Morrison factors, once
    # per workspace
    grid = make_gauss_problem(1, 64, 129, 3.0).grid
    solve = _timed(benchmark, grid.nt * grid.n_space, pdopt._gram_solver, grid)
    assert solve(np.ones((grid.nt, *grid.nx))).shape == (grid.nt, *grid.nx)


def test_certificate_march(benchmark):
    problem = make_gauss_problem(1, 64, 65, 3.0)
    grid = problem.grid
    ws = _warm_workspace(problem)
    v, _ = pdopt._split_velocity(ws.m_prox[:-1], ws.w_prox, grid)
    marched = _timed(benchmark, grid.nt * grid.n_space, march_split, problem.m0, v, grid)
    mass = np.sum(marched, axis=1) * grid.cell_volume
    np.testing.assert_allclose(mass, problem.mass, rtol=1e-12)


def test_certificate(benchmark):
    # one certificate of the prox pair, as optimize builds it on a checked iteration
    problem = make_gauss_problem(1, 64, 65, 3.0)
    grid = problem.grid
    ws = _warm_workspace(problem)
    a_val, b_val = _timed(benchmark, grid.nt * grid.n_space, pdopt._certificate, problem,
                          -ws.y_prox, ws.m_prox, ws.w_prox)
    assert np.isfinite(a_val) and a_val + b_val >= -1e-12


def test_stored_certificate(benchmark):
    # the certificate of a stored nodal bundle, as certify --bundle builds it
    # in verify-2d: each block split by sign and projected into the ball
    problem = make_gauss_problem(2, 32, 33, 4.0)
    grid = problem.grid
    v = certify.sample_admissible_field(problem.speed, grid, np.random.default_rng(0))
    load = grid.dt * np.max(sum(np.abs(v.values[..., a]) / grid.dx[a] for a in range(grid.dim)))
    v = VecField(grid, v.values * (0.9 / load))
    m = transport.solve_continuity(problem.m0, v)
    f = ScalarField(grid, cost_deriv_conj(problem.cost, m.values))
    u = hj.solve_value_function(problem, f)
    w = VecField(grid, m.values[..., None] * v.values)
    gap = _timed(benchmark, grid.nt * grid.n_space, certify.duality_gap, problem, u, f, m, w)
    assert np.isfinite(gap) and gap >= -1e-9


@pytest.mark.parametrize("dim,n,p", [(1, 64, 3.0), (2, 32, 4.0)], ids=["1d-64x65", "2d-32^2x33"])
def test_prox_p3(benchmark, dim, n, p):
    # the closed-form root (p = 3) and the Newton root (p = 4)
    problem = make_gauss_problem(dim, n, n + 1, p)
    grid = problem.grid
    ws = _warm_workspace(problem)
    # the last gradient step, clipped, as the prox met it
    m_bar, w_bar = ws.gm[:-1].copy(), ws.gw.copy()
    m, w = np.empty_like(m_bar), np.empty_like(w_bar)
    _timed(benchmark, m_bar.size, prox_cost_conj_coned, problem.cost, ws.cone, m_bar, w_bar,
           pdopt._TAU * grid.dt, out=(m, w))
    norm = np.sqrt(np.sum(w * w, axis=0))
    assert np.min(m) >= 0.0 and np.all(norm <= ws.cone * m * (1.0 + 1e-12))


@pytest.mark.parametrize("kind", ["ball", "hull"])
def test_subsolution(benchmark, kind):
    # the battery's subsolution check: ten sampled pairs on a 2D grid, in
    # the unit ball or in the hull of four rotating controls
    problem = make_gauss_problem(2, 32, 33, 4.0)
    grid = problem.grid
    speed = problem.speed if kind == "ball" else trial_speed("hull", 2)
    rng = np.random.default_rng(0)
    u = ScalarField(grid, rng.standard_normal((grid.nt, *grid.nx)))
    f = ScalarField(grid, rng.random((grid.nt, *grid.nx)))
    report = _timed(benchmark, grid.nt * grid.n_space, certify.check_subsolution, u, f,
                    speed, trials=10, seed=0)
    assert np.isfinite(report.lhs) and report.worst_location is not None


@pytest.mark.parametrize("binary", [False, True], ids=["text", "f64le"])
def test_field_round_trip(benchmark, tmp_path, binary):
    grid = make_gauss_problem(2, 32, 33, 4.0).grid
    v = VecField(grid, np.random.default_rng(1).standard_normal((grid.nt, *grid.nx, 2)))
    path = tmp_path / "v.field"

    def round_trip():
        write_field(path, v, binary=binary)
        return read_field(path)

    back = benchmark(round_trip)
    if not benchmark.disabled:
        benchmark.extra_info["MB_per_s"] = v.values.nbytes / benchmark.stats.stats.mean / 1e6
    assert back.values.tobytes() == v.values.tobytes()


def _counterexample(eps=0.1):
    window = hj.counterexample_instance(eps, 401, 201)
    grid = window.grid
    problem = pdopt.ProblemInstance(grid=grid, speed=hj.counterexample_speed(window),
                                    cost=CostModel(p=3.0), u_T=np.zeros(grid.nx),
                                    m0=np.ones(grid.nx))
    return window, problem


def test_hj_sweep(benchmark):
    window, problem = _counterexample()
    grid = problem.grid
    obstacle = window.obstacle_field()
    u = _timed(benchmark, grid.nt * grid.n_space, hj.solve_value_function, problem, obstacle)
    assert np.array_equal(u.values[-1], problem.u_T) and np.min(u.values) >= 0.0


def test_window_reference(benchmark):
    window, _ = _counterexample()
    nt = window.grid.nt

    def all_levels():
        return [window.exact_window(k) for k in range(nt)]

    levels = _timed(benchmark, nt * window.window_points, all_levels)
    assert levels[0][window.window_points // 2] == 1.0 and levels[-1].max() == 0.0
