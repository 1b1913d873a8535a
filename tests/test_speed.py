"""Per-layer micro-benchmarks, each reported in ns per space-time node.

They need the pytest-benchmark plugin and are skipped without it.  The suite
runs each case once as a plain test; to time them:

    pytest tests/test_speed.py --benchmark-enable

Each case stores ``ns_per_node`` (mean time over the nodes it touches) in
its ``extra_info``, which ``--benchmark-json=FILE`` writes out.
"""

import numpy as np
import pytest

from conftest import make_gauss_problem
from frontsteer import pdopt
from frontsteer.model import prox_cost_conj_coned
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
    ws = pdopt._Workspace(problem, pdopt._TAU, pdopt._SIGMA)
    for _ in range(steps):
        ws.step()
    return ws


def _timed(benchmark, nodes, fn, *args, **kwargs):
    result = benchmark(fn, *args, **kwargs)
    if not benchmark.disabled:
        benchmark.extra_info["ns_per_node"] = benchmark.stats.stats.mean * 1e9 / nodes
    return result


@pytest.mark.parametrize("dim,n,p", [(1, 64, 3.0), (2, 32, 4.0)], ids=["1d-64x65", "2d-32^2x33"])
def test_cp_iteration(benchmark, dim, n, p):
    problem = make_gauss_problem(dim, n, n + 1, p)
    ws = _warm_workspace(problem)
    cont = _timed(benchmark, problem.grid.nt * problem.grid.n_space, ws.step)
    assert np.isfinite(cont) and np.min(ws.m) >= 0.0


def test_certificate_march(benchmark):
    problem = make_gauss_problem(1, 64, 65, 3.0)
    grid = problem.grid
    ws = _warm_workspace(problem)
    v, _ = pdopt._split_velocity(ws.m[:-1], ws.w, grid)
    marched = _timed(benchmark, grid.nt * grid.n_space, march_split, problem.m0, v, grid)
    mass = np.sum(marched, axis=1) * grid.cell_volume
    np.testing.assert_allclose(mass, problem.mass, rtol=1e-12)


def test_prox_p3(benchmark):
    problem = make_gauss_problem(1, 64, 65, 3.0)
    grid = problem.grid
    ws = _warm_workspace(problem)
    # an iterate and the last clipped gradient step, as the prox meets them
    m_bar, w_bar = ws.m[:-1].copy(), ws.gw.copy()
    m, w = np.empty_like(m_bar), np.empty_like(w_bar)
    _timed(benchmark, m_bar.size, prox_cost_conj_coned, problem.cost, ws.cone, m_bar, w_bar,
           pdopt._TAU * grid.dt, out=(m, w))
    assert np.min(m) >= 0.0 and np.all(np.abs(w[..., 0]) <= m * (1.0 + 1e-12))
