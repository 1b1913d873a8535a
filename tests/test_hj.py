import itertools
import warnings

import numpy as np
import pytest

from conftest import between_lattice_hull, full_field
from frontsteer import grid as grid_module
from frontsteer.errors import ParameterError
from frontsteer.grid import ScalarField, TorusGrid
from frontsteer.hj import (counterexample_exact, counterexample_in_band,
                           counterexample_instance, counterexample_obstacle,
                           counterexample_speed, extract_front,
                           solve_value_function)
from frontsteer.model import CostModel, FiniteControlsSpeed, IsotropicSpeed
from frontsteer.pdopt import ProblemInstance


def gather_plan_reference(grid, vel):
    """Per-axis fancy-index form of the HJ interpolation plan, kept as the
    bitwise reference for the flat-index plan."""
    foot = np.stack(grid.meshgrid(), axis=-1) + grid.dt * vel
    base, frac = [], []
    for a in range(grid.dim):
        xi = np.mod(foot[..., a], 1.0) * grid.nx[a]
        i0 = np.floor(xi).astype(int)
        frac.append(xi - i0)
        base.append(np.mod(i0, grid.nx[a]))
    plan = []
    for corner in itertools.product((0, 1), repeat=grid.dim):
        w = np.ones(grid.nx)
        idx = []
        for a, c in enumerate(corner):
            w = w * (frac[a] if c else (1.0 - frac[a]))
            idx.append(np.mod(base[a] + c, grid.nx[a]))
        plan.append((tuple(idx), w))
    return plan


def solve_reference(problem, obstacle):
    grid = problem.grid
    plans = [gather_plan_reference(grid, v) for v in problem.speed.velocity_samples(grid)]
    values = np.empty((grid.nt, *grid.nx))
    values[-1] = problem.u_T
    for k in range(grid.nt - 2, -1, -1):
        best = None
        for plan in plans:
            val = np.zeros(grid.nx)
            for idx, w in plan:
                val += values[k + 1][idx] * w
            best = val if best is None else np.minimum(best, val)
        values[k] = best + grid.dt * obstacle.values[k]
    return values


def obstacle_reference(eps, t, x):
    """The branchy scalar closed form of the counterexample obstacle, kept as
    the bitwise reference for the array-valued one."""
    d = abs(x - 1.0) - t
    if d <= 0:
        return 1.0
    if eps == 0 or d >= eps:
        return 0.0
    return 1.0 - d / eps


def exact_reference(eps, t, x):
    """The branchy scalar closed-form value, the reference for the array one."""
    d = abs(x - 1.0) - t
    if d <= 0:
        return 1.0 - t
    if eps == 0 or d >= eps:
        return 0.0
    return (1.0 - t) * (1.0 - d / eps)


def on_nodes(fn, eps, t, x):
    t, x = np.broadcast_arrays(t, x)
    return np.array([fn(eps, tt, xx) for tt, xx in zip(t.ravel(), x.ravel())]).reshape(t.shape)


def make_problem(nx=32, nt=33, radius=1.0, u_T=None, dim=1):
    shape = (nx,) * dim
    grid = TorusGrid(dim, shape, nt, 1.0)
    return ProblemInstance(grid=grid, speed=IsotropicSpeed(dim, radius),
                           cost=CostModel(p=dim + 2.0),
                           u_T=np.zeros(shape) if u_T is None else u_T,
                           m0=np.ones(shape))


class TestSolveValueFunction:
    def test_zero_data_zero_solution(self):
        prob = make_problem()
        u = solve_value_function(prob, full_field(prob.grid, 0.0))
        assert np.all(u.values == 0.0)

    def test_constant_obstacle_accrues_linearly(self):
        prob = make_problem()
        F = 0.7
        u = solve_value_function(prob, full_field(prob.grid, F))
        tt = prob.grid.times()
        expect = (1.0 - tt)[:, None] * F
        np.testing.assert_allclose(u.values, np.broadcast_to(expect, u.values.shape),
                                   atol=1e-13)

    def test_terminal_slice_exact(self):
        rng = np.random.default_rng(0)
        u_T = rng.random(32)
        prob = make_problem(u_T=u_T)
        u = solve_value_function(prob, full_field(prob.grid, 0.3))
        np.testing.assert_array_equal(u.values[-1], u_T)

    def test_hopf_lax_oracle_cosine(self):
        # c = 1, f = 0, u_T = cos(2 pi x): the value is the min of u_T over
        # the reachable ball; brute-force enumeration is the oracle
        nx, nt = 256, 257
        grid = TorusGrid(1, (nx,), nt, 1.0)
        x = grid.axis_coords(0)
        prob = ProblemInstance(grid=grid, speed=IsotropicSpeed(1, 1.0),
                               cost=CostModel(3.0), u_T=np.cos(2 * np.pi * x),
                               m0=np.ones(nx))
        u = solve_value_function(prob, full_field(grid, 0.0))

        def oracle(t_idx, x0):
            radius = 1.0 - t_idx * grid.dt
            dist = np.abs((x - x0 + 0.5) % 1.0 - 0.5)
            return float(np.min(np.where(dist <= radius + 1e-12,
                                         np.cos(2 * np.pi * x), np.inf)))

        k_half, k_34 = nt // 2, 3 * (nt - 1) // 4
        assert u.values[k_half][0] == pytest.approx(oracle(k_half, 0.0), abs=0.02)
        assert u.values[k_half][0] == pytest.approx(-1.0, abs=0.02)
        assert u.values[k_34][0] == pytest.approx(oracle(k_34, 0.0), abs=0.02)
        assert u.values[k_34][0] == pytest.approx(0.0, abs=0.02)
        rng = np.random.default_rng(1)
        for _ in range(25):
            k = int(rng.integers(0, nt))
            j = int(rng.integers(0, nx))
            assert u.values[k][j] == pytest.approx(oracle(k, x[j]), abs=0.02)

    def test_monotone_in_obstacle(self):
        prob = make_problem()
        rng = np.random.default_rng(2)
        for _ in range(5):
            f1 = rng.random((prob.grid.nt, 32))
            f2 = f1 + rng.random((prob.grid.nt, 32))
            u1 = solve_value_function(prob, ScalarField(prob.grid, f1))
            u2 = solve_value_function(prob, ScalarField(prob.grid, f2))
            assert np.all(u1.values <= u2.values)

    def test_constant_shift_exact(self):
        rng = np.random.default_rng(3)
        u_T = rng.random(32)
        f_vals = rng.random((33, 32))
        pa = make_problem(u_T=u_T)
        pb = make_problem(u_T=u_T + 2.5)
        ua = solve_value_function(pa, ScalarField(pa.grid, f_vals))
        ub = solve_value_function(pb, ScalarField(pb.grid, f_vals))
        np.testing.assert_allclose(ub.values, ua.values + 2.5, atol=1e-12)

    def test_bounds_for_nonnegative_obstacle(self):
        rng = np.random.default_rng(4)
        u_T = rng.random(32)
        prob = make_problem(u_T=u_T)
        f = ScalarField(prob.grid, rng.random((33, 32)))
        u = solve_value_function(prob, f)
        u0 = solve_value_function(prob, full_field(prob.grid, 0.0))
        assert np.max(u.values) <= np.max(u_T) + 1.0 * np.max(f.values) + 1e-12
        assert np.all(u.values >= u0.values - 1e-12)

    def test_finite_controls_scheme(self):
        grid = TorusGrid(1, (32,), 33, 1.0)
        vels = (lambda x: np.broadcast_to([0.8], np.shape(x)),
                lambda x: np.broadcast_to([-0.8], np.shape(x)))
        speed = FiniteControlsSpeed(1, vels)
        prob = ProblemInstance(grid=grid, speed=speed, cost=CostModel(3.0),
                               u_T=np.zeros(32), m0=np.ones(32))
        u = solve_value_function(prob, full_field(grid, 1.0))
        np.testing.assert_allclose(u.values[0], 1.0, atol=1e-12)

    def test_flat_plan_bitwise_equal_reference(self):
        grid = TorusGrid(2, (12, 10), 9, 1.0)
        xs = grid.meshgrid()
        vels = (lambda x: np.stack([0.7 + 0.1 * np.sin(2 * np.pi * x[..., 1]),
                                    0.1 * np.cos(2 * np.pi * x[..., 0])], axis=-1),
                lambda x: np.broadcast_to([-0.7, 0.2], np.shape(x)),
                lambda x: np.broadcast_to([0.1, 0.75], np.shape(x)),
                lambda x: np.broadcast_to([0.05, -0.8], np.shape(x)))
        speed = FiniteControlsSpeed(2, vels)
        rng = np.random.default_rng(4)
        prob = ProblemInstance(grid=grid, speed=speed, cost=CostModel(4.0),
                               u_T=np.cos(2 * np.pi * (xs[0] + 2 * xs[1])),
                               m0=np.ones(grid.nx))
        obstacle = ScalarField(grid, rng.random((grid.nt, *grid.nx)))
        u = solve_value_function(prob, obstacle)
        assert u.values.tobytes() == solve_reference(prob, obstacle).tobytes()

    def test_large_step_warns(self):
        grid = TorusGrid(1, (8,), 2, 1.0)   # dt = 1, dx = 1/8
        prob = ProblemInstance(grid=grid, speed=IsotropicSpeed(1, 1.0),
                               cost=CostModel(3.0), u_T=np.zeros(8), m0=np.ones(8))
        with pytest.warns(UserWarning):
            solve_value_function(prob, full_field(grid, 0.0))

    @pytest.mark.parametrize("kind", ["ball", "hull"])
    def test_large_step_warning_reads_the_max_speed(self, kind):
        # dt = 0.1 against 4 cell diameters, 0.0625: a top speed of 1.0 warns
        # and one of 0.5 does not.  The fast hull reaches 1.0 only between the
        # points of the lattice its constructor samples
        grid = TorusGrid(1, (64,), 11, 1.0)
        if kind == "ball":
            fast, slow = IsotropicSpeed(1, 1.0), IsotropicSpeed(1, 0.5)
        else:
            fast = between_lattice_hull()
            slow = FiniteControlsSpeed(1, tuple(
                (lambda x, c=c: np.full(np.shape(x), c)) for c in (0.5, -0.5)))
        for speed, warns in ((fast, True), (slow, False)):
            prob = ProblemInstance(grid=grid, speed=speed, cost=CostModel(3.0),
                                   u_T=np.zeros(64), m0=np.ones(64))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                solve_value_function(prob, full_field(grid, 0.0))
            assert [str(w.message).split(" exceeds")[0] for w in caught] \
                == ["large time step: max speed*dt = 0.1"] * warns

    def test_grid_mismatch(self):
        prob = make_problem()
        other = full_field(TorusGrid(1, (16,), 33, 1.0), 0.0)
        with pytest.raises(ParameterError):
            solve_value_function(prob, other)


class TestCounterexampleFormulas:
    def test_exact_values_from_the_construction(self):
        assert counterexample_exact(0.0, 0.5, 1.0) == pytest.approx(0.5)
        assert counterexample_exact(0.1, 0.5, 0.3) == 0.0   # x <= 1 - t - eps
        assert counterexample_exact(0.0, 0.25, 1.2) == pytest.approx(0.75)

    def test_obstacle_values(self):
        assert counterexample_obstacle(0.1, 0.5, 1.2) == 1.0
        assert counterexample_obstacle(0.1, 0.2, 0.5) == 0.0
        assert counterexample_obstacle(0.0, 0.0, 1.0) == 1.0

    def test_band_ramp(self):
        assert counterexample_obstacle(0.2, 0.0, 1.1) == pytest.approx(0.5)
        assert counterexample_in_band(0.2, 0.0, 1.1)
        assert not counterexample_in_band(0.2, 0.0, 1.5)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            counterexample_exact(0.1, 1.5, 1.0)
        with pytest.raises(ParameterError):
            counterexample_obstacle(0.1, 0.5, 2.5)
        with pytest.raises(ParameterError):
            counterexample_exact(-0.1, 0.5, 1.0)

    def test_scalars_in_give_python_scalars_out(self):
        assert type(counterexample_obstacle(0.1, 0.5, 1.0)) is float
        assert type(counterexample_obstacle(0.0, 0.5, 1.0)) is float
        assert type(counterexample_exact(0.1, 0.5, 1.55)) is float
        assert type(counterexample_in_band(0.1, 0.5, 1.55)) is bool

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.1, 0.125, 0.2, 0.25, 0.5])
    def test_array_form_bitwise_equal_reference(self, eps):
        # dyadic nodes make the gap d = |x-1| - t exact, so the grid hits
        # d = 0 and d = eps for the dyadic eps, besides t = 0 and t = 1
        t = (np.arange(17) / 16)[:, None]
        x = np.arange(129) / 64
        d = np.abs(x - 1.0) - t
        assert np.all(np.isin([0.0, 0.125, 0.25, 0.5], d))
        obstacle = counterexample_obstacle(eps, t, x)
        exact = counterexample_exact(eps, t, x)
        assert obstacle.tobytes() == on_nodes(obstacle_reference, eps, t, x).tobytes()
        assert exact.tobytes() == on_nodes(exact_reference, eps, t, x).tobytes()
        in_band = counterexample_in_band(eps, t, x)
        assert np.array_equal(in_band, (0.0 < d) & (d < eps))

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.1, 0.2])
    def test_window_reference_bitwise_equal_on_canonical_nodes(self, eps):
        window = counterexample_instance(eps, 401, 201)
        t = window.grid.times()[:, None]
        expect = on_nodes(exact_reference, eps, t, window.window_x())
        got = np.array([window.exact_window(k) for k in range(window.grid.nt)])
        assert got.tobytes() == expect.tobytes()
        assert counterexample_exact(eps, t, window.window_x()).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.1, 0.2])
    def test_obstacle_field_equals_reference_everywhere(self, eps):
        # every torus node, the buffer beyond x = 2 (re-centred at x = 3) included
        window = counterexample_instance(eps, 101, 51)
        grid = window.grid
        xw = window.scale * grid.axis_coords(0)
        xw = np.where(xw > 3.0, xw - window.scale, xw)
        assert np.any(xw > 2.0) and np.any(xw < 0.0)
        expect = on_nodes(obstacle_reference, eps, grid.times()[:, None], xw)
        assert window.obstacle_field().values.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("fn", [counterexample_obstacle, counterexample_exact,
                                    counterexample_in_band])
    @pytest.mark.parametrize("t,x", [
        (0.5, np.array([0.0, 1.0, 2.0 + 1e-12])),
        (np.array([0.0, 1.0 + 1e-12]), 1.0),
        (np.array([0.0, np.nan]), 1.0),
        (0.5, np.array([-1e-300, 1.0])),
        (0.5, np.array([1.0, np.nan])),
    ])
    def test_array_with_one_node_off_window_refused(self, fn, t, x):
        with pytest.raises(ParameterError):
            fn(0.1, t, x)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, -0.1, "0.1", None])
    def test_bad_eps_refused(self, eps):
        for fn in (counterexample_obstacle, counterexample_exact, counterexample_in_band):
            with pytest.raises(ParameterError):
                fn(eps, 0.5, 1.0)
        with pytest.raises(ParameterError):
            counterexample_instance(eps, window_points=11, nt=6)


class TestCounterexampleSolve:
    def test_matches_closed_form_off_band(self):
        window = counterexample_instance(0.1, window_points=101, nt=51)
        grid = window.grid
        prob = ProblemInstance(grid=grid, speed=counterexample_speed(window),
                               cost=CostModel(3.0), u_T=np.zeros(grid.nx),
                               m0=np.ones(grid.nx))
        u = solve_value_function(prob, window.obstacle_field())
        worst = 0.0
        for k in range(grid.nt):
            mask = window.comparison_mask(k)
            diff = np.abs(window.window_values(u, k) - window.exact_window(k))
            if np.any(mask):
                worst = max(worst, float(np.max(diff[mask])))
        assert worst <= 0.05
        # at the canonical speed*dt = dx ratio the scheme is exact off-band
        assert worst <= 1e-9

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_fields_keep_the_arrays_built_for_them(self, eps, monkeypatch):
        # the obstacle and the value function hand their fresh arrays over
        # read-only, so ScalarField keeps them instead of copying
        passed = []
        monkeypatch.setattr(grid_module, "_freeze",
                            lambda values: passed.append(values) or values)
        window = counterexample_instance(eps, window_points=21, nt=11)
        prob = ProblemInstance(grid=window.grid, speed=counterexample_speed(window),
                               cost=CostModel(3.0), u_T=np.zeros(window.grid.nx),
                               m0=np.ones(window.grid.nx))
        solve_value_function(prob, window.obstacle_field())
        assert len(passed) == 2 and all(grid_module._shareable(v) for v in passed)


class TestExtractFront:
    def test_trivial_cases(self):
        grid = TorusGrid(1, (8,), 3, 1.0)
        assert extract_front(full_field(grid, 1.0), 0, 0.0) == set()
        assert extract_front(full_field(grid, -1.0), 0, 0.0) == {
            (i,) for i in range(8)}

    def test_obstacle_mode(self):
        grid = TorusGrid(1, (8,), 3, 1.0)
        vals = np.zeros((3, 8))
        vals[1, 2] = 1.0
        f = ScalarField(grid, vals)
        assert extract_front(f, 1, 0.0, mode="obstacle") == {(2,)}
        with pytest.raises(ParameterError):
            extract_front(f, 1, 0.0, mode="nonsense")

    def test_counterexample_front_membership(self):
        # at t = 0.5 the zero-sublevel front contains exactly the off-cone
        # window cells (the cone carries u = 1 - t > 0)
        window = counterexample_instance(0.0, window_points=81, nt=41)
        grid = window.grid
        k = grid.nt // 2
        t = grid.times()[k]
        vals = np.zeros((grid.nt, grid.nx[0]))
        for kk, tt in enumerate(grid.times()):
            xw = window.scale * grid.axis_coords(0)
            xw = np.where(xw > 3.0, xw - window.scale, xw)
            vals[kk] = np.where(np.abs(xw - 1.0) <= tt, 1.0 - tt, 0.0)
        u = ScalarField(grid, vals)
        front = extract_front(u, k, 0.0)
        xw = window.window_x()
        for j in range(window.window_points):
            if abs(xw[j] - 1.0) <= t - 1e-9:
                assert (j,) not in front        # cone cells excluded
            elif abs(xw[j] - 1.0) > t + 1e-9:
                assert (j,) in front            # off-cone cells included

    def test_blocking_composite_front_empty_at_final_time(self):
        # burning region = {u <= 0} minus active obstacle cells, window only
        window = counterexample_instance(0.0, window_points=81, nt=41)
        grid = window.grid
        prob = ProblemInstance(grid=grid, speed=counterexample_speed(window),
                               cost=CostModel(3.0), u_T=np.zeros(grid.nx),
                               m0=np.ones(grid.nx))
        obstacle = window.obstacle_field()
        u = solve_value_function(prob, obstacle)
        burning = extract_front(u, grid.nt - 1, 0.0) \
            - extract_front(obstacle, grid.nt - 1, 0.0, mode="obstacle")
        in_window = {c for c in burning if c[0] < window.window_points}
        assert in_window == set()
        # sanity: the front is nonempty at earlier times
        k = grid.nt // 2
        burning_mid = extract_front(u, k, 0.0) \
            - extract_front(obstacle, k, 0.0, mode="obstacle")
        assert {c for c in burning_mid if c[0] < window.window_points}
