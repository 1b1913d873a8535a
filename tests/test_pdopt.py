import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import closed_form_uniform_bundle, make_uniform_problem
from frontsteer.certify import _lip_space
from frontsteer.errors import ParameterError
from frontsteer.grid import DensityField, ScalarField, TorusGrid, VecField
from frontsteer.hj import solve_value_function
from frontsteer.model import (CostModel, FiniteControlsSpeed, IsotropicSpeed, cost,
                              cost_conj)
from frontsteer.pdopt import (ProblemInstance, SolverConfig, certificate,
                              _gram_solver, _march_split, _one_sided, _rows,
                              _rows_adjoint, _split_velocity,
                              continuity_residual_rows, evaluate_A, evaluate_B,
                              optimize, recover_f, recover_velocity,
                              subsolution_residual)
from frontsteer.transport import solve_continuity, split_divergence


def _roll_split_divergence(w_plus, w_minus, grid):
    """np.roll form of the split divergence, kept as the reference."""
    out = np.zeros(w_plus.shape[:-1])
    off = w_plus.ndim - 1 - grid.dim
    for a in range(grid.dim):
        flux = w_plus[..., a] + np.roll(w_minus[..., a], -1, off + a)
        out += (flux - np.roll(flux, 1, off + a)) / grid.dx[a]
    return out


def _gauss_problem(n):
    """The nontrivial 1D instance of acceptance criterion 4 on n x (n + 1)."""
    grid = TorusGrid(1, (n,), n + 1, 1.0)
    x = grid.axis_coords(0)
    m0 = sum(np.exp(-((x - 0.5 + shift) ** 2) / (2 * 0.1 ** 2)) for shift in range(-3, 4))
    m0 /= np.sum(m0) * grid.cell_volume
    return ProblemInstance(grid=grid, speed=IsotropicSpeed(1, 1.0), cost=CostModel(3.0),
                           u_T=np.cos(2 * np.pi * x), m0=m0)


class TestProblemInstance:
    def test_rejects_critical_exponent(self):
        grid = TorusGrid(1, (16,), 5, 1.0)
        with pytest.raises(ParameterError):
            ProblemInstance(grid=grid, speed=IsotropicSpeed(1, 1.0),
                            cost=CostModel(2.0), u_T=np.zeros(16), m0=np.ones(16))

    def test_rejects_negative_density(self):
        grid = TorusGrid(1, (16,), 5, 1.0)
        with pytest.raises(ParameterError):
            ProblemInstance(grid=grid, speed=IsotropicSpeed(1, 1.0),
                            cost=CostModel(3.0), u_T=np.zeros(16), m0=-np.ones(16))

    def test_reports_data_properties(self):
        grid = TorusGrid(1, (16,), 5, 1.0)
        u_T = np.sin(2 * np.pi * grid.axis_coords(0))
        prob = ProblemInstance(grid=grid, speed=IsotropicSpeed(1, 1.0),
                               cost=CostModel(3.0), u_T=u_T, m0=2 * np.ones(16))
        assert prob.mass == pytest.approx(2.0)
        assert _lip_space(prob.u_T, grid) == pytest.approx(2 * np.pi, rel=0.1)


class TestObjectives:
    def test_B_zero_fields(self, uniform_problem):
        g = uniform_problem.grid
        m = DensityField(g, np.zeros((g.nt, *g.nx)))
        w = VecField(g, np.zeros((g.nt, *g.nx, 1)))
        assert evaluate_B(uniform_problem, m, w) == 0.0

    def test_B_uniform_closed_form(self, uniform_problem):
        g = uniform_problem.grid
        _, _, m, w = closed_form_uniform_bundle(uniform_problem)
        assert evaluate_B(uniform_problem, m, w) == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_B_cone_violation_sentinel(self, uniform_problem):
        g = uniform_problem.grid
        m = DensityField(g, np.ones((g.nt, *g.nx)))
        w_vals = np.zeros((g.nt, *g.nx, 1))
        w_vals[2, 5, 0] = 2.0                      # |w| > c * m at one node
        details = {}
        val = evaluate_B(uniform_problem, m, VecField(g, w_vals), details=details)
        assert val == np.inf
        assert details["max_violation"] == pytest.approx(1.0)

    def test_A_zero_data(self, uniform_problem):
        g = uniform_problem.grid
        f = ScalarField(g, np.zeros((g.nt, *g.nx)))
        u = solve_value_function(uniform_problem, f)
        assert evaluate_A(uniform_problem, u, f) == 0.0

    def test_A_uniform_closed_form(self, uniform_problem):
        u, f, _, _ = closed_form_uniform_bundle(uniform_problem)
        assert evaluate_A(uniform_problem, u, f) == pytest.approx(-2.0 / 3.0, abs=1e-13)

    def test_A_pure_terminal_reward(self):
        prob = make_uniform_problem(nx=32, nt=9)
        g = prob.grid
        prob = ProblemInstance(grid=g, speed=prob.speed, cost=prob.cost,
                               u_T=np.ones(32), m0=np.ones(32))
        f = ScalarField(g, np.zeros((g.nt, 32)))
        u = solve_value_function(prob, f)          # u == 1 everywhere
        assert evaluate_A(prob, u, f) == pytest.approx(-1.0, abs=1e-13)

    def test_A_terminal_mismatch_refused(self, uniform_problem):
        g = uniform_problem.grid
        f = ScalarField(g, np.zeros((g.nt, *g.nx)))
        u = ScalarField(g, np.ones((g.nt, *g.nx)))
        with pytest.raises(ParameterError):
            evaluate_A(uniform_problem, u, f)


GRIDS = [(1, (16,)), (2, (6, 8)), (1, (17,)), (2, (7, 5))]


class TestOperators:
    @pytest.mark.parametrize("dim,nx", GRIDS)
    def test_rows_adjoint_exact(self, dim, nx):
        grid = TorusGrid(dim, nx, 6, 0.9)
        rng = np.random.default_rng(0)
        m = rng.standard_normal((6, *nx))
        w = rng.standard_normal((5, *nx, 2 * dim))
        y = rng.standard_normal((6, *nx))
        lhs = np.sum(_rows(m, w, np.zeros(nx), grid) * y)
        gm, gw = _rows_adjoint(y, grid)
        rhs = np.sum(m * gm) + np.sum(w * gw)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("dim,nx", [(1, (5,)), (1, (64,)), (2, (6, 7))])
    def test_slice_stencils_bitwise_equal_roll(self, dim, nx):
        grid = TorusGrid(dim, nx, 4, 1.0)
        rng = np.random.default_rng(11)
        wp = np.abs(rng.standard_normal((3, *nx, dim)))
        wm = -np.abs(rng.standard_normal((3, *nx, dim)))
        assert split_divergence(wp, wm, grid).tobytes() \
            == _roll_split_divergence(wp, wm, grid).tobytes()
        # no leading axes, as in one transport level
        assert split_divergence(wp[0], wm[0], grid).tobytes() \
            == _roll_split_divergence(wp[0], wm[0], grid).tobytes()

    @pytest.mark.parametrize("dim,nx", [(1, (5,)), (2, (6, 7))])
    def test_one_sided_differences(self, dim, nx):
        grid = TorusGrid(dim, nx, 4, 1.0)
        phi = np.random.default_rng(12).standard_normal((3, *nx))
        fwd, bwd = _one_sided(phi, grid)
        for a in range(dim):
            ax = 1 + a
            assert fwd[..., a].tobytes() == (
                (np.roll(phi, -1, ax) - phi) / grid.dx[a]).tobytes()
            assert bwd[..., a].tobytes() == (
                (phi - np.roll(phi, 1, ax)) / grid.dx[a]).tobytes()

    @pytest.mark.parametrize("dim,nx", GRIDS)
    def test_gram_solve_inverts_l_lt(self, dim, nx):
        grid = TorusGrid(dim, nx, 9, 0.7)
        b = np.random.default_rng(13).standard_normal((9, *nx))
        x = _gram_solver(grid)(b)
        back = _rows(*_rows_adjoint(x, grid), np.zeros(nx), grid)
        assert np.max(np.abs(back - b)) <= 1e-12 * np.max(np.abs(b))

    def test_subsolution_residual_uniform_closed_form(self, uniform_problem):
        u, f, _, _ = closed_form_uniform_bundle(uniform_problem)
        res = subsolution_residual(uniform_problem, u.values)
        np.testing.assert_allclose(res, f.values[:-1], atol=1e-12)

    @pytest.mark.parametrize("dim,nx", [(1, (16,)), (2, (6, 7))])
    def test_continuity_rows_vanish_on_the_transport_march(self, dim, nx):
        # a nodal momentum split by sign is the donor-cell flux of transport
        grid = TorusGrid(dim, nx, 9, 0.5)
        rng = np.random.default_rng(14)
        v = VecField(grid, rng.uniform(-0.9, 0.9, (9, *nx, dim)) / (dim * max(nx)) / grid.dt)
        m0 = rng.random(nx) + 0.1
        m = solve_continuity(m0, v).values
        prob = ProblemInstance(grid=grid, speed=IsotropicSpeed(dim, 1.0),
                               cost=CostModel(4.0), u_T=np.zeros(nx), m0=m0)
        rows = continuity_residual_rows(prob, m, m[..., None] * v.values)
        assert np.max(np.abs(rows)) <= 1e-12 / grid.dt


def _random_iterate(rng, grid, radius):
    """A density with zeros and split momenta in the split ball of the given
    radius."""
    m = rng.random((grid.nt, *grid.nx)) * (rng.random((grid.nt, *grid.nx)) > 0.2)
    dirs = np.abs(rng.standard_normal((grid.nt - 1, *grid.nx, 2 * grid.dim)))
    dirs[..., grid.dim:] *= -1.0
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    speed = radius * rng.random((grid.nt - 1, *grid.nx))
    return m, dirs * (speed * m[:-1])[..., None]


class TestCertificate:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([1, 2]),
           radius=st.floats(0.2, 2.5), p=st.sampled_from([4.0, 5.0]))
    def test_weak_duality(self, seed, dim, radius, p):
        # any multiplier, any density and split momenta in the cone: the
        # certified A + B is nonnegative, scaled velocities included
        rng = np.random.default_rng(seed)
        grid = TorusGrid(dim, (8,) * dim if dim == 1 else (5, 6), 7, 1.0)
        prob = ProblemInstance(grid=grid, speed=IsotropicSpeed(dim, radius),
                               cost=CostModel(p, kappa=rng.uniform(0.5, 2.0)),
                               u_T=rng.standard_normal(grid.nx),
                               m0=rng.random(grid.nx))
        m, w = _random_iterate(rng, grid, radius)
        y = rng.standard_normal((grid.nt, *grid.nx))
        a_val, b_val = certificate(prob, -y, m, w)
        assert np.isfinite(a_val) and np.isfinite(b_val)
        assert a_val + b_val >= -1e-12
        v, _ = _split_velocity(m[:-1], w, grid)
        assert np.min(_march_split(prob.m0, v, grid)) >= -1e-15

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([1, 2]),
           speed=st.sampled_from(["ball", "diamond", "resting diamond"]))
    def test_weak_duality_off_the_split_set(self, seed, dim, speed):
        # momenta of any size and sign, as a stored bundle may hold them, are
        # moved into the split set first: A + B stays nonnegative
        rng = np.random.default_rng(seed)
        grid = TorusGrid(dim, (8,) * dim if dim == 1 else (5, 6), 7, 1.0)
        if speed == "ball":
            speed = IsotropicSpeed(dim, 0.9)
        else:
            axes = [s * 0.9 * np.eye(dim)[a] for a in range(dim) for s in (1.0, -1.0)]
            rest = [np.zeros(dim)] if speed == "resting diamond" else []
            speed = FiniteControlsSpeed(dim, _constant_maps(*axes, *rest),
                                        c0=0.9 / np.sqrt(dim), c1=0.9)
        prob = _finite_problem(grid, speed, p=4.0)
        m = rng.random((grid.nt, *grid.nx))
        w = 3.0 * rng.standard_normal((grid.nt - 1, *grid.nx, 2 * dim))
        details = {}
        a_val, b_val = certificate(prob, rng.standard_normal(m.shape), m, w, details)
        assert np.isfinite(a_val) and a_val + b_val >= -1e-12
        assert details["max_split_excess"] > 0.0

    def test_scaled_velocities_keep_the_march_nonnegative(self):
        grid = TorusGrid(2, (6, 6), 5, 1.0)
        rng = np.random.default_rng(3)
        m, w = _random_iterate(rng, grid, 2.0)
        v, peak = _split_velocity(m[:-1], w, grid)
        assert peak > 1.0
        load = sum((v[..., a] - v[..., 2 + a]) / grid.dx[a] for a in range(2)) * grid.dt
        assert np.max(load) <= 1.0 + 1e-15
        assert np.min(_march_split(rng.random(grid.nx), v, grid)) >= -1e-15

    def test_finite_hull_weak_duality(self):
        grid = TorusGrid(1, (16,), 17, 1.0)
        pair = FiniteControlsSpeed(1, _constant_maps([0.9], [-0.9]), c0=0.9, c1=0.9)
        prob = _finite_problem(grid, pair, p=3.0)
        rng = np.random.default_rng(5)
        m = rng.random((grid.nt, 16))
        lam = rng.random((grid.nt - 1, 16))
        # split momenta on the segment between (0.9, 0) and (0, -0.9)
        w = np.stack([0.9 * lam * m[:-1], -0.9 * (1 - lam) * m[:-1]], axis=-1)
        y = rng.standard_normal((grid.nt, 16))
        a_val, b_val = certificate(prob, -y, m, w)
        assert np.isfinite(b_val) and a_val + b_val >= -1e-12

    def test_finite_hull_scaling_needs_rest(self):
        # velocities past the split CFL bound get scaled toward rest: outside
        # the square's split hull (B = +inf), inside once the zero map is added
        grid = TorusGrid(2, (6, 6), 3, 1.0)
        maps = ([0.9, 0.0], [-0.9, 0.0], [0.0, 0.9], [0.0, -0.9])
        square = FiniteControlsSpeed(2, _constant_maps(*maps), c0=0.6, c1=0.9)
        resting = FiniteControlsSpeed(2, _constant_maps(*maps, [0.0, 0.0]), c0=0.6, c1=0.9)
        assert not square.split_contains_rest(grid) and resting.split_contains_rest(grid)
        m = np.ones((grid.nt, *grid.nx))
        w = np.zeros((grid.nt - 1, *grid.nx, 4))
        w[..., 0] = 0.9                                  # load 0.9 * 6 * 0.5 = 2.7
        assert _split_velocity(m[:-1], w, grid)[1] == pytest.approx(2.7)
        y = np.zeros_like(m)
        assert certificate(_finite_problem(grid, square, p=4.0), -y, m, w)[1] == np.inf
        a_val, b_val = certificate(_finite_problem(grid, resting, p=4.0), -y, m, w)
        assert np.isfinite(b_val) and a_val + b_val >= -1e-12

    def test_march_reproduces_the_transport_solver(self):
        # net velocities split by sign march exactly as solve_continuity does
        grid = TorusGrid(2, (6, 7), 5, 0.5)
        rng = np.random.default_rng(4)
        v = rng.uniform(-0.5, 0.5, (5, 6, 7, 2)) / 7 / grid.dt
        m0 = rng.random((6, 7))
        split = np.concatenate([np.maximum(v[:-1], 0), np.minimum(v[:-1], 0)], axis=-1)
        assert _march_split(m0, split, grid).tobytes() \
            == solve_continuity(m0, VecField(grid, v)).values.tobytes()


class TestRecover:
    def test_recover_f_zero(self, uniform_problem):
        g = uniform_problem.grid
        m = DensityField(g, np.zeros((g.nt, *g.nx)))
        assert np.all(recover_f(uniform_problem, m).values == 0.0)

    def test_recover_f_sqrt(self, uniform_problem):
        g = uniform_problem.grid
        m = DensityField(g, 4.0 * np.ones((g.nt, *g.nx)))
        np.testing.assert_allclose(recover_f(uniform_problem, m).values, 2.0)

    def test_recover_f_sign_pattern(self, uniform_problem):
        g = uniform_problem.grid
        rng = np.random.default_rng(1)
        vals = np.maximum(rng.standard_normal((g.nt, *g.nx)), 0.0)
        f = recover_f(uniform_problem, DensityField(g, vals))
        assert np.all((f.values > 0) == (vals > 0))
        assert np.min(f.values) >= 0.0

    def test_recover_velocity(self):
        grid = TorusGrid(1, (8,), 3, 1.0)
        m = DensityField(grid, 2.0 * np.ones((3, 8)))
        w_vals = np.zeros((3, 8, 1))
        w_vals[..., 0] = 1.0
        v = recover_velocity(m, VecField(grid, w_vals))
        np.testing.assert_allclose(v.values[..., 0], 0.5)
        # zero momentum and sub-floor density both give zero velocity
        v0 = recover_velocity(m, VecField(grid, np.zeros((3, 8, 1))))
        assert np.all(v0.values == 0.0)
        tiny = DensityField(grid, np.full((3, 8), 1e-14))
        v1 = recover_velocity(tiny, VecField(grid, w_vals), floor=1e-10)
        assert np.all(v1.values == 0.0)

    def test_recover_velocity_speed_cap(self):
        grid = TorusGrid(1, (8,), 3, 1.0)
        m = DensityField(grid, np.full((3, 8), 0.5))
        w_vals = np.full((3, 8, 1), 0.6)           # w/m = 1.2 > c1 = 1
        v = recover_velocity(m, VecField(grid, w_vals), speed=IsotropicSpeed(1, 1.0))
        assert np.max(np.abs(v.values)) <= 1.0 + 1e-12


class TestOptimize:
    def test_uniform_instance_reaches_closed_form(self, uniform_problem, uniform_bundle):
        d = uniform_bundle.diagnostics
        assert d.converged and d.iterations <= 5000
        assert np.max(np.abs(uniform_bundle.m.values - 1.0)) <= 1e-2
        assert d.b_history[-1] == pytest.approx(2.0 / 3.0, abs=1e-3)
        assert d.a_history[-1] == pytest.approx(-2.0 / 3.0, abs=1e-3)
        scale = max(abs(d.a_history[-1]), abs(d.b_history[-1]))
        assert abs(d.final_gap) / scale <= 1e-3
        assert d.final_gap >= -1e-9

    def test_uniform_multiplier_matches_value_function(self, uniform_bundle):
        grid = uniform_bundle.u.grid
        tt = grid.times().reshape(-1, 1)
        expect = np.broadcast_to(1.0 - tt, uniform_bundle.u.values.shape)
        np.testing.assert_allclose(uniform_bundle.u.values, expect, atol=2e-3)

    def test_fenchel_coupling_nodewise(self, uniform_problem, uniform_bundle):
        c = uniform_problem.cost
        defect = np.abs(cost(c, uniform_bundle.f.values)
                        + cost_conj(c, uniform_bundle.m.values)
                        - uniform_bundle.f.values * uniform_bundle.m.values)
        assert np.mean(defect) <= 1e-6

    def test_cone_and_positivity_post_projection(self, uniform_bundle):
        assert np.min(uniform_bundle.m.values) >= 0.0
        wnorm = np.abs(uniform_bundle.w.values[..., 0])
        assert np.max(wnorm - uniform_bundle.m.values) <= 1e-12

    def test_continuity_residual_trend(self, uniform_bundle):
        hist = uniform_bundle.diagnostics.cont_history
        half = len(hist) // 2
        assert half >= 2
        assert np.median(hist[:half]) > np.median(hist[-half:])

    def test_certified_gap_never_negative(self, uniform_bundle):
        d = uniform_bundle.diagnostics
        assert min(d.gap_history) >= -1e-12
        np.testing.assert_array_equal(np.array(d.a_history) + np.array(d.b_history),
                                      d.gap_history)

    @pytest.mark.parametrize("dim,p,value", [(1, 3.0, 2.0 / 3.0), (2, 4.0, 0.75)])
    def test_uniform_instances_certify_in_ten_iterations(self, dim, p, value):
        prob = make_uniform_problem(nx=64 if dim == 1 else 16,
                                    nt=65 if dim == 1 else 17, dim=dim, p=p)
        stopped = optimize(prob, SolverConfig(max_iters=10, tol_gap=1e-3, tol_cont=1e-4))
        assert stopped.diagnostics.converged
        # two iterations on, the bracket [-A, B] is the closed-form value
        d = optimize(prob, SolverConfig(max_iters=12, tol_gap=0.0, tol_cont=0.0)).diagnostics
        assert d.iterations == 12
        assert d.a_history[-1] == pytest.approx(-value, abs=1e-12)
        assert d.b_history[-1] == pytest.approx(value, abs=1e-12)

    def test_degenerate_zero_mass(self):
        prob = make_uniform_problem(nx=16, nt=9, m0_scale=0.0)
        with pytest.warns(UserWarning):
            bundle = optimize(prob, SolverConfig(max_iters=50))
        assert np.all(bundle.m.values == 0.0)
        assert np.all(bundle.w.values == 0.0)
        assert bundle.diagnostics.b_history[-1] == 0.0
        assert bundle.diagnostics.converged

    def test_deep_convergence_weak_duality_floor(self):
        # drive the uniform instance to near machine precision: the final gap
        # must sit above the weak-duality floor
        prob = make_uniform_problem(nx=32, nt=33)
        norm = 2.231
        cfg = SolverConfig(max_iters=40000, tol_gap=1e-11, tol_cont=1e-10,
                           sigma=0.98 * 0.125 / norm, tau=0.98 / (0.125 * norm))
        bundle = optimize(prob, cfg)
        d = bundle.diagnostics
        assert d.converged
        assert -1e-9 <= d.final_gap <= 1e-9

    def test_mass_scaling_of_optimum(self):
        for lam in (0.5, 2.0):
            prob = make_uniform_problem(nx=32, nt=33, m0_scale=lam)
            bundle = optimize(prob, SolverConfig(max_iters=5000, tol_gap=1e-3,
                                                 tol_cont=1e-4))
            assert bundle.diagnostics.converged
            assert np.max(np.abs(bundle.m.values - lam)) <= 1e-2

    def test_2d_uniform_instance(self):
        prob = make_uniform_problem(nx=16, nt=17, dim=2, p=4.0)
        bundle = optimize(prob, SolverConfig(max_iters=5000, tol_gap=1e-3,
                                             tol_cont=1e-3))
        d = bundle.diagnostics
        assert d.converged
        assert np.max(np.abs(bundle.m.values - 1.0)) <= 1e-2
        assert d.b_history[-1] == pytest.approx(0.75, abs=1e-3)

    def test_step_rule_violation_refused(self, uniform_problem):
        with pytest.raises(ParameterError):
            optimize(uniform_problem, SolverConfig(max_iters=10, tau=10.0, sigma=10.0))
        with pytest.raises(ParameterError):
            optimize(uniform_problem, SolverConfig(max_iters=10, tau=20.0, sigma=0.05))

    def test_non_converged_flag(self):
        bundle = optimize(_gauss_problem(32), SolverConfig(max_iters=30))
        assert not bundle.diagnostics.converged
        assert bundle.diagnostics.iterations == 30
        assert len(bundle.diagnostics.gap_history) == 30
        assert bundle.diagnostics.notes

    def test_split_load_note(self):
        # 2D at dt = dx: the split ball lets the load reach sqrt(2*dim) c dt/dx
        # = 2, the march is scaled, and the non-converged run says so
        grid = TorusGrid(2, (8, 8), 9, 1.0)
        x, y = grid.meshgrid()
        m0 = np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / (2 * 0.1 ** 2))
        prob = ProblemInstance(grid=grid, speed=IsotropicSpeed(2, 1.0), cost=CostModel(4.0),
                               u_T=np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y),
                               m0=m0 / (np.sum(m0) * grid.cell_volume))
        notes = optimize(prob, SolverConfig(max_iters=50)).diagnostics.notes
        assert any("= 2 > 1" in n and "nt >= 17" in n for n in notes)

    @pytest.mark.parametrize("n,cap", [(64, 600), (128, 1000)])
    def test_default_steps_stop_within_the_iteration_budget(self, n, cap):
        # tau = 16, sigma = 0.06 pinned: grid-independent counts (460 and 850
        # measured when the steps were chosen)
        prob = _gauss_problem(n)
        bundle = optimize(prob, SolverConfig(max_iters=cap, tol_gap=1e-3, tol_cont=1e-3,
                                             tau=16.0, sigma=0.06))
        d = bundle.diagnostics
        assert d.converged and d.iterations <= cap and not d.notes
        assert d.final_gap <= 1e-3 * max(abs(d.a_history[-1]), abs(d.b_history[-1]))
        assert min(d.gap_history) >= -1e-12

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SolverConfig(max_iters=0)
        with pytest.raises(ParameterError):
            SolverConfig(over_relax=1.5)


def _constant_maps(*vectors):
    return tuple((lambda x, v=np.array(v, dtype=float): np.broadcast_to(v, np.shape(x)))
                 for v in vectors)


def _finite_problem(grid, speed, p):
    coords = grid.meshgrid()
    u_T = np.prod([np.cos(2 * np.pi * c) for c in coords], axis=0)
    m0 = 1.0 + 0.5 * np.prod([np.sin(2 * np.pi * c) for c in coords], axis=0)
    return ProblemInstance(grid=grid, speed=speed, cost=CostModel(p=p), u_T=u_T, m0=m0)


class TestOptimizeFiniteControls:
    """``optimize`` on finite control hulls, through the exact joint prox."""

    @pytest.mark.parametrize("case", ["1d_pair", "2d_square"])
    def test_iterates_stay_in_the_cone(self, case):
        if case == "1d_pair":
            grid = TorusGrid(1, (16,), 17, 1.0)
            speed = FiniteControlsSpeed(1, _constant_maps([0.9], [-0.9]), c0=0.9, c1=0.9)
            prob, iters = _finite_problem(grid, speed, p=3.0), 300
        else:
            grid = TorusGrid(2, (8, 8), 9, 1.0)
            speed = FiniteControlsSpeed(
                2, _constant_maps([0.9, 0.0], [-0.9, 0.0], [0.0, 0.9], [0.0, -0.9]),
                c0=0.6, c1=0.9)
            prob, iters = _finite_problem(grid, speed, p=4.0), 50
        bundle = optimize(prob, SolverConfig(max_iters=iters, tol_gap=1e-12,
                                             tol_cont=1e-12))
        assert bundle.diagnostics.iterations == iters
        m, w = bundle.m.values, bundle.w.values
        assert np.min(m) >= 0.0
        assert speed.cone_violation(grid, m, w) <= 1e-12
        assert np.isfinite(evaluate_B(prob, bundle.m, bundle.w))

    def test_pair_hull_certifies_inside_the_ball(self):
        # split, the hull of {+0.9, -0.9} is the segment a + |b| = 0.9 m, strictly
        # inside the ball's quarter disc |(a, b)| <= 0.9 m: both runs certify,
        # and the pair's optimum cannot lie below the ball's
        grid = TorusGrid(1, (16,), 17, 1.0)
        # steps balanced for this instance: 493 and 514 iterations
        config = SolverConfig(max_iters=3000, tol_gap=1e-3, tol_cont=1e-3, tau=1.0, sigma=0.96)
        pair = FiniteControlsSpeed(1, _constant_maps([0.9], [-0.9]), c0=0.9, c1=0.9)
        finite = optimize(_finite_problem(grid, pair, p=3.0), config).diagnostics
        ball = optimize(_finite_problem(grid, IsotropicSpeed(1, 0.9), p=3.0), config).diagnostics
        assert finite.converged and ball.converged
        assert min(finite.gap_history) >= -1e-12 and min(ball.gap_history) >= -1e-12
        assert finite.b_history[-1] >= -ball.a_history[-1] - 1e-12
