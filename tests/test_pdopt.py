import numpy as np
import pytest

from conftest import closed_form_uniform_bundle, make_uniform_problem
from frontsteer.certify import _lip_space
from frontsteer.errors import ParameterError
from frontsteer.grid import DensityField, ScalarField, TorusGrid, VecField
from frontsteer.hj import solve_value_function
from frontsteer.model import (CostModel, FiniteControlsSpeed, IsotropicSpeed, cost,
                              cost_conj)
from frontsteer.pdopt import (ProblemInstance, SolverConfig,
                              _centered_divergence, _centered_gradient, _rows,
                              _rows_adjoint, evaluate_A, evaluate_B, optimize,
                              recover_f, recover_velocity,
                              subsolution_residual)


def _roll_divergence(w, grid):
    """np.roll form of the centered divergence, kept as the reference."""
    out = np.zeros(w.shape[:-1])
    off = w.ndim - 1 - grid.dim
    for a in range(grid.dim):
        wa = w[..., a]
        out += (np.roll(wa, -1, off + a) - np.roll(wa, 1, off + a)) / (2.0 * grid.dx[a])
    return out


def _roll_gradient(phi, grid):
    """np.roll form of the centered gradient, kept as the reference."""
    out = np.empty((*phi.shape, grid.dim))
    off = phi.ndim - grid.dim
    for a in range(grid.dim):
        out[..., a] = (np.roll(phi, -1, off + a) - np.roll(phi, 1, off + a)) \
            / (2.0 * grid.dx[a])
    return out


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


class TestOperators:
    @pytest.mark.parametrize("dim,nx", [(1, (16,)), (2, (6, 8))])
    def test_rows_adjoint_exact(self, dim, nx):
        grid = TorusGrid(dim, nx, 6, 0.9)
        rng = np.random.default_rng(0)
        m = rng.standard_normal((6, *nx))
        w = rng.standard_normal((5, *nx, dim))
        y = rng.standard_normal((6, *nx))
        lhs = np.sum(_rows(m, w, np.zeros(nx), grid) * y)
        gm, gw = _rows_adjoint(y, grid)
        rhs = np.sum(m * gm) + np.sum(w * gw)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("dim,nx", [(1, (5,)), (1, (64,)), (2, (6, 7))])
    def test_slice_stencils_bitwise_equal_roll(self, dim, nx):
        grid = TorusGrid(dim, nx, 4, 1.0)
        rng = np.random.default_rng(11)
        phi = rng.standard_normal((3, *nx))
        w = rng.standard_normal((3, *nx, dim))
        assert _centered_gradient(phi, grid).tobytes() \
            == _roll_gradient(phi, grid).tobytes()
        assert _centered_divergence(w, grid).tobytes() \
            == _roll_divergence(w, grid).tobytes()
        # no leading axes, as in u_T-sized slices
        assert _centered_gradient(phi[0], grid).tobytes() \
            == _roll_gradient(phi[0], grid).tobytes()

    def test_subsolution_residual_uniform_closed_form(self, uniform_problem):
        u, f, _, _ = closed_form_uniform_bundle(uniform_problem)
        res = subsolution_residual(uniform_problem, u.values)
        np.testing.assert_allclose(res, f.values[:-1], atol=1e-12)


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
        assert np.median(hist[:50]) > np.median(hist[-50:])

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

    def test_non_converged_flag(self, uniform_problem):
        bundle = optimize(uniform_problem, SolverConfig(max_iters=3))
        assert not bundle.diagnostics.converged
        assert bundle.diagnostics.iterations == 3
        assert bundle.diagnostics.notes

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

    def test_pair_hull_reproduces_the_isotropic_path(self):
        # the hull of {+0.9, -0.9} is the ball of radius 0.9: same prox, same iterates
        grid = TorusGrid(1, (16,), 17, 1.0)
        config = SolverConfig(max_iters=3000, tol_gap=1e-12, tol_cont=1e-12)
        pair = FiniteControlsSpeed(1, _constant_maps([0.9], [-0.9]), c0=0.9, c1=0.9)
        finite = optimize(_finite_problem(grid, pair, p=3.0), config)
        ball = optimize(_finite_problem(grid, IsotropicSpeed(1, 0.9), p=3.0), config)
        assert finite.diagnostics.iterations == ball.diagnostics.iterations == 3000
        assert np.max(np.abs(finite.m.values - ball.m.values)) <= 1e-9
        assert abs(finite.diagnostics.b_history[-1] - ball.diagnostics.b_history[-1]) <= 1e-12
