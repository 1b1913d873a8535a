import numpy as np
import pytest

from conftest import closed_form_uniform_bundle, make_uniform_problem
from frontsteer.errors import ParameterError
from frontsteer.grid import (DensityField, ScalarField, TorusGrid, VecField,
                             constant_field)
from frontsteer.hj import (counterexample_instance, counterexample_speed,
                           solve_value_function)
from frontsteer.model import CostModel, FiniteControlsSpeed, IsotropicSpeed
from frontsteer.pdopt import ProblemInstance, recover_velocity
from frontsteer.transport import upwind_directional_derivative
from frontsteer import certify
from frontsteer.certify import (check_holder, check_ibp_inequality,
                                check_pointwise_hj, check_subsolution,
                                check_weak_solution, duality_gap,
                                holder_constant, reports_to_json)


def fourier_scalar_reference(rng, grid, modes=3):
    """Per-node form of ``certify._fourier_scalar``, kept as the bitwise
    reference for the deduplicated evaluation."""
    t = grid.times()[:, None]
    out = np.zeros((grid.nt, grid.n_space))
    x = np.stack(grid.meshgrid(), axis=-1).reshape(-1, grid.dim)
    for _ in range(modes):
        kvec = rng.integers(-3, 4, size=grid.dim)
        omega = rng.uniform(-2.0, 2.0)
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.uniform(0.3, 1.0)
        out += amp * np.cos(2 * np.pi * (x @ kvec + omega * t) + phase)
    return out.reshape(grid.nt, *grid.nx)


def subsolution_reference(u, f, pairs):
    """Trial-outer form of the ``check_subsolution`` sums, kept as the bitwise
    reference for the level-outer loop: (worst lhs - rhs, its trial)."""
    grid = u.grid
    vol = grid.cell_volume
    worst = (-np.inf, None)
    for trial, (v, phi) in enumerate(pairs):
        lhs = 0.0
        rhs = 0.0
        for k in range(grid.nt - 1):
            du = (u.values[k + 1] - u.values[k])
            dd = upwind_directional_derivative(u.values[k + 1], v.values[k], grid)
            lhs += -vol * float(np.sum(phi[k] * (du + grid.dt * dd)))
            rhs += vol * grid.dt * float(np.sum(f.values[k] * phi[k]))
        if lhs - rhs > worst[0]:
            worst = (lhs - rhs, trial)
    return worst


@pytest.fixture(scope="module")
def closed_bundle(uniform_problem):
    return closed_form_uniform_bundle(uniform_problem)


class TestSelfConsistency:
    def test_all_seven_checks_pass_on_closed_form(self, uniform_problem, closed_bundle):
        """The certifier's own self-test: every check passes simultaneously
        on the analytic optimum of the uniform instance."""
        u, f, m, w = closed_bundle
        reports = certify.battery(uniform_problem, u, f, m, certify.split_by_sign(w),
                                  seed=0, tol_gap=1e-3)
        assert [r.name for r in reports] == [
            "ibp_inequality", "weak_identity_from_start", "weak_identity_to_end",
            "pointwise_hj", "subsolution", "holder_bound", "duality_gap"]
        assert all(r.passed for r in reports)
        const = holder_constant(3.0, 1, 1.0, 0.5)
        assert np.isfinite(const) and const > 0
        assert abs(reports[-1].lhs) <= 1e-6

    def test_reports_serialize(self, uniform_problem, closed_bundle, tmp_path):
        u, f, m, w = closed_bundle
        rep = check_ibp_inequality(u, f, m, 0, 10)
        text = reports_to_json([rep], tmp_path / "cert.json")
        assert "ibp_inequality" in text
        assert (tmp_path / "cert.json").exists()

    def test_checks_deterministic_given_seed(self, uniform_problem, closed_bundle):
        u, f, _, _ = closed_bundle
        a = check_subsolution(u, f, uniform_problem.speed, trials=4, seed=3)
        b = check_subsolution(u, f, uniform_problem.speed, trials=4, seed=3)
        assert a == b
        c = check_holder(u, f, 3.0, uniform_problem.speed, samples=50, seed=3)
        d = check_holder(u, f, 3.0, uniform_problem.speed, samples=50, seed=3)
        assert c == d


class TestIbpInequality:
    def test_time_constant_value_is_exact_zero(self, uniform_problem):
        # f = 0 with constant terminal payoff gives u constant in time; the
        # signed quantity is exactly zero for any conserved density
        g = uniform_problem.grid
        prob = ProblemInstance(grid=g, speed=uniform_problem.speed,
                               cost=uniform_problem.cost,
                               u_T=2.0 * np.ones(g.nx), m0=np.ones(g.nx))
        f = constant_field(g, 0.0)
        u = solve_value_function(prob, f)
        m = DensityField(g, np.ones((g.nt, *g.nx)))
        rep = check_ibp_inequality(u, f, m, 0, g.nt - 1)
        assert rep.lhs == pytest.approx(0.0, abs=1e-13)
        assert rep.passed

    def test_uniform_optimum_equality(self, uniform_problem, closed_bundle):
        u, f, m, _ = closed_bundle
        rep = check_ibp_inequality(u, f, m, 0, u.grid.nt - 1)
        assert abs(rep.lhs) <= 1e-3 * 1.0          # equality within 1e-3 * mass
        assert rep.passed

    def test_level_order_enforced(self, uniform_problem, closed_bundle):
        u, f, m, _ = closed_bundle
        with pytest.raises(ParameterError):
            check_ibp_inequality(u, f, m, 10, 2)

    def test_grid_mismatch(self, uniform_problem, closed_bundle):
        u, f, m, _ = closed_bundle
        other = constant_field(TorusGrid(1, (16,), 65, 1.0), 0.0)
        with pytest.raises(ParameterError):
            check_ibp_inequality(other, f, m, 0, 4)


class TestWeakSolution:
    def test_uniform_optimum_identities(self, uniform_problem, closed_bundle):
        u, f, m, _ = closed_bundle
        r1, r2 = check_weak_solution(uniform_problem, u, f, m)
        assert r1.passed and r2.passed
        assert r1.lhs <= 1e-3 and r2.lhs <= 1e-3

    def test_zero_density_trivial(self, uniform_problem):
        g = uniform_problem.grid
        prob = ProblemInstance(grid=g, speed=uniform_problem.speed,
                               cost=uniform_problem.cost,
                               u_T=np.zeros(g.nx), m0=np.zeros(g.nx))
        zero_s = constant_field(g, 0.0)
        m = DensityField(g, np.zeros((g.nt, *g.nx)))
        r1, r2 = check_weak_solution(prob, zero_s, zero_s, m)
        assert r1.passed and r2.passed

    def test_perturbation_detected(self, uniform_problem, closed_bundle):
        u, f, m, _ = closed_bundle
        vals = m.values.copy()
        vals[m.grid.nt // 2, 3] += 0.1
        m_bad = DensityField(m.grid, vals)
        r1, r2 = check_weak_solution(uniform_problem, u, f, m_bad)
        assert not (r1.passed and r2.passed)

    def test_precondition_f_equals_k_of_m(self, uniform_problem, closed_bundle):
        u, f, m, _ = closed_bundle
        f_bad = ScalarField(f.grid, f.values + 0.5)
        r1, r2 = check_weak_solution(uniform_problem, u, f_bad, m)
        assert not r1.passed
        assert r1.name == "weak_solution_precondition"


class TestPointwiseHJ:
    def test_uniform_optimum_zero_residual(self, uniform_problem, closed_bundle):
        u, f, m, w = closed_bundle
        v = recover_velocity(m, w, speed=uniform_problem.speed)
        rep = check_pointwise_hj(u, f, m, v)
        assert rep.passed and rep.lhs == pytest.approx(0.0, abs=1e-13)

    def test_constant_obstacle_zero_residual(self, uniform_problem):
        g = uniform_problem.grid
        F = 0.8
        tt = g.times().reshape(-1, 1)
        u = ScalarField(g, np.broadcast_to((1.0 - tt) * F, (g.nt, *g.nx)).copy())
        f = constant_field(g, F)
        m = DensityField(g, np.ones((g.nt, *g.nx)))
        v = VecField(g, np.zeros((g.nt, *g.nx, 1)))
        rep = check_pointwise_hj(u, f, m, v)
        assert rep.passed and rep.lhs == pytest.approx(0.0, abs=1e-12)

    def test_wrong_slope_detected(self, uniform_problem):
        g = uniform_problem.grid
        F = 0.8
        tt = g.times().reshape(-1, 1)
        u = ScalarField(g, np.broadcast_to(2.0 * (1.0 - tt) * F,
                                           (g.nt, *g.nx)).copy())
        f = constant_field(g, F)
        m = DensityField(g, np.ones((g.nt, *g.nx)))
        v = VecField(g, np.zeros((g.nt, *g.nx, 1)))
        rep = check_pointwise_hj(u, f, m, v)
        assert not rep.passed
        assert rep.lhs == pytest.approx(1.0)       # relative residual = F/F


class TestSubsolution:
    def test_value_function_satisfies_inequality(self):
        prob = make_uniform_problem(nx=48, nt=49)
        rng = np.random.default_rng(9)
        raw = certify._fourier_scalar(rng, prob.grid)
        f = ScalarField(prob.grid, raw ** 2 / (1 + np.max(raw ** 2)))
        u = solve_value_function(prob, f)
        rep = check_subsolution(u, f, prob.speed, trials=20, seed=1)
        assert rep.passed

    def test_zero_value_trivial(self, uniform_problem):
        g = uniform_problem.grid
        u = constant_field(g, 0.0)
        rng = np.random.default_rng(2)
        f = ScalarField(g, np.abs(rng.standard_normal((g.nt, *g.nx))))
        rep = check_subsolution(u, f, uniform_problem.speed, trials=5, seed=0)
        assert rep.passed and rep.lhs <= 0.0

    @pytest.mark.parametrize("nx", [(24,), (12, 10)])
    def test_level_outer_bitwise_equal_reference(self, nx):
        grid = TorusGrid(len(nx), nx, 9, 1.0)
        rng = np.random.default_rng(5)
        shape = (grid.nt, *grid.nx)
        u = ScalarField(grid, rng.standard_normal(shape))
        f = ScalarField(grid, rng.random(shape))
        pairs = [(VecField(grid, rng.standard_normal((*shape, grid.dim))), rng.random(shape))
                 for _ in range(6)]
        rep = check_subsolution(u, f, IsotropicSpeed(grid.dim, 1.0), pairs=pairs)
        lhs, trial = subsolution_reference(u, f, pairs)
        assert np.float64(rep.lhs).tobytes() == np.float64(lhs).tobytes()
        assert rep.worst_location == (trial,)

    def test_sign_discrimination(self, uniform_problem):
        # u = +t is a supersolution (passes); u = -t violates the inequality
        g = uniform_problem.grid
        tt = g.times().reshape(-1, 1)
        f = constant_field(g, 0.0)
        phi = np.ones((g.nt, *g.nx))
        v = VecField(g, np.zeros((g.nt, *g.nx, 1)))
        up = ScalarField(g, np.broadcast_to(tt, (g.nt, *g.nx)).copy())
        um = ScalarField(g, np.broadcast_to(-tt, (g.nt, *g.nx)).copy())
        rep_p = check_subsolution(up, f, uniform_problem.speed, pairs=[(v, phi)])
        rep_m = check_subsolution(um, f, uniform_problem.speed, pairs=[(v, phi)])
        assert rep_p.passed and rep_p.lhs == pytest.approx(-1.0)
        assert not rep_m.passed and rep_m.lhs == pytest.approx(1.0)


    @pytest.mark.parametrize("nx", [(64, 64), (48, 48)])
    def test_fourier_field_bitwise_equal_reference(self, nx):
        grid = TorusGrid(2, nx, 17, 1.0)
        for seed in range(3):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(2):
                got = certify._fourier_scalar(rng, grid)
                assert got.tobytes() == fourier_scalar_reference(ref_rng, grid).tobytes()
            # same draws in the same order
            assert rng.random() == ref_rng.random()


class TestHolder:
    def test_constant_monotone_in_beta(self):
        assert holder_constant(3.0, 1, 1.0, 0.0) < holder_constant(3.0, 1, 1.0, 0.5)

    def test_constant_radius_scaling(self):
        # doubling c0 divides the constant by 2^(N/p)
        for N, p in ((1, 3.0), (2, 4.0)):
            c1 = holder_constant(p, N, 1.0, 0.3)
            c2 = holder_constant(p, N, 2.0, 0.3)
            assert c2 == pytest.approx(c1 / 2 ** (N / p), rel=1e-12)

    def test_constant_against_quadrature_oracle(self):
        # independent oracle: substitute rho = s^4 to regularize the endpoint
        # singularity, then dense trapezoid quadrature
        p, N, c0, beta = 3.0, 1, 1.0, 0.5
        q = p / (p - 1.0)
        expo = N * (1.0 - q)
        s = np.linspace(0.0, 0.5 ** 0.25, 400_001)
        integrand = 4.0 * s ** (4.0 * expo + 3.0)
        integral = np.trapezoid(integrand, s)
        ball = 2.0                                 # 1-ball volume
        oracle = (2.0 * integral ** (1.0 / q) * ball ** (-1.0 / p)
                  * (1.0 - beta ** 2) ** (-N / (2 * p)) * c0 ** (-N / p))
        got = holder_constant(p, N, c0, beta)
        assert got == pytest.approx(oracle, rel=1e-6)

    def test_divergent_exponent_refused(self):
        with pytest.raises(ParameterError):
            holder_constant(2.0, 1, 1.0, 0.5)
        with pytest.raises(ParameterError):
            holder_constant(3.0, 2, 1.0, 0.5)

    def test_zero_obstacle_trivially_bounded(self):
        prob = make_uniform_problem(nx=48, nt=49)
        rng = np.random.default_rng(3)
        u_T = 0.5 * np.cos(2 * np.pi * prob.grid.axis_coords(0))
        prob2 = ProblemInstance(grid=prob.grid, speed=prob.speed, cost=prob.cost,
                                u_T=u_T, m0=np.ones(48))
        f = constant_field(prob.grid, 0.0)
        u = solve_value_function(prob2, f)
        rep = check_holder(u, f, 3.0, prob.speed, samples=500, seed=4)
        assert rep.passed

    def test_counterexample_bound_holds(self):
        window = counterexample_instance(0.1, window_points=201, nt=101)
        grid = window.grid
        prob = ProblemInstance(grid=grid, speed=counterexample_speed(window),
                               cost=CostModel(3.0), u_T=np.zeros(grid.nx),
                               m0=np.ones(grid.nx))
        f = window.obstacle_field()
        u = solve_value_function(prob, f)
        rep = check_holder(u, f, 3.0, prob.speed, samples=1000, seed=5)
        assert rep.passed

    def test_adversarial_scaled_bound_detected(self):
        window = counterexample_instance(0.1, window_points=201, nt=101)
        grid = window.grid
        prob = ProblemInstance(grid=grid, speed=counterexample_speed(window),
                               cost=CostModel(3.0), u_T=np.zeros(grid.nx),
                               m0=np.ones(grid.nx))
        f = window.obstacle_field()
        u = solve_value_function(prob, f)
        rep = check_holder(u, f, 3.0, prob.speed, samples=1000, seed=5,
                           bound_scale=0.01)
        assert not rep.passed

    def test_variable_radius_skipped(self, uniform_problem, closed_bundle):
        u, f, _, _ = closed_bundle
        radius = np.full(64, 1.0)
        radius[0] = 0.9
        rep = check_holder(u, f, 3.0, IsotropicSpeed(1, radius), samples=10, seed=0)
        assert rep.skipped and rep.passed


class TestDualityGap:
    def test_closed_form_zero_gap(self, uniform_problem, closed_bundle):
        assert abs(duality_gap(uniform_problem, *closed_bundle)) <= 1e-6

    def test_suboptimal_primal_positive_gap(self, uniform_problem, closed_bundle):
        _, _, m, w = closed_bundle
        g = uniform_problem.grid
        f0 = constant_field(g, 0.0)
        u0 = solve_value_function(uniform_problem, f0)    # u == 0
        gap = duality_gap(uniform_problem, u0, f0, m, w)
        assert gap == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_weak_duality_floor_random_feasible(self, uniform_problem):
        # any feasible pair: build (u, f) from the residual itself and (m, w)
        # by transporting nothing
        g = uniform_problem.grid
        rng = np.random.default_rng(6)
        from frontsteer.pdopt import subsolution_residual
        u_vals = 0.3 * certify._fourier_scalar(rng, g)
        u_vals[-1] = 0.0
        res = subsolution_residual(uniform_problem, u_vals)
        f_vals = np.concatenate([np.maximum(res, 0.0), np.zeros((1, *g.nx))])
        u = ScalarField(g, u_vals)
        f = ScalarField(g, f_vals)
        m = DensityField(g, np.ones((g.nt, *g.nx)))
        w = VecField(g, np.zeros((g.nt, *g.nx, 1)))
        gap = duality_gap(uniform_problem, u, f, m, w)
        assert gap >= -1e-9

    def test_off_row_bundles_get_a_finite_bracket(self, uniform_problem, closed_bundle):
        # a bundle off the continuity rows or off u(T) = u_T still has a
        # certificate: its feasible points are built, not checked
        u, f, m, w = closed_bundle
        g = uniform_problem.grid
        bad_m_vals = m.values.copy()
        bad_m_vals[5, 7] += 0.3                    # breaks continuity rows
        bad_u = ScalarField(g, u.values + 0.1)     # breaks u(T) = u_T
        for uu, mm in ((u, DensityField(g, bad_m_vals)), (bad_u, m)):
            details = {}
            gap = duality_gap(uniform_problem, uu, f, mm, w, details=details)
            assert np.isfinite(gap) and gap >= -1e-12
            assert gap == details["A"] + details["B"]

    def test_pair_and_sign_split_agree_on_signed_momenta(self, uniform_problem):
        # a nodal w split by sign is the pair (max(w, 0), min(w, 0))
        g = uniform_problem.grid
        rng = np.random.default_rng(2)
        m = DensityField(g, 1.0 + 0.5 * rng.random((g.nt, *g.nx)))
        w_vals = 0.3 * rng.standard_normal((g.nt, *g.nx, 1)) * m.values[..., None]
        u = ScalarField(g, np.zeros((g.nt, *g.nx)))
        pair = (VecField(g, np.maximum(w_vals, 0.0)), VecField(g, np.minimum(w_vals, 0.0)))
        assert duality_gap(uniform_problem, u, u, m, VecField(g, w_vals)) \
            == duality_gap(uniform_problem, u, u, m, pair)

    def test_finite_hull_without_rest_reads_inf(self):
        # split load 0.9 * 16 * (1/8) = 1.8 > 1 must be scaled, which leaves
        # the hull of {+-0.9}: B = +inf, and details say why
        g = TorusGrid(1, (16,), 9, 1.0)
        maps = tuple((lambda x, c=c: np.full(np.shape(x), c)) for c in (0.9, -0.9))
        speed = FiniteControlsSpeed(1, maps, c0=0.9, c1=0.9)
        assert not speed.split_contains_rest(g)
        problem = ProblemInstance(grid=g, speed=speed, cost=CostModel(3.0),
                                  u_T=np.zeros(16), m0=np.ones(16))
        m = DensityField(g, np.ones((g.nt, 16)))
        w = VecField(g, np.full((g.nt, 16, 1), 0.9))
        u = ScalarField(g, np.zeros((g.nt, 16)))
        details = {}
        assert duality_gap(problem, u, u, m, w, details=details) == np.inf
        assert details["B"] == np.inf and details["b_inf_without_rest"]
        assert details["max_split_load"] == pytest.approx(1.8)
        report = certify.battery(problem, u, u, m, certify.split_by_sign(w),
                                 seed=0, tol_gap=1e-3)[-1]
        assert report.name == "duality_gap" and not report.passed
