import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (between_lattice_hull, closed_form_uniform_bundle, full_field,
                      make_uniform_problem, traced_peak, trial_speed)
from frontsteer.errors import ParameterError
from frontsteer.grid import (DensityField, ScalarField, TorusGrid, VecField, interp_space,
                             norm_lp)
from frontsteer.hj import (counterexample_instance, counterexample_speed,
                           solve_value_function)
from frontsteer.model import CostModel, FiniteControlsSpeed, IsotropicSpeed, cost_deriv_conj
from frontsteer.pdopt import ProblemInstance, recover_velocity
from frontsteer.transport import one_sided, split_by_sign, upwind_directional_derivative
from frontsteer import certify, pdopt
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


def sample_admissible_field_reference(speed, grid, rng):
    """Whole-field form of ``certify.sample_admissible_field`` on
    ``fourier_scalar_reference``, kept as the bitwise reference for the draw
    evaluated from its modes."""
    if isinstance(speed, IsotropicSpeed):
        raw = np.stack([fourier_scalar_reference(rng, grid) for _ in range(grid.dim)], axis=-1)
        scale = 0.98 * speed.radius_nodes(grid.nx) / (1.0 + np.linalg.norm(raw, axis=-1))
        return VecField(grid, raw * scale[..., None])
    vels = speed.velocities_at(np.stack(grid.meshgrid(), axis=-1))
    logits = np.stack([fourier_scalar_reference(rng, grid) for _ in range(len(vels))])
    lam = np.exp(logits - np.max(logits, axis=0))
    lam /= np.sum(lam, axis=0)
    return VecField(grid, np.einsum("mt...,m...d->t...d", lam, vels))


def admissible_pairs_reference(speed, grid, seed, trials):
    """The test pairs ``check_subsolution`` samples, drawn as whole fields:
    an admissible field, then phi = w^2 / max(w^2)."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(trials):
        v = sample_admissible_field_reference(speed, grid, rng)
        phi = fourier_scalar_reference(rng, grid) ** 2
        pairs.append((v, phi / np.max(phi)))
    return pairs


SPEEDS = [(kind, dim) for dim in (1, 2) for kind in ("ball", "nodal", "hull")]


def subsolution_reference(u, f, pairs):
    """Per-level ``upwind_directional_derivative`` form of the
    ``check_subsolution`` sums, on ``one_sided(u)`` and the sign split of v,
    kept as the bitwise reference for its shared differences: (worst
    lhs - rhs, its trial)."""
    grid = u.grid
    vol = grid.cell_volume
    worst = (-np.inf, None)
    for trial, (v, phi) in enumerate(pairs):
        lhs = 0.0
        rhs = 0.0
        for k in range(grid.nt - 1):
            du = (u.values[k + 1] - u.values[k])
            dd = upwind_directional_derivative(*one_sided(u.values[k + 1], grid),
                                               split_by_sign(v.values[k]))
            lhs += -vol * float(np.sum(phi[k] * (du + grid.dt * dd)))
            rhs += vol * grid.dt * float(np.sum(f.values[k] * phi[k]))
        if lhs - rhs > worst[0]:
            worst = (lhs - rhs, trial)
    return worst


def pointwise_hj_net_reference(u, f, m, w):
    """``check_pointwise_hj`` of a nodal w on its net velocity, the form
    before the check took split velocities: ``recover_velocity(m, w,
    floor=1e-9)``, split by sign one level at a time, kept as the bitwise
    oracle for the sign split of w."""
    grid = u.grid
    threshold = max(1e-9, 1e-3 * float(np.max(m.values)))
    v = recover_velocity(m, w, floor=1e-9)
    num = den = 0.0
    worst = (0.0, None)
    for k in range(grid.nt - 1):
        res = -(u.values[k + 1] - u.values[k]) / grid.dt \
            - upwind_directional_derivative(*one_sided(u.values[k + 1], grid),
                                            split_by_sign(v.values[k])) \
            - f.values[k]
        mask = m.values[k] > threshold
        if not np.any(mask):
            continue
        num += float(np.sum(np.abs(res[mask])))
        den += float(np.sum(np.abs(f.values[k][mask])))
        j = np.argmax(np.abs(res * mask))
        loc_val = float(np.abs(res.ravel()[j]))
        if loc_val > worst[0]:
            worst = (loc_val, (k, *np.unravel_index(j, grid.nx)))
    rel = num / max(den, 1e-12)
    return certify.CertReport(
        name="pointwise_hj", passed=bool(rel <= 0.1), lhs=float(rel), slack=0.1,
        worst_location=tuple(int(i) for i in worst[1]) if worst[1] else None)


@pytest.fixture(scope="module")
def closed_bundle(uniform_problem):
    return closed_form_uniform_bundle(uniform_problem)


def holder_reference(u, f, p, c0, samples, seed):
    """``check_holder`` sample by sample: the arrays it draws, in its order,
    then each sample evaluated alone, with one ``interp_space`` call and
    scalar arithmetic: (worst excess, its level pair)."""
    grid = u.grid
    beta = 0.5
    alpha = 1.0 - (grid.dim + 1.0) / p
    norm_f = norm_lp(f, p)
    c_pair = holder_constant(p, grid.dim, c0, beta)
    c_term = holder_constant(p, grid.dim, c0, 0.0)
    slack = (1.0 + certify._lip_space(u.values, grid)) * certify._disc_scale(grid)
    rng = np.random.default_rng(seed)
    ts = rng.integers(0, grid.nt - 1, size=samples)
    ss = rng.integers(ts + 1, grid.nt)
    nodes = np.stack([rng.integers(0, n, size=samples) for n in grid.nx], axis=-1)
    deltas = rng.uniform(-1.0, 1.0, size=(samples, grid.dim))
    uniforms = rng.uniform(0.0, 1.0, size=samples)
    worst = (-np.inf, None)
    for t_idx, s_idx, node, delta, uniform in zip(ts.tolist(), ss.tolist(), nodes.tolist(),
                                                   deltas.tolist(), uniforms.tolist()):
        dt_pair = (s_idx - t_idx) * grid.dt
        x_idx = tuple(node)
        radius = beta * c0 * dt_pair * uniform
        nrm = math.sqrt(sum(d * d for d in delta))
        y = [i / n + (d / nrm * radius if nrm > 0 else 0.0)
             for i, n, d in zip(x_idx, grid.nx, delta)]
        lhs = float(u.values[t_idx][x_idx]) - float(interp_space(u.values[s_idx], np.array(y),
                                                                 grid.nx))
        rhs = c_pair * norm_f * dt_pair ** alpha + slack
        if lhs - rhs > worst[0]:
            worst = (lhs - rhs, (t_idx, s_idx))
        lhs_t = float(u.values[t_idx][x_idx]) - float(u.values[-1][x_idx])
        rhs_t = c_term * norm_f * ((grid.nt - 1 - t_idx) * grid.dt) ** alpha + slack
        if lhs_t - rhs_t > worst[0]:
            worst = (lhs_t - rhs_t, (t_idx, grid.nt - 1))
    return worst


class TestSelfConsistency:
    def test_all_seven_checks_pass_on_closed_form(self, uniform_problem, closed_bundle):
        """The certifier's own self-test: every check passes simultaneously
        on the analytic optimum of the uniform instance."""
        u, f, m, w = closed_bundle
        reports = certify.battery(uniform_problem, u, f, m, (w, w), seed=0, tol_gap=1e-3)
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


@pytest.mark.parametrize("nx,nt", [((4096,), 65), ((64, 48), 65)])
def test_lip_space_is_the_largest_forward_difference(nx, nt):
    # the bits of max |D+ u| over one_sided's differences, from one array
    # the size of u: 1.00 of it measured in 2D, where both of one_sided's
    # difference pairs and their abs took about 6
    grid = TorusGrid(len(nx), nx, nt, 1.0)
    rng = np.random.default_rng(len(nx))
    for u in (rng.standard_normal((nt, *nx)), np.cumsum(rng.random((nt, *nx)), axis=-1)):
        lip, peak = traced_peak(certify._lip_space, u, grid)
        assert lip == float(np.max(np.abs(one_sided(u, grid)[0])))
        assert peak <= 1.05 * u.nbytes
    assert certify._lip_space(np.zeros((nt, *nx)), grid) == 0.0


class TestIbpInequality:
    def test_time_constant_value_is_exact_zero(self, uniform_problem):
        # f = 0 with constant terminal payoff gives u constant in time; the
        # signed quantity is exactly zero for any conserved density
        g = uniform_problem.grid
        prob = ProblemInstance(grid=g, speed=uniform_problem.speed,
                               cost=uniform_problem.cost,
                               u_T=2.0 * np.ones(g.nx), m0=np.ones(g.nx))
        f = full_field(g, 0.0)
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
        other = full_field(TorusGrid(1, (16,), 65, 1.0), 0.0)
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
        zero_s = full_field(g, 0.0)
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
        # f != k(m) fails both identities under their own names, each with
        # the precondition's defect and slack
        u, f, m, _ = closed_bundle
        f_bad = ScalarField(f.grid, f.values + 0.5)
        reports = check_weak_solution(uniform_problem, u, f_bad, m)
        assert [r.name for r in reports] == ["weak_identity_from_start", "weak_identity_to_end"]
        for r in reports:
            assert not r.passed and r.lhs == pytest.approx(0.5) and r.slack == 1e-6

    @pytest.mark.parametrize("defect", [0.0, 1e-3])
    def test_one_block_at_a_time_gives_the_whole_field_bits(self, defect):
        # k(m), its defect against f and the level sums <f m>, <u m> of a
        # 64^2x65 run, one block of 2 levels at a time: the reports of
        # whole-field sums, past the precondition and failing it, at about
        # 4.1 blocks of memory (whole fields took about 98)
        grid = TorusGrid(2, (64, 64), 65, 1.0)
        rng = np.random.default_rng(2)
        m = rng.random((grid.nt, *grid.nx))
        u = rng.standard_normal(m.shape)
        prob = ProblemInstance(grid=grid, speed=IsotropicSpeed(2, 1.0), cost=CostModel(4.0),
                               u_T=u[-1], m0=m[0])
        k_of_m = cost_deriv_conj(prob.cost, m)
        f = k_of_m + defect * rng.random(m.shape)
        fields = (ScalarField(grid, u), ScalarField(grid, f), DensityField(grid, m))
        reports, peak = traced_peak(check_weak_solution, prob, *fields)
        assert peak <= 5 * pdopt._block_levels(grid) * m[0].nbytes
        vol, axes = grid.cell_volume, (1, 2)
        pre_defect = float(np.max(np.abs(f - k_of_m)))
        if pre_defect > 1e-6 * (1.0 + float(np.max(np.abs(k_of_m)))):
            assert [r.lhs for r in reports] == [pre_defect] * 2
            return
        fm, um = (np.sum(a * m, axis=axes) * vol for a in (f, u))
        u0m0, uTmT = float(np.sum(u[0] * m[0]) * vol), float(np.sum(u[-1] * m[-1]) * vol)
        scale = max(abs(u0m0), abs(uTmT), grid.dt * float(np.sum(np.abs(fm))), 1e-10)
        levels = sorted(set(np.linspace(0, grid.nt - 1, 8).astype(int).tolist()))
        from_start = [abs(u0m0 - (um[j] + grid.dt * float(np.sum(fm[:j])))) / scale
                      for j in levels]
        to_end = [abs(um[j] - (uTmT + (grid.dt * float(np.sum(fm[j:-1]))
                                       if j < grid.nt - 1 else 0.0))) / scale for j in levels]
        assert [r.lhs for r in reports] == [max(from_start), max(to_end)]


class TestPointwiseHJ:
    def test_uniform_optimum_zero_residual(self, uniform_problem, closed_bundle):
        u, f, m, w = closed_bundle
        rep = check_pointwise_hj(u, f, m, w, w)
        assert rep.passed and rep.lhs == pytest.approx(0.0, abs=1e-13)

    def test_constant_obstacle_zero_residual(self, uniform_problem):
        g = uniform_problem.grid
        F = 0.8
        tt = g.times().reshape(-1, 1)
        u = ScalarField(g, np.broadcast_to((1.0 - tt) * F, (g.nt, *g.nx)).copy())
        f = full_field(g, F)
        m = DensityField(g, np.ones((g.nt, *g.nx)))
        w = VecField(g, np.zeros((g.nt, *g.nx, 1)))
        rep = check_pointwise_hj(u, f, m, w, w)
        assert rep.passed and rep.lhs == pytest.approx(0.0, abs=1e-12)

    def test_wrong_slope_detected(self, uniform_problem):
        g = uniform_problem.grid
        F = 0.8
        tt = g.times().reshape(-1, 1)
        u = ScalarField(g, np.broadcast_to(2.0 * (1.0 - tt) * F,
                                           (g.nt, *g.nx)).copy())
        f = full_field(g, F)
        m = DensityField(g, np.ones((g.nt, *g.nx)))
        w = VecField(g, np.zeros((g.nt, *g.nx, 1)))
        rep = check_pointwise_hj(u, f, m, w, w)
        assert not rep.passed
        assert rep.lhs == pytest.approx(1.0)       # relative residual = F/F

    @pytest.mark.parametrize("nx", [(24,), (8, 10)])
    def test_nodal_w_sign_split_and_net_velocity_agree_bitwise(self, nx):
        # a nodal w as (w, w), as its sign-split pair, and the net velocity
        # w/m split by sign give one report, bit for bit; the density has
        # holes (m = 0) and nodes between 1e-9 and the support threshold
        grid = TorusGrid(len(nx), nx, 9, 1.0)
        rng = np.random.default_rng(17)
        shape = (grid.nt, *grid.nx)
        m_vals = rng.random(shape) * (rng.random(shape) > 0.3)
        m_vals[rng.random(shape) < 0.1] = 1e-5
        m = DensityField(grid, m_vals)
        w = VecField(grid, 1.5 * rng.standard_normal((*shape, grid.dim)) * m_vals[..., None])
        pair = (VecField(grid, np.maximum(w.values, 0.0)), VecField(grid, np.minimum(w.values, 0.0)))
        u = ScalarField(grid, rng.standard_normal(shape))
        f = ScalarField(grid, rng.random(shape))
        nodal = check_pointwise_hj(u, f, m, w, w)
        assert nodal == check_pointwise_hj(u, f, m, *pair)
        oracle = pointwise_hj_net_reference(u, f, m, w)
        assert nodal == oracle
        assert np.float64(nodal.lhs).tobytes() == np.float64(oracle.lhs).tobytes()
        assert nodal.worst_location is not None


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
        u = full_field(g, 0.0)
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

    @pytest.mark.parametrize("nx,levels", [((24,), 1), ((24,), 3), ((24,), 100),
                                           ((12, 10), 1), ((12, 10), 3)])
    def test_blocks_of_levels_give_the_per_level_bits(self, monkeypatch, nx, levels):
        grid = TorusGrid(len(nx), nx, 9, 1.0)
        rng = np.random.default_rng(8)
        shape = (grid.nt, *grid.nx)
        u = ScalarField(grid, rng.standard_normal(shape))
        f = ScalarField(grid, rng.random(shape))
        pairs = [(VecField(grid, rng.standard_normal((*shape, grid.dim))), rng.random(shape))
                 for _ in range(4)]
        monkeypatch.setattr(pdopt, "_BLOCK_BYTES", levels * grid.n_space * 2 * grid.dim * 8)
        rep = check_subsolution(u, f, IsotropicSpeed(grid.dim, 1.0), pairs=pairs)
        lhs, trial = subsolution_reference(u, f, pairs)
        assert np.float64(rep.lhs).tobytes() == np.float64(lhs).tobytes()
        assert rep.worst_location == (trial,)

    def test_sign_discrimination(self, uniform_problem):
        # u = +t is a supersolution (passes); u = -t violates the inequality
        g = uniform_problem.grid
        tt = g.times().reshape(-1, 1)
        f = full_field(g, 0.0)
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

    @pytest.mark.parametrize("kind,dim", SPEEDS)
    def test_sample_admissible_field_bitwise_equal_reference(self, kind, dim):
        grid = TorusGrid(dim, (12,) * dim, 9, 1.0)
        speed = trial_speed(kind, dim)
        for seed in range(2):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = certify.sample_admissible_field(speed, grid, rng)
            assert got.values.tobytes() == \
                sample_admissible_field_reference(speed, grid, ref_rng).values.tobytes()
            # same draws in the same order
            assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("kind,dim", SPEEDS)
    def test_sampled_fields_are_admissible(self, kind, dim):
        # check_subsolution tests only velocities in c(x, A): strictly inside
        # a ball, and in a hull up to the round-off of its projection
        grid = TorusGrid(dim, (12,) * dim, 9, 1.0)
        speed = trial_speed(kind, dim)
        for seed in range(3):
            v = certify.sample_admissible_field(speed, grid, np.random.default_rng(seed))
            for v_k in v.values:
                violation = speed.cone_violation(grid, np.ones(grid.nx), v_k)
                assert (violation <= 1e-12) if kind == "hull" else (violation < 0.0)
                # a scalar density broadcasts over the nodes
                assert speed.cone_violation(grid, 1, v_k) == violation

    @pytest.mark.parametrize("nx", [(64,), (12,), (16, 16), (12, 12), (5, 6), (64, 64)])
    def test_mode_tables_gather_each_nodes_own_value(self, nx):
        # every node gathers its own x @ kvec, bit for bit, from at most
        # n_space values per mode
        grid = TorusGrid(len(nx), nx, 5, 1.0)
        x = np.stack(grid.meshgrid(), axis=-1).reshape(-1, grid.dim)
        draws, ref = np.random.default_rng(2), np.random.default_rng(2)
        for _ in range(20):
            values, params, inv = certify._fourier_modes(draws, grid)
            assert len(inv) == 3 and inv.dtype == np.min_scalar_type(len(values) - 1)
            for index in inv:
                kvec = ref.integers(-3, 4, size=grid.dim)
                drawn = ref.uniform(-2.0, 2.0), ref.uniform(0, 2 * np.pi), ref.uniform(0.3, 1.0)
                assert index.max() - index.min() < grid.n_space
                # the mode's frequency, phase and amplitude at each of its values
                assert {tuple(p) for p in params.T[index].tolist()} == {drawn}
                assert values[index].tobytes() == (x @ kvec).tobytes()

    @pytest.mark.parametrize("nx,nt,block_bytes", [((16, 16), 17, 1), ((64,), 65, None)],
                             ids=["2d-level-blocks", "1d-one-block"])
    @pytest.mark.parametrize("kind", ["ball", "hull"])
    def test_shared_block_differences_give_the_two_pass_bits(self, monkeypatch, kind, nx, nt,
                                                            block_bytes):
        # the differences of u, taken once per block for all pairs, and the
        # maximum of phi's field, taken with the first block (in 1D at 64
        # points the whole run), give the bits of one pass per pair after a
        # separate pass for the maximum
        grid = TorusGrid(len(nx), nx, nt, 1.0)
        speed = trial_speed(kind, grid.dim)
        rng = np.random.default_rng(5)
        shape = (grid.nt, *grid.nx)
        u = ScalarField(grid, rng.standard_normal(shape))
        f = ScalarField(grid, rng.random(shape))
        if block_bytes is not None:
            monkeypatch.setattr(pdopt, "_BLOCK_BYTES", block_bytes)
        rep = check_subsolution(u, f, speed, trials=10, seed=2)
        lhs, trial = subsolution_reference(u, f, admissible_pairs_reference(speed, grid, 2, 10))
        assert np.float64(rep.lhs).tobytes() == np.float64(lhs).tobytes()
        assert rep.worst_location == (trial,)

    @pytest.mark.parametrize("block_bytes", [None, 1, 1 << 30], ids=["default", "1", "2^30"])
    @pytest.mark.parametrize("kind,dim", SPEEDS)
    def test_streamed_trials_bitwise_equal_pairs_drawn_first(self, monkeypatch, kind, dim,
                                                             block_bytes):
        # the sampled trials, drawn as modes and evaluated block by block,
        # keep the bits of whole-field pairs all drawn up front: at one level
        # per block, at every level in one block and at the default
        grid = TorusGrid(dim, (12,) * dim, 9, 1.0)
        speed = trial_speed(kind, dim)
        rng = np.random.default_rng(4)
        shape = (grid.nt, *grid.nx)
        u = ScalarField(grid, rng.standard_normal(shape))
        f = ScalarField(grid, rng.random(shape))
        if block_bytes is not None:
            monkeypatch.setattr(pdopt, "_BLOCK_BYTES", block_bytes)
        rep = check_subsolution(u, f, speed, trials=5, seed=7)
        lhs, trial = subsolution_reference(u, f, admissible_pairs_reference(speed, grid, 7, 5))
        assert np.float64(rep.lhs).tobytes() == np.float64(lhs).tobytes()
        assert rep.worst_location == (trial,)

    def test_memory_does_not_grow_with_trials(self):
        grid = TorusGrid(2, (16, 16), 17, 1.0)
        rng = np.random.default_rng(6)
        shape = (grid.nt, *grid.nx)
        u = ScalarField(grid, rng.standard_normal(shape))
        f = ScalarField(grid, rng.random(shape))
        speed = IsotropicSpeed(2, 1.0)
        peaks = {trials: traced_peak(check_subsolution, u, f, speed, trials=trials, seed=3)[1]
                 for trials in (1, 10)}
        assert peaks[10] <= 1.5 * peaks[1]

    def test_memory_is_the_draws_and_a_few_levels(self, monkeypatch):
        # at one level per block, the check holds every pair's modes (their
        # values, parameters and gather indices, 141 kB for ten pairs here)
        # and a few one-level arrays (8.2 measured); a whole-field pair alone
        # would take 13 levels of split velocities here
        grid = TorusGrid(2, (16, 16), 17, 1.0)
        rng = np.random.default_rng(6)
        shape = (grid.nt, *grid.nx)
        u = ScalarField(grid, rng.standard_normal(shape))
        f = ScalarField(grid, rng.random(shape))
        speed = IsotropicSpeed(2, 1.0)
        draws = np.random.default_rng(3)
        tables = sum(array.nbytes for _ in range(10 * (grid.dim + 1))
                     for array in certify._fourier_modes(draws, grid))
        monkeypatch.setattr(pdopt, "_BLOCK_BYTES", 1)
        _, peak = traced_peak(check_subsolution, u, f, speed, trials=10, seed=3)
        level = 8 * grid.n_space * 2 * grid.dim
        assert peak <= tables + 10 * level


def test_hull_bounds_come_from_its_maps_on_the_grid():
    # the maps reach 1.0 only between the points of the lattice the
    # constructor samples: the velocity cap and the subsolution slack read
    # the speed on the grid's nodes
    grid = TorusGrid(1, (64,), 11, 1.0)
    speed = between_lattice_hull()
    assert speed.max_speed(grid) == 1.0
    ones = np.ones((grid.nt, 64))
    v = recover_velocity(DensityField(grid, ones), VecField(grid, ones[..., None]), speed=speed)
    assert np.all(v.values == 1.0)
    zero = full_field(grid, 0.0)
    rep = check_subsolution(zero, zero, speed, trials=2)
    assert rep.slack == 2.0 * (1.0 + 1.0) * (1.0 + grid.horizon) * certify._disc_scale(grid)


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

    def test_constant_one_dimensional_cubic_cost_is_two(self):
        # 2 * int_0^(1/2) r^(-1/2) dr ^ (2/3) * 2^(-1/3) = 2 (sqrt 2)^(2/3) 2^(-1/3)
        assert abs(holder_constant(3.0, 1, 1.0, 0.0) - 2.0) <= math.ulp(2.0)

    @settings(max_examples=40, deadline=None)
    @given(N=st.sampled_from([1, 2]), frac=st.floats(0.0, 1.0, exclude_max=True),
           c0=st.floats(0.25, 4.0), beta=st.floats(0.0, 0.9))
    def test_closed_form_against_quadrature_oracle(self, N, frac, c0, beta):
        # the trapezoid oracle above over p in (N + 1.05, 12]; the
        # substitution rho = s^k with k = 4 / (expo + 1) keeps the integrand
        # smooth however close p comes to N + 1
        p = 12.0 - frac * (12.0 - (N + 1.05))
        q = p / (p - 1.0)
        expo = N * (1.0 - q)
        k = 4.0 / (expo + 1.0)
        s = np.linspace(0.0, 0.5 ** (1.0 / k), 400_001)
        integral = np.trapezoid(k * s ** (k * (expo + 1.0) - 1.0), s)
        ball = {1: 2.0, 2: np.pi}[N]                # unit-ball volume
        oracle = (2.0 * integral ** (1.0 / q) * ball ** (-1.0 / p)
                  * (1.0 - beta ** 2) ** (-N / (2 * p)) * c0 ** (-N / p))
        assert holder_constant(p, N, c0, beta) == pytest.approx(oracle, rel=1e-6)

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
        f = full_field(prob.grid, 0.0)
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

    def test_adversarial_scaled_bound_detected(self, monkeypatch):
        window = counterexample_instance(0.1, window_points=201, nt=101)
        grid = window.grid
        prob = ProblemInstance(grid=grid, speed=counterexample_speed(window),
                               cost=CostModel(3.0), u_T=np.zeros(grid.nx),
                               m0=np.ones(grid.nx))
        f = window.obstacle_field()
        u = solve_value_function(prob, f)
        constant = certify.holder_constant
        monkeypatch.setattr(certify, "holder_constant", lambda *args: 0.01 * constant(*args))
        rep = check_holder(u, f, 3.0, prob.speed, samples=1000, seed=5)
        assert not rep.passed

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_refused(self, closed_bundle, samples):
        # no sample would leave the worst excess at -inf, a pass on nothing
        u, f, _, _ = closed_bundle
        with pytest.raises(ParameterError, match="samples"):
            check_holder(u, f, 3.0, IsotropicSpeed(1, 1.0), samples=samples)

    @pytest.mark.parametrize("kind", ["ball", "nodal", "hull"])
    def test_variable_radius_skipped(self, uniform_problem, closed_bundle, kind):
        # only a ball of constant radius runs: not a radius table, and not a
        # hull, although c0 = c1 = 1 makes the 1D hull the unit interval
        u, f, _, _ = closed_bundle
        speed = trial_speed(kind, 1)
        rep = check_holder(u, f, 3.0, speed, samples=10, seed=0)
        assert rep.skipped == (kind != "ball") and rep.passed


    @pytest.mark.parametrize("nx,nt,seed", [((48,), 49, 0), ((64,), 65, 3), ((12, 10), 9, 1),
                                            ((16, 16), 17, 2)])
    def test_one_gather_gives_the_per_sample_bits(self, nx, nt, seed):
        # rough u, so the worst sample moves with the samples' values
        grid = TorusGrid(len(nx), nx, nt, 1.0)
        rng = np.random.default_rng(seed)
        u = ScalarField(grid, rng.standard_normal((nt, *nx)))
        f = ScalarField(grid, rng.random((nt, *nx)))
        for samples in (1, 200):
            rep = check_holder(u, f, 4.0, IsotropicSpeed(grid.dim, 0.8), samples=samples,
                               seed=seed)
            lhs, where = holder_reference(u, f, 4.0, 0.8, samples, seed)
            assert np.float64(rep.lhs).tobytes() == np.float64(lhs).tobytes()
            assert rep.worst_location == where


class TestDualityGap:
    def test_closed_form_zero_gap(self, uniform_problem, closed_bundle):
        assert abs(duality_gap(uniform_problem, *closed_bundle)) <= 1e-6

    def test_suboptimal_primal_positive_gap(self, uniform_problem, closed_bundle):
        _, _, m, w = closed_bundle
        g = uniform_problem.grid
        f0 = full_field(g, 0.0)
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

    @pytest.mark.parametrize("kind", ["ball", "hull"])
    def test_battery_on_w_w_is_the_battery_on_the_sign_split(self, kind):
        # a nodal w is the pair (w, w): the battery gives the reports and
        # gap details of the pair (max(w, 0), min(w, 0))
        rng = np.random.default_rng(12)
        if kind == "ball":
            g = TorusGrid(1, (16,), 17, 1.0)
            speed = IsotropicSpeed(1, 1.0)
        else:                                       # a diamond with rest
            g = TorusGrid(2, (5, 6), 7, 1.0)
            vels = [s * 0.9 * np.eye(2)[a] for a in range(2) for s in (1.0, -1.0)]
            maps = tuple((lambda x, v=v: np.broadcast_to(v, np.shape(x)))
                         for v in (*vels, np.zeros(2)))
            speed = FiniteControlsSpeed(2, maps)
        shape = (g.nt, *g.nx)
        problem = ProblemInstance(grid=g, speed=speed, cost=CostModel(4.0),
                                  u_T=rng.standard_normal(g.nx), m0=0.5 + rng.random(g.nx))
        m = DensityField(g, 0.5 + rng.random(shape))
        f = ScalarField(g, cost_deriv_conj(problem.cost, m.values))
        u = solve_value_function(problem, f)
        w = VecField(g, 0.4 * rng.standard_normal((*shape, g.dim)) * m.values[..., None])
        sign_split = (VecField(g, np.maximum(w.values, 0.0)),
                      VecField(g, np.minimum(w.values, 0.0)))
        results = []
        for pair in ((w, w), sign_split):
            details = {}
            reports = certify.battery(problem, u, f, m, pair, seed=3, tol_gap=1e-3,
                                      details=details)
            results.append((reports_to_json(reports), json.dumps(details)))
        assert results[0] == results[1]
        assert json.loads(results[0][1])["max_split_excess"] > 0.0   # momenta were moved

    def test_memory_is_two_level_buffers_and_one_block(self, monkeypatch):
        # one level per block on 2D 16^2x17: the certificate holds the costs
        # of the intervals and the marched density, (nt, *nx) each, and a few
        # one-level (*nx, 2*dim) arrays; a whole-array pass holds several
        # (nt - 1, *nx, 2*dim) arrays at once (80 one-level arrays here)
        grid = TorusGrid(2, (16, 16), 17, 1.0)
        rng = np.random.default_rng(8)
        shape = (grid.nt, *grid.nx)
        x, _ = grid.meshgrid()
        problem = ProblemInstance(grid=grid, speed=IsotropicSpeed(2, 1.0),
                                  cost=CostModel(4.0), u_T=np.cos(2 * np.pi * x),
                                  m0=rng.random(grid.nx))
        u = ScalarField(grid, rng.standard_normal(shape))
        m = DensityField(grid, rng.random(shape))
        w = VecField(grid, 0.5 * rng.standard_normal((*shape, 2)))
        pair = (VecField(grid, np.maximum(w.values, 0.0)), VecField(grid, np.minimum(w.values, 0.0)))
        monkeypatch.setattr(pdopt, "_BLOCK_BYTES", 1)
        level = 8 * grid.n_space * 2 * grid.dim
        for momenta in (pair, w):               # a nodal w is split block by block
            gap, peak = traced_peak(duality_gap, problem, u, u, m, momenta)
            assert np.isfinite(gap)
            assert peak <= 2 * 8 * grid.nt * grid.n_space + 10 * level

    def test_finite_hull_without_rest_reads_inf(self):
        # split load 0.9 * 16 * (1/8) = 1.8 > 1 must be scaled, which leaves
        # the hull of {+-0.9}: B = +inf, and details say why
        g = TorusGrid(1, (16,), 9, 1.0)
        maps = tuple((lambda x, c=c: np.full(np.shape(x), c)) for c in (0.9, -0.9))
        speed = FiniteControlsSpeed(1, maps)
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
        report = certify.battery(problem, u, u, m, (w, w), seed=0, tol_gap=1e-3)[-1]
        assert report.name == "duality_gap" and not report.passed
