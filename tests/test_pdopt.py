import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (closed_form_uniform_bundle, cone_faces_reference, hull_prox_reference,
                      make_gauss_problem, make_uniform_problem, prox_coned_reference,
                      split_by_sign_reference)
from frontsteer import certify, cli, pdopt
from frontsteer.certify import _lip_space
from frontsteer.errors import NumericError, ParameterError
from frontsteer.grid import DensityField, ScalarField, TorusGrid, VecField
from frontsteer.hj import solve_value_function
from frontsteer.model import CostModel, FiniteControlsSpeed, IsotropicSpeed, cost, cost_conj
from frontsteer.pdopt import (ProblemInstance, SolverConfig, certificate, _certificate,
                              _gram_solver, _rows, _rows_adjoint, _split_velocity,
                              _time_eigenbasis, continuity_residual_rows, evaluate_A,
                              evaluate_B, optimize, recover_f, recover_velocity,
                              subsolution_residual)
from frontsteer.transport import (_differences, march_split, one_sided, solve_continuity,
                                  split_by_sign, split_divergence, split_load)


def _roll_split_divergence(w_plus, w_minus, grid):
    """np.roll form of the split divergence, kept as the reference."""
    out = np.zeros(w_plus.shape[:-1])
    off = w_plus.ndim - 1 - grid.dim
    for a in range(grid.dim):
        flux = w_plus[..., a] + np.roll(w_minus[..., a], -1, off + a)
        out += (flux - np.roll(flux, 1, off + a)) / grid.dx[a]
    return out


def _components(w):
    """Split momenta or velocities (..., 2*dim), components last as a bundle
    stores them, as the component-major (2*dim, ...) arrays of the solver."""
    return np.moveaxis(w, -1, 0)


def _components_last(w):
    """Component-major split momenta (2*dim, ...) as a bundle stores them,
    components last."""
    return np.moveaxis(w, 0, -1)


def _bundle_split(bundle):
    """A bundle's pair w_plus/w_minus on the nt - 1 intervals as one array
    (nt - 1, *nx, 2*dim), components last."""
    return np.concatenate([bundle.w_plus.values[:-1], bundle.w_minus.values[:-1]], axis=-1)


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


def _adjoint(y, grid):
    """``_rows_adjoint`` of y into fresh arrays, with its differences
    prepared as ``_Workspace`` prepares them."""
    d = grid.dim
    gm, gw = np.empty_like(y), np.empty((2 * d, *y[1:].shape))
    return _rows_adjoint(y, grid, gm, gw, _differences(y[1:], grid, gw[:d], gw[d:]))


class TestOperators:
    @pytest.mark.parametrize("dim,nx", GRIDS)
    def test_rows_adjoint_exact(self, dim, nx):
        grid = TorusGrid(dim, nx, 6, 0.9)
        rng = np.random.default_rng(0)
        m = rng.standard_normal((6, *nx))
        w = rng.standard_normal((2 * dim, 5, *nx))
        y = rng.standard_normal((6, *nx))
        lhs = np.sum(_rows(m, w, np.zeros(nx), grid) * y)
        gm, gw = _adjoint(y, grid)
        rhs = np.sum(m * gm) + np.sum(w * gw)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("dim,nx", [(1, (5,)), (1, (64,)), (2, (6, 7))])
    def test_slice_stencils_bitwise_equal_roll(self, dim, nx):
        grid = TorusGrid(dim, nx, 4, 1.0)
        rng = np.random.default_rng(11)
        wp = np.abs(rng.standard_normal((3, *nx, dim)))
        wm = -np.abs(rng.standard_normal((3, *nx, dim)))
        cp, cm = (np.ascontiguousarray(_components(x)) for x in (wp, wm))
        assert split_divergence(cp, cm, grid).tobytes() \
            == _roll_split_divergence(wp, wm, grid).tobytes()
        # no leading axes, as in one transport level
        assert split_divergence(cp[:, 0].copy(), cm[:, 0].copy(), grid).tobytes() \
            == _roll_split_divergence(wp[0], wm[0], grid).tobytes()

    @pytest.mark.parametrize("dim,nx", [(1, (5,)), (2, (6, 7))])
    def test_one_sided_differences(self, dim, nx):
        grid = TorusGrid(dim, nx, 4, 1.0)
        phi = np.random.default_rng(12).standard_normal((3, *nx))
        # with leading time axes, as the solver passes y, and without, as
        # check_subsolution and check_pointwise_hj pass one level
        for field in (phi, phi[0]):
            fwd, bwd = one_sided(field, grid)
            assert fwd.shape == bwd.shape == (dim, *field.shape)
            for a in range(dim):
                ax = field.ndim - dim + a
                assert fwd[a].tobytes() == (
                    (np.roll(field, -1, ax) - field) / grid.dx[a]).tobytes()
                assert bwd[a].tobytes() == (
                    (field - np.roll(field, 1, ax)) / grid.dx[a]).tobytes()

    @pytest.mark.parametrize("nt", [2, 9, 129])
    @pytest.mark.parametrize("dim,nx", GRIDS)
    def test_gram_solve_inverts_l_lt(self, dim, nx, nt):
        grid = TorusGrid(dim, nx, nt, 0.7)
        b = np.random.default_rng(13).standard_normal((nt, *nx))
        x = _gram_solver(grid)(b)
        back = _rows(*_adjoint(x, grid), np.zeros(nx), grid)
        assert np.max(np.abs(back - b)) <= 1e-12 * np.max(np.abs(b))

    @pytest.mark.parametrize("nt", [2, 3, 65, 129, 257])
    def test_time_eigenbasis_matches_eigh(self, nt):
        # the closed form against LAPACK's eigh of the time block M0
        block = 2.0 * np.eye(nt) - np.eye(nt, k=1) - np.eye(nt, k=-1)
        block[0, 0] = 1.0
        eig, q = _time_eigenbasis(nt)
        assert np.max(np.abs(block @ q - q * eig)) <= 2e-15
        assert np.max(np.abs(q @ q - np.eye(nt))) <= 1e-14
        assert np.max(np.abs(eig - np.linalg.eigh(block)[0])) <= 1e-14
        assert np.all(np.diff(eig) > 0)
        assert q.tobytes() == q.T.copy().tobytes()

    def test_gram_solver_calls_no_linalg(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("np.linalg called")

        for name in set(np.linalg.__all__) - {"LinAlgError"}:
            monkeypatch.setattr(np.linalg, name, refused)
        grid = TorusGrid(2, (6, 8), 33, 0.7)
        b = np.random.default_rng(13).standard_normal((33, 6, 8))
        assert np.all(np.isfinite(_gram_solver(grid)(b)))

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


def _halves(w):
    """Split momenta (..., 2*dim) as the pair (w+, w-) the certificate takes."""
    d = w.shape[-1] // 2
    return w[..., :d], w[..., d:]


def _split_project(problem, m, w):
    """Split momenta w (..., 2*dim), components last, sign-clipped and moved
    into m times the split set by ``split_project``, components last."""
    clipped = split_by_sign(_halves(w))
    return _components_last(problem.speed.split_project(problem.grid, m, clipped))


def certificate_reference(problem, u, m, w, details, project):
    """The whole-array certificate on split momenta w, shape (nt - 1, *nx,
    2*dim), kept as the bitwise reference of the blocked ``_certificate``
    (``project``: of ``certificate``, whose excess is the move from the sign
    split)."""
    grid = problem.grid
    vol = grid.cell_volume
    if project:
        w_in = _split_project(problem, m[:-1], w)
        clipped = _components_last(split_by_sign(_halves(w)))
        details["max_split_excess"] = float(np.max(np.abs(w_in - clipped)))
        w = w_in
    u = np.array(u, dtype=float)
    u[-1] = problem.u_T
    f = np.maximum(subsolution_residual(problem, u), 0.0)
    a_val = float(np.sum(cost(problem.cost, f))) * grid.dt * vol \
        - float(np.sum(u[0] * problem.m0)) * vol
    v, peak = _split_velocity(m[:-1], _components(w), grid)
    no_rest = peak > 1.0 and not problem.speed.split_contains_rest(grid)
    if no_rest:
        b_val = float("inf")
    else:
        marched = march_split(problem.m0, v, grid)
        b_val = float(np.sum(problem.u_T * marched[-1])) * vol \
            + float(np.sum(cost_conj(problem.cost, marched[:-1]))) * grid.dt * vol
    details.update(A=a_val, B=b_val, max_split_load=peak, b_inf_without_rest=no_rest)
    return a_val, b_val


def _oracle_case(case):
    """A problem, u, a density with zeros and momenta of any sign and size
    (off the split set) for the blocked-certificate oracle."""
    rng = np.random.default_rng(11)
    diamond = [s * 0.9 * np.eye(2)[a] for a in range(2) for s in (1.0, -1.0)]
    if case == "ball 1d":
        grid = TorusGrid(1, (8,), 8, 1.0)
        prob = _finite_problem(grid, IsotropicSpeed(1, 0.9), p=3.0)
    elif case == "radius table 2d":                  # loads up to about 2: scaled
        grid = TorusGrid(2, (5, 6), 8, 1.0)
        prob = _finite_problem(grid, IsotropicSpeed(2, 0.5 + rng.random((5, 6))), p=4.0)
    elif case == "hull with rest 2d":                # load 1.35: scaled, B finite
        grid = TorusGrid(2, (5, 6), 5, 1.0)
        speed = FiniteControlsSpeed(2, _constant_maps(*diamond, [0.0, 0.0]),
                                    c0=0.9 / np.sqrt(2), c1=0.9)
        prob = _finite_problem(grid, speed, p=4.0)
    elif case == "hull without rest 2d":             # load 1.35: B = +inf
        grid = TorusGrid(2, (6, 6), 5, 1.0)
        speed = FiniteControlsSpeed(2, _constant_maps(*diamond), c0=0.9 / np.sqrt(2), c1=0.9)
        prob = _finite_problem(grid, speed, p=4.0)
    else:                                            # pair without rest, load <= 0.9
        grid = TorusGrid(1, (16,), 17, 1.0)
        speed = FiniteControlsSpeed(1, _constant_maps([0.9], [-0.9]), c0=0.9, c1=0.9)
        prob = _finite_problem(grid, speed, p=3.0)
    m = rng.random((grid.nt, *grid.nx)) * (rng.random((grid.nt, *grid.nx)) > 0.2)
    w = 3.0 * rng.standard_normal((grid.nt - 1, *grid.nx, 2 * grid.dim))
    # the largest move lies in w- in 2D and in w+ in 1D
    w[..., slice(grid.dim, None) if grid.dim == 2 else slice(None, grid.dim)] *= 4.0
    u = rng.standard_normal((grid.nt, *grid.nx))
    return prob, u, m, w


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
        a_val, b_val = certificate(prob, -y, m, *_halves(w))
        assert np.isfinite(a_val) and np.isfinite(b_val)
        assert a_val + b_val >= -1e-12
        v, _ = _split_velocity(m[:-1], _components(w), grid)
        assert np.min(march_split(prob.m0, v, grid)) >= -1e-15

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
        a_val, b_val = certificate(prob, rng.standard_normal(m.shape), m, *_halves(w), details)
        assert np.isfinite(a_val) and a_val + b_val >= -1e-12
        assert details["max_split_excess"] > 0.0

    def test_scaled_velocities_keep_the_march_nonnegative(self):
        grid = TorusGrid(2, (6, 6), 5, 1.0)
        rng = np.random.default_rng(3)
        m, w = _random_iterate(rng, grid, 2.0)
        v, peak = _split_velocity(m[:-1], _components(w), grid)
        assert peak > 1.0
        assert np.max(split_load(v, grid)) <= 1.0 + 1e-15
        assert np.min(march_split(rng.random(grid.nx), v, grid)) >= -1e-15

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
        a_val, b_val = certificate(prob, -y, m, *_halves(w))
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
        assert _split_velocity(m[:-1], _components(w), grid)[1] == pytest.approx(2.7)
        y = np.zeros_like(m)
        assert certificate(_finite_problem(grid, square, p=4.0), -y, m, *_halves(w))[1] == np.inf
        a_val, b_val = certificate(_finite_problem(grid, resting, p=4.0), -y, m, *_halves(w))
        assert np.isfinite(b_val) and a_val + b_val >= -1e-12

    def test_march_reproduces_the_transport_solver(self):
        # net velocities split by sign march exactly as solve_continuity does
        grid = TorusGrid(2, (6, 7), 5, 0.5)
        rng = np.random.default_rng(4)
        v = rng.uniform(-0.5, 0.5, (5, 6, 7, 2)) / 7 / grid.dt
        m0 = rng.random((6, 7))
        split = np.concatenate([np.maximum(v[:-1], 0), np.minimum(v[:-1], 0)], axis=-1)
        assert split_by_sign(v[:-1]).tobytes() == np.ascontiguousarray(_components(split)).tobytes()
        assert march_split(m0, _components(split), grid).tobytes() \
            == solve_continuity(m0, VecField(grid, v)).values.tobytes()


class TestBlockedCertificate:
    """The certificate builds (A, B) over blocks of time levels; it must give
    the bits of the whole-array pass (``certificate_reference``)."""

    @pytest.mark.parametrize("case", ["ball 1d", "radius table 2d", "hull with rest 2d",
                                      "hull without rest 2d", "pair without rest 1d"])
    @pytest.mark.parametrize("levels", [1, 3])
    @pytest.mark.parametrize("project", [False, True])
    def test_blocks_give_the_whole_array_bits(self, monkeypatch, case, levels, project):
        prob, u, m, w = _oracle_case(case)
        grid = prob.grid
        d = grid.dim
        if not project:                      # _certificate takes momenta in the split set
            w = _split_project(prob, m[:-1], w)
        expected = {}
        ref = certificate_reference(prob, u, m, w, expected, project)
        monkeypatch.setattr(pdopt, "_BLOCK_BYTES", levels * grid.n_space * 2 * d * 8)
        if levels == 1:
            # nt levels, as a bundle stores them: the last one is never read
            w = np.concatenate([w, np.full((1, *grid.nx, 2 * d), np.nan)])
        details = {}
        # the iterate's certificate takes its split momenta component-major
        got = certificate(prob, u, m, *_halves(w), details) if project \
            else _certificate(prob, u, m, np.ascontiguousarray(_components(w)), details=details)
        assert np.array(got).tobytes() == np.array(ref).tobytes()
        assert list(details) == list(expected)
        for key, value in expected.items():
            assert np.float64(details[key]).tobytes() == np.float64(value).tobytes(), key
        # each case reaches the branch it is there for
        scaled = expected["max_split_load"] > 1.0
        assert {"ball 1d": scaled, "radius table 2d": scaled, "hull with rest 2d": scaled,
                "hull without rest 2d": expected["b_inf_without_rest"],
                "pair without rest 1d": not scaled and np.isfinite(ref[1])}[case]
        if project:
            assert expected["max_split_excess"] > 0.0

    @pytest.mark.parametrize("case", ["ball 1d", "radius table 2d", "hull with rest 2d",
                                      "hull without rest 2d", "pair without rest 1d"])
    @pytest.mark.parametrize("levels", [1, 3])
    def test_nodal_momenta_give_the_bits_of_their_sign_split(self, monkeypatch, case,
                                                             levels):
        prob, u, m, w = _oracle_case(case)
        grid = prob.grid
        d = grid.dim
        nodal = w[..., :d] + w[..., d:]                  # both signs on every axis
        expected = {}
        ref = certificate_reference(prob, u, m, _components_last(split_by_sign(nodal)),
                                    expected, True)
        monkeypatch.setattr(pdopt, "_BLOCK_BYTES", levels * grid.n_space * 2 * d * 8)
        if levels == 1:
            # nt levels, as a bundle stores them: the last one is never read
            nodal = np.concatenate([nodal, np.full((1, *grid.nx, d), np.nan)])
        details = {}
        got = certificate(prob, u, m, nodal, nodal, details)
        assert np.array(got).tobytes() == np.array(ref).tobytes()
        assert list(details) == list(expected)
        for key, value in expected.items():
            assert np.float64(details[key]).tobytes() == np.float64(value).tobytes(), key
        assert expected["max_split_excess"] > 0.0


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
        d = bundle.diagnostics
        assert not d.converged
        assert d.iterations == 30
        # no residual reaches tol_cont: powers of two and the last iteration
        assert d.iter_history == [1, 2, 4, 8, 16, 30]
        assert len(d.gap_history) == len(d.cont_history) == 6
        assert d.notes

    def test_large_exponent_runs(self):
        # p = 10 on 2D 8^2x17 with the CLI's gaussian m0 and cosine u_T: the
        # prox's roots lie near 1e-72 and below, far under its right-hand sides
        config = cli.load_config(None)
        config["problem"].update(dim=2, nx=[8, 8], nt=17, cost={"p": 10.0, "kappa": 1.0},
                                 u_T={"preset": "cosine"}, m0={"preset": "gaussian"})
        bundle = optimize(cli.build_problem(config), SolverConfig(max_iters=4, tol_cont=1e-3))
        d = bundle.diagnostics
        assert d.iterations == 4 and not d.converged
        assert np.all(np.isfinite(bundle.m.values)) and np.min(bundle.m.values) >= 0.0

    @pytest.mark.parametrize("tol_gap,tol_cont", [(1e-3, 1e-3), (1e-4, 1e-2)])
    def test_stop_on_the_first_pair_passing_both_tests(self, tol_gap, tol_cont):
        # every iteration passing the residual test is checked, so the stop
        # is the first two consecutive iterations that pass both tests, as if
        # every iteration were checked; the second case is gap-bound
        d = optimize(_gauss_problem(32), SolverConfig(
            max_iters=5000, tol_gap=tol_gap, tol_cont=tol_cont)).diagnostics
        n = d.iterations
        assert d.converged and d.iter_history[-2:] == [n - 1, n]
        passed = [g <= tol_gap * max(abs(a), abs(b), 1e-10) and c <= tol_cont
                  for a, b, g, c in zip(d.a_history, d.b_history, d.gap_history,
                                        d.cont_history)]
        assert passed[-2:] == [True, True]
        its = d.iter_history
        assert not any(passed[k] and passed[k + 1] and its[k + 1] == its[k] + 1
                       for k in range(len(its) - 2))
        assert all(later > earlier for earlier, later in zip(its, its[1:]))
        first = next(k for k, c in enumerate(d.cont_history) if c <= tol_cont)
        assert its[first:] == list(range(its[first], n + 1))

    def test_certificates_only_where_they_can_stop_the_run(self, monkeypatch):
        # the cost of the check, counted instead of timed: 64x65 stops at 260
        # with the gap met long before the residual, so only the powers of
        # two to 16, the multiples of 32 (where the steps may switch), the
        # stop and the iteration before it are certified
        calls = []
        certify_iterate = pdopt._certificate

        def counted(*args, **kwargs):
            calls.append(1)
            return certify_iterate(*args, **kwargs)

        monkeypatch.setattr(pdopt, "_certificate", counted)
        d = optimize(_gauss_problem(64), SolverConfig(max_iters=5000, tol_gap=1e-3,
                                                      tol_cont=1e-3)).diagnostics
        assert d.converged and d.iterations == 260
        assert len(calls) == len(d.iter_history) <= 5 + 260 // 32 + 2

    def test_overflowing_iterate_raises(self):
        # u_T = -1e308 sends m(T) to +inf in the first gradient step; the
        # continuity residual sees it whether or not the iteration is checked
        grid = TorusGrid(1, (16,), 17, 1.0)
        prob = ProblemInstance(grid=grid, speed=IsotropicSpeed(1, 1.0), cost=CostModel(3.0),
                               u_T=np.full(16, -1e308), m0=np.ones(16))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match="iteration 1$"):
            optimize(prob, SolverConfig(max_iters=10))

    def test_nan_iterate_raises_on_an_unchecked_iteration(self, monkeypatch):
        # a NaN density out of the third prox: iteration 3 builds no
        # certificate, and the residual still stops the run there
        calls = []
        prox = pdopt.prox_cost_conj_coned

        def poisoned(*args, **kwargs):
            calls.append(1)
            m, w = prox(*args, **kwargs)
            if len(calls) == 3:
                m[0, 0] = np.nan
            return m, w

        monkeypatch.setattr(pdopt, "prox_cost_conj_coned", poisoned)
        with pytest.raises(NumericError, match="iteration 3$"):
            optimize(_gauss_problem(16), SolverConfig(max_iters=10))

    def test_stop_test_and_battery_share_the_gap_rule(self, monkeypatch):
        # a certificate reading A + B = -1e-8, below the round-off bound
        # -1e-9, neither stops the run nor passes the battery's gap check
        prob = _gauss_problem(16)
        config = SolverConfig(max_iters=900, tol_cont=1e-3)
        assert optimize(prob, config).diagnostics.converged
        certify_iterate = pdopt._certificate

        def negative(problem, *args, details=None, **kwargs):
            a_val, _ = certify_iterate(problem, *args, details=details, **kwargs)
            if details is not None:
                details["B"] = -a_val - 1e-8
            return a_val, -a_val - 1e-8

        monkeypatch.setattr(pdopt, "_certificate", negative)
        bundle = optimize(prob, config)
        assert not bundle.diagnostics.converged
        gap = certify.battery(prob, bundle.u, bundle.f, bundle.m,
                              (bundle.w_plus, bundle.w_minus), seed=0, tol_gap=1e-3)[-1]
        assert gap.name == "duality_gap" and not gap.passed

    def test_split_load_note(self):
        # 2D at dt = dx: the split ball lets the load reach sqrt(2*dim) c dt/dx
        # = 2, the march is scaled, and the non-converged run says so
        bundle = optimize(make_gauss_problem(2, 8, 9, 4.0), SolverConfig(max_iters=50))
        notes = bundle.diagnostics.notes
        assert any("= 2 > 1" in n and "nt >= 17" in n for n in notes)

    def test_no_split_load_note_at_round_off(self):
        # at dt = dx/(sqrt(2*dim) c) (nt = 2 nx + 1) a saturated iterate has
        # load 1 + O(1e-16): no note that asks for the nt the run already has
        prob = make_gauss_problem(2, 8, 17, 4.0)
        at_round_off = 0
        for iters in range(1, 31):
            bundle = optimize(prob, SolverConfig(max_iters=iters))
            details = {}
            _certificate(prob, bundle.u.values, bundle.m.values,
                         _components(_bundle_split(bundle)), details=details)
            assert details["max_split_load"] <= 1.0 + 1e-12
            at_round_off += details["max_split_load"] > 1.0
            assert not any("nt >=" in n for n in bundle.diagnostics.notes)
        assert at_round_off

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

    @pytest.mark.parametrize("n,nt,stop,cap", [(64, 65, 260, 300), (64, 129, 1132, 1300),
                                               (64, 257, 953, 1100), (128, 129, 502, 600)])
    def test_relaxed_switched_steps_stop_the_1d_gauss_instances(self, n, nt, stop, cap):
        # default steps, relaxed from iteration 17 and switched every 32nd
        # (456, 10,966, 5,236 and 847 iterations with plain CP at tau = 16)
        d = optimize(make_gauss_problem(1, n, nt, 3.0), SolverConfig(
            max_iters=cap, tol_gap=1e-3, tol_cont=1e-3)).diagnostics
        assert d.converged and d.iterations == stop and not d.notes
        assert len(d.step_changes) <= pdopt._MAX_STEP_CHANGES

    @pytest.mark.parametrize("steps", [dict(tau=16.0, sigma=0.06), dict(tau=16.0),
                                       dict(sigma=0.06)])
    def test_given_steps_stay_fixed(self, steps):
        # 64x65 halves tau at 224 and 256 with default steps; a given tau or
        # sigma turns the switch and its checks off
        prob = make_gauss_problem(1, 64, 65, 3.0)
        config = dict(max_iters=300, tol_gap=1e-3, tol_cont=1e-3)
        assert optimize(prob, SolverConfig(**config)).diagnostics.step_changes
        d = optimize(prob, SolverConfig(**config, **steps)).diagnostics
        assert d.step_changes == [] and (d.tau, d.sigma) == (16.0, 0.06)
        assert set(d.tau_history) == {16.0}
        # nothing can switch, so only the record and the stop test are checked
        assert all(it & (it - 1) == 0 or cont <= 1e-3
                   for it, cont in zip(d.iter_history, d.cont_history))

    def test_step_changes_stay_within_their_bound(self, monkeypatch):
        # 64x129 halves tau four times unbounded (16 -> 1); bounded at two,
        # the steps stay at tau = 4 from the second change on
        monkeypatch.setattr(pdopt, "_MAX_STEP_CHANGES", 2)
        d = optimize(make_gauss_problem(1, 64, 129, 3.0), SolverConfig(
            max_iters=1200, tol_gap=1e-3, tol_cont=1e-3)).diagnostics
        assert [(tau, sigma) for _, tau, sigma in d.step_changes] == [(8.0, 0.12), (4.0, 0.24)]
        assert all(it % 32 == 0 for it, _, _ in d.step_changes)
        last = d.step_changes[-1][0]
        assert {t for it, t in zip(d.iter_history, d.tau_history) if it > last} == {4.0}
        assert (d.tau, d.sigma) == (4.0, 0.24)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SolverConfig(max_iters=0)
        # a non-integer budget would reach range() as a bare TypeError
        for bad in (2.5, np.nan, np.inf):
            with pytest.raises(ParameterError):
                SolverConfig(max_iters=bad)
        assert type(SolverConfig(max_iters=3.0).max_iters) is int

    @pytest.mark.parametrize("bad", [dict(tol_gap=-1.0), dict(tol_cont=-1e-9),
                                     dict(tol_gap=np.nan), dict(tol_cont=np.nan)])
    def test_negative_or_nan_tolerance_refused(self, bad):
        with pytest.raises(ParameterError):
            SolverConfig(**bad)


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
        # steps balanced for this instance: 405 and 309 iterations
        config = SolverConfig(max_iters=3000, tol_gap=1e-3, tol_cont=1e-3, tau=1.0, sigma=0.96)
        pair = FiniteControlsSpeed(1, _constant_maps([0.9], [-0.9]), c0=0.9, c1=0.9)
        finite = optimize(_finite_problem(grid, pair, p=3.0), config).diagnostics
        ball = optimize(_finite_problem(grid, IsotropicSpeed(1, 0.9), p=3.0), config).diagnostics
        assert finite.converged and ball.converged
        assert min(finite.gap_history) >= -1e-12 and min(ball.gap_history) >= -1e-12
        assert finite.b_history[-1] >= -ball.a_history[-1] - 1e-12


# -- the in-place iteration against its textbook allocating form ---------------


def _gram_reference(grid):
    """The Gram solve in its allocating form, ``np.fft.rfftn``/``irfftn``
    over the space axes and fresh products, on the closed-form basis of
    ``_time_eigenbasis`` written out; the bitwise reference of the solver's
    in-place transforms."""
    nt = grid.nt
    j, k = np.ogrid[1:nt + 1, 1:nt + 1]
    h = np.pi / (4 * nt + 2)
    q = 2.0 / np.sqrt(2 * nt + 1) * np.cos(h * ((2 * j - 1) * (2 * k - 1) % (8 * nt + 4)))
    eig = 4.0 * np.sin(h * (2 * k[0] - 1)) ** 2
    modes = (*grid.nx[:-1], grid.nx[-1] // 2 + 1)
    lam = np.zeros(modes)
    for a, n in enumerate(grid.nx):
        symbol = (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(modes[a]) / n)) / grid.dx[a] ** 2
        lam = lam + symbol.reshape([-1 if b == a else 1 for b in range(grid.dim)])
    lam = np.repeat(2.0 * grid.dt ** 2 * lam.ravel(), 2)
    inv = 1.0 / (eig[:, None] + lam)
    g = q @ (q[0][:, None] * inv)
    coef = lam / (1.0 - lam * g[0])
    axes = tuple(range(1, grid.dim + 1))

    def solve(b):
        spec = np.fft.rfftn(b, axes=axes)
        x = q @ (inv * (q @ spec.reshape(nt, -1).view(np.float64)))
        x += g * (coef * x[0])
        return np.fft.irfftn(x.view(np.complex128).reshape(spec.shape), s=grid.nx, axes=axes)

    return solve


def _rows_reference(m, w, m0, grid):
    d = grid.dim
    r = np.empty_like(m)
    r[0] = m[0] - m0
    r[1:] = m[1:] - m[:-1] + grid.dt * _roll_split_divergence(w[..., :d], w[..., d:], grid)
    return r


def _rows_adjoint_reference(y, grid):
    gm = np.empty_like(y)
    gm[:-1] = y[:-1] - y[1:]
    gm[-1] = y[-1]
    phi = y[1:]
    fwd, bwd = [], []
    for a in range(grid.dim):
        ax = 1 + a
        fwd.append((np.roll(phi, -1, ax) - phi) / grid.dx[a])
        bwd.append((phi - np.roll(phi, 1, ax)) / grid.dx[a])
    return gm, -grid.dt * np.stack(fwd + bwd, axis=-1)


def cp_reference(problem, iters, tau=16.0, sigma=0.06):
    """The relaxed CP loop of ``optimize`` written with fresh arrays for
    every intermediate, checked on the same iterations (tol_cont = 0): the
    prox point (m, w, y) that optimize returns, the checked iterations and
    their gaps after ``iters`` iterations.  Plain steps through iteration
    16, then rho = 1.7, with fixed steps (no check can move them)."""
    grid = problem.grid
    dim = grid.dim
    iso = isinstance(problem.speed, IsotropicSpeed)
    cone = problem.speed.split_cone(grid)
    if not iso:                      # the split maps components last
        cone = cone_faces_reference(
            split_by_sign_reference(problem.speed._node_velocities(grid)))
        coef = tau * grid.dt * problem.cost.kappa ** (1.0 - problem.cost.q)
    gram_solve = _gram_reference(grid)
    m = np.full((grid.nt, *grid.nx), problem.mass)
    w = np.zeros((grid.nt - 1, *grid.nx, 2 * dim))
    r = _rows_reference(m, w, problem.m0, grid)
    y = np.zeros((grid.nt, *grid.nx)) + sigma * gram_solve(r)
    checked, gaps = [], []
    for it in range(1, iters + 1):
        rho = 1.0 if it <= 16 else 1.7
        gm, gw = _rows_adjoint_reference(y, grid)
        m_half = m - tau * gm
        w_half = w - tau * gw
        m_half[-1] -= tau * problem.u_T
        m_prox = np.empty_like(m)
        m_prox[-1] = np.maximum(m_half[-1], 0.0)
        if iso:
            np.maximum(w_half[..., :dim], 0.0, out=w_half[..., :dim])
            np.minimum(w_half[..., dim:], 0.0, out=w_half[..., dim:])
            m_prox[:-1], w_prox = prox_coned_reference(problem.cost, cone, m_half[:-1], w_half,
                                                       tau * grid.dt)
        else:
            m_prox[:-1], w_prox = hull_prox_reference(cone, m_half[:-1], w_half, coef,
                                                      problem.cost.q - 1.0)
        r_prox = _rows_reference(m_prox, w_prox, problem.m0, grid)
        y_prox = y + sigma * gram_solve(r_prox + (r_prox - r))
        cont = float(np.sqrt(np.sum((r_prox / grid.dt) * (r_prox / grid.dt))
                             * grid.dt * grid.cell_volume))
        if cont <= 0.0 or it == iters or it % 32 == 0 or it in (1, 2, 4, 8, 16):
            a_val, b_val = _certificate(problem, -y_prox, m_prox, _components(w_prox))
            checked.append(it)
            gaps.append(a_val + b_val)
        # x~ + (rho - 1)(x~ - x), in the order of the in-place update
        m, w, r, y = (z_prox + (1.0 - rho) * (z - z_prox)
                      for z, z_prox in ((m, m_prox), (w, w_prox), (r, r_prox), (y, y_prox)))
    return m_prox, w_prox, y_prox, checked, gaps


def _radius_table_problem():
    """The 1D Gaussian instance on 16 x 17 with a nodal radius table, so
    the prox's coefficients 1 + c^2 vary from node to node."""
    prob = _gauss_problem(16)
    x = prob.grid.axis_coords(0)
    return ProblemInstance(grid=prob.grid, speed=IsotropicSpeed(1, 0.6 + 0.4 * np.cos(np.pi * x)),
                           cost=prob.cost, u_T=prob.u_T, m0=prob.m0)


def _pair_problem():
    grid = TorusGrid(1, (16,), 17, 1.0)
    pair = FiniteControlsSpeed(1, _constant_maps([0.9], [-0.9]), c0=0.9, c1=0.9)
    return _finite_problem(grid, pair, p=3.0)


class TestInPlaceIteration:
    """``optimize`` iterates in place on one ``_Workspace``; it must give the
    bits of the allocating loop (``cp_reference``)."""

    @pytest.mark.parametrize("case", ["ball 1d p3", "radius table 1d p3", "ball 1d p4",
                                      "ball 2d p4", "pair hull 1d p3"])
    def test_forty_iterations_give_the_reference_bits(self, monkeypatch, case):
        # the closed-form root (p = 3) on the free and the active side, with
        # constant and with nodal radii, and the Newton root (p = 4)
        prob = {"ball 1d p3": lambda: _gauss_problem(16),
                "radius table 1d p3": _radius_table_problem,
                "ball 1d p4": lambda: make_gauss_problem(1, 16, 17, 4.0),
                "ball 2d p4": lambda: make_gauss_problem(2, 8, 17, 4.0),
                "pair hull 1d p3": _pair_problem}[case]()
        m, w, y, checked, gaps = cp_reference(prob, 40)
        seen = []
        certify_iterate = pdopt._certificate

        def recorded(problem, u, *args, **kwargs):
            seen.append(np.array(u))
            return certify_iterate(problem, u, *args, **kwargs)

        monkeypatch.setattr(pdopt, "_certificate", recorded)
        bundle = optimize(prob, SolverConfig(max_iters=40, tol_gap=0.0, tol_cont=0.0))
        d = bundle.diagnostics
        assert d.iterations == 40 and not d.converged
        assert bundle.m.values.tobytes() == m.tobytes()
        assert _bundle_split(bundle).tobytes() == w.tobytes()
        assert not np.any(bundle.w_plus.values[-1]) and not np.any(bundle.w_minus.values[-1])
        assert seen[-1].tobytes() == (-y).tobytes()
        assert d.iter_history == checked == [1, 2, 4, 8, 16, 32, 40]
        assert np.array(d.gap_history).tobytes() == np.array(gaps).tobytes()

    @pytest.mark.parametrize("dim,nx,nt", [(1, (64,), 65), (1, (17,), 9), (2, (8, 8), 17),
                                           (2, (7, 5), 9)])
    def test_gram_solve_gives_the_rfftn_bits(self, dim, nx, nt):
        grid = TorusGrid(dim, nx, nt, 1.0)
        solve, reference = _gram_solver(grid), _gram_reference(grid)
        rng = np.random.default_rng(21)
        for _ in range(2):                    # the second call reuses the buffers
            b = rng.standard_normal((nt, *nx))
            assert solve(b).tobytes() == reference(b).tobytes()

    @staticmethod
    def _traced_steps(ws, count):
        """``count`` steps of a workspace under tracemalloc: the peak and the
        final traced memory above the level at entry, in bytes."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(count):
                ws.step()
            now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - base, now - base

    def test_iterations_hold_a_few_node_arrays_above_the_workspace(self, monkeypatch):
        # iterations 10-50 on 2D 16^2x33, p = 4, in units of one (nt, *nx)
        # array.  Measured: 8.7 with the prox, which holds the norm of the
        # momenta, the nodal coefficient and right-hand side of its one
        # Newton root, and the root's own five arrays of its open entries
        # and their index, and 1.0 without it (the Gram solve's FFT and the
        # stencils' periodic faces; the rows' divergence lives in the
        # workspace, and no stencil runs over a strided view that numpy
        # would buffer).  Nothing stays behind but small Python objects
        # (about 20 kB in 40 steps, kept by the interpreter's free lists).
        prob = make_gauss_problem(2, 16, 33, 4.0)
        node = 8 * prob.grid.nt * prob.grid.n_space
        ws = pdopt._Workspace(prob, 16.0, 0.06)
        for _ in range(10):
            ws.step()
        peak, left = self._traced_steps(ws, 40)
        assert peak <= 9 * node and left < node

        def identity(model, cone, m_bar, w_bar, step, out):
            np.copyto(out[0], m_bar)
            np.copyto(out[1], w_bar)
            return out

        # the rest of the iteration, around an allocation-free prox
        monkeypatch.setattr(pdopt, "prox_cost_conj_coned", identity)
        peak, left = self._traced_steps(ws, 40)
        assert peak <= 1.5 * node and left < node


def split_velocity_reference(m, w, grid):
    """``_split_velocity`` with its division masked and broadcast over the
    components, the form before the component-wise division."""
    v = np.zeros_like(w)
    np.divide(w, m[..., None], out=v, where=m[..., None] > 0)
    load = split_load(_components(v), grid)
    peak = float(np.max(load))
    if peak > 1.0:
        over = load > 1.0
        v[over] /= load[over][..., None]
    return v, peak


def march_reference(m0, v, grid):
    """``march_split`` with the level momenta broadcast, m_k[..., None] * v_k."""
    d = grid.dim
    m = np.empty((grid.nt, *grid.nx))
    m[0] = m0
    for k in range(grid.nt - 1):
        wk = m[k][..., None] * v[k]
        m[k + 1] = m[k] - grid.dt * _roll_split_divergence(wk[..., :d], wk[..., d:], grid)
    return m


class TestComponentwiseCertificate:
    @pytest.mark.parametrize("dim,nx,radius", [(1, (16,), 0.25), (1, (16,), 2.5),
                                               (2, (6, 7), 0.25), (2, (6, 7), 2.5)])
    def test_split_velocity_and_march_give_the_broadcast_bits(self, dim, nx, radius):
        # densities with zeros and one negative level, loads below and above 1
        grid = TorusGrid(dim, nx, 9, 1.0)
        rng = np.random.default_rng(31)
        m, w = _random_iterate(rng, grid, radius)
        m[2] *= -1.0                      # m <= 0 gives v = 0, as the mask did
        v, peak = _split_velocity(m[:-1], _components(w), grid)
        ref_v, ref_peak = split_velocity_reference(m[:-1], w, grid)
        assert v.tobytes() == np.ascontiguousarray(_components(ref_v)).tobytes()
        assert peak == ref_peak
        assert (peak > 1.0) == (radius > 1.0)
        m0 = rng.random(nx)
        assert march_split(m0, v, grid).tobytes() == march_reference(m0, ref_v, grid).tobytes()
