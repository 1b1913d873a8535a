import numpy as np
import pytest

from conftest import interp_space_reference
from frontsteer.errors import ParameterError
from frontsteer.grid import ScalarField, TorusGrid, VecField
from frontsteer.transport import (_MARCH_BLOCK, TrajectoryEnsemble, _sample_initial,
                                  pairing_defect, pushforward_distance,
                                  sample_trajectories, solve_continuity, split_by_sign,
                                  split_divergence, write_trajectories)


def const_velocity(grid, vec):
    vals = np.broadcast_to(np.asarray(vec, dtype=float),
                           (grid.nt, *grid.nx, grid.dim)).copy()
    return VecField(grid, vals)


def march_reference(m0, v, count, seed):
    """All-paths-per-step form of the trajectory march, kept as the bitwise
    reference for the blocked march."""
    grid = v.grid
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    pos = np.empty((count, grid.nt, grid.dim))
    pos[:, 0] = _sample_initial(m0, grid, count, rng)
    for k in range(grid.nt - 1):
        vel = interp_space_reference(v.values[k], pos[:, k], grid.nx)
        pos[:, k + 1] = np.mod(pos[:, k] + grid.dt * vel, 1.0)
    return pos


def gaussian_bump(x, center, sigma=0.05):
    d = (x - center + 0.5) % 1.0 - 0.5
    return np.exp(-d ** 2 / (2 * sigma ** 2))


class TestSolveContinuity:
    @pytest.mark.parametrize("dim,nx", [(1, (5,)), (1, (64,)), (2, (6, 7))])
    def test_flux_is_the_split_divergence_of_momenta(self, dim, nx):
        grid = TorusGrid(dim, nx, 3, 1.0)
        rng = np.random.default_rng(21)
        m = rng.random(nx) * (rng.random(nx) > 0.2)
        v = rng.standard_normal((*nx, dim)) * (rng.random((*nx, dim)) > 0.2)
        wk = m[..., None] * split_by_sign(v)
        expected = split_divergence(wk[..., :dim], wk[..., dim:], grid)
        # the donor-cell stencil written out per axis
        ref = np.zeros(nx)
        for a in range(dim):
            va = v[..., a]
            flux = np.maximum(va, 0.0) * m \
                + np.minimum(np.roll(va, -1, a), 0.0) * np.roll(m, -1, a)
            ref += (flux - np.roll(flux, 1, a)) / grid.dx[a]
        assert expected.tobytes() == ref.tobytes()

    def test_zero_velocity_freezes(self):
        grid = TorusGrid(1, (32,), 17, 1.0)
        rng = np.random.default_rng(0)
        m0 = rng.random(32)
        m = solve_continuity(m0, const_velocity(grid, [0.0]))
        np.testing.assert_array_equal(m.values, np.tile(m0, (17, 1)))

    def test_constant_density_constant_velocity(self):
        grid = TorusGrid(1, (32,), 65, 1.0)
        m = solve_continuity(np.ones(32), const_velocity(grid, [0.45]))
        np.testing.assert_allclose(m.values, 1.0, atol=1e-13)

    def test_translation_oracle_first_order(self):
        # constant-velocity advection approximates the exact translate of a
        # smooth bump with O(dx) L1 error
        V = 0.45
        errs = []
        for nx in (64, 128):
            grid = TorusGrid(1, (nx,), 4 * nx + 1, 1.0)
            x = grid.axis_coords(0)
            m0 = gaussian_bump(x, 0.3)
            m = solve_continuity(m0, const_velocity(grid, [V]))
            exact = gaussian_bump(x, 0.3 + V * 1.0)
            errs.append(float(np.sum(np.abs(m.values[-1] - exact)) * grid.dx[0]))
        assert errs[0] <= 0.12
        assert errs[1] <= 0.75 * errs[0]

    def test_mass_conservation_to_roundoff(self):
        grid = TorusGrid(2, (16, 16), 33, 1.0)
        rng = np.random.default_rng(1)
        m0 = rng.random((16, 16))
        v_raw = rng.uniform(-0.2, 0.2, (grid.nt, 16, 16, 2))
        m = solve_continuity(m0, VecField(grid, v_raw))
        masses = m.values.reshape(grid.nt, -1).sum(axis=1) * grid.cell_volume
        assert np.max(np.abs(masses - masses[0])) <= 1e-12 * masses[0]

    def test_positivity_preserved(self):
        grid = TorusGrid(1, (32,), 65, 1.0)
        rng = np.random.default_rng(2)
        m0 = np.maximum(rng.standard_normal(32), 0.0)
        v = VecField(grid, rng.uniform(-0.49, 0.49, (grid.nt, 32, 1)))
        m = solve_continuity(m0, v)
        assert np.min(m.values) >= 0.0

    def test_cfl_refusal(self):
        grid = TorusGrid(1, (32,), 17, 1.0)   # dt = 1/16, dx = 1/32
        with pytest.raises(ParameterError):
            solve_continuity(np.ones(32), const_velocity(grid, [1.0]))

    def test_cfl_refusal_on_the_last_level(self):
        # the march never reads the last level's velocity, but it is checked
        grid = TorusGrid(2, (8, 8), 5, 1.0)   # dt = 1/4, dx = 1/8
        vals = np.zeros((grid.nt, 8, 8, 2))
        vals[:-1, ..., 0] = 0.25              # load 0.5
        vals[-1, 3, 4, 1] = -2.5              # load 5 at one node
        assert solve_continuity(np.ones((8, 8)), VecField(grid, np.where(
            vals < -1.0, 0.0, vals))).values.min() >= 0.0
        with pytest.raises(ParameterError, match="CFL"):
            solve_continuity(np.ones((8, 8)), VecField(grid, vals))

    def test_negative_initial_density_refused(self):
        grid = TorusGrid(1, (32,), 17, 1.0)
        with pytest.raises(ParameterError):
            solve_continuity(-np.ones(32), const_velocity(grid, [0.0]))


class TestAdjointPairing:
    @pytest.mark.parametrize("dim,nx", [(1, (24,)), (2, (8, 10))])
    def test_identity_for_arbitrary_fields(self, dim, nx):
        grid = TorusGrid(dim, nx, 7, 0.8)
        rng = np.random.default_rng(3)
        u = ScalarField(grid, rng.standard_normal((7, *nx)))
        m = ScalarField(grid, rng.standard_normal((7, *nx)))
        v = VecField(grid, rng.uniform(-1, 1, (7, *nx, dim)))
        scale = np.max(np.abs(u.values)) * np.max(np.abs(m.values))
        assert abs(pairing_defect(u, m, v)) <= 1e-10 * max(1.0, scale)


class TestSampleTrajectories:
    def test_zero_velocity_constant_paths(self):
        grid = TorusGrid(1, (32,), 9, 1.0)
        ens = sample_trajectories(np.ones(32), const_velocity(grid, [0.0]), 50, seed=1)
        for k in range(grid.nt):
            np.testing.assert_array_equal(ens.positions[:, k], ens.positions[:, 0])

    def test_constant_velocity_exact_euler(self):
        grid = TorusGrid(1, (32,), 9, 1.0)
        V = 0.3
        ens = sample_trajectories(np.ones(32), const_velocity(grid, [V]), 20, seed=2)
        tt = grid.times()
        expect = np.mod(ens.positions[:, 0, 0][:, None] + V * tt[None, :], 1.0)
        np.testing.assert_allclose(ens.positions[:, :, 0], expect, atol=1e-12)

    def test_deterministic_given_seed(self):
        grid = TorusGrid(1, (32,), 9, 1.0)
        v = const_velocity(grid, [0.2])
        a = sample_trajectories(np.ones(32), v, 100, seed=7)
        b = sample_trajectories(np.ones(32), v, 100, seed=7)
        np.testing.assert_array_equal(a.positions, b.positions)
        c = sample_trajectories(np.ones(32), v, 100, seed=8)
        assert np.any(c.positions != a.positions)

    def test_total_weight_matches_mass(self):
        grid = TorusGrid(1, (32,), 9, 1.0)
        m0 = np.linspace(0.5, 1.5, 32)
        ens = sample_trajectories(m0, const_velocity(grid, [0.0]), 123, seed=3)
        assert ens.total_weight == pytest.approx(np.sum(m0) / 32, rel=1e-12)

    def test_zero_mass_refused(self):
        grid = TorusGrid(1, (32,), 9, 1.0)
        with pytest.raises(ParameterError):
            sample_trajectories(np.zeros(32), const_velocity(grid, [0.0]), 10, seed=0)
        with pytest.raises(ParameterError):
            sample_trajectories(np.ones(32), const_velocity(grid, [0.0]), 0, seed=0)

    def test_paths_are_euler_polygons(self):
        # torus-metric defect of the Euler step is zero by construction
        from frontsteer.grid import interp_space
        grid = TorusGrid(2, (12, 12), 7, 1.0)
        rng = np.random.default_rng(6)
        v = VecField(grid, rng.uniform(-0.3, 0.3, (7, 12, 12, 2)))
        ens = sample_trajectories(np.ones((12, 12)), v, 40, seed=9)
        for k in range(grid.nt - 1):
            vel = interp_space(v.values[k], ens.positions[:, k], grid.nx)
            step = ens.positions[:, k + 1] - ens.positions[:, k] - grid.dt * vel
            wrap = (step + 0.5) % 1.0 - 0.5
            assert np.max(np.abs(wrap)) <= 1e-14


    def test_positions_shape_and_time_major_layout(self):
        grid = TorusGrid(2, (6, 5), 7, 1.0)
        v = VecField(grid, np.random.default_rng(5).uniform(-0.4, 0.4, (7, 6, 5, 2)))
        ens = sample_trajectories(np.ones((6, 5)), v, 33, seed=4)
        assert ens.positions.shape == (33, grid.nt, grid.dim) and ens.count == 33
        assert all(ens.positions[:, k].flags.c_contiguous for k in range(grid.nt))
        assert ens.positions.tobytes() == np.ascontiguousarray(ens.positions).tobytes()
        assert np.all((ens.positions >= 0.0) & (ens.positions <= 1.0))

    @pytest.mark.parametrize("count", [37, 2 * _MARCH_BLOCK + 101])
    def test_blocked_march_bitwise_equal_reference(self, count):
        grid = TorusGrid(2, (16, 12), 9, 1.0)
        rng = np.random.default_rng(21)
        v = VecField(grid, rng.uniform(-1.0, 1.0, (9, 16, 12, 2)))
        m0 = rng.random((16, 12))
        ens = sample_trajectories(m0, v, count, seed=13)
        assert ens.positions.tobytes() == march_reference(m0, v, count, seed=13).tobytes()


class TestPushforward:
    def test_self_consistency_large_sample(self):
        # binning error for 1e5 uniform samples on 64 cells stays under 0.05
        grid = TorusGrid(1, (64,), 9, 1.0)
        v = const_velocity(grid, [0.0])
        m = solve_continuity(np.ones(64), v)
        ens = sample_trajectories(np.ones(64), v, 100_000, seed=4)
        assert pushforward_distance(ens, m, 0) <= 0.05
        assert pushforward_distance(ens, m, grid.nt - 1) <= 0.05

    def test_identical_distributions_zero(self):
        grid = TorusGrid(1, (4,), 3, 1.0)
        m = solve_continuity(np.ones(4), const_velocity(grid, [0.0]))
        positions = np.zeros((4, 3, 1))
        positions[:, :, 0] = np.array([0.0, 0.25, 0.5, 0.75])[:, None]
        ens = TrajectoryEnsemble(grid=grid, positions=positions,
                                 weights=np.full(4, 0.25), seed=0)
        assert pushforward_distance(ens, m, 1) == pytest.approx(0.0, abs=1e-14)

    def test_disjoint_supports_total_variation(self):
        grid = TorusGrid(1, (8,), 3, 1.0)
        m0 = np.zeros(8)
        m0[:2] = 1.0                                   # density on the left
        m = solve_continuity(m0, const_velocity(grid, [0.0]))
        positions = np.full((5, 3, 1), 0.75)           # paths on the right
        ens = TrajectoryEnsemble(grid=grid, positions=positions,
                                 weights=np.full(5, 0.05), seed=0)
        assert pushforward_distance(ens, m, 0) == pytest.approx(2.0)

    @pytest.mark.parametrize("time_major", [False, True])
    def test_csv_bytes_equal_row_by_row_reference(self, tmp_path, time_major):
        grid = TorusGrid(2, (4, 4), 3, 0.7)
        positions = np.random.default_rng(12).random((5, 3, 2))
        positions[0, 0] = [-0.0, 5e-324]
        positions[1, 2] = [np.nextafter(1.0, 0.0), 0.0]
        if time_major:
            positions = np.ascontiguousarray(positions.transpose(1, 0, 2)).transpose(1, 0, 2)
        ens = TrajectoryEnsemble(grid=grid, positions=positions,
                                 weights=np.array([0.2, 5e-324, -0.0, 1 / 3, 0.1]), seed=0)
        write_trajectories(tmp_path / "paths.csv", ens)
        rows = ["path_id,t,x1,x2,weight\n"]
        for i in range(ens.count):
            for k, t in enumerate(grid.times()):
                xs = ",".join(f"{x:.17g}" for x in ens.positions[i, k])
                rows.append(f"{i},{t:.17g},{xs},{ens.weights[i]:.17g}\n")
        assert (tmp_path / "paths.csv").read_bytes() == "".join(rows).encode()

    def test_csv_serialization(self, tmp_path):
        grid = TorusGrid(1, (8,), 3, 1.0)
        ens = sample_trajectories(np.ones(8), const_velocity(grid, [0.1]), 4, seed=5)
        path = tmp_path / "paths.csv"
        write_trajectories(path, ens)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "path_id,t,x1,weight"
        assert len(lines) == 1 + 4 * 3
