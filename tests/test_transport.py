import numpy as np
import pytest

from conftest import (split_by_sign_reference, traced_peak,
                      upwind_directional_derivative_reference)
from frontsteer.errors import ParameterError
from frontsteer import transport
from frontsteer.grid import ScalarField, TorusGrid, VecField
from frontsteer.transport import (TrajectoryEnsemble, one_sided, pushforward_distance,
                                  pushforward_floor, sample_trajectories, solve_continuity,
                                  split_by_sign, split_divergence,
                                  upwind_directional_derivative, write_trajectories)


def const_velocity(grid, vec):
    vals = np.broadcast_to(np.asarray(vec, dtype=float),
                           (grid.nt, *grid.nx, grid.dim)).copy()
    return VecField(grid, vals)


def chain_reference(m0, v, count, seed):
    """Per-path form of the sampler's Markov chain: each path scans its own
    jump probabilities in order and moves by index arithmetic, kept as the
    bitwise reference for the vectorized table lookups."""
    grid = v.grid
    d = grid.dim
    draws = [np.random.Generator(np.random.Philox(key=[seed, k])).random(count)
             for k in range(grid.nt)]
    cum = np.cumsum(m0.ravel() / np.sum(m0))
    cum[-1] = 1.0
    cells = np.empty((grid.nt, count), dtype=np.int32)
    for i in range(count):
        cell = int(np.searchsorted(cum, draws[0][i], side="right"))
        cells[0, i] = cell
        for k in range(grid.nt - 1):
            idx = [int(j) for j in np.unravel_index(cell, grid.nx)]
            vel = v.values[k][tuple(idx)]
            probs = [max(vel[a], 0.0) * (grid.dt / grid.dx[a]) for a in range(d)] \
                + [min(vel[a], 0.0) * (-grid.dt / grid.dx[a]) for a in range(d)]
            total = 0.0
            for e, prob in enumerate(probs):
                total += prob
                if draws[k + 1][i] < total:
                    a = e % d
                    idx[a] = (idx[a] + (1 if e < d else -1)) % grid.nx[a]
                    break
            cell = int(np.ravel_multi_index(idx, grid.nx))
            cells[k + 1, i] = cell
    return cells


def stacked_cells(ens):
    """Every path's cell at every level, (nt, count), level by level from
    ``cells_at``."""
    return np.stack([ens.cells_at(k) for k in range(ens.grid.nt)])


def walk_reference(grid, start, codes):
    """Cells (nt, count) of paths from ``start`` by step codes (nt - 1,
    count), moved by index arithmetic: code a < dim is +e_a, dim + a is
    -e_a, 2*dim stays."""
    d = grid.dim
    idx = np.stack(np.unravel_index(np.asarray(start, dtype=np.intp), grid.nx))
    cells = [np.ravel_multi_index(idx, grid.nx)]
    for code in codes:
        for a in range(d):
            idx[a] = (idx[a] + (code == a) - (code == d + a)) % grid.nx[a]
        cells.append(np.ravel_multi_index(idx, grid.nx))
    return np.stack(cells)


def hand_built(grid, start, codes, weight):
    """The ensemble of paths from ``start`` by step codes (nt - 1, count),
    the codes packed two to a byte as the sampler stores them."""
    codes = np.asarray(codes, dtype=np.uint8).reshape(grid.nt - 1, -1)
    moves = np.zeros((grid.nt // 2, codes.shape[1]), dtype=np.uint8)
    moves |= codes[0::2]
    moves[:len(codes) // 2] |= codes[1::2] << 4
    start = np.asarray(start, dtype=np.min_scalar_type(grid.n_space - 1))
    return TrajectoryEnsemble(grid=grid, start=start, moves=moves, weight=weight)


def cell_steps(ens):
    """Per-axis index change of every path at every step, wrapped into
    [-n/2, n/2), shape (nt - 1, count, dim)."""
    idx = np.stack(np.unravel_index(stacked_cells(ens), ens.grid.nx), axis=-1)
    n = np.array(ens.grid.nx)
    return (np.diff(idx, axis=0) + n // 2) % n - n // 2


def gaussian_bump(x, center, sigma=0.05):
    d = (x - center + 0.5) % 1.0 - 0.5
    return np.exp(-d ** 2 / (2 * sigma ** 2))


class TestSolveContinuity:
    def test_marches_one_split_level_at_a_time(self):
        # 2D 64^2x65 at load <= 0.8, in units of one density array.
        # Measured: 1.20, the density, which the field takes read-only as it
        # is, and its finiteness mask; each level is split by sign in a
        # level buffer and clamped in place (2.19 when the field copied the
        # writable density, 5.1 when all nt - 1 levels were split at once
        # and the clamp made a copy)
        grid = TorusGrid(2, (64, 64), 65, 1.0)
        rng = np.random.default_rng(5)
        v = VecField(grid, rng.uniform(-0.4, 0.4, (65, 64, 64, 2)))
        m, peak = traced_peak(solve_continuity, rng.random((64, 64)), v)
        assert peak <= 1.5 * m.values.nbytes
        assert not m.values.flags.writeable
        assert np.min(m.values) >= 0.0

    @pytest.mark.parametrize("dim,nx", [(1, (5,)), (1, (64,)), (2, (6, 7))])
    def test_flux_is_the_split_divergence_of_momenta(self, dim, nx):
        grid = TorusGrid(dim, nx, 3, 1.0)
        rng = np.random.default_rng(21)
        m = rng.random(nx) * (rng.random(nx) > 0.2)
        v = rng.standard_normal((*nx, dim)) * (rng.random((*nx, dim)) > 0.2)
        wk = m * split_by_sign(v)                                     # component-major
        expected = split_divergence(wk[:dim], wk[dim:], grid)
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


class TestUpwindPairing:
    @pytest.mark.parametrize("dim,nx", [(1, (24,)), (2, (8, 10))])
    def test_minus_adjoint_of_split_divergence(self, dim, nx):
        # <phi, div(m a, m b)> = -<m, a.D+ phi + b.D- phi> for any phi, m and
        # split velocities (a, b), with and without a leading time axis: the
        # march's flux and the pairing the certifier takes u's derivative by
        grid = TorusGrid(dim, nx, 4, 1.0)
        rng = np.random.default_rng(3)
        for lead in ((), (3,)):
            phi = rng.standard_normal((*lead, *nx))
            m = rng.random((*lead, *nx))
            v = split_by_sign(rng.uniform(-1.0, 1.0, (*lead, *nx, dim)))
            mv = m * v                                                # component-major
            div = split_divergence(mv[:dim], mv[dim:], grid)
            pairing = upwind_directional_derivative(*one_sided(phi, grid), v)
            assert pairing.shape == phi.shape
            scale = np.max(np.abs(phi)) * np.max(m) * phi.size
            assert np.sum(phi * div) == pytest.approx(-np.sum(m * pairing),
                                                       abs=1e-12 * scale)


class TestComponentMajorSplit:
    """``split_by_sign`` writes the component-major split of nodal fields
    and stored pairs, and ``upwind_directional_derivative`` reads it; both
    give the bits of their components-last forms."""

    @pytest.mark.parametrize("nx", [(24,), (8, 10)])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_split_by_sign_gives_the_components_last_bits(self, nx, lead):
        rng = np.random.default_rng(41)
        shape = (*lead, *nx, len(nx))
        w, w_minus = (rng.standard_normal(shape) * (rng.random(shape) > 0.2) for _ in range(2))
        w[rng.random(shape) < 0.1] = -0.0
        for given in (w, (w, w_minus)):
            ref = np.ascontiguousarray(np.moveaxis(split_by_sign_reference(given), -1, 0))
            assert split_by_sign(given).tobytes() == ref.tobytes()
            out = np.full((2 * len(nx), *lead, *nx), np.nan)
            assert split_by_sign(given, out=out) is out and out.tobytes() == ref.tobytes()
        # a nodal w is the pair (w, w)
        assert split_by_sign(w).tobytes() == split_by_sign((w, w)).tobytes()

    @pytest.mark.parametrize("nx", [(24,), (8, 10)])
    def test_upwind_pairing_gives_the_components_last_bits(self, nx):
        grid = TorusGrid(len(nx), nx, 4, 1.0)
        rng = np.random.default_rng(42)
        for lead in ((), (3,)):
            diffs = one_sided(rng.standard_normal((*lead, *nx)), grid)
            v = split_by_sign_reference(rng.standard_normal((*lead, *nx, grid.dim)))
            got = upwind_directional_derivative(*diffs, np.ascontiguousarray(np.moveaxis(v, -1, 0)))
            assert got.tobytes() == upwind_directional_derivative_reference(*diffs, v).tobytes()


class TestSampleTrajectories:
    def test_zero_velocity_constant_paths(self):
        grid = TorusGrid(1, (32,), 9, 1.0)
        ens = sample_trajectories(np.ones(32), const_velocity(grid, [0.0]), 50, seed=1)
        # every step's code is 2, stay, in both halves of every byte
        assert np.all(ens.moves == 2 | 2 << 4)
        cells = stacked_cells(ens)
        positions = transport._node_coords(grid, cells.T)
        for k in range(grid.nt):
            np.testing.assert_array_equal(cells[k], ens.start)
            np.testing.assert_array_equal(positions[:, k], positions[:, 0])

    def test_load_one_moves_every_path_one_cell_per_step(self):
        # dt = 1/8, dx = 1/32 and |v| = 1/4: every jump has probability 1
        grid = TorusGrid(1, (32,), 9, 1.0)
        steps = np.arange(grid.nt)[:, None]
        for vel, sign in ((0.25, 1), (-0.25, -1)):
            ens = sample_trajectories(np.ones(32), const_velocity(grid, [vel]), 20, seed=2)
            np.testing.assert_array_equal(stacked_cells(ens), (ens.start + sign * steps) % 32)
        # 2D, along the second axis only: dt = 1/4, dx_1 = 1/16
        grid = TorusGrid(2, (8, 16), 5, 1.0)
        ens = sample_trajectories(np.ones((8, 16)), const_velocity(grid, [0.0, -0.25]),
                                  20, seed=3)
        rows, cols = np.unravel_index(stacked_cells(ens), grid.nx)
        np.testing.assert_array_equal(rows, np.broadcast_to(rows[0], rows.shape))
        np.testing.assert_array_equal(cols, (cols[0] - np.arange(grid.nt)[:, None]) % 16)

    def test_deterministic_given_seed(self):
        grid = TorusGrid(1, (32,), 9, 1.0)
        v = const_velocity(grid, [0.2])
        a = sample_trajectories(np.ones(32), v, 100, seed=7)
        b = sample_trajectories(np.ones(32), v, 100, seed=7)
        assert a.start.tobytes() == b.start.tobytes()
        assert a.moves.tobytes() == b.moves.tobytes()
        c = sample_trajectories(np.ones(32), v, 100, seed=8)
        assert np.any(stacked_cells(c) != stacked_cells(a))

    def test_path_does_not_depend_on_count(self):
        grid = TorusGrid(2, (16, 16), 17, 1.0)
        rng = np.random.default_rng(8)
        v = VecField(grid, rng.uniform(-0.45, 0.45, (17, 16, 16, 2)))
        m0 = rng.random((16, 16))
        few = sample_trajectories(m0, v, 100, seed=5)
        many = sample_trajectories(m0, v, 1000, seed=5)
        assert stacked_cells(few).tobytes() \
            == np.ascontiguousarray(stacked_cells(many)[:, :100]).tobytes()

    def test_total_weight_matches_mass(self):
        grid = TorusGrid(1, (32,), 9, 1.0)
        m0 = np.linspace(0.5, 1.5, 32)
        ens = sample_trajectories(m0, const_velocity(grid, [0.0]), 123, seed=3)
        assert ens.weight * ens.count == pytest.approx(np.sum(m0) / 32, rel=1e-12)

    def test_zero_mass_refused(self):
        grid = TorusGrid(1, (32,), 9, 1.0)
        with pytest.raises(ParameterError):
            sample_trajectories(np.zeros(32), const_velocity(grid, [0.0]), 10, seed=0)
        with pytest.raises(ParameterError):
            sample_trajectories(np.ones(32), const_velocity(grid, [0.0]), 0, seed=0)

    def test_over_cfl_refused(self):
        # the chain's jump probabilities would sum past 1; the last level counts
        grid = TorusGrid(2, (8, 8), 5, 1.0)   # dt = 1/4, dx = 1/8
        vals = np.zeros((grid.nt, 8, 8, 2))
        vals[..., 0] = 0.25                   # load 0.5
        assert sample_trajectories(np.ones((8, 8)), VecField(grid, vals), 10,
                                   seed=0).count == 10
        vals[-1, 3, 4, 1] = -2.5              # load 5 at one node
        with pytest.raises(ParameterError, match="CFL"):
            sample_trajectories(np.ones((8, 8)), VecField(grid, vals), 10, seed=0)
        with pytest.raises(ParameterError, match="CFL"):
            sample_trajectories(np.ones(32), const_velocity(TorusGrid(1, (32,), 17, 1.0),
                                                            [1.0]), 10, seed=0)

    def test_steps_are_single_jumps_the_split_allows(self):
        grid = TorusGrid(2, (12, 12), 7, 1.0)   # dt = 1/6, dx = 1/12
        rng = np.random.default_rng(6)
        v = VecField(grid, rng.uniform(-0.24, 0.24, (7, 12, 12, 2)))
        ens = sample_trajectories(np.ones((12, 12)), v, 400, seed=9)
        steps = cell_steps(ens)
        assert np.all(np.abs(steps) <= 1)
        assert np.all(np.sum(np.abs(steps), axis=-1) <= 1)
        assert np.any(steps != 0)
        # a jump along axis a has the sign of v_a in the cell it leaves
        vel = v.values[:-1].reshape(grid.nt - 1, -1, 2)
        here = np.take_along_axis(vel, stacked_cells(ens)[:-1, :, None].astype(np.intp),
                                  axis=1)
        assert np.all(steps * here >= 0)
        assert np.all((steps == 0) | (here != 0))

    def test_positions_shape_and_time_major_layout(self):
        grid = TorusGrid(2, (6, 5), 7, 1.0)
        v = VecField(grid, np.random.default_rng(5).uniform(-0.4, 0.4, (7, 6, 5, 2)))
        ens = sample_trajectories(np.ones((6, 5)), v, 33, seed=4)
        assert ens.start.shape == (33,) and ens.start.dtype == np.uint8
        assert ens.moves.shape == (grid.nt // 2, 33) and ens.moves.dtype == np.uint8
        assert ens.moves.flags.c_contiguous and ens.count == 33
        cells = stacked_cells(ens)
        positions = transport._node_coords(grid, cells.T)
        assert positions.shape == (33, grid.nt, grid.dim)
        i, j = np.unravel_index(cells.T, grid.nx)
        assert positions[..., 0].tobytes() == grid.axis_coords(0)[i].tobytes()
        assert positions[..., 1].tobytes() == grid.axis_coords(1)[j].tobytes()
        assert np.all((positions >= 0.0) & (positions < 1.0))

    @pytest.mark.parametrize("count", [37, 2000])
    def test_cells_bitwise_equal_per_path_reference(self, count):
        grid = TorusGrid(2, (16, 12), 9, 1.0)   # dt = 1/8: load <= 0.28 * 3.5
        rng = np.random.default_rng(21)
        v = VecField(grid, rng.uniform(-0.28, 0.28, (9, 16, 12, 2)))
        m0 = rng.random((16, 12))
        ens = sample_trajectories(m0, v, count, seed=13)
        assert ens.start.dtype == np.uint8          # 192 nodes
        assert stacked_cells(ens).astype(np.int32).tobytes() \
            == chain_reference(m0, v, count, seed=13).tobytes()

    @pytest.mark.parametrize("nx,vmax,dtype", [
        ((200,), 0.038, np.uint8),      # dt/dx = 25; cell * 3 passes 255
        ((24, 16), 0.19, np.uint16),    # dt/dx_a = 3, 2; 384 nodes
    ])
    def test_narrow_cells_bitwise_equal_per_path_reference(self, nx, vmax, dtype):
        grid = TorusGrid(len(nx), nx, 9, 1.0)
        rng = np.random.default_rng(22)
        v = VecField(grid, rng.uniform(-vmax, vmax, (grid.nt, *nx, grid.dim)))
        m0 = rng.random(nx)
        ens = sample_trajectories(m0, v, 300, seed=14)
        assert ens.start.dtype == dtype
        assert stacked_cells(ens).astype(np.int32).tobytes() \
            == chain_reference(m0, v, 300, seed=14).tobytes()

    @pytest.mark.parametrize("count", [1, 15, 16, 17, 53])
    def test_chunks_bitwise_equal_per_path_reference(self, monkeypatch, count):
        # counts 1, chunk - 1, chunk, chunk + 1 and 3 * chunk + 5 at a chunk
        # of 16 paths: each level's stream drawn chunk after chunk
        monkeypatch.setattr(transport, "_CHUNK", 16)
        grid = TorusGrid(2, (16, 12), 9, 1.0)
        rng = np.random.default_rng(23)
        v = VecField(grid, rng.uniform(-0.28, 0.28, (9, 16, 12, 2)))
        m0 = rng.random((16, 12))
        ens = sample_trajectories(m0, v, count, seed=15)
        assert stacked_cells(ens).astype(np.int32).tobytes() \
            == chain_reference(m0, v, count, seed=15).tobytes()

    def test_chunks_bitwise_equal_one_chunk(self, monkeypatch):
        # at the default chunk, 3 * chunk + 5 paths in chunks against one
        # chunk holding every path
        count = 3 * transport._CHUNK + 5
        grid = TorusGrid(2, (24, 16), 9, 1.0)
        rng = np.random.default_rng(24)
        v = VecField(grid, rng.uniform(-0.19, 0.19, (9, 24, 16, 2)))
        m0 = rng.random((24, 16))
        chunked = sample_trajectories(m0, v, count, seed=16)
        monkeypatch.setattr(transport, "_CHUNK", count)
        whole = sample_trajectories(m0, v, count, seed=16)
        assert chunked.start.dtype == np.uint16
        assert chunked.start.tobytes() == whole.start.tobytes()
        assert chunked.moves.tobytes() == whole.moves.tobytes()

    @pytest.mark.parametrize("nx,nt,vmax,dtype", [
        ((16, 16), 17, 0.45, np.uint8),     # 256 nodes
        ((24, 16), 33, 0.45, np.uint16),    # 384 nodes; dt/dx_a = 3/4, 1/2
    ])
    def test_memory_is_half_a_byte_per_path_and_step(self, nx, nt, vmax, dtype):
        # the stored moves, two 4-bit codes a byte, the start cells and the
        # running cells (one itemsize each per path), then one level's jump
        # table, the neighbour table and one chunk's scratch: a uniform
        # (float64), a code (uint8) and a pick index (int32), and for a
        # moment a gathered probability (float64) and a comparison (bool),
        # 22 bytes per path of a chunk, allowed 32; no per-path float64 is
        # held, and a cell per path and level would take 2 * 33 bytes per
        # path on the uint16 grid against 16 + 4 here
        grid = TorusGrid(2, nx, nt, 1.0)
        rng = np.random.default_rng(3)
        v = VecField(grid, rng.uniform(-vmax, vmax, (nt, *nx, 2)))
        m0 = rng.random(nx)
        count = 3 * transport._CHUNK + 5
        ens, peak = traced_peak(sample_trajectories, m0, v, count, seed=1)
        itemsize = ens.start.itemsize
        assert ens.start.dtype == dtype and ens.moves.dtype == np.uint8
        assert ens.moves.nbytes == grid.nt // 2 * count
        tables = 8 * grid.n_space * 2 * grid.dim + itemsize * grid.n_space * 5
        assert peak <= grid.nt // 2 * count + 2 * itemsize * count + tables \
            + 32 * transport._CHUNK

    @pytest.mark.parametrize("nt", [2, 3, 8, 9])
    def test_cells_at_walks_the_codes(self, nt):
        # the low half of a byte is the even step, the high half the odd
        # one; at even nt the last row's high half is unused
        grid = TorusGrid(2, (5, 4), nt, 1.0)
        rng = np.random.default_rng(nt)
        start = rng.integers(0, 20, 40)
        codes = rng.integers(0, 5, (nt - 1, 40))
        ens = hand_built(grid, start, codes, 0.1)
        assert ens.moves.shape == (nt // 2, 40) and ens.count == 40
        cells = stacked_cells(ens)
        assert cells.dtype == np.uint8
        assert cells.astype(np.intp).tobytes() == walk_reference(grid, start, codes).tobytes()
        # each call walks afresh: a level is not a view of another
        assert ens.cells_at(0) is not ens.cells_at(0)
        assert ens.cells_at(0).tobytes() == ens.start.tobytes()
        with pytest.raises(IndexError):
            ens.cells_at(nt)


class TestPushforward:
    def test_self_consistency_large_sample(self):
        # binning error for 1e5 uniform samples on 64 cells stays under 0.05
        grid = TorusGrid(1, (64,), 9, 1.0)
        v = const_velocity(grid, [0.0])
        m = solve_continuity(np.ones(64), v)
        ens = sample_trajectories(np.ones(64), v, 100_000, seed=4)
        assert pushforward_distance(ens, m, 0) <= 0.05
        assert pushforward_distance(ens, m, grid.nt - 1) <= 0.05

    @pytest.mark.parametrize("dim,nx,nt,vmax", [(1, (64,), 65, 0.9), (2, (16, 16), 17, 0.45)])
    def test_distance_within_three_monte_carlo_floors(self, dim, nx, nt, vmax):
        # the chain's expected histogram is the march, so only sampling error remains
        grid = TorusGrid(dim, nx, nt, 1.0)
        rng = np.random.default_rng(17)
        v = VecField(grid, rng.uniform(-vmax, vmax, (nt, *nx, dim)))
        x = np.stack(grid.meshgrid(), axis=-1)
        m0 = np.exp(-np.sum((x - 0.4) ** 2, axis=-1) / 0.02)
        m = solve_continuity(m0, v)
        count = 20_000
        ens = sample_trajectories(m0, v, count, seed=2)
        for k in (0, nt // 2, nt - 1):
            floor = pushforward_floor(m, k, count)
            assert 0 < floor < 1
            assert pushforward_distance(ens, m, k) <= 3.0 * floor

    def test_floor_of_a_uniform_density(self):
        grid = TorusGrid(1, (4,), 3, 1.0)
        m = solve_continuity(np.ones(4), const_velocity(grid, [0.0]))
        expect = np.sqrt(2 / np.pi) * 4 * np.sqrt(0.25 * 0.75 / 100)
        assert pushforward_floor(m, 2, 100) == pytest.approx(expect, rel=1e-14)

    def test_identical_distributions_zero(self):
        grid = TorusGrid(1, (4,), 3, 1.0)
        m = solve_continuity(np.ones(4), const_velocity(grid, [0.0]))
        # one cell per path, every path one cell right, then back
        ens = hand_built(grid, np.arange(4), [[0] * 4, [1] * 4], 0.25)
        for k in range(grid.nt):
            assert pushforward_distance(ens, m, k) == pytest.approx(0.0, abs=1e-14)

    def test_hand_built_histogram_half_off(self):
        # the histogram (1/2, 1/4, 0, 1/4), shifted one cell right at each
        # step, against the uniform 1/4: exactly 1/2
        grid = TorusGrid(1, (4,), 3, 1.0)
        m = solve_continuity(np.ones(4), const_velocity(grid, [0.0]))
        ens = hand_built(grid, [0, 0, 1, 3], np.zeros((2, 4)), 0.25)
        for k in range(grid.nt):
            assert pushforward_distance(ens, m, k) == 0.5

    def test_disjoint_supports_total_variation(self):
        grid = TorusGrid(1, (8,), 3, 1.0)
        m0 = np.zeros(8)
        m0[:2] = 1.0                                   # density on the left
        m = solve_continuity(m0, const_velocity(grid, [0.0]))
        # paths on the right: one cell further right, then back
        ens = hand_built(grid, np.full(5, 6), [[0] * 5, [1] * 5], 0.05)
        for k in range(grid.nt):
            assert pushforward_distance(ens, m, k) == pytest.approx(2.0)

    @pytest.mark.parametrize("weight", [1 / 3, 5e-324])
    @pytest.mark.parametrize("time_major", [False, True])
    @pytest.mark.parametrize("chunk", [2, 1 << 14])
    def test_csv_bytes_equal_row_by_row_reference(self, tmp_path, monkeypatch, time_major,
                                                  weight, chunk):
        # chunks of 2 paths walk 5 paths in three blocks, the last of one path
        monkeypatch.setattr(transport, "_CHUNK", chunk)
        grid = TorusGrid(2, (4, 4), 4, 0.7)
        rng = np.random.default_rng(12)
        start, codes = rng.integers(0, 16, 5), rng.integers(0, 5, (3, 5))
        start[0] = 0
        cells = walk_reference(grid, start, codes)
        ens = hand_built(grid, start, codes, weight)
        if not time_major:
            moves = np.ascontiguousarray(ens.moves.T).T   # a path-major array's view
            ens = TrajectoryEnsemble(grid=grid, start=ens.start, moves=moves, weight=weight)
        write_trajectories(tmp_path / "paths.csv", ens)
        rows = ["path_id,t,x1,x2,weight\n"]
        for i in range(ens.count):
            for k, t in enumerate(grid.times()):
                i0, i1 = np.unravel_index(cells[k, i], grid.nx)
                xs = f"{i0 / 4:.17g},{i1 / 4:.17g}"
                rows.append(f"{i},{t:.17g},{xs},{weight:.17g}\n")
        assert (tmp_path / "paths.csv").read_bytes() == "".join(rows).encode()

    def test_csv_serialization(self, tmp_path):
        grid = TorusGrid(1, (8,), 3, 1.0)
        ens = sample_trajectories(np.ones(8), const_velocity(grid, [0.1]), 4, seed=5)
        path = tmp_path / "paths.csv"
        write_trajectories(path, ens)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "path_id,t,x1,weight"
        assert len(lines) == 1 + 4 * 3
