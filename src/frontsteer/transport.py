"""Conservative upwind solver for m_t + div(m v) = 0 and a trajectory sampler.

The density update is donor-cell finite volume with nodal velocities: the
flux through face i+1/2 along each axis is v_i^+ m_i + v_{i+1}^- m_{i+1}.
In momentum form this is ``split_divergence`` of (m v^+, m v^-), the one
divergence that the primal-dual solver shares.
Fluxes telescope over the periodic grid, so total mass is conserved to
round-off at every level, and the scheme is monotone (m stays >= 0) under
the CFL condition.

The same flux defines, by exact summation by parts, the adjoint directional
derivative ``upwind_directional_derivative``; ``pairing_defect`` checks the
resulting discrete integration-by-parts identity for arbitrary fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grid import DensityField, ScalarField, TorusGrid, VecField, interp_space

__all__ = [
    "solve_continuity", "sample_trajectories", "pushforward_distance",
    "TrajectoryEnsemble", "upwind_directional_derivative", "pairing_defect",
    "write_trajectories", "split_divergence",
]


def split_divergence(w_plus: np.ndarray, w_minus: np.ndarray,
                     grid: TorusGrid) -> np.ndarray:
    """Divergence of split momenta: along each axis the flux through face
    i+1/2 is w_plus_i + w_minus_{i+1} (w_plus >= 0 >= w_minus for a monotone
    scheme).  Both have shape (..., *nx, dim) with arbitrary leading axes;
    the stencils are slices, equal bit for bit to their np.roll forms."""
    div = np.zeros(w_plus.shape[:-1])
    lead = (slice(None),) * (w_plus.ndim - 1 - grid.dim)
    for a in range(grid.dim):
        pre = lead + (slice(None),) * a
        first, last = pre + (slice(None, 1),), pre + (slice(-1, None),)
        head, tail = pre + (slice(None, -1),), pre + (slice(1, None),)
        wm = w_minus[..., a]
        flux = w_plus[..., a].copy()
        flux[head] += wm[tail]
        flux[last] += wm[first]
        term = np.empty_like(flux)
        np.subtract(flux[tail], flux[head], out=term[tail])
        np.subtract(flux[first], flux[last], out=term[first])
        term /= grid.dx[a]
        div += term
    return div


def _flux_divergence(m: np.ndarray, v: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """div of the donor-cell flux of density m under nodal velocities v: the
    split divergence of the momenta (m v^+, m v^-)."""
    mv = m[..., None]
    return split_divergence(mv * np.maximum(v, 0.0), mv * np.minimum(v, 0.0), grid)


def _check_cfl(v: np.ndarray, grid: TorusGrid) -> None:
    load = np.zeros(v.shape[:-1])
    for a in range(grid.dim):
        load = load + np.abs(v[..., a]) / grid.dx[a]
    worst = float(np.max(load) * grid.dt)
    if worst > 1.0 + 1e-12:
        raise ParameterError(
            f"CFL violation: max speed load {worst:.4g} > 1 "
            f"(require sum_axes |v_a|*dt/dx_a <= 1 for positivity)")


def solve_continuity(m0: np.ndarray, v: VecField) -> DensityField:
    """March the continuity equation forward from the initial density slice.

    Mass is conserved exactly (telescoping fluxes) and nonnegativity is
    preserved; a CFL violation refuses to run.
    """
    grid = v.grid
    m0 = np.asarray(m0, dtype=float)
    if m0.shape != grid.nx:
        raise ParameterError(f"m0 shape {m0.shape} != grid {grid.nx}")
    if np.min(m0) < 0:
        raise ParameterError("initial density must be >= 0")
    _check_cfl(v.values, grid)
    m = np.empty((grid.nt, *grid.nx))
    m[0] = m0
    for k in range(grid.nt - 1):
        m[k + 1] = m[k] - grid.dt * _flux_divergence(m[k], v.values[k], grid)
    # monotone scheme: only round-off can dip below zero
    floor = np.min(m)
    if floor < -1e-12 * max(1.0, np.max(np.abs(m))):
        raise ParameterError(f"density went negative ({floor}) despite CFL check")
    return DensityField(grid, np.maximum(m, 0.0))


def upwind_directional_derivative(u_next: np.ndarray, v: np.ndarray,
                                  grid: TorusGrid) -> np.ndarray:
    """v-oriented one-sided derivative of u adjoint to the donor-cell flux:
    v^+ (u_{i+1}-u_i)/dx + v^- (u_i-u_{i-1})/dx summed over axes."""
    out = np.zeros_like(u_next)
    for a in range(grid.dim):
        va = v[..., a]
        fwd = (np.roll(u_next, -1, a) - u_next) / grid.dx[a]
        bwd = (u_next - np.roll(u_next, 1, a)) / grid.dx[a]
        out += np.maximum(va, 0.0) * fwd + np.minimum(va, 0.0) * bwd
    return out


def pairing_defect(u: ScalarField, m: ScalarField | DensityField, v: VecField) -> float:
    """Residual of the discrete integration-by-parts identity

        sum u*(dm + dt*div(mv)) + sum m*(du + dt*v.Du_upwind)
            = <u(T), m(T)> - <u(0), m(0)>

    which holds to round-off for arbitrary fields (it defines the adjoint
    pairing used by the primal-dual solver and the certifiers)."""
    grid = u.grid
    if m.grid != grid or v.grid != grid:
        raise ParameterError("fields live on different grids")
    vol = grid.cell_volume
    total = 0.0
    for k in range(grid.nt - 1):
        du = u.values[k + 1] - u.values[k]
        dm = m.values[k + 1] - m.values[k]
        total += vol * np.sum(
            u.values[k + 1] * (dm + grid.dt * _flux_divergence(m.values[k], v.values[k], grid)))
        total += vol * np.sum(
            m.values[k] * (du + grid.dt * upwind_directional_derivative(
                u.values[k + 1], v.values[k], grid)))
    boundary = vol * (np.sum(u.values[-1] * m.values[-1]) - np.sum(u.values[0] * m.values[0]))
    return float(total - boundary)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Sampled Euler polygons of a velocity field with per-path mass."""

    grid: TorusGrid
    positions: np.ndarray      # (count, nt, dim), wrapped into [0,1)
    weights: np.ndarray        # (count,)
    seed: int

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))


def _sample_initial(m0: np.ndarray, grid: TorusGrid, count: int,
                    rng: np.random.Generator) -> np.ndarray:
    probs = m0.ravel() / np.sum(m0)
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    cells = np.searchsorted(cum, rng.random(count), side="right")
    idx = np.unravel_index(cells, grid.nx)
    pos = np.empty((count, grid.dim))
    for a in range(grid.dim):
        # node i owns the cell [x_i - dx/2, x_i + dx/2)
        pos[:, a] = np.mod((idx[a] - 0.5 + rng.random(count)) * grid.dx[a], 1.0)
    return pos


# Paths marched together: bounds the interpolation temporaries (corner
# indices, weights, gathered values) to a few MB whatever the path count.
_MARCH_BLOCK = 8192


def sample_trajectories(m0: np.ndarray, v: VecField, count: int,
                        seed: int) -> TrajectoryEnsemble:
    """Monte Carlo realization of the superposition representation.

    Initial positions are drawn from m0 / mass(m0) with a Philox generator
    keyed by the seed, so an ensemble is reproducible from (seed, count).
    One stream serves all paths: the ``count`` cell draws come first, then
    the ``count`` in-cell offsets per axis, so the position of path i changes
    with ``count``.  Paths follow forward Euler along the multilinearly
    interpolated velocity field.  The march advances blocks of paths, each
    through all time levels before the next; paths do not interact, so every
    position is independent of the block size.
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    grid = v.grid
    m0 = np.asarray(m0, dtype=float)
    mass = float(np.sum(m0) * grid.cell_volume)
    if not mass > 0:
        raise ParameterError("initial density has zero total mass")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    pos = np.empty((count, grid.nt, grid.dim))
    pos[:, 0] = _sample_initial(m0, grid, count, rng)
    for start in range(0, count, _MARCH_BLOCK):
        block = slice(start, start + _MARCH_BLOCK)
        cur = pos[block, 0].copy()
        for k in range(grid.nt - 1):
            vel = interp_space(v.values[k], cur, grid.nx)
            vel *= grid.dt
            vel += cur
            cur = np.mod(vel, 1.0)
            pos[block, k + 1] = cur
    weights = np.full(count, mass / count)
    return TrajectoryEnsemble(grid=grid, positions=pos, weights=weights, seed=int(seed))


def _bin_positions(ens: TrajectoryEnsemble, t: int) -> np.ndarray:
    grid = ens.grid
    pos = ens.positions[:, grid.check_time_index(t)]
    flat_idx = np.zeros(ens.count, dtype=int)
    for a in range(grid.dim):
        ia = np.mod(np.floor(pos[:, a] * grid.nx[a] + 0.5).astype(int), grid.nx[a])
        flat_idx = flat_idx * grid.nx[a] + ia
    hist = np.bincount(flat_idx, weights=ens.weights, minlength=grid.n_space)
    return hist.reshape(grid.nx)


def pushforward_distance(ens: TrajectoryEnsemble, m: DensityField, t: int) -> float:
    """L1 distance between the normalized path histogram (nodal binning) and
    m(t)/mass; lies in [0, 2]."""
    if ens.grid != m.grid:
        raise ParameterError("ensemble and density live on different grids")
    hist = _bin_positions(ens, t)
    p_hat = hist / np.sum(hist)
    slice_m = m.at(t)
    mass = np.sum(slice_m)
    if mass <= 0:
        return 2.0 if np.sum(hist) > 0 else 0.0
    return float(np.sum(np.abs(p_hat - slice_m / mass)))


def write_trajectories(path, ens: TrajectoryEnsemble) -> None:
    """CSV rows: path_id, t, x_1..x_N, weight."""
    times = ens.grid.times()
    with open(path, "w") as fh:
        cols = ",".join(f"x{a + 1}" for a in range(ens.grid.dim))
        fh.write(f"path_id,t,{cols},weight\n")
        for i in range(ens.count):
            for k, t in enumerate(times):
                xs = ",".join(f"{x:.17g}" for x in ens.positions[i, k])
                fh.write(f"{i},{t:.17g},{xs},{ens.weights[i]:.17g}\n")
