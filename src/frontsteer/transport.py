"""The discrete operator pair, the continuity solver built on it, and a
trajectory sampler.

The pair is the split divergence of Achdou & Capuzzo-Dolcetta (SIAM J.
Numer. Anal. 2010), ``split_divergence``, and its adjoint up to sign, the
one-sided differences ``one_sided``.  ``pdopt``, ``certify`` and
``solve_continuity`` share it, with ``split_by_sign``, the CFL load
``split_load`` and the march ``march_split``.

``solve_continuity`` is donor-cell finite volume with nodal velocities split
by sign: the flux through face i+1/2 is v_i^+ m_i + v_{i+1}^- m_{i+1}.  Fluxes
telescope over the periodic grid, so total mass is conserved to round-off,
and the scheme is monotone (m stays >= 0) under the CFL condition.  By exact
summation by parts the pair gives ``upwind_directional_derivative``;
``pairing_defect`` checks the discrete integration-by-parts identity for
arbitrary fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grid import DensityField, ScalarField, TorusGrid, VecField, interp_space, wrap_unit

__all__ = [
    "split_divergence", "one_sided", "split_by_sign", "split_load", "march_split",
    "solve_continuity", "sample_trajectories", "pushforward_distance",
    "TrajectoryEnsemble", "upwind_directional_derivative", "pairing_defect",
    "write_trajectories",
]


def _ends(lead: int, a: int) -> tuple[tuple, ...]:
    """Index tuples along space axis a after ``lead`` leading axes: the first
    node, the last node, all but the last (head) and all but the first (tail)."""
    pre = (slice(None),) * (lead + a)
    return (pre + (slice(None, 1),), pre + (slice(-1, None),),
            pre + (slice(None, -1),), pre + (slice(1, None),))


def split_divergence(w_plus: np.ndarray, w_minus: np.ndarray,
                     grid: TorusGrid) -> np.ndarray:
    """Divergence of split momenta: along each axis the flux through face
    i+1/2 is w_plus_i + w_minus_{i+1} (w_plus >= 0 >= w_minus for a monotone
    scheme).  Both have shape (..., *nx, dim) with arbitrary leading axes;
    the stencils are slices, equal bit for bit to their periodic-shift forms."""
    div = np.zeros(w_plus.shape[:-1])
    for a in range(grid.dim):
        first, last, head, tail = _ends(w_plus.ndim - 1 - grid.dim, a)
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


def one_sided(phi: np.ndarray, grid: TorusGrid) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward differences (D+ phi, D- phi) over the space axes,
    the adjoint of ``split_divergence`` up to sign: div^T phi = (-D+ phi,
    -D- phi).  phi has shape (..., *nx) with arbitrary leading axes, each
    result (..., *nx, dim); the stencils are slices, equal bit for bit to
    their periodic-shift forms."""
    fwd = np.empty((*phi.shape, grid.dim))
    bwd = np.empty_like(fwd)
    for a in range(grid.dim):
        first, last, head, tail = _ends(phi.ndim - grid.dim, a)
        f, b = fwd[..., a], bwd[..., a]
        np.subtract(phi[tail], phi[head], out=f[head])
        np.subtract(phi[first], phi[last], out=f[last])
        f /= grid.dx[a]
        b[tail] = f[head]
        b[first] = f[last]
    return fwd, bwd


def split_by_sign(v: np.ndarray) -> np.ndarray:
    """Nodal vectors v, shape (..., dim), as split velocities or momenta
    (max(v, 0), min(v, 0)) along the last axis, shape (..., 2*dim): the
    donor-cell form."""
    return np.concatenate([np.maximum(v, 0.0), np.minimum(v, 0.0)], axis=-1)


def split_load(v: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The CFL load sum_a (v+_a - v-_a) dt/dx_a of split velocities v, shape
    (..., 2*dim); a march keeps m >= 0 where it is at most 1."""
    d = grid.dim
    return sum((v[..., a] - v[..., d + a]) / grid.dx[a] for a in range(d)) * grid.dt


def march_split(m0: np.ndarray, v: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """m0 marched through the continuity rows by split velocities v, shape
    (nt - 1, *nx, 2*dim): m_{k+1} = m_k - dt div(m_k v_k^+, m_k v_k^-)."""
    d = grid.dim
    m = np.empty((grid.nt, *grid.nx))
    m[0] = m0
    for k in range(grid.nt - 1):
        wk = m[k][..., None] * v[k]
        div = split_divergence(wk[..., :d], wk[..., d:], grid)
        div *= grid.dt
        np.subtract(m[k], div, out=m[k + 1])
    return m


def solve_continuity(m0: np.ndarray, v: VecField) -> DensityField:
    """March the continuity equation forward from the initial density slice:
    ``march_split`` of v split by sign.

    Mass is conserved exactly (telescoping fluxes) and nonnegativity is
    preserved; a CFL violation on any of the nt levels refuses to run.
    """
    grid = v.grid
    m0 = np.asarray(m0, dtype=float)
    if m0.shape != grid.nx:
        raise ParameterError(f"m0 shape {m0.shape} != grid {grid.nx}")
    if np.min(m0) < 0:
        raise ParameterError("initial density must be >= 0")
    split = split_by_sign(v.values)
    worst = float(np.max(split_load(split, grid)))
    if worst > 1.0 + 1e-12:
        raise ParameterError(
            f"CFL violation: max speed load {worst:.4g} > 1 "
            f"(require sum_axes |v_a|*dt/dx_a <= 1 for positivity)")
    m = march_split(m0, split[:-1], grid)
    # monotone scheme: only round-off can dip below zero
    floor = np.min(m)
    if floor < -1e-12 * max(1.0, np.max(np.abs(m))):
        raise ParameterError(f"density went negative ({floor}) despite CFL check")
    return DensityField(grid, np.maximum(m, 0.0))


def upwind_directional_derivative(u_next: np.ndarray, v: np.ndarray,
                                  grid: TorusGrid) -> np.ndarray:
    """v-oriented one-sided derivative of u adjoint to the donor-cell flux:
    v^+ D+ u + v^- D- u summed over axes."""
    d = grid.dim
    fwd, bwd = one_sided(u_next, grid)
    vs = split_by_sign(v)
    out = np.zeros_like(u_next)
    for a in range(d):
        out += vs[..., a] * fwd[..., a] + vs[..., d + a] * bwd[..., a]
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
        wk = m.values[k][..., None] * split_by_sign(v.values[k])
        div = split_divergence(wk[..., :grid.dim], wk[..., grid.dim:], grid)
        total += vol * np.sum(u.values[k + 1] * (dm + grid.dt * div))
        total += vol * np.sum(
            m.values[k] * (du + grid.dt * upwind_directional_derivative(
                u.values[k + 1], v.values[k], grid)))
    boundary = vol * (np.sum(u.values[-1] * m.values[-1]) - np.sum(u.values[0] * m.values[0]))
    return float(total - boundary)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Sampled Euler polygons of a velocity field with per-path mass.

    ``positions`` has shape (count, nt, dim), each coordinate wrapped by
    ``grid.wrap_unit`` into [0,1) (or to exactly 1.0 from within round-off
    below 0).  ``sample_trajectories`` stores it time-major, as the
    transpose of a C-ordered (nt, count, dim) array, so ``positions[:, k]``
    is contiguous; ``positions.tobytes()`` is in (count, nt, dim) order for
    any layout.
    """

    grid: TorusGrid
    positions: np.ndarray      # (count, nt, dim)
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
    position is independent of the block size.  Positions are stored
    time-major, (nt, count, dim): each step reads one contiguous block of
    level k and writes its wrap (``grid.wrap_unit``, the bits of
    ``np.mod(x, 1.0)``) straight into level k + 1.  ``positions`` is the
    (count, nt, dim) transpose of that array.
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    grid = v.grid
    m0 = np.asarray(m0, dtype=float)
    mass = float(np.sum(m0) * grid.cell_volume)
    if not mass > 0:
        raise ParameterError("initial density has zero total mass")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    paths = np.empty((grid.nt, count, grid.dim))
    paths[0] = _sample_initial(m0, grid, count, rng)
    for start in range(0, count, _MARCH_BLOCK):
        block = slice(start, start + _MARCH_BLOCK)
        for k in range(grid.nt - 1):
            cur = paths[k, block]
            step = interp_space(v.values[k], cur, grid.nx)
            step *= grid.dt
            step += cur
            wrap_unit(step, out=paths[k + 1, block])
    weights = np.full(count, mass / count)
    return TrajectoryEnsemble(grid=grid, positions=paths.transpose(1, 0, 2),
                              weights=weights, seed=int(seed))


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
    """CSV rows: path_id, t, x_1..x_N, weight; one ``%`` format per path."""
    grid = ens.grid
    row = "%d," + ",".join(["%.17g"] * (grid.dim + 2)) + "\n"
    per_path = row * grid.nt
    cols = np.empty((grid.nt, grid.dim + 3))     # path_id, t, x_1..x_N, weight
    cols[:, 1] = grid.times()
    with open(path, "w") as fh:
        xs = ",".join(f"x{a + 1}" for a in range(grid.dim))
        fh.write(f"path_id,t,{xs},weight\n")
        for i in range(ens.count):
            cols[:, 0] = i
            cols[:, 2:-1] = ens.positions[i]
            cols[:, -1] = ens.weights[i]
            fh.write(per_path % tuple(cols.ravel().tolist()))
