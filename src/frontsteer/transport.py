"""The discrete operator pair, the continuity solver built on it, and a
path sampler of the same march.

The pair is the split divergence of Achdou & Capuzzo-Dolcetta (SIAM J.
Numer. Anal. 2010), ``split_divergence``, and its adjoint up to sign, the
one-sided differences ``one_sided``.  ``pdopt``, ``certify`` and
``solve_continuity`` share it, with ``split_by_sign``, the CFL load
``split_load`` and the march ``march_split``; its level loop,
``_march_levels``, also builds ``pdopt``'s certificate block by block.
Split momenta and velocities are component-major throughout the package,
(2*dim, ..., *nx) with the w+ components first, or (dim, ..., *nx) per
half, so each component is one contiguous array.  Components come last
only at the boundary (``VecField``, field files, the bundle's pair), which
``split_by_sign``, the one sign clip, reads.  Each stencil is one shift of
the flat arrays with the periodic faces written over after it, prepared
once for arrays that a solver reuses (``_divergence``, ``_differences``).

``solve_continuity`` is donor-cell finite volume with nodal velocities split
by sign: the flux through face i+1/2 is v_i^+ m_i + v_{i+1}^- m_{i+1}.  Fluxes
telescope over the periodic grid, so total mass is conserved to round-off,
and the scheme is monotone (m stays >= 0) under the CFL condition.
``upwind_directional_derivative`` pairs the one-sided differences with split
velocities, the adjoint side of the march's fluxes.

``sample_trajectories`` draws paths of the Markov chain whose law is that
march (one jump of at most one cell per step), so the expected path
histogram is the marched density at every level.  The march and the chain
share one CFL test, taken one level at a time; the chain builds its jump
table one level at a time too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grid import DensityField, TorusGrid, VecField
# unused here; perfbench/tracing.py wraps it in this namespace
from .grid import interp_space

_CFL_SLACK = 1.0 + 1e-12        # the largest CFL load a march accepts: 1 plus round-off

__all__ = [
    "split_divergence", "one_sided", "split_by_sign", "split_load", "march_split",
    "solve_continuity", "sample_trajectories", "pushforward_distance",
    "pushforward_floor", "TrajectoryEnsemble", "upwind_directional_derivative",
    "write_trajectories",
]


def _ends(lead: int, a: int) -> tuple[tuple, tuple]:
    """Index tuples of the first and the last node along space axis a after
    ``lead`` leading axes."""
    pre = (slice(None),) * (lead + a)
    return pre + (slice(None, 1),), pre + (slice(-1, None),)


def _flat(x: np.ndarray) -> np.ndarray:
    """x as one flat view, so a shift along a space axis is one slice; x
    must be C-contiguous, or the view would be a copy."""
    if not x.flags.c_contiguous:
        raise ValueError("stencil arrays must be C-contiguous")
    return x.reshape(-1)


def _prepared(calls: list, result: np.ndarray):
    """A function of no arguments that makes the ufunc calls, each a pair
    (function, arguments) on views of fixed arrays sliced once, and returns
    ``result``: a stencil run every iteration or every level is sliced only
    when it is prepared.  On small arrays the slicing costs as much as the
    arithmetic: one divergence of a 64-node level took about 3 us prepared
    and 8 us sliced on each call (2-core x86 VM, numpy 2.4)."""
    def run() -> np.ndarray:
        for fn, args in calls:
            fn(*args)
        return result
    return run


def _divergence(w_plus: np.ndarray, w_minus: np.ndarray, grid: TorusGrid,
                div: np.ndarray, flux: np.ndarray, term: np.ndarray):
    """``split_divergence`` of the fixed, C-contiguous arrays w_plus and
    w_minus into div, with flux and term as scratch, prepared once
    (``_prepared``).

    Each stencil is one shifted slice of the flat arrays, then the faces
    across the periodic boundary, where that shift reads the wrong node, are
    written over from slices of the shaped ones: every entry is the sum or
    difference of its periodic-shift form, bit for bit."""
    flux_f, term_f = _flat(flux), _flat(term)
    calls = []
    for a in range(grid.dim):
        first, last = _ends(div.ndim - grid.dim, a)
        s = math.prod(grid.nx[a + 1:])            # the flat shift of one node along a
        wp, wm = w_plus[a], w_minus[a]
        calls += [(np.add, (_flat(wp)[:-s], _flat(wm)[s:], flux_f[:-s])),
                  (np.add, (wp[last], wm[first], flux[last])),
                  (np.subtract, (flux_f[s:], flux_f[:-s], term_f[s:])),
                  (np.subtract, (flux[first], flux[last], term[first])),
                  (np.divide, (term, grid.dx[a], term)),
                  # the sum over axes starts from 0, which turns a -0 term into +0
                  (np.add, (div, term, div) if a else (term, 0.0, div))]
    return _prepared(calls, div)


def split_divergence(w_plus: np.ndarray, w_minus: np.ndarray,
                     grid: TorusGrid) -> np.ndarray:
    """Divergence of split momenta: along each axis the flux through face
    i+1/2 is w_plus_i + w_minus_{i+1} (w_plus >= 0 >= w_minus for a monotone
    scheme).  Both are C-contiguous, (dim, ..., *nx) with arbitrary axes
    between; the divergence has shape (..., *nx).  The stencils are flat
    shifts with the periodic faces written over (``_divergence``)."""
    div, flux, term = (np.empty(w_plus.shape[1:]) for _ in range(3))
    return _divergence(w_plus, w_minus, grid, div, flux, term)()


def _differences(phi: np.ndarray, grid: TorusGrid, fwd: np.ndarray, bwd: np.ndarray):
    """``one_sided`` of the fixed, C-contiguous phi into fwd and bwd,
    prepared once (``_prepared``), with the stencils of ``_divergence``."""
    phi_f = _flat(phi)
    calls = []
    for a in range(grid.dim):
        first, last = _ends(phi.ndim - grid.dim, a)
        s = math.prod(grid.nx[a + 1:])
        f, b = fwd[a], bwd[a]
        f_f, b_f = _flat(f), _flat(b)
        calls += [(np.subtract, (phi_f[s:], phi_f[:-s], f_f[:-s])),
                  (np.subtract, (phi[first], phi[last], f[last])),
                  (np.divide, (f, grid.dx[a], f)),
                  (np.copyto, (b_f[s:], f_f[:-s])),
                  (np.copyto, (b[first], f[last]))]
    return _prepared(calls, fwd)


def one_sided(phi: np.ndarray, grid: TorusGrid) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward differences (D+ phi, D- phi) over the space axes,
    the adjoint of ``split_divergence`` up to sign: div^T phi = (-D+ phi,
    -D- phi).  phi has shape (..., *nx) with arbitrary leading axes, each
    result is component-major, (dim, ..., *nx).  The stencils are flat
    shifts with the periodic faces written over (``_differences``)."""
    fwd, bwd = np.empty((grid.dim, *phi.shape)), np.empty((grid.dim, *phi.shape))
    _differences(np.ascontiguousarray(phi), grid, fwd, bwd)()
    return fwd, bwd


def split_by_sign(w, out: np.ndarray | None = None) -> np.ndarray:
    """The donor-cell split (max(w_plus, 0), min(w_minus, 0)) of a stored
    pair (w_plus, w_minus), or of a nodal w, the pair (w, w); inputs have
    their components last, (..., dim), and the split is component-major,
    (2*dim, ...), written into ``out`` if given."""
    w_plus, w_minus = w if isinstance(w, tuple) else (w, w)
    d = w_plus.shape[-1]
    split = np.empty((2 * d, *w_plus.shape[:-1])) if out is None else out
    for a in range(d):
        np.maximum(w_plus[..., a], 0.0, out=split[a])
        np.minimum(w_minus[..., a], 0.0, out=split[d + a])
    return split


def split_load(v: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The CFL load sum_a (v+_a - v-_a) dt/dx_a of split velocities v,
    component-major, shape (2*dim, ...); a march keeps m >= 0 where it is at
    most 1."""
    d = grid.dim
    return sum((v[a] - v[d + a]) / grid.dx[a] for a in range(d)) * grid.dt


def march_split(m0: np.ndarray, v: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """m0 marched through the continuity rows by split velocities v,
    component-major, shape (2*dim, nt - 1, *nx):
    m_{k+1} = m_k - dt div(m_k v_k^+, m_k v_k^-)."""
    m = np.empty((grid.nt, *grid.nx))
    m[0] = m0
    _march_levels(m, v, 0, grid)
    return m


def _march_levels(m: np.ndarray, v: np.ndarray, start: int, grid: TorusGrid) -> None:
    """The levels of ``march_split`` from ``start``, in place: m[start]
    marched by v[:, j] into m[start + j + 1] for each level j of the split
    velocities v, (2*dim, levels, *nx), so a march can be built one block of
    levels at a time.  The level momenta m_k v_k, the divergence and its
    flux and term live in level buffers built once, so a level allocates
    nothing."""
    d = grid.dim
    wk = np.empty((2 * d, *grid.nx))
    div = np.empty(grid.nx)
    divergence = _divergence(wk[:d], wk[d:], grid, div, np.empty(grid.nx), np.empty(grid.nx))
    for j in range(v.shape[1]):
        k = start + j
        np.multiply(m[k], v[:, j], out=wk)
        divergence()
        div *= grid.dt
        np.subtract(m[k], div, out=m[k + 1])


def _check_cfl(v: VecField) -> None:
    """Refuse v when the CFL load of its split by sign passes ``_CFL_SLACK`` on
    any level: beyond it the march can go negative and the chain's jump
    probabilities sum past 1.  Loads are taken one level at a time; the
    message names the largest over all levels."""
    worst = float(np.max([np.max(split_load(split_by_sign(vk), v.grid)) for vk in v.values]))
    if worst > _CFL_SLACK:
        raise ParameterError(
            f"CFL violation: max speed load {worst:.4g} > 1 "
            f"(require sum_axes |v_a|*dt/dx_a <= 1 for positivity)")


def solve_continuity(m0: np.ndarray, v: VecField) -> DensityField:
    """March the continuity equation forward from the initial density slice:
    ``march_split`` of v split by sign, one level at a time, so the march
    holds one density and level buffers.

    Mass is conserved exactly (telescoping fluxes) and nonnegativity is
    preserved; a CFL violation on any of the nt levels refuses to run.
    """
    grid = v.grid
    m0 = np.asarray(m0, dtype=float)
    if m0.shape != grid.nx:
        raise ParameterError(f"m0 shape {m0.shape} != grid {grid.nx}")
    if np.min(m0) < 0:
        raise ParameterError("initial density must be >= 0")
    _check_cfl(v)
    m = np.empty((grid.nt, *grid.nx))
    m[0] = m0
    split = np.empty((2 * grid.dim, 1, *grid.nx))      # one level's split
    for k in range(grid.nt - 1):
        _march_levels(m, split_by_sign(v.values[k:k + 1], out=split), k, grid)
    # monotone scheme: only round-off can dip below zero
    floor, top = np.min(m), np.max(m)
    if floor < -1e-12 * max(1.0, top, -floor):
        raise ParameterError(f"density went negative ({floor}) despite CFL check")
    np.maximum(m, 0.0, out=m)
    m.setflags(write=False)             # the field takes m as it is, without a copy
    return DensityField(grid, m)


def upwind_directional_derivative(fwd: np.ndarray, bwd: np.ndarray,
                                  v: np.ndarray) -> np.ndarray:
    """The pairing sum_a a_a D+_a u + b_a D-_a u of the one-sided differences
    (fwd, bwd) = ``one_sided(u)``, each component-major (dim, ...), with
    split velocities v = (a, b), component-major (2*dim, ...): the
    derivative of u along the donor-cell flux, the pairing counterpart of
    ``split_hamiltonian``."""
    d = len(fwd)
    out = np.zeros(fwd.shape[1:])
    for a in range(d):
        out += v[a] * fwd[a] + v[d + a] * bwd[a]
    return out


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Sampled paths of the split march's Markov chain, each carrying the
    same mass, stored as their first cells and their moves.

    ``start`` holds each path's flat node index (C order over ``grid.nx``)
    at level 0, shape (count,), in the narrowest unsigned integer type that
    holds n_space - 1 (uint8 up to 256 nodes, uint16 up to 65536).
    ``moves`` holds each step's code, the jump it takes as an index into the
    neighbour table (0..2*dim, ``_neighbour_table``), two steps to a byte:
    shape (nt // 2, count), uint8, step k in the low 4 bits of row k // 2
    for even k and in the high 4 bits for odd k.  ``cells_at(t)`` walks
    ``start`` through the table to level t.  ``weight`` is the mass each
    path carries, mass(m0) / count, so the paths together carry the initial
    mass.
    """

    grid: TorusGrid
    start: np.ndarray          # (count,), np.min_scalar_type(n_space - 1)
    moves: np.ndarray          # (nt // 2, count) uint8, two 4-bit codes a byte
    weight: float

    @property
    def count(self) -> int:
        return self.start.shape[0]

    def cells_at(self, t: int) -> np.ndarray:
        """The flat node index of every path at level t, shape (count,), in
        the dtype of ``start``."""
        t = self.grid.check_time_index(t)
        return next(itertools.islice(_walk(self, 0, self.count), t, None))


def _node_coords(grid: TorusGrid, cells: np.ndarray) -> np.ndarray:
    """Coordinates (i_a / n_a per axis) of flat node indices, shape
    (*cells.shape, dim)."""
    idx = np.unravel_index(cells, grid.nx)
    return np.stack([grid.axis_coords(a)[idx[a]] for a in range(grid.dim)], axis=-1)


# paths per chunk of a sampler step: its scratch is O(_CHUNK), not O(count)
_CHUNK = 1 << 14


def _level_rng(seed: int, level: int) -> np.random.Generator:
    """The stream of one time level: Philox keyed by (seed, level), so the
    draws of path i do not depend on how many paths are drawn."""
    return np.random.Generator(np.random.Philox(key=[int(seed), level]))


def _jump_table(split: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The chain's cumulative jump probabilities of one level, shape
    (2*dim, n_space), from its split velocities (2*dim, *nx), which it
    overwrites.  Row e holds each cell's probability of the jumps 0..e, in
    the order +e_0, .., +e_{dim-1}, -e_0, .., -e_{dim-1}: jump +e_a has
    probability a_a dt/dx_a and -e_a has -b_a dt/dx_a."""
    d = grid.dim
    table = split.reshape(2 * d, grid.n_space)
    for a in range(d):
        table[a] *= grid.dt / grid.dx[a]
        table[d + a] *= -grid.dt / grid.dx[a]
    return np.cumsum(table, axis=0, out=table)


def _neighbour_table(grid: TorusGrid, dtype) -> np.ndarray:
    """Flat table of (2*dim + 1) entries per cell, of the cells' dtype: the
    cell after the jumps +e_0, .., -e_{dim-1} of ``_jump_table`` on the
    torus, then the cell itself (no jump).  Entry cell * (2*dim + 1) + code
    is where a step of that code leads."""
    idx = np.arange(grid.n_space, dtype=dtype).reshape(grid.nx)
    plus = [np.roll(idx, -1, axis=a) for a in range(grid.dim)]
    minus = [np.roll(idx, 1, axis=a) for a in range(grid.dim)]
    return np.stack([*plus, *minus, idx], axis=-1).ravel()


def _move(cells: np.ndarray, code: np.ndarray, neighbours: np.ndarray, stride: int,
          at: np.ndarray) -> None:
    """Move ``cells`` in place by their step codes through the neighbour
    table of ``stride`` entries per cell, with ``at`` as scratch, int32: a
    narrow cell index times the stride would wrap."""
    np.multiply(cells, stride, out=at, dtype=at.dtype)
    at += code
    np.take(neighbours, at, out=cells)


def _walk(ens: TrajectoryEnsemble, c0: int, c1: int):
    """The cells of paths c0..c1 - 1 level after level, from ``start``
    through the neighbour table by each step's code: a generator of one
    array, overwritten in place at every step, so a caller keeps a level by
    copying it.  Its scratch is O(c1 - c0)."""
    grid = ens.grid
    neighbours = _neighbour_table(grid, ens.start.dtype)
    stride = 2 * grid.dim + 1
    cells = ens.start[c0:c1].copy()
    code = np.empty(len(cells), dtype=np.uint8)
    at = np.empty(len(cells), dtype=np.int32)
    yield cells
    for k in range(grid.nt - 1):
        row = ens.moves[k // 2, c0:c1]
        if k % 2:
            np.right_shift(row, 4, out=code)
        else:
            np.bitwise_and(row, 15, out=code)
        _move(cells, code, neighbours, stride, at)
        yield cells


def sample_trajectories(m0: np.ndarray, v: VecField, count: int,
                        seed: int) -> TrajectoryEnsemble:
    """Monte Carlo realization of the superposition representation: paths of
    the Markov chain whose law is the split march of ``solve_continuity``
    (the Markov chain approximation of Kushner & Dupuis).

    v is refused above the CFL load of the march (the check of
    ``solve_continuity``).  A path starts in a cell drawn from m0 / mass(m0);
    from level k to k + 1 a path in cell i jumps to i + e_a with probability
    a_a dt/dx_a, to i - e_a with probability -b_a dt/dx_a, and stays
    otherwise.  The expected histogram at every level is therefore the march
    of m0 / mass(m0), so ``pushforward_distance`` measures Monte-Carlo error
    only (``pushforward_floor``).  Every path carries the same mass,
    mass(m0) / count, the ensemble's one ``weight``.

    Level 0's cell draws and each step's uniforms (one per path) come from
    Philox keyed by (seed, level), so an ensemble is reproducible from the
    seed and path i is the same whatever ``count`` is.  Step k builds level
    k's cumulative table (2*dim, n_space) from v[k] split by sign, counts
    the entries of each path's cell that its uniform reaches, which is the
    step's code, and moves the path through a fixed neighbour table,
    ``_CHUNK`` paths at a time: a level's stream drawn chunk after chunk
    gives the same uniforms, and the scratch is one chunk's.  The sampler
    holds one running cell per path; the ensemble stores the level-0 cells
    and the codes, half a byte per path and step (``TrajectoryEnsemble``).
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    grid = v.grid
    m0 = np.asarray(m0, dtype=float)
    mass = float(np.sum(m0) * grid.cell_volume)
    if not mass > 0:
        raise ParameterError("initial density has zero total mass")
    _check_cfl(v)
    start = np.empty(count, dtype=np.min_scalar_type(grid.n_space - 1))
    # every row is written by its even step first, then OR-ed by its odd one
    moves = np.empty((grid.nt // 2, count), dtype=np.uint8)
    neighbours = _neighbour_table(grid, start.dtype)
    stride = 2 * grid.dim + 1
    chunks = [(c0, min(c0 + _CHUNK, count)) for c0 in range(0, count, _CHUNK)]
    # one chunk's scratch, reused: uniforms, codes, neighbour-table indices; a split
    draw = np.empty(min(count, _CHUNK))
    code = np.empty(min(count, _CHUNK), dtype=np.uint8)
    pick = np.empty(min(count, _CHUNK), dtype=np.int32)
    split = np.empty((2 * grid.dim, *grid.nx))
    cum = np.cumsum(m0.ravel() / np.sum(m0))
    cum[-1] = 1.0
    stream = _level_rng(seed, 0)
    for c0, c1 in chunks:
        start[c0:c1] = np.searchsorted(cum, stream.random(out=draw[:c1 - c0]), side="right")
    cells = start.copy()                                   # each path's cell at level k
    for k in range(grid.nt - 1):
        jumps = _jump_table(split_by_sign(v.values[k], out=split), grid)
        stream = _level_rng(seed, k + 1)
        row = moves[k // 2]
        for c0, c1 in chunks:
            uniform = stream.random(out=draw[:c1 - c0])
            cur, step, at = cells[c0:c1], code[:c1 - c0], pick[:c1 - c0]
            step[...] = 0
            # fancy indexing casts narrow indices in small buffers, where take
            # would copy them whole to intp
            for e in range(stride - 1):
                step += jumps[e][cur] <= uniform
            _move(cur, step, neighbours, stride, at)
            if k % 2:
                row[c0:c1] |= np.left_shift(step, 4, out=step)
            else:
                row[c0:c1] = step
    return TrajectoryEnsemble(grid=grid, start=start, moves=moves, weight=mass / count)


def pushforward_distance(ens: TrajectoryEnsemble, m: DensityField, t: int) -> float:
    """L1 distance between the path histogram at level t, p = counts /
    count (every path carries the same mass), and m(t)/mass; lies in
    [0, 2], and is 2 where m(t) carries no mass."""
    if ens.grid != m.grid:
        raise ParameterError("ensemble and density live on different grids")
    counts = np.bincount(ens.cells_at(t), minlength=ens.grid.n_space).reshape(ens.grid.nx)
    slice_m = m.at(t)
    mass = np.sum(slice_m)
    if mass <= 0:
        return 2.0
    return float(np.sum(np.abs(counts / ens.count - slice_m / mass)))


def pushforward_floor(m: DensityField, t: int, count: int) -> float:
    """Monte-Carlo floor of ``pushforward_distance`` for ``count`` paths
    whose level-t cells are independent draws from p = m(t)/mass: the
    normal approximation sqrt(2/pi) * sum_i sqrt(p_i (1 - p_i) / count) of
    the expected L1 error of their histogram."""
    p = m.at(t) / np.sum(m.at(t))
    return float(np.sqrt(2.0 / np.pi) * np.sum(np.sqrt(p * (1.0 - p) / count)))


def write_trajectories(path, ens: TrajectoryEnsemble) -> None:
    """CSV rows: path_id, t, x_1..x_N, weight.  Paths are walked through all
    levels ``_CHUNK`` at a time, so the cells held are O(nt * _CHUNK); node
    coordinates are built one path at a time, one ``%`` format per path."""
    grid = ens.grid
    row = "%d," + ",".join(["%.17g"] * (grid.dim + 2)) + "\n"
    per_path = row * grid.nt
    cols = np.empty((grid.nt, grid.dim + 3))     # path_id, t, x_1..x_N, weight
    cols[:, 1] = grid.times()
    cols[:, -1] = ens.weight
    block = np.empty((grid.nt, min(ens.count, _CHUNK)), dtype=ens.start.dtype)
    with open(path, "w") as fh:
        xs = ",".join(f"x{a + 1}" for a in range(grid.dim))
        fh.write(f"path_id,t,{xs},weight\n")
        for c0 in range(0, ens.count, _CHUNK):
            c1 = min(c0 + _CHUNK, ens.count)
            for k, cells in enumerate(_walk(ens, c0, c1)):
                block[k, :c1 - c0] = cells
            for i in range(c0, c1):
                cols[:, 0] = i
                cols[:, 2:-1] = _node_coords(grid, block[:, i - c0])
                fh.write(per_path % tuple(cols.ravel().tolist()))
