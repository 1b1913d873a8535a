"""Backward monotone semi-Lagrangian solver for -u_t + H(x,Du) = f.

The scheme is the discrete dynamic programming principle

    u(t_k, x) = min_a [ I[u(t_{k+1})](x + dt*c(x,a)) ] + dt*f(t_k, x)

with periodic multilinear interpolation I and a finite set of velocity
samples per node (rest + axis + diagonal directions for isotropic speeds,
the given maps for finite control sets).  The min of monotone interpolations
makes the scheme monotone, so the comparison principle holds exactly for the
discrete system.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grid import DensityField, ScalarField, TorusGrid
from .model import IsotropicSpeed, SpeedModel

__all__ = [
    "control_velocities", "solve_value_function", "extract_front",
    "counterexample_exact", "counterexample_obstacle", "counterexample_in_band",
    "counterexample_instance", "CounterexampleWindow",
]


def control_velocities(speed: SpeedModel, grid: TorusGrid) -> list[np.ndarray]:
    """Velocity samples per node, each of shape (*nx, dim).

    The zero velocity is always included (the admissible set contains it).
    Isotropic speeds sample rest + 2*dim axis + 2^dim diagonal directions
    scaled to the local radius.
    """
    nx = grid.nx
    dim = grid.dim
    vels = [np.zeros((*nx, dim))]
    if isinstance(speed, IsotropicSpeed):
        r = speed.radius_nodes(nx)
        dirs = []
        for a in range(dim):
            for s in (1.0, -1.0):
                e = np.zeros(dim)
                e[a] = s
                dirs.append(e)
        for signs in itertools.product((1.0, -1.0), repeat=dim):
            d = np.array(signs) / np.sqrt(dim)
            dirs.append(d)
        seen = []
        for d in dirs:
            if any(np.allclose(d, s) for s in seen):
                continue
            seen.append(d)
            vels.append(r[..., None] * d)
    else:
        pts = np.stack(grid.meshgrid(), axis=-1)
        for vmap in speed.velocities:
            vels.append(np.asarray(vmap(pts), dtype=float).reshape(*nx, dim))
    return vels


def _gather_plan(grid: TorusGrid, vel: np.ndarray):
    """Precompute corner indices and weights for I[u](x + dt*vel)."""
    foot = np.stack(grid.meshgrid(), axis=-1) + grid.dt * vel
    base, frac = [], []
    for a in range(grid.dim):
        xi = np.mod(foot[..., a], 1.0) * grid.nx[a]
        i0 = np.floor(xi).astype(int)
        frac.append(xi - i0)
        base.append(np.mod(i0, grid.nx[a]))
    plan = []
    for corner in itertools.product((0, 1), repeat=grid.dim):
        w = np.ones(grid.nx)
        idx = []
        for a, c in enumerate(corner):
            w = w * (frac[a] if c else (1.0 - frac[a]))
            idx.append(np.mod(base[a] + c, grid.nx[a]))
        plan.append((tuple(idx), w))
    return plan


def _gather(u: np.ndarray, plan) -> np.ndarray:
    out = np.zeros_like(u)
    for idx, w in plan:
        out += u[idx] * w
    return out


def solve_value_function(problem, obstacle: ScalarField) -> ScalarField:
    """Solve the backward equation by the discrete dynamic programming scheme.

    The terminal slice equals the problem's terminal payoff exactly; the
    output is monotone nondecreasing in the obstacle, nodewise and exactly.
    """
    grid = problem.grid
    if obstacle.grid != grid:
        raise ParameterError("obstacle field is on a different grid")
    diam = float(np.sqrt(np.sum(np.square(grid.dx))))
    if problem.speed.c1 * grid.dt > 4.0 * diam:
        warnings.warn(
            f"large time step: c1*dt = {problem.speed.c1 * grid.dt:.3g} exceeds "
            f"4 cell diameters; accuracy may degrade", stacklevel=2)
    plans = [_gather_plan(grid, v) for v in control_velocities(problem.speed, grid)]
    values = np.empty((grid.nt, *grid.nx))
    values[-1] = problem.u_T
    for k in range(grid.nt - 2, -1, -1):
        best = _gather(values[k + 1], plans[0])
        for plan in plans[1:]:
            np.minimum(best, _gather(values[k + 1], plan), out=best)
        values[k] = best + grid.dt * obstacle.values[k]
    return ScalarField(grid, values)


def extract_front(field: ScalarField | DensityField, t: int, level: float,
                  mode: str = "sublevel") -> set[tuple[int, ...]]:
    """Grid cells with nodal value <= level ("sublevel") or > level ("obstacle").

    Deterministic nodal thresholding; no interpolation of the boundary.
    """
    vals = field.at(t)
    if mode == "sublevel":
        mask = vals <= level
    elif mode == "obstacle":
        mask = vals > level
    else:
        raise ParameterError(f"unknown front mode {mode!r}")
    return {tuple(int(i) for i in idx) for idx in np.argwhere(mask)}


# -- blocking counterexample: c == 1, u_T == 0 on the window [0,1] x [0,2] ---


def _check_window(t: float, x: float) -> None:
    if not (0.0 <= t <= 1.0) or not (0.0 <= x <= 2.0):
        raise ParameterError(f"(t, x) = ({t}, {x}) outside [0,1] x [0,2]")


def _cone_gap(t: float, x: float) -> float:
    """Signed distance of x to the expanding obstacle cone [1-t, 1+t]."""
    return abs(x - 1.0) - t


def counterexample_obstacle(eps: float, t: float, x: float) -> float:
    """The growing obstacle: 1 on the cone |x-1| <= t, 0 beyond the eps-band,
    linear ramp in distance to the cone inside the band."""
    if eps < 0:
        raise ParameterError("eps must be >= 0")
    _check_window(t, x)
    return _obstacle_value(eps, t, x)


def _obstacle_value(eps: float, t: float, x: float) -> float:
    d = _cone_gap(t, x)
    if d <= 0:
        return 1.0
    if eps == 0 or d >= eps:
        return 0.0
    return 1.0 - d / eps


def counterexample_exact(eps: float, t: float, x: float) -> float:
    """Closed-form value function of the blocking counterexample.

    (1-t) on the cone, 0 beyond the eps-band; inside the transition band the
    value returned is the linear interpolation of the two regimes and is
    flagged by counterexample_in_band (excluded from exact comparisons).
    """
    if eps < 0:
        raise ParameterError("eps must be >= 0")
    _check_window(t, x)
    d = _cone_gap(t, x)
    if d <= 0:
        return 1.0 - t
    if eps == 0 or d >= eps:
        return 0.0
    return (1.0 - t) * (1.0 - d / eps)


def counterexample_in_band(eps: float, t: float, x: float) -> bool:
    """True on the open transition band where the closed form is not exact."""
    _check_window(t, x)
    d = _cone_gap(t, x)
    return 0.0 < d < eps


@dataclass(frozen=True)
class CounterexampleWindow:
    """Discrete embedding of the [0,1] x [0,2] counterexample window.

    The window sits inside a length-4 torus (scaled to unit period) so the
    obstacle never wraps onto itself and escaping trajectories can park in a
    zero-cost buffer, mimicking the unbounded domain of the construction.
    """

    eps: float
    grid: TorusGrid            # unit torus, nx = 2*(nxw-1)
    window_points: int         # nodes covering [0, 2]
    scale: float               # window length per torus period (= 4)

    @property
    def dx_window(self) -> float:
        return 2.0 / (self.window_points - 1)

    def window_x(self) -> np.ndarray:
        return np.arange(self.window_points) * self.dx_window

    def window_values(self, field: ScalarField, t: int) -> np.ndarray:
        """Field values on the window nodes at one time level."""
        return field.at(t)[: self.window_points]

    def obstacle_field(self) -> ScalarField:
        g = self.grid
        xw = self.scale * g.axis_coords(0)
        xw = np.where(xw > 3.0, xw - self.scale, xw)    # center the buffer at x=3
        vals = np.empty((g.nt, g.nx[0]))
        for k, t in enumerate(g.times()):
            d = np.abs(xw - 1.0) - t
            if self.eps > 0:
                vals[k] = np.clip(1.0 - d / self.eps, 0.0, 1.0)
            else:
                vals[k] = np.where(d <= 0, 1.0, 0.0)
        return ScalarField(g, vals)

    def exact_window(self, t_index: int) -> np.ndarray:
        t = self.grid.times()[t_index]
        return np.array([counterexample_exact(self.eps, t, x) for x in self.window_x()])

    def comparison_mask(self, t_index: int) -> np.ndarray:
        """Window nodes outside the band and a (dx+dt)-neighborhood of the
        cone boundary, where the closed form is exact."""
        t = self.grid.times()[t_index]
        d = np.abs(self.window_x() - 1.0) - t
        margin = self.dx_window + self.grid.dt
        return (d <= -margin) | (d >= self.eps + margin)


def counterexample_instance(eps: float, window_points: int = 401,
                            nt: int = 201) -> CounterexampleWindow:
    """Build the discrete counterexample embedding on a unit-period torus.

    The window [0,2] occupies half the torus (scale 4); unit window speed
    becomes torus radius 1/4.  With the canonical 401 x 201 grid the CFL
    ratio is exactly 1, so semi-Lagrangian feet land on nodes.
    """
    if window_points < 5:
        raise ParameterError("window needs at least 5 points")
    scale = 4.0
    nx = 2 * (window_points - 1)
    grid = TorusGrid(1, (nx,), nt, 1.0)
    return CounterexampleWindow(eps=float(eps), grid=grid,
                                window_points=window_points, scale=scale)


def counterexample_speed(window: CounterexampleWindow) -> IsotropicSpeed:
    return IsotropicSpeed(1, 1.0 / window.scale)
