"""Backward monotone semi-Lagrangian solver for -u_t + H(x,Du) = f.

The scheme is the discrete dynamic programming principle

    u(t_k, x) = min_a [ I[u(t_{k+1})](x + dt*c(x,a)) ] + dt*f(t_k, x)

with periodic multilinear interpolation I and a finite set of velocity
samples per node (``speed.velocity_samples``: rest + axis + diagonal
directions for isotropic speeds, the given maps for finite control sets).
The min of monotone interpolations makes the scheme monotone, so the
comparison principle holds exactly for the discrete system.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grid import DensityField, ScalarField, TorusGrid, _interp_plan
from .model import IsotropicSpeed

__all__ = [
    "solve_value_function", "extract_front",
    "counterexample_exact", "counterexample_obstacle", "counterexample_in_band",
    "counterexample_instance", "CounterexampleWindow",
]


def _gather_plan(grid: TorusGrid, vel: np.ndarray):
    """Flat corner indices and weights for I[u](x + dt*vel) at every node."""
    foot = np.stack(grid.meshgrid(), axis=-1) + grid.dt * vel
    return _interp_plan(foot.reshape(-1, grid.dim), grid.nx)


def _gather(u: np.ndarray, plan) -> np.ndarray:
    flat = u.reshape(-1)
    out = np.zeros(flat.shape)
    for idx, w in plan:
        out += np.take(flat, idx) * w
    return out.reshape(u.shape)


def solve_value_function(problem, obstacle: ScalarField) -> ScalarField:
    """Solve the backward equation by the discrete dynamic programming scheme.

    The terminal slice equals the problem's terminal payoff exactly; the
    output is monotone nondecreasing in the obstacle, nodewise and exactly.
    """
    grid = problem.grid
    if obstacle.grid != grid:
        raise ParameterError("obstacle field is on a different grid")
    diam = float(np.sqrt(np.sum(np.square(grid.dx))))
    reach = problem.speed.max_speed(grid) * grid.dt
    if reach > 4.0 * diam:
        warnings.warn(
            f"large time step: max speed*dt = {reach:.3g} exceeds "
            f"4 cell diameters; accuracy may degrade", stacklevel=2)
    plans = [_gather_plan(grid, v) for v in problem.speed.velocity_samples(grid)]
    values = np.empty((grid.nt, *grid.nx))
    values[-1] = problem.u_T
    for k in range(grid.nt - 2, -1, -1):
        best = _gather(values[k + 1], plans[0])
        for plan in plans[1:]:
            np.minimum(best, _gather(values[k + 1], plan), out=best)
        values[k] = best + grid.dt * obstacle.values[k]
    values.setflags(write=False)        # the field keeps it without a copy
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
# The closed forms take scalars or arrays of (t, x) that broadcast together;
# scalars in give a Python scalar out.


def _check_eps(eps) -> None:
    if not (isinstance(eps, numbers.Real) and 0.0 <= eps < np.inf):
        raise ParameterError(f"eps must be a finite number >= 0, got {eps!r}")


def _check_window(eps: float, t, x) -> None:
    _check_eps(eps)
    if not np.all((0.0 <= t) & (t <= 1.0) & (0.0 <= x) & (x <= 2.0)):
        raise ParameterError(f"(t, x) = ({t}, {x}) outside [0,1] x [0,2]")


def _cone_gap(t, x):
    """Signed distance of x to the expanding obstacle cone [1-t, 1+t]."""
    return np.abs(x - 1.0) - t


def _profile(eps: float, d):
    """1 on the cone (gap d <= 0), 0 beyond the eps-band (d >= eps), the
    linear ramp 1 - d/eps inside the band; a step at eps = 0."""
    if eps == 0:
        return np.where(d <= 0, 1.0, 0.0)
    return np.clip(1.0 - d / eps, 0.0, 1.0)


def _scalar(v):
    return v.item() if np.ndim(v) == 0 else v


def counterexample_obstacle(eps: float, t, x) -> float | np.ndarray:
    """The growing obstacle: 1 on the cone |x-1| <= t, 0 beyond the eps-band,
    linear ramp in distance to the cone inside the band."""
    _check_window(eps, t, x)
    return _scalar(_profile(eps, _cone_gap(t, x)))


def counterexample_exact(eps: float, t, x) -> float | np.ndarray:
    """Closed-form value function of the blocking counterexample.

    (1-t) on the cone, 0 beyond the eps-band; inside the transition band the
    value returned is the linear interpolation of the two regimes and is
    flagged by counterexample_in_band (excluded from exact comparisons).
    Outside the band (1-t) * obstacle has the bits of 1-t or of 0, since the
    obstacle there is exactly 1 or 0 and 1-t >= 0.
    """
    _check_window(eps, t, x)
    return _scalar((1.0 - t) * _profile(eps, _cone_gap(t, x)))


def counterexample_in_band(eps: float, t, x) -> bool | np.ndarray:
    """True on the open transition band where the closed form is not exact."""
    _check_window(eps, t, x)
    d = _cone_gap(t, x)
    return _scalar((0.0 < d) & (d < eps))


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
        values = _profile(self.eps, _cone_gap(g.times()[:, None], xw))
        values.setflags(write=False)        # the field keeps it without a copy
        return ScalarField(g, values)

    def exact_window(self, t_index: int) -> np.ndarray:
        return counterexample_exact(self.eps, self.grid.times()[t_index], self.window_x())

    def comparison_mask(self, t_index: int) -> np.ndarray:
        """Window nodes outside the band and a (dx+dt)-neighborhood of the
        cone boundary, where the closed form is exact."""
        d = _cone_gap(self.grid.times()[t_index], self.window_x())
        margin = self.dx_window + self.grid.dt
        return (d <= -margin) | (d >= self.eps + margin)


def counterexample_instance(eps: float, window_points: int, nt: int) -> CounterexampleWindow:
    """Build the discrete counterexample embedding on a unit-period torus.

    The window [0,2] occupies half the torus (scale 4); unit window speed
    becomes torus radius 1/4.  With the canonical 401 x 201 grid of
    ``reproduce`` (``cli.DEFAULT_CONFIG``) the CFL ratio is exactly 1, so
    semi-Lagrangian feet land on nodes.
    """
    if window_points < 5:
        raise ParameterError("window needs at least 5 points")
    _check_eps(eps)
    scale = 4.0
    nx = 2 * (window_points - 1)
    grid = TorusGrid(1, (nx,), nt, 1.0)
    return CounterexampleWindow(eps=float(eps), grid=grid,
                                window_points=window_points, scale=scale)


def counterexample_speed(window: CounterexampleWindow) -> IsotropicSpeed:
    return IsotropicSpeed(1, 1.0 / window.scale)
