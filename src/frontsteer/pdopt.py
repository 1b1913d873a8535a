"""First-order primal-dual solver for the discrete dual transport problem.

Minimizes   B(m, w) = <u_T, m(T)> + sum_t sum_x K*(m) dx dt
subject to  m >= 0,  w(t,x) in m(t,x) c(x,A)  nodewise, and the discrete
continuity equation (centered divergence, momentum slice k transporting
between levels k and k+1) with m(0) = m0 enforced as an extra constraint row.

The Chambolle-Pock iteration ascends in the multiplier of the continuity
rows, and each primal step ends in a pointwise prox: for isotropic speeds the
exact joint prox of K* and the velocity-cone indicator; for finite control
hulls the prox of K* followed by the cone projection, which is not the prox
of their sum.  The multiplier, sign-flipped, converges to the value
function u.

The gap A(u, f) + B(m, w) that ``optimize`` reports and stops on is a
Lagrangian gap, not an optimality certificate: it takes f = k(m) and the raw
multiplier, and checks neither that f dominates the HJ residual of u nor
that (m, w) satisfies the continuity rows exactly.  The feasibility-checked
gap is ``certify.duality_gap``, which can read +inf on the same bundle.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ParameterError
from .grid import DensityField, ScalarField, TorusGrid, VecField
from .model import (CostModel, IsotropicSpeed, SpeedModel, cost, cost_conj,
                    cost_deriv_conj, prox_cost_conj, prox_cost_conj_coned)

__all__ = [
    "ProblemInstance", "SolverConfig", "OptimalBundle", "SolverDiagnostics",
    "optimize", "evaluate_A", "evaluate_B", "recover_f", "recover_velocity",
    "subsolution_residual", "continuity_residual_rows",
]


@dataclass(frozen=True)
class ProblemInstance:
    """One complete control problem: grid, speed set, cost family, data."""

    grid: TorusGrid
    speed: SpeedModel
    cost: CostModel
    u_T: np.ndarray
    m0: np.ndarray

    def __post_init__(self):
        u_T = np.array(self.u_T, dtype=float)
        m0 = np.array(self.m0, dtype=float)
        for name, arr in (("u_T", u_T), ("m0", m0)):
            if arr.shape != self.grid.nx:
                raise ParameterError(f"{name} shape {arr.shape} != grid {self.grid.nx}")
            if not np.all(np.isfinite(arr)):
                raise ParameterError(f"{name} must be finite")
        if np.min(m0) < 0:
            raise ParameterError("m0 must be nonnegative")
        if not (self.cost.p > self.grid.dim + 1):
            raise ParameterError(
                f"cost exponent p={self.cost.p} must exceed dim+1={self.grid.dim + 1}")
        u_T.setflags(write=False)
        m0.setflags(write=False)
        object.__setattr__(self, "u_T", u_T)
        object.__setattr__(self, "m0", m0)

    @property
    def mass(self) -> float:
        return float(np.sum(self.m0) * self.grid.cell_volume)


@dataclass
class SolverConfig:
    max_iters: int = 5000
    tol_gap: float = 1e-3          # relative duality gap
    tol_cont: float = 1e-6         # weighted L2 continuity residual
    tau: float | None = None       # primal step (auto from power iteration)
    sigma: float | None = None     # dual step
    over_relax: float = 1.0
    check_every: int = 1

    def __post_init__(self):
        if self.max_iters < 1:
            raise ParameterError("max_iters must be >= 1")
        if not (0.0 <= self.over_relax <= 1.0):
            raise ParameterError("over_relax must lie in [0, 1]")


@dataclass
class SolverDiagnostics:
    iterations: int = 0
    converged: bool = False
    gap_history: list = field(default_factory=list)
    a_history: list = field(default_factory=list)
    b_history: list = field(default_factory=list)
    cont_history: list = field(default_factory=list)
    wall_time: float = 0.0
    operator_norm: float = 0.0
    tau: float = 0.0
    sigma: float = 0.0
    notes: list = field(default_factory=list)

    @property
    def final_gap(self) -> float:
        return self.gap_history[-1] if self.gap_history else float("nan")


@dataclass(frozen=True)
class OptimalBundle:
    u: ScalarField
    f: ScalarField
    m: DensityField
    w: VecField
    diagnostics: SolverDiagnostics


# -- discrete operators ------------------------------------------------------


def _centered_diff(a: np.ndarray, axis: int, dx: float, out: np.ndarray) -> None:
    """Periodic centered difference (a[i+1] - a[i-1]) / (2 dx) along ``axis``,
    written into ``out``: the interior from two slices, then the two wrap
    rows, with no rolled copies of ``a``."""
    n = a.shape[axis]
    lead = (slice(None),) * axis

    def sl(lo, hi):
        return lead + (slice(lo, hi),)

    np.subtract(a[sl(2, None)], a[sl(None, -2)], out=out[sl(1, -1)])
    np.subtract(a[sl(1, 2)], a[sl(n - 1, None)], out=out[sl(None, 1)])
    np.subtract(a[sl(None, 1)], a[sl(n - 2, n - 1)], out=out[sl(n - 1, None)])
    out /= 2.0 * dx


def _centered_divergence(w: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Centered divergence over the space axes; w has shape (..., *nx, dim)
    with arbitrary leading axes."""
    out = np.empty(w.shape[:-1])
    off = w.ndim - 1 - grid.dim
    _centered_diff(w[..., 0], off, grid.dx[0], out)
    for a in range(1, grid.dim):
        term = np.empty_like(out)
        _centered_diff(w[..., a], off + a, grid.dx[a], term)
        out += term
    return out


def _centered_gradient(phi: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Centered gradient over the space axes; phi has shape (..., *nx)."""
    out = np.empty((*phi.shape, grid.dim))
    off = phi.ndim - grid.dim
    for a in range(grid.dim):
        _centered_diff(phi, off + a, grid.dx[a], out[..., a])
    return out


def _rows(m: np.ndarray, w: np.ndarray, m0: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Constraint rows: row 0 pins the initial slice, row k+1 is the scaled
    continuity residual  m_{k+1} - m_k + dt * div(w_k)."""
    r = np.empty_like(m)
    r[0] = m[0] - m0
    r[1:] = m[1:] - m[:-1] + grid.dt * _centered_divergence(w, grid)
    return r


def _rows_adjoint(y: np.ndarray, grid: TorusGrid) -> tuple[np.ndarray, np.ndarray]:
    gm = np.empty_like(y)
    gm[:-1] = y[:-1] - y[1:]
    gm[-1] = y[-1]
    gw = -grid.dt * _centered_gradient(y[1:], grid)
    return gm, gw


def _operator_norm(grid: TorusGrid) -> float:
    """Largest singular value of the constraint operator, by power iteration."""
    rng = np.random.default_rng(12345)
    m = rng.standard_normal((grid.nt, *grid.nx))
    w = rng.standard_normal((grid.nt - 1, *grid.nx, grid.dim))
    m0 = np.zeros(grid.nx)
    lam = 1.0
    for _ in range(80):
        y = _rows(m, w, m0, grid)
        m, w = _rows_adjoint(y, grid)
        lam = np.sqrt(np.sum(m * m) + np.sum(w * w))
        m /= lam
        w /= lam
    return float(np.sqrt(lam) * 1.001)


# -- objective evaluation ----------------------------------------------------


def _quad_spacetime(vals: np.ndarray, grid: TorusGrid) -> float:
    """Left-Riemann space-time integral of nodal values (terminal weight 0)."""
    return float(np.sum(vals[:-1]) * grid.dt * grid.cell_volume)


def evaluate_A(problem: ProblemInstance, u: ScalarField, f: ScalarField) -> float:
    """A(u, f) = iint K(f) dx dt - int u(0, x) dm_0(x).

    Requires the terminal slice of u to match u_T within 1e-10 (relative to
    the payoff scale).
    """
    grid = problem.grid
    if u.grid != grid or f.grid != grid:
        raise ParameterError("fields live on a different grid")
    scale = 1.0 + float(np.max(np.abs(problem.u_T)))
    if np.max(np.abs(u.values[-1] - problem.u_T)) > 1e-10 * scale:
        raise ParameterError("u(T, .) does not match the terminal payoff u_T")
    k_cost = _quad_spacetime(cost(problem.cost, f.values), grid)
    reward = float(np.sum(u.values[0] * problem.m0) * grid.cell_volume)
    return k_cost - reward


def evaluate_B(problem: ProblemInstance, m: DensityField, w: VecField,
               cone_tol: float = 1e-8, details: dict | None = None) -> float:
    """B(m, w) = int u_T m(T) dx + iint K*(m) dx dt, or the +inf sentinel if
    the cone constraint w in m*c(x,A) is violated beyond cone_tol.  Pass a
    dict as ``details`` to receive the max violation."""
    grid = problem.grid
    if m.grid != grid or w.grid != grid:
        raise ParameterError("fields live on a different grid")
    viol = problem.speed.cone_violation(grid, m.values, w.values)
    if details is not None:
        details["max_violation"] = viol
        details["feasible"] = viol <= cone_tol
    if viol > cone_tol:
        return float("inf")
    value = float(np.sum(problem.u_T * m.values[-1]) * grid.cell_volume)
    value += _quad_spacetime(cost_conj(problem.cost, m.values), grid)
    return value


def recover_f(problem: ProblemInstance, m: DensityField) -> ScalarField:
    """Optimal obstacle from the density: f = k(t, x, m) nodewise.

    f >= 0 and {f > 0} = {m > 0} since k is increasing with k(0) = 0.
    """
    if np.min(m.values) < 0:
        raise ParameterError("density must be nonnegative")
    return ScalarField(m.grid, cost_deriv_conj(problem.cost, m.values))


def recover_velocity(m: DensityField, w: VecField, floor: float = 1e-10,
                     speed: SpeedModel | None = None) -> VecField:
    """v = w/m where m > floor, 0 elsewhere; clipped to the speed bound."""
    if not (floor > 0):
        raise ParameterError("floor must be positive")
    mask = m.values > floor
    v = np.zeros_like(w.values)
    np.divide(w.values, m.values[..., None], out=v, where=mask[..., None])
    if speed is not None:
        cap = speed.c1
        norm = np.linalg.norm(v, axis=-1)
        over = norm > cap
        if np.any(over):
            v[over] *= (cap / norm[over])[..., None]
    return VecField(m.grid, v)


def subsolution_residual(problem: ProblemInstance, u_values: np.ndarray) -> np.ndarray:
    """Discrete residual -(u_{k+1}-u_k)/dt + H(x, Du_{k+1}) on each interval,
    using the centered gradient paired with the continuity operator.  A pair
    (u, f) is primal-feasible when f dominates this residual nodewise."""
    grid = problem.grid
    grad = _centered_gradient(u_values[1:], grid)
    return -(u_values[1:] - u_values[:-1]) / grid.dt \
        + problem.speed.hamiltonian(grid, grad)


def continuity_residual_rows(problem: ProblemInstance, m: np.ndarray,
                             w: np.ndarray) -> np.ndarray:
    """Physical residual per row: [(m(0)-m0)/dt ; dm/dt + div w]."""
    w_int = w[:-1] if w.shape[0] == problem.grid.nt else w
    return _rows(m, w_int, problem.m0, problem.grid) / problem.grid.dt


def _weighted_l2(rows: np.ndarray, grid: TorusGrid) -> float:
    return float(np.sqrt(np.sum(rows * rows) * grid.dt * grid.cell_volume))


# -- the solver --------------------------------------------------------------


def optimize(problem: ProblemInstance, config: SolverConfig | None = None) -> OptimalBundle:
    """Chambolle-Pock iteration for the discrete dual problem.

    Per iteration: dual ascent of the continuity multiplier, a gradient step
    on (m, w) through the adjoint, the pointwise prox of K* in m, and the
    pointwise cone projection of (m, w).  Stops when the relative
    Lagrangian gap (see the module docstring) and the continuity residual
    fall below their tolerances (with the gap above -1e-9), or at max_iters
    with a non-converged flag.
    """
    config = config or SolverConfig()
    grid = problem.grid
    t0 = time.perf_counter()
    diag = SolverDiagnostics()

    if problem.mass == 0:
        warnings.warn("m0 has zero mass; returning the trivial bundle", stacklevel=2)

    norm_l = _operator_norm(grid)
    diag.operator_norm = norm_l
    tau = config.tau if config.tau is not None else 0.98 / norm_l
    sigma = config.sigma if config.sigma is not None else 0.98 / norm_l
    if not (tau > 0 and sigma > 0):
        raise ParameterError("step sizes must be positive")
    if tau * sigma * norm_l ** 2 > 1.0 + 1e-9:
        raise ParameterError(
            f"step rule violated: tau*sigma*L^2 = {tau * sigma * norm_l**2:.4g} > 1")
    diag.tau, diag.sigma = tau, sigma
    theta = config.over_relax

    # ball cones get the exact joint prox; both prox names stay globals here for the tracer
    iso = isinstance(problem.speed, IsotropicSpeed)
    c_nodes = problem.speed.radius_nodes(grid.nx) if iso else None

    m = np.full((grid.nt, *grid.nx), problem.mass)
    w = np.zeros((grid.nt - 1, *grid.nx, grid.dim))
    y = np.zeros((grid.nt, *grid.nx))
    r = _rows(m, w, problem.m0, grid)
    r_bar = r

    vol = grid.cell_volume
    # K(k(m)) = (q - 1) K*(m) for the power law, so A and B share one K* sum
    a_weight = problem.cost.q - 1.0
    gap = float("nan")

    for it in range(1, config.max_iters + 1):
        y += sigma * r_bar

        # gradient step, then the prox and cone step in place on the new m
        gm, gw = _rows_adjoint(y, grid)
        m = m - tau * gm
        w_half = w - tau * gw
        m[-1] -= tau * problem.u_T

        np.maximum(m[-1], 0.0, out=m[-1])
        if iso:
            # exact prox of step*K* + cone indicator (closed scalar root)
            m[:-1], w = prox_cost_conj_coned(problem.cost, c_nodes,
                                             m[:-1], w_half, tau * grid.dt)
        else:
            # approximate prox of the sum: K* prox then cone projection
            m[:-1] = prox_cost_conj(problem.cost, m[:-1], tau * grid.dt)
            m[:-1], w = problem.speed.project_cone(grid, m[:-1], w_half)

        # _rows is affine and the weights 1 + theta and -theta sum to one, so
        # the rows of the over-relaxed point need no second application
        r_prev, r = r, _rows(m, w, problem.m0, grid)
        r_bar = r + theta * (r - r_prev)

        if it % config.check_every == 0 or it == config.max_iters:
            k_conj = float(np.sum(cost_conj(problem.cost, m[:-1]))) * grid.dt * vol
            a_val = float(a_weight * k_conj - np.sum(-y[0] * problem.m0) * vol)
            b_val = float(np.sum(problem.u_T * m[-1]) * vol + k_conj)
            gap = a_val + b_val
            cont = _weighted_l2(r / grid.dt, grid)
            if not (np.isfinite(gap) and np.isfinite(cont)):
                raise NumericError(f"non-finite iterate at iteration {it}")
            diag.a_history.append(a_val)
            diag.b_history.append(b_val)
            diag.gap_history.append(gap)
            diag.cont_history.append(cont)
            scale = max(abs(a_val), abs(b_val), 1e-10)
            if (abs(gap) / scale <= config.tol_gap and cont <= config.tol_cont
                    and gap >= -1e-9):
                diag.converged = True
                diag.iterations = it
                break
    else:
        diag.iterations = config.max_iters
        diag.notes.append("max_iters reached without convergence")

    diag.wall_time = time.perf_counter() - t0

    u_vals = -y
    u_vals[-1] = problem.u_T
    w_full = np.concatenate([w, np.zeros((1, *grid.nx, grid.dim))], axis=0)
    m_field = DensityField(grid, m)
    return OptimalBundle(
        u=ScalarField(grid, u_vals),
        f=recover_f(problem, m_field),
        m=m_field,
        w=VecField(grid, w_full),
        diagnostics=diag,
    )

