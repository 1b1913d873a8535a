"""Preconditioned primal-dual solver for the discrete dual transport problem.

Minimizes   B(m, w) = <u_T, m(T)> + sum_t sum_x K*(m) dx dt
over densities m >= 0 and split momenta w = (w+, w-), w+ >= 0 >= w- per axis,
with (w+, w-) in m(t,x) times the split velocity set nodewise (the ball
|(a, b)| <= c(x) for isotropic speeds, the hull of the split maps
(v_i^+, v_i^-) for finite ones), subject to the discrete continuity equation
m_{k+1} - m_k + dt div(w_k) = 0 with m(0) = m0 as an extra constraint row.
The flux through face i+1/2 is w+_i + w-_{i+1}: the donor-cell flux of
``transport`` in momentum form, so both layers use ``split_divergence``.  Its
adjoint gives the Engquist-Osher-type Hamiltonian of ``split_hamiltonian``
(after Achdou & Capuzzo-Dolcetta, SIAM J. Numer. Anal. 2010).

The iteration is PDHG with the dual step preconditioned by the exact
(L L^T)^-1 of the constraint operator L (the G-prox PDHG of Jacobs, Leger,
Li & Osher, SIAM J. Numer. Anal. 2019), so its step rule is tau*sigma < 1
whatever the grid.  L has constant coefficients on the torus, so L L^T is
one tridiagonal matrix in time per spatial Fourier mode, solved exactly
(``_gram_solver``).  Each primal step ends in the exact pointwise joint prox
of K* and the velocity cone: for balls the SOC prox of the sign-clipped
momentum, for finite hulls the face enumeration of ``prox_cost_conj_hull`` in
2*dim components.  The multiplier, sign-flipped, converges to the value
function u.

The gap A + B that ``optimize`` records and stops on is a certificate
(``_certificate``): A belongs to the primal point u = -y, u(T) = u_T,
f = max(HJ residual of u, 0), and B to the dual point that marches m0 with
the iterate's split velocities, both exactly feasible, so A + B >= 0 by
summation by parts and the discrete optimal value lies in [-A, B].  The
public ``certificate`` first moves any momenta into the split set (an
iterate's already lie in it) and certifies stored bundles (``certify.duality_gap``), so
a bundle written with its split momenta re-certifies to the gap ``optimize``
recorded.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ParameterError
from .grid import DensityField, ScalarField, TorusGrid, VecField
from .model import (CostModel, IsotropicSpeed, SpeedModel, cost, cost_conj,
                    cost_deriv_conj, prox_cost_conj_coned, prox_cost_conj_hull)
from .model import prox_cost_conj  # unused here; perfbench/tracing.py wraps it in this namespace
from .transport import split_divergence

# default steps: tau*sigma = 0.96 < 1, with the ratio tuned on 64x65 and 128x129
_TAU = 16.0
_SIGMA = 0.06

__all__ = [
    "ProblemInstance", "SolverConfig", "OptimalBundle", "SolverDiagnostics",
    "optimize", "certificate", "evaluate_A", "evaluate_B", "recover_f",
    "recover_velocity", "subsolution_residual", "continuity_residual_rows",
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
    tau: float | None = None       # primal step (default 16); tau*sigma < 1
    sigma: float | None = None     # dual step (default 0.06)
    over_relax: float = 1.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ParameterError("max_iters must be >= 1")
        if not (0.0 <= self.over_relax <= 1.0):
            raise ParameterError("over_relax must lie in [0, 1]")


@dataclass
class SolverDiagnostics:
    """Per-iteration records of ``optimize``: the certified A, B and gap
    A + B (see ``_certificate``) and the continuity residual of the iterate.
    ``w_split`` is the final split momenta (w+, w-) on the nt - 1 intervals,
    shape (nt - 1, *nx, 2*dim), read-only; the bundle's ``w`` is their sum."""

    iterations: int = 0
    converged: bool = False
    gap_history: list = field(default_factory=list)
    a_history: list = field(default_factory=list)
    b_history: list = field(default_factory=list)
    cont_history: list = field(default_factory=list)
    wall_time: float = 0.0
    tau: float = 0.0
    sigma: float = 0.0
    notes: list = field(default_factory=list)
    w_split: np.ndarray | None = None

    @property
    def final_gap(self) -> float:
        return self.gap_history[-1] if self.gap_history else float("nan")


@dataclass(frozen=True)
class OptimalBundle:
    """The final iterate: u = -y, f = k(m), m, and the net momentum
    w = w+ + w- (zero on the last level)."""

    u: ScalarField
    f: ScalarField
    m: DensityField
    w: VecField
    diagnostics: SolverDiagnostics


# -- discrete operators ------------------------------------------------------


def _one_sided(phi: np.ndarray, grid: TorusGrid) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward differences D+ phi and D- phi over the space axes;
    phi has shape (..., *nx), each result (..., *nx, dim)."""
    fwd = np.empty((*phi.shape, grid.dim))
    bwd = np.empty_like(fwd)
    off = phi.ndim - grid.dim
    for a in range(grid.dim):
        fwd[..., a] = (np.roll(phi, -1, off + a) - phi) / grid.dx[a]
        bwd[..., a] = np.roll(fwd[..., a], 1, off + a)
    return fwd, bwd


def _rows(m: np.ndarray, w: np.ndarray, m0: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Constraint rows: row 0 pins the initial slice, row k+1 is the scaled
    continuity residual  m_{k+1} - m_k + dt * div(w_k)  of the split momenta
    w_k = (w+, w-), shape (nt - 1, *nx, 2*dim)."""
    d = grid.dim
    r = np.empty_like(m)
    r[0] = m[0] - m0
    r[1:] = m[1:] - m[:-1] + grid.dt * split_divergence(w[..., :d], w[..., d:], grid)
    return r


def _rows_adjoint(y: np.ndarray, grid: TorusGrid) -> tuple[np.ndarray, np.ndarray]:
    """L^T y: the time differences of y, and dt times the adjoint of the split
    divergence, div^T phi = (-D+ phi, -D- phi), on levels 1..nt-1."""
    gm = np.empty_like(y)
    gm[:-1] = y[:-1] - y[1:]
    gm[-1] = y[-1]
    gw = np.concatenate(_one_sided(y[1:], grid), axis=-1)
    gw *= -grid.dt
    return gm, gw


def _gram_solver(grid: TorusGrid):
    """The exact solve x = (L L^T)^-1 b of the operator L of ``_rows``, for b
    of shape (nt, *nx).

    Per spatial Fourier mode xi, L L^T = M0 + lam_xi (I - e0 e0^T) with
    M0 = tridiag(-1, [1, 2, ..., 2], -1) from the time differences and
    lam_xi = 2 dt^2 sum_a (2 - 2 cos xi_a) / dx_a^2 from div div^T = -2 Laplacian,
    which acts on rows 1..nt-1 only.  One eigh of M0 diagonalizes M0 + lam I
    for every mode, and Sherman-Morrison removes the rank-one e0 term."""
    nt = grid.nt
    time_block = 2.0 * np.eye(nt) - np.eye(nt, k=1) - np.eye(nt, k=-1)
    time_block[0, 0] = 1.0
    eig, q = np.linalg.eigh(time_block)
    modes = (*grid.nx[:-1], grid.nx[-1] // 2 + 1)          # rfftn output shape
    lam = np.zeros(modes)
    for a, n in enumerate(grid.nx):
        symbol = (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(modes[a]) / n)) / grid.dx[a] ** 2
        lam = lam + symbol.reshape([-1 if b == a else 1 for b in range(grid.dim)])
    # a complex mode is solved as its interleaved real and imaginary parts
    lam = np.repeat(2.0 * grid.dt ** 2 * lam.ravel(), 2)
    inv = 1.0 / (eig[:, None] + lam)                 # (M0 + lam I)^-1, eigenbasis
    g = q @ (q[0][:, None] * inv)                    # (M0 + lam I)^-1 e0
    coef = lam / (1.0 - lam * g[0])
    axes = tuple(range(1, grid.dim + 1))

    def solve(b: np.ndarray) -> np.ndarray:
        spec = np.fft.rfftn(b, axes=axes)
        x = q @ (inv * (q.T @ spec.reshape(nt, -1).view(np.float64)))
        x += g * (coef * x[0])
        return np.fft.irfftn(x.view(np.complex128).reshape(spec.shape),
                             s=grid.nx, axes=axes)

    return solve


# -- objective evaluation ----------------------------------------------------


def _a_value(problem: ProblemInstance, u: np.ndarray, f: np.ndarray) -> float:
    """A of nodal u and f on the nt - 1 intervals: sum K(f) dt dx - <u(0), m0>."""
    grid = problem.grid
    vol = grid.cell_volume
    return float(np.sum(cost(problem.cost, f))) * grid.dt * vol \
        - float(np.sum(u[0] * problem.m0)) * vol


def _b_value(problem: ProblemInstance, m: np.ndarray) -> float:
    """B of a nodal density m: <u_T, m(T)> + sum over k < nt - 1 of K*(m) dt dx."""
    grid = problem.grid
    vol = grid.cell_volume
    return float(np.sum(problem.u_T * m[-1])) * vol \
        + float(np.sum(cost_conj(problem.cost, m[:-1]))) * grid.dt * vol


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
    return _a_value(problem, u.values, f.values[:-1])


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
    return _b_value(problem, m.values)


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
    """Discrete residual -(u_{k+1}-u_k)/dt + H(D+u_{k+1}, D-u_{k+1}) on each
    interval, with the split Hamiltonian paired with the continuity operator.
    A pair (u, f) is primal-feasible when f dominates this residual nodewise."""
    fwd, bwd = _one_sided(u_values[1:], problem.grid)
    return -(u_values[1:] - u_values[:-1]) / problem.grid.dt \
        + problem.speed.split_hamiltonian(problem.grid, fwd, bwd)


def continuity_residual_rows(problem: ProblemInstance, m: np.ndarray,
                             w: np.ndarray) -> np.ndarray:
    """Physical residual per row, [(m(0)-m0)/dt ; dm/dt + div w], of a nodal
    momentum w split by sign into (w^+, w^-): the donor-cell form."""
    w_int = w[:-1] if w.shape[0] == problem.grid.nt else w
    split = np.concatenate([np.maximum(w_int, 0.0), np.minimum(w_int, 0.0)], axis=-1)
    return _rows(m, split, problem.m0, problem.grid) / problem.grid.dt


def _weighted_l2(rows: np.ndarray, grid: TorusGrid) -> float:
    return float(np.sqrt(np.sum(rows * rows) * grid.dt * grid.cell_volume))


# -- the certificate ---------------------------------------------------------


def _split_velocity(m: np.ndarray, w: np.ndarray,
                    grid: TorusGrid) -> tuple[np.ndarray, float]:
    """Split velocities w/m (0 where m = 0) on the nt - 1 intervals, scaled
    down where the load sum_a (a_a - b_a) dt/dx_a exceeds 1 so that their
    march keeps m >= 0; and the largest load before scaling (a node was
    scaled iff it exceeds 1)."""
    v = np.zeros_like(w)
    np.divide(w, m[..., None], out=v, where=m[..., None] > 0)
    d = grid.dim
    load = sum((v[..., a] - v[..., d + a]) / grid.dx[a] for a in range(d)) * grid.dt
    peak = float(np.max(load))
    if peak > 1.0:
        over = load > 1.0
        v[over] /= load[over][..., None]
    return v, peak


def _march_split(m0: np.ndarray, v: np.ndarray, grid: TorusGrid) -> np.ndarray:
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


def certificate(problem: ProblemInstance, u: np.ndarray, m: np.ndarray,
                w: np.ndarray, details: dict | None = None) -> tuple[float, float]:
    """Certified (A, B) of nodal values u, density m (nt levels) and split
    momenta w = (w+, w-), shape (nt - 1, *nx, 2*dim), from any fields: w is
    sign-clipped and moved into m times the split set (``split_project``),
    then certified by ``_certificate``.  ``details`` also gets the largest
    component move, 0 for admissible momenta."""
    d = problem.grid.dim
    w_in = problem.speed.split_project(problem.grid, m[:-1], np.concatenate(
        [np.maximum(w[..., :d], 0.0), np.minimum(w[..., d:], 0.0)], axis=-1))
    if details is not None:
        details["max_split_excess"] = float(np.max(np.abs(w_in - w)))
    return _certificate(problem, u, m, w_in, details)


def _certificate(problem: ProblemInstance, u: np.ndarray, m: np.ndarray,
                 w: np.ndarray, details: dict | None = None) -> tuple[float, float]:
    """Certified (A, B) of u, m and split momenta w in m times the split set.

    Primal point: u with u(T) pinned to u_T and f = max(residual(u), 0).
    Dual point: m0 marched with the velocities w/m, scaled down where their
    load exceeds 1 (``_split_velocity``).  Both are feasible, so summation by
    parts through ``_rows`` gives A + B >= 0 up to round-off.  B is +inf if
    a scaled velocity leaves a split set without rest.  ``details`` gets A,
    B, the largest load and that flag."""
    grid = problem.grid
    u = np.array(u, dtype=float)          # a copy: its last level is pinned
    u[-1] = problem.u_T
    a_val = _a_value(problem, u, np.maximum(subsolution_residual(problem, u), 0.0))
    v, peak = _split_velocity(m[:-1], w, grid)
    no_rest = peak > 1.0 and not problem.speed.split_contains_rest(grid)
    b_val = float("inf") if no_rest \
        else _b_value(problem, _march_split(problem.m0, v, grid))
    if details is not None:
        details.update(A=a_val, B=b_val, max_split_load=peak, b_inf_without_rest=no_rest)
    return a_val, b_val


# -- the solver --------------------------------------------------------------


def optimize(problem: ProblemInstance, config: SolverConfig | None = None) -> OptimalBundle:
    """Preconditioned primal-dual iteration for the discrete dual problem.

    Per iteration: the dual step y += sigma (L L^T)^-1 r_bar on the
    continuity multiplier, a gradient step on (m, w+, w-) through the
    adjoint, and the exact pointwise joint prox of K* and the velocity cone
    (see the module docstring).  Every iteration it records the certified A,
    B and gap of ``_certificate`` and the continuity residual of the iterate,
    and stops once the relative certified gap is at most
    tol_gap and the residual at most tol_cont; at max_iters it stops with a
    non-converged flag and says in ``notes`` whether the certificate had to
    scale the iterate's velocities.
    """
    config = config or SolverConfig()
    grid = problem.grid
    t0 = time.perf_counter()
    diag = SolverDiagnostics()

    if problem.mass == 0:
        warnings.warn("m0 has zero mass; returning the trivial bundle", stacklevel=2)

    tau = config.tau if config.tau is not None else _TAU
    sigma = config.sigma if config.sigma is not None else _SIGMA
    if not (tau > 0 and sigma > 0):
        raise ParameterError("step sizes must be positive")
    if tau * sigma >= 1.0:
        raise ParameterError(f"step rule violated: tau*sigma = {tau * sigma:.4g} >= 1")
    diag.tau, diag.sigma = tau, sigma
    theta = config.over_relax
    dim = grid.dim

    # the joint prox takes nodal radii for balls and split face data for
    # finite hulls, built once here; the prox names stay globals for the tracer
    iso = isinstance(problem.speed, IsotropicSpeed)
    cone = problem.speed.radius_nodes(grid.nx) if iso \
        else problem.speed.split_hull_faces(grid)
    gram_solve = _gram_solver(grid)

    m = np.full((grid.nt, *grid.nx), problem.mass)
    w = np.zeros((grid.nt - 1, *grid.nx, 2 * dim))
    y = np.zeros((grid.nt, *grid.nx))
    r = _rows(m, w, problem.m0, grid)
    r_bar = r
    met = False
    cert_details: dict = {}

    for it in range(1, config.max_iters + 1):
        y += sigma * gram_solve(r_bar)

        # gradient step, then the prox and cone step in place on the new m
        gm, gw = _rows_adjoint(y, grid)
        m = m - tau * gm
        w_half = w - tau * gw
        m[-1] -= tau * problem.u_T

        np.maximum(m[-1], 0.0, out=m[-1])
        if iso:
            # the SOC is symmetric under sign flips, so the prox onto its
            # part with w+ >= 0 >= w- is the SOC prox of the clipped point
            np.maximum(w_half[..., :dim], 0.0, out=w_half[..., :dim])
            np.minimum(w_half[..., dim:], 0.0, out=w_half[..., dim:])
            m[:-1], w = prox_cost_conj_coned(problem.cost, cone,
                                             m[:-1], w_half, tau * grid.dt)
        else:
            m[:-1], w = prox_cost_conj_hull(problem.cost, cone,
                                            m[:-1], w_half, tau * grid.dt)

        # _rows is affine and the weights 1 + theta and -theta sum to one, so
        # the rows of the over-relaxed point need no second application
        r_prev, r = r, _rows(m, w, problem.m0, grid)
        r_bar = r + theta * (r - r_prev)

        # the prox keeps w in the split set: no projection needed
        a_val, b_val = _certificate(problem, -y, m, w, details=cert_details)
        gap = a_val + b_val
        cont = _weighted_l2(r / grid.dt, grid)
        if np.isnan(gap) or not np.isfinite(cont):
            raise NumericError(f"non-finite iterate at iteration {it}")
        diag.a_history.append(a_val)
        diag.b_history.append(b_val)
        diag.gap_history.append(gap)
        diag.cont_history.append(cont)
        scale = max(abs(a_val), abs(b_val), 1e-10)
        # both tests must hold at two iterations in a row: the residual of
        # an early iterate can dip below tol_cont once while u is still
        # first-order off (the gap sees its error only to second order)
        met, met_before = (np.isfinite(gap) and gap <= config.tol_gap * scale
                           and cont <= config.tol_cont), met
        if met and met_before:
            diag.converged = True
            diag.iterations = it
            break
    else:
        diag.iterations = config.max_iters
        diag.notes.append("max_iters reached without convergence")
        # the a-priori bound sqrt(2*dim) c dt/dx exceeds 1 already in 1D at
        # dt = dx, where runs certify, so report the load the iterate reached
        peak = cert_details["max_split_load"]
        if peak > 1.0:
            diag.notes.append(
                f"the certificate scaled split velocities down (largest load "
                f"sum_a (a_a - b_a) dt/dx_a = {peak:.4g} > 1), which moves its "
                f"dual point off the iterate"
                + (" and makes B +inf, as the split hull lacks rest"
                   if cert_details["b_inf_without_rest"] else "")
                + f"; nt >= {int(np.ceil((grid.nt - 1) * peak - 1e-9)) + 1} keeps "
                f"this load <= 1 (balls: dt <= dx/(sqrt(2*dim)*c) for any iterate)")

    diag.wall_time = time.perf_counter() - t0

    u_vals = -y
    u_vals[-1] = problem.u_T
    w_net = np.concatenate([w[..., :dim] + w[..., dim:],
                            np.zeros((1, *grid.nx, dim))], axis=0)
    w.setflags(write=False)
    diag.w_split = w
    m_field = DensityField(grid, m)
    return OptimalBundle(
        u=ScalarField(grid, u_vals),
        f=recover_f(problem, m_field),
        m=m_field,
        w=VecField(grid, w_net),
        diagnostics=diag,
    )
