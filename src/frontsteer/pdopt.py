"""Preconditioned primal-dual solver for the discrete dual transport problem.

Minimizes   B(m, w) = <u_T, m(T)> + sum_t sum_x K*(m) dx dt
over densities m >= 0 and split momenta w = (w+, w-), w+ >= 0 >= w- per axis,
with (w+, w-) in m(t,x) times the split velocity set nodewise (the ball
|(a, b)| <= c(x) for isotropic speeds, the hull of the split maps
(v_i^+, v_i^-) for finite ones), subject to the discrete continuity equation
m_{k+1} - m_k + dt div(w_k) = 0 with m(0) = m0 as an extra constraint row.
The flux through face i+1/2 is w+_i + w-_{i+1}: the donor-cell flux of
``transport`` in momentum form.  The solver, its certificate and ``certify``
use the one discrete pair of ``transport``: ``split_divergence`` in the rows,
its adjoint ``one_sided`` in L^T and in the HJ residual, where it gives the
Engquist-Osher-type Hamiltonian of ``split_hamiltonian`` (after Achdou &
Capuzzo-Dolcetta, SIAM J. Numer. Anal. 2010), and the level march of
``march_split`` for the certificate's dual point.

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

``optimize`` over-relaxes the iteration (Condat, JOTA 2013, Thm 3.1: any
rho in (0, 2) converges under tau*sigma < 1).  From (x, y) it takes the
prox point x~ and the dual point y~ = y + sigma (L L^T)^-1 rows(2 x~ - x),
then moves x and y to x~ + (rho - 1)(x~ - x) and y~ + (rho - 1)(y~ - y),
and the rows of x alike, as they are affine.  Iterations 1-16, which hold
the record checks, take plain steps (rho = 1); later ones rho = 1.7.  The
relaxed x may leave the cone, so the pair (y~, x~) is the one certified,
stopped on and returned.  With default steps ``optimize`` also balances its
two stop tests by halving or doubling tau every 32nd iteration, at most 8
times in a run (see ``optimize``).

The loop runs in place on one ``_Workspace`` built before it.  Its split
momenta are component-major, as in ``transport``, w = (w+_1..w+_dim,
w-_1..w-_dim) of shape (2*dim, nt - 1, *nx); the bundle's pair holds them
components last, transposed once at the end.  The state is x = (m, w) with
its rows and y, and the prox point x~ = (m~, w~) with its rows, each x with
its rows in one flat buffer, so one ufunc call relaxes it; y~ lives in the
Gram solver's output buffer.  Besides that state (m, y and each rows
(nt, *nx), w 2*dim times that, so (3 + 2*dim) node arrays for x and y and
(2 + 2*dim) for x~) the workspace holds the adjoint's gm and gw (which
also take the gradient step), the divergence of the rows of x~ with its
flux and term, one buffer for the squared residual and then the
extrapolated rows, and the Gram solver's spectrum, product and output
buffers: about (8 + 2*dim) node arrays, plus the solver's factors (two of
about one node array each and the nt x nt eigenbasis).  Against plain CP
that is 2 + 2*dim node arrays more for x~ and its rows, less the second row
buffer that plain CP's extrapolated rows took.  The stencils of the rows and
of the adjoint are sliced once, when the workspace is built
(``transport._divergence``, ``transport._differences``).  The prox writes
x~ in place.  Each iteration does the floating-point operations of the
textbook allocating loop in the same order, so the iterates are the same
bits.

The gap A + B that ``optimize`` records and stops on is a certificate
(``_certificate``): A belongs to the primal point u = -y~, u(T) = u_T,
f = max(HJ residual of u, 0), and B to the dual point that marches m0 with
the split velocities of x~, both exactly feasible, so A + B >= 0 by
summation by parts and the discrete optimal value lies in [-A, B].
``optimize`` builds it only on the iterations that can stop the run (those
with a continuity residual at most tol_cont), on the last one, on
iterations 1, 2, 4, 8, ... for a log-spaced record and, with default
steps, on every 32nd while the steps may still switch, and judges it by
``_gap_certified``, as in ``certify.battery``.  The public ``certificate``
certifies the stored pairs (w+, w-) of ``certify.duality_gap``, a nodal w
as (w, w), split by sign and moved into the split set block by block, so a
bundle re-certifies to the gap ``optimize`` recorded.  Both build A and B
in one pass over blocks of ``_block_levels`` time levels, holding two
level-sized (nt, *nx) buffers plus one block, never a full momentum or
velocity array, and give the bits of a whole-array pass.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ParameterError
from .grid import DensityField, ScalarField, TorusGrid, VecField
from .model import (CostModel, IsotropicSpeed, SpeedModel, _component_norm, cost,
                    cost_conj, cost_deriv_conj, prox_cost_conj_coned,
                    prox_cost_conj_hull)
from .model import prox_cost_conj  # unused here; perfbench/tracing.py wraps it in this namespace
from .transport import (_CFL_SLACK, _differences, _divergence, _march_levels, one_sided,
                        split_by_sign, split_divergence, split_load)

# default steps: tau*sigma = 0.96 < 1, with the ratio tuned on 64x65 and 128x129
_TAU = 16.0
_SIGMA = 0.06
# the over-relaxation from iteration _PLAIN_ITERS + 1 on; rho in (0, 2)
# converges under tau*sigma < 1 (Condat, JOTA 2013, Thm 3.1)
_RHO = 1.7
_PLAIN_ITERS = 16
# the step switch of default steps: every _SWITCH_EVERY iterations, at most
# _MAX_STEP_CHANGES times over a run, tau halves or doubles within
# [_TAU_MIN, _TAU_MAX], with sigma = _TAU * _SIGMA / tau
_SWITCH_EVERY = 32
_MAX_STEP_CHANGES = 8
_TAU_MIN, _TAU_MAX = 1.0, 64.0
# a block of time levels of the certificate and of certify.check_subsolution
# holds about this many bytes of split momenta or velocities: 2 levels at
# 64^2, 256 at 64 points in 1D (one block for 64x65); no bit depends on it
_BLOCK_BYTES = 1 << 18

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
    tol_cont: float = 1e-4         # weighted L2 continuity residual
    tau: float | None = None       # primal step (default 16); tau*sigma < 1
    sigma: float | None = None     # dual step (default 0.06)

    def __post_init__(self):
        if not (float(self.max_iters).is_integer() and self.max_iters >= 1):
            raise ParameterError(f"max_iters must be an integer >= 1, got {self.max_iters}")
        self.max_iters = int(self.max_iters)
        if not (self.tol_gap >= 0 and self.tol_cont >= 0):      # 0 runs to max_iters
            raise ParameterError(f"tolerances must be >= 0, got {self.tol_gap}, {self.tol_cont}")


@dataclass
class SolverDiagnostics:
    """Records of ``optimize``, one per checked iteration: its number, the
    certified A, B and gap A + B (see ``_certificate``), the continuity
    residual of the prox point and the tau it was taken with; each change
    of the steps as (iteration, tau, sigma), taken after that iteration; and
    the final steps ``tau`` and ``sigma``."""

    iterations: int = 0
    converged: bool = False
    iter_history: list = field(default_factory=list)
    gap_history: list = field(default_factory=list)
    a_history: list = field(default_factory=list)
    b_history: list = field(default_factory=list)
    cont_history: list = field(default_factory=list)
    tau_history: list = field(default_factory=list)
    step_changes: list = field(default_factory=list)
    wall_time: float = 0.0
    tau: float = 0.0
    sigma: float = 0.0
    notes: list = field(default_factory=list)

    @property
    def final_gap(self) -> float:
        return self.gap_history[-1] if self.gap_history else float("nan")

    @property
    def final_rel_gap(self) -> float:
        """The relative gap of the last check, the figure tol_gap bounds
        (``_relative_gap``)."""
        if not self.gap_history:
            return float("nan")
        return _relative_gap(self.a_history[-1], self.b_history[-1])


@dataclass(frozen=True)
class OptimalBundle:
    """The final iterate: u = -y, f = k(m), m, and the split momenta
    w_plus, w_minus (zero on the last level), whose sum is ``w``."""

    u: ScalarField
    f: ScalarField
    m: DensityField
    w_plus: VecField
    w_minus: VecField
    diagnostics: SolverDiagnostics

    @property
    def w(self) -> VecField:
        return VecField(self.w_plus.grid, self.w_plus.values + self.w_minus.values)


# -- discrete operators ------------------------------------------------------


def _rows(m: np.ndarray, w: np.ndarray, m0: np.ndarray, grid: TorusGrid,
          out: np.ndarray | None = None, divergence=None) -> np.ndarray:
    """Constraint rows: row 0 pins the initial slice, row k+1 is the scaled
    continuity residual  m_{k+1} - m_k + dt * div(w_k)  of the split momenta
    w_k = (w+, w-), component-major, shape (2*dim, nt - 1, *nx); written
    into ``out`` if given.  ``divergence`` is the split divergence of w
    prepared once (``transport._divergence``), taken fresh when not given."""
    d = grid.dim
    r = np.empty_like(m) if out is None else out
    np.subtract(m[0], m0, out=r[0])
    div = split_divergence(w[:d], w[d:], grid) if divergence is None else divergence()
    div *= grid.dt
    np.subtract(m[1:], m[:-1], out=r[1:])
    r[1:] += div
    return r


def _rows_adjoint(y: np.ndarray, grid: TorusGrid, gm: np.ndarray, gw: np.ndarray,
                  differences) -> tuple[np.ndarray, np.ndarray]:
    """L^T y: the time differences of y, and dt times the adjoint of the split
    divergence, div^T phi = (-D+ phi, -D- phi), on levels 1..nt-1; written
    into ``gm``, shaped as y, and ``gw``, shaped as the split momenta
    (2*dim, nt - 1, *nx).  ``differences`` is ``one_sided`` of y[1:] into
    gw, prepared once over the same arrays (``transport._differences``)."""
    np.subtract(y[:-1], y[1:], out=gm[:-1])
    gm[-1] = y[-1]
    differences()
    gw *= -grid.dt
    return gm, gw


def _time_eigenbasis(nt: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors (columns) of M0 =
    tridiag(-1, [1, 2, ..., 2], -1), nt x nt: with h = pi/(4 nt + 2) and
    j, k = 1..nt, eig[k] = 4 sin^2((2k - 1) h), q[j, k] = 2/sqrt(2 nt + 1)
    cos((2j - 1)(2k - 1) h), read from one period of 8 nt + 4 samples."""
    odd, h = np.arange(1, 2 * nt, 2), np.pi / (4 * nt + 2)
    period = 2.0 / np.sqrt(2 * nt + 1) * np.cos(h * np.arange(8 * nt + 4))
    return 4.0 * np.sin(h * odd) ** 2, np.take(period, np.multiply.outer(odd, odd), mode="wrap")


def _gram_solver(grid: TorusGrid):
    """The exact solve x = (L L^T)^-1 b of the operator L of ``_rows``, for b
    of shape (nt, *nx).  The solve returns its own output buffer, which the
    next call overwrites.

    Per spatial Fourier mode xi, L L^T = M0 + lam_xi (I - e0 e0^T) with
    M0 = tridiag(-1, [1, 2, ..., 2], -1) from the time differences and
    lam_xi = 2 dt^2 sum_a (2 - 2 cos xi_a) / dx_a^2 from div div^T = -2 Laplacian,
    which acts on rows 1..nt-1 only.  The symmetric eigenbasis of M0
    (``_time_eigenbasis``) diagonalizes M0 + lam I for every mode in both
    time transforms, and Sherman-Morrison removes the rank-one e0 term.

    The transforms are those of ``np.fft.rfftn``/``irfftn`` over the space
    axes, taken axis by axis into buffers built here: the spectrum (its
    real view is also the second product), one more spectrum-sized product,
    one mode row and the output, so a solve allocates no (nt, *nx) array."""
    nt = grid.nt
    eig, q = _time_eigenbasis(nt)
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
    last = grid.dim                                  # the last space axis
    spec = np.empty((nt, *modes), dtype=np.complex128)
    xb = spec.reshape(nt, -1).view(np.float64)
    xa = np.empty_like(xb)
    row = np.empty_like(xb[0])
    out = np.empty((nt, *grid.nx))

    def solve(b: np.ndarray) -> np.ndarray:
        np.fft.rfft(b, grid.nx[-1], last, out=spec)
        for a in range(grid.dim - 2, -1, -1):
            np.fft.fft(spec, grid.nx[a], a + 1, out=spec)
        np.matmul(q, xb, out=xa)
        np.multiply(xa, inv, out=xa)
        np.matmul(q, xa, out=xb)
        np.multiply(coef, xb[0], out=row)
        np.multiply(g, row, out=xa)
        np.add(xb, xa, out=xb)
        for a in range(grid.dim - 1):
            np.fft.ifft(spec, grid.nx[a], a + 1, out=spec)
        return np.fft.irfft(spec, grid.nx[-1], last, out=out)

    return solve


# -- objective evaluation ----------------------------------------------------


def _a_value(problem: ProblemInstance, u0: np.ndarray, k_f: np.ndarray) -> float:
    """A of the initial level u(0) and the costs K(f) on the nt - 1
    intervals: sum K(f) dt dx - <u(0), m0>."""
    grid = problem.grid
    vol = grid.cell_volume
    return float(np.sum(k_f)) * grid.dt * vol - float(np.sum(u0 * problem.m0)) * vol


def _b_value(problem: ProblemInstance, m_T: np.ndarray, k_conj: np.ndarray) -> float:
    """B of the last level m(T) and the costs K*(m) on the nt - 1 intervals:
    <u_T, m(T)> + sum K*(m) dt dx."""
    grid = problem.grid
    vol = grid.cell_volume
    return float(np.sum(problem.u_T * m_T)) * vol + float(np.sum(k_conj)) * grid.dt * vol


def _gap_scale(a_val: float, b_val: float) -> float:
    """max(|A|, |B|, 1e-10), the scale of the relative gap."""
    return max(abs(a_val), abs(b_val), 1e-10)


def _relative_gap(a_val: float, b_val: float) -> float:
    """(A + B) / ``_gap_scale``, the relative gap that tol_gap bounds;
    +inf when B is."""
    gap = a_val + b_val
    return gap / _gap_scale(a_val, b_val) if np.isfinite(gap) else gap


def _gap_certified(a_val: float, b_val: float, tol: float) -> bool:
    """-1e-9 <= A + B <= tol * ``_gap_scale``: the rule of ``optimize``'s stop
    test and of the battery's duality_gap; -1e-9 admits round-off only."""
    gap = a_val + b_val
    return bool(np.isfinite(gap) and -1e-9 <= gap <= tol * _gap_scale(a_val, b_val))


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
    return _a_value(problem, u.values[0], cost(problem.cost, f.values[:-1]))


def evaluate_B(problem: ProblemInstance, m: DensityField, w: VecField,
               details: dict | None = None) -> float:
    """B(m, w) = int u_T m(T) dx + iint K*(m) dx dt, or the +inf sentinel if
    the cone constraint w in m*c(x,A) is violated beyond 1e-8.  Pass a dict
    as ``details`` to receive the max violation."""
    grid = problem.grid
    if m.grid != grid or w.grid != grid:
        raise ParameterError("fields live on a different grid")
    viol = problem.speed.cone_violation(grid, m.values, w.values)
    if details is not None:
        details["max_violation"] = viol
        details["feasible"] = viol <= 1e-8
    if viol > 1e-8:
        return float("inf")
    return _b_value(problem, m.values[-1], cost_conj(problem.cost, m.values[:-1]))


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
        norm = _component_norm(v)
        over = norm > cap
        if np.any(over):
            v[over] *= (cap / norm[over])[..., None]
    return VecField(m.grid, v)


def subsolution_residual(problem: ProblemInstance, u_values: np.ndarray) -> np.ndarray:
    """Discrete residual -(u_{k+1}-u_k)/dt + H(D+u_{k+1}, D-u_{k+1}) on each
    interval, with the split Hamiltonian paired with the continuity operator.
    A pair (u, f) is primal-feasible when f dominates this residual nodewise."""
    return _hj_residual(problem, u_values[:-1], u_values[1:])


def _hj_residual(problem: ProblemInstance, u_now: np.ndarray,
                 u_next: np.ndarray) -> np.ndarray:
    """``subsolution_residual`` of the intervals from the levels u_now to u_next."""
    fwd, bwd = one_sided(u_next, problem.grid)
    return -(u_next - u_now) / problem.grid.dt \
        + problem.speed.split_hamiltonian(problem.grid, fwd, bwd)


def continuity_residual_rows(problem: ProblemInstance, m: np.ndarray,
                             w: np.ndarray) -> np.ndarray:
    """Physical residual per row, [(m(0)-m0)/dt ; dm/dt + div w], of a nodal
    momentum w split by sign into (w^+, w^-): the donor-cell form."""
    w_int = w[:problem.grid.nt - 1]
    return _rows(m, split_by_sign(w_int), problem.m0, problem.grid) / problem.grid.dt


# -- the certificate ---------------------------------------------------------


def _split_velocity(m: np.ndarray, w: np.ndarray,
                    grid: TorusGrid) -> tuple[np.ndarray, float]:
    """Split velocities w/m (0 where m <= 0: divided, then zeroed there) of
    split momenta w, both component-major, (2*dim, levels, *nx), scaled down
    where the load sum_a (a_a - b_a) dt/dx_a exceeds 1 so that their march
    keeps m >= 0; and the largest load before scaling (a node was scaled iff
    it exceeds 1)."""
    v = np.empty(w.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(w, m, out=v)
    np.copyto(v, 0.0, where=~(m > 0))
    load = split_load(v, grid)
    peak = float(np.max(load))
    if peak > 1.0:
        over = load > 1.0
        v[:, over] /= load[over]
    return v, peak


def certificate(problem: ProblemInstance, u: np.ndarray, m: np.ndarray,
                w_plus: np.ndarray, w_minus: np.ndarray,
                details: dict | None = None) -> tuple[float, float]:
    """Certified (A, B) of nodal values u, density m (nt levels) and stored
    split momenta (w+, w-), each (nt or nt - 1, *nx, dim) and read on its
    first nt - 1 levels, from any fields: each block is split by sign and
    moved into m times the split set (``split_project``), then certified as
    in ``_certificate``, in the same pass and memory.  A nodal momentum w is
    the pair (w, w).  ``details`` also gets ``max_split_excess``, the largest
    component move of ``split_project`` from the sign split (0 inside)."""
    return _certificate(problem, u, m, pair=(w_plus, w_minus), details=details)


def _block_levels(grid: TorusGrid) -> int:
    """Time levels per block of the certificate and of ``check_subsolution``."""
    return max(1, _BLOCK_BYTES // (grid.n_space * 2 * grid.dim * 8))


def _certificate(problem: ProblemInstance, u: np.ndarray, m: np.ndarray,
                 w: np.ndarray | None = None, pair: tuple | None = None,
                 details: dict | None = None) -> tuple[float, float]:
    """Certified (A, B) of u, m and split momenta w in m times the split
    set, component-major, (2*dim, nt - 1 or nt, *nx), read on their first
    nt - 1 levels; or, in place of w, of the ``pair`` (w+, w-) of
    ``certificate``, of any momenta.

    Primal point: u with u(T) pinned to u_T and f = max(residual(u), 0).
    Dual point: m0 marched with the velocities w/m, scaled down where their
    load exceeds 1 (``_split_velocity``).  Both are feasible, so summation by
    parts through ``_rows`` gives A + B >= 0 up to round-off.  B is +inf if
    a scaled velocity leaves a split set without rest.  ``details`` gets A,
    B, the largest load and that flag.

    One pass over blocks of ``_block_levels`` time levels builds both
    points: K(f) of the block's intervals goes into one (nt - 1, *nx)
    buffer, which then takes K*(m) for B, and the march into one (nt, *nx)
    density.  So the memory is those two buffers plus one block's
    velocities, and A and B are sums over the same arrays as in a
    whole-array pass, bit for bit.  A ``pair`` is moved as ``certificate``
    says, on the split set's ``split_cone``, built once."""
    grid = problem.grid
    d = grid.dim
    nt = grid.nt
    u = np.asarray(u, dtype=float)
    cone = None if pair is None else problem.speed.split_cone(grid)
    step = _block_levels(grid)
    blocks = [(k0, min(k0 + step, nt - 1)) for k0 in range(0, nt - 1, step)]
    costs = np.empty((nt - 1, *grid.nx))
    marched = np.empty((nt, *grid.nx))
    marched[0] = problem.m0
    excess = peak = -np.inf
    for k0, k1 in blocks:
        u_next = u[k0 + 1:k1 + 1]
        if k1 == nt - 1:
            u_next = u_next.copy()         # the last level is pinned
            u_next[-1] = problem.u_T
        res = _hj_residual(problem, u[k0:k1], u_next)
        costs[k0:k1] = cost(problem.cost, np.maximum(res, 0.0))
        if pair is not None:
            clipped = split_by_sign((pair[0][k0:k1], pair[1][k0:k1]))
            block = problem.speed.split_project(grid, m[k0:k1], clipped, cone)
            # the move from the sign split, one half at a time
            for half in (slice(None, d), slice(d, None)):
                excess = np.maximum(excess, np.max(np.abs(block[half] - clipped[half])))
        else:
            block = w[:, k0:k1]
        v, block_peak = _split_velocity(m[k0:k1], block, grid)
        peak = np.maximum(peak, block_peak)
        _march_levels(marched, v, k0, grid)
    a_val = _a_value(problem, u[0], costs)
    peak = float(peak)
    no_rest = peak > 1.0 and not problem.speed.split_contains_rest(grid)
    if no_rest:
        b_val = float("inf")
    else:
        for k0, k1 in blocks:
            costs[k0:k1] = cost_conj(problem.cost, marched[k0:k1])
        b_val = _b_value(problem, marched[-1], costs)
    if details is not None:
        if pair is not None:
            details["max_split_excess"] = float(excess)
        details.update(A=a_val, B=b_val, max_split_load=peak, b_inf_without_rest=no_rest)
    return a_val, b_val


# -- the solver --------------------------------------------------------------


def _flat_views(*shapes) -> tuple[np.ndarray, list[np.ndarray]]:
    """One flat buffer and its consecutive C-contiguous views of the given
    shapes, so one ufunc call updates all of them."""
    flat = np.empty(sum(math.prod(s) for s in shapes))
    views, start = [], 0
    for shape in shapes:
        views.append(flat[start:start + math.prod(shape)].reshape(shape))
        start += math.prod(shape)
    return flat, views


class _Workspace:
    """The CP state and every buffer its iteration reuses, built once before
    the loop (see the module docstring).  The state is the relaxed iterate
    x = (m, w) with its rows r, in one flat buffer ``x``, and y; the prox
    point x~ = (m_prox, w_prox) with its rows r_prox, in ``x_prox`` laid out
    as ``x``, and y_prox, the Gram solver's output buffer; w and w_prox
    component-major, (2*dim, nt - 1, *nx).  The buffers: gm and gw, the
    adjoint and the gradient step; the divergence of the rows of x~ with
    its flux and term, three (nt - 1, *nx) arrays behind the prepared
    ``divergence``; ``differences``, the prepared one-sided differences of
    y into gw; ``scaled``, which takes the squared residual and then the
    extrapolated rows 2 r_prox - r; and the Gram solver.  ``step`` runs one
    iteration in place, with no (nt, *nx) array allocated outside the prox
    and the Gram solve."""

    def __init__(self, problem: ProblemInstance, tau: float, sigma: float):
        grid = problem.grid
        d = grid.dim
        self.problem = problem
        # the joint prox takes nodal radii for balls and split face data for
        # finite hulls, built once here; the prox names stay globals for the tracer
        self.iso = isinstance(problem.speed, IsotropicSpeed)
        self.cone = problem.speed.split_cone(grid)
        self.gram_solve = _gram_solver(grid)
        self.set_steps(tau, sigma)
        level, split = (grid.nt, *grid.nx), (2 * d, grid.nt - 1, *grid.nx)
        self.x, (self.m, self.w, self.r) = _flat_views(level, split, level)
        self.x_prox, (self.m_prox, self.w_prox, self.r_prox) = _flat_views(level, split, level)
        self.m.fill(problem.mass)
        self.w.fill(0.0)
        self.y = np.zeros(level)
        self.gm = np.empty_like(self.y)
        self.gw = np.empty_like(self.w)
        # the stencils of the rows and of the adjoint, sliced once: the
        # divergence of w_prox (with its flux and term) and the differences of y
        self.divergence = _divergence(self.w_prox[:d], self.w_prox[d:], grid,
                                      *(np.empty((grid.nt - 1, *grid.nx)) for _ in range(3)))
        self.differences = _differences(self.y[1:], grid, self.gw[:d], self.gw[d:])
        self.scaled = np.empty_like(self.y)
        self.vol = grid.cell_volume
        # y starts at the first dual step of plain CP from y = 0
        _rows(self.m, self.w, problem.m0, grid, out=self.r)
        first = self.gram_solve(self.r)
        first *= sigma
        self.y += first

    def set_steps(self, tau: float, sigma: float) -> None:
        """The primal and dual steps of the next iterations."""
        grid = self.problem.grid
        self.tau, self.sigma = tau, sigma
        self.tau_u_T = tau * self.problem.u_T
        self.prox_step = tau * grid.dt

    def step(self, rho: float = 1.0) -> float:
        """One iteration in place, relaxed by rho (1: plain CP); returns the
        weighted L2 continuity residual of the prox point x~."""
        problem, tau = self.problem, self.tau
        grid = problem.grid
        d = grid.dim
        gm, gw, m_prox, w_prox = self.gm, self.gw, self.m_prox, self.w_prox

        # the gradient step from (x, y) into gm and gw, then the prox and
        # cone step into x~
        _rows_adjoint(self.y, grid, gm, gw, self.differences)
        gm *= tau
        m_half = np.subtract(self.m, gm, out=gm)
        gw *= tau
        w_half = np.subtract(self.w, gw, out=gw)
        m_half[-1] -= self.tau_u_T
        np.maximum(m_half[-1], 0.0, out=m_prox[-1])
        if self.iso:
            # the SOC is symmetric under sign flips, so the prox onto its
            # part with w+ >= 0 >= w- is the SOC prox of the clipped point
            np.maximum(w_half[:d], 0.0, out=w_half[:d])
            np.minimum(w_half[d:], 0.0, out=w_half[d:])
            prox_cost_conj_coned(problem.cost, self.cone, m_half[:-1], w_half, self.prox_step,
                                 out=(m_prox[:-1], w_prox))
        else:
            prox_cost_conj_hull(problem.cost, self.cone, m_half[:-1], w_half, self.prox_step,
                                out=(m_prox[:-1], w_prox))

        r, r_prox = self.r, self.r_prox
        _rows(m_prox, w_prox, problem.m0, grid, out=r_prox, divergence=self.divergence)
        # the weighted L2 norm of the physical rows r_prox/dt, squared in place
        scaled = np.divide(r_prox, grid.dt, out=self.scaled)
        np.multiply(scaled, scaled, out=scaled)
        cont = math.sqrt(scaled.sum() * grid.dt * self.vol)

        # the dual step at the rows of 2 x~ - x: _rows is affine, so they
        # are (r_prox - r) + r_prox, formed in scaled
        r_bar = np.subtract(r_prox, r, out=scaled)
        r_bar += r_prox
        y_prox = self.gram_solve(r_bar)
        y_prox *= self.sigma
        y_prox += self.y
        self.y_prox = y_prox

        # z <- z~ + (rho - 1)(z~ - z) for x with its rows (affine too) and y
        for z, z_prox in ((self.x, self.x_prox), (self.y, y_prox)):
            z -= z_prox
            z *= 1.0 - rho
            z += z_prox
        return cont


def optimize(problem: ProblemInstance, config: SolverConfig | None = None) -> OptimalBundle:
    """Over-relaxed preconditioned primal-dual iteration for the discrete
    dual problem, in place on one ``_Workspace``.

    Per iteration (``_Workspace.step``): from the iterate x = (m, w+, w-)
    and the multiplier y, a gradient step through the adjoint and the exact
    pointwise joint prox of K* and the velocity cone (see the module
    docstring) give the prox point x~; the dual step gives
    y~ = y + sigma (L L^T)^-1 rows(2 x~ - x); then x <- x~ + (rho - 1)(x~ - x)
    and y <- y~ + (rho - 1)(y~ - y).  Iterations 1-16, which hold the record
    checks 1, 2, 4, 8 and 16, take plain steps (rho = 1); later ones
    rho = 1.7.  y starts at sigma (L L^T)^-1 rows(x0), the first dual step of
    plain CP from y = 0.

    The pair (y~, x~) is feasible (x~ is in the cone, and the relaxed x need
    not be), so it is the one checked, stopped on and returned.  Every
    iteration computes its continuity residual.  The certified A, B and gap
    of ``_certificate`` are built where they can matter: on iterations whose
    residual is at most tol_cont, on iteration max_iters, on iterations 1,
    2, 4, 8, ... and, with default steps, on every 32nd while the steps may
    still switch.  Each such check is recorded in the
    diagnostics with its iteration number and its tau.  The run stops once
    the relative certified gap is at most tol_gap and the residual at most
    tol_cont, at two iterations in a row (both therefore checked); at
    max_iters it stops with a non-converged flag and says in ``notes``
    whether the certificate had to scale the iterate's velocities.

    With default steps, each 32nd iteration balances the two stop tests:
    tau halves when the gap test passes and the residual test fails, and
    doubles in the reverse case, within [1, 64], sigma = 0.96 / tau, the new
    steps taken from the next iteration.  The steps change at most 8 times
    in a run, so the iteration is plain relaxed CP from the last change on
    (the bounded adaptivity of Goldstein et al., arXiv:1305.0546); the
    diagnostics list each change as (iteration, tau, sigma).  A given
    ``SolverConfig.tau`` or ``sigma`` fixes the steps.
    """
    config = config or SolverConfig()
    grid = problem.grid
    t0 = time.perf_counter()
    diag = SolverDiagnostics()

    if problem.mass == 0:
        warnings.warn("m0 has zero mass; returning the trivial bundle", stacklevel=2)

    adaptive = config.tau is None and config.sigma is None
    tau = config.tau if config.tau is not None else _TAU
    sigma = config.sigma if config.sigma is not None else _SIGMA
    if not (tau > 0 and sigma > 0):
        raise ParameterError("step sizes must be positive")
    if tau * sigma >= 1.0:
        raise ParameterError(f"step rule violated: tau*sigma = {tau * sigma:.4g} >= 1")
    dim = grid.dim

    ws = _Workspace(problem, tau, sigma)
    met = False
    cert_details: dict = {}

    for it in range(1, config.max_iters + 1):
        cont = ws.step(1.0 if it <= _PLAIN_ITERS else _RHO)
        # a NaN or inf iterate shows in its rows, checked or not
        if not math.isfinite(cont):
            raise NumericError(f"non-finite iterate at iteration {it}")
        # only an iteration that passes the residual test can stop the run;
        # the last one, powers of two for the record and the iterations
        # where the steps may still switch are checked too
        met_before, met = met, False
        on_switch = (adaptive and it % _SWITCH_EVERY == 0
                     and len(diag.step_changes) < _MAX_STEP_CHANGES)
        if cont <= config.tol_cont or it == config.max_iters or on_switch or it & (it - 1) == 0:
            # the prox keeps w_prox in the split set: no projection needed
            a_val, b_val = _certificate(problem, -ws.y_prox, ws.m_prox, ws.w_prox,
                                        details=cert_details)
            gap = a_val + b_val
            if np.isnan(gap):
                raise NumericError(f"non-finite iterate at iteration {it}")
            diag.iter_history.append(it)
            diag.a_history.append(a_val)
            diag.b_history.append(b_val)
            diag.gap_history.append(gap)
            diag.cont_history.append(cont)
            diag.tau_history.append(ws.tau)
            gap_met = _gap_certified(a_val, b_val, config.tol_gap)
            cont_met = cont <= config.tol_cont
            met = gap_met and cont_met
            if on_switch and gap_met != cont_met:
                # a small tau moves y faster, which the residual test needs
                tau = max(ws.tau / 2, _TAU_MIN) if gap_met else min(ws.tau * 2, _TAU_MAX)
                if tau != ws.tau:
                    ws.set_steps(tau, _TAU * _SIGMA / tau)
                    diag.step_changes.append((it, ws.tau, ws.sigma))
        # both tests must hold at two iterations in a row: the residual of
        # an early iterate can dip below tol_cont once while u is still
        # first-order off (the gap sees its error only to second order)
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
        if peak > _CFL_SLACK:       # the tolerance of solve_continuity's CFL test
            diag.notes.append(
                f"the certificate scaled split velocities down (largest load "
                f"sum_a (a_a - b_a) dt/dx_a = {peak:.4g} > 1), which moves its "
                f"dual point off the iterate"
                + (" and makes B +inf, as the split hull lacks rest"
                   if cert_details["b_inf_without_rest"] else "")
                + f"; nt >= {int(np.ceil((grid.nt - 1) * peak - 1e-9)) + 1} keeps "
                f"this load <= 1 (balls: dt <= dx/(sqrt(2*dim)*c) for any iterate)")
    diag.tau, diag.sigma = ws.tau, ws.sigma

    diag.wall_time = time.perf_counter() - t0

    u_vals = -ws.y_prox
    u_vals[-1] = problem.u_T
    # the bundle's layout: components last, a zero last level
    w_plus, w_minus = (np.zeros((grid.nt, *grid.nx, dim)) for _ in range(2))
    w_plus[:-1] = np.moveaxis(ws.w_prox[:dim], 0, -1)
    w_minus[:-1] = np.moveaxis(ws.w_prox[dim:], 0, -1)
    m_field = DensityField(grid, ws.m_prox)
    return OptimalBundle(
        u=ScalarField(grid, u_vals),
        f=recover_f(problem, m_field),
        m=m_field,
        w_plus=VecField(grid, w_plus),
        w_minus=VecField(grid, w_minus),
        diagnostics=diag,
    )
