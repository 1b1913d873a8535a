"""Velocity-set family c(x,A) and running-cost family K, K*, k.

Two speed variants are supported:

* ``IsotropicSpeed``: c(x,A) is the closed ball of radius c(x) (constant or
  a nodal table over the unit torus).  Hamiltonian, conjugate membership and
  the cone projection all have closed forms.
* ``FiniteControlsSpeed``: finitely many velocity maps x -> c(x, a_i); the
  admissible set is their convex hull.  Membership and projection work
  through support functions sampled over a fixed direction fan.

The cost family is the homogeneous power law K(f) = kappa*|f|^p / p with
conjugate K*(m) = kappa^(1-q)*|m|^q / q and k = dK*/dm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ParameterError
from .grid import interp_space

_N_SUPPORT_DIRS = 64


def _direction_fan(dim: int, n: int = _N_SUPPORT_DIRS) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    ang = 2 * np.pi * np.arange(n) / n
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


@dataclass(frozen=True)
class IsotropicSpeed:
    """Ball-valued velocity sets: c(x,A) = closed ball of radius c(x) > 0.

    ``radius`` is either a positive constant or a nodal array over the unit
    torus (shape = points per axis); intermediate x use periodic multilinear
    interpolation of the table.
    """

    dim: int
    radius: float | np.ndarray
    lip: float | None = None

    def __post_init__(self):
        if isinstance(self.radius, np.ndarray):
            arr = np.array(self.radius, dtype=float)
            arr.setflags(write=False)
            if arr.ndim != self.dim:
                raise ParameterError(f"radius table must be {self.dim}-d")
            if np.min(arr) <= 0:
                raise ParameterError("speed radius must be positive")
            object.__setattr__(self, "radius", arr)
            if self.lip is None:
                lip = 0.0
                for a in range(self.dim):
                    dxa = 1.0 / arr.shape[a]
                    lip = max(lip, float(np.max(np.abs(np.roll(arr, -1, a) - arr)) / dxa))
                object.__setattr__(self, "lip", lip)
        else:
            r = float(self.radius)
            if r <= 0:
                raise ParameterError("speed radius must be positive")
            object.__setattr__(self, "radius", r)
            if self.lip is None:
                object.__setattr__(self, "lip", 0.0)

    @property
    def c0(self) -> float:
        return float(np.min(self.radius))

    @property
    def c1(self) -> float:
        return float(np.max(self.radius))

    def radius_at(self, x) -> np.ndarray | float:
        if isinstance(self.radius, np.ndarray):
            return interp_space(self.radius, np.asarray(x, dtype=float), self.radius.shape)
        x = np.asarray(x, dtype=float)
        return self.radius if x.ndim <= 1 else np.full(x.shape[:-1], self.radius)

    def radius_nodes(self, nx: tuple[int, ...]) -> np.ndarray:
        """Radius sampled on the grid nodes (tables must match the grid)."""
        if isinstance(self.radius, np.ndarray):
            if self.radius.shape != nx:
                raise ParameterError(
                    f"radius table shape {self.radius.shape} != grid {nx}")
            return self.radius
        return np.full(nx, self.radius)


@dataclass(frozen=True)
class FiniteControlsSpeed:
    """Convex hull of finitely many velocity maps x -> c(x, a_i).

    Each entry of ``velocities`` is a callable taking points of shape
    (..., dim) and returning vectors of shape (..., dim).  ``c0``/``c1`` are
    the declared inner/outer radii; they are spot-checked on a node sample.
    """

    dim: int
    velocities: tuple = ()
    c0: float = 0.0
    c1: float = 0.0
    lip: float = 0.0
    _dirs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.velocities:
            raise ParameterError("FiniteControlsSpeed needs at least one velocity map")
        if not (0 < self.c0 <= self.c1):
            raise ParameterError("need 0 < c0 <= c1")
        object.__setattr__(self, "velocities", tuple(self.velocities))
        object.__setattr__(self, "_dirs", _direction_fan(self.dim))
        self._verify_radii()

    def _verify_radii(self, n_sample: int = 8):
        pts = np.stack(np.meshgrid(*([np.linspace(0, 1, n_sample, endpoint=False)] * self.dim),
                                   indexing="ij"), axis=-1).reshape(-1, self.dim)
        vels = self.velocities_at(pts)                      # (M, n, dim)
        speeds = np.linalg.norm(vels, axis=-1)
        if np.max(speeds) > self.c1 + 1e-9:
            raise ParameterError(f"velocity exceeds declared c1={self.c1}")
        support = np.max(np.einsum("mnd,kd->mnk", vels, self._dirs), axis=0)
        if np.min(support) < self.c0 - 1e-9:
            raise ParameterError(
                f"hull does not contain the ball of radius c0={self.c0}")

    def velocities_at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.stack([np.asarray(v(x), dtype=float) for v in self.velocities])

    def support(self, x, d: np.ndarray) -> np.ndarray:
        """Support function of c(x,A) in direction(s) d."""
        vels = self.velocities_at(x)
        return np.max(np.einsum("m...d,...d->m...", vels, d), axis=0)


SpeedModel = IsotropicSpeed | FiniteControlsSpeed


def hamiltonian(speed: SpeedModel, x, p_vec) -> float | np.ndarray:
    """H(x, p) = sup over admissible velocities v of -v . p.

    Positively 1-homogeneous and subadditive in p; for isotropic speeds it
    equals c(x)*|p|, so c0*|p| <= H(x,p) <= c1*|p| holds in general.
    """
    p_vec = np.asarray(p_vec, dtype=float)
    if isinstance(speed, IsotropicSpeed):
        out = speed.radius_at(x) * np.linalg.norm(p_vec, axis=-1)
    else:
        out = speed.support(x, -p_vec)
    return float(out) if np.ndim(out) == 0 else out


def conjugate_membership(speed: SpeedModel, x, q_vec, tol: float = 1e-12) -> bool:
    """Whether H*(x, q) = 0, i.e. q lies in -c(x,A)."""
    q_vec = np.asarray(q_vec, dtype=float)
    if isinstance(speed, IsotropicSpeed):
        return bool(np.linalg.norm(q_vec) <= float(speed.radius_at(x)) + tol)
    dirs = _direction_fan(speed.dim)
    vels = -speed.velocities_at(np.asarray(x, dtype=float))   # vertices of -c(x,A)
    support = np.max(vels @ dirs.T, axis=0)
    return bool(np.all(q_vec @ dirs.T <= support + tol))


def project_cone(speed: SpeedModel, x, m_bar: float, w_bar) -> tuple[float, np.ndarray]:
    """Euclidean projection onto the cone {(m, w): m >= 0, w in m*c(x,A)}.

    Isotropic speeds use the closed-form second-order-cone projection;
    finite-control hulls use Dykstra iteration over sampled support
    halfspaces to tolerance 1e-10.
    """
    w_bar = np.asarray(w_bar, dtype=float)
    if isinstance(speed, IsotropicSpeed):
        c = float(speed.radius_at(x))
        m, w = _soc_project(np.asarray([m_bar]), w_bar[None, :], np.asarray([c]))
        return float(m[0]), w[0]
    return _dykstra_project(speed, x, float(m_bar), w_bar)


def _soc_project(m_bar: np.ndarray, w_bar: np.ndarray, c: np.ndarray):
    """Vectorized projection onto {(m,w): |w| <= c*m}; w_bar shape (..., dim)."""
    a = np.linalg.norm(w_bar, axis=-1)
    inside = a <= c * m_bar
    polar = c * a <= -m_bar
    m = (m_bar + c * a) / (1.0 + c * c)
    m = np.where(inside, m_bar, np.where(polar, 0.0, m))
    scale = np.where(inside, 1.0, np.where(polar, 0.0, np.divide(
        c * m, a, out=np.zeros_like(a), where=a > 0)))
    w = w_bar * scale[..., None]
    return m, w


def _dykstra_project(speed: FiniteControlsSpeed, x, m_bar, w_bar,
                     tol: float = 1e-10, max_iter: int = 500):
    dirs = _direction_fan(speed.dim)
    h = speed.support(np.asarray(x, dtype=float), dirs)       # support per direction
    z = np.concatenate([[m_bar], w_bar])
    normals = np.concatenate([-h[:, None], dirs], axis=1)     # w.d - m*h <= 0
    normals = np.vstack([normals, np.concatenate([[-1.0], np.zeros(speed.dim)])])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    corr = np.zeros_like(normals)
    for _ in range(max_iter):
        z_prev = z.copy()
        for j in range(normals.shape[0]):
            y = z + corr[j]
            viol = y @ normals[j]
            z_new = y - max(viol, 0.0) * normals[j]
            corr[j] = y - z_new
            z = z_new
        if np.max(np.abs(z - z_prev)) < tol:
            break
    return max(z[0], 0.0), z[1:]


@dataclass(frozen=True)
class CostModel:
    """Power-law running cost K(f) = kappa*|f|^p / p (p > 1, kappa > 0)."""

    p: float
    kappa: float = 1.0

    def __post_init__(self):
        if not (self.p > 1):
            raise ParameterError(f"cost exponent p must be > 1, got {self.p}")
        if not (self.kappa > 0):
            raise ParameterError(f"kappa must be > 0, got {self.kappa}")

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)


def cost(model: CostModel, f) -> float | np.ndarray:
    out = model.kappa * np.abs(np.asarray(f, dtype=float)) ** model.p / model.p
    return float(out) if np.ndim(out) == 0 else out


def cost_conj(model: CostModel, m) -> float | np.ndarray:
    """K*(m) = kappa^(1-q) |m|^q / q (Fenchel conjugate of K)."""
    q = model.q
    out = model.kappa ** (1.0 - q) * np.abs(np.asarray(m, dtype=float)) ** q / q
    return float(out) if np.ndim(out) == 0 else out


def cost_deriv_conj(model: CostModel, m) -> float | np.ndarray:
    """k(m) = dK*/dm = kappa^(1-q) sign(m) |m|^(q-1)."""
    q = model.q
    m = np.asarray(m, dtype=float)
    out = model.kappa ** (1.0 - q) * np.sign(m) * np.abs(m) ** (q - 1.0)
    return float(out) if np.ndim(out) == 0 else out


def _solve_sqrt_root(lin, coef, rhs):
    """Closed-form root of lin*m + coef*sqrt(m) = rhs over m >= 0: the
    quadratic lin*s^2 + coef*s - rhs in s = sqrt(m) has the nonnegative root
    s = 2*rhs / (coef + sqrt(coef^2 + 4*lin*rhs)), free of cancellation; m = 0
    wherever rhs <= 0."""
    rhs_pos = np.maximum(rhs, 0.0)
    den = coef + np.sqrt(coef * coef + 4.0 * lin * rhs_pos)
    s = np.divide(2.0 * rhs_pos, den, out=np.zeros(den.shape), where=rhs_pos > 0)
    return s * s


def _solve_power_root(lin, coef, rhs, r):
    """Solve lin*m + coef*m^r = rhs elementwise over m >= 0 (all inputs
    broadcastable, lin >= 1, coef >= 0, r > 0).  r = 1/2 (p = 3) has a closed
    form; other r use monotone Newton with a bisection safeguard, absolute
    tolerance 1e-12."""
    if r == 0.5:
        return _solve_sqrt_root(lin, coef, rhs)
    lin = np.asarray(lin, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    active = rhs > 0
    m = np.maximum(rhs, 0.0) / lin            # g(m/lin) >= 0: start at the right
    lo = np.zeros(np.broadcast(lin, rhs).shape)
    hi = np.broadcast_to(np.maximum(rhs, 0.0) / lin, lo.shape).copy()
    g = np.zeros_like(lo)
    for _ in range(200):
        g = lin * m + coef * m ** r - rhs
        if np.max(np.abs(np.where(active, g, 0.0))) < 1e-12:
            break
        hi = np.where(g > 0, np.minimum(hi, m), hi)
        lo = np.where(g < 0, np.maximum(lo, m), lo)
        with np.errstate(divide="ignore", invalid="ignore"):
            gp = lin + coef * r * m ** (r - 1.0)
            m_new = m - g / gp
        bad = ~np.isfinite(m_new) | (m_new <= lo) | (m_new >= hi)
        m = np.where(bad, 0.5 * (lo + hi), m_new)
    else:
        raise NumericError(
            f"power-root solve failed to converge; worst residual "
            f"{np.max(np.abs(np.where(active, g, 0.0)))}")
    return np.where(active, m, 0.0)


def prox_cost_conj(model: CostModel, m_bar, step: float):
    """argmin over m >= 0 of (m - m_bar)^2/2 + step*K*(m).

    Solves the scalar optimality condition m + step*k(m) = m_bar: in closed
    form for p = 3, where it is a quadratic in sqrt(m), otherwise by monotone
    Newton iteration with a bisection safeguard (tolerance 1e-12).
    Vectorized over arrays.
    """
    if not (step > 0):
        raise ParameterError(f"prox step must be > 0, got {step}")
    scalar = np.ndim(m_bar) == 0
    m_bar = np.atleast_1d(np.asarray(m_bar, dtype=float))
    q = model.q
    m = _solve_power_root(1.0, step * model.kappa ** (1.0 - q), m_bar, q - 1.0)
    return float(m[0]) if scalar else m


def prox_cost_conj_coned(model: CostModel, c, m_bar, w_bar, step: float):
    """Exact joint prox of step*K*(m) plus the cone indicator of
    {(m, w): m >= 0, |w| <= c*m} (isotropic speeds).

    When the unconstrained density prox already dominates |w_bar|/c the
    momentum is kept; otherwise the cone is active and the optimality
    condition becomes (1 + c^2) m + step*k(m) = m_bar + c*|w_bar|.
    """
    q = model.q
    coef = step * model.kappa ** (1.0 - q)
    a = np.linalg.norm(w_bar, axis=-1)
    m_free = _solve_power_root(1.0, coef, m_bar, q - 1.0)
    free = a <= c * m_free
    m_act = _solve_power_root(1.0 + c * c, coef, m_bar + c * a, q - 1.0)
    m = np.where(free, m_free, m_act)
    scale = np.where(free, 1.0, np.divide(
        c * m_act, a, out=np.zeros_like(a), where=a > 0))
    return m, w_bar * scale[..., None]
