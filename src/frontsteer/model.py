"""Velocity-set family c(x,A) and running-cost family K, K*, k.

Two speed variants are supported:

* ``IsotropicSpeed``: c(x,A) is the closed ball of radius c(x) (constant or
  a nodal table over the unit torus).  The Hamiltonian and the cone check
  have closed forms; the cone projection is folded into the K* prox
  (``prox_cost_conj_coned``).
* ``FiniteControlsSpeed``: finitely many velocity maps x -> c(x, a_i); the
  admissible set is their convex hull, and w in m*c(x,A) means (m, w) lies in
  the cone spanned by the generators g_i = (1, v_i(x)).  The cone check and
  the joint prox (``prox_cost_conj_hull``) are exact: they enumerate the
  faces of at most dim + 1 generators (``hull_faces``) and solve one scalar
  equation per face in closed form, no iteration.

Each speed owns the nodal operators its callers need, evaluated on the nodes
of a ``TorusGrid``: ``hamiltonian`` H(x, p) = sup over v in c(x,A) of -v.p,
``cone_violation`` for w in m*c(x,A), and ``velocity_samples`` for the HJ
sweep.  The primal-dual solver works with split velocities (a, b), a >= 0 >= b
per axis, whose net velocity is a + b: ``split_hamiltonian`` is the sup of
-(a.D+u + b.D-u) over the split velocity set, the ball {|(a, b)| <= c(x)} for
isotropic speeds and the hull of the split maps (v_i^+, v_i^-) for finite
ones (``split_hull_faces``); ``split_project`` moves momenta into m times it.

The cost family is the homogeneous power law K(f) = kappa*|f|^p / p with
conjugate K*(m) = kappa^(1-q)*|m|^q / q and k = dK*/dm.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericError, ParameterError

# a face whose Gram determinant falls below this fraction of the product of
# its diagonal (Hadamard's bound) has linearly dependent generators
_GRAM_RTOL = 1e-12


@dataclass(frozen=True)
class IsotropicSpeed:
    """Ball-valued velocity sets: c(x,A) = closed ball of radius c(x) > 0.

    ``radius`` is either a positive constant or a nodal array over the unit
    torus (shape = points per axis, matching the grid it is used on).
    """

    dim: int
    radius: float | np.ndarray

    def __post_init__(self):
        if isinstance(self.radius, np.ndarray):
            arr = np.array(self.radius, dtype=float)
            arr.setflags(write=False)
            if arr.ndim != self.dim:
                raise ParameterError(f"radius table must be {self.dim}-d")
            if np.min(arr) <= 0:
                raise ParameterError("speed radius must be positive")
            object.__setattr__(self, "radius", arr)
        else:
            r = float(self.radius)
            if r <= 0:
                raise ParameterError("speed radius must be positive")
            object.__setattr__(self, "radius", r)

    @property
    def c0(self) -> float:
        return float(np.min(self.radius))

    @property
    def c1(self) -> float:
        return float(np.max(self.radius))

    def radius_nodes(self, nx: tuple[int, ...]) -> np.ndarray:
        """Radius sampled on the grid nodes (tables must match the grid)."""
        if isinstance(self.radius, np.ndarray):
            if self.radius.shape != nx:
                raise ParameterError(
                    f"radius table shape {self.radius.shape} != grid {nx}")
            return self.radius
        return np.full(nx, self.radius)

    def hamiltonian(self, grid, p: np.ndarray) -> np.ndarray:
        """H(x, p) = c(x)|p| on the grid nodes; p has shape (..., *nx, dim)."""
        return self.radius_nodes(grid.nx) * np.linalg.norm(p, axis=-1)

    def split_hamiltonian(self, grid, fwd: np.ndarray, bwd: np.ndarray) -> np.ndarray:
        """sup over a >= 0 >= b with |(a, b)| <= c(x) of -(a.fwd + b.bwd):
        the ``hamiltonian`` of (max(-fwd, 0), max(bwd, 0)).  fwd and bwd are
        the forward and backward differences, each of shape (..., *nx, dim)."""
        return self.hamiltonian(grid, np.concatenate(
            [np.maximum(-fwd, 0.0), np.maximum(bwd, 0.0)], axis=-1))

    def split_contains_rest(self, grid) -> bool:
        """Every split ball contains (a, b) = 0."""
        return True

    def split_project(self, grid, m: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Sign-clipped split momenta w, shape (..., *nx, 2*dim), scaled onto
        |w| = c(x)*m beyond a relative 1e-12 (the prox's round-off, left so an
        iterate keeps its certificate): the nearest point of m times the ball."""
        cap = self.radius_nodes(grid.nx) * m
        norm = np.sqrt(sum(w[..., k] * w[..., k] for k in range(w.shape[-1])))
        over = norm > cap * (1.0 + 1e-12)
        return w * np.divide(cap, norm, out=np.ones_like(norm), where=over)[..., None]

    def cone_violation(self, grid, m: np.ndarray, w: np.ndarray) -> float:
        """Largest excess of |w| over c(x)*m over all nodes (<= 0 inside)."""
        c = self.radius_nodes(grid.nx)
        return float(np.max(np.linalg.norm(w, axis=-1) - c * m))

    def velocity_samples(self, grid) -> list[np.ndarray]:
        """Rest, then the 2*dim axis and 2^dim diagonal unit directions
        (duplicates dropped) scaled to the node radius; each (*nx, dim)."""
        dim = grid.dim
        dirs = []
        for a in range(dim):
            for s in (1.0, -1.0):
                e = np.zeros(dim)
                e[a] = s
                dirs.append(e)
        for signs in itertools.product((1.0, -1.0), repeat=dim):
            d = np.array(signs) / np.sqrt(dim)
            if not any(np.allclose(d, seen) for seen in dirs):
                dirs.append(d)
        r = self.radius_nodes(grid.nx)
        return [np.zeros((*grid.nx, dim))] + [r[..., None] * d for d in dirs]


@dataclass(frozen=True)
class FiniteControlsSpeed:
    """Convex hull of finitely many velocity maps x -> c(x, a_i).

    Each entry of ``velocities`` is a callable taking points of shape
    (..., dim) and returning vectors of shape (..., dim).  ``c0``/``c1`` are
    the declared inner/outer radii; they are spot-checked on a node sample.
    Cone membership and the joint prox are exact (see ``hull_faces``).
    """

    dim: int
    velocities: tuple = ()
    c0: float = 0.0
    c1: float = 0.0

    def __post_init__(self):
        if not self.velocities:
            raise ParameterError("FiniteControlsSpeed needs at least one velocity map")
        if not (0 < self.c0 <= self.c1):
            raise ParameterError("need 0 < c0 <= c1")
        object.__setattr__(self, "velocities", tuple(self.velocities))
        self._verify_radii()

    def _verify_radii(self, n_sample: int = 8):
        pts = np.stack(np.meshgrid(*([np.linspace(0, 1, n_sample, endpoint=False)] * self.dim),
                                   indexing="ij"), axis=-1).reshape(-1, self.dim)
        vels = self.velocities_at(pts)                      # (M, n, dim)
        speeds = np.linalg.norm(vels, axis=-1)
        if np.max(speeds) > self.c1 + 1e-9:
            raise ParameterError(f"velocity exceeds declared c1={self.c1}")
        if self.dim == 1:
            fan = np.array([[1.0], [-1.0]])
        else:
            ang = 2 * np.pi * np.arange(64) / 64
            fan = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        support = np.max(np.einsum("mnd,kd->mnk", vels, fan), axis=0)
        if np.min(support) < self.c0 - 1e-9:
            raise ParameterError(
                f"hull does not contain the ball of radius c0={self.c0}")

    def velocities_at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.stack([np.asarray(v(x), dtype=float) for v in self.velocities])

    def _node_velocities(self, grid) -> np.ndarray:
        """The maps evaluated on the grid nodes, shape (M, *nx, dim)."""
        return self.velocities_at(np.stack(grid.meshgrid(), axis=-1))

    def _split_node_velocities(self, grid) -> np.ndarray:
        """The split maps (v_i^+, v_i^-) on the grid nodes, shape (M, *nx, 2*dim)."""
        vels = self._node_velocities(grid)
        return np.concatenate([np.maximum(vels, 0.0), np.minimum(vels, 0.0)], axis=-1)

    def hamiltonian(self, grid, p: np.ndarray) -> np.ndarray:
        """H(x, p) = max_i -c(x, a_i).p on the grid nodes; p has shape
        (..., *nx, dim)."""
        vels = self._node_velocities(grid)
        return np.max(np.einsum("m...d,...d->m...", vels, -p), axis=0)

    def split_hamiltonian(self, grid, fwd: np.ndarray, bwd: np.ndarray) -> np.ndarray:
        """max_i -(v_i^+.fwd + v_i^-.bwd): the sup over the hull of the split
        maps.  fwd and bwd are the forward and backward differences, each of
        shape (..., *nx, dim)."""
        vels = self._split_node_velocities(grid)
        p = np.concatenate([fwd, bwd], axis=-1)
        return np.max(np.einsum("m...d,...d->m...", vels, -p), axis=0)

    def split_contains_rest(self, grid) -> bool:
        """Whether the hull of the split maps contains (a, b) = 0 at every
        node: each split map has sum_a (a_a - b_a) = |v|_1 >= 0, so it does
        exactly where some map is zero."""
        vels = self._node_velocities(grid)
        return bool(np.all(np.any(np.all(vels == 0.0, axis=-1), axis=0)))

    def split_project(self, grid, m: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Sign-clipped split momenta w moved into m times the split hull: the
        projection (m', w') of (m, w) onto the split cone, rescaled to w' m/m'
        (m' > 0 where m > 0: (m, w) has a positive product with each generator)."""
        # coef = 0 leaves the projection; r = 1/2 only selects the root solver
        pm, pw = _hull_prox(self.split_hull_faces(grid), m, w, 0.0, 0.5)
        scale = np.divide(m, pm, out=np.zeros_like(pm), where=pm > 0)
        return pw * scale[..., None]

    def cone_violation(self, grid, m: np.ndarray, w: np.ndarray) -> float:
        """Largest distance from (m, w) to its projection onto the cone
        {(m, w): m >= 0, w in m*c(x,A)} over all nodes (0 inside, up to
        round-off)."""
        # coef = 0 leaves the projection; r = 1/2 only selects the root solver
        pm, pw = _hull_prox(self.hull_faces(grid), m, w, 0.0, 0.5)
        return float(np.max(np.sqrt((m - pm) ** 2 + np.sum((w - pw) ** 2, axis=-1))))

    def velocity_samples(self, grid) -> list[np.ndarray]:
        """Rest, then each map on the grid nodes; each (*nx, dim)."""
        return [np.zeros((*grid.nx, grid.dim)), *self._node_velocities(grid)]

    def hull_faces(self, grid) -> HullFaces:
        """Per-node data of every face of the cone spanned by the generators
        g_i = (1, v_i(x)) with at most dim + 1 of them: sum over k <= dim + 1
        of C(M, k) faces for M maps.  Faces whose generators are linearly
        dependent at a node get a zero inverse there."""
        return _cone_faces(self._node_velocities(grid))

    def split_hull_faces(self, grid) -> HullFaces:
        """``hull_faces`` of the split generators (1, v_i^+(x), v_i^-(x)),
        with at most 2*dim + 1 of them per face: the cone of (m, a*m, b*m)
        over split velocities (a, b) in the hull of the split maps."""
        return _cone_faces(self._split_node_velocities(grid))


def _cone_faces(vels: np.ndarray) -> HullFaces:
    """Faces of the cone spanned by g_i = (1, vels[i]) for vels of shape
    (M, *nx, n), with at most n + 1 generators each."""
    gram = 1.0 + np.einsum("i...d,j...d->...ij", vels, vels)   # (*nx, M, M)
    faces = []
    for k in range(1, vels.shape[-1] + 2):
        for idx in itertools.combinations(range(len(vels)), k):
            a = gram[..., idx, :][..., idx]
            # Hadamard: det(A) <= prod(diag A), with equality for orthogonal g_i
            diag = np.diagonal(a, axis1=-2, axis2=-1)
            ok = np.linalg.det(a) > _GRAM_RTOL * np.prod(diag, axis=-1)
            ainv = np.linalg.inv(np.where(ok[..., None, None], a, np.eye(k)))
            ainv *= ok[..., None, None]
            ainv1 = np.sum(ainv, axis=-1)
            beta = np.where(ok, np.sum(ainv1, axis=-1), 1.0)
            faces.append(HullFace(idx, ainv, ainv1, beta))
    return HullFaces(vels, tuple(faces))


class HullFace(NamedTuple):
    """One face of a hull cone: generator indices, per-node A^-1 for the
    Gram matrix A = G^T G of its generators, A^-1 1 and 1^T A^-1 1."""

    idx: tuple[int, ...]
    ainv: np.ndarray           # (*nx, k, k)
    ainv1: np.ndarray          # (*nx, k)
    beta: np.ndarray           # (*nx,)


class HullFaces(NamedTuple):
    """The velocity maps on the grid nodes, shape (M, *nx, n), and the faces
    of their cone; built once per grid by ``hull_faces`` (n = dim) or
    ``split_hull_faces`` (n = 2*dim)."""

    vels: np.ndarray
    faces: tuple[HullFace, ...]


SpeedModel = IsotropicSpeed | FiniteControlsSpeed


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
    form; other r use monotone Newton with a bisection safeguard, tolerance
    1e-12 * (1 + |rhs|) on the residual (a purely absolute 1e-12 lies below
    the rounding of rhs once rhs > 1e4)."""
    if r == 0.5:
        return _solve_sqrt_root(lin, coef, rhs)
    lin = np.asarray(lin, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    active = rhs > 0
    tol = 1e-12 * (1.0 + np.abs(rhs))
    m = np.maximum(rhs, 0.0) / lin            # g(m/lin) >= 0: start at the right
    lo = np.zeros(np.broadcast(lin, rhs).shape)
    hi = np.broadcast_to(np.maximum(rhs, 0.0) / lin, lo.shape).copy()
    g = np.zeros_like(lo)
    for _ in range(200):
        g = lin * m + coef * m ** r - rhs
        if np.all(np.abs(np.where(active, g, 0.0)) < tol):
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
    Newton iteration with a bisection safeguard (tolerance
    1e-12 * (1 + |m_bar|)).
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


def _hull_prox(faces: HullFaces, m_bar, w_bar, coef, r):
    """argmin over the hull cone of |(m, w) - (m_bar, w_bar)|^2 / 2 +
    coef*m^(r+1)/(r+1), nodewise; m_bar has shape (..., *nx), w_bar shape
    (..., *nx, dim).

    The minimizer is the origin or lies on a face S of linearly independent
    generators with weights lam > 0.  With A = G^T G on S, stationarity gives
    lam = A^-1 G^T z_bar - coef*m^r*A^-1 1, so m = 1^T lam solves
    m + beta*coef*m^r = alpha with alpha = 1^T A^-1 G^T z_bar and
    beta = 1^T A^-1 1.  Each face with lam >= 0 and alpha > 0 gives a
    feasible candidate; the one with the smallest objective wins.  The origin
    is optimal exactly when no face gives one (then g_i . z_bar <= 0 for
    all i, which rules out every candidate)."""
    q = r + 1.0
    # g_i . z_bar, shared by every face that holds g_i
    dots = [m_bar + np.einsum("...d,...d->...", w_bar, v) for v in faces.vels]
    best = np.full(m_bar.shape, np.inf)
    m = np.zeros(m_bar.shape)
    w = np.zeros(w_bar.shape)
    for face in faces.faces:
        k = len(face.idx)
        lam0 = [sum(face.ainv[..., j, c] * dots[face.idx[c]] for c in range(k))
                for j in range(k)]
        alpha = sum(lam0)
        mu = _solve_power_root(1.0, face.beta * coef, alpha, r)
        shift = (alpha - mu) / face.beta
        lam = [l0 - shift * face.ainv1[..., j] for j, l0 in enumerate(lam0)]
        m_f = sum(lam)
        w_f = sum(lam_j[..., None] * faces.vels[i] for lam_j, i in zip(lam, face.idx))
        obj = 0.5 * ((m_f - m_bar) ** 2 + np.sum((w_f - w_bar) ** 2, axis=-1)) \
            + coef * np.maximum(m_f, 0.0) ** q / q
        # a dependent face has a zero inverse, so alpha = 0 rules it out
        take = (alpha > 0) & (obj < best)
        for lam_j in lam:
            take &= lam_j >= 0
        best = np.where(take, obj, best)
        m = np.where(take, m_f, m)
        w = np.where(take[..., None], w_f, w)
    return m, w


def prox_cost_conj_hull(model: CostModel, faces: HullFaces, m_bar, w_bar,
                        step: float):
    """Exact joint prox of step*K*(m) plus the indicator of the finite-hull
    cone {(m, w): m >= 0, w in m*conv{v_i(x)}}, by face enumeration (see
    ``_hull_prox``); ``faces`` comes from ``FiniteControlsSpeed.hull_faces``.
    Step 0 is the Euclidean projection onto the cone."""
    q = model.q
    return _hull_prox(faces, m_bar, w_bar, step * model.kappa ** (1.0 - q), q - 1.0)
