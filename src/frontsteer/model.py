"""Velocity-set family c(x,A) and running-cost family K, K*, k.

Two speed variants are supported:

* ``IsotropicSpeed``: c(x,A) is the closed ball of radius c(x) (constant or
  a nodal table over the unit torus).  The split Hamiltonian and the cone
  check have closed forms; the cone projection is folded into the K* prox
  (``prox_cost_conj_coned``).
* ``FiniteControlsSpeed``: finitely many velocity maps x -> c(x, a_i); the
  admissible set is their convex hull, and w in m*c(x,A) means (m, w) lies in
  the cone spanned by the generators g_i = (1, v_i(x)).  The cone check and
  the joint prox (``prox_cost_conj_hull``) are exact: they enumerate the
  faces of the cone and solve one scalar equation per face, in closed form
  for the cone check and at p = 3, by Newton to round-off otherwise
  (``_solve_power_root``).  The cone check runs on the faces of at most
  dim + 1 generators (``hull_faces``); the solver's prox runs on the split
  generators (1, v_i^+(x), v_i^-(x)), faces of up to 2*dim + 1 of them
  (``split_cone``).

Each speed owns the operators its callers need, evaluated on the nodes of a
``TorusGrid``: ``cone_violation`` for a nodal w in m*c(x,A), ``velocity_samples``
for the HJ sweep, ``max_speed`` for the velocity cap, the subsolution slack
and the HJ time-step warning, ``admissible`` for the test fields of
``certify`` and ``ball_radius`` for its Hoelder bound, and for the split
velocities (a, b), a >= 0 >= b per axis, of the primal-dual solver:
``split_hamiltonian``, the sup of -(a.D+u + b.D-u) over the ball
{|(a, b)| <= c(x)} or the hull of the split maps (v_i^+, v_i^-), which is
H(x, p) = sup_{v in c(x,A)} -v.p at D+u = D-u = p, and ``split_project``,
which moves momenta into m times the split set on the per-grid data of
``split_cone``.  Split arrays, hull faces and both joint proxes are
component-major, (n, ..., *nx), as in ``transport``.  ``ProblemInstance``
refuses a speed on the nodes of its grid by its ``check_nodes``.

The cost family is the homogeneous power law K(f) = kappa*|f|^p / p with
conjugate K*(m) = kappa^(1-q)*|m|^q / q and k = dK*/dm.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericError, ParameterError
from .transport import split_by_sign

# a face whose Gram determinant falls below this fraction of the product of
# its diagonal (Hadamard's bound) has linearly dependent generators
_GRAM_RTOL = 1e-12


def _component_norm(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Euclidean norm over the component axis, the last (axis=-1) or the
    first (axis=0), sqrt(sum_k x_k*x_k) summed in order: equal bit for bit
    to ``np.linalg.norm(x, axis=axis)`` for the 1, 2 and 4 components used
    here (numpy reduces such short axes in order too), at a fraction of its
    cost, in one node-sized buffer plus one product."""
    parts = list(x) if axis == 0 else [x[..., k] for k in range(x.shape[-1])]
    out = parts[0] * parts[0]
    for part in parts[1:]:
        out += part * part
    return np.sqrt(out, out=out)


def _dot(x, y):
    """sum_k x[k] * y[k] over the leading component axis, from +0.  The
    hull's sums have at most two nonzero terms (dim <= 2 components, or a
    split map, zero in v+_a or in v-_a), so every order gives their bits."""
    return sum(a * b for a, b in zip(x, y))


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
            if not np.all((arr > 0) & (arr < np.inf)):
                raise ParameterError("speed radius must be positive and finite")
            object.__setattr__(self, "radius", arr)
        else:
            r = float(self.radius)
            if not (0 < r < np.inf):
                raise ParameterError(f"speed radius must be positive and finite, got {r}")
            object.__setattr__(self, "radius", r)

    def max_speed(self, grid) -> float:
        """The largest radius on the grid nodes."""
        return float(np.max(self.radius_nodes(grid.nx)))

    def check_nodes(self, grid) -> None:
        """Refuse a radius table whose shape is not the grid's."""
        self.radius_nodes(grid.nx)

    def radius_nodes(self, nx: tuple[int, ...]) -> np.ndarray:
        """Radius sampled on the grid nodes (tables must match the grid)."""
        if isinstance(self.radius, np.ndarray):
            if self.radius.shape != nx:
                raise ParameterError(
                    f"radius table shape {self.radius.shape} != grid {nx}")
            return self.radius
        return np.full(nx, self.radius)

    def split_hamiltonian(self, grid, fwd: np.ndarray, bwd: np.ndarray) -> np.ndarray:
        """sup over a >= 0 >= b with |(a, b)| <= c(x) of -(a.fwd + b.bwd):
        c(x) |(max(-fwd, 0), max(bwd, 0))|, which is H(x, p) = c(x)|p| at
        fwd = bwd = p.  fwd and bwd are the forward and backward differences
        of ``one_sided``, each component-major, (dim, ..., *nx)."""
        split = np.concatenate([np.maximum(-fwd, 0.0), np.maximum(bwd, 0.0)])
        return self.radius_nodes(grid.nx) * _component_norm(split, axis=0)

    def split_contains_rest(self, grid) -> bool:
        """Every split ball contains (a, b) = 0."""
        return True

    def split_cone(self, grid) -> np.ndarray:
        """The nodal radii, the per-grid data of ``split_project`` and of the
        joint prox ``prox_cost_conj_coned``."""
        return self.radius_nodes(grid.nx)

    def split_project(self, grid, m: np.ndarray, w: np.ndarray,
                      cone: np.ndarray) -> np.ndarray:
        """Sign-clipped split momenta w, (2*dim, ..., *nx), scaled onto
        |w| = c(x)*m beyond a relative 1e-12 (the prox's round-off, left so an
        iterate keeps its certificate): the nearest point of m times the ball.
        ``cone`` is ``split_cone(grid)``."""
        cap = cone * m
        norm = _component_norm(w, axis=0)
        over = norm > cap * (1.0 + 1e-12)
        return w * np.divide(cap, norm, out=np.ones_like(norm), where=over)

    def cone_violation(self, grid, m: np.ndarray, w: np.ndarray) -> float:
        """Largest excess of a nodal |w| over c(x)*m over all nodes (<= 0 inside)."""
        c = self.radius_nodes(grid.nx)
        return float(np.max(_component_norm(w) - c * m))

    @property
    def ball_radius(self) -> float | None:
        """The constant radius, or None for a radius table."""
        return None if isinstance(self.radius, np.ndarray) else self.radius

    def admissible(self, grid):
        """(dim, mix): ``mix`` scales dim fields (levels, *nx), as one vector
        raw, by 0.98 c(x) / (1 + |raw|) into velocities (levels, *nx, dim)."""
        radii = self.radius_nodes(grid.nx)

        def mix(fields):
            raw = np.stack(fields, axis=-1)
            raw *= (0.98 * radii / (1.0 + _component_norm(raw)))[..., None]
            return raw
        return grid.dim, mix

    def velocity_samples(self, grid) -> list[np.ndarray]:
        """Rest, then the 2*dim axis unit directions and, in 2D, the four
        diagonal ones (in 1D they are the axis ones), scaled to the node
        radius; each (*nx, dim)."""
        dim = grid.dim
        dirs = [np.where(np.arange(dim) == a, s, 0.0) for a in range(dim) for s in (1.0, -1.0)]
        if dim == 2:
            dirs += [np.array(signs) / np.sqrt(2) for signs in
                     itertools.product((1.0, -1.0), repeat=2)]
        r = self.radius_nodes(grid.nx)
        return [np.zeros((*grid.nx, dim))] + [r[..., None] * d for d in dirs]


@dataclass(frozen=True)
class FiniteControlsSpeed:
    """Convex hull of finitely many velocity maps x -> c(x, a_i).

    Each entry of ``velocities`` is a callable taking points of shape
    (..., dim) and returning vectors of shape (..., dim).  The hull's radii
    follow from the maps: the outer one on a grid is ``max_speed``, and an
    inner one, 0 strictly inside the hull, is checked on the grid's nodes by
    ``check_nodes``, which ``ProblemInstance`` calls.
    Cone membership and the joint prox are exact (see ``hull_faces``).
    """

    dim: int
    velocities: tuple = ()

    def __post_init__(self):
        if not self.velocities:
            raise ParameterError("FiniteControlsSpeed needs at least one velocity map")
        object.__setattr__(self, "velocities", tuple(self.velocities))

    def check_nodes(self, grid) -> None:
        """Refuse maps that give a non-finite velocity on the grid nodes, or
        whose hull there does not hold a ball B(0, c0) with c0 > 0: its
        support must be positive in every direction of a fan (2 in 1D, 64 in
        2D), taken one direction at a time, so the check holds M node-sized
        arrays, not M x 64."""
        vels = np.moveaxis(self._node_velocities(grid), -1, 0)      # (dim, M, *nx)
        # a NaN would pass the support test, which compares false on it
        if not np.all(np.isfinite(vels)):
            raise ParameterError("velocity maps must give finite velocities")
        ang = 2 * np.pi * np.arange(64) / 64
        fan = [(1.0,), (-1.0,)] if grid.dim == 1 else zip(np.cos(ang), np.sin(ang))
        for direction in fan:
            if np.min(np.max(_dot(vels, direction), axis=0)) <= 0:
                raise ParameterError(
                    "the hull of the velocity maps must hold 0 strictly inside")

    def velocities_at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.stack([np.asarray(v(x), dtype=float) for v in self.velocities])

    def _node_velocities(self, grid) -> np.ndarray:
        """The maps evaluated on the grid nodes, shape (M, *nx, dim)."""
        return self.velocities_at(np.stack(grid.meshgrid(), axis=-1))

    def max_speed(self, grid) -> float:
        """The largest |v_i(x)| over the maps and the grid nodes."""
        return float(np.max(_component_norm(self._node_velocities(grid))))

    def _split_node_velocities(self, grid) -> np.ndarray:
        """The split maps (v_i^+, v_i^-) on the grid nodes, shape (2*dim, M, *nx)."""
        return split_by_sign(self._node_velocities(grid))

    def split_hamiltonian(self, grid, fwd: np.ndarray, bwd: np.ndarray) -> np.ndarray:
        """max_i -(v_i^+.fwd + v_i^-.bwd): the sup over the hull of the split
        maps.  fwd and bwd are the forward and backward differences of
        ``one_sided``, each component-major, (dim, ..., *nx)."""
        vels = self._split_node_velocities(grid)
        neg = -np.concatenate([fwd, bwd])
        return np.max([_dot(vels[:, i], neg) for i in range(vels.shape[1])], axis=0)

    def split_contains_rest(self, grid) -> bool:
        """Whether the hull of the split maps contains (a, b) = 0 at every
        node: each split map has sum_a (a_a - b_a) = |v|_1 >= 0, so it does
        exactly where some map is zero."""
        vels = self._node_velocities(grid)
        return bool(np.all(np.any(np.all(vels == 0.0, axis=-1), axis=0)))

    def split_cone(self, grid) -> HullFaces:
        """``hull_faces`` of the split generators (1, v_i^+(x), v_i^-(x)),
        with at most 2*dim + 1 of them per face: the cone of (m, a*m, b*m)
        over split velocities (a, b) in the hull of the split maps, the
        per-grid data of ``split_project`` and of ``prox_cost_conj_hull``."""
        return _cone_faces(self._split_node_velocities(grid))

    def split_project(self, grid, m: np.ndarray, w: np.ndarray,
                      cone: HullFaces) -> np.ndarray:
        """Sign-clipped split momenta w moved into m times the split hull: the
        projection (m', w') of (m, w) onto the split cone, rescaled to w' m/m'
        (m' > 0 where m > 0: (m, w) has a positive product with each generator).
        ``cone`` is ``split_cone(grid)``."""
        # coef = 0 leaves the projection; r = 1/2 only selects the root solver
        pm, pw = _hull_prox(cone, m, w, 0.0, 0.5)
        return pw * np.divide(m, pm, out=np.zeros_like(pm), where=pm > 0)

    def cone_violation(self, grid, m: np.ndarray, w: np.ndarray) -> float:
        """Largest distance from (m, w) to its projection onto the cone
        {(m, w): m >= 0, w in m*c(x,A)} over all nodes (0 inside, up to
        round-off), for a nodal w and an m that broadcasts to its nodes."""
        w = np.moveaxis(w, -1, 0)
        m = np.broadcast_to(m, w.shape[1:])
        # coef = 0 leaves the projection; r = 1/2 only selects the root solver
        pm, pw = _hull_prox(self.hull_faces(grid), m, w, 0.0, 0.5)
        return float(np.max(np.sqrt((m - pm) ** 2 + np.sum((w - pw) ** 2, axis=0))))

    # the averaging construction of the Hoelder bound needs a ball
    ball_radius = None

    def admissible(self, grid):
        """(M, mix): ``mix`` mixes the M maps on the nodes by the softmax of M
        fields (levels, *nx) into velocities (levels, *nx, dim)."""
        vels = self._node_velocities(grid)

        def mix(fields):
            logits = np.stack(fields)
            lam = np.exp(logits - np.max(logits, axis=0))
            lam /= np.sum(lam, axis=0)
            return np.einsum("mt...,m...d->t...d", lam, vels)
        return len(self.velocities), mix

    def velocity_samples(self, grid) -> list[np.ndarray]:
        """Rest, then each map on the grid nodes; each (*nx, dim)."""
        return [np.zeros((*grid.nx, grid.dim)), *self._node_velocities(grid)]

    def hull_faces(self, grid) -> HullFaces:
        """Per-node data of every face of the cone spanned by the generators
        g_i = (1, v_i(x)) with at most dim + 1 of them: sum over k <= dim + 1
        of C(M, k) faces for M maps.  Faces whose generators are linearly
        dependent at a node get a zero inverse there."""
        return _cone_faces(np.moveaxis(self._node_velocities(grid), -1, 0))


def _cone_faces(vels: np.ndarray) -> HullFaces:
    """Faces of the cone spanned by g_i = (1, vels[:, i]) for vels of shape
    (n, M, *nx), with at most n + 1 generators each."""
    n, count = vels.shape[:2]
    pairs = [_dot(vels[:, i], vels[:, j]) for i in range(count) for j in range(count)]
    gram = 1.0 + np.stack(pairs, axis=-1).reshape(*vels.shape[2:], count, count)
    faces = []
    for k in range(1, n + 2):
        for idx in itertools.combinations(range(count), k):
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
    """The velocity maps on the grid nodes, shape (n, M, *nx), and the faces
    of their cone; built once per grid by ``hull_faces`` (n = dim) or
    ``split_cone`` (n = 2*dim)."""

    vels: np.ndarray
    faces: tuple[HullFace, ...]


SpeedModel = IsotropicSpeed | FiniteControlsSpeed


@dataclass(frozen=True)
class CostModel:
    """Power-law running cost K(f) = kappa*|f|^p / p (p > 1, kappa > 0)."""

    p: float
    kappa: float = 1.0

    def __post_init__(self):
        if not (1 < self.p < np.inf):
            raise ParameterError(f"cost exponent p must be finite and > 1, got {self.p}")
        if not (0 < self.kappa < np.inf):
            raise ParameterError(f"kappa must be finite and > 0, got {self.kappa}")

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


def _solve_sqrt_root(lin, coef, rhs, out=None):
    """Closed-form root of lin*m + coef*sqrt(m) = rhs over m >= 0: the
    quadratic lin*s^2 + coef*s - rhs in s = sqrt(m) has the nonnegative root
    s = 2*rhs+ / (coef + sqrt(coef^2 + 4*lin*rhs+)), free of cancellation,
    with rhs+ = fmax(rhs, 0), which is 0 for a NaN rhs too, so m = 0 wherever
    rhs <= 0.  Each product and sum is formed in place in two arrays.  For
    the lin >= 1 of every caller the denominator is 0 only where coef = 0
    and rhs+ = 0; it is raised there to the least subnormal, which leaves
    every positive one as it is and makes that division 0 / 5e-324 = 0,
    with no mask and no 0/0.  The roots go into ``out`` if given."""
    s = np.fmax(rhs, 0.0, out=np.empty(np.broadcast(lin, coef, rhs).shape) if out is None
                else out)
    den = np.multiply(4.0 * lin, s, out=np.empty_like(s))
    den += coef * coef
    np.sqrt(den, out=den)
    den += coef
    np.maximum(den, 5e-324, out=den)
    s *= 2.0
    s /= den
    return np.multiply(s, s, out=s)


def _solve_power_root(lin, coef, rhs, r, out=None):
    """Solve lin*m + coef*m^r = rhs elementwise over m >= 0 (all inputs
    broadcastable, lin >= 1, coef >= 0, r > 0); m = 0 where rhs <= 0.
    r = 1/2 (p = 3) has a closed form.  Other r take plain Newton on the
    convex form: in x = m^min(r, 1) the equation is h(x) = a*x^e + b*x - rhs
    = 0, with e = max(1/r, r) >= 1 and (a, b) = (lin, coef) for r < 1,
    (coef, lin) otherwise, so h is convex and increasing.  From
    x0 = min((rhs/a)^(1/e), rhs/b), where h >= 0 and x0 is at most twice
    the root, Newton decreases monotonically to the root; an entry stops at
    the first step that does not decrease it, with no bracket and no
    tolerance.  Later steps run over the entries still open, so an entry
    gets the same bits as when solved alone.

    Scalar lin and coef stay scalars and the others are gathered to the open
    entries (a contiguous rhs with every entry open is read in place).  Each
    step is formed in place in two arrays of the open entries, which are
    compressed one at a time.  The roots go into ``out`` if given, a buffer
    of the broadcast shape that overlaps no input."""
    if r == 0.5:
        return _solve_sqrt_root(lin, coef, rhs, out)
    rhs = np.asarray(rhs, dtype=float)
    shape = np.broadcast_shapes(np.shape(lin), np.shape(coef), rhs.shape)
    if out is None:
        out = np.zeros(shape)
    else:
        out.fill(0.0)
    pending = np.flatnonzero(np.broadcast_to(rhs, shape) > 0)   # rhs <= 0: root m = 0
    if not pending.size:
        return out

    def gather(v):
        v = np.broadcast_to(np.asarray(v, dtype=float), shape)
        if pending.size == v.size and v.flags.c_contiguous:
            return v.reshape(-1)
        return v.flat[pending]

    lin, coef = (float(v) if np.ndim(v) == 0 else gather(v) for v in (lin, coef))
    rhs = gather(rhs)
    e, a, b = (1.0 / r, lin, coef) if r < 1.0 else (r, coef, lin)
    del lin, coef           # a compressed a or b must free its old copy
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.minimum((rhs / a) ** (1.0 / e), rhs / b)
        for _ in range(100):
            # x - h/h' with h = (a*x^(e-1) + b)*x - rhs, h' = e*a*x^(e-1) + b
            d = x ** (e - 1.0)
            d *= a
            h = np.add(d, b)
            h *= x
            h -= rhs
            d *= e
            d += b
            h /= d
            x_new = np.subtract(x, h, out=d)
            del h, d
            more = x_new < x
            if np.all(more):
                x = x_new
                continue
            done = ~more
            last = x[done]
            out.flat[pending[done]] = last ** e if r < 1.0 else last
            # one array at a time, each old one freed as its copy is made
            x = x_new[more]
            del x_new
            pending = pending[more]
            rhs = rhs[more]
            a = a if np.ndim(a) == 0 else a[more]
            b = b if np.ndim(b) == 0 else b[more]
            if not pending.size:
                return out
    raise NumericError(f"power-root Newton did not settle on {pending.size} entries")


def prox_cost_conj(model: CostModel, m_bar, step: float):
    """argmin over m >= 0 of (m - m_bar)^2/2 + step*K*(m).

    Solves the scalar optimality condition m + step*k(m) = m_bar: in closed
    form for p = 3, where it is a quadratic in sqrt(m), otherwise by monotone
    Newton iteration to round-off (``_solve_power_root``).
    Vectorized over arrays.
    """
    if not (step > 0):
        raise ParameterError(f"prox step must be > 0, got {step}")
    scalar = np.ndim(m_bar) == 0
    m_bar = np.atleast_1d(np.asarray(m_bar, dtype=float))
    q = model.q
    m = _solve_power_root(1.0, step * model.kappa ** (1.0 - q), m_bar, q - 1.0)
    return float(m[0]) if scalar else m


def prox_cost_conj_coned(model: CostModel, c, m_bar, w_bar, step: float, out=None):
    """Exact joint prox of step*K*(m) plus the cone indicator of
    {(m, w): m >= 0, |w| <= c*m} (isotropic speeds), for momenta w_bar
    stored component-major, shape (n, *m_bar.shape).

    The momentum is kept where the unconstrained density prox, the root of
    m + step*k(m) = m_bar, dominates t = |w_bar|/c; that root is increasing
    in m_bar, so these free nodes are those with t + step*k(t) <= m_bar,
    and those with w_bar = 0.  On the others the cone is active and the
    condition becomes (1 + c^2) m + step*k(m) = m_bar + c*|w_bar|.  One root
    solve serves both, with the coefficient 1 or 1 + c^2 and the right-hand
    side per node.  The result (m, w) is written into the pair ``out`` if
    given, which may be (m_bar, w_bar) themselves; w is w_bar scaled in one
    product."""
    q = model.q
    r = q - 1.0
    coef = step * model.kappa ** (1.0 - q)
    a = _component_norm(w_bar, axis=0)
    # t + step*k(t), then the right-hand side, in one buffer; t, then the
    # coefficient, in another
    lin = np.divide(a, c)
    rhs = lin ** r
    rhs *= coef
    rhs += lin
    free = rhs <= m_bar
    free |= a == 0.0
    np.multiply(c, a, out=rhs)
    rhs += m_bar
    np.copyto(rhs, m_bar, where=free)
    np.copyto(lin, 1.0 + c * c)
    lin[free] = 1.0
    m, w = (np.empty(m_bar.shape), np.empty(w_bar.shape)) if out is None else out
    _solve_power_root(lin, coef, rhs, r, out=m)
    # only free nodes can have a = 0, and they are not scaled
    scale = np.multiply(c, m, out=rhs)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale /= a
    np.putmask(scale, free, 1.0)
    np.multiply(w_bar, scale, out=w)
    return m, w


def _hull_prox(faces: HullFaces, m_bar, w_bar, coef, r, out=None):
    """argmin over the hull cone of |(m, w) - (m_bar, w_bar)|^2 / 2 +
    coef*m^(r+1)/(r+1), nodewise; m_bar has shape (..., *nx), w_bar shape
    (n, ..., *nx).  The pair ``out`` takes the result: its m (written last)
    may be m_bar, its w may not overlap w_bar.

    The minimizer is the origin or lies on a face S of linearly independent
    generators with weights lam > 0.  With A = G^T G on S, stationarity gives
    lam = A^-1 G^T z_bar - coef*m^r*A^-1 1, so m = 1^T lam solves
    m + beta*coef*m^r = alpha with alpha = 1^T A^-1 G^T z_bar and
    beta = 1^T A^-1 1.  Each face with lam >= 0 and alpha > 0 gives a
    feasible candidate; the one with the smallest objective wins.  The origin
    is optimal exactly when no face gives one (then g_i . z_bar <= 0 for
    all i, which rules out every candidate)."""
    q = r + 1.0
    vels = faces.vels       # with a unit axis for each level axis of w_bar
    vels = vels.reshape(*vels.shape[:2], *(1,) * (w_bar.ndim - vels.ndim + 1), *vels.shape[2:])
    # g_i . z_bar, shared by every face that holds g_i
    dots = [m_bar + _dot(w_bar, vels[:, i]) for i in range(vels.shape[1])]
    best = np.full(m_bar.shape, np.inf)
    m = np.zeros(m_bar.shape)
    w = np.empty(w_bar.shape) if out is None else out[1]
    w.fill(0.0)
    for face in faces.faces:
        k = len(face.idx)
        lam0 = [sum(face.ainv[..., j, c] * dots[face.idx[c]] for c in range(k))
                for j in range(k)]
        alpha = sum(lam0)
        mu = _solve_power_root(1.0, face.beta * coef, alpha, r)
        shift = (alpha - mu) / face.beta
        lam = [l0 - shift * face.ainv1[..., j] for j, l0 in enumerate(lam0)]
        m_f = sum(lam)
        w_f = sum(lam_j * vels[:, i] for lam_j, i in zip(lam, face.idx))
        obj = 0.5 * ((m_f - m_bar) ** 2 + np.sum((w_f - w_bar) ** 2, axis=0)) \
            + coef * np.maximum(m_f, 0.0) ** q / q
        # a dependent face has a zero inverse, so alpha = 0 rules it out
        take = (alpha > 0) & (obj < best)
        for lam_j in lam:
            take &= lam_j >= 0
        np.copyto(best, obj, where=take)
        np.copyto(m, m_f, where=take)
        np.copyto(w, w_f, where=take)
    if out is None:
        return m, w
    np.copyto(out[0], m)
    return out


def prox_cost_conj_hull(model: CostModel, faces: HullFaces, m_bar, w_bar,
                        step: float, out=None):
    """Exact joint prox of step*K*(m) plus the indicator of the finite-hull
    cone {(m, w): m >= 0, w in m*conv{v_i(x)}}, by face enumeration (see
    ``_hull_prox``, also for ``out``); ``faces`` comes from
    ``FiniteControlsSpeed.hull_faces`` or ``split_cone``.
    Step 0 is the Euclidean projection onto the cone."""
    q = model.q
    return _hull_prox(faces, m_bar, w_bar, step * model.kappa ** (1.0 - q), q - 1.0, out)
