import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from conftest import (cone_faces_reference, hull_prox_reference, power_root_reference,
                      prox_coned_reference, split_by_sign_reference, sqrt_root_masked,
                      traced_peak)
from frontsteer.errors import ParameterError
from frontsteer.grid import TorusGrid
from frontsteer.model import (CostModel, FiniteControlsSpeed, IsotropicSpeed,
                              _component_norm, _solve_power_root, _solve_sqrt_root, cost, cost_conj, cost_deriv_conj,
                              prox_cost_conj, prox_cost_conj_coned, prox_cost_conj_hull)
from frontsteer.pdopt import ProblemInstance
from frontsteer.transport import split_by_sign


def square_speed():
    """Finite control set whose hull is the unit diamond |w|_1 <= 0.9...
    actually the hull of the four axis velocities of length 0.9."""
    return FiniteControlsSpeed(
        2, constant_maps([0.9, 0.0], [-0.9, 0.0], [0.0, 0.9], [0.0, -0.9]))


def constant_maps(*vectors):
    return tuple((lambda x, v=np.array(v, dtype=float): np.broadcast_to(v, np.shape(x)))
                 for v in vectors)


def xdep_speed():
    """Four maps, one of them x-dependent, whose hull changes over the torus."""
    vels = (lambda x: np.stack([0.7 + 0.1 * np.sin(2 * np.pi * x[..., 1]),
                                0.1 * np.cos(2 * np.pi * x[..., 0])], axis=-1),
            *constant_maps([-0.7, 0.2], [0.1, 0.75], [0.05, -0.8]))
    return FiniteControlsSpeed(2, vels)


def nodes(grid, vec):
    """One vector repeated on every space node: shape (*nx, dim)."""
    return np.broadcast_to(np.asarray(vec, dtype=float), (*grid.nx, grid.dim))


GRID_2D = TorusGrid(2, (4, 4), 3, 1.0)


class TestComponentNorm:
    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_bitwise_equal_linalg_norm(self, dim):
        rng = np.random.default_rng(dim)
        for scale in (1e-300, 1e-160, 1e-20, 1.0, 1e20, 1e150):
            x = rng.standard_normal((9, 8, 7, dim)) * scale
            x[::3, ..., 0] = 0.0
            x[1, 1, 1] = -0.0
            for arr in (x, x[:, ::2], np.asfortranarray(x), x[..., ::-1]):
                assert _component_norm(arr).tobytes() == np.linalg.norm(arr, axis=-1).tobytes()

    def test_memory_is_one_buffer_and_one_product(self):
        # the running sum and the square of one component; summing into a
        # fresh array per component would hold a third node-sized array
        x = np.random.default_rng(0).standard_normal((64, 64, 4))
        _, peak = traced_peak(_component_norm, x)
        assert peak <= 2 * x[..., 0].nbytes + 4096


def components(x):
    """Nodal vectors (..., dim) as the component-major (dim, ...) arrays of
    ``one_sided``."""
    return np.moveaxis(x, -1, 0)


def components_last(x):
    """Component-major arrays (n, ...) as nodal vectors (..., n)."""
    return np.moveaxis(x, 0, -1)


def hamiltonian(speed, grid, p):
    """H(x, p) of nodal covectors p, shape (..., *nx, dim): the split
    Hamiltonian at equal one-sided differences p, which is H exactly for
    both speeds (max(-p, 0)^2 + max(p, 0)^2 = p^2, v+.p + v-.p = v.p)."""
    pc = components(p)
    return speed.split_hamiltonian(grid, pc, pc)


def hamiltonian_reference(speed, grid, p):
    """The nodal Hamiltonian in closed form, c(x)|p| for balls and
    max_i -v_i(x).p for finite sets, on nodal covectors p."""
    if isinstance(speed, IsotropicSpeed):
        return speed.radius_nodes(grid.nx) * np.linalg.norm(p, axis=-1)
    return np.max(np.einsum("m...d,...d->m...", speed._node_velocities(grid), -p), axis=0)


class TestHamiltonian:
    """H(x, p) = sup over v in c(x,A) of -v.p, as ``split_hamiltonian(grid,
    p, p)``."""

    def test_unit_ball_norm(self):
        s = IsotropicSpeed(2, 1.0)
        np.testing.assert_allclose(hamiltonian(s, GRID_2D, nodes(GRID_2D, [3.0, 4.0])), 5.0,
                                   rtol=1e-15)

    def test_zero_covector(self):
        zero = nodes(GRID_2D, [0.0, 0.0])
        assert np.all(hamiltonian(IsotropicSpeed(2, 1.7), GRID_2D, zero) == 0.0)
        assert np.all(hamiltonian(square_speed(), GRID_2D, zero) == 0.0)

    def test_radius_scaling(self):
        h = hamiltonian(IsotropicSpeed(2, 2.0), GRID_2D, nodes(GRID_2D, [-1.0, 0.0]))
        np.testing.assert_allclose(h, 2.0, rtol=1e-15)

    def test_homogeneous_and_subadditive(self):
        s = IsotropicSpeed(2, 1.3)
        rng = np.random.default_rng(0)
        shape = (50, *GRID_2D.nx, 2)            # 50 covectors per node
        p1, p2 = rng.standard_normal(shape), rng.standard_normal(shape)
        lam = 3 * rng.random((50, 1, 1))
        h1, h2 = hamiltonian(s, GRID_2D, p1), hamiltonian(s, GRID_2D, p2)
        np.testing.assert_allclose(hamiltonian(s, GRID_2D, lam[..., None] * p1), lam * h1,
                                   rtol=0, atol=1e-12)
        assert np.all(hamiltonian(s, GRID_2D, p1 + p2) <= h1 + h2 + 1e-12)

    def test_bounds_and_lipschitz_variable_radius(self):
        nx = 32
        grid = TorusGrid(1, (nx,), 2, 1.0)
        radius = 1.0 + 0.5 * np.sin(2 * np.pi * np.arange(nx) / nx)
        s = IsotropicSpeed(1, radius)
        lo, hi = float(np.min(s.radius_nodes(grid.nx))), s.max_speed(grid)
        assert lo == pytest.approx(0.5)
        assert hi == pytest.approx(1.5)
        # discrete Lipschitz constant of the radius table
        lip = float(np.max(np.abs(np.roll(radius, -1) - radius))) * nx
        rng = np.random.default_rng(1)
        for _ in range(100):
            i, j = rng.integers(0, nx, 2)
            p = rng.standard_normal(1)
            h = hamiltonian(s, grid, nodes(grid, p))
            hx, hy = h[i], h[j]
            assert lo * abs(p[0]) - 1e-12 <= hx <= hi * abs(p[0]) + 1e-12
            # geodesic torus distance via the node chain
            dist = min(abs(i - j), nx - abs(i - j)) / nx
            assert abs(hx - hy) <= lip * dist * abs(p[0]) + 1e-10

    def test_finite_controls_vertices(self):
        s = square_speed()
        # support in direction -p is attained at a hull vertex exactly
        np.testing.assert_allclose(hamiltonian(s, GRID_2D, nodes(GRID_2D, [1.0, 0.0])), 0.9)
        np.testing.assert_allclose(hamiltonian(s, GRID_2D, nodes(GRID_2D, [1.0, 1.0])), 0.9)

    @pytest.mark.parametrize("speed", [IsotropicSpeed(2, 0.9), square_speed(), xdep_speed(),
                                       IsotropicSpeed(1, 0.7), "triple"])
    def test_equal_differences_give_the_closed_form_bits(self, speed):
        if speed == "triple":
            speed = FiniteControlsSpeed(1, constant_maps([0.9], [-0.9], [0.3]))
        grid = TorusGrid(speed.dim, (12, 10)[:speed.dim], 3, 1.0)
        p = np.random.default_rng(4).standard_normal((20, *grid.nx, speed.dim))
        p[0] = 0.0
        assert hamiltonian(speed, grid, p).tobytes() == \
            hamiltonian_reference(speed, grid, p).tobytes()


class TestSplitHamiltonian:
    """sup of -(a.D+u + b.D-u) over split velocities (a >= 0 >= b), from the
    component-major one-sided differences."""

    def test_isotropic_closed_form(self):
        s = IsotropicSpeed(2, 1.5)
        fwd = nodes(GRID_2D, [-3.0, 1.0])
        bwd = nodes(GRID_2D, [2.0, -4.0])
        # a takes -fwd where it is positive, -b takes bwd where it is positive
        np.testing.assert_allclose(s.split_hamiltonian(GRID_2D, components(fwd),
                                                       components(bwd)),
                                   1.5 * np.hypot(3.0, 2.0), rtol=1e-15)

    @pytest.mark.parametrize("speed", [IsotropicSpeed(2, 0.9), square_speed(), xdep_speed()])
    def test_consistent_and_monotone(self, speed):
        grid = TorusGrid(2, (12, 10), 3, 1.0)
        rng = np.random.default_rng(2)
        p = rng.standard_normal((20, *grid.nx, 2))
        pc = components(p)
        h_split = speed.split_hamiltonian(grid, pc, pc)
        # equal one-sided differences: the split set contains every (v+, v-)
        assert np.all(h_split >= hamiltonian_reference(speed, grid, p) - 1e-12)
        # nonincreasing in D+u, nondecreasing in D-u
        step = np.abs(rng.standard_normal(pc.shape))
        assert np.all(speed.split_hamiltonian(grid, pc + step, pc) <= h_split + 1e-12)
        assert np.all(speed.split_hamiltonian(grid, pc, pc + step) >= h_split - 1e-12)

    def test_isotropic_1d_equal_differences(self):
        s = IsotropicSpeed(1, 0.7)
        grid = TorusGrid(1, (8,), 2, 1.0)
        p = np.random.default_rng(3).standard_normal((5, 8, 1))
        np.testing.assert_allclose(s.split_hamiltonian(grid, components(p), components(p)),
                                   hamiltonian_reference(s, grid, p), rtol=1e-15)

    def test_finite_hull_vertices(self):
        pair = FiniteControlsSpeed(1, constant_maps([0.9], [-0.9]))
        grid = TorusGrid(1, (4,), 2, 1.0)
        fwd = np.full((1, 4), 1.0)
        bwd = np.full((1, 4), -2.0)
        # a local minimum of u: both vertices of the split segment point uphill
        np.testing.assert_allclose(pair.split_hamiltonian(grid, fwd, bwd), -0.9)


def conjugate_member(speed, q, tol=1e-12):
    """Whether H*(x, q) = 0 at every node, i.e. q lies in -c(x,A): the
    momentum -q is admissible for unit density."""
    return speed.cone_violation(GRID_2D, np.ones(GRID_2D.nx),
                                -nodes(GRID_2D, q)) <= tol


class TestConjugateMembership:
    def test_ball_boundary(self):
        s = IsotropicSpeed(2, 1.0)
        assert conjugate_member(s, [0.6, 0.8])
        assert not conjugate_member(s, [1.1, 0.0])

    def test_zero_always_inside(self):
        assert conjugate_member(IsotropicSpeed(2, 0.3), [0.0, 0.0])
        assert conjugate_member(square_speed(), [0.0, 0.0])

    def test_finite_controls_membership(self):
        s = square_speed()
        assert conjugate_member(s, [0.85, 0.0])
        assert not conjugate_member(s, [0.7, 0.7])


def soc_project(c, m_bar, w_bar):
    """Projection onto {(m, w): |w| <= c*m}: the coned K* prox at zero step,
    on one node with its momentum stored component-major."""
    m, w = prox_cost_conj_coned(CostModel(p=3.0), c, np.array([m_bar], dtype=float),
                                np.array(w_bar, dtype=float)[:, None], step=0.0)
    return float(m[0]), w[:, 0]


class TestProjectCone:
    def test_already_feasible(self):
        m, w = soc_project(1.0, 2.0, [1.0, 0.0])
        assert m == pytest.approx(2.0)
        np.testing.assert_allclose(w, [1.0, 0.0])

    def test_second_order_cone_closed_form(self):
        m, w = soc_project(1.0, 0.0, [2.0, 0.0])
        assert m == pytest.approx(1.0)
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-14)

    def test_polar_cone(self):
        m, w = soc_project(1.0, -2.0, [0.0, 0.0])
        assert m == 0.0
        np.testing.assert_allclose(w, [0.0, 0.0])

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            z1 = (rng.standard_normal(), rng.standard_normal(2) * 2)
            z2 = (rng.standard_normal(), rng.standard_normal(2) * 2)
            p1 = soc_project(0.8, *z1)
            p2 = soc_project(0.8, *z2)
            pp1 = soc_project(0.8, *p1)
            assert pp1[0] == pytest.approx(p1[0], abs=1e-12)
            np.testing.assert_allclose(pp1[1], p1[1], atol=1e-12)
            dist_p = np.hypot(p1[0] - p2[0], np.linalg.norm(p1[1] - p2[1]))
            dist_z = np.hypot(z1[0] - z2[0], np.linalg.norm(z1[1] - z2[1]))
            assert dist_p <= dist_z + 1e-12

    def test_finite_controls_projection(self):
        s = square_speed()
        # hull contains (0.9, 0); same geometry as the 1D cone along the axis
        m, w = hull_project(s, GRID_2D, np.zeros((1, *GRID_2D.nx)),
                            np.broadcast_to([1.8, 0.0], (1, *GRID_2D.nx, 2)))
        assert np.all(m > 0) and np.max(np.abs(w[..., 1])) < 1e-12
        # onto the ray through g = (1, 0.9, 0): t = g.z / |g|^2 = 1.62 / 1.81
        np.testing.assert_allclose(m, 1.62 / 1.81, rtol=0, atol=1e-14)
        np.testing.assert_allclose(w[..., 0], 0.9 * 1.62 / 1.81, rtol=0, atol=1e-14)
        assert s.cone_violation(GRID_2D, m, w) <= 1e-12
        # result feasible and the fixed point of the projection
        m2, w2 = hull_project(s, GRID_2D, m, w)
        np.testing.assert_allclose(m2, m, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w2, w, rtol=0, atol=1e-12)


def hull_project(speed, grid, m, w):
    """Projection onto the finite-hull cone of nodal momenta w (components
    last): the hull prox at zero step, which takes them component-major."""
    pm, pw = prox_cost_conj_hull(CostModel(p=3.0), speed.hull_faces(grid), m, components(w),
                                 step=0.0)
    return pm, components_last(pw)


def _brute_force_prox(gens, m_bar, w_bar, model, step):
    """Minimum over lam >= 0 of |G lam - z_bar|^2 / 2 + step*K*(1.lam) by
    bound-constrained L-BFGS-B from two starts; gens has shape (M, 1 + dim)."""
    z_bar = np.concatenate([[m_bar], w_bar])

    def fun(lam):
        r = gens.T @ lam - z_bar
        mass = float(np.sum(lam))
        val = 0.5 * r @ r + step * cost_conj(model, mass)
        grad = gens @ r + step * cost_deriv_conj(model, mass)
        return val, grad

    best = np.inf
    for x0 in (np.zeros(len(gens)), np.full(len(gens), 0.5)):
        res = minimize(fun, x0, jac=True, method="L-BFGS-B",
                       bounds=[(0.0, None)] * len(gens),
                       options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 2000})
        best = min(best, float(res.fun))
    return best


class TestHullProx:
    """The exact joint prox of step*K* and the finite-hull cone."""

    def test_triangle_edge_outside(self):
        verts = np.array([[0.9, 0.1], [-0.5, 0.75], [-0.3, -0.8]])
        s = FiniteControlsSpeed(2, constant_maps(*verts))
        edge = verts[1] - verts[0]
        normal = np.array([edge[1], -edge[0]]) / np.linalg.norm(edge)
        normal *= np.sign(normal @ verts[0])                  # outward
        mid = 0.5 * (verts[0] + verts[1])
        # distance from (1, v) to the plane of the face {(1, v0), (1, v1)}
        g0, g1 = np.append(1.0, verts[0]), np.append(1.0, verts[1])
        n3 = np.cross(g0, g1) / np.linalg.norm(np.cross(g0, g1))
        ones = np.ones(GRID_2D.nx)
        inside = s.cone_violation(GRID_2D, ones, nodes(GRID_2D, mid - 0.02 * normal))
        outside = s.cone_violation(GRID_2D, ones, nodes(GRID_2D, mid + 0.02 * normal))
        assert inside <= 1e-12
        # the nearest cone point lies on that face, so the distance is to its plane
        expected = abs(n3 @ np.append(1.0, mid + 0.02 * normal))
        assert expected > 1e-3
        assert outside == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p", [3.0, 4.0])
    @pytest.mark.parametrize("step", [0.0, 0.4])
    @pytest.mark.parametrize("hull", ["square", "xdep"])
    def test_matches_brute_force(self, hull, step, p):
        if hull == "square":
            grid, s, stride = GRID_2D, square_speed(), 1
        else:
            grid, s, stride = TorusGrid(2, (12, 10), 3, 1.0), xdep_speed(), 5
        model = CostModel(p=p, kappa=0.8)
        rng = np.random.default_rng(11)
        m_bar = rng.normal(0.5, 1.0, (2, *grid.nx))
        w_bar = components(0.8 * rng.standard_normal((2, *grid.nx, 2)))
        m, w = prox_cost_conj_hull(model, s.hull_faces(grid), m_bar, w_bar, step)
        assert s.cone_violation(grid, m, components_last(w)) <= 1e-12
        objective = 0.5 * ((m - m_bar) ** 2 + np.sum((w - w_bar) ** 2, axis=0)) \
            + step * cost_conj(model, m)
        gens = np.concatenate([np.ones((4, *grid.nx, 1)), s._node_velocities(grid)], axis=-1)
        for idx in list(np.ndindex(m.shape))[::stride]:
            best = _brute_force_prox(gens[(slice(None), *idx[1:])], m_bar[idx],
                                     w_bar[(slice(None), *idx)], model, step)
            assert objective[idx] <= best + 1e-10
            assert best <= objective[idx] + 1e-9          # the brute force converged

    def test_projection_properties(self):
        grid, s = TorusGrid(2, (12, 10), 3, 1.0), xdep_speed()
        rng = np.random.default_rng(12)
        z1 = (rng.normal(0.3, 1.0, (3, *grid.nx)), rng.standard_normal((3, *grid.nx, 2)))
        z2 = (rng.normal(0.3, 1.0, (3, *grid.nx)), rng.standard_normal((3, *grid.nx, 2)))
        p1, p2 = hull_project(s, grid, *z1), hull_project(s, grid, *z2)
        pp1 = hull_project(s, grid, *p1)
        np.testing.assert_allclose(pp1[0], p1[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(pp1[1], p1[1], rtol=0, atol=1e-12)

        def dist(a, b):
            return np.sqrt((a[0] - b[0]) ** 2 + np.sum((a[1] - b[1]) ** 2, axis=-1))

        assert np.all(dist(p1, p2) <= dist(z1, z2) + 1e-12)
        # onto a cone: the residual is orthogonal to the projection
        inner = (z1[0] - p1[0]) * p1[0] + np.sum((z1[1] - p1[1]) * p1[1], axis=-1)
        np.testing.assert_allclose(inner, 0.0, rtol=0, atol=1e-12)

    def test_dependent_generators_change_nothing(self):
        # a repeated vertex and an edge midpoint add only faces with linearly
        # dependent generators; the hull, and so the prox, stay the square's
        square = [[0.9, 0.0], [-0.9, 0.0], [0.0, 0.9], [0.0, -0.9]]
        padded = FiniteControlsSpeed(
            2, constant_maps(*square, [-0.9, 0.0], [0.45, 0.45]))
        model = CostModel(p=3.0)
        rng = np.random.default_rng(14)
        m_bar = rng.normal(0.3, 1.0, (20, *GRID_2D.nx))
        w_bar = components(rng.standard_normal((20, *GRID_2D.nx, 2)))
        for step in (0.0, 0.3):
            m, w = prox_cost_conj_hull(model, padded.hull_faces(GRID_2D), m_bar, w_bar, step)
            m_sq, w_sq = prox_cost_conj_hull(model, square_speed().hull_faces(GRID_2D),
                                             m_bar, w_bar, step)
            np.testing.assert_allclose(m, m_sq, rtol=0, atol=1e-12)
            np.testing.assert_allclose(w, w_sq, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("step", [0.0, 0.4])
    @pytest.mark.parametrize("speed", ["pair", "square"])
    def test_split_faces_match_brute_force(self, speed, step):
        if speed == "pair":
            grid = TorusGrid(1, (4,), 3, 1.0)
            s = FiniteControlsSpeed(1, constant_maps([0.9], [-0.9]))
        else:
            grid, s = GRID_2D, square_speed()
        n = 2 * grid.dim
        model = CostModel(p=4.0, kappa=0.8)
        rng = np.random.default_rng(15)
        m_bar = rng.normal(0.5, 1.0, (2, *grid.nx))
        w_bar = components(0.8 * rng.standard_normal((2, *grid.nx, n)))
        faces = s.split_cone(grid)
        assert faces.vels.shape == (n, len(s.velocities), *grid.nx)
        m, w = prox_cost_conj_hull(model, faces, m_bar, w_bar, step)
        assert np.all(w[:grid.dim] >= 0.0) and np.all(w[grid.dim:] <= 0.0)
        objective = 0.5 * ((m - m_bar) ** 2 + np.sum((w - w_bar) ** 2, axis=0)) \
            + step * cost_conj(model, m)
        gens = np.concatenate([np.ones((len(s.velocities), *grid.nx, 1)),
                               components_last(faces.vels)], axis=-1)
        for idx in np.ndindex(m.shape):
            best = _brute_force_prox(gens[(slice(None), *idx[1:])], m_bar[idx],
                                     w_bar[(slice(None), *idx)], model, step)
            assert objective[idx] <= best + 1e-10

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_pair_matches_isotropic_prox(self, p):
        grid = TorusGrid(1, (16,), 3, 1.0)
        pair = FiniteControlsSpeed(1, constant_maps([0.9], [-0.9]))
        model = CostModel(p=p, kappa=1.3)
        rng = np.random.default_rng(13)
        m_bar = rng.normal(0.2, 1.0, (50, 16))
        w_bar = components(rng.standard_normal((50, 16, 1)))
        for step in (0.0, 0.05, 2.0):
            m, w = prox_cost_conj_hull(model, pair.hull_faces(grid), m_bar, w_bar, step)
            m_iso, w_iso = prox_cost_conj_coned(model, np.full(16, 0.9), m_bar, w_bar, step)
            np.testing.assert_allclose(m, m_iso, rtol=0, atol=1e-12)
            np.testing.assert_allclose(w, w_iso, rtol=0, atol=1e-12)


class TestConedProxInPlace:
    @pytest.mark.parametrize("p", [3.0, 4.0])
    @pytest.mark.parametrize("step", [0.0, 0.05, 2.0])
    def test_gives_the_masked_broadcast_bits_into_any_buffers(self, p, step):
        # free and active nodes, zero momenta and negative densities; the
        # result written into fresh buffers or over the input itself, with
        # the momenta component-major and the reference's components last
        model = CostModel(p=p, kappa=1.3)
        rng = np.random.default_rng(17)
        c = 0.5 + rng.random(16)
        m_bar = rng.normal(0.2, 1.0, (9, 16))
        w_bar = rng.standard_normal((9, 16, 2)) * (rng.random((9, 16, 1)) > 0.2)
        ref_m, ref_w = prox_coned_reference(model, c, m_bar, w_bar, step)
        ref_w = np.ascontiguousarray(components(ref_w))
        w_bar = np.ascontiguousarray(components(w_bar))
        m, w = prox_cost_conj_coned(model, c, m_bar, w_bar, step)
        assert m.tobytes() == ref_m.tobytes() and w.tobytes() == ref_w.tobytes()
        out = (m_bar.copy(), w_bar.copy())
        got = prox_cost_conj_coned(model, c, out[0], out[1], step, out=out)
        assert got[0] is out[0] and got[1] is out[1]
        assert out[0].tobytes() == ref_m.tobytes() and out[1].tobytes() == ref_w.tobytes()


class TestSplitProject:
    """``split_project`` moves sign-clipped split momenta into m times the
    split set."""

    def _momenta(self, rng, grid):
        m = rng.random((3, *grid.nx)) * (rng.random((3, *grid.nx)) > 0.2)
        w = components(2.0 * np.abs(rng.standard_normal((3, *grid.nx, 2 * grid.dim))))
        w[grid.dim:] *= -1.0
        return m, w

    @pytest.mark.parametrize("radius", [0.8, "table"])
    def test_ball_gives_the_nearest_point(self, radius):
        rng = np.random.default_rng(21)
        if radius == "table":
            radius = 0.5 + rng.random(GRID_2D.nx)
        s = IsotropicSpeed(2, radius)
        cap = s.radius_nodes(GRID_2D.nx)
        m, w = self._momenta(rng, GRID_2D)
        p = s.split_project(GRID_2D, m, w, s.split_cone(GRID_2D))
        assert np.all(p[:2] >= 0.0) and np.all(p[2:] <= 0.0)
        assert np.all(np.linalg.norm(p, axis=0) <= cap * m * (1.0 + 1e-12))
        assert np.any(p != w)
        assert np.array_equal(s.split_project(GRID_2D, m, p, s.split_cone(GRID_2D)), p)
        # the variational inequality of a projection onto a convex set
        for _ in range(20):
            z = components(np.abs(rng.standard_normal(components_last(w).shape)))
            z[2:] *= -1.0
            z *= cap * m * rng.random(m.shape) / np.linalg.norm(z, axis=0)
            assert np.max(np.sum((w - p) * (z - p), axis=0)) <= 1e-12

    def test_ball_leaves_admissible_momenta_alone(self):
        # round-off above the sphere, as the prox leaves it, is not moved
        rng = np.random.default_rng(22)
        s = IsotropicSpeed(2, 0.8)
        m = rng.random((3, *GRID_2D.nx))
        w = components(np.abs(rng.standard_normal((3, *GRID_2D.nx, 4))))
        w[2:] *= -1.0
        w *= 0.8 * m * (1.0 + 1e-14) / np.linalg.norm(w, axis=0)
        assert np.array_equal(s.split_project(GRID_2D, m, w, s.split_cone(GRID_2D)), w)

    @pytest.mark.parametrize("speed", [square_speed, xdep_speed])
    def test_hull_lands_in_the_split_hull(self, speed):
        rng = np.random.default_rng(23)
        s = speed()
        faces = s.split_cone(GRID_2D)
        m, w = self._momenta(rng, GRID_2D)
        p = s.split_project(GRID_2D, m, w, faces)
        assert np.all(p[:, m == 0] == 0.0) and np.any(np.abs(p - w) > 1e-3)
        # (m, p) lies in the split cone: its projection onto it is itself
        pm, pw = prox_cost_conj_hull(CostModel(p=3.0), faces, m, p, 0.0)
        np.testing.assert_allclose(pm, m, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pw, p, rtol=0, atol=1e-12)
        # momenta already in the set stay where they are
        lam = rng.random((len(s.velocities), *m.shape))
        lam /= np.sum(lam, axis=0)
        inside = m * np.einsum("i...,di...->d...", lam, faces.vels)
        np.testing.assert_allclose(s.split_project(GRID_2D, m, inside, faces), inside,
                                   rtol=0, atol=1e-12)


def _layout_hull(case):
    """A grid and finite speed for the layout tests: 1D and 2D, with and
    without rest, one with x-dependent maps."""
    if case == "pair 1d":
        return TorusGrid(1, (6,), 3, 1.0), FiniteControlsSpeed(
            1, constant_maps([0.9], [-0.9]))
    if case == "triple 1d":
        return TorusGrid(1, (6,), 3, 1.0), FiniteControlsSpeed(
            1, constant_maps([0.9], [-0.5], [0.0]))
    if case == "square 2d":
        return GRID_2D, square_speed()
    if case == "resting square 2d":
        return GRID_2D, FiniteControlsSpeed(2, constant_maps(
            [0.9, 0.0], [-0.9, 0.0], [0.0, 0.9], [0.0, -0.9], [0.0, 0.0]))
    return TorusGrid(2, (6, 5), 3, 1.0), xdep_speed()


LAYOUT_HULLS = ["pair 1d", "triple 1d", "square 2d", "resting square 2d", "xdep 2d"]


class TestComponentMajorHull:
    """The hull faces, the hull prox, ``split_project`` and the finite split
    Hamiltonian take component-major momenta and give the bits of their
    components-last forms (einsum over the last axis)."""

    @pytest.mark.parametrize("case", LAYOUT_HULLS)
    def test_faces_give_the_components_last_bits(self, case):
        grid, s = _layout_hull(case)
        nodal = s._node_velocities(grid)
        for got, ref in ((s.hull_faces(grid), cone_faces_reference(nodal)),
                         (s.split_cone(grid),
                          cone_faces_reference(split_by_sign_reference(nodal)))):
            assert got.vels.tobytes() == np.ascontiguousarray(components(ref.vels)).tobytes()
            assert len(got.faces) == len(ref.faces)
            for face, ref_face in zip(got.faces, ref.faces):
                assert face.idx == ref_face.idx
                for name in ("ainv", "ainv1", "beta"):
                    assert getattr(face, name).tobytes() == getattr(ref_face, name).tobytes()

    @pytest.mark.parametrize("case", LAYOUT_HULLS)
    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_prox_gives_the_components_last_bits(self, case, split, p):
        grid, s = _layout_hull(case)
        nodal = s._node_velocities(grid)
        if split:
            faces, ref_faces = s.split_cone(grid), \
                cone_faces_reference(split_by_sign_reference(nodal))
        else:
            faces, ref_faces = s.hull_faces(grid), cone_faces_reference(nodal)
        n = faces.vels.shape[0]
        model = CostModel(p=p, kappa=0.8)
        rng = np.random.default_rng(43)
        m_bar = rng.normal(0.3, 1.0, (4, *grid.nx))
        w_bar = rng.standard_normal((4, *grid.nx, n))
        # signed zeros, which an einsum sums to +0
        m_bar[0] = -0.0
        w_bar[0] = -0.0
        w_bar[1, ..., 0] = -0.0
        w_cm = np.ascontiguousarray(components(w_bar))
        for step in (0.0, 0.4):
            coef = step * model.kappa ** (1.0 - model.q)
            ref_m, ref_w = hull_prox_reference(ref_faces, m_bar, w_bar, coef, model.q - 1.0)
            ref_w = np.ascontiguousarray(components(ref_w))
            m, w = prox_cost_conj_hull(model, faces, m_bar, w_cm, step)
            assert m.tobytes() == ref_m.tobytes() and w.tobytes() == ref_w.tobytes()
            # written into the state, its density over m_bar itself
            out = (m_bar.copy(), np.full_like(w_cm, np.nan))
            got = prox_cost_conj_hull(model, faces, out[0], w_cm, step, out=out)
            assert got[0] is out[0] and got[1] is out[1]
            assert out[0].tobytes() == ref_m.tobytes() and out[1].tobytes() == ref_w.tobytes()

    @pytest.mark.parametrize("speed", ["ball 1d", "ball table 2d", *LAYOUT_HULLS])
    def test_split_project_gives_the_components_last_bits(self, speed):
        rng = np.random.default_rng(44)
        if speed == "ball 1d":
            grid, s = TorusGrid(1, (6,), 3, 1.0), IsotropicSpeed(1, 0.8)
        elif speed == "ball table 2d":
            grid, s = GRID_2D, IsotropicSpeed(2, 0.5 + rng.random(GRID_2D.nx))
        else:
            grid, s = _layout_hull(speed)
        m = rng.random((3, *grid.nx)) * (rng.random((3, *grid.nx)) > 0.2)
        w = split_by_sign_reference(2.0 * rng.standard_normal((3, *grid.nx, grid.dim)))
        if isinstance(s, IsotropicSpeed):
            cap = s.radius_nodes(grid.nx) * m
            norm = _component_norm(w)
            scale = np.divide(cap, norm, out=np.ones_like(norm), where=norm > cap * (1.0 + 1e-12))
            ref = w * scale[..., None]
        else:
            faces = cone_faces_reference(split_by_sign_reference(s._node_velocities(grid)))
            pm, pw = hull_prox_reference(faces, m, w, 0.0, 0.5)
            ref = pw * np.divide(m, pm, out=np.zeros_like(pm), where=pm > 0)[..., None]
        got = s.split_project(grid, m, split_by_sign((w[..., :grid.dim], w[..., grid.dim:])),
                              s.split_cone(grid))
        assert got.tobytes() == np.ascontiguousarray(components(ref)).tobytes()

    @pytest.mark.parametrize("case", LAYOUT_HULLS)
    def test_split_hamiltonian_gives_the_components_last_bits(self, case):
        grid, s = _layout_hull(case)
        rng = np.random.default_rng(45)
        fwd, bwd = (rng.standard_normal((grid.dim, 3, *grid.nx)) for _ in range(2))
        p = np.ascontiguousarray(components_last(np.concatenate([fwd, bwd])))
        vels = split_by_sign_reference(s._node_velocities(grid))
        ref = np.max(np.einsum("m...d,...d->m...", vels, -p), axis=0)
        assert s.split_hamiltonian(grid, fwd, bwd).tobytes() == ref.tobytes()


class TestCostFamily:
    def test_conjugate_closed_forms(self):
        c = CostModel(p=3.0, kappa=1.0)
        assert c.q == pytest.approx(1.5)
        assert cost_conj(c, 1.0) == pytest.approx(2.0 / 3.0)
        assert cost_deriv_conj(c, 4.0) == pytest.approx(2.0)

    def test_zero_values(self):
        c = CostModel(p=2.5, kappa=0.7)
        assert cost(c, 0.0) == 0.0
        assert cost_conj(c, 0.0) == 0.0

    def test_fenchel_equality_at_conjugate_pair(self):
        c = CostModel(p=3.0, kappa=1.0)
        total = cost(c, cost_deriv_conj(c, 1.0)) + cost_conj(c, 1.0)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_fenchel_identity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = CostModel(p=rng.uniform(2.0, 5.0), kappa=rng.uniform(0.2, 3.0))
            m = rng.uniform(0, 4)
            k = cost_deriv_conj(c, m)
            assert cost(c, k) + cost_conj(c, m) == pytest.approx(
                m * k, abs=1e-12 * max(1.0, m * k))

    def test_fenchel_young_inequality(self):
        c = CostModel(p=3.0, kappa=2.0)
        rng = np.random.default_rng(4)
        for _ in range(100):
            f, m = rng.uniform(0, 3), rng.uniform(0, 3)
            assert cost(c, f) + cost_conj(c, m) >= f * m - 1e-10

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            CostModel(p=1.0)
        with pytest.raises(ParameterError):
            CostModel(p=3.0, kappa=0.0)

    @pytest.mark.parametrize("p,kappa", [(np.inf, 1.0), (np.nan, 1.0), (3.0, np.inf),
                                         (3.0, np.nan)])
    def test_non_finite_parameters_refused(self, p, kappa):
        # p = inf would make q NaN
        with pytest.raises(ParameterError):
            CostModel(p=p, kappa=kappa)


class TestProx:
    def test_nonpositive_input(self):
        c = CostModel(p=3.0)
        assert prox_cost_conj(c, -1.5, 0.3) == 0.0
        assert prox_cost_conj(c, 0.0, 2.0) == 0.0

    def test_quadratic_closed_form(self):
        c = CostModel(p=2.0, kappa=1.0)   # test-only quadratic: q = 2
        assert prox_cost_conj(c, 3.0, 1.0) == pytest.approx(1.5, abs=1e-12)

    def test_cubic_root(self):
        # m + sqrt(m) = 2 has the root m = 1; verified by substitution and by
        # golden-section search on the prox objective below
        c = CostModel(p=3.0, kappa=1.0)
        m = prox_cost_conj(c, 2.0, 1.0)
        assert m == pytest.approx(1.0, abs=1e-10)
        assert m + np.sqrt(m) == pytest.approx(2.0, abs=1e-10)

        def objective(z):
            return 0.5 * (z - 2.0) ** 2 + cost_conj(c, z)

        lo, hi = 0.0, 4.0
        phi = (np.sqrt(5) - 1) / 2
        for _ in range(200):
            a = hi - phi * (hi - lo)
            b = lo + phi * (hi - lo)
            if objective(a) < objective(b):
                hi = b
            else:
                lo = a
        # golden section resolves the flat minimum only to ~sqrt(eps)
        assert m == pytest.approx(0.5 * (lo + hi), abs=1e-6)

    def test_vectorized_matches_scalar(self):
        c = CostModel(p=4.0, kappa=0.5)
        rng = np.random.default_rng(5)
        m_bar = rng.uniform(-1, 3, size=40)
        arr = prox_cost_conj(c, m_bar, 0.7)
        for i in range(40):
            assert arr[i] == pytest.approx(prox_cost_conj(c, m_bar[i], 0.7), abs=1e-11)

    def test_optimality_condition_random(self):
        c = CostModel(p=3.0, kappa=2.0)
        rng = np.random.default_rng(6)
        for _ in range(30):
            m_bar, step = rng.uniform(0.01, 5), rng.uniform(0.01, 5)
            m = prox_cost_conj(c, m_bar, step)
            assert m + step * cost_deriv_conj(c, m) == pytest.approx(m_bar, abs=1e-10)
        # p = 10: roots near 1e-76 and 1e-175, far below m_bar
        c = CostModel(p=10.0)
        for m_bar in (1e-9, 1e-20):
            m = prox_cost_conj(c, m_bar, 0.25)
            assert m > 0.0
            assert m + 0.25 * cost_deriv_conj(c, m) == pytest.approx(m_bar, rel=1e-14)

    def test_step_validation(self):
        with pytest.raises(ParameterError):
            prox_cost_conj(CostModel(p=3.0), 1.0, 0.0)


def _bisect_sqrt_root(lin, coef, rhs, iters=2000):
    """Reference root of lin*m + coef*sqrt(m) = rhs on [0, rhs/lin] by
    bisection to adjacent floats (rhs > 0)."""
    lo, hi = 0.0, rhs / lin
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if lin * mid + coef * np.sqrt(mid) - rhs > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


_magnitude = st.floats(min_value=1e-12, max_value=1e6)


class TestSqrtRootClosedForm:
    """The p = 3 (r = 1/2) branch of the prox root solve."""

    @settings(max_examples=300, deadline=None)
    @given(lin=st.floats(min_value=1.0, max_value=1e6),
           coef=st.one_of(st.just(0.0), _magnitude), rhs=_magnitude)
    def test_residual_and_bisection_agreement(self, lin, coef, rhs):
        with np.errstate(all="raise"):
            m = float(_solve_power_root(lin, coef, rhs, 0.5))
            residual = abs(lin * m + coef * np.sqrt(m) - rhs)
            reference = _bisect_sqrt_root(lin, coef, rhs)
        assert m >= 0.0
        assert residual <= 1e-12 * (1.0 + rhs)
        assert abs(m - reference) <= 1e-12 * (1.0 + rhs)

    def test_nonpositive_rhs_gives_zero(self):
        rhs = np.array([-1e6, -1.0, -1e-12, -0.0, 0.0])
        with np.errstate(all="raise"):
            for coef in (0.0, 1e-12, 1.0, 1e6):
                m = _solve_power_root(1.0, coef, rhs, 0.5)
                assert np.array_equal(m, np.zeros_like(rhs))

    def test_zero_coefficient_is_linear(self):
        rhs = np.array([1e-12, 0.5, 3.0, 1e6])
        lin = np.array([1.0, 2.0, 4.0, 1e6])
        with np.errstate(all="raise"):
            m = _solve_power_root(lin, 0.0, rhs, 0.5)
        np.testing.assert_allclose(m, rhs / lin, rtol=1e-15, atol=0)

    def test_zero_rhs_and_zero_coefficient(self):
        with np.errstate(all="raise"):
            m = _solve_power_root(np.array([1.0, 5.0]), 0.0, np.zeros(2), 0.5)
        assert np.array_equal(m, np.zeros(2))

    @settings(max_examples=200, deadline=None)
    @given(lin=st.one_of(st.floats(min_value=1.0, max_value=1e6),
                         st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1,
                                  max_size=1).map(np.array)),
           coef=st.one_of(st.just(0.0), st.floats(min_value=5e-324, max_value=1e6)),
           rhs=st.lists(st.one_of(
               st.floats(min_value=-1e300, max_value=1e300),
               st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-310, 1e300, -1e300])),
               min_size=1, max_size=24).map(np.array))
    def test_mask_free_division_gives_the_masked_bits(self, lin, coef, rhs):
        # rhs <= 0 (either zero, subnormal or huge) divides 2*rhs+ = +-0 by
        # coef + sqrt(coef^2) > 0, or by the least subnormal for coef = 0,
        # and squares to +0.0, as the mask did
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = _solve_sqrt_root(lin, coef, rhs)
        assert got.tobytes() == sqrt_root_masked(lin, coef, rhs).tobytes()
        assert not np.any(np.signbit(got))

    def test_zero_coefficient_keeps_the_guard(self):
        # the hull projection's coef = 0 with rhs = 0 would divide 0 by 0
        with np.errstate(all="raise"):
            m = _solve_sqrt_root(1.0, 0.0, np.array([0.0, -0.0, -1.0, 4.0]))
        assert m.tobytes() == np.array([0.0, 0.0, 0.0, 4.0]).tobytes()

    @pytest.mark.parametrize("coef", [0.0, 0.3])
    def test_nan_rhs_gives_zero_as_the_mask_did(self, coef):
        rhs = np.array([np.nan, 1.0, np.nan, -2.0])
        got = _solve_sqrt_root(1.5, coef, rhs)
        assert got.tobytes() == sqrt_root_masked(1.5, coef, rhs).tobytes()
        assert got[0] == 0.0 and got[2] == 0.0

    def test_broadcasts_like_the_coned_prox(self):
        # lin and coef per space node, rhs per (time level, node)
        rng = np.random.default_rng(7)
        lin = 1.0 + rng.uniform(0, 3, 8) ** 2
        rhs = rng.uniform(-1, 4, (5, 8))
        with np.errstate(all="raise"):
            m = _solve_power_root(lin, 0.3, rhs, 0.5)
        assert m.shape == (5, 8)
        for i in np.ndindex(m.shape):
            expected = _bisect_sqrt_root(lin[i[1]], 0.3, rhs[i]) if rhs[i] > 0 else 0.0
            assert abs(m[i] - expected) <= 1e-12 * (1.0 + abs(rhs[i]))

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 3.0])
    def test_prox_uses_closed_form_for_p3(self, kappa):
        c = CostModel(p=3.0, kappa=kappa)
        m_bar = np.array([-2.0, 0.0, 1e-12, 0.3, 2.0, 1e6])
        step = 0.7
        with np.errstate(all="raise"):
            m = prox_cost_conj(c, m_bar, step)
        coef = step * kappa ** (1.0 - c.q)
        for mb, mi in zip(m_bar, m):
            expected = _bisect_sqrt_root(1.0, coef, mb) if mb > 0 else 0.0
            assert abs(mi - expected) <= 1e-12 * (1.0 + abs(mb))


_lin = st.floats(min_value=1.0, max_value=1e6)
_coef = st.one_of(st.just(0.0), _magnitude)


class TestNewtonRootTolerance:
    """The Newton branch (p != 3) reaches round-off relative to rhs."""

    @pytest.mark.parametrize("r", [1.0 / 3.0, 1.0 / 9.0, 2.0])
    @settings(max_examples=300, deadline=None)
    @given(lin=_lin, coef=_coef, rhs=_magnitude)
    def test_residual_relative_to_rhs(self, r, lin, coef, rhs):
        # r = 1/9 (p = 10) has roots near 1e-72, far below rhs
        m = float(_solve_power_root(lin, coef, rhs, r))
        assert m >= 0.0
        assert abs(lin * m + coef * m ** r - rhs) <= 1e-12 * (1.0 + rhs)

    @pytest.mark.parametrize("r", [1.0 / 3.0, 2.0])
    def test_entry_bits_do_not_depend_on_the_other_entries(self, r):
        # the entries stop after different numbers of steps: each is dropped
        # when it stops, so it has the bits of its own solve
        rng = np.random.default_rng(31)
        rhs = rng.uniform(0.5, 2.0, 200)
        coef = np.full(200, 0.01)
        rhs[:3] = [-1.0, 0.0, 1e-6]
        coef[2] = 1e4                   # a stiff entry (one Newton step at r = 1/3)
        mixed = _solve_power_root(1.0, coef, rhs, r)
        assert mixed.shape == (200,) and mixed[0] == 0.0 and mixed[1] == 0.0
        for i in range(200):
            alone = _solve_power_root(1.0, coef[i], rhs[i], r)
            assert alone.tobytes() == mixed[i].tobytes()
        assert np.all(np.abs(mixed + coef * mixed ** r - rhs)[2:] <= 1e-12 * (1.0 + rhs[2:]))

    @pytest.mark.parametrize("r", [1.0 / 3.0, 1.0 / 9.0, 2.0])
    def test_in_place_steps_give_the_allocating_bits(self, r):
        # scalar and nodal lin and coef, rhs <= 0, coef = 0 and stiff entries:
        # each step formed in place and the open entries compressed one
        # array at a time, with scalars kept scalar, give the bits of the
        # allocating form
        rng = np.random.default_rng(37)
        rhs = rng.uniform(-0.5, 3.0, (6, 40))
        lin = 1.0 + rng.uniform(0.0, 3.0, 40) ** 2
        coef = rng.uniform(0.0, 50.0, (6, 40))
        coef[0, :5] = 0.0
        coef[1, :3] = 1e4
        for args in ((1.0, 0.3, rhs), (lin, 0.3, rhs), (lin, coef, rhs), (1.0, coef, rhs)):
            got = _solve_power_root(*args, r)
            assert got.tobytes() == power_root_reference(*args, r).tobytes()

    def test_large_rhs_regression(self):
        m = float(_solve_power_root(23949.0, 1.0, 14638.0, 1.0 / 3.0))
        assert abs(23949.0 * m + np.cbrt(m) - 14638.0) <= 1e-12 * (1.0 + 14638.0)


def problem_on(grid, speed):
    """A problem on grid with the given speed and plain data."""
    return ProblemInstance(grid=grid, speed=speed, cost=CostModel(grid.dim + 2.0),
                           u_T=np.zeros(grid.nx), m0=np.ones(grid.nx))


def sin2_maps():
    """1.0 and -0.5 + 0.75 sin^2(16 pi x): at x = j/64 the second is 0.25
    where j = 2 (mod 4), so the hull [0.25, 1] there misses 0, and -0.5 or
    -0.125 elsewhere, all of x = k/16 included."""
    return (lambda x: np.ones(np.shape(x)),
            lambda x: -0.5 + 0.75 * np.sin(16 * np.pi * x) ** 2)


class TestSpeedValidation:
    """Radii that are not positive finite numbers are refused, and so are,
    on the nodes of a problem's grid, radius tables of another shape and
    velocity maps that give non-finite velocities or whose hull does not
    hold 0 strictly inside."""

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf],
                             ids=["zero", "negative", "nan", "inf"])
    def test_isotropic_radius(self, radius):
        with pytest.raises(ParameterError):
            IsotropicSpeed(1, radius)
        table = np.ones(8)
        table[3] = radius
        with pytest.raises(ParameterError):
            IsotropicSpeed(1, table)

    def test_radius_table_on_another_grid(self):
        speed = IsotropicSpeed(1, np.ones(8))
        problem_on(TorusGrid(1, (8,), 3, 1.0), speed)
        with pytest.raises(ParameterError, match="radius table shape"):
            problem_on(TorusGrid(1, (16,), 3, 1.0), speed)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_velocities(self, bad):
        # a NaN would pass the support test, which compares false on it
        maps = tuple((lambda x, c=c: np.full(np.shape(x), c)) for c in (bad, -1.0, 1.0))
        with pytest.raises(ParameterError, match="finite velocities"):
            problem_on(TorusGrid(1, (8,), 3, 1.0), FiniteControlsSpeed(1, maps))

    @pytest.mark.parametrize("slow", [0.5, 0.0])
    def test_hull_without_rest_strictly_inside(self, slow):
        # the paper's hull holds a ball B(0, c0) with c0 > 0: [0.5, 1] misses
        # 0, and [0, 1] has it on its boundary
        maps = tuple((lambda x, c=c: np.full(np.shape(x), c)) for c in (1.0, slow))
        with pytest.raises(ParameterError, match="0 strictly inside"):
            problem_on(TorusGrid(1, (8,), 3, 1.0), FiniteControlsSpeed(1, maps))

    def test_hull_checked_on_every_grid_node(self):
        speed = FiniteControlsSpeed(1, sin2_maps())
        problem_on(TorusGrid(1, (16,), 3, 1.0), speed)
        with pytest.raises(ParameterError, match="0 strictly inside"):
            problem_on(TorusGrid(1, (64,), 3, 1.0), speed)
        # in 2D, the hull of (1, +-1) and (-0.5 + 0.75 sin^2(16 pi x_1), 0)
        maps = (*constant_maps([1.0, 1.0], [1.0, -1.0]),
                lambda x: np.stack([sin2_maps()[1](x[..., 0]), np.zeros(x.shape[:-1])], -1))
        speed = FiniteControlsSpeed(2, maps)
        problem_on(TorusGrid(2, (16, 8), 3, 1.0), speed)
        with pytest.raises(ParameterError, match="0 strictly inside"):
            problem_on(TorusGrid(2, (64, 8), 3, 1.0), speed)

    def test_hull_check_holds_no_fan_of_node_arrays(self):
        # one direction at a time: a few node arrays per map (16 in all for
        # 4 maps), where the 64 directions at once would hold 64 per map
        grid = TorusGrid(2, (128, 128), 2, 1.0)
        speed = square_speed()
        _, peak = traced_peak(speed.check_nodes, grid)
        assert peak <= 8 * 4 * grid.n_space * 8
