import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontsteer.errors import ParameterError
from frontsteer.model import (CostModel, FiniteControlsSpeed, IsotropicSpeed,
                              _solve_power_root, conjugate_membership, cost,
                              cost_conj, cost_deriv_conj, hamiltonian,
                              project_cone, prox_cost_conj)


def square_speed():
    """Finite control set whose hull is the unit diamond |w|_1 <= 0.9...
    actually the hull of the four axis velocities of length 0.9."""
    vels = []
    for d in ([0.9, 0.0], [-0.9, 0.0], [0.0, 0.9], [0.0, -0.9]):
        vels.append(lambda x, dd=np.array(d): np.broadcast_to(dd, np.shape(x)))
    return FiniteControlsSpeed(2, tuple(vels), c0=0.6, c1=0.9)


class TestHamiltonian:
    def test_unit_ball_norm(self):
        s = IsotropicSpeed(2, 1.0)
        assert hamiltonian(s, [0.1, 0.2], [3.0, 4.0]) == pytest.approx(5.0)

    def test_zero_covector(self):
        assert hamiltonian(IsotropicSpeed(2, 1.7), [0.0, 0.0], [0.0, 0.0]) == 0.0
        assert hamiltonian(square_speed(), [0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_radius_scaling(self):
        assert hamiltonian(IsotropicSpeed(2, 2.0), [0.5, 0.5], [-1.0, 0.0]) \
            == pytest.approx(2.0)

    def test_homogeneous_and_subadditive(self):
        s = IsotropicSpeed(2, 1.3)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.random(2)
            p1, p2 = rng.standard_normal(2), rng.standard_normal(2)
            lam = rng.random() * 3
            assert hamiltonian(s, x, lam * p1) == pytest.approx(
                lam * hamiltonian(s, x, p1), abs=1e-12)
            assert hamiltonian(s, x, p1 + p2) \
                <= hamiltonian(s, x, p1) + hamiltonian(s, x, p2) + 1e-12

    def test_bounds_and_lipschitz_variable_radius(self):
        nx = 32
        radius = 1.0 + 0.5 * np.sin(2 * np.pi * np.arange(nx) / nx)
        s = IsotropicSpeed(1, radius)
        assert s.c0 == pytest.approx(0.5)
        assert s.c1 == pytest.approx(1.5)
        rng = np.random.default_rng(1)
        for _ in range(100):
            i, j = rng.integers(0, nx, 2)
            p = rng.standard_normal(1)
            hx = hamiltonian(s, [i / nx], p)
            hy = hamiltonian(s, [j / nx], p)
            assert s.c0 * abs(p[0]) - 1e-12 <= hx <= s.c1 * abs(p[0]) + 1e-12
            dist = abs((i - j) / nx + 0.5) % 1.0 - 0.5
            # geodesic torus distance via the node chain
            dist = min(abs(i - j), nx - abs(i - j)) / nx
            assert abs(hx - hy) <= s.lip * dist * abs(p[0]) + 1e-10

    def test_finite_controls_vertices(self):
        s = square_speed()
        # support in direction -p is attained at a hull vertex exactly
        assert hamiltonian(s, [0.2, 0.7], [1.0, 0.0]) == pytest.approx(0.9)
        assert hamiltonian(s, [0.2, 0.7], [1.0, 1.0]) == pytest.approx(0.9)


class TestConjugateMembership:
    def test_ball_boundary(self):
        s = IsotropicSpeed(2, 1.0)
        assert conjugate_membership(s, [0.0, 0.0], [0.6, 0.8])
        assert not conjugate_membership(s, [0.0, 0.0], [1.1, 0.0])

    def test_zero_always_inside(self):
        assert conjugate_membership(IsotropicSpeed(2, 0.3), [0.1, 0.1], [0.0, 0.0])
        assert conjugate_membership(square_speed(), [0.1, 0.1], [0.0, 0.0])

    def test_finite_controls_membership(self):
        s = square_speed()
        assert conjugate_membership(s, [0.0, 0.0], [0.85, 0.0])
        assert not conjugate_membership(s, [0.0, 0.0], [0.7, 0.7])


class TestProjectCone:
    def test_already_feasible(self):
        s = IsotropicSpeed(2, 1.0)
        m, w = project_cone(s, [0.0, 0.0], 2.0, [1.0, 0.0])
        assert m == pytest.approx(2.0)
        np.testing.assert_allclose(w, [1.0, 0.0])

    def test_second_order_cone_closed_form(self):
        s = IsotropicSpeed(2, 1.0)
        m, w = project_cone(s, [0.0, 0.0], 0.0, [2.0, 0.0])
        assert m == pytest.approx(1.0)
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-14)

    def test_polar_cone(self):
        s = IsotropicSpeed(2, 1.0)
        m, w = project_cone(s, [0.0, 0.0], -2.0, [0.0, 0.0])
        assert m == 0.0
        np.testing.assert_allclose(w, [0.0, 0.0])

    def test_idempotent_and_nonexpansive(self):
        s = IsotropicSpeed(2, 0.8)
        rng = np.random.default_rng(2)
        for _ in range(50):
            z1 = (rng.standard_normal(), rng.standard_normal(2) * 2)
            z2 = (rng.standard_normal(), rng.standard_normal(2) * 2)
            p1 = project_cone(s, [0.0, 0.0], *z1)
            p2 = project_cone(s, [0.0, 0.0], *z2)
            pp1 = project_cone(s, [0.0, 0.0], *p1)
            assert pp1[0] == pytest.approx(p1[0], abs=1e-12)
            np.testing.assert_allclose(pp1[1], p1[1], atol=1e-12)
            dist_p = np.hypot(p1[0] - p2[0], np.linalg.norm(p1[1] - p2[1]))
            dist_z = np.hypot(z1[0] - z2[0], np.linalg.norm(z1[1] - z2[1]))
            assert dist_p <= dist_z + 1e-12

    def test_finite_controls_projection(self):
        s = square_speed()
        # hull contains (0.9, 0); same geometry as the 1D cone along the axis
        m, w = project_cone(s, [0.0, 0.0], 0.0, [1.8, 0.0])
        assert m > 0 and abs(w[1]) < 1e-9
        # result feasible and the fixed point of the projection
        m2, w2 = project_cone(s, [0.0, 0.0], m, w)
        assert m2 == pytest.approx(m, abs=1e-8)
        np.testing.assert_allclose(w2, w, atol=1e-8)


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
