"""Numerical verification of duality identities, inequalities and optimality
conditions on computed or supplied fields.

Every check is deterministic given (inputs, seed) and returns a CertReport.
Statements proved for the continuum hold discretely only up to consistency
error, so inequality checks carry an additive slack C_report * (dx + dt)
whose constant is assembled from field norms, never hard-coded numbers
alone.

``battery`` runs all seven checks for ``optimize`` and ``certify``.  Its gap
is the certificate ``optimize`` stops on (``pdopt.certificate``) on the
bundle's u and split momenta, or on w split by sign (``split_by_sign``); the
certificate builds feasible points from any fields, so [-A, B] always
brackets the discrete optimal value.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np
from scipy.integrate import quad as _quad
from scipy.special import gamma as _gamma

from .errors import ParameterError
from .grid import DensityField, ScalarField, TorusGrid, VecField, norm_lp, interp_space
from .model import IsotropicSpeed, SpeedModel, cost_deriv_conj
from . import pdopt
from .pdopt import ProblemInstance
# unused here; perfbench/tracing.py wraps them in this namespace
from .pdopt import continuity_residual_rows, evaluate_A, evaluate_B, subsolution_residual
from .transport import upwind_directional_derivative

__all__ = [
    "CertReport", "check_ibp_inequality", "check_weak_solution",
    "check_pointwise_hj", "check_subsolution", "holder_constant",
    "check_holder", "split_by_sign", "duality_gap", "battery", "reports_to_json",
]


@dataclass
class CertReport:
    name: str
    passed: bool
    lhs: float
    rhs: float
    slack: float
    worst_location: tuple | None = None
    skipped: bool = False

    def as_dict(self) -> dict:
        d = asdict(self)
        d["worst_location"] = list(self.worst_location) if self.worst_location else None
        return d


def reports_to_json(reports: list[CertReport], path=None) -> str:
    doc = {"checks": [r.as_dict() for r in reports],
           "all_passed": all(r.passed for r in reports)}
    text = json.dumps(doc, indent=2)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def _lip_space(values: np.ndarray, grid: TorusGrid) -> float:
    lip = 0.0
    off = values.ndim - grid.dim
    for a in range(grid.dim):
        d = np.abs(np.roll(values, -1, off + a) - values) / grid.dx[a]
        lip = max(lip, float(np.max(d)))
    return lip


def _disc_scale(grid: TorusGrid) -> float:
    return max(grid.dx) + grid.dt


# -- integration by parts ----------------------------------------------------


def check_ibp_inequality(u: ScalarField, f: ScalarField, m: DensityField,
                         t: int, s: int, slack: float | None = None) -> CertReport:
    """Signed quantity <u(s)m(s)> - <u(t)m(t)> + sum_{t<=k<s} dt <f_k m_k>,
    nonnegative for value functions paired with transported densities up to
    discretization slack."""
    grid = u.grid
    if f.grid != grid or m.grid != grid:
        raise ParameterError("fields live on different grids")
    t = grid.check_time_index(t)
    s = grid.check_time_index(s)
    if t > s:
        raise ParameterError(f"need t <= s, got {t} > {s}")
    vol = grid.cell_volume
    quantity = vol * (np.sum(u.values[s] * m.values[s]) - np.sum(u.values[t] * m.values[t]))
    quantity += grid.dt * vol * float(np.sum(f.values[t:s] * m.values[t:s]))
    if slack is None:
        mass_scale = vol * float(np.max(np.sum(np.abs(m.values), axis=tuple(
            range(1, grid.dim + 1)))))
        c_report = 8.0 * mass_scale * (1.0 + _lip_space(u.values, grid)) \
            * (1.0 + float(np.max(np.abs(f.values)))) * (1.0 + grid.horizon)
        slack = c_report * _disc_scale(grid)
    return CertReport(name="ibp_inequality", passed=bool(quantity >= -slack),
                      lhs=float(quantity), rhs=0.0, slack=float(slack),
                      worst_location=(t, s))


# -- weak-solution identities ------------------------------------------------


def check_weak_solution(problem: ProblemInstance, u: ScalarField, f: ScalarField,
                        m: DensityField, n_levels: int = 8,
                        slack: float = 1e-3) -> tuple[CertReport, CertReport]:
    """Both coupling identities

        <u(0) m0>   = <u(t) m(t)> + iint_0^t k(m) m
        <u(t) m(t)> = <u_T m(T)>  + iint_t^T k(m) m

    checked at n_levels evenly spaced time levels; the relative defect of
    each must stay within slack.  Requires f = k(m) nodewise first."""
    grid = problem.grid
    vol = grid.cell_volume
    k_of_m = cost_deriv_conj(problem.cost, m.values)
    pre_defect = float(np.max(np.abs(f.values - k_of_m)))
    if pre_defect > 1e-6 * (1.0 + float(np.max(np.abs(k_of_m)))):
        bad = CertReport(name="weak_solution_precondition", passed=False,
                         lhs=pre_defect, rhs=0.0, slack=1e-6)
        return bad, bad
    fm = np.sum(f.values * m.values, axis=tuple(range(1, grid.dim + 1))) * vol
    um = np.sum(u.values * m.values, axis=tuple(range(1, grid.dim + 1))) * vol
    u0m0 = float(np.sum(u.values[0] * problem.m0) * vol)
    uTmT = float(np.sum(problem.u_T * m.values[-1]) * vol)
    levels = np.unique(np.linspace(0, grid.nt - 1, n_levels).astype(int))
    scale = max(abs(u0m0), abs(uTmT), grid.dt * float(np.sum(np.abs(fm))), 1e-10)
    worst = [0.0, None]
    worst2 = [0.0, None]
    for j in levels:
        run_0t = grid.dt * float(np.sum(fm[:j]))
        run_tT = grid.dt * float(np.sum(fm[j:-1])) if j < grid.nt - 1 else 0.0
        d1 = abs(u0m0 - (um[j] + run_0t)) / scale
        d2 = abs(um[j] - (uTmT + run_tT)) / scale
        if d1 > worst[0]:
            worst = [d1, (int(j),)]
        if d2 > worst2[0]:
            worst2 = [d2, (int(j),)]
    r1 = CertReport(name="weak_identity_from_start", passed=bool(worst[0] <= slack),
                    lhs=float(worst[0]), rhs=0.0, slack=slack, worst_location=worst[1])
    r2 = CertReport(name="weak_identity_to_end", passed=bool(worst2[0] <= slack),
                    lhs=float(worst2[0]), rhs=0.0, slack=slack, worst_location=worst2[1])
    return r1, r2


# -- pointwise HJ on the support of m ----------------------------------------


def check_pointwise_hj(u: ScalarField, f: ScalarField, m: DensityField,
                       v: VecField, threshold: float | None = None,
                       slack: float = 0.1) -> CertReport:
    """Relative L1 residual of -du/dt - v.Du - f over nodes with m > threshold,
    with one-sided time differences and v-oriented upwind space differences.

    The default threshold is 1e-3 * max(m): the multiplier is only pinned on
    the occupied region, and its kinks at the support boundary would otherwise
    dominate the residual."""
    grid = u.grid
    if threshold is None:
        threshold = max(1e-9, 1e-3 * float(np.max(m.values)))
    num = 0.0
    den = 0.0
    worst = (0.0, None)
    for k in range(grid.nt - 1):
        res = -(u.values[k + 1] - u.values[k]) / grid.dt \
            - upwind_directional_derivative(u.values[k + 1], v.values[k], grid) \
            - f.values[k]
        mask = m.values[k] > threshold
        if not np.any(mask):
            continue
        num += float(np.sum(np.abs(res[mask])))
        den += float(np.sum(np.abs(f.values[k][mask])))
        j = np.argmax(np.abs(res * mask))
        loc_val = float(np.abs(res.ravel()[j]))
        if loc_val > worst[0]:
            worst = (loc_val, (k, *np.unravel_index(j, grid.nx)))
    rel = num / max(den, 1e-12)
    return CertReport(name="pointwise_hj", passed=bool(rel <= slack), lhs=float(rel),
                      rhs=0.0, slack=slack,
                      worst_location=tuple(int(i) for i in worst[1]) if worst[1] else None)


# -- subsolution inequality against sampled admissible fields -----------------


def _fourier_scalar(rng: np.random.Generator, grid: TorusGrid, modes: int = 3) -> np.ndarray:
    """Smooth random field over space-time, O(1) amplitude.

    Each mode's wave is evaluated once per distinct value of ``x @ kvec``
    and gathered back to the nodes."""
    t = grid.times()[:, None]
    out = np.zeros((grid.nt, grid.n_space))
    x = np.stack(grid.meshgrid(), axis=-1).reshape(-1, grid.dim)
    for _ in range(modes):
        kvec = rng.integers(-3, 4, size=grid.dim)
        omega = rng.uniform(-2.0, 2.0)
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.uniform(0.3, 1.0)
        # lattice nodes and integer kvec repeat x @ kvec: one cos per distinct value
        s, inv = np.unique(x @ kvec, return_inverse=True)
        wave = amp * np.cos(2 * np.pi * (s + omega * t) + phase)
        out += np.take(wave, inv, axis=1)
    return out.reshape(grid.nt, *grid.nx)


def sample_admissible_field(speed: SpeedModel, grid: TorusGrid,
                            rng: np.random.Generator) -> VecField:
    """Smooth random velocity field with values in c(x,A) (strictly inside)."""
    # per-variant sampling: the order of the RNG draws fixes every seeded bundle
    if isinstance(speed, IsotropicSpeed):
        raw = np.stack([_fourier_scalar(rng, grid) for _ in range(grid.dim)], axis=-1)
        mag = np.linalg.norm(raw, axis=-1)
        radius = speed.radius_nodes(grid.nx)
        scale = 0.98 * radius / (1.0 + mag)
        return VecField(grid, raw * scale[..., None])
    pts = np.stack(grid.meshgrid(), axis=-1)
    vels = speed.velocities_at(pts)                     # (M, *nx, dim)
    logits = np.stack([_fourier_scalar(rng, grid) for _ in range(len(vels))])
    lam = np.exp(logits - np.max(logits, axis=0))
    lam /= np.sum(lam, axis=0)
    mix = np.einsum("mt...,m...d->t...d", lam, vels)
    return VecField(grid, mix)


def check_subsolution(u: ScalarField, f: ScalarField, speed: SpeedModel,
                      trials: int = 20, seed: int = 0,
                      slack: float | None = None,
                      pairs: list | None = None) -> CertReport:
    """For sampled smooth admissible fields v~ in c(x,A) and smooth phi >= 0,
    verifies  -sum phi*du - sum phi*v~.Du <= sum f*phi + slack  in the
    discrete transport pairing.

    ``pairs`` optionally supplies explicit (VecField, phi array) test pairs
    instead of random sampling."""
    grid = u.grid
    if f.grid != grid:
        raise ParameterError("fields live on different grids")
    rng = np.random.default_rng(seed)
    if pairs is None:
        pairs = []
        for _ in range(trials):
            v = sample_admissible_field(speed, grid, rng)
            phi = _fourier_scalar(rng, grid) ** 2
            mx = np.max(phi)
            if mx > 0:
                phi = phi / mx
            pairs.append((v, phi))
    vol = grid.cell_volume
    lhs = [0.0] * len(pairs)
    rhs = [0.0] * len(pairs)
    for k in range(grid.nt - 1):
        # the trial-independent parts of upwind_directional_derivative, once
        # per level; each trial repeats its float expressions in its order
        u_next = u.values[k + 1]
        du = u_next - u.values[k]
        fwd = [(np.roll(u_next, -1, a) - u_next) / grid.dx[a] for a in range(grid.dim)]
        bwd = [(u_next - np.roll(u_next, 1, a)) / grid.dx[a] for a in range(grid.dim)]
        for trial, (v, phi) in enumerate(pairs):
            dd = np.zeros_like(u_next)
            for a in range(grid.dim):
                va = v.values[k][..., a]
                dd += np.maximum(va, 0.0) * fwd[a] + np.minimum(va, 0.0) * bwd[a]
            lhs[trial] += -vol * float(np.sum(phi[k] * (du + grid.dt * dd)))
            rhs[trial] += vol * grid.dt * float(np.sum(f.values[k] * phi[k]))
    worst = (-np.inf, None)
    for trial, (lhs_t, rhs_t) in enumerate(zip(lhs, rhs)):
        if lhs_t - rhs_t > worst[0]:
            worst = (lhs_t - rhs_t, trial)
    if slack is None:
        c_report = 2.0 * (1.0 + speed.c1) * (1.0 + grid.horizon)
        slack = c_report * _disc_scale(grid)
    return CertReport(name="subsolution", passed=bool(worst[0] <= slack),
                      lhs=float(worst[0]), rhs=0.0, slack=float(slack),
                      worst_location=(worst[1],) if worst[1] is not None else None)


# -- time-Hoelder bound ------------------------------------------------------


def holder_constant(p: float, N: int, c0: float, beta: float) -> float:
    """Constant C in  u(t,x) - u(s,y) <= C ||f||_p (s-t)^alpha  for point
    pairs with |x-y| <= beta*c0*(s-t), alpha = 1 - (N+1)/p.

    Assembled from the averaging construction over straight subcharacteristic
    bundles: the cross-section ball volume |R| = C_N (c0^2 - |theta|^2)^(N/2)
    and the time integral int_0^(1/2) rho^(N(1-q)) drho of the dilation
    factor, evaluated by quadrature.  Diverges as p -> N+1 (the integral's
    exponent reaches -1), hence the strict requirement p > N+1.
    """
    if not (0.0 <= beta < 1.0):
        raise ParameterError(f"beta must lie in [0, 1), got {beta}")
    if not (c0 > 0):
        raise ParameterError("c0 must be positive")
    if not (p > N + 1):
        raise ParameterError(
            f"p must exceed N+1 = {N + 1} (the time integral diverges), got {p}")
    q = p / (p - 1.0)
    expo = N * (1.0 - q)                       # > -1 exactly when p > N+1
    integral, _ = _quad(lambda r: r ** expo, 0.0, 0.5)
    ball = np.pi ** (N / 2.0) / _gamma(N / 2.0 + 1.0)
    alpha = 1.0 - (N + 1.0) / p
    return float(2.0 * integral ** (1.0 / q) * ball ** (-1.0 / p)
                 * (1.0 - beta ** 2) ** (-N / (2.0 * p)) * c0 ** (-N / p))


def check_holder(u: ScalarField, f: ScalarField, p: float, speed: SpeedModel,
                 samples: int = 1000, seed: int = 0, beta: float = 0.5,
                 bound_scale: float = 1.0) -> CertReport:
    """Sampled verification of the time-Hoelder bound and of the terminal
    upper bound u(t,x) <= u_T(x) + C (T-t)^alpha ||f||_p.

    Supports isotropic speeds with constant radius only (the averaging
    construction assumes a fixed ball of admissible velocities); other
    speeds produce a skipped report.  ``bound_scale`` rescales the derived
    constant (used by detector-sensitivity tests)."""
    grid = u.grid
    # the averaging construction needs one fixed ball of admissible velocities
    if not isinstance(speed, IsotropicSpeed) or isinstance(speed.radius, np.ndarray):
        return CertReport(name="holder_bound", passed=True, lhs=0.0, rhs=0.0,
                          slack=0.0, skipped=True)
    c0 = float(speed.radius)
    alpha = 1.0 - (grid.dim + 1.0) / p
    norm_f = norm_lp(f, p)
    c_pair = holder_constant(p, grid.dim, c0, beta) * bound_scale
    c_term = holder_constant(p, grid.dim, c0, 0.0) * bound_scale
    # covers |u_disc - u| at the two sampled points, first-order in (dx, dt)
    slack = (1.0 + _lip_space(u.values, grid)) * _disc_scale(grid)
    rng = np.random.default_rng(seed)
    worst = (-np.inf, None)
    for _ in range(samples):
        t_idx = int(rng.integers(0, grid.nt - 1))
        s_idx = int(rng.integers(t_idx + 1, grid.nt))
        dt_pair = (s_idx - t_idx) * grid.dt
        x_idx = tuple(int(rng.integers(0, n)) for n in grid.nx)
        x = np.array([i / n for i, n in zip(x_idx, grid.nx)])
        delta = rng.uniform(-1.0, 1.0, size=grid.dim)
        nrm = np.linalg.norm(delta)
        radius = beta * c0 * dt_pair * rng.uniform(0.0, 1.0)
        y = x + (delta / nrm * radius if nrm > 0 else 0.0)
        lhs = float(u.values[t_idx][x_idx]) - float(
            interp_space(u.values[s_idx], y, grid.nx))
        rhs = c_pair * norm_f * dt_pair ** alpha + slack
        if lhs - rhs > worst[0]:
            worst = (lhs - rhs, (t_idx, s_idx))
        # terminal bound at the same space point
        lhs_t = float(u.values[t_idx][x_idx]) - float(u.values[-1][x_idx])
        rhs_t = c_term * norm_f * ((grid.nt - 1 - t_idx) * grid.dt) ** alpha + slack
        if lhs_t - rhs_t > worst[0]:
            worst = (lhs_t - rhs_t, (t_idx, grid.nt - 1))
    return CertReport(name="holder_bound", passed=bool(worst[0] <= 0.0),
                      lhs=float(worst[0]), rhs=0.0, slack=float(slack),
                      worst_location=worst[1])


# -- duality gap and the battery ---------------------------------------------


def split_by_sign(w: VecField) -> tuple[VecField, VecField]:
    """A nodal momentum as split momenta (max(w, 0), min(w, 0)): the
    donor-cell form, for bundles that lack their own pair."""
    return (VecField(w.grid, np.maximum(w.values, 0.0)),
            VecField(w.grid, np.minimum(w.values, 0.0)))


def duality_gap(problem: ProblemInstance, u: ScalarField, f: ScalarField,
                m: DensityField, w, details: dict | None = None) -> float:
    """Certified gap A + B >= 0 of a bundle (``pdopt.certificate``, which
    fills ``details``) on the pair (w_plus, w_minus), or on a nodal VecField
    split by sign, as the benchmark passes it.  ``f`` is not read: the
    certificate's obstacle is max(residual(u), 0), the cheapest feasible one."""
    w_plus, w_minus = split_by_sign(w) if isinstance(w, VecField) else w
    a_val, b_val = pdopt.certificate(
        problem, u.values, m.values,
        np.concatenate([w_plus.values[:-1], w_minus.values[:-1]], axis=-1), details)
    return a_val + b_val


def battery(problem: ProblemInstance, u: ScalarField, f: ScalarField,
            m: DensityField, w_split: tuple[VecField, VecField], *, seed: int,
            tol_gap: float, details: dict | None = None) -> list[CertReport]:
    """The seven checks of a bundle with split momenta (w_plus, w_minus).  The
    gap passes iff -1e-9 <= A + B <= tol_gap * max(|A|, |B|, 1e-10), its
    slack; ``details`` receives the gap's details."""
    w_net = VecField(problem.grid, w_split[0].values + w_split[1].values)
    v = pdopt.recover_velocity(m, w_net, floor=1e-9, speed=problem.speed)
    reports = [check_ibp_inequality(u, f, m, 0, problem.grid.nt - 1)]
    reports.extend(check_weak_solution(problem, u, f, m))
    reports.append(check_pointwise_hj(u, f, m, v))
    reports.append(check_subsolution(u, f, problem.speed, trials=10, seed=seed))
    reports.append(check_holder(u, f, problem.cost.p, problem.speed,
                                samples=200, seed=seed))
    details = {} if details is None else details
    gap = duality_gap(problem, u, f, m, w_split, details=details)
    scale = max(abs(details["A"]), abs(details["B"]), 1e-10)
    reports.append(CertReport(
        name="duality_gap", passed=bool(np.isfinite(gap) and -1e-9 <= gap <= tol_gap * scale),
        lhs=float(gap), rhs=0.0, slack=float(scale)))
    return reports
