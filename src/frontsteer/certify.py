"""Numerical verification of duality identities, inequalities and optimality
conditions on computed or supplied fields.

Every check is deterministic given (inputs, seed) and returns a CertReport.
Statements proved for the continuum hold discretely only up to consistency
error.  The IBP inequality, the subsolution inequality and the Hoelder bound
carry an additive slack C * (dx + dt) whose constant is assembled from field
norms; the other rules are fixed numbers: a relative 1e-3 for the weak
identities, a relative 0.1 for the pointwise HJ residual, and the solver's
tol_gap for the duality gap.

Space differences are ``transport.one_sided``, the adjoint of the split
divergence that ``pdopt`` and the transport solver march with, paired with
split velocities by ``transport.upwind_directional_derivative``.

``check_subsolution`` draws its sampled test pairs as their Fourier modes
and sums them one block of time levels at a time, on the block rule of the
certificate (``pdopt._block_levels``), each block's differences of u shared
by all pairs: no check holds a whole sampled field, and no bit depends on
the block size.

``battery`` runs all seven checks for ``optimize`` and ``certify`` on a
bundle's pair (w_plus, w_minus), a nodal w being (w, w).  Its gap is the
certificate ``optimize`` stops on (``pdopt.certificate``), judged by the
same rule (``pdopt._gap_certified``); it builds feasible points from any
fields, so [-A, B] always brackets the discrete optimal value.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterError
from .grid import DensityField, ScalarField, TorusGrid, VecField, _interp_plan, norm_lp
from .model import SpeedModel, cost_deriv_conj
from . import pdopt
from .pdopt import ProblemInstance
# unused here; perfbench/tracing.py wraps them in this namespace
from .grid import interp_space
from .pdopt import continuity_residual_rows, evaluate_A, evaluate_B, subsolution_residual
from .transport import one_sided, split_by_sign, upwind_directional_derivative

__all__ = [
    "CertReport", "check_ibp_inequality", "check_weak_solution",
    "check_pointwise_hj", "check_subsolution", "holder_constant",
    "check_holder", "duality_gap", "battery", "reports_to_json",
]


@dataclass
class CertReport:
    """One check's record, as ``certificates.json`` prints it: the check's
    ``name``, whether it ``passed``, the measured quantity ``lhs`` (signed
    or a defect, per check), the ``slack`` it is judged against, the
    ``worst_location`` (time level, node or level pair) where ``lhs`` was
    taken, if any, and whether the check was ``skipped`` (``holder_bound``
    on a speed without a ball radius; a skipped check passes)."""

    name: str
    passed: bool
    lhs: float
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
    return float(np.max(np.abs(one_sided(values, grid)[0])))


def _disc_scale(grid: TorusGrid) -> float:
    return max(grid.dx) + grid.dt


# -- integration by parts ----------------------------------------------------


def check_ibp_inequality(u: ScalarField, f: ScalarField, m: DensityField,
                         t: int, s: int) -> CertReport:
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
    mass_scale = vol * float(np.max(np.sum(np.abs(m.values), axis=tuple(
        range(1, grid.dim + 1)))))
    c_report = 8.0 * mass_scale * (1.0 + _lip_space(u.values, grid)) \
        * (1.0 + float(np.max(np.abs(f.values)))) * (1.0 + grid.horizon)
    slack = c_report * _disc_scale(grid)
    return CertReport(name="ibp_inequality", passed=bool(quantity >= -slack),
                      lhs=float(quantity), slack=float(slack),
                      worst_location=(t, s))


# -- weak-solution identities ------------------------------------------------


def check_weak_solution(problem: ProblemInstance, u: ScalarField, f: ScalarField,
                        m: DensityField, n_levels: int = 8,
                        slack: float = 1e-3) -> tuple[CertReport, CertReport]:
    """Both coupling identities

        <u(0) m0>   = <u(t) m(t)> + iint_0^t k(m) m
        <u(t) m(t)> = <u_T m(T)>  + iint_t^T k(m) m

    checked at n_levels evenly spaced time levels; the relative defect of
    each must stay within slack.  Both require f = k(m) nodewise first, or
    fail with the defect max |f - k(m)| and its relative slack 1e-6."""
    grid = problem.grid
    vol = grid.cell_volume
    k_of_m = cost_deriv_conj(problem.cost, m.values)
    pre_defect = float(np.max(np.abs(f.values - k_of_m)))
    if pre_defect > 1e-6 * (1.0 + float(np.max(np.abs(k_of_m)))):
        return tuple(CertReport(name=name, passed=False, lhs=pre_defect, slack=1e-6)
                     for name in ("weak_identity_from_start", "weak_identity_to_end"))
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
                    lhs=float(worst[0]), slack=slack, worst_location=worst[1])
    r2 = CertReport(name="weak_identity_to_end", passed=bool(worst2[0] <= slack),
                    lhs=float(worst2[0]), slack=slack, worst_location=worst2[1])
    return r1, r2


# -- pointwise HJ on the support of m ----------------------------------------


def check_pointwise_hj(u: ScalarField, f: ScalarField, m: DensityField,
                       w_plus: VecField, w_minus: VecField) -> CertReport:
    """Relative L1 residual of -du/dt - v.Du - f over the nodes with
    m > max(1e-9, 1e-3 * max(m)), passed at 0.1: one-sided time differences,
    and the split velocities v = (max(w_plus, 0), min(w_minus, 0)) / m paired
    with ``one_sided(u)`` by ``upwind_directional_derivative``, the
    optimizer's own HJ operator.  A nodal momentum w passed as (w, w) is its
    sign split.

    The threshold pins the multiplier on the occupied region only: its kinks
    at the support boundary would otherwise dominate the residual.  One
    level's velocities are held at a time."""
    grid = u.grid
    threshold = max(1e-9, 1e-3 * float(np.max(m.values)))
    slack = 0.1
    v = np.empty((2 * grid.dim, *grid.nx))
    num = 0.0
    den = 0.0
    worst = (0.0, None)
    for k in range(grid.nt - 1):
        mask = m.values[k] > threshold
        if not np.any(mask):
            continue
        split_by_sign((w_plus.values[k], w_minus.values[k]), out=v)
        np.divide(v, m.values[k], out=v, where=mask)
        res = -(u.values[k + 1] - u.values[k]) / grid.dt \
            - upwind_directional_derivative(*one_sided(u.values[k + 1], grid), v) \
            - f.values[k]
        num += float(np.sum(np.abs(res[mask])))
        den += float(np.sum(np.abs(f.values[k][mask])))
        j = np.argmax(np.abs(res * mask))
        loc_val = float(np.abs(res.ravel()[j]))
        if loc_val > worst[0]:
            worst = (loc_val, (k, *np.unravel_index(j, grid.nx)))
    rel = num / max(den, 1e-12)
    return CertReport(name="pointwise_hj", passed=bool(rel <= slack), lhs=float(rel),
                      slack=slack,
                      worst_location=tuple(int(i) for i in worst[1]) if worst[1] else None)


# -- subsolution inequality against sampled admissible fields -----------------


def _fourier_modes(rng: np.random.Generator, grid: TorusGrid, modes: int = 3) -> tuple:
    """The modes of one smooth random space-time field, drawn in order, as
    one table: each mode's distinct values s of ``x @ kvec``, one after the
    other in ``values``; ``params``, the mode's time frequency, phase and
    amplitude at each of its values, (3, len(values)), so one evaluation
    serves all modes; and ``inv``, (modes, n_space) in the narrowest
    unsigned type, which gathers each mode's values to the nodes.  Lattice
    nodes and an integer kvec repeat ``x @ kvec``, so a mode has at most
    n_space values and one cos serves many nodes.  A field is three small
    arrays, so a check can hold every draw's table."""
    x = np.stack(grid.meshgrid(), axis=-1).reshape(-1, grid.dim)
    rows, params, gathers, start = [], [], [], 0
    for _ in range(modes):
        kvec = rng.integers(-3, 4, size=grid.dim)
        omega = rng.uniform(-2.0, 2.0)
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.uniform(0.3, 1.0)
        values, inv = np.unique(x @ kvec, return_inverse=True)
        rows.append(values)
        params.append((omega, phase, amp))
        gathers.append(inv + start)
        start += len(values)
    params = np.repeat(np.array(params).T, [len(v) for v in rows], axis=1)
    return np.concatenate(rows), params, np.stack(gathers).astype(np.min_scalar_type(start - 1))


def _modes_on(table: tuple, grid: TorusGrid, k0: int, k1: int) -> np.ndarray:
    """Levels k0..k1 - 1 of the field of the mode ``table``, (k1 - k0, *nx):
    every mode's wave amp cos(2 pi (s + omega t) + phase) on those levels at
    its values s, in one evaluation, gathered to the nodes and summed in
    draw order, so every level has the bits it has in a whole-field
    evaluation."""
    values, (omega, phase, amp), inv = table
    wave = grid.times()[k0:k1, None] * omega
    wave += values
    wave *= 2 * np.pi
    wave += phase
    np.cos(wave, out=wave)
    wave *= amp
    out = np.zeros((k1 - k0, grid.n_space))
    for index in inv:
        out += np.take(wave, index, axis=1)
    return out.reshape(k1 - k0, *grid.nx)


def _fourier_scalar(rng: np.random.Generator, grid: TorusGrid, modes: int = 3) -> np.ndarray:
    """Smooth random field over space-time, O(1) amplitude: the modes of
    ``_fourier_modes`` on all levels."""
    return _modes_on(_fourier_modes(rng, grid, modes), grid, 0, grid.nt)


def sample_admissible_field(speed: SpeedModel, grid: TorusGrid,
                            rng: np.random.Generator) -> VecField:
    """Smooth random velocity field with values in c(x,A) (strictly inside):
    the speed's ``admissible`` mix of its smooth fields, drawn in order."""
    count, mix = speed.admissible(grid)
    tables = [_fourier_modes(rng, grid) for _ in range(count)]
    return VecField(grid, mix([_modes_on(table, grid, 0, grid.nt) for table in tables]))


def _sampled_pair(count: int, mix, grid: TorusGrid, rng: np.random.Generator, step: int):
    """One sampled test pair of ``check_subsolution`` as two functions of a
    block of levels (k0, k1): v~, ``mix`` of ``count`` smooth fields as in
    ``sample_admissible_field``, and phi = w^2 / max(w^2) >= 0 of a smooth
    field w.  The first call of phi takes the maximum over all levels,
    ``step`` at a time, and keeps its own block from that pass (the whole
    run when one block holds it).  ``mix`` is per node: a block has the bits
    of the whole field."""
    v_tables = [_fourier_modes(rng, grid) for _ in range(count)]
    w_table = _fourier_modes(rng, grid)
    peaks = []

    def v_on(k0: int, k1: int) -> np.ndarray:
        return mix([_modes_on(table, grid, k0, k1) for table in v_tables])

    def phi_on(k0: int, k1: int) -> np.ndarray:
        w = None
        if not peaks:
            for k in range(0, grid.nt, step):
                w_k = _modes_on(w_table, grid, k, min(k + step, grid.nt))
                peaks.append(float(np.max(np.square(w_k))))
                if k == k0:
                    w = w_k[:k1 - k0]
        phi = np.square(_modes_on(w_table, grid, k0, k1) if w is None else w)
        mx = max(peaks)
        if mx > 0:
            phi /= mx
        return phi

    return v_on, phi_on


def check_subsolution(u: ScalarField, f: ScalarField, speed: SpeedModel,
                      trials: int = 20, seed: int = 0,
                      pairs: list | None = None) -> CertReport:
    """For sampled smooth admissible fields v~ in c(x,A) and smooth phi >= 0,
    verifies  -sum phi*du - sum phi*v~.Du <= sum f*phi + slack  in the
    discrete transport pairing.

    ``pairs`` optionally supplies explicit (VecField, phi array) test pairs
    instead of random sampling.  A sampled pair is drawn as its Fourier
    modes, in the RNG order of ``sample_admissible_field`` and then
    ``_fourier_scalar``: v~ is the speed's ``admissible`` mix of its smooth
    fields and phi = w^2 / max(w^2) of one more smooth field w, its maximum
    taken over all levels with the first block (``_sampled_pair``).  Every
    pair's modes are drawn first (a few short tables each), then the sums
    run over blocks of ``pdopt._block_levels`` levels (2 at 64^2, one block
    for a 1D run at 64 points): a block takes the differences of u once,
    then for each pair evaluates v~ and phi from its modes and pairs them
    with the sign split of v~ by ``upwind_directional_derivative``.  So
    beyond the modes the check holds one block's arrays, never a whole
    field.  Each level is summed on its own and added in level order, so
    the report has the bits of a level-by-level pass over whole-field
    pairs, whatever the block size."""
    grid = u.grid
    if f.grid != grid:
        raise ParameterError("fields live on different grids")
    vol = grid.cell_volume
    step = pdopt._block_levels(grid)
    if pairs is None:
        rng = np.random.default_rng(seed)
        count, mix = speed.admissible(grid)
        fields = [_sampled_pair(count, mix, grid, rng, step) for _ in range(trials)]
    else:
        fields = [(lambda k0, k1, v=v: v.values[k0:k1], lambda k0, k1, phi=phi: phi[k0:k1])
                  for v, phi in pairs]
    lhs = [0.0] * len(fields)
    rhs = [0.0] * len(fields)
    for k0 in range(0, grid.nt - 1, step):
        k1 = min(k0 + step, grid.nt - 1)
        u_next = u.values[k0 + 1:k1 + 1]
        # the differences of u on the block, shared by every pair
        fwd, bwd = one_sided(u_next, grid)
        du = u_next - u.values[k0:k1]
        for trial, (v_on, phi_on) in enumerate(fields):
            phi = phi_on(k0, k1)
            # phi * (du + dt * dd), in place
            dd = upwind_directional_derivative(fwd, bwd, split_by_sign(v_on(k0, k1)))
            dd *= grid.dt
            dd += du
            dd *= phi
            # one sum per level, each over that level's contiguous nodes
            pairing = np.sum(dd.reshape(k1 - k0, -1), axis=1)
            costs = np.sum((f.values[k0:k1] * phi).reshape(k1 - k0, -1), axis=1)
            for pair_k, cost_k in zip(pairing.tolist(), costs.tolist()):
                lhs[trial] += -vol * pair_k
                rhs[trial] += vol * grid.dt * cost_k
    worst = (-np.inf, None)
    for trial, (lhs_t, rhs_t) in enumerate(zip(lhs, rhs)):
        if lhs_t - rhs_t > worst[0]:
            worst = (lhs_t - rhs_t, trial)
    slack = 2.0 * (1.0 + speed.max_speed(grid)) * (1.0 + grid.horizon) * _disc_scale(grid)
    return CertReport(name="subsolution", passed=bool(worst[0] <= slack),
                      lhs=float(worst[0]), slack=float(slack),
                      worst_location=(worst[1],) if worst[1] is not None else None)


# -- time-Hoelder bound ------------------------------------------------------


def holder_constant(p: float, N: int, c0: float, beta: float) -> float:
    """Constant C in  u(t,x) - u(s,y) <= C ||f||_p (s-t)^alpha  for point
    pairs with |x-y| <= beta*c0*(s-t), alpha = 1 - (N+1)/p.

    Assembled from the averaging construction over straight subcharacteristic
    bundles: the cross-section ball volume |R| = C_N (c0^2 - |theta|^2)^(N/2)
    and the time integral int_0^(1/2) rho^e drho of the dilation factor, with
    e = N(1-q) = -N/(p-1), q = p/(p-1).  The integral has the closed form
    (1/2)^(e+1) / (e+1), finite exactly when e + 1 = (p-1-N)/(p-1) > 0,
    i.e. when p > N+1; it diverges as p -> N+1, hence the strict requirement.
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
    integral = 0.5 ** (expo + 1.0) / (expo + 1.0)
    ball = math.pi ** (N / 2.0) / math.gamma(N / 2.0 + 1.0)
    return float(2.0 * integral ** (1.0 / q) * ball ** (-1.0 / p)
                 * (1.0 - beta ** 2) ** (-N / (2.0 * p)) * c0 ** (-N / p))


def check_holder(u: ScalarField, f: ScalarField, p: float, speed: SpeedModel,
                 samples: int = 1000, seed: int = 0) -> CertReport:
    """Sampled verification of the time-Hoelder bound, on point pairs with
    |x-y| <= beta*c0*(s-t) for beta = 1/2, and of the terminal upper bound
    u(t,x) <= u_T(x) + C (T-t)^alpha ||f||_p.

    Supports speeds with a ``ball_radius`` only (the averaging construction
    assumes a fixed ball of admissible velocities); other speeds produce a
    skipped report."""
    grid = u.grid
    c0 = speed.ball_radius
    if c0 is None:
        return CertReport(name="holder_bound", passed=True, lhs=0.0, slack=0.0,
                          skipped=True)
    beta = 0.5
    alpha = 1.0 - (grid.dim + 1.0) / p
    norm_f = norm_lp(f, p)
    c_pair = holder_constant(p, grid.dim, c0, beta)
    c_term = holder_constant(p, grid.dim, c0, 0.0)
    # covers |u_disc - u| at the two sampled points, first-order in (dx, dt)
    slack = (1.0 + _lip_space(u.values, grid)) * _disc_scale(grid)
    rng = np.random.default_rng(seed)
    # every sample's draws first, in the order of a sample-by-sample loop
    draws = []
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
        draws.append((t_idx, s_idx, dt_pair, x_idx, y))
    # then u(s, y) of all samples in one pass over the corner plan of
    # ``interp_space``, which gives each point the value it gets alone
    levels = u.values.reshape(grid.nt, -1)
    s_all = np.array([d[1] for d in draws], dtype=int)
    u_sy = np.zeros(samples)
    for idx, weight in _interp_plan(np.array([d[4] for d in draws]).reshape(-1, grid.dim),
                                    grid.nx):
        u_sy += levels[s_all, idx] * weight
    worst = (-np.inf, None)
    for (t_idx, s_idx, dt_pair, x_idx, _), at_y in zip(draws, u_sy.tolist()):
        lhs = float(u.values[t_idx][x_idx]) - at_y
        rhs = c_pair * norm_f * dt_pair ** alpha + slack
        if lhs - rhs > worst[0]:
            worst = (lhs - rhs, (t_idx, s_idx))
        # terminal bound at the same space point
        lhs_t = float(u.values[t_idx][x_idx]) - float(u.values[-1][x_idx])
        rhs_t = c_term * norm_f * ((grid.nt - 1 - t_idx) * grid.dt) ** alpha + slack
        if lhs_t - rhs_t > worst[0]:
            worst = (lhs_t - rhs_t, (t_idx, grid.nt - 1))
    return CertReport(name="holder_bound", passed=bool(worst[0] <= 0.0),
                      lhs=float(worst[0]), slack=float(slack),
                      worst_location=worst[1])


# -- duality gap and the battery ---------------------------------------------


def duality_gap(problem: ProblemInstance, u: ScalarField, f: ScalarField,
                m: DensityField, w, details: dict | None = None) -> float:
    """Certified gap A + B >= 0 of a bundle (``pdopt.certificate``, which
    fills ``details``) on the pair (w_plus, w_minus), or on a nodal VecField
    w as the pair (w, w).  ``f`` is not read: the certificate's obstacle is
    max(residual(u), 0), the cheapest feasible one."""
    w_plus, w_minus = (w, w) if isinstance(w, VecField) else w
    a_val, b_val = pdopt.certificate(problem, u.values, m.values, w_plus.values,
                                     w_minus.values, details)
    return a_val + b_val


def battery(problem: ProblemInstance, u: ScalarField, f: ScalarField,
            m: DensityField, w: tuple[VecField, VecField], *, seed: int,
            tol_gap: float, details: dict | None = None) -> list[CertReport]:
    """The seven checks of a bundle with split momenta w = (w_plus,
    w_minus); a nodal momentum w is the pair (w, w).  The gap passes by the
    rule of ``optimize``'s stop test (``pdopt._gap_certified``), its slack
    the scale max(|A|, |B|, 1e-10); ``details`` receives the gap's details
    and its relative gap ``rel_gap``."""
    reports = [check_ibp_inequality(u, f, m, 0, problem.grid.nt - 1)]
    reports.extend(check_weak_solution(problem, u, f, m))
    reports.append(check_pointwise_hj(u, f, m, *w))
    reports.append(check_subsolution(u, f, problem.speed, trials=10, seed=seed))
    reports.append(check_holder(u, f, problem.cost.p, problem.speed,
                                samples=200, seed=seed))
    details = {} if details is None else details
    gap = duality_gap(problem, u, f, m, w, details=details)
    a_val, b_val = details["A"], details["B"]
    details["rel_gap"] = pdopt._relative_gap(a_val, b_val)
    reports.append(CertReport(
        name="duality_gap", passed=pdopt._gap_certified(a_val, b_val, tol_gap),
        lhs=float(gap), slack=float(pdopt._gap_scale(a_val, b_val))))
    return reports
