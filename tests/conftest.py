"""Shared fixtures: the canonical instances and their solved bundles."""

import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import frontsteer
from frontsteer.grid import DensityField, ScalarField, TorusGrid, VecField
from frontsteer.model import (CostModel, FiniteControlsSpeed, HullFace, HullFaces, IsotropicSpeed,
                              _solve_power_root)
from frontsteer.pdopt import OptimalBundle, ProblemInstance, SolverConfig, optimize


def make_uniform_problem(nx=64, nt=65, dim=1, p=3.0, m0_scale=1.0):
    """Unit-speed, power-cost instance with flat data; closed-form optimum
    m = m0_scale, f = k(m0_scale), u = (T - t) * f."""
    shape = (nx,) * dim
    grid = TorusGrid(dim, shape, nt, 1.0)
    return ProblemInstance(grid=grid, speed=IsotropicSpeed(dim, 1.0),
                           cost=CostModel(p), u_T=np.zeros(shape),
                           m0=np.full(shape, m0_scale))


def make_gauss_problem(dim, n, nt, p):
    """Unit-speed instance on n^dim x nt: a Gaussian m0 (sigma 0.1) at the
    centre of the torus and u_T = prod_a cos(2 pi x_a)."""
    grid = TorusGrid(dim, (n,) * dim, nt, 1.0)
    coords = grid.meshgrid()
    m0 = np.exp(-sum((c - 0.5) ** 2 for c in coords) / (2 * 0.1 ** 2))
    return ProblemInstance(grid=grid, speed=IsotropicSpeed(dim, 1.0), cost=CostModel(p),
                           u_T=np.prod([np.cos(2 * np.pi * c) for c in coords], axis=0),
                           m0=m0 / (np.sum(m0) * grid.cell_volume))


def full_field(grid, value):
    """The scalar field equal to ``value`` at every node and level."""
    return ScalarField(grid, np.full((grid.nt, *grid.nx), float(value)))


def trial_speed(kind, dim):
    """A ball of constant or nodal radius, or a hull of rotating controls
    (2D) or of three controls, one of them varying (1D).  A nodal radius is
    a table of 12 points per axis; the maps of a hull serve any grid."""
    if kind == "ball":
        return IsotropicSpeed(dim, 1.0)
    x = np.arange(12) / 12
    if kind == "nodal":
        bump = 0.6 + 0.3 * np.cos(2 * np.pi * x) ** 2
        return IsotropicSpeed(dim, bump if dim == 1 else np.outer(bump, np.ones(12)))
    if dim == 1:
        maps = (lambda p: np.ones(p.shape), lambda p: -np.ones(p.shape),
                lambda p: 0.5 * np.sin(2 * np.pi * p))
        return FiniteControlsSpeed(1, maps)

    def rotated(e):
        def v(p):
            ang = 0.2 * np.sin(2 * np.pi * p[..., 0])
            c, s = np.cos(ang), np.sin(ang)
            return np.stack([c * e[0] - s * e[1], s * e[0] + c * e[1]], axis=-1)
        return v
    maps = tuple(rotated(e) for e in np.vstack([np.eye(2), -np.eye(2)]))
    return FiniteControlsSpeed(2, maps)


def between_lattice_hull():
    """The 1D hull of the maps +-(0.5 + 0.5 sin^2(16 pi x)): speed 0.5 on
    the 8-point lattice that ``FiniteControlsSpeed`` samples, and 1.0 at
    x = 1/32 + k/16, nodes of a 64-point grid."""
    def speed(x):
        return 0.5 + 0.5 * np.sin(16 * np.pi * x) ** 2
    return FiniteControlsSpeed(1, (speed, lambda x: -speed(x)))


def closed_form_uniform_bundle(problem):
    """The analytic optimum of the uniform instance as discrete fields."""
    grid = problem.grid
    level = float(problem.m0.flat[0])
    q = problem.cost.q
    f_star = problem.cost.kappa ** (1.0 - q) * level ** (q - 1.0)
    tt = grid.times().reshape(-1, *([1] * grid.dim))
    u = ScalarField(grid, np.broadcast_to((1.0 - tt) * f_star, (grid.nt, *grid.nx)).copy())
    f = ScalarField(grid, np.full((grid.nt, *grid.nx), f_star))
    m = DensityField(grid, np.full((grid.nt, *grid.nx), level))
    w = VecField(grid, np.zeros((grid.nt, *grid.nx, grid.dim)))
    return u, f, m, w


def traced_peak(fn, *args, **kwargs):
    """fn(*args, **kwargs) under tracemalloc: its result and the peak of the
    traced memory above the level at entry, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


def optimize_in_fresh_process(cfg_path, out, blas_threads):
    """The finished process of ``frontsteer optimize`` on ``cfg_path`` into
    ``out``, run by ``python -m frontsteer.cli`` in a fresh process whose
    BLAS and OpenMP pools hold ``blas_threads`` threads, also passed as
    --threads."""
    src = str(Path(frontsteer.__file__).resolve().parents[1])
    threads = str(blas_threads)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "frontsteer.cli", "optimize",
                           "--config", str(cfg_path), "--out", str(out), "--threads", threads],
                          env=env, capture_output=True, text=True, timeout=300)


def sqrt_root_masked(lin, coef, rhs):
    """The p = 3 root with its division masked to rhs > 0, the form before
    the mask-free division; the bitwise reference of ``_solve_sqrt_root``."""
    rhs_pos = np.maximum(rhs, 0.0)
    den = coef + np.sqrt(coef * coef + 4.0 * lin * rhs_pos)
    s = np.divide(2.0 * rhs_pos, den, out=np.zeros(den.shape), where=rhs_pos > 0)
    return s * s


def power_root_reference(lin, coef, rhs, r):
    """The Newton root of ``_solve_power_root`` in its allocating form: lin
    and coef gathered to full arrays, every positive entry stepped each
    round by a fresh expression and kept where the step does not decrease
    it, the form before the in-place steps over the open entries; their
    bitwise reference.  Arrays throughout, since numpy's scalar ``**`` may
    differ from its array ``**`` in the last bit."""
    lin, coef, rhs = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                           for v in (lin, coef, rhs)))
    out = np.zeros(rhs.shape)
    pos = rhs > 0
    lin, coef, rhs = (v[pos] for v in (lin, coef, rhs))
    e, a, b = (1.0 / r, lin, coef) if r < 1.0 else (r, coef, lin)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.minimum((rhs / a) ** (1.0 / e), rhs / b)
        while True:
            d = a * x ** (e - 1.0)
            x_new = x - ((d + b) * x - rhs) / (e * d + b)
            if not np.any(x_new < x):
                break
            x = np.where(x_new < x, x_new, x)
    out[pos] = x ** e if r < 1.0 else x
    return out


def prox_coned_reference(model, c, m_bar, w_bar, step):
    """``prox_cost_conj_coned`` with masked divisions, np.where and a
    broadcast scale, the form before the in-place prox; its bitwise
    reference."""
    q = model.q
    coef = step * model.kappa ** (1.0 - q)

    def root(lin, rhs):
        if q - 1.0 == 0.5:
            return sqrt_root_masked(lin, coef, rhs)
        return power_root_reference(lin, coef, rhs, q - 1.0)

    a = np.linalg.norm(w_bar, axis=-1)
    m_free = root(1.0, m_bar)
    free = a <= c * m_free
    m_act = root(1.0 + c * c, m_bar + c * a)
    m = np.where(free, m_free, m_act)
    scale = np.where(free, 1.0, np.divide(c * m_act, a, out=np.zeros_like(a), where=a > 0))
    return m, w_bar * scale[..., None]


def split_by_sign_reference(w):
    """``transport.split_by_sign`` of a nodal w or a pair (w_plus, w_minus)
    in its components-last form, shape (..., 2*dim), the layout before the
    split became component-major; its bitwise reference."""
    w_plus, w_minus = w if isinstance(w, tuple) else (w, w)
    return np.concatenate([np.maximum(w_plus, 0.0), np.minimum(w_minus, 0.0)], axis=-1)


def upwind_directional_derivative_reference(fwd, bwd, v):
    """``transport.upwind_directional_derivative`` with the split
    velocities v components last, shape (..., 2*dim); its bitwise
    reference."""
    d = len(fwd)
    out = np.zeros(fwd.shape[1:])
    for a in range(d):
        out += v[..., a] * fwd[a] + v[..., d + a] * bwd[a]
    return out


def cone_faces_reference(vels):
    """``model._cone_faces`` of maps stored components last, shape
    (M, *nx, n), with the Gram matrices an einsum over the last axis; the
    bitwise reference of the component-major faces."""
    gram = 1.0 + np.einsum("i...d,j...d->...ij", vels, vels)
    faces = []
    for k in range(1, vels.shape[-1] + 2):
        for idx in itertools.combinations(range(len(vels)), k):
            a = gram[..., idx, :][..., idx]
            diag = np.diagonal(a, axis1=-2, axis2=-1)
            ok = np.linalg.det(a) > 1e-12 * np.prod(diag, axis=-1)
            ainv = np.linalg.inv(np.where(ok[..., None, None], a, np.eye(k)))
            ainv *= ok[..., None, None]
            ainv1 = np.sum(ainv, axis=-1)
            beta = np.where(ok, np.sum(ainv1, axis=-1), 1.0)
            faces.append(HullFace(idx, ainv, ainv1, beta))
    return HullFaces(vels, tuple(faces))


def hull_prox_reference(faces, m_bar, w_bar, coef, r):
    """``model._hull_prox`` with the momenta w_bar and the maps of
    ``faces`` (``cone_faces_reference``) components last, dots by einsum
    and selections by np.where; its bitwise reference."""
    q = r + 1.0
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
        take = (alpha > 0) & (obj < best)
        for lam_j in lam:
            take &= lam_j >= 0
        best = np.where(take, obj, best)
        m = np.where(take, m_f, m)
        w = np.where(take[..., None], w_f, w)
    return m, w


def interp_space_reference(slice_values, x, nx):
    """Per-axis fancy-indexing form of ``grid.interp_space``, kept as the
    bitwise reference for the flat-index gather."""
    x = np.asarray(x, dtype=float)
    dim = len(nx)
    pts = x.reshape(-1, dim)
    base = []
    frac = []
    for a in range(dim):
        xi = np.mod(pts[:, a], 1.0) * nx[a]
        i0 = np.floor(xi).astype(int)
        frac.append(xi - i0)
        base.append(np.mod(i0, nx[a]))
    trailing = slice_values.shape[dim:]
    out = np.zeros((pts.shape[0], *trailing))
    for corner in itertools.product((0, 1), repeat=dim):
        w = np.ones(pts.shape[0])
        idx = []
        for a, c in enumerate(corner):
            w = w * (frac[a] if c else (1.0 - frac[a]))
            idx.append(np.mod(base[a] + c, nx[a]))
        vals = slice_values[tuple(idx)]
        out += vals * w.reshape(-1, *([1] * len(trailing)))
    return out.reshape(x.shape[:-1] + trailing)


@pytest.fixture(scope="session")
def uniform_problem():
    return make_uniform_problem()


@pytest.fixture(scope="session")
def uniform_bundle(uniform_problem) -> OptimalBundle:
    return optimize(uniform_problem,
                    SolverConfig(max_iters=5000, tol_gap=1e-3, tol_cont=1e-4))
