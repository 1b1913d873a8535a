"""Uniform periodic space-time grids, discrete fields, interpolation, quadrature, I/O.

The spatial domain is the unit torus [0,1)^dim; the time interval is [0, T]
with nt levels. Fields store one value (or one dim-vector) per (time level,
space node) and are immutable once constructed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

FIELD_MAGIC = "frontsteer-field"
FIELD_VERSION = "v1"


@dataclass(frozen=True)
class TorusGrid:
    """Uniform discretization of [0, T] x [0,1)^dim with periodic space wrap."""

    dim: int
    nx: tuple[int, ...]
    nt: int
    horizon: float

    def __post_init__(self):
        nx = tuple(int(n) for n in (self.nx if np.iterable(self.nx) else (self.nx,)))
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "horizon", float(self.horizon))
        if self.dim not in (1, 2):
            raise ParameterError(f"dim must be 1 or 2, got {self.dim}")
        if len(nx) != self.dim:
            raise ParameterError(f"nx must have {self.dim} entries, got {nx}")
        if any(n < 4 for n in nx):
            raise ParameterError(f"need at least 4 points per axis, got {nx}")
        if self.nt < 2:
            raise ParameterError(f"nt must be >= 2, got {self.nt}")
        if not (self.horizon > 0):
            raise ParameterError(f"horizon must be positive, got {self.horizon}")

    @property
    def dx(self) -> tuple[float, ...]:
        return tuple(1.0 / n for n in self.nx)

    @property
    def dt(self) -> float:
        return self.horizon / (self.nt - 1)

    @property
    def n_space(self) -> int:
        return int(np.prod(self.nx))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.dx))

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.nt)

    def axis_coords(self, axis: int) -> np.ndarray:
        return np.arange(self.nx[axis]) / self.nx[axis]

    def meshgrid(self) -> list[np.ndarray]:
        """Node coordinates per axis, each broadcast to the space shape."""
        coords = [self.axis_coords(a) for a in range(self.dim)]
        return list(np.meshgrid(*coords, indexing="ij"))

    def time_weights(self) -> np.ndarray:
        """Left-Riemann time quadrature: weight dt on levels 0..nt-2, 0 at t=T.

        Sums to exactly T, so space-time integrals of constants are exact.
        """
        w = np.full(self.nt, self.dt)
        w[-1] = 0.0
        return w

    def check_time_index(self, t: int) -> int:
        t = int(t)
        if not (0 <= t < self.nt):
            raise IndexError(f"time level {t} out of range [0, {self.nt})")
        return t


def _freeze(values: np.ndarray) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ScalarField:
    """One real value per (time level, space node)."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        arr = _freeze(self.values)
        expected = (self.grid.nt, *self.grid.nx)
        if arr.shape != expected:
            raise ParameterError(f"values shape {arr.shape} != {expected}")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("field values must be finite")
        object.__setattr__(self, "values", arr)

    def at(self, t: int) -> np.ndarray:
        return self.values[self.grid.check_time_index(t)]


@dataclass(frozen=True)
class DensityField(ScalarField):
    """Nonnegative nodal density."""

    def __post_init__(self):
        super().__post_init__()
        if np.min(self.values) < 0:
            raise ParameterError(f"density must be >= 0, min {np.min(self.values)}")


@dataclass(frozen=True)
class VecField:
    """One dim-vector per (time level, space node)."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        arr = _freeze(self.values)
        expected = (self.grid.nt, *self.grid.nx, self.grid.dim)
        if arr.shape != expected:
            raise ParameterError(f"values shape {arr.shape} != {expected}")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("field values must be finite")
        object.__setattr__(self, "values", arr)

    def at(self, t: int) -> np.ndarray:
        return self.values[self.grid.check_time_index(t)]


def interp_space(slice_values: np.ndarray, x: np.ndarray, nx: tuple[int, ...]) -> np.ndarray:
    """Periodic multilinear interpolation of a nodal space array.

    ``slice_values`` has shape (*nx) or (*nx, comps); ``x`` has shape
    (..., dim) with coordinates wrapped into [0,1) per axis.
    """
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


def interpolate(field: ScalarField, t: int, x) -> float | np.ndarray:
    """Periodic multilinear interpolation of a scalar field at time level t.

    Exact at nodes; reproduces constants and cell-local affine functions.
    """
    t = field.grid.check_time_index(t)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] != field.grid.dim:
        raise ParameterError(f"point must have {field.grid.dim} coordinates")
    out = interp_space(field.values[t], x, field.grid.nx)
    return float(out) if out.ndim == 0 else out


def integrate_space(field: ScalarField | DensityField, t: int) -> float:
    """Nodal quadrature over the torus at one time level (weight prod(dx))."""
    t = field.grid.check_time_index(t)
    return float(np.sum(field.values[t]) * field.grid.cell_volume)


def norm_lp(field: ScalarField | DensityField, p: float) -> float:
    """Discrete space-time L^p norm with weights dt * prod(dx).

    Time uses the left-Riemann rule (terminal level carries weight zero), so
    the total time weight is exactly T.
    """
    if p < 1:
        raise ParameterError(f"norm exponent must be >= 1, got {p}")
    g = field.grid
    wt = g.time_weights()
    per_level = np.sum(np.abs(field.values) ** p, axis=tuple(range(1, g.dim + 1)))
    return float((np.sum(per_level * wt) * g.cell_volume) ** (1.0 / p))


def constant_field(grid: TorusGrid, value: float) -> ScalarField:
    return ScalarField(grid, np.full((grid.nt, *grid.nx), float(value)))


# -- field file format -------------------------------------------------------

_KINDS = {"scalar": ScalarField, "density": DensityField, "vector": VecField}


def _header(field, enc: str) -> str:
    g = field.grid
    kind = {ScalarField: "scalar", DensityField: "density", VecField: "vector"}[type(field)]
    nxs = ",".join(str(n) for n in g.nx)
    return (f"{FIELD_MAGIC} {FIELD_VERSION} dim={g.dim} nx={nxs} nt={g.nt} "
            f"T={g.horizon:.17g} kind={kind} enc={enc}\n")


def write_field(path, field, binary: bool = False) -> None:
    """Write a field file: header line (ending in ``enc=text`` or
    ``enc=f64le``), then one line of values per time level (text) or raw
    little-endian float64 in the same order (binary)."""
    g = field.grid
    flat = field.values.reshape(g.nt, -1)
    with open(path, "wb") as fh:
        fh.write(_header(field, "f64le" if binary else "text").encode())
        if binary:
            fh.write(flat.astype("<f8").tobytes())
        else:
            for row in flat:
                fh.write((" ".join(f"{v:.17g}" for v in row) + "\n").encode())


def read_field(path):
    """Read a field file written by write_field.  The header's ``enc`` token
    selects the payload encoding; files without it (older v1 writers) are
    read as binary when the payload is exactly 8 bytes per value."""
    with open(path, "rb") as fh:
        header = fh.readline().decode()
        payload = fh.read()
    tokens = header.split()
    if len(tokens) < 7 or tokens[0] != FIELD_MAGIC or tokens[1] != FIELD_VERSION:
        raise ParameterError(f"not a {FIELD_MAGIC} {FIELD_VERSION} file: {path}")
    kv = dict(tok.split("=", 1) for tok in tokens[2:])
    dim = int(kv["dim"])
    nx = tuple(int(s) for s in kv["nx"].split(","))
    nt = int(kv["nt"])
    horizon = float(kv["T"])
    kind = kv["kind"]
    if kind not in _KINDS:
        raise ParameterError(f"unknown field kind {kind!r}")
    grid = TorusGrid(dim, nx, nt, horizon)
    comps = dim if kind == "vector" else 1
    count = nt * grid.n_space * comps
    enc = kv.get("enc", "f64le" if len(payload) == 8 * count else "text")
    if enc == "f64le":
        if len(payload) != 8 * count:
            raise ParameterError(
                f"expected {8 * count} payload bytes in {path}, found {len(payload)}")
        flat = np.frombuffer(payload, dtype="<f8").astype(float)
    elif enc == "text":
        flat = np.array(payload.decode().split(), dtype=float)
        if flat.size != count:
            raise ParameterError(
                f"expected {count} values in {path}, found {flat.size}")
    else:
        raise ParameterError(f"unknown field encoding {enc!r} in {path}")
    shape = (nt, *nx, dim) if kind == "vector" else (nt, *nx)
    return _KINDS[kind](grid, flat.reshape(shape))
