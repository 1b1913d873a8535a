"""Uniform periodic space-time grids, discrete fields, interpolation, quadrature, I/O.

The spatial domain is the unit torus [0,1)^dim; the time interval is [0, T]
with nt levels. Fields store one value (or one dim-vector) per (time level,
space node) and are immutable once constructed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

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
        nx = tuple(self.nx if np.iterable(self.nx) else (self.nx,))
        if not all(float(n).is_integer() for n in nx):
            raise ParameterError(f"nx entries must be integers, got {nx}")
        nx = tuple(int(n) for n in nx)
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "horizon", float(self.horizon))
        if self.dim not in (1, 2):
            raise ParameterError(f"dim must be 1 or 2, got {self.dim}")
        if len(nx) != self.dim:
            raise ParameterError(f"nx must have {self.dim} entries, got {nx}")
        if any(n < 4 for n in nx):
            raise ParameterError(f"need at least 4 points per axis, got {nx}")
        if not (float(self.nt).is_integer() and self.nt >= 2):
            raise ParameterError(f"nt must be an integer >= 2, got {self.nt}")
        object.__setattr__(self, "nt", int(self.nt))
        if not (0 < self.horizon < np.inf):
            raise ParameterError(f"horizon must be positive and finite, got {self.horizon}")

    # derived once, on first use; not fields, so equality and hashing ignore them

    @cached_property
    def dx(self) -> tuple[float, ...]:
        return tuple(1.0 / n for n in self.nx)

    @cached_property
    def dt(self) -> float:
        return self.horizon / (self.nt - 1)

    @cached_property
    def n_space(self) -> int:
        return int(np.prod(self.nx))

    @cached_property
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


def _shareable(arr) -> bool:
    """Whether a field may keep ``arr`` itself: an aligned, C-contiguous
    float64 array, read-only like every array it views, over memory of its
    own or of an immutable ``bytes`` (as ``np.frombuffer`` gives), never a
    writable buffer."""
    if not (type(arr) is np.ndarray and arr.dtype == np.float64
            and arr.flags.c_contiguous and arr.flags.aligned):
        return False
    base = arr
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            return False
        base = base.base
    return base is None or isinstance(base, bytes)


def _freeze(values) -> np.ndarray:
    """The read-only float64 array a field holds: ``values`` itself when it is
    shareable (``_shareable``), so a parsed field file is not copied again;
    otherwise a read-only copy, so a caller's writable array stays its own."""
    if _shareable(values):
        return values
    arr = np.array(values, dtype=float, order="C")
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


def wrap_unit(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x - floor(x)``: the same bits as ``np.mod(x, 1.0)`` on every finite
    double (for x < 0 both round the exact sum frac + 1 once; -0.0 gives
    +0.0), at a fraction of its cost.  A tiny negative x wraps to exactly 1.0
    in both.  ``out``, if given, must not overlap ``x``."""
    out = np.floor(x, out=out)
    return np.subtract(x, out, out=out)


def _interp_plan(pts: np.ndarray, nx: tuple[int, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Corner plan of periodic multilinear interpolation at ``pts`` (N, dim).

    Returns one ``(flat_index, weight)`` pair per cell corner, in
    ``itertools.product((0, 1), repeat=dim)`` order: the row-major index of
    the corner node and the product of the per-axis weights in axis order.
    """
    lower, upper, below, above = [], [], [], []
    for a, n in enumerate(nx):
        xi = wrap_unit(pts[:, a])
        xi *= n
        i0 = np.floor(xi).astype(int)
        f = xi - i0
        b = np.mod(i0, n)
        b1 = b + 1
        b1[b1 == n] = 0
        lower.append(b)
        upper.append(b1)
        below.append(1.0 - f)
        above.append(f)
    plan = []
    for corner in itertools.product((0, 1), repeat=len(nx)):
        idx = upper[0] if corner[0] else lower[0]
        w = above[0] if corner[0] else below[0]
        for a in range(1, len(nx)):
            idx = idx * nx[a] + (upper[a] if corner[a] else lower[a])
            w = w * (above[a] if corner[a] else below[a])
        plan.append((idx, w))
    return plan


def interp_space(slice_values: np.ndarray, x: np.ndarray, nx: tuple[int, ...]) -> np.ndarray:
    """Periodic multilinear interpolation of a nodal space array.

    ``slice_values`` has shape (*nx) or (*nx, comps); ``x`` has shape
    (..., dim), each coordinate wrapped into [0,1) per axis.  The corners are
    gathered by flat index and summed in a fixed corner order, so the value
    at a point does not depend on the other points of ``x``.
    """
    x = np.asarray(x, dtype=float)
    dim = len(nx)
    pts = x.reshape(-1, dim)
    trailing = slice_values.shape[dim:]
    flat = np.reshape(slice_values, (-1, *trailing))
    out = np.zeros((pts.shape[0], *trailing))
    for idx, w in _interp_plan(pts, nx):
        out += np.take(flat, idx, axis=0) * w.reshape(-1, *([1] * len(trailing)))
    return out.reshape(x.shape[:-1] + trailing)


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
    little-endian float64 in the same order (binary).  The CLI writes
    binary; text stays the default, the format of hand-made inputs."""
    g = field.grid
    flat = field.values.reshape(g.nt, -1)
    with open(path, "wb") as fh:
        fh.write(_header(field, "f64le" if binary else "text").encode())
        if binary:
            fh.write(flat.astype("<f8").tobytes())
        else:
            fmt = " ".join(["%.17g"] * flat.shape[1]) + "\n"
            for row in flat:
                fh.write((fmt % tuple(row.tolist())).encode())


def _parse_header(header: str, path) -> tuple[str, TorusGrid, str]:
    """Kind, grid and payload encoding (``enc``) of a field file header."""
    tokens = header.split()
    if len(tokens) < 7 or tokens[0] != FIELD_MAGIC or tokens[1] != FIELD_VERSION:
        raise ParameterError(f"not a {FIELD_MAGIC} {FIELD_VERSION} file: {path}")
    try:
        kv = dict(tok.split("=", 1) for tok in tokens[2:])
        dim = int(kv["dim"])
        nx = tuple(int(s) for s in kv["nx"].split(","))
        nt = int(kv["nt"])
        horizon = float(kv["T"])
        kind = kv["kind"]
        enc = kv["enc"]
    except KeyError as exc:
        raise ParameterError(f"header of {path} lacks {exc.args[0]}=") from exc
    except ValueError as exc:
        raise ParameterError(f"malformed header in {path}: {exc}") from exc
    if kind not in _KINDS:
        raise ParameterError(f"unknown field kind {kind!r}")
    return kind, TorusGrid(dim, nx, nt, horizon), enc


def _parse_text(fh, rows: int, per_row: int, path) -> np.ndarray:
    """The rest of binary stream ``fh`` as a text payload: ``rows`` lines of
    ``per_row`` whitespace-separated numbers each, blank lines skipped.

    numpy's C parser (``np.loadtxt``) reads the stream in chunks, to the
    same doubles as ``float``, without holding the whole payload or one
    Python object per value."""
    start = fh.tell()
    if all(line.isspace() for line in fh):
        # loadtxt only warns on a payload without data
        raise ParameterError(f"empty text payload in {path}")
    fh.seek(start)
    layout = f"{rows} lines of {per_row} values"
    try:
        values = np.loadtxt(fh, dtype=float, comments=None, ndmin=2)
    except ValueError as exc:
        raise ParameterError(
            f"malformed text payload in {path} (expected {layout}): {exc}") from exc
    if values.shape != (rows, per_row):
        raise ParameterError(f"expected {layout} in {path}, found {values.shape[0]} "
                             f"lines of {values.shape[1]}")
    return values


def read_field(path):
    """Read a field file written by write_field.  The header's ``enc`` token,
    ``text`` or ``f64le``, selects the payload encoding; a header without it
    is refused.  The field keeps the parsed payload, read-only, without a
    second copy."""
    with open(path, "rb") as fh:
        kind, grid, enc = _parse_header(fh.readline().decode(errors="replace"), path)
        comps = grid.dim if kind == "vector" else 1
        count = grid.nt * grid.n_space * comps
        if enc == "f64le":
            # a sized read fills one bytes object; read() would join the
            # buffered head to the rest, a second copy of the payload
            payload = fh.read(8 * count)
            found = len(payload) + len(fh.read())
            if found != 8 * count:
                raise ParameterError(
                    f"expected {8 * count} payload bytes in {path}, found {found}")
            # read-only, over the immutable payload: the field keeps it uncopied
            flat = np.frombuffer(payload, dtype="<f8")
        elif enc == "text":
            flat = _parse_text(fh, grid.nt, count // grid.nt, path)
            flat.setflags(write=False)
        else:
            raise ParameterError(f"unknown field encoding {enc!r} in {path}")
    shape = (grid.nt, *grid.nx, comps) if kind == "vector" else (grid.nt, *grid.nx)
    return _KINDS[kind](grid, flat.reshape(shape))
