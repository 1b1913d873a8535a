import dataclasses

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import full_field, interp_space_reference, traced_peak
from frontsteer.errors import ParameterError
from frontsteer.grid import (DensityField, ScalarField, TorusGrid, VecField, _interp_plan,
                             interp_space, norm_lp, read_field, wrap_unit, write_field)


def grid1d(nx=8, nt=5, T=1.0):
    return TorusGrid(1, (nx,), nt, T)


def interpolate(field, t, x):
    """``interp_space`` of one level of ``field`` at the points ``x``."""
    return interp_space(field.at(t), np.asarray(x, dtype=float), field.grid.nx)


def integrate_space(field, t):
    """Nodal quadrature of one level over the torus, weight ``cell_volume``."""
    return float(np.sum(field.at(t)) * field.grid.cell_volume)


class TestTorusGrid:
    def test_spacings(self):
        g = TorusGrid(2, (10, 20), 11, 2.0)
        assert g.dx == (0.1, 0.05)
        assert g.dt == pytest.approx(0.2)
        assert g.n_space == 200

    @pytest.mark.parametrize("dim,nx,nt,horizon", [(1, (64,), 65, 1.0), (2, (6, 10), 9, 0.7)])
    def test_derived_values_are_their_formulas_computed_once(self, dim, nx, nt, horizon):
        g = TorusGrid(dim, nx, nt, horizon)
        assert g.dt == horizon / (nt - 1)
        assert g.dx == tuple(1.0 / n for n in nx)
        assert g.n_space == int(np.prod(nx)) and type(g.n_space) is int
        assert g.cell_volume == float(np.prod(g.dx)) and type(g.cell_volume) is float
        # cached on first read: every later read gives the same object
        for name in ("dt", "dx", "n_space", "cell_volume"):
            assert getattr(g, name) is getattr(g, name)

    def test_equality_and_hashing_ignore_the_cached_values(self):
        read, fresh = TorusGrid(2, (6, 10), 9, 0.7), TorusGrid(2, (6, 10), 9, 0.7)
        before = hash(read)
        _ = read.dt, read.dx, read.n_space, read.cell_volume
        assert read == fresh and hash(read) == hash(fresh) == before
        assert hash(read) == hash((2, (6, 10), 9, 0.7))
        assert {fresh: 1}[read] == 1
        assert read != TorusGrid(2, (6, 10), 17, 0.7)
        assert [f.name for f in dataclasses.fields(TorusGrid)] == ["dim", "nx", "nt", "horizon"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            read.nt = 17

    @pytest.mark.parametrize("bad", [
        dict(dim=3, nx=(8, 8, 8), nt=5, horizon=1.0),
        dict(dim=1, nx=(3,), nt=5, horizon=1.0),
        dict(dim=1, nx=(8,), nt=1, horizon=1.0),
        dict(dim=1, nx=(8,), nt=5, horizon=0.0),
        dict(dim=2, nx=(8,), nt=5, horizon=1.0),
        dict(dim=1, nx=(8,), nt=9.5, horizon=1.0),
        dict(dim=1, nx=(8.7,), nt=5, horizon=1.0),
        dict(dim=1, nx=(8,), nt=float("nan"), horizon=1.0),
        dict(dim=1, nx=(8,), nt=5, horizon=float("inf")),
        dict(dim=1, nx=(8,), nt=5, horizon=float("nan")),
    ])
    def test_validation(self, bad):
        with pytest.raises(ParameterError):
            TorusGrid(**bad)

    def test_field_shape_and_finiteness(self):
        g = grid1d()
        with pytest.raises(ParameterError):
            ScalarField(g, np.zeros((4, 8)))
        with pytest.raises(ParameterError):
            ScalarField(g, np.full((5, 8), np.nan))
        with pytest.raises(ParameterError):
            DensityField(g, -np.ones((5, 8)))
        with pytest.raises(ParameterError):
            VecField(g, np.zeros((5, 8)))

    def test_fields_immutable(self):
        f = full_field(grid1d(), 1.0)
        with pytest.raises(ValueError):
            f.values[0, 0] = 2.0


    def test_a_writable_array_is_copied_and_stays_unshared(self):
        vals = np.ones((5, 8))
        f = ScalarField(grid1d(), vals)
        assert vals.flags.writeable and not np.shares_memory(f.values, vals)
        vals[0, 0] = 2.0
        assert f.values[0, 0] == 1.0 and not f.values.flags.writeable

    @pytest.mark.parametrize("make", [
        lambda v: v.copy(),                                     # read-only, owns its data
        lambda v: np.frombuffer(v.tobytes()).reshape(v.shape),  # over immutable bytes
    ], ids=["owner", "bytes"])
    def test_a_read_only_float64_array_is_kept(self, make):
        vals = make(np.arange(40.0).reshape(5, 8))
        vals.setflags(write=False)
        assert ScalarField(grid1d(), vals).values is vals

    @pytest.mark.parametrize("make", [
        lambda v: v[:],                                               # view of a writable array
        lambda v: np.frombuffer(bytearray(v.tobytes())).reshape(v.shape),  # writable buffer
        lambda v: v.astype(np.float32),
        lambda v: np.asfortranarray(v),
        lambda v: np.repeat(v, 2, axis=1)[:, ::2],                    # strided
    ], ids=["writable_base", "bytearray", "float32", "fortran", "strided"])
    def test_an_array_someone_can_write_or_not_float64_c_order_is_copied(self, make):
        vals = make(np.arange(40.0).reshape(5, 8))
        vals.setflags(write=False)
        f = ScalarField(grid1d(), vals)
        assert f.values is not vals and f.values.flags.owndata
        assert f.values.dtype == np.float64 and f.values.flags.c_contiguous
        assert not f.values.flags.writeable
        assert np.array_equal(f.values, vals)


class TestInterpolate:
    def test_constant(self):
        f = full_field(grid1d(), 3.5)
        assert interpolate(f, 2, [0.37]) == pytest.approx(3.5, abs=1e-15)

    def test_nodal_exactness(self):
        g = grid1d(nx=8)
        rng = np.random.default_rng(0)
        f = ScalarField(g, rng.random((5, 8)))
        for j in range(8):
            assert interpolate(f, 1, [j / 8]) == pytest.approx(f.values[1, j], abs=1e-14)

    def test_linear_midpoint(self):
        g = grid1d(nx=8)
        vals = np.zeros((5, 8))
        vals[:, 1] = 1.0
        f = ScalarField(g, vals)
        assert interpolate(f, 0, [0.5 * g.dx[0]]) == pytest.approx(0.5)

    def test_affine_reproduction_within_cell(self):
        # exact for affine functions on each cell away from the wrap cell
        g = TorusGrid(2, (8, 8), 3, 1.0)
        xs, ys = g.meshgrid()
        vals = np.broadcast_to(2.0 + 3.0 * xs - 1.5 * ys, (3, 8, 8)).copy()
        f = ScalarField(g, vals)
        pts = np.array([[0.4, 0.3], [0.11, 0.62], [0.55, 0.21]])
        expect = 2.0 + 3.0 * pts[:, 0] - 1.5 * pts[:, 1]
        got = interpolate(f, 1, pts)
        np.testing.assert_allclose(got, expect, atol=1e-13)

    def test_within_surrounding_range(self):
        g = grid1d(nx=16)
        rng = np.random.default_rng(1)
        f = ScalarField(g, rng.random((5, 16)))
        x = 0.333
        i0 = int(np.floor(x * 16))
        lo = min(f.values[0, i0], f.values[0, (i0 + 1) % 16])
        hi = max(f.values[0, i0], f.values[0, (i0 + 1) % 16])
        val = interpolate(f, 0, [x])
        assert lo - 1e-14 <= val <= hi + 1e-14

    def test_periodic_wrap(self):
        g = grid1d(nx=8)
        rng = np.random.default_rng(2)
        f = ScalarField(g, rng.random((5, 8)))
        assert interpolate(f, 0, [0.97]) == pytest.approx(
            interpolate(f, 0, [-0.03]), abs=1e-14)

    def test_bad_time_index(self):
        f = full_field(grid1d(), 0.0)
        with pytest.raises(IndexError):
            interpolate(f, 9, [0.0])


    @pytest.mark.parametrize("nx", [(16,), (48,), (64, 64), (12, 20)])
    @pytest.mark.parametrize("vector", [False, True])
    def test_flat_gather_bitwise_equal_reference(self, nx, vector):
        dim = len(nx)
        rng = np.random.default_rng(17)
        vals = rng.standard_normal((*nx, dim) if vector else nx)
        edge = [0.0, np.nextafter(1.0, 0.0), -1e-20, -0.3, 1.0, 1.75, -2.5]
        x = np.concatenate([np.repeat(np.array(edge)[:, None], dim, axis=1),
                            rng.uniform(-3.0, 4.0, (500, dim))])
        got = interp_space(vals, x, nx)
        assert got.shape == interp_space_reference(vals, x, nx).shape
        assert got.tobytes() == interp_space_reference(vals, x, nx).tobytes()
        # one point of shape (dim,)
        for point in (x[1], x[3], x[9]):
            one = interp_space(vals, point, nx)
            assert one.shape == vals.shape[dim:]
            assert one.tobytes() == interp_space_reference(vals, point, nx).tobytes()


class TestWrapUnit:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    @example([0.0, -0.0, 5e-324, -5e-324, -1e-17, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53),
              1e300, -1e300])
    def test_bitwise_equal_mod(self, xs):
        x = np.array(xs)
        assert wrap_unit(x).tobytes() == np.mod(x, 1.0).tobytes()
        out = np.empty_like(x)
        assert wrap_unit(x, out=out) is out
        assert out.tobytes() == np.mod(x, 1.0).tobytes()

    def test_tiny_negative_coordinate_takes_the_top_node_branch(self):
        # -1e-17 wraps to exactly 1.0, so xi = n and i0 = n: the cell index
        # wraps to node 0 with weight exactly 1
        assert wrap_unit(np.array([-1e-17])).tolist() == [1.0]
        nx = (8, 6)
        pts = np.array([[-1e-17, 0.25]])
        (lo_lo, w_lo_lo), (lo_up, w_lo_up), (up_lo, w_up_lo), (up_up, w_up_up) = \
            _interp_plan(pts, nx)
        assert lo_lo.tolist() == [0 * 6 + 1] and up_lo.tolist() == [1 * 6 + 1]
        assert w_lo_lo.tolist() == [0.5] and w_up_lo.tolist() == [0.0]
        vals = np.random.default_rng(4).standard_normal(nx)
        got = interp_space(vals, pts, nx)
        assert got.tobytes() == interp_space_reference(vals, pts, nx).tobytes()
        assert got.tobytes() == interp_space(vals, np.array([[0.0, 0.25]]), nx).tobytes()


class TestQuadrature:
    def test_constant_integral(self):
        assert integrate_space(full_field(grid1d(), 2.0), 0) == pytest.approx(2.0)

    def test_zero(self):
        assert integrate_space(full_field(grid1d(), 0.0), 3) == 0.0

    def test_mean_times_volume(self):
        g = grid1d(nx=4)
        vals = np.tile(np.array([1.0, 2.0, 3.0, 4.0]), (5, 1))
        assert integrate_space(ScalarField(g, vals), 0) == pytest.approx(2.5)

    def test_linearity(self):
        g = grid1d(nx=16)
        rng = np.random.default_rng(3)
        a, b = rng.random((5, 16)), rng.random((5, 16))
        total = integrate_space(ScalarField(g, a + b), 2)
        parts = integrate_space(ScalarField(g, a), 2) + integrate_space(ScalarField(g, b), 2)
        assert total == pytest.approx(parts, rel=1e-13)

    def test_norm_zero_field(self):
        assert norm_lp(full_field(grid1d(), 0.0), 3) == 0.0

    def test_norm_constant_unit_measure(self):
        assert norm_lp(full_field(grid1d(nx=32, nt=9), 1.7), 2) == pytest.approx(1.7)

    def test_norm_constant_closed_form(self):
        g = TorusGrid(1, (32,), 13, 3.0)
        f = full_field(g, 2.0)
        assert norm_lp(f, 3) == pytest.approx(2.0 * 3.0 ** (1 / 3), rel=1e-13)

    def test_norm_exponent_error(self):
        with pytest.raises(ParameterError):
            norm_lp(full_field(grid1d(), 1.0), 0.5)


class TestPeriodicShift:
    def test_shift_invariance(self):
        # relabeling all nodes by a cyclic shift leaves every result unchanged
        g = grid1d(nx=16, nt=4)
        rng = np.random.default_rng(4)
        vals = rng.random((4, 16))
        shifted = np.roll(vals, 5, axis=1)
        f, fs = ScalarField(g, vals), ScalarField(g, shifted)
        assert integrate_space(f, 1) == pytest.approx(integrate_space(fs, 1), rel=1e-14)
        assert norm_lp(f, 2) == pytest.approx(norm_lp(fs, 2), rel=1e-14)
        assert interpolate(f, 0, [0.25]) == pytest.approx(
            interpolate(fs, 0, [0.25 + 5 / 16]), abs=1e-13)


class TestFieldFiles:
    @pytest.mark.parametrize("binary", [False, True])
    def test_scalar_roundtrip(self, tmp_path, binary):
        g = grid1d(nx=8, nt=3)
        rng = np.random.default_rng(5)
        f = ScalarField(g, rng.random((3, 8)))
        path = tmp_path / "f.field"
        write_field(path, f, binary=binary)
        back = read_field(path)
        assert isinstance(back, ScalarField)
        assert back.grid == g
        np.testing.assert_allclose(back.values, f.values, rtol=0, atol=0)

    @pytest.mark.parametrize("binary", [False, True])
    def test_vector_roundtrip(self, tmp_path, binary):
        g = TorusGrid(2, (4, 6), 3, 0.5)
        rng = np.random.default_rng(6)
        v = VecField(g, rng.standard_normal((3, 4, 6, 2)))
        path = tmp_path / "v.field"
        write_field(path, v, binary=binary)
        back = read_field(path)
        assert isinstance(back, VecField)
        np.testing.assert_allclose(back.values, v.values, rtol=0, atol=0)

    def test_text_rows_bitwise_equal_reference(self, tmp_path):
        g = TorusGrid(2, (4, 4), 3, 1.0)
        special = [-0.0, 5e-324, 1e308, 1.0, -1.0, -2.5e-300, 0.1, -1 / 3,
                   np.nextafter(1.0, 0.0), 123456789.0, -1e-7, 0.0]
        rng = np.random.default_rng(8)
        vals = np.concatenate([special, rng.standard_normal(36)])
        for field in (ScalarField(g, vals.reshape(3, 4, 4)),
                      VecField(g, np.concatenate([vals, -vals]).reshape(3, 4, 4, 2))):
            path = tmp_path / "f.field"
            write_field(path, field)
            header, payload = path.read_bytes().split(b"\n", 1)
            flat = field.values.reshape(g.nt, -1)
            expected = b"".join((" ".join(f"{v:.17g}" for v in row) + "\n").encode()
                                for row in flat)
            assert payload == expected
            assert read_field(path).values.tobytes() == field.values.tobytes()

    @pytest.mark.parametrize("binary", [False, True])
    def test_read_field_keeps_its_parse_uncopied(self, tmp_path, binary):
        g = TorusGrid(2, (32, 32), 33, 1.0)
        v = VecField(g, np.random.default_rng(4).standard_normal((33, 32, 32, 2)))
        path = tmp_path / "v.field"
        write_field(path, v, binary=binary)
        back, peak = traced_peak(read_field, path)
        assert back.values.tobytes() == v.values.tobytes()
        # the field views its read-only parse; a copy would own its data
        assert not back.values.flags.owndata and not back.values.flags.writeable
        if binary:
            # the payload bytes and nothing of its size beside them
            assert peak <= 1.1 * v.values.nbytes + 65536


    def test_density_roundtrip(self, tmp_path):
        g = grid1d()
        m = DensityField(g, np.ones((5, 8)))
        write_field(tmp_path / "m.field", m)
        assert isinstance(read_field(tmp_path / "m.field"), DensityField)

    @pytest.mark.parametrize("binary,enc", [(False, "text"), (True, "f64le")])
    def test_header_names_encoding(self, tmp_path, binary, enc):
        g = grid1d(nx=8, nt=3)
        path = tmp_path / "f.field"
        write_field(path, ScalarField(g, np.ones((3, 8))), binary=binary)
        header = path.read_bytes().split(b"\n", 1)[0].decode()
        assert header.split()[-1] == f"enc={enc}"

    @pytest.mark.parametrize("binary", [False, True])
    def test_constant_text_field_eight_bytes_per_value(self, tmp_path, binary):
        # "0.03125 " is exactly 8 bytes: a text payload of this constant has
        # the byte length of a binary one, so the length cannot decide
        g = grid1d(nx=8, nt=3)
        f = ScalarField(g, np.full((3, 8), 0.03125))
        path = tmp_path / "c.field"
        write_field(path, f, binary=binary)
        back = read_field(path)
        assert np.array_equal(back.values, f.values)

    @pytest.mark.parametrize("payload", ["text", "binary", "eight_byte_text"])
    def test_header_without_encoding_token_refused(self, tmp_path, payload):
        # no guess from the payload length: a text payload of "0.03125 ",
        # exactly 8 bytes per value, would read as binary (~1.6e-153)
        vals = np.random.default_rng(7).random((3, 8))
        if payload == "eight_byte_text":
            vals = np.full((3, 8), 0.03125)
        body = vals.astype("<f8").tobytes() if payload == "binary" else "".join(
            " ".join(f"{v:.17g}" for v in row) + "\n" for row in vals).encode()
        if payload == "eight_byte_text":
            assert len(body) == 8 * vals.size
        path = tmp_path / "f.field"
        path.write_bytes(b"frontsteer-field v1 dim=1 nx=8 nt=3 T=1 kind=density\n" + body)
        with pytest.raises(ParameterError, match="lacks enc="):
            read_field(path)

    def test_encoding_mismatch_refused(self, tmp_path):
        g = grid1d(nx=8, nt=3)
        path = tmp_path / "f.field"
        write_field(path, ScalarField(g, np.ones((3, 8))), binary=True)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])                     # truncated payload
        with pytest.raises(ParameterError):
            read_field(path)
        path.write_bytes(raw.replace(b"enc=f64le", b"enc=f32be", 1))
        with pytest.raises(ParameterError):
            read_field(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "junk.field"
        path.write_text("not a field file\n1 2 3\n")
        with pytest.raises(ParameterError):
            read_field(path)
        path.write_bytes(b"\xff\xfe not utf-8\n1 2 3\n")
        with pytest.raises(ParameterError):
            read_field(path)

    @pytest.mark.parametrize("header", [
        "frontsteer-field v1 dim=1 nx=3 nt=1 T=1 kind=scalar junk enc=text",
        "frontsteer-field v1 dims=1 nx=3 nt=1 T=1 kind=scalar enc=text",
    ], ids=["token_without_equals", "missing_dim"])
    def test_malformed_header_token(self, tmp_path, header):
        path = tmp_path / "h.field"
        path.write_text(header + "\n1 2 3\n")
        with pytest.raises(ParameterError):
            read_field(path)

    @pytest.mark.parametrize("payload,match", [
        (b"", "empty text payload"),
        (b"\n \t\n", "empty text payload"),
        (b"1 2 3 4\n5 6 7\n8\n", "lines of 4 values"),        # ragged, 8 values in all
        (b"1 2 3 4 5 6 7 8\n", "lines of 4 values"),          # one line for two levels
        (b"1 2 3 4\n5 6 7 8\n9 10 11 12\n", "lines of 4 values"),
        (b"1 2 3 4\n5 nan 7 8\n", "finite"),
        (b"1 2 3 4\n5 6 7 8 # note\n", "lines of 4 values"),
    ], ids=["empty", "blank", "ragged", "one_line", "extra_line", "nan", "comment"])
    def test_text_payload_refused(self, tmp_path, payload, match):
        path = tmp_path / "t.field"
        path.write_bytes(b"frontsteer-field v1 dim=1 nx=4 nt=2 T=1 kind=scalar enc=text\n"
                         + payload)
        with pytest.raises(ParameterError, match=match):
            read_field(path)

    @pytest.mark.parametrize("edit", [
        lambda p: p + b"\n\n",                               # trailing blank lines
        lambda p: b"\n" + p.replace(b"\n", b"\r\n"),          # leading blank line, CRLF
        lambda p: p.replace(b" ", b" \t  "),                  # any run of spaces and tabs
        lambda p: b"  " + p.replace(b"\n", b" \n\t"),          # padded lines
    ], ids=["trailing_blank", "crlf", "tabs", "padded"])
    def test_text_layouts_accepted(self, tmp_path, edit):
        g = TorusGrid(2, (4, 4), 3, 1.0)
        v = VecField(g, np.random.default_rng(9).standard_normal((3, 4, 4, 2)))
        path = tmp_path / "v.field"
        write_field(path, v)
        header, payload = path.read_bytes().split(b"\n", 1)
        path.write_bytes(header + b"\n" + edit(payload))
        assert read_field(path).values.tobytes() == v.values.tobytes()

    def test_non_numeric_text_value(self, tmp_path):
        path = tmp_path / "t.field"
        path.write_text("frontsteer-field v1 dim=1 nx=3 nt=1 T=1 kind=scalar enc=text\n"
                        "1 two 3\n")
        with pytest.raises(ParameterError):
            read_field(path)
