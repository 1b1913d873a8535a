import numpy as np
import pytest

from frontsteer.errors import ParameterError
from frontsteer.grid import (DensityField, ScalarField, TorusGrid, VecField,
                             constant_field, integrate_space, interpolate,
                             norm_lp, read_field, write_field)


def grid1d(nx=8, nt=5, T=1.0):
    return TorusGrid(1, (nx,), nt, T)


class TestTorusGrid:
    def test_spacings(self):
        g = TorusGrid(2, (10, 20), 11, 2.0)
        assert g.dx == (0.1, 0.05)
        assert g.dt == pytest.approx(0.2)
        assert g.n_space == 200

    @pytest.mark.parametrize("bad", [
        dict(dim=3, nx=(8, 8, 8), nt=5, horizon=1.0),
        dict(dim=1, nx=(3,), nt=5, horizon=1.0),
        dict(dim=1, nx=(8,), nt=1, horizon=1.0),
        dict(dim=1, nx=(8,), nt=5, horizon=0.0),
        dict(dim=2, nx=(8,), nt=5, horizon=1.0),
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
        f = constant_field(grid1d(), 1.0)
        with pytest.raises(ValueError):
            f.values[0, 0] = 2.0


class TestInterpolate:
    def test_constant(self):
        f = constant_field(grid1d(), 3.5)
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
        f = constant_field(grid1d(), 0.0)
        with pytest.raises(IndexError):
            interpolate(f, 9, [0.0])


class TestQuadrature:
    def test_constant_integral(self):
        assert integrate_space(constant_field(grid1d(), 2.0), 0) == pytest.approx(2.0)

    def test_zero(self):
        assert integrate_space(constant_field(grid1d(), 0.0), 3) == 0.0

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
        assert norm_lp(constant_field(grid1d(), 0.0), 3) == 0.0

    def test_norm_constant_unit_measure(self):
        assert norm_lp(constant_field(grid1d(nx=32, nt=9), 1.7), 2) == pytest.approx(1.7)

    def test_norm_constant_closed_form(self):
        g = TorusGrid(1, (32,), 13, 3.0)
        f = constant_field(g, 2.0)
        assert norm_lp(f, 3) == pytest.approx(2.0 * 3.0 ** (1 / 3), rel=1e-13)

    def test_norm_exponent_error(self):
        with pytest.raises(ParameterError):
            norm_lp(constant_field(grid1d(), 1.0), 0.5)


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

    def test_v1_file_without_encoding_token(self, tmp_path):
        g = grid1d(nx=8, nt=3)
        rng = np.random.default_rng(7)
        vals = rng.random((3, 8))
        header = "frontsteer-field v1 dim=1 nx=8 nt=3 T=1 kind=scalar\n".encode()
        text, binary = tmp_path / "t.field", tmp_path / "b.field"
        text.write_bytes(header + "".join(
            " ".join(f"{v:.17g}" for v in row) + "\n" for row in vals).encode())
        binary.write_bytes(header + vals.astype("<f8").tobytes())
        assert np.array_equal(read_field(text).values, vals)
        assert np.array_equal(read_field(binary).values, vals)

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
