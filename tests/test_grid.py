import math

import numpy as np
import pytest

from ksfv.grid import (Field, GridSpec, _face_differences, _Laplacian, constant_field,
                       grad_square_integral, integrate, lp_norm, power_integral)


def grid1d(n=8, L=1.0):
    return GridSpec(dim=1, cells=(n,), extent=(L,))


def grid2d(nx=8, ny=8, Lx=1.0, Ly=1.0):
    return GridSpec(dim=2, cells=(nx, ny), extent=(Lx, Ly))


class TestGridSpec:
    def test_spacing_and_volume(self):
        g = grid2d(10, 20, 2.0, 1.0)
        assert g.spacing == (0.2, 0.05)
        assert g.cell_volume == pytest.approx(0.01)
        assert g.num_cells == 200

    def test_rejects_too_few_cells(self):
        with pytest.raises(ValueError):
            GridSpec(dim=1, cells=(2,), extent=(1.0,))

    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ValueError):
            GridSpec(dim=1, cells=(4,), extent=(0.0,))

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            GridSpec(dim=3, cells=(4, 4, 4), extent=(1.0, 1.0, 1.0))


class TestField:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Field(grid1d(4), np.zeros(5))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Field(grid1d(4), np.array([0.0, np.nan, 0.0, 0.0]))

    def test_values_read_only(self):
        f = constant_field(grid1d(4), 1.0)
        with pytest.raises(ValueError):
            f.values[0] = 2.0


def face_gradients(f: Field) -> list:
    """Each axis's face buffer of the flat layout, holding (f_R - f_L)/h."""
    grads = []
    for g, h in _face_differences(f.grid, f.values):
        g.faces /= h
        grads.append(g)
    return grads


class TestFaceGradient:
    def test_constant_field_zero(self):
        f = constant_field(grid2d(5, 5), 3.7)
        for g in face_gradients(f):
            assert np.all(g.padded == 0.0)

    def test_linear_ramp(self):
        g = grid1d(3, 3.0)  # h = 1
        h = g.spacing[0]
        f = Field(g, np.array([0.0, h, 2 * h]))
        np.testing.assert_allclose(face_gradients(f)[0].padded, [0.0, 1.0, 1.0, 0.0])

    def test_two_cell_difference(self):
        g = grid1d(3, 1.5)  # h = 0.5
        f = Field(g, np.array([1.0, 0.0, 0.0]))
        grad = face_gradients(f)[0].padded
        assert grad[1] == pytest.approx(-1.0 / 0.5)
        assert grad[0] == 0.0 and grad[-1] == 0.0

    def test_boundary_faces_exactly_zero(self):
        rng = np.random.default_rng(3)
        f = Field(grid2d(6, 5), rng.uniform(-1, 1, (6, 5)))
        gx, gy = face_gradients(f)
        assert np.all(gx.minus[0, :] == 0.0) and np.all(gx.plus[-1, :] == 0.0)
        assert np.all(gy.minus[:, 0] == 0.0) and np.all(gy.plus[:, -1] == 0.0)


def laplacian(f: Field) -> Field:
    """The step's matrix-free Neumann Laplacian applied to f."""
    return Field(f.grid, _Laplacian(f.grid)(f.values, np.empty(f.grid.cells)))


class TestLaplacian:
    def test_constant_is_zero(self):
        f = constant_field(grid2d(5, 7), 2.0)
        assert np.all(laplacian(f).values == 0.0)

    def test_hand_stencil(self):
        g = grid1d(3, 3.0)  # h = 1
        f = Field(g, np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(laplacian(f).values, [1.0, -2.0, 1.0])

    def test_discrete_integral_vanishes(self):
        rng = np.random.default_rng(7)
        f = Field(grid2d(16, 16), rng.uniform(0, 5, (16, 16)))
        total = integrate(laplacian(f))
        assert abs(total) <= 1e-12 * lp_norm(f, 2)


class TestIntegrate:
    def test_constant_on_unit_box(self):
        assert integrate(constant_field(grid2d(4, 4), 1.0)) == pytest.approx(1.0)

    def test_constant_on_half_volume(self):
        g = GridSpec(dim=1, cells=(10,), extent=(0.5,))
        assert integrate(constant_field(g, 2.0)) == pytest.approx(1.0)

    def test_matches_compensated_sum(self):
        rng = np.random.default_rng(11)
        g = grid2d(32, 32, 1.3, 0.7)
        vals = rng.uniform(0, 1, (32, 32))
        f = Field(g, vals)
        oracle = math.fsum(vals.flatten().tolist()) * g.cell_volume
        assert integrate(f) == pytest.approx(oracle, rel=1e-13)


class TestLpNorm:
    def test_constant_any_p(self):
        f = constant_field(grid2d(4, 4), -2.5)
        for p in (1.0, 2.0, 3.5, math.inf):
            assert lp_norm(f, p) == pytest.approx(2.5)

    def test_sup_norm(self):
        f = Field(grid1d(3, 3.0), np.array([1.0, -3.0, 2.0]))
        assert lp_norm(f, math.inf) == 3.0

    def test_p2_against_quadrature_oracle(self):
        rng = np.random.default_rng(13)
        g = grid1d(64, 2.0)
        vals = rng.uniform(-1, 1, 64)
        f = Field(g, vals)
        oracle = math.sqrt(math.fsum((v * v * g.cell_volume) for v in vals.tolist()))
        assert lp_norm(f, 2.0) == pytest.approx(oracle, rel=1e-13)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            lp_norm(constant_field(grid1d(4), 1.0), 0.5)

    def test_homogeneity(self):
        rng = np.random.default_rng(17)
        g = grid2d(8, 8)
        vals = rng.uniform(-2, 2, (8, 8))
        for p in (1.0, 2.0, 5.0, math.inf):
            a = lp_norm(Field(g, 3.25 * vals), p)
            b = 3.25 * lp_norm(Field(g, vals), p)
            assert a == pytest.approx(b, rel=1e-14)

    def test_monotone_in_absolute_values(self):
        rng = np.random.default_rng(19)
        g = grid1d(32)
        vals = rng.uniform(-1, 1, 32)
        bigger = vals * rng.uniform(1.0, 2.0, 32)
        for p in (1.0, 2.0, math.inf):
            assert lp_norm(Field(g, vals), p) <= lp_norm(Field(g, bigger), p)


class TestPowerIntegral:
    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(23)
        vals = rng.uniform(0, 3, (16, 16))
        for p in (1.0, 2.5, 8.0, 40.0):
            oracle = math.fsum((vals ** p).flatten().tolist()) / 256
            assert power_integral(vals, p, 1 / 256) == pytest.approx(oracle, rel=1e-14)
        assert power_integral(np.zeros((4, 4)), 3.0, 1 / 16) == 0.0

    def test_finite_where_sup_to_the_p_overflows(self):
        # one cell of 10 on 128^2 cells at p = 309: sup^p = 1e309 overflows,
        # the integral 1e309 / 128^2 does not; at p = 314, 1e314 / 128^2 does
        x = np.zeros((128, 128))
        x[5, 7] = 10.0
        expected = 10.0 ** 305 / 128 ** 2 * 10.0 ** 4  # 1e309 / 128^2, about 6.1e304
        assert power_integral(x, 309.0, 1 / 128 ** 2) == pytest.approx(expected, rel=1e-13)
        assert power_integral(x, 314.0, 1 / 128 ** 2) == math.inf


def test_grad_square_integral_matches_manual():
    g = grid1d(4, 4.0)  # h = 1
    f = Field(g, np.array([0.0, 1.0, 3.0, 3.0]))
    # interior gradients: 1, 2, 0; integral = (1 + 4) * h
    assert grad_square_integral(g, f.values) == pytest.approx(5.0)
