import numpy as np
import pytest

from ksfv.grid import GridSpec, integrate
from ksfv.model import (InitialData, ModelParams, Regime, classify_regime,
                        make_initial_data)


def unit_square(n=16):
    return GridSpec(dim=2, cells=(n, n), extent=(1.0, 1.0))


class TestModelParams:
    @pytest.mark.parametrize("kwargs", [
        {"m": 0.0, "q": 1.0},
        {"m": 1.0, "q": -0.5},
        {"m": 1.0, "q": 1.0, "sigma": 1.0},
        {"m": 1.0, "q": 1.0, "sigma": -0.1},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_sigma_zero_allowed(self):
        assert ModelParams(m=2.0, q=1.0, sigma=0.0).sigma == 0.0


class TestClassifyRegime:
    def test_h3(self):
        assert classify_regime(ModelParams(m=2.0, q=1.0), 3) is Regime.H3

    def test_critical_classical_takes_precedence(self):
        # m = q = 1 sits inside the H4 bounds (1 + 0/(N+1) <= 1 <= 1)
        assert classify_regime(ModelParams(m=1.0, q=1.0), 3) is Regime.CRITICAL_CLASSICAL

    def test_h4(self):
        # q + (q-1)/(N+1) = 0.5 - 0.125 = 0.375 <= 0.4 <= 0.5
        assert classify_regime(ModelParams(m=0.4, q=0.5), 3) is Regime.H4

    def test_outside(self):
        assert classify_regime(ModelParams(m=0.2, q=0.9), 3) is Regime.OUTSIDE

    def test_h3_iff_m_greater_q_randomized(self):
        rng = np.random.default_rng(29)
        for _ in range(10_000):
            m = rng.uniform(0.01, 5.0)
            q = rng.uniform(0.01, 5.0)
            label = classify_regime(ModelParams(m=m, q=q), 3)
            assert (label is Regime.H3) == (m > q)


class TestInitialData:
    def test_constant_preset(self):
        data = make_initial_data(unit_square(), "constant", value=1.0)
        assert np.all(data.u0.values == 1.0)
        assert integrate(data.u0) == pytest.approx(1.0)

    def test_gaussian_normalized_mass(self):
        for mass in (0.5, 1.0, 37.0):
            data = make_initial_data(unit_square(32), "gaussian-bump",
                                     mass=mass, width=0.1)
            assert integrate(data.u0) == pytest.approx(mass, rel=1e-10)

    def test_two_bumps_mass_and_positivity(self):
        data = make_initial_data(unit_square(32), "gaussian-bump", mass=2.0, width=0.1,
                                 centers=[(0.3, 0.3), (0.7, 0.7)])
        assert integrate(data.u0) == pytest.approx(2.0, rel=1e-10)
        assert data.u0.min() >= 0.0

    def test_default_center_is_the_box_centre(self):
        g = GridSpec(dim=2, cells=(32, 24), extent=(1.0, 0.75))

        def u0(**values):
            return make_initial_data(g, "gaussian-bump", mass=2.0, width=0.1,
                                     **values).u0.values

        assert u0().tobytes() == u0(centers=[(0.5, 0.375)]).tobytes()

    def test_random_nonneg_reproducible(self):
        a = make_initial_data(unit_square(), "random-nonneg", seed=42)
        b = make_initial_data(unit_square(), "random-nonneg", seed=42)
        c = make_initial_data(unit_square(), "random-nonneg", seed=43)
        assert np.array_equal(a.u0.values, b.u0.values)
        assert not np.array_equal(a.u0.values, c.u0.values)

    def test_all_presets_nonnegative(self):
        for preset in ("constant", "gaussian-bump", "random-nonneg"):
            data = make_initial_data(unit_square(), preset, width=0.2)
            assert data.u0.min() >= 0.0
            assert data.v0.min() >= 0.0

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            make_initial_data(unit_square(), "gaussian-bump", mass=0.0, width=0.1)

    def test_rejects_under_resolved_width(self):
        # 16 cells on the unit square: h = 1/16, so width must reach 1/8
        with pytest.raises(ValueError):
            make_initial_data(unit_square(16), "gaussian-bump", mass=1.0, width=0.1)

    def test_center_outside_the_box(self):
        # a bump centred off the box keeps the mass its tail puts on the grid
        data = make_initial_data(unit_square(32), "gaussian-bump", mass=1.0, width=0.1,
                                 centers=[(-0.05, 0.5)])
        assert integrate(data.u0) == pytest.approx(1.0, rel=1e-10)

    def test_rejects_unknown_preset(self):
        with pytest.raises(ValueError):
            make_initial_data(unit_square(), "mystery", width=0.2)

    def test_v0_match_preset(self):
        data = make_initial_data(unit_square(), "constant", value=2.0,
                                 v0_preset="match")
        assert np.array_equal(data.v0.values, data.u0.values)

    def test_initial_data_rejects_negative(self):
        g = unit_square(4)
        from ksfv.grid import Field, constant_field
        with pytest.raises(ValueError):
            InitialData(u0=Field(g, np.full((4, 4), -1.0)), v0=constant_field(g, 0.0))
