import math
import sys

import numpy as np
import pytest

from ksfv.diagnostics import (DiagnosticsConfig, DiagnosticsTracker,
                              build_ladder, ladder_for_run, ladder_levels)
from ksfv.grid import Field, GridSpec, constant_field
from ksfv.kernels import default_s, exponent_ms_qs
from ksfv.model import ModelParams, make_initial_data
from ksfv.solver import SimState, StepControl, run


def unit_square(n=8):
    return GridSpec(dim=2, cells=(n, n), extent=(1.0, 1.0))


def state_of(u_vals, v_vals, grid, t=0.0):
    return SimState(u=Field(grid, u_vals), v=Field(grid, v_vals), t=t, step=0)


class TestTracker:
    def test_constant_state_values(self):
        g = unit_square()
        params = ModelParams(m=2.0, q=1.0, sigma=0.0)
        tracker = DiagnosticsTracker(params, DiagnosticsConfig(), constant_field(g, 1.0))
        rec = tracker.record(state_of(np.ones((8, 8)), np.ones((8, 8)), g))
        assert rec.sup_grad_v == 0.0
        assert rec.mass == pytest.approx(1.0)
        assert rec.energy_s == pytest.approx(1.0)  # u^(s+1) = 1 on the unit box
        assert rec.sup_u == 1.0
        assert rec.sup_v == 1.0

    def test_lp_at_one_equals_mass(self):
        rng = np.random.default_rng(71)
        g = unit_square()
        params = ModelParams(m=1.5, q=1.0)
        tracker = DiagnosticsTracker(params, DiagnosticsConfig(p_list=(1.0, 2.0)),
                                     constant_field(g, 0.0))
        rec = tracker.record(state_of(rng.uniform(0, 2, (8, 8)), np.zeros((8, 8)), g))
        assert rec.lp_u[1.0] == pytest.approx(rec.mass, rel=1e-13)

    def test_energy_with_explicit_s(self):
        g = unit_square()
        params = ModelParams(m=1.0, q=1.0)
        tracker = DiagnosticsTracker(params, DiagnosticsConfig(s=1),
                                     constant_field(g, 0.0))
        rec = tracker.record(state_of(np.full((8, 8), 2.0), np.zeros((8, 8)), g))
        assert rec.energy_s == pytest.approx(4.0)  # integral of u^2

    def test_default_s_and_p(self):
        params = ModelParams(m=2.0, q=1.0)
        tracker = DiagnosticsTracker(params, DiagnosticsConfig(), constant_field(unit_square(), 0.0))
        assert tracker.s == default_s(2.0, 1.0, 2)
        assert tracker.p_fr1 == 4.0  # N + 2 at N = 2
        assert tracker.p_fr1 > (tracker.N + 2) / 2.0

    def test_ratio_s14_nan_when_m_not_above_q(self):
        g = unit_square()
        params = ModelParams(m=1.0, q=1.0)
        tracker = DiagnosticsTracker(params, DiagnosticsConfig(), constant_field(g, 0.0))
        rec = tracker.record(state_of(np.ones((8, 8)), np.ones((8, 8)), g))
        assert math.isnan(rec.log_ratio_s14)

    def test_log_ratio_s14_is_finite_when_its_power_overflows(self):
        # gamma ~ 1/(m - q) = 2^10, so sup |grad v|^gamma = 100^gamma is
        # beyond the double range; its log is not, and sup u = 1
        g = unit_square()
        params = ModelParams(m=1.0 + 2.0 ** -10, q=1.0)
        tracker = DiagnosticsTracker(params, DiagnosticsConfig(), constant_field(g, 0.0))
        x = (np.arange(8) + 0.5) / 8
        rec = tracker.record(state_of(np.ones((8, 8)), np.tile(100.0 * x[:, None], (1, 8)), g))
        assert tracker.gamma > 1000 and rec.sup_grad_v == pytest.approx(100.0)
        assert rec.log_ratio_s14 == pytest.approx(-tracker.gamma * math.log(100.0), rel=1e-13)

    def test_energy_is_inf_when_its_power_overflows(self):
        # criterion 5's 128^2 bump at (m, q) = (40, 1): s = 117 and sup u0 =
        # 935, so the integral of u^(s+1) is itself beyond the double range
        # (its log exceeds ln(max double)), and energy_s is a genuine inf;
        # u^((m+s)/2) overflows too, and the record neither raises nor warns
        g = GridSpec(dim=2, cells=(128, 128), extent=(1.0, 1.0))
        init = make_initial_data(g, "gaussian-bump", mass=1.5 * 8.0 * math.pi, width=0.08)
        params = ModelParams(m=40.0, q=1.0, sigma=1e-3)
        tracker = DiagnosticsTracker(params, DiagnosticsConfig(), init.v0)
        rec = tracker.record(SimState(u=init.u0, v=init.v0, t=0.0, step=0))
        assert tracker.s == 117 and rec.sup_u == pytest.approx(935.27, rel=1e-5)
        sup, p = rec.sup_u, tracker.s + 1.0
        scaled = float(((init.u0.values / sup) ** p).sum() * g.cell_volume)
        assert p * math.log(sup) + math.log(scaled) > math.log(sys.float_info.max)
        assert rec.energy_s == math.inf
        assert math.isfinite(rec.mass) and rec.ratio_fr1 == 0.0

    @pytest.mark.parametrize("value", [10.0, 100.0])
    def test_power_integrals_finite_beyond_the_power_range(self, value):
        # u = value on 128^2 cells: u^305 per cell is 1e305 or 1e610, so a
        # plain sum overflows, but the L^305 norm is value, and at u = 10 the
        # energy integral of u^(s+1) = u^305 is 1e305 on the unit box
        g = GridSpec(dim=2, cells=(128, 128), extent=(1.0, 1.0))
        tracker = DiagnosticsTracker(ModelParams(m=2.0, q=1.0),
                                     DiagnosticsConfig(s=304, p_list=(1.0, 305.0)),
                                     constant_field(g, 0.0))
        rec = tracker.record(state_of(np.full((128, 128), value), np.zeros((128, 128)), g))
        assert rec.lp_u[305.0] == pytest.approx(value, rel=1e-14)
        assert rec.energy_s == (pytest.approx(1e305, rel=1e-13) if value == 10.0 else math.inf)

    def test_running_integrals_accumulate(self):
        g = unit_square()
        params = ModelParams(m=2.0, q=1.0)
        tracker = DiagnosticsTracker(params, DiagnosticsConfig(), constant_field(g, 0.0))
        u = np.ones((8, 8))
        tracker.record(state_of(u, np.zeros((8, 8)), g, t=0.0))
        rec1 = tracker.record(state_of(u, np.zeros((8, 8)), g, t=0.5))
        rec2 = tracker.record(state_of(u, np.zeros((8, 8)), g, t=1.0))
        # |grad of u^((m+s)/2)|^2 = 0 for constant u; u^(2p) integral grows linearly
        assert rec1.grad_energy_running == 0.0
        assert tracker._u2p_integral == pytest.approx(1.0)
        assert rec2 is not None


class TestLadder:
    def test_all_below_half_k(self):
        K = 4.0
        series = [np.full((4, 4), K / 4.0)] * 3
        lad = build_ladder([0.0, 0.5, 1.0], series, cell_volume=1 / 16.0,
                           K=K, n_max=5, m_s=3.0)
        assert all(a == 0.0 for a in lad.measures)
        assert all(y == 0.0 for y in lad.energies)

    def test_constant_at_k(self):
        K = 2.0
        n = 4
        vol = 1.0 / (n * n)
        series = [np.full((n, n), K)] * 3
        times = [0.0, 0.5, 1.0]
        m_s = 3.0
        lad = build_ladder(times, series, vol, K=K, n_max=4, m_s=m_s)
        V = 1.0 * 1.0  # unit square x unit time span
        for nn, (a, y) in enumerate(zip(lad.measures, lad.energies)):
            assert a == pytest.approx(V)
            assert y == pytest.approx((K / 2.0 ** (nn + 1)) ** m_s * V, rel=1e-12)

    def test_matches_resummation_oracle(self):
        rng = np.random.default_rng(73)
        n = 16
        vol = 1.0 / (n * n)
        times = sorted(rng.uniform(0, 1, 10).tolist())
        series = [rng.uniform(0, 3, (n, n)) for _ in times]
        K = 2.0
        m_s = 3.7
        lad = build_ladder(times, series, vol, K=K, n_max=6, m_s=m_s)
        for nn in range(7):
            kn = K - K / 2.0 ** (nn + 1)
            terms = []
            for j in range(len(times) - 1):
                w = times[j + 1] - times[j]
                for val in series[j].flatten().tolist():
                    if val > kn:
                        terms.append((val - kn) ** m_s * vol * w)
            oracle = math.fsum(terms)
            assert lad.energies[nn] == pytest.approx(oracle, rel=1e-12, abs=1e-300)

    def test_levels_structure(self):
        arr = np.ones((3, 3))
        lad = build_ladder([0.0, 1.0], [arr, arr], 1 / 9.0, K=8.0, n_max=6, m_s=2.0)
        ks = lad.levels
        assert ks[0] == 4.0  # K/2
        assert all(b > a for a, b in zip(ks, ks[1:]))
        assert all(4.0 <= k <= 8.0 for k in ks)

    def test_deepest_level_n_max_51(self):
        # a power-of-two factor on K scales every level exactly, so K across
        # one binade stands for every normal K: levels 0..51 stay strictly
        # increasing, and for some K a level 52 would repeat level 51
        rng = np.random.default_rng(89)
        Ks = [1.0, math.nextafter(2.0, 1.0), *rng.uniform(1.0, 2.0, 300)]
        one = np.ones((1, 1))
        repeats = 0
        for K in Ks:
            lad = build_ladder([0.0, 1.0], [one, one], 1.0, K=K, n_max=51, m_s=2.0)
            assert len(lad.levels) == 52 and lad.levels[-1] < K
            assert all(b > a for a, b in zip(lad.levels, lad.levels[1:]))
            repeats += K - K / 2.0 ** 53 <= lad.levels[-1]
        assert 0 < repeats < len(Ks)

    def test_domain_edges(self):
        # K down to the smallest normal double, whose levels are exact, and
        # n_max up to 51; one step past either edge is refused
        tiny = sys.float_info.min
        levels = ladder_levels(tiny, 51)
        assert levels[0] == tiny / 2.0 and levels[-1] < tiny
        assert all(b > a for a, b in zip(levels, levels[1:]))
        assert len(ladder_levels(1.0, 51)) == 52 and ladder_levels(1.0, 0) == (0.5,)
        for K in (math.nextafter(tiny, 0.0), 0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="ladder K must be finite and >= "
                                                 "2.2250738585072014e-308"):
                ladder_levels(K, 8)
        for n_max in (-1, 52):
            with pytest.raises(ValueError, match=rf"ladder n_max must be in \[0, 51\], "
                                                 rf"got {n_max}"):
                ladder_levels(1.0, n_max)

    def test_energy_finite_beyond_the_power_range(self):
        # excess 20 - 10 = 10 at level K_0 = 10, raised to m_s = 305 on 128^2
        # cells: 1e305 per cell overflows a plain sum; y_0 is 1e305, no warning
        u = np.full((128, 128), 20.0)
        lad = build_ladder([0.0, 1.0], [u, u], 1 / 128 ** 2, K=20.0, n_max=0, m_s=305.0)
        assert lad.energies[0] == pytest.approx(1e305, rel=1e-13)

    def test_monotone_energies_and_measures(self):
        rng = np.random.default_rng(79)
        times = [0.0, 0.3, 0.7, 1.0]
        series = [rng.uniform(0, 5, (8, 8)) for _ in times]
        lad = build_ladder(times, series, 1 / 64.0, K=3.0, n_max=8, m_s=4.0)
        assert all(y2 <= y1 for y1, y2 in zip(lad.energies, lad.energies[1:]))
        assert all(a2 <= a1 for a1, a2 in zip(lad.measures, lad.measures[1:]))

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            build_ladder([], [], 1.0, K=1.0, n_max=3, m_s=2.0)

    def test_k_twice_sup_gives_zero_energies(self):
        rng = np.random.default_rng(83)
        series = [rng.uniform(0, 1, (6, 6)) for _ in range(4)]
        sup = max(float(s.max()) for s in series)
        lad = build_ladder([0.0, 0.1, 0.2, 0.3], series, 1 / 36.0,
                           K=2.0 * sup, n_max=5, m_s=2.5)
        assert all(y == 0.0 for y in lad.energies)

    def test_decay_exponents_reported(self):
        times = [0.0, 1.0]
        arr = np.array([[4.0, 0.1], [0.1, 0.1]])
        series = [arr, arr]
        g_vol = 0.25
        lad = build_ladder(times, series, g_vol, K=4.0, n_max=3, m_s=2.0)
        pairs = list(zip(lad.energies, lad.energies[1:]))
        assert all(y2 <= y1 for y1, y2 in pairs)
        assert all(math.log(y2 / y1) <= 0.0 for y1, y2 in pairs if y1 > 0.0 and y2 > 0.0)

    def test_zero_ladder_has_no_exponents(self):
        z = np.zeros((3, 3))
        lad = build_ladder([0.0, 1.0], [z, z], 1 / 9.0, K=1.0,
                           n_max=3, m_s=2.0)
        # no decay exponent log(y_{n+1}/y_n) is defined
        assert not any(y1 > 0.0 and y2 > 0.0 for y1, y2 in zip(lad.energies, lad.energies[1:]))


class TestLadderForRun:
    def test_integrates_with_run(self):
        g = unit_square(12)
        init = make_initial_data(g, "gaussian-bump", mass=1.0, width=0.2)
        params = ModelParams(m=2.0, q=1.0, sigma=1e-3)
        cfg = DiagnosticsConfig(ladder_n_max=5, ladder_k_value=0.5)
        tracker = DiagnosticsTracker(params, cfg, init.v0)
        res = run(init, params, StepControl(), horizon=1e-3, samples=4,
                  sup_threshold_multiple=math.inf, tracker=tracker)
        lad = ladder_for_run(res.sample_times, res.u_samples, g.cell_volume,
                             params, cfg, res.running_max_sup_u)
        assert lad is not None
        expected_ms, _ = exponent_ms_qs(tracker.s, params.m, params.q, tracker.N)
        assert lad.m_s == expected_ms
        assert all(y2 <= y1 for y1, y2 in zip(lad.energies, lad.energies[1:]))

    def test_ratio_s14_finite_after_start_in_h3(self):
        # once v has developed a gradient, the sup-ratio proxy is finite
        g = unit_square(12)
        init = make_initial_data(g, "gaussian-bump", mass=1.0, width=0.2)
        params = ModelParams(m=2.0, q=1.0, sigma=1e-3)
        tracker = DiagnosticsTracker(params, DiagnosticsConfig(), init.v0)
        res = run(init, params, StepControl(), horizon=1e-3, samples=5,
                  sup_threshold_multiple=math.inf, tracker=tracker)
        assert res.termination == "reached_T"
        for rec in res.records[1:]:
            assert math.isfinite(rec.log_ratio_s14)
            assert math.isfinite(rec.sup_u)

    def test_records_emitted_by_run(self):
        g = unit_square(8)
        init = make_initial_data(g, "constant", value=1.0, v0_preset="match")
        params = ModelParams(m=2.0, q=1.0, sigma=1e-3)
        tracker = DiagnosticsTracker(params, DiagnosticsConfig(), init.v0)
        res = run(init, params, StepControl(), horizon=1e-3, samples=3,
                  sup_threshold_multiple=math.inf, tracker=tracker)
        assert len(res.records) == len(res.sample_times)
        first, last = res.records[0], res.records[-1]
        assert first.mass == pytest.approx(last.mass, rel=1e-12)
        assert first.sup_u == last.sup_u == 1.0


class TestConfigValidation:
    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            DiagnosticsConfig(p_list=(0.5,))

    def test_rejects_s_below_constraint(self):
        params = ModelParams(m=3.0, q=0.5)
        # m - 2q = 2, so s = 1 is inadmissible
        with pytest.raises(ValueError):
            DiagnosticsTracker(params, DiagnosticsConfig(s=1),
                               constant_field(unit_square(), 0.0))

    def test_rejects_small_p_fr1(self):
        params = ModelParams(m=2.0, q=1.0)
        with pytest.raises(ValueError):
            DiagnosticsTracker(params, DiagnosticsConfig(p_fr1=1.5),
                               constant_field(unit_square(), 0.0))
