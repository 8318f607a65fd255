import itertools
import math
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ksfv import solver
from ksfv.grid import (Field, GridSpec, _Laplacian, constant_field, face_gradient_sup,
                       grad_square_integral, integrate, lp_norm)
from ksfv.model import CRITICAL_MASS_2D, InitialData, ModelParams, make_initial_data
from ksfv.solver import (DT_COLLAPSED, MAX_STEPS, NONFINITE, REACHED_T,
                         SUP_THRESHOLD, WALL_BUDGET, SimState, StepControl, _cg, _Potential,
                         _ShiftedLaplaceInverse, _StepWork, _power, advance_v, run,
                         step)


def grid1d(n=8, L=1.0):
    return GridSpec(dim=1, cells=(n,), extent=(L,))


def grid2d(n=16):
    return GridSpec(dim=2, cells=(n, n), extent=(1.0, 1.0))


def state_from(u_vals, v_vals, grid):
    return SimState(u=Field(grid, u_vals), v=Field(grid, v_vals), t=0.0, step=0)


def diffusive_flux(u, params, axis):
    """-(w_R - w_L)/h on the interior faces along `axis`, w = (u+sigma)^m:
    the potential the step diffuses, differenced by the step's Laplacian and
    read from its face buffer (the +axis faces of all but the last cells)."""
    lap = _Laplacian(u.grid)
    lap(_Potential(params).w(u.values), np.empty(u.grid.cells))
    left, _ = axis_slices(u.grid.dim, axis)
    return -lap.diffs[axis].plus[left] * u.grid.spacing[axis]


def chemotactic_flux(u, v, params, axis):
    """The step's donor-cell face flux along `axis`, interior faces only:
    the face buffer _StepWork assembles it in, read right after."""
    _StepWork(u, v, params)
    left, _ = axis_slices(u.grid.dim, axis)
    return solver._workspace(u.grid).flux[axis][0].plus[left].copy()


class TestDiffusiveFlux:
    def test_constant_field_no_flux(self):
        g = grid2d(8)
        u = constant_field(g, 2.0)
        for axis in range(2):
            assert np.all(diffusive_flux(u, ModelParams(m=2.0, q=1.0, sigma=0.1), axis) == 0.0)

    def test_linear_case_independent_of_sigma(self):
        g = grid1d(8)
        rng = np.random.default_rng(5)
        u = Field(g, rng.uniform(0, 2, 8))
        f0 = diffusive_flux(u, ModelParams(m=1.0, q=1.0, sigma=0.0), 0)
        f5 = diffusive_flux(u, ModelParams(m=1.0, q=1.0, sigma=0.5), 0)
        np.testing.assert_allclose(f0, f5, atol=1e-14)

    def test_hand_value_m2(self):
        g = grid1d(3, 3.0)  # h = 1
        u = Field(g, np.array([1.0, 2.0, 2.0]))
        flux = diffusive_flux(u, ModelParams(m=2.0, q=1.0, sigma=0.0), 0)
        # -(u_R^2 - u_L^2)/h = -(4 - 1) = -3 on the first interior face
        np.testing.assert_allclose(flux, [-3.0, 0.0])

    def test_degenerate_face_zero_flux(self):
        # m > 1 and sigma = 0: faces between empty cells carry no flux
        g = grid1d(4, 4.0)
        u = Field(g, np.array([0.0, 0.0, 1.0, 1.0]))
        flux = diffusive_flux(u, ModelParams(m=2.0, q=1.0, sigma=0.0), 0)
        assert flux[0] == 0.0

    def test_sigma_monotone_magnitude_for_m_above_one(self):
        g = grid1d(3, 3.0)
        u = Field(g, np.array([1.0, 2.0, 2.0]))
        mags = []
        for sigma in (0.0, 0.1, 0.5, 0.9):
            f = diffusive_flux(u, ModelParams(m=2.0, q=1.0, sigma=sigma), 0)
            mags.append(abs(f[0]))
        assert all(b >= a for a, b in zip(mags, mags[1:]))


class TestChemotacticFlux:
    def test_flat_v_no_flux(self):
        g = grid2d(8)
        u = constant_field(g, 1.0)
        v = constant_field(g, 3.0)
        for axis in range(2):
            assert np.all(chemotactic_flux(u, v, ModelParams(m=1.0, q=1.0), axis) == 0.0)

    def test_upwind_donor_selection(self):
        g = grid1d(3, 3.0)  # h = 1
        u = Field(g, np.array([1.0, 0.0, 0.0]))
        v = Field(g, np.array([0.0, 1.0, 1.0]))
        flux = chemotactic_flux(u, v, ModelParams(m=1.0, q=1.0), 0)
        # gradient +1 on the first face: donor is the left cell (u=1)
        assert flux[0] == pytest.approx(1.0)

    def test_empty_donor_no_drain(self):
        g = grid1d(3, 3.0)
        u = Field(g, np.array([0.0, 0.0, 5.0]))
        v = Field(g, np.array([0.0, 1.0, 2.0]))
        flux = chemotactic_flux(u, v, ModelParams(m=1.0, q=0.5), 0)
        assert flux[0] == 0.0  # donor cell empty: 0^q = 0


class TestComputeDt:
    # Diffusion is implicit, so no h^2 cap applies; dt = safety * min(
    # chemotactic bound, sup u / (2 dim sup |du/dt|), dt_max).

    def test_zero_state_formula(self):
        # empty state: no flux and no rate of change, only dt_max binds
        g = grid2d(8)
        params = ModelParams(m=2.0, q=1.0, sigma=1e-2)
        ctrl = StepControl(safety=0.4, dt_max=10.0)
        st = state_from(np.zeros((8, 8)), np.zeros((8, 8)), g)
        assert _StepWork(st.u, st.v, params).dt(ctrl) == pytest.approx(0.4 * 10.0, rel=1e-12)

    def test_resolution_doubling_quarters_diffusive_dt(self):
        # one-cell bump of height 2 on u = 1, v = 0: the diffusive rate peaks
        # at the bump, 2*dim*((2+s)^2 - (1+s)^2)/h^2, so the accuracy bound
        # sup u / (2 dim sup |du/dt|) of this grid-scale feature scales
        # with h^2
        params = ModelParams(m=2.0, q=1.0, sigma=0.1)
        ctrl = StepControl(dt_max=1e9)
        dts = []
        for n in (16, 32):
            g = grid2d(n)
            vals = np.full((n, n), 1.0)
            vals[n // 2, n // 2] = 2.0
            st = state_from(vals, np.zeros((n, n)), g)
            dts.append(_StepWork(st.u, st.v, params).dt(ctrl))
            h = g.spacing[0]
            rate = 4 * ((2.0 + 0.1) ** 2 - (1.0 + 0.1) ** 2) / h ** 2
            assert dts[-1] == pytest.approx(0.4 * 2.0 / (4 * rate), rel=1e-12)
        assert dts[0] / dts[1] == pytest.approx(4.0, rel=1e-12)

    def test_dt_decreases_with_sup_u_for_m_above_one(self):
        g = grid1d(16)
        h = g.spacing[0]
        params = ModelParams(m=2.0, q=1.0, sigma=0.0)
        ctrl = StepControl(dt_max=1e9)
        prev = math.inf
        for peak in (1.0, 10.0, 100.0, 1000.0):
            vals = np.full(16, 0.1)
            vals[8] = peak
            st = state_from(vals, np.zeros(16), g)
            dt = _StepWork(st.u, st.v, params).dt(ctrl)
            # sup |du/dt| = 2 (peak^2 - 0.1^2) / h^2 at the peak cell
            assert dt == pytest.approx(0.4 * peak * h * h / (2 * 2 * (peak ** 2 - 0.01)),
                                       rel=1e-12)
            assert dt < prev
            prev = dt

    def test_outflow_budget_protects_content(self):
        # one nearly-empty cell next to a steep v gradient: the outflow bound
        # keeps its outgoing flux * dt below its content
        g = grid1d(4, 4.0)
        u_vals = np.array([1e-6, 1.0, 1.0, 1.0])
        v_vals = np.array([10.0, 0.0, 0.0, 0.0])
        params = ModelParams(m=1.0, q=0.5, sigma=0.0)
        ctrl = StepControl(safety=0.4, dt_max=1e9)
        st = state_from(u_vals, v_vals, g)
        dt = _StepWork(st.u, st.v, params).dt(ctrl)
        outcome = step(st, params, ctrl)
        assert dt > 0
        assert outcome.state.u.min() >= 0.0

    def test_half_step_at_full_safety_stays_nonnegative(self):
        # v has a V-shaped minimum at cell 3, so cell 3 emits on both faces,
        # sets the outflow bound, and dt * out_rate equals its content up to
        # rounding at safety = 1; without the clip the half-step rounds to
        # -1.4e-17, and with sigma = 0 the potential of a negative cell is nan
        g = grid1d(5, 0.5895310498242319)
        u_vals = np.array([0.3346913534128531, 0.13751534194996284, 0.3309064525990087,
                           0.11869262140858404, 0.9444052957502216])
        v_vals = np.array([17.685931494726958, 11.790620996484638, 5.895310498242321,
                           0.0, 5.895310498242321])
        params = ModelParams(m=1.5, q=1.0, sigma=0.0)
        ctrl = StepControl(safety=1.0)
        st = state_from(u_vals, v_vals, g)
        work = _StepWork(st.u, st.v, params)
        # |grad v| = 50 on every face, so out_rate_3 = 2 * 50 u_3 / h
        assert work.out_rate[3] == pytest.approx(100.0 * u_vals[3] / g.spacing[0], rel=1e-14)
        assert work.dt(ctrl) == ctrl.safety * u_vals[3] / work.out_rate[3]
        assert work.chemotaxis_update(work.dt(ctrl)).min() >= 0.0
        out = step(st, params, ctrl)
        assert np.isfinite(out.state.u.values).all()
        assert out.state.u.min() >= 0.0
        assert out.stop is None

    @pytest.mark.parametrize("dim", [1, 2])
    def test_outflow_bound_caps_outflow(self, dim):
        # random states on non-square cells, half of them with v V-shaped
        # around a cell: at the step's dt each cell emits at most safety
        # times its content, the half-step is nonnegative, the bound is
        # attained by some cell when it binds, and it is never below the
        # face-speed bound h_min / (2 dim max u_donor^(q-1) |dv|)
        eps = np.finfo(float).eps
        rng = np.random.default_rng(31 + dim)
        for k in range(1500):
            cells = tuple(int(n) for n in rng.integers(3, 9, dim))
            extent = tuple(float(x) for x in rng.uniform(0.5, 2.0, dim))
            g = GridSpec(dim=dim, cells=cells, extent=extent)
            u = rng.uniform(0.0, 1.0, cells) * (rng.uniform(size=cells) < 0.9)
            scale = float(rng.choice([0.2, 1.0, 5.0, 50.0]))
            if k % 2:
                centre = [int(rng.integers(0, n)) for n in cells]
                index = np.indices(cells)
                v = scale * sum(np.abs(index[a] - centre[a]) * g.spacing[a] for a in range(dim))
            else:
                v = scale * rng.uniform(0.0, 1.0, cells)
            params = ModelParams(m=float(rng.choice([1.0, 1.5, 2.5])),
                                 q=float(rng.choice([1.0, rng.uniform(0.25, 2.0)])),
                                 sigma=0.0)
            safety = float(rng.choice([1.0, 0.4, rng.uniform(0.1, 1.0)]))
            work = _StepWork(Field(g, u), Field(g, v), params)
            dt = work.dt(StepControl(safety=safety, dt_max=1e3))
            assert (dt * work.out_rate <= safety * u * (1.0 + 4.0 * eps)).all()
            assert work.chemotaxis_update(dt).min() >= 0.0
            dt_chem = work.dt_advection()
            if dt_chem <= min(work.dt_accuracy(), 1e3):
                assert (dt * work.out_rate >= safety * u * (1.0 - 4.0 * eps)).any()
            speed = 0.0
            for a in range(dim):
                n = cells[a]
                dv = np.diff(v, axis=a) / g.spacing[a]
                donor = np.where(dv > 0.0, u.take(range(n - 1), axis=a),
                                 u.take(range(1, n), axis=a))
                with np.errstate(divide="ignore", invalid="ignore"):
                    sp = np.where(donor > 0.0, donor ** (params.q - 1.0) * np.abs(dv), 0.0)
                speed = max(speed, float(sp.max()))
            if speed > 0.0:
                assert dt_chem >= min(g.spacing) / (2 * dim * speed) * (1.0 - 4.0 * eps)


class TestConservativeUpdate:
    def test_any_face_fluxes_conserve_mass(self):
        # the step's explicit chemotaxis update on random u, v: every face
        # flux leaves one cell and enters its neighbour
        rng = np.random.default_rng(23)
        g = GridSpec(dim=2, cells=(12, 9), extent=(1.1, 0.9))
        u = Field(g, rng.uniform(0, 2, (12, 9)))
        v = Field(g, rng.uniform(0, 1, (12, 9)))
        work = _StepWork(u, v, ModelParams(m=1.5, q=0.8))
        before = integrate(u)
        after = integrate(Field(g, work.chemotaxis_update(1e-3)))
        assert after == pytest.approx(before, rel=1e-12)


class TestFluxUpdate:
    def test_limiter_keeps_mass_and_positivity(self):
        # a potential far off the solve (middle cell emits 2 while holding
        # 1e-12) would drive the plain flux form negative; the limited update
        # keeps every cell nonnegative and the mass of r
        g = grid1d(3, 3.0)  # h = 1
        st = state_from(np.ones(3), np.zeros(3), g)
        work = _StepWork(st.u, st.v, ModelParams(m=1.0, q=1.0))
        r = np.array([1.0, 1e-12, 1.0])
        w = np.array([0.0, 1.0, 0.0])
        u1 = work.flux_update(r, w, work.lap(w, np.empty(3)), 1.0)
        assert u1.min() >= 0.0
        assert u1.sum() == pytest.approx(r.sum(), rel=1e-15)
        assert u1[1] == pytest.approx(0.5e-12, rel=1e-12)


# The flat face layout's hazards, on a 1-D grid and on 2-D grids with one,
# a few and many rows of each length.
LAYOUT_GRIDS = [
    pytest.param(GridSpec(dim=1, cells=(200,), extent=(1.0,)), id="1d-200"),
    pytest.param(GridSpec(dim=2, cells=(3, 3), extent=(1.0, 1.0)), id="3x3"),
    pytest.param(GridSpec(dim=2, cells=(128, 48), extent=(1.0, 3.0)), id="128x48"),
    pytest.param(GridSpec(dim=2, cells=(128, 128), extent=(1.0, 1.0)), id="128x128"),
]


def axis_slices(dim, axis):
    left = tuple(slice(0, -1) if k == axis else slice(None) for k in range(dim))
    right = tuple(slice(1, None) if k == axis else slice(None) for k in range(dim))
    return left, right


def slice_laplacian(x, grid):
    """The Laplacian in the per-axis slice formulation, as an oracle: each
    axis term is (right face - left face) over the interior faces, and the
    terms are summed in axis order."""
    for axis, h in enumerate(grid.spacing):
        left, right = axis_slices(grid.dim, axis)
        g = (x[right] - x[left]) * (1.0 / h ** 2)
        term = np.zeros(grid.cells)
        term[left] = g
        term[right] -= g
        out = term if axis == 0 else out + term
    return out


def slice_rates(u, v, grid, q):
    """The chemotactic outflow and inflow rates in the per-axis slice
    formulation, as an oracle."""
    out_rate, in_rate = np.zeros(grid.cells), np.zeros(grid.cells)
    uq = _power(u, q)
    for axis, h in enumerate(grid.spacing):
        left, right = axis_slices(grid.dim, axis)
        dv = (v[right] - v[left]) * (1.0 / h)
        F = np.where(dv > 0.0, uq[left], uq[right]) * dv
        Fp = np.maximum(F, 0.0)
        Fm = Fp - F
        Fp *= 1.0 / h
        Fm *= 1.0 / h
        out_rate[left] += Fp
        out_rate[right] += Fm
        in_rate[left] += Fm
        in_rate[right] += Fp
    return out_rate, in_rate


def slice_limiter(r, w, lw, dt, grid):
    """_StepWork.flux_update in the per-axis slice formulation, as an
    oracle."""
    u1 = r + dt * lw
    amounts, outflow = [], np.zeros(grid.cells)
    for axis, h in enumerate(grid.spacing):
        left, right = axis_slices(grid.dim, axis)
        A = (w[left] - w[right]) * (dt / h ** 2)
        outflow[left] += np.maximum(A, 0.0)
        outflow[right] += np.maximum(-A, 0.0)
        amounts.append(A)
    with np.errstate(divide="ignore", invalid="ignore"):
        cap = np.where(outflow > 0.0, np.clip(0.5 * r / outflow, 0.0, 1.0), 1.0)
    limited = np.zeros(grid.cells, dtype=bool)
    while True:
        newly = (u1 < 0.0) & ~limited
        if not newly.any():
            return u1
        limited |= newly
        theta = np.where(limited, cap, 1.0)
        u1, inflow = r.copy(), np.zeros(grid.cells)
        for axis, A in enumerate(amounts):
            left, right = axis_slices(grid.dim, axis)
            moved = A * np.where(A > 0.0, theta[left], theta[right])
            out_l, out_r = np.maximum(moved, 0.0), np.maximum(-moved, 0.0)
            u1[left] -= out_l
            u1[right] -= out_r
            inflow[left] += out_r
            inflow[right] += out_l
        u1 += inflow


def diff_monitors(x, grid):
    """face_gradient_sup and grad_square_integral in the per-axis np.diff
    formulation, as an oracle: each axis's gradients (x_R - x_L)/h fill an
    array of one more face along the axis, with zero boundary faces."""
    grad_sups, grad_sq = [], 0.0
    for axis, h in enumerate(grid.spacing):
        shape = list(grid.cells)
        shape[axis] += 1
        g = np.zeros(shape)
        g[tuple(slice(1, -1) if k == axis else slice(None) for k in range(grid.dim))] = \
            np.diff(x, axis=axis) / h
        grad_sups.append(float(np.abs(g).max()))
        grad_sq += float((g * g).sum() * grid.cell_volume)
    return max(grad_sups), grad_sq


def layout_data(grid, kind, seed=0):
    """u >= 0 and v on the grid: uniform random, or with inf and nan
    sprinkled into both, or with empty cells and ties in v."""
    rng = np.random.default_rng(seed)
    u, v = rng.uniform(0, 2, grid.cells), rng.uniform(0, 2, grid.cells)
    if kind == "nonfinite":
        for x, values in ((u, (np.inf, np.nan)), (v, (np.inf, -np.inf, np.nan))):
            for value in values:
                x.flat[rng.integers(0, x.size, 3)] = value
    elif kind == "ties":
        u[rng.uniform(size=grid.cells) < 0.5] = 0.0
        v = np.round(v)
    return u, v


def step_rates(u, v, grid, q):
    work = _StepWork(Field._adopt(grid, u.copy()), Field._adopt(grid, v.copy()),
                     ModelParams(m=2.0, q=q, sigma=0.01))
    return work.out_rate.copy(), work.in_rate.copy()


class TestFaceLayout:
    @pytest.mark.parametrize("kind", ["random", "nonfinite", "ties"])
    @pytest.mark.parametrize("grid", LAYOUT_GRIDS)
    def test_kernels_match_slice_oracle_bit_for_bit(self, grid, kind):
        u, v = layout_data(grid, kind)
        # a ramp: zero second differences, but a one-sided difference at a
        # boundary cell would not be zero
        ramp = np.indices(grid.cells).sum(axis=0) * 1.0
        with np.errstate(all="ignore"):
            for x in (u, v, ramp):
                lx = _Laplacian(grid)(x, np.empty(grid.cells))
                assert lx.tobytes() == slice_laplacian(x, grid).tobytes()
                # the diagnostics' monitors; on the last axis of a 2-D grid
                # the layout sums its zero faces in another order
                ref_sup, ref_sq = diff_monitors(x, grid)
                f = Field._adopt(grid, x.copy())
                assert repr(face_gradient_sup(f)) == repr(ref_sup)
                if grid.dim == 1:
                    assert repr(grad_square_integral(grid, x)) == repr(ref_sq)
                else:
                    assert grad_square_integral(grid, x) == pytest.approx(ref_sq, rel=1e-14,
                                                                          nan_ok=True)
            for q in (1.0, 0.5, 2.0):
                out_rate, in_rate = step_rates(u, v, grid, q)
                ref_out, ref_in = slice_rates(u, v, grid, q)
                assert out_rate.tobytes() == ref_out.tobytes()
                assert in_rate.tobytes() == ref_in.tobytes()

    @pytest.mark.parametrize("grid", LAYOUT_GRIDS)
    def test_limiter_matches_slice_oracle_bit_for_bit(self, grid):
        # a potential far off any solve drives many cells of r + dt lap_h w
        # negative, so flux_update runs its limiter passes
        rng = np.random.default_rng(1)
        r, w = rng.uniform(0, 1e-3, grid.cells), rng.uniform(0, 1, grid.cells)
        work = _StepWork(Field(grid, r), Field(grid, np.zeros(grid.cells)), ModelParams(m=1.0, q=1.0))
        lw = _Laplacian(grid)(w, np.empty(grid.cells))
        for dt in (1e-3, 1e-1):
            assert float((r + dt * lw).min()) < 0.0
            u1 = work.flux_update(r, w, lw, dt)
            assert u1.tobytes() == slice_limiter(r, w, lw, dt, grid).tobytes()
            assert u1.min() >= 0.0

    @pytest.mark.parametrize("grid", LAYOUT_GRIDS)
    def test_row_end_jump_moves_nothing(self, grid):
        # data constant along the last axis, jumping by 1e6 from each row to
        # the next: the row-end pairs (i, n1-1), (i+1, 0) differ, but no
        # face joins them, so nothing moves along the last axis
        rows = 1e6 * (np.arange(grid.cells[0]) % 2)
        u = np.broadcast_to(rows[:, None] if grid.dim == 2 else 1.0, grid.cells).copy()
        v = 3.0 * u
        lap = _Laplacian(grid)
        lu = lap(u, np.empty(grid.cells))
        out_rate, in_rate = step_rates(u, v, grid, 1.0)
        assert not lap.diffs[-1].faces.any()
        assert not solver._workspace(grid).flux[-1][0].faces.any()
        assert lu.tobytes() == slice_laplacian(u, grid).tobytes()
        ref_out, ref_in = slice_rates(u, v, grid, 1.0)
        assert out_rate.tobytes() == ref_out.tobytes()
        assert in_rate.tobytes() == ref_in.tobytes()

    @pytest.mark.parametrize("column", [-1, 0])
    @pytest.mark.parametrize("grid", LAYOUT_GRIDS)
    def test_inf_does_not_cross_row_end(self, grid, column):
        # an inf in the last column (or the first) leaves the first column
        # (or the last) exactly as it was: no wrap face carries it there
        u, v = layout_data(grid, "random")
        far = 0 if column == -1 else -1
        clean_lap = _Laplacian(grid)(u, np.empty(grid.cells))
        clean = step_rates(u, v, grid, 0.5)
        u[..., column] = np.inf
        v[..., column] = np.inf
        with np.errstate(all="ignore"):
            lu = _Laplacian(grid)(u, np.empty(grid.cells))
            rates = step_rates(u, v, grid, 0.5)
        assert lu[..., far].tobytes() == clean_lap[..., far].tobytes()
        for rate, clean_rate in zip(rates, clean):
            assert np.isfinite(rate[..., far]).all()
            assert rate[..., far].tobytes() == clean_rate[..., far].tobytes()

    @pytest.mark.parametrize("grid", LAYOUT_GRIDS)
    def test_laplacian_mirror_symmetric_bit_for_bit(self, grid):
        # input symmetric under each axis flip gives output symmetric under
        # it, bit for bit, also on a non-square grid
        x = layout_data(grid, "random")[0]
        for axis in range(grid.dim):
            x = x + np.flip(x, axis)
        lx = _Laplacian(grid)(x, np.empty(grid.cells))
        for axis in range(grid.dim):
            assert lx.tobytes() == np.flip(lx, axis).tobytes()


def neumann_laplacian_2d(n):
    """Dense cell-centred Neumann 5-point Laplacian on the unit square, n^2
    cells, row-major."""
    D = np.zeros((n, n))
    for i in range(n - 1):
        D[i, i] -= 1.0
        D[i + 1, i + 1] -= 1.0
        D[i, i + 1] += 1.0
        D[i + 1, i] += 1.0
    D *= n * n
    I = np.eye(n)
    return np.kron(D, I) + np.kron(I, D)


class TestDiffusionUpdate:
    """The Newton solve of u(w) - dt lap_h w = r that step() runs."""

    def solve(self, n, m, dt, mass, width, tol=StepControl.v_solve_tol):
        g = grid2d(n)
        init = make_initial_data(g, "gaussian-bump", mass=mass, width=width)
        params = ModelParams(m=m, q=1.0, sigma=1e-3)
        work = _StepWork(init.u0, init.v0, params)
        r = init.u0.values.copy()
        ctrl = StepControl(v_solve_tol=tol)
        return (g, params, ctrl, r) + work.diffusion_update(r, dt, ctrl)

    # v_solve_tol from 1e-4 to 1e-12 in half decades: over the ladder the
    # last accepted residual falls anywhere below tol, so that a solve
    # stopping at a loosened threshold ends above tol on some rungs (the
    # default tolerance alone lands 1e2 to 1e3 below it).  The default rung
    # keeps the plain `[m]` id.
    @pytest.mark.parametrize("m,tol", [
        pytest.param(m, tol, id=str(m) if tol == StepControl.v_solve_tol else f"{m}-{tol:.1e}")
        for m in (1.5, 2.0) for tol in (10.0 ** (-k / 2) for k in range(8, 25))])
    def test_outer_residual_meets_tolerance(self, m, tol):
        # a supercritical bump (sup 900) at a large dt needs several
        # corrections; the loose inner solves must not loosen the outer test
        g, params, ctrl, r, w, lw, corrections, cg_iters = self.solve(
            32, m, 0.1, 1.5 * 8 * math.pi, 0.08, tol)
        assert w is not None
        assert corrections > 1 and cg_iters >= corrections
        pot = _Potential(params)
        # the returned lap_h w is the accepting residual test's, bit for bit
        assert lw.tobytes() == _Laplacian(g)(w, np.empty_like(w)).tobytes()
        res = pot.u(w) - r - 0.1 * lw
        assert np.isfinite(pot.du_dw(w)).all()  # sigma > 0: no pinned cell
        assert np.linalg.norm(res) <= ctrl.v_solve_tol * (1.0 + np.linalg.norm(r))

    @pytest.mark.parametrize("m", [1.5, 2.0])
    def test_matches_dense_newton(self, m):
        n, dt = 12, 0.05
        g, params, _, r, w, *_ = self.solve(n, m, dt, 5.0, 0.2)
        L = neumann_laplacian_2d(n)
        rf, s = r.ravel(), params.sigma
        ref = (rf + s) ** m
        for _ in range(50):
            F = (ref ** (1.0 / m) - s) - rf - dt * (L @ ref)
            if np.linalg.norm(F) <= 1e-14 * (1.0 + np.linalg.norm(rf)):
                break
            ref -= np.linalg.solve(np.diag(ref ** (1.0 / m - 1.0) / m) - dt * L, F)
        else:
            pytest.fail("dense Newton reference did not converge")
        assert np.abs(w.ravel() - ref).max() <= 1e-8 * np.abs(ref).max()

    def test_linear_potential_one_correction_one_iteration(self):
        # at m = 1 the correction is the exact inverse of I - dt lap_h
        # applied once, with no CG
        *_, w, _, corrections, cg_iters = self.solve(32, 1.0, 0.1, 1.5 * 8 * math.pi, 0.08)
        assert w is not None
        assert (corrections, cg_iters) == (1, 0)

    def test_linear_potential_matches_dense_solve(self):
        n, dt = 12, 0.05
        g, _, _, r, w, lw, _, _ = self.solve(n, 1.0, dt, 5.0, 0.2)
        ref = np.linalg.solve(np.eye(n * n) - dt * neumann_laplacian_2d(n), r.ravel())
        assert np.abs(w.ravel() - ref).max() <= 1e-12 * np.abs(ref).max()
        assert lw.tobytes() == _Laplacian(g)(w, np.empty_like(w)).tobytes()


def newton_operator(grid, d, dt, active):
    """x -> d x - dt lap_h x, zero outside `active` (None: every cell), in
    the operation order of diffusion_update's apply_J."""
    lap, tmp = _Laplacian(grid), np.empty(grid.cells)

    def apply_J(x, out):
        lap(x, out)
        out *= -dt
        out += np.multiply(d, x, out=tmp)
        if active is not None:
            out *= active
        return out

    return apply_J


def newton_systems(monkeypatch, u_vals, grid, m=2.0, sigma=1e-3, dt=0.01):
    """The (preconditioner, rhs, operator) of every CG solve that one
    diffusion_update at r = u hands to _cg; each preconditioner keeps its d
    as `d`.  The recorded operator is built from that correction's own d
    and mask: diffusion_update's apply_J reads the workspace's, which the
    next correction overwrites."""
    systems = []

    class Recording(solver._NewtonPreconditioner):
        def __init__(self, grid, d, dt, active=None):
            super().__init__(grid, d, dt, active)
            self.d = d.copy()
            # what it reads from the workspace, which the next correction
            # overwrites, as it was when CG applied it
            self.ds = [dk.copy() for dk in self.ds]
            self.weights = [wk.copy() for wk in self.weights]
            if active is not None:
                self.active = active.copy()
            # the coarsest level's scaled inverse keeps its scale and
            # inverse eigenvalues in that level's workspace arrays
            coarsest = self.levels[-1]
            self.kept = [(a, a.copy()) for a in (coarsest.scale, coarsest.inv_denom)]

        def __call__(self, r, out=None):
            for a, kept in self.kept:
                np.copyto(a, kept)
            return super().__call__(r, out)

    def recording_cg(apply_A, rhs, tol, max_iters, precond, vecs):
        apply_J = newton_operator(grid, precond.d, precond.dt, precond.active)
        assert (apply_J(rhs, np.empty(grid.cells)).tobytes()
                == apply_A(rhs, np.empty(grid.cells)).tobytes())
        systems.append((precond, rhs.copy(), apply_J))
        return _cg(apply_A, rhs, tol, max_iters, precond, vecs)

    monkeypatch.setattr(solver, "_NewtonPreconditioner", Recording)
    monkeypatch.setattr(solver, "_cg", recording_cg)
    u = Field(grid, u_vals)
    work = _StepWork(u, constant_field(grid, 0.0), ModelParams(m=m, q=1.0, sigma=sigma))
    w, *_ = work.diffusion_update(u.values.copy(), dt, StepControl())
    assert w is not None and systems
    return systems


def bump(grid, width=0.08, centre=(0.5, 0.5)):
    xs, ys = grid.cell_centers(0), grid.cell_centers(1)
    return 100.0 * np.exp(-((xs[:, None] - centre[0]) ** 2
                            + (ys[None, :] - centre[1]) ** 2) / (2 * width ** 2))


def peaked_bump(grid):
    """bump(grid) on a 2-D grid, its 1-D profile on a 1-D one."""
    if grid.dim == 2:
        return bump(grid)
    x = grid.cell_centers(0)
    return 100.0 * np.exp(-((x - 0.5) ** 2) / (2 * 0.08 ** 2))


class TestNewtonPreconditioner:
    """The V-cycle that preconditions the m != 1 Newton corrections, as
    diffusion_update builds it."""

    @pytest.mark.parametrize("cells", [(128, 128), (128, 64), (32, 32), (64, 64)])
    def test_symmetric_positive_definite(self, monkeypatch, cells):
        g = GridSpec(dim=2, cells=cells, extent=(1.0, 1.0))
        rng = np.random.default_rng(1)
        for P, _, _ in newton_systems(monkeypatch, bump(g, centre=(0.4, 0.55)), g):
            # the bump's d spans far more than _MG_SPREAD: every correction
            # takes all of the grid's levels
            assert len(P.levels) == len(solver._workspace(g).levels) > 1
            for _ in range(3):
                x, y = rng.normal(size=cells), rng.normal(size=cells)
                xPy, yPx = float(np.vdot(x, P(y))), float(np.vdot(y, P(x)))
                assert abs(xPy - yPx) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(P(y))
                assert float(np.vdot(x, P(x))) > 0.0

    @pytest.mark.parametrize("n, uniform", [(16, False), (128, False), (128, True), (64, False)],
                             ids=["16", "128", "128-uniform-support", "64"])
    def test_pinned_cells_map_to_zero(self, monkeypatch, n, uniform):
        # sigma = 0 at m = 2: du/dw is infinite where u = 0, so those
        # cells are pinned and the preconditioner must leave them at zero
        g = grid2d(n)
        u = bump(g)
        u[u < 1.0] = 0.0
        if uniform:
            u[u > 0.0] = 1.0
        rng = np.random.default_rng(2)
        systems = newton_systems(monkeypatch, u, g, sigma=0.0)
        if uniform:
            # d is uniform on the active cells: the first correction takes
            # one level, however many the grid has
            assert len(systems[0][0].levels) == 1
        for P, _, _ in systems:
            z = P(rng.normal(size=g.cells))
            assert np.isfinite(z).all()
            assert not z[u == 0.0].any()
            assert z[u > 0.0].any()

    @pytest.mark.parametrize("cells, depth", [
        ((16, 16), 1), ((32, 32), 2), ((48, 48), 3), ((64, 64), 3), ((128, 128), 4),
        ((128, 48), 4), ((129, 129), 1), ((200,), 1),
    ], ids=["16", "32", "48", "64", "128", "128x48", "129", "1d"])
    def test_depth_follows_the_grid_for_a_peaked_bump(self, monkeypatch, cells, depth):
        # d spans far more than _MG_SPREAD, so the grid alone sets the depth:
        # halved while every axis is even and a level has more than 16^2
        # cells (48^2 -> 24^2 -> 12^2, 128x48 -> 16x6)
        g = GridSpec(dim=len(cells), cells=cells, extent=(1.0,) * len(cells))
        for P, _, _ in newton_systems(monkeypatch, peaked_bump(g), g):
            assert len(P.levels) == depth

    @pytest.mark.parametrize("grid, base", [
        (GridSpec(dim=2, cells=(129, 129), extent=(1.0, 1.0)), 0.0),   # odd
        (GridSpec(dim=2, cells=(16, 16), extent=(1.0, 1.0)), 0.0),     # the coarsest size
        (GridSpec(dim=1, cells=(200,), extent=(1.0,)), 0.0),
        # a 4-level grid, but d = du/dw varies by less than _MG_SPREAD
        (GridSpec(dim=2, cells=(128, 128), extent=(1.0, 1.0)), 50.0),
    ], ids=["odd", "16", "1d", "128-nearly-uniform"])
    def test_one_level_is_the_scaled_cosine_inverse(self, monkeypatch, grid, base):
        # a grid that does not coarsen, or a nearly uniform d, gets exactly
        # the cosine-basis preconditioner S (alpha - dt beta lap_h)^(-1) S
        u = base + peaked_bump(grid)
        dt, m, sigma = 0.01, 2.0, 1e-3
        rng = np.random.default_rng(3)
        for P, rhs, _ in newton_systems(monkeypatch, u, grid, m, sigma, dt):
            assert len(P.levels) == 1
            d, n = P.d, grid.num_cells
            inv_diag = 1.0 / (d + dt * _Laplacian(grid).diag)
            shifted = _ShiftedLaplaceInverse(grid, float((d * inv_diag).sum()) / n,
                                             dt * float(inv_diag.sum()) / n,
                                             [np.empty(grid.cells) for _ in range(3)])
            scale = np.sqrt(inv_diag)
            for r in (rhs, rng.normal(size=grid.cells)):
                assert P(r).tobytes() == (scale * shifted(scale * r)).tobytes()

    def test_iterations_per_correction(self):
        # the bounded-side bump at 128^2, m = 2, to t = 0.05: the V-cycle,
        # taken while d varies by more than _MG_SPREAD, keeps each correction
        # to a few CG iterations (1.7 here; 12.3 with the cosine
        # preconditioner alone in every correction)
        g = grid2d(128)
        init = make_initial_data(g, "gaussian-bump", mass=1.5 * CRITICAL_MASS_2D, width=0.08)
        res = run(init, ModelParams(m=2.0, q=1.0, sigma=1e-3), StepControl(),
                  horizon=0.05, samples=2, sup_threshold_multiple=math.inf)
        assert res.termination == REACHED_T
        assert res.newton_corrections >= res.steps > 5
        assert res.u_solve_iters <= 4 * res.newton_corrections

    def test_iterations_per_correction_64(self):
        # the same bump at 64^2, as the phase sweep's (2, 1) point runs it:
        # its V-cycle coarsens to 16^2 and keeps a correction to 1.8 CG
        # iterations (7.5 with the cosine preconditioner alone)
        g = grid2d(64)
        init = make_initial_data(g, "gaussian-bump", mass=1.5 * CRITICAL_MASS_2D, width=0.08)
        res = run(init, ModelParams(m=2.0, q=1.0, sigma=1e-3), StepControl(),
                  horizon=0.05, samples=2, sup_threshold_multiple=math.inf)
        assert res.termination == REACHED_T
        assert res.newton_corrections >= res.steps > 5
        assert res.u_solve_iters <= 3 * res.newton_corrections

    def test_late_step_takes_few_corrections(self):
        # the same bump at t = 0.15 is within 1% of its mean: d is nearly
        # uniform, the one-level preconditioner nearly exact, and a step
        # takes at most 2 Newton corrections (5 with the V-cycle)
        g = grid2d(128)
        init = make_initial_data(g, "gaussian-bump", mass=1.5 * CRITICAL_MASS_2D, width=0.08)
        params = ModelParams(m=2.0, q=1.0, sigma=1e-3)
        res = run(init, params, StepControl(), horizon=0.15, samples=2,
                  sup_threshold_multiple=math.inf)
        assert res.termination == REACHED_T
        outcome = step(res.final_state, params, StepControl())
        assert outcome.stop is None
        assert 1 <= outcome.newton_corrections <= 2


class TestConjugateGradients:
    def test_iteration_cap_raises(self, monkeypatch):
        # the first m != 1 Newton system of a bump, as diffusion_update hands
        # it to _cg: a zero tolerance cannot be met, so the cap must raise
        g = grid2d(32)
        P, rhs, apply_J = newton_systems(monkeypatch, bump(g), g)[0]
        with pytest.raises(RuntimeError, match="failed to converge in 3 iterations"):
            _cg(apply_J, rhs, 0.0, 3, P, [np.empty_like(rhs) for _ in range(5)])


def bump_state(grid, m):
    """The supercritical bump of the benchmark legs (mass 1.5 * 8 pi,
    width 0.08, sigma 1e-3) at (m, 1): its state at t = 0 and its params."""
    init = make_initial_data(grid, "gaussian-bump", mass=1.5 * CRITICAL_MASS_2D, width=0.08)
    return (SimState(u=init.u0, v=init.v0, t=0.0, step=0),
            ModelParams(m=m, q=1.0, sigma=1e-3))


def state_bytes(state):
    return state.u.values.tobytes() + state.v.values.tobytes()


class TestWorkspace:
    """The per-thread, per-grid workspace that holds every array a step
    writes and discards, so that a step allocates only the next state."""

    @pytest.mark.parametrize("m, base", [(1.0, None), (2.0, None), (2.0, 50.0)],
                             ids=["1.0", "2.0", "2.0-nearly-uniform"])
    def test_warm_step_allocates_at_most_six_grid_arrays(self, m, base):
        # tracemalloc's peak above the pre-step level during one step of the
        # 128^2 bump, after a first step has built the workspace; raised by
        # `base`, the bump's d varies by less than _MG_SPREAD and every
        # correction takes the one-level preconditioner
        g = grid2d(128)
        state, params = bump_state(g, m)
        if base is not None:
            state = state_from(base + bump(g), np.zeros(g.cells), g)
        state = step(state, params, StepControl()).state
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            outcome = step(state, params, StepControl())
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert outcome.stop is None
        assert peak <= 6 * g.num_cells * 8

    def test_one_level_preconditioner_keeps_its_arrays_in_the_workspace(self):
        # the scaled cosine inverse a nearly uniform 128^2 correction takes
        # keeps its scale and inverse eigenvalues in workspace arrays; what
        # building and applying it allocates is numpy's iterator buffers in
        # _ShiftedLaplaceInverse, about one grid array at 128^2, where the
        # two arrays allocated per build would make three
        g = grid2d(128)
        d = 0.5 / (50.0 + bump(g))  # du/dw at m = 2, within _MG_SPREAD
        r, out = np.random.default_rng(5).normal(size=g.cells), np.empty(g.cells)
        solver._NewtonPreconditioner(g, d, 0.01)(r, out)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            P = solver._NewtonPreconditioner(g, d, 0.01)
            P(r, out)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(P.levels) == 1
        assert peak < 2 * g.num_cells * 8

    @pytest.mark.parametrize("n", [64, 128])
    def test_warm_limited_flux_update_allocates_only_its_result(self, n):
        # the limiter's data of TestFaceLayout: a potential far off any solve
        # drives many cells negative, so flux_update runs its passes; once
        # warm, they run in the workspace and only u1 is allocated
        g = grid2d(n)
        rng = np.random.default_rng(1)
        r, w = rng.uniform(0, 1e-3, g.cells), rng.uniform(0, 1, g.cells)
        work = _StepWork(Field(g, r), Field(g, np.zeros(g.cells)), ModelParams(m=1.0, q=1.0))
        lw = _Laplacian(g)(w, np.empty(g.cells))
        assert float((r + 0.1 * lw).min()) < 0.0
        work.flux_update(r, w, lw, 0.1)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            u1 = work.flux_update(r, w, lw, 0.1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert u1.min() >= 0.0
        assert peak <= 1.1 * g.num_cells * 8

    @pytest.mark.parametrize("second", [(128, 128), (96, 96)], ids=["one-grid", "two-grids"])
    def test_interleaved_steps_match_uninterrupted_runs(self, second):
        # an m = 1 and an m = 2 run, stepped in turn in one thread, on one
        # 128^2 grid or on two multigrid grids: each takes exactly the steps
        # it takes alone
        runs = [bump_state(grid2d(128), 1.0),
                bump_state(GridSpec(dim=2, cells=second, extent=(1.0, 1.0)), 2.0)]
        ctrl = StepControl()

        def advance(state, params):
            outcome = step(state, params, ctrl)
            assert outcome.stop is None
            return outcome.state

        alone = []
        for state, params in runs:
            trail = []
            for _ in range(4):
                state = advance(state, params)
                trail.append(state_bytes(state))
            alone.append(trail)
        states = [state for state, _ in runs]
        for k in range(4):
            for i, (_, params) in enumerate(runs):
                states[i] = advance(states[i], params)
                assert state_bytes(states[i]) == alone[i][k]

    def test_states_are_frozen_and_disjoint(self):
        # a returned state is read-only, keeps its bytes through the next
        # step and shares no memory with the state that step returns
        g = grid2d(128)
        state, params = bump_state(g, 2.0)
        first = step(state, params, StepControl()).state
        kept = state_bytes(first)
        second = step(first, params, StepControl()).state
        assert state_bytes(first) == kept
        for a in (first.u.values, first.v.values, second.u.values, second.v.values):
            assert not a.flags.writeable
        for a in (first.u.values, first.v.values):
            for b in (second.u.values, second.v.values):
                assert not np.shares_memory(a, b)

    def test_preconditioner_results_do_not_share_memory(self, monkeypatch):
        # two results of one V-cycle held at once are separate arrays, and
        # the second application leaves the first result as it was
        g = grid2d(128)
        P, rhs, _ = newton_systems(monkeypatch, bump(g), g)[0]
        first = P(rhs)
        kept = first.tobytes()
        second = P(np.random.default_rng(4).normal(size=g.cells))
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept
        out = np.empty(g.cells)
        assert P(rhs, out) is out and out.tobytes() == kept


SHIFTED_GRIDS = {"1d-200": grid1d(200),
                 "128x48": GridSpec(dim=2, cells=(128, 48), extent=(1.0, 3.0)),
                 "128": grid2d(128)}


class TestShiftedSolves:
    """The two constant-coefficient solves step() runs, both through
    _solve_shifted: the v-solve (1 + dt) v - dt lap_h v = v0 + dt u and the
    m = 1 diffusion w - dt lap_h w = r."""

    # At dt = 1e3 the m = 1 residual's rounding, about dt |lap_h| eps |w|,
    # exceeds v_solve_tol (1 + |r|) on every grid here, so the solve gives
    # up after _MAX_CORRECTIONS and step() halves dt; the v-solve's rhs
    # grows with dt, and its tolerance with it.
    @pytest.mark.parametrize("solve,grid,dt", [
        pytest.param(solve, grid, dt, id=f"{solve}-{name}-{dt:g}",
                     marks=[pytest.mark.xfail(
                         strict=True, reason="tolerance below the residual's rounding")]
                     if (solve, dt) == ("m1", 1e3) else [])
        for solve in ("v", "m1") for name, grid in SHIFTED_GRIDS.items()
        for dt in (1e-8, 1e-2, 1.0, 1e3)])
    def test_residual_within_tolerance(self, solve, grid, dt):
        # random data: one unchecked correction leaves the residual above
        # tolerance at dt >= 1 on every grid here (5-11x on the 1-D grid),
        # so the solve must test it again after the correction
        rng = np.random.default_rng(113)
        v0, u = rng.uniform(0, 1, grid.cells), rng.uniform(0, 1, grid.cells)
        ctrl = StepControl()
        if solve == "v":
            x, corrections = advance_v(Field(grid, v0), Field(grid, u), dt, ctrl)
            a, rhs, x = 1.0 + dt, v0 + dt * u, x.values
        else:
            work = _StepWork(Field(grid, u), Field(grid, v0), ModelParams(m=1.0, q=1.0, sigma=0.0))
            x, _, corrections, cg_iters = work.diffusion_update(u.copy(), dt, ctrl)
            assert cg_iters == 0
            a, rhs = 1.0, u
        assert x is not None and 1 <= corrections <= 2
        res = a * x - rhs - dt * _Laplacian(grid)(x, np.empty(grid.cells))
        assert np.linalg.norm(res) <= ctrl.v_solve_tol * (1.0 + np.linalg.norm(rhs))


class TestAdvanceV:
    def test_constant_fixed_point(self):
        g = grid2d(8)
        v = constant_field(g, 1.7)
        u = constant_field(g, 1.7)
        v_new, iters = advance_v(v, u, 0.05, StepControl())
        np.testing.assert_allclose(v_new.values, 1.7, rtol=0, atol=1e-13)
        assert iters == 0  # the previous v already solves the system

    def test_matches_scalar_ode(self):
        # spatially uniform: v' = u - v with u = 1, v0 = 0 has v(t) = 1 - e^-t
        g = grid1d(8)
        u = constant_field(g, 1.0)
        v = constant_field(g, 0.0)
        ctrl = StepControl()
        dt = 1e-3
        for _ in range(1000):
            v, _ = advance_v(v, u, dt, ctrl)
            v = Field(g, v.values)
        exact = 1.0 - math.exp(-1.0)
        assert abs(v.values[0] - exact) <= 1e-3

    def test_maximum_principle_random(self):
        rng = np.random.default_rng(101)
        g = grid2d(12)
        ctrl = StepControl()
        for _ in range(20):
            v = Field(g, rng.uniform(0, 3, (12, 12)))
            u = Field(g, rng.uniform(0, 3, (12, 12)))
            dt = float(rng.uniform(1e-4, 0.5))
            v_new, _ = advance_v(v, u, dt, ctrl)
            hi = max(v.max(), u.max())
            lo = min(v.min(), u.min())
            assert v_new.max() <= hi + 1e-9 * (1 + hi)
            assert v_new.min() >= lo / (1.0 + dt) - 1e-9 * (1 + hi)

    def test_nonnegativity(self):
        rng = np.random.default_rng(103)
        g = grid1d(16)
        ctrl = StepControl()
        for _ in range(20):
            v = Field(g, rng.uniform(0, 1, 16))
            u = Field(g, rng.uniform(0, 1, 16))
            v_new, _ = advance_v(v, u, float(rng.uniform(1e-4, 1.0)), ctrl)
            assert v_new.min() >= 0.0

    def test_iteration_cap_raises(self):
        g = grid2d(16)
        rng = np.random.default_rng(107)
        v = Field(g, rng.uniform(0, 1, (16, 16)))
        u = Field(g, rng.uniform(0, 1, (16, 16)))
        # a tolerance far below rounding: every correction misses it
        ctrl = StepControl(v_solve_tol=1e-30)
        with pytest.raises(RuntimeError, match="failed to converge in 30 corrections"):
            advance_v(v, u, 0.5, ctrl)


# A 16^2 (2,1) bump at sigma = 0 whose accuracy bound, 2.45e-4, keeps its
# first dt far below dt_min = 0.01: a run of it collapses on its first step
COLLAPSE_PARAMS = ModelParams(m=2.0, q=1.0, sigma=0.0)
COLLAPSE_CTRL = StepControl(dt_min=0.01, dt_max=1.0)


def collapsing_bump():
    return make_initial_data(grid2d(16), "gaussian-bump", mass=1.0, width=0.15)


class TestStep:
    def test_exact_steady_state(self):
        g = grid2d(16)
        st = state_from(np.ones((16, 16)), np.ones((16, 16)), g)
        params = ModelParams(m=2.0, q=1.0, sigma=1e-3)
        ctrl = StepControl()
        for _ in range(1000):
            st = step(st, params, ctrl).state
        assert lp_norm(Field(g, st.u.values - 1.0), math.inf) <= 1e-13
        assert lp_norm(Field(g, st.v.values - 1.0), math.inf) <= 1e-12

    def test_constant_state_linear_bitwise(self):
        # m = q = 1: a constant state is a steady state of the step to the
        # last bit (criterion 3 covers m = 2, to 1e-13)
        g = grid2d(16)
        st = state_from(np.ones((16, 16)), np.ones((16, 16)), g)
        params = ModelParams(m=1.0, q=1.0, sigma=1e-3)
        ctrl = StepControl()
        for _ in range(1000):
            st = step(st, params, ctrl).state
        assert (st.u.values == 1.0).all() and (st.v.values == 1.0).all()

    def test_mass_exact_per_step(self):
        rng = np.random.default_rng(109)
        g = grid2d(16)
        st = state_from(rng.uniform(0, 2, (16, 16)), rng.uniform(0, 1, (16, 16)), g)
        params = ModelParams(m=1.5, q=0.8, sigma=1e-3)
        ctrl = StepControl()
        m0 = integrate(st.u)
        for _ in range(50):
            st = step(st, params, ctrl).state
            assert integrate(st.u) == pytest.approx(m0, rel=1e-12)

    def test_positivity_random_states(self):
        rng = np.random.default_rng(113)
        params_pool = [
            ModelParams(m=0.5, q=0.5, sigma=0.0),
            ModelParams(m=0.7, q=1.2, sigma=1e-3),
            ModelParams(m=2.0, q=1.0, sigma=0.0),
            ModelParams(m=3.0, q=1.5, sigma=1e-2),
        ]
        g = grid2d(12)
        ctrl = StepControl()
        for params in params_pool:
            st = state_from(rng.uniform(0.05, 2, (12, 12)),
                            rng.uniform(0, 1, (12, 12)), g)
            for _ in range(30):
                out = step(st, params, ctrl)
                st = out.state
                assert st.u.min() >= 0.0
                assert st.v.min() >= 0.0

    def test_mirror_symmetry_preserved(self):
        # symmetric data on a power-of-two grid evolves exactly symmetrically
        g = grid1d(32)
        x = g.cell_centers(0)
        u_vals = np.exp(-((x - 0.5) ** 2) / (2 * 0.08 ** 2))
        st = state_from(u_vals, np.zeros(32), g)
        params = ModelParams(m=1.0, q=1.0, sigma=0.0)
        ctrl = StepControl()
        for _ in range(100):
            st = step(st, params, ctrl).state
        asym_u = np.abs(st.u.values - st.u.values[::-1]).max()
        asym_v = np.abs(st.v.values - st.v.values[::-1]).max()
        assert asym_u <= 1e-11
        assert asym_v <= 1e-11

    def test_mirror_symmetry_2d(self):
        g = grid2d(16)
        xs = g.cell_centers(0)
        ys = g.cell_centers(1)
        u_vals = np.exp(-((xs[:, None] - 0.5) ** 2 + (ys[None, :] - 0.5) ** 2) / 0.02)
        st = state_from(u_vals, np.zeros((16, 16)), g)
        params = ModelParams(m=2.0, q=1.0, sigma=1e-3)
        ctrl = StepControl()
        for _ in range(50):
            st = step(st, params, ctrl).state
        assert np.abs(st.u.values - st.u.values[::-1, :]).max() <= 1e-11
        assert np.abs(st.u.values - st.u.values[:, ::-1]).max() <= 1e-11

    def test_mirror_symmetry_2d_multigrid(self):
        # as above on 128^2, where the m = 2 Newton corrections run the
        # multigrid V-cycle
        g = grid2d(128)
        assert len(solver._workspace(g).levels) >= 2
        xs = g.cell_centers(0)
        u_vals = 10.0 * np.exp(-((xs[:, None] - 0.5) ** 2 + (xs[None, :] - 0.5) ** 2) / 0.02)
        st = state_from(u_vals, np.zeros(g.cells), g)
        params = ModelParams(m=2.0, q=1.0, sigma=1e-3)
        ctrl = StepControl()
        corrections = 0
        for _ in range(20):
            outcome = step(st, params, ctrl)
            st, corrections = outcome.state, corrections + outcome.newton_corrections
        assert corrections > 20
        assert np.abs(st.u.values - st.u.values[::-1, :]).max() <= 1e-11
        assert np.abs(st.u.values - st.u.values[:, ::-1]).max() <= 1e-11

    def test_heat_equation_matches_matrix_exponential(self):
        # m = 1, chemotaxis off: u follows the discrete heat equation.
        # Oracle: exact semi-discrete solution via eigendecomposition of the
        # independently assembled dense Neumann Laplacian.
        n = 8
        g = grid1d(n)
        h = g.spacing[0]
        L = np.zeros((n, n))
        for i in range(n):
            if i > 0:
                L[i, i - 1] = 1.0 / h ** 2
                L[i, i] -= 1.0 / h ** 2
            if i < n - 1:
                L[i, i + 1] = 1.0 / h ** 2
                L[i, i] -= 1.0 / h ** 2
        x = g.cell_centers(0)
        u0 = 1.0 + 0.5 * np.cos(math.pi * x)
        T = 1e-3
        dt = 2.5e-7
        steps = round(T / dt)

        params = ModelParams(m=1.0, q=1.0, sigma=0.0, chemotaxis=False)
        ctrl = StepControl(safety=1.0, dt_min=1e-16, dt_max=dt)
        st = state_from(u0, np.zeros(n), g)
        for _ in range(steps):
            out = step(st, params, ctrl)
            assert out.dt_used == dt
            st = out.state

        w, V = np.linalg.eigh(L)
        u_exact = V @ (np.exp(w * T) * (V.T @ u0))
        assert np.abs(st.u.values - u_exact).max() <= 1e-8

    def test_nonfinite_flag(self):
        g = grid1d(8)
        u_vals = np.full(8, 1.0)
        # two adjacent overflow cells: their shared face sees inf - inf = nan
        u_vals[3] = 1e130
        u_vals[4] = 1e130
        st = state_from(u_vals, np.zeros(8), g)
        params = ModelParams(m=3.0, q=1.0, sigma=0.0)
        ctrl = StepControl(dt_min=1e-280, dt_max=1.0)
        out = step(st, params, ctrl)
        assert out.stop == NONFINITE

    @pytest.mark.parametrize("m, halvings, corrections", [(1.0, 4, 121), (2.0, 3, 92)])
    def test_unconverged_diffusion_retried_at_half_dt(self, m, halvings, corrections):
        # a smooth state and dt_max = 1e3: at the first dt (about 1e2) the
        # residual's rounding exceeds v_solve_tol, so the diffusion solve
        # gives up after _MAX_CORRECTIONS and step() halves dt until it
        # converges; every retry keeps mass and sign
        g = grid1d(200)
        u0 = 1.0 + 1e-4 * np.cos(math.pi * g.cell_centers(0))
        st = state_from(u0, np.zeros(200), g)
        params = ModelParams(m=m, q=1.0, chemotaxis=False)
        ctrl = StepControl(dt_max=1e3)
        work = _StepWork(st.u, st.v, params)
        dt = work.dt(ctrl)
        w, lw, k, _ = work.diffusion_update(work.chemotaxis_update(dt), dt, ctrl)
        assert (w, lw, k) == (None, None, solver._MAX_CORRECTIONS)
        out = step(st, params, ctrl)
        assert out.stop is None
        assert out.dt_used == dt / 2 ** halvings
        assert out.newton_corrections == corrections
        assert abs(integrate(out.state.u) - integrate(st.u)) <= 1e-14 * integrate(st.u)
        assert out.state.u.min() >= 0.0

    def test_dt_collapse_flag(self):
        init = collapsing_bump()
        st = SimState(u=init.u0, v=init.v0, t=0.0, step=0)
        work = _StepWork(st.u, st.v, COLLAPSE_PARAMS)
        assert work.dt_accuracy() == pytest.approx(2.4536e-4, rel=1e-4)
        out = step(st, COLLAPSE_PARAMS, COLLAPSE_CTRL)
        assert out.stop == DT_COLLAPSED
        assert out.dt_used == 0.0
        assert out.state is st

    def test_collapsing_control_rejected(self):
        # dt_min above safety * dt_max would collapse every step, whatever the
        # state; at safety 1 dt_min may equal dt_max, a fixed step
        with pytest.raises(ValueError, match="every step would collapse"):
            StepControl(dt_min=0.5, dt_max=1.0)
        StepControl(safety=1.0, dt_min=0.5, dt_max=0.5)


class TestRun:
    def steady_initial(self, n=12):
        g = grid2d(n)
        return InitialData(u0=constant_field(g, 1.0), v0=constant_field(g, 1.0))

    def test_steady_run_reaches_horizon(self):
        init = self.steady_initial()
        params = ModelParams(m=2.0, q=1.0, sigma=1e-3)
        res = run(init, params, StepControl(), horizon=0.01, samples=3,
                  sup_threshold_multiple=math.inf)
        assert res.termination == REACHED_T
        assert res.final_state.t >= 0.01
        assert res.comparison_violation <= 1e-12
        assert len(res.sample_times) == 3

    def test_mass_conserved_over_run(self):
        g = grid2d(16)
        init = make_initial_data(g, "gaussian-bump", mass=1.0, width=0.15)
        params = ModelParams(m=2.0, q=1.0, sigma=1e-3)
        res = run(init, params, StepControl(), horizon=2e-4, samples=5,
                  sup_threshold_multiple=math.inf)
        assert res.termination == REACHED_T
        m0 = integrate(init.u0)
        assert integrate(res.final_state.u) == pytest.approx(m0, rel=1e-10)

    def test_sup_threshold_termination(self):
        # uniform u pushed up a v bump: sup u rises immediately
        g = grid2d(16)
        xs = g.cell_centers(0)
        v_vals = np.exp(-((xs[:, None] - 0.5) ** 2 + (xs[None, :] - 0.5) ** 2) / 0.05)
        init = InitialData(u0=constant_field(g, 1.0), v0=Field(g, v_vals))
        params = ModelParams(m=1.0, q=1.0, sigma=0.0)
        res = run(init, params, StepControl(), horizon=1.0, samples=3,
                  sup_threshold_multiple=1.0 + 1e-4)
        assert res.termination == SUP_THRESHOLD

    def test_max_steps_termination(self):
        init = self.steady_initial()
        params = ModelParams(m=2.0, q=1.0, sigma=1e-3)
        res = run(init, params, StepControl(max_steps=5), horizon=10.0, samples=2,
                  sup_threshold_multiple=math.inf)
        assert res.termination == MAX_STEPS
        assert res.steps == 5

    def test_dt_collapse_termination(self):
        res = run(collapsing_bump(), COLLAPSE_PARAMS, COLLAPSE_CTRL, horizon=1.0,
                  samples=2, sup_threshold_multiple=math.inf)
        assert res.termination == DT_COLLAPSED

    def test_nonfinite_termination(self):
        g = grid1d(8)
        u_vals = np.full(8, 1.0)
        u_vals[3] = 1e130
        u_vals[4] = 1e130
        init = InitialData(u0=Field(g, u_vals), v0=constant_field(g, 0.0))
        params = ModelParams(m=3.0, q=1.0, sigma=0.0)
        res = run(init, params, StepControl(dt_min=1e-280, dt_max=1.0),
                  horizon=1.0, samples=2, sup_threshold_multiple=math.inf)
        assert res.termination == NONFINITE

    def test_wall_budget_termination(self, monkeypatch):
        # a clock that advances 1 s per reading: run() reads it once at the
        # start and once before each step, so a 2.5 s budget ends the run
        # before its third step
        ticks = itertools.count()
        monkeypatch.setattr(time, "monotonic", lambda: float(next(ticks)))
        res = run(self.steady_initial(), ModelParams(m=2.0, q=1.0, sigma=1e-3),
                  StepControl(), horizon=10.0, samples=2, sup_threshold_multiple=math.inf,
                  wall_clock_budget=2.5)
        assert res.termination == WALL_BUDGET
        assert res.steps == 2
        assert res.sample_times[-1] == res.final_state.t < 10.0

    def test_blowup_time_insensitive_to_safety(self):
        # the (1,1) bump of criterion 5 (mass 1.5 x 8pi, width 0.08,
        # sigma = 1e-3) at 48^2, run to 3x its initial sup: the time to get
        # there at the default safety is within 5% of the same run at
        # safety 0.1, so the dt rule does not buy its step size with accuracy
        init = make_initial_data(grid2d(48), "gaussian-bump",
                                 mass=1.5 * CRITICAL_MASS_2D, width=0.08)
        params = ModelParams(m=1.0, q=1.0, sigma=1e-3)
        t_end = []
        for safety in (StepControl().safety, 0.1):
            res = run(init, params, StepControl(safety=safety), horizon=1.0,
                      samples=2, sup_threshold_multiple=3.0)
            assert res.termination == SUP_THRESHOLD
            t_end.append(res.final_state.t)
        assert t_end[0] == pytest.approx(t_end[1], rel=0.05)

    def test_solver_work_totals(self, monkeypatch):
        # run() reports the sums of its steps' CG iterations, both solves
        g = grid2d(16)
        init = make_initial_data(g, "gaussian-bump", mass=1.0, width=0.15)
        outcomes = []

        def recording_step(*args, **kwargs):
            outcomes.append(step(*args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(solver, "step", recording_step)
        res = run(init, ModelParams(m=2.0, q=1.0, sigma=1e-3), StepControl(),
                  horizon=2e-3, samples=3, sup_threshold_multiple=math.inf)
        assert len(outcomes) == res.steps > 0
        assert res.newton_corrections == sum(o.newton_corrections for o in outcomes)
        assert res.u_solve_iters == sum(o.u_solve_iters for o in outcomes)
        assert res.v_solve_iters == sum(o.v_solve_iters for o in outcomes)
        assert res.newton_corrections > res.steps  # m = 2 needs several corrections
        assert res.u_solve_iters >= res.newton_corrections

    def test_concurrent_runs_match_serial(self):
        # two runs at once in one process, on the (2,1) bump of the
        # bounded-side benchmark at 128^2 (a multigrid grid): neither may
        # touch the other's solver scratch
        init = make_initial_data(grid2d(128), "gaussian-bump",
                                 mass=1.5 * CRITICAL_MASS_2D, width=0.08)
        params = ModelParams(m=2.0, q=1.0, sigma=1e-3)

        def final_u():
            res = run(init, params, StepControl(max_steps=15), horizon=1.0, samples=2,
                      sup_threshold_multiple=math.inf)
            assert res.steps == 15
            return res.final_state.u.values

        serial = final_u()
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(final_u) for _ in range(2)]
            for future in futures:
                u = future.result(timeout=300)
                assert np.linalg.norm(u - serial) <= 1e-12 * np.linalg.norm(serial)

    def test_final_state_always_sampled(self):
        init = self.steady_initial()
        params = ModelParams(m=2.0, q=1.0, sigma=1e-3)
        res = run(init, params, StepControl(max_steps=3), horizon=10.0, samples=5,
                  sup_threshold_multiple=math.inf)
        assert res.sample_times[-1] == res.final_state.t
        assert len(res.sample_times) == len(res.u_samples)

    def test_samples_are_the_states_own_arrays(self):
        # a sample keeps the state's read-only u, not a copy of it
        init = make_initial_data(grid2d(16), "gaussian-bump", mass=1.0, width=0.15)
        res = run(init, ModelParams(m=2.0, q=1.0, sigma=1e-3), StepControl(),
                  horizon=2e-3, samples=3, sup_threshold_multiple=math.inf)
        assert res.u_samples[0] is init.u0.values
        assert res.u_samples[-1] is res.final_state.u.values
        assert not any(u.flags.writeable for u in res.u_samples)
