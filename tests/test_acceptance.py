"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -rA` to see every line.

Two clauses are read as follows:

* criterion 5 (stated scale) runs every leg at 128^2 cells to T=1 with
  total mass ~37.7 on the unit square.  Mass conservation keeps sup u at or
  above that mean, so an explicit diffusion step would need >= 1.2e7 steps
  for a bounded leg; diffusion is implicit (backward Euler in the Kirchhoff
  potential), so the bounded legs reach T=1 in tens of steps and the test
  fits its 10-minute budget.
* criterion 7a: the extremal recursion from the threshold obeys
  y_n = y0 * b^(-n/alpha) exactly, which stays >= 1e-12 * y0 at n = 200
  whenever ln b <= 0.1382 * alpha (36 of the 1000 seeded tuples).  The De
  Giorgi recursion lemma promises that geometric rate, not a level at a
  fixed n, so the test checks the program's threshold and the promised
  rate for every tuple, and reports how many tuples pass 1e-12 * y0.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ksfv.cli import main as cli_main
from ksfv.config import parse_config
from ksfv.diagnostics import DiagnosticsConfig, DiagnosticsTracker, build_ladder
from ksfv.grid import Field, GridSpec, constant_field, integrate
from ksfv.kernels import (AbsorptionParams, absorption_bound, absorption_check,
                          eps_condition_bound, exponent_ms_qs, gamma_exponent,
                          h4_equivalence, recursion_threshold)
from ksfv.model import CRITICAL_MASS_2D, ModelParams, make_initial_data
from ksfv.outputs import LADDER_CSV, METADATA_JSON, RUN_CSV, SWEEP_JSON
from ksfv.solver import SimState, StepControl, advance_v, step
from ksfv.sweep import BLOW_UP, BOUNDED, classify_run, execute_run, run_sweep


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def unit_square(n):
    return GridSpec(dim=2, cells=(n, n), extent=(1.0, 1.0))


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def mass_run():
    """Criterion 1 workload: 64^2, (m,q)=(2,1), sigma=1e-3, gaussian data,
    10^4 steps with per-step mass/positivity/comparison monitors."""
    g = unit_square(64)
    init = make_initial_data(g, "gaussian-bump", mass=1.0, width=0.1)
    params = ModelParams(m=2.0, q=1.0, sigma=1e-3)
    ctrl = StepControl()
    st = SimState(u=init.u0, v=init.v0, t=0.0, step=0)
    mass0 = integrate(init.u0)
    sup_v0 = init.v0.max()
    run_sup_u = init.u0.max()

    worst_mass = 0.0
    min_u = math.inf
    min_v = math.inf
    worst_comp = -math.inf
    t0 = time.monotonic()
    samples = [np.array(init.u0.values)]
    sample_times = [0.0]
    for k in range(10_000):
        out = step(st, params, ctrl)
        assert out.stop is None
        st = out.state
        worst_mass = max(worst_mass, abs(integrate(st.u) - mass0))
        min_u = min(min_u, st.u.min())
        min_v = min(min_v, st.v.min())
        run_sup_u = max(run_sup_u, st.u.max())
        worst_comp = max(worst_comp, st.v.max() - max(sup_v0, run_sup_u))
        if (k + 1) % 2000 == 0:
            samples.append(np.array(st.u.values))
            sample_times.append(st.t)
    elapsed = time.monotonic() - t0
    return {
        "mass0": mass0, "worst_mass": worst_mass, "min_u": min_u,
        "min_v": min_v, "worst_comp": worst_comp, "elapsed": elapsed,
        "grid": g, "sup_u_peak": run_sup_u,
        "sample_times": sample_times, "u_samples": samples,
    }


def _randomized_configs():
    """20 mixed-exponent configurations, deterministic."""
    rng = np.random.default_rng(2024)
    configs = []
    for k in range(20):
        configs.append({
            "m": float(rng.uniform(0.5, 3.0)),
            "q": float(rng.uniform(0.25, 1.5)),
            "sigma": 0.0 if k % 2 == 0 else 1e-3,
            "seed": 100 + k,
        })
    return configs


def _monitored_run(m, q, sigma, seed, n_cells, steps=None, horizon=None,
                   record_every=40):
    """Manual step loop with per-step invariant monitors and periodic
    diagnostics records.  Stops after `steps` steps or at `horizon`, which
    the last step lands on exactly."""
    g = unit_square(n_cells)
    init = make_initial_data(g, "random-nonneg", low=0.1, high=1.1, seed=seed,
                             v0_preset="constant", v0_value=0.3)
    params = ModelParams(m=m, q=q, sigma=sigma)
    ctrl = StepControl()
    tracker = DiagnosticsTracker(params, DiagnosticsConfig(), init.v0)
    st = SimState(u=init.u0, v=init.v0, t=0.0, step=0)
    sup_v0 = init.v0.max()
    sup_u0 = init.u0.max()
    run_sup_u = sup_u0

    records = [tracker.record(st)]
    min_u = min_v = math.inf
    worst_comp = -math.inf
    sample_times = [0.0]
    u_samples = [np.array(init.u0.values)]
    k = 0
    while True:
        if steps is not None and k >= steps:
            break
        if horizon is not None and st.t >= horizon:
            break
        out = step(st, params, ctrl,
                   t_stop=horizon if horizon is not None else math.inf)
        assert out.stop is None, \
            f"unexpected stop flag at m={m}, q={q}, sigma={sigma}"
        st = out.state
        k += 1
        min_u = min(min_u, st.u.min())
        min_v = min(min_v, st.v.min())
        run_sup_u = max(run_sup_u, st.u.max())
        worst_comp = max(worst_comp, st.v.max() - max(sup_v0, run_sup_u))
        if k % record_every == 0:
            records.append(tracker.record(st))
            sample_times.append(st.t)
            u_samples.append(np.array(st.u.values))
    return {
        "m": m, "q": q, "sigma": sigma, "seed": seed,
        "min_u": min_u, "min_v": min_v, "worst_comp": worst_comp,
        "records": records, "t_end": st.t, "peak_ratio": run_sup_u / sup_u0,
        "sample_times": sample_times, "u_samples": u_samples,
        "grid": g,
    }


@pytest.fixture(scope="session")
def random_runs():
    return [_monitored_run(c["m"], c["q"], c["sigma"], c["seed"],
                           n_cells=24, steps=320) for c in _randomized_configs()]


# ------------------------------------------------------------- criterion 1

def test_criterion_1_mass_conservation(mass_run):
    tol = 1e-10 * mass_run["mass0"]
    ok = mass_run["worst_mass"] <= tol and mass_run["elapsed"] < 60.0
    report("1", ok,
           f"max |mass drift| = {mass_run['worst_mass']:.3e} (tol {tol:.3e}) "
           f"over 10^4 steps in {mass_run['elapsed']:.1f}s")
    assert mass_run["worst_mass"] <= tol
    assert mass_run["elapsed"] < 60.0


# ------------------------------------------------------------- criterion 2

def test_criterion_2_positivity_and_comparison(mass_run, random_runs):
    ok = mass_run["min_u"] >= 0.0 and mass_run["min_v"] >= 0.0
    ok = ok and mass_run["worst_comp"] <= 1e-12
    worst = (mass_run["min_u"], mass_run["min_v"], mass_run["worst_comp"])
    for r in random_runs:
        ok = ok and r["min_u"] >= 0.0 and r["min_v"] >= 0.0
        ok = ok and r["worst_comp"] <= 1e-12
        worst = (min(worst[0], r["min_u"]), min(worst[1], r["min_v"]),
                 max(worst[2], r["worst_comp"]))
    report("2", ok,
           f"min u = {worst[0]:.3e}, min v = {worst[1]:.3e}, "
           f"max comparison violation = {worst[2]:.3e} over 21 runs")
    assert worst[0] >= 0.0
    assert worst[1] >= 0.0
    assert worst[2] <= 1e-12


# ------------------------------------------------------------- criterion 3

def test_criterion_3_steady_state():
    g = unit_square(16)
    st = SimState(u=constant_field(g, 1.0), v=constant_field(g, 1.0),
                  t=0.0, step=0)
    params = ModelParams(m=2.0, q=1.0, sigma=1e-3)
    ctrl = StepControl()
    for _ in range(1000):
        st = step(st, params, ctrl).state
    err_u = float(np.abs(st.u.values - 1.0).max())
    err_v = float(np.abs(st.v.values - 1.0).max())
    ok = err_u <= 1e-13 and err_v <= 1e-12
    report("3", ok, f"after 1000 steps: |u-1| = {err_u:.2e}, |v-1| = {err_v:.2e}")
    assert err_u <= 1e-13
    assert err_v <= 1e-12


# ------------------------------------------------------------- criterion 4

def _dense_neumann_laplacian(n, h):
    L = np.zeros((n, n))
    for i in range(n):
        if i > 0:
            L[i, i - 1] = 1 / h ** 2
            L[i, i] -= 1 / h ** 2
        if i < n - 1:
            L[i, i + 1] = 1 / h ** 2
            L[i, i] -= 1 / h ** 2
    return L


def test_criterion_4_linear_diffusion_oracle():
    # (a) dense backward Euler reference for u and v, independently assembled
    n = 8
    g = GridSpec(dim=1, cells=(n,), extent=(1.0,))
    L = _dense_neumann_laplacian(n, g.spacing[0])
    rng = np.random.default_rng(5)
    u = rng.uniform(0.2, 1.0, n)
    v = rng.uniform(0.0, 0.5, n)
    dt = 1e-4
    params = ModelParams(m=1.0, q=1.0, sigma=1e-3, chemotaxis=False)
    ctrl = StepControl(safety=1.0, dt_max=dt, v_solve_tol=1e-12)
    st = SimState(u=Field(g, u), v=Field(g, v), t=0.0, step=0)
    uu, vv = u.copy(), v.copy()
    A = (1 + dt) * np.eye(n) - dt * L
    B = np.eye(n) - dt * L
    for _ in range(100):
        st = step(st, params, ctrl).state
        uu, vv = np.linalg.solve(B, uu), np.linalg.solve(A, vv + dt * uu)
    err_ref = max(float(np.abs(st.u.values - uu).max()),
                  float(np.abs(st.v.values - vv).max()))

    # (b) spatial order of the v-solve on a manufactured solution
    def v_error(cells):
        gg = GridSpec(dim=1, cells=(cells,), extent=(1.0,))
        x = gg.cell_centers(0)
        dtv, T = 1e-6, 1e-3
        vf = Field(gg, 2.0 + np.cos(math.pi * x))
        cv = StepControl(v_solve_tol=1e-13)
        for k in range(round(T / dtv)):
            uf = Field(gg, math.pi ** 2 * np.cos(math.pi * x)
                       * math.exp(-(k + 1) * dtv))
            vf, _ = advance_v(vf, uf, dtv, cv)
            vf = Field(gg, vf.values)
        return float(np.abs(vf.values - (2.0 + np.cos(math.pi * x))
                            * math.exp(-T)).max())

    errs_v = [v_error(c) for c in (32, 64, 128)]
    orders_v = [math.log2(errs_v[i] / errs_v[i + 1]) for i in range(2)]

    # (c) overall temporal order of the coupled split scheme
    def u_at(dt_run):
        gg = GridSpec(dim=1, cells=(64,), extent=(1.0,))
        x = gg.cell_centers(0)
        s0 = SimState(u=Field(gg, 1.0 + 0.3 * np.cos(math.pi * x)),
                      v=Field(gg, 0.5 + 0.2 * np.cos(math.pi * x)),
                      t=0.0, step=0)
        pr = ModelParams(m=1.0, q=1.0, sigma=1e-3)
        cr = StepControl(safety=1.0, dt_max=dt_run, v_solve_tol=1e-13)
        while s0.t < 4e-3 - 1e-15:
            s0 = step(s0, pr, cr).state
        return s0.u.values

    ref = u_at(4e-3 / 8192)
    errs_t = [float(np.abs(u_at(4e-3 / k) - ref).max()) for k in (256, 512, 1024)]
    orders_t = [math.log2(errs_t[i] / errs_t[i + 1]) for i in range(2)]

    ok = (err_ref <= 1e-8 and all(o >= 1.8 for o in orders_v)
          and all(o >= 0.9 for o in orders_t))
    report("4", ok,
           f"dense-reference err = {err_ref:.2e}; v-solve spatial orders = "
           f"{[f'{o:.2f}' for o in orders_v]}; temporal orders = "
           f"{[f'{o:.2f}' for o in orders_t]}")
    assert err_ref <= 1e-8
    assert all(o >= 1.8 for o in orders_v)
    assert all(o >= 0.9 for o in orders_t)


# ------------------------------------------------------------- criterion 5

def _dichotomy_leg(n_cells, m, horizon, sup_multiple, width,
                   wall_budget=None, mass=1.5 * CRITICAL_MASS_2D, center=None):
    """One leg through the program's path: a run document, parse_config,
    execute_run and classify_run.  The bump sits at `center` (None: the
    centre of the unit square)."""
    doc = {
        "kind": "run",
        "model": {"m": m, "q": 1.0, "sigma": 1e-3},
        "grid": {"dim": 2, "cells": [n_cells, n_cells]},
        "initial": {"preset": "gaussian-bump", "mass": mass, "width": width},
        "horizon": horizon,
        "samples": 6,
        "thresholds": {"sup_multiple": sup_multiple, "bounded_multiple": 50.0},
    }
    if center is not None:
        doc["initial"]["centers"] = [list(center)]
    cfg = parse_config(json.dumps(doc))
    t0 = time.monotonic()
    res, _ = execute_run(cfg, wall_clock_budget=wall_budget)
    elapsed = time.monotonic() - t0
    return {
        "label": classify_run(res, cfg.thresholds.bounded_multiple).label,
        "termination": res.termination, "elapsed": elapsed,
        "t_end": res.final_state.t, "steps": res.steps,
        "peak_ratio": res.running_max_sup_u / float(res.u_samples[0].max()),
    }


@pytest.fixture(scope="session")
def stated_blowup_leg():
    """Criterion 5's (1,1) leg at stated scale: the centred 1.5 x 8pi bump at
    128^2 to 30x."""
    return _dichotomy_leg(128, 1.0, horizon=1.0, sup_multiple=30.0,
                          width=0.08, wall_budget=400.0)


def test_criterion_5_phase_dichotomy_stated_scale(stated_blowup_leg):
    """128^2 unit square, mass 1.5 x 8pi, T=1: (1,1) -> BlowUp before T=1;
    (2,1) and (1.5,1) -> Bounded at T=1 with sup <= 50x initial; <= 10 min.

    The blow-up leg runs to completion; each bounded leg runs under a wall
    budget, and a leg cut short by it is Inconclusive and fails the test.
    With implicit diffusion (see the module docstring) the bounded legs
    finish well inside their budgets.
    """
    budget = 600.0
    blow = stated_blowup_leg
    # the budget counts the blow-up leg's own time, wherever it ran
    t_start = time.monotonic() - blow["elapsed"]
    details = [f"(1,1): {blow['label']} at t={blow['t_end']:.4f} "
               f"({blow['elapsed']:.0f}s, {blow['steps']} steps, "
               f"peak {blow['peak_ratio']:.0f}x)"]
    ok = blow["label"] == BLOW_UP and blow["t_end"] < 1.0

    for m in (2.0, 1.5):
        remaining = budget - (time.monotonic() - t_start)
        probe = _dichotomy_leg(128, m, horizon=1.0, sup_multiple=30.0,
                               width=0.08,
                               wall_budget=max(min(remaining / 2, 75.0), 5.0))
        good = probe["label"] == BOUNDED and probe["peak_ratio"] <= 50.0
        details.append(f"({m},1): {probe['label']} ({probe['termination']}) at "
                       f"t={probe['t_end']:.4f} ({probe['elapsed']:.0f}s, "
                       f"{probe['steps']} steps)")
        ok = ok and good

    total = time.monotonic() - t_start
    ok = ok and total <= budget
    detail = "; ".join(details) + f"; total {total:.0f}s of {budget:.0f}s budget"
    report("5 (stated scale)", ok, detail)
    assert ok, (
        "phase dichotomy at the stated 128^2/T=1 scale failed: " + detail +
        ". Expected (1,1) BlowUp before T=1 and (2,1), (1.5,1) Bounded at "
        "T=1 within 50x the initial sup, all inside the budget. Diffusion is "
        "implicit, so a bounded leg cut short by its wall budget means the "
        "chemotactic or accuracy dt bound or the Newton solve has become "
        "costly (see the module docstring and the reduced-scale companion "
        "test)."
    )


def test_criterion_5_three_fates_of_one_mass(stated_blowup_leg):
    """One mass, 6pi = 0.75 x 8pi, at 128^2 to T=1 and 30x: at (1,1) the
    centred bump is Bounded while the edge and corner bumps blow up (the
    classical thresholds are 8pi inside, 4pi on an edge and 2pi in a
    corner); at (1.5,1) and (2,1), m > q, the corner bump is Bounded.

    Labels only.  Near its wall the edge bump is the mirror half of the
    centred bump of twice its mass, the stated-scale (1,1) leg, so their
    blow-up times should agree as the scheme converges; their ratio is
    reported, not asserted.
    """
    legs = {
        ("(1,1)", "centre"): (1.0, None, BOUNDED),
        ("(1,1)", "edge"): (1.0, (0.5, 0.0), BLOW_UP),
        ("(1,1)", "corner"): (1.0, (0.0, 0.0), BLOW_UP),
        ("(1.5,1)", "corner"): (1.5, (0.0, 0.0), BOUNDED),
        ("(2,1)", "corner"): (2.0, (0.0, 0.0), BOUNDED),
    }
    runs = {key: _dichotomy_leg(128, m, horizon=1.0, sup_multiple=30.0, width=0.08,
                                mass=0.75 * CRITICAL_MASS_2D, center=center)
            for key, (m, center, _) in legs.items()}
    ok = all(runs[key]["label"] == expected for key, (_, _, expected) in legs.items())
    edge = runs[("(1,1)", "edge")]
    ratio = edge["t_end"] / stated_blowup_leg["t_end"]
    report("5 (three fates)", ok,
           "; ".join(f"{mq} {where}: {r['label']} at t={r['t_end']:.4f} "
                     f"({r['steps']} steps, {r['elapsed']:.1f}s)"
                     for (mq, where), r in runs.items())
           + f"; edge/centre time ratio {ratio:.3f} (edge 6pi against the centred "
             f"12pi at t={stated_blowup_leg['t_end']:.4f})")
    for key, (_, _, expected) in legs.items():
        assert runs[key]["label"] == expected, (key, runs[key])


def test_criterion_5_phase_dichotomy_reduced_scale():
    """Same physics at desk scale: blow-up leg at 64^2 (threshold 15x),
    bounded legs at 48^2 to T=0.25, all with mass 1.5 x 8pi."""
    blow = _dichotomy_leg(64, 1.0, horizon=1.0, sup_multiple=15.0, width=0.08)
    b15 = _dichotomy_leg(48, 1.5, horizon=0.25, sup_multiple=1e4, width=0.08)
    b20 = _dichotomy_leg(48, 2.0, horizon=0.25, sup_multiple=1e4, width=0.08)

    ok = (blow["label"] == BLOW_UP and blow["t_end"] < 1.0
          and b15["label"] == BOUNDED and b15["peak_ratio"] <= 50.0
          and b20["label"] == BOUNDED and b20["peak_ratio"] <= 50.0)
    report("5 (reduced scale)", ok,
           f"(1,1): {blow['label']} at t={blow['t_end']:.3f}; "
           f"(1.5,1): {b15['label']} peak {b15['peak_ratio']:.2f}x; "
           f"(2,1): {b20['label']} peak {b20['peak_ratio']:.2f}x")
    assert blow["label"] == BLOW_UP and blow["t_end"] < 1.0
    assert b15["label"] == BOUNDED and b15["peak_ratio"] <= 50.0
    assert b20["label"] == BOUNDED and b20["peak_ratio"] <= 50.0


def test_criterion_5_sweep_level_dichotomy(tmp_path):
    """The same dichotomy through the sweep orchestration path: one sweep
    over m in {1.0, 1.5} at q = 1 with supercritical data classifies the
    classical point BlowUp and the nonlinear-diffusion point Bounded."""
    doc = {
        "kind": "sweep",
        "m_grid": [1.0, 1.5],
        "q_grid": [1.0],
        "workers": 2,
        "template": {
            "model": {"sigma": 1e-3},
            "grid": {"dim": 2, "cells": [64, 64]},
            "initial": {"preset": "gaussian-bump",
                        "mass": 1.5 * CRITICAL_MASS_2D, "width": 0.08},
            "horizon": 0.3,
            "samples": 4,
            "thresholds": {"sup_multiple": 15.0, "bounded_multiple": 50.0},
        },
    }
    result = run_sweep(parse_config(json.dumps(doc)))
    by_m = {pt["m"]: pt for pt in result.points}
    ok = (by_m[1.0]["classification"] == BLOW_UP
          and by_m[1.0]["regime"] == "CriticalClassical"
          and by_m[1.5]["classification"] == BOUNDED
          and by_m[1.5]["regime"] == "H3")
    report("5 (sweep level)", ok,
           f"m=1.0 -> {by_m[1.0]['classification']} ({by_m[1.0]['termination']}), "
           f"m=1.5 -> {by_m[1.5]['classification']} ({by_m[1.5]['termination']})")
    assert by_m[1.0]["classification"] == BLOW_UP
    assert by_m[1.5]["classification"] == BOUNDED


# ------------------------------------------------------------- criterion 6

def test_criterion_6_truncation_ladder(mass_run, random_runs):
    # monotone energies/measures for every completed run
    all_monotone = True
    checked = 0
    for src in [mass_run] + random_runs[:6]:
        peak = max(float(s.max()) for s in src["u_samples"])
        if peak <= 0:
            continue
        m_s = 4.0
        lad = build_ladder(src["sample_times"], src["u_samples"],
                           src["grid"].cell_volume, K=0.5 * peak, n_max=8,
                           m_s=m_s)
        energy_mono = all(y2 <= y1 for y1, y2 in zip(lad.energies, lad.energies[1:]))
        meas_mono = all(a2 <= a1 for a1, a2 in zip(lad.measures, lad.measures[1:]))
        all_monotone = all_monotone and energy_mono and meas_mono
        checked += 1

    # independent re-summation oracle on a 16^2 x 10-sample series
    rng = np.random.default_rng(99)
    times = sorted(rng.uniform(0.0, 1.0, 10).tolist())
    series = [rng.uniform(0.0, 3.0, (16, 16)) for _ in times]
    K, m_s, vol = 2.0, 3.5, 1.0 / 256.0
    lad = build_ladder(times, series, vol, K=K, n_max=8, m_s=m_s)
    worst_rel = 0.0
    for nn in range(9):
        kn = K - K / 2.0 ** (nn + 1)
        terms = []
        for j in range(len(times) - 1):
            w = times[j + 1] - times[j]
            for val in series[j].flatten().tolist():
                if val > kn:
                    terms.append((val - kn) ** m_s * vol * w)
        oracle = math.fsum(terms)
        if oracle > 0:
            worst_rel = max(worst_rel, abs(lad.energies[nn] - oracle) / oracle)

    ok = all_monotone and worst_rel <= 1e-12
    report("6", ok, f"ladders monotone on {checked} runs; "
                    f"oracle max rel err = {worst_rel:.2e}")
    assert all_monotone
    assert worst_rel <= 1e-12


# ------------------------------------------------------------- criterion 7

def test_criterion_7a_recursion_sufficiency():
    """1000 uniform tuples (c, b, alpha), each started at the threshold.

    For every tuple:
    (a) recursion_threshold(c, b, alpha) matches c^(-1/alpha) b^(-1/alpha^2)
        evaluated in high precision, to relative 1e-14;
    (b) the high-precision iteration y_{n+1} = c b^n y_n^(1+alpha) from that
        threshold obeys y_n <= y0 b^(-n/alpha) for every n <= 200, which is
        the geometric rate the De Giorgi recursion lemma promises
        (DiBenedetto, Degenerate Parabolic Equations, 1993, Lemma I.4.1).

    The lemma promises that rate, not a level at a fixed n: the extremal
    orbit is y_n = y0 b^(-n/alpha) exactly, so y_200 stays above 1e-12 y0
    whenever ln b <= 0.1382 alpha.  The printed line counts the tuples that
    do fall below 1e-12 y0 by n = 200.

    The iteration runs on logarithms, log y_{n+1} = log c + n log b +
    (1 + alpha) log y_n, at 150 digits.  The threshold orbit is marginally
    unstable: a relative error e in y0 grows to e (1+alpha)^n <= e 4^200 ~
    e 1e120, so 150 digits leave ~1e-30 of rounding, inside the 1e-25 slack.
    """
    import mpmath

    rng = np.random.default_rng(0)
    tuples = [(float(rng.uniform(0.1, 10.0)), float(rng.uniform(1.0, 8.0)),
               float(rng.uniform(0.2, 3.0))) for _ in range(1000)]

    worst_threshold = 0.0
    worst_rate = -math.inf
    below = 0
    with mpmath.workdps(150):
        for c, b, a in tuples:
            cm, bm, am = mpmath.mpf(c), mpmath.mpf(b), mpmath.mpf(a)
            y0 = cm ** (-1 / am) * bm ** (-1 / (am * am))
            worst_threshold = max(
                worst_threshold,
                float(abs(mpmath.mpf(recursion_threshold(c, b, a)) - y0) / y0))
            log_c, log_b, log_y0 = mpmath.log(cm), mpmath.log(bm), mpmath.log(y0)
            z = log_y0
            for n in range(1, 201):
                z = log_c + (n - 1) * log_b + (1 + am) * z
                # log of y_n / (y0 b^(-n/alpha)); <= 0 is the promised rate
                worst_rate = max(worst_rate, float(z - (log_y0 - n * log_b / am)))
            if z < log_y0 + mpmath.log(mpmath.mpf("1e-12")):
                below += 1

    ok = worst_threshold <= 1e-14 and worst_rate <= 1e-25
    report("7a", ok,
           f"threshold max rel err = {worst_threshold:.2e}; max log(y_n / "
           f"(y0 b^(-n/alpha))) over n <= 200 = {worst_rate:.2e}; "
           f"{below} of {len(tuples)} tuples below 1e-12 y0 at n = 200")
    assert worst_threshold <= 1e-14
    assert worst_rate <= 1e-25


def test_criterion_7b_absorption():
    rng = np.random.default_rng(7)
    worst_f = -math.inf
    for _ in range(1000):
        delta = float(rng.uniform(0.1, 4.0))
        b = float(rng.uniform(0.1, 10.0))
        eps = eps_condition_bound(delta, b)
        bound = absorption_bound(AbsorptionParams(eps, delta, b))
        assert bound.condition_holds
        worst_f = max(worst_f, bound.f_at_s0 + delta)
        assert bound.f_at_s0 <= -delta + 1e-12
        s1, s2 = bound.roots
        assert s1 <= bound.s0 <= s2

    # 100 synthetic admissible h-sample sets
    passed = 0
    for k in range(100):
        delta = float(rng.uniform(0.2, 3.0))
        b = float(rng.uniform(0.2, 5.0))
        p = AbsorptionParams(eps_condition_bound(delta, b), delta, b)
        s1 = absorption_bound(p).roots[0]
        taus = np.sort(rng.uniform(0.0, 1.0, 12))
        taus[0] = 0.0
        hs = rng.uniform(0.0, 0.95 * s1, 12)
        verdict = absorption_check(list(zip(taus.tolist(), hs.tolist())), p)
        if verdict.premises_hold and verdict.conclusion_holds:
            passed += 1
    ok = passed == 100
    report("7b", ok, f"1000 tuples: f(s0)+delta <= {worst_f:.2e}, roots bracket "
                     f"s0; {passed}/100 synthetic h checks passed")
    assert ok


def test_criterion_7c_gamma_limit():
    worst = 0.0
    for gap in (0.25, 0.5, 1.0, 2.0):
        g = gamma_exponent(1e6, 1.0 + gap, 1.0, 3)
        worst = max(worst, abs(g - 1.0 / gap))
    ok = worst <= 1e-3
    report("7c", ok, f"max |gamma(1e6) - 1/(m-q)| = {worst:.2e}")
    assert ok


def test_criterion_7d_h4_equivalence():
    rng = np.random.default_rng(11)
    mismatches = 0
    for _ in range(10_000):
        m = float(rng.uniform(0.05, 4.0))
        q = float(rng.uniform(0.05, 4.0))
        N = int(rng.integers(2, 7))
        s = float(rng.uniform(0.01, 100.0))
        lhs, _ = h4_equivalence(m, q, N, s)
        if lhs != (m > q + (q - 1.0) / (N + 1.0)):
            mismatches += 1
    ok = mismatches == 0
    report("7d", ok, f"{mismatches} mismatches out of 10^4 tuples")
    assert ok


def test_criterion_7e_qs_identity():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(10_000):
        s = float(rng.uniform(1.0, 50.0))
        q = float(rng.uniform(0.05, 3.0))
        m = q + float(rng.uniform(0.0, 3.0))
        N = int(rng.integers(2, 7))
        _, q_s = exponent_ms_qs(s, m, q, N)
        m_s_frac = Fraction(s + 1) * 2 / N + Fraction(m) + Fraction(s)
        q_s_frac = m_s_frac - (2 * Fraction(q) - Fraction(m) + Fraction(s))
        exact = float(q_s_frac)
        worst = max(worst, abs(q_s - exact) / max(abs(exact), 1e-300))
    ok = worst <= 1e-13
    report("7e", ok, f"max relative deviation between q_s forms = {worst:.2e}")
    assert ok


# ------------------------------------------------------------- criterion 8

def _max_ratio_fr1(records):
    vals = [r.ratio_fr1 for r in records]
    assert all(math.isfinite(v) for v in vals), "ratio_fr1 must stay finite"
    return max(vals)


def test_criterion_8_estimate_ratio_stability(random_runs):
    """ratio_fr1 stays finite on the 20 randomized runs, and refining three
    of them from 24^2 to 48^2 grows its maximum at most twofold.  The
    refinement pairs stop at t = 0.05, while the data are still evolving
    (the 320-step runs reach t ~ 12 and have relaxed to uniform), and
    record at every step."""
    maxima = [_max_ratio_fr1(r["records"]) for r in random_runs]
    assert all(math.isfinite(x) for x in maxima)

    configs = _randomized_configs()
    worst_growth = 0.0
    for idx in (0, 7, 14):
        c = configs[idx]
        coarse, fine = (_monitored_run(c["m"], c["q"], c["sigma"], c["seed"],
                                       n_cells=n, horizon=0.05, record_every=1)
                        for n in (24, 48))
        assert coarse["t_end"] == fine["t_end"] == 0.05
        r_coarse = _max_ratio_fr1(coarse["records"])
        r_fine = _max_ratio_fr1(fine["records"])
        if r_coarse > 0:
            worst_growth = max(worst_growth, r_fine / r_coarse)
    ok = worst_growth <= 2.0
    report("8", ok, f"max ratio_fr1 finite on 20 runs "
                    f"(overall max {max(maxima):.3g}); refinement growth "
                    f"factor <= {worst_growth:.3f} (allowed 2.0)")
    assert ok


# ------------------------------------------------------------- criterion 9

def test_criterion_9_determinism(tmp_path):
    run_doc = {
        "kind": "run",
        "model": {"m": 1.5, "q": 1.0, "sigma": 1e-3},
        "grid": {"dim": 2, "cells": [16, 16]},
        "initial": {"preset": "random-nonneg", "low": 0.1, "high": 1.0},
        "horizon": 2e-3,
        "samples": 4,
        "seed": 3,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(run_doc))
    blobs = []
    for k in range(2):
        out = tmp_path / f"run{k}"
        assert cli_main(["run", str(cfg_path), "--out", str(out)]) == 0
        blobs.append(tuple((out / n).read_bytes()
                           for n in (RUN_CSV, METADATA_JSON, LADDER_CSV)))
    runs_identical = blobs[0] == blobs[1]

    sweep_doc = {
        "kind": "sweep",
        "m_grid": [1.0, 1.5, 2.0],
        "q_grid": [1.0],
        "template": {k: v for k, v in run_doc.items() if k != "kind"},
    }
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(sweep_doc))
    sweeps = []
    for k, workers in enumerate((1, 2)):
        out = tmp_path / f"sweep{k}"
        assert cli_main(["sweep", str(sweep_path), "--out", str(out),
                         "--workers", str(workers)]) == 0
        sweeps.append((out / SWEEP_JSON).read_bytes())
    sweeps_identical = sweeps[0] == sweeps[1]

    ok = runs_identical and sweeps_identical
    report("9", ok, f"rerun bytes identical: {runs_identical}; "
                    f"workers 1 vs 2 identical: {sweeps_identical}")
    assert runs_identical
    assert sweeps_identical
