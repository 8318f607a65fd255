"""Phase-diagram sweeps over (m, q) with bounded/blow-up classification.

Each grid point runs the same template configuration with its own exponent
pair; SweepConfig builds and checks every point's config at parse time.
Points are independent jobs, and their results come back in grid order
whatever the worker count and completion order.  A job that fails when it
runs is recorded at its point and does not abort the sweep.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .config import RunConfig, SweepConfig
from .diagnostics import DiagnosticsTracker, analytic_exponents
from .model import classify_regime
from .solver import DT_COLLAPSED, NONFINITE, REACHED_T, SUP_THRESHOLD, RunResult, run

BOUNDED = "Bounded"
BLOW_UP = "BlowUp"
INCONCLUSIVE = "Inconclusive"

_BLOW_UP_REASONS = (DT_COLLAPSED, NONFINITE, SUP_THRESHOLD)


@dataclass(frozen=True)
class Classification:
    label: str
    monotone_growth: bool


def classify_run(result: RunResult, bounded_multiple: float) -> Classification:
    """Map a finished run onto {Bounded, BlowUp, Inconclusive}.

    BlowUp when the run stopped on a blow-up reason; Bounded when the
    horizon was reached and the running max of sup u stayed within
    bounded_multiple times its initial value; Inconclusive otherwise.  A
    bounded run whose sampled sup u grew monotonically is flagged for human
    review (it may simply not have blown up yet).  The sampled sups are
    u.max() of the stored samples (the records' sup_u, as u >= 0), so a
    run without a tracker is labelled the same way.
    """
    if not result.u_samples:
        raise ValueError("empty sample series")
    if result.termination in _BLOW_UP_REASONS:
        return Classification(BLOW_UP, False)

    sups = [float(u.max()) for u in result.u_samples]
    initial = sups[0]
    monotone = all(a <= b for a, b in zip(sups, sups[1:])) and sups[-1] > initial
    if result.termination == REACHED_T and (
            initial == 0.0 or result.running_max_sup_u <= bounded_multiple * initial):
        return Classification(BOUNDED, monotone)
    return Classification(INCONCLUSIVE, monotone)


def execute_run(cfg: RunConfig, wall_clock_budget: float | None = None):
    """Run one configuration end to end: initial data, tracker, integration.

    Returns (result, tracker).
    """
    initial = cfg.make_initial()
    tracker = DiagnosticsTracker(cfg.model, cfg.diagnostics, initial.v0)
    result = run(initial, cfg.model, cfg.control, cfg.horizon,
                 samples=cfg.samples, tracker=tracker,
                 sup_threshold_multiple=cfg.thresholds.sup_multiple,
                 wall_clock_budget=wall_clock_budget)
    return result, tracker


# A sweep point's result keys, between its i, j, m, q and its error.
_RESULT_KEYS = ("regime", "classification", "monotone_growth", "termination",
                "final_sup_u", "t_end", "max_log_ratio_s14")


def _sweep_point(args) -> dict:
    i, j, cfg = args
    try:
        N, _, _ = analytic_exponents(cfg.model, cfg.diagnostics, cfg.grid.dim)
        regime = classify_regime(cfg.model, N)
        result, _ = execute_run(cfg)
        verdict = classify_run(result, cfg.thresholds.bounded_multiple)
        logs = [rec.log_ratio_s14 for rec in result.records if math.isfinite(rec.log_ratio_s14)]
        values = (regime.value, verdict.label, verdict.monotone_growth, result.termination,
                  result.records[-1].sup_u, result.final_state.t,
                  max(logs, default=None))
        error = None
    except Exception as e:  # job isolation: record, keep sweeping
        values, error = (None,) * len(_RESULT_KEYS), f"{type(e).__name__}: {e}"
    return {"i": i, "j": j, "m": cfg.model.m, "q": cfg.model.q,
            **dict(zip(_RESULT_KEYS, values, strict=True)), "error": error}


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    points: tuple[dict, ...]    # grid order: i-major over m_grid, j over q_grid

    @property
    def failures(self) -> list[dict]:
        return [pt for pt in self.points if pt["error"] is not None]


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Execute the job of every point of cfg.points, in a pool of cfg.workers
    processes when there are more than one.  pool.map returns the results in
    submission order, so worker count and completion order cannot change the
    result."""
    if cfg.workers == 1:
        return SweepResult(config=cfg, points=tuple(map(_sweep_point, cfg.points)))
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        return SweepResult(config=cfg, points=tuple(pool.map(_sweep_point, cfg.points)))
