"""Phase-diagram sweeps over (m, q) with bounded/blow-up classification.

Each grid point runs the same template configuration with its own exponent
pair.  Points are independent jobs; results are merged by grid index, so
the outcome is identical for any worker count and completion order.
Individual job failures are recorded per point and do not abort the sweep.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

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


def _max_ratio_s14(records) -> float | None:
    vals = [rec.ratio_s14 for rec in records
            if not math.isnan(rec.ratio_s14) and not math.isinf(rec.ratio_s14)]
    return max(vals) if vals else None


def _sweep_point(args) -> dict:
    i, j, m, q, template = args
    point = {"i": i, "j": j, "m": m, "q": q}
    try:
        cfg = replace(template, model=replace(template.model, m=m, q=q))
        N, _, _ = analytic_exponents(cfg.model, cfg.diagnostics)
        regime = classify_regime(cfg.model, N)
        result, _ = execute_run(cfg)
        verdict = classify_run(result, cfg.thresholds.bounded_multiple)
        point.update({
            "regime": regime.value,
            "classification": verdict.label,
            "monotone_growth": verdict.monotone_growth,
            "termination": result.termination,
            "final_sup_u": result.records[-1].sup_u,
            "t_end": result.final_state.t,
            "max_ratio_s14": _max_ratio_s14(result.records),
            "error": None,
        })
    except Exception as e:  # job isolation: record, keep sweeping
        point.update({
            "regime": None, "classification": None, "monotone_growth": None,
            "termination": None, "final_sup_u": None, "t_end": None,
            "max_ratio_s14": None, "error": f"{type(e).__name__}: {e}",
        })
    return point


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    points: tuple[dict, ...]    # grid order: i-major over m_grid, j over q_grid

    @property
    def failures(self) -> list[dict]:
        return [pt for pt in self.points if pt["error"] is not None]


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Execute all (m, q) jobs, merging results by grid index.

    The merge is keyed, so worker count and completion order cannot change
    the result.
    """
    jobs = [(i, j, m, q, cfg.template)
            for i, m in enumerate(cfg.m_grid)
            for j, q in enumerate(cfg.q_grid)]

    merged: dict[tuple[int, int], dict] = {}
    if cfg.workers == 1:
        for job in jobs:
            pt = _sweep_point(job)
            merged[(pt["i"], pt["j"])] = pt
    else:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            for pt in pool.map(_sweep_point, jobs):
                merged[(pt["i"], pt["j"])] = pt

    ordered = tuple(merged[(i, j)]
                    for i in range(len(cfg.m_grid))
                    for j in range(len(cfg.q_grid)))
    return SweepResult(config=cfg, points=ordered)
