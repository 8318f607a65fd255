"""Artifact writers: per-run CSV, metadata JSON, ladder CSV, sweep JSON.

All real numbers are written with their shortest round-trip decimal
representation (Python repr), so files are reproducible byte for byte and
parse back to exactly the same doubles.  Nothing time- or host-dependent is
written; rerunning the same config and seed reproduces every file exactly.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, run_config_to_dict, sweep_config_to_dict
from .diagnostics import DeGiorgiLadder, DiagnosticsRecord, DiagnosticsTracker
from .solver import RunResult
from .sweep import SweepResult

RUN_CSV = "run.csv"
METADATA_JSON = "metadata.json"
LADDER_CSV = "ladder.csv"
SERIES_TIMES_NPY = "series_t.npy"
SERIES_FIELDS_NPY = "series_u.npy"
SWEEP_JSON = "sweep.json"


def fmt(x: float) -> str:
    """Shortest decimal that round-trips to the same double."""
    return repr(float(x))


def _p_label(p: float) -> str:
    return str(int(p)) if float(p).is_integer() else fmt(p)


def run_csv_header(p_list) -> list[str]:
    return (["t", "mass", "sup_u", "sup_v", "sup_grad_v"]
            + [f"lp_u:p={_p_label(p)}" for p in p_list]
            + ["energy_s", "grad_energy_running", "ratio_fr1", "ratio_s14"])


def write_run_csv(records: list[DiagnosticsRecord], p_list, path: Path) -> None:
    lines = [",".join(run_csv_header(p_list))]
    for rec in records:
        row = [fmt(rec.t), fmt(rec.mass), fmt(rec.sup_u), fmt(rec.sup_v),
               fmt(rec.sup_grad_v)]
        row += [fmt(rec.lp_u[p]) for p in p_list]
        row += [fmt(rec.energy_s), fmt(rec.grad_energy_running),
                fmt(rec.ratio_fr1), fmt(rec.ratio_s14)]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def read_run_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


def _jsonable(x):
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return None
    return x


def write_run_metadata(cfg: RunConfig, result: RunResult,
                       tracker: DiagnosticsTracker, path: Path) -> None:
    from . import __version__

    doc = {
        "config": run_config_to_dict(cfg),
        "termination": result.termination,
        "t_end": result.final_state.t,
        "steps": result.steps,
        "s_used": tracker.s,
        "p_fr1_used": tracker.p_fr1,
        "N_used": tracker.N,
        "v_w1inf_0": tracker.v_w1inf_0,
        "gamma": _jsonable(tracker.gamma if tracker.gamma is not None else math.nan),
        "running_max_sup_u": result.running_max_sup_u,
        "running_max_sup_grad_v": result.running_max_sup_grad_v,
        "sup_second_difference_v": tracker.sup_dd_v_max,
        "comparison_violation": result.comparison_violation,
        "versions": {"ksfv": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
    }
    path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def write_ladder_csv(ladder: DeGiorgiLadder | None, path: Path) -> None:
    lines = ["n,K_n,A_n_measure,y_n"]
    if ladder is not None:
        for n, (kn, an, yn) in enumerate(zip(ladder.levels, ladder.measures,
                                             ladder.energies)):
            lines.append(f"{n},{fmt(kn)},{fmt(an)},{fmt(yn)}")
    path.write_text("\n".join(lines) + "\n")


def write_series(result: RunResult, out_dir: Path) -> None:
    """Sampled u fields as plain .npy (no zip timestamps, so reproducible)."""
    np.save(out_dir / SERIES_TIMES_NPY, np.asarray(result.sample_times))
    np.save(out_dir / SERIES_FIELDS_NPY, np.stack(result.u_samples))


def load_series(out_dir: Path) -> tuple[np.ndarray, np.ndarray]:
    times = np.load(out_dir / SERIES_TIMES_NPY)
    fields = np.load(out_dir / SERIES_FIELDS_NPY)
    return times, fields


def emit_run_outputs(cfg: RunConfig, result: RunResult, tracker: DiagnosticsTracker,
                     ladder: DeGiorgiLadder | None, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_run_csv(result.records, cfg.diagnostics.p_list, out_dir / RUN_CSV)
    write_run_metadata(cfg, result, tracker, out_dir / METADATA_JSON)
    write_ladder_csv(ladder, out_dir / LADDER_CSV)
    write_series(result, out_dir)


def write_sweep_json(result: SweepResult, path: Path) -> None:
    from . import __version__

    doc = {
        "config": sweep_config_to_dict(result.config),
        "points": [{k: _jsonable(v) for k, v in pt.items()} for pt in result.points],
        "failures": len(result.failures),
        "versions": {"ksfv": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
    }
    path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")
