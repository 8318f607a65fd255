"""Artifact writers: per-run CSV, metadata JSON, ladder CSV, sampled u, sweep
JSON.  The run directory's format is this module's: it writes every file of
one, and only rebuild_run_ladder reads one back.

All real numbers are written with their shortest round-trip decimal
representation (Python repr), so files are reproducible byte for byte and
parse back to exactly the same doubles.  Nothing time- or host-dependent is
written; rerunning the same config and seed reproduces every file exactly.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, _convert, run_config_to_dict, sweep_config_to_dict
from .diagnostics import DeGiorgiLadder, DiagnosticsRecord, DiagnosticsTracker, build_ladder
from .grid import GridSpec
from .kernels import exponent_ms_qs
from .solver import RunResult
from .sweep import SweepResult

RUN_CSV = "run.csv"
METADATA_JSON = "metadata.json"
LADDER_CSV = "ladder.csv"
SERIES_FIELDS_NPY = "series_u.npy"
SWEEP_JSON = "sweep.json"
_VERSIONS = {"ksfv": __version__, "numpy": np.__version__, "python": sys.version.split()[0]}


def fmt(x: float) -> str:
    """Shortest decimal that round-trips to the same double."""
    return repr(float(x))


def _p_label(p: float) -> str:
    return str(int(p)) if float(p).is_integer() else fmt(p)


def _run_csv_cells(rec: DiagnosticsRecord):
    """(column, value) of each run.csv cell of rec: its fields in declaration
    order, a dict field (lp_u) as one column per key."""
    for f in fields(rec):
        value = getattr(rec, f.name)
        if isinstance(value, dict):
            yield from ((f"{f.name}:p={_p_label(p)}", x) for p, x in value.items())
        else:
            yield f.name, value


def write_run_csv(records: list[DiagnosticsRecord], path: Path) -> None:
    lines = [",".join(column for column, _ in _run_csv_cells(records[0]))]
    lines += [",".join(fmt(x) for _, x in _run_csv_cells(rec)) for rec in records]
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
        "comparison_violation": result.comparison_violation,
        "versions": _VERSIONS,
    }
    path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def write_ladder_csv(ladder: DeGiorgiLadder | None, path: Path) -> None:
    lines = ["n,K_n,A_n_measure,y_n"]
    if ladder is not None:
        for n, (kn, an, yn) in enumerate(zip(ladder.levels, ladder.measures,
                                             ladder.energies)):
            lines.append(f"{n},{fmt(kn)},{fmt(an)},{fmt(yn)}")
    path.write_text("\n".join(lines) + "\n")


def rebuild_run_ladder(run_dir: Path, K: float, n_max: int) -> DeGiorgiLadder:
    """The truncation ladder at K and n_max of the run stored in run_dir.
    It reads only the echo's model.m, model.q, grid.cells and grid.extent,
    s_used, N_used, the sample times (run.csv's t) and the sampled u, so any
    earlier config schema reads alike.  Raises OSError, ValueError, KeyError
    or TypeError on a run directory it cannot read, or whose fields do not
    match grid.cells."""
    meta = json.loads((run_dir / METADATA_JSON).read_text())
    model, grid, errors = meta["config"]["model"], meta["config"]["grid"], []
    m = _convert(float, model["m"], "config.model.m", errors)
    q = _convert(float, model["q"], "config.model.q", errors)
    cells = _convert(tuple[int, ...], grid["cells"], "config.grid.cells", errors)
    extent = _convert(tuple[float, ...], grid["extent"], "config.grid.extent", errors)
    s_used = _convert(float, meta["s_used"], "s_used", errors)
    N_used = _convert(int, meta["N_used"], "N_used", errors)
    if errors:
        raise ValueError("; ".join(errors))
    cell_volume = GridSpec(dim=len(cells), cells=cells, extent=extent).cell_volume
    m_s, _ = exponent_ms_qs(s_used, m, q, N_used)
    header, rows = read_run_csv(run_dir / RUN_CSV)
    times = [row[header.index("t")] for row in rows]
    u_samples = np.load(run_dir / SERIES_FIELDS_NPY)
    if u_samples.shape[1:] != cells:
        raise ValueError(f"{SERIES_FIELDS_NPY} holds fields of shape {u_samples.shape[1:]}, "
                         f"but config.grid.cells is {cells}")
    return build_ladder(times, list(u_samples), cell_volume, K=K, n_max=n_max, m_s=m_s)


def emit_run_outputs(cfg: RunConfig, result: RunResult, tracker: DiagnosticsTracker,
                     ladder: DeGiorgiLadder | None, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_run_csv(result.records, out_dir / RUN_CSV)
    write_run_metadata(cfg, result, tracker, out_dir / METADATA_JSON)
    write_ladder_csv(ladder, out_dir / LADDER_CSV)
    # plain .npy, without zip timestamps; the sample times are run.csv's t
    np.save(out_dir / SERIES_FIELDS_NPY, np.stack(result.u_samples))


def write_sweep_json(result: SweepResult, path: Path) -> None:
    doc = {
        "config": sweep_config_to_dict(result.config),
        "points": [{k: _jsonable(v) for k, v in pt.items()} for pt in result.points],
        "failures": len(result.failures),
        "versions": _VERSIONS,
    }
    path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")
