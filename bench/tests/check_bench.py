"""The benchmark's own tests: the short mode of each workload, the
correctness checks turning red on broken artifacts, and sweep.json
byte-identity across worker counts.

    python3 -m pytest bench/tests/check_bench.py

The file name keeps these tests out of the repository's default pytest run:
importing the benchmark limits BLAS to one thread for the whole process.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (first: puts the checkout's sources on the path)
import run as bench_run  # noqa: E402
import tracing  # noqa: E402

import numpy as np  # noqa: E402
from ksfv.config import parse_config  # noqa: E402
from ksfv.outputs import write_sweep_json  # noqa: E402
from ksfv.sweep import run_sweep  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _bench_json(argv: list[str], capsys) -> dict:
    assert bench_run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_short_mode_reports_every_metric(name, trace, capsys):
    res = _bench_json(["--workload", name, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace), "--short"], capsys)
    assert res["correct"] is True
    assert res["failed"] == 0
    assert res["attempted"] == (1 + trace) * workloads.make_workload(name, 3).operations
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}


@pytest.mark.parametrize("name", ["blowup-classical", "bounded-porous"])
def test_traced_layers_account_for_wall_time(name, tmp_path):
    """The solver, diagnostics and outputs layers plus set-up cover a traced
    round's wall time, up to the benchmark's own glue."""
    w = workloads.make_workload(name, 0, short=True)
    tracer = tracing.Tracer()
    tracer.install(layers=True)
    try:
        r = bench_run.measure_round(tracer, w, tmp_path / "round")
    finally:
        tracer.uninstall()
    m = {k: v for k, (v, _) in tracing.layer_metrics(r.spans, r.wall, 1).items()}
    covered = sum(m[k] for k in (
        "solver.u_update_s", "solver.advance_v_s", "solver.run_loop_s",
        "diagnostics.record_s", "diagnostics.ladder_s", "outputs.write_s",
        "config.parse_s", "model.initial_data_s"))
    assert 0.0 < covered <= r.wall
    assert r.wall - covered <= 0.05 * r.wall + 0.01


# ------------------------------------------------ checks on broken artifacts

@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One short round of each workload, written once and copied per test."""
    root = tmp_path_factory.mktemp("artifacts")
    for name in workloads.WORKLOADS:
        w = workloads.make_workload(name, 0, short=True)
        assert workloads.run_round(w, root / name) == []
        assert workloads.check_round(w, root / name, []) == []
    return root


def _copy(artifacts, name, tmp_path) -> Path:
    return Path(shutil.copytree(artifacts / name, tmp_path / name))


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _perturb_mass(run_dir: Path) -> None:
    lines = (run_dir / "run.csv").read_text().splitlines()
    row = lines[2].split(",")
    row[1] = repr(float(row[1]) * (1.0 + 1e-6))
    lines[2] = ",".join(row)
    (run_dir / "run.csv").write_text("\n".join(lines) + "\n")


def _negative_cell(run_dir: Path) -> None:
    fields = np.load(run_dir / "series_u.npy")
    fields[1, 0, 0] = -1e-12
    np.save(run_dir / "series_u.npy", fields)


def _set_meta(key, value):
    return lambda run_dir: _edit_json(run_dir / "metadata.json",
                                      lambda d: d.__setitem__(key, value))


RUN_BREAKS = {
    "mass": ("bounded-porous", _perturb_mass, "mass"),
    "negative-cell": ("bounded-porous", _negative_cell, "sign"),
    "comparison": ("blowup-classical", _set_meta("comparison_violation", 1e-6),
                   "comparison"),
    "not-at-horizon": ("bounded-porous", _set_meta("t_end", 0.049), "t_end"),
    "peak-too-high": ("bounded-porous", _set_meta("running_max_sup_u", 1e9), "peak"),
    "wrong-termination": ("blowup-classical", _set_meta("termination", "reached_T"),
                          "termination"),
}


@pytest.mark.parametrize("case", list(RUN_BREAKS))
def test_run_check_goes_red(case, artifacts, tmp_path):
    name, breaker, word = RUN_BREAKS[case]
    out = _copy(artifacts, name, tmp_path)
    w = workloads.make_workload(name, 0, short=True)
    leg = w.legs[0]
    assert workloads.check_leg(leg, out / leg.name) == []
    breaker(out / leg.name)
    problems = workloads.check_leg(leg, out / leg.name)
    assert problems and all(word in p for p in problems), problems


@pytest.mark.parametrize("t_end, red", [(0.102 * 1.04, False), (0.102 * 0.96, False),
                                        (0.102 * 1.06, True), (0.102 * 0.94, True)])
def test_blowup_time_band(t_end, red, artifacts, tmp_path):
    """The stated-scale leg's band, applied to a short run's artifacts with
    t_end moved inside or outside it."""
    out = _copy(artifacts, "blowup-classical", tmp_path)
    leg = workloads.make_workload("blowup-classical", 0).legs[0]
    assert leg.t_end_band == workloads.EXPLICIT_T_BLOWUP
    _set_meta("t_end", t_end)(out / leg.name)
    problems = workloads.check_leg(leg, out / leg.name)
    assert bool(problems) == red, problems
    assert all("t_end" in p for p in problems)


def _point(doc, m, q):
    return next(pt for pt in doc["points"] if pt["m"] == m and pt["q"] == q)


SWEEP_BREAKS = {
    "regime-h3-dropped": (lambda d: _point(d, 2.0, 0.5).update(regime="H4"), "regime"),
    "regime-h3-added": (lambda d: _point(d, 0.75, 1.0).update(regime="H3"), "regime"),
    "regime-classical": (lambda d: _point(d, 1.0, 1.0).update(regime="H4"), "regime"),
    "bounded-side-blows-up": (lambda d: _point(d, 1.5, 1.0).update(
        classification="BlowUp"), "expected Bounded"),
    "sup-below-mean": (lambda d: _point(d, 2.0, 1.0).update(final_sup_u=1.0), "mean"),
    "failed-point": (lambda d: d.update(failures=1), "failed"),
}


@pytest.mark.parametrize("case", list(SWEEP_BREAKS))
def test_sweep_check_goes_red(case, artifacts, tmp_path):
    edit, word = SWEEP_BREAKS[case]
    path = _copy(artifacts, "phase-sweep", tmp_path) / "sweep.json"
    assert workloads.check_sweep(path) == []
    _edit_json(path, edit)
    problems = workloads.check_sweep(path)
    assert problems and all(word in p for p in problems), problems


def test_sweep_json_identical_across_worker_counts(tmp_path):
    w = workloads.make_workload("phase-sweep", 0, short=True)
    cfg = parse_config(json.dumps(w.sweep_doc))
    texts = []
    for workers in (1, 2):
        path = tmp_path / f"sweep-{workers}.json"
        write_sweep_json(run_sweep(replace(cfg, workers=workers)), path)
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]
