import json
import math
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ksfv import solver, sweep
from ksfv.cli import main as cli_main
from ksfv.config import (ConfigError, RunConfig, SweepConfig, parse_config,
                         run_config_to_dict, sweep_config_to_dict)
from ksfv.diagnostics import DiagnosticsConfig, ladder_for_run
from ksfv.outputs import (LADDER_CSV, METADATA_JSON, RUN_CSV, SERIES_FIELDS_NPY, SWEEP_JSON,
                          emit_run_outputs, read_run_csv, write_sweep_json)
from ksfv.solver import run
from ksfv.sweep import (BLOW_UP, BOUNDED, INCONCLUSIVE, Classification, classify_run,
                        execute_run, run_sweep)


MINIMAL_RUN = {
    "kind": "run",
    "model": {"m": 2.0, "q": 1.0, "sigma": 1e-3},
    "grid": {"dim": 2, "cells": [8, 8]},
    "initial": {"preset": "constant", "value": 1.0, "v0_preset": "match"},
    "horizon": 1e-3,
    "samples": 3,
}


# the 32^2 bump of mass 1.5 x 8 pi, whose sup |grad v|^gamma overflows near m = q
NEAR_M_EQ_Q = {
    "model": {"sigma": 1e-3},
    "grid": {"dim": 2, "cells": [32, 32], "extent": [1.0, 1.0]},
    "initial": {"preset": "gaussian-bump", "mass": 37.699, "width": 0.08},
    "horizon": 0.01,
    "samples": 3,
}


def small_run_doc(**overrides):
    doc = json.loads(json.dumps(MINIMAL_RUN))
    doc.update(overrides)
    return doc


def small_sweep_doc(m_grid=(1.0, 2.0), q_grid=(1.0,), workers=1):
    template = small_run_doc()
    template.pop("kind")
    return {
        "kind": "sweep",
        "m_grid": list(m_grid),
        "q_grid": list(q_grid),
        "template": template,
        "workers": workers,
    }


class TestParseConfig:
    def test_minimal_run_fills_defaults(self):
        cfg = parse_config(json.dumps(MINIMAL_RUN))
        assert isinstance(cfg, RunConfig)
        assert cfg.control.safety == 0.4
        assert cfg.control.dt_min == pytest.approx(1e-12 * cfg.horizon)
        assert cfg.thresholds.sup_multiple == 1e4
        assert cfg.diagnostics.p_list == (1.0, 2.0, 4.0)
        assert cfg.seed == 0

    def test_round_trip_exact(self):
        cfg = parse_config(json.dumps(MINIMAL_RUN))
        echoed = json.dumps(run_config_to_dict(cfg))
        cfg2 = parse_config(echoed)
        assert cfg2 == cfg
        assert json.dumps(run_config_to_dict(cfg2)) == echoed

    def test_negative_m_reports_field(self):
        doc = small_run_doc(model={"m": -1.0, "q": 1.0})
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert any("model" in e and "m must be > 0" in e for e in exc.value.errors)

    def test_unknown_key_rejected_with_path(self):
        doc = small_run_doc()
        doc["model"]["mystery"] = 1
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert any("model.mystery" in e for e in exc.value.errors)

    def test_multiple_errors_collected(self):
        doc = small_run_doc(model={"m": -1.0, "q": -2.0}, samples=1)
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert len(exc.value.errors) >= 2

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")

    def test_sweep_plan_size(self):
        doc = small_sweep_doc(m_grid=(1.0, 1.5, 2.0), q_grid=(0.5, 1.0, 1.5))
        cfg = parse_config(json.dumps(doc))
        assert isinstance(cfg, SweepConfig)
        assert len(cfg.m_grid) * len(cfg.q_grid) == 9

    def test_sweep_grids_must_increase(self):
        doc = small_sweep_doc(m_grid=(2.0, 1.0))
        with pytest.raises(ConfigError):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("overrides,path", [
        ({"horizon": math.nan}, "run.horizon"),
        ({"horizon": math.inf}, "run.horizon"),
        ({"horizon": -math.inf}, "run.horizon"),
        ({"control": {"dt_max": math.inf}}, "control.dt_max")])
    def test_non_finite_number_rejected(self, overrides, path):
        # Python's json reads NaN and Infinity; a NaN horizon never ends a run
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(small_run_doc(**overrides)))
        assert any(e.startswith(f"{path}: expected a finite number")
                   for e in exc.value.errors)

    def test_optional_numbers_parsed(self):
        doc = small_run_doc(diagnostics={"s": 3, "p_fr1": 5.0})
        cfg = parse_config(json.dumps(doc))
        assert (cfg.diagnostics.s, cfg.diagnostics.p_fr1) == (3, 5.0)
        assert parse_config(json.dumps(run_config_to_dict(cfg))) == cfg
        for initial in ({"preset": "gaussian-bump", "width": 0.3, "centers": [[0.25, 0.5]]},
                        {"preset": "gaussian-bump", "width": 0.3,
                         "centers": [[0.25, 0.5], [0.75, 0.5], [0.5, 0.25]]}):
            cfg = parse_config(json.dumps(small_run_doc(initial=initial)))
            echoed = run_config_to_dict(cfg)
            assert {k: echoed["initial"][k] for k in initial} == initial
            assert parse_config(json.dumps(echoed)) == cfg
            assert cfg.make_initial().u0.values.sum() * cfg.grid.cell_volume == \
                pytest.approx(1.0, rel=1e-12)

    def test_readme_example_round_trips(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = [b for b in re.findall(r"```json\n(.*?)```", readme, re.S)
                  if '"kind": "run"' in b]
        assert len(blocks) == 1
        cfg = parse_config(blocks[0])
        assert parse_config(json.dumps(run_config_to_dict(cfg))) == cfg

    def test_library_built_config_checks_its_initial_data(self):
        # the check is RunConfig's own, not the parser's
        cfg = parse_config(json.dumps(small_run_doc(grid=GRID_32, initial=TALL_BUMP)))
        with pytest.raises(ValueError, match=r"^initial: the potential \(u0\+sigma\)\^m "
                                             r"overflows at m=40.0, q=1.0$"):
            replace(cfg, model=replace(cfg.model, m=40.0))
        # with chemotaxis off the step computes no u^q
        off = replace(cfg.model, q=40.0, chemotaxis=False)
        assert replace(cfg, model=off).model == off
        with pytest.raises(ValueError, match=r"^initial: u0\^q overflows"):
            replace(cfg, model=replace(off, chemotaxis=True))

    def test_grid_invariants_enforced(self):
        doc = small_run_doc(grid={"dim": 2, "cells": [2, 2]})
        with pytest.raises(ConfigError):
            parse_config(json.dumps(doc))


def _sweep_template(**overrides):
    doc = small_sweep_doc()
    doc["template"].update(overrides)
    return doc


def fail_point_at_m(monkeypatch, m):
    """Make the job of every sweep point with this m raise when it runs (the
    sweep at workers = 1 runs its jobs in this process)."""
    execute = sweep.execute_run

    def execute_run(cfg, *args, **kwargs):
        if cfg.model.m == m:
            raise RuntimeError("sabotaged point")
        return execute(cfg, *args, **kwargs)

    monkeypatch.setattr(sweep, "execute_run", execute_run)


FAR_BUMP = {"preset": "gaussian-bump", "mass": 1.0, "width": 0.1, "centers": [[100.0, 100.0]]}
HUGE_BUMP = {"preset": "gaussian-bump", "mass": 1e308, "width": 0.1}
GRID_32 = {"dim": 2, "cells": [32, 32]}
# u0 is finite, (u0+sigma)^2 overflows: the first step could not start at m = 2
SQUARE_OVERFLOWS = {"preset": "gaussian-bump", "mass": 1e300, "width": 0.1}
# (u0+sigma)^2 is finite, but u0^40 overflows (sup u0 is about 1.6e8)
TALL_BUMP = {"preset": "gaussian-bump", "mass": 1e7, "width": 0.1}

# Initial data on which the first step could not start at the run's own m
# and q, or at a sweep point's: a finite u0 whose powers overflow.  Each is
# the document's one error.
STEP_CANNOT_START = [
    pytest.param(small_run_doc(grid=GRID_32, initial=SQUARE_OVERFLOWS),
                 "run: initial: the potential (u0+sigma)^m overflows at m=2.0, q=1.0",
                 id="potential-overflows"),
    pytest.param(_sweep_template(grid=GRID_32, initial=SQUARE_OVERFLOWS),
                 "template: initial: the potential (u0+sigma)^m overflows at m=2.0, q=1.0",
                 id="template-potential-overflows"),
    pytest.param({**_sweep_template(grid=GRID_32, initial=TALL_BUMP), "m_grid": [1.0, 40.0]},
                 "sweep: initial: the potential (u0+sigma)^m overflows at m=40.0, q=1.0",
                 id="sweep-point-m-40"),
    pytest.param({**_sweep_template(grid=GRID_32, initial=TALL_BUMP), "m_grid": [1.0],
                  "q_grid": [1.0, 40.0]},
                 "sweep: initial: u0^q overflows at m=1.0, q=40.0", id="sweep-point-q-40"),
]

# Documents that must fail at parse time, not when their job runs, each
# with the start of the path-qualified error it must produce.
MALFORMED = [
    pytest.param(small_run_doc(initial={"preset": "gaussian-bump", "centers": 5}),
                 "initial.centers: expected a list", id="center-scalar"),
    pytest.param(small_run_doc(initial={"preset": "gaussian-bump", "centers": [1, 2]}),
                 "initial.centers[0]: expected a list", id="centers-flat"),
    pytest.param(_sweep_template(model="x"),
                 "template.model: expected an object", id="template-model-string"),
    pytest.param(_sweep_template(kind="sweep"),
                 "template.kind: expected 'run', got 'sweep'", id="template-kind-sweep"),
    pytest.param(_sweep_template(kind=42),
                 "template.kind: expected 'run', got 42", id="template-kind-number"),
    pytest.param(small_run_doc(grid={"dim": 2, "cells": [32, 32]},
                               initial={"preset": "gaussian-bump", "centers": [[0.5]]}),
                 "run: initial: center [0.5] needs 2 coordinates", id="center-1d-on-2d"),
    pytest.param(small_run_doc(initial={"preset": "gaussian-bump", "centers": [["a", "b"]]}),
                 "initial.centers[0][0]: expected a finite number", id="center-strings"),
    pytest.param(small_run_doc(initial={"preset": "gaussian-bump", "width": 0.1}),
                 "run: initial: width 0.1 under-resolved", id="width-under-resolved"),
    # initial data that parse but could not be built: a bump with no mass on
    # the grid, and a mass whose bump overflows
    pytest.param(small_run_doc(grid=GRID_32, initial=FAR_BUMP),
                 "run: initial: the bump at [100.0, 100.0] has no mass on the grid",
                 id="bump-off-grid"),
    pytest.param(_sweep_template(grid=GRID_32, initial=FAR_BUMP),
                 "template: initial: the bump at [100.0, 100.0] has no mass on the grid",
                 id="template-bump-off-grid"),
    pytest.param(small_run_doc(grid=GRID_32, initial=HUGE_BUMP),
                 "run: initial: mass 1e+308 overflows the bumps' values", id="bump-overflows"),
    pytest.param(_sweep_template(grid=GRID_32, initial=HUGE_BUMP),
                 "template: initial: mass 1e+308 overflows the bumps' values",
                 id="template-bump-overflows"),
    *STEP_CANNOT_START,
    pytest.param(small_run_doc(initial={"preset": "gaussian-bump", "mass": -1, "width": 0.3}),
                 "run: initial: requested mass must be > 0", id="mass-negative"),
    # one bump preset: bumps at `centers`, by default the box centre
    pytest.param(small_run_doc(initial={"preset": "two-bumps", "width": 0.3}),
                 "run: initial: unknown preset 'two-bumps'", id="retired-two-bumps"),
    pytest.param(small_run_doc(initial={"preset": "constant", "v0_preset": "zzz"}),
                 "run: initial: unknown v0 preset", id="v0-preset-unknown"),
    pytest.param(small_run_doc(grid={"dim": 2, "cells": [16, True]}),
                 "grid.cells[1]: expected an integer", id="cells-bool"),
    pytest.param(small_run_doc(control={"v_solve_tol": 0}),
                 "control: v_solve_tol must be > 0", id="v-solve-tol-zero"),
    pytest.param(small_run_doc(control={"max_steps": 0}),
                 "control: max_steps must be >= 1", id="max-steps-zero"),
    # retired keys, at any value: the CG cap is a solver constant, a fixed-K
    # ladder is what `ksfv ladder --K` builds, a fixed step is `safety: 1`
    # with the step as `dt_max`, the analytic dimension is the grid's (at
    # least 2), and a bump's centre is an entry of `centers`
    pytest.param(small_run_doc(control={"v_solve_max_iters": 1}),
                 "control.v_solve_max_iters: unknown key", id="retired-v-solve-max-iters"),
    pytest.param(small_run_doc(diagnostics={"ladder_k_mode": "fixed"}),
                 "diagnostics.ladder_k_mode: unknown key", id="retired-ladder-k-mode"),
    pytest.param(small_run_doc(control={"dt_fixed": -1}),
                 "control.dt_fixed: unknown key", id="dt-fixed-negative"),
    pytest.param(small_run_doc(control={"dt_fixed": 0}),
                 "control.dt_fixed: unknown key", id="dt-fixed-zero"),
    pytest.param(small_run_doc(control={"dt_min": 1e-5, "dt_fixed": 1e-6}),
                 "control.dt_fixed: unknown key", id="dt-fixed-below-dt-min"),
    pytest.param(small_run_doc(diagnostics={"N": 1}),
                 "diagnostics.N: unknown key", id="N-1"),
    pytest.param(small_run_doc(initial={"preset": "gaussian-bump", "center": [0.5, 0.5]}),
                 "initial.center: unknown key", id="retired-center"),
    pytest.param(small_run_doc(diagnostics={"s": 0}),
                 "run: diagnostics.s=0 violates s > max(0, m - 2q)", id="s-0"),
    pytest.param(_sweep_template(diagnostics={"s": 0}),
                 "template: diagnostics.s=0 violates s > max(0, m - 2q)", id="template-s-0"),
    pytest.param(small_run_doc(diagnostics={"p_fr1": 1.5}),
                 "run: diagnostics.p_fr1 must exceed (N+2)/2", id="p-fr1-small"),
    # each p is one run.csv column
    pytest.param(small_run_doc(diagnostics={"p_list": [2, 2.0]}),
                 "diagnostics: p_list must not repeat a value, got [2.0, 2.0]",
                 id="p-list-repeated"),
    pytest.param(small_run_doc(diagnostics={"ladder_n_max": -2}),
                 "diagnostics: ladder n_max must be in [0, 51], got -2",
                 id="ladder-n-max-negative"),
    # from n = 52 a ladder level can round to the one before it, which
    # would fail the run after it finished
    pytest.param(small_run_doc(diagnostics={"ladder_n_max": 52}),
                 "diagnostics: ladder n_max must be in [0, 51], got 52",
                 id="ladder-n-max-52"),
    pytest.param(small_run_doc(control={"dt_min": 0.05}),
                 "control: dt_min 0.05 exceeds safety * dt_max", id="dt-min-collapses"),
    pytest.param(small_run_doc(initial={"preset": "random-nonneg"}, seed=-1),
                 "run: initial: seed must be >= 0", id="seed-negative"),
    pytest.param(_sweep_template(initial={"preset": "random-nonneg"}, seed=-1),
                 "template: initial: seed must be >= 0", id="template-seed-negative"),
    # a grid point is checked as it is built, at parse time, not when its job runs
    pytest.param(small_sweep_doc(m_grid=(-1.0, 2.0)),
                 "sweep: m must be > 0, got -1.0", id="sweep-point-m-negative"),
    pytest.param({**_sweep_template(diagnostics={"s": 1}), "m_grid": [1.0, 4.0]},
                 "sweep: diagnostics.s=1 violates s > max(0, m - 2q) at m=4.0, q=1.0",
                 id="sweep-point-s"),
]


class TestMalformed:
    @pytest.mark.parametrize("doc,error", MALFORMED)
    def test_rejected_at_parse(self, doc, error):
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert any(e.startswith(error) for e in exc.value.errors), exc.value.errors

    @pytest.mark.parametrize("doc,error", MALFORMED)
    def test_cli_exits_1(self, tmp_path, capsys, doc, error):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            cli_main([doc["kind"], str(path), "--out", str(tmp_path / "o")])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid config:") and f"  {error}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("doc,error", STEP_CANNOT_START)
    def test_step_cannot_start_is_one_error(self, tmp_path, capsys, doc, error):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit):
            cli_main([doc["kind"], str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert err.startswith(f"invalid config:\n  {error}\n") and err.count("\n") == 2


def fake_result(sups, termination="reached_T"):
    """A stand-in RunResult: what classify_run reads, with sampled sups."""
    return SimpleNamespace(termination=termination, running_max_sup_u=max(sups, default=0.0),
                           u_samples=[np.full((2, 2), sup) for sup in sups])


class TestClassifyRun:
    def test_steady_bounded(self):
        verdict = classify_run(fake_result([1.0] * 4), bounded_multiple=50.0)
        assert verdict.label == BOUNDED
        assert not verdict.monotone_growth

    @pytest.mark.parametrize("reason", ["dt_collapsed", "nonfinite", "sup_threshold"])
    def test_stopping_flags_are_blow_up(self, reason):
        verdict = classify_run(fake_result([1.0], reason), 50.0)
        assert verdict.label == BLOW_UP

    def test_bounded_with_monotone_growth_flag(self):
        verdict = classify_run(fake_result([1.0, 2.0, 10.0, 49.0]), bounded_multiple=50.0)
        assert verdict.label == BOUNDED
        assert verdict.monotone_growth

    def test_overgrown_run_inconclusive(self):
        verdict = classify_run(fake_result([1.0, 30.0, 80.0]), bounded_multiple=50.0)
        assert verdict.label == INCONCLUSIVE

    def test_other_timeouts_inconclusive(self):
        verdict = classify_run(fake_result([1.0], "max_steps"), 50.0)
        assert verdict.label == INCONCLUSIVE

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            classify_run(fake_result([]), 50.0)

    def test_run_without_tracker_labelled_alike(self):
        # the sampled sups are the records' sup_u, so run() without a tracker
        # gets the label execute_run's tracked run gets
        doc = small_run_doc(model={"m": 1.0, "q": 1.0, "sigma": 1e-3},
                            grid={"dim": 2, "cells": [16, 16]},
                            initial={"preset": "gaussian-bump", "mass": 60.0,
                                     "width": 0.15},
                            horizon=0.08, samples=4)
        cfg = parse_config(json.dumps(doc))
        tracked, _ = execute_run(cfg)
        bare = run(cfg.make_initial(), cfg.model, cfg.control, cfg.horizon,
                   samples=cfg.samples,
                   sup_threshold_multiple=cfg.thresholds.sup_multiple)
        assert bare.records == [] and len(tracked.records) == cfg.samples
        assert [rec.sup_u for rec in tracked.records] == [u.max() for u in tracked.u_samples]
        verdict = classify_run(tracked, cfg.thresholds.bounded_multiple)
        assert classify_run(bare, cfg.thresholds.bounded_multiple) == verdict
        assert verdict == Classification(BOUNDED, True)


class TestSweep:
    def test_single_point_equals_single_run(self):
        doc = small_sweep_doc(m_grid=(2.0,), q_grid=(1.0,))
        sweep_cfg = parse_config(json.dumps(doc))
        result = run_sweep(sweep_cfg)
        assert len(result.points) == 1
        pt = result.points[0]

        template = sweep_cfg.template
        run_cfg = replace(template, model=replace(template.model, m=2.0, q=1.0))
        res, _ = execute_run(run_cfg)
        verdict = classify_run(res, run_cfg.thresholds.bounded_multiple)
        assert pt["classification"] == verdict.label
        assert pt["termination"] == res.termination

    def test_regime_uses_analytic_dimension(self):
        # at (m, q) = (0.35, 0.5) the H4 lower edge q + (q-1)/(N+1) is 0.333
        # at N = 2 and 0.375 at N = 3: a 2-D grid's N = 2 puts it in H4
        doc = small_sweep_doc(m_grid=(0.35,), q_grid=(0.5,))
        (pt,) = run_sweep(parse_config(json.dumps(doc))).points
        assert pt["error"] is None
        assert pt["regime"] == "H4"

    def test_worker_counts_agree_byte_for_byte(self, tmp_path):
        doc = small_sweep_doc(m_grid=(1.0, 2.0), q_grid=(0.5, 1.0))
        outs = []
        for workers in (1, 2):
            cfg = parse_config(json.dumps({**doc, "workers": workers}))
            result = run_sweep(cfg)
            path = tmp_path / f"sweep_{workers}.json"
            write_sweep_json(result, path)
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_job_failure_recorded_not_fatal(self, monkeypatch):
        doc = small_sweep_doc(m_grid=(1.0, 2.0), q_grid=(1.0,))
        # sabotage one point with a job that raises when it runs
        fail_point_at_m(monkeypatch, 1.0)
        cfg = parse_config(json.dumps(doc))
        result = run_sweep(cfg)
        assert len(result.points) == 2
        assert len(result.failures) == 1
        good = [pt for pt in result.points if pt["error"] is None]
        assert good and good[0]["m"] == 2.0

    def test_grid_order_stable(self):
        doc = small_sweep_doc(m_grid=(1.0, 2.0), q_grid=(0.5, 1.0))
        cfg = parse_config(json.dumps(doc))
        result = run_sweep(cfg)
        keys = [(pt["i"], pt["j"]) for pt in result.points]
        assert keys == [(0, 0), (0, 1), (1, 0), (1, 1)]

    @pytest.mark.parametrize("sigma", [1e-1, 1e-2, 1e-3, 0.0])
    def test_sigma_rung_conserves_mass(self, sigma):
        # each regularization down to sigma = 0 reaches the horizon with
        # mass conserved; nothing is asserted about the sigma -> 0 limit
        doc = small_run_doc(model={"m": 2.0, "q": 1.0, "sigma": sigma},
                            initial={"preset": "gaussian-bump", "mass": 1.0,
                                     "width": 0.3})
        result, _ = execute_run(parse_config(json.dumps(doc)))
        masses = [rec.mass for rec in result.records]
        assert result.termination == "reached_T"
        assert max(abs(mm - masses[0]) for mm in masses) <= 1e-10
        assert math.isfinite(result.running_max_sup_u)
        assert len(result.records) >= 2


class TestOutputs:
    def run_and_emit(self, tmp_path, doc=None):
        cfg = parse_config(json.dumps(doc or MINIMAL_RUN))
        result, tracker = execute_run(cfg)
        ladder = ladder_for_run(result.sample_times, result.u_samples,
                                cfg.grid.cell_volume, cfg.model,
                                cfg.diagnostics, result.running_max_sup_u)
        emit_run_outputs(cfg, result, tracker, ladder, tmp_path)
        return cfg, result

    def test_steady_run_csv_rows_identical(self, tmp_path):
        cfg, result = self.run_and_emit(tmp_path)
        text = (tmp_path / RUN_CSV).read_text().strip().split("\n")
        assert len(text) == 1 + 3  # header + 3 samples
        data_rows = [",".join(r.split(",")[1:]) for r in text[1:]]  # strip t column
        assert len(set(data_rows)) == 1

    def test_csv_column_contract(self, tmp_path):
        self.run_and_emit(tmp_path)
        header, _ = read_run_csv(tmp_path / RUN_CSV)
        assert header == ["t", "mass", "sup_u", "sup_v", "sup_grad_v",
                          "lp_u:p=1", "lp_u:p=2", "lp_u:p=4",
                          "energy_s", "grad_energy_running",
                          "ratio_fr1", "log_ratio_s14"]
        # the lp_u columns follow p_list, in its order
        self.run_and_emit(tmp_path, small_run_doc(diagnostics={"p_list": [4, 1.5]}))
        header, _ = read_run_csv(tmp_path / RUN_CSV)
        assert header[5:8] == ["lp_u:p=4", "lp_u:p=1.5", "energy_s"]

    def test_csv_round_trips_reals(self, tmp_path):
        cfg, result = self.run_and_emit(tmp_path)
        _, rows = read_run_csv(tmp_path / RUN_CSV)
        for rec, row in zip(result.records, rows):
            assert row[0] == rec.t
            assert row[1] == rec.mass
            assert row[2] == rec.sup_u

    def test_metadata_echoes_config(self, tmp_path):
        cfg, result = self.run_and_emit(tmp_path)
        meta = json.loads((tmp_path / METADATA_JSON).read_text())
        assert meta["config"] == run_config_to_dict(cfg)
        assert meta["termination"] == result.termination
        assert "versions" in meta and "s_used" in meta

    def test_metadata_keys(self, tmp_path):
        self.run_and_emit(tmp_path)
        meta = json.loads((tmp_path / METADATA_JSON).read_text())
        assert list(meta) == ["config", "termination", "t_end", "steps", "s_used",
                              "p_fr1_used", "N_used", "v_w1inf_0", "gamma",
                              "running_max_sup_u", "comparison_violation", "versions"]

    def test_ladder_csv_shape(self, tmp_path):
        cfg, _ = self.run_and_emit(tmp_path)
        lines = (tmp_path / LADDER_CSV).read_text().strip().split("\n")
        assert lines[0] == "n,K_n,A_n_measure,y_n"
        assert len(lines) == 1 + cfg.diagnostics.ladder_n_max + 1

    def test_rerun_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        self.run_and_emit(a)
        self.run_and_emit(b)
        for name in (RUN_CSV, METADATA_JSON, LADDER_CSV):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_sweep_json_point_count(self, tmp_path):
        doc = small_sweep_doc(m_grid=(1.0, 1.5, 2.0), q_grid=(0.5, 1.0))
        cfg = parse_config(json.dumps(doc))
        result = run_sweep(cfg)
        write_sweep_json(result, tmp_path / SWEEP_JSON)
        saved = json.loads((tmp_path / SWEEP_JSON).read_text())
        assert len(saved["points"]) == 6
        assert saved["config"] == sweep_config_to_dict(cfg)


def _metadata_not_json(out_dir):
    (out_dir / METADATA_JSON).write_text("{not json")


def _metadata_without_s_used(out_dir):
    meta = json.loads((out_dir / METADATA_JSON).read_text())
    del meta["s_used"]
    (out_dir / METADATA_JSON).write_text(json.dumps(meta))


def _run_csv_without_last_row(out_dir):
    lines = (out_dir / RUN_CSV).read_text().splitlines()
    (out_dir / RUN_CSV).write_text("\n".join(lines[:-1]) + "\n")


def _metadata_with(key, value):
    def damage(out_dir):
        meta = json.loads((out_dir / METADATA_JSON).read_text())
        meta[key] = value
        (out_dir / METADATA_JSON).write_text(json.dumps(meta))
    return damage


def _echo_with_cells(cells):
    def damage(out_dir):
        meta = json.loads((out_dir / METADATA_JSON).read_text())
        meta["config"]["grid"]["cells"] = cells
        (out_dir / METADATA_JSON).write_text(json.dumps(meta))
    return damage


class TestCli:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_run_command(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, MINIMAL_RUN)
        out_dir = tmp_path / "out"
        code = cli_main(["run", cfg_path, "--out", str(out_dir)])
        assert code == 0
        assert sorted(path.name for path in out_dir.iterdir()) == \
            sorted([RUN_CSV, METADATA_JSON, LADDER_CSV, SERIES_FIELDS_NPY])

    # a 16^2 bump of sup u0 about 4: K = ladder_k_value x sup is subnormal at
    # 1e-310 and overflows at 1e308, outside the ladder's domain
    @pytest.mark.parametrize("n_max", [8, 51])
    @pytest.mark.parametrize("k_value", [1e-310, 1e308])
    def test_run_with_k_outside_ladder_domain_writes_header_only_ladder(
            self, tmp_path, k_value, n_max):
        doc = small_run_doc(grid={"dim": 2, "cells": [16, 16]},
                            initial={"preset": "gaussian-bump", "mass": 1.0, "width": 0.2},
                            diagnostics={"ladder_k_value": k_value, "ladder_n_max": n_max})
        out_dir = tmp_path / "out"
        assert cli_main(["run", self.write_config(tmp_path, doc), "--out", str(out_dir)]) == 0
        assert sorted(path.name for path in out_dir.iterdir()) == \
            sorted([RUN_CSV, METADATA_JSON, LADDER_CSV, SERIES_FIELDS_NPY])
        assert (out_dir / LADDER_CSV).read_text() == "n,K_n,A_n_measure,y_n\n"

    def test_run_near_m_eq_q(self, tmp_path):
        # gamma -> 1/(m - q) = 2^k: from k = 9 sup |grad v|^gamma overflows,
        # but its log does not: log_ratio_s14 is +inf at t = 0, where v0 is
        # flat, and finite at the later samples
        for k in range(7, 11):
            doc = {"kind": "run", **NEAR_M_EQ_Q,
                   "model": {"m": 1.0 + 2.0 ** -k, "q": 1.0, "sigma": 1e-3}}
            out_dir = tmp_path / f"k{k}"
            assert cli_main(["run", self.write_config(tmp_path, doc), "--out", str(out_dir)]) == 0
            header, rows = read_run_csv(out_dir / RUN_CSV)
            logs = [row[header.index("log_ratio_s14")] for row in rows]
            assert len(logs) == 3 and logs[0] == math.inf, (k, logs)
            assert all(map(math.isfinite, logs[1:])), (k, logs)

    def test_sweep_near_m_eq_q_has_no_failed_point(self, tmp_path):
        doc = {"kind": "sweep", "m_grid": [1.0 + 2.0 ** -k for k in (10, 9, 8, 7)],
               "q_grid": [1.0], "template": NEAR_M_EQ_Q, "workers": 1}
        out_dir = tmp_path / "o"
        assert cli_main(["sweep", self.write_config(tmp_path, doc), "--out", str(out_dir)]) == 0
        saved = json.loads((out_dir / SWEEP_JSON).read_text())
        assert saved["failures"] == 0
        # each point's max log ratio is its own, not a rounded-away 0.0
        logs = [pt["max_log_ratio_s14"] for pt in saved["points"]]
        assert all(isinstance(x, float) and math.isfinite(x) for x in logs), logs
        assert len(set(logs)) == 4, logs

    def test_run_example_with_large_s(self, tmp_path):
        # s = 300: the ladder's m_s = 603 takes the excesses' integrals beyond
        # the double range (y_n = inf); the run finishes without a warning and
        # writes every file
        doc = json.loads((Path(__file__).parents[1] / "configs" / "run_example.json").read_text())
        doc["diagnostics"]["s"] = 300
        out_dir = tmp_path / "out"
        assert cli_main(["run", self.write_config(tmp_path, doc), "--out", str(out_dir)]) == 0
        assert sorted(path.name for path in out_dir.iterdir()) == \
            sorted([RUN_CSV, METADATA_JSON, LADDER_CSV, SERIES_FIELDS_NPY])

    def test_run_seed_override(self, tmp_path):
        doc = small_run_doc(initial={"preset": "random-nonneg", "low": 0.1, "high": 1.0})
        cfg_path = self.write_config(tmp_path, doc)
        code = cli_main(["run", cfg_path, "--out", str(tmp_path / "o"), "--seed", "7"])
        assert code == 0
        meta = json.loads((tmp_path / "o" / METADATA_JSON).read_text())
        assert meta["config"]["seed"] == 7

    def test_bad_config_exit_code(self, tmp_path, capsys):
        doc = small_run_doc(model={"m": -1.0, "q": 1.0})
        cfg_path = self.write_config(tmp_path, doc)
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", cfg_path, "--out", str(tmp_path / "o")])
        assert exc.value.code == 1

    @pytest.mark.parametrize("section,key", [("diagnostics", "s"), ("diagnostics", "p_fr1")])
    def test_non_number_exits_1(self, tmp_path, capsys, section, key):
        cfg_path = self.write_config(tmp_path, small_run_doc(**{section: {key: "x"}}))
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", cfg_path, "--out", str(tmp_path / "o")])
        assert exc.value.code == 1
        assert f"{section}.{key}: expected" in capsys.readouterr().err

    def test_run_command_reports_solver_work(self, tmp_path, capsys):
        doc = small_run_doc(initial={"preset": "gaussian-bump", "width": 0.3})
        cfg_path = self.write_config(tmp_path, doc)
        assert cli_main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 0
        result, _ = execute_run(parse_config(json.dumps(doc)))
        assert result.u_solve_iters > 0 and result.v_solve_iters > 0
        # m = 2: every step takes at least one Newton correction
        assert result.newton_corrections >= result.steps > 0
        assert (f"({result.steps} steps; diffusion: {result.newton_corrections} corrections, "
                f"{result.u_solve_iters} CG iterations; "
                f"v-solve: {result.v_solve_iters} corrections)") in capsys.readouterr().out

    def test_run_solver_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        # the example run with one CG iteration allowed per Newton correction
        monkeypatch.setattr(solver, "_MAX_CG_ITERS", 1)
        cfg_path = str(Path(__file__).parents[1] / "configs" / "run_example.json")
        assert cli_main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("solver failed: conjugate gradients failed to converge in 1 ")
        assert err.count("\n") == 1

    def test_sweep_command_and_failure_exit(self, tmp_path, monkeypatch):
        doc = small_sweep_doc()
        fail_point_at_m(monkeypatch, 1.0)
        cfg_path = self.write_config(tmp_path, doc)
        code = cli_main(["sweep", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert (tmp_path / "o" / SWEEP_JSON).exists()

    def test_sweep_worker_override_identical(self, tmp_path):
        doc = small_sweep_doc(m_grid=(1.5, 2.0), q_grid=(1.0,))
        cfg_path = self.write_config(tmp_path, doc)
        outs = []
        for i, workers in enumerate((1, 2)):
            out = tmp_path / f"o{i}"
            code = cli_main(["sweep", cfg_path, "--out", str(out),
                             "--workers", str(workers)])
            assert code == 0
            outs.append((out / SWEEP_JSON).read_bytes())
        assert outs[0] == outs[1]

    def test_sweep_seed_override(self, tmp_path):
        # --seed replaces the template's seed, which the sweep echoes
        doc = small_sweep_doc(m_grid=(2.0,))
        doc["template"]["initial"] = {"preset": "random-nonneg", "low": 0.1, "high": 1.0}
        cfg_path = self.write_config(tmp_path, doc)
        code = cli_main(["sweep", cfg_path, "--out", str(tmp_path / "o"), "--seed", "7"])
        assert code == 0
        saved = json.loads((tmp_path / "o" / SWEEP_JSON).read_text())
        assert saved["config"]["template"]["seed"] == 7

    def test_sweep_seed_override_validated(self, tmp_path, capsys):
        doc = small_sweep_doc()
        doc["template"]["initial"] = {"preset": "random-nonneg"}
        cfg_path = self.write_config(tmp_path, doc)
        self.expect_invalid(capsys, ["sweep", cfg_path, "--out", str(tmp_path / "o"),
                                     "--seed", "-1"], "template: initial: seed must be >= 0")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_missing_config_exits_1(self, tmp_path, capsys, command):
        path = tmp_path / "missing.json"
        with pytest.raises(SystemExit) as exc:
            cli_main([command, str(path), "--out", str(tmp_path / "o")])
        assert exc.value.code == 1
        assert capsys.readouterr().err == f"config file not found: {path}\n"
        assert not (tmp_path / "o").exists()

    def test_ladder_without_metadata_exits_1(self, tmp_path, capsys):
        assert cli_main(["ladder", str(tmp_path), "--K", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"no run metadata found in {tmp_path}\n"
        assert not (tmp_path / "ladder_custom.csv").exists()

    def expect_invalid(self, capsys, argv, error):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 1
        assert f"invalid config:\n  {error}" in capsys.readouterr().err

    def test_sweep_workers_override_validated(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, small_sweep_doc())
        self.expect_invalid(capsys, ["sweep", cfg_path, "--out", str(tmp_path / "o"),
                                     "--workers", "0"], "sweep: workers must be >= 1")

    def test_seed_override_validated(self, tmp_path, capsys):
        doc = small_run_doc(initial={"preset": "random-nonneg"})
        cfg_path = self.write_config(tmp_path, doc)
        self.expect_invalid(capsys, ["run", cfg_path, "--out", str(tmp_path / "o"),
                                     "--seed", "-1"], "run: initial: seed must be >= 0")

    def test_ladder_on_unparsable_metadata(self, tmp_path, capsys):
        # an echo that no longer parses as a config still rebuilds the
        # run's ladder, as the ladder reads only its own inputs; an echo
        # without one of them is an unreadable run
        rebuilt, original = self.rebuild_run_ladder(
            tmp_path, lambda meta: meta["config"].pop("horizon"))
        assert rebuilt == original
        meta_path = tmp_path / "out" / METADATA_JSON
        meta = json.loads(meta_path.read_text())
        del meta["config"]["model"]["m"]
        meta_path.write_text(json.dumps(meta))
        capsys.readouterr()
        assert cli_main(["ladder", str(tmp_path / "out"), "--K", "2.0"]) == 1
        assert capsys.readouterr().err == f"unreadable run in {tmp_path / 'out'}: KeyError: 'm'\n"
        assert not (tmp_path / "out" / "ladder_custom.csv").exists()

    def test_kernels_command(self, tmp_path):
        report_path = tmp_path / "kernels.json"
        code = cli_main(["kernels", "--out", str(report_path), "--tuples", "50"])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["all_pass"]

    @pytest.mark.parametrize("tuples", ["0", "-3"])
    def test_kernels_bad_tuples_exit_1(self, capsys, tuples):
        assert cli_main(["kernels", "--tuples", tuples]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid option: --tuples must be >= 1, got {tuples}\n"

    def test_kernels_out_in_missing_dir_exits_1(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "k.json"
        assert cli_main(["kernels", "--tuples", "1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("cannot write output: FileNotFoundError: ")
        assert captured.err.count("\n") == 1
        assert not out.parent.exists()

    def test_run_out_existing_file_exits_1(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, MINIMAL_RUN)
        out = tmp_path / "a-file"
        out.write_text("")
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", cfg_path, "--out", str(out)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: FileExistsError: ")
        assert err.count("\n") == 1

    def test_sweep_out_existing_file_exits_1(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, small_sweep_doc())
        out = tmp_path / "a-file"
        out.write_text("")
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", cfg_path, "--out", str(out)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: FileExistsError: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unreadable_config_exits_1(self, tmp_path, capsys, command, kind):
        # a directory, or bytes that are not UTF-8, as the config path: one
        # `config file ...` line and exit 1, before any output is made
        path = tmp_path / "config"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(bytes(range(128, 256)) * 3)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main([command, str(path), "--out", str(out)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        error = "IsADirectoryError" if kind == "directory" else "UnicodeDecodeError"
        assert err.startswith(f"config file {path} cannot be read: {error}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_kernels_negative_seed_exit_1(self, capsys):
        assert cli_main(["kernels", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid option: --seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("option,value,error", [
        ("--K", "nan", "ladder K must be finite and >= 2.2250738585072014e-308, the smallest "
                       "normal double, got nan"),
        ("--K", "-1", "ladder K must be finite and >= 2.2250738585072014e-308, the smallest "
                      "normal double, got -1.0"),
        # subnormal K: K/2 or the levels would round
        ("--K", "1e-310", "ladder K must be finite and >= 2.2250738585072014e-308, the smallest "
                          "normal double, got 1e-310"),
        ("--K", "5e-324", "ladder K must be finite and >= 2.2250738585072014e-308, the smallest "
                          "normal double, got 5e-324"),
        ("--n-max", "-1", "ladder n_max must be in [0, 51], got -1"),
        ("--n-max", "52", "ladder n_max must be in [0, 51], got 52"),
    ], ids=["K-nan", "K-negative", "K-1e-310", "K-5e-324", "n-max-negative", "n-max-52"])
    def test_ladder_bad_option_exit_1(self, tmp_path, capsys, option, value, error):
        cfg_path = self.write_config(tmp_path, MINIMAL_RUN)
        out_dir = tmp_path / "out"
        assert cli_main(["run", cfg_path, "--out", str(out_dir)]) == 0
        capsys.readouterr()
        args = {"--K": "1", "--n-max": "8", option: value}
        assert cli_main(["ladder", str(out_dir), *(x for kv in args.items() for x in kv)]) == 1
        assert capsys.readouterr().err == f"invalid option: {error}\n"
        assert not (out_dir / "ladder_custom.csv").exists()

    def test_ladder_command(self, tmp_path):
        cfg_path = self.write_config(tmp_path, MINIMAL_RUN)
        out_dir = tmp_path / "out"
        assert cli_main(["run", cfg_path, "--out", str(out_dir)]) == 0
        code = cli_main(["ladder", str(out_dir), "--K", "2.0", "--n-max", "4"])
        assert code == 0
        lines = (out_dir / "ladder_custom.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 5

    def test_ladder_n_max_default_is_the_config_default(self, tmp_path):
        cfg_path = self.write_config(tmp_path, MINIMAL_RUN)
        out_dir = tmp_path / "out"
        assert cli_main(["run", cfg_path, "--out", str(out_dir)]) == 0
        assert cli_main(["ladder", str(out_dir), "--K", "2.0"]) == 0
        lines = (out_dir / "ladder_custom.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + DiagnosticsConfig().ladder_n_max + 1

    def rebuild_run_ladder(self, tmp_path, edit_metadata=None, **overrides):
        """Run a small document on a non-square grid, with the top-level
        `overrides`, let edit_metadata change its metadata.json, and rebuild
        the ladder at the run's own K and n_max; returns the rebuilt and the
        run's ladder.csv bytes."""
        doc = small_run_doc(grid={"dim": 2, "cells": [8, 6], "extent": [1.3, 0.7]},
                            initial={"preset": "random-nonneg", "low": 0.1, "high": 1.0},
                            **overrides)
        cfg_path = self.write_config(tmp_path, doc)
        out_dir = tmp_path / "out"
        assert cli_main(["run", cfg_path, "--out", str(out_dir)]) == 0
        meta = json.loads((out_dir / METADATA_JSON).read_text())
        K = meta["config"]["diagnostics"]["ladder_k_value"] * meta["running_max_sup_u"]
        if edit_metadata is not None:
            edit_metadata(meta)
            (out_dir / METADATA_JSON).write_text(json.dumps(meta, indent=2))
        rebuilt = tmp_path / "rebuilt.csv"
        assert cli_main(["ladder", str(out_dir), "--K", repr(K), "--n-max", "8",
                         "--out", str(rebuilt)]) == 0
        return rebuilt.read_bytes(), (out_dir / LADDER_CSV).read_bytes()

    def test_ladder_command_reproduces_run_ladder(self, tmp_path):
        # the run's own K and n_max: the rebuilt ladder must match the run's
        # ladder.csv byte for byte
        rebuilt, original = self.rebuild_run_ladder(tmp_path)
        assert rebuilt == original

    def test_ladder_reads_times_beside_nan_cells(self, tmp_path):
        # at m <= q there is no gamma, so every log_ratio_s14 cell is nan; the
        # ladder reads its times from the same run.csv
        rebuilt, original = self.rebuild_run_ladder(
            tmp_path, model={"m": 1.0, "q": 1.0, "sigma": 1e-3})
        header, rows = read_run_csv(tmp_path / "out" / RUN_CSV)
        assert all(math.isnan(row[header.index("log_ratio_s14")]) for row in rows)
        assert rebuilt == original

    def test_ladder_ignores_stored_series_t(self, tmp_path):
        # run directories written by earlier versions also hold the sample
        # times as series_t.npy; the ladder reads run.csv's t instead
        rebuilt, original = self.rebuild_run_ladder(
            tmp_path, lambda meta: np.save(tmp_path / "out" / "series_t.npy", np.zeros(3)))
        assert rebuilt == original

    def test_ladder_reads_echo_with_retired_keys(self, tmp_path):
        # run directories written before these keys were retired still echo
        # them (N as the run's N_used)
        def add_retired_keys(meta):
            meta["config"]["control"].update(v_solve_max_iters=20000, dt_fixed=1e-4)
            meta["config"]["diagnostics"].update(ladder_k_mode="sup_multiple",
                                                 N=meta["N_used"])
            meta["config"]["initial"]["center"] = [0.65, 0.35]

        rebuilt, original = self.rebuild_run_ladder(tmp_path, add_retired_keys)
        assert rebuilt == original

    @pytest.mark.parametrize("edit", [
        # valid before StepControl checked dt_min <= safety * dt_max
        lambda config: config.update(control={"safety": 0.4, "dt_min": 0.05, "dt_max": 0.1}),
        lambda config: (config["diagnostics"].update(unknown=1),
                        config["initial"].update(unknown="x")),
    ], ids=["control-collapses", "unknown-keys"])
    def test_ladder_reads_echo_of_another_schema(self, tmp_path, edit):
        # the ladder reads none of these keys, so no schema check runs on them
        rebuilt, original = self.rebuild_run_ladder(tmp_path, lambda meta: edit(meta["config"]))
        assert rebuilt == original

    def test_ladder_out_in_missing_dir_exits_1(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, MINIMAL_RUN)
        out_dir = tmp_path / "out"
        assert cli_main(["run", cfg_path, "--out", str(out_dir)]) == 0
        capsys.readouterr()
        out = tmp_path / "missing-dir" / "x.csv"
        assert cli_main(["ladder", str(out_dir), "--K", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: FileNotFoundError: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("damage,error", [
        (_metadata_not_json, "JSONDecodeError: "),
        (lambda out_dir: (out_dir / RUN_CSV).unlink(), "FileNotFoundError: "),
        (lambda out_dir: (out_dir / SERIES_FIELDS_NPY).unlink(), "FileNotFoundError: "),
        (_metadata_without_s_used, "KeyError: 's_used'"),
        (_metadata_with("s_used", "x"), "ValueError: s_used: expected a finite number, got 'x'"),
        (_metadata_with("N_used", 2.5), "ValueError: N_used: expected an integer, got 2.5"),
        (_metadata_with("N_used", 1), "ValueError: N must be >= 2, got 1"),
        (_run_csv_without_last_row, "ValueError: times and samples must align"),
        (_echo_with_cells([4, 4]),
         f"ValueError: {SERIES_FIELDS_NPY} holds fields of shape (8, 8), "
         "but config.grid.cells is (4, 4)"),
    ], ids=["metadata-not-json", "run-csv-missing", "series-u-missing", "s-used-missing",
            "s-used-string", "n-used-float", "n-used-below-2", "run-csv-rows-differ",
            "grid-differs-from-series"])
    def test_ladder_unreadable_run_exits_1(self, tmp_path, capsys, damage, error):
        cfg_path = self.write_config(tmp_path, MINIMAL_RUN)
        out_dir = tmp_path / "out"
        assert cli_main(["run", cfg_path, "--out", str(out_dir)]) == 0
        damage(out_dir)
        capsys.readouterr()
        assert cli_main(["ladder", str(out_dir), "--K", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"unreadable run in {out_dir}: {error}")
        assert err.count("\n") == 1
        assert not (out_dir / "ladder_custom.csv").exists()
