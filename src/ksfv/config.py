"""Run and sweep configuration: strict JSON parsing with path-qualified errors.

A config document is a single JSON object whose "kind" is either "run" or
"sweep".  Unknown keys are rejected anywhere in the document, every module
invariant is enforced at parse time (no invalid job is ever constructed),
and to_dict() emits a fully-defaulted document that round-trips exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Any

from .diagnostics import DiagnosticsConfig
from .grid import GridSpec
from .model import InitialData, ModelParams, make_initial_data
from .solver import StepControl


class ConfigError(ValueError):
    """Carries the full list of field-level problems found in a document."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class InitialSpec:
    preset: str = "gaussian-bump"
    value: float = 1.0
    mass: float = 1.0
    width: float = 0.1
    center: tuple[float, ...] | None = None
    centers: tuple[tuple[float, ...], ...] | None = None
    low: float = 0.0
    high: float = 1.0
    v0_preset: str = "constant"
    v0_value: float = 0.0


@dataclass(frozen=True)
class Thresholds:
    sup_multiple: float = 1e4
    bounded_multiple: float = 50.0

    def __post_init__(self):
        if self.sup_multiple <= 1 or self.bounded_multiple <= 1:
            raise ValueError("threshold multiples must exceed 1")


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams
    grid: GridSpec
    initial: InitialSpec
    control: StepControl
    horizon: float
    samples: int = 11
    diagnostics: DiagnosticsConfig = field(default_factory=DiagnosticsConfig)
    thresholds: Thresholds = field(default_factory=Thresholds)
    seed: int = 0

    def make_initial(self) -> InitialData:
        init = self.initial
        return make_initial_data(
            self.grid, init.preset, value=init.value, mass=init.mass,
            width=init.width, center=init.center,
            centers=[tuple(c) for c in init.centers] if init.centers else None,
            low=init.low, high=init.high, seed=self.seed,
            v0_preset=init.v0_preset, v0_value=init.v0_value)

    def with_exponents(self, m: float, q: float) -> "RunConfig":
        return replace(self, model=replace(self.model, m=m, q=q))


@dataclass(frozen=True)
class SweepConfig:
    m_grid: tuple[float, ...]
    q_grid: tuple[float, ...]
    template: RunConfig
    workers: int = 1

    def __post_init__(self):
        for name, g in (("m_grid", self.m_grid), ("q_grid", self.q_grid)):
            if len(g) == 0:
                raise ValueError(f"{name} must be nonempty")
            if any(b <= a for a, b in zip(g, g[1:])):
                raise ValueError(f"{name} must be strictly increasing")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def _is_number(x) -> bool:
    """A finite JSON number (Python's json also reads NaN and Infinity)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


class _Reader:
    """Walks a JSON object against an allowed-key table, collecting errors."""

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, message: str):
        self.errors.append(f"{path}: {message}")

    def section(self, obj: dict, path: str, allowed: set[str]) -> dict:
        if not isinstance(obj, dict):
            self.fail(path, f"expected an object, got {type(obj).__name__}")
            return {}
        for key in obj:
            if key not in allowed:
                self.fail(f"{path}.{key}" if path else key, "unknown key")
        return obj

    def _missing(self, obj: dict, path: str, key: str, default, required) -> bool:
        """True when there is no value to read: the key is absent, or null
        where the default is None (an optional value left unset)."""
        if key in obj and not (obj[key] is None and default is None and not required):
            return False
        if required:
            self.fail(f"{path}.{key}", "missing required value")
        return True

    def number(self, obj: dict, path: str, key: str, default, *, required=False):
        if self._missing(obj, path, key, default, required):
            return default
        val = obj[key]
        if not _is_number(val):
            self.fail(f"{path}.{key}", f"expected a finite number, got {val!r}")
            return default
        return float(val)

    def integer(self, obj: dict, path: str, key: str, default, *, required=False):
        if self._missing(obj, path, key, default, required):
            return default
        val = obj[key]
        if isinstance(val, bool) or not isinstance(val, int):
            self.fail(f"{path}.{key}", f"expected an integer, got {val!r}")
            return default
        return int(val)

    def boolean(self, obj: dict, path: str, key: str, default):
        val = obj.get(key, default)
        if not isinstance(val, bool):
            self.fail(f"{path}.{key}", f"expected true/false, got {val!r}")
            return default
        return val

    def string(self, obj: dict, path: str, key: str, default):
        val = obj.get(key, default)
        if not isinstance(val, str):
            self.fail(f"{path}.{key}", f"expected a string, got {val!r}")
            return default
        return val


_MODEL_KEYS = {"m", "q", "sigma", "chemotaxis"}
_GRID_KEYS = {"dim", "cells", "extent"}
_INITIAL_KEYS = {"preset", "value", "mass", "width", "center", "centers",
                 "low", "high", "v0_preset", "v0_value"}
_CONTROL_KEYS = {"safety", "dt_min", "dt_max", "v_solve_tol",
                 "v_solve_max_iters", "dt_fixed", "max_steps"}
_DIAG_KEYS = {"p_list", "s", "p_fr1", "N", "ladder_n_max",
              "ladder_k_mode", "ladder_k_value"}
_THRESH_KEYS = {"sup_multiple", "bounded_multiple"}
_RUN_KEYS = {"kind", "model", "grid", "initial", "control", "horizon",
             "samples", "diagnostics", "thresholds", "seed"}
_SWEEP_KEYS = {"kind", "m_grid", "q_grid", "template", "workers"}


def _parse_run(doc: dict, r: _Reader, path: str = "") -> RunConfig | None:
    r.section(doc, path, _RUN_KEYS)
    p = lambda s: f"{path}.{s}" if path else s

    model_doc = r.section(doc.get("model", {}), p("model"), _MODEL_KEYS)
    m = r.number(model_doc, p("model"), "m", None, required=True)
    q = r.number(model_doc, p("model"), "q", None, required=True)
    sigma = r.number(model_doc, p("model"), "sigma", 0.0)
    chemotaxis = r.boolean(model_doc, p("model"), "chemotaxis", True)

    grid_doc = r.section(doc.get("grid", {}), p("grid"), _GRID_KEYS)
    dim = r.integer(grid_doc, p("grid"), "dim", 2)
    cells = grid_doc.get("cells")
    extent = grid_doc.get("extent", None)
    if not isinstance(cells, list) or not all(isinstance(c, int) for c in cells):
        r.fail(p("grid.cells"), "expected a list of integers")
        cells = None
    if extent is None:
        extent = [1.0] * dim
    if not isinstance(extent, list) or not all(_is_number(x) for x in extent):
        r.fail(p("grid.extent"), "expected a list of finite numbers")
        extent = None

    init_doc = r.section(doc.get("initial", {}), p("initial"), _INITIAL_KEYS)
    preset = r.string(init_doc, p("initial"), "preset", "gaussian-bump")
    center = init_doc.get("center")
    centers = init_doc.get("centers")
    initial = InitialSpec(
        preset=preset,
        value=r.number(init_doc, p("initial"), "value", 1.0),
        mass=r.number(init_doc, p("initial"), "mass", 1.0),
        width=r.number(init_doc, p("initial"), "width", 0.1),
        center=tuple(center) if center is not None else None,
        centers=tuple(tuple(c) for c in centers) if centers is not None else None,
        low=r.number(init_doc, p("initial"), "low", 0.0),
        high=r.number(init_doc, p("initial"), "high", 1.0),
        v0_preset=r.string(init_doc, p("initial"), "v0_preset", "constant"),
        v0_value=r.number(init_doc, p("initial"), "v0_value", 0.0),
    )

    horizon = r.number(doc, path or "run", "horizon", None, required=True)
    samples = r.integer(doc, path or "run", "samples", 11)
    seed = r.integer(doc, path or "run", "seed", 0)

    ctrl_doc = r.section(doc.get("control", {}), p("control"), _CONTROL_KEYS)
    # dt collapse sentinel defaults to 1e-12 relative to the horizon.
    dt_min_default = 1e-12 * horizon if horizon is not None and horizon > 0 else 1e-12
    control_kwargs = dict(
        safety=r.number(ctrl_doc, p("control"), "safety", 0.4),
        dt_min=r.number(ctrl_doc, p("control"), "dt_min", dt_min_default),
        dt_max=r.number(ctrl_doc, p("control"), "dt_max", 0.1),
        v_solve_tol=r.number(ctrl_doc, p("control"), "v_solve_tol", 1e-10),
        v_solve_max_iters=r.integer(ctrl_doc, p("control"), "v_solve_max_iters", 20000),
        dt_fixed=r.number(ctrl_doc, p("control"), "dt_fixed", None),
        max_steps=r.integer(ctrl_doc, p("control"), "max_steps", 50_000_000),
    )

    diag_doc = r.section(doc.get("diagnostics", {}), p("diagnostics"), _DIAG_KEYS)
    p_list = diag_doc.get("p_list", [1.0, 2.0, 4.0])
    if not isinstance(p_list, list) or not all(_is_number(x) for x in p_list):
        r.fail(p("diagnostics.p_list"), "expected a list of finite numbers")
        p_list = [1.0, 2.0, 4.0]
    diag_kwargs = dict(
        p_list=tuple(float(x) for x in p_list),
        s=r.integer(diag_doc, p("diagnostics"), "s", None),
        p_fr1=r.number(diag_doc, p("diagnostics"), "p_fr1", None),
        N=r.integer(diag_doc, p("diagnostics"), "N", None),
        ladder_n_max=r.integer(diag_doc, p("diagnostics"), "ladder_n_max", 8),
        ladder_k_mode=r.string(diag_doc, p("diagnostics"), "ladder_k_mode", "sup_multiple"),
        ladder_k_value=r.number(diag_doc, p("diagnostics"), "ladder_k_value", 0.5),
    )

    thresh_doc = r.section(doc.get("thresholds", {}), p("thresholds"), _THRESH_KEYS)
    thresh_kwargs = dict(
        sup_multiple=r.number(thresh_doc, p("thresholds"), "sup_multiple", 1e4),
        bounded_multiple=r.number(thresh_doc, p("thresholds"), "bounded_multiple", 50.0),
    )

    if r.errors:
        return None

    # Constructors enforce the remaining invariants; report with paths.
    try:
        model = ModelParams(m=m, q=q, sigma=sigma, dim=dim, chemotaxis=chemotaxis)
    except ValueError as e:
        r.fail(p("model"), str(e))
    try:
        grid = GridSpec(dim=dim, cells=tuple(cells), extent=tuple(extent))
    except (ValueError, TypeError) as e:
        r.fail(p("grid"), str(e))
    try:
        control = StepControl(**control_kwargs)
    except ValueError as e:
        r.fail(p("control"), str(e))
    try:
        diagnostics = DiagnosticsConfig(**diag_kwargs)
    except ValueError as e:
        r.fail(p("diagnostics"), str(e))
    try:
        thresholds = Thresholds(**thresh_kwargs)
    except ValueError as e:
        r.fail(p("thresholds"), str(e))
    if horizon is not None and horizon <= 0:
        r.fail(p("horizon") if path else "horizon", "must be positive")
    if samples < 2:
        r.fail(p("samples") if path else "samples", "need at least 2 samples")
    if initial.preset not in ("constant", "gaussian-bump", "two-bumps", "random-nonneg"):
        r.fail(p("initial.preset"), f"unknown preset {initial.preset!r}")

    if r.errors:
        return None
    return RunConfig(model=model, grid=grid, initial=initial, control=control,
                     horizon=horizon, samples=samples, diagnostics=diagnostics,
                     thresholds=thresholds, seed=seed)


def parse_config(text: str) -> RunConfig | SweepConfig:
    """Parse a JSON config document into a validated RunConfig or SweepConfig.

    Raises ConfigError with the complete list of path-qualified problems.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError([f"invalid JSON: {e}"]) from e
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be an object"])

    kind = doc.get("kind", "run")
    r = _Reader()
    if kind == "run":
        cfg = _parse_run(doc, r)
        if r.errors:
            raise ConfigError(r.errors)
        return cfg
    if kind == "sweep":
        r.section(doc, "", _SWEEP_KEYS)
        for name in ("m_grid", "q_grid"):
            g = doc.get(name)
            if not isinstance(g, list) or not g or not all(_is_number(x) for x in g):
                r.fail(name, "expected a nonempty list of finite numbers")
        template_doc = doc.get("template")
        if not isinstance(template_doc, dict):
            r.fail("template", "missing run template")
            raise ConfigError(r.errors)
        if "m" not in template_doc.get("model", {}):
            template_doc.setdefault("model", {})["m"] = 1.0
        template_doc["model"].setdefault("q", 1.0)
        template = _parse_run(template_doc, r, path="template")
        workers = r.integer(doc, "", "workers", 1)
        if r.errors:
            raise ConfigError(r.errors)
        try:
            return SweepConfig(m_grid=tuple(float(x) for x in doc["m_grid"]),
                               q_grid=tuple(float(x) for x in doc["q_grid"]),
                               template=template, workers=workers)
        except ValueError as e:
            raise ConfigError([str(e)]) from e
    raise ConfigError([f"kind: expected 'run' or 'sweep', got {kind!r}"])


def run_config_to_dict(cfg: RunConfig, kind: str | None = "run") -> dict[str, Any]:
    """Fully-defaulted echo of a run config; parses back to an equal config."""
    doc: dict[str, Any] = {}
    if kind is not None:
        doc["kind"] = kind
    doc["model"] = {"m": cfg.model.m, "q": cfg.model.q, "sigma": cfg.model.sigma,
                    "chemotaxis": cfg.model.chemotaxis}
    doc["grid"] = {"dim": cfg.grid.dim, "cells": list(cfg.grid.cells),
                   "extent": list(cfg.grid.extent)}
    init: dict[str, Any] = {"preset": cfg.initial.preset, "value": cfg.initial.value,
                            "mass": cfg.initial.mass, "width": cfg.initial.width,
                            "low": cfg.initial.low, "high": cfg.initial.high,
                            "v0_preset": cfg.initial.v0_preset,
                            "v0_value": cfg.initial.v0_value}
    if cfg.initial.center is not None:
        init["center"] = list(cfg.initial.center)
    if cfg.initial.centers is not None:
        init["centers"] = [list(c) for c in cfg.initial.centers]
    doc["initial"] = init
    ctrl: dict[str, Any] = {"safety": cfg.control.safety, "dt_min": cfg.control.dt_min,
                            "dt_max": cfg.control.dt_max,
                            "v_solve_tol": cfg.control.v_solve_tol,
                            "v_solve_max_iters": cfg.control.v_solve_max_iters,
                            "max_steps": cfg.control.max_steps}
    if cfg.control.dt_fixed is not None:
        ctrl["dt_fixed"] = cfg.control.dt_fixed
    doc["control"] = ctrl
    doc["horizon"] = cfg.horizon
    doc["samples"] = cfg.samples
    diag: dict[str, Any] = {"p_list": list(cfg.diagnostics.p_list),
                            "ladder_n_max": cfg.diagnostics.ladder_n_max,
                            "ladder_k_mode": cfg.diagnostics.ladder_k_mode,
                            "ladder_k_value": cfg.diagnostics.ladder_k_value}
    if cfg.diagnostics.s is not None:
        diag["s"] = cfg.diagnostics.s
    if cfg.diagnostics.p_fr1 is not None:
        diag["p_fr1"] = cfg.diagnostics.p_fr1
    if cfg.diagnostics.N is not None:
        diag["N"] = cfg.diagnostics.N
    doc["diagnostics"] = diag
    doc["thresholds"] = {"sup_multiple": cfg.thresholds.sup_multiple,
                         "bounded_multiple": cfg.thresholds.bounded_multiple}
    doc["seed"] = cfg.seed
    return doc


def sweep_config_to_dict(cfg: SweepConfig, include_workers: bool = True) -> dict[str, Any]:
    """Echo of a sweep config.

    Output artifacts set include_workers=False so that the same sweep
    produces byte-identical files at any worker count.
    """
    doc: dict[str, Any] = {"kind": "sweep",
                           "m_grid": list(cfg.m_grid), "q_grid": list(cfg.q_grid),
                           "template": run_config_to_dict(cfg.template, kind=None)}
    if include_workers:
        doc["workers"] = cfg.workers
    return doc
