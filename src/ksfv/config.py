"""Run and sweep configuration: strict JSON parsing with path-qualified errors.

A config document is one JSON object whose "kind" is "run" or "sweep".  The
config dataclasses are the schema: their fields are the keys, their
annotations the types and their defaults the values of omitted keys.  Unknown
keys are rejected, and the parser checks only keys and types: every
invariant is a dataclass's own, among them StepControl's check that dt_min
cannot collapse every step and RunConfig's check of its initial data, which
a sweep runs at each point's m and q as SweepConfig builds its points.  The
echo parses back to an equal config.  Three defaults are derived instead,
each once below: grid.extent is 1.0 per axis, control.dt_min 1e-12 x
horizon, and a sweep template's m and q placeholders of 1.0.
"""

from __future__ import annotations

import functools
import json
import math
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import Any

import numpy as np

from .diagnostics import DiagnosticsConfig, analytic_exponents
from .grid import GridSpec
from .model import InitialData, InitialSpec, ModelParams, make_initial_data
from .solver import StepControl, _Potential, _power


class ConfigError(ValueError):
    """Carries the full list of field-level problems found in a document."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


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

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.samples < 2:
            raise ValueError(f"need at least 2 samples, got {self.samples}")
        if None in (self.model, self.grid, self.initial, self.diagnostics):
            return  # the parser reports the section
        analytic_exponents(self.model, self.diagnostics, self.grid.dim)
        try:
            u0 = self.initial.check(self.grid, self.seed)
        except ValueError as e:
            raise ValueError(f"initial: {e}") from None
        m, q = self.model.m, self.model.q
        # what the first step computes at this (m, sigma, q), tested as _StepWork tests it
        with np.errstate(over="ignore", invalid="ignore"):
            if not math.isfinite(float(_Potential(self.model).w(u0).sum())):
                raise ValueError(f"initial: the potential (u0+sigma)^m overflows at m={m}, q={q}")
            if self.model.chemotaxis and not math.isfinite(float(_power(u0, q).sum())):
                raise ValueError(f"initial: u0^q overflows at m={m}, q={q}")

    def make_initial(self) -> InitialData:
        return make_initial_data(self.grid, seed=self.seed, **vars(self.initial))


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
        if self.template is not None:  # else the parser reports the template
            self.points  # builds and checks every point's config

    @functools.cached_property
    def points(self) -> tuple[tuple[int, int, RunConfig], ...]:
        """(i, j, config) of each grid point, i-major over m_grid and j over
        q_grid: the template with the point's m and q."""
        return tuple((i, j, replace(self.template, model=replace(self.template.model, m=m, q=q)))
                     for i, m in enumerate(self.m_grid) for j, q in enumerate(self.q_grid))


@functools.cache
def _keys(cls) -> tuple[tuple[Any, Any], ...]:
    """(field, type) of each key of cls, in declaration order."""
    hints = typing.get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in fields(cls))


def _is_number(x) -> bool:
    """A finite JSON number (Python's json also reads NaN and Infinity)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


_EXPECTED = {float: "a finite number", int: "an integer", bool: "true/false", str: "a string"}


def _convert(tp, val, path: str, errors: list[str]):
    """`val` read as type `tp`: a finite float, an int that is not a bool, a
    bool, a str, a tuple from a list, and null as unset for `X | None`.
    A mismatch is appended to `errors`."""
    if isinstance(tp, types.UnionType):
        if val is None:
            return None
        tp = typing.get_args(tp)[0]
    if typing.get_origin(tp) is tuple:
        if isinstance(val, list):
            item = typing.get_args(tp)[0]
            return tuple(_convert(item, x, f"{path}[{i}]", errors) for i, x in enumerate(val))
    elif tp is float:
        if _is_number(val):
            return float(val)
    elif isinstance(val, tp) and (tp is bool or not isinstance(val, bool)):
        return val
    errors.append(f"{path}: expected {_EXPECTED.get(tp, 'a list')}, got {val!r}")


def _read(cls, doc, path: str, errors: list[str], derive=None, **given):
    """A `cls` built from the JSON object `doc`, or None with the problems
    appended to `errors`.

    `given` holds the values of the sections, which the caller reads.  An
    omitted key takes the value `derive(values)` gives it, if any, else its
    dataclass default.  A constructor ValueError is reported under `path`.
    """
    if not isinstance(doc, dict):
        errors.append(f"{path}: expected an object, got {type(doc).__name__}")
        return None
    n = len(errors)
    names = {f.name for f, _ in _keys(cls)}
    errors.extend(f"{path}.{k}: unknown key" for k in doc if k not in names)
    keys = [(f, tp) for f, tp in _keys(cls) if f.name not in given]
    values = {}
    for f, tp in keys:
        if f.name in doc:
            values[f.name] = _convert(tp, doc[f.name], f"{path}.{f.name}", errors)
        elif f.default is not MISSING:
            values[f.name] = f.default
    if len(errors) == n:
        if derive is not None:
            values.update((k, v) for k, v in derive(values).items() if k not in doc)
        errors.extend(f"{path}.{f.name}: missing required value"
                      for f, _ in keys if f.name not in values)
    if len(errors) > n:
        return None
    try:
        return cls(**values, **given)
    except ValueError as e:
        errors.append(f"{path}: {e}")


def _parse_run(doc, path: str, errors: list[str], model_derive=None) -> RunConfig | None:
    """A RunConfig from a run document (path "") or a sweep's template."""
    if not isinstance(doc, dict):
        return _read(RunConfig, doc, path, errors)   # reports the type
    n, prefix = len(errors), f"{path}." if path else ""
    doc = dict(doc)
    if (kind := doc.pop("kind", "run")) != "run":   # a template's: parse_config reads a run's
        errors.append(f"{prefix}kind: expected 'run', got {kind!r}")

    def section(cls, name, derive=None, **given):
        return _read(cls, doc.get(name, {}), prefix + name, errors, derive, **given)

    horizon = doc.get("horizon")
    cfg = _read(
        RunConfig, doc, path or "run", errors,
        grid=section(GridSpec, "grid", lambda v: {"extent": (1.0,) * v["dim"]}),
        initial=section(InitialSpec, "initial"),
        model=section(ModelParams, "model", model_derive),
        control=section(StepControl, "control", lambda v: {"dt_min": 1e-12 * horizon}
                        if _is_number(horizon) and horizon > 0 else {}),
        diagnostics=section(DiagnosticsConfig, "diagnostics"),
        thresholds=section(Thresholds, "thresholds"))
    return cfg if len(errors) == n else None


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

    kind = doc.pop("kind", "run")
    errors: list[str] = []
    if kind == "run":
        cfg = _parse_run(doc, "", errors)
    elif kind == "sweep":
        template = _parse_run(doc.get("template", {}), "template", errors,
                              lambda v: {"m": 1.0, "q": 1.0})
        cfg = _read(SweepConfig, doc, "sweep", errors, template=template)
    else:
        raise ConfigError([f"kind: expected 'run' or 'sweep', got {kind!r}"])
    if errors:
        raise ConfigError(errors)
    return cfg


def _echo(obj):
    """JSON value of a config: fields in declaration order, None left out."""
    if is_dataclass(obj):
        return {f.name: _echo(v) for f, _ in _keys(type(obj))
                if (v := getattr(obj, f.name)) is not None}
    if isinstance(obj, tuple):
        return [_echo(x) for x in obj]
    return obj


def run_config_to_dict(cfg: RunConfig) -> dict[str, Any]:
    """Fully-defaulted echo of a run config; parses back to an equal config."""
    return {"kind": "run", **_echo(cfg)}


def sweep_config_to_dict(cfg: SweepConfig) -> dict[str, Any]:
    """Echo of a sweep config without `workers`, so that the same sweep
    produces byte-identical artifacts at any worker count."""
    doc = {"kind": "sweep", **_echo(cfg)}
    del doc["workers"]
    return doc
