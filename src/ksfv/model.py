"""Model parameters, exponent-regime classification, and initial data presets.

The system evolved by the solver is

    u_t = div( m (u + sigma)^(m-1) grad u ) - div( u^q grad v ),
    v_t = laplace v - v + u,

with zero-flux boundaries.  sigma > 0 regularizes the degenerate mobility;
sigma = 0 runs the limit problem directly (well-defined because u >= 0 is
preserved and 0^m = 0 for m > 0).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, GridSpec, constant_field


class Regime(enum.Enum):
    """Exponent regime of the pair (m, q) at dimension N."""

    H3 = "H3"                # m > q: nonlinear diffusion dominates, bounded
    H4 = "H4"                # q <= 1 and q + (q-1)/(N+1) <= m <= q
    CRITICAL_CLASSICAL = "CriticalClassical"  # m = q = 1
    OUTSIDE = "Outside"


@dataclass(frozen=True)
class ModelParams:
    m: float
    q: float
    sigma: float = 0.0
    chemotaxis: bool = True

    def __post_init__(self):
        if not self.m > 0:
            raise ValueError(f"m must be > 0, got {self.m}")
        if not self.q > 0:
            raise ValueError(f"q must be > 0, got {self.q}")
        if not 0.0 <= self.sigma < 1.0:
            raise ValueError(f"sigma must be in [0, 1), got {self.sigma}")


def classify_regime(params: ModelParams, N: int) -> Regime:
    """Classify (m, q) against the boundedness hypotheses at dimension N.

    Exact comparisons on the given floats.  m = q = 1 also satisfies the
    H4 inequalities but gets its own label because it is the classical
    case with known blow-up solutions.
    """
    m, q = params.m, params.q
    if m == 1.0 and q == 1.0:
        return Regime.CRITICAL_CLASSICAL
    if m > q:
        return Regime.H3
    if q <= 1.0 and q + (q - 1.0) / (N + 1) <= m <= q:
        return Regime.H4
    return Regime.OUTSIDE


@dataclass(frozen=True, eq=False)
class InitialData:
    u0: Field
    v0: Field

    def __post_init__(self):
        if self.u0.min() < 0 or self.v0.min() < 0:
            raise ValueError("initial data must be nonnegative")


@dataclass(frozen=True)
class InitialSpec:
    """Initial data as a named preset and the values it reads (see
    make_initial_data): a run document's `initial` section.  RunConfig and
    make_initial_data run its one check on a grid."""

    preset: str = "gaussian-bump"
    value: float = 1.0
    mass: float = 1.0
    width: float = 0.1
    low: float = 0.0
    high: float = 1.0
    v0_preset: str = "constant"
    v0_value: float = 0.0
    centers: tuple[tuple[float, ...], ...] | None = None

    def check(self, grid: GridSpec, seed: int) -> np.ndarray:
        """u0's values on grid (see make_initial_data).  Raises ValueError
        unless these data can be built there: for the values the preset
        reads, any `centers` given, a bump with no mass on the grid, and
        values that overflow."""
        preset = self.preset
        if preset not in ("constant", "gaussian-bump", "random-nonneg"):
            raise ValueError(f"unknown preset {preset!r}")
        if preset == "constant" and self.value < 0:
            raise ValueError(f"constant preset needs value >= 0, got {self.value}")
        if preset == "gaussian-bump":
            if self.mass <= 0:
                raise ValueError(f"requested mass must be > 0, got {self.mass}")
            if self.width < 2.0 * max(grid.spacing):
                raise ValueError(f"width {self.width} under-resolved: need at least 2 cells "
                                 f"({2.0 * max(grid.spacing)})")
        if self.centers is not None and len(self.centers) == 0:
            raise ValueError("centers must name at least one point")
        for c in self.centers or ():
            if len(c) != grid.dim:
                raise ValueError(f"center {list(c)} needs {grid.dim} coordinates")
        if preset == "random-nonneg":
            if self.low < 0 or self.high <= self.low:
                raise ValueError(f"need 0 <= low < high, got [{self.low}, {self.high})")
            if seed < 0:
                raise ValueError(f"seed must be >= 0, got {seed}")
        if self.v0_preset not in ("constant", "match"):
            raise ValueError(f"unknown v0 preset {self.v0_preset!r}")
        if self.v0_preset == "constant" and self.v0_value < 0:
            raise ValueError(f"v0 must be nonnegative, got {self.v0_value}")
        if preset == "constant":
            return np.full(grid.cells, float(self.value))
        if preset == "random-nonneg":
            return np.random.default_rng(seed).uniform(self.low, self.high, size=grid.cells)
        centers = self.centers or [tuple(0.5 * L for L in grid.extent)]
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            u0 = functools.reduce(np.add, (_gaussian_values(grid, self.mass / len(centers),
                                                            self.width, c) for c in centers))
        if not np.isfinite(u0).all():
            raise ValueError(f"mass {self.mass} overflows the bumps' values")
        return u0


def _gaussian_values(grid: GridSpec, mass: float, width: float,
                     center: tuple[float, ...]) -> np.ndarray:
    r2 = np.zeros(grid.cells)
    for axis in range(grid.dim):
        x = grid.cell_centers(axis) - center[axis]
        shape = [1] * grid.dim
        shape[axis] = -1
        r2 = r2 + (x ** 2).reshape(shape)
    bump = np.exp(-r2 / (2.0 * width * width))
    raw_mass = bump.sum() * grid.cell_volume
    if not raw_mass > 0.0:
        raise ValueError(f"the bump at {list(center)} has no mass on the grid")
    return bump * (mass / raw_mass)


def make_initial_data(grid: GridSpec, preset: str, *, seed: int = 0,
                      **values) -> InitialData:
    """Build nonnegative (u0, v0) from a named preset; `values` are the other
    fields of InitialSpec, which holds their defaults and checks them.

    Presets for u0:
      constant       - u0 = value everywhere
      gaussian-bump  - normalized bumps at `centers` (default: the box
                       centre) sharing `mass` equally; one bump has
                       integral exactly `mass`
      random-nonneg  - seeded uniform values in [low, high)
    v0 is a constant field (v0_value) unless v0_preset = "match", which
    copies u0.
    """
    spec = InitialSpec(preset, **values)
    u0 = Field(grid, spec.check(grid, seed))
    v0 = constant_field(grid, spec.v0_value) if spec.v0_preset == "constant" else u0
    return InitialData(u0=u0, v0=v0)


# Classical 2D aggregation threshold for concentrated data, from the chemotaxis
# literature; a fixed constant (no config key sets it) that scales test masses.
CRITICAL_MASS_2D = 8.0 * math.pi
