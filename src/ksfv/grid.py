"""Uniform structured grids and discrete operators with zero-flux boundaries.

Cell-centered finite-volume convention: a field stores one value per cell
(cell average), faces sit between cells, and every differential operator is
written in flux form so that discrete integrals telescope exactly.  All
boundary faces carry zero flux (homogeneous Neumann closure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, kw_only=True)
class GridSpec:
    """Axis-aligned box [0, L_0] x ... partitioned into uniform cells.

    dim must be 1 or 2; each axis needs at least 3 cells so that interior
    stencils exist away from both boundaries.
    """

    dim: int = 2
    cells: tuple[int, ...]
    extent: tuple[float, ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        object.__setattr__(self, "cells", tuple(int(n) for n in self.cells))
        object.__setattr__(self, "extent", tuple(float(L) for L in self.extent))
        if len(self.cells) != self.dim or len(self.extent) != self.dim:
            raise ValueError("cells and extent must have one entry per axis")
        if any(n < 3 for n in self.cells):
            raise ValueError(f"need at least 3 cells per axis, got {self.cells}")
        if any(L <= 0.0 for L in self.extent):
            raise ValueError(f"extent must be positive, got {self.extent}")
        object.__setattr__(self, "_spacing",
                           tuple(L / n for L, n in zip(self.extent, self.cells)))
        object.__setattr__(self, "_cell_volume", math.prod(self._spacing))

    @property
    def spacing(self) -> tuple[float, ...]:
        return self._spacing

    @property
    def cell_volume(self) -> float:
        return self._cell_volume

    @property
    def num_cells(self) -> int:
        return math.prod(self.cells)

    def cell_centers(self, axis: int) -> np.ndarray:
        """1D array of cell-center coordinates along the given axis."""
        h = self.spacing[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h


@dataclass(frozen=True, eq=False)
class Field:
    """Cell-averaged scalar field on a GridSpec.

    The value array is frozen (read-only) once constructed; operations
    return new fields, so instances are safe to share across workers.
    Identity semantics (no elementwise ==); compare .values explicitly.
    """

    grid: GridSpec
    values: np.ndarray
    allow_nonfinite: bool = field(default=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.cells:
            raise ValueError(f"values shape {v.shape} does not match grid cells {self.grid.cells}")
        if not self.allow_nonfinite and not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def _adopt(cls, grid: GridSpec, values: np.ndarray) -> Field:
        """A step result the solver hands over, frozen in place: no copy, no checks."""
        values.setflags(write=False)
        f = object.__new__(cls)
        f.__dict__.update(grid=grid, values=values, allow_nonfinite=True)
        return f

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


def constant_field(grid: GridSpec, value: float) -> Field:
    return Field(grid, np.full(grid.cells, float(value)))


def face_gradient(f: Field, axis: int) -> np.ndarray:
    """Two-point difference (f_R - f_L)/h on every face along `axis`.

    The returned array has one entry per face (cells+1 along the axis);
    the two boundary faces are exactly zero.
    """
    if axis < 0 or axis >= f.grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {f.grid.dim}")
    v = f.values
    h = f.grid.spacing[axis]
    shape = list(v.shape)
    shape[axis] += 1
    g = np.zeros(shape)
    interior = tuple(slice(1, -1) if k == axis else slice(None) for k in range(v.ndim))
    with np.errstate(invalid="ignore"):
        g[interior] = np.diff(v, axis=axis) / h
    return g


def integrate(f: Field) -> float:
    """Discrete integral: sum of cell values times cell volume."""
    return float(f.values.sum() * f.grid.cell_volume)


def lp_norm(f: Field, p: float) -> float:
    """L^p norm under cell-average quadrature; p=inf gives max |value|."""
    if p == math.inf:
        return float(np.abs(f.values).max())
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float((np.abs(f.values) ** p).sum() * f.grid.cell_volume) ** (1.0 / p)


def face_gradient_sup(f: Field) -> float:
    """Max over all faces and axes of |two-point gradient|."""
    return max(float(np.abs(face_gradient(f, axis)).max()) for axis in range(f.grid.dim))


def second_difference_sup(f: Field) -> float:
    """Max over cells and axes of |f_{i+1} - 2 f_i + f_{i-1}| / h^2.

    Crude curvature monitor used alongside the face-gradient sup; interior
    cells only, since the mirror closure makes boundary second differences
    degenerate.
    """
    worst = 0.0
    v = f.values
    for axis in range(f.grid.dim):
        h = f.grid.spacing[axis]
        dd = np.diff(v, n=2, axis=axis) / (h * h)
        if dd.size:
            worst = max(worst, float(np.abs(dd).max()))
    return worst


def grad_square_integral(f: Field) -> float:
    """Discrete integral of |grad f|^2 using face gradients.

    Each interior face contributes g^2 times the cell volume; boundary
    faces contribute nothing (their gradient is zero by construction).
    """
    total = 0.0
    vol = f.grid.cell_volume
    for axis in range(f.grid.dim):
        g = face_gradient(f, axis)
        total += float((g * g).sum() * vol)
    return total
