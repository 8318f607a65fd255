"""Uniform structured grids and discrete operators with zero-flux boundaries.

Cell-centered finite-volume convention: a field stores one value per cell
(cell average), faces sit between cells, and every differential operator is
written in flux form so that discrete integrals telescope exactly.  All
boundary faces carry zero flux (homogeneous Neumann closure).

Every face difference runs on one flat face layout (_FaceBuffer): along an
axis of flat stride st (n1 for axis 0 of an n0 x n1 grid, else 1), the
faces are the contiguous shift x[st:] - x[:-st] between zero borders of st
entries, so a cell's divergence is one subtraction, +axis face minus -axis
face, and no slice strides.  On the last axis of a 2-D grid the shift also
pairs (i, n1-1) with (i+1, 0); these wrap faces are set to exactly 0.0
after each difference, so nothing, finite or not, crosses a row end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.cells:
            raise ValueError(f"values shape {v.shape} does not match grid cells {self.grid.cells}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def _adopt(cls, grid: GridSpec, values: np.ndarray) -> Field:
        """A step result the solver hands over, frozen in place: no copy, no checks."""
        values.setflags(write=False)
        f = object.__new__(cls)
        f.__dict__.update(grid=grid, values=values)
        return f

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


def constant_field(grid: GridSpec, value: float) -> Field:
    return Field(grid, np.full(grid.cells, float(value)))


def integrate(f: Field) -> float:
    """Discrete integral: sum of cell values times cell volume."""
    return float(f.values.sum() * f.grid.cell_volume)


def power_integral(x: np.ndarray, p: float, cell_volume: float) -> float:
    """Discrete integral of x^p for x >= 0, as sup^(p/2) (integral of (x/sup)^p)
    sup^(p/2): inf only when the integral is beyond the double range, no warning."""
    sup = float(x.max()) or 1.0  # x = 0 integrates to 0 at any scale
    with np.errstate(over="ignore"):
        half = np.float64(sup) ** (p / 2.0)
        return float(half * (((x / sup) ** p).sum() * cell_volume) * half)


def lp_norm(f: Field, p: float) -> float:
    """L^p norm under cell-average quadrature, sup (power_integral of |f|/sup)^(1/p):
    finite for a finite field; p=inf gives max |value|."""
    sup = float(np.abs(f.values).max())
    if p == math.inf:
        return sup
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return sup * power_integral(np.abs(f.values) / (sup or 1.0), p, f.grid.cell_volume) ** (1.0 / p)


class _FaceBuffer:
    """One axis of the flat face layout (see the module docstring): `faces`
    holds the face between raveled cells k and k + st at k, `plus` and
    `minus` are each cell's +axis and -axis face (a zero border past the
    ends), and `padded` the faces with both zero borders."""

    def __init__(self, grid: GridSpec, axis: int):
        n, n1 = grid.num_cells, grid.cells[-1]
        self.st = st = n // math.prod(grid.cells[:axis + 1])
        self.padded = buf = np.zeros(n + st)
        self.faces = buf[st:n]
        self.plus = buf[st:].reshape(grid.cells)
        self.minus = buf[:n].reshape(grid.cells)
        self.wrap = slice(n1 - 1, None, n1) if axis else slice(0)

    def diff(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """faces := a - b (raveled cells shifted by st), wrap faces 0.0."""
        np.subtract(a, b, out=self.faces)
        self.faces[self.wrap] = 0.0
        return self.faces


class _Laplacian:
    """Matrix-free Neumann Laplacian: (2*dim+1)-point, flux form.

    Each cell gets (+axis face difference - -axis face difference) per axis
    in the flat face layout, one rounding each, and the axis terms are summed
    in a fixed order, so the result is bitwise mirror-symmetric for
    mirror-symmetric input.  Every interior face difference enters its two
    cells with opposite signs, so the entries sum to zero up to rounding;
    boundary and wrap faces are 0.0 and carry nothing.
    """

    def __init__(self, grid):
        self.diffs = [_FaceBuffer(grid, axis) for axis in range(grid.dim)]
        self.scales = [1.0 / h ** 2 for h in grid.spacing]
        self.term = np.empty(grid.cells)
        # magnitude of the diagonal at an interior cell
        self.diag = sum(2.0 * s for s in self.scales)

    def __call__(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        xf = x.reshape(-1)
        with np.errstate(invalid="ignore", over="ignore"):
            for axis, (g, scale) in enumerate(zip(self.diffs, self.scales)):
                g.diff(xf[g.st:], xf[:-g.st])
                g.faces *= scale
                term = out if axis == 0 else self.term
                np.subtract(g.plus, g.minus, out=term)
                if axis:
                    out += term
        return out


def _face_differences(grid: GridSpec, x: np.ndarray):
    """Per axis, a new face buffer holding x_R - x_L, and the axis's spacing."""
    xf = x.reshape(-1)
    for axis, h in enumerate(grid.spacing):
        g = _FaceBuffer(grid, axis)
        with np.errstate(invalid="ignore"):
            g.diff(xf[g.st:], xf[:-g.st])
        yield g, h


def face_gradient_sup(f: Field) -> float:
    """Max over all faces and axes of |two-point gradient| (f_R - f_L)/h.

    Rounding is monotone, so max |d| / h is the max of the rounded |d| / h.
    """
    return max(float(np.abs(g.faces).max()) / h for g, h in _face_differences(f.grid, f.values))


def grad_square_integral(grid: GridSpec, x: np.ndarray) -> float:
    """Discrete integral of |grad x|^2 using face gradients.

    Each interior face contributes ((x_R - x_L)/h)^2 times the cell volume;
    boundary and wrap faces contribute nothing (they are zero).
    """
    total = 0.0
    for g, h in _face_differences(grid, x):
        g.faces /= h
        total += float((g.padded * g.padded).sum() * grid.cell_volume)
    return total
