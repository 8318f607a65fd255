"""Finite-volume simulator and analysis toolkit for chemotaxis systems
with nonlinear (porous-medium type) cell diffusion."""

__version__ = "0.1.0"

from .grid import GridSpec
from .model import ModelParams, classify_regime, make_initial_data
from .solver import StepControl, run, step
from . import kernels

__all__ = [
    "GridSpec", "ModelParams", "StepControl", "make_initial_data",
    "run", "step", "classify_regime", "kernels",
    "__version__",
]
