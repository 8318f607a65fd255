"""Finite-volume simulator and analysis toolkit for chemotaxis systems
with nonlinear (porous-medium type) cell diffusion."""

import os

# One BLAS thread, set before ksfv first imports numpy: the cosine-basis
# products and reductions round differently at other thread counts, and
# artifacts must not depend on the machine.  A caller who imported numpy
# earlier must set these itself.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

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
