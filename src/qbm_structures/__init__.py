"""Exact simulator for a particle-plus-harmonic-bath universe and its alternate decompositions.

The API is the model's inputs and the two error types; each scenario and routine is imported from its module.
"""

import os as _os

# OpenBLAS reads this once, as numpy loads it: an idle worker sleeps after 2^26 cycles (33 ms at 2 GHz) instead
# of spinning for 0.13 s; shorter timeouts save more CPU on small runs but make large solves wait on waking workers
_os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "26")

from .errors import ConditioningError, DomainError
from .model import BathSpec, ModelParams, discretize_bath

__all__ = ["BathSpec", "ConditioningError", "DomainError", "ModelParams", "discretize_bath"]
