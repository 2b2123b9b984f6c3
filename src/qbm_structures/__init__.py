"""Exact simulator for a particle-plus-harmonic-bath universe and its alternate decompositions.

The number-basis oracle is imported from `qbm_structures.fock_oracle`; only oracle-compare loads it.
"""

import os as _os

# OpenBLAS reads this once, as numpy loads it: an idle worker sleeps after 2^26 cycles (33 ms at 2 GHz) instead
# of spinning for 0.13 s; shorter timeouts save more CPU on small runs but make large solves wait on waking workers
_os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "26")

from .errors import ConditioningError, DomainError
from .gaussian import (
    CatState,
    GaussianState,
    cat_state,
    coherent_state,
    condition_on_coherent,
    decoherence_factor,
    embed_symplectic,
    evolve,
    log_negativity,
    product_state,
    propagator,
    purify,
    purity,
    reduce,
    symplectic_eigenvalues,
    thermal_state,
    williamson,
)
from .model import (
    BathSpec,
    ModelParams,
    QuadraticHamiltonian,
    build_qbm_hamiltonian,
    discretize_bath,
    symplectic_form,
)
from .structure import (
    StructureMap,
    cm_relative_map,
    collective_mode_map,
    normal_mode_map,
    transform_hamiltonian,
)

# the API's names, without the submodules (errors, gaussian, model, structure) that the imports above bind
__all__ = sorted(name for name, obj in globals().items() if not (name.startswith("_") or isinstance(obj, type(_os))))
