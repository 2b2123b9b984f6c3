"""Exact simulator for a particle-plus-harmonic-bath universe and its alternate decompositions."""

from .errors import ConditioningError, DomainError
from .fock_oracle import (
    DenseEvolver,
    FockSpace,
    FockState,
    build_fock_hamiltonian,
    gaussian_to_fock,
    purity_density,
    quadrature_moments,
    reduced_density,
    weyl_operator,
)
from .gaussian import (
    CatState,
    GaussianState,
    cat_state,
    coherent_state,
    condition_on_coherent,
    decoherence_factor,
    embed_symplectic,
    evolve,
    is_pure,
    log_negativity,
    mean_energy,
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
    IrreducibilityReport,
    StructureMap,
    cm_relative_map,
    collective_mode_map,
    identity_map,
    irreducibility_report,
    normal_mode_map,
    transform_hamiltonian,
)

__all__ = [name for name in dir() if not name.startswith("_")]
