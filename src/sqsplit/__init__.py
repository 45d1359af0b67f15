"""Exact Fock-space simulation of split spin-squeezed ensembles.

A two-component condensate is squeezed by one-axis twisting, split
between two wells by a 50/50 beamsplitter, and read out by atom-number
projection.  The package computes the resulting conditional and mixed
states exactly, their entanglement (logarithmic negativity), collective
spin Wigner functions, and the standard correlation/steering witnesses.
"""

from .entangle import (
    SchmidtSpectrum,
    log_negativity_bracket,
    log_negativity_dense,
    log_negativity_mixed,
    log_negativity_pure,
    schmidt,
)
from .observables import (
    DensityMatrix,
    MomentSet,
    moments,
    project_right_fock,
    reduced_density_left,
    rotate_moments,
)
from .specfun import (
    QuadratureRule,
    gauss_legendre_sphere,
    legendre_table,
    log_binomial,
    log_factorial,
    spherical_harmonic,
    wigner_3j,
)
from .statekit import (
    ConditionalState,
    SplitFullState,
    SplitMixedState,
    StateVector,
    ZeroProbabilityError,
    effective_evolution,
    mixed_split_state,
    one_axis_twist,
    project_left_number,
    spin_coherent,
    split,
    twisted_split,
)
from .wigner import (
    WignerGrid,
    conditional_wigner_closed,
    default_rule,
    display_lattice,
    marginal_wigner_closed,
    negativity_volume,
    sphere_integral,
    wigner_from_density,
)
from .witness import (
    UndefinedWitnessError,
    WitnessResult,
    covariance_criterion,
    dgcz,
    epr_steering,
    giovannetti,
    hermitian_min_eigenvalue,
    squeezing_angle,
    wineland_xi,
    witness_suite,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # states
    "StateVector",
    "ConditionalState",
    "SplitFullState",
    "SplitMixedState",
    "ZeroProbabilityError",
    "spin_coherent",
    "one_axis_twist",
    "split",
    "twisted_split",
    "project_left_number",
    "effective_evolution",
    "mixed_split_state",
    # observables
    "MomentSet",
    "DensityMatrix",
    "moments",
    "rotate_moments",
    "reduced_density_left",
    "project_right_fock",
    # entanglement
    "SchmidtSpectrum",
    "schmidt",
    "log_negativity_pure",
    "log_negativity_mixed",
    "log_negativity_bracket",
    "log_negativity_dense",
    # wigner
    "WignerGrid",
    "default_rule",
    "wigner_from_density",
    "marginal_wigner_closed",
    "conditional_wigner_closed",
    "sphere_integral",
    "negativity_volume",
    "display_lattice",
    # witnesses
    "WitnessResult",
    "UndefinedWitnessError",
    "dgcz",
    "covariance_criterion",
    "squeezing_angle",
    "giovannetti",
    "wineland_xi",
    "epr_steering",
    "witness_suite",
    "hermitian_min_eigenvalue",
    # special functions
    "QuadratureRule",
    "log_factorial",
    "log_binomial",
    "wigner_3j",
    "legendre_table",
    "spherical_harmonic",
    "gauss_legendre_sphere",
]
