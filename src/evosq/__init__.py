"""Numerical laboratory for depth-indexed boundary maps on warped collars.

The package verifies, at experiment scale, the chain of identities that
reduce potential recovery from boundary data to the off-diagonal behavior
of a source boundary value problem on a product of collars: slice map
families and their depth equation, trace and tensor transport, squared
transport operators and their kernels, diagonal-source recovery, structure
probes, conformal rescaling, and combinatorial exhaustion of triangulated
surfaces.
"""

from .errors import (
    ConfigError,
    DNComputationError,
    EvosqError,
    FormatError,
    GeometryError,
    MeshError,
    RiccatiEscapeError,
    StepFailureError,
)
from .geometry import (
    Profile,
    WarpedGeometry,
    build_warped_geometry,
    conformal_potential,
    make_profile,
    sobolev_apply,
)
from .potentials import (
    BumpPotential,
    ConstantPotential,
    Potential,
    SampledPotential,
    ZeroPotential,
    make_potential,
)
from .dnmap import (
    DNFamily,
    coercivity_probe,
    compute_dn_family,
    conformal_identity_check,
    dn_mode_symbol,
    riccati_integrate,
    riccati_residual,
    solve_interior,
)
from .evolution import (
    PairOperator,
    evolve_tensor_backward,
    evolve_tensor_forward,
    evolve_trace,
    evolved_rank_one,
)
from .squared import apply_variant, kernel_residual, sbp_derivative, scalar_factorized_apply
from .source_bvp import (
    diagonal_source,
    dn_recovery_check,
    layer_strip_check,
    solve_source_bvp,
)
from .probes import (
    gradient_blowup_probe,
    null_test,
    offdiagonal_flag,
    shell_decomposition,
    zeta_pairing,
)
from .exhaustion import (
    SurfaceMesh,
    collar_map_samples,
    exhaustion_order,
    load_mesh,
    push_through,
    smooth_min,
    verify_order,
)
from .io import read_matrix, write_matrix
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "BumpPotential",
    "ConfigError",
    "ConstantPotential",
    "DNComputationError",
    "DNFamily",
    "EvosqError",
    "FormatError",
    "GeometryError",
    "MeshError",
    "PairOperator",
    "Potential",
    "Profile",
    "RiccatiEscapeError",
    "SampledPotential",
    "SplitMix64",
    "StepFailureError",
    "SurfaceMesh",
    "WarpedGeometry",
    "ZeroPotential",
    "apply_variant",
    "build_warped_geometry",
    "coercivity_probe",
    "collar_map_samples",
    "compute_dn_family",
    "conformal_identity_check",
    "conformal_potential",
    "diagonal_source",
    "dn_mode_symbol",
    "dn_recovery_check",
    "evolve_tensor_backward",
    "evolve_tensor_forward",
    "evolve_trace",
    "evolved_rank_one",
    "exhaustion_order",
    "gradient_blowup_probe",
    "kernel_residual",
    "layer_strip_check",
    "load_mesh",
    "make_potential",
    "make_profile",
    "null_test",
    "offdiagonal_flag",
    "push_through",
    "read_matrix",
    "riccati_integrate",
    "riccati_residual",
    "sbp_derivative",
    "scalar_factorized_apply",
    "shell_decomposition",
    "smooth_min",
    "sobolev_apply",
    "solve_interior",
    "solve_source_bvp",
    "verify_order",
    "write_matrix",
    "zeta_pairing",
]
