"""Numerical laboratory for depth-indexed boundary maps on warped collars.

The package verifies, at experiment scale, the chain of identities that
reduce potential recovery from boundary data to the off-diagonal behavior
of a source boundary value problem on a product of collars: slice map
families and their depth equation, trace and tensor transport, squared
transport operators and their kernels, diagonal-source recovery, structure
probes, conformal rescaling, and combinatorial exhaustion of triangulated
surfaces. Each module is imported by name (``evosq.dnmap``, ``evosq.cli``, ...);
the package root re-exports only the three entry points below.
"""

from .dnmap import compute_dn_family
from .evolution import evolve_tensor_forward
from .geometry import build_warped_geometry

__version__ = "0.1.0"

__all__ = ["build_warped_geometry", "compute_dn_family", "evolve_tensor_forward"]
