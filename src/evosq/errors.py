"""Exception types shared across the package.

Every guard that aborts a computation raises one of these so callers (and the
CLI exit-code mapping) can tell configuration mistakes from numerical failures.
"""


class EvosqError(Exception):
    """Base class for all package errors."""


class GeometryError(EvosqError):
    """Invalid profile, depth range, or grid parameters."""


class DNComputationError(EvosqError):
    """Elliptic boundary solve failed (singular or near-singular system)."""


class RiccatiEscapeError(EvosqError):
    """Backward Riccati flow left the trust region."""

    def __init__(self, message, depth):
        super().__init__(message)
        self.depth = depth


class StepFailureError(EvosqError):
    """A time step's implicit solve failed or did not converge."""

    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations


class MeshError(EvosqError):
    """Mesh fails a structural precondition (manifoldness, boundary, ...)."""


class FormatError(EvosqError):
    """Malformed matrix file or sidecar."""


class ConfigError(EvosqError):
    """Scenario configuration is invalid."""
