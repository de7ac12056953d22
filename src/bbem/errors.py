"""Exception types shared across the solver and harness layers."""


class BBEMError(Exception):
    """Base class for all library-specific failures."""


class FluxIncompatible(BBEMError):
    """Dirichlet datum has a nonzero net flux through the boundary."""


class IllConditioned(BBEMError):
    """A dense system is numerically singular beyond its known defect."""


class UnsupportedParameter(BBEMError):
    """Parameter combination outside the solvable range (e.g. alpha = 0
    for the pure Neumann problem)."""


class InvalidLabeling(BBEMError):
    """Patch labeling is missing or has an empty patch where both are
    required."""


class NoInteriorProbes(BBEMError):
    """None of the pressure-anchor probes lies inside the mesh, clear of it."""


class InvalidSource(BBEMError):
    """Manufactured-solution source point inside or too close to the
    domain."""


class SmallnessViolated(BBEMError):
    """Fixed-point iteration diverged; the data violate the smallness
    condition."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class NotConverged(BBEMError):
    """Fixed-point iteration hit the iteration cap before the tolerance."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InvalidThreadCount(BBEMError):
    """BBEM_THREADS is set to something other than a whole number >= 1."""
