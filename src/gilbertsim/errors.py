"""Typed errors so parameter sweeps fail loudly instead of returning inf/nan."""


class GilbertSimError(Exception):
    """Base class for package errors."""


class NonIntegrableError(GilbertSimError):
    """Length-power exponent at or below -d: the defining integral diverges."""


class DivergentCovarianceError(GilbertSimError):
    """Covariance parameters outside alpha, beta > -d and alpha + beta > -d."""


class DegenerateInputError(GilbertSimError):
    """Deviation-inequality input with u + median = 0."""


class TooFewReplicationsError(GilbertSimError):
    """Moment estimation needs at least two replications."""


class UnsupportedDimensionError(GilbertSimError):
    """No exact quadrature path for this window dimension."""


class QuadratureError(GilbertSimError):
    """Adaptive quadrature failed to reach its error target within the node cap."""


class ConfigError(GilbertSimError):
    """Invalid CLI/config input; maps to exit code 2."""
