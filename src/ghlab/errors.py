"""Exception types shared across the package.

Every failure mode that callers are expected to catch gets its own class,
so tests and the CLI can distinguish "bad input data" from "numerics gave
up" without string matching.
"""


class GHLabError(Exception):
    """Base class for all package errors."""


class InvalidZeroError(GHLabError):
    """Blaschke zero outside the punctured open disc."""


class PoleError(GHLabError):
    """Evaluation hit (or underflowed into) a pole of a disc automorphism."""


class BranchDomainError(GHLabError):
    """Square-root argument left the right half-plane branch domain."""


class InvalidMuError(GHLabError):
    """Post-composition map failed its range validation."""


class InvalidDataError(GHLabError):
    """Holomorphic data violates a positivity requirement (Im psi, Im phi)."""


class PunctureError(GHLabError):
    """Point maps to one of the three punctures (cusp of the covering)."""


class ConvergenceError(GHLabError):
    """A series or reduction loop failed to converge within its budget."""


class SizeError(GHLabError):
    """Requested enumeration exceeds the desk-scale guard."""


class DegenerateMetricError(GHLabError):
    """Assembled metric failed its positive-definiteness check."""


class MetricDomainError(DegenerateMetricError):
    """The conformal factor underflowed to 0: the metric is positive
    definite there, but beyond what double precision can represent."""


class CoframeDomainError(MetricDomainError):
    """The coordinate arrays of the metric and the forms no longer hold
    the dx block of the Gibbons-Hawking coframe: rho^2 m is below their
    rounding, although m > 0."""


class ZeroCountError(GHLabError):
    """An argument-principle count could not be certified: the winding
    number is not an integer, the two rules disagree, the integrand is
    too small on the circle, or the located zeros do not add up."""


class DegenerateFrameError(GHLabError):
    """Coframe solve was too ill-conditioned to trust."""


class StencilError(GHLabError):
    """A finite-difference stencil leaves its domain, or a step rounds back onto its centre."""


class PathError(GHLabError):
    """Quadrature along a path failed (singular point on the path)."""


class RegionError(GHLabError):
    """A path left the region its check requires it to stay in."""


class ConfigError(GHLabError):
    """Experiment configuration failed schema validation."""
