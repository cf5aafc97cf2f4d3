"""Error taxonomy shared by every minvar module.

All errors derive from MinvarError so callers (and the CLI) can catch the
whole family and map it to a configuration/domain failure.
"""

from __future__ import annotations

__all__ = ["MinvarError", "DomainError", "DegenerateMetric", "NotSpherical",
           "BranchLocusError", "DimensionMismatch", "SpecError",
           "SamplingExhausted", "NonFiniteResidual"]


class MinvarError(Exception):
    """Base class for all engine errors."""


class DomainError(MinvarError):
    """A primitive or map was evaluated outside its mathematical domain."""


class DegenerateMetric(MinvarError):
    """The pulled-back metric is (numerically) rank deficient at a point."""


class NotSpherical(MinvarError):
    """An operation requiring image points on the unit sphere got one off it."""


class BranchLocusError(DomainError):
    """The graph function was evaluated too close to its branch locus."""


class DimensionMismatch(MinvarError):
    """Array or block dimensions are inconsistent with the declared layout."""


class SpecError(MinvarError):
    """A family/config description is malformed or self-inconsistent."""


class SamplingExhausted(MinvarError):
    """Rejection sampling could not find enough non-excluded points."""


class NonFiniteResidual(MinvarError):
    """A check produced NaN or infinite residuals, which admit no verdict."""
