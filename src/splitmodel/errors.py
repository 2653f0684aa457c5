"""Shared exception types.

Every failure mode that callers are expected to catch gets its own class so
that tests and the CLI can distinguish configuration errors from genuine
verification failures.
"""


class SplitModelError(Exception):
    """Base class for all package errors."""


class NotInvertible(SplitModelError):
    """Inversion of a non-unit was attempted."""


class NotAField(SplitModelError):
    """An operation that needs field coefficients got a non-field ring."""


class RingUnsupported(SplitModelError):
    """The coefficient ring does not support the requested operation."""


class AmbientMismatch(SplitModelError):
    """Two objects live in different ambient spaces or over different rings."""


class BadDimension(SplitModelError):
    """A matrix or subspace has the wrong shape for the operation."""


class NotInTLambda(SplitModelError):
    """A vector supposed to lie in the u-torsion part has a nonzero head."""


class BadParameters(SplitModelError):
    """Numeric parameters (n, s, q, h, l, ...) violate their preconditions."""


class InvalidPoint(SplitModelError):
    """A point fails the moduli conditions it was required to satisfy."""


class RelationViolated(SplitModelError):
    """Chart parameter matrices do not satisfy the chart's defining relations."""


class ParityViolated(SplitModelError):
    """A stratum label breaks the parity constraints."""


class BadLabel(SplitModelError):
    """A stratum label is outside the admissible range for the operation."""


class BadTargets(SplitModelError):
    """A degeneration source/target pair is not closure-comparable."""


class ConstructionFailed(SplitModelError):
    """An internally constructed witness failed its own validation."""


class Singular(SplitModelError):
    """A matrix required to be invertible has zero determinant."""


class BudgetExceeded(SplitModelError):
    """An enumeration or completion exceeded its configured budget."""


class NotInGrassmannian(SplitModelError):
    """A lattice fails the duality condition dual(L) = u*L of the pi-modular
    locus."""


class UnrecognizedType(SplitModelError):
    """A lattice's relative type is not of the expected one-parameter shape."""


class NotInZ(SplitModelError):
    """The point is outside the closed locus where the comparison map is defined."""
