"""Shared exception types.

Every module raises subclasses of DmlkitError so callers (and the CLI)
can distinguish config problems, data problems, and numerical failures.
"""


class DmlkitError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(DmlkitError):
    pass


class RankDeficient(DmlkitError):
    pass


class LeverageOne(DmlkitError):
    pass


class DegreesOfFreedom(DmlkitError):
    pass


class NonFinitePenalty(DmlkitError):
    pass


class BadLevel(DmlkitError):
    """A significance level outside (0, 1)."""


class NoConvergence(DmlkitError):
    pass


class FoldTooSmall(DmlkitError):
    pass


class BadFoldCount(DmlkitError):
    pass


class WeakResidualVariation(DmlkitError):
    pass


class Separation(DmlkitError):
    pass


class OneArmEmpty(DmlkitError):
    pass


class NoTreatedUnits(DmlkitError):
    pass


class NoCompliance(DmlkitError):
    pass


class EmptyCell(DmlkitError):
    pass


class OneSideEmpty(DmlkitError):
    pass


class ExactlyZeroCovariance(DmlkitError):
    pass


class SingularJacobian(DmlkitError):
    pass


class DegenerateVariance(DmlkitError):
    pass


class BadR2(DmlkitError):
    pass


class SingularProxyMatrix(DmlkitError):
    pass


class NotADistribution(DmlkitError):
    pass


class IndistinguishableModels(DmlkitError):
    pass


class ConstantModel(DmlkitError):
    pass


class EmptyBin(DmlkitError):
    pass


class WeightOverflow(DmlkitError):
    pass


class WeightsNotSupported(DmlkitError):
    """A learner that has no weighted fit was handed weights."""


class UnknownDgp(DmlkitError):
    pass


class ConfigError(DmlkitError):
    pass


class ParseError(DmlkitError):
    pass


class NonBinaryTreatment(DmlkitError):
    pass
