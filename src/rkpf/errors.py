"""Exception hierarchy.

Every error the engine raises deliberately derives from EngineError; the CLI
maps EngineError and an input path that is missing or a directory to exit
code 2 (input/validation problem) and anything else to exit code 1 (internal
error).
"""


class EngineError(Exception):
    """Base class for all engine-raised errors."""


# panel store


class MissingColumn(EngineError):
    pass


class MissingData(EngineError):
    pass


class NonNumericCell(EngineError):
    pass


class DuplicateRow(EngineError):
    pass


class NonConsecutiveYears(EngineError):
    pass


class UnknownVariable(EngineError):
    pass


# indicators


class EmptyRegion(EngineError):
    pass


class UnknownSubjectArea(EngineError):
    pass


# thematic weights


class DegenerateDimensions(EngineError):
    pass


class RegionOrderMismatch(EngineError):
    pass


class InvalidProfiles(EngineError):
    pass


class InvalidWeights(EngineError):
    pass


# estimator


class MissingWeights(EngineError):
    pass


class RankDeficient(EngineError):
    pass


class ZeroDof(EngineError):
    pass


class SingleCluster(EngineError):
    pass


class NonFiniteFit(EngineError):
    pass


# suite


class InvalidTag(EngineError):
    pass


class NoInteriorMaximum(EngineError):
    pass


class DualErrorsNeedRobust(EngineError):
    pass


# simulator / cli


class ConfigError(EngineError):
    pass
