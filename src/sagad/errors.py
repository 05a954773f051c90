"""Exception types shared across the package."""


class SagadError(Exception):
    """Base class for errors raised by this package."""


class DatasetFormatError(SagadError):
    """A dataset directory or one of its files violates the on-disk contract."""


class CacheFormatError(SagadError):
    """A cache file is missing, corrupt, or inconsistent with its header."""


class ConfigError(SagadError):
    """A configuration file or flag combination is invalid."""


class SplitError(SagadError, ValueError):
    """A node set cannot be trained or scored on: it is empty, or it lacks
    a class (or enough anomalies) the metric needs."""
