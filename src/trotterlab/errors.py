"""Exception types shared across the package."""


class TrotterlabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(TrotterlabError):
    """Invalid spec, config file, or parameter combination."""


class InvalidStateError(TrotterlabError):
    """A state failed a normalization or shape check."""


class NumericalError(TrotterlabError):
    """A numerical routine failed its accuracy contract."""
