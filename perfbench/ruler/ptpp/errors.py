"""Exception hierarchy shared by the whole toolkit.

The CLI maps these onto process exit codes, so the split mirrors the three
failure families a caller can meaningfully react to: bad configuration,
unreadable input, and a processing step that could not run.
"""


class PtppError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(PtppError):
    """Invalid configuration value, option combination or missing input file."""


class ParseError(PtppError):
    """Malformed record, header, binary stream or annotation input."""


class UnsupportedFormatError(ParseError):
    """Input declares a storage format this reader does not implement."""


class ProcessingError(PtppError):
    """A pipeline or detection stage could not run on the given data."""


class InputTooShortError(ProcessingError):
    """Signal shorter than the minimum an operation needs."""
