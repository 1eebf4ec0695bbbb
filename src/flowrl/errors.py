"""Exception types shared across the package."""


class FlowRLError(Exception):
    """Base class for all package-specific errors."""


class DataError(FlowRLError):
    """Raised for malformed, inconsistent, or missing input data.

    Carries optional file/line context so loader errors point at the
    offending row.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:" if line is None else f"{path}:{line}:"
            prefix += " "
        super().__init__(prefix + message)


class ConfigError(FlowRLError):
    """Raised when a run configuration fails to parse or validate."""


class DivergenceError(FlowRLError):
    """Raised when training produces a non-finite loss or parameter."""
