"""Exception taxonomy shared across the package.

Anything raised on purpose derives from LevyFilterError so the CLI can map
failures to exit codes without string matching.  Plain ValueError is reserved
for malformed arguments (wrong shapes, negative counts, ...).
"""


class LevyFilterError(Exception):
    """Base class for domain errors raised by this package."""


class ConfigError(LevyFilterError, ValueError):
    """A config document is malformed (unknown key, bad type, missing field).

    Also a ValueError: malformed configuration is malformed input.
    """

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class ModelViolationError(LevyFilterError):
    """A model callback broke its contract (e.g. thinning intensity not in (0,1))."""


class UnsupportedMeasureError(LevyFilterError):
    """The requested jump measure falls outside the finite-activity setting."""


class IntegrationFailureError(LevyFilterError):
    """A simulated state became non-finite; `time` records when."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class ExtrapolationError(LevyFilterError):
    """A lattice-backed coefficient was queried outside its covered range."""
