"""Exception types shared across the package."""


class QuadratureError(RuntimeError):
    """Adaptive integration could not reach the requested tolerance.

    Carries the achieved error estimate so callers can report how far the
    computation got.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class DegenerateInputError(ValueError):
    """Kinematic input for which the selection rules break down.

    The canonical case is a probe initially at rest: the selected mode
    diverges and the fixed-frequency scaling no longer applies, so no
    numeric answer is returned.
    """


class ConfigError(ValueError):
    """A scenario configuration failed validation.

    ``field`` holds the dotted path of the offending entry.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message
