"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DivergenceError -> 3,
anything else that escapes -> nonzero via the interpreter.
"""


class InvalidParameterError(ValueError):
    """A function argument violates its documented precondition."""


class DivergenceError(RuntimeError):
    """A particle position or model became non-finite during integration."""

    def __init__(self, message, step=None, index=None):
        super().__init__(message)
        self.step = step
        self.index = index


class ConfigError(ValueError):
    """Experiment config failed validation.  Carries every violation found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid config: " + "; ".join(self.problems))
