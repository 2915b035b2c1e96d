"""Exception types shared across the package."""


class FibertrapError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FibertrapError):
    """Invalid configuration: parse failure, unknown key, or physical constraint violation."""

    def __init__(self, message, line=None, key=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.key = key


class CutoffError(FibertrapError):
    """A requested mode does not propagate at the given V parameter."""

    def __init__(self, mode_name, v, v_cutoff):
        super().__init__(
            f"mode {mode_name} is below cutoff: V = {v:.4f} < V_c = {v_cutoff:.4f}"
        )
        self.mode_name = mode_name
        self.v = v
        self.v_cutoff = v_cutoff


class ConvergenceError(FibertrapError):
    """An iterative numerical routine failed to converge."""


class NoTrapError(FibertrapError):
    """No interior potential minimum exists in the seeded search region.

    split_dependent is False for a refusal that no power split can change:
    a seed window inside the fiber, or modes that do not beat.
    """

    def __init__(self, message, split_dependent=True):
        super().__init__(message)
        self.split_dependent = split_dependent


class SaddleError(FibertrapError):
    """A stationary point was found but it is not a minimum (non-positive curvature)."""
