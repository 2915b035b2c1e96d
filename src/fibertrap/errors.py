"""Exception types shared across the package."""

import math


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
    """A requested mode does not propagate at the given V parameter.

    v_cutoff is the branch's cutoff V, or math.inf when the branch is still
    absent at v_max, the largest V the mode solver covers; the message then
    names v_max.
    """

    def __init__(self, mode_name, v, v_cutoff, v_max):
        if math.isfinite(v_cutoff):
            where = f"V_c = {v_cutoff:.4f}"
        else:
            where = f"V_c, which lies above V = {v_max}, the mode solver's range"
        super().__init__(
            f"mode {mode_name} is below cutoff: V = {v:.4f} < {where}")
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
