"""Evanescent-field mode solver and two-mode optical trap analysis.

The subpackages layer bottom-up: constants (CODATA 2022) and numerics
(special functions, roots, quadrature), modes (guided-mode eigenproblem and
vector fields), superposition (two-mode interference), potential (light
shift plus surface attraction), trapanalysis (minima, depths, frequencies,
extents, heating), and config/cli (presets, config files, command surface)
with floatrepr (Python's float repr over numpy arrays, for the grid CSV).
The names below cover the common workflow; the submodules stay importable
for the rest. When the package is what loads numpy, numpy's OpenBLAS runs
on one thread (no linear algebra here is large enough to use more); a set
OPENBLAS_NUM_THREADS, or numpy imported first, keeps the user's choice.
"""

import os
import sys

# OpenBLAS sizes its thread pool once, when numpy loads it; the pool's
# workers spin before they sleep, which costs a short run more CPU than the
# package's 3 x 3 and 48 x 48 LAPACK calls take. The variable is removed
# again so that child processes inherit the environment as it was.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .config import (RunConfig, load_config, make_field, preset,
                     PRESET_NAMES, save_config)
from .errors import (ConfigError, ConvergenceError, CutoffError,
                     FibertrapError, NoTrapError, SaddleError)
from .modes import (FiberSpec, LightSpec, ModeId, ModeSolution, cutoff_v,
                    dispersion_sweep, e_field, h_field, mode_power,
                    normalize_power, parse_mode_name, solve_mode,
                    supported_modes, v_parameter)
from .potential import (AtomSpec, PotentialField, SpectralLine,
                        as_millikelvin, cesium, intensity,
                        local_scattering_rate, total_potential, vdw_potential)
from .superposition import (ModePair, beat_length, make_pair, mean_intensity,
                            total_e_field)
from .trapanalysis import (EscapeResult, SeedRegion, ThermalState, TrapReport,
                           characterize_trap, escape_barrier, find_minimum,
                           harmonic_extents, lifetime,
                           orbit_averaged_scattering, power_split_sigma,
                           tau_sensitivity, trap_frequencies, turning_points)

__version__ = "0.1.0"

__all__ = [
    "AtomSpec", "ConfigError", "ConvergenceError", "CutoffError",
    "EscapeResult", "FiberSpec", "FibertrapError", "LightSpec", "ModeId",
    "ModePair", "ModeSolution", "NoTrapError", "PRESET_NAMES",
    "PotentialField", "RunConfig", "SaddleError",
    "SeedRegion", "SpectralLine", "ThermalState", "TrapReport",
    "as_millikelvin", "beat_length", "cesium", "characterize_trap",
    "cutoff_v", "dispersion_sweep", "e_field", "escape_barrier",
    "find_minimum", "h_field",
    "harmonic_extents", "intensity", "lifetime", "load_config",
    "local_scattering_rate", "make_field", "make_pair", "mean_intensity",
    "mode_power", "normalize_power", "orbit_averaged_scattering",
    "parse_mode_name", "power_split_sigma", "preset",
    "save_config", "solve_mode", "supported_modes", "tau_sensitivity",
    "total_e_field", "total_potential", "trap_frequencies",
    "turning_points", "v_parameter", "vdw_potential", "__version__",
]
