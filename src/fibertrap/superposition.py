"""Coherent two-mode superpositions and their stationary interference pattern.

Two co-propagating modes of the same frequency beat along the fiber with
period z0 = 2 pi / |beta_a - beta_b|, producing a z-stationary intensity
pattern in the evanescent region. The pair carries the power split tau
(fraction in mode a) and the relative phase delta between the modes at z = 0.

All evaluators are pure functions of immutable inputs and broadcast
elementwise over numpy arrays: each value depends only on its own point.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import modes
from .constants import c as _C0
from .constants import epsilon_0 as _EPS0
from .errors import ConfigError

# Relative slack when checking that the stored solutions carry the power
# split the pair declares.
_POWER_RTOL = 1e-9


@dataclass(frozen=True)
class ModePair:
    """Two power-normalized co-propagating modes with split tau and phase delta.

    sol_a carries tau * power_mw, sol_b the remainder. Both solutions must
    share the fiber and the vacuum wavelength; transverse-magnetic modes are
    rejected because their polarization cannot cancel against the other
    mode families anywhere on a circle, so no interference trap forms.
    """

    sol_a: modes.ModeSolution
    sol_b: modes.ModeSolution
    tau: float
    power_mw: float
    delta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"power split tau = {self.tau} outside [0, 1]",
                              key="pair.tau")
        for sol in (self.sol_a, self.sol_b):
            if sol.mode.family == "TM":
                raise ConfigError(
                    f"{sol.name} is transverse magnetic and unsupported for "
                    "two-mode traps", key="pair.modes")
        if self.sol_a.fiber != self.sol_b.fiber:
            raise ConfigError("pair modes solved on different fibers",
                              key="pair.modes")
        if self.sol_a.wavelength_nm != self.sol_b.wavelength_nm:
            raise ConfigError("pair modes solved at different wavelengths",
                              key="pair.modes")
        for sol, frac in ((self.sol_a, self.tau), (self.sol_b, 1.0 - self.tau)):
            want = frac * self.power_mw
            if sol.power_mw is None or abs(sol.power_mw - want) > _POWER_RTOL * max(want, 1.0):
                raise ConfigError(
                    f"{sol.name} carries {sol.power_mw} mW, pair requires {want} mW",
                    key="pair.tau")

    @property
    def fiber(self):
        return self.sol_a.fiber

    @property
    def wavelength_nm(self):
        return self.sol_a.wavelength_nm


def _compose_member(fiber, wavelength_nm, name, orientation, member_power_mw):
    """Normalize one pair member and apply the hybrid composition convention.

    A quasi-linearly polarized hybrid mode is the equal-weight sum of its two
    counter-circulating constituents, and the convention here assigns the
    member power to each constituent, so the composed hybrid field enters the
    superposition with sqrt(2) times the single-field normalized amplitude.
    The circularly symmetric TE family has a single constituent and enters
    unscaled. The trap geometry (cancellation radius and depth scale of the
    two-mode minima) fixes this choice; equal-field normalization leaves a
    hybrid member too weak to cancel against a TE partner at the radii where
    the traps form.
    """
    sol = modes.normalize_power(
        modes.solve_mode(fiber, wavelength_nm, name, orientation),
        member_power_mw)
    if sol.mode.family in ("HE", "EH"):
        sol = replace(sol, amplitude=sol.amplitude * np.sqrt(2.0))
    return sol


def make_pair(fiber, wavelength_nm, name_a, name_b, power_mw, tau, delta=0.0,
              orientation_a=0.0, orientation_b=0.0):
    """Solve, normalize and pair two modes in one step.

    Each member is power-normalized to its share of power_mw and hybrid
    members then pick up the sqrt(2) composition factor (see _compose_member).
    The stored power_mw of each member remains its nominal share.
    """
    if not 0.0 <= tau <= 1.0:
        raise ConfigError(f"power split tau = {tau} outside [0, 1]",
                          key="pair.tau")
    sol_a = _compose_member(fiber, wavelength_nm, name_a, orientation_a,
                            tau * power_mw)
    sol_b = _compose_member(fiber, wavelength_nm, name_b, orientation_b,
                            (1.0 - tau) * power_mw)
    return ModePair(sol_a=sol_a, sol_b=sol_b, tau=float(tau),
                    power_mw=float(power_mw), delta=float(delta))


def total_e_field(pair, r_nm, phi, z_nm):
    """Total complex electric field e^{i delta} E_a + E_b at t = 0.

    Cylindrical components, as modes.e_field. Each mode contributes with
    its own propagation constant in the z-phase; the relative phase delta is
    applied to mode a at z = 0. Both modes share one optical frequency, so
    the common factor e^{i omega t} drops out of every time-averaged
    quantity built from this field.
    """
    ea = modes.e_field(pair.sol_a, r_nm, phi, z_nm)
    eb = modes.e_field(pair.sol_b, r_nm, phi, z_nm)
    return np.exp(1j * pair.delta) * ea + eb


def mean_intensity(pair, r_nm, phi, z_nm):
    """Time-averaged intensity (c eps0 / 2) |E_total|^2 in W/m^2.

    Stationary in t because both modes share one optical frequency; periodic
    in z with the beat length.
    """
    e = total_e_field(pair, r_nm, phi, z_nm)
    return 0.5 * _C0 * _EPS0 * np.sum(np.abs(e) ** 2, axis=-1)


def beat_length(pair):
    """Beat length z0 = 2 pi / |beta_a - beta_b| in nm."""
    dbeta = pair.sol_a.beta_per_nm - pair.sol_b.beta_per_nm
    if dbeta == 0.0:
        raise ValueError("degenerate propagation constants: no stationary beat")
    return 2.0 * np.pi / abs(dbeta)
