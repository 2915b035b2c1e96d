"""Coherent two-mode superpositions and their stationary interference pattern.

Two co-propagating modes of the same frequency beat along the fiber with
period z0 = 2 pi / |beta_a - beta_b|, producing a z-stationary intensity
pattern in the evanescent region. The pair carries the power split tau
(fraction in mode a) and the relative phase delta between the modes at z = 0.

All evaluators are pure functions of immutable inputs and broadcast
elementwise over numpy arrays: each value depends only on its own point.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import modes
from .constants import c as _C0
from .constants import epsilon_0 as _EPS0
from .errors import ConfigError


def check_split(tau):
    """Reject a power split tau outside [0, 1], under key pair.tau."""
    if not 0.0 <= tau <= 1.0:
        raise ConfigError(f"power split tau = {tau} outside [0, 1]",
                          key="pair.tau")


def check_member(mode, key):
    """Reject a pair member ModeId under key: a TM mode, or order above 2.

    A TM mode cancels against no other family on a circle: no trap forms.
    """
    if mode.family == "TM":
        raise ConfigError(f"{mode.name} is transverse magnetic and "
                          "unsupported for two-mode traps", key=key)
    if mode.nu > 2:
        raise ConfigError(f"{mode.name}: azimuthal orders above 2 are not "
                          "supported for two-mode traps", key=key)


@dataclass(frozen=True)
class ModePair:
    """Two co-propagating modes with power split tau and phase delta.

    unit_a and unit_b are the solved modes (modes.solve_mode); sol_a and
    sol_b are derived from them: sol_a carries tau * power_mw, sol_b the
    remainder, each composed as _compose_member describes. A split only
    re-weights the solved modes, so the pair at another split is
    replace(pair, tau=t), with no mode solved or integrated again. Both
    modes share the fiber and the vacuum wavelength and pass check_member
    (key pair.modes), and tau passes check_split.
    """

    unit_a: modes.ModeSolution
    unit_b: modes.ModeSolution
    tau: float
    power_mw: float
    delta: float = 0.0
    sol_a: modes.ModeSolution = field(init=False, repr=False, compare=False)
    sol_b: modes.ModeSolution = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_split(self.tau)
        for sol in (self.unit_a, self.unit_b):
            check_member(sol.mode, key="pair.modes")
        if self.unit_a.fiber != self.unit_b.fiber:
            raise ConfigError("pair modes solved on different fibers",
                              key="pair.modes")
        if self.unit_a.wavelength_nm != self.unit_b.wavelength_nm:
            raise ConfigError("pair modes solved at different wavelengths",
                              key="pair.modes")
        object.__setattr__(self, "sol_a", _compose_member(
            self.unit_a, self.tau * self.power_mw))
        object.__setattr__(self, "sol_b", _compose_member(
            self.unit_b, (1.0 - self.tau) * self.power_mw))

    @property
    def fiber(self):
        return self.unit_a.fiber

    @property
    def wavelength_nm(self):
        return self.unit_a.wavelength_nm

    @property
    def dbeta_per_nm(self):
        """Beat wavenumber beta_a - beta_b of the composed members, in 1/nm."""
        return self.sol_a.beta_per_nm - self.sol_b.beta_per_nm


def _compose_member(sol, member_power_mw):
    """Normalize one pair member and apply the hybrid composition convention.

    A quasi-linearly polarized hybrid mode is the equal-weight sum of its two
    counter-circulating constituents, and the convention here assigns the
    member power to each constituent, so the composed hybrid field enters the
    superposition with sqrt(2) times the single-field normalized amplitude
    and carries twice the member power. The circularly symmetric TE family
    has a single constituent and enters unscaled. The trap geometry
    (cancellation radius and depth scale of the two-mode minima) fixes this
    choice; equal-field normalization leaves a hybrid member too weak to
    cancel against a TE partner at the radii where the traps form.
    power_mw stays the nominal member share.
    """
    sol = modes.normalize_power(sol, member_power_mw)
    if sol.mode.family in ("HE", "EH"):
        sol = replace(sol, amplitude=sol.amplitude * np.sqrt(2.0))
    return sol


def make_pair(fiber, wavelength_nm, name_a, name_b, power_mw, tau, delta=0.0,
              orientation_a=0.0, orientation_b=0.0):
    """Solve and pair two modes in one step (see ModePair)."""
    return ModePair(
        unit_a=modes.solve_mode(fiber, wavelength_nm, modes.parse_mode_name(
            name_a, float(orientation_a))),
        unit_b=modes.solve_mode(fiber, wavelength_nm, modes.parse_mode_name(
            name_b, float(orientation_b))),
        tau=float(tau), power_mw=float(power_mw), delta=float(delta))


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


def beat_terms(pair, r_nm, phi):
    """The z-independent terms (S, X) of the two-mode beat at (r, phi).

    Each mode is E_perp(r, phi) e^{-i beta z}, so with dbeta = beta_a -
    beta_b, S = |E_a,perp|^2 + |E_b,perp|^2 and X = e^{i delta} E_a,perp .
    conj(E_b,perp), the intensity is exactly

        mean_intensity = (c eps0 / 2) [S + 2 Re(X e^{-i dbeta z})],

    one harmonic in z. S is real, X complex; both broadcast over r and phi.
    They are summed over the three cylindrical components of
    modes.transverse_fields, never stacked, so open axes r[:, None],
    phi[None, :] off the core cost one Bessel evaluation per r and one
    cos/sin per phi.
    """
    ea = modes.transverse_fields(pair.sol_a, r_nm, phi)
    eb = modes.transverse_fields(pair.sol_b, r_nm, phi)
    s0, s1, s2 = (np.abs(a) ** 2 + np.abs(b) ** 2 for a, b in zip(ea, eb))
    x0, x1, x2 = (a * np.conj(b) for a, b in zip(ea, eb))
    return s0 + s1 + s2, np.exp(1j * pair.delta) * (x0 + x1 + x2)


def beat_length(pair):
    """Beat length z0 = 2 pi / |beta_a - beta_b| in nm."""
    dbeta = pair.dbeta_per_nm
    if dbeta == 0.0:
        raise ValueError("degenerate propagation constants: no stationary beat")
    return 2.0 * np.pi / abs(dbeta)
