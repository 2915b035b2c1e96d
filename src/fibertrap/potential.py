"""Trapping potential for a ground-state atom in a two-mode evanescent field.

The light shift of a blue-detuned field is repulsive and proportional to the
local intensity; close to the surface the van der Waals attraction of the
dielectric takes over and pulls the potential to minus infinity. Both pieces
and the local photon-scattering rate are evaluated here.

Potentials are returned in joules; reports and grids convert to millikelvin
through k_B (see as_millikelvin). The light-shift model is a weighted
two-line rotating-wave form

    U = sum_i w_i (3 pi c^2 / 2 omega_i^3) (Gamma_i / Delta_i) I,
    Gamma_sc = sum_i w_i (3 pi c^2 / 2 hbar omega_i^3) (Gamma_i / Delta_i)^2 I,

with Delta_i = omega_laser - omega_i > 0 enforced for every line.
"""

from dataclasses import dataclass, field

import numpy as np

from . import modes, superposition
from .constants import atomic_mass as _AMU
from .constants import c as _C0
from .constants import epsilon_0 as _EPS0
from .constants import h as _H
from .constants import hbar as _HBAR
from .constants import k as _KB
from .errors import ConfigError

_CS_MASS_KG = 132.90545196 * _AMU
# Two strongest cesium lines; weights are the 2J'+1 degeneracy shares.
_CS_LINES = ((852.347, 2.0 * np.pi * 5.22e6, 2.0 / 3.0),
             (894.593, 2.0 * np.pi * 4.57e6, 1.0 / 3.0))
# Surface coefficient for ground-state cesium near fused silica, frozen after
# checking it reproduces the reference trap geometry.
_CS_C3 = 5.6e-49


def as_millikelvin(energy_j):
    """Convert an energy in joules to millikelvin via k_B."""
    return np.asarray(energy_j) / _KB * 1e3


@dataclass(frozen=True)
class SpectralLine:
    """One atomic transition: vacuum wavelength, linewidth, weight."""

    wavelength_nm: float
    gamma: float
    weight: float

    def __post_init__(self):
        if self.wavelength_nm <= 0.0 or self.gamma <= 0.0 or self.weight <= 0.0:
            raise ValueError("line parameters must be positive")

    @property
    def omega(self):
        return 2.0 * np.pi * _C0 / (self.wavelength_nm * 1e-9)


@dataclass(frozen=True)
class AtomSpec:
    """Atomic mass, transition lines, and surface interaction coefficient."""

    mass_kg: float
    lines: tuple
    c3: float

    def __post_init__(self):
        if self.mass_kg <= 0.0:
            raise ValueError("mass must be positive")
        if not self.lines:
            raise ValueError("need at least one transition line")
        if self.c3 < 0.0:
            raise ValueError("c3 must be non-negative")
        total = sum(line.weight for line in self.lines)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"line weights sum to {total}, expected 1")

    def recoil_energy(self, wavelength_nm):
        """Single-photon recoil energy h^2 / (2 m lambda^2) in joules."""
        lam = wavelength_nm * 1e-9
        return _H ** 2 / (2.0 * self.mass_kg * lam ** 2)


def cesium(c3=_CS_C3):
    """Ground-state cesium with the D2/D1 two-line model."""
    lines = tuple(SpectralLine(*row) for row in _CS_LINES)
    return AtomSpec(mass_kg=_CS_MASS_KG, lines=lines, c3=c3)


def _coefficients(atom, wavelength_nm):
    """Light shift J/(W/m^2) and scattering rate (1/s)/(W/m^2) per intensity.

    Raises ConfigError when the laser is red-detuned against any line.
    """
    omega = 2.0 * np.pi * _C0 / (wavelength_nm * 1e-9)
    shift = scatter = 0.0
    for line in atom.lines:
        delta = omega - line.omega
        if delta <= 0.0:
            raise ConfigError(
                f"wavelength {wavelength_nm} nm is red-detuned against the "
                f"{line.wavelength_nm} nm line", key="light.wavelength_nm")
        shift += (line.weight * 3.0 * np.pi * _C0 ** 2
                  / (2.0 * line.omega ** 3) * line.gamma / delta)
        scatter += (line.weight * 3.0 * np.pi * _C0 ** 2
                    / (2.0 * _HBAR * line.omega ** 3) * (line.gamma / delta) ** 2)
    return shift, scatter


def vdw_potential(r_nm, fiber, atom):
    """Surface attraction -C3/(r-a)^3 in joules, defined for r > a only."""
    r = np.asarray(r_nm, dtype=float)
    if np.any(r <= fiber.radius_nm):
        raise ValueError("van der Waals potential requires r > fiber radius")
    gap_m = (r - fiber.radius_nm) * 1e-9
    # products, not ** 3: numpy's array and scalar pow can differ by an ulp,
    # and batched and per-point potentials must agree bit for bit
    return -atom.c3 / (gap_m * gap_m * gap_m)


@dataclass(frozen=True)
class PotentialField:
    """Total potential landscape of one trap configuration.

    Bundles the interfering mode pair with the atom; evaluable anywhere
    outside the fiber, diverging to minus infinity at the surface. The light
    shift and scattering rate per unit intensity are fixed by the atom and
    the wavelength, so they are computed once here, which also rejects a
    red detuning before the first evaluation.
    """

    pair: superposition.ModePair
    atom: AtomSpec
    shift_coeff: float = field(init=False, repr=False, compare=False)
    scatter_coeff: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shift, scatter = _coefficients(self.atom, self.pair.wavelength_nm)
        object.__setattr__(self, "shift_coeff", shift)
        object.__setattr__(self, "scatter_coeff", scatter)

    @property
    def fiber(self):
        return self.pair.fiber


def intensity(field_, r_nm, phi, z_nm):
    """Time-averaged two-mode intensity at a point, W/m^2."""
    return superposition.mean_intensity(field_.pair, r_nm, phi, z_nm)


def total_potential(field_, r_nm, phi, z_nm):
    """Light shift plus van der Waals energy in joules, for r > a."""
    light = field_.shift_coeff * intensity(field_, r_nm, phi, z_nm)
    return light + vdw_potential(r_nm, field_.fiber, field_.atom)


def local_scattering_rate(field_, r_nm, phi, z_nm):
    """Photon scattering rate (photons/s) at a point."""
    return field_.scatter_coeff * intensity(field_, r_nm, phi, z_nm)


def potential_derivatives(field_, r_nm, phi, z_nm):
    """Analytic gradient and Hessian of the total potential outside the core.

    Returns (gradient, hessian) in the local (r-hat, arc, z-hat) frame, the
    arc taken at the point's own r: trailing axis (d/dr, (1/r) d/dphi, d/dz)
    in J/nm, and trailing axes (3, 3) in J/nm^2 with 1/r per arc index. At a
    stationary point this is the Hessian in Cartesian displacements.
    """
    pair = field_.pair
    ja = modes.e_field_exterior_jacobian(pair.sol_a, r_nm, phi, z_nm)
    jb = modes.e_field_exterior_jacobian(pair.sol_b, r_nm, phi, z_nm)
    phase = np.exp(1j * pair.delta)
    e, de, d2e = (phase * a + b for a, b in zip(ja, jb))

    # I = (c eps0 / 2) sum |E_k|^2, so dI = c eps0 Re[conj(E_k) dE_k] and
    # d2I = c eps0 Re[conj(dE_k) dE_k + conj(E_k) d2E_k]
    scale = _C0 * _EPS0
    ce = np.conj(e)[..., np.newaxis, :]
    di = scale * np.sum(np.real(ce * de), axis=-1)
    d2i = scale * np.sum(np.real(
        np.conj(de)[..., :, np.newaxis, :] * de[..., np.newaxis, :, :]
        + ce[..., np.newaxis, :, :] * d2e), axis=-1)

    r = np.asarray(r_nm, dtype=float)
    metric = np.stack(np.broadcast_arrays(1.0, r, 1.0), axis=-1)
    coeff = field_.shift_coeff
    grad = coeff * (di / metric)
    hess = coeff * (d2i / (metric[..., :, np.newaxis]
                           * metric[..., np.newaxis, :]))
    # van der Waals -C3/gap^3 depends on r alone
    gap_m = (r - field_.fiber.radius_nm) * 1e-9
    grad[..., 0] += 3.0 * field_.atom.c3 / gap_m ** 4 * 1e-9
    hess[..., 0, 0] -= 12.0 * field_.atom.c3 / gap_m ** 5 * 1e-18
    return grad, hess
