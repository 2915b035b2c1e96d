"""Run configuration: flat key=value files and the built-in trap presets.

The config format is a flat list of dotted keys, one assignment per line:

    # full-line comments and blank lines are ignored
    light.wavelength_nm = 850.5
    pair.tau = 0.72

Keys are typed against one table (_KEYS); unknown or duplicate keys,
malformed values and non-finite floats (nan, inf, 1e999) are rejected with
the offending line number. Every key has a default, so a config file only
states what it overrides; the defaults are exactly the he11-te01 preset. All
lengths are in nm, angles in rad; a grid half-width, plane offset or seed
radius above MAX_EXTENT_NM (1 cm) is rejected, since every evanescent field
is 0 there, and so are a power above MAX_POWER_MW and a C3 above MAX_C3,
where the potential would overflow, and a grid.resolution above
MAX_RESOLUTION, whose plane would not fit in memory.
"""

import math
from dataclasses import dataclass

from . import modes, numerics, potential, superposition, trapanalysis
from .errors import ConfigError

_QUANTITIES = ("potential", "intensity", "field")
_PLANE_AXES = ("x", "y", "z", "d")
# Largest grid.halfwidth_nm, |plane offset| and seed.r_hi_nm (nm), 1 cm:
# the slowest evanescent tail (1/e length about 420 nm) underflows to 0 by
# about 0.3 mm, and the van der Waals d^-3 stays finite out here.
MAX_EXTENT_NM = 1e7
# Largest light.power_mw (1 kW) and atom.c3 (J m^3), far above any fiber
# trap, yet low enough that the squared fields and the van der Waals
# C3 / d^3 of every command stay finite.
MAX_POWER_MW = 1e6
MAX_C3 = 1e-40
# Largest grid.resolution (samples per axis): a plane's three coordinate
# arrays then take 3 x 4001^2 x 8 B = 384 MB, and a dispersion sweep makes
# 4001 mode censuses. Far larger values would be allocated (or looped over)
# before any error, until memory or time runs out.
MAX_RESOLUTION = 4001

# One row per key: (key, type, default, RunConfig attribute path). Row order
# is the save order. An int in a path indexes a (lo, hi) bound pair.
_KEYS = (
    ("fiber.radius_nm", float, 400.0, ("fiber", "radius_nm")),
    ("fiber.n_core", float, 1.452, ("fiber", "n_core")),
    ("fiber.n_clad", float, 1.0, ("fiber", "n_clad")),
    ("light.wavelength_nm", float, 850.5, ("light", "wavelength_nm")),
    ("light.power_mw", float, 50.0, ("light", "power_mw")),
    ("pair.mode_a", str, "HE11", ("mode_a",)),
    ("pair.mode_b", str, "TE01", ("mode_b",)),
    ("pair.tau", float, 0.72, ("tau",)),
    ("pair.orientation_a_rad", float, 0.0, ("orientation_a",)),
    ("pair.orientation_b_rad", float, 0.0, ("orientation_b",)),
    ("pair.delta_rad", float, 0.0, ("delta",)),
    ("atom.c3", float, 5.6e-49, ("c3",)),
    ("atom.t_init_uk", float, 100.0, ("t_init_uk",)),
    ("grid.plane", str, "z=trap", ("plane",)),
    ("grid.resolution", int, 201, ("resolution",)),
    ("grid.quantity", str, "potential", ("quantity",)),
    ("grid.halfwidth_nm", float, 1000.0, ("halfwidth_nm",)),
    ("dispersion.v_lo", float, 0.05, ("v_lo",)),
    ("dispersion.v_hi", float, 5.0, ("v_hi",)),
    ("seed.r_lo_nm", float, 430.0, ("seed", "r_nm", 0)),
    ("seed.r_hi_nm", float, 880.0, ("seed", "r_nm", 1)),
    ("seed.phi_lo_rad", float, math.pi / 2.0 - 0.6, ("seed", "phi", 0)),
    ("seed.phi_hi_rad", float, math.pi / 2.0 + 0.6, ("seed", "phi", 1)),
)
_TYPES = {key: kind for key, kind, _, _ in _KEYS}
_DEFAULTS = {key: default for key, _, default, _ in _KEYS}

# RunConfig attributes assembled from several keys; a ValueError raised by
# their constructor is reported under the attribute's name.
_PARTS = {"fiber": modes.FiberSpec, "light": modes.LightSpec,
          "seed": trapanalysis.SeedRegion}

# The three built-in trap configurations. Each entry only lists where it
# departs from the defaults; the seed windows span +-0.6 rad around the trap
# azimuth, wide enough to catch the minimum at any split the tau sweep
# visits yet narrow enough to hold exactly one trap.
_PRESETS = {
    "he11-te01": {},
    "he11-he21": {
        "light.wavelength_nm": 849.0,
        "light.power_mw": 25.0,
        "pair.mode_b": "HE21",
        "pair.tau": 0.84,
        "seed.phi_lo_rad": -0.6,
        "seed.phi_hi_rad": 0.6,
    },
    "te01-he21": {
        "light.wavelength_nm": 851.0,
        "light.power_mw": 30.0,
        "pair.mode_a": "TE01",
        "pair.mode_b": "HE21",
        "pair.tau": 0.68,
        "seed.phi_lo_rad": 3.0 * math.pi / 4.0 - 0.6,
        "seed.phi_hi_rad": 3.0 * math.pi / 4.0 + 0.6,
    },
}

PRESET_NAMES = tuple(_PRESETS)


def parse_plane(token):
    """Parse a plane token like "z=1000", "z=trap", "x=0" or "d=0".

    The axis names the coordinate held fixed, except d: "d=<u_nm>" is the
    plane spanned by z and the diagonal d = (y - x)/sqrt(2), displaced by
    u_nm along the orthogonal diagonal u = (x + y)/sqrt(2). Returns
    (axis, value) where value is a finite float in nm, or the string "trap" for
    the z-plane through the trap minimum.
    """
    parts = str(token).split("=")
    if len(parts) != 2:
        raise ConfigError(f"plane {token!r} is not of the form axis=value",
                          key="grid.plane")
    axis, value = parts[0].strip().lower(), parts[1].strip()
    if axis not in _PLANE_AXES:
        raise ConfigError(f"unknown plane axis {axis!r}, expected one of "
                          f"{', '.join(_PLANE_AXES)}", key="grid.plane")
    if axis == "z" and value.lower() == "trap":
        return "z", "trap"
    try:
        offset = float(value)
    except ValueError as exc:
        raise ConfigError(f"plane offset {value!r} is not a number",
                          key="grid.plane") from exc
    if not math.isfinite(offset):
        raise ConfigError(f"plane offset {value!r} is not finite",
                          key="grid.plane")
    if abs(offset) > MAX_EXTENT_NM:
        raise ConfigError(f"plane offset {value!r} exceeds "
                          f"{MAX_EXTENT_NM:g} nm", key="grid.plane")
    return axis, offset


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one run: fiber, light, pair, atom, grid, seed.

    preset("he11-te01") and parse_config("") give the default configuration.
    """

    fiber: modes.FiberSpec
    light: modes.LightSpec
    mode_a: str
    mode_b: str
    tau: float
    orientation_a: float
    orientation_b: float
    delta: float
    c3: float
    t_init_uk: float
    plane: str
    resolution: int
    quantity: str
    halfwidth_nm: float
    v_lo: float
    v_hi: float
    seed: trapanalysis.SeedRegion

    def __post_init__(self):
        for attr, key in (("mode_a", "pair.mode_a"), ("mode_b", "pair.mode_b")):
            try:
                mode = modes.parse_mode_name(getattr(self, attr))
            except ValueError as exc:
                raise ConfigError(str(exc), key=key) from exc
            superposition.check_member(mode, key=key)
        superposition.check_split(self.tau)
        if self.light.power_mw > MAX_POWER_MW:
            raise ConfigError(f"light.power_mw = {self.light.power_mw} "
                              f"exceeds {MAX_POWER_MW:g} mW",
                              key="light.power_mw")
        if self.c3 < 0.0:
            raise ConfigError("atom.c3 must be non-negative", key="atom.c3")
        if self.c3 > MAX_C3:
            raise ConfigError(f"atom.c3 = {self.c3} exceeds {MAX_C3:g} J m^3",
                              key="atom.c3")
        try:
            thermal_state(self)
        except ValueError as err:
            raise ConfigError(f"atom.t_init_uk = {self.t_init_uk!r}: {err}",
                              key="atom.t_init_uk") from None
        parse_plane(self.plane)
        if self.resolution < 2:
            raise ConfigError("grid.resolution must be at least 2 per axis",
                              key="grid.resolution")
        if self.resolution > MAX_RESOLUTION:
            raise ConfigError(f"grid.resolution = {self.resolution} exceeds "
                              f"{MAX_RESOLUTION} per axis",
                              key="grid.resolution")
        if self.quantity not in _QUANTITIES:
            raise ConfigError(
                f"unknown grid quantity {self.quantity!r}, expected one of "
                f"{', '.join(_QUANTITIES)}", key="grid.quantity")
        if self.halfwidth_nm <= 0.0:
            raise ConfigError("grid.halfwidth_nm must be positive",
                              key="grid.halfwidth_nm")
        if self.halfwidth_nm > MAX_EXTENT_NM:
            raise ConfigError(f"grid.halfwidth_nm = {self.halfwidth_nm} "
                              f"exceeds {MAX_EXTENT_NM:g} nm",
                              key="grid.halfwidth_nm")
        # seed.r_lo_nm lies below seed.r_hi_nm (SeedRegion), so this
        # bounds both
        if self.seed.r_nm[1] > MAX_EXTENT_NM:
            raise ConfigError(f"seed.r_hi_nm = {self.seed.r_nm[1]} exceeds "
                              f"{MAX_EXTENT_NM:g} nm", key="seed.r_hi_nm")
        if not 0.0 < self.v_lo <= self.v_hi:
            raise ConfigError("dispersion range must satisfy 0 < v_lo <= v_hi",
                              key="dispersion.v_lo")
        # the mode solver's core arguments stay below V, and the Bessel J
        # series covers |x| <= J_MAX_ARG
        v_max = numerics.J_MAX_ARG
        if self.v_hi > v_max:
            raise ConfigError(f"dispersion.v_hi = {self.v_hi} exceeds "
                              f"V = {v_max}, the mode solver's range",
                              key="dispersion.v_hi")
        try:
            v = modes.v_parameter(self.fiber, self.light.wavelength_nm)
        except OverflowError:
            # n_core ** 2 overflows above n_core = 1.3e154: V is beyond range
            v = math.inf
        if v > v_max:
            raise ConfigError(f"the fiber's V = {v:.4g} at this wavelength "
                              f"exceeds {v_max}, the mode solver's range",
                              key="fiber")


def _build(values):
    """Assemble a RunConfig from a complete key -> value mapping."""
    attrs = {}
    for key, _, _, path in _KEYS:
        *outer, last = path
        slot = attrs
        for name in outer:
            slot = slot.setdefault(name, {})
        slot[last] = values[key]
    for name, cls in _PARTS.items():
        args = {k: (v[0], v[1]) if isinstance(v, dict) else v
                for k, v in attrs[name].items()}
        try:
            attrs[name] = cls(**args)
        except ValueError as exc:
            raise ConfigError(str(exc), key=name) from exc
    return RunConfig(**attrs)


def preset(name):
    """One of the built-in trap configurations, by name."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}, expected one of "
                          f"{', '.join(PRESET_NAMES)}", key="preset")
    return _build({**_DEFAULTS, **_PRESETS[name]})


def _parse_value(kind, text, lineno, key):
    try:
        value = kind(text)
    except ValueError as exc:
        raise ConfigError(f"value {text!r} for {key} is not a valid "
                          f"{kind.__name__}", line=lineno, key=key) from exc
    # float() also reads nan, inf and overflowing literals such as 1e999
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"value {text!r} for {key} is not finite",
                          line=lineno, key=key)
    return value


def parse_config(text):
    """Parse config text into a RunConfig; see the module docstring for grammar."""
    values = dict(_DEFAULTS)
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"expected key = value, got {raw.strip()!r}",
                              line=lineno, key=key or None)
        if key not in _TYPES:
            raise ConfigError(f"unknown key {key!r}", line=lineno, key=key)
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}", line=lineno, key=key)
        if not value:
            raise ConfigError(f"empty value for {key!r}", line=lineno, key=key)
        seen.add(key)
        values[key] = _parse_value(_TYPES[key], value, lineno, key)
    return _build(values)


def load_config(path):
    """Load and validate a config file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def as_values(cfg):
    """Flatten a RunConfig back into the key -> value mapping, in save order."""
    values = {}
    for key, _, _, path in _KEYS:
        value = cfg
        for step in path:
            value = value[step] if isinstance(step, int) else getattr(value, step)
        values[key] = value
    return values


def format_config(cfg):
    """Render a RunConfig as config text that parses back to an equal config.

    Float keys are written as repr(float(value)), which round-trips
    exactly, numpy scalars included.
    """
    lines = ["# fibertrap run configuration"]
    section = None
    for key, value in as_values(cfg).items():
        head = key.split(".", 1)[0]
        if head != section:
            lines.append("")
            section = head
        if _TYPES[key] is float:
            value = repr(float(value))
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def save_config(cfg, path):
    """Write a RunConfig to a file; load_config(path) returns an equal config."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_config(cfg))


def make_pair(cfg):
    """Solve and compose the configured mode pair."""
    return superposition.make_pair(
        cfg.fiber, cfg.light.wavelength_nm, cfg.mode_a, cfg.mode_b,
        cfg.light.power_mw, cfg.tau, delta=cfg.delta,
        orientation_a=cfg.orientation_a, orientation_b=cfg.orientation_b)


def make_field(cfg):
    """Total potential field of the configured trap."""
    return potential.PotentialField(pair=make_pair(cfg),
                                    atom=potential.cesium(c3=cfg.c3))


def thermal_state(cfg):
    """ThermalState at the configured reference temperature."""
    return trapanalysis.ThermalState(t_init_uk=cfg.t_init_uk)
