"""Locate and characterize the interference microtraps of a two-mode field.

The trap minimum is found by a coarse grid scan over a seed region (keeping
only radial interior local minima, so the attractive surface run never wins)
and a Newton polish from the best seed cell with the analytic gradient and
Hessian, both from one evaluation of the exterior field kernel. The scan is
61 x 25 transverse points (r, phi) times 49 phases in z, on open axes, so
the field kernel computes each transverse profile once. Every Newton
iterate must have a local Hessian with three positive eigenvalues, so each
step is a descent step and the polished point is a minimum; the first
iterate without them ends the search as a saddle. Around the minimum the
potential is characterized by its analytic Hessian in the local orthonormal
frame (r-hat, arc length, z-hat), by 1-D turning points at the reference
thermal energy, and by the first-order escape saddle: its height is the
trap depth, its direction the escape direction l. Heating is modeled as two
recoil energies per scattered photon at the orbit-averaged scattering rate.

The saddle is polished from the exit ray of a spherical fan of straight
rays, searched by bound and prune. The maximum of the potential over every
s-th sample of a ray is a lower bound on that ray's barrier; a ladder of
nested strides s = 50, 10, 2 tightens the bounds of the rays still in play,
each level adding samples to the last. At each level the ray with the
lowest bound is marched in full and every ray whose bound lies above the
lowest barrier found is dropped; the survivors of the last level are
marched in increasing order of bound until every unmarched bound lies above
the lowest barrier; the exit ray is that of marching every ray, bit for
bit. A Newton polish from its highest sample, gated on the curvature signs
(-, +, +), converges to the saddle, whose barrier the ray's bounds from
above. The tau sensitivity rows polish the perturbed splits from the tau0
minimum, tens of nm away, and scan the seed box only where that fails.
Their saddles continue the same way from the tau0 saddle, without a fan:
the continued saddle is taken when _newton certifies it, with the signs
(-, +, +) at every iterate, and its barrier is positive and at most that
of the tau0 exit ray marched from the new minimum (one ray, 500 samples).
Where either fails the fan runs as for tau0, so every error is the fan's.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numerics, potential, superposition
from .constants import k as _KB
from .errors import NoTrapError, SaddleError

# Coarse seed-grid resolution per axis.
_GRID_R = 61
_GRID_PHI = 25
_GRID_Z = 49
# Escape fan: full-sphere resolution, ray length and sample step.
_FAN_COARSE_DEG = 3.0
_FAN_REACH_NM = 2000.0
_FAN_STEP_NM = 4.0
# Straight rays that get this close to the surface are surface channels, not
# escape paths.
_SURFACE_PAD_NM = 0.5
# Bound and prune: every s-th sample of a ray bounds its barrier from below,
# at nested strides s (each divides the one before, so a level's samples
# include the last level's); survivors are marched in full _MARCH_BATCH at a
# time.
_BOUND_LADDER = (50, 10, 2)
_MARCH_BATCH = 4
# Newton polish: positional tolerance and step cap.
_POSITION_TOL_NM = 0.1
_NEWTON_STEP_CAP_NM = 5.0
# Orbit ensemble: sample count and generator seed.
_ORBIT_SAMPLES = 4096
_ORBIT_SEED = 20260822


@dataclass(frozen=True)
class ThermalState:
    """Reference atomic energy: initial kinetic energy k_B * T_init."""

    t_init_uk: float

    def __post_init__(self):
        if self.t_init_uk <= 0.0:
            raise ValueError("T_init must be positive")

    @property
    def e_init(self):
        return _KB * self.t_init_uk * 1e-6


@dataclass(frozen=True)
class SeedRegion:
    """Search box (r in nm, phi in rad, z in nm) holding exactly one minimum."""

    r_nm: tuple
    phi: tuple
    z_nm: tuple

    def __post_init__(self):
        for lo, hi in (self.r_nm, self.phi, self.z_nm):
            if not hi > lo:
                raise ValueError("seed region bounds must satisfy lo < hi")


def find_minimum(field_, seed, start=None):
    """Locate the potential minimum inside the seed region.

    The best interior cell of a coarse seed scan starts _newton with no
    negative curvature: a Newton step descends only where the Hessian is
    positive definite, so the first iterate without three positive
    curvatures ends the search as a saddle. Returns (r_nm, phi, z_nm).
    Raises NoTrapError when the region holds no interior minimum (all
    candidate columns run monotonically into the surface or out of the
    evanescent field), when _newton does, and outside the seed region.
    start, when given, is a point (r_nm, phi, z_nm) near the minimum, such
    as the minimum of a nearby power split: the polish starts there and the
    seed scan runs only if that polish raises NoTrapError.
    The seed scan is 61 x 25 transverse points (r, phi) times 49 phases in
    z, on open axes: the field kernel evaluates each transverse profile
    once and multiplies it by the 49 phases e^{-i beta z}.
    """
    def polish(point):
        m = _newton(field_, point, 0)
        box = ((_r_floor(field_, seed), seed.r_nm[1]), seed.phi, seed.z_nm)
        for ax, x, (lo, hi) in zip(("radially", "in phi", "in z"), m, box):
            if not lo <= x <= hi:
                raise NoTrapError("refined minimum left the seed region " + ax)
        return m

    if start is not None:
        try:
            return polish(start)
        except NoTrapError:
            pass
    rr = np.linspace(_r_floor(field_, seed), seed.r_nm[1], _GRID_R)
    pp = np.linspace(seed.phi[0], seed.phi[1], _GRID_PHI)
    zz = np.linspace(seed.z_nm[0], seed.z_nm[1], _GRID_Z)
    u = potential.total_potential(field_, rr[:, None, None], pp[None, :, None],
                                  zz[None, None, :])
    # keep only radial interior local minima so the monotone van der Waals
    # descent toward the surface can never seed the search
    interior = (u[1:-1] < u[:-2]) & (u[1:-1] <= u[2:])
    masked = np.where(interior, u[1:-1], np.inf)
    if not np.isfinite(masked).any():
        raise NoTrapError("no interior potential minimum in the seed region")
    i, j, k = np.unravel_index(np.argmin(masked), masked.shape)
    return polish((float(rr[i + 1]), float(pp[j]), float(zz[k])))


def _r_floor(field_, seed):
    """Inner radial edge of the search: the seed box, at least 2 nm out."""
    return max(seed.r_nm[0], field_.fiber.radius_nm + 2.0)


def _newton(field_, point, negatives):
    """Curvature-gated Newton polish from point (r_nm, phi, z_nm).

    Steps in the local (r-hat, arc, z-hat) frame with the analytic gradient
    and Hessian, one potential_derivatives call per iterate, capped at 5 nm.
    Every iterate's Hessian must be finite with `negatives` negative and
    the rest positive curvatures: 0 for a minimum, 1 for a first-order
    saddle (minimal-mode eigenvector following, Cerjan & Miller, J. Chem.
    Phys. 75, 2800, 1981). Returns the point within 0.02 nm of the last
    iterate; raises NoTrapError when an iterate fails that gate, a step
    enters the surface or 40 steps do not converge.
    """
    what = ("minimum", "saddle")[negatives]
    gate = ("minimum search met a saddle: the Hessian lacks three positive "
            "curvatures", "saddle search met a Hessian without the "
            "curvature signs (-, +, +)")[negatives]
    # eigvalsh sorts ascending, so the first `negatives` must be negative
    sign = np.where(np.arange(3) < negatives, -1.0, 1.0)
    a = field_.fiber.radius_nm
    r, p, z = point
    for _ in range(40):
        g, h = potential.potential_derivatives(field_, r, p, z)
        # eigvalsh can return finite values for a Hessian holding NaN
        if not (np.isfinite(h).all()
                and np.all(sign * np.linalg.eigvalsh(h) > 0.0)):
            raise NoTrapError(gate)
        step = np.linalg.solve(h, -g)
        n = float(np.linalg.norm(step))
        if n > _NEWTON_STEP_CAP_NM:
            step *= _NEWTON_STEP_CAP_NM / n
        r_new = r + float(step[0])
        if r_new <= a + 1.0:
            raise NoTrapError(f"{what} search ran into the fiber surface")
        r, p, z = r_new, p + float(step[1]) / r, z + float(step[2])
        if n < 0.2 * _POSITION_TOL_NM:
            return r, p, z
    raise NoTrapError(f"{what} search did not converge")


def trap_frequencies(field_, minimum, mass_kg):
    """Harmonic angular frequencies (omega_r, omega_phi, omega_z) in rad/s.

    Eigenvalues of the analytic local-frame Hessian (potential_derivatives)
    assigned to axes by the dominant eigenvector component; a non-finite
    Hessian entry or any non-positive eigenvalue raises SaddleError.
    """
    _, h = potential.potential_derivatives(field_, *minimum)
    if not np.isfinite(h).all():
        raise SaddleError(f"Hessian {h.tolist()} has non-finite entries")
    evals, evecs = np.linalg.eigh(h)
    if np.any(evals <= 0.0):
        raise SaddleError(
            f"Hessian eigenvalues {evals} are not all positive: "
            "the stationary point is a saddle")
    omega = np.empty(3)
    taken = set()
    for k in np.argsort(evals)[::-1]:
        order = np.argsort(np.abs(evecs[:, k]))[::-1]
        axis = next(int(ax) for ax in order if int(ax) not in taken)
        taken.add(axis)
        omega[axis] = math.sqrt(evals[k] * 1e18 / mass_kg)
    return tuple(float(w) for w in omega)


def _axis_1d(field_, minimum, axis):
    """1-D potential profile through the minimum along one local axis.

    Returns (profile(s), inward_limit, outward_limit) with s a signed
    displacement in nm along r-hat, the azimuthal arc, or z-hat.
    """
    r, p, z = minimum
    a = field_.fiber.radius_nm
    if axis == 0:
        return (lambda s: potential.total_potential(field_, r + s, p, z),
                a + 0.8 - r, 900.0)
    if axis == 1:
        return (lambda s: potential.total_potential(field_, r, p + s / r, z),
                -1.4 * r, 1.4 * r)
    return (lambda s: potential.total_potential(field_, r, p, z + s),
            -9000.0, 9000.0)


def _crossing(f1d, u0, target, lo_lim, hi_lim, sign):
    """First crossing of f1d(s) = target moving away from s = 0.

    u0 is f1d(0.0), the potential at the minimum, which the caller has.
    The march is geometric, steps of 1 nm growing by 1.25 out to the limit,
    so its samples are known in advance and f1d evaluates them as one
    batch; the first sample at or above target and the one before it
    (or s = 0) bracket the root.
    """
    if u0 - target >= 0.0:
        return None
    lim = abs(hi_lim if sign > 0 else lo_lim)
    s = []
    step = s_cur = 1.0 * sign
    while abs(s_cur) <= lim:
        s.append(s_cur)
        step *= 1.25
        s_cur += step
    above = np.flatnonzero(f1d(np.array(s)) - target >= 0.0)
    if above.size == 0:
        return None
    k = int(above[0])
    s_prev = s[k - 1] if k else 0.0
    return numerics.find_root(lambda x: f1d(x) - target,
                              min(s_prev, s[k]), max(s_prev, s[k]), tol=1e-9)


def turning_points(field_, minimum, energy_j):
    """Signed 1-D turning displacements at U_min + energy for each axis.

    Rows are (inward, outward) in nm along (r-hat, arc, z-hat); the radial
    pair is asymmetric because the inner light wall is much steeper than the
    evanescent tail outside.
    """
    u0 = potential.total_potential(field_, *minimum)
    target = u0 + energy_j
    out = np.empty((3, 2))
    for axis in range(3):
        f1d, lo, hi = _axis_1d(field_, minimum, axis)
        s_in = _crossing(f1d, u0, target, lo, hi, -1.0)
        s_out = _crossing(f1d, u0, target, lo, hi, +1.0)
        if s_in is None or s_out is None:
            raise NoTrapError(
                "thermal energy exceeds the trap barrier along axis "
                f"{('radial', 'azimuthal', 'axial')[axis]}")
        out[axis] = (s_in, s_out)
    return out


def harmonic_extents(omegas, state, mass_kg):
    """Harmonic-model widths 2*sqrt(2 k_B T / (m omega^2)) in nm."""
    return tuple(
        2.0 * math.sqrt(2.0 * state.e_init / (mass_kg * w * w)) * 1e9
        for w in omegas)


def _fib_sphere(n):
    k = np.arange(n) + 0.5
    theta = np.arccos(1.0 - 2.0 * k / n)
    golden = np.pi * (1.0 + 5.0 ** 0.5)
    return np.stack([np.sin(theta) * np.cos(golden * k),
                     np.sin(theta) * np.sin(golden * k),
                     np.cos(theta)], axis=-1)


def _frame(point):
    """Cartesian (r_nm, phi, z_nm) and the rows r-hat, phi-hat, z-hat there."""
    r, p, z = point
    return (np.array([r * np.cos(p), r * np.sin(p), z]),
            np.array([[np.cos(p), np.sin(p), 0.0],
                      [-np.sin(p), np.cos(p), 0.0],
                      [0.0, 0.0, 1.0]]))


def _march(field_, minimum, umin, d_local):
    """Index and height of the lowest barrier over a fan of straight rays.

    The rays leave the minimum along the local-frame unit vectors d_local,
    sampled every _FAN_STEP_NM out to _FAN_REACH_NM. A ray's barrier is its
    highest potential above umin, or infinite when the ray comes within the
    surface pad of the fiber (a surface channel, not an escape path). Bound
    and prune over a ladder of nested sample strides (_BOUND_LADDER): the
    maximum over every s-th sample of a ray, taken with no surface test,
    bounds its barrier from below, and each finer level adds samples to the
    bound of the rays still alive. At each level the unmarched ray with the
    lowest bound is marched in full to lower the best barrier found, and
    every ray whose bound lies above it is dropped. The survivors of the
    last level are marched in full in increasing order of bound,
    _MARCH_BATCH at a time, until no unmarched bound is at or below the
    best barrier. Every ray that ties the minimum is thus marched and every
    other ray lies above it, so the index (first of a tie) and the height
    are those of marching every ray. If every ray hits the surface, all are
    marched and the height is inf.
    """
    a = field_.fiber.radius_nm
    p0, frame = _frame(minimum)
    d_cart = d_local @ frame
    t = np.arange(1, int(_FAN_REACH_NM / _FAN_STEP_NM) + 1) * _FAN_STEP_NM
    step = np.arange(1, t.size + 1)

    def samples(rays, ts):
        pts = p0[None, None, :] + ts[None, :, None] * d_cart[rays, None, :]
        return pts, np.hypot(pts[..., 0], pts[..., 1])

    def peak(pts, rr):
        uu = potential.total_potential(
            field_, np.maximum(rr, a + 2.0 * _SURFACE_PAD_NM),
            np.arctan2(pts[..., 1], pts[..., 0]), pts[..., 2])
        return uu.max(axis=1) - umin

    # a ray's value is its exact barrier once marched, else its bound so
    # far; alive rays are neither marched nor dropped
    value = np.full(len(d_cart), -np.inf)
    alive = np.ones(len(d_cart), dtype=bool)

    def march(rays, stride):
        # the samples off the ladder level `stride` complete the bound
        pts, rr = samples(rays, t)
        free = ~(rr <= a + _SURFACE_PAD_NM).any(axis=1)
        rest = step % stride != 0
        value[rays[~free]] = np.inf
        value[rays[free]] = np.maximum(
            value[rays[free]], peak(pts[free][:, rest], rr[free][:, rest]))
        alive[rays] = False
        return float(value[rays].min())

    best = np.inf
    coarser = None
    for stride in _BOUND_LADDER:
        rays = np.flatnonzero(alive)
        if rays.size == 0:
            break
        new = step % stride == 0
        if coarser is not None:
            new &= step % coarser != 0
        value[rays] = np.maximum(value[rays], peak(*samples(rays, t[new])))
        best = min(best, march(rays[[np.argmin(value[rays])]], stride))
        alive &= value <= best
        coarser = stride
    order = np.flatnonzero(alive)
    order = order[np.argsort(value[order], kind="stable")]
    for start in range(0, order.size, _MARCH_BATCH):
        rays = order[start:start + _MARCH_BATCH]
        if value[rays[0]] > best:
            break
        best = min(best, march(rays, coarser))
    k = int(np.argmin(value))
    return k, float(value[k])


@dataclass(frozen=True)
class EscapeResult:
    depth_j: float
    direction: tuple
    saddle: tuple    # (r_nm, phi, z_nm) of the certified escape saddle
    exit_ray: tuple  # local-frame unit vector of the fan ray that found it


def escape_barrier(field_, minimum, start=None):
    """Trap depth as the barrier of the certified first-order escape saddle.

    A full-sphere fan of straight rays (_march) picks the exit ray; from its
    highest sample _newton with one negative curvature converges to the
    saddle. Returns an EscapeResult with the depth U(saddle) - U(min), the
    unit vector l from the minimum to the saddle in the local (r-hat,
    phi-hat, z-hat) frame at the minimum, the saddle and the exit ray.
    Raises NoTrapError when every ray runs into the surface, when _newton
    does, and unless the saddle's barrier is positive and at most the exit
    ray's, its bound.
    start, when given, is the EscapeResult of a nearby minimum, such as
    that of a nearby power split: _newton starts at its saddle, and the
    saddle it reaches is taken, with start's exit ray, when its barrier is
    positive and at most that of start's exit ray marched from this
    minimum. The fan runs only if _newton raises NoTrapError or that bound
    fails, so every error comes from the fan.
    """
    umin = potential.total_potential(field_, *minimum)
    if start is not None:
        try:
            saddle = _newton(field_, start.saddle, 1)
            _, ray_b = _march(field_, minimum, umin,
                              np.asarray(start.exit_ray)[None])
            return _certified(field_, minimum, umin, saddle, start.exit_ray,
                              ray_b)
        except NoTrapError:
            pass
    dirs = _fib_sphere(max(int(np.ceil(
        4.0 * np.pi / np.radians(_FAN_COARSE_DEG) ** 2)), 16))
    k, fan_b = _march(field_, minimum, umin, dirs)
    if not np.isfinite(fan_b):
        raise NoTrapError("every sampled direction runs into the surface")
    p0, frame = _frame(minimum)
    t = np.arange(1, int(_FAN_REACH_NM / _FAN_STEP_NM) + 1) * _FAN_STEP_NM
    x, y, z = (p0 + t[:, None] * (dirs[k] @ frame)).T
    r, p = np.hypot(x, y), np.arctan2(y, x)
    i = np.argmax(potential.total_potential(field_, r, p, z))
    saddle = _newton(field_, (float(r[i]), float(p[i]), float(z[i])), 1)
    return _certified(field_, minimum, umin, saddle,
                      tuple(float(c) for c in dirs[k]), fan_b)


def _certified(field_, minimum, umin, saddle, exit_ray, ray_b):
    """EscapeResult of a saddle whose barrier lies in (0, ray_b], ray_b finite.

    ray_b is the barrier of the exit ray marched from minimum; a saddle
    outside that bound raises NoTrapError.
    """
    depth = float(potential.total_potential(field_, *saddle) - umin)
    if not 0.0 < depth <= ray_b < np.inf:
        raise NoTrapError("saddle search found no positive barrier at or "
                          "below the exit ray's")
    p0, frame = _frame(minimum)
    d = frame @ (_frame(saddle)[0] - p0)
    return EscapeResult(depth_j=depth, saddle=saddle, exit_ray=exit_ray,
                        direction=tuple(float(c)
                                        for c in d / np.linalg.norm(d)))


def _inner_barrier(field_, minimum, umin, probe_e):
    """Height and width of the light wall between the minimum and the surface.

    The potential is sampled on the radial line from the surface pad out to
    the minimum. The height is its maximum above U_min; the width is the
    radial extent where it lies at or above U_min + probe_e, the thickness
    an atom of that energy would have to tunnel through.
    """
    r, p, z = minimum
    a = field_.fiber.radius_nm
    s = np.linspace(a + _SURFACE_PAD_NM, r, 2048)
    u = potential.total_potential(field_, s, p, z)
    k = int(np.argmax(u))
    height = float(u[k] - umin)
    level = umin + probe_e
    above = u >= level
    if not above.any() or height <= 0.0:
        return height, 0.0
    width = float((above.sum() - 1) * (s[1] - s[0])) if above.sum() > 1 else 0.0
    return height, width


def orbit_averaged_scattering(field_, minimum, extents):
    """Mean photon scattering rate over a classical oscillation ensemble.

    extents are the (3, 2) signed turning points at the reference energy
    E_init, which they carry. That energy is split uniformly over the three
    axes (flat Dirichlet over the energy simplex, covering all classical
    oscillation modes), each axis oscillates harmonically with the amplitude
    scaled from its turning points by sqrt(E_axis / E_init), and the
    oscillation phases are uniform. Amplitudes stay asymmetric per side, so
    the radial bias between the steep inner wall and the soft outer tail is
    kept. A fixed seed makes the rate deterministic.
    """
    r, p, z = minimum
    turns = np.asarray(extents, dtype=float)
    if turns.shape != (3, 2):
        raise ValueError("extents must be the (3, 2) signed turning points")
    rng = np.random.default_rng(_ORBIT_SEED)
    split = rng.dirichlet((1.0, 1.0, 1.0), size=_ORBIT_SAMPLES)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(_ORBIT_SAMPLES, 3))
    scale = np.sqrt(split)
    s = np.sin(phase)
    disp = np.where(s >= 0.0,
                    turns[None, :, 1] * scale * s,
                    -turns[None, :, 0] * scale * s)
    rates = potential.local_scattering_rate(
        field_, r + disp[:, 0], p + disp[:, 1] / r, z + disp[:, 2])
    return float(np.mean(rates))


def lifetime(depth_j, state, rate_per_s, e_rec_j):
    """Trapping lifetime: energy headroom over the recoil heating power.

    Two recoil energies per scattered photon (absorption plus emission).
    A non-positive scattering rate means no heating; the lifetime is then
    unbounded and reported as infinity.
    """
    headroom = depth_j - state.e_init
    if headroom <= 0.0:
        raise ValueError("initial energy exceeds the trap depth")
    if rate_per_s <= 0.0:
        return math.inf
    return headroom / (2.0 * e_rec_j * rate_per_s)


@dataclass(frozen=True)
class TrapReport:
    """Full characterization of one interference microtrap."""

    mode_a: str
    mode_b: str
    wavelength_nm: float
    power_mw: float
    tau: float
    sigma: float
    delta: float
    beat_length_nm: float
    minimum: tuple          # (r_nm, phi_rad, z_nm), z reported modulo z0
    u_min_mk: float
    depth_mk: float
    barrier_direction: tuple
    inner_barrier_mk: float
    inner_barrier_width_nm: float
    omega: tuple            # (omega_r, omega_phi, omega_z) rad/s
    extents_nm: tuple       # (radial, azimuthal arc, axial)
    harmonic_extents_nm: tuple
    scattering_rate: float  # photons/s
    lifetime_s: float       # math.inf when the scattering rate is <= 0
    t_ref_uk: float
    min_intensity_w_m2: float
    cancellation: float     # I_min / (I_a + I_b) at the minimum
    recoil_energy_j: float
    # (unfolded minimum, EscapeResult) the report was built from; not
    # serialized, tau_sensitivity(base=...) reuses it for the tau0 row
    base: tuple

    @property
    def frequencies_hz(self):
        return tuple(w / (2.0 * math.pi) for w in self.omega)

    def to_dict(self):
        life = None if math.isinf(self.lifetime_s) else self.lifetime_s
        return {
            "schema_version": 1,
            "modes": [self.mode_a, self.mode_b],
            "wavelength_nm": self.wavelength_nm,
            "power_mw": self.power_mw,
            "tau": self.tau,
            "sigma": self.sigma,
            "delta": self.delta,
            "beat_length_nm": self.beat_length_nm,
            "beat_length_um": self.beat_length_nm * 1e-3,
            "minimum": {"r_nm": self.minimum[0], "phi_rad": self.minimum[1],
                        "z_nm": self.minimum[2]},
            "u_min_mk": self.u_min_mk,
            "depth_mk": self.depth_mk,
            "barrier_direction": list(self.barrier_direction),
            "inner_barrier_mk": self.inner_barrier_mk,
            "inner_barrier_width_nm": self.inner_barrier_width_nm,
            "omega_rad_s": list(self.omega),
            "frequencies_khz": [f / 1e3 for f in self.frequencies_hz],
            "extents_nm": list(self.extents_nm),
            "harmonic_extents_nm": list(self.harmonic_extents_nm),
            "scattering_rate_per_s": self.scattering_rate,
            "lifetime_s": life,
            "lifetime_exceeds_cap": math.isinf(self.lifetime_s),
            "t_ref_uk": self.t_ref_uk,
            "min_intensity_w_m2": self.min_intensity_w_m2,
            "cancellation_ratio": self.cancellation,
            "recoil_energy_j": self.recoil_energy_j,
        }


def power_split_sigma(tau):
    """Assumed experimental precision of the power split: 0.05 sqrt(tau(1-tau))."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    return 0.05 * math.sqrt(tau * (1.0 - tau))


def characterize_trap(field_, seed, state):
    """Full trap characterization; the one-stop entry behind the CLI report."""
    pair = field_.pair
    r, p, z = find_minimum(field_, seed)
    umin = potential.total_potential(field_, r, p, z)
    esc = escape_barrier(field_, (r, p, z))
    if state.e_init >= esc.depth_j:
        raise NoTrapError("reference thermal energy exceeds the trap depth")
    omega = trap_frequencies(field_, (r, p, z), field_.atom.mass_kg)
    turns = turning_points(field_, (r, p, z), state.e_init)
    exts = tuple(float(t_out - t_in) for t_in, t_out in turns)
    rate = orbit_averaged_scattering(field_, (r, p, z), turns)
    e_rec = field_.atom.recoil_energy(pair.wavelength_nm)
    life = lifetime(esc.depth_j, state, rate, e_rec)
    inner_h, inner_w = _inner_barrier(field_, (r, p, z), umin,
                                      probe_e=state.e_init)
    z0 = superposition.beat_length(pair)
    z_fold = z % z0
    if z0 - z_fold < 1e-6 * z0:
        z_fold = 0.0
    i_min = float(potential.intensity(field_, r, p, z))
    i_a = float(potential.single_mode_intensity(pair.sol_a, r, p, z))
    i_b = float(potential.single_mode_intensity(pair.sol_b, r, p, z))
    return TrapReport(
        mode_a=pair.sol_a.name, mode_b=pair.sol_b.name,
        wavelength_nm=pair.wavelength_nm, power_mw=pair.power_mw,
        tau=pair.tau, sigma=power_split_sigma(pair.tau), delta=pair.delta,
        beat_length_nm=z0,
        minimum=(r, p, z_fold),
        u_min_mk=potential.as_millikelvin(umin),
        depth_mk=potential.as_millikelvin(esc.depth_j),
        barrier_direction=esc.direction,
        inner_barrier_mk=potential.as_millikelvin(inner_h),
        inner_barrier_width_nm=inner_w,
        omega=omega,
        extents_nm=exts,
        harmonic_extents_nm=harmonic_extents(omega, state,
                                             field_.atom.mass_kg),
        scattering_rate=rate,
        lifetime_s=life,
        t_ref_uk=state.t_init_uk,
        min_intensity_w_m2=i_min,
        cancellation=i_min / (i_a + i_b),
        recoil_energy_j=e_rec,
        base=((r, p, z), esc))


def tau_sensitivity(field_, seed, base=None):
    """Depth and position response to the power-split precision sigma.

    field_ is the PotentialField at the split tau0 = field_.pair.tau; the
    field at another split tau is the same field with its pair re-split,
    replace(field_, pair=replace(field_.pair, tau=tau)), so no mode is
    solved again. Rows cover tau0 - sigma, tau0, tau0 + sigma; a perturbed
    split where the trap vanishes, or that falls outside [0, 1] for tau0
    near 0 or 1, yields a flagged row instead of an error. Each distinct
    split is searched once, so at sigma = 0 (tau0 = 0 or 1) the three rows
    share one search.
    The tau0 row is settled first: base, when given, is the (unfolded
    minimum, EscapeResult) already found at tau0 (TrapReport.base) and is
    reused; otherwise tau0 is searched from the seed scan and the fan. The
    perturbed rows then start from the tau0 row: the minimum's Newton
    polish at the tau0 minimum, falling back to the seed scan where that
    polish fails (find_minimum's start), and the saddle's at the tau0
    saddle, falling back to the fan where the saddle it reaches is not
    certified (escape_barrier's start).
    """
    tau0 = field_.pair.tau
    sigma = power_split_sigma(tau0)

    def search(split, start):
        # (minimum, EscapeResult), or the error that flags the split's rows;
        # start is the tau0 pair, or None for a search from scratch
        m0, esc0 = start or (None, None)
        try:
            m = find_minimum(split, seed, start=m0)
            return m, escape_barrier(split, m, start=esc0)
        except NoTrapError as err:
            return err

    found = {tau0: search(field_, None) if base is None else base}
    start = None if isinstance(found[tau0], Exception) else found[tau0]
    rows = []
    for tau in (tau0 - sigma, tau0, tau0 + sigma):
        if not 0.0 <= tau <= 1.0:
            rows.append({"tau": tau, "trap": False,
                         "reason": f"power split tau = {tau} outside [0, 1]"})
            continue
        if tau not in found:
            found[tau] = search(
                replace(field_, pair=replace(field_.pair, tau=tau)), start)
        if isinstance(found[tau], Exception):
            rows.append({"tau": tau, "trap": False,
                         "reason": str(found[tau])})
            continue
        m, esc = found[tau]
        rows.append({"tau": tau, "trap": True,
                     "depth_mk": potential.as_millikelvin(esc.depth_j),
                     "minimum": {"r_nm": m[0], "phi_rad": m[1], "z_nm": m[2]}})
    if start is not None:
        base_mk = potential.as_millikelvin(found[tau0][1].depth_j)
        for row in rows:
            if row["trap"]:
                row["depth_change_pct"] = 100.0 * (
                    row["depth_mk"] / base_mk - 1.0)
    return {"tau0": tau0, "sigma": sigma, "rows": rows}
