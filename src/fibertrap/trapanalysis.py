"""Locate and characterize the interference microtraps of a two-mode field.

Each mode is E_perp(r, phi) e^{-i beta z}, so along z at fixed (r, phi) the
potential is one harmonic, kappa' [S + 2 |X| cos(theta - dbeta z)] +
U_vdW(r), with (S, X) = superposition.beat_terms, theta = arg X and
kappa' = kappa c eps0 / 2. Its lowest value over z is the valley floor
V(r, phi) = kappa' (S - 2 |X|) + U_vdW, reached at the dark phase
z* = (theta + pi) / dbeta modulo the beat length, so both searches run on
the 2-D floor and end in the same 3-D Newton polish.

The minimum is the best radial interior local minimum of V on a 61 x 25
(r, phi) scan of the seed window (the attractive surface run never wins),
polished from there at z* with the analytic gradient and Hessian, both from
one evaluation of the exterior field kernel. Every Newton iterate must have
a local Hessian with three positive eigenvalues, so each step is a descent
step and the polished point is a minimum; the first iterate without them
ends the search as a saddle. Around the minimum the potential is
characterized by its analytic Hessian in the local orthonormal frame
(r-hat, arc length, z-hat), by 1-D turning points at the reference thermal
energy (marched along r-hat and the arc; along z in closed form, where the
potential climbs from V by (W/2)(1 - cos(dbeta s)) to the beat ridge
W = 4 kappa' |X|), and by the first-order escape saddle: its height is the
trap depth, its direction the escape direction l. Heating is modeled as two
recoil energies per scattered photon at the orbit-averaged scattering rate,
the average over a thermal orbit ensemble taken by a deterministic
Gauss-Legendre product rule (orbit_averaged_scattering), not by sampling:
like the rest of the package, this module imports no scipy, numpy.random
or numpy.polynomial.

The escape saddle is found by a priority flood of V (Barnes, Lehman & Mulla,
Computers & Geosciences 62, 117, 2014) on a polar grid around the fiber:
cells are taken in increasing V from the minimum's cell until the flood
reaches the outer edge, 2000 nm beyond the minimum, or the inner edge at
the surface pad, whichever comes first. This solves the 2-D minimax-path
problem on the grid to both edges at once, so the depth is the lower of
the two exits, outward or toward the surface. The highest cell taken sets
the spill level; from it, at its z*, _newton with one negative curvature
converges to the saddle. The saddle is certified when every iterate has
the curvature signs (-, +, +) and its barrier is positive, with its height
within the flood's grid tolerance of the spill level. The beat ridge
V + 4 kappa' |X| must stand above the spill level on every cell flooded up
to the spill, so that no escape along z into the neighbouring trap of the
beat is lower.
"""

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

from . import numerics, potential, superposition
from .constants import c as _C0
from .constants import epsilon_0 as _EPS0
from .constants import k as _KB
from .errors import ConfigError, NoTrapError, SaddleError

# Coarse seed-grid resolution per axis.
_GRID_R = 61
_GRID_PHI = 25
# Escape flood: polar grid cells in r (geometric in r - a) and in phi, and
# how far beyond the minimum the flood must reach to escape.
_FLOOD_R = 100
_FLOOD_PHI = 180
_REACH_NM = 2000.0
# The flood grid begins this far from the surface: closer in lies the
# surface channel, not an escape path.
_SURFACE_PAD_NM = 0.5
# Newton polish: positional tolerance and step cap.
_POSITION_TOL_NM = 0.1
_NEWTON_STEP_CAP_NM = 5.0
# Orbit average: Gauss-Legendre nodes per angle of the product rule.
_ORBIT_NODES = 8


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
    """Search window (r in nm, phi in rad) holding exactly one minimum.

    The minimum is searched on the valley floor over r and phi, where z
    drops out; it is reported in the beat period of the dark phase nearest
    z = 0, so however far the launch phase slides the trap array along z,
    the minimum found lies within half a beat length of 0.
    """

    r_nm: tuple
    phi: tuple

    def __post_init__(self):
        for lo, hi in (self.r_nm, self.phi):
            if not hi > lo:
                raise ValueError("seed region bounds must satisfy lo < hi")


def find_minimum(field_, seed):
    """Locate the potential minimum inside the seed window.

    The best radial interior local minimum of the valley floor V on a 61 x
    25 (r, phi) scan of the seed window seeds _newton, at the image of its
    dark phase z* nearest z = 0, with no negative curvature: a Newton step
    descends only where the Hessian is positive definite, so the first
    iterate without three positive curvatures ends the search as a saddle.
    Returns (r_nm, phi, z_nm). Raises NoTrapError when the modes do not
    beat, when the window holds no interior minimum (every phi column of V
    runs monotonically into the surface or out of the evanescent field),
    when _newton does, when the polished minimum lies outside the window
    in r or phi, and when the window holds no radius 2 nm or more off the
    fiber surface (_scan_r_lo).
    """
    r_lo = _scan_r_lo(field_, seed)
    rr = np.linspace(r_lo, seed.r_nm[1], _GRID_R)
    pp = np.linspace(seed.phi[0], seed.phi[1], _GRID_PHI)
    v, _, zs = _valley(field_, rr[:, None], pp[None, :], 0.0)
    # keep only radial interior local minima so the monotone van der Waals
    # descent toward the surface can never seed the search
    interior = (v[1:-1] < v[:-2]) & (v[1:-1] <= v[2:])
    masked = np.where(interior, v[1:-1], np.inf)
    if not np.isfinite(masked).any():
        raise NoTrapError("no interior potential minimum in the seed region")
    i, j = np.unravel_index(np.argmin(masked), masked.shape)
    m = _newton(field_, (float(rr[i + 1]), float(pp[j]), float(zs[i + 1, j])),
                0)
    for ax, x, (lo, hi) in zip(("radially", "in phi"), m,
                               ((r_lo, seed.r_nm[1]), seed.phi)):
        if not lo <= x <= hi:
            raise NoTrapError("refined minimum left the seed region " + ax)
    return m


def _scan_r_lo(field_, seed):
    """Inner radius of the seed scan: the window's, kept 2 nm off the surface.

    Raises NoTrapError, naming the window, when no radius of the window
    lies beyond that.
    """
    a = field_.fiber.radius_nm
    r_lo = max(seed.r_nm[0], a + 2.0)
    if not r_lo < seed.r_nm[1]:
        raise NoTrapError(f"the seed window r = {seed.r_nm[0]:g} to "
                          f"{seed.r_nm[1]:g} nm has no radius 2 nm or more "
                          f"off the fiber surface at r = {a:g} nm",
                          split_dependent=False)
    return r_lo


def _valley(field_, r_nm, phi, z_ref):
    """Valley floor V, beat ridge height above it and dark phase at (r, phi).

    Returns (V, 4 kappa' |X|, z*) in J, J and nm (see the module docstring),
    z* taken as the image nearest z_ref. Raises NoTrapError when the modes
    do not beat (equal propagation constants).
    """
    pair = field_.pair
    try:
        z0 = superposition.beat_length(pair)
    except ValueError as err:
        raise NoTrapError(str(err), split_dependent=False) from None
    s, x = superposition.beat_terms(pair, r_nm, phi)
    kappa = field_.shift_coeff * 0.5 * _C0 * _EPS0
    amp = np.abs(x)
    v = kappa * (s - 2.0 * amp) + potential.vdw_potential(
        r_nm, field_.fiber, field_.atom)
    zs = (np.angle(x) + np.pi) / (pair.sol_a.beta_per_nm
                                  - pair.sol_b.beta_per_nm)
    return v, 4.0 * kappa * amp, zs + z0 * np.round((z_ref - zs) / z0)


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
    """1-D potential profile through the minimum along r-hat or the arc.

    Returns (profile(s), inward_limit, outward_limit) with s a signed
    displacement in nm along r-hat (axis 0) or the azimuthal arc (axis 1).
    """
    r, p, z = minimum
    if axis == 0:
        return (lambda s: potential.total_potential(field_, r + s, p, z),
                field_.fiber.radius_nm + 0.8 - r, 900.0)
    return (lambda s: potential.total_potential(field_, r, p + s / r, z),
            -1.4 * r, 1.4 * r)


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
    evanescent tail outside. The radial and azimuthal pairs are marched
    (_crossing); the axial pair is -+arccos(1 - 2 energy / W) / |dbeta|, W
    the beat ridge of _valley, and there is none when energy >= W.
    """
    r, p, z = minimum
    pair = field_.pair
    u0 = potential.total_potential(field_, r, p, z)
    target = u0 + energy_j
    out = np.empty((3, 2))
    for axis in range(3):
        if axis < 2:
            f1d, lo, hi = _axis_1d(field_, minimum, axis)
            row = [_crossing(f1d, u0, target, lo, hi, sign)
                   for sign in (-1.0, 1.0)]
        else:
            ridge, row = float(_valley(field_, r, p, z)[1]), [None]
            if energy_j < ridge:
                s = (math.acos(1.0 - 2.0 * energy_j / ridge)
                     / abs(pair.sol_a.beta_per_nm - pair.sol_b.beta_per_nm))
                row = [-s, s]
        if None in row:
            raise NoTrapError(
                "thermal energy exceeds the trap barrier along axis "
                f"{('radial', 'azimuthal', 'axial')[axis]}")
        out[axis] = row
    return out


def harmonic_extents(omegas, state, mass_kg):
    """Harmonic-model widths 2*sqrt(2 k_B T / (m omega^2)) in nm."""
    return tuple(
        2.0 * math.sqrt(2.0 * state.e_init / (mass_kg * w * w)) * 1e9
        for w in omegas)


def _frame(point):
    """Cartesian (r_nm, phi, z_nm) and the rows r-hat, phi-hat, z-hat there."""
    r, p, z = point
    return (np.array([r * np.cos(p), r * np.sin(p), z]),
            np.array([[np.cos(p), np.sin(p), 0.0],
                      [-np.sin(p), np.cos(p), 0.0],
                      [0.0, 0.0, 1.0]]))


@dataclass(frozen=True)
class EscapeResult:
    depth_j: float
    direction: tuple
    saddle: tuple    # (r_nm, phi, z_nm) of the certified escape saddle


def escape_barrier(field_, minimum):
    """Trap depth as the barrier of the certified first-order escape saddle.

    A priority flood of the valley floor (_flood) finds the spill level and
    its pass cell; from that cell, at its dark phase, _newton with one
    negative curvature converges to the saddle. Returns an EscapeResult with
    the depth U(saddle) - U(min), the unit vector l from the minimum to the
    saddle in the local (r-hat, phi-hat, z-hat) frame at the minimum, and
    the saddle; the saddle lies toward the surface (l[0] < 0) when the
    flood reaches the inner edge first. Raises NoTrapError when _flood or
    _newton does, and unless the saddle's barrier is positive and its
    height lies within the flood's grid tolerance of the spill level.
    """
    umin = potential.total_potential(field_, *minimum)
    level, tol, pass_cell = _flood(field_, minimum)
    saddle = _newton(field_, pass_cell, 1)
    u_saddle = float(potential.total_potential(field_, *saddle))
    depth = u_saddle - float(umin)
    if not (depth > 0.0 and abs(u_saddle - level) <= tol):
        raise NoTrapError("saddle search found no positive barrier within "
                          "the flood's grid tolerance of the spill level")
    p0, frame = _frame(minimum)
    d = frame @ (_frame(saddle)[0] - p0)
    return EscapeResult(depth_j=depth, saddle=saddle,
                        direction=tuple(float(c)
                                        for c in d / np.linalg.norm(d)))


def _flood(field_, minimum):
    """Spill level of the valley floor around minimum, by priority flood.

    The grid has _FLOOD_R radii, geometric in r - a from the surface pad
    out to _REACH_NM beyond the minimum, and _FLOOD_PHI azimuths over the
    full circle, centred on the minimum's. It holds no cell within the pad,
    so its innermost radius stands for the surface. From the cell nearest
    the minimum, cells are taken in increasing V, ties broken by the flat
    cell index i _FLOOD_PHI + j (so in (i, j) order), their neighbours in r
    and (cyclically) in phi queued as they are found, until a cell of the
    innermost or the outermost radius is taken: the lower of the two exits.
    The spill level is the highest V taken; the pass is the first cell
    taken at it, and the basin every cell taken up to the pass. Returns the
    level in J, its tolerance (the largest V step from the pass to a
    neighbour) and the pass as (r_nm, phi, z*), z* nearest the minimum's z.
    Raises NoTrapError when the minimum lies within the surface pad, and
    when the beat ridge V + 4 kappa' |X| of a basin cell is not above the
    level, where an escape along z could be lower.
    """
    r0, p0, z0 = minimum
    a = field_.fiber.radius_nm
    if r0 - a <= _SURFACE_PAD_NM:
        raise NoTrapError("escape search began within the surface pad")
    gap = np.geomspace(_SURFACE_PAD_NM, r0 - a + _REACH_NM, _FLOOD_R + 1)[1:]
    rr = a + gap
    pp = p0 + 2.0 * np.pi / _FLOOD_PHI * (np.arange(_FLOOD_PHI)
                                          - _FLOOD_PHI // 2)
    v, ridge, zs = _valley(field_, rr[:, None], pp[None, :], z0)
    # cells go by flat index k = i * _FLOOD_PHI + j; below _FLOOD_PHI they
    # lie on the innermost radius, from outer on on the outermost
    outer = (_FLOOD_R - 1) * _FLOOD_PHI

    def around(k):
        row = k - k % _FLOOD_PHI
        cells = [row + (k - 1) % _FLOOD_PHI, row + (k + 1) % _FLOOD_PHI]
        if k >= _FLOOD_PHI:
            cells.append(k - _FLOOD_PHI)
        if k < outer:
            cells.append(k + _FLOOD_PHI)
        return cells

    k = (int(np.argmin(np.abs(gap - (r0 - a)))) * _FLOOD_PHI
         + _FLOOD_PHI // 2)
    taken = []
    queued = bytearray(v.size)
    queued[k] = 1
    heap = [(v.item(k), k)]
    level, last = -math.inf, 0
    while not taken or _FLOOD_PHI <= k < outer:
        u, k = heapq.heappop(heap)
        taken.append(k)
        if u > level:
            level, last = u, len(taken)
        for cell in around(k):
            if not queued[cell]:
                queued[cell] = 1
                heapq.heappush(heap, (v.item(cell), cell))
    basin = np.array(taken[:last])
    if not np.all(v.flat[basin] + ridge.flat[basin] > level):
        raise NoTrapError("the beat ridge lies below the spill level: an "
                          "escape along z may be lower")
    k = taken[last - 1]
    tol = max(abs(v.item(cell) - level) for cell in around(k))
    i, j = divmod(k, _FLOOD_PHI)
    return level, tol, (float(rr[i]), float(pp[j]), float(zs[i, j]))


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


def _orbit_rule(turns, nodes):
    """Product rule of the orbit average over an energy split and phases.

    turns are the (3, 2) signed turning points (inward, outward) per axis.
    Writing the square roots of the three axis energies over E_init as
    (cos alpha, sin alpha cos beta, sin alpha sin beta) with alpha, beta in
    [0, pi/2], the flat Dirichlet measure is 8 cos alpha sin^3 alpha
    cos beta sin beta dalpha dbeta. Each axis's phase average is half its
    outward and half its inward side, the displacement on a side being the
    side's turning point times sin theta with theta uniform on (0, pi/2).
    Every angle takes the nodes of numerics._gauss_rule(nodes).

    Returns (weight, scale, unit, phase_w): weight (nodes, nodes) over
    (alpha, beta), summing to 1; scale (3, nodes, nodes), each axis's
    amplitude factor sqrt(E_axis / E_init) there; unit (3, 2 nodes), each
    axis's displacement in nm at full amplitude over (side, theta); and
    phase_w (2 nodes,), the weights of those displacements, summing to 1.
    """
    x, w = numerics._gauss_rule(nodes)
    angle = 0.25 * np.pi * (x + 1.0)
    cos, sin = np.cos(angle), np.sin(angle)
    wa = 0.25 * np.pi * w
    weight = np.outer(8.0 * cos * sin ** 3 * wa, cos * sin * wa)
    scale = np.stack(np.broadcast_arrays(cos[:, None], np.outer(sin, cos),
                                         np.outer(sin, sin)))
    unit = np.concatenate((turns[:, 1:] * sin, turns[:, :1] * sin), axis=1)
    phase_w = np.concatenate((w, w)) / 4.0
    return weight, scale, unit, phase_w


def orbit_averaged_scattering(field_, minimum, extents):
    """Mean photon scattering rate over a classical oscillation ensemble.

    extents are the (3, 2) signed turning points at the reference energy
    E_init, which they carry. That energy is split uniformly over the three
    axes (flat Dirichlet over the energy simplex, covering all classical
    oscillation modes), each axis oscillates harmonically with the amplitude
    scaled from its turning points by sqrt(E_axis / E_init), and the
    oscillation phases are uniform. Amplitudes stay asymmetric per side, so
    the radial bias between the steep inner wall and the soft outer tail is
    kept. The average is the deterministic product rule of _orbit_rule, with
    _ORBIT_NODES nodes per angle; doubling them moves the preset rates by
    at most 1.2e-9 relative. No random numbers are drawn, so no command
    loads numpy.random (nor numpy.polynomial or scipy) for the rate.

    Along z the intensity is (c eps0 / 2) [S + 2 Re(X e^{-i dbeta z})]
    (superposition.beat_terms), so the axial phase folds into one factor
    <e^{-i dbeta z}> per energy split, and S and X are evaluated on open
    axes: r over (alpha, theta_r), phi over (alpha, beta, theta_phi).
    """
    r, p, z = minimum
    turns = np.asarray(extents, dtype=float)
    if turns.shape != (3, 2):
        raise ValueError("extents must be the (3, 2) signed turning points")
    pair = field_.pair
    weight, scale, unit, phase_w = _orbit_rule(turns, _ORBIT_NODES)
    dbeta = pair.sol_a.beta_per_nm - pair.sol_b.beta_per_nm
    axial = np.exp(-1j * dbeta * (scale[2][..., None] * unit[2])) @ phase_w
    s, x = superposition.beat_terms(
        pair, r + scale[0][:, :1, None, None] * unit[0][:, None],
        p + scale[1][..., None, None] * unit[1] / r)
    x = x * (np.exp(-1j * dbeta * z) * axial)[..., None, None]
    mean = (s + 2.0 * x.real) @ phase_w @ phase_w
    return float(field_.scatter_coeff * 0.5 * _C0 * _EPS0
                 * np.sum(weight * mean))


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
    """Full characterization of one interference microtrap.

    The minimum lies in the beat period of the dark phase nearest z = 0
    (find_minimum), the same point as the tau0 row of tau_sensitivity and
    the plane of grid z=trap.
    """

    mode_a: str
    mode_b: str
    wavelength_nm: float
    power_mw: float
    tau: float
    sigma: float
    delta: float
    beat_length_nm: float
    minimum: tuple          # (r_nm, phi_rad, z_nm), see find_minimum
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
    # (minimum, EscapeResult) the report was built from; not serialized,
    # tau_sensitivity(base=...) reuses it for the tau0 row
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
    i_min = float(potential.intensity(field_, r, p, z))
    # I_a + I_b = (c eps0 / 2) S; I_min stays the field sum, which keeps
    # its digits where the two modes nearly cancel
    i_sum = 0.5 * _C0 * _EPS0 * float(superposition.beat_terms(pair, r, p)[0])
    return TrapReport(
        mode_a=pair.sol_a.name, mode_b=pair.sol_b.name,
        wavelength_nm=pair.wavelength_nm, power_mw=pair.power_mw,
        tau=pair.tau, sigma=power_split_sigma(pair.tau), delta=pair.delta,
        beat_length_nm=superposition.beat_length(pair),
        minimum=(r, p, z),
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
        cancellation=i_min / i_sum,
        recoil_energy_j=e_rec,
        base=((r, p, z), esc))


def tau_sensitivity(field_, seed, base=None):
    """Depth and position response to the power-split precision sigma.

    field_ is the PotentialField at the split tau0 = field_.pair.tau; the
    field at another split tau is the same field with its pair re-split,
    replace(field_, pair=replace(field_.pair, tau=tau)), so no mode is
    solved again. Rows cover tau0 - sigma, tau0, tau0 + sigma; a perturbed
    split where the trap vanishes, or that ModePair rejects because it
    falls outside [0, 1] for tau0 near 0 or 1, yields a row flagged with
    the error's text instead of the error. Each distinct split is searched
    once, so at sigma = 0 (tau0 = 0 or 1) the three rows share one search.
    base, when given, is the (minimum, EscapeResult) already found
    at tau0 (TrapReport.base) and is reused for the tau0 row; every other
    split runs find_minimum and escape_barrier as a report does. A seed
    window with no radius off the fiber holds no trap at any split, so it
    raises find_minimum's NoTrapError instead of flagging the rows.
    """
    _scan_r_lo(field_, seed)
    tau0 = field_.pair.tau
    sigma = power_split_sigma(tau0)

    def search(tau):
        # (minimum, EscapeResult), or the error that flags the split's rows
        try:
            split = field_ if tau == tau0 else replace(
                field_, pair=replace(field_.pair, tau=tau))
            m = find_minimum(split, seed)
            return m, escape_barrier(split, m)
        except (ConfigError, NoTrapError) as err:
            return err

    found = {tau0: search(tau0) if base is None else base}
    rows = []
    for tau in (tau0 - sigma, tau0, tau0 + sigma):
        if tau not in found:
            found[tau] = search(tau)
        if isinstance(found[tau], Exception):
            rows.append({"tau": tau, "trap": False, "reason": str(found[tau])})
            continue
        m, esc = found[tau]
        rows.append({"tau": tau, "trap": True,
                     "depth_mk": potential.as_millikelvin(esc.depth_j),
                     "minimum": {"r_nm": m[0], "phi_rad": m[1], "z_nm": m[2]}})
    if not isinstance(found[tau0], Exception):
        base_mk = potential.as_millikelvin(found[tau0][1].depth_j)
        for row in rows:
            if row["trap"]:
                row["depth_change_pct"] = 100.0 * (
                    row["depth_mk"] / base_mk - 1.0)
    return {"tau0": tau0, "sigma": sigma, "rows": rows}
