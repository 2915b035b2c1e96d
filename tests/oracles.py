"""Independent cross-checks shared by the test suite.

The mode helpers are built from first principles on top of scipy.special
and scipy.integrate only.  None of them goes through the package's own
dispersion relation or power normalization, so tests that compare against
them are not circular.  The escape fan marches 4,584 straight rays from the
minimum, every 4 nm out to 2000 nm, and evaluates every sample: each ray's
highest potential bounds the escape barrier from above, and the polish from
the lowest ray's highest sample reaches a saddle without the valley floor.
The dense valley-floor flood builds the floor from total_potential samples
a quarter beat apart, not from the (S, X) terms of trapanalysis, and finds
its spill level as a minimax path on a grid four times finer per axis than
the shipped flood.  The scalar Hessian is a
central-difference stencil, one potential call per point, so the analytic
Hessian can be checked against it to the stencil's O(h^2) error, and to
1e-9 against its Richardson extrapolation.  The grid CSV
writer formats every cell with repr and writes the rows with csv.writer,
so the grid command's deduplicated formatting can be checked byte for byte.
The root oracle is scipy's own brentq with find_root's tolerances, so the
port of it in numerics can be checked bit for bit.  The halving minimum
search is the earlier Newton polish, which halved a step that raised the
potential and checked the curvatures only after converging, so the
curvature-gated search can be checked to return the same minima.  The
scalar turning points march each axis one potential call per sample and
stop at the first sample at or above the target, so the batched march of
trapanalysis can be checked to bracket and return the same roots, and its
closed-form axial turning points to agree with a march along z.  The
sampled orbit rate is the earlier Monte-Carlo orbit average, 4,096 draws of
a flat Dirichlet energy split and uniform phases from a seeded generator, so
the product rule of trapanalysis can be checked to lie within its sampling
error.
"""

import csv
import heapq
import io

import numpy as np
from scipy import integrate, special

from fibertrap import modes, numerics, potential, trapanalysis
from fibertrap.errors import NoTrapError


def boundary_determinant(fiber, wavelength_nm, nu, neff):
    """Determinant of the tangential continuity conditions at the interface.

    Interior fields carry J_nu(h r), exterior fields K_nu(q r); matching
    E_z, H_z, E_phi and H_phi at r = a for azimuthal order nu gives a 4x4
    homogeneous system whose determinant vanishes exactly at the effective
    index of a guided mode.  Written in the scaled variables u = h a and
    w = q a the determinant is real.
    """
    v = modes.v_parameter(fiber, wavelength_nm)
    n1 = fiber.n_core
    n2 = fiber.n_clad
    na = np.sqrt(n1 ** 2 - n2 ** 2)
    u = v * np.sqrt(n1 ** 2 - neff ** 2) / na
    w = v * np.sqrt(neff ** 2 - n2 ** 2) / na
    jn = special.jv(nu, u)
    jp = special.jvp(nu, u)
    kn = special.kv(nu, w)
    kp = special.kvp(nu, w)
    b = neff
    mat = np.array([
        [jn, 0.0, -kn, 0.0],
        [0.0, jn, 0.0, -kn],
        [nu * b * jn / u ** 2, -jp / u, nu * b * kn / w ** 2, -kp / w],
        [-n1 ** 2 * jp / u, nu * b * jn / u ** 2,
         -n2 ** 2 * kp / w, nu * b * kn / w ** 2],
    ])
    return float(np.linalg.det(mat))


def determinant_root(fiber, wavelength_nm, nu, lo, hi):
    """Root of the boundary determinant bracketed by (lo, hi) in n_eff."""
    from scipy.optimize import brentq
    return brentq(
        lambda n: boundary_determinant(fiber, wavelength_nm, nu, n),
        lo, hi, xtol=1e-13, rtol=8.9e-16)


def brentq_root(f, lo, hi, tol):
    """scipy.optimize.brentq with the xtol, rtol and maxiter of find_root."""
    from scipy.optimize import brentq
    return brentq(f, lo, hi, xtol=tol, rtol=4.0 * np.finfo(float).eps,
                  maxiter=numerics._ROOT_MAX_ITER)


def mode_power_quadrature(sol):
    """Axial Poynting flux of a solved mode by direct quadrature, in mW.

    Uniform trapezoid over phi (exact for the finite trigonometric content
    of |E x H*|_z) and adaptive radial quadrature split at the interface.
    The exterior integral is truncated where K_nu has decayed by e^-40.
    """
    phi = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)

    def ring(r_nm):
        e = modes.e_field(sol, r_nm, phi, 0.0)
        h = modes.h_field(sol, r_nm, phi, 0.0)
        sz = 0.5 * np.real(e[..., 0] * np.conj(h[..., 1])
                           - e[..., 1] * np.conj(h[..., 0]))
        return float(sz.mean()) * 2.0 * np.pi * r_nm

    a = sol.fiber.radius_nm
    outer = a + 40.0 / sol.q_per_nm
    core, _ = integrate.quad(ring, 0.0, a, epsabs=0.0, epsrel=1e-12, limit=200)
    clad, _ = integrate.quad(ring, a, outer, epsabs=0.0, epsrel=1e-12, limit=200)
    # fields are V/m and A/m on an nm^2 area element
    return (core + clad) * 1e-18 * 1e3


# The straight-ray escape fan: full-sphere resolution, ray length and
# sample step.
FAN_COARSE_DEG = 3.0
FAN_REACH_NM = 2000.0
FAN_STEP_NM = 4.0
# The dense valley-floor flood: cells in r and in phi.
DENSE_FLOOD = (400, 720)


def fib_sphere(n):
    """n near-uniform unit vectors on the sphere (a Fibonacci lattice)."""
    k = np.arange(n) + 0.5
    theta = np.arccos(1.0 - 2.0 * k / n)
    golden = np.pi * (1.0 + 5.0 ** 0.5)
    return np.stack([np.sin(theta) * np.cos(golden * k),
                     np.sin(theta) * np.sin(golden * k),
                     np.cos(theta)], axis=-1)


def fan_directions():
    """The local-frame unit vectors of the full-sphere escape fan."""
    return fib_sphere(max(int(np.ceil(
        4.0 * np.pi / np.radians(FAN_COARSE_DEG) ** 2)), 16))


def _fan_samples(minimum, d_local):
    """Cartesian samples (rays, samples, 3) of straight rays from minimum."""
    r, p, z = minimum
    frame = np.array([[np.cos(p), np.sin(p), 0.0],
                      [-np.sin(p), np.cos(p), 0.0],
                      [0.0, 0.0, 1.0]])
    p0 = np.array([r * np.cos(p), r * np.sin(p), z])
    t = np.arange(1, int(FAN_REACH_NM / FAN_STEP_NM) + 1) * FAN_STEP_NM
    return p0[None, None, :] + t[None, :, None] * (d_local @ frame)[:, None, :]


def dense_march(field_, minimum, umin, d_local):
    """Barrier height along straight fan rays with every sample evaluated.

    Samples at and beyond a ray's first contact with the surface pad are
    masked out of its barrier; the hit flags are returned separately.
    """
    pad = trapanalysis._SURFACE_PAD_NM
    a = field_.fiber.radius_nm
    pts = _fan_samples(minimum, d_local)
    rr = np.hypot(pts[..., 0], pts[..., 1])
    pp = np.arctan2(pts[..., 1], pts[..., 0])
    uu = potential.total_potential(
        field_, np.maximum(rr, a + 2.0 * pad), pp, pts[..., 2])
    inside = rr <= a + pad
    hit = inside.any(axis=1)
    first = np.where(hit, inside.argmax(axis=1), rr.shape[1])
    blocked = np.arange(rr.shape[1])[None, :] >= first[:, None]
    barrier = np.where(blocked, -np.inf, uu).max(axis=1) - umin
    return barrier, hit


def dense_fan_escape(field_, minimum):
    """Lowest ray barrier of the full-sphere fan and the saddle it leads to.

    Every sample of every ray is evaluated (dense_march); a ray that hits
    the surface pad has an infinite barrier. Any path's highest potential
    bounds the escape barrier from above, so a certified depth lies at or
    below the lowest ray barrier. The saddle is trapanalysis._newton with
    one negative curvature from the highest sample of the lowest ray, first
    of a tie. Returns (barrier, saddle).
    """
    umin = potential.total_potential(field_, *minimum)
    dirs = fan_directions()
    barrier, hit = dense_march(field_, minimum, umin, dirs)
    escape = np.where(hit, np.inf, barrier)
    k = int(np.argmin(escape))
    x, y, z = _fan_samples(minimum, dirs[[k]])[0].T
    r, p = np.hypot(x, y), np.arctan2(y, x)
    i = np.argmax(potential.total_potential(field_, r, p, z))
    return float(escape[k]), trapanalysis._newton(
        field_, (float(r[i]), float(p[i]), float(z[i])), 1)


def dense_flood_escape(field_, minimum, inward=False):
    """Depth and saddle from a dense valley-floor flood, written out here.

    The polar grid has DENSE_FLOOD cells: radii geometric in r - a from the
    surface pad out to 2000 nm beyond the minimum, azimuths over the full
    circle centred on the minimum's. Along z at fixed (r, phi) the potential
    is A + B cos(theta - dbeta z), so three total_potential samples a
    quarter beat apart, z_m + (0, 1, 2) z0/4 from the minimum's z_m, give
    A, |B| and theta, hence the valley floor V = A - |B| and the dark phase.
    The spill level is found as a minimax path (Dijkstra with the highest V
    on the path as its cost) from the minimum's cell to the outermost
    radius, or with inward to the innermost one (toward the surface); the
    pass is the highest cell on that path, polished by
    trapanalysis._newton with one negative curvature. Returns (depth_j,
    saddle, level).
    """
    n_r, n_phi = DENSE_FLOOD
    r0, p0, z_m = minimum
    a = field_.fiber.radius_nm
    pair = field_.pair
    dbeta = pair.sol_a.beta_per_nm - pair.sol_b.beta_per_nm
    z0 = 2.0 * np.pi / abs(dbeta)
    gap = np.geomspace(trapanalysis._SURFACE_PAD_NM, r0 - a + FAN_REACH_NM,
                       n_r + 1)[1:]
    rr = a + gap
    pp = p0 + 2.0 * np.pi / n_phi * (np.arange(n_phi) - n_phi // 2)
    u0, u1, u2 = np.moveaxis(potential.total_potential(
        field_, rr[:, None, None], pp[None, :, None],
        z_m + z0 / 4.0 * np.arange(3)[None, None, :]), -1, 0)
    mean = 0.5 * (u0 + u2)
    cos_part = 0.5 * (u0 - u2)
    sin_part = np.sign(dbeta) * (u1 - mean)
    floor = (mean - np.hypot(cos_part, sin_part)).tolist()
    # theta' - dbeta dz = pi at the dark phase
    dz = (np.arctan2(sin_part, cos_part) - np.pi) / dbeta
    dz -= z0 * np.round(dz / z0)

    i, j = int(np.argmin(np.abs(gap - (r0 - a)))), n_phi // 2
    edge = 0 if inward else n_r - 1
    cost = np.full((n_r, n_phi), np.inf)
    parent = {}
    cost[i, j] = c = floor[i][j]
    # among equal costs the cell nearest the target edge first: past the
    # pass every cell costs the level, and the walk heads for that edge
    heap = [(c, abs(edge - i), i, j)]
    while i != edge:
        c, _, i, j = heapq.heappop(heap)
        if c > cost[i, j]:
            continue
        for ni, nj in ((i - 1, j), (i + 1, j), (i, (j - 1) % n_phi),
                       (i, (j + 1) % n_phi)):
            if 0 <= ni < n_r:
                c_next = max(c, floor[ni][nj])
                if c_next < cost[ni, nj]:
                    cost[ni, nj], parent[ni, nj] = c_next, (i, j)
                    heapq.heappush(heap, (c_next, abs(edge - ni), ni, nj))
    path = [(i, j)]
    while path[-1] in parent:
        path.append(parent[path[-1]])
    i, j = max(path, key=lambda ij: floor[ij[0]][ij[1]])
    saddle = trapanalysis._newton(
        field_, (float(rr[i]), float(pp[j]), float(z_m + dz[i, j])), 1)
    depth = float(potential.total_potential(field_, *saddle)
                  - potential.total_potential(field_, *minimum))
    return depth, saddle, c


def scalar_hessian(f, point, steps):
    """Central-difference Hessian of a scalar f, one call per stencil point."""
    p = np.asarray(point, dtype=float)
    d = np.asarray(steps, dtype=float)

    def at(off):
        return float(f(p + off))

    h = np.empty((3, 3), dtype=float)
    f0 = at(np.zeros(3))
    for i in range(3):
        ei = np.zeros(3)
        ei[i] = d[i]
        h[i, i] = (at(ei) - 2.0 * f0 + at(-ei)) / d[i] ** 2
    for i in range(3):
        for j in range(i + 1, 3):
            ei = np.zeros(3)
            ej = np.zeros(3)
            ei[i] = d[i]
            ej[j] = d[j]
            hij = (at(ei + ej) - at(ei - ej) - at(-ei + ej)
                   + at(-ei - ej)) / (4.0 * d[i] * d[j])
            h[i, j] = hij
            h[j, i] = hij
    return h


def halving_find_minimum(field_, seed, z_nm):
    """trapanalysis.find_minimum as it was before every iterate was gated.

    The seed scan is the earlier 3-D one, 61 x 25 (r, phi) points times 49
    values of z over the window z_nm = (lo, hi), each cell a total_potential
    value, and the polish starts at the best radial interior cell of that
    scan. Same 5 nm step cap, surface check and 40-step cap, and the
    minimum must lie in the seed window and in z_nm, but a step that
    raises the potential is halved once, a singular Hessian raises, and the
    three positive curvatures are checked only on the last Hessian after
    convergence.
    """
    ta = trapanalysis
    tol_nm = ta._POSITION_TOL_NM
    a = field_.fiber.radius_nm
    r_lo = max(seed.r_nm[0], a + 2.0)
    rr = np.linspace(r_lo, seed.r_nm[1], ta._GRID_R)
    pp = np.linspace(seed.phi[0], seed.phi[1], ta._GRID_PHI)
    zz = np.linspace(z_nm[0], z_nm[1], 49)
    R, P, Z = np.meshgrid(rr, pp, zz, indexing="ij")
    u = potential.total_potential(field_, R, P, Z)
    interior = (u[1:-1] < u[:-2]) & (u[1:-1] <= u[2:])
    masked = np.where(interior, u[1:-1], np.inf)
    if not np.isfinite(masked).any():
        raise NoTrapError("no interior potential minimum in the seed region")
    i, j, k = np.unravel_index(np.argmin(masked), masked.shape)
    r, p, z = float(rr[i + 1]), float(pp[j]), float(zz[k])

    for _ in range(40):
        g, h = potential.potential_derivatives(field_, r, p, z)
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError as exc:
            raise NoTrapError(
                "singular Hessian during the minimum search") from exc
        n = float(np.linalg.norm(step))
        if n > ta._NEWTON_STEP_CAP_NM:
            step *= ta._NEWTON_STEP_CAP_NM / n
        r_new = r + float(step[0])
        p_new = p + float(step[1]) / r
        z_new = z + float(step[2])
        if r_new <= a + 1.0:
            raise NoTrapError("minimum search ran into the fiber surface")
        if potential.total_potential(field_, r_new, p_new, z_new) > \
                potential.total_potential(field_, r, p, z) and n > tol_nm:
            step *= 0.5
            r_new, p_new, z_new = r + step[0], p + step[1] / r, z + step[2]
        r, p, z = float(r_new), float(p_new), float(z_new)
        if n < 0.2 * tol_nm:
            break
    else:
        raise NoTrapError("minimum search did not converge")
    if not np.all(np.linalg.eigvalsh(h) > 0.0):
        raise NoTrapError("minimum search converged to a saddle")

    for axis, value, (lo, hi) in (("radially", r, (r_lo, seed.r_nm[1])),
                                  ("in phi", p, seed.phi),
                                  ("in z", z, z_nm)):
        if not lo <= value <= hi:
            raise NoTrapError(f"refined minimum left the seed region {axis}")
    return r, p, z


def grid_csv_text(header, cols):
    """Grid CSV with every cell formatted on its own: repr, then csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*([repr(float(v)) for v in c] for c in cols)))
    return buf.getvalue()


def scalar_crossing(f1d, u0, target, lo_lim, hi_lim, sign):
    """First crossing of f1d(s) = target moving away from s = 0.

    u0 is f1d(0.0), the potential at the minimum, which the caller has.
    """
    step = 1.0 * sign
    s_prev = 0.0
    if u0 - target >= 0.0:
        return None
    s_cur = step
    while abs(s_cur) <= abs(hi_lim if sign > 0 else lo_lim):
        if f1d(s_cur) - target >= 0.0:
            return numerics.find_root(lambda s: f1d(s) - target,
                                      min(s_prev, s_cur), max(s_prev, s_cur),
                                      tol=1e-9)
        s_prev = s_cur
        step *= 1.25
        s_cur += step
    return None


def scalar_turning_points(field_, minimum, energy_j):
    """Turning points with each axis marched by scalar_crossing.

    The radial and azimuthal profiles are trapanalysis._axis_1d's; the
    axial one is the potential along z through the minimum, marched out to
    +-9000 nm.
    """
    r, p, z = minimum
    u0 = potential.total_potential(field_, r, p, z)
    target = u0 + energy_j
    out = np.empty((3, 2))
    for axis in range(3):
        if axis < 2:
            f1d, lo, hi = trapanalysis._axis_1d(field_, minimum, axis)
        else:
            f1d = lambda s: potential.total_potential(field_, r, p, z + s)
            lo, hi = -9000.0, 9000.0
        s_in = scalar_crossing(f1d, u0, target, lo, hi, -1.0)
        s_out = scalar_crossing(f1d, u0, target, lo, hi, +1.0)
        if s_in is None or s_out is None:
            raise NoTrapError(
                "thermal energy exceeds the trap barrier along axis "
                f"{('radial', 'azimuthal', 'axial')[axis]}")
        out[axis] = (s_in, s_out)
    return out


ORBIT_SAMPLES = 4096
ORBIT_SEED = 20260822


def sampled_orbit_rate(field_, minimum, extents):
    """Monte-Carlo orbit-averaged scattering rate and its standard error.

    The same ensemble as trapanalysis.orbit_averaged_scattering, drawn:
    ORBIT_SAMPLES flat Dirichlet energy splits and uniform phases on
    (0, 2 pi), each axis displaced by its turning point on the side the
    phase's sine points to, scaled by sqrt(E_axis / E_init) and the sine.
    Returns (mean rate, standard error of the mean) in photons/s.
    """
    r, p, z = minimum
    turns = np.asarray(extents, dtype=float)
    rng = np.random.default_rng(ORBIT_SEED)
    split = rng.dirichlet((1.0, 1.0, 1.0), size=ORBIT_SAMPLES)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(ORBIT_SAMPLES, 3))
    scale = np.sqrt(split)
    s = np.sin(phase)
    disp = np.where(s >= 0.0,
                    turns[None, :, 1] * scale * s,
                    -turns[None, :, 0] * scale * s)
    rates = potential.local_scattering_rate(
        field_, r + disp[:, 0], p + disp[:, 1] / r, z + disp[:, 2])
    return (float(np.mean(rates)),
            float(np.std(rates, ddof=1) / np.sqrt(ORBIT_SAMPLES)))
