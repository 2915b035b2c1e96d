"""Guided modes of a two-layer step-index cylindrical fiber.

Solves the exact vectorial eigenvalue problem for the propagation constant,
censuses which modes propagate at a given V parameter, and evaluates the full
complex E and H fields inside and outside the core: transverse_fields gives
the three cylindrical components of the z = 0 profile unstacked, and
e_field and h_field stack them and apply the phase e^{-i beta z}.
Conventions:

* harmonic dependence exp(i(omega t - beta z)), fields in V/m and A/m,
  evaluated at t = 0: only time-averaged quantities (intensity, Poynting
  flux) are built from them, and those do not depend on t;
* lengths at the interface in nm, propagation constants available per nm
  and per m;
* each solution carries one real normalization constant ("amplitude"); power
  normalization rescales it so the axial Poynting flux equals a target power.

The hybrid-mode fields reduce, outside the core, to combinations
(1 -/+ nu s) K_{nu -/+ 1}(q r) with the usual dimensionless parameter
s = (1/u^2 + 1/w^2) / (J'_nu(u)/(u J_nu(u)) + K'_nu(w)/(w K_nu(w))),
which is what fixes the azimuthal polarization structure of the evanescent
field and therefore the interference pattern of two-mode superpositions.
Every component is a radial factor times cos or sin of chi = nu phi + psi,
and every HE and EH mode takes the pattern angle psi = -nu phi0, so a
ModeId's orientation phi0 turns its pattern counterclockwise by phi0:
E(r, phi + phi0, z) at phi0 is E(r, phi, z) at 0. TE0m and TM0m are the
nu = 0 case of the same field formulas (Snyder & Love, Optical Waveguide
Theory, ch. 12), evaluated by the same kernel: every nu term vanishes, so
phi0 drops out. TM is the nu = 0 case of the hybrid axial constants too
(Az = i amp, Bz = 0, psi = 0); TE takes Az = 0, Bz = i amp and psi = pi/2,
so that sin psi selects its components.

They are also the nu = 0 case of the dispersion relation (_char), whose
right-hand side vanishes there, leaving the TE and TM relations as its two
factors. Each factor gets its own root scan, not their product: TE01 and
TM01 share the cutoff J_0(V) = 0, and just above it their roots lie within
one scan cell, where the product shows no sign change. HE and EH of one
order come from one scan and are told apart afterwards, so a census runs
five scans: TE, TM and the hybrid orders 1 to 3.

Relative sign conventions between mode families are not physical on their
own (each mode carries a free normalization constant); they are chosen here
so that, at zero relative phase, two-mode trapping minima form at z = 0
modulo one beat length at the conventional azimuths: TE01+HE11 at
phi = pi/2, HE11+HE21 at phi = 0, TE01+HE21 at phi = 3 pi/4 and -pi/4.
Concretely the TE01 constant is taken negative relative to the textbook
closed form, and the HE21 axial amplitude is -i times the HE11 one.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .constants import c as _C0
from .constants import epsilon_0 as _EPS0
from .constants import mu_0 as _MU0
from .errors import ConvergenceError, CutoffError

_SCAN_POINTS = 2000
_NEFF_MARGIN = 1e-9
# Mode census covers azimuthal orders 0..3: every guided branch below the
# HE41 cutoff, and the seven dispersion branches at any V.
_HYBRID_ORDERS = (1, 2, 3)
_SWEEP_MODES = ("HE11", "TE01", "TM01", "HE21", "EH11", "HE31", "HE12")
# Clamp radii to avoid 0/0 in the nu/r interior terms; 1e-12 nm is far below
# any physical resolution of interest.
_R_FLOOR_NM = 1e-12


@dataclass(frozen=True)
class FiberSpec:
    """Step-index fiber geometry and materials."""

    radius_nm: float
    n_core: float
    n_clad: float

    def __post_init__(self):
        if self.radius_nm <= 0.0:
            raise ValueError("fiber radius must be positive")
        if not self.n_core > self.n_clad > 0.0:
            raise ValueError("require n_core > n_clad > 0")


@dataclass(frozen=True)
class LightSpec:
    """Vacuum wavelength and total optical power of one trapping configuration."""

    wavelength_nm: float
    power_mw: float

    def __post_init__(self):
        if self.wavelength_nm <= 0.0:
            raise ValueError("wavelength must be positive")
        if self.power_mw < 0.0:
            raise ValueError("power must be non-negative")


@dataclass(frozen=True)
class ModeId:
    """Identifies one guided mode branch: family, azimuthal order, radial index.

    orientation is the angle phi0 (rad) by which the mode pattern is turned
    counterclockwise about the fiber axis, for every HE and EH order; TE
    and TM patterns do not depend on phi, so it is ignored for them.
    """

    family: str
    nu: int
    m: int
    orientation: float = 0.0

    def __post_init__(self):
        if self.family not in ("HE", "EH", "TE", "TM"):
            raise ValueError(f"unknown mode family {self.family!r}")
        if self.family in ("TE", "TM") and self.nu != 0:
            raise ValueError("TE/TM modes have azimuthal order 0")
        if self.family in ("HE", "EH") and self.nu < 1:
            raise ValueError("hybrid modes need azimuthal order >= 1")
        if self.m < 1:
            raise ValueError("radial index starts at 1")

    @property
    def name(self):
        return f"{self.family}{self.nu}{self.m}"


def parse_mode_name(name, orientation=0.0):
    """Parse a label like "HE11" or "TE01" into a ModeId."""
    text = name.strip().upper()
    if len(text) != 4 or text[:2] not in ("HE", "EH", "TE", "TM"):
        raise ValueError(f"unrecognized mode name {name!r}")
    try:
        nu, m = int(text[2]), int(text[3])
    except ValueError as exc:
        raise ValueError(f"unrecognized mode name {name!r}") from exc
    nu_ok = nu == 0 if text[:2] in ("TE", "TM") else 1 <= nu <= 3
    if not nu_ok or m < 1:
        raise ValueError(f"unsupported mode name {name!r}")
    return ModeId(text[:2], nu, m, orientation)


def v_parameter(fiber, wavelength_nm):
    """Normalized frequency V = (2 pi a / lambda) sqrt(n1^2 - n2^2)."""
    if wavelength_nm <= 0.0:
        raise ValueError("wavelength must be positive")
    na = np.sqrt(fiber.n_core ** 2 - fiber.n_clad ** 2)
    return 2.0 * np.pi * fiber.radius_nm / wavelength_nm * na


def _uw(v, n1, n2, neff):
    """Dimensionless core/cladding transverse arguments at the boundary."""
    nn = n1 * n1 - n2 * n2
    u = v * np.sqrt(np.maximum(n1 * n1 - neff * neff, 0.0) / nn)
    w = v * np.sqrt(np.maximum(neff * neff - n2 * n2, 0.0) / nn)
    return u, w


def _j_and_deriv(nu, x):
    """J_nu(x) and J'_nu(x) from one series call.

    J'_nu = (J_{nu-1} - J_{nu+1})/2, with J_{-1} = -J_1 at nu = 0.
    """
    js = numerics.bessel_j_orders(x, max(nu - 1, 0), nu + 1)
    lower = js[0] if nu else -js[1]
    return js[-2], 0.5 * (lower - js[-1])


def _k_and_deriv(nu, x):
    """K_nu(x) and K'_nu(x) from one call, x > 0.

    K'_nu = -(K_{nu-1} + K_{nu+1})/2, with K_{-1} = K_1 at nu = 0.
    """
    ks = numerics.bessel_k_orders(x, nu + 1)
    return ks[nu], -0.5 * (ks[abs(nu - 1)] + ks[nu + 1])


def _char(family, nu, v, n1, n2, neff):
    """Rationalized characteristic function of one family at order nu.

    The hybrid relation (J'/(uJ) + K'/(wK)) (n1^2 J'/(uJ) + n2^2 K'/(wK))
    = (nu neff V^2 / (u^2 w^2))^2, Bessels of order nu at u and w, has both
    factors multiplied by u J_nu(u) w K_nu(w), giving t1 = J' w K + K' u J
    and t2 = n1^2 J' w K + n2^2 K' u J; the right-hand side picks up the
    square of that, so roots of t1 t2 - rhs are exactly the HE/EH
    eigenvalues and the poles at J_nu(u) = 0 are removed. At nu = 0 the
    right-hand side vanishes and t1 and t2 are the TE and TM relations,
    which family "TE" and "TM" return alone; any other family gets the
    hybrid function.
    """
    u, w = _uw(v, n1, n2, neff)
    jn, jd = _j_and_deriv(nu, u)
    kn, kd = _k_and_deriv(nu, w)
    t1 = jd * w * kn + kd * u * jn
    if family == "TE":
        return t1
    t2 = n1 * n1 * jd * w * kn + n2 * n2 * kd * u * jn
    if family == "TM":
        return t2
    rhs = (nu * neff * v * v * jn * kn) ** 2 / (u * w) ** 2
    return t1 * t2 - rhs


def _bessel_ratios(nu, u, w):
    """J'_nu(u) / (u J_nu(u)) and K'_nu(w) / (w K_nu(w))."""
    jn, jd = _j_and_deriv(nu, u)
    kn, kd = _k_and_deriv(nu, w)
    return jd / (u * jn), kd / (w * kn)


def _hybrid_s(nu, u, w):
    """Hybrid polarization parameter s for a solved (u, w) pair."""
    jterm, kterm = _bessel_ratios(nu, u, w)
    return (1.0 / u ** 2 + 1.0 / w ** 2) / (jterm + kterm)


def _classify_hybrid(nu, v, n1, n2, neff):
    """Label a hybrid root HE or EH via the completed-square branch sign."""
    jterm, kterm = _bessel_ratios(nu, *_uw(v, n1, n2, neff))
    g = jterm + kterm * (n1 * n1 + n2 * n2) / (2.0 * n1 * n1)
    return "HE" if g < 0.0 else "EH"


def _char_roots(v, n1, n2, family, nu):
    """All n_eff roots of _char(family, nu) at fixed V, descending.

    Dense sign scan over (n2 + margin, n1 - margin) followed by bracketed
    refinement; the rationalized characteristic functions are continuous, so
    every sign change brackets a genuine eigenvalue. HE and EH share one
    function, so callers pass "HE" for both and classify the roots
    (_hybrid_roots).
    """
    f = lambda ne: _char(family, nu, v, n1, n2, ne)
    grid = np.linspace(n2 + _NEFF_MARGIN, n1 - _NEFF_MARGIN, _SCAN_POINTS)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = f(grid)
        change = vals[:-1] * vals[1:] < 0.0
    finite = np.isfinite(vals[:-1]) & np.isfinite(vals[1:])
    zero = finite & (vals[:-1] == 0.0)
    roots = [grid[i] if zero[i] else
             numerics.find_root(f, grid[i], grid[i + 1], tol=1e-15)
             for i in np.flatnonzero(zero | (finite & change))]
    roots.sort(reverse=True)
    return tuple(roots)


def _hybrid_roots(v, n1, n2, nu):
    """{"HE": roots, "EH": roots} of order nu at fixed V, from one scan."""
    split = {"HE": [], "EH": []}
    for r in _char_roots(v, n1, n2, "HE", nu):
        split[_classify_hybrid(nu, v, n1, n2, r)].append(r)
    return split


def _family_roots(v, n1, n2, family, nu):
    """All n_eff roots of one (family, nu) branch family at fixed V, descending."""
    if family in ("TE", "TM"):
        return _char_roots(v, n1, n2, family, nu)
    return _hybrid_roots(v, n1, n2, nu)[family]


def _census(v, n1, n2):
    """All guided modes at V, as (name, family, nu, m, neff), descending in beta."""
    rows = []
    for fam in ("TE", "TM"):
        for m, ne in enumerate(_char_roots(v, n1, n2, fam, 0), start=1):
            rows.append((f"{fam}0{m}", fam, 0, m, ne))
    for nu in _HYBRID_ORDERS:
        for fam, roots in _hybrid_roots(v, n1, n2, nu).items():
            for m, ne in enumerate(roots, start=1):
                rows.append((f"{fam}{nu}{m}", fam, nu, m, ne))
    rows.sort(key=lambda row: -row[4])
    return rows


def supported_modes(fiber, wavelength_nm):
    """ModeIds of every guided mode at this wavelength, descending in beta.

    The census stops at azimuthal order 3, so a V above the cutoff of HE41,
    (n1^2/n2^2 + 1) J_3(V) = (V/3) J_4(V) (Snyder & Love, Table 12-4),
    raises ValueError instead of listing an incomplete set.
    """
    v = v_parameter(fiber, wavelength_nm)
    ratio = (fiber.n_core / fiber.n_clad) ** 2 + 1.0

    def he41(x):
        j3, j4 = numerics.bessel_j_orders(x, 3, 4)
        return ratio * j3 - x / 3.0 * j4

    # the cutoff lies between the J_2 zero (weak guidance) and the J_3 zero
    v_max = numerics.find_root(he41, 4.0, 6.5)
    if v > v_max:
        raise ValueError(f"V = {v:.4f} is above the HE41 cutoff "
                         f"V = {v_max:.4f}, beyond the mode census")
    return [ModeId(fam, nu, m)
            for _, fam, nu, m, _ in _census(v, fiber.n_core, fiber.n_clad)]


def cutoff_v(fiber, mode):
    """Cutoff V parameter of a mode branch, by bisection on existence.

    The search brackets the smallest V at which the branch appears in the
    census, so this is the cutoff the solver can see: the smallest V at
    which the branch's n_eff lies _NEFF_MARGIN (1e-9) above n_clad,
    slightly above the physical cutoff. For HE12 that is V = 3.8774,
    against J_1(V) = 0 at 3.8317 (Snyder & Love, Table 12-4); in between,
    the root is too close to n_clad for the scan to see it. HE11, which has
    no physical cutoff, is visible from V = 0.5264 on the default fiber.
    The bracket is [0.2, 6.5], widened to [6.5, numerics.J_MAX_ARG], the
    solver's range, only for a branch absent at 6.5; a branch absent at
    J_MAX_ARG too gives inf.
    """
    mode = parse_mode_name(mode) if isinstance(mode, str) else mode
    n1, n2 = fiber.n_core, fiber.n_clad

    def present(v):
        return len(_family_roots(v, n1, n2, mode.family, mode.nu)) >= mode.m

    lo, hi = 0.2, 6.5
    if present(lo):
        return lo
    if not present(hi):
        lo, hi = hi, numerics.J_MAX_ARG
        if not present(hi):
            return np.inf
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if present(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ModeSolution:
    """One solved guided mode, ready for field evaluation.

    neff is beta/k0; u and w are the transverse arguments at the core
    boundary; s is the hybrid polarization parameter (0 for TE/TM); j_u and
    k_w are J_nu(u) and K_nu(w), which scale every exterior evaluation;
    unit_power_w is the mode's power (W) at unit amplitude, which no
    normalization changes. amplitude is the real normalization constant
    multiplying the fields and power_mw records the power it was normalized
    to (None when unnormalized). solve_mode fills in every field once and
    replace carries them.
    """

    mode: ModeId
    fiber: FiberSpec
    wavelength_nm: float
    neff: float
    u: float
    w: float
    s: float
    j_u: float
    k_w: float
    amplitude: float = 1.0
    power_mw: float = None
    unit_power_w: float = None

    @property
    def name(self):
        return self.mode.name

    @property
    def v(self):
        return v_parameter(self.fiber, self.wavelength_nm)

    @property
    def k0_per_nm(self):
        return 2.0 * np.pi / self.wavelength_nm

    @property
    def beta_per_nm(self):
        return self.neff * self.k0_per_nm

    @property
    def beta_per_m(self):
        return self.beta_per_nm * 1e9

    @property
    def h_per_nm(self):
        """Interior transverse wavenumber (rad/nm)."""
        return self.u / self.fiber.radius_nm

    @property
    def q_per_nm(self):
        """Evanescent decay constant (rad/nm)."""
        return self.w / self.fiber.radius_nm

    @property
    def decay_length_nm(self):
        """1/e decay length of the evanescent field, 1/q."""
        return 1.0 / self.q_per_nm

    @property
    def omega(self):
        """Angular optical frequency (rad/s)."""
        return 2.0 * np.pi * _C0 / (self.wavelength_nm * 1e-9)


def solve_mode(fiber, wavelength_nm, mode):
    """Solve the eigenvalue problem for one mode at one wavelength.

    mode is a ModeId, whose orientation (rad) rotates the pattern, or a
    name like "HE11" at orientation 0. The result has unit amplitude and
    carries its power there (unit_power_w), integrated once here. Raises
    CutoffError when the branch does not propagate at this V, and
    ConvergenceError unless that power is positive.
    """
    mode = parse_mode_name(mode) if isinstance(mode, str) else mode
    v = v_parameter(fiber, wavelength_nm)
    roots = _family_roots(v, fiber.n_core, fiber.n_clad, mode.family, mode.nu)
    if len(roots) < mode.m:
        raise CutoffError(mode.name, v, cutoff_v(fiber, mode),
                          numerics.J_MAX_ARG)
    neff = roots[mode.m - 1]
    u, w = _uw(v, fiber.n_core, fiber.n_clad, neff)
    s = 0.0 if mode.nu == 0 else float(_hybrid_s(mode.nu, u, w))
    u, w = float(u), float(w)
    sol = ModeSolution(mode=mode, fiber=fiber, wavelength_nm=wavelength_nm,
                       neff=float(neff), u=u, w=w, s=s,
                       j_u=_j_and_deriv(mode.nu, u)[0],
                       k_w=_k_and_deriv(mode.nu, w)[0])
    p_unit = mode_power(sol)
    if not p_unit > 0.0:
        raise ConvergenceError("mode power integral is not positive")
    return replace(sol, unit_power_w=p_unit)


def _z_amplitudes(sol):
    """Axial-field constants (Az interior E_z, Bz interior H_z) and psi.

    psi is the pattern angle in chi = nu phi + psi: -nu phi0 for every
    mode but TE, which takes Az = 0, Bz = i amp and psi = pi/2. The others
    take Az = i amp, or -i amp for HE of order 2 (see the module
    docstring), and Bz = -(beta nu s / (omega mu0)) Az, which vanishes for
    TM (nu = 0). The phase conventions reproduce the standard
    quasi-linearly-polarized hybrid field expressions with a real positive
    normalization constant.
    """
    amp = sol.amplitude
    nu = sol.mode.nu
    if sol.mode.family == "TE":
        return 0.0, 1j * amp, 0.5 * np.pi
    az = -1j * amp if (sol.mode.family, nu) == ("HE", 2) else 1j * amp
    bz = -(sol.beta_per_m * nu * sol.s / (sol.omega * _MU0)) * az
    # 0.0 - x, not -x: at nu = 0 psi is +0.0 whatever the sign of phi0, so
    # TM's zero components keep their sign bits at every orientation
    return az, bz, 0.0 - nu * sol.mode.orientation


def _phase(sol, z_nm):
    """e^{-i beta z} on z's own shape, with a trailing axis for the components."""
    z = np.asarray(z_nm, dtype=float)
    return np.exp(-1j * sol.beta_per_nm * z)[..., np.newaxis]


def _side_fields(sol, r, phi, want_h, outside, jacobian=False):
    """E or H cylindrical components (three arrays) on one side of the core.

    Inside, the fields are built from f = J_nu(x), x = h r, with the axial
    constants (Az, Bz); outside, from f = K_nu(x), x = q r, with those
    constants scaled by J_nu(u)/K_nu(w) so the axial fields are continuous
    at r = a. The transverse components follow from the axial ones through
    1/h^2 inside and -1/q^2 outside; pre = -i or +i carries that sign flip.
    One formula gives both fields,

        ((c1 f' + c2 f/x) t1, (d1 f/x + d2 f') t2, a f t1),
        c1 = pre (beta/k) a,   c2 = pre (omega mu/k) nu b,
        d1 = sign (beta/k) nu a,   d2 = sign (omega mu/k) b,

    k = h or q per m, with one coefficient table (c1, c2, d1, d2) per field
    and side. E takes a = Az, b = Bz, mu = mu0, (t1, t2) = (cos chi, sin chi)
    and sign = -pre; H is E with Az and Bz swapped, eps0 n^2 for mu0, cos and
    sin swapped and sign = pre (Snyder & Love, ch. 12). TE and TM are the
    nu = 0 case: every nu term vanishes and cos or sin of chi = psi picks
    their components.

    r and phi need not share a shape: every Bessel value and radial factor
    is computed on r's shape and cos/sin chi on phi's, and each component
    is a radial factor times one of them, so it has their broadcast shape
    (r's alone for nu = 0, where chi is a scalar).

    With jacobian (E outside the core only) the result is (e, de_dr,
    de_dphi, d2e_dr2, d2e_drdphi): the three components and their first
    and second derivatives per nm of r and per rad of phi, from the same
    table, radial factors and cos/sin of chi = nu phi + psi. K'' follows
    from the modified Bessel equation and K''' from its derivative. The
    axial products keep the order q Az K', q q Az K'' and -nu Az K sin chi
    rather than reusing Az K: the last digits of the Newton-polished minimum
    follow these bits.
    """
    nu = sol.mode.nu
    az, bz, psi = _z_amplitudes(sol)
    if outside:
        x = sol.q_per_nm * r
        f, fd = _k_and_deriv(nu, x)
        k_m, n, pre = sol.q_per_nm * 1e9, sol.fiber.n_clad, 1j
        az, bz = az * sol.j_u / sol.k_w, bz * sol.j_u / sol.k_w
    else:
        x = sol.h_per_nm * r
        f, fd = _j_and_deriv(nu, x)
        k_m, n, pre = sol.h_per_nm * 1e9, sol.fiber.n_core, -1j
    fox = f / x
    # TE/TM have no phi dependence: a scalar chi spares the array cos/sin
    chi = nu * phi + psi if nu else psi
    cc, ss = np.cos(chi), np.sin(chi)
    a, b, mu, t1, t2, sign = ((bz, az, _EPS0 * n ** 2, ss, cc, pre) if want_h
                              else (az, bz, _MU0, cc, ss, -pre))
    bk, wk = sol.beta_per_m / k_m, sol.omega * mu / k_m
    c1, c2 = pre * bk * a, pre * (wk * nu) * b
    d1, d2 = sign * (bk * nu) * a, sign * wk * b

    def radial(g, g_ox):
        # transverse radial factors at f' -> g and f/x -> g_ox
        return c1 * g + c2 * g_ox, d1 * g_ox + d2 * g

    fr, fp = radial(fd, fox)
    e = (fr * t1, fp * t2, a * f * t1)
    if not jacobian:
        return e
    q = sol.q_per_nm
    # modified Bessel equation: K'' = (1 + nu^2/x^2) K - K'/x, and by its
    # derivative K''' = (1 + nu^2/x^2) K' - 2 nu^2 K/x^3 - (K'' - K'/x)/x
    fdd = (1.0 + (nu / x) ** 2) * f - fd / x
    fddd = ((1.0 + (nu / x) ** 2) * fd - 2.0 * nu * nu * f / x ** 3
            - (fdd - fd / x) / x)
    fox_d = fd / x - f / x ** 2
    fox_dd = (fdd - 2.0 * fox_d) / x
    # radial factors of dE/dr and d2E/dr2, ahead of cos or sin chi
    g1 = (*(q * g for g in radial(fdd, fox_d)), q * az * fd)
    g2 = (*(q * q * g for g in radial(fddd, fox_dd)), q * q * az * fdd)
    return (e, (g1[0] * cc, g1[1] * ss, g1[2] * cc),
            (-nu * fr * ss, nu * fp * cc, -nu * az * f * ss),
            (g2[0] * cc, g2[1] * ss, g2[2] * cc),
            (-nu * g1[0] * ss, nu * g1[1] * cc, -nu * g1[2] * ss))


def transverse_fields(sol, r_nm, phi, want_h=False):
    """E (or H, with want_h) transverse profile at z = 0: (F_r, F_phi, F_z).

    Three arrays of the broadcast shape of r and phi, in V/m or A/m, complex
    but for the vanishing E_z of TE and H_z of TM; the mode's field is this
    profile times e^{-i beta z}. When every point lies on one side of the
    core boundary, r and phi keep their own shapes through the kernel, so
    open axes r[:, None], phi[None, :] cost one Bessel evaluation per
    radius and one cos/sin per azimuth, and the components broadcast only
    at the end (as read-only views). A batch that crosses the boundary is
    broadcast and split into its interior and exterior points.
    """
    r = np.maximum(np.asarray(r_nm, dtype=float), _R_FLOOR_NM)
    phi = np.asarray(phi, dtype=float)
    shape = np.broadcast_shapes(r.shape, phi.shape)
    inner = r <= sol.fiber.radius_nm
    if inner.all() or not inner.any():
        return tuple(np.broadcast_to(val, shape) for val in
                     _side_fields(sol, r, phi, want_h, not inner.any()))
    r, phi, inner = np.broadcast_arrays(r, phi, inner)
    comps = tuple(np.zeros(shape, dtype=complex) for _ in range(3))
    for side, outside in ((inner, False), (~inner, True)):
        vals = _side_fields(sol, r[side], phi[side], want_h, outside)
        for comp, val in zip(comps, vals):
            comp[side] = val
    return comps


def e_field(sol, r_nm, phi, z_nm):
    """Complex electric field in cylindrical components (E_r, E_phi, E_z), V/m.

    Inputs broadcast; the result has one trailing axis of length 3. Valid on
    both sides of the core boundary; on-axis points return the finite limit.
    E(r, phi, z) = E_perp(r, phi) e^{-i beta z}: the transverse part
    (transverse_fields) is evaluated on r and phi alone and the phase on
    z's own shape, so open axes such as r[:, None, None], phi[None, :, None],
    z[None, None, :] cost one transverse evaluation per (r, phi), whatever
    the number of z values, and, when the radii lie on one side of the
    core, one Bessel evaluation per r and one cos/sin per phi.
    """
    return np.stack(transverse_fields(sol, r_nm, phi), axis=-1) * _phase(
        sol, z_nm)


def h_field(sol, r_nm, phi, z_nm):
    """Complex magnetic field in cylindrical components (H_r, H_phi, H_z), A/m.

    Broadcasts as e_field: H(r, phi, z) = H_perp(r, phi) e^{-i beta z}, with
    the transverse part evaluated on r and phi alone.
    """
    return np.stack(transverse_fields(sol, r_nm, phi, want_h=True),
                    axis=-1) * _phase(sol, z_nm)


def e_field_exterior_jacobian(sol, r_nm, phi, z_nm):
    """Electric field and its first two derivatives at one exterior point.

    r_nm, phi and z_nm are one point (a batch raises TypeError). Returns
    (e, de, d2e) of shapes (3,), (3, 3) and (3, 3, 3): e is e_field's
    value, from the same exterior kernel, in cylindrical components;
    de[i] and d2e[i, j] are its derivatives along coordinates i and j of
    (r, phi, z), per nm of r and z and per rad of phi. d2/dphi2 is a factor
    of -nu^2 and d/dz one of -i beta. Valid only for r > a (raises
    ValueError otherwise).
    """
    # np.float64: far out, x ** 3 overflows to inf with a warning, as in
    # the array kernels, instead of raising OverflowError
    r, phi, z = np.float64(float(r_nm)), float(phi), float(z_nm)
    if r <= sol.fiber.radius_nm:
        raise ValueError("exterior jacobian requires r > fiber radius")
    phase = np.exp(-1j * sol.beta_per_nm * z)
    e, dr, dphi, drr, drphi = (np.array(vals) * phase for vals in
                               _side_fields(sol, r, phi, False, True, True))
    kz = -1j * sol.beta_per_nm
    de = np.array([dr, dphi, kz * e])
    d2e = np.array([[drr, drphi, kz * dr],
                    [drphi, -sol.mode.nu ** 2 * e, kz * dphi], kz * de])
    return e, de, d2e


def cartesian_components(field_cyl, phi):
    """Convert cylindrical vector components to Cartesian at azimuth phi."""
    phi = np.asarray(phi, dtype=float)
    fr, fphi, fz = field_cyl[..., 0], field_cyl[..., 1], field_cyl[..., 2]
    fx = fr * np.cos(phi) - fphi * np.sin(phi)
    fy = fr * np.sin(phi) + fphi * np.cos(phi)
    return np.stack([fx, fy, fz], axis=-1)


def mode_power(sol):
    """Total axial power of the mode (W), by fixed-rule radial quadrature.

    The azimuthal integral is exact: every component is cos or sin of
    (nu phi + psi), so the azimuthal average of the Poynting density is half
    the sum of its values at the two quadrature azimuths (all of it at one
    azimuth for nu = 0); E and H take one transverse_fields call each on
    open axes, the radial nodes against the azimuths, at z = 0 where the
    phase is 1. The core is one Gauss-Legendre rule in r.
    The cladding is one in t = ln(r/a), which keeps the K_nu tail smooth
    even near cutoff, where it decays slowly; it ends at q (r - a) = 40,
    where K_nu(q r)^2 has fallen by e^-80.
    """
    nu = sol.mode.nu
    if nu == 0:
        phis = np.array([0.0])
        weight = 2.0 * np.pi
    else:
        _, _, psi = _z_amplitudes(sol)
        phis = np.array([(0.0 - psi) / nu, (0.5 * np.pi - psi) / nu])
        weight = np.pi

    def ring(r):
        # time-averaged axial Poynting density, W/m^2
        e_r, e_phi, _ = transverse_fields(sol, r[:, np.newaxis], phis)
        h_r, h_phi, _ = transverse_fields(sol, r[:, np.newaxis], phis, True)
        s_z = 0.5 * np.real(e_r * np.conj(h_phi) - e_phi * np.conj(h_r))
        return sum(s_z.T) * r

    a = sol.fiber.radius_nm
    inner = numerics.integrate(ring, 0.0, a)
    outer = numerics.integrate(lambda t: ring(a * np.exp(t)) * a * np.exp(t),
                               0.0, np.log1p(40.0 / sol.w))
    # r dr carries nm^2; fields are SI, so scale to m^2.
    return weight * (inner + outer) * 1e-18


def normalize_power(sol, power_mw):
    """Rescale the mode amplitude so its Poynting flux equals power_mw.

    Returns a new solution; zero power gives a zero field. The amplitude
    follows from the unit-amplitude power that solve_mode stored
    (unit_power_w), so no normalization integrates the fields again.
    """
    if power_mw < 0.0:
        raise ValueError("power must be non-negative")
    if power_mw == 0.0:
        return replace(sol, amplitude=0.0, power_mw=0.0)
    amp = np.sqrt(power_mw * 1e-3 / sol.unit_power_w)
    return replace(sol, amplitude=float(amp), power_mw=float(power_mw))


def dispersion_sweep(fiber, v_lo, v_hi, points):
    """(V, mode name, beta/k0) rows for the first seven mode branches.

    Rows are ordered by V, then by descending beta within each V. Branches
    below cutoff at a given V are simply absent there. All seven branches
    have azimuthal order at most 3, so the census has each of them at any
    V, above the HE41 cutoff too (see supported_modes).
    """
    if not 0.0 < v_lo <= v_hi:
        raise ValueError("require 0 < v_lo <= v_hi")
    rows = []
    for v in np.linspace(v_lo, v_hi, points):
        for name, fam, nu, m, neff in _census(v, fiber.n_core, fiber.n_clad):
            if name in _SWEEP_MODES:
                rows.append((float(v), name, float(neff)))
    return rows
