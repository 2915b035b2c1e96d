"""Low-level numerical kernels: Bessel evaluations, root finding, quadrature.

Every routine validates its domain and raises early; the physics modules above
rely on these contracts instead of re-checking. Each Bessel call returns a
range of orders from one evaluation: J_lo..J_hi (0 <= lo <= hi <= 4) and
K_0..K_top. The Bessel kernels are fixed polynomials, sized for the
arguments the mode solver produces (J at |x| <= 6.5, K at x in (0, 45]):
power series for J_0..J_4 and for K_0, K_1 at x <= 2 (Abramowitz & Stegun
9.1.10, 9.6.10-9.6.13), and beyond 2 a fit of e^x sqrt(x) K_0,1(x) in
4/x - 1. Each formula is written once, in one kernel per function that
runs on a Python float or a 1-D array alike; _Polys, which evaluates the
polynomials, is the one place that picks a float loop or numpy, so a
scalar and an array point give the same bits. Root finding is a Python
port of scipy's brentq.c (Brent's method), which gives the same roots bit
for bit, and the Gauss-Legendre rule a port of numpy's leggauss, which
gives the same nodes and weights bit for bit. The series tables are built
with integer arithmetic, so the package imports no scipy, numpy.random,
numpy.polynomial or fractions module.
"""

import functools
import math

import numpy as np

from .errors import ConvergenceError

_ROOT_MAX_ITER = 200
# relative root tolerance: the smallest rtol that scipy's brentq allows
_ROOT_RTOL = 4.0 * float(np.finfo(float).eps)
# node count of integrate()'s fixed Gauss-Legendre rule
_GAUSS_NODES = 48

# Euler's gamma to 47 digits: _GAMMA_NUM / 10**47
_GAMMA_NUM = 57721566490153286060651209008240243104215933594
_GAMMA_DEN = 10 ** 47


class _Polys:
    """Polynomials in one variable that share it, evaluated together.

    rows are coefficient sequences, lowest power first, all the same length.
    Called with t, it returns row i's value at index i: a list of Python
    floats for a float t, a (rows, n) array for a 1-D array t. Both forms
    run Horner's rule with the same operations in the same order, so an
    array point gets the float's bits. This is the one place where the
    Bessel kernels tell a float from an array. The float loop stays because
    most Bessel calls are scalar: a preset's report makes 16 to 18 scalar J
    and 140 to 152 scalar K calls against 6 and 26 array calls, and a
    201-point dispersion sweep 4,291 scalar calls of each against 1,005
    array calls; and a 1-element array call costs 5 to 10 times a float
    call (tests/layer_cost.py measures both).
    """

    def __init__(self, *rows):
        self.rows = tuple(tuple(float(c) for c in reversed(row)) for row in rows)
        # (power, row, 1), highest power first, broadcasting over the points
        self.cols = np.array(self.rows).T[:, :, np.newaxis].copy()

    def __call__(self, t, rows=slice(None)):
        if isinstance(t, float):
            out = []
            for row in self.rows[rows]:
                acc = row[0]
                for c in row[1:]:
                    acc = acc * t + c
                out.append(acc)
            return out
        cols = self.cols[:, rows]
        out = cols[0] * t
        out += cols[1]
        for c in cols[2:]:
            out *= t
            out += c
        return out


def _harmonic(k):
    """The k-th harmonic number as an integer pair (numerator, denominator)."""
    num, den = 0, 1
    for j in range(1, k + 1):
        num, den = num * j + den, den * j
    return num, den


def _harmonic_pair(k):
    """H_k + H_(k+1) = 2 H_k + 1/(k+1) as an integer pair."""
    num, den = _harmonic(k)
    return 2 * (k + 1) * num + den, (k + 1) * den


def _minus_gamma(h, m, div):
    """(h - m gamma) / div for h = (num, den) and integers m, div.

    One int / int true division, which Python rounds correctly, so the float
    is the one float(Fraction) gives for the same rational.
    """
    num, den = h
    return ((num * _GAMMA_DEN - m * _GAMMA_NUM * den)
            / (den * _GAMMA_DEN * div))


# J_n(x) = (x/2)^n sum_k (-y)^k / (k! (k+n)!) with y = x^2/4 (A&S 9.1.10),
# one row per order 0..4. 21 terms reach full precision for |x| <= 6.5,
# the mode solver's range, where the largest term is about 33 and the
# rounding error stays below 1e-14 absolute. Truncation takes over beyond
# J_MAX_ARG (1e-12 at x = 9), so larger arguments raise.
J_MAX_ARG = 8.0
J_MAX_ORDER = 4
_J_SERIES = _Polys(*(
    [(-1) ** k / (math.factorial(k) * math.factorial(k + n))
     for k in range(21)] for n in range(J_MAX_ORDER + 1)))

# K_0 and K_1 at x <= 2 from four series in y = x^2/4 (A&S 9.6.10, 9.6.11,
# 9.6.13), H_k being the k-th harmonic number and psi(k+1) = H_k - gamma:
#   I_0(x),  sum (H_k - gamma) y^k / k!^2,  I_1(x) / (x/2),
#   sum (psi(k+1) + psi(k+2))/2 y^k / (k! (k+1)!);
# K_0 = row1 - ln(x/2) row0 and K_1 = 1/x + (x/2)(ln(x/2) row2 - row3).
# 14 terms reach full precision at y = 1. Each coefficient is one exact
# rational rounded once.
_K_NEAR = _Polys(
    [1 / math.factorial(k) ** 2 for k in range(14)],
    [_minus_gamma(_harmonic(k), 1, math.factorial(k) ** 2) for k in range(14)],
    [1 / (math.factorial(k) * math.factorial(k + 1)) for k in range(14)],
    [_minus_gamma(_harmonic_pair(k), 2,
                  2 * math.factorial(k) * math.factorial(k + 1))
     for k in range(14)])

# e^x sqrt(x) K_0(x) and e^x sqrt(x) K_1(x) at x > 2 as polynomials in
# t = 4/x - 1, which maps (2, inf) onto (-1, 1). The coefficients are a
# degree-22 Chebyshev least-squares fit to sqrt(x) scipy.special.k0e(x) and
# k1e(x) at 4000 Chebyshev points of t (scipy 1.17.1), converted to powers
# of t; the Chebyshev coefficients beyond degree 22 are at the data's
# noise floor, below 3e-17.
# (K_0, K_1) per power, lowest first.
_K_FAR = _Polys(*zip(
    (1.2185953385133903, 1.3631518903713427),
    (-0.03107146182489011, 0.10334973775386541),
    (0.003032891810273102, -0.0055667298800760765),
    (-0.00047976905671567096, 0.0007357241548667289),
    (9.956054749458053e-05, -0.00013959021955158658),
    (-2.4735205786799262e-05, 3.2843866739994355e-05),
    (7.00224446314243e-06, -8.961207295399651e-06),
    (-2.1911638718492037e-06, 2.730027112859201e-06),
    (7.427903963264932e-07, -9.067110263477184e-07),
    (-2.6899559878544746e-07, 3.230758996822773e-07),
    (1.029019983750535e-07, -1.2201560040965828e-07),
    (-4.098947458301969e-08, 4.808233232638229e-08),
    (1.7212133490014296e-08, -1.9878242326146293e-08),
    (-8.17123166652452e-09, 9.380513434368102e-09),
    (3.4794335123535774e-09, -4.1986521786532254e-09),
    (-4.6359529291769064e-10, 5.566013696729241e-10),
    (4.659481873424337e-10, -2.624126795499749e-10),
    (-1.4059023531867985e-09, 1.5710363880912477e-09),
    (4.855048851101813e-10, -7.460687234074135e-10),
    (5.189125793064665e-10, -5.786844575277756e-10),
    (-1.676335464041129e-10, 2.7385552421904073e-10),
    (-1.9199441039635057e-10, 2.1352850634852983e-10),
    (8.1948723517698e-11, -1.0695943157837084e-10),
))


def _j(x, lo, hi):
    """[J_lo(x), ..., J_hi(x)] for a float or a 1-D array x."""
    h = 0.5 * x
    sums = _J_SERIES(h * h, slice(lo, hi + 1))
    # an np.float64 (x/2)^n makes the values of a float x np.float64 too
    hn = np.float64(1.0)
    for n in range(hi + 1):
        if n >= lo:
            sums[n - lo] *= hn
        hn = hn * h
    return list(sums)


def bessel_j_orders(x, lo, hi):
    """[J_lo(x), ..., J_hi(x)] for 0 <= lo <= hi <= 4, by power series.

    A scalar x gives np.float64 values, an array x arrays of its shape.
    Accurate to 1e-14 absolute for |x| <= 6.5, the range the mode solver
    uses. Raises ValueError for an order range outside 0..J_MAX_ORDER and
    where |x| > J_MAX_ARG, beyond the series' reach, or x is NaN.
    """
    if not 0 <= lo <= hi <= J_MAX_ORDER:
        raise ValueError(
            f"Bessel J orders {lo}..{hi} outside 0..{J_MAX_ORDER}")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    largest = abs(float(arr)) if scalar else np.abs(arr).max(initial=0.0)
    # negated, so that a NaN fails the test
    if not largest <= J_MAX_ARG:
        raise ValueError(f"Bessel J series covers |x| <= {J_MAX_ARG}")
    if scalar:
        return _j(float(arr), lo, hi)
    return [j.reshape(arr.shape) for j in _j(arr.reshape(-1), lo, hi)]


def _k01_near(x):
    """(K_0(x), K_1(x)) at 0 < x <= 2 by the series, x a float or 1-D array."""
    s = _K_NEAR(0.25 * x * x)
    lg = np.log(0.5 * x)
    return s[1] - lg * s[0], 1.0 / x + (lg * s[2] - s[3]) * (0.5 * x)


def _k01_far(x):
    """(K_0(x), K_1(x)) at x > 2 by the fit, x a float or 1-D array."""
    p = _K_FAR(4.0 / x - 1.0)
    f = np.exp(-x) / np.sqrt(x)
    return p[0] * f, p[1] * f


def bessel_k_orders(x, top):
    """[K_0(x), ..., K_top(x)] at x > 0, for top >= 1.

    K_0 and K_1 come from one fused kernel: the series at x <= 2, the fit
    beyond, each run only on its own points. Higher orders follow the upward
    recurrence, stable here because every term is positive. A scalar x gives
    np.float64 values, an array x arrays of its shape. K diverges at 0 and is
    undefined below, so x <= 0 or NaN raises ValueError, as does top < 1.
    """
    if top < 1:
        raise ValueError(f"Bessel K top order {top} below 1")
    x = np.asarray(x, dtype=float)
    if not (x > 0.0).all():
        raise ValueError("Bessel K requires x > 0")
    if x.ndim == 0:
        x = float(x)
        # np.log and np.exp make both values np.float64
        ks = list((_k01_near if x <= 2.0 else _k01_far)(x))
    else:
        flat = x.reshape(-1)
        near = flat <= 2.0
        ks = np.empty((2, flat.size))
        for kernel, mask in ((_k01_near, near), (_k01_far, ~near)):
            if mask.all():
                ks = kernel(flat)
                break
            if mask.any():
                ks[0, mask], ks[1, mask] = kernel(flat[mask])
        ks = [k.reshape(x.shape) for k in ks]
    for n in range(1, top):
        ks.append(ks[-1] * (2.0 * n / x) + ks[-2])
    return ks


def find_root(f, lo, hi, tol=1e-12):
    """Locate a root of f inside the bracket [lo, hi].

    The bracket must show a sign change. Brent's method (R. P. Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4): inverse
    quadratic or secant steps, safeguarded by bisection. The loop is a
    line-for-line port of scipy's brentq.c (optimize/Zeros/brentq.c in scipy)
    with xtol = tol, rtol = 4 eps and at most _ROOT_MAX_ITER iterations, so
    it returns the same float as scipy's brentq, bit for bit. Each end
    of the bracket is evaluated once. Raises ValueError when the bracket is
    invalid or carries no sign change and ConvergenceError when f evaluates
    to a non-finite value or the iteration cap is hit.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)) or not lo < hi:
        raise ValueError(f"invalid bracket ({lo!r}, {hi!r})")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")

    def checked(x):
        y = f(x)
        if not np.isfinite(y):
            raise ConvergenceError(f"objective returned non-finite value {y!r} at x={x!r}")
        return float(y)

    # Python floats throughout, so np.float64 ends do not spread to the iterates
    xpre, xcur = float(lo), float(hi)
    fpre, fcur = checked(xpre), checked(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError(f"no sign change on bracket ({lo!r}, {hi!r})")
    xtol = float(tol)
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # an underflowed slope gives C an infinite or nan step, which
                # the test below rejects; Python would raise instead
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = checked(xcur)
    raise ConvergenceError(
        f"root iteration failed to converge in {_ROOT_MAX_ITER} steps, last x={xcur!r}")


def _legval(x, c):
    """Legendre series sum c[k] P_k(x) by numpy's legval Clenshaw recurrence.

    The same operations in the same order as numpy 2.4's legval, so the
    same bits.
    """
    if len(c) == 1:
        c0, c1 = c[0], 0.0
    elif len(c) == 2:
        c0, c1 = c
    else:
        nd = len(c)
        c0, c1 = c[-2], c[-1]
        for i in range(3, len(c) + 1):
            tmp = c0
            nd = nd - 1
            c0 = c[-i] - c1 * ((nd - 1) / nd)
            c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@functools.lru_cache(maxsize=None)
def _gauss_rule(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    A port of numpy.polynomial.legendre.leggauss (numpy 2.4), bit for bit:
    the eigenvalues of P_n's scaled symmetric companion matrix, one Newton
    step on P_n, and weights 1 / (P_(n-1) P_n') scaled to sum to 2, both
    symmetrized. Built once per n; the arrays are read-only because every
    caller shares them.
    """
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    mat = np.zeros((n, n))
    off = np.arange(1, n) * scl[:n - 1] * scl[1:n]
    mat.reshape(-1)[1::n + 1] = off
    mat.reshape(-1)[n::n + 1] = off
    x = np.linalg.eigvalsh(mat)
    # P_n as a series, and P_n' = sum (2k + 1) P_k over k = n-1, n-3, ...,
    # the integers legder gives
    c = [0.0] * n + [1.0]
    der = [float(2 * k + 1) if (n - 1 - k) % 2 == 0 else 0.0
           for k in range(n)]
    dy = _legval(x, c)
    df = _legval(x, der)
    x -= dy / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def integrate(f, lo, hi):
    """Definite integral of f over the finite interval [lo, hi].

    Fixed _GAUSS_NODES-point Gauss-Legendre rule: f is called once, with the
    array of nodes, and must return one value per node. The rule is exact
    for polynomials of degree below 2 * _GAUSS_NODES; a slowly decaying tail
    should be mapped to a variable in which it is smooth (as modes.mode_power
    does with ln r).
    Raises ValueError for a non-finite limit and ConvergenceError when the
    value is not finite.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"integration limits must be finite, got ({lo!r}, {hi!r})")
    x, w = _gauss_rule(_GAUSS_NODES)
    half = 0.5 * (hi - lo)
    value = float(half * np.dot(w, f(lo + half * (x + 1.0))))
    if not np.isfinite(value):
        raise ConvergenceError(f"integral evaluated to a non-finite value {value!r}")
    return value

