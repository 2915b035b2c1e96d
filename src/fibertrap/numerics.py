"""Low-level numerical kernels: Bessel evaluations, root finding, quadrature, Hessians.

Every routine validates its domain and raises early; the physics modules above
rely on these contracts instead of re-checking. Bessel orders are limited to the
set actually used by the mode solver. The Bessel functions come from
scipy.special, the only scipy module the package imports; root finding is a
Python port of scipy's brentq.c (Brent's method), which gives the same roots
bit for bit without the start-up cost of importing scipy's optimizers.
"""

import functools
import math

import numpy as np
from scipy import special as _sci_special

from .errors import ConvergenceError

SUPPORTED_ORDERS = (0, 1, 2, 3)

_ROOT_MAX_ITER = 200
# relative root tolerance: the smallest rtol that scipy's brentq allows
_ROOT_RTOL = 4.0 * float(np.finfo(float).eps)
# node count of integrate()'s fixed Gauss-Legendre rule
_GAUSS_NODES = 48


def _check_order(order):
    if order not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported Bessel order {order!r}; supported: {SUPPORTED_ORDERS}")


def bessel_j(order, x):
    """Bessel function of the first kind J_order(x).

    Accepts scalars or arrays; order must be in SUPPORTED_ORDERS.
    """
    _check_order(order)
    return _sci_special.jv(order, x)


def _k_orders(arr, top):
    # Cephes k0/k1 are several times faster than the generic kv path on the
    # large arrays the field evaluator produces; higher orders follow the
    # upward recurrence, stable here because every term is positive.
    ks = [_sci_special.k0(arr), _sci_special.k1(arr)]
    for n in range(1, top):
        ks.append(ks[-1] * (2.0 * n / arr) + ks[-2])
    return ks


def bessel_k(order, x):
    """Modified Bessel function of the second kind K_order(x), x > 0.

    K_nu diverges at 0 and is undefined for x <= 0, so those inputs raise.
    """
    _check_order(order)
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("bessel_k requires x > 0")
    if order == 0:
        return _sci_special.k0(arr)
    if order == 1:
        return _sci_special.k1(arr)
    return _k_orders(arr, order)[order]


def bessel_j_deriv(order, x):
    """First derivative of J_order at x.

    Orders 0..2 follow J'_n = (J_{n-1} - J_{n+1})/2; order 3 uses the
    equivalent recurrence J'_3 = J_2 - (3/x) J_3 to stay inside the
    supported order set.
    """
    _check_order(order)
    arr = np.asarray(x, dtype=float)
    if order == 3:
        out = np.where(arr != 0.0,
                       _sci_special.jv(2, arr) - np.divide(3.0, arr, out=np.ones_like(arr),
                                                           where=arr != 0.0) * _sci_special.jv(3, arr),
                       0.0)
        return out if out.shape else float(out)
    return _sci_special.jvp(order, x)


def bessel_k_deriv(order, x):
    """First derivative of K_order at x, x > 0.

    Uses K'_n = -(K_{n-1} + K_{n+1})/2, with K_{-1} = K_1 for the n = 0 case.
    """
    _check_order(order)
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("bessel_k_deriv requires x > 0")
    if order == 0:
        return -_sci_special.k1(arr)
    ks = _k_orders(arr, order + 1)
    return -0.5 * (ks[order - 1] + ks[order + 1])


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


@functools.lru_cache(maxsize=None)
def _gauss_rule(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Built once per n; the arrays are read-only because every caller shares
    them.
    """
    x, w = np.polynomial.legendre.leggauss(n)
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


def hessian(f, point, steps):
    """Symmetric 3x3 Hessian of a scalar field by central second differences.

    point and steps are length-3 sequences; steps are per-axis displacement
    magnitudes. f is called once with the (19, 3) array of stencil points and
    must return their 19 values. Diagonal entries use the 3-point second
    difference, off-diagonal entries the 4-point mixed stencil. The result is
    symmetric by construction.
    """
    p = np.asarray(point, dtype=float)
    d = np.asarray(steps, dtype=float)
    if p.shape != (3,) or d.shape != (3,):
        raise ValueError("point and steps must be length-3 sequences")
    if np.any(d <= 0.0):
        raise ValueError("steps must be positive")

    e = np.diag(d)
    pairs = [(i, j) for i in range(3) for j in range(i + 1, 3)]
    # centre, then +e_i and -e_i per axis, then the four mixed points per pair
    offsets = [np.zeros(3)]
    for i in range(3):
        offsets += [e[i], -e[i]]
    for i, j in pairs:
        offsets += [e[i] + e[j], e[i] - e[j], -e[i] + e[j], -e[i] - e[j]]
    vals = np.asarray(f(p + np.array(offsets)), dtype=float)
    if vals.shape != (19,):
        raise ValueError(
            f"f returned shape {vals.shape} for the 19 stencil points")

    h = np.empty((3, 3), dtype=float)
    f0 = vals[0]
    for i in range(3):
        h[i, i] = (vals[1 + 2 * i] - 2.0 * f0 + vals[2 + 2 * i]) / d[i] ** 2
    for n, (i, j) in enumerate(pairs):
        pp, pm, mp, mm = vals[7 + 4 * n:11 + 4 * n]
        hij = (pp - pm - mp + mm) / (4.0 * d[i] * d[j])
        h[i, j] = hij
        h[j, i] = hij
    if not np.all(np.isfinite(h)):
        raise ConvergenceError("Hessian stencil produced non-finite entries")
    return h
