"""Unit tests for the numerical kernels.

Oracle values are hand-entered from standard mathematical tables rather than
recomputed, so a regression in the wrappers cannot hide behind itself. The
root finder ports scipy's brentq, so it is also checked against brentq itself
(tests/oracles.py), bit for bit.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fibertrap import config, modes, numerics, trapanalysis
from fibertrap.errors import ConvergenceError

# Abramowitz & Stegun style table entries.
J0_AT_1 = 0.7651976865579666
J1_AT_1 = 0.4400505857449335
K0_AT_1 = 0.4210244382407085
K1_AT_1 = 0.6019072301972346
J0_FIRST_ROOT = 2.404825557695773


j_orders = numerics.bessel_j_orders
k_orders = numerics.bessel_k_orders


class TestBesselValues:
    def test_j_table_entries(self):
        j0, j1 = j_orders(1.0, 0, 1)
        assert j0 == pytest.approx(J0_AT_1, rel=1e-14)
        assert j1 == pytest.approx(J1_AT_1, rel=1e-14)
        assert j_orders(J0_FIRST_ROOT, 0, 0)[0] == pytest.approx(0.0, abs=1e-14)

    def test_k_table_entries(self):
        k0, k1 = k_orders(1.0, 1)
        assert k0 == pytest.approx(K0_AT_1, rel=1e-14)
        assert k1 == pytest.approx(K1_AT_1, rel=1e-14)

    def test_k2_large_argument_asymptotics(self):
        # K_nu(x) ~ sqrt(pi/2x) e^-x [1 + (4nu^2-1)/8x + ...] for x >> nu^2
        x = 20.0
        mu = 4 * 2 ** 2
        series = (1.0 + (mu - 1) / (8 * x)
                  + (mu - 1) * (mu - 9) / (2 * (8 * x) ** 2)
                  + (mu - 1) * (mu - 9) * (mu - 25) / (6 * (8 * x) ** 3))
        expected = math.sqrt(math.pi / (2 * x)) * math.exp(-x) * series
        assert k_orders(x, 2)[2] == pytest.approx(expected, rel=1e-6)

    def test_j_recurrence(self):
        # J_{n-1} + J_{n+1} = (2n/x) J_n across the whole order range
        for x in (0.7, 2.3, 5.1):
            js = j_orders(x, 0, 4)
            for n in (1, 2, 3):
                assert js[n - 1] + js[n + 1] == pytest.approx(
                    (2.0 * n / x) * js[n], rel=1e-13)

    def test_k_recurrence(self):
        for x in (0.7, 2.3, 5.1):
            k0, k1, k2 = k_orders(x, 2)
            assert k2 == pytest.approx(k0 + (2.0 / x) * k1, rel=1e-13)

    def test_array_broadcast(self):
        x = np.array([0.5, 1.0, 2.0])
        out = j_orders(x, 1, 1)[0]
        assert out.shape == x.shape
        assert out[1] == pytest.approx(J1_AT_1, rel=1e-14)

    def test_unsupported_order_rejected(self):
        # the J series holds orders 0..4; a reversed range is an error too,
        # and so is a K range that stops short of K_1
        for lo, hi in ((0, 5), (-1, 1), (2, 1), (5, 5)):
            for x in (1.0, np.array([1.0, 2.0])):
                with pytest.raises(ValueError, match="outside 0..4"):
                    j_orders(x, lo, hi)
        with pytest.raises(ValueError):
            k_orders(1.0, 0)

    def test_k_requires_positive_argument(self):
        with pytest.raises(ValueError):
            k_orders(0.0, 1)
        with pytest.raises(ValueError):
            k_orders(-1.0, 1)
        with pytest.raises(ValueError):
            k_orders(np.array([1.0, 0.0]), 3)


class TestBesselDerivatives:
    """J'_nu and K'_nu as modes forms them, from one range call each."""

    def test_first_order_identities(self):
        # J0' = -J1 and K0' = -K1, exactly
        for x in (0.6, 1.0, 3.7):
            assert modes._j_and_deriv(0, x)[1] == -j_orders(x, 1, 1)[0]
            assert modes._k_and_deriv(0, x)[1] == -k_orders(x, 1)[1]

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("kind", ["J", "K"])
    def test_matches_central_difference(self, kind, order):
        pair = modes._j_and_deriv if kind == "J" else modes._k_and_deriv
        x, h = 2.31, 1e-6
        fd = (pair(order, x + h)[0] - pair(order, x - h)[0]) / (2 * h)
        assert pair(order, x)[1] == pytest.approx(fd, rel=1e-8)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_j_deriv_scalar_type(self, order):
        # every order returns np.float64 for a scalar and an array for an
        # array, from the range functions and from the helpers alike
        for pair in (modes._j_and_deriv, modes._k_and_deriv):
            assert all(type(v) is np.float64 for v in pair(order, 1.3))
            assert all(v.shape == (2,) for v in
                       pair(order, np.array([1.3, 2.0])))
        assert all(type(v) is np.float64 for v in j_orders(1.3, 0, order))
        assert all(type(v) is np.float64 for v in k_orders(1.3, order + 1))


class TestBesselKernels:
    """The in-house series and fits against scipy.special, and their bits."""

    @staticmethod
    def ulps(ours, ref):
        return np.abs(ours - ref) / np.spacing(ref)

    def test_k0_k1_within_32_ulp(self):
        special = pytest.importorskip("scipy.special")
        x = np.concatenate([np.geomspace(1e-6, 2.0, 100_001),
                            np.linspace(2.0, 45.0, 200_001), [100.0, 700.0]])
        k0, k1 = k_orders(x, 1)
        assert self.ulps(k0, special.k0(x)).max() <= 32
        assert self.ulps(k1, special.k1(x)).max() <= 32

    def test_j0_to_j4_within_1e_14(self):
        special = pytest.importorskip("scipy.special")
        x = np.linspace(0.0, 6.5, 200_001)
        for n, jn in enumerate(j_orders(x, 0, 4)):
            assert np.abs(jn - special.jv(n, x)).max() <= 1e-14, n

    def test_j_beyond_series_range_rejected(self):
        with pytest.raises(ValueError):
            j_orders(8.5, 0, 0)
        with pytest.raises(ValueError):
            modes._j_and_deriv(1, np.array([1.0, -9.0]))

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.one_of(st.floats(min_value=1e-4, max_value=2.0),
                              st.floats(min_value=2.0, max_value=45.0)),
                    min_size=1, max_size=40))
    def test_k_scalar_equals_batched_bits(self, xs):
        # a batch mixing near (x <= 2) and far points runs both branches
        batched = k_orders(np.array(xs), 3)
        for i, x in enumerate(xs):
            single = k_orders(x, 3)
            assert np.array([k[i] for k in batched]).tobytes() == (
                np.array(single).tobytes())

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.floats(min_value=-6.5, max_value=6.5),
                    min_size=1, max_size=40))
    def test_j_scalar_equals_batched_bits(self, xs):
        batched = j_orders(np.array(xs), 0, 4)
        for i, x in enumerate(xs):
            assert np.array([j[i] for j in batched]).tobytes() == (
                np.array(j_orders(x, 0, 4)).tobytes())

    def test_series_tables_match_exact_rationals(self):
        # the integer-arithmetic tables against the same coefficients built
        # as Fractions and rounded once by float(Fraction)
        fact = math.factorial
        gamma = Fraction("0.57721566490153286060651209008240243104215933594")

        def harmonic(k):
            return sum((Fraction(1, j) for j in range(1, k + 1)), Fraction(0))

        j_rows = numerics._Polys(*(
            [Fraction((-1) ** k, fact(k) * fact(k + n)) for k in range(21)]
            for n in range(numerics.J_MAX_ORDER + 1)))
        k_rows = numerics._Polys(
            [Fraction(1, fact(k) ** 2) for k in range(14)],
            [(harmonic(k) - gamma) / fact(k) ** 2 for k in range(14)],
            [Fraction(1, fact(k) * fact(k + 1)) for k in range(14)],
            [(harmonic(k) + harmonic(k + 1) - 2 * gamma)
             / (2 * fact(k) * fact(k + 1)) for k in range(14)])
        for ours, exact in ((numerics._J_SERIES, j_rows),
                            (numerics._K_NEAR, k_rows)):
            assert np.array(ours.rows).tobytes() == (
                np.array(exact.rows).tobytes())


class TestFindRoot:
    def test_known_root_of_sine(self):
        root = numerics.find_root(math.sin, 3.0, 4.0)
        assert root == pytest.approx(math.pi, abs=1e-11)

    def test_bessel_root(self):
        root = numerics.find_root(lambda x: j_orders(x, 0, 0)[0], 2.0, 3.0)
        assert root == pytest.approx(J0_FIRST_ROOT, abs=1e-10)

    def test_endpoint_zero_returned(self):
        assert numerics.find_root(lambda x: x - 2.0, 2.0, 5.0) == 2.0
        assert numerics.find_root(lambda x: x - 5.0, 2.0, 5.0) == 5.0

    def test_invalid_bracket(self):
        with pytest.raises(ValueError):
            numerics.find_root(math.sin, 4.0, 3.0)

    def test_no_sign_change(self):
        with pytest.raises(ValueError):
            numerics.find_root(lambda x: 1.0 + x * x, -1.0, 1.0)

    def test_non_finite_objective(self):
        with pytest.raises(ConvergenceError):
            numerics.find_root(lambda x: math.nan, 0.0, 1.0)

    def test_bracket_ends_evaluated_once(self):
        calls = []

        def f(x):
            calls.append(x)
            return math.sin(x) - 0.3

        assert numerics.find_root(f, 0.0, 1.0) == pytest.approx(
            math.asin(0.3), abs=1e-12)
        assert calls.count(0.0) == calls.count(1.0) == 1
        assert len(calls) == 8

    @settings(deadline=None, max_examples=50)
    @given(st.floats(min_value=-10.0, max_value=10.0,
                     allow_nan=False, allow_infinity=False))
    def test_recovers_planted_root(self, t):
        # strictly increasing cubic with its only real root at t
        f = lambda x: (x - t) * (1.0 + (x - t) ** 2)
        root = numerics.find_root(f, t - 5.0, t + 5.0)
        assert root == pytest.approx(t, abs=1e-9)

    def test_tolerance_must_be_positive(self):
        for tol in (0.0, -1e-12, math.nan):
            with pytest.raises(ValueError):
                numerics.find_root(math.sin, 3.0, 4.0, tol=tol)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(numerics, "_ROOT_MAX_ITER", 2)
        with pytest.raises(ConvergenceError):
            numerics.find_root(math.sin, 3.0, 4.0)

    def test_numpy_ends_return_a_python_float(self):
        lo, hi = np.float64(3.0), np.float64(4.0)
        assert type(numerics.find_root(math.sin, lo, hi)) is float
        assert type(numerics.find_root(lambda x: x - 3.0, lo, hi)) is float


class TestFindRootMatchesBrentq:
    """find_root ports scipy's brentq.c, so it returns brentq's root bit for bit."""

    @staticmethod
    def assert_brentq_roots(calls):
        for f, lo, hi, tol, root in calls:
            assert type(root) is float
            assert root == oracles.brentq_root(f, lo, hi, tol)

    @pytest.fixture
    def root_calls(self, monkeypatch):
        """Every find_root call made through the numerics module, with its root."""
        calls = []
        find_root = numerics.find_root

        def recording(f, lo, hi, tol=1e-12):
            root = find_root(f, lo, hi, tol=tol)
            calls.append((f, lo, hi, tol, root))
            return root

        monkeypatch.setattr(numerics, "find_root", recording)
        return calls

    @settings(deadline=None, max_examples=200)
    @given(st.floats(min_value=-10.0, max_value=10.0),
           st.floats(min_value=1e-6, max_value=3.0),
           st.floats(min_value=1e-6, max_value=3.0),
           st.floats(min_value=-15.0, max_value=-6.0),
           st.sampled_from(["cubic", "sine", "exp", "steep", "tiny"]))
    def test_planted_roots(self, t, below, above, log_tol, shape):
        # each shape has its only root in (-pi, pi) at d = 0
        g = {"cubic": lambda d: d * (1.0 + d * d),
             "sine": math.sin,
             "exp": math.expm1,
             "steep": lambda d: math.atan(1e6 * d),
             # slope products underflow to 0 in the extrapolation step
             "tiny": lambda d: 1e-200 * d * (1.0 + d * d)}[shape]
        f = lambda x: g(x - t)
        tol = 10.0 ** log_tol
        root = numerics.find_root(f, t - below, t + above, tol=tol)
        self.assert_brentq_roots([(f, t - below, t + above, tol, root)])

    def test_mode_equation_brackets(self, root_calls):
        fiber = config.preset("he11-te01").fiber
        for v in np.linspace(0.5, 6.0, 30):
            for family, nu in (("TE", 0), ("TM", 0), ("HE", 1), ("HE", 2),
                               ("HE", 3)):
                modes._char_roots(
                    float(v), fiber.n_core, fiber.n_clad, family, nu)
        assert len(root_calls) > 50
        self.assert_brentq_roots(root_calls)

    def test_turning_point_crossings(self, root_calls, suite):
        cases = [(suite.field(name), suite.minimum(name),
                  config.thermal_state(suite.cfg(name)).e_init)
                 for name in suite.names]
        root_calls.clear()  # drop the mode solves of the field builds
        for case in cases:
            trapanalysis.turning_points(*case)
        # two per axis and preset on the two marched axes; the axial pair
        # is closed form
        assert len(root_calls) == 12
        self.assert_brentq_roots(root_calls)


class TestIntegrate:
    def test_polynomial_exact(self):
        # an n-point Gauss-Legendre rule integrates x^(2n-1) exactly
        k = 2 * numerics._GAUSS_NODES - 1
        assert numerics.integrate(lambda x: x ** k, 0.0, 1.0) == pytest.approx(
            1.0 / (k + 1), rel=1e-12)

    def test_sine_over_half_period(self):
        assert numerics.integrate(np.sin, 0.0, math.pi) == pytest.approx(
            2.0, rel=1e-12)

    def test_bessel_product_closed_form(self):
        # d/dx [x^2/2 (K1^2 - K0 K2)] = -x K1^2, so
        # int_1^41 x K1(x)^2 dx = (K0(1) K2(1) - K1(1)^2) / 2 - [same at 41];
        # the value at 41 is below 1e-35 and is dropped. Over t = ln x the
        # exponential tail is smooth enough for the fixed rule.
        k2_at_1 = K0_AT_1 + 2.0 * K1_AT_1  # recurrence at x = 1
        expected = (K0_AT_1 * k2_at_1 - K1_AT_1 ** 2) / 2.0
        got = numerics.integrate(
            lambda t: np.exp(2.0 * t) * k_orders(np.exp(t), 1)[1] ** 2,
            0.0, math.log(41.0))
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("lo, hi", [(-math.inf, 0.0), (0.0, math.inf),
                                        (math.nan, 1.0), (0.0, math.nan)],
                             ids=["lower", "upper", "nan-lower", "nan-upper"])
    def test_limits_must_be_finite(self, lo, hi):
        with pytest.raises(ValueError):
            numerics.integrate(np.exp, lo, hi)

    def test_non_finite_integrand(self):
        with pytest.raises(ConvergenceError):
            numerics.integrate(lambda x: np.full_like(x, math.nan), 0.0, 1.0)

    def test_rule_matches_numpy_leggauss_bits(self):
        legendre = pytest.importorskip("numpy.polynomial.legendre")
        for n in range(1, 101):
            x, w = numerics._gauss_rule(n)
            ref_x, ref_w = legendre.leggauss(n)
            assert x.tobytes() == ref_x.tobytes(), n
            assert w.tobytes() == ref_w.tobytes(), n

    def test_rule_built_once(self):
        numerics._gauss_rule.cache_clear()
        numerics.integrate(np.sin, 0.0, 1.0)
        numerics.integrate(np.cos, 0.0, 1.0)
        info = numerics._gauss_rule.cache_info()
        assert (info.misses, info.hits) == (1, 1)

