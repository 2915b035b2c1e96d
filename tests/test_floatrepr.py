"""The array formatter against Python's own repr(float(v)), byte for byte."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fibertrap import floatrepr


def texts(values):
    """The texts of repr_rows, after checking row widths and commas."""
    values = np.asarray(values, dtype=float)
    rows = floatrepr.repr_rows(values)
    assert rows.shape == (values.size, floatrepr.WIDTH)
    assert (rows[:, -1] == ord(",")).all()
    joined = rows[rows != 0].tobytes().decode()
    assert joined.count(",") == values.size
    return joined.split(",")[:-1]


def reprs(values):
    return [repr(float(v)) for v in values]


def test_random_bit_patterns():
    info = np.iinfo(np.int64)
    values = np.random.default_rng(15).integers(
        info.min, info.max, size=1_000_000, dtype=np.int64,
        endpoint=True).view(float)
    assert texts(values) == reprs(values)


def test_every_power_of_two():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate([powers, -powers])
    assert texts(values) == reprs(values)


def test_smallest_subnormals():
    # 5e-324 and 1e-323 run as 10 t (t < 3): one digit, not Java's two
    values = np.array([5e-324, 1e-323, 1.5e-323, 2e-323, -5e-324])
    assert texts(values) == ["5e-324", "1e-323", "1.5e-323", "2e-323",
                             "-5e-324"]
    subnormals = np.arange(1, 100_000, dtype=np.int64).view(float)
    assert texts(subnormals) == reprs(subnormals)


def test_notation_switch_points():
    values = np.array([1e-4, 9.9e-5, 1e16, 9999999999999998.0,
                       0.00012345678901234567, 1234567890123456.7])
    assert texts(values) == ["0.0001", "9.9e-05", "1e+16",
                             "9999999999999998.0", "0.00012345678901234567",
                             "1234567890123456.8"]
    assert texts(-values) == reprs(-values)


def test_integers_around_two_to_the_53():
    ints = np.arange(2 ** 53 - 3000, 2 ** 53 + 3000, dtype=np.int64)
    values = np.concatenate([ints.astype(float), -ints.astype(float),
                             np.arange(0, 3000, dtype=float)])
    assert texts(values) == reprs(values)


def test_non_finite_and_zeros():
    other_nan = np.array([0x7FF8000000000001, -1], dtype=np.int64).view(float)
    values = np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                       *other_nan, 1.7976931348623157e308,
                       2.2250738585072014e-308, 2.225073858507201e-308])
    assert texts(values) == reprs(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_float_list(values):
    assert texts(values) == reprs(values)
