"""The pinned CODATA 2022 constants against the installed scipy.constants."""

import pytest
import scipy
import scipy.constants

from fibertrap import constants

NAMES = ("c", "h", "hbar", "k", "epsilon_0", "mu_0", "atomic_mass")
# the measured values that changed between CODATA 2018 and 2022
CODATA_2018 = {"epsilon_0": 8.8541878128e-12, "mu_0": 1.25663706212e-6,
               "atomic_mass": 1.66053906660e-27}


def test_pinned_values_equal_scipy_codata_2022():
    if all(getattr(scipy.constants, name) == value
           for name, value in CODATA_2018.items()):
        pytest.skip(f"scipy {scipy.__version__} carries CODATA 2018; "
                    "fibertrap pins CODATA 2022 and does not use these")
    for name in NAMES:
        assert getattr(constants, name) == getattr(scipy.constants, name), name
