"""Unit tests for the optical potential and surface interaction."""

import math

import numpy as np
import pytest

from fibertrap import config, modes, potential, superposition
from fibertrap.constants import c, epsilon_0
from fibertrap.errors import ConfigError

FIBER = config.preset("he11-te01").fiber
KB = 1.380649e-23
H = 6.62607015e-34
AMU = 1.66053906892e-27

TRAP1_MIN = (533.7866747301084, math.pi / 2, 0.0)


class TestUnits:
    def test_millikelvin_round_trip(self):
        e = 3.7e-27
        assert potential.as_millikelvin(e) * KB * 1e-3 == (
            pytest.approx(e, rel=1e-14))

    def test_one_millikelvin(self):
        assert potential.as_millikelvin(KB * 1e-3) == pytest.approx(1.0)


class TestAtomSpec:
    def test_cesium_lines(self):
        cs = potential.cesium()
        assert cs.mass_kg == pytest.approx(132.90545196 * AMU, rel=1e-9)
        assert len(cs.lines) == 2
        assert sum(line.weight for line in cs.lines) == pytest.approx(1.0)

    def test_recoil_energy(self):
        cs = potential.cesium()
        wl = 850.5
        expected = H ** 2 / (2.0 * cs.mass_kg * (wl * 1e-9) ** 2)
        assert cs.recoil_energy(wl) == pytest.approx(expected, rel=1e-12)
        assert cs.recoil_energy(wl) == pytest.approx(1.37512e-30, rel=1e-4)

    def test_weights_must_sum_to_one(self):
        cs = potential.cesium()
        bad = [potential.SpectralLine(
            wavelength_nm=line.wavelength_nm, gamma=line.gamma, weight=0.4)
            for line in cs.lines]
        with pytest.raises(ValueError):
            potential.AtomSpec(mass_kg=cs.mass_kg, lines=tuple(bad),
                               c3=cs.c3)

    def test_negative_c3_rejected(self):
        cs = potential.cesium()
        with pytest.raises(ValueError):
            potential.AtomSpec(mass_kg=cs.mass_kg, lines=cs.lines, c3=-1.0)

    def test_spectral_line_validation(self):
        with pytest.raises(ValueError):
            potential.SpectralLine(wavelength_nm=852.0, gamma=-1.0,
                                   weight=1.0)


def light_shift(field_, r, phi, z):
    """The light-shift part of the total potential, in joules."""
    return (potential.total_potential(field_, r, phi, z)
            - potential.vdw_potential(r, field_.fiber, field_.atom))


class TestDipolePotential:
    def test_blue_detuning_is_repulsive(self, suite):
        f = suite.field("he11-te01")
        assert f.shift_coeff > 0.0
        assert light_shift(f, 520.0, 0.8, 130.0) > 0.0

    def test_linear_in_intensity(self):
        cs = potential.cesium()
        shifts = []
        for p in (10.0, 20.0):
            pair = superposition.make_pair(FIBER, 850.5, "HE11", "TE01",
                                           p, 0.72)
            f = potential.PotentialField(pair=pair, atom=cs)
            shifts.append(light_shift(f, 520.0, 0.8, 40.0))
        assert shifts[1] == pytest.approx(2.0 * shifts[0], rel=1e-12)

    def test_red_detuning_rejected(self):
        # 870 nm is blue of the 894.6 nm line but red of the 852.3 nm one
        pair = superposition.make_pair(FIBER, 870.0, "HE11", "TE01",
                                       10.0, 0.5)
        with pytest.raises(ConfigError) as err:
            potential.PotentialField(pair=pair, atom=potential.cesium())
        assert err.value.key == "light.wavelength_nm"


class TestVdwPotential:
    def test_attractive(self):
        assert potential.vdw_potential(500.0, FIBER, potential.cesium()) < 0.0

    def test_inverse_cube_in_surface_distance(self):
        cs = potential.cesium()
        u1 = potential.vdw_potential(500.0, FIBER, cs)   # d = 100 nm
        u2 = potential.vdw_potential(600.0, FIBER, cs)   # d = 200 nm
        assert u1 == pytest.approx(8.0 * u2, rel=1e-12)

    def test_magnitude(self):
        # C3/d^3 at d = 100 nm
        cs = potential.cesium()
        expected = -cs.c3 / (100e-9) ** 3
        assert potential.vdw_potential(500.0, FIBER, cs) == pytest.approx(
            expected, rel=1e-12)

    def test_inside_surface_rejected(self):
        with pytest.raises(ValueError):
            potential.vdw_potential(400.0, FIBER, potential.cesium())


class TestPotentialField:
    def test_total_is_light_plus_surface(self, suite):
        f = suite.field("he11-te01")
        r, phi, z = 520.0, 0.8, 130.0
        total = potential.total_potential(f, r, phi, z)
        light = f.shift_coeff * potential.intensity(f, r, phi, z)
        vdw = potential.vdw_potential(r, FIBER, f.atom)
        assert total == pytest.approx(light + vdw, rel=1e-12)

    def test_red_detuned_pair_rejected(self):
        pair = superposition.make_pair(FIBER, 900.0, "HE11", "TE01",
                                       10.0, 0.5)
        with pytest.raises(ConfigError):
            potential.PotentialField(pair=pair, atom=potential.cesium())

    def test_coefficients_fixed_at_construction(self, suite, monkeypatch):
        f = suite.field("he11-te01")
        assert (f.shift_coeff, f.scatter_coeff) == potential._coefficients(
            f.atom, 850.5)
        r, phi, z = 520.0, 0.8, 130.0
        want = (potential.total_potential(f, r, phi, z),
                potential.potential_derivatives(f, r, phi, z)[0],
                potential.local_scattering_rate(f, r, phi, z))

        def refuse(*args):
            raise AssertionError("coefficients recomputed")

        monkeypatch.setattr(potential, "_coefficients", refuse)
        got = (potential.total_potential(f, r, phi, z),
               potential.potential_derivatives(f, r, phi, z)[0],
               potential.local_scattering_rate(f, r, phi, z))
        assert got[0] == want[0] and got[2] == want[2]
        assert np.array_equal(got[1], want[1])

    def test_gradient_matches_finite_differences(self, suite):
        f = suite.field("he11-te01")
        h = 1e-3
        for r, phi, z in [(470.0, 1.3, 200.0), (560.0, math.pi / 2, 0.0),
                          (700.0, 4.0, 900.0)]:
            g = potential.potential_derivatives(f, r, phi, z)[0]
            fd_r = (potential.total_potential(f, r + h, phi, z)
                    - potential.total_potential(f, r - h, phi, z)) / (2 * h)
            fd_phi = (potential.total_potential(f, r, phi + h / r, z)
                      - potential.total_potential(f, r, phi - h / r, z)) / (2 * h)
            fd_z = (potential.total_potential(f, r, phi, z + h)
                    - potential.total_potential(f, r, phi, z - h)) / (2 * h)
            scale = max(abs(fd_r), abs(fd_phi), abs(fd_z))
            assert g[0] == pytest.approx(fd_r, abs=1e-5 * scale)
            assert g[1] == pytest.approx(fd_phi, abs=1e-5 * scale)
            assert g[2] == pytest.approx(fd_z, abs=1e-5 * scale)

    def test_batched_equals_per_point(self, suite):
        # the minimum search and the turning points mix batched scans with
        # per-point calls, so both paths must give the same bits
        rng = np.random.default_rng(1)
        for name in suite.names:
            f = suite.field(name)
            r = rng.uniform(405.0, 900.0, 1000)
            phi = rng.uniform(-math.pi, math.pi, 1000)
            z = rng.uniform(-3000.0, 3000.0, 1000)
            batched = potential.total_potential(f, r, phi, z)
            single = [potential.total_potential(f, *p) for p in zip(r, phi, z)]
            assert np.array_equal(batched, single)

    @pytest.mark.parametrize("name", ["he11-te01", "he11-he21", "te01-he21"])
    def test_open_operands_equal_full_operands(self, suite, name):
        # the seed scan's open axes give the bits of the meshgrid arrays
        f = suite.field(name)
        r = np.linspace(405.0, 900.0, 11)
        phi = np.linspace(-math.pi, math.pi, 9)
        z = np.linspace(-3000.0, 3000.0, 7)
        got = potential.total_potential(f, r[:, None, None],
                                        phi[None, :, None], z[None, None, :])
        want = potential.total_potential(
            f, *np.meshgrid(r, phi, z, indexing="ij"))
        assert got.shape == (11, 9, 7)
        assert np.array_equal(got, want)


class TestInterferenceCancellation:
    @staticmethod
    def mode_intensity(sol, r, phi, z):
        # one mode alone, (c eps0 / 2) |E|^2 from its full field
        e = modes.e_field(sol, r, phi, z)
        return 0.5 * c * epsilon_0 * np.sum(np.abs(e) ** 2, axis=-1)

    def test_trap1_minimum_nearly_dark(self, suite):
        # counter-oscillating members cancel almost perfectly at the
        # potential minimum of the fundamental-plus-TE configuration
        f = suite.field("he11-te01")
        r, phi, z = TRAP1_MIN
        i_min = potential.intensity(f, r, phi, z)
        i_sum = (self.mode_intensity(f.pair.sol_a, r, phi, z)
                 + self.mode_intensity(f.pair.sol_b, r, phi, z))
        assert i_min / i_sum < 1e-4

    @pytest.mark.parametrize("name", ["he11-te01", "he11-he21", "te01-he21"])
    def test_report_ratio_is_intensity_over_mode_sum(self, suite, name):
        # the report takes I_a + I_b as (c eps0 / 2) S of the beat terms
        report = suite.report(name)
        pair = suite.field(name).pair
        r, phi, z = report.base[0]
        i_sum = (self.mode_intensity(pair.sol_a, r, phi, z)
                 + self.mode_intensity(pair.sol_b, r, phi, z))
        assert report.cancellation == report.min_intensity_w_m2 / i_sum

    def test_trap2_minimum_not_dark(self, suite):
        f = suite.field("he11-he21")
        report_min = (552.3941361629971, 0.0, 0.0)
        assert potential.intensity(f, *report_min) > 1.0


class TestScatteringRate:
    def test_scales_with_power(self):
        cs = potential.cesium()
        rates = []
        for p in (10.0, 20.0):
            pair = superposition.make_pair(FIBER, 850.5, "HE11", "TE01",
                                           p, 0.72)
            f = potential.PotentialField(pair=pair, atom=cs)
            rates.append(potential.local_scattering_rate(f, 520.0, 0.8, 40.0))
        assert rates[1] == pytest.approx(2.0 * rates[0], rel=1e-12)
        assert rates[0] > 0.0


class TestSingleModeLandscape:
    def test_pure_blue_mode_has_no_trap_along_r(self):
        # one blue-detuned mode plus the surface attraction is repulsive
        # everywhere it is strong; no interior radial minimum in the band
        # where a thermal atom could live
        pair = superposition.make_pair(FIBER, 850.5, "HE11", "TE01",
                                       50.0, 1.0)
        f = potential.PotentialField(pair=pair, atom=potential.cesium())
        r = np.linspace(405.0, 880.0, 240)
        u = np.array([potential.total_potential(f, ri, math.pi / 2, 0.0)
                      for ri in r])
        interior_min = ((u[1:-1] < u[:-2]) & (u[1:-1] < u[2:]))
        assert not interior_min.any()
