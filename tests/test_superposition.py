"""Unit tests for two-mode composition and interference geometry."""

import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from fibertrap import config, modes, superposition, trapanalysis
from fibertrap.constants import c as C0
from fibertrap.constants import epsilon_0 as EPS0
from fibertrap.errors import ConfigError

FIBER = config.preset("he11-te01").fiber

SAMPLES = [(452.0, 0.0, 0.0), (520.0, 1.2, 310.0), (650.0, 2.9, 870.0),
           (480.0, 4.4, 55.0), (820.0, 5.7, 1040.0)]


class TestBeatLength:
    def test_reference_values(self, suite):
        expected = {"he11-te01": 4610.0, "he11-he21": 3450.0,
                    "te01-he21": 13670.0}
        for name, target in expected.items():
            z0 = superposition.beat_length(suite.pair(name))
            assert z0 == pytest.approx(target, rel=0.02)

    def test_degenerate_pair_rejected(self):
        p = superposition.make_pair(FIBER, 850.5, "HE11", "HE11", 10.0, 0.5)
        with pytest.raises(ValueError):
            superposition.beat_length(p)


class TestIntensityGeometry:
    def test_periodic_in_beat_length(self, suite):
        for name in suite.names:
            pair = suite.pair(name)
            z0 = superposition.beat_length(pair)
            for r, phi, z in SAMPLES:
                i0 = superposition.mean_intensity(pair, r, phi, z)
                i1 = superposition.mean_intensity(pair, r, phi, z + z0)
                assert i1 == pytest.approx(i0, rel=1e-10)

    def test_half_period_azimuth_flip(self, suite):
        # the second array of intensity maxima sits at phi + pi, z + z0/2
        pair = suite.pair("he11-te01")
        z0 = superposition.beat_length(pair)
        for r, phi, z in SAMPLES:
            a = superposition.mean_intensity(pair, r, phi, z)
            b = superposition.mean_intensity(pair, r, phi + math.pi,
                                             z + 0.5 * z0)
            assert b == pytest.approx(a, rel=1e-10)

    def test_delta_translates_pattern(self, suite):
        base = suite.cfg("he11-te01")
        pair0 = suite.pair("he11-te01")
        delta = 0.7
        paird = superposition.make_pair(
            FIBER, base.light.wavelength_nm, base.mode_a, base.mode_b,
            base.light.power_mw, base.tau, delta=delta)
        dbeta = pair0.sol_a.beta_per_nm - pair0.sol_b.beta_per_nm
        shift = delta / dbeta
        for r, phi, z in SAMPLES:
            got = superposition.mean_intensity(paird, r, phi, z)
            ref = superposition.mean_intensity(pair0, r, phi, z - shift)
            assert got == pytest.approx(ref, rel=1e-6)


class TestBeatTerms:
    @pytest.mark.parametrize("name", ("he11-te01", "he11-he21", "te01-he21"))
    def test_one_harmonic_in_z(self, suite, name):
        # each mode is E_perp e^{-i beta z}, so the intensity is
        # (c eps0 / 2) [S + 2 Re(X e^{-i dbeta z})] with (S, X) from r, phi
        pair = suite.pair(name)
        rng = np.random.default_rng(20261020)
        r = pair.fiber.radius_nm + rng.uniform(1.0, 800.0, 1000)
        phi = rng.uniform(-math.pi, math.pi, 1000)
        z = rng.uniform(0.0, superposition.beat_length(pair), 1000)
        s, x = superposition.beat_terms(pair, r, phi)
        dbeta = pair.sol_a.beta_per_nm - pair.sol_b.beta_per_nm
        got = 0.5 * C0 * EPS0 * (s + 2.0 * np.real(x
                                                    * np.exp(-1j * dbeta * z)))
        want = superposition.mean_intensity(pair, r, phi, z)
        assert np.max(np.abs(got - want) / want) <= 1e-13

    @pytest.mark.parametrize("name", ("he11-te01", "he11-he21", "te01-he21"))
    def test_open_grid_equals_stacked_fields(self, suite, name):
        # the escape flood's 100 x 180 polar grid on open axes: one Bessel
        # evaluation per radius and one cos/sin per azimuth give the bits
        # of the meshgrid, and S and X summed over the components give
        # those of the stacked e_field arrays at z = 0, signed zeros too,
        # so arg X, and the dark phase z* built from it, cannot move
        pair = replace(suite.pair(name), delta=2.5)
        r = pair.fiber.radius_nm + np.geomspace(0.5, 2500.0, 100)
        phi = 2.0 * math.pi / 180 * (np.arange(180) - 90)
        rr, pp = np.meshgrid(r, phi, indexing="ij")
        got = superposition.beat_terms(pair, r[:, None], phi[None, :])
        ea = modes.e_field(pair.sol_a, rr, pp, 0.0)
        eb = modes.e_field(pair.sol_b, rr, pp, 0.0)
        stacked = (np.sum(np.abs(ea) ** 2 + np.abs(eb) ** 2, axis=-1),
                   np.exp(2.5j) * np.sum(ea * np.conj(eb), axis=-1))
        for want in (superposition.beat_terms(pair, rr, pp), stacked):
            for g, w in zip(got, want):
                assert g.shape == w.shape == (100, 180)
                assert g.tobytes() == w.tobytes()


class TestPowerBookkeeping:
    def test_member_shares(self, suite):
        pair = suite.pair("he11-te01")
        assert pair.power_mw == 50.0
        assert pair.sol_a.power_mw == pytest.approx(0.72 * 50.0)
        assert pair.sol_b.power_mw == pytest.approx(0.28 * 50.0)

    def test_hybrid_member_carries_double_flux(self, suite):
        # hybrid members stand for two counter-rotating constituents: the
        # stored field doubles the Poynting flux of the quasi-linear
        # representative while power_mw keeps the nominal share; the same
        # holds at the re-split tau0 -/+ sigma pairs. At tau0 the presets
        # deliver 86.0 / 50.0 / 39.6 mW against a nominal 50 / 25 / 30 mW
        delivered = {"he11-te01": (50.0, 86.0), "he11-he21": (25.0, 50.0),
                     "te01-he21": (30.0, 39.6)}
        for name, (nominal, at_tau0) in delivered.items():
            pair = suite.pair(name)
            assert pair.power_mw == nominal
            sigma = trapanalysis.power_split_sigma(pair.tau)
            for tau in (pair.tau - sigma, pair.tau, pair.tau + sigma):
                split = replace(pair, tau=tau)
                total = 0.0
                for sol, share in ((split.sol_a, tau),
                                   (split.sol_b, 1.0 - tau)):
                    weight = 2.0 if sol.mode.family in ("HE", "EH") else 1.0
                    flux = oracles.mode_power_quadrature(sol)
                    assert sol.power_mw == pytest.approx(share * nominal,
                                                         rel=1e-12)
                    assert flux == pytest.approx(weight * share * nominal,
                                                 rel=1e-6)
                    total += flux
                if tau == pair.tau:
                    assert total == pytest.approx(at_tau0, rel=1e-6)


class TestResplit:
    @pytest.mark.parametrize("name", ("he11-te01", "he11-he21", "te01-he21"))
    def test_resplit_members_equal_a_fresh_pair(self, suite, name):
        # a split only re-weights the solved modes: the re-split pair's
        # members are those of a pair solved at that split, bit for bit
        cfg, pair = suite.cfg(name), suite.pair(name)
        sigma = trapanalysis.power_split_sigma(cfg.tau)
        for tau in (cfg.tau - sigma, cfg.tau + sigma):
            split = replace(pair, tau=tau)
            fresh = config.make_pair(replace(cfg, tau=tau))
            assert split == fresh
            for got, want in ((split.sol_a, fresh.sol_a),
                              (split.sol_b, fresh.sol_b)):
                assert got.amplitude == want.amplitude
                assert got.power_mw == want.power_mw
                assert got == want


class TestPowerSplitLimits:
    def test_tau_one_reduces_to_single_mode(self):
        pair = superposition.make_pair(FIBER, 850.5, "HE11", "TE01",
                                       30.0, 1.0)
        for r, phi, z in SAMPLES:
            total = superposition.total_e_field(pair, r, phi, z)
            single = modes.e_field(pair.sol_a, r, phi, z)
            assert np.array_equal(total, single)

    def test_tau_zero_reduces_to_single_mode(self):
        pair = superposition.make_pair(FIBER, 850.5, "HE11", "TE01",
                                       30.0, 0.0)
        for r, phi, z in SAMPLES:
            total = superposition.total_e_field(pair, r, phi, z)
            single = modes.e_field(pair.sol_b, r, phi, z)
            assert np.array_equal(total, single)


class TestValidation:
    def test_tau_outside_unit_interval(self):
        for tau in (-0.1, 1.2):
            with pytest.raises(ConfigError) as err:
                superposition.make_pair(FIBER, 850.5, "HE11", "TE01",
                                        10.0, tau)
            assert err.value.key == "pair.tau"

    def test_tm_modes_rejected(self):
        with pytest.raises(ConfigError) as err:
            superposition.make_pair(FIBER, 850.5, "HE11", "TM01", 10.0, 0.5)
        assert err.value.key == "pair.modes"

    def test_order_three_member_rejected(self):
        # HE31 is guided on a 600 nm fiber (V = 4.67), but pairs stop at
        # azimuthal order 2, as in a config file
        with pytest.raises(ConfigError) as err:
            superposition.make_pair(modes.FiberSpec(600.0, 1.452, 1.0),
                                    850.5, "HE11", "HE31", 10.0, 0.5)
        assert err.value.key == "pair.modes"
        assert "azimuthal orders above 2" in str(err.value)

    def test_mismatched_wavelengths_rejected(self):
        a = modes.solve_mode(FIBER, 850.0, "HE11")
        b = modes.solve_mode(FIBER, 851.0, "TE01")
        with pytest.raises(ConfigError) as err:
            superposition.ModePair(unit_a=a, unit_b=b, tau=0.5, power_mw=10.0)
        assert err.value.key == "pair.modes"

    def test_direct_pair_validates_tau_and_tm(self):
        he11 = modes.solve_mode(FIBER, 850.5, "HE11")
        te01 = modes.solve_mode(FIBER, 850.5, "TE01")
        pair = superposition.ModePair(unit_a=he11, unit_b=te01, tau=0.5,
                                      power_mw=10.0)
        for tau in (-0.1, 1.2):
            with pytest.raises(ConfigError) as err:
                replace(pair, tau=tau)
            assert err.value.key == "pair.tau"
        tm01 = modes.solve_mode(FIBER, 850.5, "TM01")
        for a, b in ((tm01, te01), (he11, tm01)):
            with pytest.raises(ConfigError) as err:
                superposition.ModePair(unit_a=a, unit_b=b, tau=0.5,
                                       power_mw=10.0)
            assert err.value.key == "pair.modes"
