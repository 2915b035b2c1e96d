"""Unit tests for run configuration parsing, presets and validation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fibertrap import config
from fibertrap.errors import ConfigError


class TestPresets:
    def test_names(self):
        assert set(config.PRESET_NAMES) == {
            "he11-te01", "he11-he21", "te01-he21"}

    def test_he11_te01_values(self):
        cfg = config.preset("he11-te01")
        assert cfg.fiber.radius_nm == 400.0
        assert cfg.fiber.n_core == 1.452
        assert cfg.fiber.n_clad == 1.0
        assert cfg.light.wavelength_nm == 850.5
        assert cfg.light.power_mw == 50.0
        assert (cfg.mode_a, cfg.mode_b) == ("HE11", "TE01")
        assert cfg.tau == 0.72

    def test_he11_he21_values(self):
        cfg = config.preset("he11-he21")
        assert cfg.light.wavelength_nm == 849.0
        assert cfg.light.power_mw == 25.0
        assert (cfg.mode_a, cfg.mode_b) == ("HE11", "HE21")
        assert cfg.tau == 0.84

    def test_te01_he21_values(self):
        cfg = config.preset("te01-he21")
        assert cfg.light.wavelength_nm == 851.0
        assert cfg.light.power_mw == 30.0
        assert (cfg.mode_a, cfg.mode_b) == ("TE01", "HE21")
        assert cfg.tau == 0.68
        # seed box sits on the 3 pi / 4 azimuth
        lo, hi = cfg.seed.phi
        assert lo < 3.0 * math.pi / 4.0 < hi

    def test_unknown_preset(self):
        with pytest.raises(ConfigError) as err:
            config.preset("he11-tm01")
        assert err.value.key == "preset"
        assert "he11-te01" in str(err.value)

    def test_empty_text_equals_default_preset(self):
        assert config.parse_config("") == config.preset("he11-te01")


class TestParsing:
    def test_comments_blanks_and_whitespace(self):
        cfg = config.parse_config(
            "# comment\n\n  pair.tau = 0.5  \nlight.power_mw = 12.5\n")
        assert cfg.tau == 0.5
        assert cfg.light.power_mw == 12.5

    def test_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            config.parse_config("pair.tua = 0.5")
        assert err.value.line == 1
        assert "pair.tua" in str(err.value)

    @pytest.mark.parametrize("key", ["seed.z_lo_nm", "seed.z_hi_nm"])
    def test_no_axial_seed_window(self, key):
        # the beat period is the dark phase nearest z = 0, not a key
        with pytest.raises(ConfigError, match="unknown key") as err:
            config.parse_config(f"{key} = 0.0")
        assert err.value.key == key

    def test_duplicate_key(self):
        with pytest.raises(ConfigError) as err:
            config.parse_config("pair.tau = 0.5\npair.tau = 0.6")
        assert err.value.line == 2

    def test_missing_separator(self):
        with pytest.raises(ConfigError) as err:
            config.parse_config("pair.tau 0.5")
        assert err.value.line == 1

    def test_empty_value(self):
        with pytest.raises(ConfigError) as err:
            config.parse_config("pair.tau =")
        assert err.value.line == 1

    def test_bad_float(self):
        with pytest.raises(ConfigError) as err:
            config.parse_config("light.power_mw = strong")
        assert err.value.line == 1
        assert err.value.key == "light.power_mw"

    @pytest.mark.parametrize("key", [key for key, kind, _, _ in config._KEYS
                                     if kind is float])
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_float(self, key, text):
        with pytest.raises(ConfigError, match="not finite") as err:
            config.parse_config(f"# header\n{key} = {text}")
        assert err.value.line == 2
        assert err.value.key == key

    def test_bad_int(self):
        with pytest.raises(ConfigError) as err:
            config.parse_config("grid.resolution = 2.5")
        assert err.value.key == "grid.resolution"


class TestRoundTrip:
    @pytest.mark.parametrize("name", config.PRESET_NAMES)
    def test_save_load_identity(self, name, tmp_path):
        cfg = config.preset(name)
        path = tmp_path / f"{name}.cfg"
        config.save_config(cfg, path)
        assert config.load_config(path) == cfg

    def test_format_header_and_values(self):
        text = config.format_config(config.preset("he11-te01"))
        assert text.startswith("# fibertrap run configuration")
        assert "pair.tau = 0.72" in text
        assert config.parse_config(text) == config.preset("he11-te01")


    def test_every_key_maps_to_its_own_attribute(self):
        # distinct non-default values, so a swapped or shared attribute
        # path (orientation a/b, seed lo/hi) changes the flattened values
        expected = {
            "fiber.radius_nm": 410.0,
            "fiber.n_core": 1.45,
            "fiber.n_clad": 1.01,
            "light.wavelength_nm": 852.0,
            "light.power_mw": 40.0,
            "pair.mode_a": "HE21",
            "pair.mode_b": "HE11",
            "pair.tau": 0.6,
            "pair.orientation_a_rad": 0.1,
            "pair.orientation_b_rad": 0.2,
            "pair.delta_rad": 0.3,
            "atom.c3": 5e-49,
            "atom.t_init_uk": 50.0,
            "grid.plane": "x=10.5",
            "grid.resolution": 51,
            "grid.quantity": "field",
            "grid.halfwidth_nm": 800.0,
            "dispersion.v_lo": 0.5,
            "dispersion.v_hi": 4.0,
            "seed.r_lo_nm": 420.0,
            "seed.r_hi_nm": 900.0,
            "seed.phi_lo_rad": 0.4,
            "seed.phi_hi_rad": 0.7,
        }
        cfg = config.parse_config(
            "".join(f"{key} = {value}\n" for key, value in expected.items()))
        assert list(config.as_values(cfg).items()) == list(expected.items())
        assert config.parse_config(config.format_config(cfg)) == cfg


    def test_numpy_scalars_round_trip(self):
        cfg = replace(config.preset("he11-te01"), tau=np.float64(0.5),
                      halfwidth_nm=np.float64(750.0))
        assert config.parse_config(config.format_config(cfg)) == cfg


class TestValidation:
    def test_tau_range(self):
        with pytest.raises(ConfigError) as err:
            config.parse_config("pair.tau = 1.5")
        assert err.value.key == "pair.tau"

    def test_tm_modes_rejected(self):
        with pytest.raises(ConfigError) as err:
            config.parse_config("pair.mode_a = TM01")
        assert err.value.key == "pair.mode_a"
        assert "transverse magnetic" in str(err.value)

    def test_order_three_mode_rejected(self):
        # HE31 is guided on a 600 nm fiber (V = 4.67) but is no pair member
        with pytest.raises(ConfigError) as err:
            config.parse_config("fiber.radius_nm = 600\npair.mode_b = HE31")
        assert err.value.key == "pair.mode_b"
        assert "azimuthal orders above 2" in str(err.value)

    @pytest.mark.parametrize("halfwidth", [1e300, 1e308])
    def test_halfwidth_bound(self, halfwidth):
        with pytest.raises(ConfigError) as err:
            config.parse_config(f"grid.halfwidth_nm = {halfwidth!r}")
        assert err.value.key == "grid.halfwidth_nm"
        cfg = config.parse_config(
            f"grid.halfwidth_nm = {config.MAX_EXTENT_NM!r}")
        assert cfg.halfwidth_nm == config.MAX_EXTENT_NM

    @pytest.mark.parametrize("r_hi", [1e100, 1e300])
    def test_seed_radius_bound(self, r_hi):
        # the van der Waals d^3 and the Jacobian's x^3 overflow out there
        with pytest.raises(ConfigError) as err:
            config.parse_config(f"seed.r_hi_nm = {r_hi!r}")
        assert err.value.key == "seed.r_hi_nm"
        assert str(err.value).endswith(f"exceeds {config.MAX_EXTENT_NM:g} nm")
        cfg = config.parse_config(
            f"seed.r_hi_nm = {config.MAX_EXTENT_NM!r}")
        assert cfg.seed.r_nm[1] == config.MAX_EXTENT_NM

    @pytest.mark.parametrize("key, bound", [
        ("light.power_mw", config.MAX_POWER_MW), ("atom.c3", config.MAX_C3)])
    def test_strength_bound(self, key, bound):
        with pytest.raises(ConfigError) as err:
            config.parse_config(f"{key} = 1e300")
        assert err.value.key == key
        assert config.as_values(
            config.parse_config(f"{key} = {bound!r}"))[key] == bound

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError) as err:
            config.parse_config("pair.mode_b = HE99")
        assert err.value.key == "pair.mode_b"

    def test_resolution_floor(self):
        with pytest.raises(ConfigError) as err:
            config.parse_config("grid.resolution = 1")
        assert err.value.key == "grid.resolution"

    def test_resolution_ceiling(self):
        # a plane's coordinate arrays grow with its square
        with pytest.raises(ConfigError) as err:
            config.parse_config("grid.resolution = 1000000")
        assert err.value.key == "grid.resolution"
        cfg = config.parse_config(
            f"grid.resolution = {config.MAX_RESOLUTION}")
        assert cfg.resolution == config.MAX_RESOLUTION

    def test_quantity_membership(self):
        with pytest.raises(ConfigError) as err:
            config.parse_config("grid.quantity = phase")
        assert err.value.key == "grid.quantity"

    @pytest.mark.parametrize("t_init", ["0", "-5", "1e-300"])
    def test_reference_energy_positive(self, t_init):
        # 1e-300 uK is positive, but k_B T_init rounds to 0 J
        with pytest.raises(ConfigError, match="above 0 J") as err:
            config.parse_config(f"atom.t_init_uk = {t_init}")
        assert err.value.key == "atom.t_init_uk"
        assert config.parse_config("atom.t_init_uk = 1e-290").t_init_uk > 0

    def test_negative_c3(self):
        with pytest.raises(ConfigError) as err:
            config.parse_config("atom.c3 = -1e-49")
        assert err.value.key == "atom.c3"

    def test_v_range_ordering(self):
        with pytest.raises(ConfigError):
            config.parse_config("dispersion.v_lo = 4.0\ndispersion.v_hi = 3.0")

    def test_v_beyond_solver_range(self):
        # the Bessel J series covers core arguments up to V = 8
        with pytest.raises(ConfigError) as err:
            config.parse_config("dispersion.v_hi = 8.5")
        assert err.value.key == "dispersion.v_hi"
        with pytest.raises(ConfigError) as err:
            config.parse_config("fiber.radius_nm = 1100")
        assert err.value.key == "fiber"
        config.parse_config("dispersion.v_hi = 8.0\nfiber.radius_nm = 1000")

    @pytest.mark.parametrize("n_core", ["1e150", "1e200"])
    def test_core_index_beyond_solver_range(self, n_core):
        # from about 1.3e154 on, n_core ** 2 overflows before V is compared
        with pytest.raises(ConfigError) as err:
            config.parse_config(f"fiber.n_core = {n_core}")
        assert err.value.key == "fiber"

    def test_seed_bounds_ordering(self):
        with pytest.raises(ConfigError) as err:
            config.parse_config("seed.r_lo_nm = 900\nseed.r_hi_nm = 500")
        assert err.value.key == "seed"


class TestPlaneGrammar:
    def test_axis_value_forms(self):
        assert config.parse_plane("z=0") == ("z", 0.0)
        assert config.parse_plane("x=10.5") == ("x", 10.5)
        assert config.parse_plane("d=-30") == ("d", -30.0)

    def test_trap_special_case(self):
        assert config.parse_plane("z=trap") == ("z", "trap")

    def test_rejects_unknown_axis(self):
        for bad in ("w=1", "z=", "plane", "x=trap"):
            with pytest.raises(ConfigError) as err:
                config.parse_plane(bad)
            assert err.value.key == "grid.plane"

    @pytest.mark.parametrize("plane", ["z=inf", "x=nan", "d=1e999",
                                       "y=-inf"])
    def test_rejects_non_finite_offset(self, plane):
        with pytest.raises(ConfigError) as err:
            config.parse_plane(plane)
        assert err.value.key == "grid.plane"
        with pytest.raises(ConfigError) as err:
            config.parse_config(f"grid.plane = {plane}")
        assert err.value.key == "grid.plane"

    @pytest.mark.parametrize("plane", ["x=1e300", "d=1e300", "z=-1e300",
                                       "y=1.0000001e7"])
    def test_rejects_offset_beyond_bound(self, plane):
        with pytest.raises(ConfigError) as err:
            config.parse_plane(plane)
        assert err.value.key == "grid.plane"
        with pytest.raises(ConfigError) as err:
            config.parse_config(f"grid.plane = {plane}")
        assert err.value.key == "grid.plane"
        assert config.parse_plane("d=-1e7") == ("d", -config.MAX_EXTENT_NM)


class TestBuilders:
    def test_make_field_wires_pair_and_atom(self):
        cfg = config.preset("he11-te01")
        f = config.make_field(cfg)
        assert f.pair.tau == 0.72
        assert f.pair.power_mw == 50.0
        assert f.pair.sol_a.name == "HE11"
        assert f.atom.c3 == 5.6e-49

    def test_make_field_tau_override(self):
        f = config.make_field(replace(config.preset("he11-te01"), tau=0.5))
        assert f.pair.tau == 0.5

    def test_thermal_state(self):
        st = config.thermal_state(config.preset("he11-te01"))
        assert st.t_init_uk == 100.0

    def test_red_detuned_config_rejected_at_build(self):
        cfg = config.parse_config("light.wavelength_nm = 900.0")
        with pytest.raises(ConfigError) as err:
            config.make_field(cfg)
        assert err.value.key == "light.wavelength_nm"
