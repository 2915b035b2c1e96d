"""Unit tests for minimum search, curvature analysis and trap statistics.

Frozen expectation values pin the deterministic pipeline against the numbers
it produced when first validated; physics-level checks (harmonic limits,
monotonicity, symmetry of the escape problem) guard the frozen values from
drifting for the wrong reason.
"""

import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from fibertrap import (cli, config, modes, numerics, potential,
                       superposition, trapanalysis)
from fibertrap.constants import c as C0
from fibertrap.constants import epsilon_0 as EPS0
from fibertrap.errors import NoTrapError, SaddleError

KB = 1.380649e-23

# regression pins for the default configuration, rel 1e-6 unless noted
T1_MIN = (533.7866747301084, math.pi / 2, 0.0)
T1_DEPTH_MK = 0.8138646315177027
T1_FREQ_KHZ = (721.7673990509142, 1218.3302874129045, 495.94288613504506)
T1_EXTENTS = (50.65702830901065, 29.227191115936094, 71.79965927427759)
T1_HARMONIC = (49.33027735591884, 29.224411762140534, 71.79251276112976)
T1_RATE = 44.304928976671334
T1_LIFETIME = 80.88641272303484
T1_Z0 = 4613.23625821996


@pytest.fixture(scope="module")
def field1(suite):
    return suite.field("he11-te01")


@pytest.fixture(scope="module")
def report1(suite):
    return suite.report("he11-te01")


@pytest.fixture
def searched_splits(monkeypatch):
    """The pair.tau of every field find_minimum is called on, which fails."""
    taus = []

    def stub(field_, seed):
        taus.append(field_.pair.tau)
        raise NoTrapError("stub field")

    monkeypatch.setattr(trapanalysis, "find_minimum", stub)
    return taus


@pytest.fixture
def seed_scans(monkeypatch):
    """One entry per beat_terms batch the size of a seed scan."""
    beat_terms = superposition.beat_terms
    size = trapanalysis._GRID_R * trapanalysis._GRID_PHI
    scans = []

    def counted(pair, r_nm, phi):
        if np.broadcast(r_nm, phi).size == size:
            scans.append(size)
        return beat_terms(pair, r_nm, phi)

    monkeypatch.setattr(superposition, "beat_terms", counted)
    return scans


def _row_minimum(row):
    return (row["minimum"]["r_nm"], row["minimum"]["phi_rad"],
            row["minimum"]["z_nm"])


class TestThermalState:
    def test_energy(self):
        st = trapanalysis.ThermalState(t_init_uk=100.0)
        assert st.e_init == pytest.approx(KB * 100e-6, rel=1e-12)

    def test_positive_temperature_required(self):
        with pytest.raises(ValueError):
            trapanalysis.ThermalState(t_init_uk=0.0)

    @pytest.mark.parametrize("t_init", [math.nan, 1e-300])
    def test_energy_above_zero_required(self, t_init):
        # 1e-300 uK is positive, but k_B T_init rounds to 0 J
        with pytest.raises(ValueError, match="above 0 J"):
            trapanalysis.ThermalState(t_init_uk=t_init)


class TestSeedRegion:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            trapanalysis.SeedRegion(r_nm=(500.0, 450.0), phi=(0.0, 1.0))


class TestFindMinimum:
    def test_default_trap_position(self, suite):
        r, phi, z = suite.minimum("he11-te01")
        assert r == pytest.approx(T1_MIN[0], abs=0.5)
        assert phi == pytest.approx(T1_MIN[1], abs=1e-9)
        assert z == pytest.approx(T1_MIN[2], abs=0.5)

    def test_is_a_stationary_point(self, suite, field1):
        g = potential.potential_derivatives(
            field1, *suite.minimum("he11-te01"))[0]
        hess_scale = abs(potential.total_potential(field1, *T1_MIN)) / 30.0
        assert np.all(np.abs(g) < 1e-4 * hess_scale)

    def test_no_minimum_between_trap_arrays(self, field1, suite):
        # the azimuth window lies between the traps at phi = +-pi/2
        seed = trapanalysis.SeedRegion(
            r_nm=suite.cfg("he11-te01").seed.r_nm, phi=(-0.3, 0.3))
        with pytest.raises(NoTrapError):
            trapanalysis.find_minimum(field1, seed)

    def test_minimum_outside_the_seed_box_rejected(self, field1, suite):
        # the box holds no minimum of its own; the polish would walk to the
        # trap at phi = pi/2 outside it
        seed = trapanalysis.SeedRegion(
            r_nm=suite.cfg("he11-te01").seed.r_nm,
            phi=(math.pi / 2 + 0.05, math.pi / 2 + 0.4))
        with pytest.raises(NoTrapError, match="in phi"):
            trapanalysis.find_minimum(field1, seed)

    def test_seed_window_inside_the_surface_margin(self, field1, suite):
        # no radius of these windows lies 2 nm or more off the 400 nm fiber,
        # so no split can hold a trap there: tau_sensitivity raises too
        phi = suite.cfg("he11-te01").seed.phi
        for r_hi in (401.5, 402.0):
            seed = trapanalysis.SeedRegion(r_nm=(300.0, r_hi), phi=phi)
            with pytest.raises(NoTrapError, match=f"seed window r = 300 to "
                                                  f"{r_hi:g} nm"):
                trapanalysis.find_minimum(field1, seed)
            with pytest.raises(NoTrapError, match="seed window"):
                trapanalysis.tau_sensitivity(field1, seed)

    def test_no_minimum_at_extreme_split(self, suite):
        cfg = suite.cfg("he11-te01")
        f99 = config.make_field(replace(cfg, tau=0.99))
        with pytest.raises(NoTrapError):
            trapanalysis.find_minimum(f99, cfg.seed)

    def test_saddle_is_not_a_trap(self, suite):
        # the best seed cell here already lacks three positive curvatures;
        # without the gate the Newton polish would converge, in 12 steps,
        # to a stationary point with one negative curvature
        cfg = suite.cfg("he11-he21")
        with pytest.raises(NoTrapError, match="saddle"):
            trapanalysis.find_minimum(
                config.make_field(replace(cfg, tau=0.66)), cfg.seed)

    def test_non_convex_search_stops_at_first_saddle(self, suite,
                                                     monkeypatch):
        # without the per-iterate gate the iterates bounce 55-61 nm off the
        # surface for all 40 steps and the search ends as "did not converge"
        cfg = suite.cfg("he11-te01")
        field_ = config.make_field(replace(cfg, tau=0.66))
        calls = []
        derivatives = potential.potential_derivatives

        def counted(*args):
            calls.append(args)
            return derivatives(*args)

        monkeypatch.setattr(potential, "potential_derivatives", counted)
        with pytest.raises(NoTrapError, match="saddle"):
            trapanalysis.find_minimum(field_, cfg.seed)
        assert 1 <= len(calls) <= 5

    def test_seed_scan_evaluates_each_transverse_point_once(
            self, suite, seed_scans, monkeypatch):
        # the scan is the valley floor at 61 x 25 transverse points; each
        # field kernel call evaluates the transverse part on r and phi alone
        cases = [(suite.field(name), suite.cfg(name).seed)
                 for name in suite.names]
        side_fields = modes._side_fields
        sizes = []

        def counted(sol, r, *args, **kwargs):
            sizes.append(np.size(r))
            return side_fields(sol, r, *args, **kwargs)

        monkeypatch.setattr(modes, "_side_fields", counted)
        for field_, seed in cases:
            trapanalysis.find_minimum(field_, seed)
        assert len(seed_scans) == len(cases)
        assert max(sizes) <= trapanalysis._GRID_R * trapanalysis._GRID_PHI

    @pytest.mark.parametrize("name", ("he11-te01", "he11-he21", "te01-he21"))
    def test_bessel_work_once_per_radius(self, suite, name, monkeypatch):
        # the seed scan and the escape flood grid lie outside the core, so
        # the field kernel evaluates K once per radius of each grid (61 and
        # 100 radii), not once per (r, phi) cell (1525 and 18000 cells)
        bessel_k = numerics.bessel_k_orders
        sizes = []

        def counted(x, top):
            sizes.append(np.size(x))
            return bessel_k(x, top)

        monkeypatch.setattr(numerics, "bessel_k_orders", counted)
        field_ = suite.field(name)
        minimum = trapanalysis.find_minimum(field_, suite.cfg(name).seed)
        assert max(sizes) == trapanalysis._GRID_R
        sizes.clear()
        trapanalysis.escape_barrier(field_, minimum)
        assert max(sizes) == trapanalysis._FLOOD_R

    @pytest.mark.parametrize("name,delta", [
        ("he11-te01", 0.0), ("he11-he21", 0.0), ("te01-he21", 0.0),
        # from its 3-D seed cell the halving search takes 13 Newton
        # iterations, the first 11 capped at 5 nm
        ("te01-he21", 2.5)])
    def test_same_minimum_as_halving_search(self, suite, name, delta):
        # the halving search seeds its polish from the 3-D scan over z, here
        # +-0.45 beat lengths around z = 0; at delta = 0 both seeds lead to
        # the same minimum bit for bit, and at delta = 2.5 the 2-D seed at
        # z* (3 iterations) ends 1e-8 nm from it
        half = {"he11-te01": 2075.9, "he11-he21": 1552.9,
                "te01-he21": 6159.4}[name]
        cfg = replace(suite.cfg(name), delta=delta)
        field_ = config.make_field(cfg)
        got = trapanalysis.find_minimum(field_, cfg.seed)
        want = oracles.halving_find_minimum(field_, cfg.seed, (-half, half))
        if delta == 0.0:
            assert got == want
        else:
            assert trapanalysis._frame(got)[0] == pytest.approx(
                trapanalysis._frame(want)[0], abs=1e-7)

    @pytest.mark.parametrize("name", ("he11-te01", "he11-he21", "te01-he21"))
    def test_delta_translates_the_trap(self, suite, name):
        # the launch phase delta shifts the beat by delta / dbeta along z,
        # the way the traps are moved along the fiber; r, phi, depth and
        # frequencies stay, and the minimum found is the image nearest
        # z = 0, however far the array slides
        field_, seed = suite.field(name), suite.cfg(name).seed
        mass = field_.atom.mass_kg
        z0 = superposition.beat_length(field_.pair)
        m = suite.minimum(name)
        for delta in (0.7, 3.0, math.pi):
            moved = replace(field_, pair=replace(field_.pair, delta=delta))
            shift = delta / (field_.pair.sol_a.beta_per_nm
                             - field_.pair.sol_b.beta_per_nm)
            got = trapanalysis.find_minimum(moved, seed)
            assert got[0] == pytest.approx(m[0], abs=1e-8)
            assert got[1] == pytest.approx(m[1], abs=1e-12)
            dz = got[2] - m[2] - shift
            assert abs(dz - z0 * round(dz / z0)) <= 1e-8
            assert abs(got[2]) <= z0 / 2.0 + 1e-8
            assert trapanalysis.escape_barrier(moved, got).depth_j == \
                pytest.approx(suite.report(name).base[1].depth_j, rel=1e-12)
            assert trapanalysis.trap_frequencies(moved, got, mass) == \
                pytest.approx(trapanalysis.trap_frequencies(field_, m, mass),
                              rel=1e-9)


class TestTrapFrequencies:
    def test_reference_frequencies(self, report1):
        for got, want in zip(report1.frequencies_hz, T1_FREQ_KHZ):
            assert got == pytest.approx(want * 1e3, rel=2e-3)

    def test_harmonic_limit_matches_exact_extents(self, report1):
        # at 100 uK the trap is nearly harmonic along r and phi
        for got, want in zip(report1.harmonic_extents_nm, report1.extents_nm):
            assert got == pytest.approx(want, rel=0.25)

    def test_saddle_between_traps_rejected(self, field1):
        with pytest.raises(SaddleError):
            trapanalysis.trap_frequencies(
                field1, (T1_MIN[0], T1_MIN[1], T1_Z0 / 2.0),
                field1.atom.mass_kg)

    @pytest.mark.parametrize("entries", [((0, 1), (1, 0)), ((0, 1),)])
    def test_non_finite_hessian_rejected(self, suite, field1, monkeypatch,
                                         entries):
        # eigh reads the lower triangle only, so NaN above the diagonal
        # alone leaves clean eigenvalues; NaN on both sides gives NaN ones
        derivatives = potential.potential_derivatives

        def broken(*args):
            g, h = derivatives(*args)
            for ij in entries:
                h[ij] = np.nan
            return g, h

        m = suite.minimum("he11-te01")
        monkeypatch.setattr(potential, "potential_derivatives", broken)
        with pytest.raises(SaddleError, match="non-finite"):
            trapanalysis.trap_frequencies(field1, m, field1.atom.mass_kg)

    @pytest.mark.parametrize("name", ["he11-te01", "he11-he21", "te01-he21",
                                      "saddle"])
    def test_analytic_hessian_matches_stencil(self, suite, name):
        if name == "saddle":
            field_ = suite.field("he11-te01")
            r, p, z = T1_MIN[0], math.pi / 2, T1_Z0 / 2.0
        else:
            field_ = suite.field(name)
            r, p, z = suite.minimum(name)
        _, got = potential.potential_derivatives(field_, r, p, z)
        assert np.array_equal(got, got.T)

        def stencil(h):
            # central differences in (r, arc, z), the arc at this point's r
            return oracles.scalar_hessian(
                lambda q: potential.total_potential(field_, q[0],
                                                    p + q[1] / r, q[2]),
                (r, 0.0, z), (h, h, h))

        # the stencil's error is O(h^2): up to 5.5e-5 of the largest entry
        # at 1 nm, and the Richardson value from 0.5 and 0.25 nm cancels it
        scale = np.abs(got).max()
        assert np.abs(got - stencil(1.0)).max() <= 1e-4 * scale
        richardson = (4.0 * stencil(0.25) - stencil(0.5)) / 3.0
        assert np.abs(got - richardson).max() <= 1e-9 * scale


class TestTurningPoints:
    def test_shape_and_signs(self, field1, suite):
        st = trapanalysis.ThermalState(t_init_uk=100.0)
        turns = trapanalysis.turning_points(
            field1, suite.minimum("he11-te01"), st.e_init)
        assert turns.shape == (3, 2)
        assert np.all(turns[:, 0] < 0.0) and np.all(turns[:, 1] > 0.0)

    def test_radial_wall_asymmetry(self, field1, suite):
        turns = trapanalysis.turning_points(
            field1, suite.minimum("he11-te01"), KB * 100e-6)
        # inner light wall is steeper than the evanescent tail
        assert abs(turns[0, 0]) < turns[0, 1]

    def test_grow_with_energy(self, field1, suite):
        m = suite.minimum("he11-te01")
        small = trapanalysis.turning_points(field1, m, KB * 50e-6)
        large = trapanalysis.turning_points(field1, m, KB * 150e-6)
        assert np.all(np.abs(large) > np.abs(small))

    def test_energy_above_barrier_rejected(self, field1, suite):
        with pytest.raises(NoTrapError):
            trapanalysis.turning_points(
                field1, suite.minimum("he11-te01"), KB * 2e-3)

    def test_vanishing_energy_turns_at_the_minimum(self, field1, suite):
        # k_B * 1e-20 uK = 1.4e-49 J vanishes against U_min = -2.3e-28 J,
        # so U_min + E rounds to U_min: the trap holds, every turning point
        # is the minimum itself, and the report runs on
        turns = trapanalysis.turning_points(
            field1, suite.minimum("he11-te01"), KB * 1e-26)
        assert np.abs(turns).max() == 0.0
        report = trapanalysis.characterize_trap(
            field1, suite.cfg("he11-te01").seed,
            trapanalysis.ThermalState(t_init_uk=1e-20))
        assert report.extents_nm == (0.0, 0.0, 0.0)
        assert report.depth_mk == suite.report("he11-te01").depth_mk
        assert 0.0 < report.scattering_rate < 1.0
        assert math.isfinite(report.lifetime_s)

    @pytest.mark.parametrize("energy", [0.0, -KB * 1e-6, math.nan])
    def test_non_positive_energy_rejected(self, field1, suite, energy):
        # below zero 1 - 2E/W would exceed 1, outside arccos's domain
        with pytest.raises(ValueError, match="not positive"):
            trapanalysis.turning_points(
                field1, suite.minimum("he11-te01"), energy)

    @pytest.mark.parametrize("name", ["he11-te01", "he11-he21", "te01-he21"])
    def test_batched_march_matches_scalar_march(self, suite, name):
        # the batch evaluates samples past the crossing that the scalar
        # march never reaches, and brackets each root between the same two;
        # the closed-form axial pair meets the march along z to its root
        # tolerance and is the arccos of the beat ridge 4 kappa' |X|
        field_, m = suite.field(name), suite.minimum(name)
        pair = field_.pair
        _, x = superposition.beat_terms(pair, m[0], m[1])
        ridge = float(4.0 * (field_.shift_coeff * 0.5 * C0 * EPS0) * abs(x))
        dbeta = abs(pair.sol_a.beta_per_nm - pair.sol_b.beta_per_nm)

        def outcome(fn, energy):
            try:
                return fn(field_, m, energy)
            except NoTrapError as err:
                return str(err)

        e_ref = config.thermal_state(suite.cfg(name)).e_init
        above = 2.0 * suite.report(name).base[1].depth_j
        for energy in (e_ref, 10.0 * e_ref, above):
            want = outcome(oracles.scalar_turning_points, energy)
            got = outcome(trapanalysis.turning_points, energy)
            assert type(got) is type(want)
            if isinstance(want, str):
                assert got == want
                continue
            assert got[:2].tolist() == want[:2].tolist()
            assert got[2] == pytest.approx(want[2], rel=1e-9)
            s = math.acos(1.0 - 2.0 * energy / ridge) / dbeta
            assert got[2].tolist() == [-s, s]
        assert want.startswith("thermal energy exceeds the trap barrier")

    def test_no_axial_turning_point_at_or_above_the_ridge(
            self, suite, monkeypatch):
        # with the beat ridge W at or below E, 1 - 2E/W would be -1 or
        # less: the guard raises before arccos sees it; just above E the
        # turning points approach half a beat length
        field_, m = suite.field("he11-te01"), suite.minimum("he11-te01")
        energy = config.thermal_state(suite.cfg("he11-te01")).e_init
        acos, args = math.acos, []

        def recorded(t):
            args.append(t)
            return acos(t)

        monkeypatch.setattr(math, "acos", recorded)
        for ridge in (energy, 0.5 * energy, 0.0):
            monkeypatch.setattr(trapanalysis, "_valley",
                                lambda *_, w=ridge: (0.0, w, 0.0))
            with pytest.raises(NoTrapError) as err:
                trapanalysis.turning_points(field_, m, energy)
            assert str(err.value) == ("thermal energy exceeds the trap "
                                      "barrier along axis axial")
        assert args == []
        monkeypatch.setattr(trapanalysis, "_valley",
                            lambda *_: (0.0, energy * (1.0 + 1e-9), 0.0))
        turns = trapanalysis.turning_points(field_, m, energy)
        assert min(args) > -1.0
        z0 = superposition.beat_length(field_.pair)
        assert turns[2].tolist() == pytest.approx([-z0 / 2.0, z0 / 2.0],
                                                  rel=1e-4)

    def test_one_potential_batch_per_direction(self, suite, monkeypatch):
        # U_min, then one batch per marched axis and direction (the axial
        # pair is closed form); find_root's own evaluations on the bracket
        # are not counted
        cases = [(suite.field(name), suite.minimum(name),
                  config.thermal_state(suite.cfg(name)).e_init)
                 for name in suite.names]
        total, find_root = potential.total_potential, numerics.find_root
        calls, rooting = [], [False]

        def counted(*args):
            if not rooting[0]:
                calls.append(args)
            return total(*args)

        def root(*args, **kwargs):
            rooting[0] = True
            try:
                return find_root(*args, **kwargs)
            finally:
                rooting[0] = False

        monkeypatch.setattr(potential, "total_potential", counted)
        monkeypatch.setattr(numerics, "find_root", root)
        for case in cases:
            calls.clear()
            trapanalysis.turning_points(*case)
            assert len(calls) <= 5


class TestExtents:
    def test_reference_extents(self, report1):
        for got, want in zip(report1.extents_nm, T1_EXTENTS):
            assert got == pytest.approx(want, rel=1e-6)

    def test_harmonic_formula(self):
        st = trapanalysis.ThermalState(t_init_uk=100.0)
        mass = potential.cesium().mass_kg
        omega = 2.0 * math.pi * 7.0e5
        got = trapanalysis.harmonic_extents((omega,), st, mass)
        want = 2.0 * math.sqrt(2.0 * st.e_init / (mass * omega ** 2)) * 1e9
        assert got[0] == pytest.approx(want, rel=1e-12)


class TestEscapeBarrier:
    def test_depth_and_direction(self, suite, field1):
        esc = trapanalysis.escape_barrier(field1, suite.minimum("he11-te01"))
        assert potential.as_millikelvin(esc.depth_j) == pytest.approx(
            T1_DEPTH_MK, rel=1e-6)
        direction = np.asarray(esc.direction)
        assert np.linalg.norm(direction) == pytest.approx(1.0, rel=1e-9)
        assert direction[0] > 0.999  # escape is radial here

    @pytest.mark.parametrize("name", ("he11-te01", "he11-he21", "te01-he21"))
    def test_matches_dense_fan(self, suite, name):
        # every ray of the 4,584-ray fan is a path out of the trap, so its
        # highest potential bounds the depth from above; the polish from
        # the lowest ray reaches a saddle of the same depth
        field_, m = suite.field(name), suite.minimum(name)
        depth = suite.report(name).base[1].depth_j
        ray, saddle = oracles.dense_fan_escape(field_, m)
        assert depth <= ray
        assert depth == pytest.approx(
            potential.total_potential(field_, *saddle)
            - potential.total_potential(field_, *m), rel=1e-12)

    def test_minimum_inside_the_surface_pad_raises(self, monkeypatch):
        # the flood grid holds no cell within the surface pad, so a search
        # from there has no cell to begin at
        monkeypatch.setattr(potential, "total_potential",
                            lambda field_, r_nm, phi, z_nm: np.zeros(
                                np.broadcast(r_nm, phi, z_nm).shape))
        field_ = SimpleNamespace(fiber=SimpleNamespace(radius_nm=250.0))
        with pytest.raises(NoTrapError, match="surface pad"):
            trapanalysis.escape_barrier(field_, (250.4, 0.0, 0.0))

    def test_minimum_on_the_innermost_radius_raises(self, field1):
        # the flood's first cell is already an exit: it is taken, the flood
        # stops, and the search from 0.5 nm off the surface certifies nothing
        a = field1.fiber.radius_nm
        with pytest.raises(NoTrapError):
            trapanalysis.escape_barrier(field1, (a + 0.52, 0.0, 0.0))

    @pytest.mark.parametrize("row", (0, 1, 2))
    @pytest.mark.parametrize("name", ("he11-te01", "he11-he21", "te01-he21"))
    def test_saddle_is_certified(self, suite, name, row):
        # rows are tau0 - sigma, tau0 and tau0 + sigma, each searched by
        # the same flood; the dense flood is four times finer per axis
        row = suite.sens(name)["rows"][row]
        field_ = config.make_field(replace(suite.cfg(name), tau=row["tau"]))
        m = _row_minimum(row)
        # a freshly built field gives the row's re-split search bit for bit
        assert trapanalysis.find_minimum(field_, suite.cfg(name).seed) == m
        esc = trapanalysis.escape_barrier(field_, m)
        g, h = potential.potential_derivatives(field_, *esc.saddle)
        curv = np.linalg.eigvalsh(h)
        assert curv[0] < 0.0 < curv[1]
        # the Newton step from the saddle is below the polish's stop
        assert (np.linalg.norm(np.linalg.solve(h, g))
                < 0.2 * trapanalysis._POSITION_TOL_NM)
        assert potential.as_millikelvin(esc.depth_j) == row["depth_mk"]
        dense_depth, dense_saddle, _ = oracles.dense_flood_escape(field_, m)
        assert esc.depth_j == pytest.approx(dense_depth, rel=1e-12)
        level, tol, _ = trapanalysis._flood(field_, m)
        for saddle in (esc.saddle, dense_saddle):
            assert abs(potential.total_potential(field_, *saddle)
                       - level) <= tol
        d = np.asarray(esc.direction)
        assert np.linalg.norm(d) == pytest.approx(1.0, rel=1e-12)
        if name == "he11-he21":
            assert abs(d[0]) < 0.9
        else:
            # the saddle lies on the radial line through the minimum
            assert np.abs(d[1:]).max() <= 1e-6

    @pytest.mark.parametrize("fault", ("bracket", "ridge"))
    def test_uncertified_flood_saddle_raises(self, suite, field1, monkeypatch,
                                             fault):
        m = suite.minimum("he11-te01")
        if fault == "bracket":
            # a polish that lands on another first-order saddle, the crest
            # of the light wall toward the surface, about 4.9 times higher
            newton = trapanalysis._newton
            crest = newton(field1, (429.35, m[1], m[2]), 1)
            barrier = (potential.total_potential(field1, *crest)
                       - potential.total_potential(field1, *m))
            assert barrier > 4.0 * suite.report("he11-te01").base[1].depth_j
            monkeypatch.setattr(trapanalysis, "_newton",
                                lambda field_, point, negatives: crest)
            match = "grid tolerance"
        else:
            # a beat ridge no higher than the floor: escape along z is free
            valley = trapanalysis._valley

            def flat(*args):
                v, ridge, zs = valley(*args)
                return v, 0.0 * ridge, zs

            monkeypatch.setattr(trapanalysis, "_valley", flat)
            match = "beat ridge"
        with pytest.raises(NoTrapError, match=match):
            trapanalysis.escape_barrier(field1, m)

    @pytest.mark.parametrize("name, tau", (
        ("he11-te01", 0.68), ("he11-te01", 0.69), ("he11-he21", 0.78),
        ("te01-he21", 0.58), ("te01-he21", 0.60)))
    def test_surface_exit(self, suite, name, tau):
        # splits whose light wall toward the surface is lower than every
        # outward pass: the flood reaches the inner edge first, and the
        # saddle lies on the radial line through the minimum, where that
        # line's own maximum, sampled apart from the flood, is its height
        cfg = replace(suite.cfg(name), tau=tau)
        field_ = config.make_field(cfg)
        m = trapanalysis.find_minimum(field_, cfg.seed)
        esc = trapanalysis.escape_barrier(field_, m)
        _, h = potential.potential_derivatives(field_, *esc.saddle)
        assert np.sign(np.linalg.eigvalsh(h)).tolist() == [-1.0, 1.0, 1.0]
        assert esc.direction[0] < -0.999
        umin = potential.total_potential(field_, *m)
        wall = trapanalysis._inner_barrier(field_, m, umin, 0.0)[0]
        assert 0.0 <= esc.depth_j - wall <= 1e-6 * esc.depth_j
        if (name, tau) == ("te01-he21", 0.58):
            # the dense flood to the inner edge finds the same saddle; to
            # the outer edge it crosses the higher outward pass
            inner = oracles.dense_flood_escape(field_, m, inward=True)[0]
            assert inner == pytest.approx(esc.depth_j, rel=1e-12)
            outward = oracles.dense_flood_escape(field_, m)[0]
            assert outward == pytest.approx(5.34e-26, rel=1e-3)
            assert esc.depth_j == pytest.approx(8.61e-27, rel=1e-3)

    @pytest.mark.parametrize("bad", ("positive definite", "nan", "nan above"))
    def test_uncertified_saddle_raises(self, suite, field1, monkeypatch, bad):
        # the squared Hessian keeps the eigenvectors with every curvature
        # positive; eigvalsh reads the lower triangle only, so it returns
        # the clean curvatures of a Hessian with NaN above the diagonal
        derivatives = potential.potential_derivatives

        def broken(*args):
            g, h = derivatives(*args)
            if bad == "positive definite":
                return g, h @ h
            if bad == "nan":
                return g, np.full((3, 3), np.nan)
            h[0, 1] = np.nan
            return g, h

        m = suite.minimum("he11-te01")
        monkeypatch.setattr(potential, "potential_derivatives", broken)
        with pytest.raises(NoTrapError, match="saddle search"):
            trapanalysis.escape_barrier(field1, m)
        if bad != "positive definite":
            with pytest.raises(NoTrapError, match="minimum search"):
                trapanalysis.find_minimum(field1,
                                          suite.cfg("he11-te01").seed)

    def test_depth_bounded_by_axis_barriers(self, suite, field1):
        # the flood over every path can only find a barrier at or below
        # the barrier of any single axis cut
        m = suite.minimum("he11-te01")
        esc = trapanalysis.escape_barrier(field1, m)
        u0 = potential.total_potential(field1, *m)

        def wall(grid):
            return max((potential.total_potential(field1, ri, m[1], m[2]), ri)
                       for ri in grid)

        coarse, r_peak = wall(np.linspace(m[0] + 1.0, 2000.0, 400))
        fine, _ = wall(np.linspace(r_peak - 5.0, r_peak + 5.0, 400))
        radial_wall = max(coarse, fine) - u0
        # here the saddle lies on the radial cut, whose maximum the 0.025 nm
        # sampling can miss by a little
        assert esc.depth_j <= radial_wall * (1.0 + 1e-4)


class TestOrbitAveragedScattering:
    def test_deterministic(self, suite, field1):
        m = suite.minimum("he11-te01")
        st = trapanalysis.ThermalState(t_init_uk=100.0)
        turns = trapanalysis.turning_points(field1, m, st.e_init)
        r1 = trapanalysis.orbit_averaged_scattering(field1, m, turns)
        r2 = trapanalysis.orbit_averaged_scattering(field1, m, turns)
        assert r1 == r2

    def test_reference_rate(self, report1):
        assert report1.scattering_rate == pytest.approx(T1_RATE, rel=1e-6)

    def test_rate_exceeds_stationary_floor(self, suite, field1):
        # orbital excursions sample brighter regions than the dark minimum
        m = suite.minimum("he11-te01")
        floor = potential.local_scattering_rate(field1, *m)
        assert T1_RATE > floor

    @pytest.mark.parametrize("name", ["he11-te01", "he11-he21", "te01-he21"])
    def test_rate_is_floor_plus_thermal_term(self, suite, name):
        # scattering and light shift are one intensity times two
        # coefficients, and the rule's <sin^2> = 1/2 puts the orbit mean of
        # U - U_min at E_init / 2 in a harmonic well; the remainder is
        # anharmonicity and the van der Waals term (0.7 % at most)
        field_, report = suite.field(name), suite.report(name)
        floor = potential.local_scattering_rate(field_, *report.base[0])
        thermal = (field_.scatter_coeff / field_.shift_coeff
                   * config.thermal_state(suite.cfg(name)).e_init / 2.0)
        rate = report.scattering_rate
        assert abs(rate - floor - thermal) <= 0.01 * rate

    def test_extents_shape_validated(self, field1, suite):
        with pytest.raises(ValueError):
            trapanalysis.orbit_averaged_scattering(
                field1, suite.minimum("he11-te01"), np.zeros((3,)))

    @staticmethod
    def orbit_case(suite, name):
        field_, m = suite.field(name), suite.minimum(name)
        turns = trapanalysis.turning_points(
            field_, m, config.thermal_state(suite.cfg(name)).e_init)
        return field_, m, turns

    @pytest.mark.parametrize("name", ["he11-te01", "he11-he21", "te01-he21"])
    def test_within_sampling_error_of_the_draw(self, suite, name):
        # the product rule integrates the ensemble the 4,096-sample draw
        # samples, so it must lie within that draw's sampling error
        case = self.orbit_case(suite, name)
        mean, stderr = oracles.sampled_orbit_rate(*case)
        rate = trapanalysis.orbit_averaged_scattering(*case)
        assert abs(rate - mean) < 4.0 * stderr

    @pytest.mark.parametrize("name", ["he11-te01", "he11-he21", "te01-he21"])
    def test_node_doubling_converged(self, suite, name, monkeypatch):
        case = self.orbit_case(suite, name)
        rate = trapanalysis.orbit_averaged_scattering(*case)
        monkeypatch.setattr(trapanalysis, "_ORBIT_NODES",
                            2 * trapanalysis._ORBIT_NODES)
        doubled = trapanalysis.orbit_averaged_scattering(*case)
        assert doubled == pytest.approx(rate, rel=1e-8)

    def test_axial_fold_matches_the_full_product(self, suite):
        # the same nodes with the axial phase sampled, not folded: every
        # point of the 5-D product through local_scattering_rate
        field_, (r, p, z), turns = self.orbit_case(suite, "he11-te01")
        weight, scale, unit, phase_w = trapanalysis._orbit_rule(
            turns, trapanalysis._ORBIT_NODES)
        grid = (..., None, None, None)
        rates = potential.local_scattering_rate(
            field_, r + scale[0][grid] * unit[0][:, None, None],
            p + scale[1][grid] * unit[1][:, None] / r,
            z + scale[2][grid] * unit[2])
        full = np.sum(weight * (rates @ phase_w @ phase_w @ phase_w))
        assert trapanalysis.orbit_averaged_scattering(
            field_, (r, p, z), turns) == pytest.approx(full, rel=1e-12)

    def test_rule_moments(self):
        # flat Dirichlet: <E_k / E_init> = 1/3 on every axis; uniform
        # phase: <sin^2> = 1/2, on each side. The energy moments are
        # trigonometric, not algebraic, polynomials in alpha, which 8 nodes
        # integrate to about 1e-8 and 16 nodes to rounding
        turns = np.array([[-1.0, 1.0]] * 3)
        for nodes, rel in ((trapanalysis._ORBIT_NODES, 1e-7), (16, 1e-12)):
            weight, scale, unit, phase_w = trapanalysis._orbit_rule(
                turns, nodes)
            assert np.sum(weight) == pytest.approx(1.0, rel=1e-12)
            assert np.sum(phase_w) == pytest.approx(1.0, rel=1e-12)
            for k in range(3):
                assert np.sum(weight * scale[k] ** 2) == pytest.approx(
                    1.0 / 3.0, rel=rel)
                assert phase_w @ unit[k] ** 2 == pytest.approx(0.5, rel=1e-12)


class TestLifetime:
    def test_reference_value(self):
        st = trapanalysis.ThermalState(t_init_uk=100.0)
        got = trapanalysis.lifetime(
            T1_DEPTH_MK * KB * 1e-3, st, T1_RATE,
            1.3751229573732417e-30)
        assert got == pytest.approx(T1_LIFETIME, rel=1e-6)

    def test_no_heating_means_unbounded(self):
        st = trapanalysis.ThermalState(t_init_uk=100.0)
        assert trapanalysis.lifetime(
            1.0 * KB * 1e-3, st, 0.0, 1e-30) == math.inf

    def test_requires_energy_headroom(self):
        st = trapanalysis.ThermalState(t_init_uk=100.0)
        with pytest.raises(ValueError):
            trapanalysis.lifetime(KB * 50e-6, st, 10.0, 1e-30)


class TestCharacterizeTrap:
    def test_inner_barrier_dwarfs_escape_depth(self, report1):
        assert report1.inner_barrier_mk > 4.0 * report1.depth_mk
        assert report1.inner_barrier_width_nm == pytest.approx(94.35, rel=1e-3)

    def test_report_reference_values(self, report1):
        assert report1.minimum[0] == pytest.approx(T1_MIN[0], rel=1e-6)
        assert report1.minimum[2] == 0.0
        assert report1.depth_mk == pytest.approx(T1_DEPTH_MK, rel=1e-6)
        assert report1.u_min_mk == pytest.approx(-0.016724, abs=1e-5)
        assert report1.beat_length_nm == pytest.approx(T1_Z0, rel=1e-9)
        assert report1.lifetime_s == pytest.approx(T1_LIFETIME, rel=1e-6)
        assert report1.cancellation == pytest.approx(2.565e-6, rel=1e-2)
        assert report1.min_intensity_w_m2 == pytest.approx(16214.4, rel=1e-3)

    def test_report_is_internally_consistent(self, report1):
        mass = potential.cesium().mass_kg
        harm = trapanalysis.harmonic_extents(
            report1.omega, trapanalysis.ThermalState(report1.t_ref_uk), mass)
        assert harm == pytest.approx(report1.harmonic_extents_nm, rel=1e-12)

    def test_to_dict_round_trips_through_json(self, report1):
        doc = json.loads(json.dumps(report1.to_dict()))
        assert doc["schema_version"] == 1
        assert doc["modes"] == ["HE11", "TE01"]
        assert doc["minimum"]["r_nm"] == pytest.approx(T1_MIN[0])
        assert doc["depth_mk"] == pytest.approx(T1_DEPTH_MK)
        assert doc["lifetime_exceeds_cap"] is False

    def test_shallow_trap_rejected(self, suite):
        cfg = suite.cfg("he11-te01")
        hot = trapanalysis.ThermalState(t_init_uk=5000.0)
        with pytest.raises(NoTrapError):
            trapanalysis.characterize_trap(
                suite.field("he11-te01"), cfg.seed, hot)


class TestPowerSplitSigma:
    def test_exact_midpoint(self):
        assert trapanalysis.power_split_sigma(0.5) == 0.025

    def test_vanishes_at_pure_splits(self):
        assert trapanalysis.power_split_sigma(0.0) == 0.0
        assert trapanalysis.power_split_sigma(1.0) == 0.0

    def test_outside_unit_interval_rejected(self):
        for tau in (-0.01, 1.01):
            with pytest.raises(ValueError):
                trapanalysis.power_split_sigma(tau)


class TestTauSensitivity:
    def test_rows_and_reference_changes(self, suite):
        sens = suite.sens("he11-te01")
        tau0 = 0.72
        sigma = trapanalysis.power_split_sigma(tau0)
        assert sens["tau0"] == tau0
        assert sens["sigma"] == pytest.approx(sigma, rel=1e-12)
        rows = sens["rows"]
        assert [row["tau"] for row in rows] == pytest.approx(
            [tau0 - sigma, tau0, tau0 + sigma])
        assert all(row["trap"] for row in rows)
        assert rows[1]["depth_change_pct"] == 0.0
        assert rows[0]["depth_change_pct"] == pytest.approx(35.83, abs=0.5)
        assert rows[2]["depth_change_pct"] == pytest.approx(-26.97, abs=0.5)

    def test_minimum_moves_outward_with_tau(self, suite):
        # more power in the fundamental pushes the trap away from the core
        rows = suite.sens("he11-te01")["rows"]
        radii = [row["minimum"]["r_nm"] for row in rows]
        assert radii[0] < radii[1] < radii[2]

    def test_trapless_splits_are_flagged(self, suite):
        cfg = suite.cfg("he11-te01")
        field_ = suite.field("he11-te01")
        sens = trapanalysis.tau_sensitivity(
            replace(field_, pair=replace(field_.pair, tau=0.985)), cfg.seed)
        for row in sens["rows"]:
            assert row["trap"] is False
            assert "reason" in row
            assert "depth_change_pct" not in row

    def test_split_outside_unit_interval_is_flagged_unbuilt(
            self, suite, searched_splits):
        # at tau0 = 0.001 the tau0 - sigma row lies below 0
        field_ = suite.field("he11-te01")
        sens = trapanalysis.tau_sensitivity(
            replace(field_, pair=replace(field_.pair, tau=0.001)),
            suite.cfg("he11-te01").seed)
        low, base, high = sens["rows"]
        assert low["tau"] < 0.0
        assert low["trap"] is False
        assert "outside [0, 1]" in low["reason"]
        assert searched_splits == [base["tau"], high["tau"]]

    @pytest.mark.parametrize("tau0", [0.0, 1.0])
    def test_zero_sigma_builds_one_field(self, suite, searched_splits, tau0):
        # at tau0 = 0 or 1 sigma is 0 and the three rows share one split
        field_ = suite.field("he11-te01")
        sens = trapanalysis.tau_sensitivity(
            replace(field_, pair=replace(field_.pair, tau=tau0)),
            suite.cfg("he11-te01").seed)
        assert searched_splits == [tau0]
        assert [row["tau"] for row in sens["rows"]] == [tau0] * 3
        assert all(row == {"tau": tau0, "trap": False, "reason": "stub field"}
                   for row in sens["rows"])

    def test_base_row_reuse_changes_nothing(self, suite, report1):
        sens = trapanalysis.tau_sensitivity(
            suite.field("he11-te01"), suite.cfg("he11-te01").seed,
            base=report1.base)
        assert sens == suite.sens("he11-te01")

    def test_report_runs_one_seed_scan_per_split(self, seed_scans, tmp_path):
        # the characterization scans the seed box once and the tau0 row
        # reuses its minimum; each perturbed row scans its own split
        assert cli.main(["report", "--preset", "he11-te01",
                         "--out", str(tmp_path / "report.json")]) == 0
        assert len(seed_scans) == 3

    def test_report_runs_three_escape_searches_and_two_quadratures(
            self, monkeypatch, tmp_path):
        counts = {}

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(trapanalysis, "escape_barrier")
        count(config, "make_field")
        count(modes, "solve_mode")
        count(modes, "mode_power")
        out = tmp_path / "report.json"
        assert cli.main(["report", "--preset", "he11-te01",
                         "--out", str(out)]) == 0
        # the tau0 row reuses the characterization; the one field build
        # solves both modes and integrates their powers, and the other
        # splits re-weight the solved pair
        assert counts == {"escape_barrier": 3, "make_field": 1,
                          "solve_mode": 2, "mode_power": 2}
