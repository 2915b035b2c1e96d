"""Unit tests for the guided-mode solver and field evaluation.

The dispersion solutions are checked against an independently built
boundary-condition determinant (tests/oracles.py), exterior radial profiles
against closed-form modified-Bessel combinations, and power normalization
against a direct Poynting quadrature.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special

import oracles
from fibertrap import config, modes, numerics
from fibertrap.errors import ConfigError, ConvergenceError, CutoffError

FIBER = config.preset("he11-te01").fiber
WL = 850.0


@pytest.fixture(scope="module")
def solved():
    return {name: modes.solve_mode(FIBER, WL, name)
            for name in ("HE11", "TE01", "TM01", "HE21")}


def paper_s(sol):
    """Hybrid polarization parameter from its printed closed form.

    s = [1/u^2 + 1/w^2] / [J'_nu(u)/(u J_nu(u)) + K'_nu(w)/(w K_nu(w))],
    evaluated with scipy Bessels only; the fields combine it as (1 -+ nu s).
    """
    nu, u, w = sol.mode.nu, sol.u, sol.w
    num = 1.0 / u ** 2 + 1.0 / w ** 2
    den = (special.jvp(nu, u) / (u * special.jv(nu, u))
           + special.kvp(nu, w) / (w * special.kv(nu, w)))
    return num / den


class TestVParameterAndCensus:
    def test_v_parameter(self):
        v = modes.v_parameter(FIBER, WL)
        assert v == pytest.approx(3.11, abs=0.01)

    def test_census_names(self):
        names = {m.name for m in modes.supported_modes(FIBER, WL)}
        assert names == {"HE11", "TE01", "TM01", "HE21"}

    def test_census_sorted_by_beta(self):
        sols = [modes.solve_mode(FIBER, WL, m)
                for m in modes.supported_modes(FIBER, WL)]
        neffs = [s.neff for s in sols]
        assert neffs == sorted(neffs, reverse=True)

    def test_census_runs_one_scan_per_function(self, monkeypatch):
        # TE, TM and the hybrid orders 1 to 3: HE and EH of one order are
        # roots of one characteristic function and share its scan
        v = modes.v_parameter(FIBER, WL)
        scans = []
        char_roots = modes._char_roots

        def counted(*args):
            scans.append(args[3:])
            return char_roots(*args)

        monkeypatch.setattr(modes, "_char_roots", counted)
        modes._census(v, FIBER.n_core, FIBER.n_clad)
        assert scans == [("TE", 0), ("TM", 0), ("HE", 1), ("HE", 2),
                         ("HE", 3)]

    def test_census_below_he41_cutoff(self):
        # HE41 cuts in at V = 5.5788; below it the census is complete
        wl = 2.0 * math.pi * FIBER.radius_nm * math.sqrt(
            FIBER.n_core ** 2 - FIBER.n_clad ** 2) / 5.0
        names = [m.name for m in modes.supported_modes(FIBER, wl)]
        assert names == ["HE11", "TE01", "HE21", "TM01", "EH11", "HE31",
                         "HE12"]

    def test_census_above_he41_cutoff_raises(self):
        # the census stops at azimuthal order 3, so at V = 7 it would miss
        # HE41 and list only 12 modes
        wl = 2.0 * math.pi * FIBER.radius_nm * math.sqrt(
            FIBER.n_core ** 2 - FIBER.n_clad ** 2) / 7.0
        with pytest.raises(ValueError, match="HE41 cutoff V = 5.5788"):
            modes.supported_modes(FIBER, wl)

    def test_single_mode_regime(self):
        # V = 2.3 sits below the first higher-order cutoff
        wl = 2.0 * math.pi * FIBER.radius_nm * math.sqrt(
            FIBER.n_core ** 2 - FIBER.n_clad ** 2) / 2.3
        names = {m.name for m in modes.supported_modes(FIBER, wl)}
        assert names == {"HE11"}

    def test_cutoffs(self):
        # HE11 has no physical cutoff; its visible one is where the census
        # starts to list it, as for every other branch
        v_he11 = modes.cutoff_v(FIBER, "HE11")
        assert v_he11 == pytest.approx(0.5264, abs=1e-4)
        for v, listed in ((v_he11 - 1e-7, False), (v_he11 + 1e-7, True)):
            names = [row[0] for row in
                     modes._census(v, FIBER.n_core, FIBER.n_clad)]
            assert ("HE11" in names) == listed, v
        # TE01 and TM01 cut off together at the first zero of J0
        for name in ("TE01", "TM01"):
            assert modes.cutoff_v(FIBER, name) == pytest.approx(
                2.404825557695773, abs=1e-3)
        assert modes.cutoff_v(FIBER, "HE21") == pytest.approx(2.762, abs=2e-3)
        # HE13 cuts off between 6.5 and the solver's V = 8, near the second
        # zero of J1; TE03 beyond 8
        assert modes.cutoff_v(FIBER, "HE13") == pytest.approx(7.0424, abs=1e-4)
        assert modes.cutoff_v(FIBER, "TE03") == math.inf

    def test_order_beyond_the_census_raises(self):
        # the J series stops at order 4, so HE41 (which needs J_5) is
        # refused with a ValueError, not an IndexError
        with pytest.raises(ValueError, match="orders 3..5"):
            modes.solve_mode(FIBER, 850.5, modes.ModeId("HE", 4, 1))

    def test_below_cutoff_raises(self):
        # TE01 at V = 2.30, and HE11 on a 40 nm fiber at V = 0.31, below the
        # visible cutoff that cutoff_v reports for it too; HE13 cuts off at
        # V = 7.04, above the first bracket's 6.5, and TE03 above V = 8, the
        # solver's range, which the message names instead of a cutoff
        thin = replace(FIBER, radius_nm=40.0)
        for fiber, wl, name in ((FIBER, 1150.0, "TE01"),
                                (thin, 850.5, "HE11"),
                                (FIBER, 850.5, "HE13"),
                                (FIBER, 850.5, "TE03")):
            with pytest.raises(CutoffError) as err:
                modes.solve_mode(fiber, wl, name)
            assert err.value.mode_name == name
            assert err.value.v < err.value.v_cutoff
            assert ("above V = 8.0" in str(err.value)) == (name == "TE03")

    def test_parse_mode_name(self):
        m = modes.parse_mode_name("HE21")
        assert (m.family, m.nu, m.m) == ("HE", 2, 1)
        with pytest.raises(ValueError):
            modes.parse_mode_name("XY11")


class TestDispersion:
    def test_solutions_zero_boundary_determinant(self, solved):
        for sol in solved.values():
            d0 = oracles.boundary_determinant(FIBER, WL, sol.mode.nu, sol.neff)
            off = max(abs(oracles.boundary_determinant(
                FIBER, WL, sol.mode.nu, sol.neff + step))
                for step in (-1e-4, 1e-4))
            assert abs(d0) < 1e-6 * off

    def test_roots_match_independent_determinant(self, solved):
        # the operating point; every census row at V = 5, where EH11, HE31
        # and HE12 are told apart from HE11 and HE21 on a shared scan; and
        # TE01 and TM01 at V = 2.42, 2.9 scan cells apart above their
        # shared cutoff
        sols = list(solved.values())
        for v, names in ((5.0, None), (2.42, ("TE01", "TM01"))):
            wl = 2.0 * math.pi * FIBER.radius_nm * math.sqrt(
                FIBER.n_core ** 2 - FIBER.n_clad ** 2) / v
            names = names or modes.supported_modes(FIBER, wl)
            sols += [modes.solve_mode(FIBER, wl, name) for name in names]
        assert len(sols) == 13
        for sol in sols:
            root = oracles.determinant_root(
                FIBER, sol.wavelength_nm, sol.mode.nu, sol.neff - 1e-4,
                sol.neff + 1e-4)
            assert sol.neff == pytest.approx(root, abs=1e-9)

    def test_beta_ordering_at_operating_point(self, solved):
        assert (solved["HE11"].neff > solved["TE01"].neff
                > solved["TM01"].neff > solved["HE21"].neff)

    def test_tm01_he21_cross_at_high_v(self):
        # the two branches swap order between V = 3.11 and V = 5
        wl5 = 2.0 * math.pi * FIBER.radius_nm * math.sqrt(
            FIBER.n_core ** 2 - FIBER.n_clad ** 2) / 5.0
        tm = modes.solve_mode(FIBER, wl5, "TM01")
        he = modes.solve_mode(FIBER, wl5, "HE21")
        assert he.neff > tm.neff
        # confirmed from first principles by the boundary determinant
        root_tm = oracles.determinant_root(FIBER, wl5, 0,
                                           tm.neff - 1e-4, tm.neff + 1e-4)
        root_he = oracles.determinant_root(FIBER, wl5, 2,
                                           he.neff - 1e-4, he.neff + 1e-4)
        assert root_he > root_tm

    def test_neff_bounds_and_monotone_in_v(self):
        neffs = []
        for wl in (900.0, 870.0, 840.0, 810.0):
            sol = modes.solve_mode(FIBER, wl, "HE11")
            assert FIBER.n_clad < sol.neff < FIBER.n_core
            neffs.append(sol.neff)
        assert neffs == sorted(neffs)  # neff grows with V

    def test_decay_lengths(self, solved):
        assert solved["HE11"].decay_length_nm == pytest.approx(164.0, rel=0.02)
        assert solved["TE01"].decay_length_nm == pytest.approx(277.0, rel=0.02)
        assert solved["HE21"].decay_length_nm == pytest.approx(420.0, rel=0.02)

    def test_sweep_rows(self):
        rows = modes.dispersion_sweep(FIBER, 2.0, 3.0, 5)
        vs = sorted({v for v, _, _ in rows})
        assert vs == pytest.approx(list(np.linspace(2.0, 3.0, 5)))
        # no TE01 below its cutoff, present above
        te_vs = [v for v, name, _ in rows if name == "TE01"]
        assert all(v > 2.404 for v in te_vs)
        assert any(abs(v - 3.0) < 1e-12 for v in te_vs)
        for v, name, neff in rows:
            assert FIBER.n_clad < neff < FIBER.n_core

    def test_sweep_validates_range(self):
        with pytest.raises(ValueError):
            modes.dispersion_sweep(FIBER, 3.0, 2.0, 5)


class TestExteriorProfiles:
    """Radial profiles outside the fibre against closed-form K combinations.

    Amplitude ratios between two radii at fixed azimuth cancel every
    normalization convention, so these pin the functional form alone.
    """

    R1, R2 = 600.0, 800.0

    def ratio(self, sol, comp, phi, cartesian=True):
        vals = []
        for r in (self.R1, self.R2):
            f = modes.e_field(sol, r, phi, 0.0)
            if cartesian:
                f = modes.cartesian_components(f, phi)
            vals.append(f[comp])
        return vals[0] / vals[1]

    def k_ratio(self, sol, order):
        q = sol.q_per_nm
        return (special.kv(order, q * self.R1)
                / special.kv(order, q * self.R2))

    def test_he11_transverse(self, solved):
        sol = solved["HE11"]
        s = paper_s(sol)
        q = sol.q_per_nm

        def combo(r):
            return ((1.0 - s) * special.kv(0, q * r)
                    + (1.0 + s) * special.kv(2, q * r))

        # E_x along phi = 0: (1-s)K0 + (1+s)K2
        assert self.ratio(sol, 0, 0.0) == pytest.approx(
            combo(self.R1) / combo(self.R2), rel=1e-10)
        # at phi = pi/4 the K2 term leaves E_x, E_y isolates it
        assert abs(self.ratio(sol, 0, math.pi / 4)) == pytest.approx(
            self.k_ratio(sol, 0), rel=1e-10)
        assert abs(self.ratio(sol, 1, math.pi / 4)) == pytest.approx(
            self.k_ratio(sol, 2), rel=1e-10)

    def test_he11_axial(self, solved):
        sol = solved["HE11"]
        assert abs(self.ratio(sol, 2, 0.0)) == pytest.approx(
            self.k_ratio(sol, 1), rel=1e-10)

    def test_he11_axial_quadrature_phase(self, solved):
        # E_z runs pi/2 out of phase with the transverse field
        f = modes.cartesian_components(
            modes.e_field(solved["HE11"], 600.0, 0.0, 0.0), 0.0)
        ex, ez = f[0], f[2]
        assert abs(ex) > 0 and abs(ez) > 0
        assert abs((ez * np.conj(ex)).real) < 1e-12 * abs(ez * ex)

    @staticmethod
    def assert_nu0_structure(sol, absent_e, absent_h):
        # TE and TM are the nu = 0 case of the hybrid kernel: on both sides
        # of the core the fields do not depend on phi, bit for bit, the
        # components the family lacks are exactly zero, and so is every
        # phi derivative of the exterior field
        phis = (0.0, 1.1, -2.5)
        for r in (300.0, 700.0):
            for field, absent in ((modes.e_field, absent_e),
                                  (modes.h_field, absent_h)):
                vals = [field(sol, r, phi, 0.0) for phi in phis]
                assert all(v.tobytes() == vals[0].tobytes() for v in vals)
                for k in range(3):
                    assert (vals[0][k] == 0.0) == (k in absent), (r, k)
        for phi in phis:
            _, de, d2e = modes.e_field_exterior_jacobian(sol, 700.0, phi, 0.0)
            assert np.all(de[1] == 0.0)
            assert np.all(d2e[1] == 0.0) and np.all(d2e[:, 1] == 0.0)

    def test_te01_profile(self, solved):
        sol = solved["TE01"]
        # E_r = E_z = 0 and H_phi = 0
        self.assert_nu0_structure(sol, absent_e=(0, 2), absent_h=(1,))
        assert abs(self.ratio(sol, 1, 0.3, cartesian=False)) == pytest.approx(
            self.k_ratio(sol, 1), rel=1e-10)

    def test_tm01_profile(self, solved):
        sol = solved["TM01"]
        # E_phi = 0 and H_r = H_z = 0
        self.assert_nu0_structure(sol, absent_e=(1,), absent_h=(0, 2))
        assert abs(self.ratio(sol, 0, 0.7, cartesian=False)) == pytest.approx(
            self.k_ratio(sol, 1), rel=1e-10)
        assert abs(self.ratio(sol, 2, 0.7, cartesian=False)) == pytest.approx(
            self.k_ratio(sol, 0), rel=1e-10)

    def test_he21_transverse(self, solved):
        sol = solved["HE21"]
        s = paper_s(sol)
        q = sol.q_per_nm

        def combo(r):
            return ((1.0 - 2.0 * s) * special.kv(1, q * r)
                    + (1.0 + 2.0 * s) * special.kv(3, q * r))

        assert abs(self.ratio(sol, 0, 0.0)) == pytest.approx(
            abs(combo(self.R1) / combo(self.R2)), rel=1e-10)

    def test_he21_axial(self, solved):
        assert abs(self.ratio(solved["HE21"], 2, 0.0)) == pytest.approx(
            self.k_ratio(solved["HE21"], 2), rel=1e-10)

    def test_orientation_rotates_pattern(self):
        # every HE and EH order turns counterclockwise by its orientation:
        # E(r, phi + alpha, z) at alpha is E(r, phi, z) at 0, inside and
        # outside the core, and the unit-amplitude power does not move
        fiber = replace(FIBER, radius_nm=600.0)
        alpha = 0.83
        phi = np.array([0.0, 1.0, 2.5, -2.0])
        for name in ("HE11", "HE21", "EH11", "HE31", "HE12"):
            base = modes.solve_mode(fiber, 850.5, name)
            rot = modes.solve_mode(fiber, 850.5,
                                   modes.parse_mode_name(name, alpha))
            assert rot.unit_power_w == base.unit_power_w, name
            for field in (modes.e_field, modes.h_field):
                for r in (300.0, 650.0):
                    ref = field(base, r, phi, 120.0)
                    got = field(rot, r, phi + alpha, 120.0)
                    assert np.allclose(got, ref, rtol=1e-12,
                                       atol=1e-18), name

    @pytest.mark.parametrize("name", ["TE01", "TM01"])
    def test_orientation_leaves_te_and_tm_alone(self, name):
        # nu = 0: the orientation does not reach a single field bit
        base = modes.solve_mode(FIBER, WL, name)
        phi = np.array([0.0, -0.0, 1.1, -2.5])
        for alpha in (0.83, -0.83):
            rot = modes.solve_mode(FIBER, WL, modes.parse_mode_name(name,
                                                                    alpha))
            assert rot.unit_power_w == base.unit_power_w
            for field in (modes.e_field, modes.h_field):
                for r in (300.0, 650.0):
                    assert (field(rot, r, phi, 37.0).tobytes()
                            == field(base, r, phi, 37.0).tobytes())


class TestExteriorFastPath:
    def test_all_exterior_batch_matches_mixed_batch(self, solved):
        # an all-exterior batch skips the interior/exterior split; its values
        # must be the exterior entries of a mixed batch, bit for bit
        rng = np.random.default_rng(7)
        r = rng.uniform(0.0, 3.0 * FIBER.radius_nm, 400)
        phi = rng.uniform(-math.pi, math.pi, 400)
        z = rng.uniform(-2000.0, 2000.0, 400)
        out = r > FIBER.radius_nm
        assert 0 < out.sum() < out.size
        for sol in solved.values():
            for fn in (modes.e_field, modes.h_field):
                mixed = fn(sol, r, phi, z)
                assert np.array_equal(fn(sol, r[out], phi[out], z[out]),
                                      mixed[out])


def same_bits(got, want):
    """Equal shape, dtype and bytes: signed zeros count too."""
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.ascontiguousarray(got).tobytes()
            == np.ascontiguousarray(want).tobytes())


class TestOpenOperands:
    """Open axes give the bits of the meshgrid arrays they broadcast to.

    The field kernel evaluates the transverse part on r and phi alone and
    multiplies it by the phase on z's own shape; when every radius lies on
    one side of the core, r and phi also keep their own shapes through the
    kernel. Each element still goes through the same operations, so it is
    its transverse value times its phase, bit for bit.
    """

    PHI = np.linspace(-math.pi, math.pi, 7)
    Z = np.linspace(-2500.0, 2500.0, 5)
    RADII = {"interior": np.linspace(0.0, 1.0, 11),
             "exterior": np.linspace(1.01, 3.0, 11),
             "mixed": np.linspace(0.5, 1.5, 11)}

    def operands(self, r):
        opened = (r[:, None, None], self.PHI[None, :, None],
                  self.Z[None, None, :])
        return opened, np.meshgrid(r, self.PHI, self.Z, indexing="ij")

    @pytest.mark.parametrize("name", ["HE11", "TE01", "TM01", "HE21"])
    def test_open_operands_equal_full_operands(self, solved, name):
        sol = solved[name]
        # from the axis across the core edge (r = a is a sample) outward
        opened, full = self.operands(
            np.linspace(0.0, 3.0 * FIBER.radius_nm, 13))
        for fn in (modes.e_field, modes.h_field):
            got = fn(sol, *opened)
            assert got.shape == (13, 7, 5, 3)
            assert np.array_equal(got, fn(sol, *full))
        # the exterior Jacobian takes one point: at each point of the
        # opened exterior grid, its value is the open-operand field's
        r = np.linspace(1.01, 3.0, 9) * FIBER.radius_nm
        want = modes.e_field(sol, *self.operands(r)[0])
        for i, j, k in np.ndindex(want.shape[:3]):
            got = modes.e_field_exterior_jacobian(sol, r[i], self.PHI[j],
                                                  self.Z[k])
            assert [g.shape for g in got] == [(3,), (3, 3), (3, 3, 3)]
            assert np.array_equal(got[0], want[i, j, k])

    @pytest.mark.parametrize("side", ["interior", "exterior", "mixed"])
    @pytest.mark.parametrize("name", ["HE11", "TE01", "TM01", "HE21"])
    def test_transverse_fields_on_open_axes(self, solved, name, side):
        # interior includes the axis and r = a; for TE01 and TM01 (nu = 0)
        # chi is a scalar, so one side's components come back on r's shape
        # alone and must still broadcast over phi
        sol = solved[name]
        r = self.RADII[side] * FIBER.radius_nm
        rr, pp = np.meshgrid(r, self.PHI, indexing="ij")
        for want_h in (False, True):
            got = modes.transverse_fields(sol, r[:, None], self.PHI[None, :],
                                          want_h)
            want = modes.transverse_fields(sol, rr, pp, want_h)
            assert all(same_bits(g, w) for g, w in zip(got, want))
            assert [g.shape for g in got] == [(11, 7)] * 3
        for fn in (modes.e_field, modes.h_field):
            assert same_bits(fn(sol, r[:, None], self.PHI[None, :], 0.0),
                             fn(sol, rr, pp, 0.0))

    def test_z_with_more_dimensions_than_r_and_phi(self, solved):
        r = np.linspace(200.0, 900.0, 6)
        phi = np.linspace(0.0, 2.0, 6)
        z = np.linspace(-1000.0, 1000.0, 24).reshape(4, 6)
        full = np.broadcast_arrays(r, phi, z)
        for sol in solved.values():
            for fn in (modes.e_field, modes.h_field):
                got = fn(sol, r, phi, z)
                assert got.shape == (4, 6, 3)
                assert np.array_equal(got, fn(sol, *full))
            # the exterior Jacobian takes one point: at each point, its
            # value is the field's on the operands r, phi and z
            outside = (r + 300.0, phi, z)
            want = modes.e_field(sol, *outside)
            points = np.broadcast_arrays(*outside)
            for idx in np.ndindex(z.shape):
                got = modes.e_field_exterior_jacobian(
                    sol, *(x[idx] for x in points))
                assert [g.shape for g in got] == [(3,), (3, 3), (3, 3, 3)]
                assert np.array_equal(got[0], want[idx])


class TestBoundaryContinuity:
    def test_tangential_components_continuous(self, solved):
        rng = np.random.default_rng(20260822)
        a = FIBER.radius_nm
        eps = 1e-8
        for sol in solved.values():
            for _ in range(20):
                phi = rng.uniform(0.0, 2.0 * math.pi)
                z = rng.uniform(0.0, 2000.0)
                e_in = modes.e_field(sol, a - eps, phi, z)
                e_out = modes.e_field(sol, a + eps, phi, z)
                h_in = modes.h_field(sol, a - eps, phi, z)
                h_out = modes.h_field(sol, a + eps, phi, z)
                scale = max(np.abs(e_in).max(), 1e-300)
                hscale = max(np.abs(h_in).max(), 1e-300)
                for idx in (1, 2):  # phi and z components
                    assert abs(e_in[idx] - e_out[idx]) <= 1e-9 * scale
                    assert abs(h_in[idx] - h_out[idx]) <= 1e-9 * hscale

    def test_normal_displacement_continuous(self, solved):
        # eps_core E_r(in) = eps_clad E_r(out) across the interface
        a = FIBER.radius_nm
        eps = 1e-8
        for name in ("HE11", "TM01", "HE21"):
            sol = solved[name]
            e_in = modes.e_field(sol, a - eps, 0.4, 37.0)
            e_out = modes.e_field(sol, a + eps, 0.4, 37.0)
            lhs = FIBER.n_core ** 2 * e_in[0]
            rhs = FIBER.n_clad ** 2 * e_out[0]
            assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def near_cutoff(name, dv=0.02):
    """Solution of a mode at V = cutoff + dv, where its field decays slowly."""
    v = modes.cutoff_v(FIBER, name) + dv
    na = math.sqrt(FIBER.n_core ** 2 - FIBER.n_clad ** 2)
    return modes.solve_mode(FIBER, 2.0 * math.pi * FIBER.radius_nm * na / v,
                            name)


class TestPower:
    def test_normalized_power_matches_quadrature(self, solved):
        sols = list(solved.values()) + [near_cutoff(name) for name in
                                        ("HE21", "TE01", "TM01", "HE12")]
        for sol in sols:
            norm = modes.normalize_power(sol, 10.0)
            assert oracles.mode_power_quadrature(norm) == pytest.approx(
                10.0, rel=1e-10)

    def test_doubling_the_nodes_does_not_move_the_power(self, solved,
                                                         monkeypatch):
        sols = list(solved.values()) + [near_cutoff("HE12")]
        powers = [modes.mode_power(sol) for sol in sols]
        monkeypatch.setattr(numerics, "_GAUSS_NODES",
                            2 * numerics._GAUSS_NODES)
        for sol, power in zip(sols, powers):
            assert modes.mode_power(sol) == pytest.approx(power, rel=1e-13)

    def test_amplitude_scales_as_sqrt_power(self, solved):
        sol = solved["HE11"]
        p1 = modes.normalize_power(sol, 5.0)
        p4 = modes.normalize_power(sol, 20.0)
        assert p4.amplitude == pytest.approx(2.0 * p1.amplitude, rel=1e-12)

    def test_zero_power_zeroes_field(self, solved):
        z = modes.normalize_power(solved["TE01"], 0.0)
        assert z.power_mw == 0.0
        assert np.all(modes.e_field(z, 600.0, 0.3, 0.0) == 0.0)

    def test_negative_power_rejected(self, solved):
        with pytest.raises(ValueError):
            modes.normalize_power(solved["TE01"], -1.0)

    def test_nan_power_rejected(self, monkeypatch):
        # solve_mode integrates the unit-amplitude power once and stores it
        # for normalize_power; a power that is not positive is an error
        for power in (math.nan, 0.0, -1.0):
            monkeypatch.setattr(modes, "mode_power", lambda sol: power)
            with pytest.raises(ConvergenceError):
                modes.solve_mode(FIBER, WL, "TE01")

    @pytest.mark.parametrize("name", ["HE11", "TE01", "TM01", "HE21"])
    def test_power_equals_one_call_per_azimuth(self, solved, name):
        # mode_power takes its quadrature azimuths in one open-axis call;
        # the power is that of one call per azimuth, added in the same
        # order, bit for bit, so unit_power_w does not move
        sol = solved[name]
        nu = sol.mode.nu
        psi = modes._z_amplitudes(sol)[2]
        phis = ((0.0,) if nu == 0 else
                ((0.0 - psi) / nu, (0.5 * math.pi - psi) / nu))

        def ring(r):
            total = 0
            for p in phis:
                e = modes.e_field(sol, r, p, 0.0)
                h = modes.h_field(sol, r, p, 0.0)
                total = total + 0.5 * np.real(e[..., 0] * np.conj(h[..., 1])
                                              - e[..., 1] * np.conj(h[..., 0]))
            return total * r

        a = sol.fiber.radius_nm
        inner = numerics.integrate(ring, 0.0, a)
        outer = numerics.integrate(
            lambda t: ring(a * np.exp(t)) * a * np.exp(t),
            0.0, np.log1p(40.0 / sol.w))
        weight = 2.0 * math.pi if nu == 0 else math.pi
        assert sol.unit_power_w == weight * (inner + outer) * 1e-18
        assert modes.mode_power(sol) == sol.unit_power_w

    def test_normalization_reads_the_stored_power(self, solved,
                                                  monkeypatch):
        sol = solved["HE11"]
        assert sol.unit_power_w == modes.mode_power(sol)
        monkeypatch.setattr(modes, "mode_power", lambda sol: math.nan)
        norm = modes.normalize_power(sol, 10.0)
        assert norm.unit_power_w == sol.unit_power_w
        assert norm.amplitude == math.sqrt(10.0 * 1e-3 / sol.unit_power_w)


class TestFieldEvaluation:
    def test_broadcasting(self, solved):
        sol = solved["HE11"]
        r = np.linspace(420.0, 900.0, 7)
        phi = 0.3
        out = modes.e_field(sol, r, phi, 0.0)
        assert out.shape == (7, 3)
        single = modes.e_field(sol, r[2], phi, 0.0)
        assert np.array_equal(out[2], single)

    def test_on_axis_finite(self, solved):
        for sol in solved.values():
            assert np.all(np.isfinite(modes.e_field(sol, 0.0, 0.0, 0.0)))

    @pytest.mark.parametrize("name", ["HE11", "TE01", "TM01", "HE21"])
    def test_exterior_jacobian_matches_fd(self, solved, name):
        sol = solved[name]
        point = np.array([620.0, 0.9, 40.0])
        e, de, d2e = modes.e_field_exterior_jacobian(sol, *point)
        assert np.array_equal(e, modes.e_field(sol, *point))
        assert [g.shape for g in (e, de, d2e)] == [(3,), (3, 3), (3, 3, 3)]
        rs = np.linspace(410.0, 1400.0, 9)
        phis = np.linspace(-np.pi, np.pi, 5)
        want = modes.e_field(sol, rs[:, None], phis, point[2])
        for i, j in np.ndindex(want.shape[:2]):
            got = modes.e_field_exterior_jacobian(sol, rs[i], phis[j],
                                                  point[2])
            assert np.array_equal(got[0], want[i, j])
        h = 1e-4
        for i, step in enumerate(np.diag([h, h, h])):
            # first derivatives against central differences of the field,
            # second derivatives against central differences of the first;
            # unit-amplitude derivatives are ~1e-3 per nm, so the absolute
            # slack scales with each derivative instead of being fixed
            fd = (modes.e_field(sol, *(point + step))
                  - modes.e_field(sol, *(point - step))) / (2 * h)
            fd2 = (modes.e_field_exterior_jacobian(sol, *(point + step))[1]
                   - modes.e_field_exterior_jacobian(sol, *(point - step))[1]
                   ) / (2 * h)
            for exact, approx in ((de[i], fd), (d2e[i], fd2)):
                assert np.allclose(exact, approx, rtol=1e-6,
                                   atol=1e-6 * np.abs(approx).max())
        # mixed second derivatives do not depend on the order
        assert np.array_equal(d2e, np.swapaxes(d2e, 0, 1))

    @pytest.mark.parametrize("name", ["HE11", "TE01"])
    def test_edge_bessels_once_per_solution(self, solved, name, monkeypatch):
        # J_nu(u) and K_nu(w) scale every exterior evaluation; solve_mode
        # computes them once per solution, so each field evaluation makes
        # one K call for its own points and none at the core edge
        sol = solved[name]
        nu = sol.mode.nu
        assert sol.j_u == pytest.approx(special.jv(nu, sol.u), rel=1e-12)
        assert sol.k_w == pytest.approx(special.kv(nu, sol.w), rel=1e-12)
        calls = []
        for fn in ("bessel_j_orders", "bessel_k_orders"):
            real = getattr(numerics, fn)
            monkeypatch.setattr(numerics, fn, lambda x, *orders, fn=fn,
                                real=real: calls.append((fn, x))
                                or real(x, *orders))
        for r in (450.0, 600.0, 800.0):
            modes.e_field(sol, r, 0.3, 0.0)
            modes.h_field(sol, np.array([r, r + 50.0]), 0.3, 0.0)
        assert [fn for fn, _ in calls] == ["bessel_k_orders"] * 6

    def test_jacobian_requires_exterior_point(self, solved):
        with pytest.raises(ValueError):
            modes.e_field_exterior_jacobian(solved["HE11"], 300.0, 0.0, 0.0)

    @pytest.mark.parametrize("batched", ["r", "phi", "z"])
    def test_jacobian_takes_one_point(self, solved, batched):
        # float() of a two-point coordinate raises
        point = {"r": 620.0, "phi": 0.9, "z": 40.0}
        point[batched] = np.array([point[batched], point[batched] + 1.0])
        with pytest.raises(TypeError):
            modes.e_field_exterior_jacobian(solved["HE11"], *point.values())


class TestSpecValidation:
    def test_fiber_spec_rejects_bad_values(self):
        with pytest.raises(ValueError):
            replace(FIBER, radius_nm=-1.0)
        with pytest.raises(ValueError):
            replace(FIBER, n_core=1.0, n_clad=1.452)

    def test_light_spec_rejects_negative_power(self):
        with pytest.raises(ValueError):
            modes.LightSpec(wavelength_nm=850.0, power_mw=-2.0)
