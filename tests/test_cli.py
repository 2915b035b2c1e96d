"""End-to-end tests of the command line interface via subprocesses."""

import csv
import io
import json
import math
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import oracles
from fibertrap import cli, config, floatrepr
from fibertrap.errors import FibertrapError


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "fibertrap.cli", *args],
        capture_output=True, text=True, timeout=300)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def repr_texts(col):
    """Cell texts of the grid formatter: its rows without NUL and comma."""
    rows = floatrepr.repr_rows(col)
    assert (rows[:, -1] == ord(",")).all()
    return rows[rows != 0].tobytes().decode().split(",")[:-1]


class TestDispersion:
    def test_sweep_structure(self, tmp_path):
        out = tmp_path / "disp.csv"
        res = run_cli("dispersion", "--preset", "he11-te01",
                      "--resolution", "40", "--out", str(out))
        assert res.returncode == 0
        header, rows = parse_csv(out.read_text())
        assert header == ["V", "mode", "beta_over_k0"]
        by_mode = {}
        for v, name, neff in rows:
            by_mode.setdefault(name, []).append((float(v), float(neff)))
        # the fundamental exists everywhere; higher branches above cutoff
        vs = sorted({float(v) for v, _, _ in rows})
        assert len(by_mode["HE11"]) == len(vs)
        assert all(v > 2.404 for v, _ in by_mode["TE01"])
        for name, pts in by_mode.items():
            neffs = [n for _, n in sorted(pts)]
            assert neffs == sorted(neffs), f"{name} branch not monotone"

    def test_four_branches_at_operating_v(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dispersion.v_lo = 1.31\ndispersion.v_hi = 3.11\n")
        res = run_cli("dispersion", "--config", str(cfg),
                      "--resolution", "10")
        assert res.returncode == 0
        header, rows = parse_csv(res.stdout)
        top = [name for v, name, _ in rows if abs(float(v) - 3.11) < 1e-9]
        assert sorted(top) == ["HE11", "HE21", "TE01", "TM01"]

    def test_stdout_matches_file_output(self, tmp_path):
        out = tmp_path / "disp.csv"
        res_file = run_cli("dispersion", "--preset", "he11-te01",
                           "--resolution", "7", "--out", str(out))
        res_stdout = run_cli("dispersion", "--preset", "he11-te01",
                             "--resolution", "7")
        assert res_file.returncode == 0 and res_stdout.returncode == 0
        assert out.read_text() == res_stdout.stdout

    def test_unix_line_endings(self, tmp_path):
        out = tmp_path / "disp.csv"
        run_cli("dispersion", "--preset", "he11-te01",
                "--resolution", "5", "--out", str(out))
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestGrid:
    def test_trap_plane_shows_the_minimum(self, tmp_path):
        out = tmp_path / "plane.csv"
        res = run_cli("grid", "--preset", "he11-te01", "--plane", "z=trap",
                      "--out", str(out))
        assert res.returncode == 0
        header, rows = parse_csv(out.read_text())
        assert header == ["x_nm", "y_nm", "z_nm", "U_mK"]
        assert len(rows) == 201 * 201
        # the surface shell is always the most negative region (vdW
        # divergence); the trap shows up as a separate negative local
        # minimum on the +y axis
        grid = {(float(x), float(y)): float(u) for x, y, _, u in rows}
        bowl = min((u, x, y) for (x, y), u in grid.items()
                   if abs(x) <= 30.0 and 500.0 <= y <= 560.0)
        u_min, x_min, y_min = bowl
        assert u_min < 0.0
        assert abs(x_min) <= 10.0
        assert abs(y_min - 533.8) <= 10.1
        step = 10.0
        for dx in (-step, 0.0, step):
            for dy in (-step, 0.0, step):
                if dx or dy:
                    assert grid[(x_min + dx, y_min + dy)] > u_min

    def test_interior_sentinel_count(self, tmp_path):
        out = tmp_path / "plane.csv"
        res = run_cli("grid", "--preset", "he11-te01", "--plane", "z=0",
                      "--resolution", "41", "--out", str(out))
        assert res.returncode == 0
        _, rows = parse_csv(out.read_text())
        assert len(rows) == 41 * 41
        inside = [row for row in rows
                  if math.hypot(float(row[0]), float(row[1])) <= 400.0]
        assert inside and all(row[3] == "nan" for row in inside)
        outside = [row for row in rows
                   if math.hypot(float(row[0]), float(row[1])) > 400.0]
        assert all(row[3] != "nan" for row in outside)

    def test_intensity_quantity(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid.quantity = intensity\ngrid.resolution = 21\n"
                       "grid.plane = z=0\n")
        res = run_cli("grid", "--config", str(cfg))
        header, rows = parse_csv(res.stdout)
        assert header == ["x_nm", "y_nm", "z_nm", "intensity"]
        vals = [float(r[3]) for r in rows]
        assert all(math.isfinite(v) and v >= 0.0 for v in vals)

    def test_field_quantity_has_six_components(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid.quantity = field\ngrid.resolution = 15\n"
                       "grid.plane = z=0\n")
        res = run_cli("grid", "--config", str(cfg))
        header, rows = parse_csv(res.stdout)
        assert header == ["x_nm", "y_nm", "z_nm", "Ex_re", "Ex_im",
                          "Ey_re", "Ey_im", "Ez_re", "Ez_im"]
        assert len(rows) == 15 * 15

    def test_diagonal_plane(self, tmp_path):
        res = run_cli("grid", "--preset", "te01-he21", "--plane", "d=0",
                      "--resolution", "11")
        header, rows = parse_csv(res.stdout)
        assert len(rows) == 11 * 11
        # u = 0 on the d-plane means y = -x along the whole grid
        for x, y, _, _ in rows:
            assert float(y) == pytest.approx(-float(x), abs=1e-9)

    def test_stdout_matches_file_output(self, tmp_path):
        # 131 x 131 points span two blocks of rows, written one by one
        out = tmp_path / "grid.csv"
        args = [sys.executable, "-m", "fibertrap.cli", "grid", "--preset",
                "te01-he21", "--plane", "z=0", "--resolution", "131"]
        res_file = subprocess.run([*args, "--out", str(out)],
                                  capture_output=True, timeout=300)
        res_stdout = subprocess.run(args, capture_output=True, timeout=300)
        assert res_file.returncode == 0 and res_stdout.returncode == 0
        assert res_file.stdout == b""
        assert res_stdout.stdout == out.read_bytes()
        assert len(res_stdout.stdout.splitlines()) == 1 + 131 * 131

    def test_deterministic_output(self, tmp_path):
        args = ("grid", "--preset", "he11-te01", "--plane", "z=0",
                "--resolution", "31")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.stdout == b.stdout


QUANTITIES = [("he11-te01", "potential"), ("he11-he21", "intensity"),
              ("te01-he21", "field")]


class TestGridText:
    """The grid CSV against per-cell repr plus csv.writer (oracles)."""

    @staticmethod
    def grid_text(tmp_path, cfg):
        path = tmp_path / "run.cfg"
        config.save_config(cfg, str(path))
        out = tmp_path / "grid.csv"
        assert cli.main(["grid", "--config", str(path), "--out",
                         str(out)]) == 0
        return out.read_text()

    @staticmethod
    def oracle_text(cfg):
        fieldobj = config.make_field(cfg)
        x, y, z = cli._plane_points(cfg, fieldobj)
        cols = [x, y, z, *cli._grid_values(cfg, fieldobj, x, y, z)]
        return oracles.grid_csv_text(cli._GRID_HEADERS[cfg.quantity], cols)

    @staticmethod
    def plane_cfg(name, quantity, res):
        return replace(config.preset(name), quantity=quantity, plane="z=0",
                       resolution=res)

    @pytest.mark.parametrize("name, quantity", QUANTITIES)
    def test_matches_per_cell_oracle(self, tmp_path, name, quantity):
        cfg = self.plane_cfg(name, quantity, 15)
        text = self.grid_text(tmp_path, cfg)
        assert text == self.oracle_text(cfg)
        if quantity == "field":
            # Ex_im holds both zeros, which compare equal but print apart
            ex_im = [row[4] for row in parse_csv(text)[1]]
            assert "-0.0" in ex_im and "0.0" in ex_im

    @pytest.mark.parametrize("name, quantity", QUANTITIES)
    def test_rows_across_blocks(self, tmp_path, monkeypatch, name, quantity):
        # 181 x 181 points fill three blocks of rows; the first cut runs
        # through the fiber, so interior nan rows lie on both sides of it.
        # The bytes do not depend on how many threads compute the blocks
        res = 181
        cut = cli._GRID_BLOCK_POINTS // res
        assert res * res > cli._GRID_BLOCK_POINTS and cut * 2 < res
        cfg = self.plane_cfg(name, quantity, res)
        expected = self.oracle_text(cfg)
        for workers in (1, 2, 3):
            monkeypatch.setattr(cli, "_grid_workers", lambda n=workers: n)
            assert self.grid_text(tmp_path, cfg) == expected
        if quantity == "potential":
            rows = parse_csv(expected)[1]
            for side in (rows[(cut - 1) * res:cut * res],
                         rows[cut * res:(cut + 1) * res]):
                assert any(row[3] == "nan" for row in side)

    def test_signed_zero_and_nan_cells_across_blocks(self, monkeypatch):
        # every run of 8 cells holds 0.0, -0.0, nan and -nan, so both sides
        # of the cut between the first two blocks repeat each of them
        res = 131
        values = np.resize([0.0, -0.0, math.nan, -math.nan, 1e-5, -1e16,
                            5e-324, 0.1], res * res)
        served = []

        def block_values(cfg, fieldobj, bx, by, bz):
            # blocks may run in any order: a block's offset in the plane is
            # that of its first point
            lo = np.flatnonzero((x == bx[0]) & (y == by[0]))[0]
            served.append((lo, bx.size))
            return [values[lo:lo + bx.size]]

        monkeypatch.setattr(cli, "_grid_values", block_values)
        cfg = self.plane_cfg("he11-he21", "intensity", res)
        fieldobj = config.make_field(cfg)
        x, y, z = cli._plane_points(cfg, fieldobj)
        text = b"".join(cli._grid_blocks(cfg, fieldobj, x, y, z)).decode()
        served.sort()
        sizes = [size for _, size in served]
        assert sizes[0] == cli._GRID_BLOCK_POINTS // res * res
        assert sum(sizes) == res * res and len(sizes) == 2
        assert text == oracles.grid_csv_text(cli._GRID_HEADERS["intensity"],
                                             [x, y, z, values])

    def test_failed_block_leaves_header_and_earlier_rows(
            self, tmp_path, monkeypatch, capsysbinary):
        # the second of three blocks fails: stdout keeps the header and the
        # first block's rows, --out leaves no file, and the pool is joined
        res = 181
        step = cli._GRID_BLOCK_POINTS // res * res
        cfg = self.plane_cfg("he11-he21", "intensity", res)
        path = tmp_path / "run.cfg"
        config.save_config(cfg, str(path))
        x, y, z = cli._plane_points(cfg, None)

        def block_values(cfg, fieldobj, bx, by, bz):
            if bx[0] == x[step] and by[0] == y[step]:
                raise FibertrapError("second block failed")
            return [np.full(bx.size, 0.5)]

        monkeypatch.setattr(cli, "_grid_values", block_values)
        threads = set(threading.enumerate())
        assert cli.main(["grid", "--config", str(path)]) == 2
        assert set(threading.enumerate()) <= threads
        out, err = capsysbinary.readouterr()
        assert out == oracles.grid_csv_text(
            cli._GRID_HEADERS["intensity"],
            [x[:step], y[:step], z[:step], np.full(step, 0.5)]).encode()
        assert b"second block failed" in err
        target = tmp_path / "out" / "grid.csv"
        target.parent.mkdir()
        assert cli.main(["grid", "--config", str(path), "--out",
                         str(target)]) == 2
        assert set(threading.enumerate()) <= threads
        assert list(target.parent.iterdir()) == []

    def test_blocks_start_at_most_workers_plus_one_ahead(self, monkeypatch):
        # a slow consumer of 23 blocks: the pool may not run ahead of it by
        # more than workers + 1 blocks, so memory does not grow with the
        # resolution; closing the generator early joins the pool
        res, workers, stop = 601, 3, 12
        step = cli._GRID_BLOCK_POINTS // res * res
        assert stop + workers + 1 < math.ceil(res * res / step) == 23
        started = []

        def block_values(cfg, fieldobj, bx, by, bz):
            started.append(bx.size)
            return [np.zeros(bx.size)]

        monkeypatch.setattr(cli, "_grid_values", block_values)
        monkeypatch.setattr(cli, "_grid_workers", lambda: workers)
        cfg = self.plane_cfg("he11-te01", "intensity", res)
        x, y, z = cli._plane_points(cfg, None)
        threads = set(threading.enumerate())
        chunks = cli._grid_blocks(cfg, None, x, y, z)
        assert next(chunks).startswith(b"x_nm,")
        for consumed, _ in enumerate(chunks, 1):
            time.sleep(0.005)
            assert len(started) <= consumed + workers + 1
            if consumed == stop:
                break
        chunks.close()
        assert set(threading.enumerate()) <= threads
        assert len(started) <= stop + workers + 1

    def test_column_text_edge_values(self):
        other_nan = np.array([0x7FF8000000000001], dtype=np.int64).view(float)
        col = np.array([0.0, -0.0, math.nan, np.copysign(math.nan, -1.0),
                        other_nan[0], math.inf, -math.inf, 5e-324, 1e-4,
                        9.9e-5, 1e16, 9999999999999998.0])
        col = np.concatenate([col, col[::-1], col])
        assert repr_texts(col) == [repr(float(v)) for v in col]

    def test_column_text_random_bits(self):
        info = np.iinfo(np.int64)
        col = np.random.default_rng(0).integers(
            info.min, info.max, size=10_000, dtype=np.int64,
            endpoint=True).view(float)
        assert repr_texts(col) == [repr(float(v)) for v in col]


class TestReport:
    def test_json_document(self, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli("report", "--preset", "he11-te01", "--out", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["modes"] == ["HE11", "TE01"]
        assert doc["depth_mk"] == pytest.approx(0.92, rel=0.20)
        assert 30.0 < doc["lifetime_s"] < 300.0
        assert doc["minimum"]["r_nm"] == pytest.approx(534.0, rel=0.03)
        assert len(doc["tau_sensitivity"]["rows"]) == 3
        assert doc["lifetime_exceeds_cap"] is False

    def test_table_output(self):
        res = run_cli("report", "--preset", "he11-he21")
        assert res.returncode == 0
        text = res.stdout
        assert "depth" in text and "mK" in text
        assert "HE11" in text and "HE21" in text
        # this configuration has measurable light at its minimum
        assert "min intensity" in text


class TestSweepTau:
    def test_default_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        res = run_cli("sweep-tau", "--preset", "he11-te01",
                      "--out", str(out))
        assert res.returncode == 0
        header, rows = parse_csv(out.read_text())
        assert header == ["tau", "trap", "depth_mk", "depth_change_pct",
                          "r_nm", "phi_rad", "z_nm", "reason"]
        assert len(rows) == 3
        assert all(row[1] == "1" for row in rows)
        assert float(rows[1][3]) == 0.0
        radii = [float(row[4]) for row in rows]
        assert radii[0] < radii[1] < radii[2]

    def test_trapless_rows_flagged(self):
        res = run_cli("sweep-tau", "--preset", "he11-te01", "--tau", "0.985")
        assert res.returncode == 0
        header, rows = parse_csv(res.stdout)
        assert len(rows) == 3
        for row in rows:
            assert row[1] == "0"
            assert row[2] == "" and row[4] == ""
            assert "minimum" in row[7]


class TestExitCodes:
    def test_no_trap_is_distinct(self):
        res = run_cli("report", "--preset", "he11-te01", "--tau", "0.99")
        assert res.returncode == 3
        assert "power split tau = 0.99" in res.stderr
        assert "0.72" in res.stderr  # suggests the preset splits

    def test_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("pair.mode_b = TM01\n")
        res = run_cli("report", "--config", str(cfg))
        assert res.returncode == 2
        assert "transverse magnetic" in res.stderr

    def test_mode_named_twice_has_no_beat(self, tmp_path):
        # HE11 beside itself turned by 90 degrees: one propagation constant,
        # so a plane along z has no beat length to span; z=0 needs none
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("pair.mode_b = HE11\n"
                       "pair.orientation_b_rad = 1.5707963267948966\n")
        res = run_cli("grid", "--config", str(cfg), "--plane", "x=0",
                      "--resolution", "5")
        assert res.returncode == 2
        assert res.stderr.startswith("fibertrap: configuration error:")
        assert res.stderr.count("\n") == 1
        res = run_cli("grid", "--config", str(cfg), "--plane", "z=0",
                      "--resolution", "5")
        assert res.returncode == 0
        assert len(res.stdout.splitlines()) == 26

    @pytest.mark.parametrize("plane", ["z=inf", "x=nan", "d=1e999"])
    def test_non_finite_plane_offset(self, plane):
        res = run_cli("grid", "--preset", "he11-te01", "--plane", plane,
                      "--resolution", "3")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == ("fibertrap: configuration error: plane offset "
                              f"'{plane[2:]}' is not finite\n")

    def test_non_finite_plane_offset_in_config(self, tmp_path):
        cfg = tmp_path / "plane.cfg"
        cfg.write_text("grid.plane = y=-inf\n")
        res = run_cli("grid", "--config", str(cfg), "--resolution", "3")
        assert res.returncode == 2
        assert "plane offset '-inf' is not finite" in res.stderr

    def test_parse_error_names_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("pair.tua = 0.5\n")
        res = run_cli("dispersion", "--config", str(cfg))
        assert res.returncode == 2
        assert "line 1" in res.stderr

    def test_preset_and_config_conflict(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("")
        res = run_cli("dispersion", "--preset", "he11-te01",
                      "--config", str(cfg))
        assert res.returncode == 2

    def test_io_error(self):
        res = run_cli("dispersion", "--preset", "he11-te01",
                      "--resolution", "5",
                      "--out", "/nonexistent-dir/out.csv")
        assert res.returncode == 1

    def test_unknown_preset_rejected(self):
        res = run_cli("dispersion", "--preset", "nope")
        assert res.returncode == 2


def test_commands_load_no_scipy(tmp_path):
    # the package imports no scipy module, so no command pays for scipy's
    # import; scipy serves the tests only, as an oracle
    grid = ["grid", "--plane", "z=0", "--resolution", "5",
            "--out", str(tmp_path / "grid.csv")]
    script = ("import sys\n"
              "from fibertrap import cli\n"
              "assert cli.main(['dispersion', '--resolution', '3']) == 0\n"
              f"assert cli.main({grid!r}) == 0\n"
              "print(' '.join(sorted(sys.modules)), file=sys.stderr)\n")
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    scipy_modules = [name for name in res.stderr.split()
                     if name == "scipy" or name.startswith("scipy.")]
    assert scipy_modules == []


def test_commands_load_only_what_they_compute(tmp_path):
    # the package imports no scipy module, so no command pays for scipy's
    # import (scipy serves the tests only, as an oracle); the orbit average
    # is a product rule and the Gauss-Legendre rule and the Bessel series
    # tables are built in house, so no command loads numpy.random,
    # numpy.polynomial or fractions for them; and only grid loads the
    # thread pool, so the modules are listed once before grid runs
    commands = [
        ["report", "--preset", "he11-te01", "--out", str(tmp_path / "r.json")],
        ["sweep-tau", "--preset", "he11-te01",
         "--out", str(tmp_path / "s.csv")],
        ["dispersion", "--resolution", "3", "--out", str(tmp_path / "d.csv")],
        ["grid", "--plane", "z=0", "--resolution", "5",
         "--out", str(tmp_path / "grid.csv")],
    ]
    listing = "print(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
    script = ("import sys\n"
              "from fibertrap import cli\n"
              + "".join(f"assert cli.main({args!r}) == 0\n"
                        for args in commands[:-1])
              + listing
              + f"assert cli.main({commands[-1]!r}) == 0\n"
              + listing)
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    before_grid, after_grid = (line.split()
                               for line in res.stderr.splitlines())

    def loaded(modules, pkg):
        return [name for name in modules
                if name == pkg or name.startswith(pkg + ".")]

    assert loaded(before_grid, "concurrent.futures") == []
    unwanted = [name for pkg in ("scipy", "numpy.random", "numpy.polynomial",
                                 "fractions")
                for name in loaded(after_grid, pkg)]
    assert unwanted == []
