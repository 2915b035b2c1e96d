"""Write the outputs that a byte-identical change must leave unchanged.

Run as a script (pytest does not collect it), once per checkout:

    PYTHONPATH=src python tests/contract_outputs.py OUTDIR

then compare two such runs with `diff -r OUTDIR_A OUTDIR_B` (or `cmp` file
by file). OUTDIR is created if needed and gets 72 files:

* report-PRESET.json: `report --out` for each of the three presets;
* report-he11-he21-rotated.json: `report --out` of the he11-he21 preset
  with HE21 turned by pair.orientation_b_rad = 0.2, whose trap moves off
  phi = 0;
* report-te01-he21-surface.json: `report --preset te01-he21 --tau 0.58
  --out`, a trap whose lowest exit is the light wall toward the surface;
* report-he11-he21.txt: the readable `report` table that goes to stdout;
* sweep-tau-PRESET.csv: `sweep-tau` for each preset;
* sweep-tau-he11-te01-edge.csv: `sweep-tau --tau 0.001`, whose tau0 - sigma
  row falls below 0 and is flagged;
* grid-PRESET-QUANTITY-PLANE.csv: `grid --resolution 151` for each preset,
  each quantity (potential, intensity, field) and each of the planes z=0,
  z=trap, x=0, y=0 and d=0, 45 files; the quantity is set through a
  configuration file that is the preset with grid.quantity changed;
* dispersion.csv: `dispersion --resolution 20`;
* dispersion-default.csv: `dispersion` at its default resolution (201 V
  points), where a last-digit move of a root shows in more rows;
* error-NAME.txt: the exit status line `exit N` and then the stderr of
  each rejected invocation in ERRORS (a TM member, an order-3 member on a
  600 nm fiber, a split above 1, an overflowing grid half-width and plane
  offset, an overflowing power and C3, a grid resolution of 10^6 per
  axis, HE11 below its visible cutoff on a 40 nm fiber, HE13, whose cutoff
  lies above V = 6.5, a core index whose square overflows, a seed window
  inside a 900 nm fiber, and a seed radius of 1e300 nm); their stdout is
  discarded;
* search-traffic.txt and search-traffic-summary.txt: the stdout and stderr
  of tests/search_traffic.py, the outcome, Hessian count, minimum and
  saddle of 252 searches.

Each command runs in its own interpreter (`python -m fibertrap.cli`), one
after another. A command that exits non-zero stops the script, except the
ERRORS invocations, which are expected to. The surface report runs last,
so a checkout that refuses that trap still writes every other file.
"""

import dataclasses
import os
import subprocess
import sys
import tempfile

from fibertrap import config

PRESETS = ("he11-te01", "he11-he21", "te01-he21")
QUANTITIES = ("potential", "intensity", "field")
PLANES = ("z=0", "z=trap", "x=0", "y=0", "d=0")
TABLE_PRESET = "he11-he21"
ROTATED_PRESET, ROTATED_B_RAD = "he11-he21", 0.2
# name -> (config file text, command line after --config FILE)
ERRORS = {
    "tm01": ("pair.mode_b = TM01\n", ("report",)),
    "he31": ("fiber.radius_nm = 600\npair.mode_b = HE31\n", ("report",)),
    "tau": ("", ("report", "--tau", "1.5")),
    "halfwidth": ("grid.halfwidth_nm = 1e300\n",
                  ("grid", "--resolution", "3")),
    "plane": ("", ("grid", "--plane", "x=1e300", "--resolution", "3")),
    "power": ("light.power_mw = 1e300\n", ("report",)),
    "c3": ("atom.c3 = 1e300\n", ("report",)),
    "resolution": ("", ("grid", "--resolution", "1000000")),
    "he11-thin": ("fiber.radius_nm = 40\n", ("report",)),
    "he13": ("pair.mode_b = HE13\n", ("report",)),
    "index": ("fiber.n_core = 1e200\n", ("report",)),
    "seed-inside": ("fiber.radius_nm = 900\n", ("report",)),
    "seed-far": ("seed.r_hi_nm = 1e300\n", ("report",)),
}
TRAFFIC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "search_traffic.py")


def fibertrap(*args, stdout=None, stderr=None, check=True):
    return subprocess.run([sys.executable, "-m", "fibertrap.cli", *args],
                          stdout=stdout, stderr=stderr, check=check)


def main(outdir):
    os.makedirs(outdir, exist_ok=True)

    def out(name):
        return os.path.join(outdir, name)

    for name in PRESETS:
        fibertrap("report", "--preset", name,
                  "--out", out(f"report-{name}.json"))
    with open(out(f"report-{TABLE_PRESET}.txt"), "wb") as fh:
        fibertrap("report", "--preset", TABLE_PRESET, stdout=fh)
    for name in PRESETS:
        fibertrap("sweep-tau", "--preset", name,
                  "--out", out(f"sweep-tau-{name}.csv"))
    fibertrap("sweep-tau", "--preset", "he11-te01", "--tau", "0.001",
              "--out", out("sweep-tau-he11-te01-edge.csv"))
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "rotated.cfg")
        config.save_config(dataclasses.replace(
            config.preset(ROTATED_PRESET), orientation_b=ROTATED_B_RAD),
            cfg_path)
        fibertrap("report", "--config", cfg_path,
                  "--out", out(f"report-{ROTATED_PRESET}-rotated.json"))
        for name in PRESETS:
            for quantity in QUANTITIES:
                cfg_path = os.path.join(tmp, f"{name}-{quantity}.cfg")
                config.save_config(dataclasses.replace(
                    config.preset(name), quantity=quantity), cfg_path)
                for plane in PLANES:
                    fibertrap("grid", "--config", cfg_path, "--plane", plane,
                              "--resolution", "151", "--out",
                              out(f"grid-{name}-{quantity}-{plane}.csv"))
        for name, (text, args) in ERRORS.items():
            cfg_path = os.path.join(tmp, f"error-{name}.cfg")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            res = fibertrap(args[0], "--config", cfg_path, *args[1:],
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, check=False)
            with open(out(f"error-{name}.txt"), "wb") as fh:
                fh.write(b"exit %d\n" % res.returncode + res.stderr)
    with open(out("search-traffic.txt"), "wb") as fh, \
            open(out("search-traffic-summary.txt"), "wb") as summary:
        subprocess.run([sys.executable, TRAFFIC], stdout=fh, stderr=summary,
                       check=True)
    fibertrap("dispersion", "--resolution", "20",
              "--out", out("dispersion.csv"))
    fibertrap("dispersion", "--out", out("dispersion-default.csv"))
    fibertrap("report", "--preset", "te01-he21", "--tau", "0.58",
              "--out", out("report-te01-he21-surface.json"))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/contract_outputs.py OUTDIR")
    main(sys.argv[1])
