"""Output checks for the commands the benchmark runs.

Each check reads one output file and returns a list of problems; an empty
list means the output is correct. The report windows are those that
tests/test_acceptance.py pins for criteria 5 and 8 to 11 and 13, the checks
that pass at the commit that added this benchmark. The benchmark keeps its
own copy so that its gate does not move when the tests do. The three
strict-xfail deviations are not checked.
"""

import json
import math

import numpy as np

BEAT_UM = {"he11-te01": 4.61, "he11-he21": 3.45, "te01-he21": 13.67}
R_NM = {"he11-te01": 534.0, "he11-he21": 552.0, "te01-he21": 584.0}
PHI = {"he11-te01": math.pi / 2, "he11-he21": 0.0,
       "te01-he21": 3 * math.pi / 4}
DEPTH_MK = {"he11-te01": 0.92, "he11-he21": 1.2, "te01-he21": 1.4}
FREQ_KHZ = {"he11-te01": (770.0, 1070.0, 528.0),
            "he11-he21": (970.0, 330.0, 610.0),
            "te01-he21": (770.0, 2600.0, 204.0)}
EXTENT_NM = {"he11-te01": (47.0, 34.0, 68.0),
             "he11-he21": (37.0, 104.0, 58.0),
             "te01-he21": (47.0, 14.0, 174.0)}
SENS_DEEPER = {"he11-te01": 30.0, "he11-he21": 17.0, "te01-he21": 36.0}
SENS_SHALLOWER = {"he11-te01": 27.0, "he11-he21": 33.0, "te01-he21": 25.0}
# criterion 13 leaves this deep row to a strict xfail
NO_DEEP_ROW_CHECK = ("he11-he21",)

GRID_HEADERS = {
    "intensity": ["x_nm", "y_nm", "z_nm", "intensity"],
    "potential": ["x_nm", "y_nm", "z_nm", "U_mK"],
    "field": ["x_nm", "y_nm", "z_nm", "Ex_re", "Ex_im", "Ey_re", "Ey_im",
              "Ez_re", "Ez_im"],
}


def _near(got, want, rel):
    return abs(got - want) <= rel * abs(want)


def check_report(path, preset):
    """Problems of one `report --out` JSON against the acceptance windows."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(f"{preset}: {what}")

    need(_near(doc["beat_length_um"], BEAT_UM[preset], 0.02),
         f"beat length {doc['beat_length_um']} um")
    m = doc["minimum"]
    need(_near(m["r_nm"], R_NM[preset], 0.03), f"minimum r {m['r_nm']} nm")
    need(abs(m["phi_rad"] - PHI[preset]) < 1e-9,
         f"minimum phi {m['phi_rad']} rad")
    need(_near(doc["depth_mk"], DEPTH_MK[preset], 0.20),
         f"depth {doc['depth_mk']} mK")
    if preset == "he11-he21":
        need(abs(doc["barrier_direction"][0]) < 0.9,
             f"escape direction {doc['barrier_direction']} is radial")
        need(doc["min_intensity_w_m2"] > 0.0, "no residual light at minimum")
    for got, want in zip(doc["frequencies_khz"], FREQ_KHZ[preset]):
        need(_near(got, want, 0.15), f"frequency {got} kHz vs {want}")
    for got, want in zip(doc["extents_nm"], EXTENT_NM[preset]):
        need(_near(got, want, 0.20), f"extent {got} nm vs {want}")
    rows = doc["tau_sensitivity"]["rows"]
    need([row["trap"] for row in rows] == [True, True, True],
         "tau rows without a trap")
    if len(rows) == 3 and all(row["trap"] for row in rows):
        shallower = rows[2]["depth_change_pct"]
        need(abs(shallower + SENS_SHALLOWER[preset]) <= 10.0,
             f"shallower row {shallower} %")
        if preset not in NO_DEEP_ROW_CHECK:
            deeper = rows[0]["depth_change_pct"]
            need(abs(deeper - SENS_DEEPER[preset]) <= 10.0,
                 f"deeper row {deeper} %")
    return problems


def check_grid(path, quantity, resolution, radius_nm):
    """Problems of one `grid` CSV: header, row count, nan sentinel, finiteness.

    The potential is nan exactly at r <= a. Points within 1e-9 a of the
    surface may round either way and are not checked for the sentinel.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != GRID_HEADERS[quantity]:
            return [f"grid header {header}"]
        lines = fh.read().splitlines()
    width = len(header)
    if any(line.count(",") != width - 1 for line in lines):
        return [f"a row does not have {width} columns"]
    vals = np.array(",".join(lines).split(","), dtype=float)
    vals = vals.reshape(len(lines), width) if lines else vals.reshape(0, width)
    problems = []
    if len(lines) != resolution * resolution:
        problems.append(f"{len(lines)} rows, expected {resolution ** 2}")
    finite = np.isfinite(vals)
    if quantity == "potential":
        r = np.hypot(vals[:, 0], vals[:, 1])
        ok = finite[:, :3].all(axis=1) & (
            (np.abs(r - radius_nm) <= 1e-9 * radius_nm)
            | np.where(r <= radius_nm, np.isnan(vals[:, 3]), finite[:, 3]))
    else:
        ok = finite.all(axis=1)
    bad = np.flatnonzero(~ok)
    if bad.size:
        problems.append(f"{bad.size} rows wrong, first row {bad[0] + 1}: "
                        f"{lines[bad[0]]}")
    return problems
