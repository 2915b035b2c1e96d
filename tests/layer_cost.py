"""Cost of fibertrap's layers, one table per section.

Run as a script (pytest does not collect it):

    PYTHONPATH=src python tests/layer_cost.py

Every in-process time is the best of REPEATS runs of time.process_time, so
it counts the CPU of every thread of the process. The fibertrap package is
imported before numpy, so numpy's OpenBLAS runs on one thread, as it does
under the command line. Each section is a generator of rows (dicts with the
same keys), so a caller can take one row without running the rest:

- bessel_points: ns per point of the J and K kernels on the arguments of
  each preset's 601 x 601 z = 0 plane;
- bessel_per_call: us per call of a 0-d and a 1-element argument;
- bessel_calls: scalar and array kernel calls of a mode solve, of a
  report's analysis and of a default dispersion sweep;
- formatter: ns per value of the grid cell formatter and of repr;
- stages: ms and Bessel points of each report stage;
- cold_start: a report in a fresh interpreter.

scipy.special's kernels stand beside the in-house ones when scipy is
installed.
"""

import collections
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace

from fibertrap import (cli, config, floatrepr, modes, numerics, potential,
                       trapanalysis)

import numpy as np

try:
    from scipy import special
except ImportError:
    special = None

REPEATS = 7
RESOLUTION = 601
SCALAR_CALLS = 2000
# the label of the whole `with Wrappers(...)` block; a keyword, so no
# wrapped function has it
WHOLE = "with"
BESSELS = ((numerics, "bessel_k_orders"), (numerics, "bessel_j_orders"))
GRIDS = (("he11-te01", "potential"), ("he11-he21", "intensity"),
         ("te01-he21", "field"))


class Wrappers:
    """Timing and counting wrappers on module functions for one `with` block.

    targets are (module, function name) pairs, each labelled by its name;
    the block itself has the label WHOLE. While the block runs, each call
    of a target adds its process seconds to seconds[label], one to
    calls[label] (and to arrays[label] when its first argument is an array
    with a dimension) and the size of that argument to points[outer, label]
    for each label `outer` it runs inside. The functions are looked up on
    their modules, so only calls made through the module see the wrappers;
    the block's exit puts the originals back.
    """

    def __init__(self, *targets):
        self.targets = targets
        self.seconds = collections.Counter()
        self.calls = collections.Counter()
        self.arrays = collections.Counter()
        self.points = collections.Counter()
        self.running = [WHOLE]

    def _wrap(self, real, label):
        def wrapper(*args, **kwargs):
            self.calls[label] += 1
            self.arrays[label] += getattr(args[0], "ndim", 0) > 0
            for outer in self.running:
                self.points[outer, label] += getattr(args[0], "size", 1)
            self.running.append(label)
            t0 = time.process_time()
            try:
                return real(*args, **kwargs)
            finally:
                self.seconds[label] += time.process_time() - t0
                self.running.pop()
        return wrapper

    def __enter__(self):
        self.saved = [(module, name, getattr(module, name))
                      for module, name in self.targets]
        for module, name, real in self.saved:
            setattr(module, name, self._wrap(real, name))
        self.t0 = time.process_time()
        return self

    def __exit__(self, *exc):
        self.seconds[WHOLE] += time.process_time() - self.t0
        for module, name, real in reversed(self.saved):
            setattr(module, name, real)


def best_of(call, *targets):
    """Best-of-REPEATS process seconds per label of Wrappers(*targets).

    Returns them (WHOLE is call() itself) and the last run's Wrappers.
    """
    best = collections.defaultdict(lambda: math.inf)
    for _ in range(REPEATS):
        with Wrappers(*targets) as wrapped:
            call()
        for label, seconds in wrapped.seconds.items():
            best[label] = min(best[label], seconds)
    return best, wrapped


def plane(preset, quantity="potential"):
    """(cfg, field, x, y, z) of the preset's 601 x 601 z = 0 grid plane."""
    cfg = replace(config.preset(preset), quantity=quantity, plane="z=0",
                  resolution=RESOLUTION)
    field_ = config.make_field(cfg)
    return (cfg, field_, *cli._plane_points(cfg, field_))


def scipy_k_orders(x, top):
    ks = [special.k0(x), special.k1(x)]
    for n in range(1, top):
        ks.append(ks[-1] * (2.0 * n / x) + ks[-2])
    return ks


def scipy_j_orders(x, lo, hi):
    return [special.jv(n, x) for n in range(lo, hi + 1)]


KERNELS = {"fibertrap": {"K": numerics.bessel_k_orders,
                         "J": numerics.bessel_j_orders}}
if special is not None:
    KERNELS["scipy"] = {"K": scipy_k_orders, "J": scipy_j_orders}


def bessel_points():
    """ns per point of the kernels on a z = 0 plane's arguments.

    One row per (preset, mode): the K arguments x = q r outside the fiber,
    their range and the share at x <= 2 (where K's series runs), and the
    cost of bessel_k_orders(x, nu + 1) there and of bessel_j_orders(x,
    max(nu - 1, 0), nu + 1) at x = h r inside the fiber, the orders modes
    asks for.
    """
    for preset in config.PRESET_NAMES:
        cfg, field_, x, y, _ = plane(preset)
        r = np.hypot(x, y)
        inside = r <= cfg.fiber.radius_nm
        for sol in (field_.pair.sol_a, field_.pair.sol_b):
            xk, nu = sol.q_per_nm * r[~inside], sol.mode.nu
            row = {"preset": preset, "mode": sol.name,
                   "K x min": float(xk.min()), "K x max": float(xk.max()),
                   "x<=2 share": float(np.mean(xk <= 2.0))}
            for kind, args in (("K", (xk, nu + 1)),
                               ("J", (sol.h_per_nm * r[inside],
                                      max(nu - 1, 0), nu + 1))):
                for source, kernels in KERNELS.items():
                    best, _ = best_of(lambda: kernels[kind](*args))
                    row[f"{kind} {source} ns/point"] = (
                        best[WHOLE] / args[0].size * 1e9)
            yield row


def bessel_per_call():
    """us per call at x = 1.3 and x = 5.2, one point on each K branch.

    The columns are a 0-d argument (the float path), a 1-element array (the
    numpy path) and scipy's 0-d call.
    """
    for x in (1.3, 5.2):
        for kind, orders in (("K", (2,)), ("J", (0, 2))):
            kernel = KERNELS["fibertrap"][kind]
            columns = {"0-d": (kernel, np.asarray(x)),
                       "1-element": (kernel, np.array([x]))}
            if "scipy" in KERNELS:
                columns["scipy 0-d"] = (KERNELS["scipy"][kind], np.asarray(x))
            row = {"per call": f"{kernel.__name__}(x = {x}, "
                               f"{', '.join(map(str, orders))})"}
            for name, (fn, arg) in columns.items():
                def calls():
                    for _ in range(SCALAR_CALLS):
                        fn(arg, *orders)
                best, _ = best_of(calls)
                row[f"{name} us/call"] = best[WHOLE] / SCALAR_CALLS * 1e6
            yield row


def bessel_calls():
    """Scalar (0-d) and array calls of each kernel during one run.

    The runs are config.make_field and characterize_trap with
    tau_sensitivity, as `report` makes them, per preset, and one
    dispersion_sweep at the default range and resolution.
    """
    def counted(label, call):
        with Wrappers(*BESSELS) as wrapped:
            call()
        row = {"calls": label}
        for kind, (_, name) in zip("KJ", BESSELS):
            row[f"{kind} scalar"] = wrapped.calls[name] - wrapped.arrays[name]
            row[f"{kind} array"] = wrapped.arrays[name]
        return row

    for preset in config.PRESET_NAMES:
        cfg = config.preset(preset)
        yield counted(f"{preset} make_field", lambda: config.make_field(cfg))
        field_ = config.make_field(cfg)
        yield counted(f"{preset} characterize + tau",
                      lambda: report_analysis(cfg, field_))
    cfg = config.parse_config("")
    yield counted(f"dispersion_sweep ({cfg.resolution} V)",
                  lambda: modes.dispersion_sweep(cfg.fiber, cfg.v_lo,
                                                 cfg.v_hi, cfg.resolution))


def report_analysis(cfg, field_):
    report = trapanalysis.characterize_trap(field_, cfg.seed,
                                            config.thermal_state(cfg))
    trapanalysis.tau_sensitivity(field_, cfg.seed, base=report.base)


def python_repr(values):
    return list(map(repr, values.tolist()))


def formatter():
    """ns per value of floatrepr.repr_rows and of repr on the grid columns.

    The grids are the three planes of the benchmark's grid workload. Each
    column is reduced to its distinct bit patterns, which is what the grid
    command formats; the row gives their count and the share in exponent
    form. The "all" row sums a grid's columns.
    """
    for preset, quantity in GRIDS:
        cfg, field_, *points = plane(preset, quantity)
        cols = [*points, *cli._grid_values(cfg, field_, *points)]
        total = collections.Counter()
        for header, col in zip(cli._GRID_HEADERS[quantity], cols):
            values = np.unique(col.view(np.int64)).view(float)
            part = collections.Counter(
                distinct=values.size,
                exp=sum("e" in text for text in python_repr(values)),
                fast=best_of(lambda: floatrepr.repr_rows(values))[0][WHOLE],
                slow=best_of(lambda: python_repr(values))[0][WHOLE])
            total.update(part)
            yield formatter_row(f"{preset} {quantity}", header, part)
        yield formatter_row(f"{preset} {quantity}", "all", total)


def formatter_row(grid, column, part):
    return {"grid": grid, "column": column, "distinct": part["distinct"],
            "exp form share": part["exp"] / part["distinct"],
            "repr_rows ns/value": part["fast"] / part["distinct"] * 1e9,
            "repr ns/value": part["slow"] / part["distinct"] * 1e9}


def stages():
    """ms and Bessel points of each stage of a report, per preset.

    Each stage runs alone from the products of the stages before it: the
    field build, the minimum search from the seed box, the escape flood
    from that minimum (also split into its valley-floor grid and the rest
    of the flood loop), the turning points and orbit-averaged scattering
    rate at the reference energy, the trap frequencies, one
    potential_derivatives call at the minimum (the analytic gradient and
    Hessian that each Newton iterate and the frequencies take), the whole
    characterize_trap, tau_sensitivity as `report` runs it, and the power
    quadrature of each mode. The Bessel points are counted in one more run,
    so that the times carry no wrapper on the kernels.
    """
    flood = ((trapanalysis, "_flood"), (trapanalysis, "_valley"))
    for preset in config.PRESET_NAMES:
        cfg = config.preset(preset)
        state = config.thermal_state(cfg)
        field_ = config.make_field(cfg)
        minimum = trapanalysis.find_minimum(field_, cfg.seed)
        turns = trapanalysis.turning_points(field_, minimum, state.e_init)
        base = trapanalysis.characterize_trap(field_, cfg.seed, state).base
        runs = {
            "make_field": lambda: config.make_field(cfg),
            "find_minimum": lambda: trapanalysis.find_minimum(field_,
                                                              cfg.seed),
            "escape_barrier": lambda: trapanalysis.escape_barrier(field_,
                                                                  minimum),
            "turning_points": lambda: trapanalysis.turning_points(
                field_, minimum, state.e_init),
            "orbit_averaged_scattering":
                lambda: trapanalysis.orbit_averaged_scattering(
                    field_, minimum, turns),
            "trap_frequencies": lambda: trapanalysis.trap_frequencies(
                field_, minimum, field_.atom.mass_kg),
            "potential_derivatives": lambda: potential.potential_derivatives(
                field_, *minimum),
            "characterize_trap": lambda: trapanalysis.characterize_trap(
                field_, cfg.seed, state),
            "tau_sensitivity": lambda: trapanalysis.tau_sensitivity(
                field_, cfg.seed, base=base),
        }
        for sol in (field_.pair.unit_a, field_.pair.unit_b):
            runs[f"mode_power {sol.name}"] = (
                lambda sol=sol: modes.mode_power(sol))
        for name, call in runs.items():
            inner = flood if name == "escape_barrier" else ()
            best, _ = best_of(call, *inner)
            with Wrappers(*inner, *BESSELS) as wrapped:
                call()
            if inner:
                valley = stage_row(preset, "_flood _valley", "_valley", best,
                                   wrapped)
                loop = stage_row(preset, "_flood loop", "_flood", best,
                                 wrapped)
                for key in ("ms", "K points", "J points"):
                    loop[key] -= valley[key]
                yield valley
                yield loop
            yield stage_row(preset, name, WHOLE, best, wrapped)


def stage_row(preset, name, label, best, wrapped):
    row = {"preset": preset, "call": name, "ms": 1e3 * best[label]}
    for kind, (_, kernel) in zip("KJ", BESSELS):
        row[f"{kind} points"] = wrapped.points[label, kernel]
    return row


CHILD = """\
import json, sys, time
from fibertrap import cli
before = set(sys.modules)
t0 = time.process_time()
code = cli.main(["report", "--preset", sys.argv[1], "--out", sys.argv[2]])
seconds = time.process_time() - t0
print(json.dumps({"code": code, "seconds": seconds,
                  "loaded": sorted(set(sys.modules) - before)}))
"""


def cold_report(preset, out):
    """One report in a new interpreter.

    Returns the command's process seconds inside the child, the child's
    whole CPU seconds (user + system from os.wait4: start-up, imports and
    any BLAS threads included) and the modules loaded during the command.
    """
    with subprocess.Popen([sys.executable, "-c", CHILD, preset, out],
                          stdout=subprocess.PIPE, text=True) as proc:
        text = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"the child for {preset} exited {proc.returncode}")
    doc = json.loads(text.splitlines()[-1])
    if doc["code"] != 0:
        raise SystemExit(f"report --preset {preset} exited {doc['code']}")
    return doc["seconds"], usage.ru_utime + usage.ru_stime, doc["loaded"]


def cold_start():
    """`report --out FILE` per preset in REPEATS fresh interpreters.

    The row gives the median, lowest and highest command time, the median
    CPU of the whole child process, and the modules first loaded during
    the command in any run: the lazy imports every cold start pays for,
    which a second report in the same process does not.
    """
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        for preset in config.PRESET_NAMES:
            runs = [cold_report(preset, out) for _ in range(REPEATS)]
            ms = [1e3 * seconds for seconds, _, _ in runs]
            yield {"preset": preset,
                   "report median ms": statistics.median(ms),
                   "min ms": min(ms), "max ms": max(ms), "runs": REPEATS,
                   "process CPU median ms":
                       1e3 * statistics.median(cpu for _, cpu, _ in runs),
                   "loaded during the command": " ".join(sorted(
                       set().union(*(names for _, _, names in runs))))
                   or "(none)"}


SECTIONS = (bessel_points, bessel_per_call, bessel_calls, formatter, stages,
            cold_start)


def show(rows):
    """Print rows as a table: strings left, numbers right, floats to 0.01."""
    cells = [list(rows[0])] + [
        [f"{v:.2f}" if isinstance(v, float) else str(v) for v in row.values()]
        for row in rows]
    left = [isinstance(v, str) for v in rows[0].values()]
    widths = [max(len(line[i]) for line in cells) for i in range(len(left))]
    for line in cells:
        print("  ".join(c.ljust(w) if lft else c.rjust(w)
                        for c, w, lft in zip(line, widths, left)).rstrip())
    print()


def main():
    for section in SECTIONS:
        show(list(section()))


if __name__ == "__main__":
    main()
