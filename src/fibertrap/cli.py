"""Command line surface: dispersion sweeps, plane grids, trap reports, tau sweeps.

One command per process. CSV output uses comma separators, dot decimals,
a header row and LF line ends; reports are JSON (with --out) or a terminal
table (without). Grid CSV holds only floats (nan and inf included) under
fixed header names, so it is written unquoted, in blocks of rows as they
are computed; the dispersion and sweep-tau tables go through csv.writer,
which quotes cells that need it. Every command returns its output as
UTF-8 byte chunks. Files are written atomically: a temp file in the target
directory is renamed over the destination. Stdout gets each chunk as it
is made, so a grid that fails part way has written its header and the
rows before the failure there, and exits with the failure's code. A grid
computes its blocks of rows on a pool of up to 4 threads, one per CPU the
process may run on, and writes them in plane order; at most workers + 1
blocks are in flight, and the bytes do not depend on the number of CPUs.

Exit codes: 0 success, 1 I/O failure, 2 configuration or validation error,
3 no usable trap in the seeded region.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from . import config, modes, potential, superposition, trapanalysis
from .errors import (ConfigError, CutoffError, FibertrapError, NoTrapError,
                     SaddleError)

_SQRT2 = math.sqrt(2.0)
# grid points per block of rows: the field temporaries and the block's
# text stay small beside the plane's coordinate arrays. The formatter
# blocks its own work for the cache: a block's columns hold up to nine
# times as many values, formatted in one floatrepr.repr_rows call.
_GRID_BLOCK_POINTS = 16384
# grid threads at most: at 2 workers about a third of a block's time is
# still serial, so more than 4 would mostly wait on each other
_GRID_MAX_WORKERS = 4


def _fmt(x):
    """Shortest round-tripping decimal form; nan is the in-fiber sentinel."""
    return repr(float(x))


def _csv_chunks(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return [buf.getvalue().encode()]


def _emit(chunks, out_path):
    """Write byte chunks to stdout, or atomically to out_path.

    Each chunk is written as the iterable yields it; a file is written to
    a temp file in its directory, which is then renamed over out_path.
    """
    if out_path is None:
        for chunk in chunks:
            sys.stdout.buffer.write(chunk)
        sys.stdout.buffer.flush()
        return
    out_path = os.path.abspath(out_path)
    fd, tmp = tempfile.mkstemp(prefix=".fibertrap-",
                               dir=os.path.dirname(out_path))
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_dispersion(cfg, args):
    """CSV sweep of beta/k0 against V for every branch up to the seventh mode."""
    rows = modes.dispersion_sweep(cfg.fiber, cfg.v_lo, cfg.v_hi,
                                  cfg.resolution)
    return _csv_chunks(["V", "mode", "beta_over_k0"],
                       [(_fmt(v), name, _fmt(neff))
                        for v, name, neff in rows])


def _plane_points(cfg, fieldobj):
    """Cartesian sample points of the configured plane, row-major.

    Planes holding z constant span x and y over +-halfwidth; the other
    planes span their transverse coordinate over +-halfwidth and z over one
    beat length. "z=trap" centers the z plane on the trap minimum, which
    costs a minimum search.
    """
    axis, value = config.parse_plane(cfg.plane)
    n = cfg.resolution
    span = np.linspace(-cfg.halfwidth_nm, cfg.halfwidth_nm, n)[:, None]
    if axis == "z":
        if value == "trap":
            value = trapanalysis.find_minimum(fieldobj, cfg.seed)[2]
        x, y, z = span, span.T, value
    else:
        try:
            z0 = superposition.beat_length(fieldobj.pair)
        except ValueError as err:
            raise ConfigError(f"plane {cfg.plane}: {err}",
                              key="grid.plane") from err
        z = np.linspace(0.0, z0, n)[None, :]
        if axis == "x":
            x, y = value, span
        elif axis == "y":
            x, y = span, value
        else:
            # d plane: u = (x + y)/sqrt(2) fixed, d = (y - x)/sqrt(2) sweeps
            x, y = (value - span) / _SQRT2, (value + span) / _SQRT2
    return tuple(np.broadcast_to(c, (n, n)).ravel() for c in (x, y, z))


def _grid_values(cfg, fieldobj, x, y, z):
    """Column arrays of the requested quantity at Cartesian points."""
    r = np.hypot(x, y)
    phi = np.arctan2(y, x)
    if cfg.quantity == "intensity":
        return [superposition.mean_intensity(fieldobj.pair, r, phi, z)]
    if cfg.quantity == "potential":
        # the vdW term is undefined inside the fiber: sentinel nan there
        vals = np.full(r.shape, np.nan)
        mask = r > cfg.fiber.radius_nm
        if np.any(mask):
            u = potential.total_potential(fieldobj, r[mask], phi[mask],
                                          z[mask])
            vals[mask] = potential.as_millikelvin(u)
        return [vals]
    e = superposition.total_e_field(fieldobj.pair, r, phi, z)
    cart = modes.cartesian_components(e, phi)
    cols = []
    for i in range(3):
        cols.append(np.real(cart[..., i]))
        cols.append(np.imag(cart[..., i]))
    return cols


_GRID_HEADERS = {
    "intensity": ["x_nm", "y_nm", "z_nm", "intensity"],
    "potential": ["x_nm", "y_nm", "z_nm", "U_mK"],
    "field": ["x_nm", "y_nm", "z_nm", "Ex_re", "Ex_im", "Ey_re", "Ey_im",
              "Ez_re", "Ez_im"],
}


def _grid_workers():
    """Threads of the grid pool: the CPUs the process may run on, capped."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, _GRID_MAX_WORKERS)


def _grid_blocks(cfg, fieldobj, x, y, z):
    """CSV bytes of the grid rows, one chunk per block of plane rows.

    A block formats each distinct bit pattern of each column once, gathers
    the cells' text rows in CSV order and ends each line's last cell with a
    newline in place of the comma. Bit patterns, not values: 0.0 and -0.0
    compare equal but print apart. Blocks run on a thread pool (their numpy
    calls release the GIL) and are yielded in plane order, with at most
    workers + 1 submitted ahead of the consumer; a block that failed
    raises when its turn comes. Closing the generator cancels the blocks
    not yet started and joins the pool.
    """
    # imported here, so that no other command compiles or loads them
    import collections
    import itertools
    from concurrent.futures import ThreadPoolExecutor

    from . import floatrepr

    def block(lo):
        pts = (x[lo:lo + step], y[lo:lo + step], z[lo:lo + step])
        cols = np.stack([*pts, *_grid_values(cfg, fieldobj, *pts)])
        distinct, index, offset = [], [], 0
        for col in cols:
            bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
            distinct.append(bits)
            index.append(inverse + offset)
            offset += bits.size
        rows = floatrepr.repr_rows(np.concatenate(distinct).view(float))
        cells = np.take(rows, np.stack(index, axis=1), axis=0)
        cells[:, -1, -1] = ord("\n")
        return cells[cells != 0].tobytes()

    yield (",".join(_GRID_HEADERS[cfg.quantity]) + "\n").encode()
    step = max(1, _GRID_BLOCK_POINTS // cfg.resolution) * cfg.resolution
    workers = _grid_workers()
    with ThreadPoolExecutor(workers) as pool:
        futures = (pool.submit(block, lo) for lo in range(0, x.size, step))
        pending = collections.deque(itertools.islice(futures, workers + 1))
        try:
            while pending:
                chunk = pending.popleft().result()
                pending.extend(itertools.islice(futures, 1))
                yield chunk
        finally:
            for future in pending:
                future.cancel()


def cmd_grid(cfg, args):
    """CSV grid of potential, intensity or the vector field on one plane."""
    fieldobj = config.make_field(cfg)
    x, y, z = _plane_points(cfg, fieldobj)
    return _grid_blocks(cfg, fieldobj, x, y, z)


def _report_doc(cfg):
    fieldobj = config.make_field(cfg)
    state = config.thermal_state(cfg)
    report = trapanalysis.characterize_trap(fieldobj, cfg.seed, state)
    sens = trapanalysis.tau_sensitivity(fieldobj, cfg.seed,
                                        base=report.base)
    return report, sens


def _sens_row_text(row):
    if not row["trap"]:
        return f"  tau = {row['tau']:.4f}   no trap ({row['reason']})"
    text = (f"  tau = {row['tau']:.4f}   depth = {row['depth_mk']:.3f} mK"
            f"   r = {row['minimum']['r_nm']:.1f} nm")
    if "depth_change_pct" in row:
        text += f"   ({row['depth_change_pct']:+.1f}%)"
    return text


def _report_table(report, sens):
    freq = [f / 1e3 for f in report.frequencies_hz]
    r, p, z = report.minimum
    ldir = ", ".join(f"{c:+.3f}" for c in report.barrier_direction)
    life = ("exceeds cap" if math.isinf(report.lifetime_s)
            else f"{report.lifetime_s:.1f} s")
    lines = [
        "two-mode trap report",
        f"  modes          {report.mode_a} + {report.mode_b}",
        f"  wavelength     {report.wavelength_nm:g} nm",
        f"  power          {report.power_mw:g} mW   tau = {report.tau:g}"
        f"   delta = {report.delta:g} rad",
        f"  beat length    {report.beat_length_nm:.1f} nm",
        f"  minimum        r = {r:.2f} nm   phi = {p:.4f} rad   z = {z:.2f} nm",
        f"  U_min          {report.u_min_mk:+.4f} mK",
        f"  depth          {report.depth_mk:.4f} mK along l = [{ldir}]",
        f"  inner barrier  {report.inner_barrier_mk:.3f} mK,"
        f" width {report.inner_barrier_width_nm:.1f} nm",
        f"  frequencies    {freq[0]:.1f} / {freq[1]:.1f} / {freq[2]:.1f} kHz"
        " (radial / azimuthal / axial)",
        f"  extents        {report.extents_nm[0]:.1f} /"
        f" {report.extents_nm[1]:.1f} / {report.extents_nm[2]:.1f} nm"
        f" at {report.t_ref_uk:g} uK",
        f"  min intensity  {report.min_intensity_w_m2:.3e} W/m^2"
        f"   (cancellation {report.cancellation:.2e})",
        f"  scattering     {report.scattering_rate:.1f} photons/s",
        f"  lifetime       {life}",
        f"tau sensitivity (sigma = {report.sigma:.4f})",
    ]
    lines.extend(_sens_row_text(row) for row in sens["rows"])
    return "\n".join(lines) + "\n"


def cmd_report(cfg, args):
    """Full trap characterization: JSON with --out, a table without."""
    report, sens = _report_doc(cfg)
    if args.out is None:
        return [_report_table(report, sens).encode()]
    doc = report.to_dict()
    doc["tau_sensitivity"] = sens
    return [(json.dumps(doc, indent=2) + "\n").encode()]


def cmd_sweep_tau(cfg, args):
    """CSV table of trap depth and position at tau0 and tau0 +- sigma."""
    sens = trapanalysis.tau_sensitivity(config.make_field(cfg), cfg.seed)
    rows = []
    for row in sens["rows"]:
        if row["trap"]:
            m = row["minimum"]
            change = row.get("depth_change_pct")
            rows.append([_fmt(row["tau"]), "1", _fmt(row["depth_mk"]),
                         "" if change is None else _fmt(change),
                         _fmt(m["r_nm"]), _fmt(m["phi_rad"]), _fmt(m["z_nm"]),
                         ""])
        else:
            rows.append([_fmt(row["tau"]), "0", "", "", "", "", "",
                         row["reason"]])
    return _csv_chunks(["tau", "trap", "depth_mk", "depth_change_pct",
                        "r_nm", "phi_rad", "z_nm", "reason"], rows)


def _resolve_config(args):
    if args.config is not None and args.preset is not None:
        raise ConfigError("choose either --preset or --config, not both")
    if args.config is not None:
        cfg = config.load_config(args.config)
    else:
        cfg = config.preset(args.preset or "he11-te01")
    overrides = {}
    if getattr(args, "tau", None) is not None:
        overrides["tau"] = args.tau
    if getattr(args, "plane", None) is not None:
        overrides["plane"] = args.plane
    if getattr(args, "resolution", None) is not None:
        overrides["resolution"] = args.resolution
    return replace(cfg, **overrides) if overrides else cfg


def _parser():
    parser = argparse.ArgumentParser(
        prog="fibertrap",
        description="Two-mode evanescent interference traps around an "
                    "ultra-thin optical fiber.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, doc, plane=False, resolution=False, tau=False):
        p = sub.add_parser(name, help=doc, description=doc)
        p.add_argument("--preset", choices=config.PRESET_NAMES,
                       help="built-in trap configuration "
                            "(default: he11-te01 when --config is absent)")
        p.add_argument("--config", metavar="PATH",
                       help="configuration file (see README for the grammar)")
        p.add_argument("--out", metavar="PATH",
                       help="output file, written atomically; stdout if absent")
        if plane:
            p.add_argument("--plane", metavar="AXIS=VALUE",
                           help="plane to sample, e.g. z=trap, z=0, x=0, "
                                "y=0, d=0 (overrides grid.plane)")
        if resolution:
            p.add_argument("--resolution", type=int, metavar="N",
                           help="samples per axis (overrides grid.resolution)")
        if tau:
            p.add_argument("--tau", type=float,
                           help="power split override (fraction in mode a)")
        p.set_defaults(func=fn)
        return p

    add("dispersion", cmd_dispersion,
        "sweep beta/k0 against V for all guided branches", resolution=True)
    add("grid", cmd_grid,
        "sample potential, intensity or the vector field on a plane",
        plane=True, resolution=True, tau=True)
    add("report", cmd_report,
        "characterize the configured trap (JSON with --out, table without)",
        tau=True)
    add("sweep-tau", cmd_sweep_tau,
        "trap depth and position at tau0 and tau0 +- sigma", tau=True)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        try:
            _emit(args.func(cfg, args), args.out)
        except NoTrapError as err:
            if not err.split_dependent:
                raise
            splits = " / ".join(str(config.preset(name).tau)
                                for name in config.PRESET_NAMES)
            raise NoTrapError(f"{err} (power split tau = {cfg.tau}; "
                              f"presets use {splits})") from err
    except (NoTrapError, SaddleError) as err:
        print(f"fibertrap: no trap: {err}", file=sys.stderr)
        return 3
    except (ConfigError, CutoffError) as err:
        print(f"fibertrap: configuration error: {err}", file=sys.stderr)
        return 2
    except FibertrapError as err:
        print(f"fibertrap: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"fibertrap: I/O error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
