"""Cost of the grid cell formatter against repr, per value.

Run as a script (pytest does not collect it):

    PYTHONPATH=src python tests/format_cost.py

The values are the columns of the three 601 x 601 z = 0 grids that the
benchmark's grid workload writes: potential on he11-te01, intensity on
he11-he21 and the field on te01-he21. Each column is reduced to its
distinct bit patterns, which is what the grid command formats. One line
per column gives the distinct count, the share of them in exponent form,
and ns per value of floatrepr.repr_rows and of repr(float(v)) over the
distinct values, best of 5 runs. The last line per grid sums the columns.
"""

import time
from dataclasses import replace

import numpy as np

from fibertrap import cli, config, floatrepr

RESOLUTION = 601
REPEATS = 5
GRIDS = (("he11-te01", "potential"), ("he11-he21", "intensity"),
         ("te01-he21", "field"))


def best_time(fn, arg):
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - t0)
    return best


def python_repr(values):
    return list(map(repr, values.tolist()))


def main():
    print(f"{'grid':<20} {'column':<9} {'distinct':>9} {'exp form':>8}  "
          f"{'repr_rows':>9} {'repr':>9}   (ns/value)")
    for preset, quantity in GRIDS:
        cfg = replace(config.preset(preset), quantity=quantity, plane="z=0",
                      resolution=RESOLUTION)
        fieldobj = config.make_field(cfg)
        x, y, z = cli._plane_points(cfg, fieldobj)
        cols = [x, y, z, *cli._grid_values(cfg, fieldobj, x, y, z)]
        name = f"{preset} {quantity}"
        total = [0, 0.0, 0.0]
        for header, col in zip(cli._GRID_HEADERS[quantity], cols):
            values = np.unique(col.view(np.int64)).view(float)
            text = python_repr(values)
            exp_form = np.mean(["e" in t for t in text])
            fast = best_time(floatrepr.repr_rows, values)
            slow = best_time(python_repr, values)
            total = [total[0] + values.size, total[1] + fast,
                     total[2] + slow]
            print(f"{name:<20} {header:<9} {values.size:9d} {exp_form:8.0%}  "
                  f"{fast / values.size * 1e9:9.1f} "
                  f"{slow / values.size * 1e9:9.1f}")
        print(f"{name:<20} {'all':<9} {total[0]:9d} {'':8}  "
              f"{total[1] / total[0] * 1e9:9.1f} "
              f"{total[2] / total[0] * 1e9:9.1f}")


if __name__ == "__main__":
    main()
