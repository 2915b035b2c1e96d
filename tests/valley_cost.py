"""Cost of the valley-floor searches and of the power quadrature, per preset.

Run as a script (pytest does not collect it):

    PYTHONPATH=src python tests/valley_cost.py

For each preset, one line per measured call gives its best-of-REPEATS
process time in ms and the points that numerics.bessel_k_orders and
bessel_j_orders evaluate during one run of it, summed over their calls.
The calls are find_minimum from the preset's seed box; escape_barrier from
that minimum, in full and for two parts of its _flood: the _valley call
(the 100 x 180 valley-floor grid) and the rest (the priority-flood loop
and its checks); and mode_power of each of the pair's two modes. The
functions are timed through wrappers set on their modules, so the times
include a few microseconds of wrapper overhead per Bessel call.
"""

import collections
import time

import numpy as np

from fibertrap import config, modes, numerics, trapanalysis

REPEATS = 9
BESSELS = (("K", "bessel_k_orders"), ("J", "bessel_j_orders"))


def measure(call, wraps):
    """One run of call: process time per wrapped label, Bessel points inside it.

    wraps lists (module, function name, label); the Bessel points are
    counted per (label, "K" or "J") for every label whose call is running.
    """
    seconds, points, running, saved = (collections.Counter(),
                                       collections.Counter(), [], [])

    def timed(real, label):
        def wrapper(*args):
            running.append(label)
            t0 = time.process_time()
            try:
                return real(*args)
            finally:
                seconds[label] += time.process_time() - t0
                running.pop()
        return wrapper

    def counted(real, kind):
        def wrapper(x, *orders):
            for label in running:
                points[label, kind] += np.size(x)
            return real(x, *orders)
        return wrapper

    patches = [(module, name, timed, label) for module, name, label in wraps]
    patches += [(numerics, name, counted, kind) for kind, name in BESSELS]
    for module, name, wrap, tag in patches:
        saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrap(getattr(module, name), tag))
    try:
        call()
    finally:
        for module, name, real in reversed(saved):
            setattr(module, name, real)
    return seconds, points


def best_of(call, wraps):
    """Best-of-REPEATS process time per label, and the last run's points."""
    best = {}
    for _ in range(REPEATS):
        seconds, points = measure(call, wraps)
        if "_flood" in seconds:
            seconds["_flood loop"] = seconds["_flood"] - seconds["_valley"]
        for label, s in seconds.items():
            best[label] = min(best.get(label, float("inf")), s)
    return best, points


def main():
    print(f"{'preset':<10} {'call':<18} {'ms':>7} {'K points':>9} "
          f"{'J points':>9}")
    for preset in config.PRESET_NAMES:
        cfg = config.preset(preset)
        field_ = config.make_field(cfg)
        minimum = trapanalysis.find_minimum(field_, cfg.seed)
        runs = [(lambda: trapanalysis.find_minimum(field_, cfg.seed),
                 [(trapanalysis, "find_minimum", "find_minimum")],
                 [("find_minimum", "find_minimum")]),
                (lambda: trapanalysis.escape_barrier(field_, minimum),
                 [(trapanalysis, "escape_barrier", "escape_barrier"),
                  (trapanalysis, "_flood", "_flood"),
                  (trapanalysis, "_valley", "_valley")],
                 [("_valley", "_flood _valley"),
                  ("_flood loop", "_flood loop"),
                  ("escape_barrier", "escape_barrier")])]
        for sol in (field_.pair.unit_a, field_.pair.unit_b):
            runs.append((lambda sol=sol: modes.mode_power(sol),
                         [(modes, "mode_power", "mode_power")],
                         [("mode_power", f"mode_power {sol.name}")]))
        for call, wraps, rows in runs:
            best, points = best_of(call, wraps)
            for label, name in rows:
                print(f"{preset:<10} {name:<18} {1e3 * best[label]:7.2f} "
                      f"{points[label, 'K']:9d} {points[label, 'J']:9d}")


if __name__ == "__main__":
    main()
