"""Cost of the K Bessel kernel, per point in a batch and per scalar call.

Run as a script (pytest does not collect it):

    PYTHONPATH=src python tests/bessel_cost.py

The batches are the exterior arguments x = q r of the 601 x 601 z = 0 grid
(the preset's grid half-width) for both modes of each preset, the inputs
of the field evaluator on the grid command. One line per (preset, mode)
gives the x range, the share of points with x <= 2 (where the series
branch runs), and ns per point of numerics.bessel_k_orders(x, nu + 1),
best of 7 runs. The scalar lines give us per 0-d call at x = 1.3 and
x = 5.2. When scipy is installed, each line also gives the same
recurrence on scipy.special.k0 and k1, the kernels fibertrap used before
its own.
"""

import time

import numpy as np

from fibertrap import config, numerics

try:
    from scipy import special
except ImportError:
    special = None

RESOLUTION = 601
REPEATS = 7
SCALAR_CALLS = 2000


def scipy_k_orders(arr, top):
    ks = [special.k0(arr), special.k1(arr)]
    for n in range(1, top):
        ks.append(ks[-1] * (2.0 * n / arr) + ks[-2])
    return ks


def best_time(fn, *args):
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def grid_arguments(cfg, sol):
    span = np.linspace(-cfg.halfwidth_nm, cfg.halfwidth_nm, RESOLUTION)
    r = np.hypot(span[:, None], span[None, :]).ravel()
    return sol.q_per_nm * r[r > cfg.fiber.radius_nm]


def scalar_cost(kernel, x, top):
    arg = np.asarray(x)
    t0 = time.perf_counter()
    for _ in range(SCALAR_CALLS):
        kernel(arg, top)
    return (time.perf_counter() - t0) / SCALAR_CALLS


def main():
    kernels = [("fibertrap", numerics.bessel_k_orders)]
    if special is not None:
        kernels.append(("scipy", scipy_k_orders))
    names = "  ".join(f"{name:>9}" for name, _ in kernels)
    print(f"{'preset':<10} {'mode':<5} {'x range':>12} {'x<=2':>5}  "
          f"{names}   (ns/point)")
    for preset in config.PRESET_NAMES:
        cfg = config.preset(preset)
        pair = config.make_field(cfg).pair
        for sol in (pair.sol_a, pair.sol_b):
            x = grid_arguments(cfg, sol)
            top = sol.mode.nu + 1
            costs = "  ".join(
                f"{best_time(kernel, x, top) / x.size * 1e9:9.1f}"
                for _, kernel in kernels)
            print(f"{preset:<10} {sol.name:<5} {x.min():5.2f}-{x.max():5.2f} "
                  f"{np.mean(x <= 2.0):5.0%}  {costs}")
    for x in (1.3, 5.2):
        costs = "  ".join(f"{scalar_cost(kernel, x, 2) * 1e6:9.2f}"
                          for _, kernel in kernels)
        print(f"scalar bessel_k_orders(x = {x}, 2) {costs}   (us/call)")


if __name__ == "__main__":
    main()
