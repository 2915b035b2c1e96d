"""Cost of the J and K Bessel kernels, and the calls that reach them.

Run as a script (pytest does not collect it):

    PYTHONPATH=src python tests/bessel_cost.py

The batches are the arguments of the 601 x 601 z = 0 grid (the preset's
grid half-width) for both modes of each preset, the inputs of the field
evaluator on the grid command: x = q r outside the fiber for K, x = h r
inside it for J. One line per (preset, mode) gives the K x range, the
share of K points with x <= 2 (where the series branch runs), and ns per
point of numerics.bessel_k_orders(x, nu + 1) and of
bessel_j_orders(x, max(nu - 1, 0), nu + 1), the orders modes asks for,
best of 7 runs. The per-call lines give us per call at x = 1.3 and
x = 5.2, one point on each K branch, for a 0-d argument (the float path)
and for a 1-element array (the numpy path). When scipy is installed, the
lines also give scipy.special beside them: k0 and k1 with the same
recurrence, the kernels fibertrap used before its own, and jv.

The call lines count the scalar (0-d) and the array calls of each
kernel during one run of config.make_field, and of characterize_trap with
tau_sensitivity as `report` makes them, for each preset, and during one
dispersion_sweep at the default range and resolution. The counts come
from wrappers set on the numerics module, as in tests/valley_cost.py.
"""

import collections
import time

import numpy as np

from fibertrap import config, modes, numerics, trapanalysis

try:
    from scipy import special
except ImportError:
    special = None

RESOLUTION = 601
REPEATS = 7
SCALAR_CALLS = 2000
KERNELS = (("K", "bessel_k_orders"), ("J", "bessel_j_orders"))


def scipy_k_orders(arr, top):
    ks = [special.k0(arr), special.k1(arr)]
    for n in range(1, top):
        ks.append(ks[-1] * (2.0 * n / arr) + ks[-2])
    return ks


def scipy_j_orders(arr, lo, hi):
    return [special.jv(n, arr) for n in range(lo, hi + 1)]


def best_time(fn, *args):
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def grid_arguments(cfg, sol):
    """(K arguments q r outside the fiber, J arguments h r inside it)."""
    span = np.linspace(-cfg.halfwidth_nm, cfg.halfwidth_nm, RESOLUTION)
    r = np.hypot(span[:, None], span[None, :]).ravel()
    inside = r <= cfg.fiber.radius_nm
    return sol.q_per_nm * r[~inside], sol.h_per_nm * r[inside]


def scalar_cost(kernel, arg, *orders):
    t0 = time.perf_counter()
    for _ in range(SCALAR_CALLS):
        kernel(arg, *orders)
    return (time.perf_counter() - t0) / SCALAR_CALLS


def count_calls(call):
    """Scalar and array calls of each numerics kernel during one call()."""
    counts, saved = collections.Counter(), []

    def counted(real, kind):
        def wrapper(x, *orders):
            counts[kind, "scalar" if np.ndim(x) == 0 else "array"] += 1
            return real(x, *orders)
        return wrapper

    for kind, name in KERNELS:
        saved.append((name, getattr(numerics, name)))
        setattr(numerics, name, counted(getattr(numerics, name), kind))
    try:
        call()
    finally:
        for name, real in saved:
            setattr(numerics, name, real)
    return counts


def report_calls(cfg, field_):
    report = trapanalysis.characterize_trap(field_, cfg.seed,
                                            config.thermal_state(cfg))
    trapanalysis.tau_sensitivity(field_, cfg.seed, base=report.base)


def main():
    k_kernels = [("fibertrap", numerics.bessel_k_orders)]
    j_kernels = [("fibertrap", numerics.bessel_j_orders)]
    if special is not None:
        k_kernels.append(("scipy", scipy_k_orders))
        j_kernels.append(("scipy", scipy_j_orders))
    names = "  ".join(f"{name:>9}" for name, _ in k_kernels)
    print(f"{'preset':<10} {'mode':<5} {'K x range':>12} {'x<=2':>5}  "
          f"K {names}  J {names}   (ns/point)")
    for preset in config.PRESET_NAMES:
        cfg = config.preset(preset)
        pair = config.make_field(cfg).pair
        for sol in (pair.sol_a, pair.sol_b):
            xk, xj = grid_arguments(cfg, sol)
            nu = sol.mode.nu
            k_costs = "  ".join(
                f"{best_time(kernel, xk, nu + 1) / xk.size * 1e9:9.1f}"
                for _, kernel in k_kernels)
            j_costs = "  ".join(
                f"{best_time(kernel, xj, max(nu - 1, 0), nu + 1) / xj.size * 1e9:9.1f}"
                for _, kernel in j_kernels)
            print(f"{preset:<10} {sol.name:<5} {xk.min():5.2f}-{xk.max():5.2f} "
                  f"{np.mean(xk <= 2.0):5.0%}  K {k_costs}  J {j_costs}")
    print(f"\n{'per call':<32} {'0-d':>9} {'1-element':>9} "
          f"{'scipy 0-d':>9}   (us/call)")
    for x in (1.3, 5.2):
        for label, kernels, orders in (
                (f"bessel_k_orders(x = {x}, 2)", k_kernels, (2,)),
                (f"bessel_j_orders(x = {x}, 0, 2)", j_kernels, (0, 2))):
            args = [(kernels[0][1], np.asarray(x)),
                    (kernels[0][1], np.array([x]))]
            args += [(kernel, np.asarray(x)) for _, kernel in kernels[1:]]
            costs = " ".join(f"{scalar_cost(kernel, arg, *orders) * 1e6:9.2f}"
                             for kernel, arg in args)
            print(f"{label:<32} {costs}")

    print(f"\n{'calls':<32} {'K scalar':>9} {'K array':>8} "
          f"{'J scalar':>9} {'J array':>8}")
    runs = []
    for preset in config.PRESET_NAMES:
        cfg = config.preset(preset)
        runs.append((f"{preset} make_field",
                     lambda cfg=cfg: config.make_field(cfg)))
        runs.append((f"{preset} characterize + tau",
                     lambda cfg=cfg, field_=config.make_field(cfg):
                     report_calls(cfg, field_)))
    cfg = config.parse_config("")
    runs.append((f"dispersion_sweep ({cfg.resolution} V)",
                 lambda: modes.dispersion_sweep(cfg.fiber, cfg.v_lo,
                                                cfg.v_hi, cfg.resolution)))
    for label, call in runs:
        counts = count_calls(call)
        print(f"{label:<32} {counts['K', 'scalar']:9d} "
              f"{counts['K', 'array']:8d} {counts['J', 'scalar']:9d} "
              f"{counts['J', 'array']:8d}")


if __name__ == "__main__":
    main()
