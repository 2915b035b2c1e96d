"""Outcome of find_minimum over a fixed traffic of searches, cold and warm.

Run as a script (pytest does not collect it):

    PYTHONPATH=src python tests/search_traffic.py > traffic.txt

The traffic is the three presets at 25 power splits tau = 0.02, 0.06, ...,
0.98 and at the three preset rows tau0 - sigma, tau0, tau0 + sigma, each at
the launch phases delta = 0, 0.7 and 2.5 rad: 252 searches in the preset's
own seed box. Each is run cold, from the seed scan, and warm, with its
Newton polish started at the tau0 minimum of the same preset and delta (as
tau_sensitivity starts the perturbed rows; where tau0 has no trap the warm
search is the cold one). One tab-separated line per search gives the
preset, delta, the kind of split ("grid" or "row") and tau, then for the
cold and then the warm search the outcome ("ok" or the NoTrapError
message), the number of local Hessians the search took (its
potential_derivatives calls, one per Newton iterate) and the minimum
(r_nm, phi, z_nm) as exact reprs, so two runs can be compared with diff. A
summary of outcome counts, Hessian counts and of how often the warm search
agrees with the cold one goes to stderr.
"""

import collections
import dataclasses
import math
import sys

from fibertrap import config, potential, trapanalysis
from fibertrap.errors import NoTrapError

DELTAS = (0.0, 0.7, 2.5)
TAUS = tuple(0.02 + 0.04 * k for k in range(25))


def _splits(cfg):
    sigma = trapanalysis.power_split_sigma(cfg.tau)
    return [("grid", tau) for tau in TAUS] + [
        ("row", tau) for tau in (cfg.tau - sigma, cfg.tau, cfg.tau + sigma)]


def _distance_nm(m, n):
    """Distance between two minima (r_nm, phi, z_nm), the arc taken at m."""
    return math.sqrt((m[0] - n[0]) ** 2 + (m[0] * (m[1] - n[1])) ** 2
                     + (m[2] - n[2]) ** 2)


def main():
    hessians = [0]
    derivatives = potential.potential_derivatives

    def counted(*args, **kwargs):
        hessians[0] += 1
        return derivatives(*args, **kwargs)

    def search(field_, seed, start):
        hessians[0] = 0
        try:
            m = trapanalysis.find_minimum(field_, seed, start=start)
        except NoTrapError as err:
            return str(err), hessians[0], None
        return "ok", hessians[0], m

    potential.potential_derivatives = counted
    outcomes = collections.Counter()
    most = collections.defaultdict(int)
    total = {"cold": 0, "warm": 0}
    agree, searches, apart = 0, 0, 0.0
    for name in config.PRESET_NAMES:
        for delta in DELTAS:
            cfg = dataclasses.replace(config.preset(name), delta=delta)
            base = config.make_field(cfg)
            start = search(base, cfg.seed, None)[2]
            for kind, tau in _splits(cfg):
                field_ = dataclasses.replace(
                    base, pair=dataclasses.replace(base.pair, tau=tau))
                cold = search(field_, cfg.seed, None)
                warm = search(field_, cfg.seed, start)
                outcomes[cold[0]] += 1
                most[cold[0]] = max(most[cold[0]], cold[1])
                total["cold"] += cold[1]
                total["warm"] += warm[1]
                searches += 1
                if warm[0] == cold[0]:
                    agree += 1
                    if cold[2] is not None:
                        apart = max(apart, _distance_nm(cold[2], warm[2]))
                cells = []
                for outcome, count, m in (cold, warm):
                    where = "-" if m is None else " ".join(map(repr, m))
                    cells += [outcome, str(count), where]
                print(f"{name}\t{delta!r}\t{kind}\t{tau!r}\t"
                      + "\t".join(cells))
    for outcome, count in outcomes.most_common():
        print(f"{count:4d}  {outcome}  (cold, at most {most[outcome]} "
              "Hessians)", file=sys.stderr)
    print(f"warm agrees with cold on {agree} of {searches} searches; the "
          f"agreeing minima lie at most {apart:.3g} nm apart; Hessians "
          f"{total['cold']} cold, {total['warm']} warm", file=sys.stderr)


if __name__ == "__main__":
    main()
