"""Outcome of find_minimum over a fixed traffic of searches.

Run as a script (pytest does not collect it):

    PYTHONPATH=src python tests/search_traffic.py > traffic.txt

The traffic is the three presets at 25 power splits tau = 0.02, 0.06, ...,
0.98 and at the three preset rows tau0 - sigma, tau0, tau0 + sigma, each at
the launch phases delta = 0, 0.7 and 2.5 rad: 252 searches in the preset's
own seed box. One tab-separated line per search gives the preset, delta,
the kind of split ("grid" or "row"), tau, the outcome ("ok" or the
NoTrapError message), the number of local Hessians the search took (its
potential_derivatives calls, one per Newton iterate), and the minimum
(r_nm, phi, z_nm) as exact reprs, so two runs can be compared with diff. A
summary of outcome counts and Hessian counts goes to stderr.
"""

import collections
import dataclasses
import sys

from fibertrap import config, potential, trapanalysis
from fibertrap.errors import NoTrapError

DELTAS = (0.0, 0.7, 2.5)
TAUS = tuple(0.02 + 0.04 * k for k in range(25))


def _splits(cfg):
    sigma = trapanalysis.power_split_sigma(cfg.tau)
    return [("grid", tau) for tau in TAUS] + [
        ("row", tau) for tau in (cfg.tau - sigma, cfg.tau, cfg.tau + sigma)]


def main():
    hessians = [0]
    derivatives = potential.potential_derivatives

    def counted(*args, **kwargs):
        hessians[0] += 1
        return derivatives(*args, **kwargs)

    potential.potential_derivatives = counted
    outcomes = collections.Counter()
    most = collections.defaultdict(int)
    for name in config.PRESET_NAMES:
        for delta in DELTAS:
            cfg = dataclasses.replace(config.preset(name), delta=delta)
            for kind, tau in _splits(cfg):
                hessians[0] = 0
                try:
                    m = trapanalysis.find_minimum(
                        config.make_field(cfg, tau=tau), cfg.seed)
                    outcome, where = "ok", " ".join(repr(v) for v in m)
                except NoTrapError as err:
                    outcome, where = str(err), "-"
                outcomes[outcome] += 1
                most[outcome] = max(most[outcome], hessians[0])
                print(f"{name}\t{delta!r}\t{kind}\t{tau!r}\t{outcome}\t"
                      f"{hessians[0]}\t{where}")
    for outcome, count in outcomes.most_common():
        print(f"{count:4d}  {outcome}  (at most {most[outcome]} Hessians)",
              file=sys.stderr)


if __name__ == "__main__":
    main()
