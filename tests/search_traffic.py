"""Outcome of find_minimum and escape_barrier over a fixed traffic of searches.

Run as a script (pytest does not collect it):

    PYTHONPATH=src python tests/search_traffic.py > traffic.txt

The traffic is the three presets at 25 power splits tau = 0.02, 0.06, ...,
0.98 and at the three preset rows tau0 - sigma, tau0, tau0 + sigma, each at
the launch phases delta = 0, 0.7 and 2.5 rad: 252 searches in the preset's
own seed box, each run from scratch as tau_sensitivity runs a split. One
tab-separated line per search gives the preset, delta, the kind of split
("grid" or "row") and tau, then for find_minimum and, where it finds a
minimum, for escape_barrier from it, the outcome ("ok" or the NoTrapError
message) and the number of local Hessians the search took (its
potential_derivatives calls, one per Newton iterate), then the minimum
(r_nm, phi, z_nm), the depth in J and the saddle (r_nm, phi, z_nm) as exact
reprs ("-" where there is none), so two runs can be compared with diff. A
summary of outcome and Hessian counts goes to stderr.
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


def _reprs(values):
    return "-" if values is None else " ".join(map(repr, values))


def main():
    hessians = [0]
    derivatives = potential.potential_derivatives

    def counted(*args, **kwargs):
        hessians[0] += 1
        return derivatives(*args, **kwargs)

    outcomes = collections.defaultdict(collections.Counter)
    most = collections.defaultdict(int)

    def search(what, fn, *args):
        # outcome, Hessian count and result of one search, tallied
        hessians[0] = 0
        try:
            outcome, result = "ok", fn(*args)
        except NoTrapError as err:
            outcome, result = str(err), None
        outcomes[what][outcome] += 1
        most[what, outcome] = max(most[what, outcome], hessians[0])
        return outcome, hessians[0], result

    potential.potential_derivatives = counted
    for name in config.PRESET_NAMES:
        for delta in DELTAS:
            cfg = dataclasses.replace(config.preset(name), delta=delta)
            base = config.make_field(cfg)
            for kind, tau in _splits(cfg):
                field_ = dataclasses.replace(
                    base, pair=dataclasses.replace(base.pair, tau=tau))
                found = search("minimum", trapanalysis.find_minimum, field_,
                               cfg.seed)
                esc = ("-", "-", None)
                if found[2] is not None:
                    esc = search("escape", trapanalysis.escape_barrier,
                                 field_, found[2])
                cells = [*found[:2], *esc[:2], _reprs(found[2]),
                         "-" if esc[2] is None else repr(esc[2].depth_j),
                         _reprs(esc[2] and esc[2].saddle)]
                print(f"{name}\t{delta!r}\t{kind}\t{tau!r}\t"
                      + "\t".join(map(str, cells)))
    for what, counter in outcomes.items():
        for outcome, count in counter.most_common():
            print(f"{count:4d}  {what}: {outcome}  (at most "
                  f"{most[what, outcome]} Hessians)", file=sys.stderr)


if __name__ == "__main__":
    main()
