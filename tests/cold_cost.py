"""Cost of one `report` command in a fresh interpreter, per preset.

Run as a script (pytest does not collect it):

    PYTHONPATH=src python tests/cold_cost.py [N]

For each preset, `report --out FILE` runs in N fresh interpreters (default
N = 9), one after another, each timing cli.main with time.perf_counter
after `fibertrap.cli` is imported. One line per preset gives the median,
lowest and highest command time in ms; the next lists the modules that
were first loaded during the command, in any of its runs: the lazy imports
a report pays for on every cold start, which a warm second report in the
same process does not.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile

from fibertrap import config

RUNS = 9

CHILD = """\
import json, sys, time
from fibertrap import cli
before = set(sys.modules)
t0 = time.perf_counter()
code = cli.main(["report", "--preset", sys.argv[1], "--out", sys.argv[2]])
seconds = time.perf_counter() - t0
print(json.dumps({"code": code, "seconds": seconds,
                  "loaded": sorted(set(sys.modules) - before)}))
"""


def cold_report(preset, out):
    """One report in a new interpreter: (seconds, modules loaded during it)."""
    res = subprocess.run([sys.executable, "-c", CHILD, preset, out],
                         capture_output=True, text=True, check=True)
    doc = json.loads(res.stdout.splitlines()[-1])
    if doc["code"] != 0:
        raise SystemExit(f"report --preset {preset} exited {doc['code']}")
    return doc["seconds"], doc["loaded"]


def main(runs):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        for preset in config.PRESET_NAMES:
            times, loaded = [], set()
            for _ in range(runs):
                seconds, names = cold_report(preset, out)
                times.append(1e3 * seconds)
                loaded.update(names)
            print(f"{preset:<10} report median {statistics.median(times):7.1f}"
                  f" ms  (min {min(times):.1f}, max {max(times):.1f}, "
                  f"{runs} runs)")
            print(f"{'':<10} loaded during the command: "
                  f"{' '.join(sorted(loaded)) or '(none)'}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else RUNS)
