"""Cost of one `report` command in a fresh interpreter, per preset.

Run as a script (pytest does not collect it):

    PYTHONPATH=src python tests/cold_cost.py [N]

For each preset, `report --out FILE` runs in N fresh interpreters (default
N = 9), one after another, each timing cli.main with time.perf_counter
after `fibertrap.cli` is imported. One line per preset gives the median,
lowest and highest command time in ms and the median CPU seconds of the
whole child process (user + system from os.wait4, interpreter start-up and
imports included, so threads that numpy's BLAS starts count too); the next
lists the modules that were first loaded during the command, in any of its
runs: the lazy imports a report pays for on every cold start, which a warm
second report in the same process does not.
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
    """One report in a new interpreter.

    Returns (command seconds, process CPU seconds, modules loaded during the
    command).
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


def main(runs):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        for preset in config.PRESET_NAMES:
            times, cpus, loaded = [], [], set()
            for _ in range(runs):
                seconds, cpu, names = cold_report(preset, out)
                times.append(1e3 * seconds)
                cpus.append(cpu)
                loaded.update(names)
            print(f"{preset:<10} report median {statistics.median(times):7.1f}"
                  f" ms  (min {min(times):.1f}, max {max(times):.1f}, "
                  f"{runs} runs); process CPU median "
                  f"{statistics.median(cpus):.3f} s")
            print(f"{'':<10} loaded during the command: "
                  f"{' '.join(sorted(loaded)) or '(none)'}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else RUNS)
