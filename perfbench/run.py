"""fibertrap benchmark: runs the CLI the way a user does and reports metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout; the package is imported from the
checkout's src/. A single client runs one command at a time, each in a fresh
interpreter (child.py), in a closed loop: the next command starts after the
previous one returned. FIBERTRAP_THREADS is removed from the environment,
so the CLI uses one worker thread. A round is every command of the workload
once; the first round always runs, and another starts while the run's time
so far plus half the last round's time is within --seconds, so a run ends
at most about half a round after --seconds. A started command is never
stopped. The seed only permutes the command order.

Workloads (see README.md for why each exists and what it should move):
  report  `report --preset P --out F.json` for the three presets
  grid    `grid --config C --plane z=0 --resolution 601 --out F.csv` with
          grid.quantity potential on he11-te01, intensity on he11-he21 and
          field on te01-he21

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced
round, then one traced round (tracer.py) and reports the per-layer metrics.
Every output file is checked (checks.py); a failed check counts as a
failed command. The last stdout line is the result JSON; the line
before it holds the machine facts and per-command details. Spans of the
traced round go to .perfbench/spans/ in the checkout.

--smoke runs every workload with both trace settings at tiny sizes (one
report preset, 11-point grids) and checks only that each result matches
the schema in BENCHMARK.json; it exits 1 if one does not.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

PRESETS = ("he11-te01", "he11-he21", "te01-he21")
QUANTITIES = ("potential", "intensity", "field")
WORKLOADS = ("report", "grid")
GRID_RESOLUTION = 601
SMOKE_RESOLUTION = 11


@dataclass
class Command:
    kind: str
    preset: str
    quantity: str
    argv: list
    out: Path
    config: Path = None

    @property
    def label(self):
        return " ".join(x for x in (self.kind, self.preset, self.quantity) if x)


def workload_commands(workload, seed, smoke, run_dir):
    cmds = []
    if workload == "report":
        for p in PRESETS[:1] if smoke else PRESETS:
            out = run_dir / f"report-{p}.json"
            cmds.append(Command("report", p, None,
                                ["report", "--preset", p, "--out", str(out)],
                                out))
    else:
        res = SMOKE_RESOLUTION if smoke else GRID_RESOLUTION
        for p, q in zip(PRESETS, QUANTITIES):
            out = run_dir / f"grid-{p}.csv"
            cfg = run_dir / f"grid-{p}.cfg"
            cmds.append(Command("grid", p, q,
                                ["grid", "--config", str(cfg), "--plane",
                                 "z=0", "--resolution", str(res),
                                 "--out", str(out)], out, cfg))
    random.Random(seed).shuffle(cmds)
    return cmds


def check_output(cmd, smoke, fibers):
    if cmd.kind == "report":
        return checks.check_report(cmd.out, cmd.preset)
    res = SMOKE_RESOLUTION if smoke else GRID_RESOLUTION
    return checks.check_grid(cmd.out, cmd.quantity, res,
                             fibers[cmd.preset]["radius_nm"])


class Children:
    """Starts child.py processes one at a time and waits for each to end."""

    def __init__(self, run_dir):
        self.run_dir = run_dir
        self.count = 0
        self.env = dict(os.environ)
        self.env.pop("FIBERTRAP_THREADS", None)

    def run(self, spec):
        """(result dict or None, exit code, cpu seconds, peak rss MB, log tail)."""
        self.count += 1
        result_path = self.run_dir / f"child-{self.count}.json"
        log_path = self.run_dir / f"child-{self.count}.log"
        spec = dict(spec, src=str(SRC))
        with open(log_path, "w", encoding="utf-8") as log:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec),
                 str(result_path)],
                cwd=ROOT, env=self.env, stdout=log, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # the benchmark itself is being stopped: stop the child too and
            # wait for it before unwinding
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        result = None
        if rc == 0 and result_path.exists():
            result = json.loads(result_path.read_text(encoding="utf-8"))
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-400:]
        return (result, rc, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, tail)


def run_round(children, cmds, smoke, fibers, spans_dir=None):
    """Run every command once; one record per command."""
    records = []
    for i, cmd in enumerate(cmds):
        spec = {"mode": "run", "argv": cmd.argv, "command_id": i,
                "spans": str(spans_dir / f"cmd{i}.json") if spans_dir else None}
        result, rc, cpu, rss, tail = children.run(spec)
        rec = {"command": cmd.label, "cpu_s": cpu, "peak_rss_mb": rss,
               "traced": spans_dir is not None}
        if result is None or result["rc"] != 0 or not cmd.out.exists():
            code = rc if result is None else result["rc"]
            rec["problems"] = [f"exit code {code}: {tail.strip()}"]
        else:
            rec.update(setup_s=result["setup_s"],
                       command_s=result["command_s"],
                       bytes_out=cmd.out.stat().st_size)
            if "trace" in result:
                rec["trace"] = result["trace"]
            try:
                rec["problems"] = check_output(cmd, smoke, fibers)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as err:
                rec["problems"] = [f"unreadable output: {err!r}"]
        if cmd.out.exists():
            cmd.out.unlink()
        records.append(rec)
    return records


def _round_sum(records, key):
    return sum(r.get(key, 0.0) for r in records)


def _summed_median(rounds, key):
    """Sum over the commands of each command's median over the rounds."""
    return sum(statistics.median(rnd[i].get(key, 0.0) for rnd in rounds)
               for i in range(len(rounds[0])))


def _merge_traces(records):
    """Sum the per-function summaries of the traced commands."""
    funcs, total = {}, {"command_s": 0.0, "uncovered_s": 0.0, "spans": 0}
    missing = set()
    for rec in records:
        tr = rec.get("trace")
        if tr is None:
            continue
        for key in total:
            total[key] += tr[key]
        missing.update(tr["missing"])
        for name, f in tr["functions"].items():
            into = funcs.setdefault(name, dict.fromkeys(f, 0))
            for key, val in f.items():
                into[key] += val
    return {"totals": {f"trace.{k}": v for k, v in total.items()},
            "functions": funcs, "missing": sorted(missing)}


LAYERS = ("trapanalysis", "config", "superposition", "potential", "modes",
          "numerics", "cli")

# The per_layer metrics of BENCHMARK.json, in its order, with their units;
# every one is better lower. "<layer>.self_s" is the self time of the
# layer's spans, "<module>.<function>.<key>" a field of that function's
# summary (see tracer.Tracer.summary), "trace.*" and "cli.bytes_out" totals
# of the traced round.
PER_LAYER = (
    ("trapanalysis.self_s", "s"), ("trapanalysis.find_minimum.s", "s"),
    ("trapanalysis.escape_barrier.s", "s"),
    ("trapanalysis.escape_barrier.points", "count"),
    ("trapanalysis.tau_sensitivity.s", "s"),
    ("trapanalysis.characterize_trap.s", "s"),
    ("config.self_s", "s"), ("config.make_field.calls", "count"),
    ("config.make_field.s", "s"),
    ("superposition.self_s", "s"), ("superposition.make_pair.calls", "count"),
    ("superposition.make_pair.s", "s"),
    ("potential.self_s", "s"), ("potential.total_potential.calls", "count"),
    ("potential.total_potential.points", "count"),
    ("potential.total_potential.scalar_calls", "count"),
    ("potential.potential_gradient.calls", "count"),
    ("modes.self_s", "s"), ("modes.solve_mode.calls", "count"),
    ("modes.solve_mode.s", "s"), ("modes.mode_power.calls", "count"),
    ("modes.mode_power.s", "s"), ("modes.e_field.calls", "count"),
    ("modes.e_field.points", "count"), ("modes.e_field.s", "s"),
    ("modes.e_field.us_per_point", "us"), ("modes.h_field.points", "count"),
    ("numerics.self_s", "s"), ("numerics.integrate.calls", "count"),
    ("numerics.integrate.s", "s"), ("numerics.find_root.calls", "count"),
    ("numerics.find_root.s", "s"), ("numerics.hessian.calls", "count"),
    ("cli.self_s", "s"), ("cli.bytes_out", "bytes"),
    ("trace.command_s", "s"), ("trace.uncovered_s", "s"),
    ("trace.overhead_frac", "frac"), ("trace.spans", "count"),
)


def layer_metric(name, agg):
    """Value of one PER_LAYER metric from the merged trace of a round."""
    if name in agg["totals"]:
        return agg["totals"][name]
    head, _, key = name.rpartition(".")
    if key == "self_s" and head in LAYERS:
        return sum(f["self_s"] for fn, f in agg["functions"].items()
                   if fn.split(".", 1)[0] == head)
    f = agg["functions"].get(head, {})
    if name == "trapanalysis.escape_barrier.points":
        # the fan evaluates no points itself: count the potential under it
        return f.get("potential_points", 0)
    if key == "us_per_point":
        return 1e6 * f["s"] / f["points"] if f.get("points") else 0.0
    return f.get(key, 0)


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


def machine_facts(prep, seed):
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "fibertrap").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "python": prep["python"], "numpy": prep["numpy"],
            "scipy": prep["scipy"], "commit": commit,
            "src_sha256": digest.hexdigest(), "seed": seed}


def _end_to_end(rounds, records):
    """End-to-end metrics of the untraced rounds."""
    return {
        "wall_s": _summed_median(rounds, "command_s"),
        "setup_s": _summed_median(rounds, "setup_s"),
        "cpu_s": _summed_median(rounds, "cpu_s"),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records
                           if "peak_rss_mb" in r),
    }


def _per_layer(traced, untraced_wall_s):
    """Per-layer metrics of the traced round, and the functions not found."""
    agg = _merge_traces(traced)
    totals = agg["totals"]
    totals["cli.bytes_out"] = _round_sum(traced, "bytes_out")
    totals["trace.overhead_frac"] = (totals["trace.command_s"]
                                     / untraced_wall_s - 1.0)
    metrics = {name: layer_metric(name, agg) for name, _ in PER_LAYER}
    return metrics, agg["missing"]


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Measure one workload; returns (result, details)."""
    start = time.monotonic()
    run_dir = WORK / f"run-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    details = {"benchmark": "fibertrap", "workload": workload, "seed": seed,
               "trace": int(trace), "smoke": smoke}
    try:
        children = Children(run_dir)
        cmds = workload_commands(workload, seed, smoke, run_dir)
        grid_configs = [[c.preset, c.quantity, str(c.config)] for c in cmds
                        if c.config is not None]
        prep, rc, _, _, tail = children.run({"mode": "prepare",
                                             "grid_configs": grid_configs})
        if prep is None:
            raise RuntimeError(f"cannot import fibertrap (exit {rc}): {tail}")
        fibers = prep["fibers"]

        # whole rounds; another starts only if at least half of it should
        # fall within `seconds`, and a traced run has one untraced round
        rounds = []
        while True:
            t0 = time.monotonic()
            rounds.append(run_round(children, cmds, smoke, fibers))
            took = time.monotonic() - t0
            if trace or time.monotonic() + took / 2 > start + seconds:
                break
        records = [r for rnd in rounds for r in rnd]
        if trace:
            spans_dir = WORK / "spans" / f"{workload}-seed{seed}"
            shutil.rmtree(spans_dir, ignore_errors=True)
            spans_dir.mkdir(parents=True)
            traced = run_round(children, cmds, smoke, fibers, spans_dir)
            records += traced
            wall = _round_sum(rounds[0], "command_s")
            metrics, details["trace_missing"] = _per_layer(traced, wall)
        else:
            metrics = _end_to_end(rounds, records)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(1 for r in records if r["problems"])
    units = dict(END_TO_END_UNITS, **dict(PER_LAYER))
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    details.update(rounds=len(rounds), failed_frac=failed / len(records),
                   machine=machine_facts(prep, seed),
                   commands=[{k: v for k, v in r.items() if k != "trace"}
                             for r in records])
    return result, details


def schema_problems(result, trace, bench):
    """Differences between a result and the schema in BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    section = bench["per_layer"] if trace else bench["end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics {got} differ from {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name} value {m.get('value')!r}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted {result['attempted']!r}")
    if not result["correct"]:
        problems.append("outputs failed their checks")
    return problems


def smoke():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    bad = 0
    for workload in names:
        for trace in (False, True):
            result, details = run_workload(workload, 0, 0, trace, smoke=True)
            problems = schema_problems(result, trace, bench)
            status = "ok" if not problems else "; ".join(problems)
            print(f"smoke {workload} trace={int(trace)}: {status}")
            if problems:
                print(json.dumps(details), file=sys.stderr)
            bad += bool(problems)
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    # a stopped benchmark unwinds, so that its running command is stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "fibertrap" / "__init__.py").is_file():
        print(f"perfbench: no fibertrap package under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        result, details = run_workload(args.workload, args.seed,
                                       args.seconds, bool(args.trace))
    except RuntimeError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
