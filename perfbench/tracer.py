"""Spans around the public functions of each fibertrap module, from outside.

`Tracer.install` replaces the module attributes listed in WRAPPED with
timing wrappers. The package calls these functions through their module
(`modes.e_field(...)`, also inside modes itself), so every call is caught
without touching the package's source. A function that a later change
renames or removes is skipped and listed under "missing"; the time it
takes then shows in its caller's self time or in the uncovered remainder.

Each span records name, start, end and parent span. Spans stay in memory
and are written by `dump` after the command returns. The single span stack
assumes one worker thread, which is what the CLI uses when
FIBERTRAP_THREADS is unset.
"""

import functools
import importlib
import inspect
import json
import time

import numpy as np

# module -> functions wrapped in it. cli._emit is the CLI's write step; it
# is wrapped so that writing counts as cli time and not as uncovered time.
WRAPPED = {
    "cli": ("cmd_grid", "cmd_report", "_emit"),
    "config": ("preset", "load_config", "make_pair", "make_field"),
    "trapanalysis": ("characterize_trap", "tau_sensitivity", "find_minimum",
                     "escape_barrier", "trap_frequencies", "turning_points",
                     "orbit_averaged_scattering"),
    "superposition": ("make_pair", "total_e_field", "mean_intensity",
                      "beat_length"),
    "potential": ("total_potential", "potential_gradient", "intensity",
                  "single_mode_intensity", "local_scattering_rate"),
    "modes": ("solve_mode", "normalize_power", "mode_power", "e_field",
              "h_field", "e_field_exterior_jacobian"),
    "numerics": ("integrate", "find_root", "hessian"),
}

# A field function takes its sample points under these parameter names;
# its point count is the broadcast size of the three.
_POINT_PARAMS = ("r_nm", "phi", "z_nm")
# Points of this function are also summed per enclosing span name.
_POTENTIAL = "potential.total_potential"


def _point_counter(fn):
    """A function (args, kwargs) -> point count, or None for non-field functions."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    if not all(p in params for p in _POINT_PARAMS):
        return None
    where = [(params.index(p), p) for p in _POINT_PARAMS]

    def count(args, kwargs):
        vals = [args[i] if i < len(args) else kwargs[name]
                for i, name in where]
        return np.broadcast(*vals).size

    return count


def _blank():
    return {"calls": 0, "s": 0.0, "self_s": 0.0, "points": 0,
            "scalar_calls": 0, "potential_points": 0}


class Tracer:
    """Wraps the functions in WRAPPED and keeps their spans in memory."""

    def __init__(self):
        # span = [name, start, end, parent index or -1, points or -1]
        self.spans = []
        self._stack = []
        self._saved = []
        self.missing = []

    def install(self):
        for module_name, names in WRAPPED.items():
            module = importlib.import_module(f"fibertrap.{module_name}")
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn):
                    self.missing.append(f"{module_name}.{name}")
                    continue
                self._saved.append((module, name, fn))
                setattr(module, name,
                        self._wrap(f"{module_name}.{name}", fn))

    def uninstall(self):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved = []

    def _wrap(self, qualname, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = _point_counter(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            points = count(args, kwargs) if count is not None else -1
            rec = [qualname, 0.0, 0.0, stack[-1] if stack else -1, points]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def summary(self, command_s):
        """Per-function calls, points, inclusive and self time of one command.

        Inclusive time counts only the outermost span of a name, so a
        function nested in itself is not counted twice. "potential_points"
        of a name is the total_potential points evaluated under its
        outermost spans. The self times of all spans plus "uncovered_s"
        equal command_s.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        funcs = {}
        covered = 0.0
        for i, (name, start, end, parent, points) in enumerate(spans):
            dur = end - start
            if parent < 0:
                covered += dur
            f = funcs.setdefault(name, _blank())
            f["calls"] += 1
            f["self_s"] += dur - child_s[i]
            if points >= 0:
                f["points"] += points
                f["scalar_calls"] += points == 1
            ancestors = set()
            j = parent
            while j >= 0:
                ancestors.add(spans[j][0])
                j = spans[j][3]
            if name not in ancestors:
                f["s"] += dur
            if name == _POTENTIAL:
                for outer in ancestors:
                    funcs.setdefault(outer, _blank())["potential_points"] += points
        return {"command_s": command_s, "uncovered_s": command_s - covered,
                "spans": len(spans), "missing": self.missing,
                "functions": funcs}

    def dump(self, path, command_id, argv):
        """Write the spans of one command as JSON, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[name, start - t0, end - t0, parent]
                for name, start, end, parent, _ in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"command": command_id, "argv": argv,
                       "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, fh)
