"""Session-wide fixtures.

The three standard configurations are analyzed by many tests (a field build,
a minimum search or a full characterization takes a few tenths of a second
each, a report with its tau sensitivity rows about a second), so a lazy
cache hands each test the product it needs while paying every build cost at
most once per session.  Build times are recorded so acceptance tests can
assert runtime budgets around whatever work they actually triggered.
"""

import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from fibertrap import config, trapanalysis


class TrapSuite:
    """Lazily built, cached per-configuration analysis products."""

    names = ("he11-te01", "he11-he21", "te01-he21")

    def __init__(self):
        self._cache = {}
        self.elapsed = {}

    def _get(self, key, build):
        if key not in self._cache:
            t0 = time.perf_counter()
            self._cache[key] = build()
            self.elapsed[key] = time.perf_counter() - t0
        return self._cache[key]

    def cfg(self, name):
        return self._get(("cfg", name), lambda: config.preset(name))

    def field(self, name):
        return self._get(("field", name),
                         lambda: config.make_field(self.cfg(name)))

    def pair(self, name):
        return self.field(name).pair

    def minimum(self, name):
        return self._get(("minimum", name), lambda: trapanalysis.find_minimum(
            self.field(name), self.cfg(name).seed))

    def report(self, name):
        return self._get(("report", name), lambda: trapanalysis.characterize_trap(
            self.field(name), self.cfg(name).seed,
            config.thermal_state(self.cfg(name))))

    def sens(self, name):
        return self._get(("sens", name), lambda: trapanalysis.tau_sensitivity(
            self.field(name), self.cfg(name).seed))

    def sens_all(self):
        # the three sweeps are independent; the heavy array evaluations
        # release the GIL, so building them concurrently is safe and fast
        with ThreadPoolExecutor(max_workers=len(self.names)) as pool:
            futures = {name: pool.submit(self.sens, name)
                       for name in self.names}
            return {name: fut.result() for name, fut in futures.items()}


@pytest.fixture(scope="session")
def suite():
    return TrapSuite()
