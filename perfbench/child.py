"""One step of the benchmark in a fresh interpreter: prepare or run.

Usage: python3 child.py SPEC_JSON RESULT_PATH

SPEC_JSON is a JSON object with the key "mode":

- "prepare": import the package (this also compiles its bytecode), write
  the grid config files listed in "grid_configs" as [preset, quantity,
  path] triples, and report library versions and the fiber of each preset.
- "run": time the set-up, then run `fibertrap.cli.main(argv)` once. With
  "spans" set to a path the public functions of each module are wrapped
  (see tracer.py), the spans are written to that path and the per-function
  summary goes into the result.

Set-up runs from a ready interpreter until `fibertrap.cli` is imported and
the command's configuration is resolved; the command time runs from the
`cli.main` call until it returns, with the output file written. The result
is a JSON object written to RESULT_PATH.
"""

import json
import os
import sys
import time


def _resolve(fibertrap, argv):
    """The command's RunConfig, as the CLI resolves it before running."""
    if "--config" in argv:
        return fibertrap.load_config(argv[argv.index("--config") + 1])
    return fibertrap.preset(argv[argv.index("--preset") + 1])


def _import_package(src):
    sys.path.insert(0, src)
    import fibertrap
    import fibertrap.cli
    here = os.path.dirname(os.path.abspath(fibertrap.__file__))
    if os.path.dirname(here) != os.path.abspath(src):
        raise ImportError(f"fibertrap was imported from {here}, not {src}")
    return fibertrap


def _prepare(spec):
    fibertrap = _import_package(spec["src"])
    from dataclasses import replace
    import numpy
    import scipy
    for name, quantity, path in spec["grid_configs"]:
        cfg = replace(fibertrap.preset(name), quantity=quantity)
        fibertrap.save_config(cfg, path)
    fibers = {}
    for name in fibertrap.PRESET_NAMES:
        fiber = fibertrap.preset(name).fiber
        fibers[name] = {"radius_nm": fiber.radius_nm,
                        "n_core": fiber.n_core, "n_clad": fiber.n_clad}
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "fibers": fibers}


def _run(spec):
    argv = spec["argv"]
    t0 = time.perf_counter()
    fibertrap = _import_package(spec["src"])
    _resolve(fibertrap, argv)
    setup_s = time.perf_counter() - t0
    tracer = None
    if spec.get("spans"):
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    t1 = time.perf_counter()
    rc = fibertrap.cli.main(argv)
    command_s = time.perf_counter() - t1
    result = {"rc": rc, "setup_s": setup_s, "command_s": command_s}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary(command_s)
        tracer.dump(spec["spans"], spec["command_id"], argv)
    return result


def main():
    spec = json.loads(sys.argv[1])
    if spec["mode"] == "prepare":
        result = _prepare(spec)
    else:
        result = _run(spec)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
