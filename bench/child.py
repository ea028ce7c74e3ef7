"""One measured program process, started fresh by run.py.

Usage: python3 child.py SPEC.json

The spec names the program's source tree and what to run. Set-up (a fresh
interpreter, ``import cityregions.cli`` and loading the config or the sample
list) ends at ``t_ready``; the measured calls run from ``t_begin`` to
``t_end``. Times come from the system-wide monotonic clock, so the parent
can subtract its own spawn time. The result, with any spans, is written as
JSON to the spec's ``result`` path when the process ends.

With ``setup_only`` set, the process exits right after set-up (run.py's
set-up probes). With ``burn`` set, it runs that many ``speed.probe_loop``
calls at the start of the measured window (``validate_rescale.py``).

Modes:
  cli    cityregions.cli.main(argv) once
  stage  pipeline.run(cfg, stage) once
  fits   cli.main(["fit", ...]) for every row of the sample list, each timed
"""

import json
import os
import sys
import time


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    os.sched_setaffinity(0, {spec["cpu"]})  # the CPU run.py's speed probe watches
    sys.path.insert(0, spec["src"])
    from cityregions import cli, pipeline

    expected = os.path.join(spec["src"], "cityregions")
    if os.path.dirname(os.path.abspath(cli.__file__)) != expected:
        raise SystemExit(f"imported cityregions from {cli.__file__}, not {expected}")
    mode = spec["mode"]
    if mode == "fits":
        with open(spec["list"], encoding="utf-8") as fh:
            rows = [line.strip().split(";") for line in fh if line.strip()]
    else:
        pipeline.load_config(spec["config"])
    result: dict = {"t_ready": time.monotonic(), "rc": 0, "latencies": [], "rcs": []}
    if spec.get("setup_only"):
        result["t_begin"] = result["t_end"] = result["t_ready"]
        return write(spec, result)

    tracer = None
    if spec.get("trace"):
        import tracer as tracer_mod  # next to this script, so on sys.path

        tracer = tracer_mod.Tracer()
        tracer_mod.install_all(tracer)

    result["t_begin"] = time.monotonic()
    if spec.get("burn"):
        from speed import probe_loop  # next to this script, so on sys.path

        for _ in range(spec["burn"]):
            probe_loop()
    if mode == "cli":
        result["rc"] = cli.main(spec["argv"])
    elif mode == "stage":  # what the CLI does for one stage, minus argument parsing
        pipeline.run(pipeline.load_config(spec["config"]), spec["stage"])
    elif mode == "fits":
        os.makedirs(spec["out"], exist_ok=True)
        for i, (path, _family, x_min) in enumerate(rows):
            t = time.monotonic()
            rc = cli.main(["fit", path, "--x-min", x_min,
                           "--out-prefix", os.path.join(spec["out"], f"{i:03d}")])
            result["latencies"].append(time.monotonic() - t)
            result["rcs"].append(rc)
    result["t_end"] = time.monotonic()

    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    return write(spec, result)


def write(spec: dict, result: dict) -> int:
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
