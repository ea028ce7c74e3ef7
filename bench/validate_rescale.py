"""Check that the speed rescale passes a known extra cost through in full.

Usage (from the root of a checkout):

    python3 bench/validate_rescale.py --workload fit_batch --seed 1 --pairs 6 --burn 5000

Runs repetitions of one workload in pairs, one plain and one with ``--burn``
extra ``speed.probe_loop`` calls at the start of every measured program call,
the order alternating between pairs. At reference speed one probe loop takes
``REF_PROBE_S`` by definition, so if the rescale is right the rescaled wall
time rises by ``burn * REF_PROBE_S`` per program process, however fast the
host is at the moment; raw wall time rises by that times the host's current
slowdown. Prints one line per pair and a summary; exits non-zero if a check
of the program's outputs failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

import run
from speed import REF_PROBE_S


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=6)
    p.add_argument("--burn", type=int, default=5000, help="probe loops per program call")
    args = p.parse_args(argv)
    sys.path.insert(0, run.SRC)
    import gen

    work = os.path.join(run.WORK_ROOT, f"validate-{args.workload}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        rep_fn, specs_fn = run.WORKLOADS[args.workload]
        r = run.Run(args.workload, args.seed, 0.0, work)
        info = gen.GENERATORS[args.workload](work, args.seed)
        expected = args.burn * REF_PROBE_S * len(specs_fn(info, per_stage=False))
        base = {"raw": [], "rescaled": []}
        added = {"raw": [], "rescaled": []}
        for i in range(args.pairs):
            reps = {}
            for burn in ((0, args.burn) if i % 2 == 0 else (args.burn, 0)):
                r.burn = burn
                reps[burn] = rep_fn(r, info)
            plain, burnt = reps[0], reps[args.burn]
            base["raw"].append(plain.raw_wall)
            base["rescaled"].append(plain.wall)
            added["raw"].append(burnt.raw_wall - plain.raw_wall)
            added["rescaled"].append(burnt.wall - plain.wall)
            print("pair " + json.dumps({
                "plain_raw_s": plain.raw_wall, "burnt_raw_s": burnt.raw_wall,
                "plain_rescaled_s": plain.wall, "burnt_rescaled_s": burnt.wall}), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    summary = {"workload": args.workload, "pairs": args.pairs, "expected_added_s": expected}
    for kind in ("raw", "rescaled"):
        b, a = statistics.median(base[kind]), statistics.median(added[kind])
        summary[kind] = {"median_plain_s": b, "median_added_s": a,
                         "added_over_expected": a / expected,
                         "added_share": a / b, "expected_share": expected / b}
    print(json.dumps(summary))
    for failure in r.failures:
        print("FAILED " + failure)
    return 1 if r.failures else 0


if __name__ == "__main__":
    sys.exit(main())
