"""Self-test: per-layer counts repeat exactly across two traced runs.

    python3 bench/selftest.py [--seconds S] [workload ...]

Runs bench/run.py --trace 1 twice per workload, with two different seeds,
and fails (exit 1) if any count metric differs between the runs or any
run reports a failed check.  Counts are the metrics in units of count,
bytes, calls per push or step, and the rotation-matrix useful ratio; they
must not depend on the seed or on timing.
"""

import argparse
import json
import os
import subprocess
import sys

from run import BENCH, ROOT, WORKLOADS

COUNT_UNITS = {"count", "bytes", "calls/push", "calls/step", "ratio"}


def traced_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--seconds", type=int, default=5)
    p.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = p.parse_args(argv)
    failures = []
    for workload in args.workloads:
        a, b = (traced_run(workload, seed, args.seconds) for seed in (11, 12))
        for run in (a, b):
            if not run["correct"]:
                failures.append(f"{workload}: {run['failed']} failed checks")
        counts = [k for k, m in a["metrics"].items() if m["unit"] in COUNT_UNITS]
        for key in counts:
            va, vb = a["metrics"][key]["value"], b["metrics"][key]["value"]
            if va != vb:
                failures.append(f"{workload}: {key} {va!r} != {vb!r}")
        print(f"{workload}: {len(counts)} counts compared")
    for line in failures:
        print("FAIL", line)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
