"""spinkin benchmark: one workload per call, end-to-end or traced.

    python3 bench/run.py --workload <check_all|eulerian_spin|wigner_chain>
                         --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/spinkin).
The workload runs in fresh worker processes with BLAS pinned to one thread
before numpy loads: one worker measures passes for --seconds, and
SETUP_REPS more, half before it and half after, only time set-up.  Human-readable lines come first;
the last stdout line is the JSON result.  With --trace 0 it carries the
end-to-end metrics, with --trace 1 the per-layer ones.  The full result,
with provenance, also goes to .bench_results/ in the checkout, and the
traced run's spans to a gzip CSV beside it.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("check_all", "eulerian_spin", "wigner_chain")
SETUP_REPS = 4
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
WORKER_TIMEOUT_S = 160
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]


def _worker(args, mode, tmp, timeout, spans=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPINKIN_")}
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", tmp]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}")
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    return json.loads(lines[-1])


def _llc():
    """(level, size) of the largest cache level cpu0 reports."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, "unknown")
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if level > best[0]:
                best = (level, size)
    except OSError:
        pass
    return f"L{best[0]} {best[1]}" if best[0] else "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout if it is a git work tree, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest():
    """sha256 over src/spinkin/*.py, identifying the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "spinkin")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _provenance(args, versions, seed_applies):
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "last_level_cache": _llc(),
            **versions,
            "blas_pin": BLAS_PIN,
            "git_commit": _git_commit(),
            "source_sha256": _source_digest(),
            "seed": args.seed,
            "seed_applies": seed_applies}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spinkin", "__init__.py")):
        print(f"error: no spinkin source tree at {ROOT}/src/spinkin",
              file=sys.stderr)
        return 2

    t_start = time.monotonic()
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    results = os.path.join(ROOT, ".bench_results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = os.path.join(results, stem + "-spans.csv.gz") if args.trace else None
    try:
        # set-up samples before and after the measured worker, so their
        # median spans the whole run rather than one moment of it
        setups = [_worker(args, "setup", tmp, 30)["setup_s"]
                  for _ in range(SETUP_REPS // 2)]
        budget = WORKER_TIMEOUT_S - (time.monotonic() - t_start)
        run = _worker(args, "run", tmp, budget, spans)
        setups.append(run["setup_s"])
        setups += [_worker(args, "setup", tmp, 30)["setup_s"]
                   for _ in range(SETUP_REPS - SETUP_REPS // 2)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    checks = run["checks"]
    failed = sum(1 for _, ok, _ in checks if not ok)
    if not run["pass_wall_s"] or (args.trace and not run["layer"]):
        for name, ok, detail in checks:
            if not ok:
                print(f"FAIL {name}: {detail}", file=sys.stderr)
        print("error: no pass completed", file=sys.stderr)
        return 1
    e2e = {"setup_s": (statistics.median(setups), "s", len(setups)),
           "wall_s": (statistics.median(run["pass_wall_s"]), "s",
                      len(run["pass_wall_s"])),
           "peak_rss_mb": (run["peak_rss_mb"], "MB", 1)}
    for name, (values, unit) in run["rates"].items():
        e2e[name] = (statistics.median(values), unit, len(values))
    e2e["fail_frac"] = (failed / len(checks), "1", len(checks))

    layer = {}
    if args.trace:
        overhead = (statistics.median(run["traced_pass_wall_s"])
                    - statistics.median(run["pass_wall_s"]))
        for name, unit in run["layer_names"]:
            if name == "trace_overhead_s":
                value = overhead
            else:
                # counts repeat exactly across passes and stay whole
                values = [m[name] for m in run["layer"]]
                value = (values[0] if len(set(values)) == 1
                         else sum(values) / len(values))
            layer[name] = (value, unit, len(run["layer"]))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, ok, detail in checks:
        if not ok:
            print(f"  FAIL {name}: {detail}")
    print(f"  checks: {len(checks) - failed} of {len(checks)} passed")
    shown = layer if args.trace else e2e
    for name, (value, unit, n) in shown.items():
        print(f"  {name:58s} {value:>16.6g} {unit:10s} n={n}")

    record = {"workload": args.workload,
              "provenance": _provenance(args, run["versions"],
                                        run["seed_applies"]),
              "why": run["why"],
              "inputs": run["workload_inputs"],
              "predictions": run["predictions"],
              "end_to_end": {k: {"value": v, "unit": u, "samples": n}
                             for k, (v, u, n) in e2e.items()},
              "per_layer": {k: {"value": v, "unit": u, "samples": n}
                            for k, (v, u, n) in layer.items()},
              "setup_samples_s": setups,
              "pass_wall_s": run["pass_wall_s"],
              "traced_pass_wall_s": run["traced_pass_wall_s"],
              "checks": checks}
    with open(os.path.join(results, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    wanted = run["layer_names"] if args.trace else END_TO_END
    source = layer if args.trace else e2e
    metrics = {name: {"value": source[name][0], "unit": unit}
               for name, unit in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
