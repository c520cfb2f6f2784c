"""One workload in one fresh process; started by run.py, never directly.

--mode setup times imports plus input generation and exits.  --mode run
does the same set-up, then repeats passes for --seconds: each pass in its
own run directory, removed after the pass.  With --trace 1 untraced and
traced passes alternate, so the tracing overhead is measured in the same
process.  The last stdout line is one JSON object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "run"))
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tmp", required=True)
    p.add_argument("--spans", default=None)
    return p.parse_args(argv)


def _one_pass(wl, tmp):
    run_dir = tempfile.mkdtemp(prefix="pass-", dir=tmp)
    try:
        return wl.run_pass(run_dir)
    except Exception:       # a failing pass is a failed check, not a crash
        return dict(wall_s=None, checks=[("pass_completed", False,
                                          traceback.format_exc(limit=3))])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None):
    args = _parse(argv)
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed)
    setup_s = time.perf_counter() - T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import scipy

    tracer = None
    layer_names = []
    if args.trace:
        from tracing import Tracer, per_layer_names
        tracer = Tracer()
        layer_names = per_layer_names()

    plain, traced, layer = [], [], []
    t_start = time.perf_counter()
    while True:
        # alternate untraced and traced passes when tracing; always at
        # least one of each kind, then stop before the next pass would
        # run past --seconds
        use_trace = tracer is not None and len(traced) < len(plain)
        if use_trace:
            tracer.run_id = len(traced)
            tracer.install()
            try:
                p = _one_pass(wl, args.tmp)
            finally:
                tracer.uninstall()
            traced.append(p)
            if p["wall_s"] is not None:
                layer.append(tracer.pass_metrics(tracer.run_id, p["wall_s"]))
        else:
            p = _one_pass(wl, args.tmp)
            plain.append(p)
        if p["wall_s"] is None:
            break
        elapsed = time.perf_counter() - t_start
        need_traced = tracer is not None and len(traced) < len(plain)
        if not need_traced and elapsed + p["wall_s"] > args.seconds:
            break

    passes = plain + traced
    checks = [c for p in passes for c in p["checks"]]
    ok_plain = [p for p in plain if p["wall_s"] is not None]
    result = {
        "setup_s": setup_s,
        "pass_wall_s": [p["wall_s"] for p in ok_plain],
        "traced_pass_wall_s": [p["wall_s"] for p in traced
                               if p["wall_s"] is not None],
        "rates": wl.rates(ok_plain) if ok_plain else {},
        "checks": checks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layer": layer,
        "layer_names": layer_names,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "workload_inputs": wl.inputs(),
        "why": wl.why,
        "seed_applies": wl.seeded,
        "predictions": workloads.PREDICTIONS,
    }
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
