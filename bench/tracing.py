"""Spans around spinkin's public functions, wrapped from outside.

`Tracer.install` replaces each target with a timing wrapper at every
spinkin module that binds it (e.g. both `spinkin.pic.push_particles` and
`spinkin.scenarios.push_particles`), and `uninstall` puts the originals
back, so untraced passes run unwrapped code.  A span records its name,
start, end, parent span and run (pass) id; spans stay in memory until the
run ends.  Self time is a span's duration minus its children's.
"""

import functools
import gzip
import importlib
import pkgutil
import sys
import time
from collections import defaultdict

import numpy as np

# (metric prefix, module, attribute path); a dotted path names a method.
FUNCTIONS = [
    ("pic.push_particles", "spinkin.pic", "push_particles"),
    ("pic.gather", "spinkin.pic", "gather"),
    ("pic.deposit_sources", "spinkin.pic", "deposit_sources"),
    ("pic.ParticleEnsemble.init", "spinkin.pic", "ParticleEnsemble.__post_init__"),
    ("fields.solve_poisson", "spinkin.fields", "solve_poisson"),
    ("diagnostics.DiagnosticsRecorder.add", "spinkin.diagnostics",
     "DiagnosticsRecorder.add"),
    ("diagnostics.fit_frequency", "spinkin.diagnostics", "fit_frequency"),
    ("snapshots.write_snapshot", "spinkin.snapshots", "write_snapshot"),
    ("snapshots.read_snapshot", "spinkin.snapshots", "read_snapshot"),
    ("fluid.step_fluid", "spinkin.fluid", "step_fluid"),
    ("fluid.fluid_rhs", "spinkin.fluid", "fluid_rhs"),
    ("fluid.bohm_force", "spinkin.fluid", "bohm_force"),
    ("grid.SpatialGrid1D.derivative", "spinkin.grid", "SpatialGrid1D.derivative"),
    ("eulerian.eulerian_step", "spinkin.eulerian", "eulerian_step"),
    ("eulerian.advect_axis", "spinkin.eulerian", "advect_axis"),
    ("eulerian.ExtendedDistribution.init", "spinkin.eulerian",
     "ExtendedDistribution.__post_init__"),
    ("sphere.SphereQuadrature.rotation_interp_matrix", "spinkin.sphere",
     "SphereQuadrature.rotation_interp_matrix"),
    ("sphere.SphereQuadrature.harmonic_matrix", "spinkin.sphere",
     "SphereQuadrature.harmonic_matrix"),
    ("sphere.SphereQuadrature.tangential_gradient", "spinkin.sphere",
     "SphereQuadrature.tangential_gradient"),
    ("rotation.rodrigues_rotate", "spinkin.rotation", "rodrigues_rotate"),
    ("transforms.wigner_transform", "spinkin.transforms", "wigner_transform"),
    ("transforms.spin_q_transform", "spinkin.transforms", "spin_q_transform"),
    ("gauge.gi_wigner_transform", "spinkin.gauge", "gi_wigner_transform"),
    ("gauge.kinetic_wigner_transform", "spinkin.gauge", "kinetic_wigner_transform"),
    ("pauli.step_pauli", "spinkin.pauli", "step_pauli"),
]
SUITES = ["precession", "plasma_osc", "plasma_osc_fluid", "stern_gerlach",
          "free_stream"]
PHASES = ["setup", "step", "diagnose", "snapshot"]


def _correlation_bytes(args, kwargs, result):
    # four spinor-pair correlation matrices of N x N complex128 per call
    n = args[0].grid.n
    return 4 * n * n * 16


# layer -> (counter, f(args, kwargs, result)); the counter sums f per pass
METERS = {
    "eulerian.advect_axis": ("cells", lambda a, k, r: np.size(a[0])),
    "snapshots.write_snapshot": ("bytes", lambda a, k, r: 8 * np.size(a[1])),
    "snapshots.read_snapshot": ("bytes", lambda a, k, r: r[0].nbytes),
    "gauge.gi_wigner_transform": ("correlation_bytes_computed",
                                  _correlation_bytes),
    "gauge.kinetic_wigner_transform": ("correlation_bytes_computed",
                                       _correlation_bytes),
}
ROTATION = "sphere.SphereQuadrature.rotation_interp_matrix"


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for prefix, _, _ in FUNCTIONS:
        out += [(prefix + ".calls", "count"), (prefix + ".self_s", "s")]
        if prefix in METERS:
            suffix = METERS[prefix][0]
            if suffix == "cells":
                out.append((prefix + ".ns_per_cell", "ns"))
            else:
                out.append((prefix + "." + suffix, "bytes"))
    out += [("pic.gather.calls_per_push", "calls/push"),
            ("grid.SpatialGrid1D.derivative.calls_per_fluid_step",
             "calls/step"),
            (ROTATION + ".calls_per_step", "calls/step"),
            (ROTATION + ".useful_ratio", "ratio")]
    out += [(f"scenarios.{s}.{p}_s", "s") for s in SUITES for p in PHASES]
    out += [("unattributed_self_s", "s"), ("trace_overhead_s", "s")]
    return out


def _resolve(module, path):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder; spans of one pass share a run id."""

    def __init__(self):
        self.name, self.parent, self.run = [], [], []
        self.start, self.end = [], []
        self.meter = defaultdict(float)       # (run, metric) -> summed value
        self.rotation_keys = defaultdict(set)  # run -> distinct (axis, angle)
        self.stack = []
        self.run_id = 0
        self._saved = []

    def _wrap(self, name, fn, meter=None):
        spans_name, spans_parent, spans_run = self.name, self.parent, self.run
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            spans_name.append(name)
            spans_parent.append(stack[-1] if stack else -1)
            spans_run.append(self.run_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if meter is not None:
                self.meter[(self.run_id, name + "." + meter[0])] += meter[1](
                    args, kwargs, result)
            if name == ROTATION:
                axis, angle = args[1], args[2]
                self.rotation_keys[self.run_id].add(
                    (*np.asarray(axis, dtype=float).tolist(), float(angle)))
            return result
        return wrapper

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every target; import all spinkin modules first so no later
        import can bind a wrapper that uninstall would miss."""
        import spinkin

        for info in pkgutil.iter_modules(spinkin.__path__):
            importlib.import_module("spinkin." + info.name)
        modules = [m for k, m in sys.modules.items()
                   if k == "spinkin" or k.startswith("spinkin.")]
        for prefix, module, path in FUNCTIONS:
            owner, attr = _resolve(module, path)
            orig = getattr(owner, attr)
            wrapper = self._wrap(prefix, orig, METERS.get(prefix))
            if isinstance(owner, type):
                self._replace(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, key, wrapper)
        from spinkin.scenarios import SCENARIOS

        for suite, scenario in SCENARIOS.items():
            for phase in PHASES:
                self._replace(scenario, phase, self._wrap(
                    f"scenarios.{suite}.{phase}", getattr(scenario, phase)))

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def pass_metrics(self, run_id, wall):
        """Per-layer metrics of one traced pass."""
        run = np.asarray(self.run)
        sel = np.flatnonzero(run == run_id)
        names = [self.name[i] for i in sel]
        start = np.asarray(self.start)[sel]
        dur = np.asarray(self.end)[sel] - start
        parent_global = np.asarray(self.parent)[sel]
        local = {g: i for i, g in enumerate(sel.tolist())}
        parent = np.array([local.get(p, -1) for p in parent_global.tolist()],
                          dtype=int)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(sel))
        self_s = dur - child

        calls, self_tot, incl = defaultdict(int), defaultdict(float), defaultdict(float)
        in_fluid_step = np.zeros(len(sel), dtype=bool)
        for i, name in enumerate(names):
            calls[name] += 1
            self_tot[name] += self_s[i]
            incl[name] += dur[i]
            p = parent[i]
            in_fluid_step[i] = p >= 0 and (names[p] == "fluid.step_fluid"
                                           or in_fluid_step[p])
        deriv_in_step = sum(1 for i, name in enumerate(names)
                            if in_fluid_step[i]
                            and name == "grid.SpatialGrid1D.derivative")

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        for prefix, _, _ in FUNCTIONS:
            m[prefix + ".calls"] = calls[prefix]
            m[prefix + ".self_s"] = self_tot[prefix]
            if prefix in METERS:
                suffix = METERS[prefix][0]
                value = self.meter.get((run_id, prefix + "." + suffix), 0)
                if suffix == "cells":
                    m[prefix + ".ns_per_cell"] = ratio(
                        1e9 * self_tot[prefix], value)
                else:
                    m[prefix + "." + suffix] = int(value)
        m["pic.gather.calls_per_push"] = ratio(calls["pic.gather"],
                                               calls["pic.push_particles"])
        m["grid.SpatialGrid1D.derivative.calls_per_fluid_step"] = ratio(
            deriv_in_step, calls["fluid.step_fluid"])
        m[ROTATION + ".calls_per_step"] = ratio(
            calls[ROTATION], calls["eulerian.eulerian_step"])
        m[ROTATION + ".useful_ratio"] = ratio(
            len(self.rotation_keys.get(run_id, ())), calls[ROTATION])
        for suite in SUITES:
            for phase in PHASES:
                m[f"scenarios.{suite}.{phase}_s"] = incl[
                    f"scenarios.{suite}.{phase}"]
        m["unattributed_self_s"] = wall - float(np.sum(dur[~has_parent]))
        return m

    def write(self, path):
        """All spans as gzip CSV: run, span, parent, name, start_s, end_s."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("run,span,parent,name,start_s,end_s\n")
            for i, name in enumerate(self.name):
                fh.write(f"{self.run[i]},{i},{self.parent[i]},{name},"
                         f"{self.start[i]!r},{self.end[i]!r}\n")
