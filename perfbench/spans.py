"""Outside-in layer tracing for the fedcost benchmark.

The tracer replaces chosen public functions of the ``fedcost`` modules with
timing wrappers, at every module-level binding that refers to them (a
function imported by name into another module is patched there too), and
puts the originals back on ``uninstall``.  Nothing inside ``src/`` changes.

Spans nest on one stack.  A span's self time is its duration minus the
durations of the spans opened while it was the innermost one, so a
generator consumed inside ``write_csv`` charges its own Python work to
``write_csv`` and its ``cost_report`` calls to ``cost_report``.  Counters
that need a call's arguments or result are taken after its span closes, so
their cost lands in the caller's self time and in the tracing overhead.
A wrapper's own work (stack push and pop, two clock reads) also falls
outside its span, so a parent's self time carries the wrapper cost of each
child call: ``local_sgd`` pays for one ``ce_gradient`` wrapper per step.
"""

import dataclasses
import os
import sys
import time

import numpy as np

# (module, function) pairs wrapped in a traced run: the cross-module entry
# points on the three workloads' paths, plus ce_gradient, cost_report and
# run_pilots, which the per-layer metrics name.  cli.main is the root span.
# costmodel.rounds_needed and sampling_penalty are left out on purpose: the
# cost surface calls them 400k times, and wrapping them would make tracing
# cost more than the work it measures; their time stays with the caller.
TARGETS = (
    ("cli", "main"),
    ("datagen", "gen_synthetic"),
    ("system", "sample_profile"),
    ("system", "averaged_costs"),
    ("system", "draw_round_costs"),
    ("scheduler", "round_time"),
    ("learner", "run_fedavg"),
    ("learner", "local_sgd"),
    ("learner", "ce_gradient"),
    ("learner", "aggregate"),
    ("learner", "global_loss"),
    ("learner", "export_traces"),
    ("costmodel", "p3_objective"),
    ("costmodel", "cost_report"),
    ("costmodel", "dump_cost_surface"),
    ("optimizer", "estimate_rho"),
    ("optimizer", "run_pilots"),
    ("optimizer", "acs_optimize"),
    ("optimizer", "grid_search"),
    ("optimizer", "verify_properties"),
    ("optimizer", "write_estimation_csv"),
    ("optimizer", "write_solution_csv"),
    ("optimizer", "write_properties_csv"),
    ("csvio", "write_csv"),
)
PACKAGE = "fedcost"
LAYERS = ("learner", "system", "scheduler", "costmodel", "optimizer", "csvio", "datagen")


class Span:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Span and counter bookkeeping for one traced process."""

    def __init__(self):
        self.spans = {f"{m}.{f}": Span() for m, f in TARGETS}
        self.counts = {
            "learner.local_sgd.steps": 0,
            "learner.global_loss.shards": 0,
            "learner.run_fedavg.rounds": 0,
            "optimizer.pilot_steps": 0,
            "optimizer.acs_optimize.sweeps": 0,
            "csvio.write_csv.bytes": 0,
            "datagen.samples": 0,
        }
        self.local_sgd_us = []
        self.fedavg_keys = []
        self._datasets = []
        self._stack = []
        self._patches = []
        self._wrappers = {}

    # -- counters taken from arguments and results -------------------------

    def _observe(self, name, args, kwargs, out, dt):
        c = self.counts
        if name == "learner.local_sgd":
            c["learner.local_sgd.steps"] += _arg(args, kwargs, 2, "steps")
            self.local_sgd_us.append(dt * 1e6)
        elif name == "learner.global_loss":
            c["learner.global_loss.shards"] += _arg(args, kwargs, 1, "dataset").n_clients
        elif name == "learner.run_fedavg":
            c["learner.run_fedavg.rounds"] += len(out[1])
            init = _arg(args, kwargs, 4, "init_model", None)
            dataset = _arg(args, kwargs, 0, "dataset")
            self._datasets.append(dataset)  # keeps id(dataset) from being reused
            self.fedavg_keys.append((
                id(dataset),
                dataclasses.astuple(_arg(args, kwargs, 2, "config")),
                None if init is None else (init.weights.tobytes(), init.bias.tobytes()),
            ))
        elif name == "optimizer.run_pilots":
            c["optimizer.pilot_steps"] += sum(r.k * r.e * r.rounds_to_b for r in out)
        elif name == "optimizer.acs_optimize":
            c["optimizer.acs_optimize.sweeps"] += len(out.trajectory) - 1
        elif name == "csvio.write_csv":
            c["csvio.write_csv.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
        elif name == "datagen.gen_synthetic":
            c["datagen.samples"] += out.n

    def _wrap(self, name, fn):
        span = self.spans[name]
        stack = self._stack
        clock = time.perf_counter
        observed = name in _OBSERVED

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                span.calls += 1
                span.total_s += dt
                span.self_s += dt - children[0]
            if observed:
                self._observe(name, args, kwargs, out, dt)
            return out

        self._wrappers[id(traced)] = traced
        return traced

    # -- patching ------------------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def install(self):
        """Wrap every target at every module-level binding in the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}
        for mod, fn_name in TARGETS:
            fn = getattr(sys.modules[f"{PACKAGE}.{mod}"], fn_name)
            originals[id(fn)] = (fn, self._wrap(f"{mod}.{fn_name}", fn))
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self):
        """Put the original functions back and confirm no wrapper is left."""
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()
        for module in self._modules():
            for attr, value in vars(module).items():
                if self._wrappers.get(id(value)) is value:
                    raise RuntimeError(f"wrapper left at {module.__name__}.{attr}")

    # -- report ----------------------------------------------------------------

    def report(self):
        """Per-layer metrics by name; run.py checks the names against
        BENCHMARK.json."""
        s = self.spans
        root = s["cli.main"].total_s
        out = {}
        for name in ("learner.local_sgd", "learner.ce_gradient", "learner.global_loss",
                     "learner.aggregate", "learner.run_fedavg", "system.draw_round_costs",
                     "scheduler.round_time", "costmodel.cost_report",
                     "costmodel.p3_objective", "csvio.write_csv"):
            out[f"{name}.calls"] = s[name].calls
            out[f"{name}.self_s"] = s[name].self_s
        for name in ("optimizer.run_pilots", "optimizer.acs_optimize",
                     "optimizer.grid_search", "optimizer.verify_properties",
                     "datagen.gen_synthetic", "system.sample_profile"):
            out[f"{name}.s"] = s[name].total_s
        out.update(self.counts)

        sgd = s["learner.local_sgd"]
        steps = self.counts["learner.local_sgd.steps"]
        out["learner.local_sgd.s"] = sgd.total_s
        out["learner.local_sgd.share"] = sgd.total_s / root if root else 0.0
        out["learner.local_sgd.us_per_step"] = sgd.total_s * 1e6 / steps if steps else 0.0
        if self.local_sgd_us:
            p50, p99 = np.percentile(self.local_sgd_us, [50, 99])
        else:
            p50 = p99 = 0.0
        out["learner.local_sgd.p50_us"] = float(p50)
        out["learner.local_sgd.p99_us"] = float(p99)
        keys = self.fedavg_keys
        out["learner.run_fedavg.unique_share"] = len(set(keys)) / len(keys) if keys else 0.0

        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v.self_s for k, v in s.items()
                                         if k.split(".")[0] == layer)
        # Every span hands its whole duration to its parent, so the layer
        # self times plus this residual equal cli.main.s exactly; the
        # residual is cli.main's time outside every wrapped call.
        out["cli.self_s"] = s["cli.main"].self_s
        out["cli.main.s"] = root
        return out


_OBSERVED = frozenset({
    "learner.local_sgd", "learner.global_loss", "learner.run_fedavg",
    "optimizer.run_pilots", "optimizer.acs_optimize", "csvio.write_csv",
    "datagen.gen_synthetic",
})


def _arg(args, kwargs, pos, key, *default):
    if len(args) > pos:
        return args[pos]
    if key in kwargs:
        return kwargs[key]
    if default:
        return default[0]
    raise TypeError(f"missing argument {key}")
