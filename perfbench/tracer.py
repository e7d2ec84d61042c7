"""Layer tracer that wraps qsmc's entry points from outside the package.

Wrapping replaces module and class attributes at run time; nothing under
src/ changes.  A function imported by name into several modules (say
`qsmc.simulate.run`, also bound as `qsmc.cli.run` and `qsmc.experiments.run`)
is replaced everywhere it is bound, so every caller goes through the
wrapper.  `uninstall` puts every original back.

Self time of a layer is the duration of its spans minus the part covered by
the spans of wrapped layers they call.  Layers entered once per closed-loop
step are aggregated as a call count plus a total time; the others are also
kept as individual spans (op id, name, start, end, parent index), held in
memory and written out once by `write_spans`.

The span stack is shared by all threads.  That is exact while one thread at
a time runs qsmc code, which holds with QSMC_THREADS=1: the sweep's single
pool worker runs the rungs while the calling thread waits in `pool.map`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import weakref
from collections import defaultdict

# (layer, module, attribute, class or None, kept as spans)
LAYERS = (
    ("cli.main", "qsmc.cli", "main", None, True),
    ("scenario.parse", "qsmc.scenario", "parse_scenario_file", None, True),
    ("discretization.discretize", "qsmc.discretization", "discretize", None, True),
    ("discretization.dk", "qsmc.discretization", "at", "DisturbanceSampler", False),
    ("surface.build_surface", "qsmc.surface", "build_surface", None, True),
    ("controllers.step", "qsmc.controllers", "step", "ControllerState", False),
    ("plant.noise", "qsmc.plant", "sample", "NoiseStream", False),
    ("plant.disturbance_value", "qsmc.plant", "value", "DisturbanceSignal", False),
    ("simulate.run", "qsmc.simulate", "run", None, True),
    ("simulate.export_csv", "qsmc.simulate", "export_csv", None, True),
    ("svgplot.line_plot", "qsmc.svgplot", "line_plot", None, True),
    ("analysis.build_aug", "qsmc.analysis", "build_aug", None, True),
    ("experiments.sweep", "qsmc.experiments", "run_sweep", None, True),
    ("experiments.benchmark", "qsmc.experiments", "aircraft_benchmark", None, True),
    ("report.render_kv", "qsmc.report", "render_kv", None, True),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list = []          # [child seconds, span index] per open span
        self._patches: list = []        # (owner, attribute, original)
        self._dk_seen = weakref.WeakKeyDictionary()   # sampler -> k already asked
        self._samplers_seen = weakref.WeakSet()
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    # -- installing -------------------------------------------------------

    def install(self):
        for layer, modname, attr, clsname, keep in LAYERS:
            mod = sys.modules[modname]
            if clsname is None:
                self._replace_function(mod, attr, layer, keep)
            else:
                cls = getattr(mod, clsname)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original,
                            self._timed(layer, original, keep, _AFTER.get(layer)))
        mod = sys.modules["qsmc.experiments"]
        original = mod.shared_sampler
        self._patch(mod, "shared_sampler", original, self._count_reuse(original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _replace_function(self, home, attr, layer, keep):
        original = getattr(home, attr)
        wrapper = self._timed(layer, original, keep, _AFTER.get(layer))
        for name, mod in list(sys.modules.items()):
            if name == "qsmc" or name.startswith("qsmc."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _timed(self, layer, fn, keep, after):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            index = None
            if keep:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                index = len(tracer.spans)
                tracer.spans.append([tracer.op, layer, 0.0, 0.0, parent])
            frame = [0.0, index]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][0] += duration
                tracer.self_s[layer] += duration - frame[0]
                tracer.calls[layer] += 1
                if keep:
                    tracer.spans[index][2:4] = [t0, t1]
            if after is not None:
                after(tracer, args, kwargs)
            return result

        return traced

    def _count_reuse(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            sampler = fn(*args, **kwargs)
            tracer.counts["shared_sampler_calls"] += 1
            if sampler in tracer._samplers_seen:
                tracer.counts["shared_sampler_reused"] += 1
            else:
                tracer._samplers_seen.add(sampler)
            return sampler

        return counted

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer figures accumulated since the last `reset`."""
        s, c, n = self.self_s, self.calls, self.counts
        dk_calls = c["discretization.dk"]
        reuse_calls = n["shared_sampler_calls"]
        return {
            "cli.main_self_s": s["cli.main"],
            "scenario.parse_s": s["scenario.parse"],
            "scenario.parse_calls": c["scenario.parse"],
            "discretization.discretize_s": s["discretization.discretize"],
            "discretization.discretize_calls": c["discretization.discretize"],
            "discretization.dk_s": s["discretization.dk"],
            "discretization.dk_calls": dk_calls,
            "discretization.dk_computed": n["dk_computed"],
            "discretization.dk_us_per_sample":
                1e6 * s["discretization.dk"] / dk_calls if dk_calls else 0.0,
            "surface.build_surface_s": s["surface.build_surface"],
            "surface.build_surface_calls": c["surface.build_surface"],
            "controllers.step_s": s["controllers.step"],
            "controllers.step_calls": c["controllers.step"],
            "plant.noise_s": s["plant.noise"],
            "plant.noise_calls": c["plant.noise"],
            "plant.disturbance_value_s": s["plant.disturbance_value"],
            "plant.disturbance_value_calls": c["plant.disturbance_value"],
            "simulate.run_self_s": s["simulate.run"],
            "simulate.run_calls": c["simulate.run"],
            "simulate.export_csv_s": s["simulate.export_csv"],
            "simulate.csv_bytes": n["csv_bytes"],
            "svgplot.line_plot_s": s["svgplot.line_plot"],
            "svgplot.svg_bytes": n["svg_bytes"],
            "analysis.build_aug_s": s["analysis.build_aug"],
            "analysis.build_aug_calls": c["analysis.build_aug"],
            "experiments.sampler_reuse_ratio":
                n["shared_sampler_reused"] / reuse_calls if reuse_calls else 0.0,
            "experiments.sweep_self_s": s["experiments.sweep"],
            "experiments.benchmark_self_s": s["experiments.benchmark"],
            "report.render_kv_s": s["report.render_kv"],
            "trace.self_sum_s": sum(s.values()),
        }

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["op", "layer", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def _note_dk(tracer, args, kwargs):
    sampler, k = args[0], (args[1] if len(args) > 1 else kwargs["k"])
    seen = tracer._dk_seen.setdefault(sampler, set())
    if k not in seen:
        seen.add(k)
        tracer.counts["dk_computed"] += 1


def _note_csv(tracer, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts["csv_bytes"] += os.path.getsize(path)


def _note_svg(tracer, args, kwargs):
    path = args[2] if len(args) > 2 else kwargs["path"]
    tracer.counts["svg_bytes"] += os.path.getsize(path)


_AFTER = {
    "discretization.dk": _note_dk,
    "simulate.export_csv": _note_csv,
    "svgplot.line_plot": _note_svg,
}
