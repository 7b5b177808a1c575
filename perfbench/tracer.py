"""Span tracer wrapped around heatlab's public functions from outside the package.

``Tracer.install`` replaces every public function of the layer modules, and
the three methods in ``METHODS``, by a wrapper that records a span: name,
start, end and parent span.  The replacement happens on every heatlab module
attribute (and module-level dict value) that holds the original, so calls
through names other modules imported, such as ``heatlab.functionals.resample_periodic``
or ``heatlab.cli.evolve``, are traced too.  Nothing under ``src/`` changes.

``install`` and ``remove`` swap the wrappers in and out, so traced and
untraced passes can alternate in one process.  Per-layer metrics are per
traced pass: ``<span>.calls``, ``<span>.total_s`` (inclusive) and
``<span>.self_s`` (the span minus its child spans), plus the counters in
``COUNTERS``, which are computed from argument shapes, return values and
output directories, not from hardware counters.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = ("timecurve", "weights", "grid", "heat", "functionals", "kernels", "cli")
METHODS = (("grid", "Field", "to_csv"), ("grid", "Field", "tail_fraction"), ("heat", "Trajectory", "save"))
COUNTERS = (
    "heat.evolve.substeps",
    "heat.Trajectory.save.bytes",
    "kernels.resample_periodic.mode_evals",
    "kernels.resample_periodic.table_bytes",
    "weights.refine_steps",
    "cli.artifacts.files",
    "cli.artifacts.bytes",
)


def evolve_substeps(u0, potential, t0, t1, steps, n_frames=None, frame_times=None, **_):
    """Propagator steps ``heat.evolve`` takes for these arguments (its own rule)."""
    if frame_times is None:
        if n_frames is None:
            n_frames = min(steps + 1, 257)
        frame_times = t0 + (t1 - t0) * np.arange(n_frames) / (n_frames - 1)
    spans = np.diff(np.asarray(frame_times, dtype=float))
    dt_target = (t1 - t0) / steps
    return int(np.sum(np.maximum(1, np.ceil(spans / dt_target - 1e-12))))


def tree_size(directory) -> tuple[int, int]:
    """(files, bytes) under ``directory``."""
    files = [p for p in Path(directory).rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


class Tracer:
    """Spans and counters of the traced passes; ``install``/``remove`` switch it."""

    def __init__(self):
        self.spans: list[list] = []  # this pass: [name, start, end, parent index]
        self.stack: list[int] = []
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s] over passes
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0.0)
        self.passes = 0
        self.saved_dirs: list[Path] = []
        self.patches: list[tuple] = []  # (setter, original, wrapper)
        self.hooks = {
            "heat.evolve": self._count_substeps,
            "kernels.resample_periodic": self._count_modes,
            "weights.run_refinement": self._count_refine,
            "heat.Trajectory.save": self._note_save,
        }

    # counters, computed after the wrapped call returns
    def _count_substeps(self, args, kwargs, result):
        self.counters["heat.evolve.substeps"] += evolve_substeps(*args, **kwargs)

    def _count_modes(self, args, kwargs, result):
        values, targets = args[:2]  # heatlab passes (values, targets, half_width) positionally
        evals = np.size(values) * np.size(targets)
        self.counters["kernels.resample_periodic.mode_evals"] += evals
        self.counters["kernels.resample_periodic.table_bytes"] += 16 * evals  # complex128 N x M table

    def _count_refine(self, args, kwargs, result):
        self.counters["weights.refine_steps"] += result.steps_run

    def _note_save(self, args, kwargs, result):
        self.saved_dirs.append(Path(args[1]))

    def _wrap(self, name: str, func):
        spans, stack, hook = self.spans, self.stack, self.hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _find_patches(self) -> None:
        originals, holders = {}, []  # holders: (setter, original)
        for layer in LAYERS:
            module = sys.modules[f"heatlab.{layer}"]
            for attr, value in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(value) and value.__module__ == module.__name__:
                    originals[f"{layer}.{attr}"] = value
        for layer, cls, attr in METHODS:
            klass = getattr(sys.modules[f"heatlab.{layer}"], cls)
            originals[f"{layer}.{cls}.{attr}"] = getattr(klass, attr)
            holders.append((functools.partial(setattr, klass, attr), getattr(klass, attr)))
        known = {id(f) for f in originals.values()}
        # every module attribute or module-level dict value holding an original
        for module_name, module in list(sys.modules.items()):
            if module_name == "heatlab" or module_name.startswith("heatlab."):
                for attr, value in vars(module).items():
                    if id(value) in known:
                        holders.append((functools.partial(setattr, module, attr), value))
                    elif isinstance(value, dict):
                        for key, item in value.items():
                            if id(item) in known:
                                holders.append((functools.partial(value.__setitem__, key), item))
        wrappers = {id(f): self._wrap(name, f) for name, f in originals.items()}
        self.totals = {name: [0, 0.0, 0.0] for name in originals}
        self.patches = [(setter, original, wrappers[id(original)]) for setter, original in holders]

    def install(self) -> None:
        """Trace from now on; the spans of the previous pass are dropped."""
        if not self.patches:
            self._find_patches()
        del self.spans[:]
        for setter, _, wrapper in self.patches:
            setter(wrapper)

    def remove(self) -> None:
        for setter, original, _ in self.patches:
            setter(original)

    def end_pass(self, outdir: Path | None) -> None:
        """Fold the pass into the totals and count its artifacts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, parent), inner in zip(self.spans, child_time):
            entry = self.totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - inner
        for directory in self.saved_dirs:
            self.counters["heat.Trajectory.save.bytes"] += tree_size(directory)[1]
        self.saved_dirs.clear()
        if outdir is not None and outdir.exists():
            files, size = tree_size(outdir)
            self.counters["cli.artifacts.files"] += files
            self.counters["cli.artifacts.bytes"] += size
        self.passes += 1

    def metrics(self) -> dict[str, float]:
        """Every span statistic and counter, per traced pass."""
        out = {}
        for name, (calls, total, own) in self.totals.items():
            out.update({f"{name}.calls": calls, f"{name}.total_s": total, f"{name}.self_s": own})
        out.update(self.counters)
        return {key: value / self.passes for key, value in out.items()}

    def dump(self, path: Path) -> None:
        """Write the last traced pass's spans as JSON lines: name, start, end, parent index."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
