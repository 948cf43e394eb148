"""In-memory spans around calls into the stopngo layers.

A wrapper is installed on the module attribute a caller looks the function
up by (``stopngo.sim.control_input`` is what ``run_nonlinear`` calls), so the
program itself is untouched. Wrappers are removed when the ``installed``
block exits. A trace point whose attribute no longer exists is skipped, and
the metrics it would feed are then reported as absent rather than as zero.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module, attribute, span name). Several attributes may share a span name.
TRACE_POINTS = (
    ("stopngo.model", "make_network", "model.network"),
    ("stopngo.config", "make_network", "model.network"),
    ("stopngo.kernels", "solve_kernels", "kernels.solve"),
    ("stopngo.kernels", "kernel_residual", "kernels.residual"),
    ("stopngo.stability", "sp1", "stability.sp1"),
    ("stopngo.stability", "build_difference_model", "stability.difference"),
    ("stopngo.stability", "simulate_difference", "stability.difference"),
    ("stopngo.sim", "control_input", "control.u0"),
    ("stopngo.sim", "backstepping_transform", "control.transform"),
    ("stopngo.control", "target_residual", "control.target_residual"),
    ("stopngo.sim", "to_riemann", "riemann.map"),
    ("stopngo.sim", "scale_w", "riemann.map"),
    ("stopngo.sim", "run_nonlinear", "sim.run"),
    ("stopngo.sim", "run_linear", "sim.run"),
    ("stopngo.sim", "export_states_csv", "sim.export"),
    ("stopngo.sim", "export_norms_csv", "sim.export"),
)


class Tracer:
    """Records (name, start, end, parent index, phase) for every wrapped call.

    ``phase`` is set by the caller ("setup", or the round number) so that
    spans can be attributed to set-up or to one round of the workload.
    """

    def __init__(self):
        self.spans: list = []
        self.phase = "setup"
        self.names: set[str] = set()
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.phase)

        return traced

    @contextlib.contextmanager
    def installed(self, points=TRACE_POINTS):
        originals = []
        try:
            for mod_name, attr, name in points:
                module = importlib.import_module(mod_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn))
                self.names.add(name)
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def totals(self, phase) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds and call count in one phase.

        Self time is a span's duration minus the durations of its direct
        children; calls are nested, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {n: {"s": 0.0, "self_s": 0.0, "calls": 0} for n in self.names}
        for i, (name, start, end, _, ph) in enumerate(self.spans):
            if ph != phase:
                continue
            agg = out[name]
            agg["s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            agg["calls"] += 1
        return out

    def write(self, path):
        """Writes every span as one CSV line, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            f.write("index,name,start_s,end_s,parent,phase\n")
            for i, (name, start, end, parent, phase) in enumerate(self.spans):
                f.write("%d,%s,%.9f,%.9f,%d,%s\n" % (i, name, start - t0, end - t0, parent, phase))
