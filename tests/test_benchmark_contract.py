"""The program names the benchmark harness reads.

perfbench wraps module attributes listed in its TRACE_POINTS and sums
KernelTable.iterations. A trace point that no longer resolves is skipped
there, so its per-layer metrics silently drop out of a traced run; these
tests make such a rename fail here instead. The harness file is read, never
imported as a package or written; one short traced run checks the line a
benchmark run ends on.
"""
import importlib
import json
import math
import pathlib
import subprocess
import sys
import types

import stopngo as sg

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _trace_points():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module.TRACE_POINTS


def test_every_trace_point_resolves():
    points = _trace_points()
    assert points
    for mod_name, attr, _ in points:
        module = importlib.import_module(mod_name)
        assert mod_name.split(".")[0] == "stopngo"
        assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"


def test_kernel_table_reports_integer_iterations(net):
    table = sg.solve_kernels(1, net, M=32)
    assert isinstance(table.iterations, int)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_traced_run_ends_in_a_strict_result_with_every_layer():
    # a run can exit 0 and still not end in a result; its last line must be
    # strict JSON (no NaN or Infinity), correct, and carry every per-layer
    # figure BENCHMARK.json names as a finite number
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design_sweep", "--seed", "1",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert layers
    for name in (layer["name"] for layer in layers):
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name
