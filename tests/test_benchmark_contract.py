"""The program names the benchmark harness reads.

perfbench wraps module attributes listed in its TRACE_POINTS and sums
KernelTable.iterations. A trace point that no longer resolves is skipped
there, so its per-layer metrics silently drop out of a traced run; these
tests make such a rename fail here instead. The harness file is read, never
imported as a package or written.
"""
import importlib
import pathlib
import types

import stopngo as sg

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
