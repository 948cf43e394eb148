"""The program names the benchmark harness reads.

perfbench wraps module attributes listed in its TRACE_POINTS and sums
KernelTable.iterations. A trace point that no longer resolves is skipped
there, so its per-layer metrics silently drop out of a traced run; these
tests make such a rename fail here instead. The harness file is read, never
imported as a package or written; one short traced run checks the line a
benchmark run ends on, and one tiny call of each workload's program path
checks that every trace point fires.
"""
import collections
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


def _tracing():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def _trace_points():
    return _tracing().TRACE_POINTS


def test_every_trace_point_resolves():
    points = _trace_points()
    assert points
    for mod_name, attr, _ in points:
        module = importlib.import_module(mod_name)
        assert mod_name.split(".")[0] == "stopngo"
        assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"


def test_every_trace_point_fires(tmp_path):
    # a trace point that resolves but is never called reads 0 in every
    # traced run; each call goes through the module attribute the harness
    # wraps, at N = M = 32
    from stopngo import config, control, kernels, sim, stability

    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracer.installed(tracing.TRACE_POINTS):
        net = config.default_network()
        tables = (kernels.solve_kernels(1, net, M=32), kernels.solve_kernels(2, net, M=32))
        for table in tables:
            kernels.kernel_residual(table, net)
        stability.sp1(stability.coupling_matrix(net))
        stability.simulate_difference(stability.build_difference_model(net), 1.0,
                                      horizon=net.ss1.kappa + net.ss2.kappa)
        runs = {}
        for model, run in (("nonlinear", sim.run_nonlinear), ("linear", sim.run_linear)):
            for loop in ("closed", "open"):
                cfg = sim.SimConfig(t_final=60.0, N=32, loop_mode=loop, model=model,
                                    record_every=4)
                runs[model, loop] = run(cfg, net, tables if loop == "closed" else None)
        control.target_residual(runs["linear", "closed"], net)
        record = runs["nonlinear", "closed"]
        sim.export_states_csv(record, tmp_path / "states.csv")
        sim.export_norms_csv(record, tmp_path / "norms.csv")
    calls = collections.Counter(span[0] for span in tracer.spans)
    assert not {name for _, _, name in tracing.TRACE_POINTS} - set(calls)
    # U0 once per nonlinear closed-loop step, the transform once per
    # closed-loop run. The runners are handed tables as the harness hands
    # them, and ignore them
    assert calls["control.u0"] == record.n_steps > 0
    assert calls["control.transform"] == 2


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
