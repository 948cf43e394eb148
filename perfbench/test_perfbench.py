"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
from __future__ import annotations

import importlib
import json
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest

import run
import tracing
import worker
import workloads
from stopngo import config, sim, stability

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def fake_record(mass_err=1e-16):
    t = np.linspace(0.0, 1.0, 5)
    return SimpleNamespace(times=t, norm1=np.ones(5), norm2=np.ones(5),
                           u0=np.zeros(5), mass_err=mass_err, target=None)


def test_gate_catches_mass_error():
    assert workloads.nonlinear_violations("run", fake_record()) == []
    (msg,) = workloads.nonlinear_violations("run", fake_record(mass_err=1e-6))
    assert "mass_err" in msg
    assert workloads.nonlinear_violations("run", fake_record(mass_err=None))


def test_gate_catches_non_finite_array():
    rec = fake_record()
    rec.norm2[3] = np.nan
    (msg,) = workloads.nonlinear_violations("run", rec)
    assert "norm2" in msg


def test_broken_gate_or_digest_fails_the_operation():
    ops = [
        {"round": 0, "index": 0, "digest": "a", "violations": []},
        {"round": 0, "index": 1, "digest": "b", "violations": ["mass_err 1e-06"]},
        {"round": 1, "index": 0, "digest": "c", "violations": []},
        {"round": 1, "index": 1, "error": "SimulationError: boom"},
    ]
    worker.mark_failures(ops, [])
    assert [op["failed"] for op in ops] == [False, True, True, True]
    worker.mark_failures(ops[:1], ["set-up kernel table: bc residual"])
    assert ops[0]["failed"]


def closed_linear_run(N=32):
    net = config.default_network()
    cfg = sim.SimConfig(t_final=60.0, N=N, loop_mode="closed", model="linear",
                        record_every=4)
    return net, sim.run_linear(cfg, net, workloads.kernel_pair(net, N))


def test_junction_gate_holds_on_linear_closed_loop_and_catches_a_broken_row():
    net, rec = closed_linear_run()
    assert workloads.junction_defect(rec, net) <= workloads.JUNCTION_REL_BOUND
    rec.target[-1].beta2[-1] += 1e-3
    assert workloads.junction_defect(rec, net) > workloads.JUNCTION_REL_BOUND


def attribute_snapshot():
    return {(m, a): getattr(importlib.import_module(m), a)
            for m, a, _ in tracing.TRACE_POINTS}


def test_wrappers_are_removed_after_a_traced_run():
    before = attribute_snapshot()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert sim.run_linear is not before[("stopngo.sim", "run_linear")]
        closed_linear_run()
        stability.sp1(stability.coupling_matrix(config.default_network()))
    assert attribute_snapshot() == before
    totals = tracer.totals("setup")
    assert totals["sim.run"]["calls"] == 1
    assert totals["control.transform"]["calls"] > 0
    assert totals["kernels.solve"]["calls"] == 2
    assert totals["stability.sp1"]["calls"] == 1
    run_total = totals["sim.run"]
    assert 0.0 < run_total["self_s"] < run_total["s"]


def test_wrappers_are_removed_when_the_traced_code_raises():
    before = attribute_snapshot()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer().installed():
            1 / 0
    assert attribute_snapshot() == before


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.names = {"outer", "inner"}
    tracer.spans = [("outer", 0.0, 10.0, -1, 0), ("inner", 1.0, 4.0, 0, 0),
                    ("inner", 5.0, 7.0, 0, 0)]
    totals = tracer.totals(0)
    assert totals["outer"] == {"s": 10.0, "self_s": 5.0, "calls": 1}
    assert totals["inner"] == {"s": 5.0, "self_s": 5.0, "calls": 2}


def test_tail_leaves_ten_samples_beyond_and_never_falls_below_the_median():
    value, pct, beyond = run.tail(list(range(100)))
    assert (value, pct, beyond) == (89, 90.0, 10)
    value, _, beyond = run.tail([3.0, 1.0, 2.0, 4.0])
    assert value == 3.0 and beyond == 1


def test_names_match_the_contract_and_the_code():
    with open(BENCHMARK) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def test_every_per_layer_metric_is_produced():
    with open(BENCHMARK) as f:
        bench = json.load(f)
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.phase = 0
        closed_linear_run()
    fake = SimpleNamespace(setup_sweeps=0)
    produced = set(worker.layer_metrics(tracer, fake, [], 1)) | {"trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} == produced


def replica(latencies, digest="d", failed=()):
    ops = [{"round": r, "index": i, "latency_s": t, "failed": (r, i) in failed}
           for r, row in enumerate(latencies) for i, t in enumerate(row)]
    return {"ops": ops, "digest": digest, "round_walls_s": [sum(row) for row in latencies],
            "peak_rss_kb": 1024}


def test_an_operation_counts_the_median_of_its_repeats_on_every_replica():
    summary = run.summarize([replica([[3.0, 5.0], [2.0, 6.0]]),
                             replica([[4.0, 9.0]], failed={(0, 1)})])
    assert summary["wall_s"] == 3.0 + 5.5
    assert summary["op_p50_s"] == (3.0 + 5.5) / 2
    assert (summary["attempted"], summary["failed"]) == (6, 1)


def test_replicas_with_different_digests_fail_every_operation():
    summary = run.summarize([replica([[1.0]], "a"), replica([[1.0]], "b")])
    assert summary["failed"] == summary["attempted"] == 2
