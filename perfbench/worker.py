"""One benchmark process: set up a workload, then time rounds of its operations.

Started by ``run.py`` as a fresh interpreter per measurement, so import and
set-up are paid cold. Prints one JSON object as its last line of output.

    python3 perfbench/worker.py --workload NAME --seed S --seconds T \\
        --mode probe|untraced|traced --min-rounds R --out DIR

``probe`` stops after set-up. The other modes run rounds (every operation of
the workload once, in order) while the next round is likely to end within
``--seconds``, and at least ``--min-rounds`` rounds. With two or more, every
operation is repeated and its digest is compared with the first round's.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time

import numpy as np
import scipy

import stopngo
import tracing
import workloads


def run_rounds(workload, seconds, min_rounds, tracer):
    """Returns (ops, round_walls): one dict per executed operation, and the
    summed latency of the operations of each round.

    ``tracer.phase`` tags spans with the round, or with "checks" while the
    untimed gates run.
    """
    ops, walls = [], []
    started = time.perf_counter()
    while True:
        rnd = len(walls)
        wall = 0.0
        for i in range(workload.n_ops):
            op = {"round": rnd, "index": i}
            tracer.phase = rnd
            t0 = time.perf_counter()
            try:
                outputs = workload.execute(i)
            except Exception as exc:  # a failed operation is counted, the run goes on
                op["latency_s"] = time.perf_counter() - t0
                op["error"] = f"{type(exc).__name__}: {exc}"
            else:
                op["latency_s"] = time.perf_counter() - t0
                tracer.phase = "checks"
                check = workload.check(i, outputs)
                op.update(digest=check.digest, violations=check.violations,
                          stats=check.stats, outcome=check.outcome)
            wall += op["latency_s"]
            ops.append(op)
        walls.append(wall)
        elapsed = time.perf_counter() - started
        # stop before a round that would likely end after the time given
        if len(walls) >= min_rounds and elapsed + statistics.median(walls) > seconds:
            return ops, walls


def mark_failures(ops, setup_violations):
    """An operation fails if it raised, broke a gate, ran on set-up artifacts
    that broke a gate, or produced a digest other than its first round's."""
    first = {op["index"]: op.get("digest") for op in ops if op["round"] == 0}
    for op in ops:
        reasons = []
        if "error" in op:
            reasons.append(op["error"])
        reasons += op.get("violations", [])
        reasons += setup_violations
        if "error" not in op and op["digest"] != first[op["index"]]:
            reasons.append("digest differs from round 0")
        op["failed"] = bool(reasons)
        op["reasons"] = reasons


def layer_metrics(tracer, workload, ops, n_rounds):
    """Per-layer figures for set-up plus one round.

    Times are set-up plus the median over rounds; counts are set-up plus
    round 0. Returns {name: (value, unit)}; a count the program
    no longer provides is left out.
    """
    setup = tracer.totals("setup")
    per_round = [tracer.totals(r) for r in range(n_rounds)]

    def span(name, key):
        if name not in tracer.names:
            return None
        if key == "calls":
            return setup[name][key] + per_round[0][name][key]
        return setup[name][key] + statistics.median(r[name][key] for r in per_round)

    def stat(key):
        # a key an operation does not report is work it does not do; a key
        # reported as None is a count the program no longer provides
        vals = [op["stats"].get(key, 0) for op in ops if op["round"] == 0 and "stats" in op]
        return None if None in vals else sum(vals)

    setup_sweeps = workload.setup_sweeps
    round_sweeps = stat("sweeps")
    steps = stat("steps")
    sim_self = span("sim.run", "self_s")
    out = {
        "kernels.solve_s": (span("kernels.solve", "s"), "s"),
        "kernels.solve_calls": (span("kernels.solve", "calls"), "count"),
        "kernels.sweeps": (None if None in (setup_sweeps, round_sweeps)
                           else setup_sweeps + round_sweeps, "count"),
        "kernels.residual_s": (span("kernels.residual", "s"), "s"),
        "stability.sp1_s": (span("stability.sp1", "s"), "s"),
        "stability.sp1_calls": (span("stability.sp1", "calls"), "count"),
        "stability.difference_s": (span("stability.difference", "s"), "s"),
        "control.u0_s": (span("control.u0", "s"), "s"),
        "control.u0_calls": (span("control.u0", "calls"), "count"),
        "control.transform_s": (span("control.transform", "s"), "s"),
        "control.transform_calls": (span("control.transform", "calls"), "count"),
        "control.target_residual_s": (span("control.target_residual", "s"), "s"),
        "riemann.map_s": (span("riemann.map", "s"), "s"),
        "riemann.map_calls": (span("riemann.map", "calls"), "count"),
        "sim.run_s": (span("sim.run", "s"), "s"),
        "sim.self_s": (sim_self, "s"),
        "sim.steps": (steps, "count"),
        "sim.cell_steps": (stat("cell_steps"), "count"),
        "sim.self_us_per_step": (None if sim_self is None or steps is None
                                 else (1e6 * sim_self / steps if steps else 0.0), "us"),
        "sim.records": (stat("records"), "count"),
        "sim.export_s": (span("sim.export", "s"), "s"),
        "sim.export_bytes": (stat("export_bytes"), "bytes"),
        "model.network_s": (span("model.network", "s"), "s"),
    }
    return {k: v for k, v in out.items() if v[0] is not None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("probe", "untraced", "traced"))
    ap.add_argument("--min-rounds", type=int, default=2)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    # an untraced run keeps a tracer with nothing installed, so it records nothing
    tracer = tracing.Tracer()
    with contextlib.ExitStack() as stack:
        if args.mode == "traced":
            stack.enter_context(tracer.installed())
        # exported files go here and are removed with it; their digests stay
        work_dir = stack.enter_context(tempfile.TemporaryDirectory(dir=args.out))
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        setup_end = time.monotonic()
        result = {"setup_end_monotonic": setup_end}
        if args.mode != "probe":
            ops, walls = run_rounds(workload, args.seconds, args.min_rounds, tracer)
            tracer.phase = "checks"
            setup_violations = workload.setup_violations()
            mark_failures(ops, setup_violations)
            result.update(
                round_walls_s=walls,
                ops=ops,
                setup_violations=setup_violations,
                inputs=workload.inputs,
                digest=_run_digest(ops),
            )
            if args.mode == "traced":
                result["layers"] = layer_metrics(tracer, workload, ops, len(walls))
                tracer.write(os.path.join(args.out, "spans.csv"))
    result.update(
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        versions={"python": sys.version.split()[0], "numpy": np.__version__,
                  "scipy": scipy.__version__},
        stopngo_file=stopngo.__file__,
    )
    print(json.dumps(result))
    return 0


def _run_digest(ops):
    d = workloads.Digest()
    for op in ops:
        if op["round"] == 0:
            d.add(str(op["index"]), op.get("digest"))
    return d.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
