"""Benchmark entry point for stopngo.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the root of a checkout that holds ``src/stopngo``. Every measurement
is a fresh ``worker.py`` process with BLAS and OpenMP pinned to one thread,
importing stopngo from ``src``. The measuring workers run as replicas, one
pinned to each of up to two CPUs, doing the same rounds at the same time.
The last line of output is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``. A fuller record (every
operation, digests, versions, commit) is written to
``.perfbench_out/<workload>-seed<S>-trace<T>/result.json``.

``--trace 0``: the measuring replicas set up and run the timed rounds,
between SETUP_PROBES set-up-only processes; ``setup_s`` is the median over
all of them. ``--trace 1``: untraced replicas, then traced ones, each for
half of ``--seconds`` and at least one round; the per-layer metrics come
from the traced ones, and the tracing overhead is the difference of the two
``wall_s``.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("simulate_closed", "design_sweep", "scenario_sweep")
SETUP_PROBES = 4
# the CPUs the measuring workers run on, one pinned worker each
REPLICA_CPUS = tuple(sorted(os.sched_getaffinity(0))[:2])
BUDGET_S = 170.0  # every process of one run must end within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args, mode, seconds, out_dir, deadline, min_rounds=2, cpus=(None,)):
    """Runs one worker per entry of ``cpus`` at once, each pinned to that CPU
    (None: not pinned), and returns their JSON results. Each result gets
    ``setup_s``, measured from just before its process was spawned."""
    procs = []
    try:
        for k, cpu in enumerate(cpus):
            worker_dir = os.path.join(out_dir, f"{mode}-{k}")
            os.makedirs(worker_dir, exist_ok=True)
            cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
                   args.workload, "--seed", str(args.seed), "--seconds", repr(seconds),
                   "--mode", mode, "--min-rounds", str(min_rounds), "--out", worker_dir]
            path = os.path.join(worker_dir, "stdout.txt")
            pin = None if cpu is None else functools.partial(os.sched_setaffinity, 0, {cpu})
            with open(path, "w") as out:
                start = time.monotonic()
                proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out,
                                        preexec_fn=pin)
            procs.append((proc, path, start))
        for proc, _, _ in procs:
            try:
                proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{mode} worker exceeded the time budget") from None
    finally:
        for proc, _, _ in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    results = []
    for proc, path, start in procs:
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with code {proc.returncode}")
        with open(path) as f:
            lines = f.read().strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            raise BenchError(f"{mode} worker printed no result") from None
        if not os.path.abspath(result["stopngo_file"]).startswith(SRC + os.sep):
            raise BenchError(f"imported stopngo from {result['stopngo_file']}, not from {SRC}")
        result["setup_s"] = result["setup_end_monotonic"] - start
        results.append(result)
    return results


def tail(samples):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples above it, never below the median position."""
    xs = sorted(samples)
    n = len(xs)
    idx = max(n - 1 - TAIL_BEYOND, n // 2)
    return xs[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def summarize(results):
    """End-to-end figures of a set of replica workers that ran the same rounds.

    An operation's latency is the median of its repeats on every replica.
    Replicas double the repeats that fit in the run time, and the CPUs of a
    shared host are slowed by other tenants partly independently. Replicas
    must agree on their digests.
    """
    ops = [op for r in results for op in r["ops"]]
    repeats = {}
    for op in ops:
        if not op["failed"]:
            repeats.setdefault(op["index"], []).append(op["latency_s"])
    lat = [statistics.median(v) for v in repeats.values()]
    failed = sum(op["failed"] for op in ops)
    if len({r["digest"] for r in results}) > 1:
        failed = len(ops)  # replicas of one program computed different outputs
    tail_value, tail_pct, beyond = tail(lat) if lat else (None, None, 0)
    return {
        "wall_s": sum(lat) if lat else None,
        "rounds": [len(r["round_walls_s"]) for r in results],
        "round_walls_s": [r["round_walls_s"] for r in results],
        "op_p50_s": statistics.median(lat) if lat else None,
        "op_tail_s": tail_value,
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": beyond,
        "op_samples": len(lat),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in results) / 1024.0,
        "attempted": len(ops),
        "failed": failed,
        "failed_frac": failed / len(ops),
    }


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:  # a checkout without git metadata
        return None
    return out.stdout.strip()


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="stopngo benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not os.path.isfile(os.path.join(SRC, "stopngo", "__init__.py")):
        print(f"error: no stopngo package under {SRC}", file=sys.stderr)
        return 1
    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "commit": commit(), "nproc": os.cpu_count(),
              "cpus_usable": len(os.sched_getaffinity(0))}
    try:
        if args.trace == 0:
            # probes before and after the measuring processes, so that one
            # slow phase of the host does not set every sample
            half = SETUP_PROBES // 2
            setups = [spawn(args, "probe", 0.0, out_dir, deadline)[0]["setup_s"]
                      for _ in range(half)]
            measured = spawn(args, "untraced", args.seconds, out_dir, deadline, 2, REPLICA_CPUS)
            setups += [r["setup_s"] for r in measured]
            setups += [spawn(args, "probe", 0.0, out_dir, deadline)[0]["setup_s"]
                       for _ in range(SETUP_PROBES - half)]
            summary = summarize(measured)
            summary["setup_s"] = statistics.median(setups)
            summary["setup_samples_s"] = setups
            runs = {"untraced": measured}
        else:
            untraced = spawn(args, "untraced", 0.5 * args.seconds, out_dir, deadline, 1,
                             REPLICA_CPUS)
            traced = spawn(args, "traced", 0.5 * args.seconds, out_dir, deadline, 1,
                           REPLICA_CPUS)
            summary = summarize(traced)
            summary["untraced"] = summarize(untraced)
            summary["trace_overhead_s"] = summary["wall_s"] - summary["untraced"]["wall_s"]
            if traced[0]["digest"] != untraced[0]["digest"]:
                # tracing must not change what the program computes
                summary["failed"] = summary["attempted"]
                summary["failed_frac"] = 1.0
            runs = {"untraced": untraced, "traced": traced}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    main_runs = runs.get("traced", runs["untraced"])
    digest = main_runs[0]["digest"]
    record.update(versions=main_runs[0]["versions"], digest=digest, summary=summary,
                  runs=runs)
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump(record, f, indent=1)

    if args.trace == 0:
        metrics = {
            "wall_s": metric(summary["wall_s"], "s"),
            "setup_s": metric(summary["setup_s"], "s"),
            "op_p50_s": metric(summary["op_p50_s"], "s"),
            "op_tail_s": metric(summary["op_tail_s"], "s"),
            "peak_rss_mb": metric(summary["peak_rss_mb"], "MB"),
        }
    else:
        metrics = {}
        for name, (_, unit) in main_runs[0]["layers"].items():
            values = [r["layers"][name][0] for r in main_runs]
            # counts agree on every replica and stay whole numbers
            value = values[0] if len(set(values)) == 1 else statistics.median(values)
            metrics[name] = metric(value, unit)
        metrics["trace.overhead_s"] = metric(summary["trace_overhead_s"], "s")
    print(
        f"{args.workload} seed {args.seed}: {summary['rounds']} rounds, "
        f"{summary['op_samples']} operations, op_tail_s at p{summary['op_tail_percentile']} "
        f"with {summary['op_tail_samples_beyond']} beyond, failed {summary['failed']}"
        f"/{summary['attempted']} (failed_frac {summary['failed_frac']:.3g}), "
        f"digest {digest[:16]}"
    )
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
