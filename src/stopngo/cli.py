"""Command-line entry point: steady, kernels, simulate, verify."""
from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .config import RunConfig, apply_overrides, default_config, emit_resolved, parse_config
from .errors import (
    AssumptionError,
    ConfigError,
    DomainError,
    InfeasibleError,
    SimulationError,
)
from .kernels import kernel_residual, save_table, solve_kernels
from .riemann import boundary_rows
from .sim import norms_and_rate, export_norms_csv, export_states_csv, run_linear, run_nonlinear
from .stability import closed_form_condition, coupling_matrix, sp1

VALIDATION_ERRORS = (
    ConfigError,
    DomainError,
    InfeasibleError,
    AssumptionError,
)
NUMERICAL_ERRORS = (
    SimulationError,
    FloatingPointError,
    np.linalg.LinAlgError,
)


def _emit(lines, out_dir, filename):
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    with open(os.path.join(out_dir, filename), "w") as f:
        f.write(text)


def cmd_steady(cfg: RunConfig) -> int:
    net = cfg.net
    rows = boundary_rows(net)
    lines = []
    for label, ss in (("segment 1", net.ss1), ("segment 2", net.ss2)):
        lines.append(
            "%s: rho* = %.6f veh/m, v* = %.6f m/s, p* = %.6f m/s, q* = %.6f veh/s"
            % (label, ss.rho_star, ss.v_star, ss.p_star, ss.q_star)
        )
        lines.append(
            "%s: r = %.6f, kappa = %.3f s" % (label, ss.r, ss.kappa)
        )
    lines.append(
        "boundary gains: outlet = %.6f, inlet = %.6f, junction = (%.6f, %.6f), "
        "control = %.6f"
        % (rows.g_outlet, rows.g_inlet, rows.g_t, rows.g_a, rows.g_control)
    )
    value_num = sp1(coupling_matrix(net))
    lines.append("sp1 (Perron root of |H|) = %.9f" % value_num)
    value_cf, a, b = closed_form_condition(net)
    lines.append("closed form = %.9f (cycle gains a = %.9f, b = %.9f)" % (value_cf, a, b))
    worst = max(value_num, value_cf)
    lines.append(
        "dissipativity verdict: %s (largest value %.9f, threshold 1)"
        % ("PASS" if worst < 1.0 else "FAIL", worst)
    )
    _emit(lines, cfg.out_dir, "steady.txt")
    return 0


def cmd_kernels(cfg: RunConfig) -> int:
    net = cfg.net
    M = cfg.sim.N
    lines = []
    for seg_id, params in ((1, net.seg1), (2, net.seg2)):
        table = solve_kernels(seg_id, net, M=M)
        path = os.path.join(cfg.out_dir, f"kernels_seg{seg_id}.csv")
        save_table(table, path)
        pde, bc = kernel_residual(table, net)
        # the kernels are the constants D and -D, so both maxima are |D| and
        # the transform's gain bound, 1 + max_x int (|K^vw| + |K^vv|) dxi,
        # is 1 + 2|D|L, attained on the row that spans the whole segment
        D = abs(table.D)
        lines.append(
            "segment %d, M = %d: closed form, pde residual = %.3e, "
            "bc residual = %.3e, max|Kvw| = %.3e, max|Kvv| = %.3e, transform gain = %.3f"
            % (seg_id, M, pde, bc, D, D, 1.0 + 2.0 * D * params.length)
        )
        lines.append(f"segment {seg_id}: table written to {path}")
    _emit(lines, cfg.out_dir, "kernel_report.txt")
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    net, sim = cfg.net, cfg.sim
    t0 = time.perf_counter()
    tables = None
    if sim.loop_mode == "closed":
        tables = tuple(solve_kernels(i, net, M=sim.N) for i in (1, 2))
    runner = run_linear if sim.model == "linear" else run_nonlinear
    record = runner(sim, net, tables)
    export_states_csv(record, os.path.join(cfg.out_dir, "states.csv"))
    export_norms_csv(record, os.path.join(cfg.out_dir, "norms.csv"))
    emit_resolved(cfg, os.path.join(cfg.out_dir, "resolved.cfg"))
    wall = time.perf_counter() - t0

    try:
        hist = norms_and_rate(record)
        rate_text = (
            "converged before fit"
            if hist.status == "converged"
            else ("%.6e 1/s" % hist.rate if hist.rate is not None else "not fitted")
        )
        total0, total1 = hist.total[0], hist.total[-1]
    except DomainError:
        rate_text = "not fitted (too few recorded times)"
        total0 = float(np.hypot(record.norm1[0], record.norm2[0]))
        total1 = float(np.hypot(record.norm1[-1], record.norm2[-1]))
    converged = record.linf1[-1] < 0.02 and record.linf2[-1] < 0.02
    lines = [
        "model = %s, loop = %s, N = %d, cfl = %.3f" % (sim.model, sim.loop_mode, sim.N, sim.cfl),
        "t_final = %.3f s, steps = %d" % (sim.t_final, record.n_steps),
        "total L2 norm: initial = %.6e, final = %.6e" % (total0, total1),
        "final max deviation: segment 1 = %.4f%%, segment 2 = %.4f%%"
        % (100.0 * record.linf1[-1], 100.0 * record.linf2[-1]),
        "fitted decay rate = %s" % rate_text,
        "converged (both segments within 2%%) = %s" % converged,
    ]
    if record.mass_err is not None:
        lines.append("mass accounting error (per step, relative) = %.3e" % record.mass_err)
    lines.append("wall time = %.2f s" % wall)
    _emit(lines, cfg.out_dir, "summary.txt")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    from .acceptance import run_all

    results = run_all()
    with open(os.path.join(cfg.out_dir, "acceptance.txt"), "w") as f:
        for res in results:
            f.write(res.line + "\n")
    return 0 if all(r.passed for r in results) else 2


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="run configuration file")
    common.add_argument("--out", metavar="DIR", help="output directory (default out)")
    common.add_argument("--resolution", type=int, metavar="N",
                        help="cells per segment, of the grid and the kernel tables")
    common.add_argument("--loop", choices=("open", "closed"))
    common.add_argument("--model", choices=("linear", "nonlinear"))
    parser = argparse.ArgumentParser(
        prog="stopngo",
        description="Two-segment freeway simulator with backstepping ramp metering",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("steady", parents=[common], help="steady states and dissipativity check")
    sub.add_parser("kernels", parents=[common], help="solve and save the control kernels")
    sub.add_parser("simulate", parents=[common], help="run a simulation and export CSVs")
    sub.add_parser("verify", parents=[common], help="run the acceptance suite")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config) if args.config else default_config()
        cfg = apply_overrides(
            cfg,
            out=args.out,
            resolution=args.resolution,
            loop=args.loop,
            model=args.model,
        )
        os.makedirs(cfg.out_dir, exist_ok=True)
        handler = {
            "steady": cmd_steady,
            "kernels": cmd_kernels,
            "simulate": cmd_simulate,
            "verify": cmd_verify,
        }[args.command]
        return handler(cfg)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
