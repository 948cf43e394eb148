"""Acceptance suite: one check per shipped claim, run together by `verify`.

Each criterion returns (passed, detail). run_all prints one PASS/FAIL line
per criterion, and nothing else, and returns the results; the one run that
two criteria read, the long open nonlinear one, is cached on the shared
context.
"""
from __future__ import annotations

import contextlib
import functools
import io
import os
import pathlib
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np

from .config import default_network
from .errors import AssumptionError, InfeasibleError
from .kernels import _central, _interior, kernel_residual, solve_kernels
from .model import (
    SegmentParams,
    admissible_flux_interval,
    equilibrium_velocity,
    make_network,
    pressure,
)
from .riemann import coupling_coefficient, scale_factor
from .sim import ICSpec, SimConfig, norms_and_rate, run_linear, run_nonlinear
from .stability import (
    build_difference_model,
    closed_form_condition,
    coupling_matrix,
    fit_envelope_rate,
    simulate_difference,
    sp1,
)

SP1_DEFAULT = 0.41286310560756354  # closed form of the boundary rows, to 40 digits


class AcceptanceContext:
    def __init__(self):
        self.net = default_network()
        self.window = self.net.ss1.kappa + self.net.ss2.kappa

    @functools.cached_property
    def open_nonlinear_10w(self):
        """The 10-window open nonlinear run, which criteria 5 and 7 both read."""
        cfg = SimConfig(
            t_final=10.0 * self.window,
            N=256,
            loop_mode="open",
            model="nonlinear",
            ic=ICSpec(eps=0.05),
            record_every=32,
        )
        return run_nonlinear(cfg, self.net)


def criterion_1(ctx):
    """Steady-state identities and flux matching."""
    net = ctx.net
    rng = np.random.default_rng(1)
    worst_identity = 0.0
    for params in (net.seg1, net.seg2):
        rho = rng.uniform(1e-3 * params.rho_max, (1.0 - 1e-3) * params.rho_max, 1000)
        resid = equilibrium_velocity(rho, params) + pressure(rho, params) - params.v_max
        worst_identity = max(worst_identity, float(np.max(np.abs(resid))) / params.v_max)
    worst_flux = abs(net.ss1.q_star - net.ss2.q_star) / net.ss1.q_star
    passed = worst_identity < 1e-12 and worst_flux < 1e-12
    return passed, (
        f"V+p identity error {worst_identity:.2e}, flux mismatch {worst_flux:.2e}"
    )


def criterion_2(ctx):
    """sp1 against the closed form on random admissible networks."""
    rng = np.random.default_rng(0)
    worst = 0.0
    accepted = 0
    attempts = 0
    while accepted < 100 and attempts < 2000:
        attempts += 1
        v_max = rng.uniform(25.0, 50.0)
        L = rng.uniform(800.0, 3000.0)
        segs = [
            SegmentParams(
                v_max=v_max,
                rho_max=rng.uniform(0.3, 1.2),
                gamma=rng.uniform(0.8, 2.2),
                tau=rng.uniform(60.0, 200.0),
                length=L,
                segment_id=i + 1,
            )
            for i in range(2)
        ]
        hi = min(admissible_flux_interval(s)[1] for s in segs)
        try:
            net = make_network(segs[0], segs[1], rng.uniform(0.25, 0.9) * hi)
        except (AssumptionError, InfeasibleError):
            continue
        if net.ss1.r <= net.ss2.r:
            continue
        accepted += 1
        value_cf = closed_form_condition(net)[0]
        value_num = sp1(coupling_matrix(net))
        worst = max(worst, abs(value_num - value_cf))
    net = ctx.net
    v_num = sp1(coupling_matrix(net))
    v_cf = closed_form_condition(net)[0]
    passed = (
        accepted == 100
        and worst < 1e-6
        and v_num < 1.0
        and v_cf < 1.0
        and abs(v_cf - SP1_DEFAULT) < 1e-9
    )
    return passed, (
        f"{accepted} random networks, worst |sp1 - closed form| = {worst:.2e}; "
        f"default configuration: {v_num:.6f} / {v_cf:.6f} < 1"
    )


def _scaled_pde_residual(table, net) -> float:
    """Residual of the scaled K^vw equation, lambda_v K_x - lambda_w K_xi =
    c(xi) K^vv, on the table mapped to the scaled coordinates
    K^vw(x, xi) = K-tilde^vw(x, xi) exp(-xi/(tau v*)). The K^vv equation is
    the same in both coordinates and kernel_residual covers it."""
    ss, params = (net.ss1, net.seg1) if table.segment_id == 1 else (net.ss2, net.seg2)
    Kvw = table.Kvw * scale_factor(-table.x, ss, params)
    j, k = _interior(table.segment_id, table.M)
    dKdx, dKdxi = _central(Kvw, j, k, table.h)
    c = coupling_coefficient(table.x[k], ss, params)
    return float(np.max(np.abs(ss.lambda_v * dKdx - ss.lambda_w * dKdxi - c * table.Kvv[j, k])))


def criterion_3(ctx):
    """Kernel tables: exact boundary data, the unscaled equations to round-off
    and the scaled equations to second order."""
    details = []
    passed = True
    for seg_id in (1, 2):
        scaled, worst = [], 0.0
        for M in (32, 64, 128):
            table = solve_kernels(seg_id, ctx.net, M=M)
            pde, bc = kernel_residual(table, ctx.net)
            scaled.append(_scaled_pde_residual(table, ctx.net))
            worst = max(worst, pde / float(np.max(np.abs(table.Kvw))))
            if bc > 1e-12:
                passed = False
                details.append(f"seg {seg_id} M={M} bc residual {bc:.2e}")
        if not (scaled[0] / scaled[1] >= 1.5 and scaled[1] / scaled[2] >= 1.5 and worst <= 1e-12):
            passed = False
        details.append(
            "seg %d scaled pde residuals %.2e / %.2e / %.2e, unscaled pde residual "
            "%.1e relative" % (seg_id, *scaled, worst)
        )
    return passed, "; ".join(details)


def _beta2_trace(ctx, N):
    cfg = SimConfig(
        t_final=8.0 * ctx.window,
        N=N,
        loop_mode="closed",
        model="linear",
        ic=ICSpec(eps=0.1),
        record_every=8,
    )
    return run_linear(cfg, ctx.net)


def criterion_4(ctx):
    """Junction trace obeys the delay-difference model, including its rate."""
    model = build_difference_model(ctx.net)
    k2 = model.kappa2
    k12 = model.kappa1 + model.kappa2
    rec_f = _beta2_trace(ctx, 256)
    rec_c = _beta2_trace(ctx, 128)
    tt = np.linspace(k12 + 5.0, 8.0 * ctx.window - 5.0, 4001)

    def interp(rec, pts):
        return np.interp(pts, rec.trace_times, rec.trace_beta2)

    resid = float(
        np.max(
            np.abs(
                interp(rec_f, tt)
                - model.coef_short * interp(rec_f, tt - k2)
                - model.coef_long * interp(rec_f, tt - k12)
            )
        )
    )
    est = float(np.max(np.abs(interp(rec_f, tt) - interp(rec_c, tt))))
    mask = rec_f.trace_times >= ctx.window
    sigma_sim = fit_envelope_rate(
        rec_f.trace_times[mask], rec_f.trace_beta2[mask], ctx.window
    )
    sigma_dm = simulate_difference(model, 1.0, horizon=12.0 * ctx.window).rate
    passed = (
        resid <= 3.0 * est
        and sigma_sim is not None
        and abs(sigma_sim - sigma_dm) <= 0.2 * sigma_dm
    )
    return passed, (
        f"difference residual {resid:.2e} vs 3x discretization estimate "
        f"{3.0 * est:.2e}; rate {sigma_sim:.4e} vs model {sigma_dm:.4e} 1/s"
    )


def criterion_5(ctx):
    """Closed-loop nonlinear stabilization beats the open loop."""
    cfg = SimConfig(
        t_final=10.0 * ctx.window,
        N=256,
        loop_mode="closed",
        model="nonlinear",
        ic=ICSpec(eps=0.05),
        record_every=32,
    )
    rec_c = run_nonlinear(cfg, ctx.net)
    rec_o = ctx.open_nonlinear_10w
    hist_c = norms_and_rate(rec_c)
    hist_o = norms_and_rate(rec_o)
    small = rec_c.linf1[-1] < 0.02 and rec_c.linf2[-1] < 0.02
    rates_ok = (
        hist_c.rate is not None and hist_o.rate is not None and hist_c.rate > hist_o.rate
    )
    norms_ok = hist_o.total[-1] > hist_c.total[-1]
    passed = small and rates_ok and norms_ok
    return passed, (
        "closed-loop final deviations %.3f%% / %.3f%%; rates closed %.3e vs open "
        "%.3e 1/s; final norms closed %.3e vs open %.3e"
        % (
            100.0 * rec_c.linf1[-1],
            100.0 * rec_c.linf2[-1],
            hist_c.rate if hist_c.rate is not None else float("nan"),
            hist_o.rate if hist_o.rate is not None else float("nan"),
            hist_c.total[-1],
            hist_o.total[-1],
        )
    )


def _trajectory_gap(ctx, eps):
    cfg = SimConfig(
        t_final=ctx.window,
        N=256,
        loop_mode="open",
        model="nonlinear",
        ic=ICSpec(eps=eps),
        record_every=10**9,
    )
    rec_n = run_nonlinear(cfg, ctx.net)
    rec_l = run_linear(replace(cfg, model="linear"), ctx.net)
    gap2 = 0.0
    for grid, keys in (
        (rec_n.grid1, ("wbar1", "vtil1")),
        (rec_n.grid2, ("wbar2", "vtil2")),
    ):
        for key in keys:
            d = getattr(rec_n, key)[-1] - getattr(rec_l, key)[-1]
            gap2 += float(np.trapezoid(d * d, grid))
    return np.sqrt(gap2)


def criterion_6(ctx):
    """Nonlinear-vs-linear gap shrinks quadratically with the amplitude."""
    g1 = _trajectory_gap(ctx, 0.05)
    g2 = _trajectory_gap(ctx, 0.025)
    ratio = float(g1 / g2)
    passed = 3.4 <= ratio <= 4.6
    return passed, f"gap(0.05) = {g1:.3e}, gap(0.025) = {g2:.3e}, ratio {ratio:.3f}"


def criterion_7(ctx):
    """Vehicle-count accounting in the uncontrolled nonlinear run."""
    rec = ctx.open_nonlinear_10w
    passed = rec.mass_err is not None and rec.mass_err < 1e-10
    return passed, f"worst per-step accounting error {rec.mass_err:.2e} (relative)"


def criterion_8(ctx):
    """Byte-identical CSVs from repeated runs of the same configuration."""
    from .cli import main

    text = "\n".join(
        [
            "[simulation]",
            "cells = 64",
            "t_final = 600 s",
            "loop = closed",
            "model = linear",
            "record_every = 8",
            "",
        ]
    )
    with tempfile.TemporaryDirectory(prefix="stopngo-acc-") as tmp:
        cfg_path = os.path.join(tmp, "run.cfg")
        with open(cfg_path, "w") as f:
            f.write(text)
        outs = []
        for name in ("a", "b"):
            out = os.path.join(tmp, name)
            # the runs' summaries stay off the criterion lines
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(["simulate", "--config", cfg_path, "--out", out])
            if rc != 0:
                return False, f"cmd_simulate exited with {rc}"
            outs.append(out)
        same = []
        for fname in ("states.csv", "norms.csv"):
            blobs = [pathlib.Path(o, fname).read_bytes() for o in outs]
            same.append(blobs[0] == blobs[1])
    passed = all(same)
    return passed, f"states.csv identical = {same[0]}, norms.csv identical = {same[1]}"


CRITERIA = (
    ("steady-state identities", criterion_1),
    ("stability cross-check", criterion_2),
    ("kernel verification", criterion_3),
    ("difference-model mechanism", criterion_4),
    ("simultaneous stabilization", criterion_5),
    ("linearization consistency", criterion_6),
    ("conservation accounting", criterion_7),
    ("determinism", criterion_8),
)


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"criterion {self.index} ({self.name}): {status} "
            f"[{self.detail}] ({self.seconds:.1f} s)"
        )


def run_all(ctx: AcceptanceContext | None = None) -> list[CriterionResult]:
    ctx = ctx or AcceptanceContext()
    results = []
    for idx, (name, fn) in enumerate(CRITERIA, start=1):
        t0 = time.perf_counter()
        try:
            passed, detail = fn(ctx)
        except Exception as exc:  # a crash is a failed criterion, not a crash of the suite
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        res = CriterionResult(idx, name, passed, detail, time.perf_counter() - t0)
        print(res.line)
        results.append(res)
    return results
