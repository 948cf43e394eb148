"""Time-domain simulation of the two-segment network.

Two integrators share the grid and recording conventions: an upwind scheme
for the rescaled linear dynamics and a first-order finite-volume scheme for
the full nonlinear model. Both segments use N+1 nodes with spacing h = L/N;
the junction is the shared node x = 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# control_input stays importable from sim, where callers have looked it up
from .control import FeedbackOperators, TargetState, backstepping_transform, control_input
from .control import trap_weights
from .errors import DomainError, SimulationError
from .kernels import KernelTable
from .model import NetworkParams, equilibrium_velocity, inverse_pressure, pressure
from .riemann import (
    PHYSICAL,
    SCALED,
    FieldState,
    boundary_rows,
    coupling_coefficient,
    physical_arrays,
    scale_factor,
    scale_w,
    to_riemann,
    unscale_w,
)

RHO_FLOOR = 1e-6


@dataclass(frozen=True)
class ICSpec:
    """Sinusoid initial data: rho = rho*(1 + eps sin(2 pi k x/L + phase))."""

    eps: float = 0.05
    k1: int = 1
    k2: int = 1
    phase1: float = 0.0
    phase2: float = 0.0

    def __post_init__(self):
        if self.eps < 0.0:
            raise DomainError(f"amplitude must be nonnegative, got {self.eps}")


@dataclass(frozen=True)
class SimConfig:
    t_final: float
    N: int = 256
    cfl: float = 0.9
    loop_mode: str = "closed"
    model: str = "nonlinear"
    ic: ICSpec = field(default_factory=ICSpec)
    record_every: int = 8

    def __post_init__(self):
        if self.N < 32:
            raise DomainError(f"N must be at least 32, got {self.N}")
        if not 0.0 < self.cfl <= 0.95:
            raise DomainError(f"cfl must lie in (0, 0.95], got {self.cfl}")
        if self.t_final <= 0.0:
            raise DomainError(f"t_final must be positive, got {self.t_final}")
        if self.loop_mode not in ("open", "closed"):
            raise DomainError(f"unknown loop_mode {self.loop_mode!r}")
        if self.model not in ("linear", "nonlinear"):
            raise DomainError(f"unknown model {self.model!r}")
        if self.record_every < 1:
            raise DomainError("record_every must be a positive integer")


@dataclass
class SimRecord:
    """Recorded trajectory; both representations are stored per instant."""

    times: np.ndarray
    grid1: np.ndarray
    grid2: np.ndarray
    rho1: np.ndarray
    v1: np.ndarray
    rho2: np.ndarray
    v2: np.ndarray
    wbar1: np.ndarray
    vtil1: np.ndarray
    wbar2: np.ndarray
    vtil2: np.ndarray
    u0: np.ndarray
    norm1: np.ndarray
    norm2: np.ndarray
    linf1: np.ndarray
    linf2: np.ndarray
    window: float
    n_steps: int
    target: list[TargetState] | None = None
    trace_times: np.ndarray | None = None
    trace_beta2: np.ndarray | None = None
    mass_err: float | None = None

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0.0):
            raise DomainError("recorded times must be strictly increasing")
        if self.norm1.shape != self.times.shape or self.norm2.shape != self.times.shape:
            raise DomainError("norm history length does not match times")


@dataclass
class NormHistory:
    times: np.ndarray
    seg1: np.ndarray
    seg2: np.ndarray
    total: np.ndarray
    window: float
    rate: float | None
    status: str


def initial_condition(ic: ICSpec, net: NetworkParams, N: int):
    """On-equilibrium sinusoid perturbation (v = V(rho) pointwise)."""
    if ic.eps >= 0.5:
        raise DomainError(f"amplitude must be below 0.5, got {ic.eps}")
    L = net.seg1.length
    out = []
    for params, ss, k, phase in (
        (net.seg1, net.ss1, ic.k1, ic.phase1),
        (net.seg2, net.ss2, ic.k2, ic.phase2),
    ):
        lo, hi = params.interval
        x = np.linspace(lo, hi, N + 1)
        rho = ss.rho_star * (1.0 + ic.eps * np.sin(2.0 * np.pi * k * x / L + phase))
        if np.any(rho <= 0.0) or np.any(rho >= params.rho_max):
            raise DomainError("initial density leaves (0, rho_max)")
        out.append(FieldState(x, rho, equilibrium_velocity(rho, params), PHYSICAL))
    return out[0], out[1]


def _l2(grid, a, b) -> float:
    return float(np.sqrt(np.trapezoid(a * a + b * b, grid)))


_STATE_KEYS = ("rho1", "v1", "rho2", "v2", "wbar1", "vtil1", "wbar2", "vtil2")


class _Recorder:
    def __init__(self, net, x1, x2, tables, ops):
        self.net = net
        self.x1, self.x2 = x1, x2
        self.tables, self.ops = tables, ops
        keys = _STATE_KEYS + ("times", "u0", "norm1", "norm2", "linf1", "linf2")
        self.cols = {k: [] for k in keys}
        self.target = [] if tables is not None else None

    def push(self, t, u0, phys1, phys2, riem1, riem2, scaled1, scaled2):
        net, cols = self.net, self.cols
        for k, arr in zip(_STATE_KEYS, (phys1.a, phys1.b, phys2.a, phys2.b,
                                        scaled1.a, scaled1.b, scaled2.a, scaled2.b)):
            cols[k].append(arr.copy())
        cols["times"].append(t)
        cols["u0"].append(u0)
        cols["norm1"].append(_l2(self.x1, scaled1.a, scaled1.b))
        cols["norm2"].append(_l2(self.x2, scaled2.a, scaled2.b))
        for k, phys, ss in (("linf1", phys1, net.ss1), ("linf2", phys2, net.ss2)):
            cols[k].append(max(
                float(np.max(np.abs(phys.a - ss.rho_star))) / ss.rho_star,
                float(np.max(np.abs(phys.b - ss.v_star))) / ss.v_star,
            ))
        if self.target is not None:
            self.target.append(
                backstepping_transform(riem1, riem2, *self.tables, net, self.ops)
            )

    def finish(self, window, n_steps, **extra) -> SimRecord:
        return SimRecord(
            grid1=self.x1,
            grid2=self.x2,
            window=window,
            n_steps=n_steps,
            target=self.target,
            **{k: np.asarray(v) for k, v in self.cols.items()},
            **extra,
        )


def _affine_physical(riem: FieldState, ss, params) -> FieldState:
    # Diagnostic reconstruction for linear snapshots. The linearized state is
    # free to leave the box (0, rho_max) x (0, v_max) transiently, so this
    # applies the affine inverse without the range guard of from_riemann.
    rho, v = physical_arrays(riem.a, riem.b, ss, params)
    return FieldState(riem.grid.copy(), rho, v, PHYSICAL)


def _table_operators(tables, net, x1, x2) -> FeedbackOperators | None:
    """The feedback operators of the table pair on the simulation grids."""
    if tables is None:
        return None
    t1, t2 = tables
    if t1.segment_id != 1 or t2.segment_id != 2:
        raise DomainError("tables must be (segment 1, segment 2)")
    return FeedbackOperators(t1, t2, net, x1, x2)


def run_linear(
    cfg: SimConfig,
    net: NetworkParams,
    tables: tuple[KernelTable, KernelTable] | None = None,
) -> SimRecord:
    """Upwind integration of the rescaled linear dynamics.

    Transport speeds are +v_i* for w-bar and -(gamma_i p_i* - v_i*) for
    v-tilde, with the cross source c_i(x) w-bar_i in the v-tilde equations.
    The closed loop solves the junction row together with the feedback law
    each step, so the target-system junction relation holds exactly. The
    kernel tables act on w-tilde = exp(-x/(tau v*)) w-bar, so that factor is
    folded into the junction rows once and applied to the recorded states.
    """
    closed = cfg.loop_mode == "closed"
    if closed and tables is None:
        raise DomainError("closed-loop linear run requires kernel tables")
    ss1, ss2 = net.ss1, net.ss2
    seg1, seg2 = net.seg1, net.seg2
    N = cfg.N
    L = seg1.length
    h = L / N
    x1 = np.linspace(0.0, L, N + 1)
    x2 = np.linspace(-L, 0.0, N + 1)
    ops = _table_operators(tables, net, x1, x2)

    phys1, phys2 = initial_condition(cfg.ic, net, N)
    s1 = scale_w(to_riemann(phys1, ss1, seg1), ss1, seg1)
    s2 = scale_w(to_riemann(phys2, ss2, seg2), ss2, seg2)
    w1, v1 = s1.a.copy(), s1.b.copy()
    w2, v2 = s2.a.copy(), s2.b.copy()

    c1 = coupling_coefficient(x1, ss1, seg1)
    c2 = coupling_coefficient(x2, ss2, seg2)
    rows = boundary_rows(net)
    speeds = (ss1.lambda_w, ss1.lambda_v, ss2.lambda_w, ss2.lambda_v)
    dt0 = cfg.cfl * h / max(speeds)

    if ops is not None:
        A1w, A1v, A2w, A2v = ops.volterra
        # scale_factor of -x is exp(-x/(tau v*)), the map from w-bar to w-tilde
        k1w0, k1v0 = A1w[0] * scale_factor(-x1, ss1, seg1), A1v[0]
        k2wN, k2vN = A2w[N] * scale_factor(-x2, ss2, seg2), A2v[N]
        # the junction row contains v2[N] inside its own quadrature; solve for it
        denom = 1.0 - k2vN[N]
        trace_t, trace_b2 = [], []
    else:
        trace_t = None

    rec = _Recorder(net, x1, x2, tables, ops)

    def snapshot(t, u0):
        sc1 = FieldState(x1, w1, v1, SCALED)
        sc2 = FieldState(x2, w2, v2, SCALED)
        ri1 = unscale_w(sc1, ss1, seg1)
        ri2 = unscale_w(sc2, ss2, seg2)
        p1 = _affine_physical(ri1, ss1, seg1)
        p2 = _affine_physical(ri2, ss2, seg2)
        rec.push(t, u0, p1, p2, ri1, ri2, sc1, sc2)

    snapshot(0.0, 0.0)
    t, step, u0 = 0.0, 0, 0.0
    while t < cfg.t_final - 1e-9 * dt0:
        dt = min(dt0, cfg.t_final - t)
        nw1, nv1 = ss1.lambda_w * dt / h, ss1.lambda_v * dt / h
        nw2, nv2 = ss2.lambda_w * dt / h, ss2.lambda_v * dt / h
        neww1, newv1 = w1.copy(), v1.copy()
        neww2, newv2 = w2.copy(), v2.copy()
        neww1[1:] = w1[1:] - nw1 * (w1[1:] - w1[:-1])
        newv1[:-1] = v1[:-1] + nv1 * (v1[1:] - v1[:-1]) + dt * c1[:-1] * w1[:-1]
        neww2[1:] = w2[1:] - nw2 * (w2[1:] - w2[:-1])
        newv2[:-1] = v2[:-1] + nv2 * (v2[1:] - v2[:-1]) + dt * c2[:-1] * w2[:-1]

        newv1[-1] = rows.g_outlet * neww1[-1]
        neww2[0] = rows.g_inlet * newv2[0]
        neww1[0] = rows.g_junction_w * neww2[-1]
        rhs0 = rows.g_t * newv1[0] + rows.g_a * neww2[-1]
        if closed:
            i1 = float(k1w0 @ neww1 + k1v0 @ newv1)
            i2p = float(k2wN @ neww2 + k2vN @ newv2) - k2vN[N] * newv2[-1]
            newv2[-1] = (rhs0 + i2p - rows.g_t * i1) / denom
            i2 = i2p + k2vN[N] * newv2[-1]
            u0 = (newv2[-1] - rhs0) / rows.g_control
        else:
            newv2[-1] = rhs0
            u0 = 0.0
        w1, v1, w2, v2 = neww1, newv1, neww2, newv2
        t += dt
        step += 1
        if not (
            np.isfinite(w1).all()
            and np.isfinite(v1).all()
            and np.isfinite(w2).all()
            and np.isfinite(v2).all()
        ):
            raise SimulationError(f"non-finite state at step {step}, t = {t:.3f} s")
        if trace_t is not None:
            if not closed:
                i2 = float(k2wN @ w2 + k2vN @ v2)
            trace_t.append(t)
            trace_b2.append(v2[-1] - i2)
        if step % cfg.record_every == 0 or t >= cfg.t_final - 1e-9 * dt0:
            snapshot(t, u0)

    extra = {}
    if trace_t is not None:
        extra = dict(trace_times=np.asarray(trace_t), trace_beta2=np.asarray(trace_b2))
    return rec.finish(ss1.kappa + ss2.kappa, step, **extra)


def boundary_fluxes(rho1, v1, rho2, v2, u0: float, net: NetworkParams, step: int = 0):
    """Boundary algebra of the nonlinear plant, as (flux, w) at the four ends.

    Returns the pairs for the junction end of segment 1, the outlet, the
    inlet and the junction end of segment 2; each pair fixes the boundary
    state through q = rho v and w = v + p(rho). Only outgoing invariants
    enter: w rides out of segment 2 and v out of segment 1 at the junction,
    where w is continuous and q1 = q2 + U0; the outer boundaries impose flux
    q* on the incoming characteristic and extrapolate the outgoing invariant
    at zeroth order. ``riemann.boundary_rows`` is the Jacobian of this map.
    """
    seg1, seg2 = net.seg1, net.seg2
    q_star = net.ss1.q_star
    w2t = v2[-1] + pressure(rho2[-1], seg2)
    v1t = v1[0]
    if w2t - v1t <= 0.0:
        raise SimulationError(f"junction pressure collapsed at step {step}")
    rho1J = inverse_pressure(w2t - v1t, seg1)
    if not RHO_FLOOR < rho1J < seg1.rho_max:
        raise SimulationError(
            f"junction density {rho1J:.4f} outside (0, rho_max) at step {step}"
        )
    q1J = rho1J * v1t
    q2J = q1J - u0
    if q2J <= 0.0:
        raise SimulationError(
            f"ramp input {u0:.4f} veh/s exceeds the junction flux {q1J:.4f} "
            f"veh/s at step {step}; feasible U_0 < {q1J:.4f}"
        )
    v_in = v2[0]
    rho_g = q_star / v_in
    if rho_g >= seg2.rho_max:
        raise SimulationError(f"inlet ghost density reached rho_max at step {step}")
    w_g = v_in + pressure(rho_g, seg2)
    w_out = v1[-1] + pressure(rho1[-1], seg1)
    return (q1J, w2t), (q_star, w_out), (q_star, w_g), (q2J, w2t)


def run_nonlinear(
    cfg: SimConfig,
    net: NetworkParams,
    tables: tuple[KernelTable, KernelTable] | None = None,
) -> SimRecord:
    """First-order finite-volume integration of the full network.

    Conservative variables (rho, y = rho (v + p)) per segment, local
    Lax-Friedrichs interior fluxes, explicit Euler splitting for the
    relaxation source. Vertex-centered cells: the end cells have width h/2,
    so boundary fluxes act directly on the trace nodes. Junction fluxes are
    built from the outgoing characteristic invariants (w from segment 2,
    v from segment 1) and the flux balance with the ramp input, which keeps
    the per-step mass accounting exact.
    """
    closed = cfg.loop_mode == "closed"
    if closed and tables is None:
        raise DomainError("closed-loop nonlinear run requires kernel tables")
    ss1, ss2 = net.ss1, net.ss2
    seg1, seg2 = net.seg1, net.seg2
    N = cfg.N
    L = seg1.length
    h = L / N
    x1 = np.linspace(0.0, L, N + 1)
    x2 = np.linspace(-L, 0.0, N + 1)
    ops = _table_operators(tables, net, x1, x2)
    wc = trap_weights(N + 1, h)

    phys1, phys2 = initial_condition(cfg.ic, net, N)
    rho1, v1 = phys1.a.copy(), phys1.b.copy()
    rho2, v2 = phys2.a.copy(), phys2.b.copy()
    # one range-checked pressure per segment and step, on the current density;
    # it serves the wave speeds, the relaxation and the velocity update
    p1 = pressure(rho1, seg1)
    p2 = pressure(rho2, seg2)
    y1 = rho1 * (v1 + p1)
    y2 = rho2 * (v2 + p2)

    rec = _Recorder(net, x1, x2, tables, ops)
    mass = float(wc @ rho1 + wc @ rho2)
    mass_err = 0.0

    def record(t, u0):
        ph1 = FieldState(x1, rho1, v1, PHYSICAL)
        ph2 = FieldState(x2, rho2, v2, PHYSICAL)
        ri1 = to_riemann(ph1, ss1, seg1)
        ri2 = to_riemann(ph2, ss2, seg2)
        rec.push(t, u0, ph1, ph2, ri1, ri2, scale_w(ri1, ss1, seg1), scale_w(ri2, ss2, seg2))

    record(0.0, 0.0)

    t, step, u0 = 0.0, 0, 0.0
    while True:
        for label, rho, v in (("segment 1", rho1, v1), ("segment 2", rho2, v2)):
            if np.any(rho <= RHO_FLOOR) or np.any(v <= 0.0):
                raise SimulationError(
                    f"state left the congested regime in {label} at step {step}, "
                    f"t = {t:.3f} s (min rho = {rho.min():.3e}, min v = {v.min():.3e})"
                )
        a1 = np.maximum(np.abs(v1 - seg1.gamma * p1), np.abs(v1))
        a2 = np.maximum(np.abs(v2 - seg2.gamma * p2), np.abs(v2))
        amax = max(float(a1.max()), float(a2.max()))
        if t >= cfg.t_final - 1e-12 * cfg.t_final:
            break
        dt = min(cfg.cfl * (0.5 * h) / amax, cfg.t_final - t)

        u0 = ops.u0_physical(rho1, v1, rho2, v2) if closed else 0.0

        (q1J, w1J), (q_out, w_out), (q_in, w_in), (q2J, w2J) = boundary_fluxes(
            rho1, v1, rho2, v2, u0, net, step
        )

        fluxes = []
        for rho, v, y, aloc, fl, fr_ in (
            (rho1, v1, y1, a1, (q1J, q1J * w1J), (q_out, q_out * w_out)),
            (rho2, v2, y2, a2, (q_in, q_in * w_in), (q2J, q2J * w2J)),
        ):
            q = rho * v
            fy = y * v
            am = np.maximum(aloc[:-1], aloc[1:])
            f_rho = 0.5 * (q[:-1] + q[1:]) - 0.5 * am * (rho[1:] - rho[:-1])
            f_y = 0.5 * (fy[:-1] + fy[1:]) - 0.5 * am * (y[1:] - y[:-1])
            fluxes.append((f_rho, f_y, fl, fr_))

        for (rho, y), (f_rho, f_y, fl, fr_) in zip(
            ((rho1, y1), (rho2, y2)), fluxes
        ):
            rho[0] -= dt * (f_rho[0] - fl[0]) / (0.5 * h)
            rho[1:-1] -= dt * (f_rho[1:] - f_rho[:-1]) / h
            rho[-1] -= dt * (fr_[0] - f_rho[-1]) / (0.5 * h)
            y[0] -= dt * (f_y[0] - fl[1]) / (0.5 * h)
            y[1:-1] -= dt * (f_y[1:] - f_y[:-1]) / h
            y[-1] -= dt * (fr_[1] - f_y[-1]) / (0.5 * h)

        # relaxation on the post-flux state; y carries the whole source and
        # rho is left alone, so p stays valid for v and the next wave speeds
        p1 = pressure(rho1, seg1)
        p2 = pressure(rho2, seg2)
        for rho, y, p, params in ((rho1, y1, p1, seg1), (rho2, y2, p2, seg2)):
            v_rel = y / rho - p
            y += dt * (-rho * (v_rel - (params.v_max - p)) / params.tau)

        v1 = y1 / rho1 - p1
        v2 = y2 / rho2 - p2
        t += dt
        step += 1
        if not (np.isfinite(rho1).all() and np.isfinite(y1).all()
                and np.isfinite(rho2).all() and np.isfinite(y2).all()):
            raise SimulationError(f"non-finite state at step {step}, t = {t:.3f} s")

        new_mass = float(wc @ rho1 + wc @ rho2)
        mass_err = max(mass_err, abs((new_mass - mass) - dt * u0) / new_mass)
        mass = new_mass
        if step % cfg.record_every == 0 or t >= cfg.t_final - 1e-12 * cfg.t_final:
            record(t, u0)

    return rec.finish(ss1.kappa + ss2.kappa, step, mass_err=mass_err)


def norms_and_rate(record) -> NormHistory:
    """Norm history plus a decay rate fitted on the windowed peak envelope.

    The rate is positive for decay (the envelope behaves like e^{-rate t}).
    A trajectory already at round-off level is reported as converged with no
    fit attempted.
    """
    from .stability import fit_envelope_rate

    times = np.asarray(record.times, dtype=float)
    if times.size < 10:
        raise DomainError(f"need at least 10 recorded times, got {times.size}")
    n1 = np.asarray(record.norm1, dtype=float)
    n2 = np.asarray(record.norm2, dtype=float)
    total = np.sqrt(n1 * n1 + n2 * n2)
    window = float(record.window)
    if float(total.max()) < 1e-14:
        return NormHistory(times, n1, n2, total, window, None, "converged")
    rate = fit_envelope_rate(times, total, window)
    return NormHistory(times, n1, n2, total, window, rate, "ok")


def export_states_csv(record: SimRecord, path):
    cols = (
        ("rho1", "v1", "wbar1", "vtil1"),
        ("rho2", "v2", "wbar2", "vtil2"),
    )
    with open(path, "w") as f:
        f.write("time,x,segment,rho,v,wbar,vtil,U0\n")
        for i, t in enumerate(record.times):
            for seg, grid in ((1, record.grid1), (2, record.grid2)):
                rho, v, wb, vt = (getattr(record, c)[i] for c in cols[seg - 1])
                u = record.u0[i]
                for j in range(grid.size):
                    f.write(
                        "%.17g,%.17g,%d,%.17g,%.17g,%.17g,%.17g,%.17g\n"
                        % (t, grid[j], seg, rho[j], v[j], wb[j], vt[j], u)
                    )


def export_norms_csv(record: SimRecord, path):
    n1, n2 = record.norm1, record.norm2
    total = np.sqrt(n1 * n1 + n2 * n2)
    with open(path, "w") as f:
        f.write("time,norm_seg1,norm_seg2,total\n")
        for i, t in enumerate(record.times):
            f.write("%.17g,%.17g,%.17g,%.17g\n" % (t, n1[i], n2[i], total[i]))
