"""Time-domain simulation of the two-segment network.

Two integrators share the grid and recording conventions: an upwind scheme
for the rescaled linear dynamics and a first-order finite-volume scheme for
the full nonlinear model. Both segments use N+1 nodes with spacing h = L/N;
the junction is the shared node x = 0.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

# the runners call the law, the transform and the maps through this module's
# names, so a wrapper installed on them sees every call
from .control import FeedbackOperators, TargetState, backstepping_transform, control_input
from .control import trap_weights
from .errors import DomainError, SimulationError
from .model import NetworkParams, equilibrium_velocity, pressure, pressure_law, stacked
from .riemann import (
    boundary_rows,
    coupling_coefficient,
    physical_arrays,
    scale_factor,
    scale_w,
    to_riemann,
)
from .stability import fit_envelope_rate

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
        if not 0.0 <= self.eps < math.inf:
            raise DomainError(f"amplitude must be nonnegative and finite, got {self.eps}")
        for name in ("k1", "k2", "phase1", "phase2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")


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
        if not isinstance(self.N, numbers.Integral) or self.N < 32:
            raise DomainError(f"N must be an integer of at least 32, got {self.N}")
        if not 0.0 < self.cfl <= 0.95:
            raise DomainError(f"cfl must lie in (0, 0.95], got {self.cfl}")
        if not 0.0 < self.t_final < math.inf:
            raise DomainError(f"t_final must be positive and finite, got {self.t_final}")
        if self.loop_mode not in ("open", "closed"):
            raise DomainError(f"unknown loop_mode {self.loop_mode!r}")
        if self.model not in ("linear", "nonlinear"):
            raise DomainError(f"unknown model {self.model!r}")
        if not isinstance(self.record_every, numbers.Integral) or self.record_every < 1:
            raise DomainError(f"record_every must be a positive integer, got {self.record_every}")


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
    """On-equilibrium sinusoid perturbation (v = V(rho) pointwise), as
    (rho, v) rows on the N+1 nodes of each segment. Both steppers start
    from it, and they share one grid spacing, so it refuses segments of
    unequal length."""
    if ic.eps >= 0.5:
        raise DomainError(f"amplitude must be below 0.5, got {ic.eps}")
    L = net.seg1.length
    if net.seg2.length != L:
        raise DomainError(f"the steppers need segments of equal length, got "
                          f"{L} m and {net.seg2.length} m")
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
        out.append((rho, equilibrium_velocity(rho, params)))
    return out[0], out[1]


class _Recorder:
    """Keeps t, U0 and one copy of the stepper's rows per record: (rho, v) per
    segment when ``physical``, (w-bar, v-tilde) otherwise. ``finish`` stacks
    them into one (K, 2, 2, N+1) batch and derives the other representations,
    the norms and, given feedback operators, the target states from it once
    per run.
    """

    def __init__(self, net, x1, x2, ops, physical):
        self.net, self.physical, self.x1, self.x2, self.ops = net, physical, x1, x2, ops
        self.times, self.u0, self.states = [], [], []

    def push(self, t, u0, state):
        self.times.append(t)
        self.u0.append(u0)
        self.states.append(state)

    def finish(self, window, n_steps, **extra) -> SimRecord:
        net = self.net
        batch = np.stack(self.states).reshape(len(self.states), 2, 2, -1)
        self.states = None  # the batch is the only copy from here on
        fields, riem = {}, []
        # (K, N+1) blocks with scalar parameters: each record gets the bits
        # that deriving it on its own would give
        segments = ((self.x1, net.ss1, net.seg1), (self.x2, net.ss2, net.seg2))
        for i, (x, ss, params) in enumerate(segments):
            a, b = batch[:, i, 0], batch[:, i, 1]
            if self.physical:
                rho, v = a, b
                wt, vt = to_riemann(rho, v, ss, params)
                wbar = scale_w(x, wt, ss, params)
            else:
                wbar, vt = a, b
                wt = scale_factor(-x, ss, params) * wbar  # exp(-x/(tau v*)) w-bar
                # no range guard: the linearized state may leave the physical box
                rho, v = physical_arrays(wt, vt, ss, params)
            riem += wt, vt
            n = str(i + 1)
            fields["rho" + n], fields["v" + n] = rho, v
            fields["wbar" + n], fields["vtil" + n] = wbar, vt
            fields["norm" + n] = np.sqrt(np.trapezoid(wbar * wbar + vt * vt, x))
            fields["linf" + n] = np.maximum(
                np.abs(rho - ss.rho_star).max(axis=-1) / ss.rho_star,
                np.abs(v - ss.v_star).max(axis=-1) / ss.v_star,
            )
        target = None if self.ops is None else backstepping_transform(self.ops, *riem)
        return SimRecord(times=np.asarray(self.times), grid1=self.x1, grid2=self.x2,
                         u0=np.asarray(self.u0), window=window, n_steps=n_steps,
                         target=target, **fields, **extra)


def run_linear(cfg: SimConfig, net: NetworkParams, tables=None) -> SimRecord:
    """Upwind integration of the rescaled linear dynamics.

    Transport speeds are +v_i* for w-bar and -(gamma_i p_i* - v_i*) for
    v-tilde, with the cross source c_i(x) w-bar_i in the v-tilde equations.
    The closed loop solves the junction row together with the feedback law
    each step, so the target-system junction relation holds exactly. The
    kernels act on w-tilde = exp(-x/(tau v*)) w-bar, so that factor is
    folded into the junction rows once and applied to the recorded states.

    The state is one flat array w-bar_1 | w-bar_2 | v-tilde_1 | v-tilde_2,
    updated in place. One forward difference over it serves all four rows,
    with per-node coefficient rows built once per step length; the v-tilde
    block, which reads the old w-bar, steps before the w-bar block. The
    boundary rows then overwrite the nodes where a difference spans two
    rows, and one finiteness check covers the whole state.

    ``tables`` is ignored: the gains are the network's kernel constants. It
    stays only for the benchmark harness, which passes kernel tables, and
    goes with the next change to that harness.
    """
    ss1, ss2, seg1, seg2 = net.ss1, net.ss2, net.seg1, net.seg2
    N = cfg.N
    M = N + 1  # nodes per row; node j of row r sits at r M + j
    L = seg1.length
    h = L / N
    x1, x2 = np.linspace(0.0, L, M), np.linspace(-L, 0.0, M)
    ops = FeedbackOperators(net, x1, x2) if cfg.loop_mode == "closed" else None
    closed = ops is not None

    (rho1, vel1), (rho2, vel2) = initial_condition(cfg.ic, net, N)
    S = np.empty(4 * M)
    last = 4 * M - 1  # v-tilde_2(0), the junction trace
    # the slices a step uses, taken once: the rows, the two ends of the
    # differences, the w-bar nodes a step writes and reads, and the v-tilde
    # nodes it writes
    w1, w2, v1, v2 = S[:M], S[M : 2 * M], S[2 * M : 3 * M], S[3 * M :]
    S_tail, S_head = S[1:], S[:-1]
    S_w1, S_w, S_v = S[1 : 2 * M], S[: 2 * M - 1], S[2 * M : last]
    D = np.empty(last)  # forward differences, then the products of a step
    Dw, Dv = D[: 2 * M - 1], D[2 * M :]
    # the transport speeds in one row laid out as D: entry i serves node
    # 1 + i of the w-bar block, entry 2M + i node i of the v-tilde block, and
    # the entry between the blocks is 0. Entry i of c_i(x) serves node i of
    # the v-tilde block
    speeds = np.concatenate((np.repeat([ss1.lambda_w, ss2.lambda_w], (M - 1, M)), [0.0],
                             np.repeat([ss1.lambda_v, ss2.lambda_v], (M - 1, M))))
    c = np.concatenate((coupling_coefficient(x1, ss1, seg1),
                        coupling_coefficient(x2, ss2, seg2)[:-1]))
    rows = boundary_rows(net)
    g_outlet, g_inlet, g_jw, g_t, g_a = (rows.g_outlet, rows.g_inlet, rows.g_junction_w,
                                         rows.g_t, rows.g_a)
    dt0 = cfg.cfl * h / max(ss1.lambda_w, ss1.lambda_v, ss2.lambda_w, ss2.lambda_v)
    t_stop = cfg.t_final - 1e-9 * dt0

    if closed:
        # the junction rows j_i of the transform act on w-tilde and on minus
        # v-tilde; scale_factor of -x is exp(-x/(tau v*)), the map from w-bar
        # to w-tilde
        kw1, kw2 = ops.j * np.stack((scale_factor(-x1, ss1, seg1), scale_factor(-x2, ss2, seg2)))
        kv1, kv2 = -ops.j
        # the junction row contains v2[N] inside its own quadrature; solve for it
        kv2N = kv2.item(N)
        denom = 1.0 - kv2N
        trace_t, trace_b2 = [], []

    rec = _Recorder(net, x1, x2, ops, physical=False)
    zeros = np.zeros(4 * M)  # S.dot(zeros) is finite exactly when S is, as in run_nonlinear

    def snapshot(t, u0):  # the recorder takes (w-bar, v-tilde) per segment
        rec.push(t, u0, S.reshape(2, 2, M).swapaxes(0, 1).copy())

    # a non-finite initial state makes NaNs from its Riemann map on, on its
    # way to the finiteness check at the end of the first step, which names it
    with np.errstate(invalid="ignore"):
        wt1, vt1 = to_riemann(rho1, vel1, ss1, seg1)
        wt2, vt2 = to_riemann(rho2, vel2, ss2, seg2)
        w1[:], w2[:], v1[:], v2[:] = scale_w(x1, wt1, ss1, seg1), scale_w(x2, wt2, ss2, seg2), vt1, vt2
        snapshot(0.0, 0.0)
        t, step, u0, dt_coef = 0.0, 0, 0.0, None
        while t < t_stop:
            dt = min(dt0, cfg.t_final - t)
            if dt != dt_coef:  # the first step, and a shorter last one
                NC, DTC, dt_coef = speeds * dt / h, dt * c, dt
            # v-tilde: (S + NV D) + DTC w-bar on [2M:4M-1], then w-bar:
            # S[1:2M] - NW D, the evaluation order of one row at a time
            np.subtract(S_tail, S_head, out=D)
            D *= NC  # NW D on the w-bar block, NV D on the v-tilde block
            S_v += Dv
            np.multiply(DTC, S_w, out=Dv)
            S_v += Dv
            S_w1 -= Dw

            S[3 * M - 1] = g_outlet * S.item(M - 1)
            S[M] = g_inlet * S.item(3 * M)
            S[0] = g_jw * S.item(2 * M - 1)
            rhs0 = g_t * S.item(2 * M) + g_a * S.item(2 * M - 1)
            if closed:
                # the quadrature sees the old v-tilde_2(0), whose term is taken out
                v2_old = S.item(last)
                i1 = float(kw1.dot(w1) + kv1.dot(v1))
                i2p = float(kw2.dot(w2) + kv2.dot(v2)) - kv2N * v2_old
                S[last] = vJ = (rhs0 + i2p - g_t * i1) / denom
                i2 = i2p + kv2N * vJ
                u0 = (vJ - rhs0) / rows.g_control
            else:
                S[last] = rhs0
            t += dt
            step += 1
            if not math.isfinite(S.dot(zeros)):
                raise SimulationError(f"non-finite state at step {step}, t = {t:.3f} s")
            if closed:
                trace_t.append(t)
                trace_b2.append(vJ - i2)
            if step % cfg.record_every == 0 or t >= t_stop:
                snapshot(t, u0)

    extra = dict(trace_times=np.asarray(trace_t),
                 trace_beta2=np.asarray(trace_b2)) if closed else {}
    return rec.finish(ss1.kappa + ss2.kappa, step, **extra)


def boundary_algebra(net: NetworkParams):
    """Boundary algebra of the nonlinear plant, with the parameters read once
    per run: a function of the four outgoing invariants (floats v1 at the
    junction, w1 at the outlet, v2 at the inlet, w2 at the junction), U0 and
    the step its errors name. It returns (flux, w) at the junction end of
    segment 1, the outlet, the inlet and the junction end of segment 2, each
    fixing a boundary state through q = rho v and w = v + p(rho): w is
    continuous and q1 = q2 + U0 at the junction, and the outer ends impose q*
    and extrapolate the outgoing invariant. ``riemann.boundary_rows`` is its
    Jacobian. The junction density inverts the pressure unguarded, as its
    argument is positive or NaN after the collapse check; only the inlet
    ghost evaluates a pressure, with pressure()'s float arithmetic and guard.
    """
    q_star, v_max, rho_max1, rho_max2 = (net.ss1.q_star, net.seg1.v_max,
                                         net.seg1.rho_max, net.seg2.rho_max)
    coeff2, gamma2, inv_gamma1 = net.seg2.pressure_coeff, net.seg2.gamma, 1.0 / net.seg1.gamma

    def fluxes(v1J, w1_out, v_in, w2J, u0, step):
        # a NaN fails every comparison and passes, to the stepper's finiteness check
        if w2J - v1J <= 0.0:
            raise SimulationError(f"junction pressure collapsed at step {step}")
        rho1J = rho_max1 * ((w2J - v1J) / v_max) ** inv_gamma1
        if rho1J <= RHO_FLOOR or rho1J >= rho_max1:
            raise SimulationError(f"junction density {rho1J:.4f} outside (0, rho_max) "
                                  f"at step {step}")
        q1J = rho1J * v1J
        q2J = q1J - u0
        if q2J <= 0.0:
            raise SimulationError(f"ramp input {u0:.4f} veh/s exceeds the junction flux "
                                  f"{q1J:.4f} veh/s at step {step}; feasible U_0 < {q1J:.4f}")
        # a stopped inlet asks for an infinite ghost density, as q*/0 is in numpy
        rho_g = q_star / v_in if v_in else math.copysign(math.inf, v_in)
        if rho_g >= rho_max2:
            raise SimulationError(f"inlet ghost density reached rho_max at step {step}")
        if rho_g < 0.0:
            raise DomainError(f"density outside [0, {rho_max2}]")
        return (q1J, w2J), (q_star, w1_out), (q_star, v_in + coeff2 * rho_g**gamma2), (q2J, w2J)

    return fluxes


def run_nonlinear(cfg: SimConfig, net: NetworkParams, tables=None) -> SimRecord:
    """First-order finite-volume integration of the full network.

    Conservative variables (rho, y = rho (v + p)) per segment, local
    Lax-Friedrichs interior fluxes, explicit Euler splitting for the
    relaxation source. Vertex-centered cells: the end cells have width h/2,
    so boundary fluxes act directly on the trace nodes. Junction fluxes are
    built from the outgoing characteristic invariants (w from segment 2,
    v from segment 1) and the flux balance with the ramp input, which keeps
    the per-step mass accounting exact.

    The step is dt = cfl h / amax, the full cells' CFL step, as in
    run_linear. The four end half-cells take it as two half steps (local
    time stepping, Osher & Sanders, Math. Comp. 41, 1983): the first from
    the fluxes at t^n, the second from the boundary algebra on the half-step
    end states and the Lax-Friedrichs flux between each of them and its
    neighbour, held at t^n. The end interfaces and the boundaries then carry
    the mean of the two stages' fluxes over the whole step, so both sides
    of an end interface see the same flux and the scheme stays conservative.

    Both segments step as one stacked state: U[0] is rho and U[1] is y, one
    row per segment, and the segment parameters are full rows or (2, 2)
    blocks, so each stage of a step is one set of array calls for the whole
    network. The stages write into work buffers allocated once per run. The
    flux stage runs on the four rows of U laid end to end, with the left
    boundary fluxes in a padded interface array, so the end and interior node
    updates are one difference over the cell widths.

    ``tables`` is ignored, as in run_linear.
    """
    ss1, ss2, seg1, seg2 = net.ss1, net.ss2, net.seg1, net.seg2
    N = cfg.N
    M = N + 1  # nodes per segment
    L = seg1.length
    h = L / N
    x1, x2 = np.linspace(0.0, L, M), np.linspace(-L, 0.0, M)
    ops = FeedbackOperators(net, x1, x2) if cfg.loop_mode == "closed" else None
    closed = ops is not None
    wc = trap_weights(M, h)  # also the cell widths: h/2 at the ends, h inside

    segs = (seg1, seg2)
    # full rows of the parameters, which numpy reads faster than it
    # broadcasts a column: rows of M for the state and (2, 2) blocks for the
    # end densities. On both shapes numpy's power is its general one at
    # every exponent (see pressure_law), so the state and its end block take
    # the same power
    coeff, gamma = stacked(net, 2, "pressure_coeff", "gamma")
    coeff_n, gamma_n, rho_max, tau = stacked(net, M, "pressure_coeff", "gamma", "rho_max", "tau")
    v_max = seg1.v_max  # NetworkParams requires both segments to share it

    def stacked_pressure(R, in_range, c, g):
        # in_range is the caller's one range check over both rows; a density
        # out of range, or a NaN, which fails every comparison, is checked
        # again row by row, so the error names that segment's rho_max
        if not in_range:
            for rho, params in zip(R, segs):
                pressure(rho, params)
        return pressure_law(R, c, g)

    def congested(R, V, rmin, t):
        # a NaN fails both comparisons and is looked at row by row, which
        # raises exactly where (R <= RHO_FLOOR).any() or (V <= 0).any() would.
        # argmin, like argmax, returns the first NaN, so V.item(V.argmin()) is
        # the minimum or a NaN exactly where the minimum is one
        if not (rmin > RHO_FLOOR and V.item(V.argmin()) > 0.0):
            for label, rho, v in zip(("segment 1", "segment 2"), R, V):
                if (rho <= RHO_FLOOR).any() or (v <= 0.0).any():
                    raise SimulationError(
                        f"state left the congested regime in {label} at step {step}, "
                        f"t = {t:.3f} s (min rho = {rho.min():.3e}, min v = {v.min():.3e})"
                    )

    def boundary(v1J, w1_out, v_in, w2J, u0):
        # the algebra's fluxes of rho, then of y, at the four end pairs
        (q1J, w1J), (q_out, w_out), (q_in, w_in), (q2J, w2J) = fluxes(
            v1J, w1_out, v_in, w2J, u0, step)
        return q1J, q_out, q_in, q2J, q1J * w1J, q_out * w_out, q_in * w_in, q2J * w2J

    # Work buffers, overwritten every step, and the views a step reads,
    # taken once. The flux stage runs on flat views of U's four rows (rho
    # then y, segment 1 then 2) laid end to end, because numpy makes one
    # contiguous pass much faster than four row slices or a broadcast. Row
    # r, node j sits at r M + j. In the padded interface array Fp, the flux
    # between nodes j and j + 1 of row r sits at r M + 1 + j and the left
    # boundary flux of row r at r M, over the junk that the flat pass leaves
    # between two rows. The right boundary fluxes have no slot; they are
    # written into the differences at r M + N directly. U, F, the wave
    # speeds A and Fp share one buffer, so that one read gathers every value
    # the end half-cells take from them. The rho and y rows share the wave
    # speeds, so the larger speed am of two neighbours is taken once over
    # A's 2M entries and scales the rho and the y halves of the differences
    work = np.empty(14 * M)
    U, F = (work[i * 4 * M : (i + 1) * 4 * M].reshape(2, 2, M) for i in range(2))
    A, Fp = work[8 * M : 10 * M].reshape(2, M), work[10 * M :]
    Uf, Ff, Af = U.reshape(-1), F.reshape(-1), A.reshape(-1)
    Rf, Yf, F_rho, F_y, F0 = Uf[: 2 * M], Uf[2 * M :], Ff[: 2 * M], Ff[2 * M :], F[0]
    flux, Fp_head, U_tail, U_head, F_tail, F_head = Fp[1:], Fp[:-1], Uf[1:], Uf[:-1], Ff[1:], Ff[:-1]
    A_tail, A_head, right = Af[1:], Af[:-1], slice(N, None, M)
    am, dU = np.empty(2 * M - 1), np.empty(4 * M - 1)
    dU_rho, dU_y = dU[: 2 * M - 1], dU[2 * M :]
    width = np.tile(wc, 4)
    rel = np.empty((2, M))
    over = np.empty((2, M), dtype=bool)

    # The end half-cells, as four (segment, end) pairs: segment 1 at the
    # junction and the outlet, segment 2 at the inlet and the junction. A
    # pair's rho node is i M + e N for segment i + 1 and end e (0 left, 1
    # right), its y node 2M further on; its neighbour is one node inwards,
    # and its end-interface flux slot in Fp sits on the inner side. side is
    # s = +1 at a left end and -1 at a right end. One read of `work` gathers,
    # at t^n after the flat flux pass, five lists of eight entries, the four
    # pairs' rho and then their y: the end values, their interface fluxes,
    # the neighbours' values and their fluxes, and the neighbours' wave
    # speeds, which rho and y share
    pairs = [(i, e) for i in (0, 1) for e in (0, 1)]
    nodes = [i * M + e * N for i, e in pairs]
    inner = [n + 1 - 2 * e for n, (_, e) in zip(nodes, pairs)]
    slots = [n + 1 - e for n, (_, e) in zip(nodes, pairs)]
    gather = np.array([[base + q * 2 * M + n for q in (0, 1) for n in idx]
                       for base, idx in ((0, nodes), (10 * M, slots), (0, inner), (4 * M, inner))]
                      + [[8 * M + n for n in inner] * 2])
    # the mean fluxes go to the end-interface slots and the left boundary slots
    scatter = np.array([q * 2 * M + n for q in (0, 1) for n in slots] + [r * M for r in range(4)])
    sides, gammas = [1.0 - 2.0 * e for _, e in pairs] * 2, [segs[i].gamma for i, _ in pairs]
    rho_max1, rho_max2 = seg1.rho_max, seg2.rho_max
    Uh = np.empty((2, 2, 2))  # the half-step end states, [rho or y, segment, end]
    Uh_flat, Rh = Uh.reshape(-1), Uh[0]

    (rho1, v1), (rho2, v2) = initial_condition(cfg.ic, net, N)
    R, Y = U  # views: R[i] and Y[i] belong to segment i + 1
    R0, R1 = R
    R[:] = rho1, rho2
    V = np.stack((v1, v2))
    Vf = V.reshape(-1)
    # one range-checked pressure per step, on the current density; it serves
    # the wave speeds, the boundary invariants w and the velocity update. The
    # relaxation leaves rho alone, so one minimum of R per step serves the
    # range check and the next step's regime check
    rmin = Rf.item(Rf.argmin())
    P = stacked_pressure(R, rmin >= 0.0 and not (R > rho_max).any(), coeff_n, gamma_n)
    Y[:] = R * (V + P)

    fluxes = boundary_algebra(net)
    rec = _Recorder(net, x1, x2, ops, physical=True)
    mass = float(wc.dot(R0) + wc.dot(R1))
    mass_err = 0.0

    def record(t, u0):
        rec.push(t, u0, np.concatenate((R, V), axis=1))  # a row per segment: rho, v

    record(0.0, 0.0)

    t, step, u0 = 0.0, 0, 0.0
    t_end, cfl_h, every = cfg.t_final - 1e-12 * cfg.t_final, cfg.cfl * h, cfg.record_every
    # a non-finite state makes NaNs on its way to the finiteness check at
    # the end of the step, which names it. That check is U's dot with zeros:
    # 0 inf and NaN are NaN, so the dot is finite exactly when U is
    zeros = np.zeros(4 * M)
    with np.errstate(invalid="ignore"):
        while True:
            congested(R, V, rmin, t)
            # A = max(|V - gamma P|, V) = max(gamma P - V, V), since V > 0 was
            # checked above and gamma P >= 0: where V - gamma P is positive it
            # is below V, and fl(gamma P - V) is -fl(V - gamma P) everywhere
            np.multiply(gamma_n, P, out=A)
            np.subtract(Af, Vf, out=Af)
            np.maximum(Af, Vf, out=Af)
            amax = Af.item(Af.argmax())
            if t >= t_end:
                break
            dt = min(cfl_h / amax, cfg.t_final - t)

            np.multiply(Rf, Vf, out=F_rho)  # rho v and y v; the law reads F[0] and V
            np.multiply(Yf, Vf, out=F_y)
            u0 = control_input(ops, F0, V) if closed else 0.0
            # the outgoing invariants at flat indices i M + j, w from this step's P
            bn = boundary(Vf.item(0), Vf.item(N) + P.item(N), Vf.item(M),
                          Vf.item(M + N) + P.item(M + N), u0)

            # Lax-Friedrichs: 0.5 (F_j + F_j+1 - am (U_j+1 - U_j)), with am
            # the larger wave speed of the two nodes. Scaling by 0.5 is exact,
            # so halving the difference once gives the bits of halving each term
            np.add(F_head, F_tail, out=flux)
            np.maximum(A_head, A_tail, out=am)
            np.subtract(U_tail, U_head, out=dU)
            dU_rho *= am
            dU_y *= am
            flux -= dU
            flux *= 0.5

            # The end half-cells, in floats, eight entries per list: the four
            # pairs' rho, then their y. The first half step is
            # U_e - (dt/h) s (F_if - F_bnd), and its pressure is the stacked
            # law on the (2, 2) block of end densities. A NaN fails every
            # check here and goes on to the finiteness check
            ce, fe, cn, fn, an = work[gather].tolist()
            k = dt / h
            ch = [c - (f - b) * s * k for c, f, b, s in zip(ce, fe, bn, sides)]
            Uh_flat[:] = ch
            rj1, rout, rin, rj2 = ch[:4]
            Ph = stacked_pressure(Rh, 0.0 <= rj1 <= rho_max1 and 0.0 <= rout <= rho_max1
                                  and 0.0 <= rin <= rho_max2 and 0.0 <= rj2 <= rho_max2,
                                  coeff, gamma)
            if not (rj1 > RHO_FLOOR and rout > RHO_FLOOR and rin > RHO_FLOOR and rj2 > RHO_FLOOR):
                # the regime check before a float division by a zero density;
                # v is numpy's quotient, as for the whole state
                congested(Rh, Uh[1] / Rh - Ph, Rh.min(), t + 0.5 * dt)
            pa, pb = Ph.tolist()
            ph = pa + pb
            # per pair, the half-step velocity and the larger wave speed at the
            # end interface, then the mean of the two stages' interface fluxes,
            # the second being the Lax-Friedrichs flux between the half-step
            # end state and its neighbour at t^n, 0.5 (c v + f_n - am s (c_n - c)),
            # halved once as in the flat pass
            vh, mr, my = [], [], []
            for r, y, p, gam, a_n, fr, fy, rn, yn, frn, fyn, s in zip(
                    ch, ch[4:], ph, gammas, an, fe, fe[4:], cn, cn[4:], fn, fn[4:], sides):
                v = y / r - p
                a = abs(v - gam * p)
                a = a if a > v else v  # max(|v - gamma p|, v), as for the whole state
                a = a if a > a_n else a_n
                vh.append(v)
                mr.append((fr + (r * v + frn - (rn - r) * s * a) * 0.5) * 0.5)
                my.append((fy + (y * v + fyn - (yn - y) * s * a) * 0.5) * 0.5)
            vj1, vout, vin, vj2 = vh
            if not (vj1 > 0.0 and vout > 0.0 and vin > 0.0 and vj2 > 0.0):
                congested(Rh, np.reshape(vh, (2, 2)), Rh.min(), t + 0.5 * dt)
            # the boundaries carry the mean of the algebra's fluxes at t^n
            # and on the half-step invariants
            bh = boundary(vj1, vout + ph[1], vin, vj2 + ph[3], u0)

            # U -= dt (flux out - flux in) / width at every node, the ends included
            Fp[scatter] = mr + my + [(bn[0] + bh[0]) * 0.5, (bn[2] + bh[2]) * 0.5,
                                     (bn[4] + bh[4]) * 0.5, (bn[6] + bh[6]) * 0.5]
            np.subtract(flux, Fp_head, out=F_head)
            Ff[right] = ((bn[1] + bh[1]) * 0.5 - mr[1], (bn[3] + bh[3]) * 0.5 - mr[3],
                         (bn[5] + bh[5]) * 0.5 - my[1], (bn[7] + bh[7]) * 0.5 - my[3])
            Ff *= dt
            Ff /= width
            Uf -= Ff

            # relaxation on the post-flux state. Its source -R (v - V(R))/tau
            # is -(Y - R v_max)/tau, as V = v_max - p: the pressure cancels. y
            # carries the whole source and rho is left alone, so P, evaluated
            # on the post-flux density, stays valid for V and the next wave
            # speeds
            rmin = Rf.item(Rf.argmin())
            P = stacked_pressure(R, rmin >= 0.0 and not np.count_nonzero(
                np.greater(R, rho_max, out=over)), coeff_n, gamma_n)
            np.multiply(R, v_max, out=rel)
            np.subtract(Y, rel, out=rel)
            rel /= tau
            rel *= dt
            Y -= rel

            np.divide(Y, R, out=V)
            V -= P
            t += dt
            step += 1
            if not math.isfinite(Uf.dot(zeros)):
                raise SimulationError(f"non-finite state at step {step}, t = {t:.3f} s")

            # two 1-D dot products, not R @ wc, to keep the summation order
            new_mass = float(wc.dot(R0) + wc.dot(R1))
            mass_err = max(mass_err, abs((new_mass - mass) - dt * u0) / new_mass)
            mass = new_mass
            if step % every == 0 or t >= t_end:
                record(t, u0)

    return rec.finish(ss1.kappa + ss2.kappa, step, mass_err=mass_err)


def norms_and_rate(record) -> NormHistory:
    """Norm history plus a decay rate fitted on the windowed peak envelope.

    The rate is positive for decay (the envelope behaves like e^{-rate t}).
    A trajectory already at round-off level is reported as converged with no
    fit attempted.
    """
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
    """One line per record and grid node: time,x,segment,rho,v,wbar,vtil,U0.

    Each node's "x,segment," is formatted once per run and each record's
    time and U0 once per record. Each segment of a record is one block: the
    row template repeated once per node, filled by a single % from the
    interleaved (node, rho, v, wbar, vtil) values, and written as one string,
    so the file is never held in memory whole.
    """
    segments = []
    for seg, grid, keys in (
        (1, record.grid1, ("rho1", "v1", "wbar1", "vtil1")),
        (2, record.grid2, ("rho2", "v2", "wbar2", "vtil2")),
    ):
        nodes = ["%.17g,%d," % (x, seg) for x in grid.tolist()]
        segments.append((nodes, [getattr(record, k) for k in keys]))
    with open(path, "w") as f:
        f.write("time,x,segment,rho,v,wbar,vtil,U0\n")
        for i, (t, u) in enumerate(zip(record.times.tolist(), record.u0.tolist())):
            # the formatted floats hold no "%", so the row template stays valid
            row = "%.17g,%%s%%.17g,%%.17g,%%.17g,%%.17g,%.17g\n" % (t, u)
            for nodes, cols in segments:
                values = chain.from_iterable(zip(nodes, *(c[i].tolist() for c in cols)))
                f.write(row * len(nodes) % tuple(values))


def export_norms_csv(record: SimRecord, path):
    n1, n2 = record.norm1, record.norm2
    total = np.sqrt(n1 * n1 + n2 * n2)
    with open(path, "w") as f:
        f.write("time,norm_seg1,norm_seg2,total\n")
        for i, t in enumerate(record.times):
            f.write("%.17g,%.17g,%.17g,%.17g\n" % (t, n1[i], n2[i], total[i]))
