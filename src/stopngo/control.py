"""Backstepping state transformation and the ramp-metering feedback law."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernels import kernel_constant
from .model import NetworkParams
from .riemann import boundary_rows, riemann_law_params, scale_factor


@dataclass
class TargetState:
    grid1: np.ndarray
    grid2: np.ndarray
    alpha1: np.ndarray
    beta1: np.ndarray
    alpha2: np.ndarray
    beta2: np.ndarray


def trap_weights(n: int, h: float) -> np.ndarray:
    """Trapezoid weights on n >= 2 nodes of spacing h."""
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def _cumulative_trapezoid(f: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid integrals along each row of f from node 0 to every node; 0
    at node 0."""
    out = np.empty_like(f)
    out[:, 0] = 0.0
    np.cumsum(f[:, 1:] + f[:, :-1], axis=-1, out=out[:, 1:])
    out *= 0.5 * h
    return out


class FeedbackOperators:
    """The constants of the feedback law and the Volterra map, built once per run.

    The kernels are the constants K^vw = D_i and K^vv = -D_i, functions of
    the network alone (kernel_constant), so both act on
    d_i = w-tilde_i - v-tilde_i alone, and the junction row of the transform
    is j_i, D_i times the trapezoid weights of segment i's grid. The law is
    U0 = (j2 . d2 - g_t j1 . d1) / g_control, and since d_i = (gamma p*/q*)
    (rho v - q*) - (1 + 1/r)(v - v*), it is held as two (2, N+1) weight rows
    on the excess flow rho v - q* and the excess speed v - v*, with g_t,
    g_control and the Riemann-map parameters folded in, and the centre rows
    q* and v*. Also holds D_i, the grid spacings and scale_w's factors
    exp(x/(tau v*)) on the state grids.
    """

    def __init__(self, net: NetworkParams, grid1: np.ndarray, grid2: np.ndarray):
        self.grid1, self.grid2 = grid1, grid2
        self.D1, self.D2 = kernel_constant(1, net), kernel_constant(2, net)
        self.h1, self.h2 = ((g[-1] - g[0]) / (g.size - 1) for g in (grid1, grid2))
        self.trap1 = trap_weights(grid1.size, self.h1)
        self.trap2 = trap_weights(grid2.size, self.h2)
        self.j1, self.j2 = self.D1 * self.trap1, self.D2 * self.trap2
        self.scale1 = scale_factor(grid1, net.ss1, net.seg1)
        self.scale2 = scale_factor(grid2, net.ss2, net.seg2)
        rows = boundary_rows(net)
        # the map's parameters as full rows rather than (2, 1) columns: numpy
        # reads them faster, same bits
        self.v_star, self.q_star, gain, r = (
            np.repeat([[a], [b]], grid1.size, axis=1)
            for a, b in zip(riemann_law_params(net.ss1, net.seg1),
                            riemann_law_params(net.ss2, net.seg2)))
        c = np.array([[-rows.g_t], [1.0]]) / rows.g_control
        j = np.stack((self.j1, self.j2))
        self.law_flux, self.law_v = c * gain * j, -c * (1.0 + 1.0 / r) * j


def control_input(ops: FeedbackOperators, flux, v) -> float:
    """Ramp-metering flux correction U0 from the flux rho v and the velocity
    of both segments as (2, N+1) rows, one row per segment: the law's weight
    rows on the excess flow and the excess speed. It makes the junction row
    of the target system hold.
    """
    return float(np.vdot(ops.law_flux, flux - ops.q_star) + np.vdot(ops.law_v, v - ops.v_star))


def backstepping_transform(ops: FeedbackOperators, w1, v1, w2, v2) -> list[TargetState]:
    """Volterra map of Riemann states to the target variables (alpha_i, beta_i),
    on (K, N+1) blocks of (w-tilde_i, v-tilde_i), one row per state.

    alpha_i is w-bar_i; beta_i subtracts from v-tilde_i the kernel integral
    D_i (w-tilde_i - v-tilde_i) over the part of the segment the corresponding
    characteristic still has to traverse, one cumulative trapezoid per
    segment along the rows. Returns one TargetState per row, whose arrays are
    rows of the result blocks and whose grids are the operators' own.
    """
    # segment 1 integrates over [x, L], segment 2 over [-L, x]
    tail1 = _cumulative_trapezoid((w1 - v1)[:, ::-1], ops.h1)[:, ::-1]
    head2 = _cumulative_trapezoid(w2 - v2, ops.h2)
    blocks = (ops.scale1 * w1, v1 - ops.D1 * tail1, ops.scale2 * w2, v2 - ops.D2 * head2)
    return [TargetState(ops.grid1, ops.grid2, *rows) for rows in zip(*blocks)]


def target_residual(record, net: NetworkParams) -> float:
    """Sup-norm defect of the recorded trajectory against the target dynamics.

    Upwind finite differences of the two free transports plus the four
    boundary relations, evaluated across consecutive recorded states.
    """
    targets = record.target
    if targets is None or len(targets) < 3:
        raise DomainError("need at least 3 recorded target states")
    rows = boundary_rows(net)
    h1 = targets[0].grid1[1] - targets[0].grid1[0]
    h2 = targets[0].grid2[1] - targets[0].grid2[0]
    # (K, N+1) blocks, one row per record, and dt as a (K-1, 1) column: the
    # arithmetic of one pair of records at a time, and exact maxima
    a1, b1, a2, b2 = (np.stack([getattr(st, k) for st in targets])
                      for k in ("alpha1", "beta1", "alpha2", "beta2"))
    dt = np.diff(record.times)[:, None]
    now, nxt = slice(None, -1), slice(1, None)
    ra1 = (a1[nxt, 1:] - a1[now, 1:]) / dt + net.ss1.lambda_w * (a1[now, 1:] - a1[now, :-1]) / h1
    ra2 = (a2[nxt, 1:] - a2[now, 1:]) / dt + net.ss2.lambda_w * (a2[now, 1:] - a2[now, :-1]) / h2
    rb1 = (b1[nxt, :-1] - b1[now, :-1]) / dt - net.ss1.lambda_v * (b1[now, 1:] - b1[now, :-1]) / h1
    rb2 = (b2[nxt, :-1] - b2[now, :-1]) / dt - net.ss2.lambda_v * (b2[now, 1:] - b2[now, :-1]) / h2
    res = max(float(np.abs(r).max()) for r in (ra1, ra2, rb1, rb2))
    # boundary relations constrain the evolution, not the initial datum, so
    # the t = 0 sample is exempt (sinusoid initial data are not compatible).
    # Their maximum, a numpy scalar, is returned only when strictly larger
    # than the transport defect, which is a float
    bound = np.stack((
        b1[1:, -1] - rows.g_outlet * a1[1:, -1],
        a1[1:, 0] - a2[1:, -1],
        a2[1:, 0] - rows.g_inlet * b2[1:, 0],
        b2[1:, -1] - rows.g_t * b1[1:, 0] - rows.g_a * a2[1:, -1],
    ))
    return max(res, np.abs(bound).max())
