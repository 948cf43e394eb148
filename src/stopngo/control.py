"""Backstepping state transformation and the ramp-metering feedback law."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RepresentationError
from .kernels import KernelTable
from .model import NetworkParams
from .riemann import RIEMANN, FieldState, boundary_rows, riemann_law, riemann_law_params
from .riemann import scale_factor


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
    """Trapezoid integrals of f from node 0 to every node; 0 at node 0."""
    out = np.empty_like(f)
    out[0] = 0.0
    np.cumsum(f[1:] + f[:-1], out=out[1:])
    out *= 0.5 * h
    return out


class FeedbackOperators:
    """The feedback law and the Volterra map of one kernel pair, built once.

    The kernels are the constants K^vw = D_i and K^vv = -D_i, so both act on
    w-tilde_i - v-tilde_i alone: U0 = (D2 I2 - g_t D1 I1) / g_control with
    I_i the trapezoid integral of w-tilde_i - v-tilde_i over segment i, and
    beta_i = v-tilde_i - D_i times that integral over the part of the segment
    the characteristic still has to traverse, one cumulative trapezoid per
    segment. Holds D_i from the tables, the trapezoid weights of the state
    grids, g_t and g_control, the Riemann-map parameters as full rows, and
    scale_w's factors exp(x/(tau v*)) on the state grids.
    """

    def __init__(
        self,
        table1: KernelTable,
        table2: KernelTable,
        net: NetworkParams,
        grid1: np.ndarray,
        grid2: np.ndarray,
    ):
        self.table1, self.table2, self.net = table1, table2, net
        self.grid1, self.grid2 = grid1, grid2
        self.D1, self.D2 = table1.D, table2.D
        rows = boundary_rows(net)
        self.g_t, self.g_control = rows.g_t, rows.g_control
        self.h1, self.h2 = ((g[-1] - g[0]) / (g.size - 1) for g in (grid1, grid2))
        self.trap1 = trap_weights(grid1.size, self.h1)
        self.trap2 = trap_weights(grid2.size, self.h2)
        self.scale1 = scale_factor(grid1, net.ss1, net.seg1)
        self.scale2 = scale_factor(grid2, net.ss2, net.seg2)
        # full rows rather than (2, 1) columns: numpy reads them faster, same bits
        self.riemann_rows = tuple(
            np.repeat([[a], [b]], grid1.size, axis=1)
            for a, b in zip(riemann_law_params(net.ss1, net.seg1),
                            riemann_law_params(net.ss2, net.seg2))
        )

    def u0(self, w1, v1, w2, v2) -> float:
        """U0 from the Riemann components (w-tilde_i, v-tilde_i)."""
        return self._u0(w1 - v1, w2 - v2)

    def u0_stacked(self, flux, v) -> float:
        """U0 from the physical state of both segments as (2, M+1) rows of
        the flux rho v and the velocity, through one stacked Riemann map."""
        wt, vt = riemann_law(flux, v, *self.riemann_rows)
        d = wt - vt
        return self._u0(d[0], d[1])

    def _u0(self, d1, d2) -> float:
        i1, i2 = self.trap1 @ d1, self.trap2 @ d2
        return float((self.D2 * i2 - self.g_t * self.D1 * i1) / self.g_control)

    def target(self, riem1: FieldState, riem2: FieldState) -> TargetState:
        """beta_i from the Riemann states; alpha_i is w-bar_i, their rescaled w.
        The target state holds the operators' own grid arrays, not copies."""
        w1, v1, w2, v2 = riem1.a, riem1.b, riem2.a, riem2.b
        # segment 1 integrates over [x, L], segment 2 over [-L, x]
        tail1 = _cumulative_trapezoid((w1 - v1)[::-1], self.h1)[::-1]
        head2 = _cumulative_trapezoid(w2 - v2, self.h2)
        return TargetState(self.grid1, self.grid2,
                           self.scale1 * w1, v1 - self.D1 * tail1,
                           self.scale2 * w2, v2 - self.D2 * head2)


def _operators(riem1, riem2, table1, table2, net, ops=None) -> FeedbackOperators:
    for state in (riem1, riem2):
        if state.rep != RIEMANN:
            raise RepresentationError(f"expected Riemann state, got {state.rep}")
    if ops is None:
        return FeedbackOperators(table1, table2, net, riem1.grid, riem2.grid)
    if ops.table1 is not table1 or ops.table2 is not table2 or ops.net is not net:
        raise DomainError("operators were built for other tables or another network")
    for state, grid in ((riem1, ops.grid1), (riem2, ops.grid2)):
        if state.grid is grid:  # the runners pass the grids they built ops on
            continue
        if state.grid.shape != grid.shape or not np.allclose(state.grid, grid):
            raise DomainError("state grid does not match the operators' grid")
    return ops


def backstepping_transform(
    riem1: FieldState,
    riem2: FieldState,
    table1: KernelTable,
    table2: KernelTable,
    net: NetworkParams,
    ops: FeedbackOperators | None = None,
) -> TargetState:
    """Volterra map of the Riemann states to the target variables (alpha_i, beta_i).

    alpha_i is w-bar_i; beta_i subtracts from v-tilde_i the kernel integral
    D_i (w-tilde_i - v-tilde_i) over the part of the segment the corresponding
    characteristic still has to traverse. Passing the FeedbackOperators of
    these tables and grids saves rebuilding them.
    """
    ops = _operators(riem1, riem2, table1, table2, net, ops)
    return ops.target(riem1, riem2)


def control_input(
    riem1: FieldState,
    riem2: FieldState,
    table1: KernelTable,
    table2: KernelTable,
    net: NetworkParams,
) -> float:
    """Ramp-metering flux correction U0 evaluated from the current Riemann state.

    U0 = (I2 - g_t I1) / g_control = -q*/(v2*(1+r2)) * (I2 - g_t I1) with I_i
    = D_i times the integral of w-tilde_i - v-tilde_i over segment i, the
    junction row of the transform; it makes the junction row of the target
    system hold.
    """
    ops = _operators(riem1, riem2, table1, table2, net)
    return ops.u0(riem1.a, riem1.b, riem2.a, riem2.b)


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
