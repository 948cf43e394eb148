"""Backstepping state transformation and the ramp-metering feedback law."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, RepresentationError
from .kernels import KernelTable
from .model import NetworkParams
from .riemann import RIEMANN, FieldState, boundary_rows, riemann_coefficients, riemann_law
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


def _volterra_matrix(K: np.ndarray, h: float, upper: bool) -> np.ndarray:
    """K with row j trapezoid-weighted over its range, columns j..M on
    segment 1 (upper) and 0..j on segment 2 (lower); scaled in place."""
    A = np.triu(K) if upper else np.tril(K)
    A *= h
    A.flat[:: A.shape[0] + 1] *= 0.5
    edge = -1 if upper else 0
    A[:, edge] *= 0.5
    A[edge, edge] = 0.0  # a one-node range integrates to zero
    return A


class FeedbackOperators:
    """The feedback law and the Volterra map of one kernel pair, built once.

    The tables act on (w-tilde_i, v-tilde_i). Holds the junction kernel rows
    stacked one row per segment, their trapezoid weights, g_t and g_control,
    the Riemann-map parameters spread over the same rows, the state grids (checked
    against the table grids here, once), scale_w's factors exp(x/(tau v*)) on
    them and, on first use, the four trapezoid-weighted triangular matrices.
    """

    def __init__(
        self,
        table1: KernelTable,
        table2: KernelTable,
        net: NetworkParams,
        grid1: np.ndarray,
        grid2: np.ndarray,
    ):
        for grid, table in ((grid1, table1), (grid2, table2)):
            if grid.size != table.M + 1 or not np.allclose(grid, table.x):
                raise DomainError("state grid does not match the kernel table grid")
        if table1.M != table2.M:
            raise DomainError("the kernel tables must share one resolution")
        self.table1, self.table2, self.net = table1, table2, net
        self.grid1, self.grid2 = grid1, grid2
        rows = boundary_rows(net)
        self.g_t, self.g_control = rows.g_t, rows.g_control
        self.trap1 = trap_weights(table1.M + 1, table1.h)
        self.trap2 = trap_weights(table2.M + 1, table2.h)
        self.scale1 = scale_factor(grid1, net.ss1, net.seg1)
        self.scale2 = scale_factor(grid2, net.ss2, net.seg2)
        # junction rows: x = 0 is node 0 of segment 1 and node M of segment 2
        self.kw = np.stack((table1.Kvw[0], table2.Kvw[table2.M]))
        self.kv = np.stack((table1.Kvv[0], table2.Kvv[table2.M]))
        # full rows rather than (2, 1) columns: numpy reads them faster, same bits
        self.riemann_rows = tuple(
            np.repeat([[a], [b]], table1.M + 1, axis=1)
            for a, b in zip(riemann_coefficients(net.ss1, net.seg1),
                            riemann_coefficients(net.ss2, net.seg2))
        )

    @cached_property
    def volterra(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(A1w, A1v, A2w, A2v) with beta_i = v_i - (A_iw w_i + A_iv v_i)."""
        t1, t2 = self.table1, self.table2
        return (_volterra_matrix(t1.Kvw, t1.h, True), _volterra_matrix(t1.Kvv, t1.h, True),
                _volterra_matrix(t2.Kvw, t2.h, False), _volterra_matrix(t2.Kvv, t2.h, False))

    def u0(self, w1, v1, w2, v2) -> float:
        """U0 from the Riemann components (w-tilde_i, v-tilde_i)."""
        return self._u0(np.stack((w1, w2)), np.stack((v1, v2)))

    def u0_stacked(self, flux, v) -> float:
        """U0 from the physical state of both segments as (2, M+1) rows of
        the flux rho v and the velocity, through one stacked Riemann map."""
        return self._u0(*riemann_law(flux, v, *self.riemann_rows))

    def _u0(self, wt, vt) -> float:
        s = self.kw * wt + self.kv * vt
        # two 1-D dot products on contiguous rows keep each segment's summation order
        i1 = self.trap1 @ s[0]
        i2 = self.trap2 @ s[1]
        return float((i2 - self.g_t * i1) / self.g_control)

    def target(self, riem1: FieldState, riem2: FieldState) -> TargetState:
        """beta_i from the Riemann states; alpha_i is w-bar_i, their rescaled w."""
        A1w, A1v, A2w, A2v = self.volterra
        w1, v1, w2, v2 = riem1.a, riem1.b, riem2.a, riem2.b
        return TargetState(self.grid1.copy(), self.grid2.copy(),
                           self.scale1 * w1, v1 - (A1w @ w1 + A1v @ v1),
                           self.scale2 * w2, v2 - (A2w @ w2 + A2v @ v2))


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
            raise DomainError("state grid does not match the kernel table grid")
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
    of (w-tilde_i, v-tilde_i) over the part of the segment the corresponding
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
    the kernel rows at the junction integrated against (w-tilde_i,
    v-tilde_i); it makes the junction row of the target system hold.
    """
    ops = _operators(riem1, riem2, table1, table2, net)
    return ops.u0(riem1.a, riem1.b, riem2.a, riem2.b)


def target_residual(record, net: NetworkParams) -> float:
    """Sup-norm defect of the recorded trajectory against the target dynamics.

    Upwind finite differences of the two free transports plus the four
    boundary relations, evaluated across consecutive recorded states.
    """
    targets = record.target
    times = record.times
    if targets is None or len(targets) < 3:
        raise DomainError("need at least 3 recorded target states")
    rows = boundary_rows(net)
    lam_w1, lam_v1 = net.ss1.lambda_w, net.ss1.lambda_v
    lam_w2, lam_v2 = net.ss2.lambda_w, net.ss2.lambda_v
    h1 = targets[0].grid1[1] - targets[0].grid1[0]
    h2 = targets[0].grid2[1] - targets[0].grid2[0]
    res = 0.0
    for n in range(len(targets) - 1):
        dt = times[n + 1] - times[n]
        a, b = targets[n], targets[n + 1]
        ra1 = (b.alpha1[1:] - a.alpha1[1:]) / dt + lam_w1 * (a.alpha1[1:] - a.alpha1[:-1]) / h1
        ra2 = (b.alpha2[1:] - a.alpha2[1:]) / dt + lam_w2 * (a.alpha2[1:] - a.alpha2[:-1]) / h2
        rb1 = (b.beta1[:-1] - a.beta1[:-1]) / dt - lam_v1 * (a.beta1[1:] - a.beta1[:-1]) / h1
        rb2 = (b.beta2[:-1] - a.beta2[:-1]) / dt - lam_v2 * (a.beta2[1:] - a.beta2[:-1]) / h2
        res = max(
            res,
            float(np.max(np.abs(ra1))),
            float(np.max(np.abs(ra2))),
            float(np.max(np.abs(rb1))),
            float(np.max(np.abs(rb2))),
        )
    # boundary relations constrain the evolution, not the initial datum, so
    # the t = 0 sample is exempt (sinusoid initial data are not compatible)
    for st in targets[1:]:
        res = max(
            res,
            abs(st.beta1[-1] - rows.g_outlet * st.alpha1[-1]),
            abs(st.alpha1[0] - st.alpha2[-1]),
            abs(st.alpha2[0] - rows.g_inlet * st.beta2[0]),
            abs(st.beta2[-1] - rows.g_t * st.beta1[0] - rows.g_a * st.alpha2[-1]),
        )
    return res
