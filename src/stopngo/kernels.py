"""Backstepping kernels on the triangular domains of the two segments.

The kernels act on the unscaled Riemann state (w-tilde, v-tilde), where the
kernel equations have constant coefficients: lambda_v K^vw_x - lambda_w
K^vw_xi = -(K^vw + K^vv)/tau and K^vv_x + K^vv_xi = 0, with diagonal data
K^vw(x, x) = -+1/(tau gamma p*) (segment 1, 2) and K^vv = -(lambda_w/
lambda_v)/r K^vw on the far edge (xi = L, resp. -L). Since lambda_v = v*/r
that anchor is -1, so the constants K^vw = D, K^vv = -D solve them exactly:
the constant-coupling case of Coron, Vazquez, Krstic & Bastin, SIAM J.
Control Optim. 51 (2013).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .model import NetworkParams
from .riemann import boundary_rows


@dataclass
class KernelTable:
    segment_id: int
    M: int
    h: float
    x: np.ndarray  # grid nodes of the segment interval
    D: float  # the kernels' constant: K^vw = D and K^vv = -D on the triangle
    iterations: int  # passes over the table: 1, the closed form

    @cached_property
    def triangle(self) -> np.ndarray:
        """The closed triangle, xi >= x on segment 1 and xi <= x on segment 2,
        as a mask over the (M+1)^2 nodes: row j is x_j, column k is xi_k."""
        j, k = np.ogrid[: self.M + 1, : self.M + 1]
        return k >= j if self.segment_id == 1 else k <= j

    # the dense (M+1, M+1) tables, zero outside the triangle, are built on
    # first read: the feedback law and the transform read D alone
    @cached_property
    def Kvw(self) -> np.ndarray:
        return np.where(self.triangle, self.D, 0.0)

    @cached_property
    def Kvv(self) -> np.ndarray:
        return np.where(self.triangle, -self.D, 0.0)


def _segment(segment_id: int, net: NetworkParams):
    """(params, steady state, sign of the diagonal datum) of a segment."""
    if segment_id == 1:
        return net.seg1, net.ss1, -1.0
    if segment_id == 2:
        return net.seg2, net.ss2, 1.0
    raise DomainError(f"segment_id must be 1 or 2, got {segment_id}")


def kernel_constant(segment_id: int, net: NetworkParams) -> float:
    """D_i = -+1/(tau_i gamma_i p_i*) (segment 1, 2), the kernels K^vw = D_i
    and K^vv = -D_i on segment i's whole triangle: the network alone."""
    params, ss, sign = _segment(segment_id, net)
    return sign / (params.tau * params.gamma * ss.p_star)


def solve_kernels(segment_id: int, net: NetworkParams, M: int = 128) -> KernelTable:
    """The closed-form kernel pair on one segment's triangle."""
    if M < 16:
        raise DomainError(f"M must be at least 16, got {M}")
    params = _segment(segment_id, net)[0]
    lo, hi = params.interval
    return KernelTable(
        segment_id=segment_id,
        M=M,
        h=params.length / M,
        x=np.linspace(lo, hi, M + 1),
        D=kernel_constant(segment_id, net),
        iterations=1,
    )


def transport_residual(table: KernelTable, K: np.ndarray, a: float, b: float, source=None) -> float:
    """max |a K_x - b K_xi + source| over the nodes strictly inside the table's
    triangle: the inner nodes K[1:-1, 1:-1] whose four neighbours lie in the
    closed triangle. The derivatives are central differences on slices of
    the table; source, if given, is an array over the inner nodes."""
    r = np.subtract(K[2:, 1:-1], K[:-2, 1:-1])
    r /= 2 * table.h
    r *= a
    d = np.subtract(K[1:-1, 2:], K[1:-1, :-2])
    d /= 2 * table.h
    d *= b
    r -= d
    if source is not None:
        r += source
    t = table.triangle
    inside = t[2:, 1:-1] & t[:-2, 1:-1] & t[1:-1, 2:] & t[1:-1, :-2]
    return float(np.max(np.abs(r, out=r), where=inside, initial=0.0))


def kernel_residual(table: KernelTable, net: NetworkParams) -> tuple[float, float]:
    """(pde_residual, bc_residual) of a table by central differencing.

    The PDE residual covers the two transport equations at interior triangle
    nodes; the boundary residual covers the diagonal data (1/tau over the sum
    of the characteristic speeds) and the far-edge anchor -(lambda_w/
    lambda_v)/r. Coefficients come from the steady state and the boundary
    rows, never from the table's constant, so the check is independent.
    """
    if table.M < 8:
        raise DomainError("M too small for central differencing")
    params, ss, sign = _segment(table.segment_id, net)
    rows = boundary_rows(net)
    M, Kvw, Kvv = table.M, table.Kvw, table.Kvv
    lam_w, lam_v = ss.lambda_w, ss.lambda_v
    coupling = (Kvw[1:-1, 1:-1] + Kvv[1:-1, 1:-1]) / params.tau
    pde = max(transport_residual(table, Kvw, lam_v, lam_w, coupling),
              transport_residual(table, Kvv, 1.0, -1.0))  # K^vv_x + K^vv_xi
    diag = sign / (params.tau * (lam_w + lam_v))
    bc = float(np.max(np.abs(np.diagonal(Kvw) - diag)))
    r = rows.r1 if table.segment_id == 1 else rows.r2
    anchor = -(lam_w / lam_v) / r
    edge = M if table.segment_id == 1 else 0
    bc = max(bc, float(np.max(np.abs(Kvv[:, edge] - anchor * Kvw[:, edge]))))
    return pde, bc


def save_table(table: KernelTable, path: str):
    """CSV export for inspection: header lines "segment_id,M", its values and
    "x,xi,Kvw,Kvv", then one row per node of the triangle."""
    j, k = np.nonzero(table.triangle)  # row by row, as the dense tables
    with open(path, "w") as f:
        f.write(f"segment_id,M\n{table.segment_id},{table.M}\nx,xi,Kvw,Kvv\n")
        for row in zip(table.x[j], table.x[k], table.Kvw[j, k], table.Kvv[j, k]):
            f.write("%.17e,%.17e,%.17e,%.17e\n" % row)
