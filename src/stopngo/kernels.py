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
    Kvw: np.ndarray  # (M+1, M+1), zero outside the triangle
    Kvv: np.ndarray
    iterations: int  # passes over the table: 1, the closed form


def _segment(segment_id: int, net: NetworkParams):
    """(params, steady state, sign of the diagonal datum) of a segment."""
    if segment_id == 1:
        return net.seg1, net.ss1, -1.0
    if segment_id == 2:
        return net.seg2, net.ss2, 1.0
    raise DomainError(f"segment_id must be 1 or 2, got {segment_id}")


def solve_kernels(segment_id: int, net: NetworkParams, M: int = 128) -> KernelTable:
    """The closed-form kernel pair on one segment's triangle."""
    if M < 16:
        raise DomainError(f"M must be at least 16, got {M}")
    params, ss, sign = _segment(segment_id, net)
    D = sign / (params.tau * params.gamma * ss.p_star)
    lo, hi = params.interval
    # the triangle is xi >= x on segment 1 and xi <= x on segment 2
    triangle = np.triu if segment_id == 1 else np.tril
    return KernelTable(
        segment_id=segment_id,
        M=M,
        h=params.length / M,
        x=np.linspace(lo, hi, M + 1),
        D=D,
        Kvw=triangle(np.full((M + 1, M + 1), D)),
        Kvv=triangle(np.full((M + 1, M + 1), -D)),
        iterations=1,
    )


def _interior(segment_id: int, M: int):
    """Row and column indices of the nodes strictly inside the triangle."""
    j, k = np.meshgrid(np.arange(1, M), np.arange(1, M), indexing="ij")
    inside = k > j if segment_id == 1 else k < j
    return j[inside], k[inside]


def _central(K: np.ndarray, j, k, h: float):
    """(dK/dx, dK/dxi) by central differences at nodes (j, k)."""
    return (K[j + 1, k] - K[j - 1, k]) / (2 * h), (K[j, k + 1] - K[j, k - 1]) / (2 * h)


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
    M, h = table.M, table.h
    Kvw, Kvv = table.Kvw, table.Kvv
    lam_w, lam_v = ss.lambda_w, ss.lambda_v
    j, k = _interior(table.segment_id, M)
    dKdx_vw, dKdxi_vw = _central(Kvw, j, k, h)
    r1 = lam_v * dKdx_vw - lam_w * dKdxi_vw + (Kvw[j, k] + Kvv[j, k]) / params.tau
    dKdx_vv, dKdxi_vv = _central(Kvv, j, k, h)
    r2 = dKdx_vv + dKdxi_vv
    pde = max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))
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
    with open(path, "w") as f:
        f.write("segment_id,M\n")
        f.write(f"{table.segment_id},{table.M}\n")
        f.write("x,xi,Kvw,Kvv\n")
        for j in range(table.M + 1):
            ks = range(j, table.M + 1) if table.segment_id == 1 else range(j + 1)
            for k in ks:
                f.write(
                    f"{table.x[j]:.17e},{table.x[k]:.17e},"
                    f"{table.Kvw[j, k]:.17e},{table.Kvv[j, k]:.17e}\n"
                )
