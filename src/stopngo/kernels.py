"""Backstepping kernels on the triangular domains of the two segments.

Both kernels of a segment are determined by the single trace of K^vw on the
far edge (xi = L for segment 1, xi = -L for segment 2): K^vv is constant
along xi - x = const and anchored there, while K^vw integrates its diagonal
data along characteristics with K^vv as source. The edge equation is
triangular, so the solver computes that trace in one substitution pass and
then fills the full tables from it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import NetworkParams
from .riemann import boundary_rows, coupling_coefficient


@dataclass
class KernelTable:
    segment_id: int
    M: int
    h: float
    x: np.ndarray  # grid nodes of the segment interval
    Kvw: np.ndarray  # (M+1, M+1), zero outside the triangle
    Kvv: np.ndarray
    iterations: int  # passes over the edge trace: 1, the direct solve


class _Geometry:
    """Per-segment constants of the characteristic integration."""

    def __init__(self, segment_id: int, net: NetworkParams, M: int):
        self.segment_id = segment_id
        if segment_id == 1:
            self.params, self.ss = net.seg1, net.ss1
        elif segment_id == 2:
            self.params, self.ss = net.seg2, net.ss2
        else:
            raise DomainError(f"segment_id must be 1 or 2, got {segment_id}")
        L = self.params.length
        self.L = L
        self.h = L / M
        self.M = M
        lo, hi = self.params.interval
        self.x = np.linspace(lo, hi, M + 1)
        self.m = self.ss.lambda_w / self.ss.lambda_v
        self.step = self.h / (1.0 + self.m)
        gp = self.params.gamma * self.ss.p_star
        self.c = lambda pos: coupling_coefficient(pos, self.ss, self.params)
        # diagonal data: K^vw(x, x) = +- c(x) / (gamma p*)
        sign = 1.0 if segment_id == 1 else -1.0
        self.diag = lambda pos: sign * np.asarray(self.c(pos)) / gp
        # anchor factor of the K^vv edge condition, read from the boundary
        # rows: lambda_w / (lambda_v * g_outlet) = -1/e1 for segment 1 and
        # lambda_w * g_inlet / lambda_v = -e2 for segment 2, which is exactly
        # what makes the transform's edge terms cancel against the reflection
        # rows
        rows = boundary_rows(net)
        ratio = self.ss.lambda_w / self.ss.lambda_v
        if segment_id == 1:
            self.anchor = ratio / rows.g_outlet
        else:
            self.anchor = ratio * rows.g_inlet
        # weight of the K^vv source in one panel of the characteristic
        self.coef = -sign * self.anchor * self.step / self.ss.lambda_v
        # c is an exponential, so c(p - m (i+1/2) dx) = c(p) g_i along every
        # characteristic
        i = np.arange(M) + 0.5
        self.g = np.exp(self.m * i * self.step / (self.params.tau * self.ss.v_star))

    def _nodes(self, j, d):
        """Diagonal foot x_d and factor position p of the nodes at row j and
        offset d: p is the node's xi on segment 1 and its foot on segment 2."""
        if self.segment_id == 1:
            return j * self.h + d * self.step, (j + d) * self.h
        foot = (-self.L + j * self.h) - d * self.step
        return foot, foot

    def kvw_table(self, edge: np.ndarray) -> np.ndarray:
        """All of K^vw from the far-edge trace, zero outside the triangle.

        Midpoint rule along the characteristic between the diagonal foot x_d
        and the node; the K^vv source is the anchored edge trace interpolated
        linearly at the panel midpoints, which land at the same edge
        positions for every node of an offset d. With c(p - m (i+1/2) dx) =
        c(p) g_i, the node's value is diag(x_d) + coef c(p) S(d), where S(d)
        is the g-weighted sum of the d midpoint values: a correlation with
        the reversed trace on segment 1, a running sum on segment 2.
        """
        M = self.M
        mid = 0.5 * (edge[:-1] + edge[1:])
        if self.segment_id == 1:
            S = np.convolve(self.g, mid[::-1])[:M]
            j, k = np.triu_indices(M + 1)
        else:
            S = np.cumsum(self.g * mid)
            j, k = np.tril_indices(M + 1)
        d = np.abs(k - j)
        foot, pos = self._nodes(j, d)
        S = np.concatenate(([0.0], S))
        Kvw = np.zeros((M + 1, M + 1))
        Kvw[j, k] = self.diag(foot) + self.coef * self.c(pos) * S[d]
        return Kvw

    def edge_update(self, edge: np.ndarray) -> np.ndarray:
        """One fixed-point sweep of the far-edge trace of K^vw."""
        return self.kvw_table(edge)[:, self.M if self.segment_id == 1 else 0]

    def solve_edge(self) -> np.ndarray:
        """The fixed point of ``edge_update``, by substitution along the edge.

        At offset d the edge entry reads the trace over the d panels between
        it and the corner on the diagonal (segment 1: edge[M-d..M]; segment
        2: edge[0..d]), and itself only through its own half-panel. Solving
        each entry from the ones nearer the corner, starting there, takes one
        pass.
        """
        M = self.M
        d = np.arange(M + 1)
        row = M - d if self.segment_id == 1 else d
        foot, pos = self._nodes(row, d)
        diag = self.diag(foot)
        cc = self.coef * self.c(pos)
        edge = np.zeros(M + 1)
        edge[row[0]] = diag[0]
        for n in range(1, M + 1):
            lo, own = (M - n, self.g[0]) if self.segment_id == 1 else (0, self.g[n - 1])
            # edge[row[n]] is still zero here, so this sum leaves out its own term
            known = self.g[:n] @ (0.5 * (edge[lo : lo + n] + edge[lo + 1 : lo + n + 1]))
            edge[row[n]] = (diag[n] + cc[n] * known) / (1.0 - 0.5 * cc[n] * own)
        return edge


def solve_kernels(segment_id: int, net: NetworkParams, M: int = 128) -> KernelTable:
    """Direct solve of the kernel pair on one segment's triangle."""
    if M < 16:
        raise DomainError(f"M must be at least 16, got {M}")
    geo = _Geometry(segment_id, net, M)
    Kvw = geo.kvw_table(geo.solve_edge())
    # K^vv is constant along each diagonal of the table and anchored on the
    # filled edge column, making the edge condition an identity of the stored
    # table rather than an approximation.
    Kvv = np.zeros((M + 1, M + 1))
    if segment_id == 1:
        j, k = np.triu_indices(M + 1)
        Kvv[j, k] = geo.anchor * Kvw[M - (k - j), M]
    else:
        j, k = np.tril_indices(M + 1)
        Kvv[j, k] = geo.anchor * Kvw[j - k, 0]
    return KernelTable(
        segment_id=segment_id,
        M=M,
        h=geo.h,
        x=geo.x,
        Kvw=Kvw,
        Kvv=Kvv,
        iterations=1,
    )


def kernel_residual(table: KernelTable, net: NetworkParams) -> tuple[float, float]:
    """(pde_residual, bc_residual) of a solved table by central differencing.

    The PDE residual covers the two transport equations at interior triangle
    nodes; the boundary residual covers the diagonal data and the far-edge
    condition, which the solver imposes exactly.
    """
    if table.M < 8:
        raise DomainError("M too small for central differencing")
    geo = _Geometry(table.segment_id, net, table.M)
    M, h = table.M, table.h
    Kvw, Kvv = table.Kvw, table.Kvv
    lam_w, lam_v = geo.ss.lambda_w, geo.ss.lambda_v
    # interior nodes (j, k) in 1..M-1 strictly inside the triangle
    j, k = np.meshgrid(np.arange(1, M), np.arange(1, M), indexing="ij")
    inside = k > j if table.segment_id == 1 else k < j
    j, k = j[inside], k[inside]
    dKdx_vw = (Kvw[j + 1, k] - Kvw[j - 1, k]) / (2 * h)
    dKdxi_vw = (Kvw[j, k + 1] - Kvw[j, k - 1]) / (2 * h)
    r1 = lam_v * dKdx_vw - lam_w * dKdxi_vw - np.asarray(geo.c(geo.x[k])) * Kvv[j, k]
    dKdx_vv = (Kvv[j + 1, k] - Kvv[j - 1, k]) / (2 * h)
    dKdxi_vv = (Kvv[j, k + 1] - Kvv[j, k - 1]) / (2 * h)
    r2 = dKdx_vv + dKdxi_vv
    pde = max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))
    bc = float(np.max(np.abs(np.diagonal(Kvw) - geo.diag(geo.x))))
    if table.segment_id == 1:
        bc = max(bc, float(np.max(np.abs(Kvv[:, M] - geo.anchor * Kvw[:, M]))))
    else:
        bc = max(bc, float(np.max(np.abs(Kvv[:, 0] - geo.anchor * Kvw[:, 0]))))
    return pde, bc


def save_table(table: KernelTable, path: str):
    """CSV export for inspection: header lines "segment_id,M", its values and
    "x,xi,Kvw,Kvv", then one row per node of the triangle."""
    with open(path, "w") as f:
        f.write("segment_id,M\n")
        f.write(f"{table.segment_id},{table.M}\n")
        f.write("x,xi,Kvw,Kvv\n")
        for j in range(table.M + 1):
            ks = (
                range(j, table.M + 1)
                if table.segment_id == 1
                else range(0, j + 1)
            )
            for k in ks:
                f.write(
                    f"{table.x[j]:.17e},{table.x[k]:.17e},"
                    f"{table.Kvw[j, k]:.17e},{table.Kvv[j, k]:.17e}\n"
                )
