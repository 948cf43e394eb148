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
    iterations: int  # passes over the edge trace: 1 when solved, 0 when loaded
    bound: float

    def valid(self, j: int, k: int) -> bool:
        return k >= j if self.segment_id == 1 else k <= j


class _Geometry:
    """Per-segment constants of the characteristic integration."""

    def __init__(self, segment_id: int, net: NetworkParams, M: int, coupling):
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
        if coupling is None:
            coupling = lambda pos: coupling_coefficient(pos, self.ss, self.params)
        # a constant override (e.g. lambda x: 0.0) must still vectorize
        self.c = lambda pos: np.broadcast_to(
            np.asarray(coupling(pos), dtype=float), np.shape(pos)
        )
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

    def kvw_offset(self, d: int, edge: np.ndarray) -> np.ndarray:
        """K^vw at every node pair with |xi - x| = d*h, as a vector along x.

        Midpoint rule along the characteristic between the diagonal foot and
        the node; the K^vv source is the anchored edge trace interpolated
        linearly at the panel midpoints, which land at the same edge
        positions for every node of a fixed offset.
        """
        M, h, m, dx = self.M, self.h, self.m, self.step
        if self.segment_id == 1:
            j = np.arange(M + 1 - d)
            x_d = j * h + d * dx
        else:
            j = np.arange(d, M + 1)
            x_d = (-self.L + j * h) - d * dx
        out = np.asarray(self.diag(x_d), dtype=float).copy()
        if d == 0:
            return out
        i = np.arange(d)
        if self.segment_id == 1:
            edge_mid = 0.5 * (edge[M - d + i] + edge[M - d + i + 1])
            xi_mid = ((j + d) * h)[:, None] - m * (i[None, :] + 0.5) * dx
            src = np.asarray(self.c(xi_mid)) * edge_mid[None, :]
            out -= self.anchor * (dx / self.ss.lambda_v) * src.sum(axis=1)
        else:
            edge_mid = 0.5 * (edge[i] + edge[i + 1])
            xi_mid = x_d[:, None] - m * (i[None, :] + 0.5) * dx
            src = np.asarray(self.c(xi_mid)) * edge_mid[None, :]
            out += self.anchor * (dx / self.ss.lambda_v) * src.sum(axis=1)
        return out

    def edge_update(self, edge: np.ndarray) -> np.ndarray:
        """One fixed-point sweep of the far-edge trace of K^vw."""
        M = self.M
        new = np.empty(M + 1)
        for jj in range(M + 1):
            d = M - jj if self.segment_id == 1 else jj
            vals = self.kvw_offset(d, edge)
            new[jj] = vals[-1] if self.segment_id == 1 else vals[0]
        return new

    def solve_edge(self) -> np.ndarray:
        """The fixed point of ``edge_update``, by substitution along the edge.

        At offset d the edge entry reads the trace over the d panels between
        it and the corner on the diagonal (segment 1: edge[M-d..M]; segment
        2: edge[0..d]), and itself only through its own half-panel. Solving
        each entry from the ones nearer the corner, starting there, takes one
        pass.
        """
        M, h, m, dx = self.M, self.h, self.m, self.step
        sign = -1.0 if self.segment_id == 1 else 1.0
        coef = sign * self.anchor * (dx / self.ss.lambda_v)
        edge = np.zeros(M + 1)
        for d in range(M + 1):
            i = np.arange(d)
            if self.segment_id == 1:
                jj, lo, hi = M - d, M - d, M
                x_d = jj * h + d * dx
                c = self.c(M * h - m * (i + 0.5) * dx)
                own = 0.5 * c[0] if d else 0.0
            else:
                jj, lo, hi = d, 0, d
                x_d = (-self.L + jj * h) - d * dx
                c = self.c(x_d - m * (i + 0.5) * dx)
                own = 0.5 * c[-1] if d else 0.0
            # edge[jj] is still zero here, so this sum leaves out its own term
            known = c @ (0.5 * (edge[lo:hi] + edge[lo + 1 : hi + 1]))
            edge[jj] = (self.diag(x_d) + coef * known) / (1.0 - coef * own)
        return edge


def solve_kernels(segment_id: int, net: NetworkParams, M: int = 128, coupling=None) -> KernelTable:
    """Direct solve of the kernel pair on one segment's triangle."""
    if M < 16:
        raise DomainError(f"M must be at least 16, got {M}")
    geo = _Geometry(segment_id, net, M, coupling)
    edge = geo.solve_edge()
    Kvw = np.zeros((M + 1, M + 1))
    for d in range(M + 1):
        vals = geo.kvw_offset(d, edge)
        if segment_id == 1:
            j = np.arange(M + 1 - d)
            Kvw[j, j + d] = vals
        else:
            j = np.arange(d, M + 1)
            Kvw[j, j - d] = vals
    # K^vv is constant along each diagonal of the table and anchored on the
    # filled edge column, making the edge condition an identity of the stored
    # table rather than an approximation.
    Kvv = np.zeros((M + 1, M + 1))
    if segment_id == 1:
        edge_col = Kvw[:, M]
        for d in range(M + 1):
            j = np.arange(M + 1 - d)
            Kvv[j, j + d] = geo.anchor * edge_col[M - d]
    else:
        edge_col = Kvw[:, 0]
        for d in range(M + 1):
            j = np.arange(d, M + 1)
            Kvv[j, j - d] = geo.anchor * edge_col[d]
    bound = float(max(np.max(np.abs(Kvw)), np.max(np.abs(Kvv))))
    return KernelTable(
        segment_id=segment_id,
        M=M,
        h=geo.h,
        x=geo.x,
        Kvw=Kvw,
        Kvv=Kvv,
        iterations=1,
        bound=bound,
    )


def kernel_residual(table: KernelTable, net: NetworkParams, coupling=None) -> tuple[float, float]:
    """(pde_residual, bc_residual) of a solved table by central differencing.

    The PDE residual covers the two transport equations at interior triangle
    nodes; the boundary residual covers the diagonal data and the far-edge
    condition, which the solver imposes exactly.
    """
    if table.M < 8:
        raise DomainError("M too small for central differencing")
    geo = _Geometry(table.segment_id, net, table.M, coupling)
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


def interpolate_kernel_row(table: KernelTable, x: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sampled rows K^vw(x, .), K^vv(x, .) on the table grid, restricted to the triangle.

    Bilinear between the two bracketing node rows; exact when x is a node.
    """
    lo, hi = table.x[0], table.x[-1]
    if x < lo - 1e-9 or x > hi + 1e-9:
        raise DomainError(f"position {x} outside [{lo}, {hi}]")
    x = min(max(x, lo), hi)
    h, M = table.h, table.M
    pos = (x - lo) / h
    j0 = min(int(np.floor(pos)), M - 1)
    t = pos - j0
    if t == 1.0:
        j0, t = j0 + 1, 0.0
    if table.segment_id == 1:
        if t == 0.0:
            ks = np.arange(j0, M + 1)
            return table.x[ks], table.Kvw[j0, ks].copy(), table.Kvv[j0, ks].copy()
        ks = np.arange(j0 + 1, M + 1)
    else:
        if t == 0.0:
            ks = np.arange(0, j0 + 1)
            return table.x[ks], table.Kvw[j0, ks].copy(), table.Kvv[j0, ks].copy()
        ks = np.arange(0, j0 + 1)
    kvw = (1.0 - t) * table.Kvw[j0, ks] + t * table.Kvw[j0 + 1, ks]
    kvv = (1.0 - t) * table.Kvv[j0, ks] + t * table.Kvv[j0 + 1, ks]
    return table.x[ks], kvw, kvv


def save_table(table: KernelTable, path: str):
    """CSV layout: one header line "segment_id,M", then rows x,xi,Kvw,Kvv."""
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


def load_table(path: str) -> KernelTable:
    with open(path) as f:
        header = f.readline().strip()
        if header != "segment_id,M":
            raise DomainError(f"unrecognized kernel file header {header!r}")
        segment_id, M = (int(v) for v in f.readline().split(","))
        f.readline()
        Kvw = np.zeros((M + 1, M + 1))
        Kvv = np.zeros((M + 1, M + 1))
        rows = np.loadtxt(f, delimiter=",", ndmin=2)
    x_lo = float(rows[:, 0].min())
    x_hi = float(max(rows[:, 0].max(), rows[:, 1].max()))
    h = (x_hi - x_lo) / M
    for xq, xiq, vw, vv in rows:
        j = int(round((xq - x_lo) / h))
        k = int(round((xiq - x_lo) / h))
        Kvw[j, k] = vw
        Kvv[j, k] = vv
    bound = float(max(np.max(np.abs(Kvw)), np.max(np.abs(Kvv))))
    return KernelTable(
        segment_id=segment_id,
        M=M,
        h=h,
        x=np.linspace(x_lo, x_lo + M * h, M + 1),
        Kvw=Kvw,
        Kvv=Kvv,
        iterations=0,
        bound=bound,
    )
