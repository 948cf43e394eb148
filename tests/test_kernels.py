import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, target
from hypothesis import strategies as st

from stopngo.acceptance import _scaled_pde_residual
from stopngo.control import trap_weights
from stopngo.errors import DomainError
from stopngo.kernels import kernel_constant, kernel_residual, save_table, solve_kernels
from stopngo.riemann import boundary_rows, coupling_coefficient, scale_factor
from test_control import random_networks
from test_stability import _criterion_2_network


class _Geometry:
    """Reference solver of the scaled kernel equations on one segment.

    In the scaled coordinates (w-bar = exp(x/(tau v*)) w-tilde) the K^vw
    equation carries the coupling c(xi) K^vv, with c(x) = -(1/tau)
    exp(-x/(tau v*)). K^vv is constant along xi - x = const and anchored on
    the far-edge trace of K^vw; K^vw integrates its diagonal data along
    characteristics by the midpoint rule, with K^vv as source. The edge
    equation is triangular, so the trace comes from one substitution pass.
    The tables converge to the closed form mapped by exp(-xi/(tau v*)) at
    O(h^2).
    """

    def __init__(self, segment_id, net, M):
        self.segment_id = segment_id
        if segment_id == 1:
            self.params, self.ss = net.seg1, net.ss1
        else:
            self.params, self.ss = net.seg2, net.ss2
        self.L = L = self.params.length
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
        # scaled anchor of the K^vv edge condition: lambda_w / (lambda_v *
        # g_outlet) = -1/e1 for segment 1, lambda_w * g_inlet / lambda_v = -e2
        # for segment 2
        rows = boundary_rows(net)
        ratio = self.ss.lambda_w / self.ss.lambda_v
        self.anchor = ratio / rows.g_outlet if segment_id == 1 else ratio * rows.g_inlet
        self.coef = -sign * self.anchor * self.step / self.ss.lambda_v
        # c(p - m (i+1/2) dx) = c(p) g_i along every characteristic
        i = np.arange(M) + 0.5
        self.g = np.exp(self.m * i * self.step / (self.params.tau * self.ss.v_star))

    def _nodes(self, j, d):
        """Diagonal foot and factor position of the nodes at row j, offset d."""
        if self.segment_id == 1:
            return j * self.h + d * self.step, (j + d) * self.h
        foot = (-self.L + j * self.h) - d * self.step
        return foot, foot

    def kvw_table(self, edge):
        """All of K^vw from the far-edge trace, zero outside the triangle."""
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

    def solve_edge(self):
        """The far-edge trace of K^vw, each entry from those nearer the corner."""
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
            known = self.g[:n] @ (0.5 * (edge[lo : lo + n] + edge[lo + 1 : lo + n + 1]))
            edge[row[n]] = (diag[n] + cc[n] * known) / (1.0 - 0.5 * cc[n] * own)
        return edge

    def unscaled_kvw(self):
        """The reference K^vw mapped to the unscaled coordinates."""
        return self.kvw_table(self.solve_edge()) * scale_factor(self.x, self.ss, self.params)


def test_resolution_validation(net):
    with pytest.raises(DomainError):
        solve_kernels(1, net, M=8)


def test_segment_id_validation(net, tables):
    with pytest.raises(DomainError, match="segment_id"):
        solve_kernels(3, net, M=32)
    table = dataclasses.replace(tables(64)[0], segment_id=0)
    with pytest.raises(DomainError, match="segment_id"):
        kernel_residual(table, net)


def test_diagonal_matches_coupling(net, tables):
    # the scaled diagonal datum +- c(x)/(gamma p*), mapped by exp(x/(tau v*)),
    # is the constant D = -+1/(tau gamma p*) of the table
    for sid, ss, seg, sign in ((1, net.ss1, net.seg1, 1.0), (2, net.ss2, net.seg2, -1.0)):
        tb = tables(64)[sid - 1]
        gp = seg.gamma * ss.p_star
        D = -sign / (seg.tau * gp)
        assert np.all(np.diagonal(tb.Kvw) == D)
        want = sign * coupling_coefficient(tb.x, ss, seg) * scale_factor(tb.x, ss, seg) / gp
        assert np.abs(np.diagonal(tb.Kvw) - want).max() < 1e-13 * abs(D)


def test_corner_values(net, tables):
    t1, t2 = tables(64)
    assert t1.Kvw[0, 0] == pytest.approx(-2.5591172439650453e-04, rel=1e-10)
    assert t2.Kvw[t2.M, t2.M] == pytest.approx(3.1307387467435132e-04, rel=1e-10)
    assert t2.Kvw[0, 0] == pytest.approx(3.1307387467435132e-04, rel=1e-10)
    # K^vv = -K^vw everywhere, the corner -1/(tau2 gamma2 p2*) included
    assert t2.Kvv[t2.M, t2.M] == pytest.approx(-3.1307387467435129e-04, rel=1e-9)
    for tb in (t1, t2):
        assert np.array_equal(tb.Kvv, -tb.Kvw)


def test_outer_edge_conditions(net, rows, tables):
    # terminal conditions on the outer edges: K^vv = -(lambda_w/lambda_v)/r K^vw,
    # and the anchor is -1 because lambda_v = v*/r
    t1, t2 = tables(64)
    for ss, r in ((net.ss1, rows.r1), (net.ss2, rows.r2)):
        assert -(ss.lambda_w / ss.lambda_v) / r == pytest.approx(-1.0, rel=1e-15)
    assert np.abs(t1.Kvv[:, -1] + t1.Kvw[:, -1]).max() == 0.0
    assert np.abs(t2.Kvv[:, 0] + t2.Kvw[:, 0]).max() == 0.0


def test_boundary_residual_is_tiny(net, tables):
    for tb in tables(64):
        pde, bc = kernel_residual(tb, net)
        assert bc <= 1e-12
        assert pde <= 1e-12 * np.abs(tb.Kvw).max()


def test_pde_residual_contracts_with_resolution(net, tables):
    # the unscaled equations hold to round-off; the scaled ones, whose
    # solution is an exponential, only to the O(h^2) of central differences
    for sid in (1, 2):
        p32 = _scaled_pde_residual(solve_kernels(sid, net, M=32), net)
        p64 = _scaled_pde_residual(tables(64)[sid - 1], net)
        assert p64 < p32 / 1.5


def test_successive_tables_contract(net):
    # the reference solver of the scaled equations converges to the closed
    # form as M^-2: the measured gap ratios are 3.9999-4.0000 on both triples
    for Ms, ratio in (((32, 64, 128), 1.5), ((256, 512, 1024), 3.5)):
        for sid in (1, 2):
            gaps = []
            for M in Ms:
                tb = solve_kernels(sid, net, M=M)
                ref = _Geometry(sid, net, M).unscaled_kvw()
                gaps.append(np.abs(ref - tb.Kvw).max())
            assert gaps[1] < gaps[0] / ratio
            assert gaps[2] < gaps[1] / ratio


def test_reference_matches_closed_form_on_random_networks():
    # the same M^-2 convergence on networks from criterion 2's ranges, where
    # the measured gaps at M = 256 are at most 2.7e-7 |D|
    for n in random_networks(8, seed=7):
        for sid in (1, 2):
            gaps = []
            for M in (64, 128, 256):
                tb = solve_kernels(sid, n, M=M)
                gaps.append(np.abs(_Geometry(sid, n, M).unscaled_kvw() - tb.Kvw).max())
            assert gaps[1] < gaps[0] / 3.5
            assert gaps[2] < gaps[1] / 3.5
            assert gaps[2] <= 1e-6 * abs(tb.Kvw[0, 0])


def _transform_gain(tb):
    """1 + max_x int (|K^vw| + |K^vv|) dxi, the inf-norm bound of beta's map."""
    return 1.0 + float(np.max((np.abs(tb.Kvw) + np.abs(tb.Kvv)) @ trap_weights(tb.M + 1, tb.h)))


# the corner of criterion 2's ranges at q* = 0.05 of the admissible maximum:
# v_max = 25 m/s, L = 3000 m, rho_max = 0.3/1.2 veh/m, gamma = 0.8/2.2,
# tau = 60 s, where L/(tau2 v2*) = 852 and the scaled tables overflowed
CORNER = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.03 / 0.88]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    u=st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9),
    M=st.sampled_from([32, 64, 128]),
)
@example(u=CORNER, M=128)
def test_tables_bounded_on_admissible_networks(u, M):
    # q* over [0.02, 0.9] of the admissible maximum; over 4,000 seeded draws
    # plus the corner the largest max|K^vw| was 9.5e-4 and the largest
    # transform gain 6.05
    n = _criterion_2_network(u, q_range=(0.02, 0.9))
    assume(n is not None)
    size = gain = 0.0
    for sid in (1, 2):
        tb = solve_kernels(sid, n, M=M)
        assert np.isfinite(tb.Kvw).all() and np.isfinite(tb.Kvv).all()
        pde, bc = kernel_residual(tb, n)
        scale = float(np.abs(tb.Kvw).max())
        assert bc <= 1e-12
        assert pde <= 1e-12 * scale
        size, gain = max(size, scale), max(gain, _transform_gain(tb))
    target(size, label="max|K^vw|")
    target(gain, label="transform gain")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    u=st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9),
    reverse=st.booleans(),
    M=st.sampled_from([16, 64, 256]),
)
def test_kernel_constant_is_the_tables_constant(u, reverse, M):
    # one source for D_i, over criterion 2's ranges: the table's constant
    # is kernel_constant's, bit for bit
    n = _criterion_2_network(u, reverse)
    assume(n is not None)
    for sid, seg, ss, sign in ((1, n.seg1, n.ss1, -1.0), (2, n.seg2, n.ss2, 1.0)):
        D = kernel_constant(sid, n)
        assert D == sign / (seg.tau * seg.gamma * ss.p_star)
        assert np.float64(D).tobytes() == np.float64(solve_kernels(sid, n, M=M).D).tobytes()


def _kernel_residual_by_rows(table, net):
    """The per-row loop that kernel_residual vectorizes, kept as its reference."""
    if table.segment_id == 1:
        ss, seg, r, sign = net.ss1, net.seg1, boundary_rows(net).r1, -1.0
    else:
        ss, seg, r, sign = net.ss2, net.seg2, boundary_rows(net).r2, 1.0
    M, h, Kvw, Kvv = table.M, table.h, table.Kvw, table.Kvv
    lam_w, lam_v = ss.lambda_w, ss.lambda_v
    pde = 0.0
    for j in range(1, M):
        ks = np.arange(j + 1, M) if table.segment_id == 1 else np.arange(1, j)
        if ks.size == 0:
            continue
        dKdx_vw = (Kvw[j + 1, ks] - Kvw[j - 1, ks]) / (2 * h)
        dKdxi_vw = (Kvw[j, ks + 1] - Kvw[j, ks - 1]) / (2 * h)
        r1 = lam_v * dKdx_vw - lam_w * dKdxi_vw + (Kvw[j, ks] + Kvv[j, ks]) / seg.tau
        dKdx_vv = (Kvv[j + 1, ks] - Kvv[j - 1, ks]) / (2 * h)
        dKdxi_vv = (Kvv[j, ks + 1] - Kvv[j, ks - 1]) / (2 * h)
        r2 = dKdx_vv + dKdxi_vv
        pde = max(pde, float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))
    diag_vals = np.array([Kvw[j, j] for j in range(M + 1)])
    bc = float(np.max(np.abs(diag_vals - sign / (seg.tau * (lam_w + lam_v)))))
    edge = -1 if table.segment_id == 1 else 0
    bc = max(bc, float(np.max(np.abs(Kvv[:, edge] + (lam_w / lam_v) / r * Kvw[:, edge]))))
    return pde, bc


def _scaled_pde_residual_by_nodes(table, net):
    """The per-node loop that criterion 3's scaled residual vectorizes, kept
    as its reference."""
    ss, seg = (net.ss1, net.seg1) if table.segment_id == 1 else (net.ss2, net.seg2)
    Kvw = table.Kvw * scale_factor(-table.x, ss, seg)
    c = coupling_coefficient(table.x, ss, seg)
    h, worst = table.h, 0.0
    for j in range(1, table.M):
        for k in range(1, table.M):
            if (k <= j) if table.segment_id == 1 else (k >= j):
                continue
            dKdx = (Kvw[j + 1, k] - Kvw[j - 1, k]) / (2 * h)
            dKdxi = (Kvw[j, k + 1] - Kvw[j, k - 1]) / (2 * h)
            r = ss.lambda_v * dKdx - ss.lambda_w * dKdxi - c[k] * table.Kvv[j, k]
            worst = max(worst, abs(float(r)))
    return worst


def _bumped(tb):
    """A copy of a table with a smooth perturbation that every term of the
    residuals sees: on the closed form both residuals are round-off."""
    bump = np.sin(np.add.outer(tb.x, 2.0 * tb.x) / 700.0) * 1e-5
    bumped = dataclasses.replace(tb)  # the dense tables are built on first read
    bumped.Kvw, bumped.Kvv = tb.Kvw + bump, tb.Kvv - bump.T
    return bumped


def test_residual_matches_row_loop(net, tables):
    for M in (32, 64):
        for tb in tables(M):
            for t in (tb, _bumped(tb)):
                assert kernel_residual(t, net) == _kernel_residual_by_rows(t, net)
                assert _scaled_pde_residual(t, net) == _scaled_pde_residual_by_nodes(t, net)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    u=st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9),
    reverse=st.booleans(),
    M=st.sampled_from([16, 33, 128]),
)
def test_residual_matches_row_loop_on_admissible_networks(u, reverse, M):
    # the sliced stencil and the interior mask against the loops, bit for
    # bit, over criterion 2's ranges and an odd M
    n = _criterion_2_network(u, reverse)
    assume(n is not None)
    for sid in (1, 2):
        for t in (solve_kernels(sid, n, M=M), _bumped(solve_kernels(sid, n, M=M))):
            assert kernel_residual(t, n) == _kernel_residual_by_rows(t, n)
            assert _scaled_pde_residual(t, n) == _scaled_pde_residual_by_nodes(t, n)


def test_residual_allocates_three_inner_buffers(net):
    # the stencil works in place on the (M-1)^2 inner nodes: at most three
    # float buffers of them (1.56 MB at M = 256) and the masks, below four
    M = 256
    pair = [solve_kernels(sid, net, M=M) for sid in (1, 2)]
    for tb in pair:
        tb.Kvw, tb.Kvv  # built before tracing: the tables are not the check's
    tracemalloc.start()
    try:
        for tb in pair:
            kernel_residual(tb, net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * (M - 1) ** 2


def test_dense_tables_are_built_on_first_read(net):
    # the closed-loop runs read only D, so solving allocates no (M+1)^2
    # array; one 2049^2 float array is 33.6 MB
    M = 2048
    tracemalloc.start()
    try:
        table = solve_kernels(1, net, M=M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.0 * (M + 1) ** 2
    assert np.array_equal(table.Kvw, np.triu(np.full((M + 1, M + 1), table.D)))
    assert table.Kvw is table.Kvw  # built once


def test_save_table_writes_the_triangle(net, tables, tmp_path):
    for tb in tables(64):
        path = tmp_path / f"k{tb.segment_id}.csv"
        save_table(tb, path)
        lines = path.read_text().splitlines()
        assert lines[:3] == ["segment_id,M", f"{tb.segment_id},{tb.M}", "x,xi,Kvw,Kvv"]
        rows = np.loadtxt(path, delimiter=",", skiprows=3)
        assert rows.shape == ((tb.M + 1) * (tb.M + 2) // 2, 4)
        j = np.rint((rows[:, 0] - tb.x[0]) / tb.h).astype(int)
        k = np.rint((rows[:, 1] - tb.x[0]) / tb.h).astype(int)
        assert np.array_equal(rows[:, 0], tb.x[j])
        assert np.array_equal(rows[:, 1], tb.x[k])
        assert np.all(k >= j) if tb.segment_id == 1 else np.all(k <= j)
        assert len(set(zip(j, k))) == rows.shape[0]
        # %.17e round-trips a double exactly
        assert np.array_equal(rows[:, 2], tb.Kvw[j, k])
        assert np.array_equal(rows[:, 3], tb.Kvv[j, k])


def _save_table_by_rows(table, path):
    """The per-row writer that save_table vectorizes, kept as its reference."""
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


def test_save_table_matches_row_writer(net, tmp_path):
    # the triangle's node order and every value's bytes, also on tables
    # whose values differ from node to node
    for sid in (1, 2):
        tb = solve_kernels(sid, net, M=33)
        for name, t in (("closed", tb), ("bumped", _bumped(tb))):
            got, want = tmp_path / f"{name}{sid}.csv", tmp_path / f"{name}{sid}-rows.csv"
            save_table(t, got)
            _save_table_by_rows(t, want)
            assert got.read_bytes() == want.read_bytes()
