import numpy as np
import pytest

import stopngo as sg
from stopngo.errors import DomainError
from stopngo.kernels import (
    _Geometry,
    interpolate_kernel_row,
    kernel_residual,
    load_table,
    save_table,
    solve_kernels,
)
from stopngo.riemann import coupling_coefficient


def test_zero_coupling_gives_zero_tables(net):
    zero = lambda x: np.zeros_like(np.asarray(x, float))
    for sid in (1, 2):
        tb = solve_kernels(sid, net, M=32, coupling=zero)
        assert np.all(tb.Kvw == 0.0)
        assert np.all(tb.Kvv == 0.0)
        pde, bc = kernel_residual(tb, net, coupling=zero)
        assert pde == 0.0
        assert bc == 0.0


def test_resolution_validation(net):
    with pytest.raises(DomainError):
        solve_kernels(1, net, M=8)


def test_diagonal_matches_coupling(net, tables):
    # the diagonal of K^vw carries the source coefficient divided by the sum
    # of the characteristic speeds, which is gamma p* exactly
    for sid, ss, seg, sign in ((1, net.ss1, net.seg1, 1.0), (2, net.ss2, net.seg2, -1.0)):
        tb = tables(64)[sid - 1]
        gp = seg.gamma * ss.p_star
        diag = np.array([tb.Kvw[j, j] for j in range(tb.M + 1)])
        want = sign * coupling_coefficient(tb.x, ss, seg) / gp
        assert np.abs(diag - want).max() < 1e-13


def test_corner_values(net, tables):
    t1, t2 = tables(64)
    assert t1.Kvw[0, 0] == pytest.approx(-2.5591172439650453e-04, rel=1e-10)
    assert t2.Kvw[t2.M, t2.M] == pytest.approx(3.1307387467435132e-04, rel=1e-10)
    assert t2.Kvw[0, 0] == pytest.approx(3.2397595647735465e-03, rel=1e-10)
    # resolution-independent corner: K^vv = -e2 K^vw(-L, -L) = -1/(tau2 gamma p2*)
    assert t2.Kvv[t2.M, t2.M] == pytest.approx(-3.1307387467435129e-04, rel=1e-9)


def test_outer_edge_conditions(net, rows, tables):
    # terminal conditions on the outer edges: K^vv is a fixed negative
    # multiple of K^vw there (-1/e1 at x = L, -e2 at x = -L), the reflection
    # rows g_outlet = -r1 e1 and g_inlet = -e2/r2 scaled by lambda_w/lambda_v
    t1, t2 = tables(64)
    e1 = np.abs(t1.Kvv[:, -1] + t1.Kvw[:, -1] / rows.e1).max()
    e2 = np.abs(t2.Kvv[:, 0] + rows.e2 * t2.Kvw[:, 0]).max()
    assert e1 < 1e-15
    assert e2 < 1e-15


def test_boundary_residual_is_tiny(net, tables):
    for tb in tables(64):
        pde, bc = kernel_residual(tb, net)
        assert bc <= 1e-12
        assert pde < 1e-7


def test_pde_residual_contracts_with_resolution(net, tables):
    for sid in (1, 2):
        p32, _ = kernel_residual(solve_kernels(sid, net, M=32), net)
        p64, _ = kernel_residual(tables(64)[sid - 1], net)
        assert p64 < p32 / 1.5


def test_successive_tables_contract(net, tables):
    for sid in (1, 2):
        t32 = solve_kernels(sid, net, M=32)
        t64, t128 = tables(64)[sid - 1], tables(128)[sid - 1]
        d1 = np.abs(t32.Kvw - t64.Kvw[::2, ::2]).max()
        d2 = np.abs(t64.Kvw - t128.Kvw[::2, ::2]).max()
        assert d2 < d1 / 1.5


def _fixed_point_edge(geo, edge, tol):
    """The edge trace by repeated sweeps, until a sweep moves it less than tol."""
    for _ in range(500):
        new = geo.edge_update(edge)
        change = np.abs(new - edge).max()
        edge = new
        if change < tol:
            return edge
    raise AssertionError(f"fixed-point sweeps stalled at change {change}")


def _fill_kvw(geo, edge):
    M = geo.M
    Kvw = np.zeros((M + 1, M + 1))
    for d in range(M + 1):
        j = np.arange(M + 1 - d) if geo.segment_id == 1 else np.arange(d, M + 1)
        Kvw[j, j + d if geo.segment_id == 1 else j - d] = geo.kvw_offset(d, edge)
    return Kvw


@pytest.mark.parametrize("M", [64, 128, 256])
def test_direct_solve_matches_fixed_point_sweeps(net, tables, M):
    # the sweeps the solver used to iterate, run from zero and from random
    # starts to 1e-13 of the kernel scale, land on the directly solved tables
    rng = np.random.default_rng(M)
    for tb in tables(M):
        geo = _Geometry(tb.segment_id, net, M, None)
        scale = np.abs(tb.Kvw).max()
        starts = [np.zeros(M + 1)] + [rng.uniform(-scale, scale, M + 1) for _ in range(2)]
        for start in starts:
            edge = _fixed_point_edge(geo, start, 1e-13 * scale)
            assert np.abs(_fill_kvw(geo, edge) - tb.Kvw).max() <= 1e-12 * scale
        assert tb.iterations == 1


def _kernel_residual_by_rows(table, net):
    """The per-row loop that kernel_residual vectorizes, kept as its reference."""
    geo = _Geometry(table.segment_id, net, table.M, None)
    M, h, Kvw, Kvv = table.M, table.h, table.Kvw, table.Kvv
    lam_w, lam_v = geo.ss.lambda_w, geo.ss.lambda_v
    pde = 0.0
    for j in range(1, M):
        ks = np.arange(j + 1, M) if table.segment_id == 1 else np.arange(1, j)
        if ks.size == 0:
            continue
        dKdx_vw = (Kvw[j + 1, ks] - Kvw[j - 1, ks]) / (2 * h)
        dKdxi_vw = (Kvw[j, ks + 1] - Kvw[j, ks - 1]) / (2 * h)
        r1 = lam_v * dKdx_vw - lam_w * dKdxi_vw - np.asarray(geo.c(geo.x[ks])) * Kvv[j, ks]
        dKdx_vv = (Kvv[j + 1, ks] - Kvv[j - 1, ks]) / (2 * h)
        dKdxi_vv = (Kvv[j, ks + 1] - Kvv[j, ks - 1]) / (2 * h)
        r2 = dKdx_vv + dKdxi_vv
        pde = max(pde, float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))
    diag_vals = np.array([Kvw[j, j] for j in range(M + 1)])
    bc = float(np.max(np.abs(diag_vals - geo.diag(geo.x))))
    edge = -1 if table.segment_id == 1 else 0
    bc = max(bc, float(np.max(np.abs(Kvv[:, edge] - geo.anchor * Kvw[:, edge]))))
    return pde, bc


def test_residual_matches_row_loop(net, tables):
    for M in (32, 64):
        for tb in tables(M):
            assert kernel_residual(tb, net) == _kernel_residual_by_rows(tb, net)


def test_interpolate_rows(net, tables):
    t1, t2 = tables(64)
    # exact at a node
    xs, kvw, kvv = interpolate_kernel_row(t1, t1.x[10])
    assert np.array_equal(kvw, t1.Kvw[10, 10:])
    assert np.array_equal(kvv, t1.Kvv[10, 10:])
    assert xs[0] == t1.x[10]
    # exact at the far nodes of both triangles
    xs, kvw, _ = interpolate_kernel_row(t2, 0.0)
    assert xs.size == t2.M + 1
    assert kvw[-1] == t2.Kvw[t2.M, t2.M]
    xs, kvw, _ = interpolate_kernel_row(t1, net.seg1.length)
    assert xs.size == 1
    # midpoint is the average of the bracketing rows on the shared nodes
    xm = t1.x[10] + 0.5 * t1.h
    xs, kvw, kvv = interpolate_kernel_row(t1, xm)
    assert np.abs(kvw - 0.5 * (t1.Kvw[10, 11:] + t1.Kvw[11, 11:])).max() < 1e-18
    with pytest.raises(DomainError):
        interpolate_kernel_row(t1, -5.0)
    with pytest.raises(DomainError):
        interpolate_kernel_row(t2, 5.0)


def test_save_load_round_trip(net, tables, tmp_path):
    for tb in tables(64):
        path = tmp_path / f"k{tb.segment_id}.csv"
        save_table(tb, path)
        back = load_table(path)
        assert back.segment_id == tb.segment_id
        assert back.M == tb.M
        assert np.array_equal(back.x, tb.x)
        assert np.array_equal(back.Kvw, tb.Kvw)
        assert np.array_equal(back.Kvv, tb.Kvv)
