import dataclasses

import numpy as np
import pytest
from scipy.integrate import simpson

import stopngo as sg
from stopngo.control import trap_weights
from stopngo.errors import DomainError, SimulationError
from stopngo.model import equilibrium_velocity, pressure
from stopngo.riemann import PHYSICAL, coupling_coefficient, riemann_arrays
from stopngo.sim import (
    RHO_FLOOR,
    export_norms_csv,
    export_states_csv,
    initial_condition,
    norms_and_rate,
    run_linear,
    run_nonlinear,
)
from test_kernels import CORNER
from test_stability import _criterion_2_network


def test_config_validation():
    with pytest.raises(DomainError):
        sg.SimConfig(t_final=10.0, N=16, ic=sg.ICSpec())
    with pytest.raises(DomainError):
        sg.SimConfig(t_final=10.0, cfl=0.99, ic=sg.ICSpec())
    with pytest.raises(DomainError):
        sg.SimConfig(t_final=-1.0, ic=sg.ICSpec())
    with pytest.raises(DomainError):
        sg.ICSpec(eps=-0.1)


def test_initial_condition_zero_amplitude(net):
    p1, p2 = initial_condition(sg.ICSpec(eps=0.0), net, 64)
    assert np.abs(p1.a - net.ss1.rho_star).max() == 0.0
    assert np.abs(p2.b - net.ss2.v_star).max() == 0.0
    assert p1.rep == PHYSICAL


def test_initial_condition_extrema(net):
    # k = 1 puts the crest exactly on the quarter node
    p1, p2 = initial_condition(sg.ICSpec(eps=0.1, k1=1, k2=1), net, 256)
    assert p1.a.max() == pytest.approx(net.ss1.rho_star * 1.1, rel=1e-13)
    assert p1.a.min() == pytest.approx(net.ss1.rho_star * 0.9, rel=1e-13)
    assert p2.a.max() == pytest.approx(net.ss2.rho_star * 1.1, rel=1e-13)
    # speeds stay on the equilibrium curve
    assert np.abs(p1.b - equilibrium_velocity(p1.a, net.seg1)).max() < 1e-13
    assert np.abs(p2.b - equilibrium_velocity(p2.a, net.seg2)).max() < 1e-13


def test_initial_condition_junction_compatible(net):
    # zero phase makes the sine vanish at x = 0 on both segments, so flux
    # continuity and driver-property continuity hold there exactly
    p1, p2 = initial_condition(sg.ICSpec(eps=0.2, k1=3, k2=2), net, 128)
    q1 = p1.a[0] * p1.b[0]
    q2 = p2.a[-1] * p2.b[-1]
    assert q1 == pytest.approx(q2, rel=1e-13)
    assert q1 == pytest.approx(net.ss1.q_star, rel=1e-13)
    w1 = p1.b[0] + pressure(p1.a[0], net.seg1)
    w2 = p2.b[-1] + pressure(p2.a[-1], net.seg2)
    assert w1 == pytest.approx(w2, rel=1e-14)


def test_initial_condition_range_guard(net):
    with pytest.raises(DomainError):
        initial_condition(sg.ICSpec(eps=0.5), net, 64)


def test_zero_data_stays_zero(net, window):
    cfg = sg.SimConfig(
        t_final=window, N=64, loop_mode="open", model="linear",
        ic=sg.ICSpec(eps=0.0), record_every=8,
    )
    rec = run_linear(cfg, net, None)
    assert np.abs(rec.wbar1).max() == 0.0
    assert np.abs(rec.vtil2).max() == 0.0
    assert np.abs(rec.u0).max() == 0.0
    hist = norms_and_rate(rec)
    assert hist.status == "converged"
    assert hist.rate is None


def test_steady_state_preserved_nonlinear(net):
    cfg = sg.SimConfig(
        t_final=20.0, N=64, loop_mode="open", model="nonlinear",
        ic=sg.ICSpec(eps=0.0), record_every=1,
    )
    rec = run_nonlinear(cfg, net)
    drift = max(
        np.abs(rec.rho1 / net.ss1.rho_star - 1.0).max(),
        np.abs(rec.v1 / net.ss1.v_star - 1.0).max(),
        np.abs(rec.rho2 / net.ss2.rho_star - 1.0).max(),
        np.abs(rec.v2 / net.ss2.v_star - 1.0).max(),
    )
    assert drift < 1e-10
    assert rec.mass_err < 1e-10


def test_mass_accounting_with_perturbation(net, window):
    cfg = sg.SimConfig(
        t_final=window, N=96, loop_mode="open", model="nonlinear",
        ic=sg.ICSpec(eps=0.05), record_every=64,
    )
    rec = run_nonlinear(cfg, net)
    assert rec.mass_err < 1e-10


def test_cfl_bound_every_step(net):
    cfg = sg.SimConfig(
        t_final=30.0, N=64, loop_mode="open", model="nonlinear",
        ic=sg.ICSpec(eps=0.05), record_every=1,
    )
    rec = run_nonlinear(cfg, net)
    h = rec.grid1[1] - rec.grid1[0]
    t = np.asarray(rec.times)
    worst = 0.0
    for i in range(t.size - 1):
        dt = t[i + 1] - t[i]
        amax = 0.0
        for rho, v, seg in (
            (rec.rho1[i], rec.v1[i], net.seg1),
            (rec.rho2[i], rec.v2[i], net.seg2),
        ):
            lam2 = v - seg.gamma * pressure(np.asarray(rho), seg)
            amax = max(amax, float(np.max(np.abs(v))), float(np.max(np.abs(lam2))))
        worst = max(worst, dt * amax / h)
    assert worst <= cfg.cfl + 1e-12


def test_linear_cfl_and_time_grid(net, window):
    cfg = sg.SimConfig(
        t_final=0.3 * window, N=64, loop_mode="open", model="linear",
        ic=sg.ICSpec(eps=0.1), record_every=1,
    )
    rec = run_linear(cfg, net, None)
    t = np.asarray(rec.times)
    h = rec.grid1[1] - rec.grid1[0]
    speed = max(net.ss1.lambda_w, net.ss1.lambda_v, net.ss2.lambda_w, net.ss2.lambda_v)
    dts = np.diff(t)
    assert np.all(dts * speed / h <= cfg.cfl + 1e-12)
    assert dts[0] == pytest.approx(cfg.cfl * h / speed, rel=1e-13)
    assert t[-1] == cfg.t_final


def test_open_loop_dissipative_without_coupling(net, window, monkeypatch):
    monkeypatch.setattr(
        "stopngo.sim.coupling_coefficient", lambda x, ss, params: np.zeros_like(x)
    )
    cfg = sg.SimConfig(
        t_final=3.0 * window, N=64, loop_mode="open", model="linear",
        ic=sg.ICSpec(eps=0.1), record_every=4,
    )
    rec = run_linear(cfg, net)
    t = np.asarray(rec.times)
    tot = np.sqrt(np.asarray(rec.norm1) ** 2 + np.asarray(rec.norm2) ** 2)
    probe = np.linspace(0.0, 2.0 * window, 200)
    now = np.interp(probe, t, tot)
    later = np.interp(probe + window, t, tot)
    assert np.all(later <= now + 1e-12 * tot[0])


def test_closed_loop_linear_contracts(net, tables, window):
    cfg = sg.SimConfig(
        t_final=3.0 * window, N=128, loop_mode="closed", model="linear",
        ic=sg.ICSpec(eps=0.1), record_every=8,
    )
    rec = run_linear(cfg, net, tables(128))
    tot = np.sqrt(np.asarray(rec.norm1) ** 2 + np.asarray(rec.norm2) ** 2)
    assert tot[-1] <= 0.05 * tot[0]
    hist = norms_and_rate(rec)
    assert hist.status == "ok"
    assert hist.rate is not None and hist.rate > 0.0


def test_closed_nonlinear_requires_tables(net):
    cfg = sg.SimConfig(
        t_final=5.0, N=64, loop_mode="closed", model="nonlinear",
        ic=sg.ICSpec(eps=0.05), record_every=8,
    )
    with pytest.raises(DomainError):
        run_nonlinear(cfg, net)


def test_inlet_ghost_density_failure(net, window):
    cfg = sg.SimConfig(
        t_final=window, N=64, loop_mode="open", model="nonlinear",
        ic=sg.ICSpec(eps=0.08), record_every=8,
    )
    with pytest.raises(
        SimulationError, match="inlet ghost density reached rho_max at step 19$"
    ):
        run_nonlinear(cfg, net)


def test_corner_closed_loop_stops_where_the_open_loop_does():
    # at q* = 0.05 of the admissible maximum on the corner of criterion 2's
    # ranges, the kernels in scaled coordinates overflowed and the closed
    # loop stopped on a non-finite state; with the bounded kernels it stops
    # where the open loop does, on the plant's inlet bound (v2* = 0.06 m/s)
    net = _criterion_2_network(CORNER, q_range=(0.02, 0.9))
    tables = (sg.solve_kernels(1, net, M=64), sg.solve_kernels(2, net, M=64))
    for loop, tb in (("open", None), ("closed", tables)):
        cfg = sg.SimConfig(
            t_final=60.0, N=64, loop_mode=loop, model="nonlinear",
            ic=sg.ICSpec(eps=1e-3), record_every=8,
        )
        with pytest.raises(
            SimulationError, match="inlet ghost density reached rho_max at step 1$"
        ):
            run_nonlinear(cfg, net, tb)


def test_density_pushed_above_rho_max_raises(net, window, monkeypatch):
    # segment 1 starts just below rho_max with fast traffic running into slow
    # traffic; the first flux update piles density above rho_max, and the
    # pressure evaluation on the post-flux state must reject it
    def pile_up(ic, net, N):
        p1, p2 = initial_condition(ic, net, N)
        rho = np.full(p1.grid.size, 0.99 * net.seg1.rho_max)
        v = np.where(p1.grid < 0.5 * net.seg1.length, 20.0, 1.0)
        return dataclasses.replace(p1, a=rho, b=v), p2

    monkeypatch.setattr(sg.sim, "initial_condition", pile_up)
    cfg = sg.SimConfig(
        t_final=window, N=64, loop_mode="open", model="nonlinear",
        ic=sg.ICSpec(eps=0.0), record_every=8,
    )
    with pytest.raises(DomainError, match=r"density outside \[0, 0\.6667\]$"):
        run_nonlinear(cfg, net)


def test_segment_2_density_pushed_above_rho_max_raises(net, window, monkeypatch):
    # the twin of the test above in segment 2: the stacked range check must
    # name the offending segment's rho_max (0.8), not segment 1's
    def pile_up(ic, net, N):
        p1, p2 = initial_condition(ic, net, N)
        rho = np.full(p2.grid.size, 0.99 * net.seg2.rho_max)
        v = np.where(p2.grid < -0.5 * net.seg2.length, 20.0, 1.0)
        return p1, dataclasses.replace(p2, a=rho, b=v)

    monkeypatch.setattr(sg.sim, "initial_condition", pile_up)
    cfg = sg.SimConfig(
        t_final=window, N=64, loop_mode="open", model="nonlinear",
        ic=sg.ICSpec(eps=0.0), record_every=8,
    )
    with pytest.raises(DomainError, match=r"density outside \[0, 0\.8\]$"):
        run_nonlinear(cfg, net)


def test_regime_exit_names_segment_2(net, window, monkeypatch):
    # a stopped node in segment 2 only; segment 1 is a valid congested state
    def stalled(ic, net, N):
        p1, p2 = initial_condition(ic, net, N)
        v = p2.b.copy()
        v[N // 2] = 0.0
        return p1, dataclasses.replace(p2, b=v)

    monkeypatch.setattr(sg.sim, "initial_condition", stalled)
    cfg = sg.SimConfig(
        t_final=window, N=64, loop_mode="open", model="nonlinear",
        ic=sg.ICSpec(eps=0.02), record_every=8,
    )
    with pytest.raises(
        SimulationError, match="state left the congested regime in segment 2 at step 0,"
    ):
        run_nonlinear(cfg, net)


def test_nan_density_is_caught_by_the_finiteness_check(net, window, monkeypatch):
    # a NaN fails every min/any comparison, so the range and regime checks
    # let it through; the finiteness check after the first step stops it
    def poisoned(ic, net, N):
        p1, p2 = initial_condition(ic, net, N)
        rho = p1.a.copy()
        rho[N // 2] = np.nan
        return dataclasses.replace(p1, a=rho), p2

    monkeypatch.setattr(sg.sim, "initial_condition", poisoned)
    cfg = sg.SimConfig(
        t_final=window, N=64, loop_mode="open", model="nonlinear",
        ic=sg.ICSpec(eps=0.02), record_every=8,
    )
    with pytest.raises(SimulationError, match="non-finite state at step 1,"):
        run_nonlinear(cfg, net)


def test_density_at_the_floor_leaves_the_congested_regime(net, window, monkeypatch):
    def thinned(ic, net, N):
        p1, p2 = initial_condition(ic, net, N)
        rho = p1.a.copy()
        rho[N // 3] = RHO_FLOOR
        return dataclasses.replace(p1, a=rho), p2

    monkeypatch.setattr(sg.sim, "initial_condition", thinned)
    cfg = sg.SimConfig(
        t_final=window, N=64, loop_mode="open", model="nonlinear",
        ic=sg.ICSpec(eps=0.02), record_every=8,
    )
    with pytest.raises(
        SimulationError, match="state left the congested regime in segment 1 at step 0,"
    ):
        run_nonlinear(cfg, net)


def test_records_do_not_alias_the_work_buffers(net, tables, window):
    # the stepper overwrites its state and work arrays in place every step;
    # the first record must still hold the initial condition after the run
    cfg = sg.SimConfig(
        t_final=0.05 * window, N=64, loop_mode="closed", model="nonlinear",
        ic=sg.ICSpec(eps=0.05, phase1=0.4), record_every=1,
    )
    rec = run_nonlinear(cfg, net, tables(64))
    p1, p2 = initial_condition(cfg.ic, net, cfg.N)
    assert rec.n_steps > 10
    assert np.array_equal(rec.rho1[0], p1.a)
    assert np.array_equal(rec.v1[0], p1.b)
    assert np.array_equal(rec.rho2[0], p2.a)
    assert np.array_equal(rec.v2[0], p2.b)


@pytest.mark.filterwarnings("error")
def test_closed_loop_run_and_export_print_nothing(net, tables, window, tmp_path, capfd):
    # the benchmark reads a JSON result from the last line of its output, so
    # stepping and exporting must write nothing to stdout or stderr; pytest
    # captures warnings apart from capfd, so they are made errors here
    cfg = sg.SimConfig(
        t_final=0.05 * window, N=64, loop_mode="closed", model="nonlinear",
        ic=sg.ICSpec(eps=0.05), record_every=8,
    )
    rec = run_nonlinear(cfg, net, tables(64))
    export_states_csv(rec, tmp_path / "states.csv")
    export_norms_csv(rec, tmp_path / "norms.csv")
    out, err = capfd.readouterr()
    assert out == "" and err == ""


def test_determinism(net):
    cfg = sg.SimConfig(
        t_final=60.0, N=64, loop_mode="open", model="nonlinear",
        ic=sg.ICSpec(eps=0.05), record_every=8,
    )
    a = run_nonlinear(cfg, net)
    b = run_nonlinear(cfg, net)
    assert np.array_equal(a.rho1, b.rho1)
    assert np.array_equal(a.v2, b.v2)
    assert np.array_equal(a.times, b.times)


def test_norms_need_enough_samples(net):
    cfg = sg.SimConfig(
        t_final=5.0, N=64, loop_mode="open", model="linear",
        ic=sg.ICSpec(eps=0.1), record_every=10**9,
    )
    rec = run_linear(cfg, net, None)
    with pytest.raises(DomainError):
        norms_and_rate(rec)


def test_norms_constant_record_rate_zero(net, window):
    rec = run_linear(
        sg.SimConfig(
            t_final=3.0 * window, N=64, loop_mode="open", model="linear",
            ic=sg.ICSpec(eps=0.1), record_every=16,
        ),
        net,
        None,
    )
    flat = dataclasses.replace(
        rec,
        norm1=np.ones_like(np.asarray(rec.norm1)),
        norm2=np.zeros_like(np.asarray(rec.norm2)),
    )
    hist = norms_and_rate(flat)
    assert hist.status == "ok"
    assert hist.rate == pytest.approx(0.0, abs=1e-12)


def test_norms_synthetic_rate_recovered(net, window):
    rec = run_linear(
        sg.SimConfig(
            t_final=12.0 * window, N=32, loop_mode="open", model="linear",
            ic=sg.ICSpec(eps=0.1), record_every=8,
        ),
        net,
        None,
    )
    t = np.asarray(rec.times)
    sigma = 2.0 / window
    shaped = dataclasses.replace(
        rec,
        norm1=np.exp(-sigma * t) * (1.1 + np.cos(2 * np.pi * t / (window / 3.0))),
        norm2=np.zeros_like(t),
    )
    hist = norms_and_rate(shaped)
    assert hist.rate == pytest.approx(sigma, rel=0.01)


def _open_linear_snapshots(net, window, grids):
    out = {}
    for N in grids:
        cfg = sg.SimConfig(
            t_final=window, N=N, loop_mode="open", model="linear",
            ic=sg.ICSpec(eps=0.1), record_every=10**9,
        )
        rec = run_linear(cfg, net, None)
        out[N] = [np.asarray(f[-1]) for f in (rec.wbar1, rec.vtil1, rec.wbar2, rec.vtil2)]
    return out


def _grid_gap(snapshots, net, a, b):
    h = net.seg1.length / a
    s = sum(
        float(np.sum((pa - pb[::2]) ** 2))
        for pa, pb in zip(snapshots[a], snapshots[b])
    )
    return np.sqrt(h * s)


@pytest.fixture(scope="module")
def open_linear_snapshots(net, window):
    return _open_linear_snapshots(net, window, (128, 256, 512))


def test_grid_gaps_shrink(open_linear_snapshots, net):
    # boundary data switched on at t = 0 is only C0-compatible, so the
    # observable order over the whole domain is below 1; the successive gaps
    # must still contract clearly. On-equilibrium sinusoids carry w-bar =
    # O(eps^2) only, in shorter waves: the sin^2 of the datum, and what the
    # inlet makes from v-tilde (wavelengths shrink by lambda_w/lambda_v).
    # The upwind scheme's numerical diffusion nearly wipes them out at
    # N = 64 and 128 alike, so that pair's gap is too small and the triple
    # starts at 128. The next test covers N = 64 with an O(eps) w-bar.
    g1 = _grid_gap(open_linear_snapshots, net, 128, 256)
    g2 = _grid_gap(open_linear_snapshots, net, 256, 512)
    assert g2 < 0.85 * g1


def test_grid_gaps_shrink_from_coarse_grid(net, window, monkeypatch):
    # off-equilibrium datum (v held at v*), so w-bar carries the O(eps)
    # long-wave part of the perturbation and N = 64 already resolves it
    grids = []

    def held_speed(ic, net, N):
        grids.append(N)
        return tuple(
            dataclasses.replace(p, b=np.full(p.grid.size, ss.v_star))
            for p, ss in zip(initial_condition(ic, net, N), (net.ss1, net.ss2))
        )

    monkeypatch.setattr(sg.sim, "initial_condition", held_speed)
    snaps = _open_linear_snapshots(net, window, (64, 128, 256))
    assert grids == [64, 128, 256]
    assert _grid_gap(snaps, net, 128, 256) < 0.85 * _grid_gap(snaps, net, 64, 128)


def test_first_order_against_characteristics(net):
    # away from anything a boundary can have touched (the numerical cone
    # moves one cell per step, i.e. at max-speed/cfl), the scheme must match
    # the closed-form characteristic solution at first order
    ss, seg = net.ss1, net.seg1
    T, eps = 25.0, 0.1
    Lx = seg.length
    S = max(net.ss1.lambda_w, net.ss1.lambda_v, net.ss2.lambda_w, net.ss2.lambda_v) / 0.9

    def scaled0(x):
        rho = ss.rho_star * (1.0 + eps * np.sin(2.0 * np.pi * x / Lx))
        v = equilibrium_velocity(rho, seg)
        vt = v - ss.v_star
        wt = (seg.gamma * ss.p_star / ss.q_star) * (rho * v - ss.q_star) - vt / ss.r
        return np.exp(x / (seg.tau * ss.v_star)) * wt, vt

    def exact_v(x0):
        s = np.linspace(0.0, T, 1601)
        xi = x0 + ss.lambda_v * (T - s)
        wb = scaled0(xi - ss.v_star * s)[0]
        c = coupling_coefficient(xi, ss, seg)
        return scaled0(x0 + ss.lambda_v * T)[1] + simpson(c * wb, x=s)

    errs = {}
    for N in (64, 128, 256):
        h = Lx / N
        cfg = sg.SimConfig(
            t_final=T, N=N, loop_mode="open", model="linear",
            ic=sg.ICSpec(eps=eps), record_every=10**9,
        )
        rec = run_linear(cfg, net, None)
        x = rec.grid1
        m = (x >= S * T + 4 * h) & (x <= Lx - S * T - 4 * h)
        ew = np.abs(rec.wbar1[-1][m] - scaled0(x[m] - ss.v_star * T)[0]).max()
        ev = np.abs(rec.vtil1[-1][m] - np.array([exact_v(xx) for xx in x[m]])).max()
        errs[N] = (ew, ev)
    for i in (0, 1):
        r1 = errs[128][i] / errs[64][i]
        r2 = errs[256][i] / errs[128][i]
        assert 0.4 <= r1 <= 0.62
        assert 0.4 <= r2 <= 0.62


def test_interior_linearization_gap_is_second_order(net):
    # on cells no boundary can have influenced yet, the gap between the
    # nonlinear plant and its linearization is the dropped quadratic term:
    # halving the amplitude must quarter it (the band of criterion 6)
    T, N = 20.0, 256
    S = max(net.ss1.lambda_w, net.ss1.lambda_v, net.ss2.lambda_w, net.ss2.lambda_v) / 0.9
    h = net.seg1.length / N

    def gap(eps):
        recs = [
            run(sg.SimConfig(t_final=T, N=N, loop_mode="open", model=model,
                             ic=sg.ICSpec(eps=eps), record_every=10**9), net)
            for run, model in ((run_nonlinear, "nonlinear"), (run_linear, "linear"))
        ]
        g2 = 0.0
        for grid, keys in ((recs[0].grid1, ("wbar1", "vtil1")), (recs[0].grid2, ("wbar2", "vtil2"))):
            m = (grid >= grid[0] + S * T + 4 * h) & (grid <= grid[-1] - S * T - 4 * h)
            assert m.sum() >= N // 4
            for key in keys:
                d = getattr(recs[0], key)[-1][m] - getattr(recs[1], key)[-1][m]
                g2 += h * float(np.sum(d * d))
        return np.sqrt(g2)

    assert 3.4 <= gap(0.04) / gap(0.02) <= 4.6


def _per_segment_reference(cfg, net, tables=None):
    """The nonlinear step written segment by segment, as a reference for the
    stacked stepper: (times, u0, rho1, v1, rho2, v2) after every step, plus
    mass_err. Same expressions in the same operand order, so the stacked
    state must reproduce it bit for bit."""
    seg1, seg2 = net.seg1, net.seg2
    N = cfg.N
    h = seg1.length / N
    x1, x2 = np.linspace(0.0, seg1.length, N + 1), np.linspace(-seg1.length, 0.0, N + 1)
    ops = sg.FeedbackOperators(*tables, net, x1, x2) if tables else None
    wc = trap_weights(N + 1, h)
    phys1, phys2 = initial_condition(cfg.ic, net, N)
    rho = [phys1.a.copy(), phys2.a.copy()]
    v = [phys1.b.copy(), phys2.b.copy()]
    p = [pressure(r, s) for r, s in zip(rho, (seg1, seg2))]
    y = [r * (vv + pp) for r, vv, pp in zip(rho, v, p)]
    mass, mass_err = float(wc @ rho[0] + wc @ rho[1]), 0.0
    out = [(0.0, 0.0, rho[0].copy(), v[0].copy(), rho[1].copy(), v[1].copy())]
    t = 0.0
    while t < cfg.t_final - 1e-12 * cfg.t_final:
        a = [np.maximum(np.abs(vv - s.gamma * pp), np.abs(vv))
             for vv, pp, s in zip(v, p, (seg1, seg2))]
        dt = min(cfg.cfl * (0.5 * h) / max(float(a[0].max()), float(a[1].max())),
                 cfg.t_final - t)
        u0 = ops.u0(*riemann_arrays(rho[0], v[0], net.ss1, seg1),
                    *riemann_arrays(rho[1], v[1], net.ss2, seg2)) if ops else 0.0
        (q1J, w1J), (q_out, w_out), (q_in, w_in), (q2J, w2J) = sg.sim.boundary_fluxes(
            rho[0], v[0], rho[1], v[1], u0, net)
        ends = (((q1J, q1J * w1J), (q_out, q_out * w_out)),
                ((q_in, q_in * w_in), (q2J, q2J * w2J)))
        for i, (fl, fr) in enumerate(ends):
            am = np.maximum(a[i][:-1], a[i][1:])
            for k, (c, f) in enumerate(((rho[i], rho[i] * v[i]), (y[i], y[i] * v[i]))):
                fc = 0.5 * (f[:-1] + f[1:]) - 0.5 * am * (c[1:] - c[:-1])
                c[0] -= dt * (fc[0] - fl[k]) / (0.5 * h)
                c[1:-1] -= dt * (fc[1:] - fc[:-1]) / h
                c[-1] -= dt * (fr[k] - fc[-1]) / (0.5 * h)
        for i, s in enumerate((seg1, seg2)):
            p[i] = pressure(rho[i], s)
            v_rel = y[i] / rho[i] - p[i]
            y[i] += dt * (-rho[i] * (v_rel - (s.v_max - p[i])) / s.tau)
            v[i] = y[i] / rho[i] - p[i]
        t += dt
        new_mass = float(wc @ rho[0] + wc @ rho[1])
        mass_err = max(mass_err, abs((new_mass - mass) - dt * u0) / new_mass)
        mass = new_mass
        out.append((t, u0, rho[0].copy(), v[0].copy(), rho[1].copy(), v[1].copy()))
    return [np.array(col) for col in zip(*out)], mass_err


@pytest.mark.parametrize("which", ["default", "gamma"])
@pytest.mark.parametrize("loop", ["open", "closed"])
def test_stacked_stepper_matches_per_segment_reference(net, gamma_net, which, loop):
    net = gamma_net if which == "gamma" else net
    tables = (sg.solve_kernels(1, net, M=64), sg.solve_kernels(2, net, M=64))
    cfg = sg.SimConfig(
        t_final=0.2 * (net.ss1.kappa + net.ss2.kappa), N=64, loop_mode=loop,
        model="nonlinear", ic=sg.ICSpec(eps=0.02, k1=2, phase1=0.4, phase2=4.3),
        record_every=1,
    )
    rec = run_nonlinear(cfg, net, tables if loop == "closed" else None)
    ref, mass_err = _per_segment_reference(cfg, net, tables if loop == "closed" else None)
    assert rec.n_steps > 100
    for got, want in zip((rec.times, rec.u0, rec.rho1, rec.v1, rec.rho2, rec.v2), ref):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert rec.mass_err == mass_err
