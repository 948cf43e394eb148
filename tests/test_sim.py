import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

import stopngo as sg
from stopngo.control import backstepping_transform, control_input, trap_weights
from stopngo.errors import DomainError, SimulationError
from stopngo.kernels import kernel_constant
from stopngo.model import equilibrium_velocity, pressure, pressure_law
from stopngo.riemann import (
    boundary_rows,
    coupling_coefficient,
    physical_arrays,
    scale_factor,
    scale_w,
    to_riemann,
)
from stopngo.sim import (
    RHO_FLOOR,
    _Recorder,
    boundary_algebra,
    export_norms_csv,
    export_states_csv,
    initial_condition,
    norms_and_rate,
    run_linear,
    run_nonlinear,
)
from oracles import inverse_pressure, unscale_w
from test_kernels import CORNER
from test_stability import _criterion_2_network

# a bit-for-bit reference test fails on any differing example, and shrinking
# one costs minutes, so such tests report the first failing example as drawn
BITWISE_PHASES = (Phase.explicit, Phase.generate)


def test_config_validation():
    with pytest.raises(DomainError):
        sg.SimConfig(t_final=10.0, N=16, ic=sg.ICSpec())
    with pytest.raises(DomainError):
        sg.SimConfig(t_final=10.0, cfl=0.99, ic=sg.ICSpec())
    with pytest.raises(DomainError):
        sg.SimConfig(t_final=-1.0, ic=sg.ICSpec())
    with pytest.raises(DomainError):
        sg.ICSpec(eps=-0.1)


def test_config_rejects_non_finite_values():
    # only the constructors: a stepper given an infinite horizon never stops
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError, match="t_final"):
            sg.SimConfig(t_final=bad)
        with pytest.raises(DomainError, match="N must"):
            sg.SimConfig(t_final=10.0, N=bad)
        with pytest.raises(DomainError, match="record_every"):
            sg.SimConfig(t_final=10.0, record_every=bad)
        with pytest.raises(DomainError, match="amplitude"):
            sg.ICSpec(eps=bad)
        for name in ("k1", "k2", "phase1", "phase2"):
            with pytest.raises(DomainError, match=f"{name} must be finite"):
                sg.ICSpec(**{name: bad})


def test_initial_condition_zero_amplitude(net):
    (rho1, v1), (rho2, v2) = initial_condition(sg.ICSpec(eps=0.0), net, 64)
    assert np.abs(rho1 - net.ss1.rho_star).max() == 0.0
    assert np.abs(v2 - net.ss2.v_star).max() == 0.0
    assert rho1.shape == v1.shape == rho2.shape == v2.shape == (65,)


def test_initial_condition_extrema(net):
    # k = 1 puts the crest exactly on the quarter node
    (rho1, v1), (rho2, v2) = initial_condition(sg.ICSpec(eps=0.1, k1=1, k2=1), net, 256)
    assert rho1.max() == pytest.approx(net.ss1.rho_star * 1.1, rel=1e-13)
    assert rho1.min() == pytest.approx(net.ss1.rho_star * 0.9, rel=1e-13)
    assert rho2.max() == pytest.approx(net.ss2.rho_star * 1.1, rel=1e-13)
    # speeds stay on the equilibrium curve
    assert np.abs(v1 - equilibrium_velocity(rho1, net.seg1)).max() < 1e-13
    assert np.abs(v2 - equilibrium_velocity(rho2, net.seg2)).max() < 1e-13


def test_initial_condition_junction_compatible(net):
    # zero phase makes the sine vanish at x = 0 on both segments, so flux
    # continuity and driver-property continuity hold there exactly
    (rho1, v1), (rho2, v2) = initial_condition(sg.ICSpec(eps=0.2, k1=3, k2=2), net, 128)
    q1 = rho1[0] * v1[0]
    q2 = rho2[-1] * v2[-1]
    assert q1 == pytest.approx(q2, rel=1e-13)
    assert q1 == pytest.approx(net.ss1.q_star, rel=1e-13)
    w1 = v1[0] + pressure(rho1[0], net.seg1)
    w2 = v2[-1] + pressure(rho2[-1], net.seg2)
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


@pytest.mark.parametrize("which", ["default", "gamma"])
@pytest.mark.parametrize("loop", ["open", "closed"])
def test_mass_accounting_with_perturbation(net, gamma_net, which, loop):
    # the sub-cycled end half-cells hand both sides of each end interface
    # one flux, so the vehicle count moves only by dt U0 in either loop. On
    # the gamma network eps = 0.04 already needs an inlet ghost density
    # above rho_max, with either step rule, so it runs at 0.02
    net, eps = (gamma_net, 0.02) if which == "gamma" else (net, 0.05)
    cfg = sg.SimConfig(
        t_final=net.ss1.kappa + net.ss2.kappa, N=96, loop_mode=loop, model="nonlinear",
        ic=sg.ICSpec(eps=eps), record_every=64,
    )
    rec = run_nonlinear(cfg, net)
    assert rec.mass_err < 1e-10


@pytest.mark.parametrize("loop", ["open", "closed"])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(u=st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9))
def test_equilibrium_kept_on_admissible_networks(loop, u):
    # over criterion 2's ranges, the sub-cycled ends keep the equilibrium and
    # the vehicle count in both loops: every flux is q* to round-off
    net = _criterion_2_network(u)
    assume(net is not None)
    cfg = sg.SimConfig(t_final=net.ss1.kappa + net.ss2.kappa, N=64, loop_mode=loop,
                       model="nonlinear", ic=sg.ICSpec(eps=0.0), record_every=64)
    rec = run_nonlinear(cfg, net)
    drift = max(
        np.abs(rec.rho1 / net.ss1.rho_star - 1.0).max(),
        np.abs(rec.v1 / net.ss1.v_star - 1.0).max(),
        np.abs(rec.rho2 / net.ss2.rho_star - 1.0).max(),
        np.abs(rec.v2 / net.ss2.v_star - 1.0).max(),
    )
    assert drift < 1e-10
    assert rec.mass_err < 1e-10


def test_cfl_bound_every_step(net):
    cfg = sg.SimConfig(
        t_final=30.0, N=64, loop_mode="open", model="nonlinear",
        ic=sg.ICSpec(eps=0.05), record_every=1,
    )
    rec = run_nonlinear(cfg, net)
    h = rec.grid1[1] - rec.grid1[0]
    t = np.asarray(rec.times)
    courant = []
    for i in range(t.size - 1):
        dt = t[i + 1] - t[i]
        amax = 0.0
        for rho, v, seg in (
            (rec.rho1[i], rec.v1[i], net.seg1),
            (rec.rho2[i], rec.v2[i], net.seg2),
        ):
            lam2 = v - seg.gamma * pressure(np.asarray(rho), seg)
            amax = max(amax, float(np.max(np.abs(v))), float(np.max(np.abs(lam2))))
        courant.append(dt * amax / h)
    assert max(courant) <= cfg.cfl + 1e-12
    # the half cells' step cfl (h/2) / amax meets the bound above as well;
    # only the first step's Courant number tells the full cells' step apart
    assert courant[0] == pytest.approx(cfg.cfl, rel=1e-13)


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


def test_closed_loop_linear_contracts(net, window):
    cfg = sg.SimConfig(
        t_final=3.0 * window, N=128, loop_mode="closed", model="linear",
        ic=sg.ICSpec(eps=0.1), record_every=8,
    )
    rec = run_linear(cfg, net)
    tot = np.sqrt(np.asarray(rec.norm1) ** 2 + np.asarray(rec.norm2) ** 2)
    assert tot[-1] <= 0.05 * tot[0]
    hist = norms_and_rate(rec)
    assert hist.status == "ok"
    assert hist.rate is not None and hist.rate > 0.0


def test_closed_linear_run_memory_is_bounded(net):
    # the law and the transform read D_i and O(N) weights, so no (N+1)^2
    # array is built during the run: the peak is 1.77 MB at N = 1024 (5 s
    # simulated), and one (N+1)^2 float array alone (8.4 MB) breaks the bound
    cfg = sg.SimConfig(t_final=5.0, N=1024, loop_mode="closed", model="linear",
                       ic=sg.ICSpec(eps=0.05))
    tracemalloc.start()
    try:
        run_linear(cfg, net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_inlet_ghost_density_failure(net, window):
    cfg = sg.SimConfig(
        t_final=window, N=64, loop_mode="open", model="nonlinear",
        ic=sg.ICSpec(eps=0.08), record_every=8,
    )
    with pytest.raises(
        SimulationError, match="inlet ghost density reached rho_max at step 9$"
    ):
        run_nonlinear(cfg, net)


def test_corner_closed_loop_stops_where_the_open_loop_does():
    # at q* = 0.05 of the admissible maximum on the corner of criterion 2's
    # ranges, the kernels in scaled coordinates overflowed and the closed
    # loop stopped on a non-finite state; with the bounded kernels it stops
    # where the open loop does, on the plant's inlet bound (v2* = 0.06 m/s)
    net = _criterion_2_network(CORNER, q_range=(0.02, 0.9))
    for loop in ("open", "closed"):
        cfg = sg.SimConfig(
            t_final=60.0, N=64, loop_mode=loop, model="nonlinear",
            ic=sg.ICSpec(eps=1e-3), record_every=8,
        )
        with pytest.raises(
            SimulationError, match="inlet ghost density reached rho_max at step 0$"
        ):
            run_nonlinear(cfg, net)


def test_density_pushed_above_rho_max_raises(net, window, monkeypatch):
    # segment 1 starts just below rho_max with fast traffic running into slow
    # traffic; the first flux update piles density above rho_max, and the
    # pressure evaluation on the post-flux state must reject it
    def pile_up(ic, net, N):
        x = np.linspace(0.0, net.seg1.length, N + 1)
        rho = np.full(N + 1, 0.99 * net.seg1.rho_max)
        v = np.where(x < 0.5 * net.seg1.length, 20.0, 1.0)
        return (rho, v), initial_condition(ic, net, N)[1]

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
        x = np.linspace(-net.seg2.length, 0.0, N + 1)
        rho = np.full(N + 1, 0.99 * net.seg2.rho_max)
        v = np.where(x < -0.5 * net.seg2.length, 20.0, 1.0)
        return initial_condition(ic, net, N)[0], (rho, v)

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
        p1, (rho2, v2) = initial_condition(ic, net, N)
        v2[N // 2] = 0.0
        return p1, (rho2, v2)

    monkeypatch.setattr(sg.sim, "initial_condition", stalled)
    cfg = sg.SimConfig(
        t_final=window, N=64, loop_mode="open", model="nonlinear",
        ic=sg.ICSpec(eps=0.02), record_every=8,
    )
    with pytest.raises(
        SimulationError, match="state left the congested regime in segment 2 at step 0,"
    ):
        run_nonlinear(cfg, net)


def test_half_step_density_above_rho_max_raises(net, window, monkeypatch):
    # fast, dense traffic runs into the slow outlet node of segment 1: the
    # outlet half-cell's first half step already piles its density above
    # rho_max, and the end block's range check raises pressure()'s message
    # from its row-by-row path, on the (segment, end) row of two densities
    def pile_up(ic, net, N):
        (rho, v), p2 = initial_condition(ic, net, N)
        rho[-2:], v[-2:] = (0.99 * net.seg1.rho_max, 0.9 * net.seg1.rho_max), (40.0, 1.0)
        return (rho, v), p2

    shapes, checked = [], pressure

    def spy(rho, params):
        shapes.append(np.shape(rho))
        return checked(rho, params)

    monkeypatch.setattr(sg.sim, "initial_condition", pile_up)
    monkeypatch.setattr(sg.sim, "pressure", spy)
    cfg = sg.SimConfig(
        t_final=window, N=64, loop_mode="open", model="nonlinear",
        ic=sg.ICSpec(eps=0.0), record_every=8,
    )
    with pytest.raises(DomainError, match=r"density outside \[0, 0\.6667\]$"):
        run_nonlinear(cfg, net)
    assert shapes == [(2,)]


def test_half_step_regime_exit_names_the_step(net, window, monkeypatch):
    # a pressure ten times too large on the end block of step 3 drives the
    # half-step velocities below zero: the regime check raises its message
    # with the step being taken and the half step's time, between t_3 and t_4
    block_calls, law = [], pressure_law

    def inflated(rho, coeff, gamma):
        if np.shape(rho) == (2, 2):
            block_calls.append(rho)
            if len(block_calls) == 4:
                return 10.0 * law(rho, coeff, gamma)
        return law(rho, coeff, gamma)

    monkeypatch.setattr(sg.sim, "pressure_law", inflated)
    cfg = sg.SimConfig(
        t_final=window, N=64, loop_mode="open", model="nonlinear",
        ic=sg.ICSpec(eps=0.02), record_every=1,
    )
    with pytest.raises(SimulationError) as err:
        run_nonlinear(cfg, net)
    match = re.fullmatch(r"state left the congested regime in segment 1 at step 3, "
                         r"t = (\S+) s \(min rho = \S+, min v = -\S+\)", str(err.value))
    assert match
    monkeypatch.setattr(sg.sim, "pressure_law", law)
    times = run_nonlinear(dataclasses.replace(cfg, t_final=10.0), net).times
    assert times[3] < float(match[1]) < times[4]


def test_nan_density_is_caught_by_the_finiteness_check(net, window, monkeypatch):
    # a NaN fails every min/any comparison, so the range and regime checks
    # let it through; the finiteness check after the first step stops it
    def poisoned(ic, net, N):
        (rho1, v1), p2 = initial_condition(ic, net, N)
        rho1[N // 2] = np.nan
        return (rho1, v1), p2

    monkeypatch.setattr(sg.sim, "initial_condition", poisoned)
    cfg = sg.SimConfig(
        t_final=window, N=64, loop_mode="open", model="nonlinear",
        ic=sg.ICSpec(eps=0.02), record_every=8,
    )
    with pytest.raises(SimulationError, match="non-finite state at step 1,"):
        run_nonlinear(cfg, net)


def test_density_at_the_floor_leaves_the_congested_regime(net, window, monkeypatch):
    def thinned(ic, net, N):
        (rho1, v1), p2 = initial_condition(ic, net, N)
        rho1[N // 3] = RHO_FLOOR
        return (rho1, v1), p2

    monkeypatch.setattr(sg.sim, "initial_condition", thinned)
    cfg = sg.SimConfig(
        t_final=window, N=64, loop_mode="open", model="nonlinear",
        ic=sg.ICSpec(eps=0.02), record_every=8,
    )
    with pytest.raises(
        SimulationError, match="state left the congested regime in segment 1 at step 0,"
    ):
        run_nonlinear(cfg, net)


def test_records_do_not_alias_the_work_buffers(net, window):
    # the stepper overwrites its state and work arrays in place every step;
    # the first record must still hold the initial condition after the run
    cfg = sg.SimConfig(
        t_final=0.05 * window, N=64, loop_mode="closed", model="nonlinear",
        ic=sg.ICSpec(eps=0.05, phase1=0.4), record_every=1,
    )
    rec = run_nonlinear(cfg, net)
    (rho1, v1), (rho2, v2) = initial_condition(cfg.ic, net, cfg.N)
    assert rec.n_steps > 10
    assert np.array_equal(rec.rho1[0], rho1)
    assert np.array_equal(rec.v1[0], v1)
    assert np.array_equal(rec.rho2[0], rho2)
    assert np.array_equal(rec.v2[0], v2)


@pytest.mark.filterwarnings("error")
def test_closed_loop_run_and_export_print_nothing(net, window, tmp_path, capfd):
    # the benchmark reads a JSON result from the last line of its output, so
    # stepping and exporting must write nothing to stdout or stderr; pytest
    # captures warnings apart from capfd, so they are made errors here
    cfg = sg.SimConfig(
        t_final=0.05 * window, N=64, loop_mode="closed", model="nonlinear",
        ic=sg.ICSpec(eps=0.05), record_every=8,
    )
    rec = run_nonlinear(cfg, net)
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
            (rho, np.full(N + 1, ss.v_star))
            for (rho, _), ss in zip(initial_condition(ic, net, N), (net.ss1, net.ss2))
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


def _per_segment_reference(cfg, net, calls=None):
    """The nonlinear step written segment by segment, as a reference for the
    stacked stepper: (times, u0, rho1, v1, rho2, v2) after every step, plus
    mass_err. Same expressions in the same operand order, so the stacked
    state must reproduce it bit for bit. The step is cfl h / amax; each end
    half-cell takes two half steps, the first on the fluxes at t^n, the
    second on the boundary algebra at the half-step end states and the
    Lax-Friedrichs flux between each of them and its neighbour at t^n, and
    the end interfaces and boundaries carry the mean of the two. The
    boundary invariants w are v + p on the trace nodes, from the step's own
    pressure rows; the relaxation source -(y - rho v_max)/tau holds no
    pressure. The algebra's errors name the step, counted as the stepper
    counts it. ``calls``, if given, receives the (rho, v) trace blocks
    [segment, end] that each algebra call reads, two per step."""
    seg1, seg2 = net.seg1, net.seg2
    segs = (seg1, seg2)
    N = cfg.N
    h = seg1.length / N
    x1, x2 = np.linspace(0.0, seg1.length, N + 1), np.linspace(-seg1.length, 0.0, N + 1)
    ops = sg.FeedbackOperators(net, x1, x2) if cfg.loop_mode == "closed" else None
    wc = trap_weights(N + 1, h)
    (rho1, v1), (rho2, v2) = initial_condition(cfg.ic, net, N)
    rho, v = [rho1, rho2], [v1, v2]
    p = [pressure(r, s) for r, s in zip(rho, segs)]
    y = [r * (vv + pp) for r, vv, pp in zip(rho, v, p)]
    mass, mass_err = float(wc @ rho[0] + wc @ rho[1]), 0.0
    out = [(0.0, 0.0, rho[0].copy(), v[0].copy(), rho[1].copy(), v[1].copy())]
    t, step = 0.0, 0

    def wave_speeds(v, p):
        return [np.maximum(np.abs(vv - s.gamma * pp), np.abs(vv)) for vv, pp, s in zip(v, p, segs)]

    def algebra(rho, v, p, u0):
        # (flux of rho, flux of y) per segment and end, from the invariants
        # at the two ends of each segment's rows
        if calls is not None:
            calls.append(tuple(np.array([[x[i][0], x[i][-1]] for i in (0, 1)])
                               for x in (rho, v)))
        (q1J, w1J), (q_out, w_out), (q_in, w_in), (q2J, w2J) = _reference_boundary_fluxes(
            v[0][0], v[0][-1] + p[0][-1], v[1][0], v[1][-1] + p[1][-1], u0, net, step)
        return (((q1J, q1J * w1J), (q_out, q_out * w_out)),
                ((q_in, q_in * w_in), (q2J, q2J * w2J)))

    while t < cfg.t_final - 1e-12 * cfg.t_final:
        a = wave_speeds(v, p)
        dt = min(cfg.cfl * h / max(float(a[0].max()), float(a[1].max())),
                 cfg.t_final - t)
        u0 = 0.0
        if ops:
            u0 = control_input(ops, np.stack((rho[0] * v[0], rho[1] * v[1])), np.stack(v))
        bnd = algebra(rho, v, p, u0)
        cons = [(rho[i], y[i]) for i in (0, 1)]
        fc = []
        for i in (0, 1):
            am = np.maximum(a[i][:-1], a[i][1:])
            fc.append([0.5 * (f[:-1] + f[1:]) - 0.5 * am * (c[1:] - c[:-1])
                       for c, f in ((rho[i], rho[i] * v[i]), (y[i], y[i] * v[i]))])
        # the end half-cells' first half step: (rho, y) at both ends
        ch = [[np.array([c[0] - dt / h * (fc[i][k][0] - bnd[i][0][k]),
                         c[-1] - dt / h * (bnd[i][1][k] - fc[i][k][-1])])
               for k, c in enumerate(cons[i])] for i in (0, 1)]
        ph = [pressure(ch[i][0], s) for i, s in enumerate(segs)]
        vh = [ch[i][1] / ch[i][0] - ph[i] for i in (0, 1)]
        ah = wave_speeds(vh, ph)
        bnd_b = algebra([c[0] for c in ch], vh, ph, u0)
        for i in (0, 1):
            for k, c in enumerate(cons[i]):
                f, fh, cb = c * v[i], ch[i][k] * vh[i], ch[i][k]
                left = 0.5 * (fh[0] + f[1]) - 0.5 * max(ah[i][0], a[i][1]) * (c[1] - cb[0])
                right = 0.5 * (f[-2] + fh[1]) - 0.5 * max(a[i][-2], ah[i][1]) * (cb[1] - c[-2])
                fl = 0.5 * (bnd[i][0][k] + bnd_b[i][0][k])
                fr = 0.5 * (bnd[i][1][k] + bnd_b[i][1][k])
                fi = fc[i][k]
                fi[0], fi[-1] = 0.5 * (fi[0] + left), 0.5 * (fi[-1] + right)
                c[0] -= dt * (fi[0] - fl) / (0.5 * h)
                c[1:-1] -= dt * (fi[1:] - fi[:-1]) / h
                c[-1] -= dt * (fr - fi[-1]) / (0.5 * h)
        for i, s in enumerate(segs):
            p[i] = pressure(rho[i], s)
            y[i] -= (y[i] - rho[i] * s.v_max) / s.tau * dt
            v[i] = y[i] / rho[i] - p[i]
        t += dt
        step += 1
        new_mass = float(wc @ rho[0] + wc @ rho[1])
        mass_err = max(mass_err, abs((new_mass - mass) - dt * u0) / new_mass)
        mass = new_mass
        out.append((t, u0, rho[0].copy(), v[0].copy(), rho[1].copy(), v[1].copy()))
    return [np.array(col) for col in zip(*out)], mass_err


@pytest.mark.parametrize("which", ["default", "gamma"])
@pytest.mark.parametrize("loop", ["open", "closed"])
def test_stacked_stepper_matches_per_segment_reference(net, gamma_net, which, loop):
    net = gamma_net if which == "gamma" else net
    cfg = sg.SimConfig(
        t_final=0.2 * (net.ss1.kappa + net.ss2.kappa), N=64, loop_mode=loop,
        model="nonlinear", ic=sg.ICSpec(eps=0.02, k1=2, phase1=0.4, phase2=4.3),
        record_every=1,
    )
    rec = run_nonlinear(cfg, net)
    ref, mass_err = _per_segment_reference(cfg, net)
    assert rec.n_steps > 100
    for got, want in zip((rec.times, rec.u0, rec.rho1, rec.v1, rec.rho2, rec.v2), ref):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert rec.mass_err == mass_err


def _per_record_reference(rec, net, closed, physical):
    """Every derived field and target state of ``rec``, built one record at a
    time from the rows the stepper holds: to_riemann and scale_w from
    (rho, v), or unscale_w and the affine inverse from (w-bar, v-tilde); each
    record's trapezoid norm and L-infinity deviation; one transform per
    record, on one-row blocks."""
    grids = (rec.grid1, rec.grid2)
    ops = sg.FeedbackOperators(net, *grids) if closed else None
    cols, targets = {}, []
    for k in range(len(rec.times)):
        riem = []
        for i, (x, ss, seg) in enumerate(zip(grids, (net.ss1, net.ss2), (net.seg1, net.seg2))):
            n = str(i + 1)
            if physical:
                rho, v = getattr(rec, "rho" + n)[k], getattr(rec, "v" + n)[k]
                wt, vt = to_riemann(rho, v, ss, seg)
                wbar = scale_w(x, wt, ss, seg)
            else:
                wbar, vt = getattr(rec, "wbar" + n)[k], getattr(rec, "vtil" + n)[k]
                wt = unscale_w(x, wbar, ss, seg)
                rho, v = physical_arrays(wt, vt, ss, seg)
            riem += wt[None], vt[None]
            row = {
                "rho": rho, "v": v, "wbar": wbar, "vtil": vt,
                "norm": float(np.sqrt(np.trapezoid(wbar * wbar + vt * vt, x))),
                "linf": max(float(np.max(np.abs(rho - ss.rho_star))) / ss.rho_star,
                            float(np.max(np.abs(v - ss.v_star))) / ss.v_star),
            }
            for key, value in row.items():
                cols.setdefault(key + n, []).append(value)
        if ops is not None:
            targets += backstepping_transform(ops, *riem)
    return {k: np.array(v) for k, v in cols.items()}, targets if ops is not None else None


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("loop", ["open", "closed"])
@pytest.mark.parametrize("model", ["nonlinear", "linear"])
@settings(max_examples=10, deadline=None, derandomize=True,
          phases=BITWISE_PHASES)
@given(
    eps=st.floats(0.0, 0.05),
    k1=st.integers(1, 3),
    k2=st.integers(1, 3),
    phase1=st.floats(0.0, 2.0 * np.pi),
    phase2=st.floats(0.0, 2.0 * np.pi),
)
def test_batched_record_matches_per_record_derivation(
    net, model, loop, record_every, eps, k1, k2, phase1, phase2
):
    # the recorder keeps the stepper's rows and derives the rest once per
    # run; every field and target state must carry the per-record bits
    ic = sg.ICSpec(eps=eps, k1=k1, k2=k2, phase1=phase1, phase2=phase2)
    cfg = sg.SimConfig(t_final=40.0, N=32, loop_mode=loop, model=model, ic=ic,
                       record_every=record_every)
    rec = (run_nonlinear if model == "nonlinear" else run_linear)(cfg, net)
    # the last record closes a partial stride
    assume(record_every == 1 or rec.n_steps % record_every)
    assert len(rec.times) == rec.n_steps // record_every + 1 + (record_every > 1)
    assert rec.times[-1] == cfg.t_final
    fields, targets = _per_record_reference(rec, net, loop == "closed", model == "nonlinear")
    assert len(fields) == 12
    for key, want in fields.items():
        got = getattr(rec, key)
        assert got.shape == want.shape and got.dtype == want.dtype, key
        assert np.array_equal(got, want), key
    assert (rec.target is None) == (targets is None)
    for got, want in zip(rec.target or (), targets or (), strict=True):
        for key, value in vars(want).items():
            assert np.array_equal(getattr(got, key), value), key
    # the first record still holds the initial condition: no record aliases
    # a stepper buffer
    (rho1, v1), (rho2, v2) = initial_condition(ic, net, cfg.N)
    if model == "nonlinear":
        assert np.array_equal(rec.rho1[0], rho1) and np.array_equal(rec.rho2[0], rho2)
        assert np.array_equal(rec.v1[0], v1) and np.array_equal(rec.v2[0], v2)
    else:
        for got, x, rho, v, ss, seg in ((rec.wbar1[0], rec.grid1, rho1, v1, net.ss1, net.seg1),
                                        (rec.wbar2[0], rec.grid2, rho2, v2, net.ss2, net.seg2)):
            assert np.array_equal(got, scale_w(x, to_riemann(rho, v, ss, seg)[0], ss, seg))


def _reference_run_linear(cfg, net):
    """The linear stepper one row at a time, four copies and four slice
    expressions per step, as a reference for the flat stacked state. Same
    expressions in the same operand order, so the stacked stepper must
    reproduce every record, target state and trace bit for bit."""
    closed = cfg.loop_mode == "closed"
    ss1, ss2, seg1, seg2 = net.ss1, net.ss2, net.seg1, net.seg2
    N = cfg.N
    L = seg1.length
    h = L / N
    x1 = np.linspace(0.0, L, N + 1)
    x2 = np.linspace(-L, 0.0, N + 1)
    ops = sg.FeedbackOperators(net, x1, x2) if closed else None
    (rho1, u1), (rho2, u2) = initial_condition(cfg.ic, net, N)
    w1, v1 = to_riemann(rho1, u1, ss1, seg1)
    w2, v2 = to_riemann(rho2, u2, ss2, seg2)
    w1, w2 = scale_w(x1, w1, ss1, seg1), scale_w(x2, w2, ss2, seg2)
    c1 = coupling_coefficient(x1, ss1, seg1)
    c2 = coupling_coefficient(x2, ss2, seg2)
    rows = boundary_rows(net)
    dt0 = cfg.cfl * h / max(ss1.lambda_w, ss1.lambda_v, ss2.lambda_w, ss2.lambda_v)
    trace_t = None
    if ops is not None:
        # the junction rows from the kernel constants and the trapezoid
        # weights of each grid, not from the operators under test
        j1 = kernel_constant(1, net) * trap_weights(N + 1, (x1[-1] - x1[0]) / N)
        j2 = kernel_constant(2, net) * trap_weights(N + 1, (x2[-1] - x2[0]) / N)
        k1v0, k2vN = -j1, -j2
        k1w0 = j1 * scale_factor(-x1, ss1, seg1)
        k2wN = j2 * scale_factor(-x2, ss2, seg2)
        denom = 1.0 - k2vN[N]
        trace_t, trace_b2 = [], []
    rec = _Recorder(net, x1, x2, ops, physical=False)
    rec.push(0.0, 0.0, np.concatenate((w1, v1, w2, v2)))
    t, step, u0 = 0.0, 0, 0.0
    while t < cfg.t_final - 1e-9 * dt0:
        dt = min(dt0, cfg.t_final - t)
        nw1, nv1 = ss1.lambda_w * dt / h, ss1.lambda_v * dt / h
        nw2, nv2 = ss2.lambda_w * dt / h, ss2.lambda_v * dt / h
        neww1, newv1 = w1.copy(), v1.copy()
        neww2, newv2 = w2.copy(), v2.copy()
        neww1[1:] = w1[1:] - nw1 * (w1[1:] - w1[:-1])
        newv1[:-1] = v1[:-1] + nv1 * (v1[1:] - v1[:-1]) + dt * c1[:-1] * w1[:-1]
        neww2[1:] = w2[1:] - nw2 * (w2[1:] - w2[:-1])
        newv2[:-1] = v2[:-1] + nv2 * (v2[1:] - v2[:-1]) + dt * c2[:-1] * w2[:-1]
        newv1[-1] = rows.g_outlet * neww1[-1]
        neww2[0] = rows.g_inlet * newv2[0]
        neww1[0] = rows.g_junction_w * neww2[-1]
        rhs0 = rows.g_t * newv1[0] + rows.g_a * neww2[-1]
        if closed:
            i1 = float(k1w0 @ neww1 + k1v0 @ newv1)
            i2p = float(k2wN @ neww2 + k2vN @ newv2) - k2vN[N] * newv2[-1]
            newv2[-1] = (rhs0 + i2p - rows.g_t * i1) / denom
            i2 = i2p + k2vN[N] * newv2[-1]
            u0 = (newv2[-1] - rhs0) / rows.g_control
        else:
            newv2[-1] = rhs0
            u0 = 0.0
        w1, v1, w2, v2 = neww1, newv1, neww2, newv2
        t += dt
        step += 1
        if not all(np.isfinite(a).all() for a in (w1, v1, w2, v2)):
            raise SimulationError(f"non-finite state at step {step}, t = {t:.3f} s")
        if trace_t is not None:
            trace_t.append(t)
            trace_b2.append(v2[-1] - i2)
        if step % cfg.record_every == 0 or t >= cfg.t_final - 1e-9 * dt0:
            rec.push(t, u0, np.concatenate((w1, v1, w2, v2)))
    extra = {}
    if trace_t is not None:
        extra = dict(trace_times=np.asarray(trace_t), trace_beta2=np.asarray(trace_b2))
    return rec.finish(ss1.kappa + ss2.kappa, step, **extra)


@pytest.mark.parametrize("which", ["default", "gamma"])
@pytest.mark.parametrize("loop", ["open", "closed"])
@settings(max_examples=8, deadline=None, derandomize=True,
          phases=BITWISE_PHASES)
@given(
    N=st.sampled_from([32, 64]),
    record_every=st.sampled_from([1, 7]),
    eps=st.floats(0.0, 0.05),
    k1=st.integers(1, 3),
    k2=st.integers(1, 3),
    phase1=st.floats(0.0, 2.0 * np.pi),
    phase2=st.floats(0.0, 2.0 * np.pi),
    span=st.floats(0.05, 0.6),
)
def test_flat_linear_stepper_matches_row_reference(
    net, gamma_net, which, loop, N, record_every, eps, k1, k2, phase1, phase2, span
):
    # the flat state must give every record, target state and beta2 trace
    # the bits of the row-by-row loop, the closed loop's junction solve included
    net = gamma_net if which == "gamma" else net
    cfg = sg.SimConfig(
        t_final=span * (net.ss1.kappa + net.ss2.kappa), N=N,
        loop_mode=loop, model="linear",
        ic=sg.ICSpec(eps=eps, k1=k1, k2=k2, phase1=phase1, phase2=phase2),
        record_every=record_every,
    )
    got, want = run_linear(cfg, net), _reference_run_linear(cfg, net)
    assert got.n_steps == want.n_steps and got.n_steps > 10
    assert (got.trace_times is None) == (loop == "open")
    for key, value in vars(want).items():
        if isinstance(value, np.ndarray):
            other = getattr(got, key)
            assert other.dtype == value.dtype and np.array_equal(other, value), key
        elif key != "target":
            assert getattr(got, key) == value, key
    assert (got.target is None) == (want.target is None)
    for a, b in zip(got.target or (), want.target or (), strict=True):
        for key, value in vars(b).items():
            assert np.array_equal(getattr(a, key), value), key


@pytest.mark.parametrize("loop", ["open", "closed"])
@settings(max_examples=40, deadline=None, derandomize=True,
          phases=BITWISE_PHASES)
@given(u=st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9), eps=st.floats(0.0, 0.001),
       k1=st.integers(1, 3), k2=st.integers(1, 3), phase1=st.floats(0.0, 2.0 * np.pi),
       phase2=st.floats(0.0, 2.0 * np.pi))
# the inlet ghost density reaches rho_max at step 3 of the closed loop
@example(u=[0.0] * 5 + [1.0] + [0.0] * 3, eps=0.00095, k1=1, k2=1, phase1=0.0, phase2=0.0)
def test_steppers_match_their_references_on_admissible_networks(loop, u, eps, k1, k2,
                                                                 phase1, phase2):
    # over criterion 2's ranges, with gamma != 1 on both segments, both
    # steppers give the bits of their one-segment-at-a-time references, or
    # both sides raise the same error with the same message, step included
    net = _criterion_2_network(u)
    assume(net is not None and net.seg1.gamma != 1.0 and net.seg2.gamma != 1.0)
    ic = sg.ICSpec(eps=eps, k1=k1, k2=k2, phase1=phase1, phase2=phase2)
    # a few dozen steps: dt is at most 0.9 h / v_max in both steppers
    t_final = 30.0 * net.seg1.length / 32 / net.seg1.v_max
    cfg = sg.SimConfig(t_final=t_final, N=32, loop_mode=loop, model="nonlinear", ic=ic,
                       record_every=1)
    rec, ref = _outcome(run_nonlinear, cfg, net), _outcome(_per_segment_reference, cfg, net)
    if isinstance(rec, sg.SimRecord):
        want, mass_err = ref
        assert rec.n_steps > 10
        for got, value in zip((rec.times, rec.u0, rec.rho1, rec.v1, rec.rho2, rec.v2), want,
                              strict=True):
            assert got.shape == value.shape and np.array_equal(got, value)
        assert rec.mass_err == mass_err
    else:
        assert rec == ref

    cfg = dataclasses.replace(cfg, model="linear")
    got, want = _outcome(run_linear, cfg, net), _outcome(_reference_run_linear, cfg, net)
    if isinstance(want, sg.SimRecord):
        assert got.n_steps == want.n_steps > 10
        for key, value in vars(want).items():
            if isinstance(value, np.ndarray):
                other = getattr(got, key)
                assert other.dtype == value.dtype and np.array_equal(other, value), key
            elif key != "target":
                assert getattr(got, key) == value, key
        for a, b in zip(got.target or (), want.target or (), strict=True):
            for key, value in vars(b).items():
                assert np.array_equal(getattr(a, key), value), key
    else:
        assert got == want


_NON_FINITE = [("rho", np.nan), ("v", np.nan), ("v", np.inf), ("rho", np.inf), ("v", -np.inf)]


@pytest.mark.parametrize("model", ["nonlinear", "linear"])
@pytest.mark.parametrize("loop", ["open", "closed"])
@pytest.mark.parametrize(
    "segment, field, value",
    [pytest.param(1, field, value, id=f"{field}-{value}") for field, value in _NON_FINITE]
    + [pytest.param(2, field, value, id=f"{field}2-{value}") for field, value in _NON_FINITE],
)
def test_non_finite_state_ends_in_the_named_error(net, window, monkeypatch, model, loop,
                                                  segment, field, value):
    # the suite turns warnings into errors, so a NaN that a non-finite node
    # makes on its way to the checks must not end the run with a bare
    # RuntimeWarning; each case keeps its error type, message and step, with
    # the bad node in either row of the stacked state
    def poisoned(ic, net, N):
        pairs = initial_condition(ic, net, N)
        rho, v = pairs[segment - 1]
        (rho if field == "rho" else v)[N // 2] = value
        return pairs

    monkeypatch.setattr(sg.sim, "initial_condition", poisoned)
    cfg = sg.SimConfig(t_final=window, N=64, loop_mode=loop, model=model,
                       ic=sg.ICSpec(eps=0.02), record_every=8)
    error, message = SimulationError, "non-finite state at step 1, t = 1.083 s"
    if model == "nonlinear":
        # a NaN spreads to the step length, an infinite speed makes it zero
        message = f"non-finite state at step 1, t = {'nan' if np.isnan(value) else '0.000'} s"
        if field == "rho" and value > 0.0:  # the range check of the initial pressure
            error, message = DomainError, f"density outside [0, {('0.6667', '0.8')[segment - 1]}]"
        elif value < 0.0:
            min_rho = ("4.728e-01", "6.183e-01")[segment - 1]
            message = (f"state left the congested regime in segment {segment} at step 0, "
                       f"t = 0.000 s (min rho = {min_rho}, min v = -inf)")
    with pytest.raises(error) as exc:
        (run_nonlinear if model == "nonlinear" else run_linear)(cfg, net)
    assert str(exc.value) == message


def _reference_boundary_fluxes(v1J, w1_out, v_in, w2J, u0, net, step=0):
    """The boundary algebra on the four outgoing invariants through the
    range-checked pressure() and inverse_pressure(), reading the segment
    parameters anew on every call: the reference for the per-run float
    algebra of ``sim.boundary_algebra``."""
    seg1, seg2 = net.seg1, net.seg2
    q_star = net.ss1.q_star
    if w2J - v1J <= 0.0:
        raise SimulationError(f"junction pressure collapsed at step {step}")
    rho1J = inverse_pressure(w2J - v1J, seg1)
    if rho1J <= RHO_FLOOR or rho1J >= seg1.rho_max:  # a NaN passes
        raise SimulationError(
            f"junction density {rho1J:.4f} outside (0, rho_max) at step {step}"
        )
    q1J = rho1J * v1J
    q2J = q1J - u0
    if q2J <= 0.0:
        raise SimulationError(
            f"ramp input {u0:.4f} veh/s exceeds the junction flux {q1J:.4f} "
            f"veh/s at step {step}; feasible U_0 < {q1J:.4f}"
        )
    rho_g = q_star / v_in
    if rho_g >= seg2.rho_max:
        raise SimulationError(f"inlet ghost density reached rho_max at step {step}")
    w_g = v_in + pressure(rho_g, seg2)
    return (q1J, w2J), (q_star, w1_out), (q_star, w_g), (q2J, w2J)


def _outcome(fn, *args):
    """The four (flux, w) pairs, or the error type and message."""
    try:
        return fn(*args)
    except (DomainError, SimulationError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("which", ["default", "gamma"])
def test_boundary_algebra_matches_pressure_reference(net, gamma_net, which):
    # invariants scattered from the steady state, with the junction's
    # w2 - v1 in (0, v_max) so that its density is admissible: both
    # implementations return the same bits, or raise the same error with the
    # same message on an inlet too slow to carry q*, a stopped or reversed
    # inlet, or an excessive ramp input. At least half of the draws must
    # reach the returned bits
    net = gamma_net if which == "gamma" else net
    ss1, ss2, v_max = net.ss1, net.ss2, net.seg1.v_max
    returned = []

    @settings(max_examples=100, deadline=None, derandomize=True,
              phases=BITWISE_PHASES)
    @given(
        scale=st.tuples(st.floats(0.2, 3.0), st.floats(0.7, 3.0), st.floats(0.0, 2.0),
                        st.floats(-0.2, 0.5)),
        gap=st.floats(0.01, 0.99),
        step=st.integers(0, 10**6),
    )
    @example(scale=(1.0, 0.0, 1.0, 0.0), gap=0.5, step=7)  # a stopped inlet
    @example(scale=(1.0, -0.05, 1.0, 0.0), gap=0.5, step=7)  # a reversed one
    def check(scale, gap, step):
        v1J, v_in = ss1.v_star * scale[0], ss2.v_star * scale[1]
        w1_out = (ss1.v_star + ss1.p_star) * scale[2]
        args = (v1J, w1_out, v_in, v1J + gap * v_max, ss1.q_star * scale[3])
        got = _outcome(boundary_algebra(net), *args, step)
        # numpy scalars, so that the reference divides by a stopped inlet's 0,
        # or by a subnormal speed to infinity, as the float algebra does
        with np.errstate(divide="ignore", over="ignore"):
            want = _outcome(_reference_boundary_fluxes, *map(np.float64, args), net, step)
        if isinstance(want[0], str):
            assert got == want
        else:
            assert np.array(got).tobytes() == np.array(want).tobytes()
        returned.append(not isinstance(want[0], str))

    check()
    assert 2 * sum(returned) >= len(returned) >= 100


def test_stepper_hands_the_algebra_its_own_pressure(gamma_net, monkeypatch):
    # two algebra calls per step, on the state at t^n and on the half-step
    # end states. The w invariants at the outlet and the junction are v + p,
    # p from the stepper's stacked pressure_law (the second call's on the
    # (2, 2) block of end densities with (2, 1) columns), not a second power
    # of the trace densities; on the gamma network the two differ in last bits
    net, N = gamma_net, 64
    calls, algebra = [], boundary_algebra

    def spy(net):
        fluxes = algebra(net)

        def spied(*args):
            calls.append(args[:4])
            return fluxes(*args)
        return spied

    monkeypatch.setattr(sg.sim, "boundary_algebra", spy)
    cfg = sg.SimConfig(t_final=0.2 * (net.ss1.kappa + net.ss2.kappa), N=N,
                       loop_mode="closed", model="nonlinear",
                       ic=sg.ICSpec(eps=0.02, k1=2, phase1=0.4, phase2=4.3), record_every=1)
    rec = run_nonlinear(cfg, net)
    blocks = []  # the (rho, v) end blocks that the reference's algebra calls read
    _per_segment_reference(cfg, net, calls=blocks)
    assert len(calls) == len(blocks) == 2 * rec.n_steps > 200
    segs = (net.seg1, net.seg2)
    coeff = np.array([[s.pressure_coeff] for s in segs])
    gamma = np.array([[s.gamma] for s in segs])
    float_power = [0, 0]
    for k, ((v1J, w1_out, v_in, w2J), (rho, v)) in enumerate(zip(calls, blocks)):
        if k % 2 == 0:  # the first call of a step reads that step's record
            m = k // 2
            assert np.array_equal(rho, [rec.rho1[m][::N], rec.rho2[m][::N]])
            assert np.array_equal(v, [rec.v1[m][::N], rec.v2[m][::N]])
        P = pressure_law(rho, coeff, gamma)
        assert (v1J, v_in) == (v[0, 0], v[1, 0])
        assert w1_out == v[0, 1] + P[0, 1]
        assert w2J == v[1, 1] + P[1, 1]
        float_power[k % 2] += w2J != v[1, 1] + pressure(float(rho[1, 1]), net.seg2)
    assert min(float_power) > 0  # the test tells the two powers apart in both calls


@pytest.mark.parametrize("which", ["default", "gamma"])
@pytest.mark.parametrize("seg", [0, 1])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(rho_frac=st.floats(1e-6, 1.0), v_frac=st.floats(1e-6, 1.0))
def test_relaxation_source_drops_the_pressure(net, gamma_net, which, seg, rho_frac, v_frac):
    # -(y - rho v_max)/tau is the source -rho (v - V(rho))/tau of y =
    # rho (v + p): V = v_max - p, so the pressure cancels to round-off
    net = gamma_net if which == "gamma" else net
    params = (net.seg1, net.seg2)[seg]
    rho = np.float64(params.rho_max * rho_frac)
    p = pressure(rho, params)
    y = rho * (params.v_max * v_frac + p)
    p_free = (y - rho * params.v_max) / params.tau
    p_form = rho * (y / rho - p - (params.v_max - p)) / params.tau
    assert abs(p_free - p_form) <= 4.0 * np.spacing((abs(y) + rho * params.v_max) / params.tau)


def _record_bits(rec):
    """Every field of a SimRecord as bytes, the target states' rows included."""
    out = {}
    for f in dataclasses.fields(rec):
        value = getattr(rec, f.name)
        if f.name == "target" and value is not None:
            value = [getattr(st, k) for st in value for k in ("alpha1", "beta1", "alpha2", "beta2")]
            value = b"".join(a.tobytes() for a in value)
        out[f.name] = value.tobytes() if isinstance(value, np.ndarray) else value
    return out


@pytest.mark.parametrize("run", [run_linear, run_nonlinear])
@pytest.mark.parametrize("loop", ["open", "closed"])
def test_runners_ignore_kernel_tables(net, gamma_tables, window, run, loop):
    # the gains are the network's own kernel constants: tables solved on
    # another network, handed over as the benchmark harness does, change no bit
    cfg = sg.SimConfig(t_final=0.3 * window, N=32, loop_mode=loop,
                       model="linear" if run is run_linear else "nonlinear",
                       ic=sg.ICSpec(eps=0.03, phase1=0.4), record_every=5)
    plain = run(cfg, net)
    assert (plain.target is not None) == (loop == "closed")
    assert _record_bits(run(cfg, net, gamma_tables(32))) == _record_bits(plain)


def test_sim_config_refuses_non_integer_counts():
    # N = 64.5 died in linspace, and record_every = 2.5 recorded every 5th step
    for bad in (64.5, 64.0, "64"):
        with pytest.raises(DomainError, match=f"^N must be an integer of at least 32, got {bad}$"):
            sg.SimConfig(t_final=10.0, N=bad)
    for bad in (2.5, 2.0, 0):
        with pytest.raises(DomainError, match=f"^record_every must be a positive integer, got {bad}$"):
            sg.SimConfig(t_final=10.0, record_every=bad)
    assert sg.SimConfig(t_final=10.0, N=np.int64(64), record_every=np.int64(3)).N == 64


@pytest.mark.parametrize("run", [run_linear, run_nonlinear])
@pytest.mark.parametrize("loop", ["open", "closed"])
def test_runners_refuse_segments_of_unequal_length(net, run, loop):
    # both steppers lay the two segments on one grid spacing, so a longer
    # segment 2 would be simulated on segment 1's interval
    uneven = sg.make_network(net.seg1, dataclasses.replace(net.seg2, length=3000.0), 6.0)
    cfg = sg.SimConfig(t_final=10.0, N=32, loop_mode=loop,
                       model="linear" if run is run_linear else "nonlinear")
    with pytest.raises(DomainError, match=r"^the steppers need segments of equal length, "
                                          r"got 2000\.0 m and 3000\.0 m$"):
        run(cfg, uneven)


def _junction_trace(index, value):
    """Initial data with one trace velocity replaced: (segment, node)."""
    def patched(ic, net, N):
        phys = initial_condition(ic, net, N)
        seg, node = index
        phys[seg][1][node] = value
        return phys
    return patched


@pytest.mark.parametrize("case", ["collapse", "junction density", "ramp"])
def test_boundary_errors_keep_step_and_message(net, window, monkeypatch, case):
    # three of the boundary errors of the nonlinear stepper, at the step and
    # with the message the range-checked pressure() algebra gave; the fourth,
    # the inlet ghost density, is test_inlet_ghost_density_failure
    loop = "open"
    if case == "collapse":  # v1(0) above w2(0) = v_max
        monkeypatch.setattr(sg.sim, "initial_condition", _junction_trace((0, 0), 50.0))
        message = "junction pressure collapsed at step 0$"
    elif case == "junction density":  # w2(0) - v1(0) above v_max
        monkeypatch.setattr(sg.sim, "initial_condition", _junction_trace((1, -1), 45.0))
        message = r"junction density 1\.0083 outside \(0, rho_max\) at step 0$"
    elif case == "ramp":  # a feedback law 500 times too strong
        loop = "closed"
        monkeypatch.setattr(sg.sim, "control_input",
                            lambda ops, flux, v: 500.0 * control_input(ops, flux, v))
        message = (r"ramp input 18\.3197 veh/s exceeds the junction flux 5\.9422 veh/s "
                   r"at step 5; feasible U_0 < 5\.9422$")
    cfg = sg.SimConfig(t_final=window, N=64, loop_mode=loop, model="nonlinear",
                       ic=sg.ICSpec(eps=0.02), record_every=8)
    with pytest.raises(SimulationError, match=message):
        run_nonlinear(cfg, net)
