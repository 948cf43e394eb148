import dataclasses

import numpy as np
import pytest

import stopngo as sg
from stopngo.errors import DomainError
from stopngo.model import congested_flux_root, pressure
from stopngo.riemann import (
    boundary_rows,
    coupling_coefficient,
    scale_w,
    to_riemann,
)
from stopngo.sim import boundary_algebra

from oracles import from_riemann, unscale_w


def grid(net, sid, N=64):
    lo, hi = (net.seg1 if sid == 1 else net.seg2).interval
    return np.linspace(lo, hi, N + 1)


def test_steady_state_maps_to_zero(net):
    for sid, ss, seg in ((1, net.ss1, net.seg1), (2, net.ss2, net.seg2)):
        x = grid(net, sid)
        wt, vt = to_riemann(np.full(x.size, ss.rho_star), np.full(x.size, ss.v_star), ss, seg)
        assert np.abs(wt).max() < 1e-12
        assert np.abs(vt).max() < 1e-12


def test_unit_velocity_bump_worked_value(net):
    # rho at the segment-2 equilibrium, v raised by exactly 1 m/s; at fixed
    # rho the driver property w = v + p(rho) moves one for one with v, so
    # w-tilde = (gamma p*/v*) - 1/r = 1 exactly
    ss, seg = net.ss2, net.seg2
    x = grid(net, 2, 4)
    wt, vt = to_riemann(np.full(x.size, ss.rho_star), np.full(x.size, ss.v_star + 1.0), ss, seg)
    assert np.abs(vt - 1.0).max() < 1e-13
    assert wt[0] == pytest.approx(1.0, rel=1e-12)


def test_to_riemann_is_affine(net, rng):
    # the map is affine in (rho v, v) with the steady state as fixed point,
    # so a perturbation scaled in those coordinates scales the output
    ss, seg = net.ss1, net.seg1
    x = grid(net, 1)
    dq = 0.4 * rng.standard_normal(x.size)
    dv = 0.5 * rng.standard_normal(x.size)

    def state(scale):
        v = ss.v_star + scale * dv
        rho = (ss.q_star + scale * dq) / v
        return to_riemann(rho, v, ss, seg)

    (fw, fv), (hw, hv) = state(1.0), state(0.5)
    assert np.abs(hw - 0.5 * fw).max() < 1e-12 * max(1.0, np.abs(fw).max())
    assert np.abs(hv - 0.5 * fv).max() < 1e-13 * max(1.0, np.abs(fv).max())


def test_round_trips_random_states(net, rng):
    for sid, ss, seg in ((1, net.ss1, net.seg1), (2, net.ss2, net.seg2)):
        x = grid(net, sid)
        for _ in range(20):
            rho = ss.rho_star * (1.0 + 0.2 * rng.uniform(-1, 1, x.size))
            v = ss.v_star * (1.0 + 0.2 * rng.uniform(-1, 1, x.size))
            wt, vt = to_riemann(rho, v, ss, seg)
            back_rho, back_v = from_riemann(wt, vt, ss, seg)
            assert np.abs(back_rho - rho).max() < 1e-12 * np.abs(rho).max()
            assert np.abs(back_v - v).max() < 1e-12 * np.abs(v).max()
            again = unscale_w(x, scale_w(x, wt, ss, seg), ss, seg)
            assert np.abs(again - wt).max() <= 1e-12 * max(1.0, np.abs(wt).max())


def test_from_riemann_zero_is_steady(net):
    ss, seg = net.ss2, net.seg2
    x = grid(net, 2)
    rho, v = from_riemann(np.zeros(x.size), np.zeros(x.size), ss, seg)
    assert np.abs(rho - ss.rho_star).max() < 1e-14
    assert np.abs(v - ss.v_star).max() < 1e-14


def test_from_riemann_guards_vacuum_velocity(net):
    ss, seg = net.ss1, net.seg1
    x = grid(net, 1, 4)
    with pytest.raises(DomainError):
        from_riemann(np.zeros(x.size), np.full(x.size, -ss.v_star), ss, seg)


def test_scale_factor_outlet(net):
    ss, seg = net.ss1, net.seg1
    x = grid(net, 1)
    wbar = scale_w(x, np.ones(x.size), ss, seg)
    assert wbar[0] == 1.0  # x = 0 unchanged
    factor = np.exp(seg.length / (seg.tau * ss.v_star))
    assert wbar[-1] == pytest.approx(factor, rel=1e-13)
    assert factor == pytest.approx(3.818, abs=5e-3)


def test_scale_zero_stays_zero(net):
    ss, seg = net.ss2, net.seg2
    x = grid(net, 2)
    assert np.all(scale_w(x, np.zeros(x.size), ss, seg) == 0.0)


def test_coupling_coefficient_values(net):
    ss1, seg1 = net.ss1, net.seg1
    ss2, seg2 = net.ss2, net.seg2
    assert coupling_coefficient(0.0, ss1, seg1) == pytest.approx(-1.0 / 120.0, rel=1e-14)
    assert coupling_coefficient(0.0, ss2, seg2) == pytest.approx(-1.0 / 90.0, rel=1e-14)
    c_inlet = coupling_coefficient(-seg2.length, ss2, seg2)
    assert c_inlet == pytest.approx(-0.11466, abs=5e-4)
    x = np.linspace(0.0, seg1.length, 201)
    assert np.all(coupling_coefficient(x, ss1, seg1) < 0.0)
    with pytest.raises(DomainError):
        coupling_coefficient(seg1.length + 1.0, ss1, seg1)
    with pytest.raises(DomainError):
        coupling_coefficient(0.5, ss2, seg2)


def test_transport_of_scaled_variable_matches_decaying_transport(net):
    # moving w-bar at speed v* with no source, then unscaling, must equal
    # moving w-tilde at speed v* while it decays at rate 1/tau; both
    # evolutions are available in closed form along characteristics
    ss, seg = net.ss1, net.seg1
    profile = lambda x: np.sin(3.0 * np.pi * x / seg.length) + 0.4
    t = 40.0
    x = np.linspace(ss.v_star * t + 1.0, seg.length, 301)
    foot = x - ss.v_star * t
    direct = profile(foot) * np.exp(-t / seg.tau)
    scaled0 = profile(foot) * np.exp(foot / (seg.tau * ss.v_star))
    via_scaling = np.exp(-x / (seg.tau * ss.v_star)) * scaled0
    assert np.abs(direct - via_scaling).max() < 1e-12


def test_boundary_rows_default(rows):
    # closed forms of the Jacobian of the plant's boundary algebra, evaluated
    # in 40-digit arithmetic on the default network
    assert rows.g_outlet == pytest.approx(-0.16178067766489531, rel=1e-12)
    assert rows.g_inlet == pytest.approx(-0.26401148450427225, rel=1e-12)
    assert rows.g_t == pytest.approx(0.64559404572455592, rel=1e-12)
    assert rows.g_a == pytest.approx(0.032901494232139950, rel=1e-12)
    assert rows.g_control == pytest.approx(-2.1650635094610966, rel=1e-12)
    assert rows.g_junction_w == 1.0
    # rounded reference magnitude of the inlet reflection; its sign follows
    # the linearized plant
    assert abs(rows.g_inlet) == pytest.approx(0.2638, abs=5e-4)
    assert rows.e1 == pytest.approx(0.26181398830970687, rel=1e-12)
    assert rows.e2 == pytest.approx(0.09663491021940529, rel=1e-12)


def test_boundary_rows_composition(net, rows):
    ss1, ss2 = net.ss1, net.ss2
    assert rows.g_outlet == pytest.approx(-ss1.r * rows.e1, rel=1e-14)
    assert rows.g_inlet == pytest.approx(-rows.e2 / ss2.r, rel=1e-14)
    g_t = ss2.v_star * (1.0 + ss2.r) / (ss1.v_star * (1.0 + ss1.r))
    assert rows.g_t == pytest.approx(g_t, rel=1e-14)
    assert rows.g_a == pytest.approx(ss1.r * g_t - ss2.r, rel=1e-14)
    assert rows.g_control == pytest.approx(-ss2.v_star * (1.0 + ss2.r) / ss2.q_star, rel=1e-14)


def _finite_difference_rows(net, h=1e-6):
    """Central differences of sim.boundary_algebra about the steady state.

    Each outgoing rescaled invariant is perturbed in the invariant the
    algebra takes; each returned (flux, w) pair is turned back into the
    incoming rescaled invariant through the congested root of
    rho (w - p(rho)) = q.
    """
    ss1, ss2, seg1, seg2 = net.ss1, net.ss2, net.seg1, net.seg2
    e1 = np.exp(-seg1.length / (seg1.tau * ss1.v_star))
    e2 = np.exp(-seg2.length / (seg2.tau * ss2.v_star))
    w1s, w2s = ss1.v_star + ss1.p_star, ss2.v_star + ss2.p_star

    fluxes = boundary_algebra(net)

    def incoming(w1L=0.0, v2L=0.0, v10=0.0, w20=0.0, u0=0.0):
        # w-tilde1(L) = e1 w-bar1(L); the other three are unscaled at their ends
        (q1J, w1J), (q_out, w_out), (q_in, w_in), (q2J, w2J) = fluxes(
            ss1.v_star + v10, w1s + e1 * w1L, ss2.v_star + v2L, w2s + w20, u0, 0
        )

        def speed(w, q, seg):
            return w - pressure(congested_flux_root(w, q, seg), seg)

        return np.array([
            speed(w_out, q_out, seg1) - ss1.v_star,  # v-tilde1(L)
            e2 * (w_in - w2s),  # w-bar2(-L)
            w1J - w1s,  # w-bar1(0)
            speed(w2J, q2J, seg2) - ss2.v_star,  # v-tilde2(0)
        ])

    def d(name):
        return (incoming(**{name: h}) - incoming(**{name: -h})) / (2.0 * h)

    return {name: d(name) for name in ("w1L", "v2L", "v10", "w20", "u0")}


@pytest.mark.parametrize("which", ["default", "gamma"])
def test_boundary_rows_are_jacobian_of_plant_algebra(net, gamma_net, which):
    if which == "gamma":
        net = gamma_net
    rows = boundary_rows(net)
    jac = _finite_difference_rows(net)
    # incoming order: v-tilde1(L), w-bar2(-L), w-bar1(0), v-tilde2(0)
    want = {
        "w1L": [rows.g_outlet, 0.0, 0.0, 0.0],
        "v2L": [0.0, rows.g_inlet, 0.0, 0.0],
        "v10": [0.0, 0.0, 0.0, rows.g_t],
        "w20": [0.0, 0.0, rows.g_junction_w, rows.g_a],
        "u0": [0.0, 0.0, 0.0, rows.g_control],
    }
    for name, col in want.items():
        for got, exp in zip(jac[name], col):
            if exp == 0.0:
                assert abs(got) <= 1e-6
            else:
                assert abs(got - exp) <= 1e-6 * abs(exp), (name, got, exp)


def test_identical_segments_drop_junction_coupling(net):
    eq = sg.make_network(dataclasses.replace(net.seg2, segment_id=1), net.seg2, 6.0)
    r = boundary_rows(eq)
    assert r.g_a == 0.0
    assert r.g_t == 1.0


def test_degenerate_junction_row_rejected(net):
    ss1 = dataclasses.replace(net.ss1, r=1.0)
    bad = dataclasses.replace(net, ss1=ss1)
    with pytest.raises(DomainError):
        boundary_rows(bad)
